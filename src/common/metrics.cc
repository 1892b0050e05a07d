#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace erq {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

// Metric names follow `erq.<module>.<name>` (no quotes/backslashes), but
// the shared JsonQuote escapes defensively so ToJson() is valid JSON for
// any registered name.
std::string JsonString(const std::string& s) { return JsonQuote(s); }

template <typename T>
T* GetOrCreate(std::map<std::string, std::unique_ptr<T>>& instruments,
               const std::string& name, T* parent) {
  std::unique_ptr<T>& slot = instruments[name];
  if (slot == nullptr) slot = std::make_unique<T>(parent);
  return slot.get();
}

}  // namespace

double Histogram::UpperBound(size_t i) {
  return 1e-6 * static_cast<double>(uint64_t{1} << i);
}

size_t Histogram::BucketIndex(double seconds) {
  for (size_t i = 0; i < kNumFiniteBuckets; ++i) {
    if (seconds <= UpperBound(i)) return i;
  }
  return kNumFiniteBuckets;  // +inf overflow
}

void Histogram::Observe(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // clamp negatives and NaN
  count_.fetch_add(1, kRelaxed);
  sum_nanos_.fetch_add(static_cast<uint64_t>(seconds * 1e9), kRelaxed);
  buckets_[BucketIndex(seconds)].fetch_add(1, kRelaxed);
  if (parent_ != nullptr) parent_->Observe(seconds);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot out;
  out.count = count_.load(kRelaxed);
  out.sum_seconds = static_cast<double>(sum_nanos_.load(kRelaxed)) * 1e-9;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(kRelaxed);
  }
  return out;
}

void Histogram::Reset() {
  count_.store(0, kRelaxed);
  sum_nanos_.store(0, kRelaxed);
  for (auto& b : buckets_) b.store(0, kRelaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

// Each getter resolves the parent's instrument before taking mu_: scope
// and parent share the Metrics rank, so their mutexes must not nest.

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Counter* parent = parent_ == nullptr ? nullptr : parent_->GetCounter(name);
  MutexLock lock(&mu_);
  return GetOrCreate(counters_, name, parent);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Gauge* parent = parent_ == nullptr ? nullptr : parent_->GetGauge(name);
  MutexLock lock(&mu_);
  return GetOrCreate(gauges_, name, parent);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  Histogram* parent =
      parent_ == nullptr ? nullptr : parent_->GetHistogram(name);
  MutexLock lock(&mu_);
  return GetOrCreate(histograms_, name, parent);
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\n \"schema\": \"erq.metrics.v1\",\n \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  " + JsonString(name) + ": " + std::to_string(counter->Value());
  }
  out += first ? "},\n" : "\n },\n";
  out += " \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  " + JsonString(name) + ": " + std::to_string(gauge->Value());
  }
  out += first ? "},\n" : "\n },\n";
  out += " \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    Histogram::Snapshot snap = histogram->TakeSnapshot();
    out += "  " + JsonString(name) + ": {\"count\": " +
           std::to_string(snap.count) +
           ", \"sum_seconds\": " + JsonNumber(snap.sum_seconds) +
           ", \"buckets\": [";
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < Histogram::kNumFiniteBuckets
                 ? JsonNumber(Histogram::UpperBound(i))
                 : std::string("\"+inf\"");
      out += ", \"count\": " + std::to_string(snap.buckets[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n }\n}\n";
  return out;
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

std::vector<std::string> MetricsRegistry::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) out.push_back(name);
  for (const auto& [name, g] : gauges_) out.push_back(name);
  for (const auto& [name, h] : histograms_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace erq

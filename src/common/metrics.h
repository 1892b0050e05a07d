#pragma once

// Process-wide observability layer: a metrics registry with counters,
// gauges, and fixed-bucket latency histograms, plus RAII span timers.
//
// The paper's evaluation (§3) is entirely about per-stage overhead —
// check time vs. saved execution time — and a production deployment needs
// those numbers continuously, not only inside ad-hoc bench printouts.
// Every pipeline stage (parse / plan / optimize / gate / check / execute /
// record) and every cache records into this registry; an external monitor
// consumes one MetricsRegistry::ToJson() snapshot.
//
// Concurrency discipline (matching C_aqp's lookup path): the hot path —
// Counter::Increment, Gauge::Set, Histogram::Observe — is lock-free,
// touching only relaxed atomics. The registry mutex is taken solely on
// instrument *registration* (first lookup of a name) and on ToJson();
// callers on hot paths resolve their instruments once and keep the
// pointers, which stay valid for the registry's lifetime.
//
// Scopes: a component that reports per-instance numbers (a C_aqp cache,
// a reuse store, a manager) owns a child registry of Global() and counts
// each event once, into the child; every child instrument forwards its
// updates to the parent's instrument of the same name, so Global() stays
// the process-wide aggregate and the child is the instance's own view.
//
// Metric naming convention: `erq.<module>.<name>` (see DESIGN.md
// §"Observability"), e.g. `erq.caqp.hits`, `erq.manager.stage.check`.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace erq {

/// Monotonically increasing event count. Lock-free. A counter with a
/// parent (see MetricsRegistry scopes) adds every increment to it too;
/// Reset() zeroes only this counter.
class Counter {
 public:
  explicit Counter(Counter* parent = nullptr) : parent_(parent) {}

  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->Increment(delta);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  Counter* const parent_;
};

/// Instantaneous value (occupancy, thresholds). Lock-free. A gauge with a
/// parent moves the parent by the same deltas and takes its remaining
/// value back out on destruction, so a parent gauge is the sum over its
/// live children.
class Gauge {
 public:
  explicit Gauge(Gauge* parent = nullptr) : parent_(parent) {}
  ~Gauge() { Set(0); }
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) {
    const int64_t old = value_.exchange(value, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->Add(value - old);
  }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->Add(delta);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
  Gauge* const parent_;
};

/// Fixed-bucket latency histogram. Bucket i counts observations with
/// value <= UpperBound(i); the ladder is exponential from 1 us doubling up
/// to ~67 s, with a final +inf overflow bucket, so one layout serves every
/// pipeline stage (a C_aqp probe is ~1 us, a cold TPC-R execution ~1 s).
/// All updates are relaxed atomics; a concurrent snapshot is approximate
/// (each cell individually accurate). A histogram with a parent records
/// every observation into it too; Reset() zeroes only this histogram.
class Histogram {
 public:
  explicit Histogram(Histogram* parent = nullptr) : parent_(parent) {}

  /// Finite buckets; bucket kNumFiniteBuckets is the +inf overflow.
  static constexpr size_t kNumFiniteBuckets = 26;
  static constexpr size_t kNumBuckets = kNumFiniteBuckets + 1;

  /// Upper bound (seconds) of finite bucket `i`: 1e-6 * 2^i.
  static double UpperBound(size_t i);
  /// Index of the bucket an observation of `seconds` lands in.
  static size_t BucketIndex(double seconds);

  void Observe(double seconds);

  /// Consistent-enough copy of the cells for reporting.
  struct Snapshot {
    uint64_t count = 0;
    double sum_seconds = 0.0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double AverageSeconds() const {
      return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
    }
  };
  Snapshot TakeSnapshot() const;

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  /// Sum kept in nanoseconds so the accumulator is a plain integer atomic
  /// (atomic<double> fetch_add generates a CAS loop on some targets).
  std::atomic<uint64_t> sum_nanos_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  Histogram* const parent_;
};

/// Steady-clock stopwatch.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// RAII pipeline-stage span: on destruction records the elapsed time into
/// a histogram (latency distribution across all queries) and, optionally,
/// accumulates it into a caller-owned double (this query's Timings field).
/// Either sink may be null.
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram* histogram, double* accumulate_seconds = nullptr)
      : histogram_(histogram), accumulate_seconds_(accumulate_seconds) {}
  ~ScopedSpan() {
    double s = timer_.Seconds();
    if (histogram_ != nullptr) histogram_->Observe(s);
    if (accumulate_seconds_ != nullptr) *accumulate_seconds_ += s;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Histogram* histogram_;
  double* accumulate_seconds_;
  Timer timer_;
};

/// Name -> instrument map. Instruments are created on first lookup and
/// live for the registry's lifetime, so returned pointers are stable and
/// may be cached by hot paths. Counters, gauges, and histograms are
/// separate namespaces; by convention (enforced in review, visible in
/// ToJson()) a name is only ever used for one kind.
///
/// A registry built with a parent is a *scope*: each of its instruments
/// forwards to the parent's instrument of the same name (see Counter,
/// Gauge, Histogram), so an event counted once in the scope shows up in
/// both. The parent must outlive the scope; when the scope dies its
/// gauges' remaining values leave the parent.
class MetricsRegistry {
 public:
  /// The process-wide registry every production component records into,
  /// directly or through a scope.
  static MetricsRegistry& Global();

  /// A scope whose instruments forward to `parent`'s (null: a root).
  explicit MetricsRegistry(MetricsRegistry* parent = nullptr)
      : parent_(parent) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name) ERQ_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) ERQ_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) ERQ_EXCLUDES(mu_);

  /// Machine-readable snapshot of every registered instrument:
  ///   {"schema":"erq.metrics.v1",
  ///    "counters":{name:value,...},
  ///    "gauges":{name:value,...},
  ///    "histograms":{name:{"count":n,"sum_seconds":s,
  ///                        "buckets":[{"le":u,"count":c},...]},...}}
  /// Keys are emitted in sorted order so snapshots diff cleanly; the last
  /// bucket's "le" is the string "+inf". tools/metrics_dump emits exactly
  /// this document, and tools/bench_json.sh embeds it into BENCH_*.json.
  std::string ToJson() const ERQ_EXCLUDES(mu_);

  /// Zeroes every registered counter and histogram (registration
  /// survives). Gauges are occupancy, not event counts, and keep their
  /// values. Not forwarded: resetting a scope leaves its parent alone, and
  /// resetting a parent leaves its scopes alone. Tests and the
  /// metrics_dump CLI use this to scope a snapshot to one workload.
  void Reset() ERQ_EXCLUDES(mu_);

  /// Sorted names of all registered instruments (any kind).
  std::vector<std::string> Names() const ERQ_EXCLUDES(mu_);

 private:
  MetricsRegistry* const parent_;
  // The universal leaf of the lock hierarchy: every module registers
  // instruments (possibly under its own lock); this lock calls out to
  // nothing. A scope and its parent share the rank, so a scope resolves
  // the parent's instrument before taking its own mutex: the two never
  // nest.
  mutable Mutex mu_
      ERQ_ACQUIRED_AFTER(lock_order::kMetrics){lock_order::kMetrics};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      ERQ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ ERQ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      ERQ_GUARDED_BY(mu_);
};

}  // namespace erq

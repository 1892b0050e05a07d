#pragma once

// Measurement plumbing for bench_e2e: percentiles, registry counter
// diffs, and the in-memory span tracer that attributes op time to layers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "core/manager.h"

namespace erq::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The sample at rank floor(q * (n - 1)) of `v` (unsorted; taken by value
/// because nth_element reorders it). 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

/// Registry counters the per-layer metrics are derived from.
inline const std::vector<std::string>& CounterNames() {
  static const std::vector<std::string> names = {
      "erq.caqp.lookups",           "erq.caqp.hits",
      "erq.caqp.conditions_scanned", "erq.caqp.candidate_entries",
      "erq.caqp.evictions",         "erq.caqp.invalidation_drops",
      "erq.detector.checks",        "erq.detector.parts_checked",
      "erq.exec.runs",              "erq.exec.rows_scanned",
      "erq.exec.partitions.scanned", "erq.exec.partitions.pruned",
      "erq.reuse.lookups",          "erq.reuse.hits",
      "erq.reuse.rows_served",      "erq.reuse.evictions",
      "erq.reuse.invalidated",      "erq.persist.journal_appends",
      "erq.persist.fsyncs",
  };
  return names;
}

using CounterValues = std::map<std::string, uint64_t>;

inline CounterValues ReadCounters() {
  CounterValues out;
  for (const std::string& name : CounterNames()) {
    out[name] = MetricsRegistry::Global().GetCounter(name)->Value();
  }
  return out;
}

inline CounterValues DiffCounters(const CounterValues& end,
                                  const CounterValues& start) {
  CounterValues out;
  for (const auto& [name, value] : end) out[name] = value - start.at(name);
  return out;
}

/// One traced interval. `parent` indexes the op's span list (-1 for the
/// op root). Replay spans re-run part of the check outside the op, so
/// they are never subtracted from their parent's self time.
struct Span {
  const char* name;
  int32_t parent;
  int64_t start_ns;
  int64_t end_ns;
  bool replay;
};

/// Per-layer aggregates of every traced op: span durations, self times
/// (duration minus non-replay children), and total op time. Samples are
/// floats: a traced server run holds millions of them.
struct TraceAggregate {
  struct Layer {
    std::vector<float> duration_us;
    std::vector<float> self_us;
    double self_seconds = 0.0;
  };
  std::map<std::string, Layer> layers;
  double op_seconds = 0.0;
  size_t ops = 0;

  void Merge(TraceAggregate&& other) {
    for (auto& [name, layer] : other.layers) {
      Layer& mine = layers[name];
      mine.duration_us.insert(mine.duration_us.end(),
                              layer.duration_us.begin(),
                              layer.duration_us.end());
      mine.self_us.insert(mine.self_us.end(), layer.self_us.begin(),
                          layer.self_us.end());
      mine.self_seconds += layer.self_seconds;
      layer = Layer{};
    }
    op_seconds += other.op_seconds;
    ops += other.ops;
  }

  const Layer* Find(const std::string& name) const {
    auto it = layers.find(name);
    return it == layers.end() ? nullptr : &it->second;
  }

  /// Self time of `name` as a share of all op time.
  double Share(const std::string& name) const {
    const Layer* layer = Find(name);
    return layer == nullptr || op_seconds <= 0.0
               ? 0.0
               : layer->self_seconds / op_seconds;
  }
};

/// Collects the spans of one op at a time and folds each finished op into
/// a TraceAggregate. When `keep` is set every span is also retained, to be
/// written as JSON lines at exit. One tracer per client thread.
class Tracer {
 public:
  explicit Tracer(bool keep) : keep_(keep) {}

  /// Opens op `op` with its root span "op" starting at `start_ns`.
  void BeginOp(uint64_t op, int64_t start_ns) {
    op_ = op;
    spans_.clear();
    spans_.push_back(Span{"op", -1, start_ns, start_ns, false});
  }

  /// Adds a span; returns its index for use as a parent.
  int32_t Add(const char* name, int32_t parent, int64_t start_ns,
              int64_t end_ns, bool replay = false) {
    spans_.push_back(Span{name, parent, start_ns, end_ns, replay});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /// Lays the manager's stage timings out back to back from `start_ns`
  /// under `parent`, in pipeline order. Stages that did not run are
  /// omitted. Returns the index of the core.check span, or -1.
  int32_t AddStages(int32_t parent, int64_t start_ns,
                    const QueryOutcome::Timings& t) {
    const std::pair<const char*, double> stages[] = {
        {"sql.parse", t.parse_seconds},
        {"plan.plan", t.plan_seconds},
        {"plan.optimize", t.optimize_seconds},
        {"core.gate", t.gate_seconds},
        {"core.check", t.check_seconds},
        {"exec.execute", t.execute_seconds},
        {"core.record", t.record_seconds},
    };
    int32_t check = -1;
    int64_t at = start_ns;
    for (const auto& [name, seconds] : stages) {
      if (seconds <= 0.0) continue;
      const int64_t end = at + static_cast<int64_t>(seconds * 1e9);
      const int32_t id = Add(name, parent, at, end);
      if (std::strcmp(name, "core.check") == 0) check = id;
      at = end;
    }
    return check;
  }

  /// Closes the op root at `end_ns` and folds the op into the aggregate.
  void EndOp(int64_t end_ns) {
    spans_[0].end_ns = end_ns;
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0 && !s.replay) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur_ns = static_cast<double>(s.end_ns - s.start_ns);
      const double self_ns =
          std::max(0.0, dur_ns - static_cast<double>(child_ns[i]));
      TraceAggregate::Layer& layer = aggregate_.layers[s.name];
      layer.duration_us.push_back(static_cast<float>(dur_ns / 1e3));
      layer.self_us.push_back(static_cast<float>(self_ns / 1e3));
      layer.self_seconds += self_ns / 1e9;
    }
    aggregate_.op_seconds +=
        static_cast<double>(spans_[0].end_ns - spans_[0].start_ns) / 1e9;
    ++aggregate_.ops;
    if (keep_) {
      for (const Span& s : spans_) kept_.push_back(Kept{op_, s, kept_base_});
      kept_base_ += spans_.size();
    }
  }

  /// Hands over everything folded so far.
  TraceAggregate TakeAggregate() { return std::move(aggregate_); }

  /// Appends every kept span as one JSON object per line:
  /// {op, name, parent, start_ns, end_ns, replay}; ids are global across
  /// tracers through `*next_id`.
  void Write(std::FILE* out, uint64_t* next_id) const {
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      const int64_t parent =
          k.span.parent < 0
              ? -1
              : static_cast<int64_t>(*next_id + k.base + k.span.parent);
      std::fprintf(out,
                   "{\"id\":%llu,\"op\":%llu,\"name\":%s,\"parent\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"replay\":%s}\n",
                   static_cast<unsigned long long>(*next_id + i),
                   static_cast<unsigned long long>(k.op),
                   JsonQuote(k.span.name).c_str(),
                   static_cast<long long>(parent),
                   static_cast<long long>(k.span.start_ns),
                   static_cast<long long>(k.span.end_ns),
                   k.span.replay ? "true" : "false");
    }
    *next_id += kept_.size();
  }

 private:
  struct Kept {
    uint64_t op;
    Span span;
    size_t base;  // index of the op's root in kept_
  };

  bool keep_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  TraceAggregate aggregate_;
  std::vector<Kept> kept_;
  size_t kept_base_ = 0;
};

}  // namespace erq::e2e

// bench_e2e — the end-to-end benchmark program. Runs one named workload
// through the public entry points (EmptyResultManager::Execute,
// Catalog::AppendRows/DeleteRows, ErqServer over loopback), checks every
// answer, and prints one JSON document of metrics on stdout.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans FILE] [--scratch DIR]
//
// Workloads (README.md says why each exists):
//   crm_trace    the paper's CRM trace replayed in-process, indexed TPC-R
//   probe_heavy  C_aqp prefilled to 3000 parts; 90 % detected re-issues
//   server_point 2 keep-alive loopback connections, point lookups
//   update_mix   every feature on, 90 % trace reads + 10 % writes
//
// The op stream is a pure function of --seed and --seconds: the timed
// phase is ops_per_second * seconds ops (frozen calibration below),
// preceded by an untimed warm-up of a further 10 % of the stream. The
// timed ops are split into kSegments consecutive segments; op_p50_us and
// throughput_ops come from the best segment (see EndToEnd).
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the stream
// twice on fresh state: untraced (registry counter diffs, write latency,
// the baseline of trace.overhead_ratio) and traced (span timings), and
// reports the per-layer metrics. Spans are recorded by this file around
// the calls it makes; the manager's stage spans come from the returned
// QueryOutcome::Timings, and the check is split by replaying
// parse -> plan -> decompose -> CoveredBy after the op.
//
// Exit status: 0 when every answer was right, 1 on any wrong answer or
// error, 2 on bad usage or a failed set-up.

#include <sys/resource.h>
#include <unistd.h>

#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/query_api.h"
#include "e2e_support.h"
#include "server/server.h"
#include "types/date.h"
#include "workload/query_gen.h"
#include "workload/tpcr.h"
#include "workload/trace.h"

using namespace erq;
using namespace erq::e2e;

namespace {

/// Timed ops per second of --seconds, calibrated once on a shared 4-core
/// x86 VM with the code that introduced this benchmark and then frozen,
/// so that a run is a fixed amount of work. At --seconds 15 the timed
/// phase took 10-20 s there, depending on other load on the host.
struct WorkloadInfo {
  const char* name;
  double ops_per_second;
};
constexpr WorkloadInfo kWorkloads[] = {
    {"crm_trace", 800},
    {"probe_heavy", 2700},
    {"server_point", 22000},
    {"update_mix", 270},  // >= 400 timed writes at --seconds 15
};

constexpr size_t kCustomers = 500;  // TPC-R scale 1.0, 500 customers/unit
constexpr size_t kSampleEvery = 16;  // reads checked against the reference
constexpr size_t kMaxErrors = 5;     // error messages kept for the report
constexpr int kSegments = 5;         // consecutive slices of the timed phase

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string scratch = "bench_e2e_scratch";
};

/// Ends the run without a result (exit 2): the benchmark itself could not
/// be set up, as opposed to a wrong answer.
[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T CheckOk(StatusOr<T> v, const char* what) {
  if (!v.ok()) Fatal(std::string(what) + ": " + v.status().ToString());
  return std::move(v).value();
}

void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) Fatal(std::string(what) + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Database, oracle, op streams
// ---------------------------------------------------------------------------

/// A TPC-R database: data, optional indexes on every selection and join
/// attribute, optional range partitions, and fresh statistics.
struct Env {
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  std::unique_ptr<StatsCatalog> stats = std::make_unique<StatsCatalog>();
  TpcrInstance instance;
};

Env BuildEnv(uint64_t seed, size_t partitions, bool indexes) {
  Env env;
  TpcrConfig config;
  config.scale = 1.0;
  config.seed = seed;
  config.customers_per_unit = kCustomers;
  config.partitions = partitions;
  env.instance = CheckOk(BuildTpcr(env.catalog.get(), config), "BuildTpcr");
  if (indexes) CheckOk(BuildTpcrIndexes(env.catalog.get()), "indexes");
  CheckOk(env.stats->AnalyzeAll(*env.catalog), "analyze");
  return env;
}

/// Live multiset of (order date, partkey) pairs over lineitem ⋈ orders.
/// A Q1 query is empty exactly when none of its (date, part) pairs is
/// present, so this answers every read's expected emptiness, including
/// after the benchmark's own inserts and deletes.
class PairOracle {
 public:
  explicit PairOracle(const TpcrInstance& instance) : instance_(&instance) {
    for (const Row& order : instance.orders->rows()) {
      order_date_.push_back(order[2].AsDate());
    }
    for (const Row& item : instance.lineitem->rows()) Add(item, +1);
  }

  void Add(const Row& lineitem_row, int delta) {
    counts_[Key(lineitem_row)] += delta;
  }

  bool Empty(const Q1Spec& spec) const {
    for (int32_t d : spec.dates) {
      for (int64_t p : spec.parts) {
        auto it = counts_.find(instance_->PairKey(d, p));
        if (it != counts_.end() && it->second > 0) return false;
      }
    }
    return true;
  }

 private:
  int64_t Key(const Row& item) const {
    const int32_t date = order_date_[static_cast<size_t>(item[0].AsInt())];
    return instance_->PairKey(date, item[1].AsInt());
  }

  const TpcrInstance* instance_;
  std::vector<int32_t> order_date_;  // indexed by orderkey
  std::unordered_map<int64_t, int64_t> counts_;
};

/// Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double acc = 0.0;
    for (size_t i = 1; i <= n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i), s);
      cdf_.push_back(acc);
    }
    for (double& v : cdf_) v /= acc;
  }
  size_t Sample(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(cdf_.size() - 1,
                    static_cast<size_t>(it - cdf_.begin()));
  }

 private:
  std::vector<double> cdf_;
};

struct Op {
  enum class Kind { kRead, kAppend, kDelete };
  Kind kind = Kind::kRead;
  std::string sql;        // kRead
  Q1Spec spec;            // kRead: the query's (dates, parts)
  int template_id = -1;   // kRead: CRM-trace empty template, -1 otherwise
  std::vector<Row> rows;  // kAppend: rows to insert; kDelete: rows removed
  int64_t marker = 0;     // kAppend/kDelete: quantity tagging the rows
};

/// Recovers (dates, parts) from Q1Spec::ToSql() text.
Q1Spec ParseQ1(const std::string& sql) {
  Q1Spec spec;
  const std::string date_tag = "DATE '";
  for (size_t at = sql.find(date_tag); at != std::string::npos;
       at = sql.find(date_tag, at + 1)) {
    spec.dates.push_back(CheckOk(
        DateFromString(sql.substr(at + date_tag.size(), 10)), "Q1 date"));
  }
  const std::string part_tag = "l.partkey = ";
  for (size_t at = sql.find(part_tag); at != std::string::npos;
       at = sql.find(part_tag, at + 1)) {
    spec.parts.push_back(std::stoll(sql.substr(at + part_tag.size())));
  }
  return spec;
}

Op ReadOp(std::string sql, int template_id = -1) {
  Op op;
  op.spec = ParseQ1(sql);
  op.sql = std::move(sql);
  op.template_id = template_id;
  return op;
}

std::vector<Op> CrmReads(const TpcrInstance& instance, size_t n,
                         uint64_t seed) {
  TraceConfig config;
  config.total_queries = n;
  config.seed = seed;
  std::vector<Op> ops;
  for (TraceQuery& q : GenerateCrmTrace(instance, config)) {
    ops.push_back(ReadOp(std::move(q.sql), q.template_id));
  }
  return ops;
}

std::vector<Op> ProbeHeavyOps(const TpcrInstance& instance,
                              const std::vector<Q1Spec>& prefilled, size_t n,
                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution fresh(0.10);
  Zipf zipf(prefilled.size(), 1.0);
  QueryGenerator gen(&instance, seed * 7919 + 3);
  std::vector<Op> ops;
  for (size_t i = 0; i < n; ++i) {
    // Fresh queries keep f = 1, as in the CRM trace, so lineitem is read
    // through the partkey index; with a partkey disjunction each of them
    // would scan all 20k lineitem rows and outweigh the check it is
    // there to exercise.
    ops.push_back(ReadOp(fresh(rng) ? gen.GenerateQ1(2, 1, false).ToSql()
                                    : prefilled[zipf.Sample(rng)].ToSql()));
  }
  return ops;
}

/// CRM-trace reads with every tenth op a write. Of each five writes, four
/// append 4 lineitem rows and one deletes an earlier append's rows.
/// Alternate appends complete a (date, part) pair of an empty template
/// the stream has already issued, turning that template non-empty; the
/// others copy existing pairs and change no answer.
std::vector<Op> UpdateMixOps(const TpcrInstance& instance, size_t n,
                             uint64_t seed) {
  std::vector<Op> reads = CrmReads(instance, n - n / 10, seed);
  std::map<int32_t, std::vector<int64_t>> orders_on_date;
  for (const Row& order : instance.orders->rows()) {
    orders_on_date[order[2].AsDate()].push_back(order[0].AsInt());
  }
  std::mt19937_64 rng(seed * 104729 + 5);
  auto pick = [&rng](size_t size) {
    return std::uniform_int_distribution<size_t>(0, size - 1)(rng);
  };
  auto filler = [&](int64_t marker) {
    const Row& item =
        instance.lineitem->row(pick(instance.lineitem->num_rows()));
    return Row{item[0], item[1], Value::Int(marker), Value::Double(1.0)};
  };

  std::vector<Op> ops;
  std::vector<const Op*> seen_templates;
  std::vector<Op> live_appends;
  size_t next_read = 0;
  size_t writes = 0;
  int64_t next_marker = 1000;  // generated quantities are 1..50
  for (size_t i = 0; i < n; ++i) {
    if (i % 10 != 9) {  // n - n / 10 such slots: exactly the reads
      Op& read = reads[next_read++];
      if (read.template_id >= 0) seen_templates.push_back(&read);
      ops.push_back(read);
      continue;
    }
    const size_t slot = writes++ % 5;
    if (slot == 4 && !live_appends.empty()) {
      const size_t victim = pick(live_appends.size());
      Op del = live_appends[victim];
      del.kind = Op::Kind::kDelete;
      live_appends.erase(live_appends.begin() +
                         static_cast<std::ptrdiff_t>(victim));
      ops.push_back(std::move(del));
      continue;
    }
    Op append;
    append.kind = Op::Kind::kAppend;
    append.marker = next_marker++;
    if (slot % 2 == 0 && !seen_templates.empty()) {
      const Q1Spec& spec = seen_templates[pick(seen_templates.size())]->spec;
      const int32_t date = spec.dates[pick(spec.dates.size())];
      const std::vector<int64_t>& keys = orders_on_date[date];
      append.rows.push_back(Row{Value::Int(keys[pick(keys.size())]),
                                Value::Int(spec.parts[pick(spec.parts.size())]),
                                Value::Int(append.marker), Value::Double(1.0)});
    }
    while (append.rows.size() < 4) append.rows.push_back(filler(append.marker));
    live_appends.push_back(append);
    ops.push_back(std::move(append));
  }
  return ops;
}

/// Applies a write op to the lineitem table. A delete must remove exactly
/// the rows its append inserted, which carry the append's marker.
Status ApplyWrite(Catalog* catalog, const Op& op) {
  if (op.kind == Op::Kind::kAppend) {
    return catalog->AppendRows("lineitem", op.rows);
  }
  const int64_t marker = op.marker;
  ERQ_ASSIGN_OR_RETURN(
      size_t removed,
      catalog->DeleteRows("lineitem", [marker](const Row& row) {
        return row[2].AsInt() == marker;
      }));
  if (removed != op.rows.size()) {
    return Status::Internal("deleted " + std::to_string(removed) +
                            " rows, expected " +
                            std::to_string(op.rows.size()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Results of one pass over the op stream
// ---------------------------------------------------------------------------

/// A read whose row count is re-checked on the reference manager.
struct Sample {
  size_t op_index;
  std::string sql;
  size_t rows;
};

struct PassResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> setup_seconds;

  // Timed phase. Each client's timed ops are also split into kSegments
  // consecutive slices, so that a slice disturbed by other load on the
  // machine can be told apart from the rest.
  struct Segment {
    std::vector<double> op_us;
    int64_t first_ns = std::numeric_limits<int64_t>::max();
    int64_t last_ns = std::numeric_limits<int64_t>::min();
  };
  std::vector<Segment> segments = std::vector<Segment>(kSegments);
  std::vector<double> op_us;
  std::vector<double> write_us;
  size_t reads = 0;
  size_t writes = 0;
  size_t expected_empty = 0;
  size_t detected = 0;
  CounterValues counters;
  size_t caqp_parts_end = 0;
  size_t response_bytes = 0;

  // Traced pass only.
  TraceAggregate trace;
  double check_seconds = 0.0;
  std::map<std::string, size_t> detected_sql;  // timed detections per SQL
  std::map<std::string, double> first_execute_seconds;
  double saved_seconds = 0.0;

  std::vector<Sample> samples;

  void Fail(const std::string& message) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(message);
  }

  /// Books the latency of a timed op in `segment`; returns it in us.
  double Time(int segment, int64_t t0, int64_t t1) {
    const double us = static_cast<double>(t1 - t0) / 1e3;
    Segment& s = segments[static_cast<size_t>(segment)];
    s.op_us.push_back(us);
    s.first_ns = std::min(s.first_ns, t0);
    s.last_ns = std::max(s.last_ns, t1);
    op_us.push_back(us);
    return us;
  }

  void Merge(PassResult&& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (std::string& e : other.errors) {
      if (errors.size() < kMaxErrors) errors.push_back(std::move(e));
    }
    for (int k = 0; k < kSegments; ++k) {
      Segment& mine = segments[static_cast<size_t>(k)];
      Segment& theirs = other.segments[static_cast<size_t>(k)];
      mine.op_us.insert(mine.op_us.end(), theirs.op_us.begin(),
                        theirs.op_us.end());
      mine.first_ns = std::min(mine.first_ns, theirs.first_ns);
      mine.last_ns = std::max(mine.last_ns, theirs.last_ns);
    }
    op_us.insert(op_us.end(), other.op_us.begin(), other.op_us.end());
    reads += other.reads;
    expected_empty += other.expected_empty;
    detected += other.detected;
    response_bytes += other.response_bytes;
    trace.Merge(std::move(other.trace));
    check_seconds += other.check_seconds;
    for (const auto& [sql, n] : other.detected_sql) detected_sql[sql] += n;
    first_execute_seconds.insert(other.first_execute_seconds.begin(),
                                 other.first_execute_seconds.end());
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  }
};

/// What a read returned, from an in-process outcome or a wire response.
struct ReadAnswer {
  bool detected = false;
  bool empty = false;
  size_t rows = 0;
  QueryOutcome::Timings timings;
};

/// The segment of op `i` when the `n` ops after the first `warmup` are
/// timed, or -1 for a warm-up op.
int SegmentOf(size_t i, size_t warmup, size_t n) {
  if (i < warmup) return -1;
  return static_cast<int>((i - warmup) * kSegments / std::max<size_t>(1, n));
}

/// Checks one read against its expected emptiness and books it; `segment`
/// is -1 for a warm-up op.
void BookRead(size_t i, const std::string& sql, bool expect_empty,
              const ReadAnswer& a, int segment, bool traced, int64_t t0,
              int64_t t1, PassResult* r) {
  if (a.detected && !expect_empty) {
    r->Fail("op " + std::to_string(i) +
            ": detected empty but the result is non-empty: " + sql);
  } else if (a.empty != expect_empty) {
    r->Fail("op " + std::to_string(i) + ": result_empty=" +
            (a.empty ? "true" : "false") + ", expected " +
            (expect_empty ? "true" : "false") + ": " + sql);
  }
  if (i % kSampleEvery == 0) r->samples.push_back(Sample{i, sql, a.rows});
  if (traced && !a.detected && a.timings.execute_seconds > 0.0) {
    r->first_execute_seconds.emplace(sql, a.timings.execute_seconds);
  }
  if (segment < 0) return;
  r->Time(segment, t0, t1);
  ++r->reads;
  if (expect_empty) ++r->expected_empty;
  if (a.detected) ++r->detected;
  if (traced) {
    r->check_seconds += a.timings.check_seconds;
    if (a.detected) ++r->detected_sql[sql];
  }
}

/// Re-runs the check's front half outside the op to split core.check into
/// core.decompose and core.probe: parse -> plan -> DecomposeLogicalPart,
/// then CaqpCache::CoveredBy per part until the first miss, as the
/// detector does. The spans are marked replay.
void ReplayCheck(const std::string& sql, const Catalog* catalog,
                 EmptyResultDetector* detector, Tracer* tracer,
                 int32_t parent) {
  StatusOr<std::unique_ptr<Statement>> stmt = Parser::Parse(sql);
  if (!stmt.ok()) return;
  StatusOr<PlannedQuery> planned = Planner(catalog).PlanStatement(**stmt);
  if (!planned.ok()) return;
  LogicalOpPtr root = planned->root;
  while (root->kind == LogicalOpKind::kProject ||
         root->kind == LogicalOpKind::kSort ||
         root->kind == LogicalOpKind::kDistinct) {
    root = root->children[0];
  }
  const int64_t d0 = NowNs();
  StatusOr<std::vector<AtomicQueryPart>> parts =
      DecomposeLogicalPart(root, detector->config().dnf);
  tracer->Add("core.decompose", parent, d0, NowNs(), true);
  if (!parts.ok()) return;
  for (const AtomicQueryPart& part : *parts) {
    if (part.ProvablyUnsatisfiable()) continue;
    const int64_t p0 = NowNs();
    const bool covered = detector->cache().CoveredBy(part);
    tracer->Add("core.probe", parent, p0, NowNs(), true);
    if (!covered) break;
  }
}

/// Re-runs the sampled reads on a fresh copy of the database with
/// detection, reuse and pruning off, replaying the stream's writes in
/// order, and compares row counts. In the traced pass it also times one
/// execution of every detected SQL the run never executed itself, for the
/// check-over-saved ratio. Runs after the measured phase.
void CheckAgainstReference(uint64_t seed, const std::vector<Op>& ops,
                           PassResult* r) {
  Env env = BuildEnv(seed, 1, /*indexes=*/true);
  EmptyResultConfig config;
  config.detection_enabled = false;
  config.partition_pruning = false;
  EmptyResultManager reference(env.catalog.get(), env.stats.get(), config);

  std::sort(r->samples.begin(), r->samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.op_index < b.op_index;
            });
  size_t next_write = 0;
  for (const Sample& s : r->samples) {
    for (; next_write < ops.size() && next_write < s.op_index; ++next_write) {
      if (ops[next_write].kind != Op::Kind::kRead) {
        CheckOk(ApplyWrite(env.catalog.get(), ops[next_write]),
                "reference write");
      }
    }
    StatusOr<QueryOutcome> out = reference.Execute(QueryRequest::Sql(s.sql));
    if (!out.ok()) {
      r->Fail("reference failed on op " + std::to_string(s.op_index) + ": " +
              out.status().ToString());
    } else if (out->result_rows != s.rows) {
      r->Fail("op " + std::to_string(s.op_index) + ": " +
              std::to_string(s.rows) + " rows, reference " +
              std::to_string(out->result_rows) + ": " + s.sql);
    }
  }

  for (const auto& [sql, n] : r->detected_sql) {
    auto it = r->first_execute_seconds.find(sql);
    double seconds = 0.0;
    if (it != r->first_execute_seconds.end()) {
      seconds = it->second;
    } else if (StatusOr<QueryOutcome> out =
                   reference.Execute(QueryRequest::Sql(sql));
               out.ok()) {
      seconds = out->timings.execute_seconds;
    }
    r->saved_seconds += seconds * static_cast<double>(n);
  }
}

/// Writes the spans the tracers kept, when --spans named a file.
void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fatal("cannot write " + path);
  uint64_t next_id = 0;
  for (const Tracer* t : tracers) t->Write(f, &next_id);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// In-process workloads: crm_trace, probe_heavy, update_mix
// ---------------------------------------------------------------------------

/// Everything setup_s covers for an in-process workload.
struct InProcess {
  InProcess() = default;
  InProcess(const InProcess&) = delete;
  InProcess& operator=(const InProcess&) = delete;

  Env env;
  std::vector<Q1Spec> prefilled;  // probe_heavy
  std::string persist_dir;        // update_mix
  std::unique_ptr<EmptyResultManager> manager;

  ~InProcess() {
    manager.reset();  // flushes the journal before its directory goes
    if (!persist_dir.empty()) std::filesystem::remove_all(persist_dir);
  }
};

std::unique_ptr<InProcess> SetUpInProcess(const std::string& workload,
                                          const Options& opt, int attempt) {
  auto s = std::make_unique<InProcess>();
  EmptyResultConfig config;
  config.c_cost = 0.0;
  if (workload == "update_mix") {
    s->env = BuildEnv(opt.seed, 16, /*indexes=*/false);
    // Both caches are smaller than what the stream would store, so both
    // evict: each executed read records ~25 partition facts. With n_max
    // 2000 stored templates churned out so fast that detected_empty_ratio
    // swung 15 % between seeds; at 8000 it is 6 %. Reuse evicts only
    // below ~128 KiB because inserts invalidate entries first.
    config.n_max = 8000;
    config.invalidation = InvalidationMode::kFilterIrrelevant;
    config.reuse.enabled = true;
    config.reuse.budget_bytes = 64u << 10;
    s->persist_dir = opt.scratch + "/persist-" + std::to_string(getpid()) +
                     "-" + std::to_string(attempt);
    std::filesystem::remove_all(s->persist_dir);
    std::filesystem::create_directories(opt.scratch);
    config.persist.dir = s->persist_dir;
    config.persist.fsync_every_n = 0;
    config.persist.fsync_interval_ms = 0;
  } else {
    s->env = BuildEnv(opt.seed, 1, /*indexes=*/true);
  }
  s->manager = std::make_unique<EmptyResultManager>(
      s->env.catalog.get(), s->env.stats.get(), config);
  CheckOk(s->manager->init_status(), "manager");

  if (workload == "probe_heavy") {
    // 3000 parts over the one relation set {lineitem, orders}: empty Q1
    // with e = f = 2 decompose into F = 4 parts each.
    QueryGenerator gen(&s->env.instance, opt.seed * 31 + 1);
    Planner planner(s->env.catalog.get());
    CaqpCache& cache = s->manager->detector().cache();
    while (cache.size() + 4 <= 3000) {
      Q1Spec spec = gen.GenerateQ1(2, 2, /*want_empty=*/true);
      auto stmt = CheckOk(Parser::Parse(spec.ToSql()), "prefill parse");
      auto planned = CheckOk(planner.PlanStatement(*stmt), "prefill plan");
      auto parts = CheckOk(
          DecomposeLogicalPart(planned.root, config.dnf), "prefill decompose");
      for (const AtomicQueryPart& part : parts) cache.Insert(part);
      s->prefilled.push_back(std::move(spec));
    }
  }
  return s;
}

/// Calls `set_up(attempt)` once when `repeat` is false; otherwise at least
/// 3 times and until 2 s of set-up have accumulated (at most 50 times),
/// so that the median set-up time is steady. Books every duration.
template <typename SetUp>
void RepeatSetUp(bool repeat, SetUp set_up, PassResult* r) {
  double total = 0.0;
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (attempt > 0 && (!repeat || (attempt >= 3 && total >= 2.0))) break;
    const int64_t t0 = NowNs();
    set_up(attempt);
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    r->setup_seconds.push_back(seconds);
    total += seconds;
  }
}

PassResult RunInProcess(const Options& opt, size_t timed, bool traced,
                        bool repeat_setup) {
  PassResult r;
  std::unique_ptr<InProcess> s;
  RepeatSetUp(
      repeat_setup,
      [&](int attempt) {
        s.reset();
        s = SetUpInProcess(opt.workload, opt, attempt);
      },
      &r);

  const TpcrInstance& instance = s->env.instance;
  PairOracle oracle(instance);
  const size_t total = timed + timed / 9;  // warm-up is 10 % of the stream
  std::vector<Op> ops;
  if (opt.workload == "crm_trace") {
    ops = CrmReads(instance, total, opt.seed);
  } else if (opt.workload == "probe_heavy") {
    ops = ProbeHeavyOps(instance, s->prefilled, total, opt.seed);
  } else {
    ops = UpdateMixOps(instance, total, opt.seed);
  }
  const size_t warmup = ops.size() - std::min(timed, ops.size());

  EmptyResultManager& manager = *s->manager;
  Catalog* catalog = s->env.catalog.get();
  Tracer tracer(!opt.spans_path.empty());
  CounterValues start;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == warmup) start = ReadCounters();
    const int segment = SegmentOf(i, warmup, ops.size() - warmup);
    const bool trace_op = traced && segment >= 0;
    const Op& op = ops[i];
    ++r.attempted;
    if (op.kind == Op::Kind::kRead) {
      const bool expect_empty = oracle.Empty(op.spec);
      const QueryRequest request = QueryRequest::Sql(op.sql);
      const int64_t t0 = NowNs();
      StatusOr<QueryOutcome> out = manager.Execute(request);
      const int64_t t1 = NowNs();
      if (!out.ok()) {
        r.Fail("op " + std::to_string(i) + ": " + out.status().ToString());
        continue;
      }
      const ReadAnswer answer{out->detected_empty, out->result_empty,
                              out->result_rows, out->timings};
      BookRead(i, op.sql, expect_empty, answer, segment, traced, t0, t1, &r);
      if (trace_op) {
        tracer.BeginOp(i, t0);
        const int32_t exec = tracer.Add("core.manager.Execute", 0, t0, t1);
        const int32_t check = tracer.AddStages(exec, t0, out->timings);
        if (check >= 0) {
          ReplayCheck(op.sql, catalog, &manager.detector(), &tracer, check);
        }
        tracer.EndOp(t1);
      }
      continue;
    }

    const bool append = op.kind == Op::Kind::kAppend;
    const int64_t t0 = NowNs();
    const Status status = ApplyWrite(catalog, op);
    const int64_t t1 = NowNs();
    if (!status.ok()) {
      r.Fail("op " + std::to_string(i) + ": " + status.ToString());
      continue;
    }
    for (const Row& row : op.rows) oracle.Add(row, append ? +1 : -1);
    if (segment < 0) continue;
    r.write_us.push_back(r.Time(segment, t0, t1));
    ++r.writes;
    if (trace_op) {
      tracer.BeginOp(i, t0);
      tracer.Add(append ? "catalog.AppendRows" : "catalog.DeleteRows", 0, t0,
                 t1);
      tracer.EndOp(t1);
    }
  }
  r.counters = DiffCounters(ReadCounters(), start);
  r.caqp_parts_end = manager.detector().cache().size();
  r.trace = tracer.TakeAggregate();
  if (traced) WriteSpans(opt.spans_path, {&tracer});
  s.reset();
  CheckAgainstReference(opt.seed, ops, &r);
  return r;
}

// ---------------------------------------------------------------------------
// server_point: ErqServer over loopback
// ---------------------------------------------------------------------------

constexpr size_t kConnections = 2;
constexpr size_t kEmptyPerTenant = 64;

std::string TenantName(size_t c) { return "bench_" + std::to_string(c); }

/// Half indexed custkey point lookups (one row each), half Zipf draws
/// over the tenant's 64 always-empty point queries.
std::vector<int64_t> ServerKeys(uint64_t seed, size_t connection, size_t n) {
  std::mt19937_64 rng(seed * 1000003 + connection);
  std::bernoulli_distribution empty(0.5);
  std::uniform_int_distribution<int64_t> key(0, kCustomers - 1);
  Zipf zipf(kEmptyPerTenant, 1.0);
  std::vector<int64_t> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(empty(rng) ? 1000000000 +
                                    static_cast<int64_t>(connection *
                                                         kEmptyPerTenant +
                                                         zipf.Sample(rng))
                              : key(rng));
  }
  return keys;
}

/// Reads the fields bench_e2e checks out of an erq.response.v1 body.
bool ParseResponse(const std::string& body, ReadAnswer* a, std::string* error) {
  StatusOr<JsonValue> doc = JsonValue::Parse(body);
  if (!doc.ok()) {
    *error = "unparsable response: " + doc.status().ToString();
    return false;
  }
  const JsonValue* status = doc->Find("status");
  const JsonValue* code = status ? status->Find("code") : nullptr;
  const JsonValue* outcome = doc->Find("outcome");
  const JsonValue* timings = doc->Find("timings");
  if (code == nullptr || code->AsString() != "OK" || outcome == nullptr ||
      timings == nullptr) {
    *error = "error response: " + body.substr(0, 200);
    return false;
  }
  auto flag = [outcome](const char* k) {
    const JsonValue* v = outcome->Find(k);
    return v != nullptr && v->AsBool();
  };
  auto seconds = [timings](const char* k) {
    const JsonValue* v = timings->Find(k);
    return v == nullptr ? 0.0 : v->AsDouble();
  };
  a->detected = flag("detected_empty");
  a->empty = flag("result_empty");
  const JsonValue* rows = outcome->Find("result_rows");
  a->rows = rows == nullptr ? 0 : static_cast<size_t>(rows->AsInt64());
  a->timings.parse_seconds = seconds("parse_seconds");
  a->timings.plan_seconds = seconds("plan_seconds");
  a->timings.optimize_seconds = seconds("optimize_seconds");
  a->timings.gate_seconds = seconds("gate_seconds");
  a->timings.check_seconds = seconds("check_seconds");
  a->timings.execute_seconds = seconds("execute_seconds");
  a->timings.record_seconds = seconds("record_seconds");
  a->timings.total_seconds = seconds("total_seconds");
  return true;
}

/// Takes the counter snapshot when both connections have finished their
/// warm-up.
struct PhaseStart {
  CounterValues* counters;
  void operator()() noexcept { *counters = ReadCounters(); }
};

/// One closed-loop keep-alive connection owning tenant bench_<id>.
struct Client {
  size_t id = 0;
  std::vector<int64_t> keys;
  size_t warmup = 0;
  EmptyResultDetector* detector = nullptr;  // the tenant's, for replays
  PassResult result;
  std::unique_ptr<Tracer> tracer;
};

/// One request/response round trip of `client`'s op `i`, checked and
/// booked; traced when `traced` and the op is timed.
void ClientOp(Client* client, size_t i, Socket* socket, bool traced,
              const Catalog* catalog) {
  PassResult* r = &client->result;
  const std::vector<int64_t>& keys = client->keys;
  const int segment =
      SegmentOf(i, client->warmup, keys.size() - client->warmup);
  const bool expect_empty = keys[i] >= 1000000000;
  const std::string sql =
      "select * from customer where custkey = " + std::to_string(keys[i]);
  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/query";
  request.body = "{\"tenant\":" + JsonQuote(TenantName(client->id)) +
                 ",\"sql\":" + JsonQuote(sql) + ",\"row_limit\":1}";
  const std::string wire = request.Serialize("127.0.0.1");
  int code = 0;
  std::string body;
  const int64_t t0 = NowNs();
  Status status = socket->SendAll(wire);
  if (status.ok()) status = ReadHttpResponse(socket, &code, &body);
  const int64_t t1 = NowNs();
  ReadAnswer answer;
  std::string error;
  if (!status.ok() || code != 200) {
    r->Fail("op " + std::to_string(i) + ": " + status.ToString() + ", http " +
            std::to_string(code));
    return;
  }
  if (!ParseResponse(body, &answer, &error)) {
    r->Fail("op " + std::to_string(i) + ": " + error);
    return;
  }
  // Op ids are unique across connections.
  const size_t op_id = client->id * keys.size() + i;
  BookRead(op_id, sql, expect_empty, answer, segment, traced, t0, t1, r);
  if (segment < 0) return;
  r->response_bytes += body.size();
  if (!traced) return;
  Tracer* tracer = client->tracer.get();
  tracer->BeginOp(op_id, t0);
  const int32_t trip = tracer->Add("server.roundtrip", 0, t0, t1);
  // The response carries durations only; the manager span is placed in
  // the middle of the round trip.
  const int64_t manager_ns =
      static_cast<int64_t>(answer.timings.total_seconds * 1e9);
  const int64_t m0 = t0 + std::max<int64_t>(0, (t1 - t0 - manager_ns) / 2);
  const int32_t exec =
      tracer->Add("core.manager.Execute", trip, m0, m0 + manager_ns);
  const int32_t check = tracer->AddStages(exec, m0, answer.timings);
  if (check >= 0) ReplayCheck(sql, catalog, client->detector, tracer, check);
  tracer->EndOp(t1);
}

/// Thread body of one connection: warm-up, then both connections meet at
/// `phase`, then the timed ops. Failures, exceptions included, are booked
/// per op so the other connection is never left waiting at the barrier.
void ClientLoop(Client* client, uint16_t port, bool traced,
                const Catalog* catalog, std::barrier<PhaseStart>* phase) {
  StatusOr<Socket> socket = Socket::Connect("127.0.0.1", port);
  for (size_t i = 0; i < client->keys.size(); ++i) {
    if (i == client->warmup) phase->arrive_and_wait();
    ++client->result.attempted;
    try {
      if (!socket.ok()) {
        client->result.Fail("connect: " + socket.status().ToString());
      } else {
        ClientOp(client, i, &*socket, traced, catalog);
      }
    } catch (const std::exception& e) {
      client->result.Fail("op " + std::to_string(i) + ": " + e.what());
    }
  }
  if (client->warmup >= client->keys.size()) phase->arrive_and_wait();
}

PassResult RunServer(const Options& opt, size_t timed, bool traced,
                     bool repeat_setup) {
  PassResult r;
  std::unique_ptr<Env> env;
  std::unique_ptr<ErqServer> server;
  RepeatSetUp(
      repeat_setup,
      [&](int) {
        server.reset();
        env.reset();
        env = std::make_unique<Env>(BuildEnv(opt.seed, 1, /*indexes=*/true));
        ServerOptions options;
        options.port = 0;
        options.max_connections = kConnections + 4;
        options.max_tenants = kConnections + 1;
        options.global_n_max = 1000 * (kConnections + 1);
        options.tenant_config.c_cost = 0.0;
        server = std::make_unique<ErqServer>(env->catalog.get(),
                                             env->stats.get(), options);
        CheckOk(server->Start(), "server start");
      },
      &r);

  const size_t per_connection = (timed + timed / 9) / kConnections;
  std::vector<Client> clients(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    Client& client = clients[c];
    client.id = c;
    client.keys = ServerKeys(opt.seed, c, per_connection);
    client.warmup =
        per_connection - std::min(per_connection, timed / kConnections);
    client.detector =
        &CheckOk(server->tenants().GetOrCreate(TenantName(c)), "tenant")
             ->manager->detector();
    client.tracer = std::make_unique<Tracer>(!opt.spans_path.empty());
  }

  CounterValues start;
  std::barrier<PhaseStart> phase(static_cast<std::ptrdiff_t>(kConnections),
                                 PhaseStart{&start});
  std::vector<std::thread> threads;
  for (Client& client : clients) {
    threads.emplace_back(ClientLoop, &client, server->port(), traced,
                         env->catalog.get(), &phase);
  }
  for (std::thread& t : threads) t.join();
  r.counters = DiffCounters(ReadCounters(), start);
  for (Client& client : clients) {
    r.caqp_parts_end += client.detector->cache().size();
  }
  server.reset();
  env.reset();

  std::vector<const Tracer*> tracers;
  for (Client& client : clients) {
    client.result.trace = client.tracer->TakeAggregate();
    r.Merge(std::move(client.result));
    tracers.push_back(client.tracer.get());
  }
  if (traced) WriteSpans(opt.spans_path, tracers);
  CheckAgainstReference(opt.seed, {}, &r);
  return r;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// One reported value. A percentile carries its quantile and sample
/// count so the runner can refuse one with fewer than 10 samples beyond
/// it; `samples` is 0 when the metric does not apply to the workload.
struct Metric {
  double value = 0.0;
  size_t samples = 0;
  double quantile = -1.0;
};
using Metrics = std::map<std::string, Metric>;

template <typename T>
Metric Pct(const std::vector<T>& v, double q) {
  return Metric{Percentile(v, q), v.size(), q};
}

/// `num / den`; not applicable (samples 0) when nothing was counted.
Metric Ratio(double num, double den) {
  return den > 0.0 ? Metric{num / den, 1, -1.0} : Metric{};
}

Metric Count(double v) { return Metric{v, 1, -1.0}; }

double CounterDelta(const PassResult& r, const std::string& name) {
  return static_cast<double>(r.counters.at(name));
}

double PeakRssMb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Metrics EndToEnd(const PassResult& r) {
  Metrics m;
  // The median of repeated set-ups, not a latency distribution: exempt
  // from the samples-beyond-a-percentile rule.
  m["setup_s"] =
      Metric{Percentile(r.setup_seconds, 0.5), r.setup_seconds.size()};
  // Latency and throughput of the least disturbed segment: other load on
  // a shared machine only ever adds time, so the best slice of the run is
  // the steadiest estimate of what the code itself costs.
  Metric p50;
  Metric throughput;
  for (const PassResult::Segment& seg : r.segments) {
    if (seg.op_us.empty()) continue;
    const Metric seg_p50 = Pct(seg.op_us, 0.50);
    if (p50.samples == 0 || seg_p50.value < p50.value) p50 = seg_p50;
    const double seconds =
        static_cast<double>(seg.last_ns - seg.first_ns) / 1e9;
    const Metric seg_throughput =
        Ratio(static_cast<double>(seg.op_us.size()), seconds);
    if (seg_throughput.value > throughput.value) throughput = seg_throughput;
  }
  m["op_p50_us"] = p50;
  m["throughput_ops"] = throughput;
  m["detected_empty_ratio"] = Ratio(static_cast<double>(r.detected),
                                    static_cast<double>(r.expected_empty));
  m["peak_rss_mb"] = Count(PeakRssMb());
  return m;
}

/// Per-layer metrics: counts from the untraced pass `u`, timings from the
/// traced pass `t`.
Metrics PerLayer(const PassResult& u, const PassResult& t) {
  Metrics m;
  const TraceAggregate& a = t.trace;
  static const std::vector<float> kNone;
  auto durations = [&a](const char* name) -> const std::vector<float>& {
    const TraceAggregate::Layer* layer = a.Find(name);
    return layer == nullptr ? kNone : layer->duration_us;
  };
  auto selfs = [&a](const char* name) -> const std::vector<float>& {
    const TraceAggregate::Layer* layer = a.Find(name);
    return layer == nullptr ? kNone : layer->self_us;
  };
  auto share = [&a](const char* name) {
    return a.Find(name) == nullptr ? Metric{}
                                   : Metric{a.Share(name), a.ops, -1.0};
  };
  const double reads = static_cast<double>(u.reads);
  const double writes = static_cast<double>(u.writes);
  const double lookups = CounterDelta(u, "erq.caqp.lookups");

  m["sql.parse_p50_us"] = Pct(durations("sql.parse"), 0.50);
  m["sql.parse_share"] = share("sql.parse");
  m["plan.plan_p50_us"] = Pct(durations("plan.plan"), 0.50);
  m["plan.plan_share"] = share("plan.plan");
  m["plan.optimize_p50_us"] = Pct(durations("plan.optimize"), 0.50);
  m["plan.optimize_share"] = share("plan.optimize");
  m["core.decompose_p50_us"] = Pct(durations("core.decompose"), 0.50);
  m["core.probe_p50_us"] = Pct(durations("core.probe"), 0.50);
  m["core.probe_p99_us"] = Pct(durations("core.probe"), 0.99);
  m["core.conditions_per_probe"] =
      Ratio(CounterDelta(u, "erq.caqp.conditions_scanned"), lookups);
  m["core.candidates_per_probe"] =
      Ratio(CounterDelta(u, "erq.caqp.candidate_entries"), lookups);
  m["core.check_p50_us"] = Pct(durations("core.check"), 0.50);
  m["core.check_share"] = share("core.check");
  m["core.parts_per_check"] =
      Ratio(CounterDelta(u, "erq.detector.parts_checked"),
            CounterDelta(u, "erq.detector.checks"));
  m["core.caqp_hit_ratio"] = Ratio(CounterDelta(u, "erq.caqp.hits"), lookups);
  m["core.check_over_saved"] = Ratio(t.check_seconds, t.saved_seconds);
  m["core.record_p50_us"] = Pct(durations("core.record"), 0.50);
  m["core.record_share"] = share("core.record");
  m["core.manager_glue_p50_us"] = Pct(selfs("core.manager.Execute"), 0.50);
  m["core.caqp_parts_end"] = Count(static_cast<double>(u.caqp_parts_end));
  m["core.caqp_evictions"] = Count(CounterDelta(u, "erq.caqp.evictions"));
  m["core.invalidation_drops_per_write"] =
      Ratio(CounterDelta(u, "erq.caqp.invalidation_drops"), writes);
  m["exec.execute_p50_us"] = Pct(durations("exec.execute"), 0.50);
  m["exec.execute_p99_us"] = Pct(durations("exec.execute"), 0.99);
  m["exec.execute_share"] = share("exec.execute");
  m["exec.rows_scanned_per_exec"] =
      Ratio(CounterDelta(u, "erq.exec.rows_scanned"),
            CounterDelta(u, "erq.exec.runs"));
  m["exec.partitions_pruned_ratio"] =
      Ratio(CounterDelta(u, "erq.exec.partitions.pruned"),
            CounterDelta(u, "erq.exec.partitions.pruned") +
                CounterDelta(u, "erq.exec.partitions.scanned"));
  m["reuse.hit_ratio"] = Ratio(CounterDelta(u, "erq.reuse.hits"),
                               CounterDelta(u, "erq.reuse.lookups"));
  m["reuse.rows_served_per_op"] =
      Ratio(CounterDelta(u, "erq.reuse.rows_served"), reads);
  m["reuse.evictions"] = Count(CounterDelta(u, "erq.reuse.evictions"));
  m["reuse.invalidated_per_write"] =
      Ratio(CounterDelta(u, "erq.reuse.invalidated"), writes);
  m["catalog.append_p50_us"] = Pct(durations("catalog.AppendRows"), 0.50);
  m["catalog.delete_p50_us"] = Pct(durations("catalog.DeleteRows"), 0.50);
  m["persist.appends_per_write"] =
      Ratio(CounterDelta(u, "erq.persist.journal_appends"), writes);
  m["persist.fsyncs"] = Count(CounterDelta(u, "erq.persist.fsyncs"));
  m["op_p99_us"] = Pct(u.op_us, 0.99);
  m["write_p50_us"] = Pct(u.write_us, 0.50);
  m["write_p90_us"] = Pct(u.write_us, 0.90);
  m["server.roundtrip_p50_us"] = Pct(durations("server.roundtrip"), 0.50);
  m["server.roundtrip_p99_us"] = Pct(durations("server.roundtrip"), 0.99);
  m["server.overhead_p50_us"] = Pct(selfs("server.roundtrip"), 0.50);
  m["server.overhead_share"] = share("server.roundtrip");
  m["server.response_bytes_per_op"] =
      u.response_bytes == 0 ? Metric{}
                            : Ratio(static_cast<double>(u.response_bytes),
                                    static_cast<double>(u.op_us.size()));
  m["trace.overhead_ratio"] =
      Ratio(Percentile(t.op_us, 0.50), Percentile(u.op_us, 0.50));
  // Share of the manager's wall time its reported stages account for.
  double execute_us = 0.0;
  double execute_self_us = 0.0;
  for (float v : durations("core.manager.Execute")) execute_us += v;
  for (float v : selfs("core.manager.Execute")) execute_self_us += v;
  m["trace.stage_coverage"] = Ratio(execute_us - execute_self_us, execute_us);
  return m;
}

void PrintJson(const Options& opt, const PassResult& r, const Metrics& m,
               const TraceAggregate* shares) {
  std::string out = "{\"workload\":" + JsonQuote(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"trace\":" + std::to_string(opt.trace ? 1 : 0);
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"timed_ops\":" + std::to_string(r.op_us.size());
  out += ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out += (i > 0 ? "," : "") + JsonQuote(r.errors[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ",") + JsonQuote(name) +
           ":{\"value\":" + JsonNumber(metric.value) +
           ",\"samples\":" + std::to_string(metric.samples);
    if (metric.quantile >= 0.0) {
      out += ",\"quantile\":" + JsonNumber(metric.quantile);
    }
    out += "}";
    first = false;
  }
  out += "}";
  if (shares != nullptr) {
    out += ",\"self_time_shares\":{";
    first = true;
    for (const auto& [name, layer] : shares->layers) {
      if (name == "core.decompose" || name == "core.probe") continue;  // replay
      out += (first ? "" : ",") + JsonQuote(name) + ":" +
             JsonNumber(shares->Share(name));
      first = false;
    }
    out += "}";
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload crm_trace|probe_heavy|server_point|"
               "update_mix [--seed N] [--seconds S] [--trace 0|1] "
               "[--spans FILE] [--scratch DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else if (arg == "--scratch") {
      opt.scratch = value;
    } else {
      return Usage(argv[0]);
    }
  }
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (opt.workload == w.name) info = &w;
  }
  if (info == nullptr || !(opt.seconds > 0.0)) return Usage(argv[0]);

  const size_t timed = std::max<size_t>(
      1, static_cast<size_t>(std::llround(info->ops_per_second * opt.seconds)));
  auto run = [&](bool traced, bool repeat_setup) {
    return opt.workload == "server_point"
               ? RunServer(opt, timed, traced, repeat_setup)
               : RunInProcess(opt, timed, traced, repeat_setup);
  };

  if (!opt.trace) {
    PassResult r = run(/*traced=*/false, /*repeat_setup=*/true);
    PrintJson(opt, r, EndToEnd(r), nullptr);
    return r.failed == 0 ? 0 : 1;
  }
  PassResult untraced = run(/*traced=*/false, /*repeat_setup=*/false);
  PassResult traced = run(/*traced=*/true, /*repeat_setup=*/false);
  const Metrics m = PerLayer(untraced, traced);
  traced.attempted += untraced.attempted;
  traced.failed += untraced.failed;
  for (std::string& e : untraced.errors) {
    if (traced.errors.size() < kMaxErrors) {
      traced.errors.push_back(std::move(e));
    }
  }
  PrintJson(opt, traced, m, &traced.trace);
  return traced.failed == 0 ? 0 : 1;
}

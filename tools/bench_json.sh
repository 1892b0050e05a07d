#!/usr/bin/env bash
# Machine-readable C_aqp perf snapshot: runs the microbenchmarks and the
# concurrent-throughput benchmarks and merges their google-benchmark JSON
# into one document, so the perf trajectory is tracked PR over PR. The
# partition-pruning sweep (bench_partition) and the intermediate-result
# reuse sweep (bench_reuse) are each merged into their own documents,
# BENCH_partition.json and BENCH_reuse.json, so the pre-existing
# BENCH_caqp.json series stays comparable across PRs.
#
#   tools/bench_json.sh [build-dir] [output.json]
#     build-dir    defaults to build (must contain bench/ binaries)
#     output.json  defaults to BENCH_caqp.json in the repo root
#                  (BENCH_partition.json and BENCH_reuse.json are written
#                  next to it)
#
#   BENCH_MIN_TIME=0.01 tools/bench_json.sh   # smoke mode (CI): just prove
#                                             # the benches run and emit JSON
#
# The merged document holds one "benchmarks" array per binary plus the
# google-benchmark context (host, caches, date), the git revision, and —
# when the metrics_dump CLI is built — a "metrics" key carrying the
# erq.metrics.v1 pipeline snapshot from a short TPC-R trace replay, so
# BENCH_*.json and live metrics share one schema (DESIGN.md
# §"Observability").

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
OUT="${2:-BENCH_caqp.json}"

ARGS=(--benchmark_out_format=json)
if [[ -n "${BENCH_MIN_TIME:-}" ]]; then
  ARGS+=("--benchmark_min_time=${BENCH_MIN_TIME}")
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for b in bench_concurrent bench_micro bench_partition bench_reuse; do
  bin="$BUILD/bench/$b"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build the bench targets first" >&2
    exit 1
  fi
  echo "== $b =="
  # bench_concurrent drives the real CaqpCache, which mirrors its counters
  # into the process-wide MetricsRegistry; capture that run's erq.caqp.*
  # totals in the same erq.metrics.v1 schema.
  ERQ_METRICS_OUT="$TMP/_metrics_$b.out" \
    "$bin" "${ARGS[@]}" "--benchmark_out=$TMP/$b.json"
done

# Pipeline metrics snapshot in the same document: replay a short TPC-R
# trace and capture the erq.metrics.v1 registry dump.
METRICS_BIN="$BUILD/tools/metrics_dump"
if [[ -x "$METRICS_BIN" ]]; then
  echo "== metrics_dump =="
  "$METRICS_BIN" --trace tpcr --json --queries 200 > "$TMP/_metrics.out"
else
  echo "note: $METRICS_BIN not built; skipping metrics snapshot" >&2
fi

# Concurrency configuration the numbers depend on, extracted from the
# sources so the recorded context can never drift from the code: the
# epoch reclamation geometry (bucket count x reader-count stripes).
EPOCH_BUCKETS=$(grep -oE 'active_\[[0-9]+\]' src/common/epoch.h \
  | head -1 | grep -oE '[0-9]+')
EPOCH_STRIPES=$(grep -oE 'kStripes = [0-9]+' src/common/epoch.h \
  | grep -oE '[0-9]+')
ZONE_MAP_CAP=$(grep -oE 'zone_map_distinct_cap = [0-9]+' src/catalog/partition.h \
  | grep -oE '[0-9]+')

PART_OUT="$(dirname "$OUT")/BENCH_partition.json"
REUSE_OUT="$(dirname "$OUT")/BENCH_reuse.json"

# Reuse-store defaults the bench sweeps pivot around, recorded the same
# way as the concurrency geometry: extracted from the source of truth.
REUSE_MAX_ROWS=$(grep -oE 'max_rows = [0-9]+' src/core/config.h \
  | head -1 | grep -oE '[0-9]+')

# The project's own build type (google-benchmark's context only records
# the benchmark library's).
BUILD_TYPE=$(grep -oE '^CMAKE_BUILD_TYPE:[A-Z]+=.*' "$BUILD/CMakeCache.txt" \
  | cut -d= -f2)

python3 - "$TMP" "$OUT" "$EPOCH_BUCKETS" "$EPOCH_STRIPES" \
  "$PART_OUT" "$ZONE_MAP_CAP" "$REUSE_OUT" "$REUSE_MAX_ROWS" \
  "$BUILD_TYPE" <<'PY'
import json, os, subprocess, sys

tmp, out = sys.argv[1], sys.argv[2]
part_out = sys.argv[5]
reuse_out = sys.argv[7]

rev = subprocess.run(
    ["git", "describe", "--always", "--dirty"], capture_output=True, text=True
).stdout.strip()

merged = {"context": {}, "benchmarks": {}}
partition = {"context": {}, "benchmarks": {}}
reuse = {"context": {}, "benchmarks": {}}
metrics_path = os.path.join(tmp, "_metrics.out")
if os.path.exists(metrics_path):
    with open(metrics_path) as f:
        merged["metrics"] = json.load(f)
for name in sorted(os.listdir(tmp)):
    if name.startswith("_metrics_") and name.endswith(".out"):
        with open(os.path.join(tmp, name)) as f:
            merged.setdefault("bench_metrics", {})[
                name[len("_metrics_"):-len(".out")]] = json.load(f)
for name in sorted(os.listdir(tmp)):
    if not name.endswith(".json"):
        continue
    with open(os.path.join(tmp, name)) as f:
        doc = json.load(f)
    target = merged
    if name == "bench_partition.json":
        target = partition
    elif name == "bench_reuse.json":
        target = reuse
    if not target["context"]:
        target["context"] = doc.get("context", {})
        target["context"]["erq_build_type"] = sys.argv[9]
    target["benchmarks"][name[: -len(".json")]] = doc.get("benchmarks", [])

if rev:
    merged["context"]["git_revision"] = rev
merged["context"]["epoch_buckets"] = int(sys.argv[3])
merged["context"]["epoch_stripes"] = int(sys.argv[4])

with open(out, "w") as f:
    json.dump(merged, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"wrote {out}")

if partition["benchmarks"]:
    if rev:
        partition["context"]["git_revision"] = rev
    partition["context"]["zone_map_distinct_cap"] = int(sys.argv[6])
    with open(part_out, "w") as f:
        json.dump(partition, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {part_out}")

if reuse["benchmarks"]:
    if rev:
        reuse["context"]["git_revision"] = rev
    reuse["context"]["reuse_default_max_rows"] = int(sys.argv[8])
    with open(reuse_out, "w") as f:
        json.dump(reuse, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {reuse_out}")
PY

#!/usr/bin/env bash
# Correctness gate: the three-way matrix every PR must pass.
#
#   tools/check.sh            # run everything available on this machine
#   tools/check.sh plain      # -Wall -Wextra -Werror build + full ctest
#   tools/check.sh asan       # ASan+UBSan build + full ctest
#   tools/check.sh tsan       # TSan + ERQ_DEBUG_LOCK_ORDER build +
#                             # `ctest -L 'concurrency|persist|server'`
#   tools/check.sh analyze    # static analysis: lock_lint (+ its own
#                             # test suite) over compile_commands.json,
#                             # plus run-clang-tidy where installed
#   tools/check.sh tidy       # run-clang-tidy over compile_commands.json
#   tools/check.sh clang      # clang build with -Werror=thread-safety
#   tools/check.sh docs       # doc_lint + link check + Doxygen (if present)
#   tools/check.sh server     # erq_server end-to-end smoke: start the
#                             # binary, query/metrics/invalidate over
#                             # HTTP, verify responses, clean shutdown
#   tools/check.sh e2e        # end-to-end benchmark smoke: build the
#                             # e2ebench package and run its `bench`-
#                             # labelled ctest (every workload, briefly)
#   tools/check.sh bench      # opt-in: build benches + regenerate
#                             # BENCH_caqp.json via tools/bench_json.sh
#                             # (not part of the default job set)
#   tools/check.sh --help     # this usage text
#
# Each job uses its own build tree (build-check-<job>) so flavors never
# contaminate each other. Exits nonzero on the first regression. Jobs whose
# toolchain is missing (clang-tidy / clang on a gcc-only box) are reported
# as SKIPPED — the CI image carries the full toolchain, so nothing is
# silently skipped there.

set -u -o pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
JOBS="${CHECK_JOBS:-$(nproc)}"
FAILED=()
SKIPPED=()

log()  { printf '\n\033[1;34m== %s ==\033[0m\n' "$*"; }
ok()   { printf '\033[1;32mPASS\033[0m %s\n' "$*"; }
bad()  { printf '\033[1;31mFAIL\033[0m %s\n' "$*"; FAILED+=("$*"); }
skip() { printf '\033[1;33mSKIP\033[0m %s\n' "$*"; SKIPPED+=("$*"); }

configure_build_test() {
  # configure_build_test <name> <ctest-args...> -- <cmake-args...>
  local name="$1"; shift
  local ctest_args=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do ctest_args+=("$1"); shift; done
  shift  # --
  local dir="$ROOT/build-check-$name"
  log "$name: configure"
  cmake -B "$dir" -S "$ROOT" "$@" || { bad "$name (configure)"; return 1; }
  log "$name: build"
  cmake --build "$dir" -j "$JOBS" || { bad "$name (build)"; return 1; }
  log "$name: ctest ${ctest_args[*]:-}"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${ctest_args[@]}") \
    || { bad "$name (ctest)"; return 1; }
  ok "$name"
}

run_plain() {
  configure_build_test plain -- -DERQ_WERROR=ON || return 1
  # Observability smoke: the metrics CLI must replay a short TPC-R trace
  # and emit a parseable erq.metrics.v1 document (DESIGN.md §Observability).
  local dir="$ROOT/build-check-plain"
  log "plain: metrics_dump --trace tpcr --json smoke"
  if "$dir/tools/metrics_dump" --trace tpcr --json --queries 50 \
      | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["schema"] == "erq.metrics.v1", doc.get("schema")
assert doc["counters"]["erq.manager.queries"] == 50
assert "erq.manager.stage.check" in doc["histograms"]
print("metrics_dump: OK (%d counters, %d histograms)"
      % (len(doc["counters"]), len(doc["histograms"])))
'; then
    ok "plain (metrics_dump smoke)"
  else
    bad "plain (metrics_dump smoke)"
  fi
  # In-entry point index: over a seeded 1000-query TPC-R trace a C_aqp
  # lookup makes at most 2 cover tests on average. The count is
  # deterministic; scanning every part of the matching entry made ~75.
  log "plain: metrics_dump cover tests per C_aqp lookup"
  if "$dir/tools/metrics_dump" --trace tpcr --json --queries 1000 \
      | python3 -c '
import json, sys
counters = json.load(sys.stdin)["counters"]
lookups = counters["erq.caqp.lookups"]
per_lookup = counters["erq.caqp.conditions_scanned"] / max(lookups, 1)
assert lookups > 0, "no C_aqp lookup ran"
assert per_lookup <= 2, "%.2f cover tests per lookup (want <= 2)" % per_lookup
print("cover tests per lookup: OK (%.2f over %d lookups)"
      % (per_lookup, lookups))
'; then
    ok "plain (cover tests per lookup)"
  else
    bad "plain (cover tests per lookup)"
  fi
  # Multi-range index scans: over the same seeded 1000-query TPC-R trace an
  # execution reads at most 100 rows on average. The count is
  # deterministic; full-scanning `orders` for Q1's date disjunction read
  # ~5000, serving each disjunct through the orderdate index reads ~16.
  log "plain: metrics_dump rows scanned per execution"
  if "$dir/tools/metrics_dump" --trace tpcr --json --queries 1000 \
      | python3 -c '
import json, sys
counters = json.load(sys.stdin)["counters"]
runs = counters["erq.exec.runs"]
per_run = counters["erq.exec.rows_scanned"] / max(runs, 1)
assert runs > 0, "no plan was executed"
assert per_run <= 100, "%.1f rows scanned per execution (want <= 100)" % per_run
print("rows scanned per execution: OK (%.1f over %d runs)" % (per_run, runs))
'; then
    ok "plain (rows scanned per execution)"
  else
    bad "plain (rows scanned per execution)"
  fi
  # Partition-pruning smoke: over a partitioned index-free TPC-R
  # instance, a canned selective query must skip partitions — the binary
  # itself fails on zero pruned, and the emitted registry dump must carry
  # nonzero erq.exec.partitions.pruned (DESIGN.md §12).
  log "plain: metrics_dump --partitions 8 pruning smoke"
  if "$dir/tools/metrics_dump" --trace tpcr --json --queries 20 \
      --partitions 8 \
      | python3 -c '
import json, sys
doc = json.load(sys.stdin)
pruned = doc["counters"]["erq.exec.partitions.pruned"]
assert pruned > 0, "partition pruning never fired"
print("partition smoke: OK (%d partitions pruned, %d scanned)"
      % (pruned, doc["counters"]["erq.exec.partitions.scanned"]))
'; then
    ok "plain (partition pruning smoke)"
  else
    bad "plain (partition pruning smoke)"
  fi
  # Integer flags are strict decimals: a negative partition count is a
  # usage error (exit 2), not a huge size_t.
  log "plain: metrics_dump --partitions -1 usage-error smoke"
  "$dir/tools/metrics_dump" --partitions -1 >/dev/null 2>&1
  local rc=$?
  if [[ $rc -eq 2 ]]; then
    ok "plain (metrics_dump bad flag value)"
  else
    bad "plain (metrics_dump bad flag value: exit $rc, want 2)"
  fi
  # Reuse smoke: with the intermediate-result store on, the canned query
  # pair inside metrics_dump must harvest then splice — the binary itself
  # fails on zero spliced subtrees, and the emitted registry dump must
  # carry nonzero erq.reuse.hits (DESIGN.md §13).
  log "plain: metrics_dump --reuse splice smoke"
  if "$dir/tools/metrics_dump" --trace tpcr --json --queries 20 \
      --reuse \
      | python3 -c '
import json, sys
doc = json.load(sys.stdin)
hits = doc["counters"]["erq.reuse.hits"]
assert hits > 0, "reuse splice never fired"
assert doc["gauges"]["erq.reuse.entries"] > 0, "reuse store is empty"
print("reuse smoke: OK (%d hits, %d rows served, %d bytes stored)"
      % (hits, doc["counters"]["erq.reuse.rows_served"],
         doc["gauges"]["erq.reuse.bytes"]))
'; then
    ok "plain (reuse splice smoke)"
  else
    bad "plain (reuse splice smoke)"
  fi
  # Durability smoke: cache_inspect must decode and verify the files a
  # real manager writes (README §Durability).
  log "plain: cache_inspect --verify smoke"
  local pdir
  pdir=$(mktemp -d) || { bad "plain (cache_inspect smoke: mktemp)"; return 1; }
  if "$dir/tools/metrics_dump" --trace tpcr --queries 20 \
        --persist-dir "$pdir" > /dev/null \
      && "$dir/tools/cache_inspect" --verify "$pdir" > /dev/null \
      && "$dir/tools/cache_inspect" --records "$pdir" > /dev/null \
      && "$dir/tools/cache_inspect" --reuse-preview > /dev/null; then
    ok "plain (cache_inspect smoke)"
  else
    bad "plain (cache_inspect smoke)"
  fi
  # Gauge smoke: a second run over the same directory recovers the parts
  # the first left on disk, and its snapshot reset (counters only) must
  # leave them in the erq.caqp.size gauge.
  log "plain: metrics_dump recovered erq.caqp.size smoke"
  local parts
  parts=$("$dir/tools/cache_inspect" "$pdir" \
    | sed -n 's/^recovery: \([0-9]*\) C_aqp part(s)$/\1/p')
  if [[ -n "$parts" ]] && "$dir/tools/metrics_dump" --json --queries 20 \
        --persist-dir "$pdir" \
      | python3 -c '
import json, sys
on_disk = int(sys.argv[1])
size = json.load(sys.stdin)["gauges"]["erq.caqp.size"]
assert on_disk > 0, "first run left no parts on disk"
assert size >= on_disk, "erq.caqp.size %d < %d recovered parts" % (size, on_disk)
print("caqp size smoke: OK (%d live parts, %d recovered)" % (size, on_disk))
' "$parts"; then
    ok "plain (recovered caqp size smoke)"
  else
    bad "plain (recovered caqp size smoke)"
  fi
  rm -rf "$pdir"
}

run_asan() {
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  configure_build_test asan -- -DERQ_SANITIZE=address+undefined
}

run_tsan() {
  # Full suite is valuable but slow under TSan; the labeled concurrency
  # and persistence tests are the ones with real thread interleavings and
  # listener/journal interaction, so run those always and let
  # CHECK_TSAN_FULL=1 opt into everything. The debug lock-order validator
  # rides along: TSan finds orders that DID invert in this run, the
  # validator aborts on any acquisition that CONTRADICTS the declared
  # hierarchy (DESIGN.md §8) even if no other thread was mid-deadlock.
  local ctest_args=(-L 'concurrency|persist|server')
  [[ "${CHECK_TSAN_FULL:-0}" == "1" ]] && ctest_args=()
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
  configure_build_test tsan "${ctest_args[@]}" \
    -- -DERQ_SANITIZE=thread -DERQ_DEBUG_LOCK_ORDER=ON
}

run_analyze() {
  # Static analysis over the whole program. lock_lint extracts the lock
  # acquisition graph from the annotated sources (including locks held
  # across calls into other modules) and checks it against the declared
  # hierarchy in src/common/lock_order.h; its own fixture corpus of
  # seeded inversions runs first so a broken linter cannot green-light a
  # broken tree. clang-tidy runs when installed (SKIPPED otherwise; CI
  # has it).
  local dir="$ROOT/build-check-plain"
  if [[ ! -f "$dir/compile_commands.json" ]]; then
    log "analyze: configuring $dir for compile_commands.json"
    cmake -B "$dir" -S "$ROOT" || { bad "analyze (configure)"; return 1; }
  fi
  log "analyze: tools/lock_lint_test.py (linter self-test)"
  python3 tools/lock_lint_test.py || { bad "analyze (lock_lint_test)"; return 1; }
  log "analyze: tools/lock_lint.py"
  python3 tools/lock_lint.py --build-dir "$dir" \
    || { bad "analyze (lock_lint)"; return 1; }
  ok "analyze (lock_lint)"
  run_tidy
}

run_clang() {
  local cxx
  cxx=$(command -v clang++ || true)
  if [[ -z "$cxx" ]]; then
    skip "clang (clang++ not installed; thread-safety analysis needs clang)"
    return 0
  fi
  configure_build_test clang -- -DCMAKE_CXX_COMPILER="$cxx" -DERQ_WERROR=ON
}

run_tidy() {
  local runner
  runner=$(command -v run-clang-tidy || command -v run-clang-tidy-18 \
           || command -v run-clang-tidy-14 || true)
  if [[ -z "$runner" ]]; then
    skip "tidy (run-clang-tidy not installed)"
    return 0
  fi
  local dir="$ROOT/build-check-plain"
  if [[ ! -f "$dir/compile_commands.json" ]]; then
    log "tidy: configuring $dir for compile_commands.json"
    cmake -B "$dir" -S "$ROOT" || { bad "tidy (configure)"; return 1; }
  fi
  log "tidy: run-clang-tidy over src/"
  "$runner" -quiet -p "$dir" "$ROOT/src/.*" \
    || { bad "tidy"; return 1; }
  ok "tidy"
}

run_docs() {
  # Documentation gates. The two Python checkers always run (they need no
  # toolchain); Doxygen runs when installed — CI installs it, so public
  # declarations missing docs fail there even if a local box skips it.
  log "docs: tools/doc_lint.py"
  python3 tools/doc_lint.py || { bad "docs (doc_lint)"; return 1; }
  log "docs: tools/check_links.py"
  python3 tools/check_links.py || { bad "docs (check_links)"; return 1; }
  if ! command -v doxygen > /dev/null; then
    skip "docs (doxygen not installed; doc_lint + check_links still ran)"
    ok "docs"
    return 0
  fi
  log "docs: doxygen Doxyfile"
  mkdir -p build-docs
  doxygen Doxyfile || { bad "docs (doxygen)"; return 1; }
  if [[ -s build-docs/doxygen-warnings.log ]]; then
    cat build-docs/doxygen-warnings.log
    bad "docs (doxygen warnings)"
    return 1
  fi
  ok "docs"
}

run_server() {
  # End-to-end wire smoke: boots tools/erq_server on an ephemeral port,
  # drives every endpoint over real HTTP from python3's urllib (no curl
  # dependency), and verifies both payloads and the detection behavior
  # (second identical empty query must be answered from C_aqp). Exits
  # nonzero on any mismatch.
  local dir="$ROOT/build-check-plain"
  if [[ ! -x "$dir/tools/erq_server" ]]; then
    log "server: building erq_server"
    cmake -B "$dir" -S "$ROOT" || { bad "server (configure)"; return 1; }
    cmake --build "$dir" -j "$JOBS" --target erq_server_tool \
      || { bad "server (build)"; return 1; }
  fi
  log "server: end-to-end smoke"
  local fifo out rc
  out=$(mktemp) || { bad "server (mktemp)"; return 1; }
  fifo=$(mktemp -u) || { bad "server (mktemp)"; return 1; }
  mkfifo "$fifo" || { bad "server (mkfifo)"; return 1; }
  # Keep the fifo writable so the server's stdin stays open until we say
  # quit; port 0 lets the kernel pick, the server prints what it bound.
  exec 9<>"$fifo"
  "$dir/tools/erq_server" --port 0 --customers-per-unit 200 \
      < "$fifo" > "$out" 2>&1 &
  local pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' "$out")
    [[ -n "$port" ]] && break
    kill -0 "$pid" 2> /dev/null || break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    cat "$out"
    bad "server (startup)"
    exec 9>&-; rm -f "$fifo" "$out"
    return 1
  fi
  ERQ_SERVER_PORT="$port" python3 - <<'PYEOF'
import json, os, urllib.request, urllib.error

base = "http://127.0.0.1:" + os.environ["ERQ_SERVER_PORT"]

def call(path, body=None, method=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data,
                                 method=method or ("POST" if data else "GET"))
    try:
        with urllib.request.urlopen(req, timeout=10) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())

empty_sql = "select * from orders where totalprice < 0"

code, doc = call("/v1/query", {"sql": empty_sql, "tenant": "smoke_a"})
assert code == 200 and doc["schema"] == "erq.response.v1", doc
assert doc["outcome"]["executed"] and doc["outcome"]["result_empty"], doc

code, doc = call("/v1/query", {"sql": empty_sql, "tenant": "smoke_a"})
assert code == 200 and doc["outcome"]["detected_empty"], (
    "repeat of an empty query must be answered from C_aqp: %r" % doc)

# Tenant isolation: the same query under another tenant must execute.
code, doc = call("/v1/query", {"sql": empty_sql, "tenant": "smoke_b"})
assert code == 200 and not doc["outcome"]["detected_empty"], doc

code, doc = call("/v1/query", {"batch": [empty_sql, "not sql"],
                               "tenant": "smoke_a"})
assert code == 200 and doc["schema"] == "erq.response.batch.v1", doc
assert doc["items"][0]["http_status"] == 200, doc
assert doc["items"][1]["http_status"] == 400, doc
assert doc["items"][1]["response"]["status"]["code"] == "ParseError", doc

code, doc = call("/v1/admin/cache")
assert code == 200 and set(doc["tenants"]) >= {"smoke_a", "smoke_b"}, doc

code, doc = call("/v1/admin/invalidate?table=orders", method="POST")
assert code == 200 and doc["tenants_notified"] >= 2, doc

# Invalidation dropped the proof: the query must execute again.
code, doc = call("/v1/query", {"sql": empty_sql, "tenant": "smoke_a"})
assert code == 200 and not doc["outcome"]["detected_empty"], doc

code, doc = call("/metrics")
assert code == 200 and doc["schema"] == "erq.metrics.v1", doc
assert doc["counters"]["erq.server.requests"] >= 8, doc

code, doc = call("/v1/query", {"sql": ""})
assert code == 400, (code, doc)

print("server smoke: OK")
PYEOF
  rc=$?
  echo quit >&9
  exec 9>&-
  wait "$pid"
  local server_rc=$?
  rm -f "$fifo"
  if [[ $rc -ne 0 || $server_rc -ne 0 ]]; then
    cat "$out"
    rm -f "$out"
    bad "server"
    return 1
  fi
  rm -f "$out"
  ok "server"
}

run_e2e() {
  # The e2ebench package configures its own tree (e2ebench/build, the one
  # run_benchmark.py uses) from ../src, so this also proves the benchmark
  # still builds against the current engine sources.
  log "e2e: configure + build e2ebench"
  cmake -S e2ebench -B e2ebench/build \
    && cmake --build e2ebench/build -j "$JOBS" \
    || { bad "e2e (build)"; return 1; }
  log "e2e: ctest -L bench"
  ctest --test-dir e2ebench/build -L bench --output-on-failure \
    || { bad "e2e"; return 1; }
  ok "e2e"
}

run_bench() {
  # Opt-in perf snapshot: builds the bench targets and regenerates
  # BENCH_caqp.json. Honors BENCH_MIN_TIME (e.g. 0.01 for a smoke run).
  local dir="$ROOT/build-check-bench"
  log "bench: configure"
  cmake -B "$dir" -S "$ROOT" || { bad "bench (configure)"; return 1; }
  log "bench: build"
  cmake --build "$dir" -j "$JOBS" \
    --target bench_concurrent bench_micro bench_partition bench_reuse \
    metrics_dump || { bad "bench (build)"; return 1; }
  log "bench: tools/bench_json.sh"
  tools/bench_json.sh "$dir" || { bad "bench (run)"; return 1; }
  ok "bench"
}

usage() {
  # Print the header comment (everything between the shebang and the
  # first blank-after-comment line) as the usage text.
  sed -n '2,/^$/{/^#/s/^# \{0,1\}//p}' "$0"
}

main() {
  local jobs=("$@")
  for job in "${jobs[@]:-}"; do
    case "$job" in
      -h|--help|help) usage; exit 0 ;;
    esac
  done
  # bench is opt-in (perf snapshot, not a correctness gate). analyze runs
  # after plain so the compile_commands.json it needs already exists.
  [[ ${#jobs[@]} -eq 0 ]] && jobs=(plain analyze asan tsan clang docs server e2e)
  for job in "${jobs[@]}"; do
    case "$job" in
      plain)   run_plain ;;
      analyze) run_analyze ;;
      asan)    run_asan ;;
      tsan)    run_tsan ;;
      clang)   run_clang ;;
      tidy)    run_tidy ;;
      docs)    run_docs ;;
      server)  run_server ;;
      e2e)     run_e2e ;;
      bench)   run_bench ;;
      *) echo "unknown job: $job" \
            "(want plain|analyze|asan|tsan|clang|tidy|docs|server|e2e|bench;" \
            "--help for details)" >&2
         exit 2 ;;
    esac
  done

  echo
  [[ ${#SKIPPED[@]} -gt 0 ]] && printf 'skipped: %s\n' "${SKIPPED[*]}"
  if [[ ${#FAILED[@]} -gt 0 ]]; then
    printf 'FAILED: %s\n' "${FAILED[*]}"
    exit 1
  fi
  echo "all checks passed"
}

main "$@"

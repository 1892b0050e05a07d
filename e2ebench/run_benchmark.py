#!/usr/bin/env python3
"""End-to-end benchmark runner.

Builds bench_e2e from this directory's CMake package (engine sources in
../src), runs one or all workloads, checks that every answer was right,
and prints every metric as `workload metric value unit`, followed by one
JSON object on the last line:

  {"correct": bool, "attempted": n, "failed": n,
   "metrics": {name: {"value": x, "unit": u}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. With --reps N the value is the
median over N runs of the same seed; --out FILE also records quartiles,
every run's values and the environment. When several workloads run, the
last-line metric names are `workload:metric`.

  python3 e2ebench/run_benchmark.py --workload crm_trace --seed 42 \\
      --seconds 15 --trace 0

Exit status: 0 when every answer was right, 1 on a wrong answer or
error, 2 when the benchmark could not be built or set up.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["crm_trace", "probe_heavy", "server_point", "update_mix"]
DEFAULT_SEED = 42  # README.md names the holdout seed
MIN_BEYOND = 10  # samples a percentile needs beyond it to be reported


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            log("run_benchmark: build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "bench_e2e")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def environment(build_dir):
    """Revision, the project's effective build type and flags, compiler,
    CPU count and load. bench_e2e does not link google-benchmark, so no
    library build type is involved."""
    build_type, compiler, flags = None, None, None
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    commands = os.path.join(build_dir, "compile_commands.json")
    if os.path.exists(commands):
        with open(commands) as f:
            for entry in json.load(f):
                if entry["file"].endswith("bench_e2e.cc"):
                    flags = " ".join(re.findall(
                        r"(?<!\S)-(?:O\S*|g\S*|D\S+|std=\S+|march=\S+)",
                        entry["command"]))
    return {
        "revision": first_line(["git", "rev-parse", "HEAD"]) or "unknown",
        "uncommitted_changes":
            first_line(["git", "status", "--porcelain"]) is not None,
        "build_type": build_type,
        "compile_flags": flags,
        "compiler": compiler and first_line([compiler, "--version"]),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg()[0],
    }


def run_once(binary, workload, seed, seconds, trace, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", os.path.join(os.path.dirname(binary), "scratch")]
    if spans:
        cmd += ["--spans", "%s.%s.jsonl" % (spans, workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=60 + 8 * seconds)
    if proc.returncode == 2 or not proc.stdout.strip():
        log("run_benchmark: %s did not run (exit %d)"
            % (workload, proc.returncode))
        sys.exit(2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reportable(metric):
    """A percentile needs MIN_BEYOND samples beyond it; a metric with no
    samples does not apply to the workload and reads 0."""
    q = metric.get("quantile")
    if q is None or metric["samples"] == 0:
        return True
    return int(metric["samples"] * (1.0 - q)) >= MIN_BEYOND


def summarize(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--out", help="write the full record as JSON")
    parser.add_argument("--spans", metavar="PREFIX",
                        help="with --trace 1, write spans to "
                             "PREFIX.<workload>.jsonl")
    parser.add_argument("--binary", help="use this bench_e2e, do not build")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    binary = args.binary or build(os.path.join(HERE, "build"))
    if binary is None:
        sys.exit(2)
    env = environment(os.path.dirname(binary))

    record = {"environment": env, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "reps": args.reps, "workloads": {}}
    attempted = failed = 0
    last_metrics = {}
    for workload in workloads:
        runs = [run_once(binary, workload, args.seed, seconds, args.trace,
                         args.spans if args.trace else None)
                for _ in range(args.reps)]
        attempted += sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)
        for r in runs:
            for error in r["errors"]:
                log("%s: %s" % (workload, error))
        metrics = {}
        for name, unit in units.items():
            if any(name not in r["metrics"] for r in runs):
                log("run_benchmark: %s did not report %s" % (workload, name))
                sys.exit(2)
            if not all(reportable(r["metrics"][name]) for r in runs):
                samples = min(r["metrics"][name]["samples"] for r in runs)
                print("%s %s n/a %s (%d samples: too few beyond the percentile)"
                      % (workload, name, unit, samples))
                continue
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3 = summarize(values)
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "values": values, "unit": unit,
                             "samples": runs[0]["metrics"][name]["samples"]}
            print("%s %s %.6g %s" % (workload, name, median, unit))
            key = name if len(workloads) == 1 else "%s:%s" % (workload, name)
            last_metrics[key] = {"value": median, "unit": unit}
        record["workloads"][workload] = {
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "timed_ops": runs[0]["timed_ops"],
            "self_time_shares": runs[0].get("self_time_shares"),
        }

    env["loadavg_after"] = os.getloadavg()[0]
    env["noisy"] = (max(env["loadavg_before"], env["loadavg_after"])
                    > env["nproc"])
    print("# environment " + json.dumps(env, sort_keys=True))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": last_metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()

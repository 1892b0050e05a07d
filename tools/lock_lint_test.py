#!/usr/bin/env python3
"""Golden tests for tools/lock_lint.py.

Runs the linter over the fixture corpus in tools/lock_lint_fixtures/ and
asserts the exact diagnostics and exit codes, so a change to the linter
that stops catching the seeded inversions (including the re-created
pre-fix Persistence::AttachCaqp deadlock shape) fails loudly.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(HERE, "lock_lint.py")
FIXTURES = os.path.join(HERE, "lock_lint_fixtures")

CASES = [
    {
        "name": "clean",
        "exit": 0,
        "stdout": [],
        "stderr_contains": ["lock_lint: OK (2 mutexes, 1 acquisition edges"],
    },
    {
        "name": "cycle",
        "exit": 1,
        "stdout": [
            "src/graph.cc:18: error: lock-order violation: 'Alpha::mu_' "
            "(level 10) acquired while holding 'Beta::mu_' (level 20); the "
            "hierarchy requires strictly ascending levels; call path: "
            "Beta::Poke -> Alpha::Grab acquires it at src/graph.cc:27",
            "src/graph.h:30: error: lock cycle: Alpha::mu_ -> Beta::mu_ -> "
            "Alpha::mu_",
        ],
        "stderr_contains": ["lock_lint: 2 error(s)"],
    },
    {
        "name": "unannotated",
        "exit": 1,
        "stdout": [
            "src/gamma.h:17: error: mutex 'Gamma::mu_' lacks a lock "
            "hierarchy annotation: declare "
            "ERQ_ACQUIRED_AFTER(lock_order::k<Rank>) and initialize with "
            "{lock_order::k<Rank>} (see src/common/lock_order.h)",
        ],
        "stderr_contains": ["lock_lint: 1 error(s)"],
    },
    {
        "name": "epoch_guard",
        "exit": 1,
        "stdout": [
            "src/cache.cc:23: error: epoch-guard violation: mutex "
            "'Cache::mu_' acquired inside an EpochReadGuard critical "
            "section in Cache::LookupAndCount; epoch readers must never "
            "block (a stalled reader pins every retired snapshot) — move "
            "the acquisition outside the guard scope",
        ],
        "stderr_contains": ["lock_lint: 1 error(s)"],
    },
    {
        "name": "held_across_call",
        "exit": 1,
        "stdout": [
            "src/persistence.cc:13: error: lock-order violation: "
            "'Cache::mu_' (level 20) acquired while holding "
            "'Persistence::mu_' (level 50); the hierarchy requires strictly "
            "ascending levels; call path: Persistence::AttachCaqp -> "
            "Cache::Snapshot acquires it at src/cache.cc:6",
        ],
        "stderr_contains": ["lock_lint: 1 error(s)"],
    },
    {
        "name": "scoped_registry",
        "exit": 1,
        "stdout": [
            "src/registry.cc:16: error: self-deadlock: 'Registry::mu_' is "
            "acquired while already held in Registry::GetNested via "
            "Registry::Get acquires it at src/registry.cc:8",
        ],
        "stderr_contains": ["lock_lint: 1 error(s)"],
    },
]


def run_case(case):
    root = os.path.join(FIXTURES, case["name"])
    proc = subprocess.run(
        [sys.executable, LINTER, "--root", root],
        capture_output=True, text=True)
    failures = []
    if proc.returncode != case["exit"]:
        failures.append(f"exit code {proc.returncode}, expected "
                        f"{case['exit']}")
    got_lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if got_lines != case["stdout"]:
        failures.append("stdout mismatch:\n  expected:\n" +
                        "\n".join(f"    {l}" for l in case["stdout"]) +
                        "\n  got:\n" +
                        "\n".join(f"    {l}" for l in got_lines))
    for needle in case["stderr_contains"]:
        if needle not in proc.stderr:
            failures.append(f"stderr missing {needle!r}; got: "
                            f"{proc.stderr.strip()!r}")
    return failures


def main():
    total_failures = 0
    for case in CASES:
        failures = run_case(case)
        status = "ok" if not failures else "FAIL"
        print(f"lock_lint_test: {case['name']}: {status}")
        for f in failures:
            print(f"  {f}")
        total_failures += len(failures)

    # The real tree must be clean: the hierarchy the fixtures exercise is
    # the one the production code actually declares.
    repo_root = os.path.dirname(HERE)
    proc = subprocess.run(
        [sys.executable, LINTER, "--root", repo_root],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print("lock_lint_test: real-tree: FAIL")
        print(proc.stdout)
        total_failures += 1
    else:
        print("lock_lint_test: real-tree: ok")

    if total_failures:
        print(f"lock_lint_test: {total_failures} failure(s)",
              file=sys.stderr)
        return 1
    print(f"lock_lint_test: all {len(CASES) + 1} cases passed",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

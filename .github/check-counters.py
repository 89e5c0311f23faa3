#!/usr/bin/env python3
"""Compare the deterministic work counters of traced benchmark runs exactly
against the committed baseline (.github/counter-baseline.json).

usage: check-counters.py BASELINE WORKLOAD=OUTPUT [WORKLOAD=OUTPUT ...]
       check-counters.py --write BASELINE WORKLOAD=OUTPUT [...]

OUTPUT is the standard output of `benchmark --workload WORKLOAD --trace 1`,
whose last line is the result JSON. The counters count work (paths, solver
checks, SAT decisions, ...), not time, so any difference is a behaviour
change. `--write` records the runs' values as the new baseline instead.
"""
import json
import sys

COUNTERS = [
    "frontend.tokens",
    "ir.statements",
    "core.paths",
    "core.tests",
    "core.solver_checks",
    "core.memo_hits",
    "smt.blast_cache_misses",
    "smt.sat_decisions",
    "smt.sat_propagations",
    "smt.roots_blasted",
    "smt.warm_rebuilds",
    "smt.simplify_fast_unsat",
]


def counters(path):
    with open(path) as f:
        result = json.loads(f.read().strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{path}: the run failed its correctness gate")
    return {name: int(result["metrics"][name]["value"]) for name in COUNTERS}


def main(argv):
    write = argv[:1] == ["--write"]
    if write:
        argv = argv[1:]
    baseline_path, runs = argv[0], [a.split("=", 1) for a in argv[1:]]
    measured = {workload: counters(path) for workload, path in runs}
    if write:
        with open(baseline_path, "w") as f:
            json.dump(measured, f, indent=2, sort_keys=True)
            f.write("\n")
        return 0
    with open(baseline_path) as f:
        baseline = json.load(f)
    failed = False
    for workload, got in measured.items():
        for name in COUNTERS:
            want = baseline[workload][name]
            ok = got[name] == want
            failed |= not ok
            print(f"{workload} {name} baseline={want} got={got[name]} {'ok' if ok else 'CHANGED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

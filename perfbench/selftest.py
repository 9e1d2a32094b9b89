"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

For each workload: two traced runs with the same seed must give identical
counters (every per-layer metric that is not a time), and a run with
another seed must pass every answer check, with failures only of the
kind the first seed shows (ip2s-pool's missed GL_2 witnesses).  Exits 1
on the first mismatch.
"""

from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, _worker


def _counters(table):
    return {k: v for k, v in table.items()
            if not k.endswith((".s", ".self_s", "overhead_frac"))}


def _failure_kinds(child):
    return {status for *_, status in child["samples"] if status != "ok"}


def check_workload(name, seed):
    first = _worker("trace", name, seed, 0, 600)
    again = _worker("trace", name, seed, 0, 600)
    a, b = _counters(first["per_layer"]), _counters(again["per_layer"])
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if diff:
        return "counters differ between runs of seed %d: %s" % (
            seed, ", ".join("%s %s != %s" % (k, a.get(k), b.get(k))
                            for k in diff))
    other = _worker("trace", name, seed + 1, 0, 600)
    kinds, base = _failure_kinds(other), _failure_kinds(first)
    if "wrong" in kinds | base:
        return "an answer failed its check"
    if not kinds <= base | {"missed"} or ("missed" in kinds) != (
            "missed" in base):
        return "failure kinds changed with the seed: %s vs %s" % (
            sorted(base), sorted(kinds))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        problem = check_workload(name, args.seed)
        print("%s: %s" % (name, problem or "ok"), flush=True)
        if problem:
            sys.exit(1)


if __name__ == "__main__":
    main()

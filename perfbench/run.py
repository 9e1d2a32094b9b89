"""Benchmark for quadpencil's user-facing operations.

    python3 perfbench/run.py --workload canon-f101 --seed 1 --trace 0
    python3 perfbench/run.py     # every workload, untraced and traced

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded process (OMP/OpenBLAS/MKL threads pinned to 1), one
process at a time, as a closed loop with one caller over a corpus of
inputs made from ``--seed``.  Answers are checked outside the timed
interval.  ``attempted`` and ``failed`` count the corpus's inputs, each
called once per pass; an input fails when its answer does, and every
repetition must give the first answer.

Untraced runs report latencies and rates in milliseconds and, as
BENCHMARK.json gates them, in reference milliseconds (see refloop.py),
plus ``setup_s``, ``fail_frac``/``ok_frac``, ``peak_rss_mb`` and, on pair
workloads, ``equiv_p50_*`` and ``nonequiv_p50_*``.  Traced runs report
per-layer metrics; they make one pass over the corpus, so that their
counts repeat exactly, and do not use ``--seconds``.  Every metric
is printed as ``name value unit``; the last line of standard output is one
JSON object for the workload.  The full record, with run metadata, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("canon-f101", "ip1s-ext", "kron-small", "ip2s-pool")
SETUP_SAMPLES = 3
CHILD_SLACK_S = 120
TRACE_TIMEOUT_S = 150


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def _worker(mode, workload, seed, seconds, timeout):
    """Run one worker process to completion; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: %s worker for %s exceeded %d s"
                         % (mode, workload, timeout))
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit("perfbench: %s worker for %s failed (exit %d)"
                         % (mode, workload, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def _git_revision():
    """HEAD of the checkout's .git, read directly; 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(child):
    return {"git_revision": _git_revision(), "python": child["python"],
            "numpy": child["numpy"], "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "platform": platform.platform(),
            "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1"}


def _p90(values):
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    xs = sorted(values)
    rank = math.ceil(0.9 * len(xs))
    return xs[rank - 1], len(xs) - rank


def _latencies(calls, suffix, scale):
    """Rate of correct answers and the op and pair-kind percentiles of
    ``calls``, a list of (pair, status, cost); ``scale`` takes the costs
    to the unit named by ``suffix``, ms or ref_ms."""
    cost = [c * scale for _, _, c in calls]
    ok = sum(1 for _, status, _ in calls if status == "ok")
    p90, beyond = _p90(cost)
    m = {"ops_per_" + suffix.replace("ms", "s"): ok * 1e3 / sum(cost),
         "op_p50_" + suffix: statistics.median(cost),
         "op_p90_" + suffix: p90}
    pairs = {pair for pair, _, _ in calls}
    if {True, False} <= pairs:
        for label, want in (("equiv", True), ("nonequiv", False)):
            m["%s_p50_%s" % (label, suffix)] = statistics.median(
                c for (pair, _, _), c in zip(calls, cost) if pair is want)
    return m, beyond


def _end_to_end(run, setups):
    """Every call of every pass is a sample.  Latencies are reported in
    milliseconds and in reference milliseconds (ref_ms: the call's time
    over the reference loop's, see refloop.py), set-up in wall seconds
    and scaled by the reference loop (setup_s); BENCHMARK.json gates the
    scaled figures, which the host's drifting speed leaves steady.
    ``setups`` holds (scaled, wall) pairs."""
    samples = run["samples"]
    ok_inputs = sum(1 for s in samples if s[-1] == "ok")
    m = {"setup_s": statistics.median(s for s, _ in setups),
         "setup_wall_s": statistics.median(w for _, w in setups),
         "fail_frac": (len(samples) - ok_inputs) / len(samples),
         "ok_frac": ok_inputs / len(samples),
         "peak_rss_mb": run["peak_rss_mb"]}
    wall = [(pair, status, dt)
            for _, pair, times, _, status in samples for dt in times]
    rel = [(pair, status, r)
           for _, pair, _, rels, status in samples for r in rels]
    m.update(_latencies(wall, "ms", 1e3)[0])
    rel_m, beyond = _latencies(rel, "ref_ms", 1.0)
    m.update(rel_m)
    info = {"inputs": len(samples), "calls": len(wall),
            "beyond_p90": beyond, "timed_s": run["timed_s"],
            "setup_samples_s": [s for s, _ in setups]}
    return m, info


def _unit(name, spec_units):
    if name in spec_units:
        return spec_units[name]
    if name.endswith("_ref_ms"):
        return "ref_ms"
    if name.startswith("ops_per_"):
        return "1/" + name[len("ops_per_"):]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s", ".self_s")):
        return "s"
    return "frac" if name.endswith(("_frac", ".hit_rate")) else "count"


def run_workload(workload, seed, seconds, trace, spec):
    """Run one workload; returns the contract result object."""
    if trace:
        child = _worker("trace", workload, seed, seconds, TRACE_TIMEOUT_S)
        metrics, info = child["per_layer"], {
            "untraced_s": child["untraced_s"], "traced_s": child["traced_s"]}
        wanted = spec["per_layer"]
    else:
        def setup():
            return _worker("setup", workload, seed, 0, CHILD_SLACK_S)
        # Set-up is sampled before and after the timed run, so that its
        # median spans the host's speed over the whole run.
        before = [setup() for _ in range(SETUP_SAMPLES // 2)]
        child = _worker("run", workload, seed, seconds,
                        seconds + CHILD_SLACK_S)
        setups = [(c["setup_s"], c["setup_wall_s"]) for c in
                  before + [child] + [setup()
                                      for _ in range(SETUP_SAMPLES // 2)]]
        metrics, info = _end_to_end(child, setups)
        wanted = spec["end_to_end"]
    statuses = [s[-1] for s in child["samples"]]
    failed = sum(1 for s in statuses if s != "ok")
    correct = "wrong" not in statuses and child["warmup"] != "wrong"
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    meta = _metadata(child)
    print("# %s seed=%d trace=%d attempted=%d failed=%d correct=%s %s"
          % (workload, seed, trace, len(statuses), failed, correct,
             " ".join("%s=%s" % kv for kv in info.items()
                      if not isinstance(kv[1], list))))
    print("# meta " + json.dumps(meta, sort_keys=True))
    if info.get("beyond_p90", 10) < 10:
        print("# warning: only %d samples beyond op_p90_ms"
              % info["beyond_p90"])
    for err in child["errors"]:
        print("# error: " + err)
    for name in sorted(metrics):
        print("%s %.6g %s" % (name, metrics[name], _unit(name, units)))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "correct": correct, "attempted": len(statuses),
              "failed": failed, "metadata": meta, "info": info,
              "errors": child["errors"], "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {"correct": correct, "attempted": len(statuses), "failed": failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                    "unit": m["unit"]} for m in wanted}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured op time per run (BENCHMARK.json "
                         "run_seconds by default)")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = ap.parse_args()
    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    results = {}
    for name in names:
        for trace in traces:
            results[(name, trace)] = run_workload(name, args.seed, seconds,
                                                  trace, spec)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (name, k): v
                    for (name, _), r in results.items()
                    for k, v in r["metrics"].items()}}))


if __name__ == "__main__":
    main()

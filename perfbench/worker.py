"""One workload in one fresh process, single-threaded, closed loop.

Started by run.py, never by hand.  Modes:

* ``setup``: import, build the fields, generate the corpus of inputs,
  run one untimed warm-up op, stop; the set-up time is also reported
  scaled by the reference loop of refloop.py;
* ``run``: set up, then make whole passes over the corpus, one op after
  another (the next only when the previous returned, no think time),
  until ``--seconds`` of op time have been measured; the reference loop
  of refloop.py runs between ops;
* ``trace``: set up, then run one pass over the first TRACE_INPUTS of
  the workload's corpus, each op three times: without wrappers, under span wrappers and
  under element-level counters.

Inputs are generated and answers checked outside the timed interval.
The first answer to each input is checked against the planted facts;
every later answer to the same input must equal the first.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import refloop
from refloop import reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Least calls in a timed run, so that at least ten lie beyond its 90th
# percentile.
MIN_CALLS = 110

# Metrics that must be nonzero after a trace of the workload; a zero means
# a wrapper missed a binding site or the workload stopped reaching a layer.
REQUIRED = {
    "canon-f101": ("regular.canonicalize.calls", "regular.primary_split.calls",
                   "kronecker.split_kronecker.calls", "poly.poly_factor.calls",
                   "linalg.mat_mul.calls", "linalg.rref.calls",
                   "field.extension.calls"),
    "ip1s-ext": ("regular.ip1s_solve.calls", "regular.canonicalize.calls",
                 "field.extension.calls", "field.mul.calls",
                 "localring.ring_sqrt.calls", "localring.ring_ops.calls",
                 "pencil.verify.calls", "linalg.ring_inv.calls"),
    "kron-small": ("kronecker.kronecker_decompose.calls",
                   "kronecker.minimal_chain.calls",
                   "kronecker.split_kronecker.calls",
                   "kronecker.normalize_kronecker.calls", "kronecker.blocks",
                   "pencil.apply_congruence.calls",
                   "regular.canonicalize.calls"),
    "ip2s-pool": ("ip2s.ip2s_solve.calls", "ip2s.candidates_tried",
                  "pencil.twist.calls", "pencil.Homography.make.calls",
                  "pencil.verify.calls", "regular.canonicalize.calls"),
}


def _import_program():
    if not os.path.isdir(os.path.join(SRC, "quadpencil")):
        sys.exit("perfbench: no quadpencil sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import quadpencil
    if not os.path.abspath(quadpencil.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: quadpencil imported from outside %s" % SRC)


def call_op(op):
    """(seconds, answer, error) for one call; only the call is timed."""
    fn = getattr(sys.modules["quadpencil." + op.module], op.func)
    t0 = time.perf_counter()
    try:
        out = fn(*op.args)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return time.perf_counter() - t0, None, repr(exc)[:300]
    return time.perf_counter() - t0, out, None


def check_answer(op, out, err, workloads):
    """(status, error) of one answer."""
    if err:
        return "error", err
    try:
        return workloads.check(op, out), None
    except Exception as exc:  # an answer the check cannot read is wrong
        return "wrong", "check raised " + repr(exc)[:280]


def run_op(op, workloads):
    """(seconds, status, error) for one checked op."""
    dt, out, err = call_op(op)
    return (dt,) + check_answer(op, out, err, workloads)


def _closed_loop(ops, seconds, workloads):
    """Whole passes over ``ops`` until ``seconds`` of op time and
    MIN_CALLS calls are measured, so that every input is called equally
    often.  The reference loop runs between calls; a call's relative
    cost is its time over the mean of the reference times just before
    and just after it.  Returns each input's status, call times and
    relative costs."""
    first, samples, errors = [], [], []
    timed, calls = 0.0, 0
    ref_before = reference_seconds()
    while not calls or timed < seconds or calls < MIN_CALLS:
        for i, op in enumerate(ops):
            dt, out, err = call_op(op)
            ref_after = reference_seconds()
            rel = 2.0 * dt / (ref_before + ref_after)
            ref_before = ref_after
            timed += dt
            if not calls:
                status, msg = check_answer(op, out, err, workloads)
                first.append((out, err))
                samples.append([op.kind, op.pair, [dt], [rel], status])
            else:
                samples[i][2].append(dt)
                samples[i][3].append(rel)
                msg = None
                if (out, err) != first[i]:
                    samples[i][4] = "wrong"
                    msg = "answer changed on repetition"
            if msg and len(errors) < 5:
                errors.append("%s #%d: %s" % (op.kind, i, msg))
        calls += len(ops)
    return {"samples": samples, "timed_s": timed, "errors": errors}


def _traced_call(op, install):
    """Op seconds with wrappers on around the call.  The answer is not
    checked: the untraced run of the same op already was."""
    with install():
        fn = getattr(sys.modules["quadpencil." + op.module], op.func)
        t0 = time.perf_counter()
        try:
            fn(*op.args)
        except Exception:  # already counted as failed by the untraced run
            pass
        return time.perf_counter() - t0


def _trace(name, ops, workloads):
    """Each op runs untraced, under spans and under counters; the first
    two alternate in order so that neither gains from running second."""
    from tracer import Recorder
    spans, counts = Recorder(), Recorder()
    plain, span_s = [], 0.0
    for k, op in enumerate(ops):
        if k % 2:
            span_s += _traced_call(op, spans.spans)
        plain.append(run_op(op, workloads))
        if not k % 2:
            span_s += _traced_call(op, spans.spans)
        _traced_call(op, counts.element_counts)
    plain_s = sum(dt for dt, _, _ in plain)
    table = spans.table()
    table.update(counts.counts)
    table["trace.overhead_frac"] = span_s / plain_s - 1.0
    missing = [k for k in REQUIRED[name] if not table.get(k)]
    if missing:
        sys.exit("perfbench: trace of %s recorded no calls for %s"
                 % (name, ", ".join(missing)))
    return {"per_layer": table, "untraced_s": plain_s, "traced_s": span_s,
            "samples": [(op.kind, op.pair, [dt], [], status)
                        for op, (dt, status, _) in zip(ops, plain)],
            "errors": [err for _, _, err in plain if err][:5]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before spawn")
    args = ap.parse_args()
    # The reference loop is timed before the imports and after the
    # warm-up; its own time is left out of the set-up's.
    t_ref = time.monotonic()
    ref_start = refloop.reference_median()
    t_ref = time.monotonic() - t_ref
    _import_program()
    import numpy
    import workloads
    fields = workloads.make_fields(args.workload)
    ops = [workloads.make_op(args.workload, fields, args.seed, i)
           for i in range(workloads.CORPUS[args.workload])]
    warm = workloads.make_op(args.workload, fields, args.seed, -1)
    _, warm_status, warm_err = run_op(warm, workloads)
    setup_wall = time.monotonic() - args.t0 - t_ref
    ref_end = refloop.reference_median()
    out = {"setup_wall_s": setup_wall,
           "setup_s": setup_wall * refloop.NOMINAL_S * 2.0
           / (ref_start + ref_end),
           "warmup": warm_status,
           "numpy": numpy.__version__,
           "python": sys.version.split()[0]}
    if warm_err:
        out["warmup_error"] = warm_err
    if args.mode == "run":
        out.update(_closed_loop(ops, args.seconds, workloads))
    elif args.mode == "trace":
        out.update(_trace(args.workload,
                          ops[:workloads.TRACE_INPUTS[args.workload]],
                          workloads))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

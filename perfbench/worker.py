"""One round of one workload, in a fresh interpreter.

run.py starts this file once per round so that nestalg is imported, and
its canonicalize cache starts, cold every time, as for a command-line
user.  A round builds the workload's inputs from the seed and the round
index, runs every operation once in the timed region and prints one JSON
line: the set-up
time (interpreter start to the first timed operation), the operation
times, a digest of the outcomes, and on request the untimed correctness
checks, the known-defect probes and the traced per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_nestalg():
    sys.path.insert(0, SRC)
    import nestalg

    where = os.path.dirname(os.path.abspath(nestalg.__file__))
    if where != os.path.join(SRC, "nestalg"):
        raise SystemExit(f"nestalg was imported from {where}, not from {SRC}")


def _numpy_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown blas"
    return {"numpy": np.__version__, "blas": blas}


class Calibration:
    """A fixed kernel that does not touch nestalg: a Python loop, small
    numpy products and a pass over 4 MB, the three kinds of work the
    workloads do.  The host's speed swings by tens of percent from minute
    to minute; run.py scales every time by how long this kernel took
    around it, so runs made at different speeds compare.  The cyclic
    garbage collector is off while it runs, so nestalg's heap does not
    change its time."""

    EVERY_NS = 100_000_000  # one repetition after at least this much timed work

    def __init__(self):
        import numpy as np

        self.big = np.ones(1 << 19)
        self.small = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
        self.reps = []

    def rep(self) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter_ns()
        acc, table = 0.0, {}
        for i in range(6000):
            acc = acc * 0.5 + (i % 7)
            table[i & 255] = acc
        m = self.small
        for _ in range(20):
            m = (m @ self.small) * 0.01
        for _ in range(4):
            acc += float((self.big * 1.0001).sum())
        self.reps.append(time.perf_counter_ns() - t0)
        if gc_was_on:
            gc.enable()

    def median_s(self) -> float:
        return statistics.median(self.reps) / 1e9


def _layer_metrics(tracer, outcomes, pool, cache_before):
    import tracing

    per_name, proxy = tracer.self_times()
    m = {}
    for name in tracing.TRACED:
        calls, self_ns = per_name.get(name, (0, 0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_ms"] = self_ns / 1e6
    for key in ("rules.value.calls", "operators.render.cells", "numerics.singular_values.above_lapack",
                "constructions.greedy_subsequence.exhausted"):
        m[key] = tracer.counts[key]
    info = tracer.cache_info()
    if info is None:
        m["operators.canonicalize.hit_ratio"] = None
        m["operators.canonicalize.cache_entries"] = None
    else:
        hits, misses = info.hits - cache_before.hits, info.misses - cache_before.misses
        m["operators.canonicalize.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["operators.canonicalize.cache_entries"] = info.currsize
    for q, _fn in tracing.QUESTIONS:
        statuses = [out["statuses"][q] for op, out in zip(pool, outcomes) if op.kind == "decide" and out]
        m[f"decisions.{q}.decided_frac"] = (
            sum(s != "Unknown" for s in statuses) / len(statuses) if statuses else 0.0
        )
    m["decisions.compact.proxy_fallbacks"] = proxy
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0, help="index of the round; with the seed it fixes the inputs")
    ap.add_argument("--t0", type=int, required=True, help="time.monotonic_ns() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--checks", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced round writes its spans (CSV)")
    args = ap.parse_args(argv)

    _import_nestalg()
    import workloads

    pool = workloads.POOLS[args.workload](args.seed, args.round)
    fingerprint = workloads.fingerprint(pool)
    run_op = workloads.run_op
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        run_op = tracer.wrap(tracing.OP_SPAN, run_op)
        cache_before = tracer.cache_info()
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    cal = Calibration()
    for _ in range(5):
        cal.rep()
    report = {"setup_s": setup_s, "setup_cal_s": cal.median_s(), "fingerprint": fingerprint, "ops": len(pool),
              **_numpy_info()}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    times, outcomes, errors = [], [], {}
    decided = asked = 0
    clock = time.perf_counter_ns
    last_cal = clock()
    marks = []  # calibration repetitions made before each operation
    for i, op in enumerate(pool):
        marks.append(len(cal.reps))
        t0 = clock()
        try:
            out, d, a = run_op(op)
        except Exception as exc:  # an operation that raises is a failed operation
            out, d, a = None, 0, workloads.questions_asked(op)
            errors[i] = f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
        outcomes.append(out)
        decided += d
        asked += a
        if clock() - last_cal >= Calibration.EVERY_NS:
            cal.rep()
            last_cal = clock()
    for _ in range(5):
        cal.rep()
    # each operation's speed reference: the three repetitions before it and
    # the three after, about 0.6 s of the host's time around it
    op_cal = [statistics.median(cal.reps[max(0, m - 3): m + 3]) for m in marks]
    wall_ns = sum(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    for i, (op, out) in enumerate(zip(pool, outcomes)):
        line = errors[i] if out is None else workloads.outcome_digest_line(op, out)
        digest.update(line.encode() + b"\n")

    report.update(
        wall_s=wall_ns / 1e9,
        cal_s=cal.median_s(),
        op_ns=times,
        op_cal_ns=op_cal,
        decided=decided,
        asked=asked,
        rss_mb=rss_mb,
        digest=digest.hexdigest()[:16],
        errors={str(i): e for i, e in errors.items()},
    )
    if args.checks:
        failures = {str(i): ["exception"] for i in errors}
        for i, (op, out) in enumerate(zip(pool, outcomes)):
            if out is None:
                continue
            try:
                bad = workloads.check_op(op, out)
            except Exception:  # a check that cannot run is a failed check
                bad = ["check-raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
            if bad:
                failures[str(i)] = bad
        report["failures"] = failures
        import tracing

        defects = {name: [0, 0] for name in tracing.KNOWN_DEFECTS}  # name -> [showed, probed]
        for op in pool:
            for name, hit in workloads.probe_op(op).items():
                defects[name][0] += hit
                defects[name][1] += 1
        report["known_defects"] = defects
    if tracer is not None:
        report["probe_s"] = tracer.probe_ns / 1e9
        report["layers"] = _layer_metrics(tracer, outcomes, pool, cache_before)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

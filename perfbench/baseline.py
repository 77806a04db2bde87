#!/usr/bin/env python3
"""Time the rows of the roadmap's baseline table, untraced and traced.

Each row is one call into nestalg, repeated; the table gives the median
and quartiles of the untraced calls and the median duration of the same
call's span under the tracer of perfbench/tracing.py.  The second column
is what the per-layer numbers of `run.py --trace 1` are made of, so the
two columns reconcile the traced per-layer numbers with direct timings;
their ratio is that call's tracing overhead.

  python3 perfbench/baseline.py [--reps 5]

Writes perfbench/out/baseline.json.  BLAS is pinned to one thread, as in
run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def import_seconds(reps: int, env):
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import nestalg"]
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        out.append(time.perf_counter() - t0)
    return out


def rows():
    """(label, traced function name, call) for every in-process row."""
    import numpy as np
    from nestalg import constructions, ideals, numerics, operators
    from nestalg.algebra import MultiplicationTask
    from nestalg.nests import make_nest
    from nestalg.operators import diag, identity, make_vector, op_sum, rank_one, wshift
    from nestalg.rules import rule_const, rule_geometric, rule_harmonic

    t = op_sum(
        diag(rule_harmonic()),
        wshift(rule_geometric(0.5), "lower"),
        rank_one(make_vector(rule_geometric(0.5)), make_vector(rule_harmonic())),
    )
    plateau = op_sum(identity(), wshift(rule_const(0.3), "lower"))
    m = np.random.default_rng(0).standard_normal((512, 512))
    n_all = make_nest({"basis": "N", "cuts": "all"})
    task = MultiplicationTask.build(n_all, identity(), identity())
    out = [(f"render diag+shift+rank-one, window {w}", "operators.render",
            lambda w=w: operators.render(t, 1, w)) for w in (256, 1024, 4096)]
    out += [
        ("singular_values(M, 64), M 512x512", "numerics.singular_values",
         lambda: numerics.singular_values(m, 64)),
        ("np.linalg.svd(M, compute_uv=False), M 512x512", None,
         lambda: np.linalg.svd(m, compute_uv=False)),
        ("radical_seminorm(N-all, identity + shift), depth 6", "ideals.radical_seminorm",
         lambda: ideals.radical_seminorm(n_all, plateau, 6)),
        ("greedy_subsequence(identity, identity), count 32", "constructions.greedy_subsequence",
         lambda: constructions.greedy_subsequence(task, eps=1.0, count=32)),
        ("inner_rules(harmonic, geometric 0.5)", "operators.inner_rules",
         lambda: operators.inner_rules(rule_harmonic(), rule_geometric(0.5))),
    ]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "nestalg", "__init__.py")):
        print(f"error: no nestalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    table = [("import nestalg (fresh interpreter)", [s * 1e3 for s in import_seconds(args.reps, dict(os.environ))], None)]
    plan = rows()
    for label, _name, call in plan:
        call()  # fill the canonicalize cache, as the benchmark's rounds do after their first calls
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            call()
            times.append((time.perf_counter() - t0) * 1e3)
        table.append((label, times, None))

    import tracing

    tracer = tracing.Tracer()
    tracer.install()  # the rows look their functions up at call time
    probe = tracer.names.index(tracing.PROBE_SPAN)
    for i, (label, name, call) in enumerate(plan, start=1):
        if name is None:
            continue
        durations = []
        for _ in range(args.reps):
            first = len(tracer.spans)
            call()
            _idx, t0, t1, _parent = tracer.spans[first]  # the row's own call is the first span
            probes = sum(e - s for idx, s, e, parent in tracer.spans[first:] if idx == probe and parent == first)
            durations.append((t1 - t0 - probes) / 1e6)
        table[i] = (label, table[i][1], statistics.median(durations))

    print(f"{'row':52s} {'median ms':>10s} {'q1':>9s} {'q3':>9s} {'traced ms':>10s}")
    record = []
    for label, times, traced_ms in table:
        q1, med, q3 = quartiles(times)
        shown = f"{traced_ms:10.2f}" if traced_ms is not None else f"{'-':>10s}"
        print(f"{label:52s} {med:10.2f} {q1:9.2f} {q3:9.2f} {shown}")
        record.append({"row": label, "median_ms": med, "q1_ms": q1, "q3_ms": q3, "traced_ms": traced_ms,
                       "reps": len(times)})
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "baseline.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of nestalg: decision, witness and ideal paths, end to end and
layer by layer.

Run from the root of the repository (Python 3 with numpy, nothing else):

  python3 perfbench/run.py --workload decide-stock  --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload decide-rich   --seed 1 --seconds 15 --trace 1
  python3 perfbench/run.py --workload witness-ideal --seed 1 --seconds 15 --trace 0

Workloads (inputs are built in perfbench/workloads.py from the seed; the
same seed gives the same inputs and the same input fingerprint):

  decide-stock   the verify suite's grammar on its three nests, plus the ten
                 catalog tasks; one operation is MultiplicationTask.build and
                 the six questions.  The symbolic fast path: canonicalize and
                 its cache, rules, membership, compactness, decisions.
  decide-rich    the roadmap's rich grammar (comb, power, geometric +-0.5,
                 one-sided masked constants, comb + harmonic, negative scaled
                 comb; diagonals, lowering shifts and bands; four nests).  The
                 undecided paths, and the ess_norm_proxy fallback that loads
                 numerics.singular_values.
  witness-ideal  the witness, embed, refute and ideal command paths on three
                 nests: greedy_subsequence + certificate_check at counts 12,
                 32 and 128, linf_embedding, counterexample_refuter +
                 stabilization_analysis, and radical_seminorm, jc_decompose,
                 delta_norm, reconstruction_residual at depth 6.  Few large
                 render windows instead of many small shared ones.

Every round runs a pool of inputs once in a fresh interpreter
(perfbench/worker.py), so the canonicalize cache starts cold as it does
for a command-line user; rounds 0, 1, 2, ... draw fresh inputs of the
same shapes and repeat until --seconds of timed work are done, and at
least 3 rounds.  BLAS is pinned to one thread and at most one process
works at a time.  The untimed checks (zero verdict against
brute_force_zero, zero => compact => weak, weak == weak2 when both are
decided, catalog verdicts, certificate_check, lower <= upper for the
embedding bracket, the refuter residual recomputed, reconstruction
residual <= 1e-12) run on the outputs of rounds 0, 1 and 2, the checked
rounds.  The embed operations scale their drawn factors to norm bound 1,
because linf_embedding's bracket is only defined for contractions.  Known
defects are probed beside the checks and reported, not drawn around: the
checked rounds also run linf_embedding on the unscaled draws (norms up to
1.9), where at the first benchmarked commit its lower bound passes its
upper bound on about 45% of them; the count is printed as KNOWN DEFECT,
written to the result file and reported as the per-layer metric
constructions.linf_embedding.inverted.

End-to-end metrics (--trace 0).  The times are scaled to a reference
host: every round also times a fixed kernel that does not touch nestalg
(worker.Calibration; after each 100 ms of timed work and around the
timed region) and multiplies each operation's time by REF_CAL_S over the
kernel's median time in the six repetitions around that operation.  The
host's speed swings by tens of percent from minute to minute, and this
takes most of that swing out; the unscaled values are in the result file.
  setup_s       interpreter start to the first timed operation (import
                nestalg and input generation), scaled by the kernel's time
                right after it; median of at least 9 starts
  ops_per_s     operations per round / median round time (the sum of its
                operation times, without the kernel's); the median
                keeps a rare slow round of the stock grammar from setting it
  op_ms.p50     median operation time
  op_ms.tail    the highest whole percentile with at least 10 of the
                pool's operations beyond it; every round adds 10 more samples
  decided_frac  share of questions (or operations) with a definite answer,
                not Unknown and not WitnessBudgetExhausted, in the checked
                rounds
  pass_frac     share of the checked rounds' operations that neither raised
                nor failed a check; fail_frac = 1 - pass_frac is printed and
                written to the result file with the failed checks' names
  peak_rss_mb   peak resident set of a round's process at the end of its
                timed region, median over rounds

Per-layer metrics (--trace 1): round 0's inputs are run untraced and then
traced, repeatedly, until --seconds.  The traced round wraps the functions
in perfbench/tracing.py, records a span per call and reports each
function's calls and self time in one round (median over the traced
rounds), with the counters listed there, and trace.overhead = traced /
untraced round time, both scaled; self times are not scaled.  The spans
of the last traced round are written to
perfbench/out/spans-<workload>-s<seed>.csv.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; everything else, with the machine
info, goes to perfbench/out/<workload>-s<seed>-trace<t>.json.  To compare
commits, run the same seeds on both and compare the medians.
perfbench/baseline.py times the rows of the roadmap's baseline table for
reconciliation with the traced per-layer numbers.
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
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("decide-stock", "decide-rich", "witness-ideal")
BLAS_THREADS = "1"
SETUP_SAMPLES = 9
TAIL_BEYOND = 10
# the calibration kernel's median time (worker.Calibration) on the 2-CPU
# Xeon where the benchmark was defined; every time is scaled to it
REF_CAL_S = 0.004
CHECK_ROUNDS = 3  # decided_frac and pass_frac pool these rounds, so they depend on the seed only
DEADLINE_S = 120.0  # no new round after this; a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("decided_frac", "ratio"),
    ("pass_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units():
    import tracing

    units = {}
    for name in tracing.TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(tracing.COUNTERS)
    units["trace.overhead"] = "ratio"
    return units


def machine_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "blas_threads": int(BLAS_THREADS),
    }


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = child_env()

    def round(self, index: int, *flags) -> dict:
        timeout = self.deadline + 35.0 - time.monotonic()
        t0 = time.monotonic_ns()
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--round", str(index), "--t0", str(t0), *flags]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"round failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline


def percentile(values, p):
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    f = math.floor(k)
    c = min(f + 1, len(xs) - 1)
    return xs[f] + (xs[c] - xs[f]) * (k - f)


def tail_percentile(pool_size: int) -> int:
    return max(0, math.floor(100.0 * (1.0 - TAIL_BEYOND / pool_size)))


def measure(runner: Runner, seconds: float, traced: bool):
    """Rounds 0, 1, ... until `seconds` of timed work and at least
    CHECK_ROUNDS rounds; the first CHECK_ROUNDS are checked.  With `traced`,
    every round runs round 0's inputs, only the first is checked, and each
    is followed by a traced twin on the same inputs, so the per-layer counts
    repeat exactly."""
    plain, tr = [], []
    checked = 1 if traced else CHECK_ROUNDS
    while True:
        k = 0 if traced else len(plain)
        plain.append(runner.round(k, *(["--checks"] if len(plain) < checked else [])))
        done = sum(r["wall_s"] for r in plain)
        if traced:
            spans = os.path.join(OUT, f"spans-{runner.workload}-s{runner.seed}.csv")
            tr.append(runner.round(k, "--trace", "--spans", spans))
            done += sum(r["wall_s"] for r in tr)
        if (done >= seconds and len(plain) >= checked) or runner.out_of_time():
            return plain, tr


def speed(r) -> float:
    """The factor that scales round r's times to a host that runs the
    calibration kernel in REF_CAL_S."""
    return REF_CAL_S / r["cal_s"]


def scaled_ms(r):
    """Round r's operation times in ms, each scaled by the kernel's time
    around that operation."""
    return [t / 1e6 * REF_CAL_S * 1e9 / c for t, c in zip(r["op_ns"], r["op_cal_ns"])]


def summarize(plain, tr, setups):
    """End-to-end metrics, details and the result counts.  decided_frac and
    pass_frac come from the checked rounds, so they depend on the seed
    only; the times pool every untraced round."""
    first = plain[0]
    pool = first["ops"]
    rounds = plain + tr
    checked = [r for r in plain if "failures" in r]
    failures = {f"round {k} op {i}": names for k, r in enumerate(checked) for i, names in r["failures"].items()}
    checked_ops = pool * len(checked)
    # a traced round must reach the same outcomes as its untraced twin
    deterministic = all(p["digest"] == t["digest"] for p, t in zip(plain, tr))
    errors = sum(len(r["errors"]) for r in rounds if "failures" not in r)
    op_ms = [t for r in plain for t in scaled_ms(r)]
    p_tail = tail_percentile(pool)
    raw_ms = [t / 1e6 for r in plain for t in r["op_ns"]]
    raw = {
        "setup_s": statistics.median(s for s, _cal in setups),
        "ops_per_s": pool / statistics.median(r["wall_s"] for r in plain),
        "op_ms.p50": statistics.median(raw_ms),
        "op_ms.tail": percentile(raw_ms, p_tail),
    }
    e2e = {
        "setup_s": statistics.median(s * REF_CAL_S / cal for s, cal in setups),
        "ops_per_s": pool / statistics.median(sum(scaled_ms(r)) / 1e3 for r in plain),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.tail": percentile(op_ms, p_tail),
        "decided_frac": sum(r["decided"] for r in checked) / sum(r["asked"] for r in checked),
        "pass_frac": 1.0 - len(failures) / checked_ops,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    details = {
        "fingerprint": first["fingerprint"],
        "pool_ops": pool,
        "rounds": len(plain),
        "traced_rounds": len(tr),
        "samples": len(op_ms),
        "tail_percentile": p_tail,
        "checked_rounds": len(checked),
        "fail_frac": len(failures) / checked_ops,
        "failures": failures,
        "errors": {f"round {k} op {i}": e for k, r in enumerate(checked) for i, e in r["errors"].items()},
        "errors_in_unchecked_rounds": errors,
        "known_defects": known_defects(checked),
        "deterministic": deterministic,
        "round_fingerprints": [r["fingerprint"] for r in plain],
        "setup_samples": setups,
        "round_wall_s": [r["wall_s"] for r in plain],
        "round_cal_s": [r["cal_s"] for r in plain],
        "unscaled": raw,
        "numpy": first["numpy"],
        "blas": first["blas"],
    }
    result = {
        "correct": deterministic and not failures and not errors,
        "attempted": pool * len(rounds),
        "failed": len(failures) + errors,
    }
    return e2e, details, result


def known_defects(checked):
    """Known defects probed in the checked rounds: name -> [showed, probed]."""
    total = {}
    for r in checked:
        for name, (hit, probed) in r["known_defects"].items():
            t = total.setdefault(name, [0, 0])
            t[0] += hit
            t[1] += probed
    return total


def layer_metrics(plain, tr):
    layers = {}
    for key in tr[0]["layers"]:
        vals = [r["layers"][key] for r in tr]
        layers[key] = None if None in vals else statistics.median(vals)
    ratios = [(t["wall_s"] - t["probe_s"]) * speed(t) / (p["wall_s"] * speed(p)) for p, t in zip(plain, tr)]
    layers["trace.overhead"] = statistics.median(ratios)
    # the traced rounds rerun round 0, whose probes the first round made
    for name, (hit, _probed) in plain[0]["known_defects"].items():
        layers[name] = hit
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed work per run, summed over rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nestalg", "__init__.py")):
        print(f"error: no nestalg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        plain, tr = measure(runner, args.seconds, bool(args.trace))
        setups = [(r["setup_s"], r["setup_cal_s"]) for r in plain + tr]
        while len(setups) < SETUP_SAMPLES:
            r = runner.round(0, "--setup-only")
            setups.append((r["setup_s"], r["setup_cal_s"]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e, details, result = summarize(plain, tr, setups)
    units = dict(END_TO_END)
    shown = e2e
    if args.trace:
        units = per_layer_units()
        shown = layer_metrics(plain, tr)
        details["end_to_end"] = e2e
    # a per-layer value that cannot be measured (no cache_info) reads 0
    metrics = {k: {"value": 0.0 if shown[k] is None else shown[k], "unit": units[k]} for k in units}
    info = machine_info()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": info, "details": details, "metrics": shown, "result": result}
    path = os.path.join(OUT, f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {info['nproc']} cpus, {info['cpu']}, python {info['python']}, numpy {details['numpy']}, "
          f"{details['blas']}, blas threads {info['blas_threads']}")
    print(f"{args.workload} seed {args.seed}: input fingerprint {details['fingerprint']}, {details['pool_ops']} "
          f"operations x {details['rounds']} rounds, tail = p{details['tail_percentile']} of "
          f"{details['samples']} samples, fail_frac {details['fail_frac']:.6g}")
    for k, m in metrics.items():
        print(f"  {k:52s} {m['value']:>14.6g} {m['unit']}")
    for where, names in details["failures"].items():
        print(f"  FAILED {where}: {', '.join(names)}")
    for name, (hit, probed) in details["known_defects"].items():
        if hit:
            print(f"  KNOWN DEFECT {name}: on {hit} of {probed} probes (outside the timed operations)")
    if details["errors_in_unchecked_rounds"]:
        print(f"  FAILED: {details['errors_in_unchecked_rounds']} operations raised in unchecked rounds")
    if not details["deterministic"]:
        print("  FAILED: a traced round's outcomes differ from its untraced twin")
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""One digest of every outcome of the benchmark pools.

Builds the operations of perfbench's pools (perfbench/workloads.py,
imported unchanged) for the given seeds and rounds and prints the
operation count and a SHA-256 over their outcomes.  A decide operation
asks the six questions and enters the digest with each question's
status, reason and repr of its detail, and with the render bytes of both
canonical operands on a fixed window; any other operation (witness,
embed, refute, ideal) enters it with the repr of the outcome that
workloads.run_op returns.  Two versions of the program that print the
same digest give the same verdicts, outcomes and canonical operands; an
operation that raises enters the digest as its exception.  After each
pool's digest line comes that pool's count of each (question or kind,
status) pair, so a change whose details move while its statuses stay put
shows as a new digest over the same counts.

Run from the root of the repository:

  PYTHONPATH=src python3 scripts/verdict_digest.py --workload decide-stock decide-rich --seeds 1 2 3 --rounds 0 1
  PYTHONPATH=src python3 scripts/verdict_digest.py --workload witness-ideal --seeds 1 2 3 --rounds 0 1
"""

import argparse
import hashlib
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from tracing import QUESTIONS  # noqa: E402

from nestalg import algebra, decisions  # noqa: E402
from nestalg.nests import make_nest  # noqa: E402
from nestalg.operators import render  # noqa: E402

WINDOWS = {"N": (1, 48), "Z": (-24, 24)}  # operand render windows, by basis


def op_lines(op, counts: Counter):
    """The digest lines of one operation; counts each (question or kind, status)."""
    if op.kind != "decide":
        try:
            out = workloads.run_op(op)[0]
        except Exception as exc:
            counts[op.kind, type(exc).__name__] += 1
            return [f"{op.kind}: {type(exc).__name__}: {exc}".encode()]
        counts[op.kind, str(out["status"])] += 1
        return [f"{op.kind}|{out!r}".encode()]
    nest = make_nest(op.nest)
    try:
        task = algebra.MultiplicationTask.build(nest, op.inputs["a"], op.inputs["b"])
    except Exception as exc:  # a refused task is part of the behaviour
        counts["build", type(exc).__name__] += 1
        return [f"build: {type(exc).__name__}: {exc}".encode()]
    lo, hi = WINDOWS[nest.basis]
    lines = [render(task.a, lo, hi).tobytes(), render(task.b, lo, hi).tobytes()]
    for q, fn in QUESTIONS:
        try:
            v = getattr(decisions, fn)(task)
            lines.append(f"{q}|{v.status}|{v.reason}|{v.detail!r}".encode())
            counts[q, v.status] += 1
        except Exception as exc:
            lines.append(f"{q}: {type(exc).__name__}: {exc}".encode())
            counts[q, type(exc).__name__] += 1
    return lines


def digest(workload: str, seed: int, rnd: int, limit=None):
    """(operation count, hex SHA-256, (question or kind, status) counts) of
    the operations of one pool."""
    ops = workloads.POOLS[workload](seed, rnd)[:limit]
    h, counts = hashlib.sha256(), Counter()
    for op in ops:
        for line in op_lines(op, counts):
            h.update(len(line).to_bytes(8, "little") + line)
    return len(ops), h.hexdigest(), counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", default=["decide-stock", "decide-rich"],
                    choices=sorted(workloads.POOLS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--rounds", nargs="+", type=int, default=[0])
    ap.add_argument("--limit", type=int, default=None, help="only the first LIMIT operations of each pool")
    args = ap.parse_args(argv)
    total, overall = 0, hashlib.sha256()
    for workload in args.workload:
        for seed in args.seeds:
            for rnd in args.rounds:
                n, hexd, counts = digest(workload, seed, rnd, args.limit)
                total += n
                overall.update(hexd.encode())
                print(f"{workload} seed={seed} round={rnd} ops={n} sha256={hexd}")
                print("  " + " ".join(f"{q}:{status}={c}" for (q, status), c in sorted(counts.items())))
    print(f"total ops={total} sha256={overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: decide, ideal, witness, refute, embed, verify.  Each takes
--config FILE (JSON), --out FILE, --seed INT; verify adds
--inject-fault.  Reports are JSON; when --out is given a CSV mirror of
the row-shaped part is written next to it.  Exit codes: 0 when every
requested question was decided (or every check passed), 3 when
something stayed open or failed, 1 on bad input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .errors import NestAlgError, WitnessBudgetExhausted
from .nests import make_nest
from .operators import parse_operator
from .algebra import MultiplicationTask
from .constructions import (
    SubseqCertificate,
    certificate_check,
    counterexample_refuter,
    greedy_subsequence,
    linf_embedding,
    stabilization_analysis,
)
from .ideals import (
    FiniteSubnest,
    compact_members_ideal_report,
    delta_norm,
    jc_decompose,
    radical_seminorm,
    reconstruction_residual,
)
from .scenarios import Scenario, run_scenario, verify_suite


def _load_config(path):
    if path is None:
        raise NestAlgError("this subcommand needs --config FILE")
    with open(path) as fh:
        return json.load(fh)


def _task_from(cfg) -> MultiplicationTask:
    return MultiplicationTask.build(
        make_nest(cfg["nest"]), parse_operator(cfg["a"]), parse_operator(cfg["b"])
    )


def cmd_decide(cfg, seed: int):
    report = run_scenario(Scenario.from_json({"name": "decide", **cfg}), seed=seed)
    if report["status"] != "ok":
        return report, 1, []
    open_q = [q for q, v in report["verdicts"].items() if v["status"] == "Unknown"]
    code = 0 if not open_q and report["all_consistent"] else 3
    report["open_questions"] = open_q
    rows = [
        {"question": q, "status": v["status"], "reason": v["reason"]}
        for q, v in report["verdicts"].items()
    ]
    return report, code, rows


def cmd_ideal(cfg, seed: int):
    nest = make_nest(cfg["nest"])
    op = parse_operator(cfg["operator"])
    depth = int(cfg.get("depth", 6))
    est = radical_seminorm(nest, op, depth)
    dec = jc_decompose(nest, op, depth)
    report = {
        "nest": nest.to_json(),
        "radical_seminorm": est.to_json(),
        "decomposition": dec.to_json(),
        "compact_members_ideal": compact_members_ideal_report(nest),
    }
    rows = [
        {"step": s["k"], "cuts": s["cuts"],
         "delta_norm_hi": s["delta_norm_hi"], "delta_norm_lo": s["delta_norm_lo"]}
        for s in est.chain
    ]
    if "subnest" in cfg:
        f = FiniteSubnest.build(nest, cfg["subnest"])
        iv = delta_norm(op, f)
        report["subnest"] = {
            "cuts": f.to_json(),
            "expectation_norm": {"lo": iv.lo, "hi": iv.hi},
            "reconstruction_residual": reconstruction_residual(op, f, nest.window(32)),
        }
    code = 0 if dec.status != "Unknown" else 3
    return report, code, rows


def cmd_witness(cfg, seed: int):
    task = _task_from(cfg)
    eps = float(cfg.get("eps", 1.0))
    count = int(cfg.get("count", 12))
    window = tuple(cfg["window"]) if "window" in cfg else None
    try:
        cert = greedy_subsequence(task, eps=eps, count=count, window=window)
    except WitnessBudgetExhausted as exc:
        return {"status": "exhausted", "reason": str(exc)}, 3, []
    ok, rows = certificate_check(task, cert)
    report = {
        "status": "ok" if ok else "recheck-failed",
        "certificate": cert.to_json(),
        "recheck": rows,
        "value_floor": cert.floor(),
        "min_value": min(cert.values),
    }
    return report, (0 if ok else 3), rows


def cmd_refute(cfg, seed: int):
    pairs = [(parse_operator(p["c"]), parse_operator(p["d"])) for p in cfg["pairs"]]
    b = parse_operator(cfg["b"]) if "b" in cfg else None
    try:
        w = counterexample_refuter(pairs, b=b, r_max=int(cfg.get("r_max", 512)))
    except WitnessBudgetExhausted as exc:
        return {"status": "exhausted", "reason": str(exc)}, 3, []
    report = {
        "status": "refuted",
        "witness": w.to_json(),
        "stabilization": stabilization_analysis(pairs, scan=int(cfg.get("scan", 48))),
    }
    return report, 0, [w.to_json()]


def cmd_embed(cfg, seed: int):
    task = _task_from(cfg)
    x = [float(v) for v in cfg["x"]]
    eps = float(cfg.get("eps", 1.0))
    block = int(cfg.get("block_size", 8))
    count = int(cfg.get("count", block * len(x)))
    window = tuple(cfg["window"]) if "window" in cfg else None
    try:
        cert = greedy_subsequence(task, eps=eps, count=count, window=window)
    except WitnessBudgetExhausted as exc:
        return {"status": "exhausted", "reason": str(exc)}, 3, []
    emb = linf_embedding(task, x, cert, block_size=block)
    report = {"status": "ok", "x": x, "bounds": emb, "certificate_size": cert.size}
    rows = [
        {"block": n, "interference": emb["interference"][n],
         "is_lead": n == emb["lead_block"]}
        for n in range(len(x))
    ]
    return report, 0, rows


def cmd_verify(cfg, seed: int, inject_fault: bool = False):
    tasks = int(cfg.get("tasks", 40)) if cfg else 40
    report = verify_suite(seed=seed, tasks=tasks, inject_fault=inject_fault)
    rows = [
        {"check": r["check"], "pass": r["pass"], "detail": json.dumps(r["detail"])}
        for r in report["rows"]
    ]
    return report, (0 if report["all_pass"] else 3), rows


def _write_outputs(report, rows, out_path):
    if out_path is None:
        json.dump(report, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
    if rows:
        csv_path = out_path[:-5] + ".csv" if out_path.endswith(".json") else out_path + ".csv"
        headers = sorted({k for r in rows for k in r})
        with open(csv_path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=headers)
            w.writeheader()
            for r in rows:
                w.writerow(r)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="nestalg",
                                 description="decision procedures for two-sided "
                                             "multiplication on nest algebras")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("decide", "ideal", "witness", "refute", "embed", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        if name == "verify":
            p.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)

    try:
        if args.command == "verify":
            cfg = _load_config(args.config) if args.config else {}
            report, code, rows = cmd_verify(cfg, args.seed, args.inject_fault)
        else:
            cfg = _load_config(args.config)
            fn = {
                "decide": cmd_decide,
                "ideal": cmd_ideal,
                "witness": cmd_witness,
                "refute": cmd_refute,
                "embed": cmd_embed,
            }[args.command]
            report, code, rows = fn(cfg, args.seed)
    except (NestAlgError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _write_outputs(report, rows, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())

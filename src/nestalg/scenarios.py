"""Scenario running and the self-check suite.

random_member draws operators that are members by construction (band
offsets at or above the diagonal, admissible rank ones, upper blocks)
and re-verifies them through the symbolic membership test, so seeded
sweeps never leave the algebra.  brute_force_zero is the slow oracle
for the zero question: it renders both factors and looks for an
admissible rank-one input connecting a nonzero column of the left
factor to a nonzero row of the right one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import NestAlgError
from .nests import Nest, make_nest
from .numerics import power_norm
from .rules import (
    rule_const,
    rule_finite,
    rule_geometric,
    rule_harmonic,
    rule_indicator,
    rule_scale,
)
from .operators import (
    basis_vector,
    diag,
    finite_matrix,
    interval_proj,
    make_vector,
    op_scale,
    op_sum,
    parse_operator,
    rank_one,
    render,
    wshift,
)
from .algebra import MultiplicationTask, alg_membership
from .decisions import (
    mult_zero_test,
    mult_compact_decision,
    mult_weak_decision,
    mult_weak_decision_2proj,
    quasitriangular_decision,
    quotient_verdict,
    range_in_compacts_sampler,
)
from .constructions import (
    certificate_check,
    counterexample_refuter,
    greedy_subsequence,
    linf_embedding,
    representation_residual,
)
from .ideals import FiniteSubnest, radical_seminorm, reconstruction_residual
from .operators import identity

SWEEP_NESTS = (
    {"basis": "N", "cuts": "all"},
    {"basis": "Z", "cuts": "all"},
    {"basis": "N", "cuts": [3, 7]},
)
GRAMMAR_HALF = 20  # the member grammar draws indices from nest.window(GRAMMAR_HALF)
MEMBER_ATTEMPTS = 8  # draws random_member makes before it gives up
ZERO_BIAS = 0.3  # share of random_member_pair draws built to annihilate


def _random_rule(nest: Nest, rng):
    lo, hi = nest.window(GRAMMAR_HALF)
    k = int(rng.integers(0, 6))
    if k == 0:
        return rule_const(round(float(rng.uniform(0.2, 1.2)), 3))
    if k == 1:
        return rule_harmonic()
    if k == 2:
        return rule_geometric(round(float(rng.uniform(0.3, 0.8)), 3))
    if k == 3:
        a = int(rng.integers(lo, hi - 2))
        return rule_indicator(a, a + int(rng.integers(1, 8)))
    if k == 4:
        n = int(rng.integers(1, 4))
        js = rng.choice(np.arange(lo, hi), size=n, replace=False)
        return rule_finite({int(j): round(float(rng.uniform(-1.0, 1.0)), 3) or 0.5 for j in js})
    return rule_scale(rule_harmonic(), round(float(rng.uniform(0.5, 2.0)), 3))


def _admissible_col(nest: Nest, row: int, rng) -> int:
    """A column that may carry mass in row `row` for a member."""
    t = nest.pred(nest.smallest_cut_geq(row)).value
    base = int(t) + 1 if math.isfinite(t) else row - 3
    return max(base, row) + int(rng.integers(0, 5)) if base <= row else base + int(rng.integers(0, 5))


def _random_leaf(nest: Nest, rng):
    lo, hi = nest.window(GRAMMAR_HALF)
    k = int(rng.integers(0, 6))
    if k == 0:
        return diag(_random_rule(nest, rng))
    if k == 1:
        return wshift(_random_rule(nest, rng), "lower")
    if k == 2:
        a = int(rng.integers(lo, hi - 2))
        return interval_proj(a, a + int(rng.integers(1, 10)))
    if k == 3:
        r = int(rng.integers(lo, hi))
        c = _admissible_col(nest, r, rng)
        return rank_one(basis_vector(c), basis_vector(r))
    if k == 4:
        s = int(rng.integers(lo, hi - 4))
        n = int(rng.integers(2, 4))
        rows = [[round(float(rng.uniform(-1.0, 1.0)), 3) if j >= i else 0.0 for j in range(n)] for i in range(n)]
        return finite_matrix(s, s, rows)
    return op_scale(round(float(rng.uniform(0.25, 1.5)), 3), diag(_random_rule(nest, rng)))


def random_member(nest, rng, max_leaves: int = 3):
    """A seeded draw from the member grammar, certified by the membership test."""
    nest = make_nest(nest)
    for _ in range(MEMBER_ATTEMPTS):
        n = int(rng.integers(1, max_leaves + 1))
        t = op_sum(*(_random_leaf(nest, rng) for _ in range(n)))
        if alg_membership(nest, t).is_member:
            return t
    raise NestAlgError("member grammar failed to produce a certified member")


def random_member_pair(nest, rng):
    """Two members; with probability ZERO_BIAS, a pair built to annihilate."""
    nest = make_nest(nest)
    if float(rng.random()) < ZERO_BIAS:
        lo, hi = nest.window(GRAMMAR_HALF)
        m = int(rng.integers(lo + 2, hi - 6))
        gap = int(rng.integers(-2, 5))
        # columns of a start above m + gap, rows of b end at m
        a = rank_one(basis_vector(m + gap + 1 + int(rng.integers(0, 3))), basis_vector(m + gap + 1))
        b = rank_one(basis_vector(_admissible_col(nest, m, rng)), basis_vector(m))
        if alg_membership(nest, a).is_member and alg_membership(nest, b).is_member:
            return a, b
    return random_member(nest, rng), random_member(nest, rng)


# ---------------------------------------------------------------------------
# brute-force zero oracle


def brute_force_zero(task: MultiplicationTask, half: int = 32, res: float = 0.0) -> bool:
    """True when every admissible rank-one input is annihilated on a window."""
    nest = task.nest
    lo, hi = nest.window(half)
    ma = render(task.a, lo, hi)
    mb = render(task.b, lo, hi)
    col_a = np.abs(ma).max(axis=0)  # column r of a carries mass
    row_b = np.abs(mb).max(axis=1)  # row c of b carries mass
    n = len(col_a)
    suffix = np.zeros(n + 1)
    for c in range(n - 1, -1, -1):
        suffix[c] = max(suffix[c + 1], row_b[c])
    for r in range(n):
        if col_a[r] <= res:
            continue
        t = nest.pred(nest.smallest_cut_geq(lo + r)).value
        c0 = int(t) + 1 if math.isfinite(t) else lo
        c0 = max(c0, lo) - lo
        if c0 < n and suffix[c0] > res:
            return False
    return True


# ---------------------------------------------------------------------------
# scenarios


QUESTIONS = {
    "zero": mult_zero_test,
    "compact": mult_compact_decision,
    "weak": mult_weak_decision,
    "weak2": mult_weak_decision_2proj,
    "quasitriangular": quasitriangular_decision,
    "quotient": quotient_verdict,
}

DEFAULT_QUESTIONS = ("zero", "compact", "weak", "weak2", "quasitriangular", "quotient")


@dataclass(frozen=True)
class Scenario:
    name: str
    nest: dict
    a: dict
    b: dict
    questions: tuple = DEFAULT_QUESTIONS

    @staticmethod
    def from_json(doc) -> "Scenario":
        return Scenario(
            name=doc.get("name", "scenario"),
            nest=doc["nest"],
            a=doc["a"],
            b=doc["b"],
            questions=tuple(doc.get("questions", DEFAULT_QUESTIONS)),
        )


def _consistency(verdicts: dict) -> dict:
    """Cross-question implications; every False marks a real defect."""
    ok = {}
    z = verdicts.get("zero")
    c = verdicts.get("compact")
    w = verdicts.get("weak")
    w2 = verdicts.get("weak2")
    if z and c and z.status == "Zero":
        ok["zero-implies-compact"] = c.status == "Compact"
    if c and w and c.status == "Compact" and w.status != "Unknown":
        ok["compact-implies-weak"] = w.status == "WeaklyCompact"
    if w and w2 and "Unknown" not in (w.status, w2.status):
        ok["weak-routes-agree"] = w.status == w2.status
    return ok


def run_scenario(sc: Scenario, seed: int = 0) -> dict:
    try:
        task = MultiplicationTask.build(
            make_nest(sc.nest), parse_operator(sc.a), parse_operator(sc.b)
        )
    except NestAlgError as exc:
        return {"name": sc.name, "status": "error", "error": str(exc)}
    verdicts = {}
    for q in sc.questions:
        if q == "sampler":
            verdicts[q] = None
            continue
        verdicts[q] = QUESTIONS[q](task)
    report = {
        "name": sc.name,
        "status": "ok",
        "nest": task.nest.to_json(),
        "verdicts": {q: v.to_json() for q, v in verdicts.items() if v is not None},
        "consistency": _consistency(verdicts),
    }
    if "sampler" in sc.questions:
        report["sampler"] = range_in_compacts_sampler(task, seed=seed)
    report["all_consistent"] = all(report["consistency"].values())
    return report


# ---------------------------------------------------------------------------
# the self-check suite


def _row(name, passed, detail):
    return {"check": name, "pass": bool(passed), "detail": detail}


def _norm_lower_bound_row(tasks) -> dict:
    """power_norm on both rendered factors of each task against LAPACK.

    A lower bound must stay below sigma_1 up to LAPACK's rounding
    allowance, and must reach the largest column norm, itself a lower
    bound, up to 1e-5: this grammar renders unit plateaus with geometric
    tails, whose top singular values can crowd within 1e-6 of each other.
    """
    eps = np.finfo(float).eps
    blocks = 0
    worst_gap = 0.0
    violations = []
    for task in tasks:
        lo, hi = task.nest.window(32)
        for side, op in (("a", task.a), ("b", task.b)):
            m = render(op, lo, hi)
            est = power_norm(m)
            sigma = float(np.linalg.svd(m, compute_uv=False)[0])
            floor = float(np.linalg.norm(m, axis=0).max())
            blocks += 1
            if sigma > 0.0:
                worst_gap = max(worst_gap, (sigma - est) / sigma)
            if not floor * (1.0 - 1e-5) <= est <= sigma * (1.0 + max(m.shape) * eps):
                violations.append({"nest": task.nest.to_json(), "side": side,
                                   "power_norm": est, "column_norm": floor, "lapack": sigma})
    return _row("norm-lower-bound", not violations,
                {"blocks": blocks, "worst_gap": worst_gap, "violations": violations[:4]})


def _decidability_row(tasks) -> dict:
    """The decided fraction of each question on the tasks, and each question's
    Unknown results counted by reason, the text before its first colon
    (which leaves out the indices and cuts after it).  Informational: the
    row passes whenever every question ran."""
    decided, unknown, errors = Counter(), {q: Counter() for q in DEFAULT_QUESTIONS}, []
    for task in tasks:
        for q in DEFAULT_QUESTIONS:
            try:
                v = QUESTIONS[q](task)
            except NestAlgError as exc:
                errors.append({"nest": task.nest.to_json(), "question": q, "error": f"{type(exc).__name__}: {exc}"})
                continue
            if v.status == "Unknown":
                unknown[q][v.reason.split(":")[0]] += 1
            else:
                decided[q] += 1
    return _row("decidability", not errors, {
        "tasks": len(tasks),
        "decided_frac": {q: decided[q] / len(tasks) for q in DEFAULT_QUESTIONS},
        "unknown_by_reason": {q: dict(c) for q, c in unknown.items() if c},
        "errors": errors[:4],
    })


def verify_suite(seed: int = 0, tasks: int = 40, inject_fault: bool = False) -> dict:
    """End-to-end consistency suite; one row per named check.

    With inject_fault=True a forged pairing table is fed to the
    certificate checker, which must fail exactly that row and nothing
    else.  The forgery never touches the other checks.
    """
    rng = np.random.default_rng(seed)
    rows = []

    # zero test against the rendered oracle
    mismatches = []
    undecided = 0
    per_nest = max(tasks // len(SWEEP_NESTS), 1)
    seeded = []
    for spec in SWEEP_NESTS:
        nest = make_nest(spec)
        for _ in range(per_nest):
            a, b = random_member_pair(nest, rng)
            task = MultiplicationTask.build(nest, a, b, require_membership=False)
            seeded.append(task)
            v = mult_zero_test(task)
            if v.status == "Unknown":
                undecided += 1
                continue
            brute_zero = brute_force_zero(task)
            if (v.status == "Zero") != brute_zero:
                mismatches.append({"nest": spec, "verdict": v.status, "brute_zero": brute_zero})
    rows.append(_row("zero-vs-bruteforce", not mismatches,
                     {"tasks": per_nest * len(SWEEP_NESTS), "undecided": undecided,
                      "mismatches": mismatches[:4]}))

    # the two weak routes on a fresh batch
    disagreements = []
    open_pairs = 0
    for spec in SWEEP_NESTS:
        nest = make_nest(spec)
        for _ in range(per_nest):
            a, b = random_member_pair(nest, rng)
            task = MultiplicationTask.build(nest, a, b, require_membership=False)
            w1 = mult_weak_decision(task)
            w2 = mult_weak_decision_2proj(task)
            if "Unknown" in (w1.status, w2.status):
                open_pairs += 1
            elif w1.status != w2.status:
                disagreements.append({"nest": spec, "boundary": w1.status, "two_cut": w2.status})
    rows.append(_row("weak-route-agreement", not disagreements,
                     {"tasks": per_nest * len(SWEEP_NESTS), "open": open_pairs,
                      "disagreements": disagreements[:4]}))

    # certificate recheck, optionally against a forgery
    nest = make_nest({"basis": "N", "cuts": "all"})
    task = MultiplicationTask.build(nest, identity(), identity())
    cert = greedy_subsequence(task, eps=1.0, count=12)
    if inject_fault:
        forged_lam = tuple(
            tuple(v * 0.5 if (p, q) == (0, 0) else v for q, v in enumerate(r))
            for p, r in enumerate(cert.lam)
        )
        cert = type(cert)(
            eps=cert.eps, window=cert.window, col_indices=cert.col_indices,
            row_indices=cert.row_indices, lam=forged_lam, mu=cert.mu, values=cert.values,
        )
    ok, cert_rows = certificate_check(task, cert)
    rows.append(_row("certificate-recheck", ok,
                     {"forged": inject_fault,
                      "failed": [r["check"] for r in cert_rows if not r["pass"]]}))

    # block-diagonal reconstruction of members
    worst = 0.0
    for _ in range(6):
        a = random_member(nest, rng)
        interior = sorted(int(v) for v in rng.choice(np.arange(1, 30), size=4, replace=False))
        f = FiniteSubnest.build(nest, interior)
        worst = max(worst, reconstruction_residual(a, f, (1, 48)))
    rows.append(_row("member-reconstruction", worst <= 1e-12, {"worst_residual": worst}))

    # refuter self-consistency
    pairs = [(diag(rule_geometric(0.5)), identity()),
             (interval_proj(0, 8), diag(rule_harmonic()))]
    w = counterexample_refuter(pairs)
    w2 = representation_residual(pairs, diag(rule_harmonic()), w.r, w.s)
    rows.append(_row("refuter-recompute",
                     abs(w.residual - w2.residual) <= 1e-10 and w.residual >= w.threshold,
                     {"r": w.r, "s": w.s, "residual": w.residual}))

    # embedding bounds stay ordered
    cert_e = greedy_subsequence(task, eps=1.0, count=32)
    x = [float(v) for v in rng.uniform(-1.0, 1.0, size=4)]
    x[int(rng.integers(0, 4))] = 1.0
    emb = linf_embedding(task, x, cert_e, block_size=8)
    rows.append(_row("embedding-bounds", emb["lower"] <= emb["upper"] + 1e-12,
                     {"lower": emb["lower"], "upper": emb["upper"]}))

    # radical markers
    r1 = radical_seminorm(nest, rank_one(basis_vector(2), basis_vector(1)))
    ri = radical_seminorm(nest, identity())
    rows.append(_row("radical-markers",
                     r1.hi == 0.0 and abs(ri.lo - 1.0) <= 1e-12 and abs(ri.hi - 1.0) <= 1e-12,
                     {"rank_one": r1.to_json()["hi"], "identity": [ri.lo, ri.hi]}))

    rows.append(_norm_lower_bound_row(seeded))
    rows.append(_decidability_row(seeded))

    return {
        "seed": seed,
        "fault_injected": inject_fault,
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
    }

"""Seeded inputs, operations and correctness checks of the three workloads.

Every input is built here from nestalg's public constructors; the program
only ever sees the built operator objects.  A round's pool is drawn from
two streams: the *shape* of each input (which rule, which operator, how
many leaves, which nest; in the rich grammar also comb periods and mask
cuts) from a fixed plan stream, and the *values* (constants, scales,
indices, matrices) from the stream of (seed, round).  So every round of
every seed runs the same mix of cost classes -- the slow fallbacks of the
rich grammar included -- while the inputs differ from round to round and
from seed to seed.

Functions of nestalg are looked up through their modules at call time,
so the tracer's wrappers (see tracing.py) see every call made from here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from nestalg import algebra, constructions, decisions, ideals, scenarios
from nestalg.catalog import TASK_SPECIMENS
from nestalg.errors import WitnessBudgetExhausted
from nestalg.nests import make_nest
from nestalg.operators import (
    band,
    basis_vector,
    diag,
    finite_matrix,
    identity,
    interval_proj,
    norm_bound,
    op_scale,
    op_sum,
    parse_operator,
    rank_one,
    wshift,
)
from nestalg.rules import (
    rule_comb,
    rule_const,
    rule_finite,
    rule_geometric,
    rule_harmonic,
    rule_indicator,
    rule_mask,
    rule_power,
    rule_scale,
    rule_sum,
)
from tracing import QUESTIONS

# The shape plan is the same for every seed; see the module docstring.
PLAN_SEED = 1606_00171

STOCK_NESTS = ({"basis": "N", "cuts": "all"}, {"basis": "Z", "cuts": "all"}, {"basis": "N", "cuts": [3, 7]})
STOCK_PER_NEST = 200

RICH_NESTS = (
    {"basis": "N", "cuts": "all"},
    {"basis": "Z", "cuts": "all"},
    {"basis": "Z", "cuts": [-3, 0, 4]},
    {"basis": "N", "cuts": [2, 9]},
)
RICH_TASKS = 320

WITNESS_NESTS = ({"basis": "N", "cuts": "all"}, {"basis": "Z", "cuts": "all"}, {"basis": "Z", "cuts": [-3, 0, 4]})
WITNESS_DRAWS = 4  # draws of every operation kind on every nest
WITNESS_EPS = 0.5
IDEAL_DEPTH = 6


@dataclass
class Op:
    """One timed operation: a kind, the nest spec and the built inputs."""

    kind: str
    nest: dict
    inputs: dict
    expected: dict = field(default_factory=dict)

    def fingerprint_line(self) -> str:
        parts = [self.kind, repr(self.nest)] + [f"{k}={self.inputs[k]!r}" for k in sorted(self.inputs)]
        return "|".join(parts)


def fingerprint(pool) -> str:
    h = hashlib.sha256()
    for op in pool:
        h.update(op.fingerprint_line().encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _streams(seed: int, rnd: int):
    """The shape plan, the same for every seed and round, and the value
    stream of round `rnd` of `seed`."""
    return np.random.default_rng(PLAN_SEED), np.random.default_rng([seed, rnd])


# ---------------------------------------------------------------------------
# the stock grammar, as the verify suite draws it (shapes from `plan`)


def _stock_window(nest, half: int = 20):
    return (1, 2 * half) if nest.basis == "N" else (-half, half)


def _stock_rule(nest, plan, par):
    lo, hi = _stock_window(nest)
    k = int(plan.integers(0, 6))
    if k == 0:
        return rule_const(round(float(par.uniform(0.2, 1.2)), 3))
    if k == 1:
        return rule_harmonic()
    if k == 2:
        return rule_geometric(round(float(par.uniform(0.3, 0.8)), 3))
    if k == 3:
        a = int(par.integers(lo, hi - 2))
        return rule_indicator(a, a + int(par.integers(1, 8)))
    if k == 4:
        n = int(plan.integers(1, 4))
        js = par.choice(np.arange(lo, hi), size=n, replace=False)
        return rule_finite({int(j): round(float(par.uniform(-1.0, 1.0)), 3) or 0.5 for j in js})
    return rule_scale(rule_harmonic(), round(float(par.uniform(0.5, 2.0)), 3))


def _admissible_col(nest, row: int, par) -> int:
    """A column that may carry mass in row `row` for a member."""
    t = nest.pred(nest.smallest_cut_geq(row)).value
    base = int(t) + 1 if math.isfinite(t) else row - 3
    return max(base, row) + int(par.integers(0, 5)) if base <= row else base + int(par.integers(0, 5))


def _stock_leaf(nest, plan, par):
    lo, hi = _stock_window(nest)
    k = int(plan.integers(0, 6))
    if k == 0:
        return diag(_stock_rule(nest, plan, par))
    if k == 1:
        return wshift(_stock_rule(nest, plan, par), "lower")
    if k == 2:
        a = int(par.integers(lo, hi - 2))
        return interval_proj(a, a + int(par.integers(1, 10)))
    if k == 3:
        r = int(par.integers(lo, hi))
        return rank_one(basis_vector(_admissible_col(nest, r, par)), basis_vector(r))
    if k == 4:
        s = int(par.integers(lo, hi - 4))
        n = int(plan.integers(2, 4))
        rows = [[round(float(par.uniform(-1.0, 1.0)), 3) if j >= i else 0.0 for j in range(n)] for i in range(n)]
        return finite_matrix(s, s, rows)
    return op_scale(round(float(par.uniform(0.25, 1.5)), 3), diag(_stock_rule(nest, plan, par)))


def _stock_member(nest, plan, par, max_leaves: int = 3):
    n = int(plan.integers(1, max_leaves + 1))
    return op_sum(*(_stock_leaf(nest, plan, par) for _ in range(n)))


def _stock_pair(nest, plan, par, zero_bias: float = 0.3):
    """Two members; with the given probability a pair built to annihilate."""
    if float(plan.random()) < zero_bias:
        lo, hi = _stock_window(nest)
        m = int(par.integers(lo + 2, hi - 6))
        gap = int(par.integers(-2, 5))
        # columns of a start above m + gap, rows of b end at m
        a = rank_one(basis_vector(m + gap + 1 + int(par.integers(0, 3))), basis_vector(m + gap + 1))
        b = rank_one(basis_vector(_admissible_col(nest, m, par)), basis_vector(m))
        return a, b
    return _stock_member(nest, plan, par), _stock_member(nest, plan, par)


def stock_pool(seed: int, rnd: int):
    plan, par = _streams(seed, rnd)
    pool = [
        Op("decide", s.nest, {"a": parse_operator(s.a), "b": parse_operator(s.b)}, dict(s.expected))
        for s in TASK_SPECIMENS
    ]
    for spec in STOCK_NESTS:
        nest = make_nest(spec)
        for _ in range(STOCK_PER_NEST):
            a, b = _stock_pair(nest, plan, par)
            pool.append(Op("decide", spec, {"a": a, "b": b}))
    order = par.permutation(len(pool))
    return [pool[i] for i in order]


# ---------------------------------------------------------------------------
# the rich grammar of the roadmap


def _comb(rng):
    m = int(rng.integers(2, 5))
    return rule_comb(m, int(rng.integers(0, m)))


def _rich_rule(plan, par):
    k = int(plan.integers(0, 6))
    if k == 0:
        return _comb(plan)
    if k == 1:
        return rule_power(float(plan.choice([0.5, 1.0, 2.0])))
    if k == 2:
        return rule_geometric(float(plan.choice([0.5, -0.5])))
    if k == 3:  # one-sided masked constant
        c = rule_const(round(float(par.uniform(0.25, 1.5)), 3))
        cut = int(plan.integers(-4, 8))
        return rule_mask(c, cut, None) if plan.random() < 0.5 else rule_mask(c, None, cut)
    if k == 4:
        return rule_sum(_comb(plan), rule_harmonic())
    return rule_scale(_comb(plan), -round(float(par.uniform(0.25, 1.5)), 3))


def _rich_leaf(plan, par):
    k = int(plan.integers(0, 3))
    r = _rich_rule(plan, par)
    if k == 0:
        return diag(r)
    if k == 1:
        return wshift(r, "lower")
    return band(r, -int(plan.integers(2, 5)))


def _rich_member(plan, par):
    return op_sum(*(_rich_leaf(plan, par) for _ in range(int(plan.integers(1, 3)))))


def rich_pool(seed: int, rnd: int):
    plan, par = _streams(seed, rnd)
    pool = [
        Op("decide", RICH_NESTS[i % len(RICH_NESTS)], {"a": _rich_member(plan, par), "b": _rich_member(plan, par)})
        for i in range(RICH_TASKS)
    ]
    order = par.permutation(len(pool))
    return [pool[i] for i in order]


# ---------------------------------------------------------------------------
# witness, embed, refute and ideal inputs


def _plateau_member(plan, par):
    """A member whose columns and rows keep mass: a scaled identity or comb,
    scale 0.8 to 1.5, plus a small lowering shift."""
    c = round(float(par.uniform(0.8, 1.5)), 3)
    main = op_scale(c, identity()) if plan.random() < 0.5 else op_scale(c, diag(_comb(par)))
    shift = wshift(rule_const(round(float(par.uniform(0.05, 0.4)), 3)), "lower")
    return op_sum(main, shift)


def _witness_pair(plan, par, count):
    # one draw in four at counts 12 and 32 decays, so the greedy search runs
    # out of candidates; at count 128 none does, so the 12 searches of that
    # size fill most of the slowest sixth of every round, where op_ms.tail
    # (p86 of 72 operations) falls, instead of ending just above it
    if plan.random() < 0.25 and count < 128:
        return _plateau_member(plan, par), op_scale(round(float(par.uniform(1.0, 1.5)), 3), diag(rule_power(0.5)))
    return _plateau_member(plan, par), _plateau_member(plan, par)


def _refute_pairs(plan, par):
    pairs = [(diag(rule_geometric(round(float(par.uniform(0.3, 0.7)), 3))), identity())]
    if plan.random() < 0.5:
        pairs.append((interval_proj(0, int(par.integers(4, 12))), diag(rule_harmonic())))
    if plan.random() < 0.5:
        pairs.append((diag(_comb(par)), op_scale(round(float(par.uniform(0.2, 0.9)), 3), identity())))
    return pairs


def _ideal_member(nest, plan, par):
    if plan.random() < 0.5:
        return _plateau_member(plan, par)
    return _stock_member(nest, plan, par)


def _subnest(spec, par):
    if spec["cuts"] != "all":
        return list(spec["cuts"][:2])
    lo = 1 if spec["basis"] == "N" else -8
    return sorted(int(v) for v in par.choice(np.arange(lo, lo + 30), size=4, replace=False))


def witness_pool(seed: int, rnd: int):
    plan, par = _streams(seed, rnd)
    pool = []
    for spec in WITNESS_NESTS:
        nest = make_nest(spec)
        for _ in range(WITNESS_DRAWS):
            for count in (12, 32, 128):
                a, b = _witness_pair(plan, par, count)
                pool.append(Op("witness", spec, {"a": a, "b": b, "count": count}))
            a, b = _plateau_member(plan, par), _plateau_member(plan, par)
            x = [round(float(v), 3) for v in par.uniform(-1.0, 1.0, size=4)]
            x[int(par.integers(0, 4))] = 1.0
            pool.append(Op("embed", spec, {"a": a, "b": b, "x": x}))
            pool.append(Op("refute", spec, {"pairs": _refute_pairs(plan, par), "b": diag(rule_harmonic())}))
            pool.append(Op("ideal", spec, {"op": _ideal_member(nest, plan, par), "subnest": _subnest(spec, par)}))
    order = par.permutation(len(pool))
    return [pool[i] for i in order]


POOLS = {"decide-stock": stock_pool, "decide-rich": rich_pool, "witness-ideal": witness_pool}


# ---------------------------------------------------------------------------
# operations; each returns (outcome, decided, asked) and keeps its results
# for the checks, which run after the timed region


def _task(op):
    return algebra.MultiplicationTask.build(make_nest(op.nest), op.inputs["a"], op.inputs["b"])


def run_decide(op):
    task = _task(op)
    verdicts = {q: getattr(decisions, fn)(task) for q, fn in QUESTIONS}
    statuses = {q: v.status for q, v in verdicts.items()}
    decided = sum(s != "Unknown" for s in statuses.values())
    return {"task": task, "statuses": statuses}, decided, len(QUESTIONS)


def _greedy(task, count):
    try:
        return constructions.greedy_subsequence(task, eps=WITNESS_EPS, count=count)
    except WitnessBudgetExhausted:
        return None


def run_witness(op):
    task = _task(op)
    cert = _greedy(task, op.inputs["count"])
    if cert is None:
        return {"status": "exhausted"}, 0, 1
    ok, rows = constructions.certificate_check(task, cert)
    return {"status": "ok", "recheck": ok, "failed": [r["check"] for r in rows if not r["pass"]]}, 1, 1


def _contraction(t):
    return op_scale(1.0 / norm_bound(t), t)


def _embed(nest, a, b, x):
    task = algebra.MultiplicationTask.build(make_nest(nest), a, b)
    cert = _greedy(task, 8 * len(x))
    if cert is None:
        return {"status": "exhausted"}
    emb = constructions.linf_embedding(task, x, cert, block_size=8)
    return {"status": "ok", "lower": emb["lower"], "upper": emb["upper"]}


def run_embed(op):
    """The bracket on the drawn factors scaled to norm bound 1.  Its lower
    bound is of degree two in each factor and its upper bound of degree
    one, and the eps^4 allowances are for unit-norm factors, so the bracket
    is only defined for contractions; on the raw draws (norms up to 1.9)
    it inverts, which probe_op counts."""
    a, b = _contraction(op.inputs["a"]), _contraction(op.inputs["b"])
    out = _embed(op.nest, a, b, op.inputs["x"])
    return out, int(out["status"] == "ok"), 1


def run_refute(op):
    pairs, b = op.inputs["pairs"], op.inputs["b"]
    try:
        w = constructions.counterexample_refuter(pairs, b=b)
    except WitnessBudgetExhausted:
        return {"status": "exhausted"}, 0, 1
    stab = constructions.stabilization_analysis(pairs, scan=48)
    return {"status": "refuted", "witness": w, "final_rank": stab["final_rank"]}, 1, 1


def _ideal_window(spec):
    return (1, 64) if spec["basis"] == "N" else (-32, 32)


def run_ideal(op):
    nest, a = make_nest(op.nest), op.inputs["op"]
    est = ideals.radical_seminorm(nest, a, IDEAL_DEPTH)
    dec = ideals.jc_decompose(nest, a, IDEAL_DEPTH)
    f = ideals.FiniteSubnest.build(nest, op.inputs["subnest"])
    iv = ideals.delta_norm(a, f)
    resid = ideals.reconstruction_residual(a, f, _ideal_window(op.nest))
    out = {"status": dec.status, "radical": (est.lo, est.hi), "delta": (iv.lo, iv.hi), "residual": resid}
    return out, int(dec.status != "Unknown"), 1


RUNNERS = {"decide": run_decide, "witness": run_witness, "embed": run_embed, "refute": run_refute, "ideal": run_ideal}


def run_op(op):
    return RUNNERS[op.kind](op)


def questions_asked(op) -> int:
    """Questions an operation asks; an operation that raised decided none."""
    return len(QUESTIONS) if op.kind == "decide" else 1


def outcome_digest_line(op, out) -> str:
    """The part of an outcome that must repeat exactly from round to round."""
    if op.kind == "decide":
        return ",".join(f"{q}={s}" for q, s in sorted(out["statuses"].items()))
    if op.kind == "refute" and out["status"] == "refuted":
        return f"refuted r={out['witness'].r} s={out['witness'].s}"
    return str(out.get("status"))


# ---------------------------------------------------------------------------
# correctness checks (untimed); each returns a list of failure names


def check_decide(op, out):
    """A decided stronger verdict must come with the implied weaker one: an
    Unknown after a decided Zero or Compact counts as a failure."""
    st = out["statuses"]
    bad = []
    if st["zero"] != "Unknown":
        # res=0: the oracle's default 1e-10 floor reads geometric tails deep
        # in the window as zero and so contradicts correct NonZero verdicts
        if (st["zero"] == "Zero") != scenarios.brute_force_zero(out["task"], res=0.0):
            bad.append("zero-vs-bruteforce")
    if st["zero"] == "Zero" and st["compact"] != "Compact":
        bad.append("zero-implies-compact")
    if st["compact"] == "Compact" and st["weak"] != "WeaklyCompact":
        bad.append("compact-implies-weak")
    if "Unknown" not in (st["weak"], st["weak2"]) and st["weak"] != st["weak2"]:
        bad.append("weak-routes-agree")
    for q, want in op.expected.items():
        if st[q] != want:
            bad.append(f"catalog-{q}")
    return bad


def check_witness(op, out):
    if out["status"] != "ok":
        return []
    return [] if out["recheck"] else ["certificate-check:" + "+".join(out["failed"])]


def _bracket_inverted(out) -> bool:
    return out["status"] == "ok" and out["lower"] > out["upper"] + 1e-12


def check_embed(op, out):
    return ["embedding-bracket"] if _bracket_inverted(out) else []


def check_refute(op, out):
    if out["status"] != "refuted":
        return []
    w = out["witness"]
    again = constructions.representation_residual(op.inputs["pairs"], op.inputs["b"], w.r, w.s)
    if abs(again.residual - w.residual) > 1e-10 or w.residual < w.threshold:
        return ["refuter-recompute"]
    return []


def check_ideal(op, out):
    return [] if out["residual"] <= 1e-12 else ["member-reconstruction"]


CHECKS = {"decide": check_decide, "witness": check_witness, "embed": check_embed, "refute": check_refute, "ideal": check_ideal}


def check_op(op, out):
    return CHECKS[op.kind](op, out)



# ---------------------------------------------------------------------------
# known defects (untimed): probes on inputs outside an operation's domain,
# reported beside the checks so that a fix shows; each returns a dict of
# defect name (one of tracing.KNOWN_DEFECTS) -> 1 if the defect showed on
# this input, 0 if not


def probe_op(op):
    if op.kind != "embed":
        return {}
    raw = _embed(op.nest, op.inputs["a"], op.inputs["b"], op.inputs["x"])
    return {"constructions.linf_embedding.inverted": int(_bracket_inverted(raw))}

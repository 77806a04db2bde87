"""Ideal structure helpers: diagonal expectations, the radical seminorm,
and the compacts-plus-radical decomposition.

A finite subnest picks finitely many cuts (always including bottom and
top).  The block-diagonal expectation compresses an operator to the
atoms of the subnest; members are reconstructed exactly by the
expectation plus the strictly-upper staircase rest, because each atom
sees nothing below its left cut.

The radical seminorm of an operator is the infimum of expectation norms
over finite subnests.  It is estimated along the canonical refinement
chain (all cuts with |value| <= 2^k), which suffices: expectations only
shrink under refinement.  The lower bound is structural: every
expectation preserves the main diagonal, so the supremum of |diagonal
entry| survives every refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedSpec
from .nests import POS_INF, Nest, NestCut, make_nest
from .numerics import NormInterval, matrix_upper_bounds, power_norm
from .operators import (
    ZERO,
    OperatorExpr,
    ZeroOp,
    canonicalize,
    compress,
    entry,
    flatten_sum,
    interval_proj,
    norm_bound,
    op_product,
    op_sum,
    operator_to_json,
    render,
)
from .compactness import classify_compact, cocut_proj
from .rules import bound_to_json

DIAG_SCAN_HALF = 256


@dataclass(frozen=True)
class FiniteSubnest:
    """Finitely many cuts of a nest, with bottom and top always present."""

    nest: Nest
    values: tuple  # ordered cut values, first == bottom, last == top

    @staticmethod
    def build(nest, interior) -> "FiniteSubnest":
        nest = make_nest(nest)
        vals = []
        for c in interior:
            cut = nest.as_cut(c)
            vals.append(cut.value)
        if len(set(vals)) != len(vals):
            raise MalformedSpec(f"duplicate subnest cuts: {interior!r}")
        vals = sorted(set(vals) | {nest.bottom.value, nest.top.value})
        return FiniteSubnest(nest, tuple(vals))

    def atoms(self):
        """Consecutive (lo, hi] pairs of cut values."""
        return list(zip(self.values[:-1], self.values[1:]))

    def refine(self, extra) -> "FiniteSubnest":
        interior = [v for v in self.values if math.isfinite(v)]
        more = [self.nest.as_cut(c).value for c in extra]
        return FiniteSubnest.build(self.nest, interior + more)

    def is_refinement_of(self, other: "FiniteSubnest") -> bool:
        return set(other.values) <= set(self.values)

    def to_json(self):
        return [bound_to_json(v) for v in self.values]


def diag_expectation(a: OperatorExpr, f: FiniteSubnest) -> OperatorExpr:
    """Block-diagonal compression onto the atoms of the subnest."""
    terms = []
    for lo, hi in f.atoms():
        p = interval_proj(lo, hi)
        terms.append(op_product(op_product(p, a), p))
    return canonicalize(op_sum(*terms))


def staircase_rest(a: OperatorExpr, f: FiniteSubnest) -> OperatorExpr:
    """Sum of atom-row blocks strictly to the right of each atom."""
    terms = []
    for lo, hi in f.atoms():
        p = interval_proj(lo, hi)
        terms.append(op_product(op_product(p, a), cocut_proj(NestCut(hi))))
    return canonicalize(op_sum(*terms))


def reconstruction_residual(a: OperatorExpr, f: FiniteSubnest, window) -> float:
    """Max-entry distance between a and expectation + staircase on a window.

    Zero (to rounding) whenever a is a member of the nest algebra, since
    each atom block then sees nothing strictly below its left cut.
    """
    lo, hi = window
    target = render(canonicalize(a), lo, hi)
    rebuilt = render(op_sum(diag_expectation(a, f), staircase_rest(a, f)), lo, hi)
    return float(np.max(np.abs(target - rebuilt))) if target.size else 0.0


def _atom_norm(a: OperatorExpr, lo: float, hi: float, cap: int = 256, iters: int = 200) -> NormInterval:
    """Norm interval of one diagonal block."""
    block = compress(a, lo, hi)
    if isinstance(block, ZeroOp):
        return NormInterval(0.0, 0.0)
    hi_bound = norm_bound(block)
    if math.isfinite(lo) and math.isfinite(hi) and hi - lo <= cap:
        w_lo, w_hi = int(lo) + 1, int(hi)
        m = render(block, w_lo, w_hi) if w_lo <= w_hi else None
        if m is None:
            return NormInterval(0.0, 0.0)
        return NormInterval(power_norm(m, iters=iters), min(hi_bound, matrix_upper_bounds(m)))
    # unbounded or oversized atom: window a probe, keep the metadata upper
    anchor = int(lo) + 1 if math.isfinite(lo) else (int(hi) - cap + 1 if math.isfinite(hi) else -cap // 2)
    m = render(block, anchor, anchor + cap - 1)
    return NormInterval(power_norm(m, iters=iters), hi_bound)


def _sup(intervals) -> NormInterval:
    """Norm interval of a block-diagonal operator from those of its blocks."""
    lo = 0.0
    hi = 0.0
    for iv in intervals:
        lo = max(lo, iv.lo)
        hi = max(hi, iv.hi)
    return NormInterval(lo, hi)


def delta_norm(a: OperatorExpr, f: FiniteSubnest, cap: int = 256, iters: int = 200) -> NormInterval:
    """Norm interval of the block-diagonal expectation (sup of atom norms)."""
    return _sup(_atom_norm(a, lo, hi, cap=cap, iters=iters) for lo, hi in f.atoms())


def _diag_floor(a: OperatorExpr, nest: Nest) -> float:
    """Certified lower bound on sup |a_ii| (survives every expectation)."""
    c = canonicalize(a)
    if isinstance(c, ZeroOp):
        return 0.0
    lo, hi = nest.window(DIAG_SCAN_HALF)
    return max(abs(entry(c, i, i)) for i in range(lo, hi + 1))


def canonical_chain(nest: Nest, depth: int = 8):
    """Refining subnests F_k = all nest cuts with |value| <= 2^k."""
    nest = make_nest(nest)
    chain = []
    for k in range(depth):
        r = 2**k
        interior = [c.value for c in nest.cuts_in_window(-r, r)]
        chain.append(FiniteSubnest.build(nest, interior))
    return chain


@dataclass(frozen=True)
class RadicalEstimate:
    lo: float
    hi: float
    chain: tuple  # per-step dicts

    def to_json(self):
        return {"lo": self.lo, "hi": self.hi, "chain": list(self.chain)}


def radical_seminorm(nest, a: OperatorExpr, depth: int = 6) -> RadicalEstimate:
    """inf over finite subnests of the expectation norm, bracketed.

    The upper bound is the running minimum along the canonical chain;
    the lower bound is the diagonal floor, which no refinement can
    remove.  Each step is delta_norm of its subnest; a refinement keeps
    every atom of the coarser subnest that it does not split, so each
    distinct atom is evaluated once.
    """
    nest = make_nest(nest)
    floor = _diag_floor(a, nest)
    hi = norm_bound(canonicalize(a))
    atom_norms = {}
    steps = []
    for k, f in enumerate(canonical_chain(nest, depth)):
        for atom in f.atoms():
            if atom not in atom_norms:
                atom_norms[atom] = _atom_norm(a, *atom)
        iv = _sup(atom_norms[atom] for atom in f.atoms())
        hi = min(hi, iv.hi)
        steps.append({"k": k, "cuts": len(f.values), "delta_norm_hi": iv.hi, "delta_norm_lo": iv.lo})
    return RadicalEstimate(floor, max(hi, floor), tuple(steps))


# ---------------------------------------------------------------------------
# compacts + radical


@dataclass(frozen=True)
class IdealDecomposition:
    status: str  # "Inside" | "Outside" | "Unknown"
    compact_part: OperatorExpr
    radical_part: OperatorExpr
    leftover: OperatorExpr
    reason: str = ""

    def to_json(self):
        return {
            "status": self.status,
            "compact_part": operator_to_json(self.compact_part),
            "radical_part": operator_to_json(self.radical_part),
            "leftover": operator_to_json(self.leftover),
            "reason": self.reason,
        }


def jc_decompose(nest, a: OperatorExpr, depth: int = 6) -> IdealDecomposition:
    """Split a into a compact part plus a radical part when possible.

    Membership in compacts-plus-radical is decided part by part on the
    canonical form: certified compact parts go left; parts whose
    expectation norms vanish along the canonical chain go right; a part
    with a positive diagonal floor that is not compact stays outside.
    """
    nest = make_nest(nest)
    c = canonicalize(a)
    compact_parts = []
    radical_parts = []
    leftovers = []
    reasons = []
    certain = False  # some leftover part is certainly outside
    for part in flatten_sum(c):
        v = classify_compact(part)
        if v.status == "Compact":
            compact_parts.append(part)
            continue
        est = radical_seminorm(nest, part, depth)
        if est.hi <= 1e-12:
            radical_parts.append(part)
            continue
        if est.lo > 1e-12 or v.status == "NonCompact":
            leftovers.append(part)
            reasons.append(
                f"part {part!r} is not compact and keeps expectation norm >= {est.lo:.6g}"
            )
            certain = certain or (v.status == "NonCompact" and est.lo > 1e-12)
        else:
            leftovers.append(part)
            reasons.append(f"part {part!r} resisted both classifications")
    comp = canonicalize(op_sum(*compact_parts)) if compact_parts else ZERO
    rad = canonicalize(op_sum(*radical_parts)) if radical_parts else ZERO
    left = canonicalize(op_sum(*leftovers)) if leftovers else ZERO
    if not leftovers:
        return IdealDecomposition("Inside", comp, rad, left, "all parts placed")
    status = "Outside" if certain else "Unknown"
    return IdealDecomposition(status, comp, rad, left, "; ".join(reasons))


# ---------------------------------------------------------------------------
# when do the compact members form an ideal


def compact_members_ideal_report(nest) -> dict:
    """Structural report on the ideal property of the compact members.

    The obstruction would be a pair of interior cuts with an infinite
    gap; integer-valued cuts make every interior gap finite, so the
    property holds on every nest this model can express.  The admissible
    corner cuts are those whose lower range is finite-dimensional (plus
    the two trivial ones): their upper corner blocks consist of
    finite-rank, hence compact, operators.
    """
    nest = make_nest(nest)
    pairs_checked = 0
    infinite_gap = None
    if not nest.is_all:
        interior = [v for v in nest.cut_values if math.isfinite(v)]
        for x, y in zip(interior[:-1], interior[1:]):
            pairs_checked += 1
            if not math.isfinite(y - x):
                infinite_gap = (x, y)
    admissible = []
    if nest.is_all:
        admissible_desc = "bottom, top, and every finite cut" if nest.basis == "N" else "bottom and top"
    else:
        for v in nest.cut_values:
            if v == nest.bottom.value or v == POS_INF:
                admissible.append(v)
            elif nest.basis == "N" and math.isfinite(v):
                admissible.append(v)
        admissible_desc = None
    out = {
        "is_ideal": infinite_gap is None,
        "interior_pairs_checked": pairs_checked,
        "nest": make_nest(nest).to_json(),
        "note": "integer-valued cuts leave every interior gap finite, so the"
        " ideal property cannot fail in this model",
    }
    if admissible_desc is not None:
        out["admissible_corner_cuts"] = admissible_desc
    else:
        out["admissible_corner_cuts"] = [bound_to_json(v) for v in admissible]
    return out

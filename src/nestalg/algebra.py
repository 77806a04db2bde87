"""Membership of operator expressions in the nest algebra of a coordinate nest.

An operator T leaves every cut range invariant exactly when each strictly
lower corner vanishes: for every cut c, entries at (row i, col j) with
i > c >= j must be zero.  On the canonical core this is decidable part by
part; candidate violations are always re-verified against the full sum so
that cross-part cancellation cannot produce a false NonMember.

Nests on the natural-number basis live on indices >= 1 (the bottom cut is
the zero projection), so expressions are first compressed to that ambient
index set; on the integer basis the compression is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotInAlgebra, UnknownSupport
from .nests import Nest, NestCut, make_nest
from .operators import (
    Band,
    FiniteMatrix,
    OperatorExpr,
    ProductOp,
    RankOne,
    RuledVector,
    ZeroOp,
    canonicalize,
    compress,
    entry,
    flatten_sum,
)
from .rules import exact_support, nonzero_indices


def ambient_restrict(nest: Nest, T: OperatorExpr) -> OperatorExpr:
    """Compress T to the nest's ambient index set and canonicalize."""
    return compress(T, 0, None) if nest.basis == "N" else canonicalize(T)


@dataclass(frozen=True)
class MembershipWitness:
    cut: NestCut
    row: int
    col: int
    value: float


@dataclass(frozen=True)
class MembershipVerdict:
    status: str  # "Member" | "NonMember" | "Unknown"
    witness: MembershipWitness | None = None
    reason: str = ""

    @property
    def is_member(self) -> bool:
        return self.status == "Member"


def _cut_between(nest: Nest, j: int, i: int) -> NestCut | None:
    """A cut c with j <= c < i, or None if the nest has no such cut."""
    if i <= j:
        return None
    c = nest.largest_cut_leq(i - 1)
    if c.value >= j and math.isfinite(c.value):
        return c
    return None


def _band_violation(nest: Nest, r, d: int):
    """Candidate (cut, row, col) where a strictly-raising band crosses a cut."""
    if d <= 0:
        return None, "band offset is non-raising"
    sup = r.support
    if sup.is_empty:
        return None, "empty rule support"
    if nest.is_all:
        hits = nonzero_indices(r, sup.lo)
        if not hits:
            return None, "no nonzero rule value found within the scan budget"
        j = hits[0]
        # cuts sit at every ambient integer; any one inside [j, j+d-1] works
        lo_cut = max(j, 0) if nest.basis == "N" else j
        if lo_cut <= j + d - 1:
            return (nest.as_cut(lo_cut), j + d, j), ""
        return None, "no cut inside the band step"
    for c in nest.interior_values():
        # the band crosses cut c iff the rule is nonzero somewhere in (c-d, c]
        for j in range(int(c) - d + 1, int(c) + 1):
            if r.value(j) != 0.0:
                return (nest.as_cut(int(c)), j + d, j), ""
    return None, "no explicit cut is crossed"


def rank_one_membership(nest, e: RuledVector, f: RuledVector) -> MembershipVerdict:
    """Membership of e (x) f: some cut must hold all of f while its
    predecessor range misses all of e."""
    nest = make_nest(nest)
    if e.rule.support.is_empty or f.rule.support.is_empty:
        return MembershipVerdict("Member", reason="zero operator")
    try:
        es, fs = exact_support(e.rule), exact_support(f.rule)
    except UnknownSupport as exc:
        return MembershipVerdict("Unknown", reason=f"support not certified: {exc}")
    if es.is_empty or fs.is_empty:
        return MembershipVerdict("Member", reason="zero operator")
    n0 = nest.smallest_cut_geq(fs.hi)
    pred = nest.pred(n0)
    if es.lo > pred.value:
        return MembershipVerdict("Member", reason=f"cut {n0} holds the range; {pred} misses the symbol")
    # NonMember: walk for a concrete strictly-lower corner entry
    for j in nonzero_indices(e.rule, es.lo):
        c = nest.smallest_cut_geq(j)
        if math.isfinite(c.value):
            for i in nonzero_indices(f.rule, c.value + 1, stop=fs.hi):
                val = e.value(j) * f.value(i)
                if val != 0.0:
                    return MembershipVerdict(
                        "NonMember", MembershipWitness(c, i, j, val), "corner entry below a cut"
                    )
    return MembershipVerdict("Unknown", reason="criterion failed but no witness found in budget")


def alg_membership(nest, T: OperatorExpr) -> MembershipVerdict:
    """Decide whether T belongs to the nest algebra."""
    nest = make_nest(nest)
    return restricted_membership(nest, ambient_restrict(nest, T))


def restricted_membership(nest: Nest, C: OperatorExpr) -> MembershipVerdict:
    """Membership of an operand that ambient_restrict already returned."""
    if isinstance(C, ZeroOp):
        return MembershipVerdict("Member", reason="zero operator")
    unknown_reasons = []
    for part in flatten_sum(C):
        if isinstance(part, Band):
            cand, why = _band_violation(nest, part.rule, part.offset)
            if cand is not None:
                cut, i, j = cand
                val = entry(C, i, j)
                if val != 0.0:
                    return MembershipVerdict(
                        "NonMember", MembershipWitness(cut, i, j, val), "band crosses a cut"
                    )
                unknown_reasons.append("band violation cancelled by another part")
            elif part.offset > 0 and why != "no cut inside the band step" and not _band_clean(nest, part):
                unknown_reasons.append(why)
        elif isinstance(part, RankOne):
            v = rank_one_membership(nest, part.e, part.f)
            if v.status == "NonMember":
                w = v.witness
                val = entry(C, w.row, w.col)
                if val != 0.0:
                    return MembershipVerdict(
                        "NonMember", MembershipWitness(w.cut, w.row, w.col, val), v.reason
                    )
                unknown_reasons.append("rank-one violation cancelled by another part")
            elif v.status == "Unknown":
                unknown_reasons.append(v.reason)
        elif isinstance(part, FiniteMatrix):
            for ri, row in enumerate(part.rows):
                for ci, val in enumerate(row):
                    if val == 0.0:
                        continue
                    i, j = part.row_lo + ri, part.col_lo + ci
                    c = _cut_between(nest, j, i)
                    if c is not None:
                        total = entry(C, i, j)
                        if total != 0.0:
                            return MembershipVerdict(
                                "NonMember",
                                MembershipWitness(c, i, j, total),
                                "explicit entry below a cut",
                            )
                        unknown_reasons.append("matrix violation cancelled by another part")
        elif isinstance(part, ProductOp):
            unknown_reasons.append("irreducible product part")
        else:
            unknown_reasons.append(f"unhandled part {part!r}")
    if not unknown_reasons:
        return MembershipVerdict("Member", reason="all parts certified upper-triangular")
    probe = _numeric_probe(nest, C)
    if probe is not None:
        return MembershipVerdict("NonMember", probe, "numeric probe found a corner entry")
    return MembershipVerdict("Unknown", reason="; ".join(sorted(set(unknown_reasons))))


def _band_clean(nest: Nest, part: Band) -> bool:
    """Certify that a raising band crosses no cut (explicit-cut nests only)."""
    if nest.is_all:
        return False
    cand, _ = _band_violation(nest, part.rule, part.offset)
    return cand is None


def _numeric_probe(nest: Nest, C: OperatorExpr, half: int = 32):
    lo = 1 if nest.basis == "N" else -half
    hi = lo + 2 * half
    cuts = [c for c in nest.cuts_in_window(lo, hi - 1)]
    for part in flatten_sum(C):
        if not isinstance(part, (Band, RankOne, FiniteMatrix)):
            return None  # cannot evaluate entries exactly; stay Unknown
    for c in cuts:
        cv = int(c.value)
        for i in range(cv + 1, hi + 1):
            for j in range(lo, cv + 1):
                val = entry(C, i, j)
                if val != 0.0:
                    return MembershipWitness(c, i, j, val)
    return None


@dataclass(frozen=True)
class MultiplicationTask:
    """A validated pair (a, b) of nest-algebra members over a common nest.

    The induced map sends x to a x b.  Construction compresses both
    symbols to the nest's ambient index set, canonicalizes them, and
    requires certified membership.
    """

    nest: Nest
    a: OperatorExpr
    b: OperatorExpr

    @staticmethod
    def build(nest, a: OperatorExpr, b: OperatorExpr, require_membership: bool = True):
        nest = make_nest(nest)
        ca = ambient_restrict(nest, a)
        cb = ambient_restrict(nest, b)
        if require_membership:
            for name, op in (("a", ca), ("b", cb)):
                v = restricted_membership(nest, op)
                if v.status == "NonMember":
                    w = v.witness
                    raise NotInAlgebra(
                        f"symbol {name} leaves the algebra: entry {w.value} at "
                        f"(row {w.row}, col {w.col}) below cut {w.cut}"
                    )
                if v.status == "Unknown":
                    raise NotInAlgebra(f"membership of symbol {name} could not be certified: {v.reason}")
        return MultiplicationTask(nest, ca, cb)

    def is_zero_pair(self) -> bool:
        return isinstance(self.a, ZeroOp) or isinstance(self.b, ZeroOp)

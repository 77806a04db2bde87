"""Symbolic operator expressions with decidable structural metadata.

Operators live on the same sequence space as the nests.  The expression
grammar is closed: diagonals and weighted shifts driven by sequence
rules, rank-one operators with square-summable symbol vectors, interval
projections, finite matrices, and sums/scales/products/adjoints of
those.  Construction immediately normalizes toward a small core, with
scalars and adjoints pushed down into the nodes:

  Band(rule, offset)   entries rule(j) at (j + offset, j); offset 0 is a
                       diagonal, -1 the lowering shift, +1 the raising
                       shift; products of shifts produce wider offsets
  RankOne(e, f)        (e (x) f) h = <h, e> f, entries e(j) * f(i)
  FiniteMatrix         explicit dense block
  Sum / Product        leftovers

canonicalize() flattens sums, merges bands of equal offset, rewrites
products away (a product of two rank-ones becomes a scaled rank-one via
a windowed inner product with a certified tail slack; the rewrite is
only taken when the slack is below 1e-12 relative), all in one pass
whose result is its own canonical form.  Entry evaluation and truncated
rendering are exact on the canonical product-free core.

Nodes are interned (rules.Node): building a node whose fields match
a live node returns that node, so equal trees are one object and
equality is identity.  A node stores what it computes once: its sort
key as a part of a sum, its canonical form (a fixpoint is marked, so a
canonical subtree is never walked again), its support hulls and
compressions, the adjoint that adjoint() builds, and for a finite block
a read-only array; the compactness module stores a canonical node's
compactness verdict and column ends on it as well.  A fact that is the
node itself is marked, never stored on the node, so no stored fact
makes a reference cycle.  canonicalize has no cache besides: what a
node stores goes when the node does.

The matrix convention: (e (x) f) maps h to <h, e> f, so the entry at
(row i, column j) is e(j) * f(i); column support is the support of e.
All scalars are real doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import SchemaError, UnboundedRule, WindowTooLarge
from .rules import (
    BOUND,
    EMPTY_SUPPORT,
    INT,
    NEG_INF,
    NUMBER,
    ONE_RULE,
    Node,
    POS_INF,
    RULE,
    Codec,
    Field,
    Row,
    Schema,
    SeqRule,
    Support,
    from_schema,
    rule_const,
    rule_finite,
    rule_from_json,
    rule_indicator,
    rule_product,
    rule_scale,
    rule_shift,
    rule_sum,
    rule_to_json,
    to_schema,
)

RENDER_CAP = 4096  # hard cap on one side of a rendering window

# tolerance for the rank-one pair merge inside canonicalize
MERGE_RTOL = 1e-12
INNER_WINDOW = 1 << 15


class OperatorExpr(Node):
    """Base class for expression nodes; all concrete nodes are frozen."""

    @cached_property
    def _part_key(self):
        """Sort key of a part of a canonical sum."""
        if isinstance(self, Band):
            return (0, self.offset, repr(self.rule))
        if isinstance(self, RankOne):
            return (1, 0, repr(self.e.rule) + "|" + repr(self.f.rule))
        if isinstance(self, FiniteMatrix):
            return (2, self.row_lo, repr(self.rows))
        return (3, 0, repr(self))

    @cached_property
    def _hulls(self) -> tuple:
        """(row_support, col_support), the hulls that compress reads."""
        return row_support(self), col_support(self)


@dataclass(frozen=True, eq=False, init=False)
class ZeroOp(OperatorExpr):
    def __repr__(self):
        return "Zero"


ZERO = ZeroOp()


@dataclass(frozen=True, eq=False, init=False)
class RuledVector(Node):
    """A vector whose entries come from a sequence rule."""

    rule: SeqRule

    def norm_upper(self) -> float:
        return math.sqrt(self.rule.sq_total())

    def value(self, i: int) -> float:
        return self.rule.value(i)

    def values_on(self, lo: int, hi: int) -> np.ndarray:
        return np.array(self.rule.values_on(lo, hi), dtype=float)

    @property
    def support(self) -> Support:
        return self.rule.support


def make_vector(rule: SeqRule) -> RuledVector:
    if not rule.is_square_summable():
        raise UnboundedRule(f"vector entries must be certified square-summable: {rule!r}")
    return RuledVector(rule)


def basis_vector(i: int) -> RuledVector:
    return RuledVector(rule_finite({i: 1.0}))


@dataclass(frozen=True, eq=False, init=False)
class Band(OperatorExpr):
    rule: SeqRule
    offset: int

    def __repr__(self):
        return f"Band(off={self.offset}, {self.rule!r})"


@dataclass(frozen=True, eq=False, init=False)
class RankOne(OperatorExpr):
    e: RuledVector
    f: RuledVector


@dataclass(frozen=True, eq=False, init=False)
class FiniteMatrix(OperatorExpr):
    row_lo: int
    col_lo: int
    rows: tuple  # tuple of row tuples

    @property
    def row_hi(self) -> int:
        return self.row_lo + len(self.rows) - 1

    @property
    def col_hi(self) -> int:
        return self.col_lo + (len(self.rows[0]) - 1 if self.rows else -1)

    @cached_property
    def _array(self) -> np.ndarray:
        arr = np.array([list(r) for r in self.rows], dtype=float)
        arr.flags.writeable = False
        return arr

    def as_array(self) -> np.ndarray:
        """The block as a read-only array, built once."""
        return self._array


@dataclass(frozen=True, eq=False, init=False)
class SumOp(OperatorExpr):
    left: OperatorExpr
    right: OperatorExpr

    @property
    def terms(self) -> list:
        return flatten_sum(self)


@dataclass(frozen=True, eq=False, init=False)
class ProductOp(OperatorExpr):
    left: OperatorExpr
    right: OperatorExpr


# ---------------------------------------------------------------------------
# constructors (normalize eagerly where cheap and exact)


def diag(rule: SeqRule) -> OperatorExpr:
    if rule.support.is_empty:
        return ZERO
    return Band(rule, 0)


def identity() -> OperatorExpr:
    return Band(ONE_RULE, 0)


def interval_proj(lo, hi) -> OperatorExpr:
    """Projection onto basis indices i with lo < i <= hi (cut semantics).

    An open end is None or the infinite cut on its side.
    """
    lo_v = NEG_INF if lo is None else float(lo)
    hi_v = POS_INF if hi is None else float(hi)
    if lo_v == POS_INF or hi_v == NEG_INF:
        return ZERO
    ind_lo = None if lo_v == NEG_INF else math.floor(lo_v) + 1
    return diag(rule_indicator(ind_lo, hi_v))


def wshift(rule: SeqRule, direction: str) -> OperatorExpr:
    if direction not in ("lower", "raise"):
        raise SchemaError(f"shift direction must be 'lower' or 'raise', got {direction!r}")
    if rule.support.is_empty:
        return ZERO
    return Band(rule, -1 if direction == "lower" else +1)


def band(rule: SeqRule, offset: int) -> OperatorExpr:
    if rule.support.is_empty:
        return ZERO
    return Band(rule, int(offset))


def rank_one(e: RuledVector, f: RuledVector) -> OperatorExpr:
    if e.rule.support.is_empty or f.rule.support.is_empty:
        return ZERO
    if not (e.rule.is_square_summable() and f.rule.is_square_summable()):
        raise UnboundedRule("rank-one symbols must be certified square-summable")
    return RankOne(e, f)


def finite_matrix(row_lo: int, col_lo: int, entries) -> OperatorExpr:
    rows = tuple(tuple(float(v) for v in row) for row in entries)
    if rows and len({len(r) for r in rows}) != 1:
        raise SchemaError("finite matrix rows must have equal length")
    return _trim_finite(int(row_lo), int(col_lo), np.array(rows, dtype=float))


def _trim_finite(row_lo: int, col_lo: int, arr: np.ndarray) -> OperatorExpr:
    """The block arr with its top left entry at (row_lo, col_lo), trimmed to
    its nonzero rows and columns."""
    nz = arr != 0.0
    if not nz.any():
        return ZERO
    nz_rows, nz_cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    r0, r1 = int(nz_rows[0]), int(nz_rows[-1])
    c0, c1 = int(nz_cols[0]), int(nz_cols[-1])
    sub = arr[r0 : r1 + 1, c0 : c1 + 1]
    return FiniteMatrix(row_lo + r0, col_lo + c0, tuple(map(tuple, sub.tolist())))


def op_sum(*terms) -> OperatorExpr:
    parts = [t for t in terms if not isinstance(t, ZeroOp)]
    if not parts:
        return ZERO
    out = parts[0]
    for t in parts[1:]:
        out = SumOp(out, t)
    return out


def op_scale(scalar: float, x: OperatorExpr) -> OperatorExpr:
    s = float(scalar)
    if s == 0.0 or isinstance(x, ZeroOp):
        return ZERO
    if s == 1.0:
        return x
    if isinstance(x, Band):
        return band(rule_scale(x.rule, s), x.offset)
    if isinstance(x, RankOne):
        return RankOne(x.e, RuledVector(rule_scale(x.f.rule, s)))
    if isinstance(x, FiniteMatrix):
        return _trim_finite(x.row_lo, x.col_lo, s * x.as_array())
    if isinstance(x, SumOp):
        return op_sum(op_scale(s, x.left), op_scale(s, x.right))
    return op_product(op_scale(s, x.left), x.right)  # s (l r) = (s l) r


def op_adjoint(x: OperatorExpr) -> OperatorExpr:
    """Adjoint, pushed all the way down (entries are real)."""
    if isinstance(x, ZeroOp):
        return ZERO
    if isinstance(x, Band):  # a shifted nonzero rule stays nonzero
        return Band(rule_shift(x.rule, x.offset), -x.offset)
    if isinstance(x, RankOne):
        return RankOne(x.f, x.e)
    if isinstance(x, FiniteMatrix):  # the transpose of a trimmed block is trimmed
        return FiniteMatrix(x.col_lo, x.row_lo, tuple(zip(*x.rows)))
    if isinstance(x, SumOp):  # terms are nonzero, and so are their adjoints
        return SumOp(op_adjoint(x.left), op_adjoint(x.right))
    if isinstance(x, ProductOp):
        return op_product(op_adjoint(x.right), op_adjoint(x.left))
    raise SchemaError(f"cannot take adjoint of {x!r}")


def op_product(l: OperatorExpr, r: OperatorExpr) -> OperatorExpr:
    if isinstance(l, ZeroOp) or isinstance(r, ZeroOp):
        return ZERO
    return ProductOp(l, r)


# ---------------------------------------------------------------------------
# exact symbolic application to ruled vectors


def apply_to_vector(T: OperatorExpr, rule: SeqRule) -> SeqRule:
    """Entry rule of T v for product-free T; exact."""
    if isinstance(T, ZeroOp):
        return rule_const(0.0)
    if isinstance(T, Band):
        return rule_shift(rule_product(T.rule, rule), T.offset)
    if isinstance(T, FiniteMatrix):
        table = {}
        for ri, row in enumerate(T.rows):
            acc = 0.0
            for ci, v in enumerate(row):
                acc += v * rule.value(T.col_lo + ci)
            if acc != 0.0:
                table[T.row_lo + ri] = acc
        return rule_finite(table)
    if isinstance(T, SumOp):
        return rule_sum(apply_to_vector(T.left, rule), apply_to_vector(T.right, rule))
    if isinstance(T, RankOne):
        val, slack = inner_rules(rule, T.e.rule)
        if slack > MERGE_RTOL * (1.0 + abs(val)):
            raise UnboundedRule("inner product tail not certifiably negligible")
        return rule_scale(T.f.rule, val)
    raise SchemaError(f"apply_to_vector needs a product-free expression, got {T!r}")


def inner_rules(u: SeqRule, v: SeqRule, window: int = INNER_WINDOW):
    """<u, v> = sum u(i) v(i) over a window, with a certified tail slack."""
    total = 0.0
    lo, hi = -window, window
    usup, vsup = u.support, v.support
    lo = max(lo, int(max(usup.lo, vsup.lo))) if math.isfinite(max(usup.lo, vsup.lo)) else lo
    hi = min(hi, int(min(usup.hi, vsup.hi))) if math.isfinite(min(usup.hi, vsup.hi)) else hi
    for i in range(lo, hi + 1):
        total += u.value(i) * v.value(i)
    tail_hi = math.sqrt(u.sq_tail(hi + 1, +1)) * math.sqrt(v.sq_tail(hi + 1, +1))
    tail_lo = math.sqrt(u.sq_tail(lo - 1, -1)) * math.sqrt(v.sq_tail(lo - 1, -1))
    slack = 0.0
    for t in (tail_hi, tail_lo):
        slack += t if math.isfinite(t) else 0.0 if t == 0.0 else POS_INF
    return total, slack


# ---------------------------------------------------------------------------
# canonicalization


def flatten_sum(T: OperatorExpr) -> list:
    if isinstance(T, SumOp):
        return flatten_sum(T.left) + flatten_sum(T.right)
    if isinstance(T, ZeroOp):
        return []
    return [T]


def _merge_parts(parts: list) -> list:
    bands = {}
    finites = []
    rest = []
    for p in parts:
        if isinstance(p, Band):
            if p.offset in bands:
                bands[p.offset] = rule_sum(bands[p.offset], p.rule)
            else:
                bands[p.offset] = p.rule
        elif isinstance(p, FiniteMatrix):
            finites.append(p)
        else:
            rest.append(p)
    out = []
    for off in sorted(bands):
        merged = band(bands[off], off)
        if not isinstance(merged, ZeroOp):
            out.append(merged)
    if len(finites) == 1:
        out.append(_positive_zeros(finites[0]))
    elif finites:
        merged_fm = _merge_finite(finites)
        if not isinstance(merged_fm, ZeroOp):
            out.append(merged_fm)
    out.extend(rest)
    return sorted(out, key=lambda p: p._part_key)


def _positive_zeros(m: FiniteMatrix) -> FiniteMatrix:
    """A lone block as the merge writes it: already trimmed, with its -0.0
    entries written as +0.0."""
    arr = m.as_array()
    if not (np.signbit(arr) & (arr == 0.0)).any():
        return m
    return FiniteMatrix(m.row_lo, m.col_lo, tuple(map(tuple, (arr + 0.0).tolist())))


def _merge_finite(ms: list) -> OperatorExpr:
    r0 = min(m.row_lo for m in ms)
    r1 = max(m.row_hi for m in ms)
    c0 = min(m.col_lo for m in ms)
    c1 = max(m.col_hi for m in ms)
    acc = np.zeros((r1 - r0 + 1, c1 - c0 + 1))
    for m in ms:
        acc[m.row_lo - r0 : m.row_hi - r0 + 1, m.col_lo - c0 : m.col_hi - c0 + 1] += m.as_array()
    return _trim_finite(r0, c0, acc)


def _pair_product(l: OperatorExpr, r: OperatorExpr) -> OperatorExpr:
    """Product of two canonical parts; ProductOp when it cannot be reduced."""
    if isinstance(l, ZeroOp) or isinstance(r, ZeroOp):
        return ZERO
    if isinstance(l, Band) and isinstance(r, Band):
        # (l r) e_j = l.rule(j + r.off) r.rule(j) e_{j + r.off + l.off}
        merged = rule_product(rule_shift(l.rule, -r.offset), r.rule)
        return band(merged, l.offset + r.offset)
    if isinstance(r, RankOne) and not isinstance(l, ProductOp):
        # T (e (x) f) = e (x) T f
        try:
            new_f = apply_to_vector(l, r.f.rule)
        except (SchemaError, UnboundedRule):
            return ProductOp(l, r)
        if new_f.support.is_empty:
            return ZERO
        if not new_f.is_square_summable():
            return ProductOp(l, r)
        return RankOne(r.e, RuledVector(new_f))
    if isinstance(l, RankOne) and not isinstance(r, ProductOp):
        # (e (x) f) T = (T* e) (x) f
        try:
            new_e = apply_to_vector(op_adjoint(r), l.e.rule)
        except (SchemaError, UnboundedRule):
            return ProductOp(l, r)
        if new_e.support.is_empty:
            return ZERO
        if not new_e.is_square_summable():
            return ProductOp(l, r)
        return RankOne(RuledVector(new_e), l.f)
    # a band scales the rows of a block and moves them by its offset, or
    # scales its columns and moves them back; each entry is one product, and
    # the -0.0 that a zero entry may give is cleared when the parts merge
    if isinstance(l, Band) and isinstance(r, FiniteMatrix):
        vals = np.array(l.rule.values_on(r.row_lo, r.row_hi))
        return _trim_finite(r.row_lo + l.offset, r.col_lo, vals[:, None] * r.as_array())
    if isinstance(l, FiniteMatrix) and isinstance(r, Band):
        col_lo = l.col_lo - r.offset  # column j of r lands in row j + offset
        vals = np.array(r.rule.values_on(col_lo, l.col_hi - r.offset))
        return _trim_finite(l.row_lo, col_lo, l.as_array() * vals[None, :])
    if isinstance(l, FiniteMatrix) and isinstance(r, FiniteMatrix):
        # align the contraction index: columns of l against rows of r
        k0, k1 = max(l.col_lo, r.row_lo), min(l.col_hi, r.row_hi)
        if k0 > k1:
            return ZERO
        la = l.as_array()[:, k0 - l.col_lo : k1 - l.col_lo + 1]
        ra = r.as_array()[k0 - r.row_lo : k1 - r.row_lo + 1, :]
        return _trim_finite(l.row_lo, r.col_lo, la @ ra)
    return ProductOp(l, r)


def _canon_once(T: OperatorExpr) -> OperatorExpr:
    """One rewrite of T over the canonical forms of its children."""
    if isinstance(T, (ZeroOp, Band, RankOne, FiniteMatrix)):
        return T
    if isinstance(T, SumOp):
        return op_sum(*_merge_parts([p for t in flatten_sum(T) for p in flatten_sum(canonicalize(t))]))
    if isinstance(T, ProductOp):
        lparts, rparts = flatten_sum(canonicalize(T.left)), flatten_sum(canonicalize(T.right))
        return op_sum(*_merge_parts([_pair_product(lp, rp) for lp in lparts for rp in rparts]))
    raise SchemaError(f"unknown node {T!r}")


_SELF = object()  # a stored form that is the node itself, kept without a self-reference


def canonicalize(T: OperatorExpr) -> OperatorExpr:
    """Rewrite to the product-free core in one pass, stored on T.

    One pass is a fixpoint: an atom is its own form, and every other
    branch of `_canon_once` returns op_sum(*_merge_parts(...)) of atoms
    and of the products of canonical parts that _pair_product cannot
    reduce.  A second pass sees the same parts, since each part is
    canonical itself and _pair_product gives the same product of the same
    parts, and the merge is idempotent (one band per offset, one block
    with no -0.0 entry, sorted).  So the result is marked as its own
    canonical form, and each live node is rewritten once.
    """
    known = T.__dict__.get("_canon")
    if known is not None:
        return T if known is _SELF else known
    C = _canon_once(T)
    C.__dict__["_canon"] = _SELF
    if C is not T:
        T.__dict__["_canon"] = C
    return C


def compress(T: OperatorExpr, lo, hi) -> OperatorExpr:
    """canonicalize(P T P) for P = interval_proj(lo, hi), stored on T per window.

    The compression is read off the support hulls of K = canonicalize(T)
    where they settle it: it is K when the row and column hulls both lie
    in the window lo < i <= hi, and zero when either hull misses the
    window or the window holds no index.  Both are exact, P T P = T and
    P T P = 0 as operators.  Every other window runs the product rewrite
    canonicalize(P K P), which starts from the canonical K instead of
    walking T again.  The decisions ask for the same compressions of
    their operands from question to question; the stored ones go when T
    does.
    """
    memo = T.__dict__.setdefault("_compressions", {})
    C = memo.get((lo, hi))
    if C is None:
        C = _compress(T, interval_proj(lo, hi))
        memo[(lo, hi)] = _SELF if C is T else C
    return T if C is _SELF else C


def _compress(T: OperatorExpr, p: OperatorExpr) -> OperatorExpr:
    if isinstance(p, ZeroOp):
        return ZERO
    K = canonicalize(T)
    w = p.rule.support  # the window's indices, exactly
    rows, cols = K._hulls  # empty for a zero K, which then comes out ZERO either way
    if rows.hi < w.lo or rows.lo > w.hi or cols.hi < w.lo or cols.lo > w.hi:
        return ZERO
    if w.lo <= rows.lo and rows.hi <= w.hi and w.lo <= cols.lo and cols.hi <= w.hi:
        return K
    return canonicalize(op_product(op_product(p, K), p))


def adjoint(T: OperatorExpr) -> OperatorExpr:
    """op_adjoint(T), stored on T; a self-adjoint T is marked, not stored on
    itself, and T keeps no adjoint that already keeps T, so stored adjoints
    make no reference cycle."""
    A = T.__dict__.get("_adjoint")
    if A is None:
        A = op_adjoint(T)
        if A is T:
            T.__dict__["_adjoint"] = _SELF
        elif A.__dict__.get("_adjoint") is not T:
            T.__dict__["_adjoint"] = A
    return T if A is _SELF else A


# ---------------------------------------------------------------------------
# metadata


def _shift_support(s: Support, d: int) -> Support:
    if s.is_empty or d == 0:
        return s
    lo = s.lo + d if math.isfinite(s.lo) else s.lo
    hi = s.hi + d if math.isfinite(s.hi) else s.hi
    return Support(lo, hi, s.exact)


def _hull(a: Support, b: Support) -> Support:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return Support(min(a.lo, b.lo), max(a.hi, b.hi), False)


def col_support(T: OperatorExpr) -> Support:
    if isinstance(T, ZeroOp):
        return EMPTY_SUPPORT
    if isinstance(T, Band):
        return T.rule.support
    if isinstance(T, RankOne):
        return T.e.rule.support
    if isinstance(T, FiniteMatrix):
        return Support(float(T.col_lo), float(T.col_hi), False)
    if isinstance(T, SumOp):
        return _hull(col_support(T.left), col_support(T.right))
    if isinstance(T, ProductOp):
        return col_support(T.right).intersect(NEG_INF, POS_INF)
    raise SchemaError(f"unknown node {T!r}")


def row_support(T: OperatorExpr) -> Support:
    if isinstance(T, ZeroOp):
        return EMPTY_SUPPORT
    if isinstance(T, Band):
        return _shift_support(T.rule.support, T.offset)
    if isinstance(T, RankOne):
        return T.f.rule.support
    if isinstance(T, FiniteMatrix):
        return Support(float(T.row_lo), float(T.row_hi), False)
    if isinstance(T, SumOp):
        return _hull(row_support(T.left), row_support(T.right))
    if isinstance(T, ProductOp):
        return row_support(T.left).intersect(NEG_INF, POS_INF)
    raise SchemaError(f"unknown node {T!r}")


def norm_bound(T: OperatorExpr) -> float:
    """Certified upper bound on the operator norm."""
    if isinstance(T, ZeroOp):
        return 0.0
    if isinstance(T, Band):
        return T.rule.sup_abs()
    if isinstance(T, RankOne):
        return T.e.norm_upper() * T.f.norm_upper()
    if isinstance(T, FiniteMatrix):
        return float(np.linalg.norm(T.as_array(), "fro"))
    if isinstance(T, SumOp):
        return norm_bound(T.left) + norm_bound(T.right)
    if isinstance(T, ProductOp):
        return norm_bound(T.left) * norm_bound(T.right)
    raise SchemaError(f"unknown node {T!r}")


def entry(T: OperatorExpr, i: int, j: int) -> float:
    """Exact matrix entry; expression must be product-free."""
    if isinstance(T, ZeroOp):
        return 0.0
    if isinstance(T, Band):
        return T.rule.value(j) if i == j + T.offset else 0.0
    if isinstance(T, RankOne):
        return T.e.value(j) * T.f.value(i)
    if isinstance(T, FiniteMatrix):
        if T.row_lo <= i <= T.row_hi and T.col_lo <= j <= T.col_hi:
            return T.rows[i - T.row_lo][j - T.col_lo]
        return 0.0
    if isinstance(T, SumOp):
        return entry(T.left, i, j) + entry(T.right, i, j)
    raise SchemaError(f"entry() needs a product-free expression, got {T!r}")


# ---------------------------------------------------------------------------
# rendering


def _check_window(lo: int, hi: int):
    if lo > hi:
        raise SchemaError(f"window [{lo}, {hi}] is empty")
    if hi - lo + 1 > RENDER_CAP:
        raise WindowTooLarge(f"window [{lo}, {hi}] exceeds the {RENDER_CAP} cap")


def render(T: OperatorExpr, lo: int, hi: int) -> np.ndarray:
    """Dense truncation on rows and columns lo..hi (inclusive)."""
    m, _ = render_with_leakage(T, lo, hi)
    return m


def render_with_leakage(T: OperatorExpr, lo: int, hi: int):
    """Truncation plus a certified bound on the product truncation error.

    The bound is zero whenever canonicalization eliminated all products,
    which is the case for the whole catalog grammar.
    """
    _check_window(lo, hi)
    C = canonicalize(T)
    n = hi - lo + 1
    out = np.zeros((n, n))
    leak = 0.0
    for part in flatten_sum(C):
        if isinstance(part, ProductOp):
            m, bound = _render_product(part, lo, hi)
            out += m
            leak += bound
        else:
            _add_exact(out, part, lo, hi)
    return out, leak


def _add_exact(out: np.ndarray, part: OperatorExpr, lo: int, hi: int):
    """Add the window lo..hi of a product-free part into out, in place."""
    if isinstance(part, Band):
        # columns j whose row j + offset also lies in the window
        j0, j1 = max(lo, lo - part.offset), min(hi, hi - part.offset)
        if j0 <= j1:
            j = np.arange(j0 - lo, j1 - lo + 1)
            out[j + part.offset, j] += part.rule.values_on(j0, j1)
    elif isinstance(part, RankOne):
        out += np.outer(part.f.values_on(lo, hi), part.e.values_on(lo, hi))
    elif isinstance(part, FiniteMatrix):
        r0, r1 = max(part.row_lo, lo), min(part.row_hi, hi)
        c0, c1 = max(part.col_lo, lo), min(part.col_hi, hi)
        if r0 <= r1 and c0 <= c1:
            out[r0 - lo : r1 - lo + 1, c0 - lo : c1 - lo + 1] += part.as_array()[
                r0 - part.row_lo : r1 - part.row_lo + 1, c0 - part.col_lo : c1 - part.col_lo + 1
            ]
    elif isinstance(part, SumOp):
        _add_exact(out, part.left, lo, hi)
        _add_exact(out, part.right, lo, hi)
    elif not isinstance(part, ZeroOp):
        raise SchemaError(f"cannot render {part!r} exactly")


def _render_product(part: OperatorExpr, lo: int, hi: int):
    """Windowed product with an enlarged internal window and an error bound."""
    width = hi - lo + 1
    elo, ehi = lo - width, hi + width
    if ehi - elo + 1 > RENDER_CAP:
        elo, ehi = lo, hi  # cap reached; the leakage bound stays honest
    ml, bl = render_with_leakage(part.left, elo, ehi)
    mr, br = render_with_leakage(part.right, elo, ehi)
    full = ml @ mr
    s = lo - elo
    cropped = full[s : s + width, s : s + width]
    # contraction indices outside the enlarged window
    row_tail = _row_sq_tail_beyond(part.left, elo, ehi)
    col_tail = _col_sq_tail_beyond(part.right, elo, ehi)
    leak = width * math.sqrt(row_tail) * math.sqrt(col_tail)
    nl, nr = norm_bound(part.left), norm_bound(part.right)
    leak = min(leak, nl * nr) if math.isfinite(leak) else nl * nr
    leak += bl * nr + br * nl
    return cropped, leak


def _col_sq_tail_beyond(T: OperatorExpr, lo: int, hi: int) -> float:
    """Upper bound on sup_j sum of squared entries in rows outside [lo, hi]."""
    C = canonicalize(T)
    total = 0.0
    for part in flatten_sum(C):
        if isinstance(part, Band):
            s = part.rule.sup_abs()
            rs = _shift_support(part.rule.support, part.offset)
            if rs.lo < lo or rs.hi > hi:
                total += s * s
        elif isinstance(part, RankOne):
            t = part.f.rule.sq_tail(hi + 1, +1) + part.f.rule.sq_tail(lo - 1, -1)
            total += part.e.norm_upper() ** 2 * t
        elif isinstance(part, FiniteMatrix):
            if part.row_lo < lo or part.row_hi > hi:
                total += float(np.sum(part.as_array() ** 2))
        else:
            total += norm_bound(part) ** 2
    return total


def _row_sq_tail_beyond(T: OperatorExpr, lo: int, hi: int) -> float:
    """Upper bound on sup_i sum of squared entries in columns outside [lo, hi]."""
    return _col_sq_tail_beyond(op_adjoint(T), lo, hi)


# ---------------------------------------------------------------------------
# serialization


def parse_operator(doc) -> OperatorExpr:
    return from_schema(OPERATOR_SCHEMA, doc)


def operator_to_json(T: OperatorExpr) -> dict:
    return to_schema(OPERATOR_SCHEMA, T)


def _product_of(factors) -> OperatorExpr:
    if not factors:
        raise SchemaError("product needs at least one factor")
    return reduce(op_product, factors)


OPERATOR = Codec(parse_operator, operator_to_json)
OPERATORS = Codec(lambda docs: [parse_operator(d) for d in docs], lambda ts: [operator_to_json(t) for t in ts])
VECTOR = Codec(lambda doc: make_vector(rule_from_json(doc)), lambda v: rule_to_json(v.rule))
ROWS = Codec(list, lambda rows: [list(r) for r in rows])
TEXT = Codec(str, str)

# diag, wshift, identity, interval_proj, scale and adjoint are read only:
# every band is written as `band`, and the others build bands or push
# scalars and adjoints down
OPERATOR_SCHEMA = Schema("op", "operator", (
    Row("zero", ZeroOp, lambda: ZERO),
    Row("identity", None, identity),
    Row("diag", None, diag, (Field("rule", RULE),)),
    Row("wshift", None, wshift, (Field("rule", RULE), Field("direction", TEXT, "lower"))),
    Row("band", Band, band, (Field("rule", RULE), Field("offset", INT))),
    Row("interval_proj", None, interval_proj, (Field("lo", BOUND, None), Field("hi", BOUND, None))),
    Row("rank_one", RankOne, rank_one, (Field("e", VECTOR), Field("f", VECTOR))),
    Row("finite_matrix", FiniteMatrix, finite_matrix,
        (Field("row_lo", INT, 1), Field("col_lo", INT, 1), Field("entries", ROWS, attr="rows"))),
    Row("sum", SumOp, lambda terms: op_sum(*terms), (Field("terms", OPERATORS),)),
    Row("sum", None, op_sum, (Field("left", OPERATOR), Field("right", OPERATOR))),
    Row("scale", None, op_scale, (Field("scalar", NUMBER), Field("x", OPERATOR))),
    Row("product", None, _product_of, (Field("factors", OPERATORS),)),
    Row("product", ProductOp, op_product, (Field("left", OPERATOR), Field("right", OPERATOR))),
    Row("adjoint", None, op_adjoint, (Field("x", OPERATOR),)),
))

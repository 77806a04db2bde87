"""Scalar index sequences with certified structural metadata.

Diagonal coefficients, shift weights, and vector entries are all drawn
from a small closed grammar of sequence rules.  Every rule can evaluate
itself at any integer index and also answers a fixed set of structural
questions used by the decision procedures:

  support        interval bounding the nonzero indices, with an exactness flag
  sup_abs        certified upper bound on sup |r(i)|
  limit          the limit toward +inf or -inf when one is certified
  tail_sup       certified upper bound on limsup |r(i)| in a direction
  infinite_plateau  three-valued: is |r(i)| >= t on infinitely many i
                    in a direction (True/False only when certified)
  sq_tail        certified upper bound on the sum of r(i)^2 from an index
                 onward (may be +inf)
  periodic_profile  eventual periodicity witness making plateau scans exact

All bounds are one-sided promises, never estimates: looseness only ever
weakens a derived norm envelope, it cannot flip a verdict.

Rules, like the operator expressions built on them, are interned nodes
(see Node): equal trees are one object, equality is identity, and each
rule computes its support once.
"""

from __future__ import annotations

import inspect
import math
import struct
import weakref
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple

from .errors import SchemaError, UnboundedRule, UnknownSupport

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class Support:
    """Interval [lo, hi] containing every nonzero index; empty iff lo > hi.

    exact means lo and hi are attained: lo is the least nonzero index (or
    nonzero indices extend to -inf when lo is -inf), and same for hi.
    """

    lo: float
    hi: float
    exact: bool

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def intersect(self, lo: float, hi: float) -> "Support":
        return Support(max(self.lo, lo), min(self.hi, hi), False)


EMPTY_SUPPORT = Support(POS_INF, NEG_INF, True)
FULL_SUPPORT = Support(NEG_INF, POS_INF, True)


def _side_contains(n: int, direction: int, i: float) -> bool:
    return i >= n if direction > 0 else i <= n


# ---------------------------------------------------------------------------
# interning: one live object per distinct expression node


def _table_bits(rows) -> tuple:
    """Rows of numbers (or (index, value) pairs) by shape and double bits."""
    return len(rows), array("d", chain.from_iterable(rows)).tobytes()


# fields keyed by their bits, by annotation; every other field by value,
# which for a node field is its identity
_FIELD_KEYS = {"float": struct.Struct("<d").pack, "tuple": _table_bits}
_INTERNED = {}  # key -> weak reference to the live node with that key


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref):
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


class Node:
    """Base of the expression nodes, frozen dataclasses with init=False and
    eq=False: calling a node class with the fields of a live node returns
    that node, so equal trees are one object, and equality and hashing are
    by identity.  Pickling and copying call the class too.  Floats are
    keyed by their bits, so -0.0 and 0.0 stay apart.
    """

    _fields, _field_keys, _signature = (), None, inspect.Signature()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__annotations__")
        if fields:
            keys = tuple(_FIELD_KEYS.get(t) for t in fields.values())
            cls._fields, cls._field_keys = tuple(fields), keys if any(keys) else None
            cls._signature = inspect.Signature(
                [inspect.Parameter(f, inspect.Parameter.POSITIONAL_OR_KEYWORD) for f in fields]
            )

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):  # binds keywords, or raises TypeError
            args = tuple(cls._signature.bind(*args, **kwargs).arguments.values())
        keys = cls._field_keys
        if keys is None:
            key = (cls.__name__, *args)
        else:
            key = (cls.__name__, *[a if k is None else k(a) for k, a in zip(keys, args)])
        ref = _INTERNED.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            node.__dict__.update(zip(cls._fields, args))
            _INTERNED[key] = ref = _Ref(node, _forget)
            ref.key = key
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class SeqRule(Node):
    """Base class of the rule nodes."""

    def value(self, i: int) -> float:
        raise NotImplementedError

    @property
    def support(self) -> Support:
        raise NotImplementedError

    def sup_abs(self) -> float:
        raise NotImplementedError

    def limit(self, direction: int):
        raise NotImplementedError

    def tail_sup(self, direction: int) -> float:
        raise NotImplementedError

    def sq_tail(self, n: int, direction: int) -> float:
        raise NotImplementedError

    def is_square_summable(self):
        return None

    def never_zero(self) -> bool:
        return False

    def sign_class(self):
        """'nonneg' / 'nonpos' when all values share a sign, else None."""
        return None

    def periodic_profile(self, direction: int):
        return None

    def infinite_plateau(self, threshold: float, direction: int):
        """True/False when certified, None when this rule cannot tell."""
        if threshold <= 0:
            raise ValueError("plateau threshold must be positive")
        if self.tail_sup(direction) < threshold:
            return False
        profile = self.periodic_profile(direction)
        if profile is not None:
            return _scan_period(self, threshold, direction, profile)
        return None

    def sq_total(self) -> float:
        return self.sq_tail(0, -1) + self.sq_tail(1, +1)

    def values_on(self, lo: int, hi: int) -> list:
        return [self.value(i) for i in range(lo, hi + 1)]


def _scan_period(rule: SeqRule, threshold: float, direction: int, profile) -> bool:
    period, start = profile
    for k in range(period):
        if abs(rule.value(start + direction * k)) >= threshold:
            return True
    return False


# ---------------------------------------------------------------------------
# atomic kinds


@dataclass(frozen=True, eq=False, init=False)
class ConstRule(SeqRule):
    c: float

    def value(self, i: int) -> float:
        return self.c

    @cached_property
    def support(self) -> Support:
        return FULL_SUPPORT if self.c != 0.0 else EMPTY_SUPPORT

    def sup_abs(self) -> float:
        return abs(self.c)

    def limit(self, direction: int):
        return self.c

    def tail_sup(self, direction: int) -> float:
        return abs(self.c)

    def sq_tail(self, n: int, direction: int) -> float:
        return 0.0 if self.c == 0.0 else POS_INF

    def is_square_summable(self):
        return self.c == 0.0

    def never_zero(self) -> bool:
        return self.c != 0.0

    def sign_class(self):
        return "nonneg" if self.c >= 0.0 else "nonpos"

    def periodic_profile(self, direction: int):
        return (1, 0)


@dataclass(frozen=True, eq=False, init=False)
class IndicatorRule(SeqRule):
    """1 on the integer interval [lo, hi], 0 elsewhere; endpoints may be inf."""

    lo: float
    hi: float

    def value(self, i: int) -> float:
        return 1.0 if self.lo <= i <= self.hi else 0.0

    @cached_property
    def support(self) -> Support:
        return Support(self.lo, self.hi, True)

    def sup_abs(self) -> float:
        return 1.0

    def limit(self, direction: int):
        if direction > 0:
            return 1.0 if self.hi == POS_INF else 0.0
        return 1.0 if self.lo == NEG_INF else 0.0

    def tail_sup(self, direction: int) -> float:
        return self.limit(direction)

    def sq_tail(self, n: int, direction: int) -> float:
        if direction > 0:
            lo, hi = max(self.lo, n), self.hi
        else:
            lo, hi = self.lo, min(self.hi, n)
        if lo > hi:
            return 0.0
        if not math.isfinite(hi - lo):
            return POS_INF
        return hi - lo + 1.0

    def is_square_summable(self):
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def sign_class(self):
        return "nonneg"

    def periodic_profile(self, direction: int):
        if direction > 0:
            if self.hi == POS_INF:
                return (1, int(self.lo) if math.isfinite(self.lo) else 0)
            return (1, int(self.hi) + 1)
        if self.lo == NEG_INF:
            return (1, int(self.hi) if math.isfinite(self.hi) else 0)
        return (1, int(self.lo) - 1)


@dataclass(frozen=True, eq=False, init=False)
class PowerDecayRule(SeqRule):
    """|i|^(-p) away from the origin, 0 at i = 0; p > 0."""

    p: float

    def value(self, i: int) -> float:
        return 0.0 if i == 0 else abs(i) ** (-self.p)

    @cached_property
    def support(self) -> Support:
        return FULL_SUPPORT

    def sup_abs(self) -> float:
        return 1.0

    def limit(self, direction: int):
        return 0.0

    def tail_sup(self, direction: int) -> float:
        return 0.0

    def _one_sided(self, m: int) -> float:
        # sum_{i >= m} i^(-2p) for m >= 1, by integral comparison
        q = 2.0 * self.p
        if q <= 1.0:
            return POS_INF
        return float(m) ** (-q) + float(m) ** (1.0 - q) / (q - 1.0)

    def sq_tail(self, n: int, direction: int) -> float:
        n = n if direction > 0 else -n
        # by symmetry reduce to the i >= n side
        if n >= 1:
            return self._one_sided(n)
        head = sum(self.value(i) ** 2 for i in range(n, 1))
        return head + self._one_sided(1)

    def is_square_summable(self):
        return self.p > 0.5

    def sign_class(self):
        return "nonneg"


@dataclass(frozen=True, eq=False, init=False)
class GeomDecayRule(SeqRule):
    """r^|i| with 0 < |r| < 1."""

    r: float

    def value(self, i: int) -> float:
        return self.r ** abs(i)

    @cached_property
    def support(self) -> Support:
        return FULL_SUPPORT

    def sup_abs(self) -> float:
        return 1.0

    def limit(self, direction: int):
        return 0.0

    def tail_sup(self, direction: int) -> float:
        return 0.0

    def sq_tail(self, n: int, direction: int) -> float:
        n = n if direction > 0 else -n
        s = self.r * self.r
        if n >= 0:
            return s ** n / (1.0 - s)
        head = sum(s ** abs(i) for i in range(n, 0))
        return head + 1.0 / (1.0 - s)

    def is_square_summable(self):
        return True

    def never_zero(self) -> bool:
        return True

    def sign_class(self):
        # negative ratios alternate sign along the axis
        return "nonneg" if self.r >= 0.0 else None


@dataclass(frozen=True, eq=False, init=False)
class FiniteRule(SeqRule):
    """Explicit finitely supported table; entries sorted, values nonzero."""

    entries: tuple  # of (index, value)

    def value(self, i: int) -> float:
        for j, v in self.entries:
            if j == i:
                return v
        return 0.0

    @cached_property
    def support(self) -> Support:
        if not self.entries:
            return EMPTY_SUPPORT
        return Support(float(self.entries[0][0]), float(self.entries[-1][0]), True)

    def sup_abs(self) -> float:
        return max((abs(v) for _, v in self.entries), default=0.0)

    def limit(self, direction: int):
        return 0.0

    def tail_sup(self, direction: int) -> float:
        return 0.0

    def sq_tail(self, n: int, direction: int) -> float:
        return sum(v * v for j, v in self.entries if _side_contains(n, direction, j))

    def is_square_summable(self):
        return True

    def sign_class(self):
        if all(v >= 0.0 for _, v in self.entries):
            return "nonneg"
        if all(v <= 0.0 for _, v in self.entries):
            return "nonpos"
        return None

    def periodic_profile(self, direction: int):
        sup = self.support
        if sup.is_empty:
            return (1, 0)
        if direction > 0:
            return (1, int(sup.hi) + 1)
        return (1, int(sup.lo) - 1)


@dataclass(frozen=True, eq=False, init=False)
class CombRule(SeqRule):
    """1 on a residue class mod m, 0 elsewhere; the canonical plateau."""

    modulus: int
    residue: int

    def value(self, i: int) -> float:
        return 1.0 if i % self.modulus == self.residue else 0.0

    @cached_property
    def support(self) -> Support:
        return FULL_SUPPORT

    def sup_abs(self) -> float:
        return 1.0

    def limit(self, direction: int):
        return None

    def tail_sup(self, direction: int) -> float:
        return 1.0

    def sq_tail(self, n: int, direction: int) -> float:
        return POS_INF

    def is_square_summable(self):
        return False

    def sign_class(self):
        return "nonneg"

    def periodic_profile(self, direction: int):
        return (self.modulus, 0)


# ---------------------------------------------------------------------------
# combinators


@dataclass(frozen=True, eq=False, init=False)
class ScaledRule(SeqRule):
    base: SeqRule
    factor: float

    def value(self, i: int) -> float:
        return self.factor * self.base.value(i)

    @cached_property
    def support(self) -> Support:
        return self.base.support

    def sup_abs(self) -> float:
        return abs(self.factor) * self.base.sup_abs()

    def limit(self, direction: int):
        lim = self.base.limit(direction)
        return None if lim is None else self.factor * lim

    def tail_sup(self, direction: int) -> float:
        return abs(self.factor) * self.base.tail_sup(direction)

    def sq_tail(self, n: int, direction: int) -> float:
        return self.factor * self.factor * self.base.sq_tail(n, direction)

    def is_square_summable(self):
        return self.base.is_square_summable()

    def never_zero(self) -> bool:
        return self.base.never_zero()

    def sign_class(self):
        base = self.base.sign_class()
        if base is None or self.factor == 0.0:
            return base if self.factor != 0.0 else "nonneg"
        if self.factor > 0.0:
            return base
        return "nonpos" if base == "nonneg" else "nonneg"

    def periodic_profile(self, direction: int):
        return self.base.periodic_profile(direction)

    def infinite_plateau(self, threshold: float, direction: int):
        return self.base.infinite_plateau(threshold / abs(self.factor), direction)


@dataclass(frozen=True, eq=False, init=False)
class ShiftedRule(SeqRule):
    base: SeqRule
    offset: int

    def value(self, i: int) -> float:
        return self.base.value(i - self.offset)

    @cached_property
    def support(self) -> Support:
        sup = self.base.support
        if sup.is_empty:
            return sup
        lo = sup.lo + self.offset if math.isfinite(sup.lo) else sup.lo
        hi = sup.hi + self.offset if math.isfinite(sup.hi) else sup.hi
        return Support(lo, hi, sup.exact)

    def sup_abs(self) -> float:
        return self.base.sup_abs()

    def limit(self, direction: int):
        return self.base.limit(direction)

    def tail_sup(self, direction: int) -> float:
        return self.base.tail_sup(direction)

    def sq_tail(self, n: int, direction: int) -> float:
        return self.base.sq_tail(n - self.offset, direction)

    def is_square_summable(self):
        return self.base.is_square_summable()

    def never_zero(self) -> bool:
        return self.base.never_zero()

    def sign_class(self):
        return self.base.sign_class()

    def periodic_profile(self, direction: int):
        profile = self.base.periodic_profile(direction)
        if profile is None:
            return None
        period, start = profile
        return (period, start + self.offset)

    def infinite_plateau(self, threshold: float, direction: int):
        return self.base.infinite_plateau(threshold, direction)


@dataclass(frozen=True, eq=False, init=False)
class MaskedRule(SeqRule):
    """base on the interval [lo, hi], 0 outside."""

    base: SeqRule
    lo: float
    hi: float

    def value(self, i: int) -> float:
        return self.base.value(i) if self.lo <= i <= self.hi else 0.0

    @cached_property
    def support(self) -> Support:
        bs = self.base.support
        lo, hi = max(bs.lo, self.lo), min(bs.hi, self.hi)
        if lo > hi:
            return EMPTY_SUPPORT
        lo_ok = (math.isfinite(lo) and self.base.value(int(lo)) != 0.0) or (
            lo == NEG_INF and bs.exact
        )
        hi_ok = (math.isfinite(hi) and self.base.value(int(hi)) != 0.0) or (
            hi == POS_INF and bs.exact
        )
        return Support(lo, hi, bs.exact and lo_ok and hi_ok)

    def sup_abs(self) -> float:
        return self.base.sup_abs()

    def _side_infinite(self, direction: int) -> bool:
        return self.hi == POS_INF if direction > 0 else self.lo == NEG_INF

    def limit(self, direction: int):
        if not self._side_infinite(direction):
            return 0.0
        return self.base.limit(direction)

    def tail_sup(self, direction: int) -> float:
        if not self._side_infinite(direction):
            return 0.0
        return self.base.tail_sup(direction)

    def sq_tail(self, n: int, direction: int) -> float:
        if direction > 0:
            if n > self.hi:
                return 0.0
            return self.base.sq_tail(max(n, int(self.lo)) if math.isfinite(self.lo) else n, direction)
        if n < self.lo:
            return 0.0
        return self.base.sq_tail(min(n, int(self.hi)) if math.isfinite(self.hi) else n, direction)

    def is_square_summable(self):
        if math.isfinite(self.lo) and math.isfinite(self.hi):
            return True
        base = self.base.is_square_summable()
        if base:
            return True
        return None

    def sign_class(self):
        # masking only zeroes values outside the window
        return self.base.sign_class()

    def periodic_profile(self, direction: int):
        if not self._side_infinite(direction):
            if direction > 0:
                return (1, int(self.hi) + 1)
            return (1, int(self.lo) - 1)
        profile = self.base.periodic_profile(direction)
        if profile is None:
            return None
        period, start = profile
        if direction > 0:
            return (period, max(start, int(self.lo)) if math.isfinite(self.lo) else start)
        return (period, min(start, int(self.hi)) if math.isfinite(self.hi) else start)

    def infinite_plateau(self, threshold: float, direction: int):
        if not self._side_infinite(direction):
            return False
        return SeqRule.infinite_plateau(self, threshold, direction) if self.periodic_profile(direction) is not None else self.base.infinite_plateau(threshold, direction)


@dataclass(frozen=True, eq=False, init=False)
class ProductRule(SeqRule):
    left: SeqRule
    right: SeqRule

    def value(self, i: int) -> float:
        return self.left.value(i) * self.right.value(i)

    @cached_property
    def support(self) -> Support:
        ls, rs = self.left.support, self.right.support
        lo, hi = max(ls.lo, rs.lo), min(ls.hi, rs.hi)
        if lo > hi:
            return EMPTY_SUPPORT
        exact = False
        if ls.exact and rs.exact:
            lo_ok = (math.isfinite(lo) and self.value(int(lo)) != 0.0) or (
                lo == NEG_INF
                and ((self.left.never_zero() and rs.lo == NEG_INF) or (self.right.never_zero() and ls.lo == NEG_INF))
            )
            hi_ok = (math.isfinite(hi) and self.value(int(hi)) != 0.0) or (
                hi == POS_INF
                and ((self.left.never_zero() and rs.hi == POS_INF) or (self.right.never_zero() and ls.hi == POS_INF))
            )
            exact = lo_ok and hi_ok
        return Support(lo, hi, exact)

    def sup_abs(self) -> float:
        return self.left.sup_abs() * self.right.sup_abs()

    def limit(self, direction: int):
        ll, rl = self.left.limit(direction), self.right.limit(direction)
        if ll is not None and rl is not None:
            return ll * rl
        if ll == 0.0 or rl == 0.0:
            return 0.0
        return None

    def tail_sup(self, direction: int) -> float:
        # limsup |fg| <= limsup |f| * limsup |g| for bounded sequences
        return self.left.tail_sup(direction) * self.right.tail_sup(direction)

    def sq_tail(self, n: int, direction: int) -> float:
        a = self.left.sup_abs() ** 2 * self.right.sq_tail(n, direction)
        b = self.right.sup_abs() ** 2 * self.left.sq_tail(n, direction)
        return min(a, b)

    def is_square_summable(self):
        if self.left.is_square_summable() or self.right.is_square_summable():
            return True
        return None

    def never_zero(self) -> bool:
        return self.left.never_zero() and self.right.never_zero()

    def sign_class(self):
        ls, rs = self.left.sign_class(), self.right.sign_class()
        if ls is None or rs is None:
            return None
        return "nonneg" if ls == rs else "nonpos"

    def periodic_profile(self, direction: int):
        return _combine_profiles(self.left, self.right, direction)


@dataclass(frozen=True, eq=False, init=False)
class SumRule(SeqRule):
    left: SeqRule
    right: SeqRule

    def value(self, i: int) -> float:
        return self.left.value(i) + self.right.value(i)

    @cached_property
    def support(self) -> Support:
        ls, rs = self.left.support, self.right.support
        if ls.is_empty:
            return rs
        if rs.is_empty:
            return ls
        lo, hi = min(ls.lo, rs.lo), max(ls.hi, rs.hi)
        exact = False
        if ls.exact and rs.exact:
            # an infinite end is certified when cancellation is impossible
            # there: only one side reaches it, both sides share a sign, or
            # the sum has a nonzero limit in that direction
            same_sign = self.sign_class() is not None

            def _inf_ok(direction: int, l_end: float, r_end: float, end: float) -> bool:
                if same_sign or (l_end == end) != (r_end == end):
                    return True
                lim = self.limit(direction)
                return lim is not None and lim != 0.0

            lo_ok = (math.isfinite(lo) and self.value(int(lo)) != 0.0) or (
                lo == NEG_INF and _inf_ok(-1, ls.lo, rs.lo, NEG_INF)
            )
            hi_ok = (math.isfinite(hi) and self.value(int(hi)) != 0.0) or (
                hi == POS_INF and _inf_ok(+1, ls.hi, rs.hi, POS_INF)
            )
            exact = lo_ok and hi_ok
        return Support(lo, hi, exact)

    def sup_abs(self) -> float:
        return self.left.sup_abs() + self.right.sup_abs()

    def limit(self, direction: int):
        ll, rl = self.left.limit(direction), self.right.limit(direction)
        if ll is None or rl is None:
            return None
        return ll + rl

    def tail_sup(self, direction: int) -> float:
        return self.left.tail_sup(direction) + self.right.tail_sup(direction)

    def sq_tail(self, n: int, direction: int) -> float:
        a, b = self.left.sq_tail(n, direction), self.right.sq_tail(n, direction)
        if a == POS_INF or b == POS_INF:
            return POS_INF
        return (math.sqrt(a) + math.sqrt(b)) ** 2

    def is_square_summable(self):
        ls, rs = self.left.is_square_summable(), self.right.is_square_summable()
        if ls and rs:
            return True
        if (ls is True and rs is False) or (ls is False and rs is True):
            return False
        return None

    def sign_class(self):
        ls, rs = self.left.sign_class(), self.right.sign_class()
        if ls is not None and ls == rs:
            return ls
        return None

    def periodic_profile(self, direction: int):
        return _combine_profiles(self.left, self.right, direction)

    def infinite_plateau(self, threshold: float, direction: int):
        base = SeqRule.infinite_plateau(self, threshold, direction)
        if base is not None:
            return base
        # dominance: one side plateaus strictly above threshold + other's limsup
        for big, small in ((self.left, self.right), (self.right, self.left)):
            gap = big.tail_sup(direction) - threshold - small.tail_sup(direction)
            if gap > 0:
                got = big.infinite_plateau(threshold + small.tail_sup(direction) + gap / 2, direction)
                if got:
                    return True
        return None


def _combine_profiles(left: SeqRule, right: SeqRule, direction: int):
    lp, rp = left.periodic_profile(direction), right.periodic_profile(direction)
    if lp is None or rp is None:
        return None
    period = math.lcm(lp[0], rp[0])
    start = max(lp[1], rp[1]) if direction > 0 else min(lp[1], rp[1])
    return (period, start)


# ---------------------------------------------------------------------------
# smart constructors

ZERO_RULE = ConstRule(0.0)
ONE_RULE = ConstRule(1.0)


def rule_const(c: float) -> SeqRule:
    if not math.isfinite(c):
        raise UnboundedRule(f"constant {c} is not finite")
    return ConstRule(float(c))


def _integer_ends(lo, hi):
    """The ends of the integers in [lo, hi]: None is an open end, and a
    fractional end rounds inward, so every finite end is an integer."""
    lo = NEG_INF if lo is None else float(lo)
    hi = POS_INF if hi is None else float(hi)
    return (lo if math.isinf(lo) else float(math.ceil(lo)),
            hi if math.isinf(hi) else float(math.floor(hi)))


def _no_integers(lo: float, hi: float) -> bool:
    return lo > hi or lo == POS_INF or hi == NEG_INF


def rule_indicator(lo, hi) -> SeqRule:
    lo, hi = _integer_ends(lo, hi)
    if _no_integers(lo, hi):
        return ZERO_RULE
    if lo == NEG_INF and hi == POS_INF:
        return ONE_RULE
    return IndicatorRule(lo, hi)


def rule_power(p: float) -> SeqRule:
    if p <= 0:
        raise SchemaError(f"power decay needs p > 0, got {p}")
    return PowerDecayRule(float(p))


def rule_harmonic() -> SeqRule:
    return rule_power(1.0)


def rule_geometric(r: float) -> SeqRule:
    if abs(r) >= 1.0:
        raise UnboundedRule(f"geometric ratio must satisfy |r| < 1, got {r}")
    if r == 0.0:
        return FiniteRule(((0, 1.0),))
    return GeomDecayRule(float(r))


def rule_finite(table) -> SeqRule:
    entries = []
    for k, v in table.items() if isinstance(table, dict) else table:
        idx = int(k)
        val = float(v)
        if val != 0.0:
            entries.append((idx, val))
    entries.sort()
    if len(set(j for j, _ in entries)) != len(entries):
        raise SchemaError("finite rule table has duplicate indices")
    return FiniteRule(tuple(entries))


def rule_comb(modulus: int, residue: int) -> SeqRule:
    if modulus < 1:
        raise SchemaError(f"comb modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return ONE_RULE
    return CombRule(modulus, residue % modulus)


def rule_scale(rule: SeqRule, factor: float) -> SeqRule:
    if factor == 0.0 or isinstance(rule, ConstRule) and rule.c == 0.0:
        return ZERO_RULE
    if factor == 1.0:
        return rule
    if isinstance(rule, ConstRule):
        return ConstRule(rule.c * factor)
    if isinstance(rule, FiniteRule):
        return FiniteRule(tuple((j, v * factor) for j, v in rule.entries))
    if isinstance(rule, ScaledRule):
        return rule_scale(rule.base, rule.factor * factor)
    return ScaledRule(rule, float(factor))


def rule_shift(rule: SeqRule, offset: int) -> SeqRule:
    if offset == 0 or isinstance(rule, ConstRule):
        return rule
    if isinstance(rule, IndicatorRule):
        return rule_indicator(
            rule.lo + offset if math.isfinite(rule.lo) else None,
            rule.hi + offset if math.isfinite(rule.hi) else None,
        )
    if isinstance(rule, FiniteRule):
        return FiniteRule(tuple((j + offset, v) for j, v in rule.entries))
    if isinstance(rule, CombRule):
        return CombRule(rule.modulus, (rule.residue + offset) % rule.modulus)
    if isinstance(rule, ShiftedRule):
        return rule_shift(rule.base, rule.offset + offset)
    return ShiftedRule(rule, int(offset))


def rule_mask(rule: SeqRule, lo, hi) -> SeqRule:
    lo, hi = _integer_ends(lo, hi)
    if _no_integers(lo, hi) or rule.support.is_empty:
        return ZERO_RULE
    if lo == NEG_INF and hi == POS_INF:
        return rule
    sup = rule.support
    if sup.lo >= lo and sup.hi <= hi:
        return rule  # mask does not trim the support interval
    if isinstance(rule, ConstRule):
        return rule_scale(rule_indicator(lo, hi), rule.c)
    if isinstance(rule, IndicatorRule):
        return rule_indicator(max(rule.lo, lo), min(rule.hi, hi))
    if isinstance(rule, FiniteRule):
        return FiniteRule(tuple((j, v) for j, v in rule.entries if lo <= j <= hi))
    if isinstance(rule, MaskedRule):
        return rule_mask(rule.base, max(rule.lo, lo), min(rule.hi, hi))
    masked = MaskedRule(rule, lo, hi)
    return ZERO_RULE if masked.support.is_empty else masked


def rule_product(a: SeqRule, b: SeqRule) -> SeqRule:
    for x, y in ((a, b), (b, a)):
        if isinstance(x, ConstRule):
            return rule_scale(y, x.c)
        if isinstance(x, IndicatorRule):
            return rule_mask(y, x.lo, x.hi)
    if isinstance(a, GeomDecayRule) and isinstance(b, GeomDecayRule):
        return rule_geometric(a.r * b.r)
    if isinstance(a, PowerDecayRule) and isinstance(b, PowerDecayRule):
        return PowerDecayRule(a.p + b.p)
    if isinstance(a, FiniteRule):
        return FiniteRule(tuple((j, v * b.value(j)) for j, v in a.entries if v * b.value(j) != 0.0))
    if isinstance(b, FiniteRule):
        return FiniteRule(tuple((j, v * a.value(j)) for j, v in b.entries if v * a.value(j) != 0.0))
    if isinstance(a, ScaledRule):
        return rule_scale(rule_product(a.base, b), a.factor)
    if isinstance(b, ScaledRule):
        return rule_scale(rule_product(a, b.base), b.factor)
    if isinstance(a, MaskedRule):
        return rule_mask(rule_product(a.base, b), a.lo, a.hi)
    if isinstance(b, MaskedRule):
        return rule_mask(rule_product(a, b.base), b.lo, b.hi)
    return ProductRule(a, b)


def rule_sum(a: SeqRule, b: SeqRule) -> SeqRule:
    if isinstance(a, ConstRule) and a.c == 0.0:
        return b
    if isinstance(b, ConstRule) and b.c == 0.0:
        return a
    if isinstance(a, ConstRule) and isinstance(b, ConstRule):
        return rule_const(a.c + b.c)
    if isinstance(a, FiniteRule) and isinstance(b, FiniteRule):
        table = {}
        for j, v in a.entries + b.entries:
            table[j] = table.get(j, 0.0) + v
        return rule_finite(table)
    return SumRule(a, b)


SCAN_BUDGET = 512  # indices one nonzero scan may visit


def nonzero_indices(rule: SeqRule, start: float, count: int = 1, stop: float = POS_INF) -> list:
    """Up to `count` indices i in [start, stop] where the rule is nonzero.

    At most SCAN_BUDGET indices are visited; an infinite start begins the
    scan at -SCAN_BUDGET // 2.
    """
    first = int(start) if math.isfinite(start) else -SCAN_BUDGET // 2
    out = []
    for i in range(first, int(min(stop, first + SCAN_BUDGET - 1)) + 1):
        if rule.value(i) != 0.0:
            out.append(i)
            if len(out) >= count:
                break
    return out


def exact_support(rule: SeqRule, scan_budget: int = 64) -> Support:
    """Support with certified-attained endpoints; raises when uncertifiable.

    A shifted rule is certified through its base, which a failure names:
    the rows of a band, found as the columns of its adjoint, keep the
    name of the rule as written.
    """
    if isinstance(rule, ShiftedRule):
        sup = _certified_support(rule.base, scan_budget)
        return sup if sup.is_empty else Support(sup.lo + rule.offset, sup.hi + rule.offset, True)
    return _certified_support(rule, scan_budget)


def _certified_support(rule: SeqRule, scan_budget: int) -> Support:
    sup = rule.support
    if sup.is_empty or sup.exact:
        return sup
    lo, hi = sup.lo, sup.hi

    def tighten(start: float, direction: int):
        if math.isfinite(start):
            for k in range(scan_budget + 1):
                i = int(start) + direction * k
                if (i > hi if direction > 0 else i < lo):
                    return None  # ran past the other end: empty
                if rule.value(i) != 0.0:
                    return float(i)
            raise UnknownSupport(f"could not certify a support endpoint of {rule!r}")
        # the infinite end lies against the inward scan direction
        ts = rule.tail_sup(-direction)
        if ts > 0 and rule.infinite_plateau(ts / 2.0, -direction):
            return start
        raise UnknownSupport(f"could not certify the infinite support end of {rule!r}")

    new_lo = tighten(lo, +1)
    if new_lo is None:
        return EMPTY_SUPPORT
    new_hi = tighten(hi, -1)
    if new_hi is None:
        return EMPTY_SUPPORT
    return Support(new_lo, new_hi, True)


# ---------------------------------------------------------------------------
# serialization: one kind table per grammar, read and written by one walker

_INF_STRINGS = {"inf": POS_INF, "+inf": POS_INF, "-inf": NEG_INF}
_REQUIRED = object()


def bound_to_json(x: float):
    """An interval end or cut value as JSON: an int, or "inf" / "-inf"."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return int(x)


def bound_from_json(x):
    """None (an open end), a number, or one of "inf", "+inf", "-inf"."""
    if x is None or isinstance(x, (int, float)) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and x in _INF_STRINGS:
        return _INF_STRINGS[x]
    raise SchemaError(f"bad interval bound {x!r}")


class Codec(NamedTuple):
    load: Callable  # JSON value -> smart-constructor argument
    dump: Callable  # node attribute -> JSON value


class Field(NamedTuple):
    key: str
    codec: Codec
    default: object = _REQUIRED  # used when the key is absent
    attr: str = ""  # node attribute when it differs from the key


class Row(NamedTuple):
    """One spelling of a kind.

    The smart constructor `build` receives the fields in order.  `cls` is
    the node class the row writes, or None for a row that is only read.
    A written row without fields stands for the one node `build()`
    returns, so it is chosen only for that node.
    """

    kind: str
    cls: type | None
    build: Callable
    fields: tuple = ()


class Schema:
    """A kind table; a kind may have several rows, tried in order when reading."""

    def __init__(self, tag: str, noun: str, rows):
        self.tag, self.noun = tag, noun
        self.readers, self.writers = {}, {}
        for row in rows:
            self.readers.setdefault(row.kind, []).append(row)
            if row.cls is not None:
                self.writers.setdefault(row.cls, []).append((row, None if row.fields else row.build()))


def from_schema(schema: Schema, doc):
    """Build the node a document describes through its row's smart constructor."""
    if not isinstance(doc, dict) or schema.tag not in doc:
        raise SchemaError(f"{schema.noun} document must be a dict with a {schema.tag!r}: {doc!r}")
    kind = doc[schema.tag]
    rows = schema.readers.get(kind) if isinstance(kind, str) else None
    if rows is None:
        raise SchemaError(f"unknown {schema.noun} kind {kind!r}")
    # the first row whose required keys are all present
    row = next((r for r in rows if all(f.key in doc for f in r.fields if f.default is _REQUIRED)), rows[0])
    args = []
    for f in row.fields:
        if f.key not in doc and f.default is _REQUIRED:
            raise SchemaError(f"{kind} {schema.noun} needs {f.key!r}")
        try:
            args.append(f.codec.load(doc[f.key]) if f.key in doc else f.default)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad {f.key!r} in {kind} {schema.noun}: {exc}") from exc
    return row.build(*args)


def to_schema(schema: Schema, node) -> dict:
    """The document of a node, written by the first row that matches it."""
    for row, constant in schema.writers.get(type(node), ()):
        if row.fields or node == constant:
            doc = {schema.tag: row.kind}
            for f in row.fields:
                doc[f.key] = f.codec.dump(getattr(node, f.attr or f.key))
            return doc
    raise SchemaError(f"cannot serialize {schema.noun} {node!r}")


def rule_from_json(doc) -> SeqRule:
    return from_schema(RULE_SCHEMA, doc)


def rule_to_json(rule: SeqRule) -> dict:
    return to_schema(RULE_SCHEMA, rule)


def _table_from_json(x) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(f"finite rule needs a 'table' dict, got {x!r}")
    return x


NUMBER = Codec(float, float)
INT = Codec(int, int)
BOUND = Codec(bound_from_json, bound_to_json)
RULE = Codec(rule_from_json, rule_to_json)
TABLE = Codec(_table_from_json, lambda entries: {str(j): v for j, v in entries})

RULE_SCHEMA = Schema("kind", "rule", (
    Row("const", ConstRule, rule_const, (Field("c", NUMBER),)),
    Row("harmonic", PowerDecayRule, rule_harmonic),
    Row("power", PowerDecayRule, rule_power, (Field("p", NUMBER),)),
    Row("geometric", GeomDecayRule, rule_geometric, (Field("r", NUMBER),)),
    Row("finite", FiniteRule, rule_finite, (Field("table", TABLE, attr="entries"),)),
    Row("indicator", IndicatorRule, rule_indicator, (Field("lo", BOUND, None), Field("hi", BOUND, None))),
    Row("comb", CombRule, rule_comb, (Field("modulus", INT), Field("residue", INT))),
    Row("scaled", ScaledRule, rule_scale, (Field("base", RULE), Field("factor", NUMBER, 1.0))),
    Row("shifted", ShiftedRule, rule_shift, (Field("base", RULE), Field("offset", INT, 0))),
    Row("masked", MaskedRule, rule_mask, (Field("base", RULE), Field("lo", BOUND, None), Field("hi", BOUND, None))),
    Row("product", ProductRule, rule_product, (Field("left", RULE), Field("right", RULE))),
    Row("sum", SumRule, rule_sum, (Field("left", RULE), Field("right", RULE))),
))

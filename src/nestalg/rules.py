"""Scalar index sequences with certified structural metadata.

Diagonal coefficients, shift weights, and vector entries are all drawn
from a small closed grammar of sequence rules.  Every rule can evaluate
itself at any integer index and also answers a fixed set of structural
questions used by the decision procedures:

  support   interval bounding the nonzero indices, with an exactness flag
  sup_abs   certified upper bound on sup |r(i)|
  tail      the asymptotic form toward +inf or -inf: r(i) = P[i mod L] + V(i)
            with an exact periodic part P (Fractions) and a certified,
            nonincreasing envelope env(n) >= |V(i)| beyond n that tends
            to 0 (see Tail); so the tail vanishes exactly when P = 0,
            limsup |r(i)| = max|P|
  plateau   certified lower and upper bounds on limsup |value(i)| toward
  ceiling   an end, from max|P| and an allowance for the rounding of
            value(); a positive plateau certifies an infinite support end
            and underlies every noncompactness certificate, and a zero
            ceiling certifies that the values vanish there
  sq_tail   certified upper bound on the sum of r(i)^2 from an index
            onward (may be +inf); a rule is square-summable exactly when
            its two halves, sq_total, are finite

Atoms give their own tails and combinators compose them, so each
question about the asymptotics of a rule has one answer in one place.
P and env describe the exact sequence the rule's parameters define;
value() is its floating-point evaluation, which can cancel to 0.0 where
the exact sequence does not, or leave a residue where it cancels; the
verdicts read plateau() and ceiling(), which allow for both.

All bounds are one-sided promises, never estimates: looseness only ever
weakens a derived norm envelope, it cannot flip a verdict.

Rules, like the operator expressions built on them, are interned nodes
(see Node): equal trees are one object, equality is identity, and each
rule computes its support and its tails once.
"""

from __future__ import annotations

import inspect
import math
import operator
import struct
import weakref
from array import array
from dataclasses import dataclass
from fractions import Fraction
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


ZERO, ONE = Fraction(0), Fraction(1)
ROUNDING_SLACK = 2.0 ** -40  # per unit of sup_abs: bounds |value(i) - r(i)|
ZERO_P, ONE_P = (ZERO,), (ONE,)  # the periodic parts of period 1


def _up(x: float) -> float:
    """x enlarged past the rounding of the few float operations that made it."""
    return x * (1.0 + 2.0 ** -48) + 2.0 ** -1000


def _no_env(n: int) -> float:
    return 0.0


def _sq_times(s: float, t: float) -> float:
    """s^2 * t for a bound t on a sum of squares: inf when t is, where the
    product would be nan once s^2 underflows to 0."""
    return POS_INF if t == POS_INF else s * s * t


def _step(start: float, bound: float) -> Callable[[int], float]:
    """The envelope of a tail that equals its periodic part from start on
    and stays within bound of it before."""
    return lambda n: 0.0 if n >= start else bound


class Tail:
    """A rule toward one end: r(i) = P[i mod len(P)] + V(i).

    P is exact (a tuple of Fractions) and |V(i)| <= env(n) whenever
    direction * i >= n; env is nonincreasing and tends to 0.  Every
    residue recurs, so limsup |r(i)| = max|P| toward that end, and the
    tail vanishes exactly when P = 0.
    """

    __slots__ = ("P", "env", "vanishes", "floats", "_peaks")

    def __init__(self, P: tuple, env: Callable[[int], float]):
        self.P, self.env, self.vanishes = P, env, not any(P)
        self.floats = None  # set once by SeqRule._float_parts
        self._peaks = (0.0, 0.0) if self.vanishes else None

    def peak(self, up: bool = True) -> float:
        """max|P| as a float, rounded up (or down when up is False)."""
        if self._peaks is None:
            top = max(map(abs, self.P))
            f = float(top)
            num, den = f.as_integer_ratio()
            excess = num * top.denominator - top.numerator * den  # the sign of f - max|P|
            down = math.nextafter(f, -math.inf) if excess > 0 else f
            self._peaks = (down, math.nextafter(f, math.inf) if excess < 0 else f)
        return self._peaks[up]


def _combine(a: Tail, b: Tail, op) -> tuple | None:
    """op of the periodic parts over the lcm period; None past SCAN_BUDGET.
    Callers skip it when a part is zero, since zero has every period."""
    la, lb = len(a.P), len(b.P)
    period = math.lcm(la, lb)
    if period > SCAN_BUDGET:
        return None
    return tuple(op(a.P[k % la], b.P[k % lb]) for k in range(period))


class SeqRule(Node):
    """Base class of the rule nodes."""

    def value(self, i: int) -> float:
        raise NotImplementedError

    @property
    def support(self) -> Support:
        raise NotImplementedError

    def sup_abs(self) -> float:
        raise NotImplementedError

    def tail(self, direction: int) -> Tail | None:
        """The asymptotic form toward +inf (direction > 0) or -inf; None when
        its period would exceed SCAN_BUDGET."""
        return self._tail_up if direction > 0 else self._tail_down

    def plateau(self, direction: int) -> float:
        """A lower bound on limsup |value(i)| toward that end, 0.0 when none
        is certified: max|P| rounded down, less the rounding allowance.
        Beyond n, |value(i)| reaches plateau - env(n) at infinitely many i."""
        t = self.tail(direction)
        if t is None or t.vanishes:
            return 0.0
        return max(math.nextafter(t.peak(up=False) - self._slack(), -math.inf), 0.0)

    def ceiling(self, direction: int) -> float:
        """An upper bound on limsup |value(i)| toward that end: max|P|
        rounded up, plus the rounding allowance unless every node's part
        there is a float (value() then tends to P, since each float
        operation tends to its exact result wherever that result is a
        float).  So the float values vanish toward that end when the
        ceiling is 0."""
        t = self.tail(direction)
        if t is None:
            return self.sup_abs()
        return t.peak() if self._float_parts(direction) else _up(t.peak() + self._slack())

    def _slack(self) -> float:
        return ROUNDING_SLACK * (1.0 + self.sup_abs())

    def _float_parts(self, d: int) -> bool:
        """value() tends to P toward that end: every node's part there is a float."""
        t = self.tail(d)
        if t is None:
            return False
        if t.floats is None:
            t.floats = self._floats_toward(d, t)
        return t.floats

    def _floats_toward(self, d: int, t: Tail) -> bool:
        return (t.vanishes or all(x == float(x) for x in t.P)) and all(
            v._float_parts(d) for v in map(self.__dict__.get, self._fields) if isinstance(v, SeqRule)
        )

    @cached_property
    def _tail_up(self) -> Tail | None:
        return self._tail(+1)

    @cached_property
    def _tail_down(self) -> Tail | None:
        return self._tail(-1)

    def _tail(self, d: int) -> Tail | None:
        raise NotImplementedError

    def sq_tail(self, n: int, direction: int) -> float:
        raise NotImplementedError

    def is_square_summable(self) -> bool:
        """Whether sq_total() certifies a finite sum of squares."""
        return math.isfinite(self.sq_total())

    def never_zero(self) -> bool:
        return False

    def sign_class(self):
        """'nonneg' / 'nonpos' when all values share a sign, else None."""
        return None

    def sq_total(self) -> float:
        return self.sq_tail(0, -1) + self.sq_tail(1, +1)

    def values_on(self, lo: int, hi: int) -> list:
        return [self.value(i) for i in range(lo, hi + 1)]


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

    def _tail(self, d: int) -> Tail:
        return Tail((Fraction(self.c),), _no_env)

    def sq_tail(self, n: int, direction: int) -> float:
        return 0.0 if self.c == 0.0 else POS_INF

    def never_zero(self) -> bool:
        return self.c != 0.0

    def sign_class(self):
        return "nonneg" if self.c >= 0.0 else "nonpos"


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

    def _tail(self, d: int) -> Tail:
        end, other = (self.hi, self.lo) if d > 0 else (self.lo, self.hi)
        if math.isinf(end):  # 1 from the other end on
            return Tail(ONE_P, _step(d * other, 1.0))
        return Tail(ZERO_P, _step(d * end + 1, 1.0))

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

    def sign_class(self):
        return "nonneg"


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

    def _tail(self, d: int) -> Tail:
        p = self.p
        return Tail(ZERO_P, lambda n: 1.0 if n <= 1 else _up(float(n) ** -p))

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

    def _tail(self, d: int) -> Tail:
        r = abs(self.r)
        return Tail(ZERO_P, lambda n: 1.0 if n <= 0 else _up(r ** n))

    def sq_tail(self, n: int, direction: int) -> float:
        n = n if direction > 0 else -n
        s = self.r * self.r
        if n >= 0:
            return s ** n / (1.0 - s)
        head = sum(s ** abs(i) for i in range(n, 0))
        return head + 1.0 / (1.0 - s)

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

    def _tail(self, d: int) -> Tail:
        last = self.support.hi if d > 0 else -self.support.lo  # -inf when empty
        return Tail(ZERO_P, _step(last + 1, self.sup_abs()))

    def sq_tail(self, n: int, direction: int) -> float:
        return sum(v * v for j, v in self.entries if _side_contains(n, direction, j))

    def sign_class(self):
        if all(v >= 0.0 for _, v in self.entries):
            return "nonneg"
        if all(v <= 0.0 for _, v in self.entries):
            return "nonpos"
        return None


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

    def _tail(self, d: int) -> Tail:
        return Tail(tuple(ONE if k == self.residue else ZERO for k in range(self.modulus)), _no_env)

    def sq_tail(self, n: int, direction: int) -> float:
        return POS_INF

    def sign_class(self):
        return "nonneg"


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

    def _tail(self, d: int) -> Tail | None:
        t, f = self.base.tail(d), self.factor
        if t is None:
            return None
        P = t.P if t.vanishes else tuple(p * Fraction(f) if p else p for p in t.P)
        return Tail(P, lambda n: _up(abs(f) * t.env(n)))

    def sq_tail(self, n: int, direction: int) -> float:
        return _sq_times(self.factor, self.base.sq_tail(n, direction))

    def never_zero(self) -> bool:
        return self.base.never_zero()

    def sign_class(self):
        base = self.base.sign_class()
        if base is None or self.factor == 0.0:
            return base if self.factor != 0.0 else "nonneg"
        if self.factor > 0.0:
            return base
        return "nonpos" if base == "nonneg" else "nonneg"


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

    def _tail(self, d: int) -> Tail | None:
        t, s = self.base.tail(d), self.offset
        if t is None:
            return None
        L = len(t.P)
        return Tail(tuple(t.P[(k - s) % L] for k in range(L)), lambda n: t.env(n - d * s))

    def sq_tail(self, n: int, direction: int) -> float:
        return self.base.sq_tail(n - self.offset, direction)

    def never_zero(self) -> bool:
        return self.base.never_zero()

    def sign_class(self):
        return self.base.sign_class()


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

    def _tail(self, d: int) -> Tail | None:
        end, other = (self.hi, self.lo) if d > 0 else (self.lo, self.hi)
        if math.isfinite(end):
            return Tail(ZERO_P, _step(d * end + 1, self.base.sup_abs()))
        t = self.base.tail(d)
        if t is None:
            return None
        start, bound = d * other, self.base.sup_abs()  # the base from the other end on, 0 before
        return Tail(t.P, lambda n: t.env(n) if n >= start else max(t.env(n), bound))

    def _floats_toward(self, d: int, t: Tail) -> bool:
        # value() is 0.0 past a finite end
        return math.isfinite(self.hi if d > 0 else self.lo) or self.base._float_parts(d)

    def sq_tail(self, n: int, direction: int) -> float:
        lo, hi = (max(n, self.lo), self.hi) if direction > 0 else (self.lo, min(n, self.hi))
        if lo > hi:
            return 0.0
        # the base's bound from the window's near end, or, when the window
        # ends that way, sup_abs^2 for each of its hi - lo + 1 indices
        bound = self.base.sq_tail(int(lo if direction > 0 else hi), direction)
        return min(bound, _sq_times(self.base.sup_abs(), hi - lo + 1.0))

    def sign_class(self):
        # masking only zeroes values outside the window
        return self.base.sign_class()


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

    def _tail(self, d: int) -> Tail | None:
        a, b = self.left.tail(d), self.right.tail(d)
        if a is None or b is None:
            return None
        P = ZERO_P if a.vanishes or b.vanishes else _combine(a, b, operator.mul)
        if P is None:
            return None
        ma, mb = a.peak(), b.peak()
        # ab - PaPb = Pa Vb + Pb Va + Va Vb
        return Tail(P, lambda n: _up(ma * b.env(n) + mb * a.env(n) + a.env(n) * b.env(n)))

    def _floats_toward(self, d: int, t: Tail) -> bool:
        # a factor whose values vanish takes the bounded other factor with it
        return self.left.ceiling(d) == 0.0 or self.right.ceiling(d) == 0.0 or super()._floats_toward(d, t)

    def sq_tail(self, n: int, direction: int) -> float:
        a = _sq_times(self.left.sup_abs(), self.right.sq_tail(n, direction))
        b = _sq_times(self.right.sup_abs(), self.left.sq_tail(n, direction))
        return min(a, b)

    def never_zero(self) -> bool:
        return self.left.never_zero() and self.right.never_zero()

    def sign_class(self):
        ls, rs = self.left.sign_class(), self.right.sign_class()
        if ls is None or rs is None:
            return None
        return "nonneg" if ls == rs else "nonpos"


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
            # the sum keeps a plateau toward that end
            same_sign = self.sign_class() is not None

            def _inf_ok(direction: int, l_end: float, r_end: float, end: float) -> bool:
                if same_sign or (l_end == end) != (r_end == end):
                    return True
                return self.plateau(direction) > 0.0

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

    def _tail(self, d: int) -> Tail | None:
        a, b = self.left.tail(d), self.right.tail(d)
        if a is None or b is None:
            return None
        P = b.P if a.vanishes else a.P if b.vanishes else _combine(a, b, operator.add)
        if P is None:
            return None
        return Tail(P, lambda n: _up(a.env(n) + b.env(n)))

    def sq_tail(self, n: int, direction: int) -> float:
        a, b = self.left.sq_tail(n, direction), self.right.sq_tail(n, direction)
        if a == POS_INF or b == POS_INF:
            return POS_INF
        return (math.sqrt(a) + math.sqrt(b)) ** 2

    def sign_class(self):
        ls, rs = self.left.sign_class(), self.right.sign_class()
        if ls is not None and ls == rs:
            return ls
        return None


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


def exact_support(rule: SeqRule) -> Support:
    """Support with certified-attained endpoints; raises when uncertifiable.

    A shifted rule is certified through its base, which a failure names:
    the rows of a band, found as the columns of its adjoint, keep the
    name of the rule as written.
    """
    if isinstance(rule, ShiftedRule):
        sup = _certified_support(rule.base)
        return sup if sup.is_empty else Support(sup.lo + rule.offset, sup.hi + rule.offset, True)
    return _certified_support(rule)


def _certified_support(rule: SeqRule) -> Support:
    sup = rule.support
    if sup.is_empty or sup.exact:
        return sup
    lo, hi = sup.lo, sup.hi

    def tighten(start: float, direction: int):
        if math.isfinite(start):
            for k in range(SCAN_BUDGET):
                i = int(start) + direction * k
                if (i > hi if direction > 0 else i < lo):
                    return None  # ran past the other end: empty
                if rule.value(i) != 0.0:
                    return float(i)
            raise UnknownSupport(f"could not certify a support endpoint of {rule!r}")
        # the infinite end lies against the inward scan direction
        if rule.plateau(-direction) > 0.0:
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

"""Coordinate nests on square-summable sequence spaces.

A nest is modeled as a chain of cut projections: the cut with value c is
the orthogonal projection onto the span of the basis vectors with index
<= c.  Two index sets are supported, "N" (indices 1, 2, 3, ...) and "Z".
Cut sets are either all integers or an explicit finite list.  The bottom
cut (projection 0) and the top cut (identity) are always materialized,
so joins and meets of arbitrary subfamilies stay inside the chain and
predecessor/successor queries are total.

Limit points are deliberately few: on an all-integers cut set the top is
a limit from below (the join of the finite cuts is the identity) and, on
the Z basis, the bottom is a limit from above (the meet of the finite
cuts is 0).  Every other cut has an honest neighbor.  This is what keeps
the order-topological quantifiers used elsewhere finitely decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CutNotInNest, IndexMismatch, MalformedSpec

NEG_INF = float("-inf")
POS_INF = float("inf")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True, order=True)
class NestCut:
    """A cut value: an integer, or +-inf for the identity / zero projection."""

    value: float

    def __repr__(self) -> str:
        if self.value == POS_INF:
            return "Cut(+inf)"
        if self.value == NEG_INF:
            return "Cut(-inf)"
        return f"Cut({int(self.value)})"


def _as_value(c) -> float:
    if isinstance(c, NestCut):
        return c.value
    if _is_int(c):
        return float(c)
    if isinstance(c, float) and (c in (NEG_INF, POS_INF) or c.is_integer()):
        return c
    raise MalformedSpec(f"not a cut value: {c!r}")


@dataclass(frozen=True)
class Nest:
    """Chain of cut projections over basis "N" or "Z".

    cut_values is None for the all-integers descriptor, otherwise the
    materialized sorted tuple including bottom and top.
    """

    basis: str
    cut_values: tuple | None

    # -- endpoints ---------------------------------------------------------

    @property
    def bottom(self) -> NestCut:
        # on N, indices start at 1, so the cut at 0 is the zero projection
        return NestCut(0.0 if self.basis == "N" else NEG_INF)

    @property
    def top(self) -> NestCut:
        return NestCut(POS_INF)

    @property
    def is_all(self) -> bool:
        return self.cut_values is None

    # -- membership and coercion ------------------------------------------

    def contains(self, c) -> bool:
        v = _as_value(c)
        if self.cut_values is not None:
            return v in self.cut_values
        if v == POS_INF:
            return True
        if self.basis == "N":
            return v >= 0 and math.isfinite(v)
        return True  # Z: every integer and -inf

    def as_cut(self, c) -> NestCut:
        v = _as_value(c)
        if not self.contains(v):
            raise CutNotInNest(f"{v} is not a cut of {self}")
        return NestCut(v)

    # -- order queries ------------------------------------------------------

    def pred(self, c) -> NestCut:
        """Join of the strictly smaller cuts (the empty join is bottom)."""
        cut = self.as_cut(c)
        v = cut.value
        if v == self.bottom.value:
            return self.bottom
        if self.cut_values is not None:
            i = self.cut_values.index(v)
            return NestCut(self.cut_values[i - 1])
        if v == POS_INF:
            return cut  # limit from below: finite cuts join to the identity
        return NestCut(v - 1)

    def succ(self, c) -> NestCut:
        """Meet of the strictly larger cuts (the empty meet is top)."""
        cut = self.as_cut(c)
        v = cut.value
        if v == POS_INF:
            return cut
        if self.cut_values is not None:
            i = self.cut_values.index(v)
            return NestCut(self.cut_values[i + 1])
        if v == NEG_INF:
            return cut  # limit from above on Z: finite cuts meet to 0
        return NestCut(v + 1)

    def largest_cut_leq(self, x: float) -> NestCut:
        """Largest cut with value <= x; bottom when none exists."""
        if self.cut_values is not None:
            best = self.bottom.value
            for v in self.cut_values:
                if v <= x:
                    best = v
                else:
                    break
            return NestCut(best)
        if x == POS_INF:
            return self.top
        if x == NEG_INF:
            return self.bottom
        if self.basis == "N":
            return NestCut(max(0.0, math.floor(x)))
        return NestCut(math.floor(x))

    def smallest_cut_geq(self, x: float) -> NestCut:
        """Smallest cut with value >= x; top when none exists."""
        if self.cut_values is not None:
            for v in self.cut_values:
                if v >= x:
                    return NestCut(v)
            return self.top
        if x == NEG_INF:
            return self.bottom
        if x == POS_INF:
            return self.top
        v = math.ceil(x)
        if self.basis == "N" and v < 0:
            v = 0.0
        return NestCut(float(v))

    # -- interval enumeration ------------------------------------------------

    def window(self, half: int):
        """The index window (1, 2 * half) on N and (-half, half) on Z."""
        return (1, 2 * half) if self.basis == "N" else (-half, half)

    def interior_values(self) -> list:
        """Finite cut values above bottom, for explicit cut sets only."""
        if self.cut_values is None:
            raise ValueError("all-integer nests have unbounded interiors")
        return [v for v in self.cut_values if math.isfinite(v) and v != self.bottom.value]

    def cuts_in_window(self, lo: int, hi: int) -> list:
        """Finite cut values v with lo <= v <= hi, as NestCuts."""
        out = []
        if self.cut_values is not None:
            out = [NestCut(v) for v in self.cut_values if math.isfinite(v) and lo <= v <= hi]
        else:
            start = lo if self.basis == "Z" else max(lo, 0)
            out = [NestCut(float(v)) for v in range(start, hi + 1)]
        return out

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        if self.cut_values is None:
            return {"basis": self.basis, "cuts": "all"}
        interior = [int(v) for v in self.cut_values if math.isfinite(v) and not (self.basis == "N" and v == 0)]
        return {"basis": self.basis, "cuts": interior}

    def __str__(self) -> str:
        if self.cut_values is None:
            return f"Nest({self.basis}; cuts=all)"
        interior = self.to_json()["cuts"]
        return f"Nest({self.basis}; cuts={interior})"


def make_nest(spec) -> Nest:
    """Build a Nest from a descriptor {"basis": "N"|"Z", "cuts": "all"|[int,...]}."""
    if isinstance(spec, Nest):
        return spec
    if not isinstance(spec, dict):
        raise MalformedSpec(f"nest descriptor must be a dict, got {type(spec).__name__}")
    basis = spec.get("basis")
    if basis not in ("N", "Z"):
        raise MalformedSpec(f"basis must be 'N' or 'Z', got {basis!r}")
    cuts = spec.get("cuts")
    if cuts == "all":
        return Nest(basis, None)
    if not isinstance(cuts, (list, tuple)):
        raise MalformedSpec(f"cuts must be 'all' or a list, got {cuts!r}")
    values = []
    for c in cuts:
        if not _is_int(c):
            raise MalformedSpec(f"explicit cut {c!r} is not an integer")
        if basis == "N" and c < 0:
            raise IndexMismatch(f"negative cut {c} on the N basis")
        values.append(float(c))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise MalformedSpec(f"cuts must be strictly increasing: {cuts}")
    bottom = 0.0 if basis == "N" else NEG_INF
    materialized = []
    for v in [bottom] + values + [POS_INF]:
        if not materialized or materialized[-1] != v:
            materialized.append(v)
    return Nest(basis, tuple(materialized))

"""Compactness classification and boundary projections for nest operators.

The canonical core makes compactness decidable in all the cases this
package promises.  Toward each end a band's rule is a periodic part P
plus a certified vanishing envelope (rules.Tail), so a banded part is
compact exactly when P = 0 toward both ends, and rank-one and finite
parts are always compact.  Otherwise limsup |entry| = max|P| along the
band.  The entries are float evaluations of the exact rule, so both
verdicts read it through bounds that allow for the rounding
(SeqRule.plateau and SeqRule.ceiling), and a rule that cancels to within
that allowance stays Unknown.  The noncompact certificate is a plateau:
infinitely many matrix positions carrying |entry| >= delta along
coordinate basis vectors that converge weakly to zero, which keeps the
distance to every compact operator at least delta after discounting the
(summable, hence vanishing) interference of rank-one and finite parts at
those positions.

Two boundary computations live here as well:

* the zero boundaries: the largest cut annihilated on the right and the
  smallest cut that covers the range, which together decide whether the
  two-sided multiplication induced by a pair vanishes.  Both come from
  one scanner, first_nonzero_column, under one budget (rules.SCAN_BUDGET
  columns): the first nonzero column of a, and the last nonzero row of
  b as the last nonzero column of its adjoint.  The zero test's
  witnesses come from the same scanner;
* the compact boundaries (boundary_ul): the join U of cuts whose lower
  compression of a is compact and the meet L of cuts whose upper
  compression of b is compact.  A compression of a compact compression
  is compact, so each is one first-compact scan over the corner cuts,
  the join from the top down and the meet from the bottom up.

A canonical node stores its compactness verdict and its column ends,
each with the scan's hit there, so the questions of one decision share
them and the zero test reads a's witness column off the hit.

How a corner at a limit cut is read lives in lower_corner and
upper_corner alone, which the compact question and both weak routes go
through.  On all-integer nests the lower/upper compressions at different
finite cuts differ by a finite-rank perturbation, so the top (and, on Z,
the bottom) reads them all at the one probe cut 0; on the
natural-number basis every lower compression is a finite-rank matrix
outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UndecidableBoundary, UnknownSupport
from .nests import POS_INF, Nest, NestCut, make_nest
from .numerics import NormInterval, singular_values
from .operators import (
    Band,
    FiniteMatrix,
    OperatorExpr,
    ProductOp,
    RankOne,
    adjoint,
    canonicalize,
    compress,
    entry,
    flatten_sum,
    interval_proj,
    norm_bound,
    render,
)
from .rules import SCAN_BUDGET, exact_support

INTERFERENCE_CAP = 1 << 16


# ---------------------------------------------------------------------------
# cut projections and compressions


def _cut_value(cut) -> float:
    return cut.value if isinstance(cut, NestCut) else float(cut)


def cocut_proj(cut: NestCut) -> OperatorExpr:
    """Projection onto coordinates > cut value."""
    return interval_proj(_cut_value(cut), None)


def compress_lower(T: OperatorExpr, cut) -> OperatorExpr:
    return compress(T, None, _cut_value(cut))


def compress_upper(T: OperatorExpr, cut) -> OperatorExpr:
    return compress(T, _cut_value(cut), None)


# ---------------------------------------------------------------------------
# compactness classification


@dataclass(frozen=True)
class PlateauCertificate:
    """Witness of noncompactness along one band.

    |entry| >= threshold at infinitely many positions (j + offset, j)
    with j running to +inf (direction +1) or -inf (-1); all other parts
    contribute at most `interference` beyond the suppression index, so
    the distance to every compact operator is at least `effective`.
    """

    offset: int
    direction: int
    threshold: float
    interference: float
    suppress_from: int

    @property
    def effective(self) -> float:
        return self.threshold - self.interference


@dataclass(frozen=True)
class CompactVerdict:
    status: str  # "Compact" | "NonCompact" | "Unknown"
    certificate: PlateauCertificate | None = None
    reason: str = ""
    evidence: dict | None = None

    @property
    def delta(self) -> float | None:
        return self.certificate.effective if self.certificate else None


def _fm_extent(parts) -> int:
    ext = 0
    for p in parts:
        if isinstance(p, FiniteMatrix):
            ext = max(ext, abs(p.row_lo), abs(p.row_hi), abs(p.col_lo), abs(p.col_hi))
    return ext


def _interference_at(parts, skip, offset: int, direction: int, n: int) -> float:
    """Bound on |sum of other parts| at positions (j + offset, j), |j| >= n."""
    total = 0.0
    for p in parts:
        if p is skip:
            continue
        if isinstance(p, Band):
            if p.offset == offset:
                total = POS_INF  # same band positions; cannot suppress
            continue
        if isinstance(p, RankOne):
            if direction > 0:
                te = math.sqrt(p.e.rule.sq_tail(n, +1))
                tf = math.sqrt(p.f.rule.sq_tail(n + offset, +1))
            else:
                te = math.sqrt(p.e.rule.sq_tail(-n, -1))
                tf = math.sqrt(p.f.rule.sq_tail(-n + offset, -1))
            total += te * tf
        elif isinstance(p, FiniteMatrix):
            if n <= _fm_extent([p]) + abs(offset):
                total += max(abs(v) for row in p.rows for v in row)
        else:
            total = POS_INF
    return total


def _plateau_certs(parts, band_part, direction: int):
    """Noncompactness certificates of one band toward one end.

    Beyond n, |value(i)| of the band's rule reaches its plateau() level
    less env(n) at infinitely many columns j (rules.Tail), where the other
    parts interfere by at most interference(n).  One certificate for each
    n = n0 * 2^k <= INTERFERENCE_CAP where env(n) + interference(n) stays
    below half the plateau; later ones keep more of it.
    """
    level = band_part.rule.plateau(direction)
    n = max(64, _fm_extent(parts) + abs(band_part.offset) + 1)
    while level > 0.0 and n <= INTERFERENCE_CAP:
        threshold = math.nextafter(level - band_part.rule.tail(direction).env(n), -POS_INF)
        ib = _interference_at(parts, band_part, band_part.offset, direction, n)
        if threshold - ib > level / 2.0:
            yield PlateauCertificate(band_part.offset, direction, threshold, ib, n)
        n *= 2


def _band_vanishes(p: Band) -> bool:
    return p.rule.ceiling(+1) == 0.0 and p.rule.ceiling(-1) == 0.0


def classify_compact(T: OperatorExpr) -> CompactVerdict:
    """Three-valued compactness with a certificate on the NonCompact side,
    stored on the canonical node."""
    C = canonicalize(T)
    v = C.__dict__.get("_compact")
    if v is None:
        v = C.__dict__["_compact"] = _classify(C)
    return v


def _classify(C: OperatorExpr) -> CompactVerdict:
    parts = flatten_sum(C)
    if not parts:
        return CompactVerdict("Compact", reason="zero operator")
    pending = []
    for p in parts:
        if isinstance(p, Band):
            if not _band_vanishes(p):
                pending.append(p)
        elif isinstance(p, (RankOne, FiniteMatrix)):
            continue
        elif isinstance(p, ProductOp):
            lc = classify_compact(p.left)
            rc = classify_compact(p.right)
            if lc.status != "Compact" and rc.status != "Compact":
                return CompactVerdict("Unknown", reason="irreducible product with no compact factor")
        else:
            return CompactVerdict("Unknown", reason=f"unclassifiable part {p!r}")
    if not pending:
        return CompactVerdict(
            "Compact", reason="band amplitudes vanish in both directions; other parts have finite rank"
        )
    for p in pending:
        for direction in (+1, -1):
            cert = next(_plateau_certs(parts, p, direction), None)
            if cert is not None:
                return CompactVerdict(
                    "NonCompact",
                    certificate=cert,
                    reason=f"band at offset {cert.offset} keeps |entry| >= {cert.threshold:.6g} "
                    f"toward {'+' if cert.direction > 0 else '-'}infinity",
                )
    if any(p.rule.tail(d) is None for p in pending for d in (+1, -1)):
        return CompactVerdict("Unknown", reason=f"a band rule's period exceeds the scan budget of {SCAN_BUDGET}")
    if all(p.rule.plateau(d) == 0.0 for p in pending for d in (+1, -1)):
        return CompactVerdict("Unknown", reason="band tail is within the float rounding allowance of 0")
    return CompactVerdict(
        "Unknown", reason=f"band tail does not vanish but other parts interfere up to index {INTERFERENCE_CAP}"
    )


# ---------------------------------------------------------------------------
# exact column ends; a row of C is a column of C*, so rows go through the adjoint


def _range_rows(terms, need: int):
    """The first `need` nonzero rows of the vector sum of c * f(i) over the
    (c, f) in terms, added in order as entry() adds the parts, and whether
    a shorter list holds every nonzero row: False when the scan stopped at
    SCAN_BUDGET rows before the support end."""
    sups = [f.rule.support for _c, f in terms]
    lo, hi = min(s.lo for s in sups), max(s.hi for s in sups)
    first = int(lo) if math.isfinite(lo) else -SCAN_BUDGET // 2
    last = first + SCAN_BUDGET - 1
    rows = []
    for i in range(first, int(min(hi, last)) + 1):
        v = 0.0
        for c, f in terms:
            v += c * f.value(i)
        if v != 0.0:
            rows.append(i)
            if len(rows) == need:
                return rows, True
    return rows, math.isfinite(lo) and hi <= last


def first_nonzero_column(C: OperatorExpr, start: int, direction: int = +1):
    """The first column j = start, start + direction, ... of the product-free C
    holding a nonzero entry, as (j, i, C[i, j]); None when the SCAN_BUDGET
    columns visited all vanish.

    A column is probed on the rows its parts reach there: a band's one
    row, a finite block's rows, and the first nonzero rows of the range
    vector sum_k e_k(j) f_k of the rank-ones e_k (x) f_k nonzero there,
    one more of them than the bands and blocks can fill, so that those
    cannot cancel them all.  Raises UndecidableBoundary when a column's
    probes vanish but its range vector has fewer such rows within the
    budget than its support may hold.
    """
    parts = flatten_sum(C)
    bands = [p for p in parts if isinstance(p, Band)]
    blocks = [p for p in parts if isinstance(p, FiniteMatrix)]
    ranks = [p for p in parts if isinstance(p, RankOne)]
    need = 1 + len(bands) + sum(len(p.rows) for p in blocks)
    reach = {}  # (k, e_k(j)) of the rank-ones nonzero at a column (1.0 for a lone one) -> _range_rows
    for j in range(start, start + direction * SCAN_BUDGET, direction):
        rows = {j + p.offset for p in bands if p.rule.value(j) != 0.0}
        for p in blocks:
            if p.col_lo <= j <= p.col_hi:
                rows.update(range(p.row_lo, p.row_hi + 1))
        terms = [(k, c) for k, p in enumerate(ranks) if (c := p.e.value(j)) != 0.0]
        complete = True
        if terms:
            # one rank-one's rows are those of its f, whatever e(j) is
            key = tuple(terms) if len(terms) > 1 else ((terms[0][0], 1.0),)
            if key not in reach:
                reach[key] = _range_rows([(c, ranks[k].f) for k, c in key], need)
            found, complete = reach[key]
            rows.update(found)
        for i in sorted(rows):
            v = entry(C, i, j)
            if v != 0.0:
                return j, i, v
        if not complete:
            raise UndecidableBoundary(
                f"the scan at index {j} did not find all rank-one range rows within the scan budget of {SCAN_BUDGET}"
            )
    return None


def col_end_hit(C: OperatorExpr, direction: int):
    """The scan's hit (j, i, C[i, j]) at the first (direction +1) or last (-1)
    nonzero column j of the canonical C, or the infinite end (a float) when
    C is zero or its columns reach that way indefinitely; stored on C per
    direction.  An UndecidableBoundary is stored as its message, since the
    exception's traceback would hold C.

    Only exact_row_hi scans downward, on the adjoint, so its messages say "row".
    """
    ends = C.__dict__.setdefault("_col_ends", {})
    end = ends.get(direction)
    if end is None:
        try:
            end = _scan_col_end(C, direction)
        except UndecidableBoundary as exc:
            end = str(exc)
        ends[direction] = end
    if isinstance(end, str):
        raise UndecidableBoundary(end)
    return end


def _col_end(C: OperatorExpr, direction: int) -> float:
    end = col_end_hit(C, direction)
    return end if isinstance(end, float) else float(end[0])


def _scan_col_end(C: OperatorExpr, direction: int):
    what = "column" if direction > 0 else "row"
    parts = flatten_sum(C)
    if not parts:
        return direction * POS_INF
    ends = []
    for p in parts:
        if isinstance(p, FiniteMatrix):
            ends.append(float(p.col_lo if direction > 0 else p.col_hi))
        elif isinstance(p, (Band, RankOne)):
            try:
                s = exact_support(p.rule if isinstance(p, Band) else p.e.rule)
            except UnknownSupport as exc:
                raise UndecidableBoundary(f"{what} support not certified: {exc}") from exc
            ends.append(s.lo if direction > 0 else s.hi)
        else:
            raise UndecidableBoundary(f"no exact {what} support for {p!r}")
    j0 = min(ends) if direction > 0 else max(ends)
    if not math.isfinite(j0):
        return j0
    hit = first_nonzero_column(C, int(j0), direction)
    if hit is None:
        raise UndecidableBoundary(f"{what} walk exhausted its budget without a nonzero {what}")
    return hit


def exact_col_lo(C: OperatorExpr) -> float:
    """Smallest nonzero column of the canonical expression; +inf when zero."""
    return _col_end(canonicalize(C), +1)


def exact_row_hi(C: OperatorExpr) -> float:
    """Largest nonzero row of the canonical expression; -inf when zero."""
    return _col_end(adjoint(canonicalize(C)), -1)


# ---------------------------------------------------------------------------
# boundary projections


def boundary_rq(task):
    """(largest cut annihilated by a on the right, smallest cut covering ran b)."""
    r = task.nest.largest_cut_leq(exact_col_lo(task.a) - 1.0)
    q = task.nest.smallest_cut_geq(exact_row_hi(task.b))
    return r, q


# the limit cuts of an all-integer nest (its top, and the bottom on Z) are
# the join and meet of finite cuts whose compressions differ by finite
# rank, so their corners are read at this one finite cut
_PROBE = NestCut(0.0)


def lower_corner(nest: Nest, a: OperatorExpr, cut: NestCut) -> CompactVerdict:
    """Compactness of the lower compression of a at a cut; at the top of an
    all-integer nest, that of the finite cuts below it."""
    if nest.is_all and cut == nest.top:
        if nest.basis == "N":
            return CompactVerdict("Compact", reason="every lower compression has finite rank")
        cut = _PROBE
    return classify_compact(compress_lower(a, cut))


def upper_corner(nest: Nest, b: OperatorExpr, cut: NestCut) -> CompactVerdict:
    """Compactness of the upper compression of b at a cut; at the bottom of
    the all-integer nest on Z, that of the finite cuts above it."""
    if nest.is_all and nest.basis == "Z" and cut == nest.bottom:
        cut = _PROBE
    return classify_compact(compress_upper(b, cut))


def _first_compact(corner, nest: Nest, T: OperatorExpr, cuts: list, side: str) -> NestCut:
    """The first of the cuts whose corner is compact, or the last cut: the
    empty join is bottom and the empty meet top.  A compression of a compact
    compression is compact, so the first compact corner scanning down is the
    join of all of them, and scanning up the meet."""
    for cut in cuts:
        v = corner(nest, T, cut)
        if v.status == "Unknown":
            where = "probe" if nest.is_all else f"at {cut.value}"
            raise UndecidableBoundary(f"{side} compression {where}: {v.reason}")
        if v.status == "Compact":
            return cut
    return cuts[-1]


def boundary_ul(task):
    """(U, L): the join of the cuts where a's lower corner is compact and the
    meet of those where b's upper corner is, over the corner cuts: every cut
    of an explicit nest, and bottom and top of an all-integer one."""
    nest = task.nest
    cuts = [nest.bottom, nest.top] if nest.is_all else [NestCut(v) for v in nest.cut_values]
    return (
        _first_compact(lower_corner, nest, task.a, cuts[::-1], "lower"),
        _first_compact(upper_corner, nest, task.b, cuts, "upper"),
    )


# ---------------------------------------------------------------------------
# limiting restricted norms


def limit_restricted_norm(T: OperatorExpr, direction: int) -> NormInterval:
    """Two-sided bounds on the limiting norm of a one-sided restriction.

    The limit over c of || T Proj(columns beyond c) || and the limit of
    || Proj(rows beyond c) T || are the same number, where "beyond" runs
    to +inf for direction +1 and to -inf for -1: rank-one and finite
    parts vanish in the limit either way, and each band leaves at most
    its ceiling() in that direction and at least the best effective level
    of its plateau certificates.  The limits exist because the
    restrictions shrink monotonically.
    """
    C = canonicalize(T)
    parts = flatten_sum(C)
    hi = 0.0
    lo = 0.0
    for p in parts:
        if isinstance(p, Band):
            hi += p.rule.ceiling(direction)
            lo = max([lo, *(cert.effective for cert in _plateau_certs(parts, p, direction))])
        elif isinstance(p, (RankOne, FiniteMatrix)):
            continue  # vanish in the limit
        else:
            hi += norm_bound(p)
    return NormInterval(lo, hi)


# ---------------------------------------------------------------------------
# numeric essential-norm evidence (never upgrades a symbolic verdict)


def ess_norm_proxy(nest, T: OperatorExpr, windows=(128, 256, 512), k: int = 10) -> dict:
    """Windowed singular-value trend as advisory evidence only.

    The probed index grows with the window (k_w = max(k, w // 8)); for a
    compact operator those singular values decay as the window widens,
    while a genuine essential spectrum keeps them level.
    """
    nest = make_nest(nest)
    sigmas = []
    used = []
    ks = []
    for w in windows:
        lo, hi = (1, w) if nest.basis == "N" else (-(w // 2), w - w // 2)
        kw = max(k, w // 8)
        M = render(T, lo, hi)
        s = singular_values(M, kw)
        sigmas.append(float(s[-1]) if s.size else 0.0)
        used.append([lo, hi])
        ks.append(kw)
    first, last = sigmas[0], sigmas[-1]
    if last <= 1e-9 or (first > 0 and last <= 0.55 * first):
        evidence = "decay"
    elif first > 1e-9 and last >= 0.8 * first:
        evidence = "plateau"
    else:
        evidence = "inconclusive"
    return {"sigma_k": sigmas, "windows": used, "evidence": evidence, "level": last, "k": k, "k_used": ks}

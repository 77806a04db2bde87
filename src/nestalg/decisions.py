"""Verdicts for two-sided multiplications x -> a x b over a nest algebra.

Every decision returns a MultVerdict: a status string, a reason, and a
JSON-ready detail dict carrying the certificates (cuts, norm intervals,
witness indices).  Statuses never degrade silently: when a certificate
cannot be produced the status is "Unknown" and the detail says why.

The three main questions:

* is the induced map zero?  Decided exactly from the two zero-boundary
  cuts; a nonzero verdict always carries a concrete rank-one input whose
  image has a certified positive norm.
* is it compact?  Decided from compactness of one lower compression of
  a and one upper compression of b, read through
  compactness.lower_corner and upper_corner, which hold how a corner at
  a limit cut of an all-integer nest is read.
* is it weakly compact?  Two independent routes, both starting from the
  compact boundaries (U, L) of compactness.boundary_ul: the boundary
  route (compare U and L, then read the limiting tail norm at the common
  cut in the equal case) and the two-cut route (search admissible cut
  pairs for a vanishing middle block; a block is nonzero exactly when an
  exact entry of it is, and that entry bounds its norm from below).  The
  two must agree whenever both decide; tests enforce that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import MultiplicationTask, rank_one_membership
from .compactness import (
    boundary_rq,
    boundary_ul,
    classify_compact,
    col_end_hit,
    compress_lower,
    compress_upper,
    first_nonzero_column,
    limit_restricted_norm,
    lower_corner,
    upper_corner,
)
from .errors import UndecidableBoundary
from .nests import NEG_INF, POS_INF, NestCut
from .numerics import NormInterval
from .operators import (
    OperatorExpr,
    ProductOp,
    ZeroOp,
    adjoint,
    basis_vector,
    canonicalize,
    col_support,
    entry,
    finite_matrix,
    flatten_sum,
    identity,
    interval_proj,
    norm_bound,
    op_product,
    operator_to_json,
    rank_one,
    render_with_leakage,
    row_support,
)
from .rules import SCAN_BUDGET, bound_to_json, rule_geometric

EPS_SCHEDULE = tuple(0.5**k for k in range(0, 21))
NORM_WINDOW = 192  # indices of the window a block is rendered on when no exact entry is found


def _interval_json(iv: NormInterval) -> dict:
    return {"lo": iv.lo, "hi": iv.hi}


@dataclass(frozen=True)
class MultVerdict:
    question: str
    status: str
    reason: str = ""
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "question": self.question,
            "status": self.status,
            "reason": self.reason,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# zero test


def mult_zero_test(task: MultiplicationTask) -> MultVerdict:
    """Exact zero test with a rank-one witness on the nonzero side."""
    try:
        r, q = boundary_rq(task)
    except UndecidableBoundary as exc:
        return MultVerdict("zero", "Unknown", f"boundary not certified: {exc}")
    detail = {"annihilator_cut": bound_to_json(r.value), "range_cover_cut": bound_to_json(q.value)}
    if q.value <= r.value:
        return MultVerdict(
            "zero", "Zero", "the range cover cut sits at or below the annihilator cut", detail
        )
    # nonzero: take x = e_ib (x) e_ja with b nonzero in row ib above the
    # annihilator cut and a nonzero in column ja; then a x b = (b* e_ib) (x)
    # (a e_ja) is nonzero.  Row ib is the first nonzero column of b* from
    # the cut up; column ja is a's first nonzero column, read off the scan
    # that found it, or, when a's columns reach down indefinitely, the
    # first from the chosen row down, where the pairing is automatically
    # admissible.
    ca, cb = canonicalize(task.a), canonicalize(task.b)
    start = r.value + 1 if math.isfinite(r.value) else row_support(cb).lo
    try:
        found = first_nonzero_column(adjoint(cb), int(start) if math.isfinite(start) else -SCAN_BUDGET // 2)
        if found is None:
            return MultVerdict("zero", "Unknown", "nonzero by boundaries but witness scan failed", detail)
        ib, jb, bval = found
        ia_probe = col_end_hit(ca, +1)
        if isinstance(ia_probe, float):
            ia_probe = first_nonzero_column(ca, int(min(ib, col_support(ca).hi)), -1)
    except UndecidableBoundary as exc:
        return MultVerdict("zero", "Unknown", f"witness scan not certified: {exc}", detail)
    if ia_probe is None:
        return MultVerdict("zero", "Unknown", "column witness for a vanished unexpectedly", detail)
    ja, ia, aval = ia_probe
    e, f = basis_vector(ib), basis_vector(int(ja))
    if rank_one_membership(task.nest, e, f).status != "Member":
        return MultVerdict("zero", "Unknown", "witness pairing fell outside the algebra", detail)
    witness_norm = abs(aval) * abs(bval)
    detail.update(
        {
            "witness": {
                "input": {"e_index": ib, "f_index": int(ja)},
                "x": operator_to_json(rank_one(e, f)),
                "image_entry": {"row": ia, "col": jb, "value": aval * bval},
                "image_norm_lower": witness_norm,
            }
        }
    )
    return MultVerdict(
        "zero",
        "NonZero",
        f"basis input e_{ib} (x) e_{int(ja)} maps to an operator with entry "
        f"{aval * bval:.6g} at ({ia}, {jb})",
        detail,
    )


# ---------------------------------------------------------------------------
# compactness of the multiplication


def _verdict_json(v) -> dict:
    out = {"status": v.status, "reason": v.reason}
    if v.certificate is not None:
        c = v.certificate
        out["certificate"] = {
            "offset": c.offset,
            "direction": c.direction,
            "threshold": c.threshold,
            "interference": c.interference,
            "effective_delta": c.effective,
        }
    return out


def mult_compact_decision(task: MultiplicationTask) -> MultVerdict:
    """Compactness of x -> a x b.

    A nonzero multiplication is compact exactly when the lower
    compression of a at the range cover cut and the upper compression of
    b at the annihilator cut are both compact; lower_corner and
    upper_corner read a limit cut.
    """
    try:
        r, q = boundary_rq(task)
    except UndecidableBoundary as exc:
        return MultVerdict("compact", "Unknown", f"boundary not certified: {exc}")
    if q.value <= r.value:
        return MultVerdict(
            "compact",
            "Compact",
            "the induced map is zero",
            {"annihilator_cut": bound_to_json(r.value), "range_cover_cut": bound_to_json(q.value)},
        )
    try:
        av = lower_corner(task.nest, task.a, q)
        bv = upper_corner(task.nest, task.b, r)
    except UndecidableBoundary as exc:
        return MultVerdict("compact", "Unknown", str(exc))
    detail = {
        "annihilator_cut": bound_to_json(r.value),
        "range_cover_cut": bound_to_json(q.value),
        "a_side": _verdict_json(av),
        "b_side": _verdict_json(bv),
    }
    if av.status == "NonCompact" or bv.status == "NonCompact":
        side = "a" if av.status == "NonCompact" else "b"
        return MultVerdict(
            "compact", "NonCompact", f"the {side}-side compression is noncompact", detail
        )
    if av.status == "Compact" and bv.status == "Compact":
        return MultVerdict("compact", "Compact", "both side compressions are compact", detail)
    return MultVerdict("compact", "Unknown", "a side compression resisted classification", detail)


# ---------------------------------------------------------------------------
# weak compactness, boundary route


def mult_weak_decision(task: MultiplicationTask) -> MultVerdict:
    """Weak compactness via the two compact-boundary projections.

    With U the join of compact-lower cuts of a and L the meet of
    compact-upper cuts of b: U above L is always weakly compact; U below
    L never is; at equality the verdict depends on the side compressions
    at the common cut and, when exactly one of them is noncompact, on
    whether the one-sided obstruction, a limiting norm toward that cut,
    vanishes.  The verdict is stored on the task, which quotient_verdict
    asks as well.
    """
    v = task.__dict__.get("_weak")
    if v is None:
        v = task.__dict__["_weak"] = _weak_decision(task)
    return v


def _weak_decision(task: MultiplicationTask) -> MultVerdict:
    if task.is_zero_pair():
        return MultVerdict("weak", "WeaklyCompact", "a symbol is zero, the map is zero")
    try:
        u, l = boundary_ul(task)
    except UndecidableBoundary as exc:
        return MultVerdict("weak", "Unknown", f"compact boundary not certified: {exc}")
    detail = {"upper_join": bound_to_json(u.value), "lower_meet": bound_to_json(l.value)}
    if u.value > l.value:
        detail["case"] = "boundaries-separated"
        return MultVerdict(
            "weak", "WeaklyCompact", "the compact-lower join lies above the compact-upper meet", detail
        )
    if u.value < l.value:
        detail["case"] = "boundaries-inverted"
        return MultVerdict(
            "weak", "NotWeaklyCompact", "the compact-lower join lies below the compact-upper meet", detail
        )
    s = u
    av = classify_compact(compress_lower(task.a, s))
    bv = classify_compact(compress_upper(task.b, s))
    detail["common_cut"] = bound_to_json(s.value)
    detail["a_corner"] = _verdict_json(av)
    detail["b_corner"] = _verdict_json(bv)
    if av.status == "Unknown" or bv.status == "Unknown":
        return MultVerdict("weak", "Unknown", "a corner compression resisted classification", detail)
    if av.status == "Compact" and bv.status == "Compact":
        detail["case"] = "both-corners-compact"
        return MultVerdict("weak", "WeaklyCompact", "both corner compressions are compact", detail)
    if av.status == "NonCompact" and bv.status == "NonCompact":
        detail["case"] = "both-corners-noncompact"
        return MultVerdict("weak", "NotWeaklyCompact", "both corner compressions are noncompact", detail)
    # Exactly one corner is noncompact, so s is a limit cut.  On an explicit
    # nest U and L are cuts whose corners are compact.  On an all-integer
    # nest they are bottom or top, and U is top on N; a's lower corner at
    # the bottom and b's upper corner at the top are zero.  So a noncompact
    # b corner sits at the bottom of Z and a noncompact a corner at the top,
    # and the obstruction, the infimum of the norms of the blocks next to
    # s, is the limiting norm of the restriction toward s.
    if av.status == "Compact":
        # inf over cuts P > s of ||a (P - s)||, on far-negative columns
        obstruction = limit_restricted_norm(task.a, -1)
        detail["case"] = "right-tail"
        detail["obstruction"] = _interval_json(obstruction)
        if obstruction.hi == 0.0:
            return MultVerdict(
                "weak", "WeaklyCompact", "columns of a just above the common cut vanish", detail
            )
        if obstruction.lo > 0.0:
            return MultVerdict(
                "weak",
                "NotWeaklyCompact",
                "a keeps norm on every block just above the common cut",
                detail,
            )
        return MultVerdict("weak", "Unknown", "obstruction norm interval straddles zero", detail)
    # inf over cuts P < s of ||(s - P) b||, on far-positive rows
    obstruction = limit_restricted_norm(task.b, +1)
    detail["case"] = "left-tail"
    detail["obstruction"] = _interval_json(obstruction)
    if obstruction.hi == 0.0:
        return MultVerdict(
            "weak", "WeaklyCompact", "rows of b just below the common cut vanish", detail
        )
    if obstruction.lo > 0.0:
        return MultVerdict(
            "weak", "NotWeaklyCompact", "b keeps norm on every block just below the common cut", detail
        )
    return MultVerdict("weak", "Unknown", "obstruction norm interval straddles zero", detail)


# ---------------------------------------------------------------------------
# weak compactness, two-cut route


def _window_near(nest, lo_anchor: float, hi_anchor: float):
    if math.isfinite(lo_anchor) and math.isfinite(hi_anchor):
        lo = int(lo_anchor)
        hi = min(int(hi_anchor), lo + NORM_WINDOW - 1)
        return lo, hi
    if math.isfinite(lo_anchor):
        lo = int(lo_anchor)
        return lo, lo + NORM_WINDOW - 1
    if math.isfinite(hi_anchor):
        hi = int(hi_anchor)
        return hi - NORM_WINDOW + 1, hi
    return nest.window(NORM_WINDOW // 2)


def _nonzero_entry(C: OperatorExpr, start: int):
    """One nonzero entry (j, i, C[i, j]) of the nonzero product-free canonical
    C: the hit at its first column, else at its last, else the first nonzero
    column from start; None when every scan fails."""
    for direction in (+1, -1):
        try:
            hit = col_end_hit(C, direction)
        except UndecidableBoundary:
            continue
        if not isinstance(hit, float):
            return hit
    try:
        return first_nonzero_column(C, start, +1)
    except UndecidableBoundary:
        return None


def _block_norm(nest, T: OperatorExpr, lo_anchor: float = NEG_INF, hi_anchor: float = POS_INF):
    """Norm interval of a (possibly one-sided) restricted expression, with the
    entry {"row", "col", "value"} its lower end reads, or None.

    The upper end is norm_bound.  The lower end is |C[i, j]| <= ||C|| for
    one nonzero entry of the canonical form C, which exists exactly when C
    is nonzero.  When C has a product part, or the scans find no entry, C
    is rendered on a window of NORM_WINDOW indices near the anchors, and
    the lower end is the largest column norm of that render less its
    leakage bound.
    """
    C = canonicalize(T)
    if isinstance(C, ZeroOp):
        return NormInterval(0.0, 0.0), None
    hi = norm_bound(C)
    cs, rs = col_support(C), row_support(C)
    lo_a = max(lo_anchor, min(cs.lo, rs.lo))
    hi_a = min(hi_anchor, max(cs.hi, rs.hi))
    wlo, whi = _window_near(nest, lo_a, hi_a)
    if nest.basis == "N":
        wlo = max(wlo, 1)
        whi = max(whi, wlo)
    if not any(isinstance(p, ProductOp) for p in flatten_sum(C)):
        hit = _nonzero_entry(C, wlo)
        if hit is not None:
            j, i, v = hit
            return NormInterval(abs(v), hi), {"row": i, "col": j, "value": v}
    m, leak = render_with_leakage(C, wlo, whi)
    lo = float(np.linalg.norm(m, axis=0).max()) - leak
    return NormInterval(max(lo, 0.0), hi), None


def _min_interval(a: NormInterval, b: NormInterval) -> NormInterval:
    return NormInterval(min(a.lo, b.lo), min(a.hi, b.hi))


def _pair_obstruction(task: MultiplicationTask, p1: NestCut, p2: NestCut):
    """min(||a (P2 - P1)||, ||(P2 - P1) b||) for one admissible pair, with the
    entry its lower end reads and the block ("a" or "b") holding it, or None."""
    nest = task.nest
    block = interval_proj(p1.value, p2.value)
    a_iv, a_at = _block_norm(nest, op_product(task.a, block), lo_anchor=p1.value, hi_anchor=p2.value)
    b_iv, b_at = _block_norm(nest, op_product(block, task.b), lo_anchor=p1.value, hi_anchor=p2.value)
    side, at = ("a", a_at) if a_iv.lo <= b_iv.lo else ("b", b_at)
    return _min_interval(a_iv, b_iv), None if at is None else {"block": side, **at}


def mult_weak_decision_2proj(task: MultiplicationTask) -> MultVerdict:
    """Weak compactness via admissible cut pairs.

    The map is weakly compact exactly when, for every tolerance, some
    pair of cuts P1 <= P2 exists with the lower compression of a at P1
    and the upper compression of b at P2 compact while the middle block
    strangles a or b below the tolerance.  The infimum of the middle
    obstruction over admissible pairs is computed per structural family;
    the verdict reads off whether it is zero.
    """
    if task.is_zero_pair():
        return MultVerdict("weak2", "WeaklyCompact", "a symbol is zero, the map is zero")
    nest = task.nest
    ca = classify_compact(task.a)
    cb = classify_compact(task.b)
    detail: dict = {"a_class": ca.status, "b_class": cb.status}
    if cb.status == "Compact":
        detail["pair"] = {"p1": "-inf", "p2": "-inf"}
        return MultVerdict(
            "weak2", "WeaklyCompact", "b is compact; the bottom pair has empty middle block", detail
        )
    if ca.status == "Compact":
        detail["pair"] = {"p1": "inf", "p2": "inf"}
        return MultVerdict(
            "weak2", "WeaklyCompact", "a is compact; the top pair has empty middle block", detail
        )
    try:
        u, l = boundary_ul(task)
    except UndecidableBoundary as exc:
        return MultVerdict("weak2", "Unknown", f"cut classification failed: {exc}")
    families = []  # (label, NormInterval, the entry its lower end reads or None)
    if not nest.is_all:
        # a compression of a compact compression is compact, so a's lower
        # corners are compact exactly at the cuts <= U and b's upper
        # corners exactly at the cuts >= L; U is the largest common cut
        if u.value >= l.value:
            detail["pair"] = {"p1": bound_to_json(u.value), "p2": bound_to_json(u.value)}
            return MultVerdict(
                "weak2", "WeaklyCompact", "a common cut has both compressions compact", detail
            )
        for p1 in (NestCut(v) for v in nest.cut_values if v <= u.value):
            for p2 in (NestCut(v) for v in nest.cut_values if v >= l.value):
                label = {"p1": bound_to_json(p1.value), "p2": bound_to_json(p2.value)}
                families.append((label, *_pair_obstruction(task, p1, p2)))
    else:
        # on an all-integer nest every finite cut's corner is read at once
        a_fin, b_fin = u == nest.top, l == nest.bottom
        if a_fin and b_fin:
            detail["pair"] = {"p1": 0, "p2": 0}
            return MultVerdict(
                "weak2", "WeaklyCompact", "every finite cut has both compressions compact", detail
            )
        # the always-admissible extreme pair
        families.append(({"p1": "-inf", "p2": "inf"}, *_pair_obstruction(task, nest.bottom, nest.top)))
        if a_fin:
            # P1 finite and large, P2 = top
            iv = _min_interval(
                limit_restricted_norm(task.a, +1), limit_restricted_norm(task.b, +1)
            )
            families.append(({"p1": "finite->inf", "p2": "inf"}, iv, None))
        if b_fin:
            iv = _min_interval(
                limit_restricted_norm(task.a, -1), limit_restricted_norm(task.b, -1)
            )
            families.append(({"p1": "-inf", "p2": "finite->-inf"}, iv, None))
    best_label, best, _ = min(families, key=lambda f: f[1].hi)
    low_label, low, at = min(families, key=lambda f: f[1].lo)
    overall = NormInterval(low.lo, best.hi)
    detail["obstruction"] = _interval_json(overall)
    if at is not None:
        detail["obstruction"]["entry"] = {**low_label, **at}
    detail["best_family"] = best_label
    detail["schedule"] = [
        {
            "eps": e,
            "outcome": "pass" if overall.hi < e else ("fail" if overall.lo >= e else "open"),
        }
        for e in EPS_SCHEDULE
    ]
    if overall.hi == 0.0:
        return MultVerdict("weak2", "WeaklyCompact", "an admissible pair kills the middle block", detail)
    if overall.lo > 0.0:
        return MultVerdict(
            "weak2",
            "NotWeaklyCompact",
            f"every admissible pair keeps obstruction norm >= {overall.lo:.6g}",
            detail,
        )
    return MultVerdict("weak2", "Unknown", "obstruction interval straddles zero", detail)


# ---------------------------------------------------------------------------
# derived verdicts


def range_in_compacts_sampler(task: MultiplicationTask, samples: int = 100, seed: int = 0) -> dict:
    """Classify a x b for sampled grammar inputs x.

    Mixes deterministic probes (the identity, basis rank-ones near the
    window center, geometric rank-ones) with seeded random finite
    matrices.  Purely a consistency check: a weakly compact
    multiplication maps everything into the compacts, so any certified
    noncompact image refutes a positive weak verdict.
    """
    rng = np.random.default_rng(seed)
    lo, hi = task.nest.window(8)
    probes = [identity()]
    idx = list(range(lo, hi + 1))
    for i in idx[:4]:
        for j in idx[:4]:
            probes.append(rank_one(basis_vector(i), basis_vector(j)))
    probes.append(rank_one(_geom_vec(0.5, lo), _geom_vec(0.5, lo)))
    counts = {"Compact": 0, "NonCompact": 0, "Unknown": 0}
    records = []
    n = 0
    while n < samples:
        if n < len(probes):
            x = probes[n]
        else:
            size = int(rng.integers(1, 4))
            r0 = int(rng.integers(lo, hi - size + 1))
            c0 = int(rng.integers(lo, hi - size + 1))
            entries = rng.standard_normal((size, size)).tolist()
            x = finite_matrix(r0, c0, entries)
        image = canonicalize(op_product(op_product(task.a, x), task.b))
        v = classify_compact(image)
        counts[v.status] += 1
        if v.status == "NonCompact" and len(records) < 4:
            records.append({"x": operator_to_json(x), "image_class": _verdict_json(v)})
        n += 1
    family = None
    if counts["NonCompact"] == 0:
        family = _escaping_family_probe(task, rng)
    report = {
        "samples": samples,
        "counts": counts,
        "found_noncompact_image": counts["NonCompact"] > 0 or family is not None,
        "noncompact_examples": records,
    }
    if family is not None:
        report["escaping_family"] = family
    return report


def _escaping_family_probe(task: MultiplicationTask, rng) -> dict | None:
    """Look for a flat family of rank-one images escaping in both directions.

    Single sampled members are always finite expressions, so on a
    doubly infinite nest the map can send every one of them to a
    compact operator and still fail to be weakly compact: the witness
    is then a bounded family of corner rank-ones whose images keep a
    common norm floor while their supports separate.  A member's
    column at r is supported in rows <= r and its row at c in columns
    >= c, so certified tail norms in both escape directions pin the
    obstruction at every cut.  Only fires when both tails are
    certified positive; silence proves nothing.
    """
    if task.nest.basis != "Z" or not task.nest.is_all:
        return None
    la = limit_restricted_norm(task.a, -1).lo
    lb = limit_restricted_norm(task.b, +1).lo
    if la <= 1e-9 or lb <= 1e-9:
        return None
    floor = la * lb / 2.0
    W = 48
    hits = []
    for k in range(1, 25):
        r = -(4 * k + int(rng.integers(0, 4)))
        c = 4 * k + int(rng.integers(0, 4))
        alpha = math.sqrt(sum(entry(task.a, i, r) ** 2 for i in range(r - W, r + 1)))
        beta = math.sqrt(sum(entry(task.b, c, j) ** 2 for j in range(c, c + W + 1)))
        if alpha * beta >= floor:
            hits.append({"row": r, "col": c, "image_norm_lower": alpha * beta})
    if len(hits) < 8:
        return None
    return {
        "kind": "escaping-family",
        "tail_col_lower": la,
        "tail_row_lower": lb,
        "norm_floor": floor,
        "witnesses": hits[:8],
        "witness_count": len(hits),
    }


def _geom_vec(r: float, anchor: int):
    from .operators import RuledVector
    from .rules import rule_mask, rule_shift

    base = rule_shift(rule_geometric(r), anchor)
    return RuledVector(rule_mask(base, anchor, None))


def quasitriangular_decision(task: MultiplicationTask) -> MultVerdict:
    """Verdicts for the same pair acting on the quasitriangular extension.

    There the multiplication is compact exactly when both symbols are
    compact, and weakly compact exactly when at least one is.
    """
    ca = classify_compact(task.a)
    cb = classify_compact(task.b)
    detail = {"a_class": _verdict_json(ca), "b_class": _verdict_json(cb)}
    if ca.status == "Unknown" or cb.status == "Unknown":
        return MultVerdict("quasitriangular", "Unknown", "a symbol resisted classification", detail)
    compact = ca.status == "Compact" and cb.status == "Compact"
    weak = ca.status == "Compact" or cb.status == "Compact"
    detail["compact"] = compact
    detail["weakly_compact"] = weak
    status = "Compact" if compact else ("WeaklyCompactOnly" if weak else "Neither")
    return MultVerdict("quasitriangular", status, "decided from symbol compactness", detail)


def quotient_verdict(task: MultiplicationTask) -> MultVerdict:
    """Does the multiplication vanish on the quotient by the compacts?

    Equivalent to weak compactness; a negative verdict points at the
    bounded-sequence-space embedding machinery for an explicit witness.
    """
    weak = mult_weak_decision(task)
    detail = dict(weak.detail)
    if weak.status == "WeaklyCompact":
        return MultVerdict("quotient", "ZeroInQuotient", "the multiplication is weakly compact", detail)
    if weak.status == "NotWeaklyCompact":
        detail["embedding_witness"] = {
            "available": True,
            "how": "build an orthonormal-pair certificate and map bounded sequences through it",
        }
        return MultVerdict(
            "quotient",
            "NonzeroNotWeaklyCompact",
            "the induced quotient map embeds the bounded-sequence space",
            detail,
        )
    return MultVerdict("quotient", "Unknown", weak.reason, detail)

"""Compactness classification of single operators and corner compressions."""

import math

import numpy as np
import pytest

from nestalg.algebra import MultiplicationTask
from nestalg.compactness import (
    boundary_rq,
    boundary_ul,
    classify_compact,
    cocut_proj,
    compress_lower,
    compress_upper,
    ess_norm_proxy,
    exact_col_lo,
    exact_row_hi,
    limit_restricted_norm,
    lower_corner,
    upper_corner,
)
from nestalg.errors import UndecidableBoundary
from nestalg.nests import NestCut, make_nest
from nestalg.operators import (
    basis_vector,
    canonicalize,
    col_support,
    diag,
    entry,
    finite_matrix,
    identity,
    interval_proj,
    op_scale,
    op_sum,
    rank_one,
    render,
    row_support,
    wshift,
)
from nestalg.rules import (
    rule_comb,
    rule_const,
    rule_geometric,
    rule_harmonic,
    rule_indicator,
    rule_mask,
    rule_scale,
    rule_sum,
)
from nestalg.scenarios import SWEEP_NESTS, random_member


COMPACT_SPECIMENS = [
    diag(rule_harmonic()),
    diag(rule_geometric(0.5)),
    wshift(rule_geometric(0.5), "lower"),
    rank_one(basis_vector(2), basis_vector(5)),
    finite_matrix(0, 0, [[1.0, 2.0], [3.0, 4.0]]),
]

NONCOMPACT_SPECIMENS = [
    identity(),
    diag(rule_scale(rule_indicator(10, None), 0.75)),
    wshift(rule_const(1.0), "lower"),
    op_scale(0.5, identity()),
]


@pytest.mark.parametrize("T", COMPACT_SPECIMENS, ids=lambda T: type(T).__name__)
def test_compact_specimens(T):
    assert classify_compact(T).status == "Compact"


@pytest.mark.parametrize("T", NONCOMPACT_SPECIMENS, ids=str)
def test_noncompact_specimens(T):
    v = classify_compact(T)
    assert v.status == "NonCompact"
    assert v.certificate is not None


def test_small_exact_plateau_is_noncompact():
    # 1 - 0.999 on the odd indices: the plateau is exact, however small
    v = classify_compact(diag(rule_sum(rule_scale(rule_comb(2, 1), -0.999), rule_comb(2, 1))))
    assert v.status == "NonCompact"
    assert v.certificate.threshold == pytest.approx(0.001)


def test_plateau_under_a_sum_with_a_vanishing_part_is_noncompact():
    comb = rule_comb(3, 0)
    v = classify_compact(diag(rule_sum(comb, rule_sum(comb, rule_harmonic()))))
    assert v.status == "NonCompact"
    assert v.certificate.threshold > 1.9  # 2 on the multiples of 3, less 1/n


def test_masked_sum_of_two_plateaus_is_noncompact_toward_the_open_end():
    h = rule_harmonic()
    r = rule_mask(rule_sum(rule_sum(rule_comb(2, 1), h), rule_sum(rule_comb(4, 2), h)), 1, None)
    v = classify_compact(diag(r))
    assert v.status == "NonCompact" and v.certificate.direction == +1


def test_band_with_a_zero_periodic_part_is_compact():
    # comb(2, 0) + comb(2, 1) - 1 is 0 at every index
    r = rule_sum(rule_sum(rule_comb(2, 0), rule_comb(2, 1)), rule_const(-1.0))
    assert classify_compact(diag(r)).status == "Compact"


def _even(*factors):
    """The sum, in order, of comb(2, 0) scaled by each factor."""
    r = rule_scale(rule_comb(2, 0), factors[0])
    for f in factors[1:]:
        r = rule_sum(r, rule_scale(rule_comb(2, 0), f))
    return r


def test_cancellation_below_the_rounding_is_unknown():
    # the exact periodic part is (-2^-55, 0), but every float entry is 0.0
    r = _even(0.1, 0.2, -0.30000000000000004)
    assert not r.tail(+1).vanishes and r.values_on(-4, 4) == [0.0] * 9
    v = classify_compact(diag(r))
    assert v.status == "Unknown" and "rounding" in v.reason
    assert limit_restricted_norm(diag(r), +1).lo == 0.0


def test_rounding_residue_of_a_zero_periodic_part_is_unknown():
    # the exact periodic part is 0, but the float entries keep -2^-60 on the even indices
    r = _even(1.0, 2.0**-60, -1.0, -(2.0**-60))
    assert r.tail(+1).vanishes and r.value(0) == -(2.0**-60)
    assert classify_compact(diag(r)).status == "Unknown"
    assert limit_restricted_norm(diag(r), -1).hi >= 2.0**-60


def test_period_beyond_the_scan_budget_is_unknown():
    # lcm(23, 29) = 667 residues would exceed rules.SCAN_BUDGET
    r = rule_sum(rule_comb(23, 0), rule_comb(29, 0))
    assert r.tail(+1) is None
    v = classify_compact(diag(r))
    assert v.status == "Unknown" and "scan budget" in v.reason


def test_plateau_certificate_survives_svd_check():
    # a certified plateau means singular values cannot decay: check the
    # claimed threshold against dense truncations of growing size; the
    # band keeps its whole level 0.75 from index 10 on
    plateau = diag(rule_scale(rule_indicator(10, None), 0.75))
    v = classify_compact(plateau)
    cert = v.certificate
    assert cert.threshold == pytest.approx(0.75)
    for hw in (64, 128, 256):
        M = render(plateau, -hw, hw)
        sv = np.linalg.svd(M, compute_uv=False)
        # effective lower bound from the certificate: threshold minus interference
        eff = cert.threshold - cert.interference
        assert sv[9] >= eff - 1e-9


def test_compact_sum_of_compacts():
    s = op_sum(diag(rule_harmonic()), rank_one(basis_vector(1), basis_vector(3)))
    assert classify_compact(s).status == "Compact"


def test_noncompact_plus_compact_stays_noncompact():
    s = op_sum(identity(), diag(rule_harmonic()))
    assert classify_compact(s).status == "NonCompact"


def test_limit_restricted_norm_identity():
    ni = limit_restricted_norm(identity(), +1)
    assert ni.lo == pytest.approx(1.0, abs=1e-8)
    assert ni.hi == pytest.approx(1.0, abs=1e-8)


def test_limit_restricted_norm_vanishing():
    ni = limit_restricted_norm(diag(rule_harmonic()), +1)
    assert ni.hi <= 1e-9


def test_limit_restricted_norm_reaches_the_plateau_past_a_vanishing_part():
    # comb(2, 0) + 1/|i| keeps limsup 1; the lower bound is read at
    # INTERFERENCE_CAP, where the envelope 1/n is smallest
    ni = limit_restricted_norm(diag(rule_sum(rule_comb(2, 0), rule_harmonic())), +1)
    assert 1.0 - 1e-4 < ni.lo <= 1.0 == ni.hi


def test_exact_boundaries():
    x = rank_one(basis_vector(2), basis_vector(5))
    assert exact_col_lo(x) == 2.0
    assert exact_row_hi(x) == 5.0
    assert exact_col_lo(identity()) == -np.inf
    assert exact_row_hi(identity()) == np.inf
    # seeded stock-grammar members: where the support is finite, the ends
    # are the first nonzero column and the last nonzero row of a render
    # on a window that covers it
    rng = np.random.default_rng(11)
    checked = 0
    for spec in SWEEP_NESTS:
        for _ in range(30):
            m = canonicalize(random_member(spec, rng))
            cs, rs = col_support(m), row_support(m)
            if not all(math.isfinite(v) for v in (cs.lo, cs.hi, rs.lo, rs.hi)):
                continue
            lo, hi = int(min(cs.lo, rs.lo)) - 2, int(max(cs.hi, rs.hi)) + 2
            M = render(m, lo, hi)
            cols = np.flatnonzero(np.any(M != 0.0, axis=0))
            rows = np.flatnonzero(np.any(M != 0.0, axis=1))
            assert exact_col_lo(m) == (lo + cols[0] if cols.size else np.inf)
            assert exact_row_hi(m) == (lo + rows[-1] if rows.size else -np.inf)
            checked += 1
    assert checked >= 20
    # an uncertified row end names the band's rule as written, not the
    # shifted rule of the adjoint it is read from
    alternating = rule_sum(rule_geometric(0.5), rule_geometric(-0.5))
    with pytest.raises(UndecidableBoundary, match="row support not certified") as err:
        exact_row_hi(wshift(alternating, "lower"))
    assert "of SumRule" in str(err.value) and "ShiftedRule" not in str(err.value)


def test_boundary_scans_run_to_the_scan_budget():
    # a cancellation over 80 columns (rows) hides the first nonzero column
    # (last nonzero row) beyond a 64-step walk, within the scan budget
    ind = diag(rule_indicator(1, 100))
    assert exact_col_lo(op_sum(ind, finite_matrix(1, 1, -np.eye(80)))) == 81.0
    assert exact_row_hi(op_sum(ind, finite_matrix(21, 21, -np.eye(80)))) == 20.0


def test_boundary_rq_flagship():
    n = make_nest({"basis": "N", "cuts": "all"})
    task = MultiplicationTask.build(n, identity(), diag(rule_harmonic()))
    r, q = boundary_rq(task)
    assert r.value == 0.0
    assert q.value == np.inf
    u, l = boundary_ul(task)
    assert u.value == np.inf
    assert l.value == 0.0


def test_limit_cut_corners_read_the_finite_cuts():
    n_all, z_all = make_nest({"basis": "N", "cuts": "all"}), make_nest({"basis": "Z", "cuts": "all"})
    positive, nonpositive = diag(rule_indicator(1, None)), diag(rule_indicator(None, 0))
    # on N every lower compression has finite rank, so the top is compact unread
    v = lower_corner(n_all, identity(), n_all.top)
    assert v.status == "Compact" and "finite rank" in v.reason
    # N's bottom cut 0 is no limit: its upper compression is the operator itself
    assert upper_corner(n_all, identity(), n_all.bottom).status == "NonCompact"
    assert upper_corner(n_all, diag(rule_harmonic()), n_all.bottom).status == "Compact"
    # the top of Z-all reads the lower compressions of the finite cuts, and
    # its bottom their upper ones, whatever the operator itself is
    assert classify_compact(positive).status == "NonCompact"
    assert lower_corner(z_all, positive, z_all.top).status == "Compact"
    assert lower_corner(z_all, identity(), z_all.top).status == "NonCompact"
    assert classify_compact(nonpositive).status == "NonCompact"
    assert upper_corner(z_all, nonpositive, z_all.bottom).status == "Compact"
    assert upper_corner(z_all, identity(), z_all.bottom).status == "NonCompact"
    # the other ends compress to zero
    assert lower_corner(z_all, identity(), z_all.bottom).status == "Compact"
    assert upper_corner(z_all, identity(), z_all.top).status == "Compact"
    assert upper_corner(n_all, identity(), n_all.top).status == "Compact"
    task = MultiplicationTask.build(z_all, positive, nonpositive)
    assert boundary_ul(task) == (z_all.top, z_all.bottom)
    # an Unknown corner stops the scan: a period past the scan budget
    task = MultiplicationTask.build(z_all, diag(rule_sum(rule_comb(23, 0), rule_comb(29, 0))), identity())
    with pytest.raises(UndecidableBoundary, match="lower compression probe: .*scan budget"):
        boundary_ul(task)


def test_boundary_detects_annihilation():
    n = make_nest({"basis": "N", "cuts": "all"})
    a = rank_one(basis_vector(5), basis_vector(3))
    b = rank_one(basis_vector(2), basis_vector(1))
    task = MultiplicationTask.build(n, a, b)
    r, q = boundary_rq(task)
    # a kills everything supported at or below column 4; b's range tops out at row 1
    assert q.value <= r.value


def test_compressions_are_corners():
    d = diag(rule_harmonic())
    lowpart = compress_lower(d, NestCut(4.0))
    for i in (3, 4):
        assert entry(lowpart, i, i) == entry(d, i, i)
    for i in (5, 9):
        assert entry(lowpart, i, i) == 0.0
    up = compress_upper(d, NestCut(4.0))
    for i in (5, 9):
        assert entry(up, i, i) == entry(d, i, i)
    assert entry(up, 4, 4) == 0.0


def test_cut_projections_complementary():
    p = interval_proj(None, 3)
    q = cocut_proj(NestCut(3.0))
    for i in range(-4, 9):
        assert entry(p, i, i) + entry(q, i, i) == 1.0


def test_proxy_decays_for_compact():
    n = make_nest({"basis": "N", "cuts": "all"})
    px = ess_norm_proxy(n, diag(rule_harmonic()), windows=(64, 128), k=5)
    assert px["sigma_k"][1] < px["sigma_k"][0]
    assert px["level"] < 0.13


def test_proxy_plateaus_for_identity():
    n = make_nest({"basis": "N", "cuts": "all"})
    px = ess_norm_proxy(n, identity(), windows=(64, 128), k=5)
    assert min(px["sigma_k"]) >= 0.999

"""Greedy subsequence certificates, the refuter, and the sup-norm embedding."""

import dataclasses

import numpy as np
import pytest

from nestalg.algebra import MultiplicationTask
from nestalg.constructions import (
    SubseqCertificate,
    certificate_check,
    counterexample_refuter,
    greedy_subsequence,
    linf_embedding,
    representation_residual,
    stabilization_analysis,
)
from nestalg.errors import BlockTooSmall, MalformedSpec, WitnessBudgetExhausted
from nestalg.nests import make_nest
from nestalg.operators import diag, identity, op_scale, op_sum, render, wshift
from nestalg.rules import rule_comb, rule_const, rule_harmonic, rule_scale


@pytest.fixture
def id_task(n_all):
    return MultiplicationTask.build(n_all, identity(), identity())


def test_greedy_identity_certificate(id_task):
    cert = greedy_subsequence(id_task, 1.0, 12)
    assert cert.size == 12
    # identity: basis vectors are exactly orthonormal, values all land at 1
    assert all(v == pytest.approx(1.0) for v in cert.values)
    assert cert.floor() == pytest.approx(8.0 / 9.0)


def test_certificate_check_passes(id_task):
    cert = greedy_subsequence(id_task, 1.0, 10)
    ok, rows = certificate_check(id_task, cert)
    assert ok
    names = [r["check"] for r in rows]
    assert names == [
        "tables-recompute",
        "mass-floor",
        "thinning-thresholds",
        "values-recompute",
        "values-floor",
    ]
    assert all(r["pass"] for r in rows)


def test_forged_certificate_fails_recompute(id_task):
    cert = greedy_subsequence(id_task, 1.0, 6)
    lam = [list(row) for row in cert.lam]
    lam[0][0] *= 0.5
    forged = dataclasses.replace(cert, lam=tuple(tuple(r) for r in lam))
    ok, rows = certificate_check(id_task, forged)
    assert not ok
    failing = {r["check"] for r in rows if not r["pass"]}
    assert "tables-recompute" in failing


def test_greedy_plateau_certificate(n_all):
    # half-strength plateau on the odd integers: candidates carry mass 1/2
    plate = diag(rule_scale(rule_comb(2, 0), 0.5))
    task = MultiplicationTask.build(n_all, plate, plate)
    cert = greedy_subsequence(task, 0.5, 8)
    ok, rows = certificate_check(task, cert)
    assert ok
    assert min(cert.values) >= 8.0 * 0.5**4 / 9.0 - 1e-9


def _plateau(c, shift, comb=False):
    """A scaled identity or comb plus a small lowering shift: columns and
    rows keep mass, and neighbours pair through the shift."""
    main = op_scale(c, diag(rule_comb(2, 1)) if comb else identity())
    return op_sum(main, wshift(rule_const(shift), "lower"))


@pytest.mark.parametrize("count", [8, 32])
@pytest.mark.parametrize("nest", ["n_all", "z_all"])
@pytest.mark.parametrize(
    "a, b",
    [
        (_plateau(1.2, 0.3), _plateau(0.9, 0.25)),
        (_plateau(1.1, 0.4, comb=True), _plateau(1.3, 0.05)),
        # neighbours pair at 0.036, within a factor 2 above the threshold of step 2
        (_plateau(1.2, 0.03), _plateau(0.9, 0.04)),
    ],
    ids=["identity", "comb", "near-threshold"],
)
def test_greedy_keeps_its_contract(a, b, nest, count, request):
    eps = 0.5
    task = MultiplicationTask.build(request.getfixturevalue(nest), a, b)
    cert = greedy_subsequence(task, eps, count)
    lo, hi = cert.window
    ma, mb = render(task.a, lo, hi), render(task.b, lo, hi)
    # candidates: window columns of a and rows of b with mass eps, paired by rank
    cols = lo + np.flatnonzero(np.linalg.norm(ma, axis=0) >= eps - 1e-12)
    rows = lo + np.flatnonzero(np.linalg.norm(mb, axis=1) >= eps - 1e-12)
    pool = min(len(cols), len(rows))
    col, row = (lambda j: ma[:, j - lo]), (lambda i: mb[i - lo])

    def thin(k, picks):
        # candidate k against the picks before it, at step len(picks) + 1
        thr = cert.threshold(len(picks) + 1)
        return all(
            abs(col(cols[k]) @ col(cols[m])) < thr and abs(row(rows[k]) @ row(rows[m])) < thr
            for m in picks
        )

    chosen = [int(np.flatnonzero(cols[:pool] == j)[0]) for j in cert.col_indices]
    assert cert.size == count
    assert chosen[0] == 0
    assert list(rows[chosen]) == list(cert.row_indices)
    assert chosen == sorted(chosen)
    for n, k in enumerate(chosen):
        assert thin(k, chosen[:n])
    for k in range(chosen[-1]):
        if k not in chosen:
            assert not thin(k, [m for m in chosen if m < k])


def test_certificate_check_names_unthinned_pairs_in_order(n_all):
    task = MultiplicationTask.build(n_all, _plateau(1.2, 0.3), _plateau(0.9, 0.25))
    # positions (1, 2) and (0, 3) are neighbours, which pair through the shift
    idx = (20, 10, 11, 21)
    zeros = tuple((0.0,) * 4 for _ in idx)
    forged = SubseqCertificate(0.5, (1, 64), idx, idx, zeros, zeros, (0.0,) * 4)
    ok, rows = certificate_check(task, forged)
    assert not ok
    thinning = next(r for r in rows if r["check"] == "thinning-thresholds")
    assert not thinning["pass"]
    assert thinning["detail"]["violating_pairs"] == [(1, 2), (0, 3)]


@pytest.mark.parametrize(
    "table, reshape",
    [
        ("lam", lambda t: t[:-1]),
        ("mu", lambda t: [t[0][:-1]] + t[1:]),
        ("lam", lambda t: [r + [0.0] for r in t]),
    ],
    ids=["missing-row", "short-row", "long-rows"],
)
def test_certificate_from_json_rejects_misshapen_tables(id_task, table, reshape):
    doc = greedy_subsequence(id_task, 1.0, 4).to_json()
    doc[table] = reshape(doc[table])
    with pytest.raises(MalformedSpec):
        SubseqCertificate.from_json(doc)


def test_greedy_exhausts_on_vanishing_mass(n_all):
    # harmonic diagonal decays, so large-mass candidates run out
    task = MultiplicationTask.build(n_all, diag(rule_harmonic()), diag(rule_harmonic()))
    with pytest.raises(WitnessBudgetExhausted):
        greedy_subsequence(task, 0.9, 10, window=(1, 256))


def test_certificate_json_round_trip(id_task):
    cert = greedy_subsequence(id_task, 1.0, 5)
    doc = cert.to_json()
    again = SubseqCertificate.from_json(doc)
    assert again == cert


def test_refuter_identity_pair():
    w = counterexample_refuter([(identity(), identity())])
    assert (w.r, w.s) == (2, 1)
    assert w.residual >= w.threshold
    # residual recomputes exactly from the returned witness location
    again = representation_residual([(identity(), identity())], w.b if hasattr(w, "b") else None or diag(rule_harmonic()), w.r, w.s)
    assert again.residual == pytest.approx(w.residual, abs=1e-12)


def test_refuter_scaled_family():
    pairs = [(op_scale(0.5, identity()), identity())]
    w = counterexample_refuter(pairs)
    assert w.residual >= w.threshold
    assert w.r >= 2 and 1 <= w.s <= w.r - 1


def test_refuter_smallest_witness_first():
    # (r, s) scans lexicographically from (2, 1); identity family fails there
    w = counterexample_refuter([(identity(), identity())])
    assert (w.r, w.s) == (2, 1)


def test_representation_residual_validates_probe():
    with pytest.raises(MalformedSpec):
        representation_residual([(identity(), identity())], diag(rule_harmonic()), 1, 1)
    with pytest.raises(MalformedSpec):
        representation_residual([(identity(), identity())], diag(rule_harmonic()), 3, 3)


def test_stabilization_analysis_rank_profile():
    pairs = [(identity(), identity()), (diag(rule_harmonic()), identity())]
    st = stabilization_analysis(pairs)
    assert st["pairs"] == 2
    assert st["final_rank"] >= 1
    assert st["stabilized_at"] <= len(st["ranks"])


def test_embedding_identity_bounds(id_task):
    cert = greedy_subsequence(id_task, 1.0, 128)
    x = np.ones(4)
    out = linf_embedding(id_task, x, cert, block_size=32)
    assert out["upper"] <= 1.0 + 1e-9
    assert out["lower"] == pytest.approx(7.0 / 9.0)
    assert len(out["blocks"]) == 4


def test_embedding_lead_block_tracks_max(id_task):
    cert = greedy_subsequence(id_task, 1.0, 64)
    x = np.array([0.25, -1.0, 0.5, 0.125])
    out = linf_embedding(id_task, x, cert, block_size=16)
    assert out["lead_block"] == 1
    assert out["lead_value"] == pytest.approx(1.0)


def test_embedding_rejects_oversized_request(id_task):
    cert = greedy_subsequence(id_task, 1.0, 8)
    with pytest.raises(BlockTooSmall):
        linf_embedding(id_task, np.ones(4), cert, block_size=4)


def test_embedding_scales_with_sup(id_task):
    cert = greedy_subsequence(id_task, 1.0, 64)
    base = linf_embedding(id_task, np.ones(4), cert, block_size=16)
    scaled = linf_embedding(id_task, 2.0 * np.ones(4), cert, block_size=16)
    assert scaled["lower"] == pytest.approx(2.0 * base["lower"])
    assert scaled["upper"] == pytest.approx(2.0 * base["upper"])

"""Greedy subsequence certificates, the refuter, and the sup-norm embedding."""

import dataclasses

import numpy as np
import pytest

from nestalg.algebra import MultiplicationTask
from nestalg.constructions import (
    certificate_check,
    counterexample_refuter,
    greedy_subsequence,
    linf_embedding,
    representation_residual,
    stabilization_analysis,
)
from nestalg.errors import BlockTooSmall, MalformedSpec, WitnessBudgetExhausted
from nestalg.nests import make_nest
from nestalg.operators import diag, identity, op_scale, wshift
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


def test_greedy_exhausts_on_vanishing_mass(n_all):
    # harmonic diagonal decays, so large-mass candidates run out
    task = MultiplicationTask.build(n_all, diag(rule_harmonic()), diag(rule_harmonic()))
    with pytest.raises(WitnessBudgetExhausted):
        greedy_subsequence(task, 0.9, 10, window=(1, 256))


def test_certificate_json_round_trip(id_task):
    from nestalg.constructions import SubseqCertificate

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

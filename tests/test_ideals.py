"""Diagonal expectations, the radical seminorm, and ideal decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestalg import ideals
from nestalg.ideals import (
    FiniteSubnest,
    canonical_chain,
    compact_members_ideal_report,
    delta_norm,
    diag_expectation,
    jc_decompose,
    radical_seminorm,
    reconstruction_residual,
    staircase_rest,
)
from nestalg.nests import make_nest
from nestalg.operators import (
    basis_vector,
    diag,
    identity,
    op_sum,
    rank_one,
    render,
    wshift,
)
from nestalg.rules import rule_const, rule_geometric, rule_harmonic


def test_finite_subnest_materializes_endpoints(n_all):
    f = FiniteSubnest.build(n_all, [3, 7])
    assert f.values[0] == 0.0
    assert f.values[-1] == np.inf
    assert 3.0 in f.values and 7.0 in f.values


def test_finite_subnest_refinement(n_all):
    coarse = FiniteSubnest.build(n_all, [4])
    fine = coarse.refine([2, 6])
    assert fine.is_refinement_of(coarse)
    assert not coarse.is_refinement_of(fine)


def test_expectation_keeps_block_diagonal(n_all):
    f = FiniteSubnest.build(n_all, [3])
    T = op_sum(diag(rule_harmonic()), rank_one(basis_vector(5), basis_vector(2)))
    e = diag_expectation(T, f)
    M = render(e, 1, 8)
    # cross-block cell (row 2, col 5) dies; diagonal survives
    assert M[1, 4] == 0.0
    assert M[1, 1] == pytest.approx(0.5)


def test_expectation_plus_rest_reconstructs_exactly(n_all):
    f = FiniteSubnest.build(n_all, [2, 5])
    T = op_sum(diag(rule_harmonic()), wshift(rule_geometric(0.5), "lower"))
    assert reconstruction_residual(T, f, (1, 64)) == 0.0


def test_rest_is_strictly_upper_staircase(n_all):
    f = FiniteSubnest.build(n_all, [3])
    T = identity()
    r = staircase_rest(T, f)
    M = render(r, 1, 8)
    assert np.all(M == 0.0)  # identity is block diagonal for every subnest


def test_delta_norm_identity_one(n_all):
    f = FiniteSubnest.build(n_all, [4])
    ni = delta_norm(identity(), f, cap=64, iters=60)
    assert ni.lo <= 1.0 + 1e-9
    assert ni.hi >= 1.0 - 1e-9


def test_canonical_chain_grows(n_all):
    chain = canonical_chain(n_all, depth=4)
    assert len(chain) == 4
    sizes = [len(f.values) for f in chain]
    assert sizes == sorted(sizes)
    for coarse, fine in zip(chain, chain[1:]):
        assert fine.is_refinement_of(coarse)


def test_radical_markers(n_all):
    # strictly-lower rank one: seminorm collapses to zero at the first split
    low = rank_one(basis_vector(2), basis_vector(1))
    est = radical_seminorm(n_all, low, depth=3)
    assert est.lo == 0.0
    assert est.hi == 0.0
    # identity: every diagonal compression keeps norm one
    est2 = radical_seminorm(n_all, identity(), depth=3)
    assert est2.lo == pytest.approx(1.0, abs=1e-8)
    assert est2.hi >= 1.0 - 1e-8


def test_radical_estimate_interval_ordered(n_all):
    T = wshift(rule_const(1.0), "lower")
    est = radical_seminorm(n_all, T, depth=3)
    assert est.lo <= est.hi + 1e-12
    assert est.lo == 0.0  # zero diagonal floor
    assert est.hi >= 1.0 - 1e-8  # but every delta keeps the shift's norm


def test_radical_chain_monotone_uppers(n_all):
    T = op_sum(diag(rule_harmonic()), wshift(rule_geometric(0.5), "lower"))
    est = radical_seminorm(n_all, T, depth=4)
    uppers = [row["delta_norm_hi"] for row in est.chain]
    running = [min(uppers[: k + 1]) for k in range(len(uppers))]
    assert est.hi == pytest.approx(running[-1])


@pytest.mark.parametrize(
    "spec, evaluations",
    [
        ({"basis": "N", "cuts": "all"}, 38),
        ({"basis": "Z", "cuts": "all"}, 76),
        ({"basis": "Z", "cuts": [-3, 0, 4]}, 6),
    ],
)
def test_radical_chain_evaluates_each_atom_once(monkeypatch, spec, evaluations):
    nest = make_nest(spec)
    T = op_sum(identity(), diag(rule_harmonic()))
    atoms = []
    atom_norm = ideals._atom_norm

    def counted(a, lo, hi, **kw):
        atoms.append((lo, hi))
        return atom_norm(a, lo, hi, **kw)

    monkeypatch.setattr(ideals, "_atom_norm", counted)
    est = radical_seminorm(nest, T, depth=6)
    assert len(atoms) == len(set(atoms)) == evaluations
    # every step still reports delta_norm of its subnest
    for row, f in zip(est.chain, canonical_chain(nest, 6)):
        iv = delta_norm(T, f)
        assert (row["delta_norm_lo"], row["delta_norm_hi"]) == (iv.lo, iv.hi)


def test_jc_decompose_classifies_each_part_once(monkeypatch, n_all):
    T = op_sum(identity(), wshift(rule_const(1.0), "lower"))
    calls = []

    def counted(name):
        fn = getattr(ideals, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("classify_compact", "radical_seminorm"):
        monkeypatch.setattr(ideals, name, counted(name))
    out = jc_decompose(n_all, T, depth=3)
    assert out.status == "Outside"
    assert sorted(calls) == ["classify_compact"] * 2 + ["radical_seminorm"] * 2


def test_jc_decompose_compact_member(n_all):
    from nestalg.operators import ZERO

    out = jc_decompose(n_all, diag(rule_harmonic()), depth=3)
    assert out.status == "Inside"
    assert out.radical_part is ZERO and out.leftover is ZERO


def test_jc_decompose_identity_outside(n_all):
    out = jc_decompose(n_all, identity(), depth=3)
    assert out.status == "Outside"


def test_jc_decompose_mixed_sum(n_all):
    T = op_sum(diag(rule_harmonic()), rank_one(basis_vector(3), basis_vector(1)))
    out = jc_decompose(n_all, T, depth=3)
    assert out.status == "Inside"


def test_ideal_report_shape(n_all, z_all):
    rep = compact_members_ideal_report(n_all)
    assert rep["is_ideal"] is True
    assert "admissible_corner_cuts" in rep
    rep_z = compact_members_ideal_report(z_all)
    assert rep_z["is_ideal"] is True


def test_expectation_is_idempotent(n_all):
    f = FiniteSubnest.build(n_all, [2, 6])
    T = op_sum(diag(rule_harmonic()), wshift(rule_geometric(0.5), "lower"))
    e1 = diag_expectation(T, f)
    e2 = diag_expectation(e1, f)
    M1 = render(e1, 1, 32)
    M2 = render(e2, 1, 32)
    assert np.allclose(M1, M2, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4, unique=True))
def test_reconstruction_exact_for_any_subnest(interior):
    nest = make_nest({"basis": "N", "cuts": "all"})
    f = FiniteSubnest.build(nest, sorted(interior))
    T = op_sum(diag(rule_harmonic()), wshift(rule_geometric(0.5), "lower"))
    assert reconstruction_residual(T, f, (1, 48)) <= 1e-12

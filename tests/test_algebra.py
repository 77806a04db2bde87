"""Membership in the triangular operator algebra attached to a nest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestalg.algebra import (
    MultiplicationTask,
    alg_membership,
    ambient_restrict,
    rank_one_membership,
)
from nestalg.nests import make_nest
from nestalg.operators import (
    basis_vector,
    diag,
    entry,
    finite_matrix,
    identity,
    interval_proj,
    op_sum,
    rank_one,
    wshift,
)
from nestalg.rules import rule_geometric, rule_harmonic


def test_diagonal_is_always_member(n_all, z_all, n_trivial, n_explicit):
    d = diag(rule_harmonic())
    for nest in (n_all, z_all, n_trivial, n_explicit):
        assert alg_membership(nest, d).status == "Member"


def test_lower_shift_member_raise_not(n_all):
    low = wshift(rule_geometric(0.5), "lower")
    assert alg_membership(n_all, low).status == "Member"
    v = alg_membership(n_all, wshift(rule_geometric(0.5), "raise"))
    assert v.status == "NonMember"
    # the witness pins a concrete violated compression cell
    assert v.witness is not None
    assert v.witness.cut.value == 1.0
    assert (v.witness.row, v.witness.col) == (2, 1)
    assert v.witness.value == pytest.approx(0.5)


def test_trivial_nest_accepts_everything(n_trivial):
    candidates = [
        wshift(rule_geometric(0.5), "raise"),
        finite_matrix(0, 5, [[1.0, 2.0], [3.0, 4.0]]),
        rank_one(basis_vector(9), basis_vector(1)),
    ]
    for T in candidates:
        assert alg_membership(n_trivial, T).status == "Member"


def test_rank_one_criterion(n_all):
    # rank_one(e, f) has its column at supp(e) and row at supp(f);
    # membership wants the column strictly above the cut covering the row
    assert rank_one_membership(n_all, basis_vector(5), basis_vector(3)).status == "Member"
    assert rank_one_membership(n_all, basis_vector(3), basis_vector(5)).status == "NonMember"
    assert rank_one_membership(n_all, basis_vector(3), basis_vector(3)).status == "Member"


def test_rank_one_criterion_explicit_cuts(n_explicit):
    # cuts at 3 and 7; rows <= 3 are covered by the cut at 3
    assert rank_one_membership(n_explicit, basis_vector(4), basis_vector(2)).status == "Member"
    assert rank_one_membership(n_explicit, basis_vector(2), basis_vector(4)).status == "NonMember"
    # rows in (3, 7] need column > 3 only
    assert rank_one_membership(n_explicit, basis_vector(4), basis_vector(6)).status == "Member"
    assert rank_one_membership(n_explicit, basis_vector(2), basis_vector(6)).status == "NonMember"


def test_membership_of_sums(n_all):
    good = op_sum(diag(rule_harmonic()), wshift(rule_geometric(0.5), "lower"))
    assert alg_membership(n_all, good).status == "Member"
    bad = op_sum(diag(rule_harmonic()), wshift(rule_geometric(0.5), "raise"))
    assert alg_membership(n_all, bad).status == "NonMember"


def test_finite_matrix_upper_triangular_member(n_all):
    up = finite_matrix(1, 1, [[1.0, 2.0], [0.0, 3.0]])
    assert alg_membership(n_all, up).status == "Member"
    down = finite_matrix(1, 1, [[1.0, 0.0], [2.0, 3.0]])
    assert alg_membership(n_all, down).status == "NonMember"


def test_ambient_restrict_masks_outside_basis(n_all):
    r = ambient_restrict(n_all, diag(rule_harmonic()))
    assert entry(r, -2, -2) == 0.0
    assert entry(r, 2, 2) == pytest.approx(0.5)


def test_multiplication_task_fields(n_all):
    t = MultiplicationTask(n_all, identity(), diag(rule_harmonic()))
    assert t.nest is n_all
    assert t.a == identity()


def test_interval_proj_member(n_all, n_explicit):
    # projections onto nest intervals are in the diagonal part
    assert alg_membership(n_all, interval_proj(2, 6)).status == "Member"
    assert alg_membership(n_explicit, interval_proj(3, 7)).status == "Member"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
)
def test_rank_one_member_iff_col_covers_row(c, r):
    nest = make_nest({"basis": "N", "cuts": "all"})
    v = rank_one_membership(nest, basis_vector(c), basis_vector(r))
    # on the full integer nest: member exactly when c >= r
    assert (v.status == "Member") == (c >= r)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
def test_rank_one_member_integers(c, r):
    nest = make_nest({"basis": "Z", "cuts": "all"})
    v = rank_one_membership(nest, basis_vector(c), basis_vector(r))
    assert (v.status == "Member") == (c >= r)

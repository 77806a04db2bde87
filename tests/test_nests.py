import math

import pytest
from hypothesis import given, strategies as st

from nestalg.errors import IndexMismatch, MalformedSpec
from nestalg.nests import NEG_INF, POS_INF, make_nest


def test_all_nest_on_n_has_zero_bottom(n_all):
    assert n_all.bottom.value == 0.0
    assert n_all.top.value == POS_INF
    assert n_all.is_all


def test_all_nest_on_z_has_infinite_bottom(z_all):
    assert z_all.bottom.value == NEG_INF


def test_explicit_nest_materializes_bottom_and_top(n_explicit):
    assert [c for c in n_explicit.cut_values] == [0.0, 3.0, 7.0, POS_INF]
    assert n_explicit.interior_values() == [3.0, 7.0]


def test_cuts_must_be_increasing():
    with pytest.raises(MalformedSpec):
        make_nest({"basis": "N", "cuts": [5, 2]})


def test_n_basis_rejects_nonpositive_cuts():
    with pytest.raises(IndexMismatch):
        make_nest({"basis": "N", "cuts": [-1, 4]})


def test_bad_basis_rejected():
    with pytest.raises(MalformedSpec):
        make_nest({"basis": "Q", "cuts": "all"})


def test_pred_succ_walk_the_integer_chain(n_all):
    c = n_all.as_cut(5)
    assert n_all.pred(c).value == 4.0
    assert n_all.succ(c).value == 6.0


def test_top_of_all_nest_is_a_limit_from_below(n_all):
    # no largest finite cut, so the join from below never attains the top
    assert n_all.pred(n_all.top) == n_all.top


def test_bottom_of_z_all_is_a_limit_from_above(z_all):
    assert z_all.succ(z_all.bottom) == z_all.bottom


def test_pred_of_bottom_stays_put(n_all, z_all):
    assert n_all.pred(n_all.bottom) == n_all.bottom
    assert z_all.pred(z_all.bottom) == z_all.bottom
    assert n_all.succ(n_all.top) == n_all.top


def test_explicit_pred_succ_jump_between_cuts(n_explicit):
    c3 = n_explicit.as_cut(3)
    assert n_explicit.pred(c3).value == 0.0
    assert n_explicit.succ(c3).value == 7.0
    assert n_explicit.succ(n_explicit.as_cut(7)).value == POS_INF


def test_largest_and_smallest_cut_searches(n_explicit):
    assert n_explicit.largest_cut_leq(6.0).value == 3.0
    assert n_explicit.largest_cut_leq(7.0).value == 7.0
    assert n_explicit.smallest_cut_geq(4.0).value == 7.0
    assert n_explicit.smallest_cut_geq(100.0).value == POS_INF


def test_cuts_in_window(n_all, n_explicit):
    assert [c.value for c in n_all.cuts_in_window(2, 5)] == [2.0, 3.0, 4.0, 5.0]
    assert [c.value for c in n_explicit.cuts_in_window(0, 6)] == [0.0, 3.0]


def test_window_convention(n_all, n_explicit, z_all):
    assert n_all.window(3) == n_explicit.window(3) == (1, 6)
    assert z_all.window(3) == (-3, 3)


def test_json_round_trip(n_explicit, z_all):
    assert make_nest(n_explicit.to_json()) == n_explicit
    assert make_nest(z_all.to_json()) == z_all


def test_render_string(n_all):
    assert str(n_all) == "Nest(N; cuts=all)"


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6, unique=True))
def test_explicit_nest_pred_succ_inverse(vals):
    nest = make_nest({"basis": "N", "cuts": sorted(vals)})
    for v in sorted(vals):
        c = nest.as_cut(v)
        assert nest.succ(nest.pred(c)) == c
        assert nest.pred(nest.succ(c)) == c


@given(st.integers(min_value=-50, max_value=50))
def test_z_all_contains_every_integer(i):
    nest = make_nest({"basis": "Z", "cuts": "all"})
    assert nest.contains(i)
    assert nest.largest_cut_leq(i).value == float(i)

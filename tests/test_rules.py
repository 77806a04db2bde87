import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nestalg.errors import SchemaError, UnknownSupport
from nestalg.operators import basis_vector, make_vector, norm_bound, rank_one
from nestalg.rules import (
    ROUNDING_SLACK,
    Support,
    exact_support,
    rule_comb,
    rule_const,
    rule_finite,
    rule_from_json,
    rule_geometric,
    rule_harmonic,
    rule_indicator,
    rule_mask,
    rule_power,
    rule_product,
    rule_scale,
    rule_shift,
    rule_sum,
    rule_to_json,
)


def test_harmonic_values():
    h = rule_harmonic()
    assert h.value(1) == 1.0
    assert h.value(4) == 0.25
    assert h.value(-2) == 0.5
    # the origin is a hole, not a pole
    assert h.value(0) == 0.0
    assert not h.never_zero()


def test_harmonic_vanishes_at_infinity():
    h = rule_harmonic()
    t = h.tail(+1)
    assert t.P == (0,) and t.vanishes  # limit 0, limsup 0
    assert t.env(1000) == pytest.approx(1e-3)
    assert h.is_square_summable()


def test_const_rule():
    c = rule_const(0.75)
    assert c.value(123) == 0.75
    assert c.sup_abs() == 0.75
    t = c.tail(-1)
    assert t.P == (Fraction(0.75),) and t.env(-5) == 0.0
    assert t.peak() == 0.75
    assert not c.is_square_summable()


def test_zero_const_has_empty_support():
    z = rule_const(0.0)
    s = z.support
    assert s.exact and s.lo > s.hi


def test_indicator_window():
    r = rule_indicator(3, 6)
    assert [r.value(i) for i in range(2, 8)] == [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    assert exact_support(r).lo == 3.0
    assert exact_support(r).hi == 6.0


def test_geometric_decay_and_square_sum():
    g = rule_geometric(0.5)
    assert g.value(3) == 0.125
    assert g.is_square_summable()
    assert g.sq_tail(2, +1) == pytest.approx(sum(0.25**k for k in range(2, 60)), rel=1e-9)


def test_finite_rule_drops_zeros():
    f = rule_finite({2: 1.0, 5: 0.0, 7: -0.5})
    assert f.value(5) == 0.0
    assert exact_support(f).lo == 2.0
    assert exact_support(f).hi == 7.0


def test_comb_is_periodic():
    c = rule_comb(3, 1)
    hits = [i for i in range(12) if c.value(i) == 1.0]
    assert hits == [1, 4, 7, 10]
    t = c.tail(+1)
    assert t.P == (0, 1, 0) and t.env(0) == 0.0  # exactly periodic


def test_power_decay_is_zero_at_origin():
    p = rule_power(2.0)
    assert p.value(0) == 0.0
    assert p.value(3) == pytest.approx(1 / 9)
    assert not p.never_zero()


def test_scale_and_shift_compose():
    r = rule_shift(rule_scale(rule_harmonic(), 2.0), 3)
    assert r.value(4) == 2.0  # reads the base at 1
    assert r.value(3) == 0.0  # base origin hole


def test_mask_restricts_support():
    m = rule_mask(rule_const(1.0), 2, 5)
    assert m.value(1) == 0.0
    assert m.value(5) == 1.0
    assert exact_support(m).hi == 5.0


def test_sum_and_product_values():
    s = rule_sum(rule_indicator(1, 3), rule_indicator(3, 5))
    assert s.value(3) == 2.0
    p = rule_product(rule_harmonic(), rule_indicator(2, None))
    assert p.value(1) == 0.0
    assert p.value(4) == 0.25


def test_infinite_plateau_probe():
    # |r| >= 0.5 infinitely often toward +inf exactly when max|P| >= 0.5
    for rule, plateau in ((rule_const(1.0), True), (rule_harmonic(), False), (rule_comb(2, 0), True)):
        t = rule.tail(+1)
        assert (t.peak() >= 0.5) is plateau
        assert (not t.vanishes) is plateau


def test_values_on_matches_value():
    r = rule_sum(rule_geometric(0.5), rule_indicator(-3, 2))
    vals = r.values_on(-5, 5)
    assert list(vals) == [r.value(i) for i in range(-5, 6)]


def test_json_round_trip_spec_kinds():
    docs = [
        {"kind": "const", "c": 0.5},
        {"kind": "harmonic"},
        {"kind": "geometric", "r": 0.25},
        {"kind": "finite", "table": {"2": 1.0, "9": -1.0}},
        {"kind": "indicator", "lo": 1, "hi": 6},
        {"kind": "scaled", "factor": 2.0, "base": {"kind": "harmonic"}},
        {"kind": "shifted", "offset": -2, "base": {"kind": "geometric", "r": 0.5}},
    ]
    for doc in docs:
        r = rule_from_json(doc)
        r2 = rule_from_json(rule_to_json(r)) if rule_to_json(r)["kind"] in (
            "const", "harmonic", "geometric", "finite", "indicator", "scaled", "shifted"
        ) else r
        for i in range(-8, 9):
            assert r2.value(i) == r.value(i)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "indicator", "lo": 2.5, "hi": 6},
        {"kind": "indicator", "lo": -6.5, "hi": -0.5},
        {"kind": "masked", "base": {"kind": "harmonic"}, "lo": 1.5, "hi": 8},
    ],
)
def test_fractional_ends_round_trip(doc):
    r = rule_from_json(doc)
    again = rule_from_json(rule_to_json(r))
    assert [again.value(i) for i in range(-12, 13)] == [r.value(i) for i in range(-12, 13)]


@pytest.mark.parametrize(
    "rule, want",
    [
        (rule_mask(rule_comb(2, 0), 1, None), Support(2, math.inf, True)),
        (rule_mask(rule_comb(2, 0), None, 3), Support(-math.inf, 2, True)),
    ],
    ids=["right-end", "left-end"],
)
def test_exact_support_certifies_one_sided_plateau(rule, want):
    # the infinite end is reached against the direction of the inward scan
    assert exact_support(rule) == want


def test_exact_support_certifies_both_ends_from_the_periodic_part():
    # toward -inf the periodic part is (-1.236 + 0.629, 0.629, 0.629), toward +inf (-1.236, 0, 0)
    r = rule_sum(rule_scale(rule_comb(3, 0), -1.236), rule_scale(rule_indicator(None, -2), 0.629))
    assert exact_support(r) == Support(-math.inf, math.inf, True)


def test_plateau_and_ceiling_allow_for_the_rounding():
    even = rule_comb(2, 0)
    # exactly -2^-55 on the even indices, 0.0 in floats: no nonzero end is certified
    below = rule_sum(
        rule_sum(rule_scale(even, 0.1), rule_scale(even, 0.2)), rule_scale(even, -0.30000000000000004)
    )
    assert below.tail(+1).P == (Fraction(-1, 2**55), 0)
    assert below.plateau(+1) == below.plateau(-1) == 0.0
    assert not below.support.exact
    with pytest.raises(UnknownSupport):
        exact_support(below)
    # exactly 0, but -2^-60 in floats: the values are not certified to vanish
    residue = rule_sum(
        rule_sum(rule_sum(even, rule_scale(even, 2.0**-60)), rule_scale(even, -1.0)), rule_scale(even, -(2.0**-60))
    )
    assert residue.tail(+1).vanishes and residue.ceiling(+1) > 0.0
    # float parts throughout: the values are 0.0, and the ceiling says so
    zero = rule_sum(rule_sum(even, rule_comb(2, 1)), rule_const(-1.0))
    assert zero.ceiling(+1) == zero.ceiling(-1) == 0.0
    # 0.1 + 0.2 is no float, but a mask past its end or a vanishing factor zeroes it
    tenths = rule_sum(rule_scale(even, 0.1), rule_scale(even, 0.2))
    assert tenths.ceiling(+1) > 0.3
    assert rule_mask(tenths, None, 0).ceiling(+1) == 0.0
    assert rule_product(rule_harmonic(), tenths).ceiling(+1) == 0.0
    assert rule_sum(rule_scale(rule_comb(2, 1), -0.999), rule_comb(2, 1)).plateau(+1) == pytest.approx(0.001)


def test_opposite_geometrics_stay_unknown():
    # 0.5^|i| + (-0.5)^|i| has P = 0 toward both ends: only a parity
    # argument would show it is nonzero at every even index
    r = rule_sum(rule_geometric(0.5), rule_geometric(-0.5))
    assert r.tail(+1).vanishes and r.tail(-1).vanishes
    with pytest.raises(UnknownSupport):
        exact_support(r)


def test_unknown_kind_raises():
    with pytest.raises(SchemaError):
        rule_from_json({"kind": "mystery"})


finite_rules = st.dictionaries(
    st.integers(min_value=-10, max_value=10),
    st.floats(min_value=-2, max_value=2, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
    min_size=1,
    max_size=5,
)


@given(finite_rules)
def test_finite_rule_support_is_exact(table):
    r = rule_finite(table)
    s = exact_support(r)
    nz = [i for i, v in table.items() if v != 0.0]
    assert s.lo == min(nz) and s.hi == max(nz)


@given(st.integers(min_value=-6, max_value=6), finite_rules)
def test_shift_moves_values(off, table):
    base = rule_finite(table)
    shifted = rule_shift(base, off)
    for i in range(-20, 21):
        assert shifted.value(i) == base.value(i - off)


@given(finite_rules, finite_rules)
def test_rule_sum_is_pointwise(t1, t2):
    a, b = rule_finite(t1), rule_finite(t2)
    s = rule_sum(a, b)
    for i in range(-15, 16):
        assert s.value(i) == a.value(i) + b.value(i)


# sums, products, scales, shifts and one-sided masks of the atoms with a tail
tail_atoms = st.one_of(
    st.builds(rule_comb, st.integers(2, 4), st.integers(0, 3)),
    st.builds(rule_power, st.sampled_from([0.5, 1.0, 2.0])),
    st.builds(rule_geometric, st.sampled_from([0.3, 0.5, 0.8, -0.5, -0.8])),
    st.builds(rule_const, st.floats(-1.5, 1.5, allow_nan=False)),
    st.builds(rule_indicator, st.integers(-8, 8), st.none()),
    st.builds(rule_indicator, st.none(), st.integers(-8, 8)),
)
tail_rules = st.recursive(
    tail_atoms,
    lambda inner: st.one_of(
        st.builds(rule_sum, inner, inner),
        st.builds(rule_product, inner, inner),
        st.builds(rule_scale, inner, st.floats(-2, 2, allow_nan=False)),
        st.builds(rule_shift, inner, st.integers(-7, 7)),
        st.builds(rule_mask, inner, st.integers(-8, 8), st.none()),
        st.builds(rule_mask, inner, st.none(), st.integers(-8, 8)),
    ),
    max_leaves=6,
)


@given(st.one_of(tail_rules, finite_rules.map(rule_finite)), st.integers(-12, 12))
@example(rule_mask(rule_comb(3, 0), 0, 10), 4)  # a finite window over a plateau
@example(rule_geometric(0.9), 0)
@settings(max_examples=300, deadline=None)
def test_sq_tail_bounds_are_sound(rule, n):
    # sq_tail(n, d) bounds the sum of value(i)**2 over the indices from n on
    # toward d, so it dominates the sum over 200 of them in either direction
    for d in (+1, -1):
        partial = sum(rule.value(n + d * k) ** 2 for k in range(200))
        assert partial <= rule.sq_tail(n, d) * (1.0 + 1e-12)
    assert rule.is_square_summable() == math.isfinite(rule.sq_tail(0, -1) + rule.sq_tail(1, +1))


def test_a_finite_window_over_a_plateau_is_square_summable():
    # comb(3, 0) on 0..10 has four unit entries: the window, not the comb's
    # infinite sum of squares, bounds the norm of a rank-one built on it
    r = rule_mask(rule_comb(3, 0), 0, 10)
    assert r.sq_total() <= 11.0 and r.is_square_summable()
    assert rule_mask(rule_comb(3, 0), 0, None).sq_total() == math.inf
    assert norm_bound(rank_one(make_vector(r), basis_vector(1))) <= math.sqrt(11.0)


@given(
    tail_rules,
    st.one_of(st.integers(-12, 12), st.integers(-5000, 300)),
    st.lists(st.integers(200, 5000), min_size=1, max_size=8),
)
@example(rule_shift(rule_sum(rule_comb(3, 0), rule_harmonic()), 1), 0, [200])  # a rotated period
@settings(max_examples=300, deadline=None)
def test_tail_bounds_the_rule_far_out(rule, n, beyond):
    # env(n) bounds |r(i) - P[i mod L]| at every i with direction * i >= n:
    # at n itself and 200 to 5,000 beyond it (across the origin when n < 0);
    # value() evaluates the exact sequence in floating point, within the
    # rounding allowance that plateau() and ceiling() assume
    allowance = ROUNDING_SLACK * (1.0 + rule.sup_abs())
    for direction in (+1, -1):
        t = rule.tail(direction)
        assert all(isinstance(p, Fraction) for p in t.P)
        assert t.env(n) >= t.env(n + 1000)
        for k in (0, 1, *beyond):
            i = direction * (n + k)
            assert abs(Fraction(rule.value(i)) - t.P[i % len(t.P)]) <= t.env(n) + allowance

import math

import pytest
from hypothesis import given, settings, strategies as st

from nestalg.errors import SchemaError
from nestalg.rules import (
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
    assert h.limit(+1) == 0.0
    assert h.tail_sup(+1) == 0.0
    assert h.is_square_summable()


def test_const_rule():
    c = rule_const(0.75)
    assert c.value(123) == 0.75
    assert c.sup_abs() == 0.75
    assert c.tail_sup(-1) == 0.75
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
    assert c.periodic_profile(+1) is not None


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
    assert rule_const(1.0).infinite_plateau(0.5, +1) is True
    assert rule_harmonic().infinite_plateau(0.5, +1) is False
    assert rule_comb(2, 0).infinite_plateau(0.5, +1) is True


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


@given(
    st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=60)
def test_geometric_sq_tail_bounds_are_sound(ratio, n):
    g = rule_geometric(ratio)
    # inclusive square tail dominates any finite partial sum
    partial = sum(g.value(i) ** 2 for i in range(n, n + 40))
    assert g.sq_tail(n, +1) >= partial - 1e-12


@given(finite_rules, finite_rules)
def test_rule_sum_is_pointwise(t1, t2):
    a, b = rule_finite(t1), rule_finite(t2)
    s = rule_sum(a, b)
    for i in range(-15, 16):
        assert s.value(i) == a.value(i) + b.value(i)

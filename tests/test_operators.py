"""Operator expressions: constructors, canonical forms, rendering, entries."""

import copy
import gc
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestalg import rules as rule_module
from nestalg.errors import SchemaError, UnboundedRule
from nestalg.operators import (
    ZERO,
    Band,
    ProductOp,
    FiniteMatrix,
    RankOne,
    RuledVector,
    SumOp,
    _canon_once,
    apply_to_vector,
    band,
    basis_vector,
    adjoint,
    canonicalize,
    col_support,
    compress,
    diag,
    entry,
    OPERATOR_SCHEMA,
    finite_matrix,
    flatten_sum,
    identity,
    interval_proj,
    make_vector,
    norm_bound,
    op_adjoint,
    op_product,
    op_scale,
    op_sum,
    operator_to_json,
    parse_operator,
    rank_one,
    render,
    render_with_leakage,
    row_support,
    wshift,
)
from nestalg.rules import (
    RULE_SCHEMA,
    FiniteRule,
    PowerDecayRule,
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


def dense(T, lo, hi):
    return render(T, lo, hi)


def test_diag_entries_match_rule():
    d = diag(rule_harmonic())
    assert entry(d, 2, 2) == 0.5
    assert entry(d, 2, 3) == 0.0
    M = dense(d, -3, 4)
    assert M.shape == (8, 8)
    # row index 5 in the window is absolute index 2
    assert M[5, 5] == 0.5
    assert M[3, 3] == 0.0  # harmonic has a hole at 0


def test_identity_and_interval_proj():
    assert entry(identity(), 7, 7) == 1.0
    assert entry(identity(), 7, 8) == 0.0
    # cut semantics: lo < i <= hi
    p = interval_proj(2, 5)
    assert entry(p, 2, 2) == 0.0
    assert entry(p, 3, 3) == 1.0
    assert entry(p, 5, 5) == 1.0
    assert entry(p, 6, 6) == 0.0


def test_interval_proj_unbounded_sides():
    left = interval_proj(None, 0)
    assert entry(left, 0, 0) == 1.0
    assert entry(left, 1, 1) == 0.0
    assert entry(left, -100, -100) == 1.0
    right = interval_proj(0, None)
    assert entry(right, 1, 1) == 1.0
    assert entry(right, 0, 0) == 0.0


@pytest.mark.parametrize(
    "doc",
    [
        {"op": "interval_proj", "lo": "inf"},
        {"op": "interval_proj", "hi": "-inf"},
        {"op": "interval_proj", "lo": "inf", "hi": "inf"},
        {"op": "interval_proj", "lo": "-inf", "hi": "-inf"},
    ],
)
def test_interval_proj_onto_no_index_is_zero(doc):
    assert parse_operator(doc) == ZERO


@pytest.mark.parametrize("lo, hi", [(-2.5, 0), (-2.5, 0.5), (-3, 0.5), (-3, 0)])
def test_interval_proj_floors_negative_fractional_cuts(lo, hi):
    # lo < i <= hi keeps -2, -1 and 0 of the window -4..1
    assert np.diag(render(interval_proj(lo, hi), -4, 1)).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]


def test_wshift_direction_and_entries():
    w = wshift(rule_geometric(0.5), "lower")
    # lower shift moves mass to the previous index: nonzero at (j-1, j)
    assert entry(w, 1, 2) == 0.25
    assert entry(w, 2, 1) == 0.0
    r = wshift(rule_geometric(0.5), "raise")
    assert entry(r, 2, 1) == pytest.approx(0.5)
    with pytest.raises(SchemaError):
        wshift(rule_geometric(0.5), "sideways")


def test_rank_one_orientation():
    # rank_one(e, f): entry (i, j) = e(j) * f(i)
    x = rank_one(basis_vector(2), basis_vector(5))
    assert entry(x, 5, 2) == 1.0
    assert entry(x, 2, 5) == 0.0
    assert col_support(x) == row_support(x).__class__(lo=2.0, hi=2.0, exact=True)
    assert row_support(x).lo == 5.0


def test_rank_one_requires_square_summable():
    from nestalg.operators import make_vector

    with pytest.raises(UnboundedRule):
        rank_one(make_vector(rule_const(1.0)), basis_vector(0))


def test_finite_matrix_trimming():
    m = finite_matrix(1, 2, [[0.0, 1.0], [0.0, 0.0]])
    # zero rows and columns trimmed away, origin shifts
    assert m.row_lo == 1 and m.col_lo == 3
    assert m.rows == ((1.0,),)
    assert finite_matrix(0, 0, [[0.0]]) is ZERO


def test_finite_matrix_ragged_rejected():
    with pytest.raises(SchemaError):
        finite_matrix(0, 0, [[1.0, 2.0], [3.0]])


def test_zero_absorption():
    d = diag(rule_harmonic())
    assert canonicalize(op_sum(d, ZERO)) == canonicalize(d)
    assert canonicalize(op_product(d, ZERO)) is ZERO
    assert canonicalize(op_scale(0.0, d)) is ZERO
    assert diag(rule_const(0.0)) is ZERO


def test_scale_folding():
    s = canonicalize(op_scale(2.0, op_scale(3.0, identity())))
    assert entry(s, 4, 4) == 6.0


def test_adjoint_eliminated_in_canonical_form():
    # canonicalize pushes adjoints down to leaves; no Adjoint node survives
    w = wshift(rule_geometric(0.5), "lower")
    aw = canonicalize(op_adjoint(w))
    assert type(aw).__name__ == "Band"
    assert aw.offset == 1
    # adjoint swaps the rank-one symbols
    x = rank_one(basis_vector(2), basis_vector(5))
    ax = canonicalize(op_adjoint(x))
    assert entry(ax, 2, 5) == 1.0
    assert entry(ax, 5, 2) == 0.0


def test_adjoint_is_matrix_transpose():
    pieces = op_sum(
        diag(rule_harmonic()),
        wshift(rule_geometric(0.5), "lower"),
        finite_matrix(0, 1, [[1.0, -2.0], [0.5, 0.0]]),
    )
    a = canonicalize(op_adjoint(pieces))
    M = dense(pieces, -4, 6)
    A = dense(a, -4, 6)
    assert np.allclose(A, M.T)


def test_band_product_composes_offsets():
    w = wshift(rule_geometric(0.5), "lower")
    p = canonicalize(op_product(w, w))
    assert type(p).__name__ == "Band"
    assert p.offset == -2
    M = dense(w, 0, 8)
    assert np.allclose(dense(p, 0, 8), M @ M)


def test_product_render_matches_matrix_product():
    a = op_sum(diag(rule_harmonic()), wshift(rule_geometric(0.5), "raise"))
    b = op_sum(identity(), finite_matrix(2, 3, [[1.0, 4.0]]))
    p = op_product(a, b)
    # band/finite structure keeps leakage out of a comfortably padded window
    lo, hi = -16, 16
    Mp = dense(p, lo, hi)
    Ma = dense(a, lo, hi)
    Mb = dense(b, lo, hi)
    inner = slice(8, 25)
    assert np.allclose(Mp[inner, inner], (Ma @ Mb)[inner, inner])


def test_render_leakage_flag():
    w = wshift(rule_geometric(0.5), "lower")
    _, leak = render_with_leakage(w, 0, 5)
    assert isinstance(leak, float)
    assert leak >= 0.0


def test_norm_bound_upper_bounds_window_norm():
    cases = [
        diag(rule_harmonic()),
        wshift(rule_geometric(0.5), "lower"),
        op_sum(identity(), diag(rule_geometric(0.25))),
        rank_one(basis_vector(1), basis_vector(4)),
        op_scale(-3.0, identity()),
    ]
    for T in cases:
        nb = norm_bound(T)
        M = dense(T, -12, 12)
        win = float(np.linalg.norm(M, 2))
        assert win <= nb + 1e-9


def test_apply_to_vector_matches_dense_matvec():
    T = op_sum(
        diag(rule_harmonic()),
        wshift(rule_geometric(0.5), "lower"),
        op_scale(2.0, finite_matrix(1, 1, [[1.0, 0.0], [3.0, -1.0]])),
    )
    h = rule_finite({1: 1.0, 2: -0.5, 3: 2.0})
    out = apply_to_vector(T, h)
    lo, hi = -6, 10
    M = dense(T, lo, hi)
    hv = np.array([h.value(i) for i in range(lo, hi + 1)])
    want = M @ hv
    got = np.array([out.value(i) for i in range(lo, hi + 1)])
    assert np.allclose(got, want)


def test_json_round_trip_all_ops():
    docs = [
        {"op": "zero"},
        {"op": "identity"},
        {"op": "diag", "rule": {"kind": "harmonic"}},
        {"op": "wshift", "direction": "lower", "rule": {"kind": "geometric", "r": 0.5}},
        {
            "op": "rank_one",
            "e": {"kind": "finite", "table": {"2": 1.0}},
            "f": {"kind": "finite", "table": {"5": 1.0}},
        },
        {"op": "interval_proj", "lo": 0, "hi": 4},
        {"op": "interval_proj", "lo": None, "hi": 0},
        {"op": "scale", "scalar": 0.5, "x": {"op": "identity"}},
        {
            "op": "sum",
            "terms": [
                {"op": "identity"},
                {"op": "diag", "rule": {"kind": "const", "c": -1.0}},
            ],
        },
        {
            "op": "product",
            "factors": [
                {"op": "diag", "rule": {"kind": "harmonic"}},
                {"op": "identity"},
            ],
        },
        {"op": "adjoint", "x": {"op": "wshift", "direction": "lower", "rule": {"kind": "const", "c": 1.0}}},
        {"op": "finite_matrix", "row_lo": 0, "col_lo": 1, "entries": [[1.0, 2.0]]},
    ]
    for doc in docs:
        T = parse_operator(doc)
        again = parse_operator(operator_to_json(T))
        M1 = dense(T, -8, 8)
        M2 = dense(again, -8, 8)
        assert np.array_equal(M1, M2), doc["op"]


COMB = {"kind": "comb", "modulus": 2, "residue": 0}
HARMONIC = {"kind": "harmonic"}

# one document per row of the rule table
RULE_DOCS = [
    {"kind": "const", "c": -0.5},
    HARMONIC,
    {"kind": "power", "p": 2.0},
    {"kind": "geometric", "r": -0.5},
    {"kind": "finite", "table": {"-2": 1.5, "3": -1.0}},
    {"kind": "indicator", "lo": "-inf", "hi": 4},
    {"kind": "comb", "modulus": 3, "residue": 1},
    {"kind": "scaled", "base": COMB, "factor": -0.75},
    {"kind": "shifted", "base": HARMONIC, "offset": 2},
    {"kind": "masked", "base": COMB, "lo": 1, "hi": "inf"},
    {"kind": "product", "left": COMB, "right": HARMONIC},
    {"kind": "sum", "left": COMB, "right": HARMONIC},
]

DIAG_H = {"op": "diag", "rule": HARMONIC}
IDENTITY = {"op": "identity"}

# one document per row of the operator table
OPERATOR_DOCS = [
    {"op": "zero"},
    IDENTITY,
    DIAG_H,
    {"op": "wshift", "direction": "raise", "rule": {"kind": "geometric", "r": 0.5}},
    {"op": "band", "rule": COMB, "offset": -2},
    {"op": "interval_proj", "lo": 0, "hi": 4},
    {"op": "rank_one", "e": {"kind": "finite", "table": {"2": 1.0}}, "f": {"kind": "geometric", "r": 0.5}},
    {"op": "finite_matrix", "row_lo": -1, "col_lo": 2, "entries": [[1.0, 0.0], [2.0, -3.0]]},
    {"op": "sum", "terms": [IDENTITY, DIAG_H, {"op": "band", "rule": COMB, "offset": 3}]},
    {"op": "sum", "left": IDENTITY, "right": DIAG_H},
    {"op": "scale", "scalar": 0.5, "x": {"op": "product", "left": DIAG_H, "right": IDENTITY}},
    {"op": "product", "factors": [DIAG_H, IDENTITY, DIAG_H]},
    {"op": "product", "left": DIAG_H, "right": IDENTITY},
    {"op": "adjoint", "x": {"op": "wshift", "direction": "lower", "rule": COMB}},
]


@pytest.mark.parametrize(
    "docs, parse, emit, schema",
    [
        (RULE_DOCS, rule_from_json, rule_to_json, RULE_SCHEMA),
        (OPERATOR_DOCS, parse_operator, operator_to_json, OPERATOR_SCHEMA),
    ],
    ids=["rules", "operators"],
)
def test_every_schema_kind_round_trips(docs, parse, emit, schema):
    nodes = [parse(doc) for doc in docs]
    assert {doc[schema.tag] for doc in docs} == set(schema.readers)
    assert {type(node) for node in nodes} >= set(schema.writers)
    for doc, node in zip(docs, nodes):
        assert parse(json.loads(json.dumps(emit(node)))) == node, doc


def test_bands_are_written_as_band():
    doc = operator_to_json(wshift(rule_harmonic(), "lower"))
    assert doc == {"op": "band", "rule": {"kind": "harmonic"}, "offset": -1}


ends = st.one_of(st.none(), st.integers(min_value=-6, max_value=6))
atom_rules = st.one_of(
    st.sampled_from([0.5, -1.25]).map(rule_const),
    st.sampled_from([0.5, 1.0, 2.0]).map(rule_power),
    st.sampled_from([0.5, -0.5]).map(rule_geometric),
    st.dictionaries(st.integers(-6, 6), st.sampled_from([-1.0, 0.5]), min_size=1, max_size=3).map(rule_finite),
    st.builds(rule_indicator, ends, ends),
    st.builds(rule_comb, st.integers(2, 4), st.integers(0, 3)),
)
rules = st.recursive(
    atom_rules,
    lambda inner: st.one_of(
        st.builds(rule_scale, inner, st.sampled_from([-0.5, 1.5])),
        st.builds(rule_shift, inner, st.integers(-3, 3)),
        st.builds(rule_mask, inner, ends, ends),
        st.builds(rule_product, inner, inner),
        st.builds(rule_sum, inner, inner),
    ),
    max_leaves=4,
)
# rank-one symbols are masked to a short window: square-summable, and
# cheap to pair in canonicalize
vectors = (
    st.builds(lambda r, lo: rule_mask(r, lo, lo + 5), rules, st.integers(-6, 6))
    .filter(lambda r: r.is_square_summable() is True)
    .map(make_vector)
)
leaves = st.one_of(
    st.builds(band, rules, st.integers(-3, 3)),
    st.builds(rank_one, vectors, vectors),
    st.builds(
        finite_matrix,
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.lists(st.lists(st.sampled_from([0.0, 1.0, -0.5]), min_size=2, max_size=2), min_size=1, max_size=3),
    ),
)
operators = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda ts: op_sum(*ts)),
        st.builds(op_product, inner, inner),
        st.builds(op_scale, st.sampled_from([-1.0, -0.5, 3.0]), inner),
    ),
    max_leaves=4,
)


cuts = st.one_of(
    st.none(),
    st.integers(-8, 8),
    st.fractions(-8, 8, max_denominator=4),
    st.sampled_from([-math.inf, math.inf]),
)


def _support_rule_fires(T, lo, hi) -> bool:
    """The window holds no index, or the support hulls of T's canonical form
    both lie inside it, or one of them misses it."""
    p = interval_proj(lo, hi)
    if p is ZERO:
        return True
    w, K = p.rule.support, canonicalize(T)
    hulls = (row_support(K), col_support(K))
    inside = all(w.lo <= s.lo and s.hi <= w.hi for s in hulls)
    return inside or any(s.is_empty or s.hi < w.lo or s.lo > w.hi for s in hulls)


@settings(max_examples=300, deadline=None)
@given(st.lists(leaves, min_size=1, max_size=3).map(lambda ts: op_sum(*ts)), cuts, cuts)
@example(op_sum(band(rule_harmonic(), -1), finite_matrix(2, 3, [[1.0]])), None, None)
@example(rank_one(basis_vector(2), basis_vector(5)), 1, 5)
@example(rank_one(basis_vector(2), basis_vector(5)), Fraction(5, 2), math.inf)
@example(diag(rule_indicator(0, 3)), Fraction(1, 4), Fraction(3, 4))
def test_compress_reads_support_hulls_as_the_rewrite_would(T, lo, hi):
    p = interval_proj(lo, hi)
    rewrite = canonicalize(op_product(op_product(p, T), p))
    C = compress(T, lo, hi)
    if _support_rule_fires(T, lo, hi):
        assert C is rewrite
    ends = [float(c) for c in (lo, hi) if c is not None and math.isfinite(c)]
    wlo, whi = math.floor(min(ends, default=0.0)) - 6, math.ceil(max(ends, default=0.0)) + 6
    assert np.array_equal(render(C, wlo, whi), render(rewrite, wlo, whi))


@settings(max_examples=60, deadline=None)
@given(operators)
def test_canonical_forms_round_trip(T):
    C = canonicalize(T)
    again = parse_operator(json.loads(json.dumps(operator_to_json(C))))
    assert np.array_equal(render(again, -12, 12), render(C, -12, 12))


@settings(max_examples=200, deadline=None)
@given(operators)
@example(op_scale(-1.0, op_product(identity(), op_sum(
    finite_matrix(3, 2, [[0, 1, 0], [0.5, -1, 1], [0.5, 0.5, 0.5]]), identity()))))
def test_one_pass_is_a_fixpoint(T):
    C = canonicalize(T)
    assert _canon_once(C) is C
    assert all(_canon_once(part) is part for part in flatten_sum(C))


# a band with a zero entry at index 2, and a block with zero entries
BLOCK = finite_matrix(1, 2, [[0.0, 1.5, -0.25], [0.5, 0.0, 0.0], [-1.0, 0.0, 0.75]])
BAND_RULE = rule_sum(rule_geometric(0.5), rule_finite({2: -0.25}))


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("band_left", [True, False], ids=["band-block", "block-band"])
def test_block_band_products_match_dense_products(offset, band_left):
    lo, hi = -3, 8  # holds the block's rows and columns moved by any offset
    l, r = (band(BAND_RULE, offset), BLOCK) if band_left else (BLOCK, band(BAND_RULE, offset))
    C = canonicalize(op_product(l, r))
    assert type(C) is FiniteMatrix
    assert np.array_equal(render(C, lo, hi), render(l, lo, hi) @ render(r, lo, hi))


def test_a_scale_document_over_a_product_renders_as_the_scaled_product():
    product = {"op": "product", "left": {"op": "band", "rule": {"kind": "geometric", "r": 0.5}, "offset": 1},
               "right": {"op": "finite_matrix", "row_lo": 1, "col_lo": 2, "entries": [[0.0, 1.5], [0.5, 0.0]]}}
    T = parse_operator({"op": "scale", "scalar": -0.5, "x": product})
    assert type(T) is ProductOp
    assert operator_to_json(T)["op"] == "product"
    assert np.array_equal(render(T, -2, 6), -0.5 * render(parse_operator(product), -2, 6))


@pytest.mark.parametrize("lo, hi", [(-6, 6), (-2, 3), (0, 9), (3, 4), (-9, -1)])
def test_render_matches_hand_built_matrix(lo, hi):
    # overlapping bands, rank-ones and finite blocks, each clipped by some window
    g = rule_geometric(0.5)
    T = op_sum(
        diag(rule_indicator(-3, 5)),
        band(g, 2),
        band(rule_const(0.25), -3),
        band(rule_scale(rule_comb(2, 1), -1.5), 2),
        rank_one(make_vector(rule_finite({-1: 2.0, 4: 1.0})), make_vector(rule_finite({0: 0.5, 7: -1.0}))),
        rank_one(make_vector(rule_finite({2: 1.0})), make_vector(rule_finite({2: 3.0, -4: 1.0}))),
        finite_matrix(-2, 1, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        finite_matrix(3, -4, [[0.5, -0.5], [1.5, 0.0], [0.0, 2.5]]),
    )
    want = np.zeros((hi - lo + 1, hi - lo + 1))

    def put(i, j, v):
        if lo <= i <= hi and lo <= j <= hi:
            want[i - lo, j - lo] += v

    for j in range(-12, 13):
        put(j, j, 1.0 if -3 <= j <= 5 else 0.0)
        put(j + 2, j, g.value(j) + (-1.5 if j % 2 == 1 else 0.0))
        put(j - 3, j, 0.25)
    for e, f in (({-1: 2.0, 4: 1.0}, {0: 0.5, 7: -1.0}), ({2: 1.0}, {2: 3.0, -4: 1.0})):
        for j, ev in e.items():
            for i, fv in f.items():
                put(i, j, fv * ev)
    for r0, c0, rows in ((-2, 1, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), (3, -4, [[0.5, -0.5], [1.5, 0.0], [0.0, 2.5]])):
        for di, row in enumerate(rows):
            for dj, v in enumerate(row):
                put(r0 + di, c0 + dj, v)
    # every value is a dyadic rational, so any summation order is exact
    assert np.array_equal(render(T, lo, hi), want)


def test_parse_rejects_unknown_op():
    with pytest.raises(SchemaError):
        parse_operator({"op": "mystery"})
    with pytest.raises(SchemaError):
        parse_operator({"kind": "diag"})


def test_band_constructor_general_offset():
    # offset is row minus column: nonzero cells sit at (j + offset, j)
    b = band(rule_const(1.0), 3)
    assert entry(b, 3, 0) == 1.0
    assert entry(b, 0, 3) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_entry_agrees_with_render_cell(i, j, c):
    T = op_sum(
        diag(rule_const(c)),
        wshift(rule_geometric(0.5), "raise"),
        rank_one(basis_vector(1), basis_vector(-2)),
    )
    M = dense(T, -8, 8)
    assert M[i + 8, j + 8] == pytest.approx(entry(T, i, j))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4, unique=True))
def test_projection_sum_is_idempotent_on_disjoint_cells(cells):
    terms = [interval_proj(i - 1, i) for i in cells]
    p = op_sum(*terms)
    lo, hi = -8, 8
    M = dense(p, lo, hi)
    assert np.allclose(M @ M, M)


# ---------------------------------------------------------------------------
# interning: equal trees are one object


def _mixed_tree():
    return op_sum(
        band(rule_harmonic(), -1),
        rank_one(basis_vector(2), basis_vector(5)),
        finite_matrix(0, 1, [[1.0, 2.0], [0.0, -3.0]]),
    )


def test_every_construction_path_returns_the_interned_node():
    T = _mixed_tree()
    parsed = parse_operator({"op": "sum", "terms": [
        {"op": "band", "rule": {"kind": "harmonic"}, "offset": -1},
        {"op": "rank_one", "e": {"kind": "finite", "table": {"2": 1.0}}, "f": {"kind": "finite", "table": {"5": 1.0}}},
        {"op": "finite_matrix", "row_lo": 0, "col_lo": 1, "entries": [[1.0, 2.0], [0.0, -3.0]]},
    ]})
    direct = SumOp(
        SumOp(Band(PowerDecayRule(1.0), -1),
              RankOne(RuledVector(FiniteRule(((2, 1.0),))), RuledVector(FiniteRule(((5, 1.0),))))),
        FiniteMatrix(0, 1, ((1.0, 2.0), (0.0, -3.0))),
    )
    assert parsed is T
    assert op_adjoint(op_adjoint(T)) is T
    assert direct is T
    assert Band(rule=PowerDecayRule(p=1.0), offset=-1) is band(rule_harmonic(), -1)
    assert copy.copy(T) is T and copy.deepcopy(T) is T and pickle.loads(pickle.dumps(T)) is T
    assert T == direct and hash(T) == hash(direct)


def test_canonical_form_is_a_marked_fixpoint():
    T = op_product(op_sum(identity(), _mixed_tree()), op_adjoint(_mixed_tree()))
    C = canonicalize(T)
    assert canonicalize(C) is C
    assert canonicalize(T) is C


def test_signed_zeros_stay_apart_and_round_trip_bit_exact():
    neg = finite_matrix(0, 0, [[1.0, -0.0, 2.0]])
    pos = finite_matrix(0, 0, [[1.0, 0.0, 2.0]])
    assert neg is not pos
    again = parse_operator(json.loads(json.dumps(operator_to_json(neg))))
    assert again is neg
    assert np.signbit(again.rows[0][1])
    assert rule_const(-0.0) is not rule_const(0.0)


def test_a_lone_block_canonicalizes_with_no_negative_zero():
    neg = finite_matrix(0, 0, [[1.0, -0.0, 2.0]])
    pos = finite_matrix(0, 0, [[1.0, 0.0, 2.0]])
    shift = band(rule_geometric(0.5), 3)
    for T in (op_sum(neg, shift), op_product(identity(), neg), op_product(neg, identity())):
        blocks = [p for p in flatten_sum(canonicalize(T)) if isinstance(p, FiniteMatrix)]
        assert blocks == [pos]
        assert not np.signbit(blocks[0].as_array()).any()
    assert pos in flatten_sum(canonicalize(op_sum(shift, pos)))


def test_dropped_nodes_leave_the_intern_table():
    gc.collect()
    before = len(rule_module._INTERNED)
    T = op_sum(band(rule_geometric(0.123), 2), finite_matrix(40, 41, [[0.25, 0.5]]))
    C = canonicalize(op_product(T, op_adjoint(T)))
    assert len(rule_module._INTERNED) > before
    del T, C
    gc.collect()
    assert len(rule_module._INTERNED) == before


def test_stored_adjoints_make_no_reference_cycles():
    # a diagonal is its own adjoint, and two rank-ones are each other's:
    # neither may keep a reference back to itself, or the pair would outlive
    # its last user until a collection
    gc.collect()
    gc.disable()
    try:
        before = len(rule_module._INTERNED)
        d = diag(rule_geometric(0.5771))
        assert adjoint(d) is d
        x = rank_one(basis_vector(31), make_vector(rule_geometric(0.5771)))
        y = adjoint(x)
        assert y is op_adjoint(x) and adjoint(y) is x and adjoint(x) is y
        del d, x, y
        assert len(rule_module._INTERNED) == before
    finally:
        gc.enable()

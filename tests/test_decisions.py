"""Decision procedures for two-sided multiplication maps, checked on the catalog."""

import gc
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nestalg.algebra import MultiplicationTask
from nestalg.catalog import TASK_SPECIMENS, find_task
from nestalg.decisions import (
    EPS_SCHEDULE,
    _block_norm,
    mult_compact_decision,
    mult_weak_decision,
    mult_weak_decision_2proj,
    mult_zero_test,
    quasitriangular_decision,
    quotient_verdict,
    range_in_compacts_sampler,
)
from nestalg.compactness import (
    boundary_ul,
    classify_compact,
    col_end_hit,
    compress_lower,
    compress_upper,
    limit_restricted_norm,
)
from nestalg.errors import NotInAlgebra, UndecidableBoundary
from nestalg.nests import NestCut, make_nest
from nestalg.operators import (
    ProductOp,
    RuledVector,
    band,
    basis_vector,
    canonicalize,
    diag,
    entry,
    finite_matrix,
    flatten_sum,
    identity,
    interval_proj,
    op_product,
    op_sum,
    parse_operator,
    rank_one,
    render,
    wshift,
)
from nestalg import rules as rule_module
from nestalg.rules import (
    bound_from_json,
    bound_to_json,
    rule_comb,
    rule_const,
    rule_finite,
    rule_geometric,
    rule_harmonic,
    rule_indicator,
    rule_mask,
    rule_power,
    rule_scale,
    rule_sum,
)
from nestalg.scenarios import DEFAULT_QUESTIONS, SWEEP_NESTS, brute_force_zero, random_member_pair
from test_operators import operators


def build_task(spec):
    return MultiplicationTask.build(
        make_nest(spec.nest), parse_operator(spec.a), parse_operator(spec.b)
    )


QUESTION_FUNCS = {
    "zero": mult_zero_test,
    "compact": mult_compact_decision,
    "weak": mult_weak_decision,
    "weak2": mult_weak_decision_2proj,
    "quasitriangular": quasitriangular_decision,
    "quotient": quotient_verdict,
}


@pytest.mark.parametrize("spec", TASK_SPECIMENS, ids=lambda s: s.name)
def test_catalog_expected_verdicts(spec):
    task = build_task(spec)
    for question, want in spec.expected.items():
        got = QUESTION_FUNCS[question](task)
        assert got.status == want, f"{spec.name}/{question}: {got.status} != {want} ({got.reason})"


def test_zero_witness_is_numerically_real():
    # when the test says NonZero it hands over a rank-one input; rendering
    # the image of that input must reproduce the claimed entry
    flagship = build_task(find_task("flagship-harmonic"))
    # a's columns reach down indefinitely, so its witness column is
    # scanned downward from the chosen row of b
    z_all = make_nest({"basis": "Z", "cuts": "all"})
    unbounded = MultiplicationTask.build(
        z_all, diag(rule_geometric(0.5)), rank_one(basis_vector(3), basis_vector(1))
    )
    assert mult_zero_test(unbounded).detail["annihilator_cut"] == "-inf"
    tasks = [flagship, unbounded]
    rng = np.random.default_rng(23)
    for spec in SWEEP_NESTS:
        nest = make_nest(spec)
        for _ in range(12):
            tasks.append(MultiplicationTask.build(nest, *random_member_pair(nest, rng)))
    witnessed = 0
    for k, task in enumerate(tasks):
        v = mult_zero_test(task)
        if k < 2:
            assert v.status == "NonZero"
        elif v.status != "NonZero":
            continue
        w = v.detail["witness"]
        x = parse_operator(w["x"])
        row, col, val = (
            w["image_entry"]["row"],
            w["image_entry"]["col"],
            w["image_entry"]["value"],
        )
        lo = min(row, col) - 8
        hi = max(row, col) + 8
        img = op_product(task.a, op_product(x, task.b))
        M = render(img, lo, hi)
        assert M[row - lo, col - lo] == pytest.approx(val, rel=1e-12)
        witnessed += 1
    assert witnessed >= 20


def test_zero_and_compact_see_past_a_long_cancellation():
    # columns 1..80 of a cancel: the first nonzero column, 81, lies beyond
    # a 64-column walk but within the scan budget
    a = op_sum(diag(rule_indicator(1, 100)), finite_matrix(1, 1, -np.eye(80)))
    task = MultiplicationTask.build(make_nest({"basis": "N", "cuts": "all"}), a, identity())
    zero = mult_zero_test(task)
    assert zero.status == "NonZero"
    assert zero.detail["witness"]["input"] == {"e_index": 81, "f_index": 81}
    assert mult_compact_decision(task).status == "NonCompact"


def test_zero_test_reads_the_column_witness_off_the_column_end_scan(monkeypatch):
    from nestalg import compactness, decisions

    calls = []

    def counted(*args):
        calls.append(args)
        return compactness.first_nonzero_column(*args)

    # a's first nonzero column is 3, finite; b reaches row 3, past the annihilator cut 2
    a = op_sum(diag(rule_indicator(4, 6)), finite_matrix(2, 3, [[0.4471]]))
    b = finite_matrix(3, 5, [[0.3313]])
    task = MultiplicationTask.build(make_nest({"basis": "N", "cuts": "all"}), a, b)
    mult_zero_test(task)  # scans and stores both column ends
    monkeypatch.setattr(decisions, "first_nonzero_column", counted)
    zero = mult_zero_test(task)
    assert zero.status == "NonZero"
    assert zero.detail["witness"]["input"] == {"e_index": 3, "f_index": 3}
    assert zero.detail["witness"]["image_entry"] == {"row": 2, "col": 5, "value": 0.4471 * 0.3313}
    assert len(calls) == 1  # only b's witness row; a's column comes with its end


def test_zero_verdict_detail_names_both_cuts():
    spec = find_task("annihilated-rank-ones")
    task = build_task(spec)
    v = mult_zero_test(task)
    assert v.status == "Zero"
    assert v.detail["range_cover_cut"] <= v.detail["annihilator_cut"]


def test_compact_flagship_and_identity():
    flag = build_task(find_task("flagship-harmonic"))
    assert mult_compact_decision(flag).status == "Compact"
    two = build_task(find_task("two-sided-identity"))
    assert mult_compact_decision(two).status == "NonCompact"


def test_trivial_nest_needs_both_factors_compact():
    t = build_task(find_task("trivial-compact-left"))
    assert mult_compact_decision(t).status == "NonCompact"
    assert mult_weak_decision(t).status == "WeaklyCompact"
    assert quasitriangular_decision(t).status == "WeaklyCompactOnly"


def test_weak_routes_agree_on_catalog():
    for spec in TASK_SPECIMENS:
        task = build_task(spec)
        v1 = mult_weak_decision(task)
        v2 = mult_weak_decision_2proj(task)
        if v1.status != "Unknown" and v2.status != "Unknown":
            assert v1.status == v2.status, spec.name


def _random_pair_tasks():
    rng = np.random.default_rng(7)
    nests = [
        make_nest({"basis": "N", "cuts": "all"}),
        make_nest({"basis": "Z", "cuts": "all"}),
        make_nest({"basis": "N", "cuts": [3, 7]}),
    ]
    tasks = []
    for _ in range(30):
        nest = nests[int(rng.integers(len(nests)))]
        a, b = random_member_pair(nest, rng)
        tasks.append(MultiplicationTask.build(nest, a, b, require_membership=False))
    return tasks


def test_weak_routes_agree_on_random_pairs():
    checked = 0
    for task in _random_pair_tasks():
        v1 = mult_weak_decision(task)
        v2 = mult_weak_decision_2proj(task)
        if v1.status != "Unknown" and v2.status != "Unknown":
            assert v1.status == v2.status
            checked += 1
    assert checked >= 20


def test_two_proj_route_reports_schedule():
    task = build_task(find_task("two-sided-identity"))
    v = mult_weak_decision_2proj(task)
    assert v.status == "NotWeaklyCompact"
    # schedule records every dyadic epsilon probed and its outcome
    schedule = v.detail["schedule"]
    assert [row["eps"] for row in schedule] == list(EPS_SCHEDULE)
    assert any(row["outcome"] == "fail" for row in schedule)
    # the certified obstruction interval stays away from zero
    assert v.detail["obstruction"]["lo"] > 1e-12


def test_eps_schedule_is_dyadic():
    assert EPS_SCHEDULE[0] == 1.0
    for a, b in zip(EPS_SCHEDULE, EPS_SCHEDULE[1:]):
        assert b == a / 2


def test_sampler_one_directional():
    # sampler can never certify a noncompact image inside a weakly compact map
    flag = build_task(find_task("flagship-harmonic"))
    out = range_in_compacts_sampler(flag, samples=25, seed=1)
    assert out["found_noncompact_image"] is False
    two = build_task(find_task("two-sided-identity"))
    out2 = range_in_compacts_sampler(two, samples=25, seed=1)
    assert out2["found_noncompact_image"] is True


def test_zero_implies_compact_on_catalog():
    for spec in TASK_SPECIMENS:
        task = build_task(spec)
        if mult_zero_test(task).status == "Zero":
            assert mult_compact_decision(task).status == "Compact", spec.name


def test_compact_implies_weak_on_catalog():
    for spec in TASK_SPECIMENS:
        task = build_task(spec)
        if mult_compact_decision(task).status == "Compact":
            v = mult_weak_decision(task)
            assert v.status in ("WeaklyCompact", "Unknown"), spec.name


def _weak2_tasks():
    """The catalog tasks, seeded member pairs of each sweep nest, and a pair on
    an explicit Z nest whose compact corners meet at a cut though neither
    symbol is compact."""
    tasks = [build_task(spec) for spec in TASK_SPECIMENS]
    rng = np.random.default_rng(29)
    for spec in SWEEP_NESTS:
        nest = make_nest(spec)
        for _ in range(20):
            tasks.append(MultiplicationTask.build(nest, *random_member_pair(nest, rng), require_membership=False))
    z_cuts = make_nest({"basis": "Z", "cuts": [-2, 0, 3]})
    tasks.append(MultiplicationTask.build(z_cuts, diag(rule_indicator(1, None)), diag(rule_indicator(None, -1))))
    return tasks


def test_weak2_reads_the_compact_boundaries():
    met = 0
    for task in _weak2_tasks():
        v = mult_weak_decision_2proj(task)
        if task.is_zero_pair() or "Compact" in (v.detail["a_class"], v.detail["b_class"]):
            continue  # decided before the cut scan
        try:
            u, l = boundary_ul(task)
        except UndecidableBoundary:
            assert v.status == "Unknown" and v.reason.startswith("cut classification failed"), v.reason
            continue
        if task.nest.is_all:
            continue
        # a compression of a compact compression is compact: a's compact
        # lower corners are the cuts <= U, b's compact upper corners those >= L
        cuts = [NestCut(c) for c in task.nest.cut_values]
        lower = {c: classify_compact(compress_lower(task.a, c)).status for c in cuts}
        upper = {c: classify_compact(compress_upper(task.b, c)).status for c in cuts}
        assert all(lower[c] != ("Compact" if c > u else "NonCompact") for c in cuts)
        assert all(upper[c] != ("Compact" if c < l else "NonCompact") for c in cuts)
        common = [c for c in cuts if lower[c] == upper[c] == "Compact"]
        if u.value >= l.value:
            assert max(common) == u
            assert v.status == "WeaklyCompact"
            assert v.detail["pair"] == {"p1": bound_to_json(u.value), "p2": bound_to_json(u.value)}
            met += 1
        else:
            assert not common and "obstruction" in v.detail
    assert met >= 1


@pytest.mark.parametrize("spec", [{"basis": "Z", "cuts": "all"}, {"basis": "N", "cuts": [3, 7]}])
def test_weak2_is_unknown_where_a_corner_is_unknown(spec):
    # the lower corners of a band whose period lcm(23, 29) exceeds the scan
    # budget resist classification; neither route may read them as noncompact
    a = diag(rule_sum(rule_comb(23, 0), rule_comb(29, 0)))
    task = MultiplicationTask.build(make_nest(spec), a, identity())
    assert mult_weak_decision(task).status == "Unknown"
    v = mult_weak_decision_2proj(task)
    assert v.status == "Unknown" and "scan budget" in v.reason


def _rank_one(col_table, row_table):
    return rank_one(RuledVector(rule_finite(col_table)), RuledVector(rule_finite(row_table)))


def test_zero_test_sees_a_column_whose_rank_ones_cancel_at_their_first_rows():
    # column 3 of a is (e_1 + e_2) + (-e_1 + e_3) = e_2 + e_3: the two range
    # vectors cancel at row 1, the first nonzero row of each
    a = op_sum(_rank_one({3: 1.0}, {1: 1.0, 2: 1.0}), _rank_one({3: 1.0}, {1: -1.0, 3: 1.0}),
               _rank_one({10: 1.0}, {1: 1.0}))
    task = MultiplicationTask.build(make_nest({"basis": "N", "cuts": "all"}), a, rank_one(basis_vector(5), basis_vector(5)))
    assert not brute_force_zero(task, res=0.0)
    v = mult_zero_test(task)
    assert v.status == "NonZero"
    assert v.detail["witness"]["input"]["f_index"] == 3


def test_zero_test_is_unknown_when_a_range_row_lies_beyond_the_scan_budget():
    # column 600 of a is e_600: its rank-ones cancel at row 1, and row 600
    # lies beyond SCAN_BUDGET rows from the support start
    a = op_sum(_rank_one({600: 1.0}, {1: 1.0, 600: 1.0}), _rank_one({600: 1.0}, {1: -1.0}),
               _rank_one({700: 1.0}, {1: 1.0}))
    b = rank_one(basis_vector(650), basis_vector(650))
    task = MultiplicationTask.build(make_nest({"basis": "N", "cuts": "all"}), a, b)
    v = mult_zero_test(task)
    assert v.status == "Unknown"
    assert "scan budget of 512" in v.reason


_ENTRIES = st.sampled_from([-1.0, -0.5, 0.5, 1.0])


@st.composite
def shared_column_member(draw, lo):
    """2-4 finitely supported rank-ones on one domain column whose range
    vectors all meet one row, plus a band and a finite block, each of them
    possibly zero; every entry sits on or above the diagonal, so the sum
    is in Alg N on N-all and Z-all."""
    col = draw(st.integers(lo + 2, lo + 10))
    rows = st.integers(lo, col)
    common = draw(rows)
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        cols = {col: draw(_ENTRIES), **draw(st.dictionaries(st.integers(col, col + 6), _ENTRIES, max_size=2))}
        range_rows = {common: draw(_ENTRIES), **draw(st.dictionaries(rows, _ENTRIES, max_size=2))}
        parts.append(_rank_one(cols, range_rows))
    band_rule = rule_finite(draw(st.dictionaries(st.integers(lo, lo + 16), _ENTRIES, max_size=2)))
    parts.append(band(band_rule, draw(st.integers(-3, 0))))
    n, at = draw(st.integers(0, 2)), draw(st.integers(lo, lo + 16))
    parts.append(finite_matrix(at, at, [[draw(_ENTRIES) if c >= r else 0.0 for c in range(n)] for r in range(n)]))
    return op_sum(*parts)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["N", "Z"]), st.data())
def test_zero_verdict_implies_brute_force_zero(basis, data):
    lo = 1 if basis == "N" else -6
    a, b = data.draw(shared_column_member(lo)), data.draw(shared_column_member(lo))
    try:
        task = MultiplicationTask.build(make_nest({"basis": basis, "cuts": "all"}), a, b)
    except NotInAlgebra:
        assume(False)
    if mult_zero_test(task).status == "Zero":
        assert brute_force_zero(task, res=0.0)


@pytest.mark.parametrize("basis", ["Z", "N"])
def test_cancellation_below_the_rounding_decides_nothing(basis):
    # 0.1 + 0.2 - 0.30000000000000004 on the even indices: exactly -2^-55,
    # but 0.0 in floats, so the operator the oracle renders is zero
    even = rule_comb(2, 0)
    r = rule_sum(
        rule_sum(rule_scale(even, 0.1), rule_scale(even, 0.2)), rule_scale(even, -0.30000000000000004)
    )
    task = MultiplicationTask.build(make_nest({"basis": basis, "cuts": "all"}), diag(r), identity())
    assert brute_force_zero(task)
    for question, fn in QUESTION_FUNCS.items():
        assert fn(task).status == "Unknown", question


# ---------------------------------------------------------------------------
# facts stored on nodes and tasks


def _budget_pair():
    """a's column scan stops at the scan budget: an UndecidableBoundary is stored on a."""
    a = op_sum(_rank_one({600: 0.371}, {1: 0.371, 600: 0.371}), _rank_one({600: 0.371}, {1: -0.371}),
               _rank_one({700: 0.371}, {1: 0.371}))
    return a, _rank_one({650: 0.371}, {650: 0.371})


def _diagonal_pair():
    """b is a diagonal, its own adjoint, which exact_row_hi stores on b."""
    a = op_sum(diag(rule_geometric(0.3141)), finite_matrix(2, 2, [[0.617, 0.25], [0.0, -0.617]]))
    return a, diag(rule_geometric(0.2718))


def _mixed_pair():
    """A diagonal, a rank-one and a block against a lowering shift plus a diagonal."""
    a = op_sum(diag(rule_geometric(0.3141)), rank_one(basis_vector(9), basis_vector(4)),
               finite_matrix(2, 2, [[0.617, 0.25], [0.0, -0.617]]))
    b = op_sum(band(rule_scale(rule_comb(3, 1), 0.4142), -1), diag(rule_indicator(3, 11)))
    return a, b


@pytest.mark.parametrize("make_pair", [_budget_pair, _diagonal_pair, _mixed_pair], ids=["budget", "diagonal", "mixed"])
@pytest.mark.parametrize("basis", ["N", "Z"])
def test_stored_facts_make_no_reference_cycles(make_pair, basis):
    # with the cycle collector off, every node of a dropped task must go by
    # reference counting alone: a stored fact that refers back to its node
    # (a self-adjoint stored on itself, an exception whose traceback holds
    # the frame) would keep the task's nodes interned
    gc.collect()
    gc.disable()
    try:
        before = len(rule_module._INTERNED)
        task = MultiplicationTask.build(make_nest({"basis": basis, "cuts": "all"}), *make_pair())
        assert len(rule_module._INTERNED) > before
        for question in DEFAULT_QUESTIONS:
            QUESTION_FUNCS[question](task)
        del task
        assert len(rule_module._INTERNED) == before
    finally:
        gc.enable()


def _fresh_verdicts(make_pair, nest_spec, questions):
    """The to_json() of each question, asked in order on a task built from
    freshly made operands: the last task's nodes, and the facts stored on
    them, are gone first."""
    gc.collect()
    task = MultiplicationTask.build(make_nest(nest_spec), *make_pair())
    return {q: QUESTION_FUNCS[q](task).to_json() for q in questions}


def _order_cases():
    for spec in TASK_SPECIMENS:
        yield pytest.param(
            spec.nest, lambda spec=spec: (parse_operator(spec.a), parse_operator(spec.b)), id=spec.name
        )
    for spec in SWEEP_NESTS:
        for seed in range(4):
            yield pytest.param(
                spec,
                lambda spec=spec, seed=seed: random_member_pair(make_nest(spec), np.random.default_rng(seed)),
                id=f"{spec['basis']}-{spec['cuts']}-seed{seed}",
            )


@pytest.mark.parametrize("nest_spec, make_pair", list(_order_cases()))
def test_question_order_does_not_change_verdicts(nest_spec, make_pair):
    forward = _fresh_verdicts(make_pair, nest_spec, DEFAULT_QUESTIONS)
    backward = _fresh_verdicts(make_pair, nest_spec, DEFAULT_QUESTIONS[::-1])
    assert forward == backward
    alone = _fresh_verdicts(make_pair, nest_spec, ("quotient",))
    after_weak = _fresh_verdicts(make_pair, nest_spec, ("weak", "quotient"))
    assert alone["quotient"] == after_weak["quotient"] == forward["quotient"]


def test_weak_verdict_is_asked_once_per_task(monkeypatch):
    from nestalg import decisions

    calls = []

    def counted(task):
        calls.append(task)
        return decisions.MultVerdict("weak", "Unknown")

    monkeypatch.setattr(decisions, "_weak_decision", counted)
    task = build_task(find_task("flagship-harmonic"))
    assert quotient_verdict(task).status == "Unknown"
    assert mult_weak_decision(task) is mult_weak_decision(task)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# obstruction blocks are read by one exact nonzero entry

RICH_NESTS = (
    {"basis": "N", "cuts": "all"},
    {"basis": "Z", "cuts": "all"},
    {"basis": "Z", "cuts": [-3, 0, 4]},
    {"basis": "N", "cuts": [2, 9]},
)


def _rich_rule(rng):
    """A rule of the rich grammar: combs, powers, geometrics, one-sided masked
    constants, comb plus harmonic, and negated combs."""
    m = int(rng.integers(2, 5))
    comb = rule_comb(m, int(rng.integers(0, m)))
    k = int(rng.integers(0, 6))
    if k == 0:
        return comb
    if k == 1:
        return rule_power(float(rng.choice([0.5, 1.0, 2.0])))
    if k == 2:
        return rule_geometric(float(rng.choice([0.5, -0.5])))
    if k == 3:
        cut = int(rng.integers(-4, 8))
        return rule_mask(rule_const(0.75), cut, None) if rng.random() < 0.5 else rule_mask(rule_const(0.75), None, cut)
    if k == 4:
        return rule_sum(comb, rule_harmonic())
    return rule_scale(comb, -0.5)


def _rich_member(rng):
    """A sum of one or two diagonals, lowering shifts or bands above the diagonal."""
    leaves = []
    for _ in range(int(rng.integers(1, 3))):
        r, k = _rich_rule(rng), int(rng.integers(0, 3))
        leaves.append(diag(r) if k == 0 else wshift(r, "lower") if k == 1 else band(r, -int(rng.integers(2, 5))))
    return op_sum(*leaves)


def _rich_tasks(count=80, seed=11):
    rng = np.random.default_rng(seed)
    return [
        MultiplicationTask.build(make_nest(RICH_NESTS[i % len(RICH_NESTS)]), _rich_member(rng), _rich_member(rng))
        for i in range(count)
    ]


def _weak_population():
    """The catalog, the random pairs and a sample of the rich grammar."""
    return [build_task(spec) for spec in TASK_SPECIMENS] + _random_pair_tasks() + _rich_tasks()


COMB_NEST = {"basis": "Z", "cuts": [0, 1000]}


def test_weak2_sees_a_block_that_vanishes_on_its_render_window():
    # a's columns are nonzero only at -393, -793, ...; a 192-wide window at
    # the top of its support, [-191, 0], holds none of them
    a = band(rule_mask(rule_comb(400, 7), None, 0), 0)
    b = band(rule_mask(rule_comb(400, 7), 1, None), 0)
    task = MultiplicationTask.build(make_nest(COMB_NEST), a, b)
    assert mult_weak_decision(task).status == "NotWeaklyCompact"
    v = mult_weak_decision_2proj(task)
    assert v.status == "NotWeaklyCompact", v.reason
    assert v.detail["obstruction"]["lo"] == 1.0


def test_block_norm_reads_an_entry_beyond_the_render_window():
    block = op_product(band(rule_comb(400, 0), 0), interval_proj(0.0, 1000.0))
    iv, at = _block_norm(make_nest(COMB_NEST), block, lo_anchor=1.0)
    assert iv.lo == 1.0 and iv.hi == 1.0
    assert at == {"row": 400, "col": 400, "value": 1.0}


def test_block_norm_scans_the_window_when_the_column_ends_are_not_certified(monkeypatch):
    from nestalg import decisions

    def refuse(*args):
        raise AssertionError("the block was rendered")

    monkeypatch.setattr(decisions, "render_with_leakage", refuse)
    # the infinite end of 1/i^2 on the negative indices is not certified, so
    # neither column end scan runs
    T = band(rule_mask(rule_power(2.0), None, 0), -2)
    with pytest.raises(UndecidableBoundary):
        col_end_hit(canonicalize(T), +1)
    iv, at = _block_norm(make_nest({"basis": "Z", "cuts": "all"}), T)
    assert iv.lo == abs(at["value"]) > 0.0
    assert entry(canonicalize(T), at["row"], at["col"]) == at["value"]


def test_tail_cases_sit_at_limit_cuts():
    # both corners at U = L are compact on an explicit nest, and on an
    # all-integer nest a noncompact corner at U = L sits at a limit cut, so a
    # tail obstruction is always a limiting norm, never a block
    seen = 0
    for task in _weak_population():
        v = mult_weak_decision(task)
        case = v.detail.get("case")
        if case not in ("right-tail", "left-tail"):
            continue
        nest, s = task.nest, NestCut(float(v.detail["common_cut"]))
        if case == "right-tail":
            assert s == nest.bottom == nest.succ(s) and nest.basis == "Z"
            want = limit_restricted_norm(task.a, -1)
        else:
            assert s == nest.top == nest.pred(s)
            want = limit_restricted_norm(task.b, +1)
        assert v.detail["obstruction"] == {"lo": want.lo, "hi": want.hi}
        seen += 1
    assert seen >= 10


def test_weak2_obstruction_names_its_entry():
    named = 0
    for task in _weak_population():
        v = mult_weak_decision_2proj(task)
        at = v.detail.get("obstruction", {}).get("entry")
        if at is None:
            continue
        p = interval_proj(bound_from_json(at["p1"]), bound_from_json(at["p2"]))
        block = op_product(task.a, p) if at["block"] == "a" else op_product(p, task.b)
        assert entry(canonicalize(block), at["row"], at["col"]) == at["value"] != 0.0
        assert abs(at["value"]) == v.detail["obstruction"]["lo"]
        named += v.status == "NotWeaklyCompact"
    assert named >= 10


@settings(max_examples=150, deadline=None)
@given(operators, st.integers(-6, 6), st.integers(0, 8), st.booleans())
def test_block_norm_is_sound(T, p1, width, bounded):
    p2 = p1 + width if bounded else math.inf
    block = op_product(T, interval_proj(p1, p2))
    iv, at = _block_norm(make_nest({"basis": "Z", "cuts": "all"}), block, lo_anchor=p1, hi_anchor=p2)
    assert 0.0 <= iv.lo <= iv.hi
    C = canonicalize(block)
    if at is not None:
        assert entry(C, at["row"], at["col"]) == at["value"] != 0.0 and iv.lo == abs(at["value"])
        lo, hi = min(at["row"], at["col"]) - 3, max(at["row"], at["col"]) + 3
        assert iv.lo <= np.linalg.norm(render(C, lo, hi), 2) * (1.0 + 1e-12)
    if not any(isinstance(p, ProductOp) for p in flatten_sum(C)) and render(C, -40, 40).any():
        assert iv.lo > 0.0


def test_no_decision_route_runs_the_lanczos_iteration(monkeypatch):
    from nestalg import decisions, numerics

    def refuse(*args, **kwargs):
        raise AssertionError("a decision route called power_norm")

    monkeypatch.setattr(numerics, "power_norm", refuse)
    monkeypatch.setattr(decisions, "power_norm", refuse, raising=False)
    tasks = [build_task(spec) for spec in TASK_SPECIMENS] + _rich_tasks(40, seed=3)
    for task in tasks:
        for question in DEFAULT_QUESTIONS:
            QUESTION_FUNCS[question](task)

"""End-to-end acceptance gate for the multiplication-operator toolkit.

Each test is one acceptance property with its tolerances pinned inline.
They exercise the public pipeline the way the scripts do: build a task,
ask for verdicts, then corroborate against an independent route
(brute-force rendering, dense SVD, per-cut compressions, recomputed
certificates).  Seeds are fixed so failures are reproducible.
"""

import time

import numpy as np
import pytest

from nestalg.algebra import MultiplicationTask
from nestalg.catalog import OPERATOR_SPECIMENS, TASK_SPECIMENS, find_operator
from nestalg.compactness import classify_compact, compress_lower, compress_upper
from nestalg.constructions import (
    certificate_check,
    counterexample_refuter,
    greedy_subsequence,
    linf_embedding,
    representation_residual,
)
from nestalg.decisions import (
    mult_compact_decision,
    mult_weak_decision,
    mult_weak_decision_2proj,
    mult_zero_test,
    quotient_verdict,
    range_in_compacts_sampler,
)
from nestalg.ideals import FiniteSubnest, delta_norm, radical_seminorm, reconstruction_residual
from nestalg.nests import NestCut, make_nest
from nestalg.operators import (
    basis_vector,
    diag,
    identity,
    interval_proj,
    op_scale,
    parse_operator,
    rank_one,
    render,
)
from nestalg.rules import rule_comb, rule_geometric, rule_harmonic, rule_scale
from nestalg.scenarios import SWEEP_NESTS, brute_force_zero, random_member, random_member_pair

MAX_N = {"basis": "N", "cuts": "all"}
TRIVIAL = {"basis": "N", "cuts": []}
ONE_CUT_Z = {"basis": "Z", "cuts": [0]}

# operator specimens by certified class, members of the maximal N algebra
COMPACT_MEMBERS = ("harmonic-diagonal", "geometric-diagonal", "harmonic-lower-shift", "finite-block")
NONCOMPACT_MEMBERS = ("identity", "shifted-plateau-diagonal", "unit-lower-shift", "half-identity")

# upper-corner rank ones, distinct supports so pairing them stays nonzero
RANK1_LOW = {"op": "rank_one", "e": {"kind": "finite", "table": {"2": 1.0}},
             "f": {"kind": "finite", "table": {"1": 1.0}}}
RANK1_HIGH = {"op": "rank_one", "e": {"kind": "finite", "table": {"6": 1.0}},
              "f": {"kind": "finite", "table": {"5": 1.0}}}


def _op(spec):
    return parse_operator(find_operator(spec).op if isinstance(spec, str) else spec)


def _build(nest_spec, a, b):
    return MultiplicationTask.build(make_nest(nest_spec), _op(a), _op(b))


def test_zero_decision_matches_brute_force_sweep():
    """200 seeded grammar tasks over three nest shapes, zero verdicts vs rendering."""
    nests = (MAX_N, TRIVIAL, ONE_CUT_Z)
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    undecided = mismatches = zeros = 0
    for i in range(200):
        nest = make_nest(nests[i % 3])
        a, b = random_member_pair(nest, rng)
        task = MultiplicationTask.build(nest, a, b, require_membership=False)
        v = mult_zero_test(task)
        if v.status == "Unknown":
            undecided += 1
            continue
        zeros += v.status == "Zero"
        if (v.status == "Zero") != brute_force_zero(task, half=32):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    print(f"zero sweep: {elapsed:.2f}s undecided={undecided} mismatches={mismatches} zeros={zeros}")
    assert undecided == 0
    assert mismatches == 0
    assert zeros > 0  # the sweep must actually exercise both verdicts
    assert elapsed < 30.0


def test_trivial_nest_verdict_needs_both_symbols_compact():
    """On the two-element nest the compact verdict is the conjunction of symbol classes."""
    comp = list(COMPACT_MEMBERS) + ["geometric-rank-one"]
    nonc = list(NONCOMPACT_MEMBERS)
    pairs = (
        [(comp[i], comp[(i + 1) % 5]) for i in range(5)]
        + [(comp[i], nonc[i % 4]) for i in range(5)]
        + [(nonc[i % 4], comp[i]) for i in range(5)]
        + [(nonc[i % 4], nonc[(i + 1) % 4]) for i in range(5)]
    )
    assert len(pairs) == 20
    for an, bn in pairs:
        task = _build(TRIVIAL, an, bn)
        want = (
            "Compact"
            if classify_compact(_op(an)).status == "Compact"
            and classify_compact(_op(bn)).status == "Compact"
            else "NonCompact"
        )
        got = mult_compact_decision(task).status
        assert got == want, f"({an}, {bn}): {got} != {want}"


def test_max_nest_verdict_follows_right_symbol():
    """On the maximal N nest a nonzero task's verdict is the right symbol's class."""
    comp = ["harmonic-diagonal", "geometric-diagonal", "harmonic-lower-shift", RANK1_HIGH, "finite-block"]
    a_rot = ["harmonic-diagonal", "geometric-diagonal", "harmonic-lower-shift", RANK1_LOW, "finite-block",
             "identity", "shifted-plateau-diagonal", "unit-lower-shift", "half-identity"]
    nonc = list(NONCOMPACT_MEMBERS)
    pairs = [(a_rot[i % 9], comp[i % 5]) for i in range(10)]
    pairs += [(a_rot[(i + 3) % 9], nonc[i % 4]) for i in range(10)]
    assert len(pairs) == 20
    for an, bn in pairs:
        task = _build(MAX_N, an, bn)
        assert mult_zero_test(task).status == "NonZero"
        want = "Compact" if classify_compact(_op(bn)).status == "Compact" else "NonCompact"
        got = mult_compact_decision(task).status
        assert got == want, f"({an}, {bn}): {got} != {want}"
    flagship = _build(MAX_N, "identity", "harmonic-diagonal")
    assert mult_compact_decision(flagship).status == "Compact"


def test_weak_routes_agree_on_seeded_sweep():
    """Boundary route and two-projection route, 500 seeded tasks."""
    rng = np.random.default_rng(414)
    both = agree = d1 = d2 = 0
    for i in range(500):
        nest = make_nest(SWEEP_NESTS[i % 3])
        a, b = random_member_pair(nest, rng)
        task = MultiplicationTask.build(nest, a, b, require_membership=False)
        v1 = mult_weak_decision(task)
        v2 = mult_weak_decision_2proj(task)
        d1 += v1.status != "Unknown"
        d2 += v2.status != "Unknown"
        if v1.status != "Unknown" and v2.status != "Unknown":
            both += 1
            agree += v1.status == v2.status
    print(f"weak sweep: decided {d1}/{d2} of 500, both={both}, agree={agree}")
    assert agree == both
    assert d1 >= 450 and d2 >= 450


def _cut_family(nest):
    cuts = [nest.bottom, nest.top]
    if nest.cut_values is None:
        lo, hi = (0, 24) if nest.basis == "N" else (-12, 12)
        cuts += [NestCut(float(v)) for v in range(lo, hi + 1)]
    else:
        cuts += [NestCut(v) for v in nest.cut_values if np.isfinite(v)]
    return cuts


def test_weak_verdicts_respect_per_cut_sandwich():
    """Positive weak verdicts pass the per-cut compression test; a doubly
    compact cut forces a positive verdict."""
    tasks = [
        MultiplicationTask.build(make_nest(s.nest), parse_operator(s.a), parse_operator(s.b))
        for s in TASK_SPECIMENS
    ]
    rng = np.random.default_rng(606)
    for i in range(100):
        nest = make_nest(SWEEP_NESTS[i % 3])
        a, b = random_member_pair(nest, rng)
        tasks.append(MultiplicationTask.build(nest, a, b, require_membership=False))
    unknown = nec_viol = suf_viol = 0
    for task in tasks:
        v = mult_weak_decision(task)
        if v.status == "Unknown":
            unknown += 1
            continue
        some_cut_doubly_compact = False
        for P in _cut_family(task.nest):
            ca = classify_compact(compress_lower(task.a, P)).status
            cb = classify_compact(compress_upper(task.b, P)).status
            if ca == "Compact" and cb == "Compact":
                some_cut_doubly_compact = True
            if v.status == "WeaklyCompact" and not (ca == "Compact" or cb == "Compact"):
                nec_viol += 1
        if some_cut_doubly_compact and v.status != "WeaklyCompact":
            suf_viol += 1
    print(f"sandwich: tasks={len(tasks)} unknown={unknown} nec_viol={nec_viol} suf_viol={suf_viol}")
    assert unknown == 0
    assert nec_viol == 0
    assert suf_viol == 0


def test_greedy_certificates_meet_pinned_floors():
    """Witness selection for the two canonical setups, thresholds and floors."""
    t0 = time.perf_counter()
    n = make_nest(MAX_N)
    t_id = MultiplicationTask.build(n, identity(), identity())
    cert = greedy_subsequence(t_id, 1.0, 20)
    ok, rows = certificate_check(t_id, cert)
    assert ok and all(r["pass"] for r in rows)
    assert cert.size == 20
    assert all(v >= 8.0 / 9.0 - 1e-9 for v in cert.values)

    plate = diag(rule_scale(rule_comb(2, 0), 0.5))
    t_pl = MultiplicationTask.build(n, plate, plate)
    cert2 = greedy_subsequence(t_pl, 0.5, 20)
    ok2, rows2 = certificate_check(t_pl, cert2)
    assert ok2 and all(r["pass"] for r in rows2)
    assert min(cert2.values) >= 8.0 * 0.5**4 / 9.0 - 1e-6
    elapsed = time.perf_counter() - t0
    print(f"certificates: {elapsed:.2f}s id_floor={min(cert.values):.6f} plateau_floor={min(cert2.values):.6f}")
    assert elapsed < 10.0


REFUTER_FAMILIES = [
    [(identity(), identity())],
    [(op_scale(0.5, identity()), identity())],
    [(diag(rule_geometric(0.5)), diag(rule_geometric(0.5)))],
    [(diag(rule_geometric(0.5)), diag(rule_geometric(0.7))),
     (diag(rule_geometric(0.3)), diag(rule_geometric(0.9)))],
    [(interval_proj(0, 10), interval_proj(0, 10))],
    [(interval_proj(0, 6), interval_proj(0, 12)), (interval_proj(0, 24), interval_proj(0, 3))],
    [(rank_one(basis_vector(1), basis_vector(1)), rank_one(basis_vector(2), basis_vector(2)))],
    [(rank_one(basis_vector(3), basis_vector(3)), identity()),
     (identity(), rank_one(basis_vector(4), basis_vector(4)))],
    [(diag(rule_geometric(0.9)), interval_proj(0, 50)),
     (interval_proj(0, 30), diag(rule_geometric(0.8))),
     (rank_one(basis_vector(5), basis_vector(5)), identity())],
    [(diag(rule_geometric(0.6)), diag(rule_geometric(0.6))),
     (diag(rule_geometric(0.7)), diag(rule_geometric(0.7))),
     (diag(rule_geometric(0.8)), diag(rule_geometric(0.8))),
     (diag(rule_geometric(0.9)), diag(rule_geometric(0.9)))],
]


def test_refuter_certifies_all_fixed_families():
    """Ten candidate approximating families, each refuted with a certified residual."""
    for i, fam in enumerate(REFUTER_FAMILIES):
        assert len(fam) <= 4
        t0 = time.perf_counter()
        w = counterexample_refuter(fam)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"family {i} took {elapsed:.2f}s"
        assert w.threshold == 1.0 / (2 * w.r)
        assert w.residual >= w.threshold
        again = representation_residual(fam, diag(rule_harmonic()), w.r, w.s)
        assert abs(again.residual - w.residual) <= 1e-10, f"family {i} recompute drifted"


def test_embedding_bounds_hold_for_seeded_inputs():
    """Sup-normalized coefficient vectors, at most 4 blocks of 32: certified bracket."""
    triv = make_nest(TRIVIAL)
    task = MultiplicationTask.build(triv, identity(), identity())
    cert = greedy_subsequence(task, 1.0, 128)
    rng = np.random.default_rng(808)
    worst_lower = 1.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        x = rng.uniform(-1, 1, size=m)
        x[int(rng.integers(m))] = float(rng.choice([-1.0, 1.0]))
        x = x / np.max(np.abs(x))
        out = linf_embedding(task, x, cert, block_size=32)
        worst_lower = min(worst_lower, out["lower"])
        assert out["lower"] >= 1.0 / 3.0 - 0.05
        assert out["upper"] <= 1.0 + 1e-9
    print(f"embedding: worst certified lower bound {worst_lower:.6f}")


def test_block_expectation_reconstruction_is_exact():
    """Expectation plus strictly-upper rest reproduces the member on the window."""
    rng = np.random.default_rng(909)
    worst = 0.0
    count = 0
    for i in range(100):
        nest = make_nest(SWEEP_NESTS[i % 3])
        T = random_member(nest, rng)
        lo, hi = (1, 128) if nest.basis == "N" else (-64, 64)
        for _ in range(5):
            k = int(rng.integers(1, 7))
            vals = sorted(set(int(v) for v in rng.integers(lo, hi, size=k)))
            if nest.cut_values is not None:
                vals = [v for v in nest.cut_values if np.isfinite(v) and v > 0]
                if not vals:
                    continue
            f = FiniteSubnest.build(nest, vals)
            worst = max(worst, reconstruction_residual(T, f, (lo, hi)))
            count += 1
    print(f"reconstruction: {count} subnest checks, worst residual {worst:.3e}")
    assert count >= 400
    assert worst <= 1e-12


def test_radical_uppers_monotone_under_refinement():
    """Upper seminorm bounds only tighten along refinement chains; markers exact."""
    rng = np.random.default_rng(515)
    violations = 0
    for i in range(100):
        nest = make_nest(SWEEP_NESTS[i % 2])  # the two doubly infinite shapes refine freely
        T = random_member(nest, rng)
        lo, hi = (1, 96) if nest.basis == "N" else (-48, 48)
        cuts = sorted(set(int(v) for v in rng.integers(lo, hi, size=2)))
        f = FiniteSubnest.build(nest, cuts)
        prev_hi = None
        for _ in range(5):
            ni = delta_norm(T, f, cap=96, iters=40)
            if prev_hi is not None and ni.hi > prev_hi + 1e-10:
                violations += 1
            prev_hi = ni.hi
            extra = sorted(set(int(v) for v in rng.integers(lo, hi, size=2)) - set(f.values))
            if extra:
                f = f.refine(extra)
    assert violations == 0

    n_all = make_nest(MAX_N)
    low = radical_seminorm(n_all, rank_one(basis_vector(2), basis_vector(1)), depth=4)
    assert low.lo == 0.0 and low.hi == 0.0
    ident = radical_seminorm(n_all, identity(), depth=4)
    assert ident.lo == pytest.approx(1.0, abs=1e-8)
    assert ident.hi == pytest.approx(1.0, abs=1e-8)


def _svd_window(nest, w):
    return (1, w) if nest.basis == "N" else (-w // 2, w // 2 - 1)


def test_classifier_agrees_with_truncated_spectra():
    """Singular values of dense truncations corroborate every catalog verdict."""
    for spec in OPERATOR_SPECIMENS:
        T = parse_operator(spec.op)
        nest = make_nest(spec.nest)
        v = classify_compact(T)
        assert v.status == spec.expected, spec.name
        if spec.expected == "Compact":
            lo, hi = _svd_window(nest, 512)
            sv = np.linalg.svd(render(T, lo, hi), compute_uv=False)
            assert sv[49] <= 0.05, f"{spec.name}: s50={sv[49]:.4f}"
        else:
            eff = v.certificate.threshold - v.certificate.interference
            assert eff > 0.0
            for w in (128, 256, 512):
                lo, hi = _svd_window(nest, w)
                sv = np.linalg.svd(render(T, lo, hi), compute_uv=False)
                assert sv[9] >= eff / 2.0, f"{spec.name} at {w}: s10={sv[9]:.4f} < {eff / 2:.4f}"


def test_quotient_chain_agrees_across_catalog():
    """Quotient verdict, weak verdict, and image sampling tell one story."""
    for spec in TASK_SPECIMENS:
        task = MultiplicationTask.build(
            make_nest(spec.nest), parse_operator(spec.a), parse_operator(spec.b)
        )
        weak_positive = mult_weak_decision(task).status == "WeaklyCompact"
        q = quotient_verdict(task).status
        rep = range_in_compacts_sampler(task, samples=100, seed=3)
        hit = rep["found_noncompact_image"]
        assert (q == "ZeroInQuotient") == weak_positive, spec.name
        assert (not hit) == weak_positive, spec.name
        if hit:
            assert q == "NonzeroNotWeaklyCompact", spec.name

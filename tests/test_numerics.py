"""Numeric kernels checked against dense linear algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestalg.numerics import (
    NormInterval,
    matrix_upper_bounds,
    op_norm,
    power_norm,
    singular_values,
)
from nestalg.operators import diag, render
from nestalg.rules import rule_harmonic


def random_matrix(rng, n=12):
    return rng.standard_normal((n, n))


def test_power_norm_diagonal_exact():
    M = np.diag([3.0, 1.0, 0.5])
    assert power_norm(M) == pytest.approx(3.0, rel=1e-6)


def test_power_norm_is_lower_bound(rng):
    for _ in range(20):
        M = random_matrix(rng)
        est = power_norm(M)
        true = np.linalg.norm(M, 2)
        assert est <= true + 1e-8
        assert est >= 0.9 * true  # iteration converges well on generic matrices


def test_power_norm_zero_matrix():
    assert power_norm(np.zeros((4, 4))) == 0.0


def test_singular_values_match_svd(rng):
    for _ in range(10):
        M = random_matrix(rng, n=10)
        got = singular_values(M, 4)
        want = np.linalg.svd(M, compute_uv=False)[:4]
        assert np.allclose(got, want, rtol=1e-5, atol=1e-7)


def test_singular_values_sorted_and_clamped(rng):
    M = random_matrix(rng, n=6)
    sv = singular_values(M, 6)
    assert len(sv) == 6
    assert all(sv[i] >= sv[i + 1] - 1e-10 for i in range(5))
    assert all(s >= 0.0 for s in sv)


def test_singular_values_rank_deficient():
    # rank-one matrix: exactly one nonzero singular value
    u = np.arange(1.0, 6.0)
    M = np.outer(u, u)
    sv = singular_values(M, 3)
    assert sv[0] == pytest.approx(float(u @ u), rel=1e-6)
    assert sv[1] <= 1e-6 * sv[0]


def test_singular_values_are_lower_bounds():
    # diag(1/i) on 1..256 has exactly the singular values 1, 1/2, 1/3, ...
    M = render(diag(rule_harmonic()), 1, 256)
    exact = 1.0 / np.arange(1.0, 33.0)
    sv = singular_values(M, 32)
    assert np.all(sv <= exact)
    assert np.allclose(sv, exact, rtol=0.0, atol=1e-12)


def test_matrix_upper_bounds_dominates_norm(rng):
    for _ in range(20):
        M = random_matrix(rng, n=8)
        assert np.linalg.norm(M, 2) <= matrix_upper_bounds(M) + 1e-10


def test_op_norm_brackets_truth(rng):
    for _ in range(10):
        M = random_matrix(rng, n=8)
        ni = op_norm(M)
        true = np.linalg.norm(M, 2)
        assert ni.lo <= true + 1e-8
        assert ni.hi >= true - 1e-8
        assert ni.lo <= ni.hi


def test_norm_interval_width():
    ni = NormInterval(0.5, 1.5)
    assert ni.width == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_power_norm_seeded_determinism(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((7, 7))
    a = power_norm(M, seed=seed % 17)
    b = power_norm(M, seed=seed % 17)
    assert a == b

"""Numeric kernels checked against dense linear algebra oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestalg.numerics import (
    NormInterval,
    matrix_upper_bounds,
    power_norm,
    singular_values,
)
from nestalg.operators import diag, op_sum, render, wshift
from nestalg.rules import rule_finite, rule_geometric, rule_harmonic, rule_indicator


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


def lapack_norm(M):
    return np.linalg.svd(M, compute_uv=False)[0]


def rounding_cap(M):
    """LAPACK sigma_1 plus the rounding allowance of singular_values."""
    return lapack_norm(M) * (1.0 + max(M.shape) * np.finfo(float).eps)


def test_power_norm_resolves_a_clustered_top():
    # the top singular values of 0.8 I + 0.6 S crowd together like
    # |0.8 + 0.6 e^(it)| near t = 0; power iteration stalls about 4e-5 short
    n = 256
    M = 0.8 * np.eye(n) + 0.6 * np.eye(n, k=-1)
    est = power_norm(M)
    assert est <= rounding_cap(M)
    assert est >= lapack_norm(M) * (1.0 - 1e-9)


def test_power_norm_runs_past_a_stalled_ritz_value():
    # a unit step on a geometric lowering band: the top two singular values
    # sit 2.4e-6 apart just above 1, and the Ritz value stands still for
    # two steps on its way there
    T = op_sum(
        wshift(rule_geometric(0.684), "lower"),
        wshift(rule_indicator(31, 32), "lower"),
        diag(rule_finite({6: -0.075, 11: 0.608})),
    )
    M = render(T, 1, 64)
    assert power_norm(M) >= lapack_norm(M) * (1.0 - 1e-9)


def test_power_norm_single_band_is_exact():
    i = np.arange(1, 193)
    comb = np.diag(np.where(i % 3 == 0, 0.0, 1.0 - 1.0 / i))
    shifted = np.diag((-1.0) ** i[:-1] * (1.0 - 1.0 / i[:-1]), k=-1)
    for M in (comb, shifted, np.array([[-2.5]])):
        assert power_norm(M) == np.abs(M).max()


def test_power_norm_moves_past_a_start_in_the_kernel():
    # M @ ones = 0, so the next start vector has to find the norm
    M = np.array([[1.0, -1.0], [0.0, 0.0]])
    assert power_norm(M) == pytest.approx(math.sqrt(2.0), rel=1e-15)


@st.composite
def sparse_banded(draw):
    m = draw(st.integers(1, 48))
    n = draw(st.integers(1, 48))
    offsets = draw(st.sets(st.integers(-4, 4), min_size=1, max_size=4))
    density = draw(st.floats(0.2, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = np.zeros((m, n))
    rows = np.arange(m)
    for off in offsets:
        r = rows[(rows + off >= 0) & (rows + off < n)]
        M[r, r + off] = rng.standard_normal(len(r)) * (rng.random(len(r)) < density)
    return M


# The upper side is the certificate; the lower side is a quality bound: a
# run stops once its Ritz value stalls with a small residual, which on
# continuous random entries leaves it within about 1e-11 of sigma_1.
@settings(max_examples=150, deadline=None)
@given(sparse_banded())
def test_power_norm_between_column_norms_and_lapack(M):
    est = power_norm(M)
    assert est <= rounding_cap(M)
    assert est >= np.linalg.norm(M, axis=0).max() * (1.0 - 1e-9)


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

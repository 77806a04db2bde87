"""Windowed numerical linear algebra for truncated operators.

Everything here produces one-sided certificates: power iteration gives a
Rayleigh lower bound on the largest singular value, while the Frobenius
norm and the Schur bound sqrt(norm1 * norminf) give upper bounds.  The
two sides are packaged as a NormInterval so callers can reason about
which direction of an inequality a number actually certifies.

Leading singular values come from LAPACK less its rounding allowance,
which makes them lower bounds too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NormInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            object.__setattr__(self, "hi", self.lo)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __repr__(self):
        return f"NormInterval[{self.lo:.6g}, {self.hi:.6g}]"


def matrix_upper_bounds(M: np.ndarray) -> float:
    """min(Frobenius, sqrt(norm1 * norminf)); certified upper bound."""
    if M.size == 0:
        return 0.0
    fro = float(np.linalg.norm(M, "fro"))
    n1 = float(np.max(np.sum(np.abs(M), axis=0), initial=0.0))
    ninf = float(np.max(np.sum(np.abs(M), axis=1), initial=0.0))
    return min(fro, math.sqrt(n1 * ninf))


def _start_vectors(n: int, seed: int):
    yield np.ones(n)
    yield 1.0 / (1.0 + np.arange(n, dtype=float))
    rng = np.random.default_rng(seed)
    yield rng.standard_normal(n)
    yield rng.standard_normal(n)


def power_norm(M: np.ndarray, iters: int = 200, rtol: float = 1e-9, seed: int = 0) -> float:
    """Rayleigh lower bound on the top singular value of M."""
    if M.size == 0:
        return 0.0
    n = M.shape[1]
    best = 0.0
    for start in _start_vectors(n, seed):
        nv = float(np.linalg.norm(start))
        if nv == 0.0:
            continue
        v = start / nv
        prev = -1.0
        est = 0.0
        converged = False
        for _ in range(iters):
            w = M @ v
            est = float(np.linalg.norm(w))
            if est == 0.0:
                break
            u = M.T @ w
            nu = float(np.linalg.norm(u))
            if nu == 0.0:
                break
            v = u / nu
            if abs(est - prev) <= rtol * max(est, 1e-300):
                converged = True
                break
            prev = est
        best = max(best, est)
        if converged and best > 0.0:
            break
    return best


def op_norm(M: np.ndarray, iters: int = 200, rtol: float = 1e-9, seed: int = 0) -> NormInterval:
    lo = power_norm(M, iters=iters, rtol=rtol, seed=seed)
    return NormInterval(lo, matrix_upper_bounds(M))


def singular_values(M: np.ndarray, k: int) -> np.ndarray:
    """Lower bounds on the leading k singular values of M, descending.

    LAPACK's values lie within max(m, n) * eps * sigma_1 of the exact ones
    (Weyl's inequality applied to the backward error of the SVD; Rump,
    "Verified bounds for singular values", BIT 2011), so subtracting that
    allowance and clipping at 0 leaves certified lower bounds.
    """
    if M.size == 0 or k <= 0:
        return np.zeros(0)
    s = np.linalg.svd(M, compute_uv=False)[:k]
    return np.maximum(s - max(M.shape) * np.finfo(float).eps * s[0], 0.0)

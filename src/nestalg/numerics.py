"""Windowed numerical linear algebra for truncated operators.

Everything here produces one-sided certificates: power_norm gives a
Rayleigh lower bound on the largest singular value, while the Frobenius
norm and the Schur bound sqrt(norm1 * norminf) give upper bounds.  The
two sides are packaged as a NormInterval so callers can reason about
which direction of an inequality a number actually certifies.

power_norm runs Golub-Kahan-Lanczos bidiagonalization with full
reorthogonalization (Golub & Kahan, SIAM J. Numer. Anal. 1965).  Its
Ritz values converge like the square root of the relative gap at the top
of the spectrum, where power iteration converges like the gap itself
(Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 1992), which
matters on the clustered, Toeplitz-like blocks that bands render.  The
number it returns is never the Ritz value: it is ||M x|| for the unit
Ritz vector x, recomputed by a fresh matrix-vector product.

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


def _single_band_norm(M: np.ndarray):
    """max |m_ij| when no row and no column holds two nonzeros, else None.

    Such a matrix is a partial permutation times a diagonal, so that entry
    is its exact norm, attained by a basis vector.
    """
    nz = M != 0.0
    k = np.count_nonzero(nz)
    if k > min(M.shape):
        return None
    if np.count_nonzero(nz.any(axis=0)) < k or np.count_nonzero(nz.any(axis=1)) < k:
        return None
    return float(max(M.max(), -M.min()))


def _gram(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """B B^T, tridiagonal, for the k x (k+1) upper bidiagonal B with
    diagonal alpha and superdiagonal beta."""
    k = len(alpha)
    T = np.zeros((k, k))
    T.flat[:: k + 1] = alpha * alpha + beta * beta
    off = beta[:-1] * alpha[1:]
    T.flat[1 :: k + 1] = off
    T.flat[k :: k + 1] = off
    return T


def _lanczos_bound(M: np.ndarray, start: np.ndarray, steps: int, rtol: float):
    """(||M x||, converged) for the top Ritz vector x of at most `steps` steps.

    Step j extends the orthonormal bases V (right) and U (left) so that
    U^T M V is the k x (k+1) upper bidiagonal B with diagonal alpha and
    superdiagonal beta; both new vectors are orthogonalized twice against
    all earlier ones.  The Ritz value theta (the largest singular value of
    B) is checked every step while k < 16 and every k // 8 steps after.
    The run has converged when theta grew by at most rtol * theta per step
    since the last check at least two steps back and the residual estimate
    beta_k |p_k| of the top Ritz triplet (p the top left singular vector of
    B) is at most sqrt(rtol) * theta; theta can stand still for a step or
    two on a tight cluster of singular values while that residual is large.
    It has also converged when the Krylov space stops growing (a new vector
    below max(m, n) * eps of the largest coefficient so far), or after
    min(m, n) steps, when it spans the whole domain or range.
    """
    m, n = M.shape
    V = np.empty((steps + 1, n))
    U = np.empty((steps, m))
    alpha = np.zeros(steps)
    beta = np.zeros(steps)
    V[0] = start / np.linalg.norm(start)
    tiny = max(m, n) * np.finfo(float).eps
    scale = 0.0
    k, check, converged = 0, 1, False
    checked = ((-1, 0.0), (0, 0.0))  # (k, theta) at the last two checks
    vecs = np.empty((0, 0))  # eigenvectors of B B^T at the last residual check
    for j in range(steps):
        u = M @ V[j]
        if j:
            Q = U[:j]
            u -= (Q @ u) @ Q
            u -= (Q @ u) @ Q
        a = math.sqrt(float(u @ u))
        if a <= tiny * scale:
            converged = True
            break
        scale = max(scale, a)
        U[j] = u / a
        alpha[j] = a
        v = M.T @ U[j]
        Q = V[: j + 1]
        v -= (Q @ v) @ Q
        v -= (Q @ v) @ Q
        b = math.sqrt(float(v @ v))
        k = j + 1
        if b <= tiny * scale:
            V[k] = 0.0
            converged = True
            break
        scale = max(scale, b)
        beta[j] = b
        V[k] = v / b
        if k == min(m, n):
            converged = True
            break
        if k == check:
            if k == 1:
                theta = math.hypot(a, b)
            else:
                theta = math.sqrt(np.linalg.eigvalsh(_gram(alpha[:k], beta[:k]))[-1])
            k0, theta0 = checked[1] if k - checked[1][0] >= 2 else checked[0]
            if theta - theta0 <= rtol * theta * (k - k0):
                vecs = np.linalg.eigh(_gram(alpha[:k], beta[:k]))[1]
                if b * abs(vecs[-1, -1]) <= math.sqrt(rtol) * theta:
                    converged = True
                    break
            checked = (checked[1], (k, theta))
            check = k + max(1, k // 8)
    if k == 0:  # M @ start == 0
        return 0.0, False
    if len(vecs) != k:
        vecs = np.linalg.eigh(_gram(alpha[:k], beta[:k]))[1]
    p = vecs[:, -1]
    y = np.zeros(k + 1)  # B^T p, the top right singular vector of B up to scale
    y[:k] = alpha[:k] * p
    y[1:] += beta[:k] * p
    x = y @ V[: k + 1]
    x /= np.linalg.norm(x)
    return float(np.linalg.norm(M @ x)), converged


def power_norm(M: np.ndarray, iters: int = 200, rtol: float = 1e-9, seed: int = 0) -> float:
    """Rayleigh lower bound ||M x|| (x a unit vector) on the top singular value of M.

    x is the top Ritz vector of a Golub-Kahan-Lanczos run of at most
    `iters` steps, from the start vectors ones, 1/(1+i) and two normal
    draws from `seed`, in that order; the runs stop at the first start
    that converged with a positive bound, and the largest bound so far is
    returned.  A run has converged (see _lanczos_bound) once its Ritz value
    grows by at most `rtol` per step, relative, with a relative residual
    of at most sqrt(rtol).  The bound is the norm of a fresh product M x,
    so it holds whatever the Ritz value is.  When no row and no column
    holds two nonzeros it is max |m_ij|, the exact norm.
    """
    if M.size == 0:
        return 0.0
    band = _single_band_norm(M)
    if band is not None:
        return band
    steps = min(iters, *M.shape)
    best = 0.0
    for start in _start_vectors(M.shape[1], seed):
        est, converged = _lanczos_bound(M, start, steps, rtol)
        best = max(best, est)
        if converged and best > 0.0:
            break
    return best


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

"""Witness constructions: almost-orthogonal subsequences, certificates
for non-compactness, a refuter for finite two-sided representations,
and sup-norm embedding bounds.

The greedy selection takes basis columns where the left factor keeps
mass and basis rows where the right factor does, then thins them so
that all cross pairings on both sides fall below eps^2/(3*2^n) at step
n.  The diagonal pairing term then dominates the whole sum: every
retained functional value is at least 8*eps^4/9 when both factors have
norm at most one.  Certificates record the pairing tables so a checker
can recompute everything from the task alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockTooSmall, MalformedSpec, WitnessBudgetExhausted
from .algebra import MultiplicationTask
from .numerics import singular_values
from .operators import canonicalize, diag, entry, norm_bound, render
from .rules import rule_harmonic

PAIRING_RTOL = 1e-10
REFUTER_BUDGET = 200_000  # (r, s) probes counterexample_refuter checks before it gives up
RANK_TOL = 1e-8  # a singular value counts toward the rank above RANK_TOL * max(sigma_1, 1)


def _rendered(task: MultiplicationTask, window):
    lo, hi = window
    ma = render(task.a, lo, hi)
    mb = render(task.b, lo, hi)
    return ma, mb


def column_candidates(ma: np.ndarray, lo: int, eps: float):
    """Window columns whose mass certifies at least eps."""
    norms = np.sqrt((ma * ma).sum(axis=0))
    return [(lo + j, norms[j]) for j in range(ma.shape[1]) if norms[j] >= eps - 1e-12]


def row_candidates(mb: np.ndarray, lo: int, eps: float):
    norms = np.sqrt((mb * mb).sum(axis=1))
    return [(lo + i, norms[i]) for i in range(mb.shape[0]) if norms[i] >= eps - 1e-12]


@dataclass(frozen=True)
class SubseqCertificate:
    """Self-contained record of a greedy almost-orthogonal selection.

    lam[p][q] pairs the right-factor rows, mu[p][q] the left-factor
    columns; values[p] is |sum_q lam[p][q]*mu[p][q]|, the quantity the
    selection keeps above 8*eps^4/9.
    """

    eps: float
    window: tuple
    col_indices: tuple  # basis columns fed to the left factor
    row_indices: tuple  # basis rows fed to the right factor
    lam: tuple  # tuple of tuples
    mu: tuple
    values: tuple

    def __post_init__(self):
        k = len(self.col_indices)
        lo, hi = self.window
        if len(self.row_indices) != k or len(self.values) != k:
            raise MalformedSpec(f"certificate of size {k} needs {k} row indices and {k} values")
        if any(len(t) != k or any(len(r) != k for r in t) for t in (self.lam, self.mu)):
            raise MalformedSpec(f"certificate tables must be {k} x {k}")
        if any(not lo <= i <= hi for i in self.col_indices + self.row_indices):
            raise MalformedSpec(f"certificate indices must lie in the window {self.window}")

    @property
    def size(self) -> int:
        return len(self.col_indices)

    def threshold(self, position: int) -> float:
        # position is 1-based
        return self.eps * self.eps / (3.0 * 2.0**position)

    def floor(self) -> float:
        return 8.0 * self.eps**4 / 9.0

    def to_json(self):
        return {
            "eps": self.eps,
            "window": list(self.window),
            "col_indices": list(self.col_indices),
            "row_indices": list(self.row_indices),
            "lam": [list(r) for r in self.lam],
            "mu": [list(r) for r in self.mu],
            "values": list(self.values),
        }

    @staticmethod
    def from_json(doc) -> "SubseqCertificate":
        return SubseqCertificate(
            eps=float(doc["eps"]),
            window=tuple(doc["window"]),
            col_indices=tuple(int(i) for i in doc["col_indices"]),
            row_indices=tuple(int(i) for i in doc["row_indices"]),
            lam=tuple(tuple(float(x) for x in r) for r in doc["lam"]),
            mu=tuple(tuple(float(x) for x in r) for r in doc["mu"]),
            values=tuple(float(v) for v in doc["values"]),
        )


def _pairing_tables(af, be):
    """lam and mu from the chosen right-factor rows be and left-factor
    columns af, each stacked one vector per row."""
    return be @ be.T, af @ af.T


def _values_from_tables(lam, mu):
    return np.abs((lam * mu).sum(axis=1))


def greedy_subsequence(task: MultiplicationTask, eps: float, count: int, window=None) -> SubseqCertificate:
    """Thin the candidate columns/rows to an almost-orthogonal selection.

    The first candidate is always taken.  Step n then takes the
    smallest later candidate whose pairings with everything already
    chosen stay below eps^2/(3*2^n) on both sides simultaneously.
    """
    if eps <= 0 or count < 1:
        raise MalformedSpec(f"need eps > 0 and count >= 1, got {eps}, {count}")
    if window is None:
        window = task.nest.window(max(256, 4 * count))
    lo, _hi = window
    ma, mb = _rendered(task, window)
    cols = column_candidates(ma, lo, eps)
    rows = row_candidates(mb, lo, eps)
    pool = min(len(cols), len(rows))
    if pool < 1:
        raise WitnessBudgetExhausted(
            f"no window column/row carries mass {eps} (window {window})"
        )
    # the chosen columns of a and rows of b, one per row; a candidate is
    # read from the rendered matrices, never copied until it is taken
    af = np.empty((count, ma.shape[0]))
    be = np.empty((count, mb.shape[1]))
    af[0] = ma[:, cols[0][0] - lo]  # first candidate, by contract
    be[0] = mb[rows[0][0] - lo]
    chosen = [0]
    k = 1
    while len(chosen) < count and k < pool:
        n = len(chosen)
        thr = eps * eps / (3.0 * 2.0 ** (n + 1))
        a_k = ma[:, cols[k][0] - lo]
        b_k = mb[rows[k][0] - lo]
        if np.abs(af[:n] @ a_k).max() < thr and np.abs(be[:n] @ b_k).max() < thr:
            af[n] = a_k
            be[n] = b_k
            chosen.append(k)
        k += 1
    if len(chosen) < count:
        raise WitnessBudgetExhausted(
            f"pool of {pool} candidates yielded only {len(chosen)} of {count} picks"
        )
    lam, mu = _pairing_tables(af, be)
    return SubseqCertificate(
        eps=eps,
        window=tuple(window),
        col_indices=tuple(cols[k][0] for k in chosen),
        row_indices=tuple(rows[k][0] for k in chosen),
        lam=tuple(map(tuple, lam.tolist())),
        mu=tuple(map(tuple, mu.tolist())),
        values=tuple(_values_from_tables(lam, mu).tolist()),
    )


def certificate_check(task: MultiplicationTask, cert: SubseqCertificate, atol: float = 1e-9):
    """Recompute a certificate from the task and verify every claim.

    Returns (ok, rows) where each row is one named check.  Forged
    tables or forged values fail here and nowhere else.
    """
    rows = []

    def check(name, passed, detail):
        rows.append({"check": name, "pass": bool(passed), "detail": detail})

    ma, mb = _rendered(task, cert.window)
    lo = cert.window[0]
    af = ma[:, np.array(cert.col_indices, dtype=int) - lo].T
    be = mb[np.array(cert.row_indices, dtype=int) - lo]
    lam, mu = _pairing_tables(af, be)
    k = cert.size

    dev = max(
        np.abs(lam - np.array(cert.lam)).max(initial=0.0),
        np.abs(mu - np.array(cert.mu)).max(initial=0.0),
    )
    check("tables-recompute", dev <= max(atol, PAIRING_RTOL), {"max_deviation": float(dev)})

    mass = cert.eps**2 - atol
    bad_norm = np.flatnonzero((np.diag(lam) < mass) | (np.diag(mu) < mass)).tolist()
    check("mass-floor", not bad_norm, {"violating_positions": bad_norm})

    # pair (m, p) with m < p is held to the threshold of position p + 1
    thr = cert.eps * cert.eps / (3.0 * 2.0 ** np.arange(1, k + 1))
    over = np.triu((np.abs(lam) >= thr) | (np.abs(mu) >= thr), 1)
    ps, ms = np.nonzero(over.T)
    bad_pairs = list(zip(ms.tolist(), ps.tolist()))
    check("thinning-thresholds", not bad_pairs, {"violating_pairs": bad_pairs[:8]})

    values = _values_from_tables(lam, mu)
    vdev = np.abs(values - np.array(cert.values)).max(initial=0.0)
    check("values-recompute", vdev <= max(atol, PAIRING_RTOL), {"max_deviation": float(vdev)})

    floor = cert.floor()
    low = np.flatnonzero(values < floor - atol).tolist()
    check("values-floor", not low, {"floor": floor, "violating_positions": low})

    ok = all(r["pass"] for r in rows)
    return ok, rows


# ---------------------------------------------------------------------------
# refuting finite two-sided representations


@dataclass(frozen=True)
class RefuterWitness:
    r: int
    s: int
    target: float
    approximation: float
    residual: float
    threshold: float

    def to_json(self):
        return {
            "r": self.r,
            "s": self.s,
            "target": self.target,
            "approximation": self.approximation,
            "residual": self.residual,
            "threshold": self.threshold,
        }


def representation_residual(pairs, b, r: int, s: int) -> RefuterWitness:
    """Exact residual of the finite representation at the probe (r, s).

    The probe is the matrix unit with column r and row r-s.  Right
    multiplication sends it to (b diagonal at r) times itself, while
    the candidate sum sends it to sum_i d_i[r,r] * c_i[r-s, r-s] times
    itself; only diagonal entries of the candidates matter.
    """
    if r < 2 or not (1 <= s <= r - 1):
        raise MalformedSpec(f"need r >= 2 and 1 <= s <= r-1, got ({r}, {s})")
    target = entry(b, r, r)
    approx = sum(entry(d, r, r) * entry(c, r - s, r - s) for c, d in pairs)
    resid = abs(target - approx)
    thr = abs(target) / 2.0 if target != 0.0 else 1.0 / (2.0 * r)
    return RefuterWitness(r, s, float(target), float(approx), float(resid), float(thr))


def counterexample_refuter(pairs, b=None, r_max: int = 512) -> RefuterWitness:
    """Smallest-first search for a probe where the representation fails.

    pairs is a finite list of (c, d) operator pairs claimed to satisfy
    x*b == sum_i c_i x d_i.  Returns the first (r, s) in lexicographic
    order whose residual reaches half the target value.
    """
    b = canonicalize(b) if b is not None else canonicalize(diag(rule_harmonic()))
    pairs = [(canonicalize(c), canonicalize(d)) for c, d in pairs]
    cdiag = {}

    def cde(i, n):
        key = (i, n)
        if key not in cdiag:
            cdiag[key] = entry(pairs[i][0], n, n)
        return cdiag[key]

    checked = 0
    for r in range(2, r_max + 1):
        target = entry(b, r, r)
        thr = abs(target) / 2.0 if target != 0.0 else 1.0 / (2.0 * r)
        ds = [entry(d, r, r) for _c, d in pairs]
        for s in range(1, r):
            checked += 1
            if checked > REFUTER_BUDGET:
                raise WitnessBudgetExhausted(f"no refuting probe within {REFUTER_BUDGET} checks")
            approx = sum(ds[i] * cde(i, r - s) for i in range(len(pairs)))
            resid = abs(target - approx)
            if resid >= thr:
                return RefuterWitness(r, s, float(target), float(approx), float(resid), float(thr))
    raise WitnessBudgetExhausted(f"no refuting probe with r <= {r_max}")


def stabilization_analysis(pairs, scan: int = 64) -> dict:
    """Rank profile of the span of diagonal-profile differences.

    The vectors (c_i diagonal at n)_i change along n; their differences
    from the first profile span a space whose dimension is capped by
    the number of pairs, so the rank stabilizes quickly.  The report
    records where.
    """
    l = len(pairs)
    cs = [canonicalize(c) for c, _d in pairs]
    prof = np.array([[entry(c, n, n) for c in cs] for n in range(1, scan + 1)])
    ranks = []
    for n in range(2, scan + 1):
        d = prof[1:n] - prof[0]
        if not d.size or float(np.max(np.abs(d))) == 0.0:
            ranks.append(0)
            continue
        sv = singular_values(d, k=min(d.shape))
        top = max(sv[0], 1.0)
        ranks.append(int(sum(1 for s in sv if s > RANK_TOL * top)))
    final = ranks[-1] if ranks else 0
    stab = next((n for n, rk in zip(range(2, scan + 1), ranks) if rk == final), 2)
    return {"pairs": l, "ranks": ranks, "final_rank": final, "stabilized_at": stab}


# ---------------------------------------------------------------------------
# sup-norm embedding bounds


def linf_embedding(task: MultiplicationTask, x, cert: SubseqCertificate, block_size=None) -> dict:
    """Bound the norm of the block combination prescribed by x.

    Certificate positions are split into consecutive blocks, one per
    coordinate of x.  The upper bound is sup|x| times the factor norm
    bounds.  The lower bound tests the block of the largest coordinate
    against its own representative: the block's pairing sum, minus what
    the other blocks can interfere, minus the geometric tail allowance
    2*eps^4/9 for everything the selection discarded.
    """
    x = [float(v) for v in x]
    m = len(x)
    if m < 1:
        raise MalformedSpec("x must be nonempty")
    bs = block_size if block_size is not None else cert.size // m
    if bs < 1 or m * bs > cert.size:
        raise BlockTooSmall(f"{m} blocks of {bs} exceed certificate size {cert.size}")
    blocks = [list(range(n * bs, (n + 1) * bs)) for n in range(m)]
    sup = max(abs(v) for v in x)
    n0 = max(range(m), key=lambda n: abs(x[n]))
    r0 = blocks[n0][0]

    v0 = abs(sum(cert.lam[r0][q] * cert.mu[r0][q] for q in blocks[n0]))
    interf = []
    for n in range(m):
        if n == n0:
            interf.append(0.0)
            continue
        interf.append(sum(abs(cert.lam[r0][q] * cert.mu[r0][q]) for q in blocks[n]))
    tail = 2.0 * cert.eps**4 / 9.0
    lower = abs(x[n0]) * v0 - sum(abs(x[n]) * interf[n] for n in range(m)) - tail * sup
    upper = sup * norm_bound(task.a) * norm_bound(task.b)
    return {
        "upper": float(upper),
        "lower": float(lower),
        "lead_block": n0,
        "lead_value": float(v0),
        "interference": [float(v) for v in interf],
        "tail_allowance": float(tail * sup),
        "block_size": bs,
        "blocks": [[int(p) for p in blk] for blk in blocks],
    }

"""Transfer (Frobenius–Perron) operator: its exact Ulam discretization,
invariant densities, and leading eigenvalues.

Every step of P on a grid function is one ``apply_t`` of the Ulam operator
L = Pᵀ, assembled from exact interval preimages of the bin edges, so its
rows are stochastic to rounding error, not to Monte-Carlo error.
`spectrum` returns eigenvalues only; the density comes from
`invariant_density`.

Eigensolve policy of `spectrum`.  P is quasi-compact with essential
spectral radius at most r_ess = 1/s_min (stored on `UlamOperator`), and
Ulam eigenvalues inside r_ess move with n (Keller–Liverani), so a value is
resolved when it has converged and |λ| > r_ess + 1e-8.  Up to
``DENSE_EIG_LIMIT`` (4096) bins a dense ``eigvals`` gives the whole Ulam
spectrum.  Above it, `_krylov_top` builds an unrestarted Arnoldi basis on
``apply_t`` from a fixed random start vector (a constant start is Pᵀ's
fixed vector for the doubly stochastic maps and breaks down at once).  It
grows by max(64, m/4) vectors per step and stops once every top-k Ritz
value outside r_ess + 1e-8 has residual |h_{m+1,m} y_m| ≤ ``_RITZ_TOL``;
the Ritz values inside are returned unresolved.  At ``KRYLOV_MAX_DIM``
vectors, or when k exceeds that cap, `spectrum` raises `ToolError`.

`ulam_matrix` returns the Ulam matrix as numpy (row, col, value) triplets.
`UlamOperator.apply_t` applies Pᵀ with one ``np.bincount``, and the dense
eigensolve scatters the triplets into an n × n array, so neither
`invariant_density` nor `spectrum` loads scipy.  ``scipy.sparse`` is
imported only by `UlamOperator.matrix`, a CSR view for callers that want
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ToolError
from .grid import GridFunction, variation
from .maps import PiecewiseMap, invert_branch_array


@dataclass(frozen=True, eq=False)
class UlamOperator:
    """Ulam matrix P on n bins as triplets sorted by (row, col), one per
    nonzero entry: P[i, j] = m(B_i ∩ τ⁻¹B_j)/m(B_i), and the essential
    spectral radius bound r_ess = 1/s_min of the map's operator."""

    n: int
    rows: np.ndarray  # int64, source bin i
    cols: np.ndarray  # int64, target bin j
    vals: np.ndarray  # float64
    r_ess: float

    def apply_t(self, h: np.ndarray) -> np.ndarray:
        """Pᵀh.  Each entry adds its terms to 0.0 in ascending row order,
        as scipy's CSR matvec on ``P.T.tocsr()`` does, so the two agree
        bit for bit."""
        return np.bincount(self.cols, weights=self.vals * h[self.rows],
                           minlength=self.n)

    def dense_t(self) -> np.ndarray:
        """Pᵀ as a dense n × n array."""
        out = np.zeros((self.n, self.n))
        out[self.cols, self.rows] = self.vals
        return out

    @cached_property
    def matrix(self):
        """P as a ``scipy.sparse.csr_matrix`` built from the triplets on
        first read, which is also when ``scipy.sparse`` is imported."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.vals, (self.rows, self.cols)),
                             shape=(self.n, self.n))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    eigenvalues: np.ndarray  # complex, sorted by decreasing modulus
    unit_multiplicity: int
    spectral_gap: float      # 1 - largest resolved modulus below 1, or a bound
    gap_is_bound: bool       # no such modulus: spectral_gap is the lower bound
    r_ess: float
    solver: str              # "dense" or "krylov m=<basis size>"

    @property
    def resolved(self) -> np.ndarray:
        """Per eigenvalue: converged and |λ| > r_ess + 1e-8."""
        return np.abs(self.eigenvalues) > self.r_ess + _ESS_MARGIN


@dataclass(frozen=True, eq=False)
class IterateSeries:
    norms: np.ndarray  # BV norm of P^n f for n = 0..n_max
    l1_initial: float
    C: object          # float, or None when no contraction constant exists

    @property
    def bound(self):
        """C * ||f||_1, or None."""
        return None if self.C is None else self.C * self.l1_initial

    @property
    def flags(self):
        """Per-n "within bound" (to 1e-12), or None."""
        return None if self.C is None else self.norms <= self.bound + 1e-12

    @property
    def n0(self):
        """First index from which the bound always holds, or None."""
        flags = self.flags
        if flags is None or not flags[-1]:
            return None
        fails = np.flatnonzero(~flags)
        return int(fails[-1]) + 1 if fails.size else 0


def apply_fp(pmap: PiecewiseMap, f: GridFunction) -> GridFunction:
    """One Ulam step L f = Pᵀ f of a grid function; assembles the operator
    on every call, so a loop should build `ulam_matrix` once instead."""
    return GridFunction(ulam_matrix(pmap, f.n).apply_t(f.values))


def ulam_matrix(pmap: PiecewiseMap, n: int) -> UlamOperator:
    """Row-stochastic Ulam discretization on n uniform bins, assembled
    from exact branch preimages of the bin edges."""
    if n < 2:
        raise ConfigError(f"need at least 2 bins, got {n}")
    edges = np.arange(n + 1) / n
    rows, cols, vals = [], [], []
    for br in pmap.branches:
        # clipped edges invert to exact domain ends, so row sums telescope
        ys = np.clip(edges, br.image.lo, br.image.hi)
        xs = invert_branch_array(br, ys)
        # preimage [xa, xb] of target bin j, then the source bins ia..ib it
        # meets, expanded to one (i, j) entry per pair in (j, i) order
        xa, xb = (xs[:-1], xs[1:]) if br.monotone_sign > 0 else (xs[1:], xs[:-1])
        j = np.nonzero(xb > xa)[0]
        xa, xb = xa[j], xb[j]
        ia = np.clip(np.floor(xa * n), 0, n - 1).astype(np.int64)
        ib = np.clip(np.floor(xb * n), 0, n - 1).astype(np.int64)
        counts = ib - ia + 1
        first = np.repeat(np.cumsum(counts) - counts, counts)
        i = np.repeat(ia, counts) + (np.arange(first.size) - first)
        lo = np.maximum(np.repeat(xa, counts), i / n)
        hi = np.minimum(np.repeat(xb, counts), (i + 1) / n)
        w = (hi - lo) * n
        keep = w > 0.0
        rows.append(i[keep])
        cols.append(np.repeat(j, counts)[keep])
        vals.append(w[keep])
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    order = np.lexsort((cols, rows))  # stable: ties stay in branch order
    rows, cols, vals = rows[order], cols[order], vals[order]
    # a source bin that meets two branches can repeat an (i, j) pair; the
    # bincount adds each run from 0.0 in order, as scipy's sum_duplicates
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    vals = np.bincount(np.cumsum(new) - 1, weights=vals)
    rows, cols = rows[new], cols[new]
    # row sums by reduceat, as scipy's CSR sum(axis=1) takes them, so the
    # check and its message see the sums the CSR view reports
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    row_sums = np.zeros(n)
    row_sums[rows[starts]] = np.add.reduceat(vals, starts)
    worst = float(np.max(np.abs(row_sums - 1.0)))
    # a row telescopes to the bin width ((i+1)/n - i/n)·n, on which the
    # rounded edges alone put up to ~n·eps (1.2e-12 at n = 10⁴)
    if worst > max(1e-12, 4 * n * np.finfo(float).eps):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ToolError(
            f"row {bad} sums to {float(row_sums[bad])!r} (off by {worst:g}); "
            "branch images may not cover the bin")
    s = pmap.min_slope_global
    return UlamOperator(n=n, rows=rows, cols=cols, vals=vals,
                        r_ess=1.0 / s if s > 0 else math.inf)


# the one stopping rule of every density solve, applied by power_iterate
DENSITY_TOL = 1e-13
DENSITY_MAX_ITERS = 20000


def power_iterate(apply_t, h0: np.ndarray):
    """Iterate h -> apply_t(h) = P^T h, renormalized to mean 1, from h0
    until one step moves h by less than DENSITY_TOL in L¹, at most
    DENSITY_MAX_ITERS times; returns (h, converged, residual, iterations)
    with residual that last step."""
    h, residual = h0, np.inf
    for steps in range(DENSITY_MAX_ITERS):
        h2 = apply_t(h)
        mean = float(np.mean(h2))
        if mean <= 0:
            return h, False, residual, steps
        h2 = h2 / mean
        residual = float(np.mean(np.abs(h2 - h)))
        if residual < DENSITY_TOL:
            return h2, True, residual, steps + 1
        h = h2
    return h, False, residual, DENSITY_MAX_ITERS


def invariant_density(op: UlamOperator) -> GridFunction:
    """Invariant density of the Ulam operator by power iteration from the
    uniform density, in the L¹ metric."""
    h, converged, residual, steps = power_iterate(op.apply_t, np.ones(op.n))
    if not converged:
        raise ToolError(
            f"power iteration stalled at L1 residual {residual:g} after "
            f"{steps} iterations; the unit eigenvalue may not be simple "
            "(inspect the spectrum)")
    h = np.maximum(h, 0.0)
    h = h / np.mean(h)
    return GridFunction(h)


# dense eigensolve cutoff; above this only the top-k, iteratively
DENSE_EIG_LIMIT = 4096
# largest Krylov basis the iterative eigensolve builds, in vectors of length n
KRYLOV_MAX_DIM = 1024
# Ritz residual |h_{m+1,m} y_m| below which a Ritz pair counts as converged;
# a new basis vector shorter than this is a breakdown
_RITZ_TOL = 1e-12

_UNIT_TOL = 1e-8
# a modulus within this of r_ess (rounding noise) counts as inside it
_ESS_MARGIN = 1e-8


def _krylov_top(op: UlamOperator, k: int, r_ess: float,
                rng: np.random.Generator):
    """Top-k eigenvalues of Pᵀ from an unrestarted Arnoldi basis on
    `op.apply_t` that grows by max(64, m/4) vectors per step until every
    top-k Ritz value of modulus above r_ess + 1e-8 has residual
    |h_{m+1,m} y_m| at most _RITZ_TOL; returns (values, basis size m).
    With r_ess = 0 every top-k value converges.

    A breakdown means the basis spans an invariant subspace.  That
    subspace holds one eigenvector per eigenvalue at most, so a repeated
    top eigenvalue (two ergodic components) would be reported once: a
    random vector orthogonal to the basis continues it, until the basis
    spans all of R^n."""
    n = op.n
    cap = min(KRYLOV_MAX_DIM, n)
    try:
        # basis vectors as rows; a page is used only once its row is written
        basis = np.empty((cap + 1, n))
    except MemoryError as err:
        raise ToolError(
            f"iterative eigensolve failed: no memory for a Krylov basis of "
            f"{cap + 1} vectors of length {n}") from err
    hess = np.zeros((cap + 1, cap))  # upper Hessenberg, top-left (m+1) x m
    v = rng.random(n)
    basis[0] = v / np.linalg.norm(v)
    m, worst = 0, np.inf
    while True:
        if m >= cap:
            raise ToolError(
                f"iterative eigensolve failed: the Krylov basis reached its "
                f"cap of {cap} vectors before the top {k} Ritz values outside "
                f"r_ess = {r_ess:.6g} converged (largest residual {worst:.3g})")
        size = min(m + max(64, m // 4), cap)
        while m < size:
            w = op.apply_t(basis[m])
            for _ in range(2):  # classical Gram–Schmidt, twice
                c = basis[:m + 1] @ w
                w -= c @ basis[:m + 1]
                hess[:m + 1, m] += c
            beta = float(np.linalg.norm(w))
            m += 1
            if beta > _RITZ_TOL:
                hess[m, m - 1] = beta
                basis[m] = w / beta
            elif m == n:
                break
            else:
                v = rng.random(n)
                for _ in range(2):
                    v -= (basis[:m] @ v) @ basis[:m]
                basis[m] = v / np.linalg.norm(v)
        if m < k:
            continue
        theta, vecs = np.linalg.eig(hess[:m, :m])
        top = np.argsort(-np.abs(theta), kind="stable")[:k]
        outside = top[np.abs(theta[top]) > r_ess + _ESS_MARGIN]
        worst = float(np.max(np.abs(hess[m, m - 1] * vecs[m - 1, outside]),
                             initial=0.0))
        if worst <= _RITZ_TOL:
            return theta[top], m


def spectrum(op: UlamOperator, k: int) -> SpectralReport:
    """Top-k eigenvalues by modulus with their resolved flags, unit-circle
    multiplicity and spectral gap; the module docstring says which
    eigensolver runs and what counts as resolved.  The invariant density
    comes from `invariant_density`."""
    n = op.n
    if not 2 <= k <= n:
        raise ConfigError(f"need 2 <= k <= {n} eigenvalues (an Ulam matrix on "
                          f"{n} bins has {n}), got {k}")
    if n <= DENSE_EIG_LIMIT:
        try:
            vals = np.linalg.eigvals(op.dense_t())
        except np.linalg.LinAlgError as err:
            raise ToolError(f"dense eigensolve failed: {err}") from err
        solver = "dense"
    else:
        if k > KRYLOV_MAX_DIM:
            raise ToolError(
                f"cannot compute the top {k} eigenvalues on {n} bins: above "
                f"DENSE_EIG_LIMIT = {DENSE_EIG_LIMIT} bins the iterative "
                f"eigensolve returns at most KRYLOV_MAX_DIM = "
                f"{KRYLOV_MAX_DIM}")
        vals, m = _krylov_top(op, k, op.r_ess, np.random.default_rng(0))
        solver = f"krylov m={m}"
    moduli = np.abs(vals)
    # a modulus within _UNIT_TOL of 1 sorts as 1, with λ = 1 first, so a
    # rounded-up root of unity cannot lead
    unit = np.where(np.abs(moduli - 1.0) < _UNIT_TOL, 1.0, moduli)
    order = np.lexsort((np.abs(vals - 1.0) >= _UNIT_TOL, -unit))
    eigvals = vals[order]
    moduli = moduli[order]
    unit_mult = int(np.sum(np.abs(moduli - 1.0) < _UNIT_TOL))
    if abs(moduli[0] - 1.0) > _UNIT_TOL:
        raise ToolError(
            f"leading eigenvalue {eigvals[0]!r} is not on the unit circle")
    # every computed value outside r_ess has converged (dense: all of them)
    resolved = moduli > op.r_ess + _ESS_MARGIN
    below = moduli[resolved & (moduli < moduli[0] - _UNIT_TOL)]
    # with none, a lower bound: 1 - r_ess, or 0 when every computed value
    # is on the unit circle and what lies past the last of them is unknown
    gap_is_bound = below.size == 0
    if not gap_is_bound:
        gap = float(1.0 - below[0])
    else:
        gap = 0.0 if resolved.all() else max(0.0, 1.0 - op.r_ess)
    return SpectralReport(
        eigenvalues=eigvals[:k],
        unit_multiplicity=unit_mult,
        spectral_gap=gap,
        gap_is_bound=gap_is_bound,
        r_ess=op.r_ess,
        solver=solver)


def iterate_norm_series(pmap: PiecewiseMap, f: GridFunction, p: float,
                        A: float, n_max: int) -> IterateSeries:
    """BV norms of Lⁿ f for n = 0..n_max, L = Pᵀ the Ulam operator on f's
    grid, compared against the a-priori bound C * ||f||_1 that holds for
    all large n."""
    from . import analysis  # local import: analysis builds on this module

    consts = analysis.ly_constants(pmap, p=p, t=1.0, A=A)
    op = ulam_matrix(pmap, f.n)
    norms = np.empty(n_max + 1)
    g = f
    for i in range(n_max + 1):
        norms[i] = variation(g, 1.0, p, A).bv_norm
        if i < n_max:
            g = GridFunction(op.apply_t(g.values))
    l1 = float(np.mean(np.abs(f.values)))
    # alpha >= 1 at this A gives C = None: the norms without a bound
    return IterateSeries(norms=norms, l1_initial=l1, C=consts.C)

"""Transfer (Frobenius–Perron) operator: pointwise action on grid
functions, exact Ulam discretization, invariant densities, and leading
eigenvalues.

The pointwise action at a cell midpoint x sums f(y)/|τ'(y)| over the
branch preimages y of x.  Its stencil is three arrays (source cell, target
cell, weight) concatenated in branch order, and `apply_fp` is one
``np.bincount`` over them.  The bincount adds each target cell's terms to
0.0 in array order, which is branch order, and a target cell occurs at
most once per branch, so the sums are those of a per-branch scatter loop
bit for bit.  The Ulam matrix is assembled from exact interval
preimages of the bin edges, so its rows are stochastic to rounding error,
not to Monte-Carlo error.  `spectrum` returns eigenvalues only; the
density comes from `invariant_density`.

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
vectors, or when k exceeds that cap, `spectrum` raises `SpectralError`.

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

from . import expr
from .errors import ConfigError, ToolError
from .grid import GridFunction, variation
from .maps import PiecewiseMap, invert_branch_array


class AssemblyError(ToolError):
    """Ulam assembly failed (root finder or stochasticity check)."""


class ConvergenceError(ToolError):
    """Power iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SpectralError(ToolError):
    """Eigenvalue computation failed or produced no unit eigenvalue."""


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
    resolved: np.ndarray     # bool per eigenvalue: converged, |λ| > r_ess + 1e-8
    unit_multiplicity: int
    spectral_gap: float      # 1 - largest resolved modulus below 1, or a bound
    gap_is_bound: bool       # no such modulus: spectral_gap is the lower bound
    r_ess: float
    solver: str = "dense"    # "dense" or "krylov m=<basis size>"


@dataclass(frozen=True, eq=False)
class IterateSeries:
    norms: np.ndarray
    l1_initial: float
    C: object       # float, or None when no contraction constant exists
    bound: object   # C * ||f||_1, or None
    flags: object   # per-n "within bound", or None
    n0: object      # first index from which the bound always holds, or None


def _fp_stencil(pmap: PiecewiseMap, n: int):
    """(source cells, target cells, weights 1/|τ'(y)|) of the pointwise FP
    action on an n-cell grid, concatenated in branch order; cached on the
    map.  Not an `UlamOperator`: the pairs are unsorted, and one (source,
    target) pair can occur in two branches (tent at odd n)."""
    key = ("fp", n)
    cached = pmap._cache.get(key)
    if cached is not None:
        return cached
    mids = (np.arange(n) + 0.5) / n
    src, cells, weights = [], [], []
    for br in pmap.branches:
        target = np.nonzero((mids >= br.image.lo) & (mids <= br.image.hi))[0]
        xs = invert_branch_array(br, mids[target])
        _, ders = expr.eval_with_derivative(br.expression, xs)
        src.append(np.clip(np.floor(xs * n).astype(int), 0, n - 1))
        cells.append(target)
        weights.append(1.0 / np.abs(ders))
    stencil = tuple(np.concatenate(a) for a in (src, cells, weights))
    pmap._cache[key] = stencil
    return stencil


def apply_fp(pmap: PiecewiseMap, f: GridFunction) -> GridFunction:
    """One application of the transfer operator to a grid function."""
    src, cells, weights = _fp_stencil(pmap, f.n)
    return GridFunction(n=f.n, values=np.bincount(
        cells, weights=f.values[src] * weights, minlength=f.n))


def ulam_matrix(pmap: PiecewiseMap, n: int) -> UlamOperator:
    """Row-stochastic Ulam discretization on n uniform bins, assembled
    from exact branch preimages of the bin edges."""
    if n < 2:
        raise ConfigError(f"need at least 2 bins, got {n}")
    edges = np.arange(n + 1) / n
    rows, cols, vals = [], [], []
    for br in pmap.branches:
        img = br.image
        lo_x = br.domain.lo if br.monotone_sign > 0 else br.domain.hi
        hi_x = br.domain.hi if br.monotone_sign > 0 else br.domain.lo
        ys = np.clip(edges, img.lo, img.hi)
        try:
            xs = invert_branch_array(br, ys)
        except ToolError as err:
            raise AssemblyError(
                f"edge inversion failed on branch {br.formula!r}: {err}") from err
        # pin clipped edges to the exact domain endpoints so that row sums
        # telescope exactly
        xs = np.where(ys == img.lo, lo_x, xs)
        xs = np.where(ys == img.hi, hi_x, xs)
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
        raise AssemblyError(
            f"row {bad} sums to {float(row_sums[bad])!r} (off by {worst:g}); "
            "branch images may not cover the bin")
    s = pmap.min_slope_global
    return UlamOperator(n=n, rows=rows, cols=cols, vals=vals,
                        r_ess=1.0 / s if s > 0 else math.inf)


def power_iterate(apply_t, h0: np.ndarray, tol: float, max_iters: int):
    """Iterate h -> apply_t(h) = P^T h, renormalized to mean 1, from h0
    until one step moves h by less than `tol` in L¹; returns (h, converged,
    residual, iterations) with residual that last step."""
    h, residual = h0, np.inf
    for steps in range(max_iters):
        h2 = apply_t(h)
        mean = float(np.mean(h2))
        if mean <= 0:
            return h, False, residual, steps
        h2 = h2 / mean
        residual = float(np.mean(np.abs(h2 - h)))
        if residual < tol:
            return h2, True, residual, steps + 1
        h = h2
    return h, False, residual, max_iters


def invariant_density(op: UlamOperator, tol: float = 1e-12,
                      max_iters: int = 5000) -> GridFunction:
    """Invariant density of the Ulam operator by power iteration from the
    uniform density, in the L¹ metric."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be a positive finite number, got {tol}")
    h, converged, residual, _ = power_iterate(
        op.apply_t, np.ones(op.n), tol, max_iters)
    if not converged:
        raise ConvergenceError(
            f"power iteration stalled at L1 residual {residual:g} after "
            f"{max_iters} iterations; the unit eigenvalue may not be simple "
            "(inspect the spectrum)", residual)
    h = np.maximum(h, 0.0)
    h = h / np.mean(h)
    return GridFunction(n=op.n, values=h)


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
        raise SpectralError(
            f"iterative eigensolve failed: no memory for a Krylov basis of "
            f"{cap + 1} vectors of length {n}") from err
    hess = np.zeros((cap + 1, cap))  # upper Hessenberg, top-left (m+1) x m
    v = rng.random(n)
    basis[0] = v / np.linalg.norm(v)
    m, worst = 0, np.inf
    while True:
        if m >= cap:
            raise SpectralError(
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
    if k < 2:
        raise ConfigError(f"need k >= 2 eigenvalues, got {k}")
    n = op.n
    if n <= DENSE_EIG_LIMIT:
        try:
            vals = np.linalg.eigvals(op.dense_t())
        except np.linalg.LinAlgError as err:
            raise SpectralError(f"dense eigensolve failed: {err}") from err
        solver = "dense"
    else:
        if k > KRYLOV_MAX_DIM:
            raise SpectralError(
                f"cannot compute the top {k} eigenvalues on {n} bins: above "
                f"DENSE_EIG_LIMIT = {DENSE_EIG_LIMIT} bins the iterative "
                f"eigensolve returns at most KRYLOV_MAX_DIM = "
                f"{KRYLOV_MAX_DIM}")
        vals, m = _krylov_top(op, k, op.r_ess, np.random.default_rng(0))
        solver = f"krylov m={m}"
    moduli = np.abs(vals)
    order = np.argsort(-moduli, kind="stable")
    eigvals = vals[order]
    moduli = moduli[order]
    unit_mult = int(np.sum(np.abs(moduli - 1.0) < _UNIT_TOL))
    if abs(moduli[0] - 1.0) > _UNIT_TOL:
        raise SpectralError(
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
        resolved=resolved[:k],
        unit_multiplicity=unit_mult,
        spectral_gap=gap,
        gap_is_bound=gap_is_bound,
        r_ess=op.r_ess,
        solver=solver)


def iterate_norm_series(pmap: PiecewiseMap, f: GridFunction, p: float,
                        A: float, n_max: int) -> IterateSeries:
    """BV norms of P^n f for n = 0..n_max, compared against the a-priori
    bound C * ||f||_1 that holds for all large n."""
    from . import analysis  # local import: analysis builds on this module

    consts = analysis.ly_constants(pmap, p=p, t=1.0, A=A)
    norms = np.empty(n_max + 1)
    g = f
    for i in range(n_max + 1):
        norms[i] = variation(g, 1.0, p, A).bv_norm
        if i < n_max:
            g = apply_fp(pmap, g)
    l1 = float(np.mean(np.abs(f.values)))
    if not consts.admissible:
        # alpha >= 1 at this A: no contraction constant, so the series is
        # reported without a bound (the norms themselves are still useful).
        return IterateSeries(norms=norms, l1_initial=l1, C=None,
                             bound=None, flags=None, n0=None)
    bound = consts.C * l1
    flags = norms <= bound + 1e-12
    n0 = None
    for i in range(n_max, -1, -1):
        if not flags[i]:
            break
        n0 = i
    return IterateSeries(norms=norms, l1_initial=l1, C=consts.C,
                         bound=bound, flags=flags, n0=n0)

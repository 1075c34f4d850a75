"""Transfer (Frobenius–Perron) operator: pointwise action on grid
functions, exact Ulam discretization, invariant densities, and leading
eigenvalues.

The pointwise action at a cell midpoint x sums f(y)/|τ'(y)| over the
branch preimages y of x.  The Ulam matrix is assembled from exact interval
preimages of the bin edges, so its rows are stochastic to rounding error,
not to Monte-Carlo error.  `spectrum` returns eigenvalues only; the
density comes from `invariant_density`.

Eigensolve policy of `spectrum`.  Up to ``DENSE_EIG_LIMIT`` (4096) bins
the whole Ulam spectrum comes from a dense ``eigvals``.  Above it, one
ARPACK call (implicitly restarted Arnoldi, default ``ncv``) looks for the
top k from a fixed random start vector with at most ``_ARPACK_MAXITER``
restarts; a constant start is Pᵀ's fixed vector for the doubly stochastic
maps and breaks down at once.  ARPACK cannot separate the wanted values
from a cluster of tied moduli wider than its ``ncv`` (the tent matrix has
about n/8 eigenvalues on |λ| = 1/2), so when it converges fewer than k an
unrestarted Arnoldi basis takes over: one array of ``KRYLOV_MAX_DIM`` + 1
rows, reserved up front and written a row at a time.  It grows by
max(64, m/4) vectors per step and stops once every top-k Ritz residual
|h_{m+1,m} y_m| is at most ``_RITZ_TOL``; at ``KRYLOV_MAX_DIM`` vectors,
or when k exceeds that cap, `spectrum` raises `SpectralError`.

``scipy.sparse`` is imported inside `ulam_matrix` and ``scipy.sparse.linalg``
inside `spectrum`'s iterative branch, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    n: int
    matrix: sp.csr_matrix  # row i, col j: m(B_i ∩ τ⁻¹B_j)/m(B_i)


@dataclass(frozen=True, eq=False)
class SpectralReport:
    eigenvalues: np.ndarray  # complex, sorted by decreasing modulus
    unit_multiplicity: int
    spectral_gap: float
    solver: str = "dense"  # "dense", "arpack" or "krylov m=<basis size>"
    converged: int = 0     # eigenvalues ARPACK converged; 0 on the dense path


@dataclass(frozen=True, eq=False)
class IterateSeries:
    norms: np.ndarray
    l1_initial: float
    C: object       # float, or None when no contraction constant exists
    bound: object   # C * ||f||_1, or None
    flags: object   # per-n "within bound", or None
    n0: object      # first index from which the bound always holds, or None


def _fp_stencil(pmap: PiecewiseMap, n: int):
    """Per-branch (target cells, source cells, weights) for the pointwise
    FP action on an n-cell grid; cached on the map."""
    key = ("fp", n)
    cached = pmap._cache.get(key)
    if cached is not None:
        return cached
    mids = (np.arange(n) + 0.5) / n
    stencil = []
    for br in pmap.branches:
        img = br.image
        mask = (mids >= img.lo) & (mids <= img.hi)
        cells = np.nonzero(mask)[0]
        if cells.size == 0:
            stencil.append((cells, cells, np.empty(0)))
            continue
        ys = np.clip(mids[cells], img.lo, img.hi)
        xs = invert_branch_array(br, ys)
        _, ders = expr.eval_with_derivative(br.expression, xs)
        weights = 1.0 / np.abs(ders)
        src = np.clip(np.floor(xs * n).astype(int), 0, n - 1)
        stencil.append((cells, src, weights))
    pmap._cache[key] = stencil
    return stencil


def apply_fp(pmap: PiecewiseMap, f: GridFunction) -> GridFunction:
    """One application of the transfer operator to a grid function."""
    out = np.zeros(f.n)
    for cells, src, weights in _fp_stencil(pmap, f.n):
        if cells.size:
            out[cells] += f.values[src] * weights
    return GridFunction(n=f.n, values=out)


def ulam_matrix(pmap: PiecewiseMap, n: int) -> UlamOperator:
    """Row-stochastic Ulam discretization on n uniform bins, assembled
    from exact branch preimages of the bin edges."""
    import scipy.sparse as sp

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
    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                         np.concatenate(cols))), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    worst = float(np.max(np.abs(row_sums - 1.0)))
    if worst > 1e-12:
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise AssemblyError(
            f"row {bad} sums to {row_sums[bad]!r} (off by {worst:g}); "
            "branch images may not cover the bin")
    return UlamOperator(n=n, matrix=mat)


def power_iterate(mat_t, h0: np.ndarray, tol: float, max_iters: int):
    """Iterate h -> P^T h, renormalized to mean 1, from h0 until one step
    moves h by less than `tol` in L¹; returns (h, converged, residual,
    iterations) with residual that last step."""
    h, residual = h0, np.inf
    for steps in range(max_iters):
        h2 = mat_t @ h
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
    mat_t = op.matrix.transpose().tocsr()
    h, converged, residual, _ = power_iterate(mat_t, np.ones(op.n), tol, max_iters)
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
# ARPACK restarts before the Krylov fallback takes over
_ARPACK_MAXITER = 1000
# largest Krylov basis the fallback builds, in vectors of length n
KRYLOV_MAX_DIM = 1024
# Ritz residual |h_{m+1,m} y_m| below which a Ritz pair counts as converged;
# a new basis vector shorter than this is a breakdown
_RITZ_TOL = 1e-12

_UNIT_TOL = 1e-8


def _krylov_top(mat_t, k: int, rng: np.random.Generator):
    """Top-k eigenvalues of `mat_t` from an unrestarted Arnoldi basis that
    grows by max(64, m/4) vectors per step until every top-k Ritz residual
    |h_{m+1,m} y_m| is at most _RITZ_TOL; returns (values, basis size m).

    A breakdown means the basis spans an invariant subspace.  That
    subspace holds one eigenvector per eigenvalue at most, so a repeated
    top eigenvalue (two ergodic components) would be reported once: a
    random vector orthogonal to the basis continues it, until the basis
    spans all of R^n."""
    n = mat_t.shape[0]
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
                f"cap of {cap} vectors before the top {k} Ritz "
                f"values converged (largest residual {worst:.3g})")
        size = min(m + max(64, m // 4), cap)
        while m < size:
            w = mat_t @ basis[m]
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
        worst = float(np.max(np.abs(hess[m, m - 1] * vecs[m - 1, top])))
        if worst <= _RITZ_TOL:
            return theta[top], m


def spectrum(op: UlamOperator, k: int) -> SpectralReport:
    """Top-k eigenvalues by modulus, unit-circle multiplicity and spectral
    gap; the module docstring says which eigensolver runs.  The invariant
    density comes from `invariant_density`."""
    if k < 2:
        raise ConfigError(f"need k >= 2 eigenvalues, got {k}")
    n = op.n
    if n <= DENSE_EIG_LIMIT:
        try:
            vals = np.linalg.eigvals(op.matrix.toarray().T)
        except np.linalg.LinAlgError as err:
            raise SpectralError(f"dense eigensolve failed: {err}") from err
        solver, arpack_converged = "dense", 0
    else:
        if k > KRYLOV_MAX_DIM:
            raise SpectralError(
                f"cannot compute the top {k} eigenvalues on {n} bins: above "
                f"DENSE_EIG_LIMIT = {DENSE_EIG_LIMIT} bins the iterative "
                f"eigensolve returns at most KRYLOV_MAX_DIM = "
                f"{KRYLOV_MAX_DIM}")
        from scipy.sparse.linalg import ArpackNoConvergence, eigs

        mat_t = op.matrix.transpose().tocsr()
        rng = np.random.default_rng(0)
        try:
            vals = eigs(mat_t, k=min(k, n - 2), which="LM", v0=rng.random(n),
                        maxiter=_ARPACK_MAXITER, return_eigenvectors=False)
            solver, arpack_converged = "arpack", len(vals)
        except ArpackNoConvergence as err:
            arpack_converged = len(err.eigenvalues)
            vals, m = _krylov_top(mat_t, k, rng)
            solver = f"krylov m={m}"
    moduli = np.abs(vals)
    order = np.argsort(-moduli, kind="stable")
    eigvals = vals[order]
    moduli = moduli[order]
    unit_mult = int(np.sum(np.abs(moduli - 1.0) < _UNIT_TOL))
    if abs(moduli[0] - 1.0) > _UNIT_TOL:
        raise SpectralError(
            f"leading eigenvalue {eigvals[0]!r} is not on the unit circle")
    below = moduli[moduli < moduli[0] - _UNIT_TOL]
    gap = float(1.0 - below[0]) if below.size else 0.0
    return SpectralReport(
        eigenvalues=eigvals[:k],
        unit_multiplicity=unit_mult,
        spectral_gap=gap,
        solver=solver,
        converged=arpack_converged)


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

"""Transfer (Frobenius–Perron) operator: its exact Ulam discretization,
invariant densities, and leading eigenvalues.

Every step of P on a grid function is one ``apply_t`` of the Ulam operator
L = Pᵀ, and `UlamOperator.orbit` yields the iterates Lⁿh one step at a time;
L is assembled from exact interval preimages of the bin edges, so its
rows are stochastic to rounding error, not to Monte-Carlo error.
`spectrum` returns eigenvalues only; the density comes from
`invariant_density`.

Eigensolve policy of `spectrum`.  P is quasi-compact with essential
spectral radius at most r_ess = 1/s_min (stored on `UlamOperator`), and
Ulam eigenvalues inside r_ess move with n (Keller–Liverani), so a value is
resolved when it has converged and |λ| > r_ess + 1e-8.  Up to
``DENSE_EIG_LIMIT`` (4096) bins a dense ``eigvals`` gives the whole Ulam
spectrum, every value converged.  Above it, `_krylov_top` builds an
unrestarted Arnoldi basis on ``apply_t`` from a fixed pseudo-random start
vector, n draws of ``random.Random(0).random()`` (a constant start is Pᵀ's
fixed vector for the doubly stochastic maps and breaks down at once).  It
grows by max(64, m/4) vectors per step, and its one array grows with it:
each step allocates the rows it needs and copies the basis over, so the
memory follows m, not the cap.  It stops once every top-k Ritz value
outside r_ess + 1e-8 has residual |h_{m+1,m} y_m| ≤ ``_RITZ_TOL``, or
once a step converges no more of them and cuts their largest residual by
less than ``_STALL_FACTOR``: on tent, doubling and tripling the top Ritz
values sit in a cluster just outside the r_ess circle and converge too
slowly to wait for.  Each value carries its converged flag; an
unconverged value outside r_ess leaves the spectral gap not established
(nan).  At ``KRYLOV_MAX_DIM`` vectors, or when k exceeds that cap,
`spectrum` raises `ToolError`.

The gap is 1 minus the largest resolved modulus other than λ = 1, so a
resolved -1 or root of unity on the unit circle (a cyclic map, which does
not mix) makes it 0; `SpectralReport` keeps those values as
``peripheral``, apart from the multiplicity of λ = 1, and reads the
map's period from them.  Its ``gap_kind`` says whether the gap is
measured, the bound, or unresolved (nan).

`ulam_matrix` returns the Ulam matrix as per-branch gather slots (see
`UlamOperator`), assembled branch by branch; its peak is about twice the
slots' bytes.  `UlamOperator.apply_t` applies Pᵀ by one gather, scale and
add per slot into a slice of the output, and the dense eigensolve
scatters the nonzero weights into an n × n array of which only the pages
holding a nonzero are resident (`UlamOperator.dense_t`), so neither
`invariant_density` nor `spectrum` loads scipy.  ``scipy.sparse`` is
imported only by `UlamOperator.matrix`, a CSR view for callers that want
one.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ToolError
from .grid import GridFunction, variation
from .maps import PiecewiseMap, invert_branch_array, ly_constants


@dataclass(frozen=True, eq=False)
class UlamOperator:
    """Ulam matrix P on n bins, P[i, j] = m(B_i ∩ τ⁻¹B_j)/m(B_i), as gather
    slots, and the essential spectral radius bound r_ess = 1/s_min of the
    map's operator.

    ``slots`` holds one ``(start, src, w)`` per branch, in domain order,
    over the target bins j = start, …, start + len(src) - 1 that the
    branch's image meets: ``w[k, j - start]`` is P[src + k, j] for the
    branch's piece of source bin src + k, and 0 where that piece misses
    bin j.  K = ``len(w)`` is 1 + the largest number of source bins past
    the first that one preimage meets.  A pair (i, j) that two branches
    share (a breakpoint strictly inside bin i) is stored in the earlier
    branch's slot, so each nonzero of P is one slot weight."""

    n: int
    slots: tuple  # (start, src int64 (m,), w float64 (K, m)) per branch
    r_ess: float

    def apply_t(self, h: np.ndarray) -> np.ndarray:
        """Pᵀh.  Each entry adds its terms to 0.0 in ascending row order,
        branch by branch and then slot by slot (a zero weight adds ±0), as
        scipy's CSR matvec on ``P.T.tocsr()`` does, so the two agree bit
        for bit."""
        out = np.zeros(self.n)
        for start, src, w in self.slots:
            part = out[start:start + src.size]
            for k, wk in enumerate(w):
                term = h[k:].take(src)
                term *= wk
                part += term
                del term  # freed before the next gather
        return out

    def orbit(self, h: np.ndarray, steps: int):
        """Yield h, Pᵀh, …, (Pᵀ)^steps h, one `apply_t` per step, holding
        only the current vector.  `power_iterate` does not use it, as it
        renormalizes every step and that division is part of the density;
        nor does `_krylov_top`, which builds a basis, or `ly_verify`, which
        applies Pᵀ once."""
        yield h
        for _ in range(steps):
            h = self.apply_t(h)
            yield h

    def _entries(self):
        """(rows, cols, vals) of each branch's nonzero slot weights, one
        triple per branch and slot."""
        for start, src, w in self.slots:
            for k, wk in enumerate(w):
                j = np.flatnonzero(wk)
                yield src[j] + k, j + start, wk[j]

    def dense_t(self) -> np.ndarray:
        """Pᵀ as a dense n × n array: the transposed view of P, its nonzero
        slot weights scattered into a private anonymous mapping, so only
        the 4 KiB pages that hold a nonzero are backed (about one per
        source bin; a written zero would back its page too).  ``np.zeros``
        advises huge pages for a large array, and the scatter then backs
        the whole of it.  The view's C-order bytes are those of Pᵀ, so
        ``eigvals`` copies the same values into its LAPACK buffer.  Where
        ``mmap.MAP_PRIVATE`` does not exist (Windows) it is ``np.zeros``."""
        import mmap  # here: its extension module adds RSS to every run

        n = self.n
        if hasattr(mmap, "MAP_PRIVATE"):
            try:
                buf = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
            except OSError as err:  # ENOMEM; worded as numpy's MemoryError
                raise MemoryError(
                    f"Unable to allocate {8 * n * n / (1 << 30):.3g} GiB for "
                    f"an array with shape ({n}, {n}) and data type float64"
                ) from err
            if hasattr(mmap, "MADV_NOHUGEPAGE"):
                # under THP "always" the mapping would get 2 MiB pages
                with contextlib.suppress(OSError):
                    buf.madvise(mmap.MADV_NOHUGEPAGE)
            p = np.frombuffer(buf).reshape(n, n)
        else:
            p = np.zeros((n, n))
        for rows, cols, vals in self._entries():
            p[rows, cols] = vals
        return p.T

    @cached_property
    def matrix(self):
        """P as a ``scipy.sparse.csr_matrix`` built from the nonzero slot
        weights on first read, which is also when ``scipy.sparse`` is
        imported."""
        import scipy.sparse as sp

        rows, cols, vals = map(np.concatenate, zip(*self._entries()))
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    eigenvalues: np.ndarray  # complex, sorted by decreasing modulus
    converged: np.ndarray    # bool per eigenvalue; all true when dense
    unit_multiplicity: int   # resolved values within 1e-8 of 1
    peripheral: np.ndarray   # the other resolved values on the unit circle
    spectral_gap: float      # 1 - largest resolved modulus but λ = 1, a
                             # bound, or nan when unresolved
    gap_kind: str            # "measured", "bound" or "unresolved"
    r_ess: float
    solver: str              # "dense" or "krylov m=<basis size>[; stalled …]"

    @property
    def outside(self) -> np.ndarray:
        """Per eigenvalue: |λ| > r_ess + 1e-8."""
        return np.abs(self.eigenvalues) > self.r_ess + ESS_MARGIN

    @property
    def resolved(self) -> np.ndarray:
        """Per eigenvalue: converged and |λ| > r_ess + 1e-8."""
        return self.converged & self.outside

    @property
    def unit_circle(self) -> int:
        """Resolved values within 1e-8 of the unit circle, λ = 1 included."""
        return self.unit_multiplicity + len(self.peripheral)

    @property
    def period(self):
        """Least k <= unit_circle with |λᵏ - 1| <= k·1e-8 for every resolved
        value on the unit circle, or None.  The peripheral values of an
        ergodic component are the k-th roots of unity for its period k
        (Hofbauer–Keller); a value within 1e-8 of 1 passes at every k."""
        for k in range(1, self.unit_circle + 1):
            if np.all(np.abs(self.peripheral ** k - 1.0) <= k * _UNIT_TOL):
                return k
        return None


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


def _branch_slots(br, edges: np.ndarray, n: int):
    """(start, src, w) of one branch: its gather slots over the target bins
    its image meets (see `UlamOperator`), or None when it meets none."""
    # clipped edges invert to exact domain ends, so row sums telescope
    xs = invert_branch_array(br, np.clip(edges, br.image.lo, br.image.hi))
    # preimage [xa, xb] of target bin j, then the source bins ia..ib it meets
    xa, xb = (xs[:-1], xs[1:]) if br.monotone_sign > 0 else (xs[1:], xs[:-1])
    met = np.flatnonzero(xb > xa)
    if not met.size:
        return None
    start, stop = int(met[0]), int(met[-1]) + 1
    del met
    xa, xb = xa[start:stop], xb[start:stop]
    ia = np.clip(np.floor(xa * n), 0, n - 1).astype(np.int64)
    ib = np.clip(np.floor(xb * n), 0, n - 1).astype(np.int64)
    width = int((ib - ia).max()) + 1  # K, the slots per target bin
    # slot k gathers source bin src + k, which stays below n
    src = np.minimum(ia, n - width)
    ia -= src  # ia..ib now count slots from src
    ib -= src
    w = np.empty((width, src.size))
    for k, wk in enumerate(w):
        # overlap of [xa, xb] with source bin i = [i/n, (i+1)/n], times n;
        # edges[i] is i/n to the bit, as edges[i + 1] is (i+1)/n
        np.minimum(xb, edges[k + 1:].take(src), out=wk)
        wk -= np.maximum(xa, edges[k:].take(src))
        wk *= n
        wk[(wk <= 0.0) | (ia > k) | (ib < k)] = 0.0
    return start, src, w


def _fold_shared(slots, start, src, w, top) -> None:
    """Move each weight of a new branch that sits on an (i, j) pair of an
    earlier branch into that branch's slot: the earlier weight plus this
    one, the order in which a stable sort of all branches' entries by
    (i, j) adds them.  Only a source bin i <= top, the highest that the
    earlier slots gather, can be shared: a few pairs per breakpoint."""
    for k, wk in enumerate(w):
        for p in np.flatnonzero((src <= top - k) & (wk > 0.0)):
            i, j = src[p] + k, start + p
            for e_start, e_src, e_w in slots:
                q = j - e_start
                if (0 <= q < e_src.size and 0 <= i - e_src[q] < len(e_w)
                        and e_w[i - e_src[q], q] > 0.0):
                    e_w[i - e_src[q], q] += wk[p]
                    wk[p] = 0.0
                    break


def ulam_matrix(pmap: PiecewiseMap, n: int) -> UlamOperator:
    """Row-stochastic Ulam discretization on n uniform bins, assembled
    from exact branch preimages of the bin edges."""
    if n < 2:
        raise ConfigError(f"need at least 2 bins, got {n}")
    edges = np.arange(n + 1) / n
    slots, top = [], -1
    for br in pmap.branches:
        branch = _branch_slots(br, edges, n)
        if branch is None:
            continue
        _fold_shared(slots, *branch, top)
        slots.append(branch)
        start, src, w = branch
        top = max(top, int(src.max()) + len(w) - 1)
    row_sums = np.zeros(n)
    for _, src, w in slots:
        for k, wk in enumerate(w):
            row_sums[k:] += np.bincount(src, weights=wk, minlength=n - k)
    worst = float(np.max(np.abs(row_sums - 1.0)))
    # a row telescopes to the bin width ((i+1)/n - i/n)·n, on which the
    # rounded edges alone put up to ~n·eps (1.2e-12 at n = 10⁴)
    if worst > max(1e-12, 4 * n * np.finfo(float).eps):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ToolError(
            f"row {bad} sums to {float(row_sums[bad])!r} (off by {worst:g}); "
            "branch images may not cover the bin")
    s = pmap.min_slope_global
    return UlamOperator(n=n, slots=tuple(slots),
                        r_ess=1.0 / s if s > 0 else math.inf)


# the one stopping rule of every density solve, applied by power_iterate
DENSITY_TOL = 1e-13
DENSITY_MAX_ITERS = 20000
# a residual that has not halved over this many steps has stalled: at that
# rate DENSITY_MAX_ITERS steps cut it by at most 2^-40, about what taking
# 0.1 below DENSITY_TOL needs
DENSITY_STALL_WINDOW = 500


def power_iterate(apply_t, h0: np.ndarray, start: str) -> np.ndarray:
    """Iterate h -> apply_t(h) = P^T h, renormalized to mean 1, from h0
    until one step moves h by less than DENSITY_TOL in L¹, and return h.
    Raises ToolError after DENSITY_MAX_ITERS steps, or once the residual
    is more than half what it was DENSITY_STALL_WINDOW steps before: a
    stall suggests another eigenvalue of P on the unit circle, as the
    peripheral spectrum of a map that does not mix is a group of roots of
    unity (Hofbauer–Keller).  `start` names h0 in the message."""
    h, residual, residuals = h0, np.inf, []
    while len(residuals) < DENSITY_MAX_ITERS:
        h2 = apply_t(h)
        mean = float(np.mean(h2))
        if mean <= 0:
            break
        h2 = h2 / mean
        residual = float(np.mean(np.abs(h2 - h)))
        if residual < DENSITY_TOL:
            return h2
        residuals.append(residual)
        h = h2
        if (len(residuals) > DENSITY_STALL_WINDOW
                and residual > 0.5 * residuals[-1 - DENSITY_STALL_WINDOW]):
            break
    raise ToolError(
        f"power iteration from {start} stalled at L1 residual {residual:g} "
        f"after {len(residuals)} iterations; P may have another eigenvalue "
        "on the unit circle (inspect the spectrum)")


def invariant_density(op: UlamOperator) -> GridFunction:
    """Invariant density of the Ulam operator by power iteration from the
    uniform density, in the L¹ metric."""
    h = power_iterate(op.apply_t, np.ones(op.n), "the uniform density")
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
ESS_MARGIN = 1e-8
# a growth step that converges no further value outside r_ess and cuts the
# largest unconverged residual by less than this factor ends the solve
_STALL_FACTOR = 10.0


def _krylov_top(op: UlamOperator, k: int):
    """Top-k eigenvalues of Pᵀ from an unrestarted Arnoldi basis on
    `op.apply_t` that grows by max(64, m/4) vectors per step, started from
    n draws of ``random.Random(0).random()``; returns (values, converged,
    m, stall).  A value has converged when its Ritz residual |h_{m+1,m} y_m|
    is at most _RITZ_TOL.  The basis stops growing when every top-k Ritz
    value of modulus above op.r_ess + 1e-8 has converged (stall is None),
    or when a step converged no more of them and cut their largest
    residual by less than _STALL_FACTOR (stall is that residual).  With
    op.r_ess = 0 every top-k value counts.

    A breakdown means the basis spans an invariant subspace.  That
    subspace holds one eigenvector per eigenvalue at most, so a repeated
    top eigenvalue (two ergodic components) would be reported once: a
    vector of the next n draws, made orthogonal to the basis, continues
    it, until the basis spans all of R^n."""
    n, r_ess, draw = op.n, op.r_ess, random.Random(0).random
    cap = min(KRYLOV_MAX_DIM, n)
    hess = np.zeros((cap + 1, cap))  # upper Hessenberg, top-left (m+1) x m
    # draw() never returns the sentinel None: fromiter takes n draws
    v = np.fromiter(iter(draw, None), float, n)
    basis = (v / np.linalg.norm(v))[None, :]  # basis vectors as rows
    m, done, worst = 0, -1, np.inf
    while True:
        if m >= cap:
            raise ToolError(
                f"iterative eigensolve failed: the Krylov basis reached its "
                f"cap of {cap} vectors before the top {k} Ritz values outside "
                f"r_ess = {r_ess:.6g} converged (largest residual {worst:.3g})")
        size = min(m + max(64, m // 4), cap)
        # rows for this step only; the copy holds both arrays for a moment
        grown = np.empty((size + 1, n))
        grown[:m + 1] = basis
        basis = grown
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
                v = np.fromiter(iter(draw, None), float, n)
                for _ in range(2):
                    v -= (basis[:m] @ v) @ basis[:m]
                basis[m] = v / np.linalg.norm(v)
        if m < k:
            continue
        theta, vecs = np.linalg.eig(hess[:m, :m])
        top = np.argsort(-np.abs(theta), kind="stable")[:k]
        residual = np.abs(hess[m, m - 1] * vecs[m - 1, top])
        converged = residual <= _RITZ_TOL
        outside = np.abs(theta[top]) > r_ess + ESS_MARGIN
        last_done, last_worst = done, worst
        done = int(np.sum(converged & outside))
        worst = float(np.max(residual[outside], initial=0.0))
        if worst <= _RITZ_TOL:
            return theta[top], converged, m, None
        if done <= last_done and worst > last_worst / _STALL_FACTOR:
            return theta[top], converged, m, worst


def spectrum(op: UlamOperator, k: int) -> SpectralReport:
    """Top-k eigenvalues by modulus with their converged and resolved
    flags, the multiplicity of λ = 1, the other resolved values on the
    unit circle and the spectral gap; the module docstring says which
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
        converged = np.ones(n, dtype=bool)
        solver = "dense"
    else:
        if k > KRYLOV_MAX_DIM:
            raise ToolError(
                f"cannot compute the top {k} eigenvalues on {n} bins: above "
                f"DENSE_EIG_LIMIT = {DENSE_EIG_LIMIT} bins the iterative "
                f"eigensolve returns at most KRYLOV_MAX_DIM = "
                f"{KRYLOV_MAX_DIM}")
        vals, converged, m, stall = _krylov_top(op, k)
        solver = f"krylov m={m}"
        if stall is not None:
            solver += f"; stalled (largest residual {stall:.3g})"
    # a modulus within _UNIT_TOL of 1 sorts as 1, with λ = 1 first, so a
    # rounded-up root of unity cannot lead
    moduli = np.abs(vals)
    unit = np.where(np.abs(moduli - 1.0) < _UNIT_TOL, 1.0, moduli)
    one = np.abs(vals - 1.0) < _UNIT_TOL
    order = np.lexsort((~one, -unit))
    eigvals, unit, one = vals[order], unit[order], one[order]
    converged = converged[order]
    if unit[0] != 1.0:
        raise ToolError(
            f"leading eigenvalue {eigvals[0]!r} is not on the unit circle")
    outside = moduli[order] > op.r_ess + ESS_MARGIN
    resolved = converged & outside
    # the gap is over every resolved value but λ = 1, so a resolved -1 or
    # root of unity makes it 0; with none, a lower bound: 1 - r_ess, or 0
    # when every computed value is on the unit circle and what lies past
    # the last of them is unknown
    others = unit[resolved & ~one]
    if np.any(outside & ~converged):
        # an unconverged value outside r_ess may lie anywhere up to the
        # circle, and may sort above a resolved one
        gap_kind, gap = "unresolved", math.nan
    elif others.size:
        gap_kind, gap = "measured", float(1.0 - others[0])
    else:
        gap_kind = "bound"
        gap = 0.0 if resolved.all() else max(0.0, 1.0 - op.r_ess)
    return SpectralReport(
        eigenvalues=eigvals[:k],
        converged=converged[:k],
        unit_multiplicity=int(np.sum(resolved & one)),
        peripheral=eigvals[resolved & (unit == 1.0) & ~one],
        spectral_gap=gap,
        gap_kind=gap_kind,
        r_ess=op.r_ess,
        solver=solver)


def iterate_norm_series(pmap: PiecewiseMap, f: GridFunction, p: float,
                        A: float, n_max: int) -> IterateSeries:
    """BV norms of Lⁿ f for n = 0..n_max, L = Pᵀ the Ulam operator on f's
    grid, compared against the a-priori bound C * ||f||_1 that holds for
    all large n."""
    consts = ly_constants(pmap, p=p, t=1.0, A=A)
    op = ulam_matrix(pmap, f.n)
    norms = np.array([variation(GridFunction(g), 1.0, p, A).bv_norm
                      for g in op.orbit(f.values, n_max)])
    l1 = f.norm_lq(1.0)
    # alpha >= 1 at this A gives C = None: the norms without a bound
    return IterateSeries(norms=norms, l1_initial=l1, C=consts.C)

"""Transfer-operator tests: pointwise action, Ulam matrices, invariant
densities, spectra, and iterate-norm series.

Linear full-branch maps with dyadic/triadic breakpoints are grid-exact,
so several oracles here hold to rounding error rather than O(1/n).
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import pwexpand
from pwexpand import transfer
from pwexpand.errors import ConfigError
from pwexpand.grid import GridFunction, project
from pwexpand.mapconfig import load_map
from pwexpand.maps import invert_branch_array

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- apply_fp

def test_apply_fp_preserves_constant_one_exactly(tripling):
    f = GridFunction(n=729, values=np.ones(729))
    out = transfer.apply_fp(tripling, f)
    # 1/3 + 1/3 + 1/3 rounds to exactly 1.0, cell by cell
    assert np.all(out.values == 1.0)


def test_apply_fp_linear_pullback(tripling):
    # P x = ((x/3) + (x+1)/3 + (x+2)/3) / 3 = (x + 1) / 3
    n = 243
    out = transfer.apply_fp(tripling, project(pwexpand.parse("x"), n))
    expect = project(pwexpand.parse("(x + 1)/3"), n)
    assert np.max(np.abs(out.values - expect.values)) <= 2.0 / n


def test_apply_fp_preserves_integral(tripling, tent, nonlinear):
    f_expr = pwexpand.parse("exp(x)*sin(3*x) + 2")
    for pmap, tol_scale in [(tripling, 1e-9), (tent, 1e-9), (nonlinear, 0.05)]:
        for n in (256, 1024):
            f = project(f_expr, n)
            g = transfer.apply_fp(pmap, f)
            assert abs(g.integral() - f.integral()) <= tol_scale / n


def test_apply_fp_positivity(markov, nonlinear):
    rng = np.random.default_rng(5)
    f = GridFunction(n=512, values=rng.random(512))
    for pmap in (markov, nonlinear):
        out = transfer.apply_fp(pmap, f)
        assert np.all(out.values >= 0.0)


def test_apply_fp_composes_like_the_composed_map(doubling):
    # doubling twice is the quadrupling map; both are grid-exact on a
    # dyadic grid, so the two routes agree to rounding error
    quadrupling = pwexpand.make_map(
        [{"lo": k / 4, "hi": (k + 1) / 4, "formula": f"4*x - {k}",
          "min_slope": 4.0, "holder_constant": 0.0} for k in range(4)],
        epsilon=1.0)
    n = 1024
    f = project(pwexpand.parse("sin(2*pi*x) + x"), n)
    twice = transfer.apply_fp(doubling, transfer.apply_fp(doubling, f))
    once = transfer.apply_fp(quadrupling, f)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-10


# ------------------------------------------------------------- ulam_matrix

def test_ulam_doubling_two_bins(doubling):
    mat = transfer.ulam_matrix(doubling, 2).matrix.toarray()
    assert np.max(np.abs(mat - 0.5)) <= 1e-15


def test_ulam_tripling_three_bins(tripling):
    mat = transfer.ulam_matrix(tripling, 3).matrix.toarray()
    assert np.max(np.abs(mat - 1.0 / 3.0)) <= 1e-15


def test_ulam_markov_three_bins(markov):
    # bin [0,1/3): branch 0 maps it linearly onto [0,1/2) -> (2/3, 1/3, 0)
    # bin [1/3,2/3): onto [1/2,1) -> (0, 1/3, 2/3)
    # bin [2/3,1): branch 1 onto [0,2/3) -> (1/2, 1/2, 0)
    mat = transfer.ulam_matrix(markov, 3).matrix.toarray()
    expect = np.array([[2 / 3, 1 / 3, 0.0],
                       [0.0, 1 / 3, 2 / 3],
                       [1 / 2, 1 / 2, 0.0]])
    assert np.max(np.abs(mat - expect)) <= 1e-12


def test_ulam_row_is_pushforward_frequency(markov):
    # row 0 is the distribution of tau(x) for x uniform in bin 0; the bin
    # sits inside branch 0, so tau(x) = 1.5 x can be sampled directly
    mat = transfer.ulam_matrix(markov, 3).matrix.toarray()
    rng = np.random.default_rng(42)
    xs = rng.random(10 ** 6) / 3.0
    ys = 1.5 * xs
    freq = np.bincount(np.minimum((ys * 3).astype(int), 2), minlength=3) / 1e6
    # 3 sigma for a Bernoulli frequency at 10^6 samples
    sigma = np.sqrt(np.maximum(mat[0] * (1 - mat[0]), 0.25 / 9) / 1e6)
    assert np.all(np.abs(freq - mat[0]) <= 3.0 * sigma)


def test_ulam_rows_stochastic(tripling, doubling, tent, markov, nonlinear,
                              threshold_map):
    for pmap in (tripling, doubling, tent, markov, nonlinear, threshold_map):
        for n in (37, 64, 300):
            mat = transfer.ulam_matrix(pmap, n).matrix
            sums = np.asarray(mat.sum(axis=1)).ravel()
            assert np.max(np.abs(sums - 1.0)) <= 1e-12
            dense = mat.toarray()
            assert dense.min() >= -1e-15
            assert dense.max() <= 1.0 + 1e-15


def test_ulam_row_support_is_a_few_intervals(markov, nonlinear):
    # a bin maps onto at most branch_count intervals, so each row's
    # nonzero columns form at most branch_count (+2 for edge cells) runs
    for pmap in (markov, nonlinear):
        dense = transfer.ulam_matrix(pmap, 64).matrix.toarray()
        for row in dense:
            nz = row > 0
            runs = int(np.sum(nz[1:] & ~nz[:-1])) + int(nz[0])
            assert runs <= pmap.branch_count + 2


def test_ulam_rejects_tiny_grid(tripling):
    with pytest.raises(ConfigError):
        transfer.ulam_matrix(tripling, 1)


def _reference_ulam_csr(pmap, n):
    """Ulam matrix assembled bin by bin: for each target bin j, the
    preimage [xa, xb] of j under each branch, then the overlap of that
    preimage with every source bin i it meets."""
    rows, cols, vals = [], [], []
    for br in pmap.branches:
        increasing = br.monotone_sign > 0
        lo_x = br.domain.lo if increasing else br.domain.hi
        hi_x = br.domain.hi if increasing else br.domain.lo
        ys = np.clip(np.arange(n + 1) / n, br.image.lo, br.image.hi)
        xs = invert_branch_array(br, ys)
        xs = np.where(ys == br.image.lo, lo_x, xs)
        xs = np.where(ys == br.image.hi, hi_x, xs)
        for j in range(n):
            xa, xb = (xs[j], xs[j + 1]) if increasing else (xs[j + 1], xs[j])
            if xb <= xa:
                continue
            ia = min(max(int(np.floor(xa * n)), 0), n - 1)
            ib = min(max(int(np.floor(xb * n)), 0), n - 1)
            for i in range(ia, ib + 1):
                w = (min(xb, (i + 1) / n) - max(xa, i / n)) * n
                if w > 0.0:
                    rows.append(i)
                    cols.append(j)
                    vals.append(w)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


# tent has a decreasing branch; at n = 301 and 1000 a markov bin straddles
# the branch boundary 2/3, so one row gets entries from both branches
ULAM_MAPS = [str(ROOT / "configs" / f"{name}.json")
             for name in ("doubling", "markov", "tent", "tripling")]
ULAM_MAPS.append(str(ROOT / "pipebench" / "maps" / "nonlinear.json"))


@pytest.mark.parametrize("n", [2, 3, 7, 64, 301, 1000, 4500])
@pytest.mark.parametrize("path", ULAM_MAPS, ids=lambda p: Path(p).stem)
def test_ulam_matrix_bytes_match_bin_by_bin_assembly(path, n):
    pmap = load_map(path)
    got = transfer.ulam_matrix(pmap, n).matrix
    want = _reference_ulam_csr(pmap, n)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# ------------------------------------------------------- invariant_density

def test_invariant_density_tripling_uniform(tripling):
    h = transfer.invariant_density(transfer.ulam_matrix(tripling, 243))
    assert np.max(np.abs(h.values - 1.0)) <= 1e-10


def test_invariant_density_doubling_uniform(doubling):
    h = transfer.invariant_density(transfer.ulam_matrix(doubling, 64))
    assert np.max(np.abs(h.values - 1.0)) <= 1e-10


def test_invariant_density_markov_exact(markov):
    # the invariant density is piecewise constant: 9/8 on [0,2/3),
    # 3/4 on [2/3,1); n = 300 puts a cell edge exactly at 2/3
    h = transfer.invariant_density(transfer.ulam_matrix(markov, 300))
    assert np.max(np.abs(h.values[:200] - 9 / 8)) <= 1e-10
    assert np.max(np.abs(h.values[200:] - 3 / 4)) <= 1e-10
    assert abs(h.integral() - 1.0) <= 1e-12


def test_invariant_density_absorbing_support(absorbing):
    # mass drains into [0,1/2]; density is 2 on the left half, 0 on the right
    h = transfer.invariant_density(transfer.ulam_matrix(absorbing, 128))
    assert np.max(np.abs(h.values[:64] - 2.0)) <= 1e-8
    assert np.max(h.values[64:]) <= 1e-8


def test_invariant_density_convergence_error_carries_residual(markov):
    op = transfer.ulam_matrix(markov, 300)
    with pytest.raises(transfer.ConvergenceError) as exc:
        transfer.invariant_density(op, tol=1e-13, max_iters=2)
    assert exc.value.residual > 0.0


# ---------------------------------------------------------------- spectrum

def test_spectrum_markov_three_bins(markov):
    # the 3x3 matrix has eigenvalues 1, 1/3, -1/3 (exact arithmetic)
    rep = transfer.spectrum(transfer.ulam_matrix(markov, 3), 3)
    assert abs(rep.eigenvalues[0] - 1.0) <= 1e-12
    rest = sorted(rep.eigenvalues[1:], key=lambda z: z.real)
    assert abs(rest[0] + 1 / 3) <= 1e-12
    assert abs(rest[1] - 1 / 3) <= 1e-12
    assert rep.unit_multiplicity == 1
    assert abs(rep.spectral_gap - 2 / 3) <= 1e-12
    h = transfer.invariant_density(transfer.ulam_matrix(markov, 3))
    assert np.max(np.abs(h.values - [9 / 8, 9 / 8, 3 / 4])) <= 1e-10


def test_markov_galerkin_matrix_has_eigenvalues_one_and_minus_a_third(markov):
    # P maps the indicator of a branch domain to 1/slope times the indicator
    # of its image; both images are unions of the domains A = [0, 2/3) and
    # B = [2/3, 1), so P preserves span{1_A, 1_B} and acts there by G
    doms = [br.domain for br in markov.branches]
    g = np.zeros((2, 2))
    for b, br in enumerate(markov.branches):
        for a, dom in enumerate(doms):
            if br.image.lo <= dom.lo and dom.hi <= br.image.hi:
                g[a, b] = 1.0 / br.min_slope
    assert np.array_equal(g, [[2 / 3, 1 / 2], [2 / 3, 0.0]])
    vals = np.sort(np.linalg.eigvals(g).real)
    assert np.max(np.abs(vals - [-1 / 3, 1.0])) <= 1e-14


@pytest.mark.parametrize("n", [300, 4500])
def test_ulam_matrix_acts_exactly_on_the_markov_partition(markov, n):
    # n is a multiple of 3, so 2/3 is a cell edge and the Ulam matrix
    # restricted to span{1_A, 1_B} is the Galerkin matrix G above
    op = transfer.ulam_matrix(markov, n)
    ind_a = (np.arange(n) < 2 * n // 3).astype(float)
    ind_b = 1.0 - ind_a
    assert np.max(np.abs(op.matrix.T @ ind_a - (2 / 3) * (ind_a + ind_b))) <= 1e-11
    assert np.max(np.abs(op.matrix.T @ ind_b - 0.5 * ind_a)) <= 1e-11


def test_spectrum_tripling_has_a_large_gap(tripling):
    # the exact-arithmetic matrix at n = 3^4 is "averaging + nilpotent":
    # everything below the unit eigenvalue is numerically ~0
    rep = transfer.spectrum(transfer.ulam_matrix(tripling, 81), 4)
    assert (rep.solver, rep.converged) == ("dense", 0)
    assert rep.unit_multiplicity == 1
    assert abs(rep.eigenvalues[1]) <= 0.05
    assert rep.spectral_gap >= 0.95


def test_spectrum_matches_dense_eigvals(doubling):
    op = transfer.ulam_matrix(doubling, 64)
    rep = transfer.spectrum(op, 6)
    oracle = np.linalg.eigvals(op.matrix.toarray().T)
    oracle = oracle[np.argsort(-np.abs(oracle), kind="stable")][:6]
    assert np.max(np.abs(np.abs(rep.eigenvalues) - np.abs(oracle))) <= 1e-10


def test_spectrum_block_map_double_unit_eigenvalue(block_map):
    # two ergodic components -> unit eigenvalue of multiplicity 2
    rep = transfer.spectrum(transfer.ulam_matrix(block_map, 64), 6)
    assert rep.unit_multiplicity == 2
    assert rep.spectral_gap >= 0.9


def test_spectrum_iterative_path_above_dense_limit(markov):
    from scipy.sparse.linalg import splu

    n = transfer.DENSE_EIG_LIMIT + 404
    op = transfer.ulam_matrix(markov, n)
    rep = transfer.spectrum(op, 5)
    assert rep.solver != "dense"
    assert abs(rep.eigenvalues[0] - 1.0) <= 1e-8
    assert rep.unit_multiplicity == 1
    assert rep.spectral_gap == 1.0 - abs(rep.eigenvalues[1])
    # each λ is an eigenvalue of Pᵀ: one solve (Pᵀ - λI) x = b by sparse LU
    # blows x up along the eigenvector, so |(Pᵀ - λI) x| / |x| is tiny
    mat_t = sp.csc_matrix(op.matrix.T, dtype=complex)
    b = np.random.default_rng(5).random(n)
    for lam in rep.eigenvalues:
        shifted = mat_t - lam * sp.identity(n, dtype=complex, format="csc")
        x = splu(shifted).solve(b.astype(complex))
        resid = np.linalg.norm(shifted @ x) / np.linalg.norm(x)
        assert resid <= 1e-10, (lam, resid)


def test_spectrum_iterative_path_is_deterministic():
    pmap = load_map(ROOT / "pipebench" / "maps" / "nonlinear.json")
    op = transfer.ulam_matrix(pmap, transfer.DENSE_EIG_LIMIT + 404)
    first = transfer.spectrum(op, 8)
    second = transfer.spectrum(op, 8)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert (first.solver, first.converged) == (second.solver, second.converged)


def test_spectrum_tied_moduli_match_the_dense_oracle(monkeypatch):
    # the tent Ulam matrix has about n/8 eigenvalues exactly on |λ| = 1/2,
    # more than ARPACK's default ncv can separate, so the top 8 come from
    # the growing Krylov basis; the oracle is LAPACK on the dense matrix
    tent = load_map(ROOT / "configs" / "tent.json")
    op = transfer.ulam_matrix(tent, 900)
    oracle = np.sort(np.abs(np.linalg.eigvals(op.matrix.toarray())))[::-1][:8]
    assert abs(oracle[0] - 1.0) <= 1e-8
    assert np.all(np.abs(oracle[1:] - 0.5) <= 1e-8)
    monkeypatch.setattr(transfer, "DENSE_EIG_LIMIT", 100)
    rep = transfer.spectrum(op, 8)
    assert rep.solver.startswith("krylov m=")
    assert rep.converged < 8
    assert len(rep.eigenvalues) == 8
    assert np.max(np.abs(np.abs(rep.eigenvalues) - oracle)) <= 1e-8
    assert rep.unit_multiplicity == 1


def test_krylov_basis_matches_the_dense_spectrum(markov):
    # the growing Arnoldi basis alone against LAPACK on the dense matrix;
    # markov at 900 bins leads with 1, 0.618 and a cluster at 0.594
    op = transfer.ulam_matrix(markov, 900)
    dense = np.linalg.eigvals(op.matrix.toarray())
    dense = dense[np.argsort(-np.abs(dense), kind="stable")]
    vals, m = transfer._krylov_top(op.matrix.transpose().tocsr(), 5,
                                   np.random.default_rng(0))
    assert len(vals) == 5 and m < transfer.KRYLOV_MAX_DIM
    moduli = np.sort(np.abs(vals))[::-1]
    assert np.max(np.abs(moduli - np.abs(dense[:5]))) <= 1e-10
    assert max(np.min(np.abs(dense - lam)) for lam in vals) <= 1e-10


def test_krylov_basis_finds_a_repeated_unit_eigenvalue(block_map):
    # two ergodic components: the Krylov space of one start vector holds
    # one unit eigenvector, so the basis must go on past its breakdowns
    op = transfer.ulam_matrix(block_map, 64)
    vals, _ = transfer._krylov_top(op.matrix.transpose().tocsr(), 6,
                                   np.random.default_rng(0))
    assert np.sum(np.abs(np.abs(vals) - 1.0) <= 1e-8) == 2


def test_krylov_basis_without_memory_is_a_spectral_error(markov, monkeypatch):
    # the basis is reserved in one allocation; when that fails (8 GiB at
    # n = 2^20 on an 8 GB machine) the caller gets a SpectralError
    mat_t = transfer.ulam_matrix(markov, 30).matrix.transpose().tocsr()

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", no_memory)
    with pytest.raises(transfer.SpectralError, match="Krylov basis of 31 "):
        transfer._krylov_top(mat_t, 4, np.random.default_rng(0))


def test_spectrum_rejects_k_below_two(tripling):
    with pytest.raises(ConfigError):
        transfer.spectrum(transfer.ulam_matrix(tripling, 9), 1)


# ------------------------------------------------------ iterate_norm_series

def test_iterates_of_constant_stay_at_the_bound_floor(tripling):
    f = GridFunction(n=243, values=np.ones(243))
    series = transfer.iterate_norm_series(tripling, f, p=1.0, A=0.125,
                                          n_max=10)
    assert np.all(series.norms == 1.0)
    assert series.l1_initial == 1.0
    assert abs(series.C - 10.0) <= 1e-12
    assert np.all(series.flags)
    assert series.n0 == 0


def test_iterates_of_indicator_collapse_to_its_mean(tripling):
    # P maps the indicator of [0,1/3) to the constant 1/3 in one step
    n = 243
    f = GridFunction(n=n, values=np.where(np.arange(n) < 81, 1.0, 0.0))
    series = transfer.iterate_norm_series(tripling, f, p=1.0, A=0.125,
                                          n_max=12)
    assert series.norms[0] > 2.0  # ~ 1/3 + var ~ 2.33
    assert np.max(np.abs(series.norms[1:] - 1 / 3)) <= 1e-9
    assert series.bound == pytest.approx(10.0 / 3.0, abs=1e-9)
    assert np.all(series.flags)
    assert series.n0 == 0


def test_iterates_without_contraction_still_report_norms(markov):
    # slope 3/2 fails the admissibility condition at every p, so there is
    # no bound -- but the norms themselves stay modest and decay
    f = project(pwexpand.parse("sin(2*pi*x) + 0.3*cos(4*pi*x)"), 1024)
    series = transfer.iterate_norm_series(markov, f, p=1.0, A=0.125,
                                          n_max=50)
    assert series.C is None
    assert series.bound is None
    assert series.flags is None
    assert series.n0 is None
    assert series.norms.max() < 50.0
    assert series.norms[-1] < 0.01

"""Transfer-operator tests: one step of P on a grid function, Ulam
matrices, invariant densities, spectra, and iterate-norm series.

Linear full-branch maps with dyadic/triadic breakpoints are grid-exact,
so several oracles here hold to rounding error rather than O(1/n).
"""

import dataclasses
import mmap
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import pwexpand
from pwexpand import analysis, expr, transfer
from pwexpand.errors import ConfigError, ToolError
from pwexpand.grid import GridFunction, project
from pwexpand.mapconfig import load_map
from pwexpand.maps import INVERSE_TOL

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- apply_fp

def test_apply_fp_preserves_constant_one_exactly(doubling, tripling):
    # both Ulam matrices are doubly stochastic.  On 1024 bins every
    # doubling edge, preimage and weight 1/2 is a dyadic rational, so
    # Pᵀ1 = 1 exactly; the triadic edges of tripling round, so there
    # Pᵀ1 = 1 up to the bin-width rounding ulam_matrix allows on row sums
    out = transfer.apply_fp(doubling, GridFunction(np.ones(1024)))
    assert np.all(out.values == 1.0)
    n = 729
    out = transfer.apply_fp(tripling, GridFunction(np.ones(n)))
    assert np.max(np.abs(out.values - 1.0)) <= 4 * n * np.finfo(float).eps


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
            assert abs(np.mean(g.values) - np.mean(f.values)) <= tol_scale / n


def test_apply_fp_positivity(markov, nonlinear):
    rng = np.random.default_rng(5)
    f = GridFunction(rng.random(512))
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


def _bisect(tau, a, b, ys):
    """x in [a, b] with tau(x) = ys, by bisection; tau is monotone on
    [a, b] and takes every y between tau(a) and tau(b)."""
    up = tau(b) > tau(a)
    lo, hi = np.full(ys.shape, a), np.full(ys.shape, b)
    for _ in range(64):
        mid = (lo + hi) / 2.0
        left = (tau(mid) < ys) == up  # the root lies to the right of mid
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return (lo + hi) / 2.0


# (domain, closed-form branch) per branch of each map
_CLOSED_FORM = {
    "nonlinear": [
        ((0.0, 0.5), lambda x: 2 * x + 0.1 * np.sin(2 * np.pi * x)),
        ((0.5, 1.0), lambda x: 2 * x - 1 + 0.1 * np.sin(2 * np.pi * x)),
    ],
    "tent": [
        ((0.0, 0.5), lambda x: 2 * x),
        ((0.5, 1.0), lambda x: 2 - 2 * x),
    ],
    "tiny": [
        ((0.0, 0.001), lambda x: 2 * x + 0.3),
        ((0.001, 0.5), lambda x: 2 * (x - 0.001)),
        ((0.5, 1.0), lambda x: 2 * x - 1),
    ],
    "markov": [
        ((0.0, 2 / 3), lambda x: 3 * x / 2),
        ((2 / 3, 1.0), lambda x: 2 * x - 4 / 3),
    ],
    "half_holder": [
        ((k / 4, (k + 1) / 4),
         lambda x, k=k: 0.8 * (4 * x - k) + 0.2 * (4 * x - k) ** 1.5)
        for k in range(4)
    ],
    "absorbing": [
        ((0.0, 0.25), lambda x: 2 * x),
        ((0.25, 0.5), lambda x: 2 * x - 0.5),
        ((0.5, 1.0), lambda x: 2 * x - 1),
    ],
    "leaky_swap": [
        ((0.0, 1 / 20), lambda x: 10 * x),
        ((1 / 20, 11 / 40), lambda x: 1 / 2 + 20 * (x - 1 / 20) / 9),
        ((11 / 40, 1 / 2), lambda x: 1 / 2 + 20 * (x - 11 / 40) / 9),
        ((1 / 2, 29 / 40), lambda x: 20 * (x - 1 / 2) / 9),
        ((29 / 40, 19 / 20), lambda x: 20 * (x - 29 / 40) / 9),
        ((19 / 20, 1.0), lambda x: 10 * x - 9),
    ],
}
_CURVED = {"nonlinear", "half_holder"}


def _with_a_tiny_branch():
    # the first branch's image [0.3, 0.302] holds no midpoint at n = 7 or 16
    return pwexpand.make_map(
        [{"lo": 0.0, "hi": 0.001, "formula": "2*x + 0.3"},
         {"lo": 0.001, "hi": 0.5, "formula": "2*(x - 0.001)"},
         {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1"}],
        epsilon=1.0)


def _named_map(name, request):
    if name == "tiny":
        return _with_a_tiny_branch()
    if name == "leaky_swap":
        return _leaky_swap()
    if name == "absorbing":
        return request.getfixturevalue("absorbing")
    return load_map(ROOT / {"nonlinear": "pipebench/maps/nonlinear.json",
                            "tent": "configs/tent.json",
                            "markov": "configs/markov.json",
                            "half_holder": "tests/half_holder.json"}[name])


def _nonzeros_in_apply_order(op):
    """(rows, cols) of every nonzero slot weight, sorted by column and then
    in the order in which `apply_t` adds it into that column."""
    rows, cols = [], []
    for start, src, w in op.slots:
        for k, wk in enumerate(w):
            j = np.flatnonzero(wk)
            rows.append(src[j] + k)
            cols.append(j + start)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(cols, kind="stable")
    return rows[order], cols[order]


@pytest.mark.parametrize("name, n", [
    ("nonlinear", 1023), ("nonlinear", 1024), ("tent", 1023), ("tent", 1024),
    ("tiny", 7), ("tiny", 16), ("tent", 301), ("markov", 3073),
    ("half_holder", 997), ("absorbing", 1023), ("leaky_swap", 1001)])
def test_apply_fp_matches_an_independent_ulam_operator(name, n, request):
    # tent's falling branch, and a source bin that two branches share
    # (tent's at 1/2 for odd n, markov's at 2/3, the other maps' inner
    # breakpoints); tent's shared bin also repeats (i, j) pairs, which must
    # come out summed into the earlier branch's slot
    pmap = _named_map(name, request)
    if name == "tiny":
        mids = (np.arange(n) + 0.5) / n
        assert not np.any((mids >= 0.3) & (mids <= 0.302))
    op = transfer.ulam_matrix(pmap, n)
    for start, src, w in op.slots:
        assert 0 <= start and start + src.size <= n
        assert src.min() >= 0 and src.max() + len(w) <= n
    rows, cols = _nonzeros_in_apply_order(op)
    same = cols[1:] == cols[:-1]
    assert np.all(rows[1:][same] > rows[:-1][same])
    # (Pᵀf)_j = n·Σ_i f_i·|τ⁻¹(B_j) ∩ B_i|, bin by bin, with bisection
    # preimages of the bin edges under each closed-form branch
    f = np.random.default_rng(11).normal(size=n)
    expect = np.zeros(n)
    for (a, b), tau in _CLOSED_FORM[name]:
        lo, hi = sorted((tau(a), tau(b)))
        xs = _bisect(tau, a, b, np.clip(np.arange(n + 1) / n, lo, hi))
        for j in range(n):
            xa, xb = sorted((xs[j], xs[j + 1]))
            # a superset of the source bins that [xa, xb] meets
            for i in range(max(int(xa * n) - 1, 0), min(int(xb * n) + 2, n)):
                overlap = min(xb, (i + 1) / n) - max(xa, i / n)
                if overlap > 0.0:
                    expect[j] += n * f[i] * overlap
    # branch inversion stops at |τ(x) - y| <= INVERSE_TOL, which leaves an
    # edge preimage up to INVERSE_TOL/s off on a curved branch and moves
    # each of a target bin's 2 edges per branch by that much; Newton is
    # exact to rounding on the linear maps, whose weights (n times the
    # preimage overlaps) carry that rounding scaled by n: up to 1e-12 per
    # 1024 bins
    tol = (2 * len(pmap.branches) * n * np.max(np.abs(f)) * INVERSE_TOL
           / pmap.min_slope_global if name in _CURVED
           else 1e-12 * max(1.0, n / 1024))
    out = transfer.apply_fp(pmap, GridFunction(f))
    assert np.max(np.abs(out.values - expect)) <= tol


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


def test_ulam_assembly_holds_about_twice_its_slots():
    # per branch only that branch's slots, the earlier branches' and one
    # chunk of branch inversion are alive
    pmap = load_map(ROOT / "pipebench/maps/nonlinear.json")
    transfer.ulam_matrix(pmap, 64)
    tracemalloc.start()
    try:
        op = transfer.ulam_matrix(pmap, 1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(src.nbytes + w.nbytes for _, src, w in op.slots)


def test_apply_t_holds_the_output_and_one_gathered_slot():
    # both branches' images cover [0, 1], so each gathers n doubles per
    # slot; a gather of all 3n entries at once would take 3n alone
    n = 1 << 16
    op = transfer.ulam_matrix(load_map(ROOT / "pipebench/maps/nonlinear.json"),
                              n)
    h = np.random.default_rng(0).random(n)
    tracemalloc.start()
    try:
        op.apply_t(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_ulam_row_sum_check_allows_bin_width_rounding(tripling, n):
    # the rounded edges i/n put up to ~n·eps on a bin width ((i+1)/n - i/n)·n
    # (1.2e-12 at n = 10⁴); the tripling density is 1
    h = transfer.invariant_density(transfer.ulam_matrix(tripling, n))
    assert np.max(np.abs(h.values - 1.0)) <= 1e-9


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_ulam_row_sum_check_rejects_a_corrupted_row(n):
    # an image that overshoots 1 by 5e-9 loses that mass from the bin below
    # 1/2: off by 2.5e-9·n, far above the rounding allowance
    pmap = pwexpand.make_map(
        [{"lo": 0.0, "hi": 0.5, "formula": "2.00000001*x"},
         {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1"}], epsilon=1.0)
    with pytest.raises(ToolError,
                       match=rf"^row {n // 2 - 1} sums to 0\.999"):
        transfer.ulam_matrix(pmap, n)


def test_ulam_row_support_is_a_few_intervals(markov, nonlinear):
    # a bin maps onto at most one interval per branch, so each row's
    # nonzero columns form at most that many runs (+2 for edge cells)
    for pmap in (markov, nonlinear):
        dense = transfer.ulam_matrix(pmap, 64).matrix.toarray()
        for row in dense:
            nz = row > 0
            runs = int(np.sum(nz[1:] & ~nz[:-1])) + int(nz[0])
            assert runs <= len(pmap.branches) + 2


def test_ulam_rejects_tiny_grid(tripling):
    with pytest.raises(ConfigError):
        transfer.ulam_matrix(tripling, 1)


def _newton_every_edge(br, ys, lo_x, hi_x):
    """Safeguarded Newton on every y until all residuals are within
    INVERSE_TOL, iterating the image ends too, which `invert_branch_array`
    answers without iterating."""
    a, b = np.full(ys.shape, lo_x), np.full(ys.shape, hi_x)
    x = 0.5 * (a + b)
    for _ in range(200):
        val, der = expr.eval_with_derivative(br.expression, x)
        res = val - ys
        done = np.abs(res) <= INVERSE_TOL
        if done.all():
            return x
        a, b = np.where(res < 0.0, x, a), np.where(res < 0.0, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - res / der
        bad = (~np.isfinite(xn) | (xn < np.minimum(a, b))
               | (xn > np.maximum(a, b)))
        x = np.where(done, x, np.where(bad, 0.5 * (a + b), xn))
    raise AssertionError(f"no preimages on branch {br.formula!r}")


def _reference_ulam_csr(pmap, n):
    """Ulam matrix assembled bin by bin: the bin edges clipped to each
    branch image, inverted by Newton on every edge and the image ends
    pinned to the domain ends; then for each target bin j, the preimage
    [xa, xb] of j under each branch, and the overlap of that preimage with
    every source bin i it meets."""
    rows, cols, vals = [], [], []
    for br in pmap.branches:
        increasing = br.monotone_sign > 0
        lo_x = br.domain.lo if increasing else br.domain.hi
        hi_x = br.domain.hi if increasing else br.domain.lo
        ys = np.clip(np.arange(n + 1) / n, br.image.lo, br.image.hi)
        xs = _newton_every_edge(br, ys, lo_x, hi_x)
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


@pytest.mark.parametrize("n", [2, 3, 7, 64, 301, 1000, 4500])
@pytest.mark.parametrize("path", ULAM_MAPS, ids=lambda p: Path(p).stem)
def test_ulam_transpose_actions_match_the_reference_csr(path, n):
    # apply_t (power iteration) and dense_t (dense spectrum) against the
    # CSR matvec and toarray of the bin-by-bin reference, bit for bit
    pmap = load_map(path)
    op = transfer.ulam_matrix(pmap, n)
    want = _reference_ulam_csr(pmap, n)
    h = np.random.default_rng(n).random(n)
    assert op.apply_t(h).tobytes() == (want.transpose().tocsr() @ h).tobytes()
    if n <= transfer.DENSE_EIG_LIMIT:
        assert op.dense_t().tobytes() == want.toarray().T.tobytes()


def test_orbit_steps_apply_t_from_h(markov):
    op = transfer.ulam_matrix(markov, 300)
    h = np.cos(np.arange(300.0))
    orbit = list(op.orbit(h, 3))
    assert len(orbit) == 4 and orbit[0] is h
    for prev, cur in zip(orbit, orbit[1:]):
        assert cur.tobytes() == op.apply_t(prev).tobytes()
    assert list(op.orbit(h, 0)) == [h]


@pytest.mark.parametrize("path, n", [
    (str(ROOT / "configs" / "markov.json"), 300),
    (str(ROOT / "pipebench" / "maps" / "nonlinear.json"), 500)],
    ids=["markov", "nonlinear"])
def test_dense_eigenvalues_match_the_csr_oracle_bit_for_bit(path, n):
    # dense_t is a transposed view; eigvals copies it into the same LAPACK
    # buffer as a C-ordered Pᵀ, so the eigenvalues are the same doubles
    op = transfer.ulam_matrix(load_map(path), n)
    got = np.linalg.eigvals(op.dense_t())
    assert got.tobytes() == np.linalg.eigvals(op.matrix.toarray().T).tobytes()


def test_dense_t_without_mmap_private_gives_the_same_spectrum(markov, monkeypatch):
    # where mmap has no MAP_PRIVATE (Windows), dense_t scatters into
    # np.zeros; the matrix and its eigenvalues keep every bit
    op = transfer.ulam_matrix(markov, 300)
    mapped, mapped_eigs = op.dense_t(), transfer.spectrum(op, 300).eigenvalues
    monkeypatch.delattr(mmap, "MAP_PRIVATE")
    assert op.dense_t().tobytes() == mapped.tobytes()
    assert transfer.spectrum(op, 300).eigenvalues.tobytes() == mapped_eigs.tobytes()


_DENSE_RSS = """
import sys
from pwexpand import transfer
from pwexpand.mapconfig import load_map

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith("VmRSS:"))

op = transfer.ulam_matrix(load_map(sys.argv[1]), int(sys.argv[2]))
before = rss()
dense = op.dense_t()
print(rss() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS from /proc/self/status")
def test_dense_matrix_is_resident_only_where_it_has_entries():
    # markov at 2100 bins has ~2.3 entries per row; the pages holding them
    # take ~8 MB of the 35 MB array, where np.zeros (huge pages) took 33 MB
    n = 2100
    src = Path(pwexpand.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", _DENSE_RSS, str(ROOT / "configs" / "markov.json"),
         str(n)], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    grown = int(out.stdout)
    assert grown < 8 * n * n / 2, grown


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
    assert abs(np.mean(h.values) - 1.0) <= 1e-12


def test_invariant_density_absorbing_support(absorbing):
    # mass drains into [0,1/2]; density is 2 on the left half, 0 on the right
    h = transfer.invariant_density(transfer.ulam_matrix(absorbing, 128))
    assert np.max(np.abs(h.values[:64] - 2.0)) <= 1e-8
    assert np.max(h.values[64:]) <= 1e-8


def test_invariant_density_convergence_error_carries_residual():
    # [0, 1/3] and [1/3, 1] swap blocks, so the Ulam matrix has the
    # eigenvalue -1 and power iteration from the uniform start never
    # converges (the map of test_correlate_on_a_stalled_density_exits_one):
    # its residual does not fall at all, so the stall rule ends it after
    # one window
    swap = pwexpand.make_map([
        {"lo": 0.0, "hi": 1 / 3, "formula": "2*x + 1/3"},
        {"lo": 1 / 3, "hi": 5 / 9, "formula": "1.5*x - 0.5"},
        {"lo": 5 / 9, "hi": 7 / 9, "formula": "1.5*x - 5/6"},
        {"lo": 7 / 9, "hi": 1.0, "formula": "1.5*x - 7/6"}], epsilon=1.0)
    with pytest.raises(ToolError, match="^power iteration from the uniform "
                       "density stalled") as exc:
        transfer.invariant_density(transfer.ulam_matrix(swap, 63))
    residual = re.search(r"at L1 residual (\S+) after", str(exc.value))[1]
    assert float(residual) > transfer.DENSITY_TOL
    assert str(exc.value).endswith(
        f"after {transfer.DENSITY_STALL_WINDOW + 1} iterations; P may have "
        "another eigenvalue on the unit circle (inspect the spectrum)")


@pytest.mark.parametrize("lam2, converged", [(0.99, True), (0.999, False)])
def test_power_iteration_stops_when_the_residual_stops_halving(lam2, converged):
    # a two-state chain whose second eigenvalue is lam2: the residual falls
    # by lam2 per step, 0.0066 per window at 0.99 and 0.61 at 0.999
    a = (1.0 - lam2) / 2.0
    m = np.array([[1.0 - a, a], [a, 1.0 - a]])
    steps = []

    def apply_t(v):
        steps.append(None)
        return m @ v

    if converged:
        h = transfer.power_iterate(apply_t, np.array([1.5, 0.5]), "h0")
        np.testing.assert_allclose(h, 1.0, atol=1e-10)
        assert (transfer.DENSITY_STALL_WINDOW < len(steps)
                < transfer.DENSITY_MAX_ITERS)
        return
    with pytest.raises(ToolError,
                       match="^power iteration from h0 stalled") as exc:
        transfer.power_iterate(apply_t, np.array([1.5, 0.5]), "h0")
    assert len(steps) == transfer.DENSITY_STALL_WINDOW + 1
    assert f"after {len(steps)} iterations; " in str(exc.value)
    residual = re.search(r"at L1 residual (\S+) after", str(exc.value))[1]
    assert float(residual) > transfer.DENSITY_TOL


# ---------------------------------------------------------------- spectrum

def test_spectrum_markov_three_bins(markov):
    # the 3x3 matrix has eigenvalues 1, 1/3, -1/3 (exact arithmetic)
    rep = transfer.spectrum(transfer.ulam_matrix(markov, 3), 3)
    assert abs(rep.eigenvalues[0] - 1.0) <= 1e-12
    rest = sorted(rep.eigenvalues[1:], key=lambda z: z.real)
    assert abs(rest[0] + 1 / 3) <= 1e-12
    assert abs(rest[1] - 1 / 3) <= 1e-12
    assert rep.unit_multiplicity == 1
    # ±1/3 lie inside r_ess = 2/3: exact, but not separated from the
    # essential spectrum, so the gap is the bound 1 - r_ess
    assert rep.resolved.tolist() == [True, False, False]
    assert rep.gap_kind == "bound" and abs(rep.spectral_gap - 1 / 3) <= 1e-12
    assert rep.period == 1
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
    assert rep.solver == "dense"
    assert rep.unit_multiplicity == 1
    assert abs(rep.eigenvalues[1]) <= 0.05
    # so nothing but 1 lies outside r_ess = 1/3: the gap is the bound 2/3
    assert rep.resolved.tolist() == [True, False, False, False]
    assert rep.gap_kind == "bound" and rep.spectral_gap == 1.0 - 1.0 / 3.0
    assert rep.period == 1


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
    # each block is a doubling map: the rest is ~0, inside r_ess = 1/2
    assert np.max(np.abs(rep.eigenvalues[2:])) <= 0.1
    assert rep.resolved.tolist() == [True, True] + [False] * 4
    assert rep.gap_kind == "bound" and rep.spectral_gap == 0.5
    # two ergodic components, each with period 1
    assert rep.period == 1


def test_spectrum_iterative_path_above_dense_limit(markov):
    from scipy.sparse.linalg import splu

    n = transfer.DENSE_EIG_LIMIT + 404
    op = transfer.ulam_matrix(markov, n)
    rep = transfer.spectrum(op, 5)
    assert rep.solver.startswith("krylov m=")
    assert abs(rep.eigenvalues[0] - 1.0) <= 1e-8
    assert rep.unit_multiplicity == 1
    # markov |λ₂| ≈ 0.594 lies inside r_ess = 2/3, so only 1 is resolved
    assert rep.r_ess == 1.0 / 1.5
    assert rep.resolved.tolist() == [True] + [False] * 4
    assert np.all(np.abs(rep.eigenvalues[1:]) <= rep.r_ess + 1e-8)
    assert rep.gap_kind == "bound" and rep.spectral_gap == 1.0 - rep.r_ess
    # each resolved λ is an eigenvalue of Pᵀ: one solve (Pᵀ - λI) x = b by
    # sparse LU blows x up along the eigenvector, so |(Pᵀ - λI) x| / |x|
    # is tiny
    mat_t = sp.csc_matrix(op.matrix.T, dtype=complex)
    b = np.random.default_rng(5).random(n)
    for lam in rep.eigenvalues[rep.resolved]:
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
    assert first.resolved.tobytes() == second.resolved.tobytes()
    assert first.solver == second.solver


def _leaky_swap():
    """Slope 10 from [0, 1/20] onto [0, 1/2], two slope-20/9 branches from
    [1/20, 1/2] onto [1/2, 1], and the mirror image on the right half.
    On span{1_L, 1_R} (L = [0, 1/2), R = [1/2, 1]) P acts by
    [[1/10, 9/10], [9/10, 1/10]], so with 1/2 a bin edge the Ulam matrix
    has the eigenvalues 1 and 1/10 - 9/10 = -4/5, outside r_ess = 9/20."""
    branches = [(0.0, 1 / 20, "10*x", 10.0),
                (1 / 20, 11 / 40, "1/2 + 20*(x - 1/20)/9", 20 / 9),
                (11 / 40, 1 / 2, "1/2 + 20*(x - 11/40)/9", 20 / 9),
                (1 / 2, 29 / 40, "20*(x - 1/2)/9", 20 / 9),
                (29 / 40, 19 / 20, "20*(x - 29/40)/9", 20 / 9),
                (19 / 20, 1.0, "10*x - 9", 10.0)]
    return pwexpand.make_map(
        [{"lo": lo, "hi": hi, "formula": f, "min_slope": s,
          "holder_constant": 0.0} for lo, hi, f, s in branches],
        epsilon=1.0)


@pytest.mark.parametrize("n", [2000, 8000], ids=["dense", "iterative"])
def test_spectrum_resolves_the_leaky_swap_eigenvalue(n):
    op = transfer.ulam_matrix(_leaky_swap(), n)
    rep = transfer.spectrum(op, 8)
    assert (rep.solver == "dense") == (n <= transfer.DENSE_EIG_LIMIT)
    assert abs(op.r_ess - 9 / 20) <= 1e-15
    assert np.max(np.abs(rep.eigenvalues[:2] - [1.0, -0.8])) <= 1e-10
    assert rep.resolved.tolist() == [True, True] + [False] * 6
    assert np.all(np.abs(rep.eigenvalues[2:]) <= op.r_ess + 1e-8)
    assert rep.gap_kind == "measured"
    assert abs(rep.spectral_gap - 0.2) <= 1e-10


@pytest.mark.parametrize("name", ["tent", "doubling"])
@pytest.mark.parametrize("n", [1024, 8192], ids=["dense", "iterative"])
def test_spectrum_resolves_only_one_on_dyadic_bins(name, n, request):
    # on n = 2^k bins both maps send bins onto unions of bins, and
    # (Pᵀ)^k h = mean(h) exactly: the spectrum is {1, 0}, and the other
    # reported values are noise far inside r_ess = 1/2
    pmap = request.getfixturevalue(name)
    op = transfer.ulam_matrix(pmap, n)
    h = np.random.default_rng(3).random(n)
    g = h.copy()
    for _ in range(n.bit_length() - 1):
        g = op.matrix.T @ g
    assert np.max(np.abs(g - h.mean())) <= 1e-12
    rep = transfer.spectrum(op, 8)
    assert abs(rep.eigenvalues[0] - 1.0) <= 1e-8
    assert rep.resolved.tolist() == [True] + [False] * 7
    assert np.all(np.abs(rep.eigenvalues[1:]) <= 0.5)
    assert rep.gap_kind == "bound" and rep.spectral_gap == 0.5
    assert rep.period == 1


def test_spectrum_tied_moduli_match_the_dense_oracle(monkeypatch):
    # the tent Ulam matrix has about n/8 eigenvalues exactly on |λ| = 1/2 =
    # r_ess; the oracle is LAPACK on the dense matrix.  Through the
    # iterative path 1 is resolved and the rest are flagged
    tent = load_map(ROOT / "configs" / "tent.json")
    op = transfer.ulam_matrix(tent, 900)
    oracle = np.sort(np.abs(np.linalg.eigvals(op.matrix.toarray())))[::-1][:8]
    assert abs(oracle[0] - 1.0) <= 1e-8
    assert np.all(np.abs(oracle[1:] - 0.5) <= 1e-8)
    monkeypatch.setattr(transfer, "DENSE_EIG_LIMIT", 100)
    rep = transfer.spectrum(op, 8)
    assert rep.solver.startswith("krylov m=")
    assert len(rep.eigenvalues) == 8
    assert abs(abs(rep.eigenvalues[0]) - oracle[0]) <= 1e-10
    assert rep.resolved.tolist() == [True] + [False] * 7
    assert np.all(np.abs(rep.eigenvalues[1:]) <= 0.5 + 1e-8)
    assert rep.unit_multiplicity == 1


def test_krylov_basis_matches_the_dense_spectrum(markov):
    # the growing Arnoldi basis alone, converged in full (r_ess = 0),
    # against LAPACK on the dense matrix; markov at 900 bins leads with 1,
    # 0.618 and a cluster at 0.594
    op = transfer.ulam_matrix(markov, 900)
    dense = np.linalg.eigvals(op.matrix.toarray())
    dense = dense[np.argsort(-np.abs(dense), kind="stable")]
    vals, converged, m, stall = transfer._krylov_top(
        dataclasses.replace(op, r_ess=0.0), 5)
    assert len(vals) == 5 and m < transfer.KRYLOV_MAX_DIM
    assert converged.tolist() == [True] * 5 and stall is None
    moduli = np.sort(np.abs(vals))[::-1]
    assert np.max(np.abs(moduli - np.abs(dense[:5]))) <= 1e-10
    assert max(np.min(np.abs(dense - lam)) for lam in vals) <= 1e-10


def test_krylov_basis_finds_a_repeated_unit_eigenvalue(block_map):
    # two ergodic components: the Krylov space of one start vector holds
    # one unit eigenvector, so the basis must go on past its breakdowns
    op = transfer.ulam_matrix(block_map, 64)
    vals, converged, _, stall = transfer._krylov_top(
        dataclasses.replace(op, r_ess=0.0), 6)
    assert np.sum(np.abs(np.abs(vals) - 1.0) <= 1e-8) == 2
    assert converged.all() and stall is None


def test_seeded_numbers_come_only_from_random_random(monkeypatch,
                                                     block_map):
    # Python promises the sequence of Random.random() for a seed across
    # versions, and of no other method; block_map's basis breaks down, so
    # the restart vectors are drawn too
    op = dataclasses.replace(transfer.ulam_matrix(block_map, 64), r_ess=0.0)
    draws = []
    random_random = random.Random.random
    monkeypatch.setattr(random.Random, "random",
                        lambda self: draws.append(1) or random_random(self))

    def run():
        del draws[:]
        funcs = analysis.random_test_functions(64, 6, seed=3)
        n_funcs = len(draws)
        vals = transfer._krylov_top(op, 6)[0]
        return [f.values.tolist() for f in funcs], vals.tolist(), (
            n_funcs, len(draws) - n_funcs)

    expect = run()
    n_funcs, n_krylov = expect[2]
    assert n_funcs > 0 and n_krylov > 64 and n_krylov % 64 == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a seeded number was not drawn by random()")

    for name in ("gauss", "normalvariate", "randrange", "randint",
                 "getrandbits"):
        monkeypatch.setattr(random.Random, name, refuse)
    assert run() == expect


def test_spectrum_puts_one_first_among_the_cube_roots_of_unity():
    # each half of a third maps onto the next third at slope 2, so P
    # permutes the thirds cyclically: 1 and e^{±2πi/3} lie on the unit
    # circle, and at 1200 bins the complex pair's moduli round above 1
    three_cycle = pwexpand.make_map(
        [{"lo": k / 6, "hi": (k + 1) / 6, "formula": f}
         for k, f in enumerate(["2*x + 1/3", "2*x", "2*x", "2*x - 1/3",
                                "2*x - 4/3", "2*x - 5/3"])], epsilon=1.0)
    rep = transfer.spectrum(transfer.ulam_matrix(three_cycle, 1200), 4)
    roots = np.exp(2j * np.pi * np.array([1, -1]) / 3)
    assert abs(rep.eigenvalues[0] - 1.0) <= 1e-12
    pair = sorted(rep.eigenvalues[1:3], key=lambda z: -z.imag)
    assert np.max(np.abs(np.array(pair) - roots)) <= 1e-12
    # only λ = 1 counts towards the multiplicity; the pair is on the circle,
    # so the map does not mix and the gap is 0
    assert rep.unit_multiplicity == 1 and rep.unit_circle == 3
    assert np.array_equal(rep.peripheral, rep.eigenvalues[1:3])
    assert rep.gap_kind == "measured" and rep.spectral_gap == 0.0
    assert rep.period == 3
    assert abs(rep.eigenvalues[3]) < 1.0 - 1e-8


def _swap_map():
    """2x + 1/2, 2x, 2x - 1, 2x - 3/2 on the quarters: [0, 1/2] and
    [1/2, 1] swap.  Lebesgue measure is the unique ACIM, and P maps
    1_L - 1_R to its negative, so -1 is an eigenvalue."""
    return pwexpand.make_map(
        [{"lo": k / 4, "hi": (k + 1) / 4, "formula": f}
         for k, f in enumerate(["2*x + 1/2", "2*x", "2*x - 1",
                                "2*x - 3/2"])], epsilon=1.0)


def test_spectrum_swap_map_has_minus_one_and_no_gap():
    op = transfer.ulam_matrix(_swap_map(), 1024)
    ind = np.where(np.arange(1024) < 512, 1.0, -1.0)
    assert np.max(np.abs(op.apply_t(ind) + ind)) <= 1e-12
    rep = transfer.spectrum(op, 4)
    assert rep.solver == "dense"
    assert np.max(np.abs(rep.eigenvalues[:2] - [1.0, -1.0])) <= 1e-12
    # one ergodic component with period 2: -1 is resolved, is not λ = 1,
    # and takes the gap to 0 instead of the bound 1 - r_ess
    assert rep.resolved.tolist() == [True, True, False, False]
    assert rep.unit_multiplicity == 1 and rep.unit_circle == 2
    assert len(rep.peripheral) == 1 and abs(rep.peripheral[0] + 1.0) <= 1e-12
    assert rep.gap_kind == "measured" and rep.spectral_gap == 0.0
    assert rep.period == 2


def _report_on_the_circle(peripheral, unit_multiplicity=1):
    return transfer.SpectralReport(
        eigenvalues=np.ones(1, dtype=complex), converged=np.ones(1, bool),
        unit_multiplicity=unit_multiplicity,
        peripheral=np.asarray(peripheral, dtype=complex), spectral_gap=0.0,
        gap_kind="measured", r_ess=0.5, solver="dense")


def test_period_is_the_order_of_the_peripheral_roots_of_unity():
    i = 1j
    assert _report_on_the_circle([-1.0]).period == 2
    assert _report_on_the_circle([i, -1.0, -i]).period == 4
    # a fourth root of unity alone still needs k = 4, and four values on
    # the circle allow it
    assert _report_on_the_circle([i], unit_multiplicity=3).period == 4
    # within k·1e-8 of a root of unity, as a rounded Ulam value is
    assert _report_on_the_circle([-1.0 + 3e-9j]).period == 2
    # periods 2 and 3 on two components need k = 6, past the five values
    # on the circle; an irrational angle has no period
    omega = np.exp(2j * np.pi / 3)
    assert _report_on_the_circle([-1.0, omega, omega.conjugate()],
                                 unit_multiplicity=2).period is None
    assert _report_on_the_circle([np.exp(1j)]).period is None
    # nothing resolved on the circle: no period to read
    assert _report_on_the_circle([], unit_multiplicity=0).period is None


def test_spectrum_stops_on_the_tent_cluster_at_the_essential_radius(tent):
    # at 4500 bins about n/8 Ulam eigenvalues lie on |λ| = 1/2 = r_ess; the
    # top Ritz values sit just outside it and converge slowly, so the solve
    # ends on the stall and flags them instead of growing the basis
    op = transfer.ulam_matrix(tent, 4500)
    first = transfer.spectrum(op, 8)
    m = int(re.match(r"krylov m=(\d+); stalled \(largest residual ",
                     first.solver).group(1))
    assert m <= 128
    assert abs(first.eigenvalues[0] - 1.0) <= 1e-8
    assert first.converged.tolist() == [True] + [False] * 7
    assert first.resolved.tolist() == [True] + [False] * 7
    assert np.all(first.outside[1:])
    # seven values outside r_ess did not converge: no gap, not even a bound
    assert first.gap_kind == "unresolved" and np.isnan(first.spectral_gap)
    second = transfer.spectrum(op, 8)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.converged.tobytes() == second.converged.tobytes()
    assert first.solver == second.solver


def test_spectrum_rejects_k_below_two(tripling):
    with pytest.raises(ConfigError):
        transfer.spectrum(transfer.ulam_matrix(tripling, 9), 1)


def test_spectrum_rejects_k_above_n_before_solving(markov, monkeypatch):
    # three bins have three eigenvalues: k = 3 returns them all, and k = 4
    # fails before the eigensolve runs
    op = transfer.ulam_matrix(markov, 3)
    assert transfer.spectrum(op, 3).eigenvalues.size == 3

    def no_solve(a):
        raise AssertionError("eigensolve ran")
    monkeypatch.setattr(np.linalg, "eigvals", no_solve)
    with pytest.raises(ConfigError, match="got 4"):
        transfer.spectrum(op, 4)


# ------------------------------------------------------ iterate_norm_series

def test_iterates_of_constant_stay_at_the_bound_floor(tripling):
    f = GridFunction(np.ones(243))
    series = transfer.iterate_norm_series(tripling, f, p=1.0, A=0.125,
                                          n_max=10)
    # Pᵀ1 = 1 up to the Ulam matrix's bin-width rounding
    assert np.max(np.abs(series.norms - 1.0)) <= 1e-10
    assert series.l1_initial == 1.0
    assert abs(series.C - 10.0) <= 1e-12
    assert np.all(series.flags)
    assert series.n0 == 0


def test_iterates_of_indicator_collapse_to_its_mean(tripling):
    # P maps the indicator of [0,1/3) to the constant 1/3 in one step
    n = 243
    f = GridFunction(np.where(np.arange(n) < 81, 1.0, 0.0))
    series = transfer.iterate_norm_series(tripling, f, p=1.0, A=0.125,
                                          n_max=12)
    assert series.norms[0] > 2.0  # ~ 1/3 + var ~ 2.33
    assert np.max(np.abs(series.norms[1:] - 1 / 3)) <= 1e-9
    assert series.bound == pytest.approx(10.0 / 3.0, abs=1e-9)
    assert np.all(series.flags)
    assert series.n0 == 0


@pytest.mark.parametrize("norms, n0", [
    ([9.0, 8.0, 7.0], None),            # never within the bound 2
    ([2.0, 1.0, 0.5], 0),               # within it from the start
    ([1.0, 3.0, 2.5, 2.0, 1.5], 3),     # a late crossing, after a dip
    ([1.0, 1.5, 2.5], None),            # leaves it at the last index
])
def test_iterate_series_first_index_from_which_the_bound_holds(norms, n0):
    series = transfer.IterateSeries(norms=np.array(norms), l1_initial=0.5,
                                    C=4.0)
    assert series.bound == 2.0
    assert series.flags.tolist() == [v <= 2.0 for v in norms]
    assert series.n0 == n0


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

"""End-to-end acceptance checks, one test per criterion.

Each test prints (and banks for the terminal summary) a single line
``criterion N: PASS/FAIL — detail`` and then asserts, so a red test and
a FAIL line always travel together.  Runtime budgets are part of the
criteria.
"""

import time

import numpy as np
from numpy.polynomial.polynomial import polyval

from pwexpand import analysis, expr, kernels, lorenz, transfer
from pwexpand.grid import GridFunction, variation, window_half_width
from pwexpand.maps import check_slope_condition, invert_branch_array


def _report(lines, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    lines.append(line)
    print(line)
    assert ok, line


def _indicator_half(n):
    return GridFunction(np.where(np.arange(n) < n // 2, 1.0, 0.0))


def test_criterion_1_slope_condition_gate(acceptance_report, tripling,
                                          doubling, threshold_map):
    t0 = time.perf_counter()
    v1, ok1 = check_slope_condition(tripling, 1.0)
    v2, ok2 = check_slope_condition(doubling, 1.0)
    v3, _ = check_slope_condition(threshold_map, 2.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(v1 - 2 / 3) <= 1e-12 and ok1
          and v2 == 1.0 and not ok2
          and abs(v3 - 1.0) <= 1e-3
          and elapsed < 1.0)
    _report(acceptance_report, 1, ok,
            f"tripling {v1:.6g} (admissible), doubling {v2:.6g} "
            f"(inadmissible), s=2.618 at p=2 gives {v3:.8f} "
            f"[{elapsed:.2f}s < 1s]")


def test_criterion_2_contraction_constants(acceptance_report, tripling):
    t0 = time.perf_counter()
    c = analysis.ly_constants(tripling, p=1.0, A=0.125)
    elapsed = time.perf_counter() - t0
    ok = (c.D == 0.0
          and abs(c.alpha - 2 / 3) <= 1e-12
          and abs(c.beta - 8 / 3) <= 1e-12
          and abs(c.K - 3.0) <= 1e-12
          and abs(c.C - 10.0) <= 1e-12
          and elapsed < 1.0)
    _report(acceptance_report, 2, ok,
            f"D={c.D:g} alpha={c.alpha:.15g} beta={c.beta:.15g} "
            f"K={c.K:.15g} C={c.C:.15g} [{elapsed:.2f}s < 1s]")


def test_criterion_3_variation_inequality_on_random_functions(
        acceptance_report, tripling, markov):
    t0 = time.perf_counter()
    v_tri = analysis.ly_verify(tripling, p=1.0, A=0.125, trials=100,
                               n=4096, seed=0)
    v_mk = analysis.ly_verify(markov, p=1.0, A=0.125, trials=100,
                              n=4096, seed=0)
    elapsed = time.perf_counter() - t0
    ok = v_tri.violations == 0 and v_mk.violations == 0 and elapsed < 60.0
    _report(acceptance_report, 3, ok,
            f"violations: tripling {v_tri.violations}/100, markov "
            f"{v_mk.violations}/100 at n=4096 [{elapsed:.1f}s < 60s]")


def test_criterion_4_invariant_densities(acceptance_report, tripling,
                                         markov):
    t0 = time.perf_counter()
    h_tri = transfer.invariant_density(transfer.ulam_matrix(tripling, 243))
    dev_tri = float(np.max(np.abs(h_tri.values - 1.0)))
    h_mk = transfer.invariant_density(transfer.ulam_matrix(markov, 300))
    expect = np.where(np.arange(300) < 200, 9 / 8, 3 / 4)
    dev_mk = float(np.max(np.abs(h_mk.values - expect)))
    elapsed = time.perf_counter() - t0
    ok = dev_tri < 1e-10 and dev_mk < 1e-8 and elapsed < 10.0
    _report(acceptance_report, 4, ok,
            f"sup error: tripling {dev_tri:.2e} (<1e-10), markov "
            f"{dev_mk:.2e} (<1e-8) [{elapsed:.1f}s < 10s]")


# Bernoulli polynomials B_0..B_3, coefficients in increasing degree; by the
# multiplication theorem the doubling map's transfer operator sends B_k to
# 2^-k B_k
_BERNOULLI = ([1.0], [-0.5, 1.0], [1 / 6, -1.0, 1.0], [0.0, 0.5, -1.5, 1.0])


def _fp_pointwise(pmap, f, ys):
    """(P f)(y) = sum of f(x)/|tau'(x)| over the branch preimages x of y."""
    out = np.zeros_like(ys)
    for br in pmap.branches:
        inside = (ys >= br.image.lo) & (ys <= br.image.hi)
        xs = invert_branch_array(br, ys[inside])
        _, ders = expr.eval_with_derivative(br.expression, xs)
        out[inside] += f(xs) / np.abs(ders)
    return out


def test_criterion_5_spectral_structure(acceptance_report, doubling,
                                        markov, block_map):
    t0 = time.perf_counter()
    # (a) the 64-bin Ulam matrix of the doubling map is averaging plus
    # nilpotent: its 6th power is exactly the rank-one averaging matrix, so
    # its spectrum is {1} u {0}, far inside r_ess = 1/2
    op = transfer.ulam_matrix(doubling, 64)
    averaging = np.array_equal(np.linalg.matrix_power(op.matrix.toarray(), 6),
                               np.full((64, 64), 1 / 64))
    rep = transfer.spectrum(op, 8)
    rest = float(np.max(np.abs(rep.eigenvalues[1:])))
    ulam_ok = averaging and rep.unit_multiplicity == 1 and rest <= 1e-2
    # (b) 2^-k are eigenvalues of the pointwise operator on polynomials
    ys = (np.arange(1000) + 0.5) / 1000
    bernoulli_err = max(
        float(np.max(np.abs(
            _fp_pointwise(doubling, lambda x, c=c: polyval(x, c), ys)
            - 2.0 ** -k * polyval(ys, c))))
        for k, c in enumerate(_BERNOULLI))
    # (c) the markov map's subdominant eigenvalue -1/3 (eigenvector: the
    # mean-zero step function on the Markov partition)
    markov_rep = transfer.spectrum(transfer.ulam_matrix(markov, 300), 300)
    markov_dist = float(np.min(np.abs(markov_rep.eigenvalues + 1 / 3)))
    rep_block = transfer.spectrum(transfer.ulam_matrix(block_map, 64), 6)
    block_ok = rep_block.unit_multiplicity == 2
    elapsed = time.perf_counter() - t0
    ok = (ulam_ok and bernoulli_err <= 1e-12 and markov_dist <= 1e-10
          and block_ok and elapsed < 10.0)
    _report(acceptance_report, 5, ok,
            "doubling 64-bin M^6 is the averaging matrix "
            f"({'yes' if averaging else 'no'}), unit multiplicity "
            f"{rep.unit_multiplicity}, other moduli <= {rest:.2e} (<1e-2); "
            f"|P B_k - 2^-k B_k| <= {bernoulli_err:.1e} for k=0..3 "
            f"(<1e-12); markov -1/3 within {markov_dist:.1e} (<1e-10); "
            "two-component map has unit multiplicity 2 "
            f"({'yes' if block_ok else 'no'}) [{elapsed:.1f}s < 10s]")


def test_criterion_6_iterate_boundedness(acceptance_report, tripling):
    t0 = time.perf_counter()
    f = _indicator_half(1024)
    series = transfer.iterate_norm_series(tripling, f, p=1.0, A=0.125,
                                          n_max=30)
    elapsed = time.perf_counter() - t0
    from_n0 = series.norms[series.n0:] if series.n0 is not None else []
    ok = (series.n0 is not None
          and abs(series.bound - 5.0) <= 1e-12
          and len(from_n0) == 31 - series.n0
          and bool(np.all(from_n0 <= series.bound + 1e-12))
          and elapsed < 30.0)
    _report(acceptance_report, 6, ok,
            f"bound C*||f||_1 = {series.bound:.6g} holds from n0 = "
            f"{series.n0} (max norm {series.norms.max():.4g}) "
            f"[{elapsed:.1f}s < 30s]")


def test_criterion_7_correlation_decay(acceptance_report, tripling):
    t0 = time.perf_counter()
    leb = analysis.correlation_lebesgue(tripling, "x", "x", 20, 2187)
    inv = analysis.correlation_invariant(tripling, "x", "x", 20, 2187)
    diff = float(np.max(np.abs(leb.C_values - inv.C_values)))
    elapsed = time.perf_counter() - t0
    ok = (0.28 <= leb.fitted_rate <= 0.38
          and leb.fit_quality > 0.98
          and diff <= 1e-10
          and elapsed < 60.0)
    _report(acceptance_report, 7, ok,
            f"fitted rate {leb.fitted_rate:.4f} in (0.28, 0.38), R^2 = "
            f"{leb.fit_quality:.5f}, |C_mu - C_m| <= {diff:.2e} "
            f"[{elapsed:.1f}s < 60s]")


def _brute_osc(values, half):
    n = len(values)
    out = np.empty(n)
    for j in range(n):
        window = values[max(0, j - half): min(n, j + half + 1)]
        out[j] = window.max() - window.min()
    return out


def _profiles(values, radii):
    """The oscillation profiles at the nondecreasing radii, copied out of
    the one sweep that `variation` runs."""
    halves = [window_half_width(r, len(values)) for r in radii]
    return [hi - lo for lo, hi in kernels.sliding_minmax_sweep(values, halves)]


def test_criterion_8_oscillation_machinery(acceptance_report, tripling,
                                           markov, doubling):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)

    # (a) windowed oscillation equals the brute-force scan exactly
    exact = True
    n = 257
    for _ in range(50):
        edges = np.sort(rng.integers(1, n, size=rng.integers(1, 9)))
        values = np.repeat(rng.normal(size=len(edges) + 1),
                           np.diff(np.concatenate([[0], edges, [n]])))
        radii = (1 / n, 0.02, 0.1)
        for r, prof in zip(radii, _profiles(values, radii)):
            brute = _brute_osc(values, window_half_width(r, n))
            if not np.array_equal(prof, brute):
                exact = False

    # (b) the variation of a half-interval indicator is the jump mass 2
    var_ind = variation(_indicator_half(1024), 1.0, 1.0, 0.25).variation
    var_ok = abs(var_ind - 2.0) <= 0.1

    # (c) pullback through a branch contracts oscillation radii, up to
    # one-cell inflation, on random (branch, function) pairs
    comp_ok = True
    n = 512
    branches = ([(b, 3.0) for b in tripling.branches]
                + [(markov.branches[0], 1.5)]
                + [(b, 2.0) for b in doubling.branches])
    funcs = analysis.random_test_functions(n, 50, seed=21)
    mids = (np.arange(n) + 0.5) / n
    for i, f in enumerate(funcs):
        branch, s = branches[i % len(branches)]
        r = (4 / n, 0.02, 0.06)[i % 3]
        inside = (mids > branch.image.lo) & (mids < branch.image.hi)
        xs = invert_branch_array(branch, mids[inside])
        src = np.clip(np.floor(xs * n).astype(int), 0, n - 1)
        g = np.zeros(n)
        g[inside] = f.values[src]
        [prof_g] = _profiles(g, [r])
        [prof_f] = _profiles(f.values, [min(r / s + 2.0 / n, 1.0)])
        idx = np.nonzero(inside)[0]
        keep = ((idx >= window_half_width(r, n))
                & (idx < n - window_half_width(r, n)))
        if not np.all(prof_g[idx[keep]] <= prof_f[src[keep]] + 1e-12):
            comp_ok = False
    elapsed = time.perf_counter() - t0
    ok = exact and var_ok and comp_ok and elapsed < 30.0
    _report(acceptance_report, 8, ok,
            f"window scan exact on 50 step functions: {exact}; "
            f"var(indicator) = {var_ind:.5f} (within 5% of 2); "
            f"composition bound on 50 pairs: {comp_ok} "
            f"[{elapsed:.1f}s < 30s]")


def test_criterion_9_lorenz_pipeline(acceptance_report):
    t0 = time.perf_counter()
    acc = lorenz.ZMaxima()
    for piece in lorenz.integrate(lorenz.LorenzConfig()):
        acc.feed(piece)
    data = lorenz.build_return_map(acc.result())
    pts = data.normalized_pairs
    cusp = data.cusp_estimate

    def violation_fraction(side):
        mask = pts[:, 0] <= cusp if side == "left" else pts[:, 0] > cusp
        sel = pts[mask]
        sel = sel[np.argsort(sel[:, 0])]
        steps = np.diff(sel[:, 1])
        bad = np.sum(steps < 0) if side == "left" else np.sum(steps > 0)
        return float(bad) / max(len(steps), 1)

    frac_l = violation_fraction("left")
    frac_r = violation_fraction("right")
    _, diag = lorenz.fit_piecewise(data, 3)
    elapsed = time.perf_counter() - t0
    ok = (len(data.pairs) >= 500
          and frac_l <= 0.05 and frac_r <= 0.05
          and all(s > 1.0 for s in diag.min_abs_slope_central)
          and elapsed < 120.0)
    _report(acceptance_report, 9, ok,
            f"{len(data.pairs)} return pairs, cusp at {cusp:.4f}, "
            f"monotonicity violations {frac_l:.1%}/{frac_r:.1%} (<=5%), "
            "central slopes "
            + ", ".join(f"{s:.4f}" for s in diag.min_abs_slope_central)
            + f" (>1) [{elapsed:.1f}s < 120s]")

"""Kernel tests: sliding min/max against brute force, RK4 against a pinned
endpoint, a reference loop with numpy item stores and its order of
convergence."""

import numpy as np
import pytest

from pwexpand import grid, kernels


def brute_minmax(values, half):
    n = len(values)
    lo = np.empty(n)
    hi = np.empty(n)
    for k in range(n):
        window = values[max(0, k - half): min(n, k + half + 1)]
        lo[k] = window.min()
        hi[k] = window.max()
    return lo, hi


def test_sliding_minmax_matches_brute_force():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 64, 257):
        values = rng.normal(size=n)
        for half in (0, 1, 2, 5, n // 2, n, 2 * n):
            lo, hi = kernels.sliding_minmax(values, half)
            blo, bhi = brute_minmax(values, half)
            assert np.array_equal(lo, blo), (n, half)
            assert np.array_equal(hi, bhi), (n, half)


def test_sliding_minmax_half_zero_is_identity():
    values = np.array([3.0, -1.0, 2.0])
    lo, hi = kernels.sliding_minmax(values, 0)
    assert np.array_equal(lo, values)
    assert np.array_equal(hi, values)


def test_sliding_minmax_with_ties():
    values = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    lo, hi = kernels.sliding_minmax(values, 2)
    blo, bhi = brute_minmax(values, 2)
    assert np.array_equal(lo, blo)
    assert np.array_equal(hi, bhi)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 257, 4097])
def test_sliding_minmax_sweep_matches_brute_force(n):
    # values drawn from a few levels with both signed zeros, so windows
    # hold ties and -0.0/0.0 pairs; 0, repeats, n-1, n and 2n+5 cover the
    # identity, a level reused without growing, and windows past the ends;
    # 31, 32, 33 put window widths on both sides of a power of two
    rng = np.random.default_rng(n)
    values = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=n)
    spread = rng.random(n) < 0.3
    values[spread] = rng.normal(size=int(spread.sum()))
    halves = sorted([0, 0, 1, 2, 3, 31, 32, 32, 33, n // 3, n // 2, n - 1, n,
                     2 * n + 5, 2 * n + 5])
    # each step overwrites the buffers of the one before, so keep copies
    got = [(lo.copy(), hi.copy())
           for lo, hi in kernels.sliding_minmax_sweep(values, halves)]
    assert len(got) == len(halves)
    for half, (lo, hi) in zip(halves, got):
        blo, bhi = brute_minmax(values, half)
        assert np.array_equal(lo, blo), (n, half)
        assert np.array_equal(hi, bhi), (n, half)


def test_sliding_minmax_sweep_reuses_two_buffers():
    values = np.random.default_rng(5).normal(size=100)
    sweep = kernels.sliding_minmax_sweep(values, [0, 3, 40])
    lo, hi = next(sweep)
    assert lo is not hi and not np.shares_memory(lo, values)
    for lo_next, hi_next in sweep:
        assert lo_next is lo and hi_next is hi


def test_osc_profile_does_not_return_a_sweep_buffer(monkeypatch):
    yielded = []
    sweep = kernels.sliding_minmax_sweep

    def recording(values, halves):
        for pair in sweep(values, halves):
            yielded.extend(pair)
            yield pair

    monkeypatch.setattr(kernels, "sliding_minmax_sweep", recording)
    f = grid.GridFunction(np.random.default_rng(6).normal(size=50))
    prof = grid.osc_profile(f, 0.1)
    assert len(yielded) == 2
    assert all(not np.shares_memory(prof.values, buf) for buf in yielded)
    lo, hi = kernels.sliding_minmax(f.values, grid.window_half_width(0.1, 50))
    assert np.array_equal(prof.values, hi - lo)


def test_sliding_minmax_sweep_rejects_bad_halves():
    values = np.arange(8.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        list(kernels.sliding_minmax_sweep(values, [1, 3, 2]))
    with pytest.raises(ValueError, match="nonnegative"):
        list(kernels.sliding_minmax_sweep(values, [-1, 2]))
    assert list(kernels.sliding_minmax_sweep(values, [])) == []


def test_lorenz_rk4_pinned_endpoint():
    # the exact endpoint of this integration; any change to the operation
    # sequence of a step moves its last bits
    got = kernels.lorenz_rk4([1.0, 1.0, 1.0], 10.0, 28.0, 8.0 / 3.0, 0.001, 5000)
    assert got.shape == (5001, 3)
    expect = [float.fromhex(h) for h in (
        "-0x1.a0c6788cb39bdp+2", "-0x1.be56b78cbb012p+2", "0x1.7ec93c1aa221cp+4")]
    assert got[-1].tolist() == expect


def _rk4_item_stores(state, sigma, rho, beta, dt, nsteps):
    """The RK4 step of `kernels.lorenz_rk4`, stored by numpy item assignment."""
    out = np.empty((nsteps + 1, 3))
    x, y, z = (float(v) for v in state)
    out[0] = x, y, z
    for i in range(nsteps):
        k1x = sigma * (y - x)
        k1y = x * (rho - z) - y
        k1z = x * y - beta * z
        x2 = x + 0.5 * dt * k1x
        y2 = y + 0.5 * dt * k1y
        z2 = z + 0.5 * dt * k1z
        k2x = sigma * (y2 - x2)
        k2y = x2 * (rho - z2) - y2
        k2z = x2 * y2 - beta * z2
        x3 = x + 0.5 * dt * k2x
        y3 = y + 0.5 * dt * k2y
        z3 = z + 0.5 * dt * k2z
        k3x = sigma * (y3 - x3)
        k3y = x3 * (rho - z3) - y3
        k3z = x3 * y3 - beta * z3
        x4 = x + dt * k3x
        y4 = y + dt * k3y
        z4 = z + dt * k3z
        k4x = sigma * (y4 - x4)
        k4y = x4 * (rho - z4) - y4
        k4z = x4 * y4 - beta * z4
        x += dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y += dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        z += dt * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        out[i + 1, 0] = x
        out[i + 1, 1] = y
        out[i + 1, 2] = z
    return out


@pytest.mark.parametrize("state, nsteps", [
    ([1.0, 1.0, 1.0], 20_000), ([0.5, -0.25, 9.0], 1), ([-3.0, 2.0, 30.0], 0)])
def test_lorenz_rk4_matches_item_store_loop(state, nsteps):
    args = (10.0, 28.0, 8.0 / 3.0, 0.001, nsteps)
    got = kernels.lorenz_rk4(state, *args)
    expect = _rk4_item_stores(state, *args)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_lorenz_rk4_initial_row_and_determinism():
    a = kernels.lorenz_rk4([0.5, -0.25, 9.0], 10.0, 28.0, 8.0 / 3.0, 0.002, 100)
    b = kernels.lorenz_rk4([0.5, -0.25, 9.0], 10.0, 28.0, 8.0 / 3.0, 0.002, 100)
    assert np.array_equal(a[0], [0.5, -0.25, 9.0])
    assert np.array_equal(a, b)


def test_lorenz_rk4_fourth_order_convergence():
    # rho < 1: the origin attracts, trajectories are smooth, and halving dt
    # should cut the global error by about 2^4
    args = ([2.0, 1.5, 1.0], 10.0, 0.5, 8.0 / 3.0)
    t_end = 2.0

    def endpoint(dt):
        nsteps = int(round(t_end / dt))
        return kernels.lorenz_rk4(args[0], args[1], args[2], args[3], dt, nsteps)[-1]

    ref = endpoint(1.0 / 4096.0)
    err_coarse = np.linalg.norm(endpoint(1.0 / 64.0) - ref)
    err_fine = np.linalg.norm(endpoint(1.0 / 128.0) - ref)
    ratio = err_coarse / err_fine
    assert 12.0 < ratio < 20.0, ratio

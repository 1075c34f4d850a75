"""Lorenz pipeline: integration, z-maxima extraction, return-map
assembly, and the two-branch cusp fit (on synthetic data with known
answers, plus one short real trajectory)."""

import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from pwexpand import kernels, lorenz, serialize
from pwexpand.errors import ConfigError, ToolError

# the failure of ZMaxima.result on a signal with fewer than two maxima
TOO_FEW_MAXIMA = r"^found [01] z-maxima; need at least 2 for a return map$"


def _joined(pieces):
    """Trajectory pieces joined into one Trajectory."""
    return lorenz.Trajectory(t=np.concatenate([p.t for p in pieces]),
                             xyz=np.concatenate([p.xyz for p in pieces]))


def _whole(config):
    """The pieces of `lorenz.integrate` joined into one Trajectory."""
    return _joined(list(lorenz.integrate(config)))


def _synthetic_return_data(xs, ys):
    """The two attributes of a ReturnMapData that fit_piecewise reads."""
    return SimpleNamespace(normalized_pairs=np.column_stack([xs, ys]),
                           cusp_estimate=float(xs[np.argmax(ys)]))


# ----------------------------------------------------------------- config

def test_config_rejects_coarse_step():
    with pytest.raises(ConfigError):
        lorenz.LorenzConfig(dt=0.02)


def test_config_rejects_transient_swallowing_the_run():
    with pytest.raises(ConfigError):
        lorenz.LorenzConfig(t_max=40.0, transient=50.0)


def test_config_rejects_step_counts_where_times_stop_being_exact():
    # t = k * dt needs k below 2**53; checked before any step is taken
    dt = 2.0 ** -60
    assert lorenz.LorenzConfig(dt=dt, t_max=(2.0 ** 53 - 1) * dt,
                               transient=0.0).nsteps == 2 ** 53 - 1
    with pytest.raises(ConfigError, match=r"^cannot store 9\.0072e\+15 steps"):
        lorenz.LorenzConfig(dt=dt, t_max=2.0 ** 53 * dt, transient=0.0)


# -------------------------------------------------------------- integrate

def test_integrate_is_bitwise_deterministic():
    cfg = lorenz.LorenzConfig(dt=0.01, t_max=10.0, transient=1.0)
    a = _whole(cfg)
    b = _whole(cfg)
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.t, b.t)
    assert a.t[0] >= 1.0 - 1e-12


@pytest.mark.parametrize("dt, t_max", [(0.01, 60.0), (0.003, 51.7),
                                       (0.001, 77.777)])
def test_integrate_times_are_step_counts_times_dt(dt, t_max):
    # bit for bit the integer arange times dt
    traj = _whole(lorenz.LorenzConfig(dt=dt, t_max=t_max))
    t = np.arange(round(t_max / dt) + 1) * dt
    want = t[np.searchsorted(t, 50.0 - 1e-12):]
    assert traj.t.tobytes() == want.tobytes()
    assert len(traj.t) == len(traj.xyz)


def test_integrate_below_onset_gives_no_oscillations():
    # rho = 0.5: the origin attracts and z decays monotonically, so the
    # maxima extractor has nothing to work with
    traj = _whole(
        lorenz.LorenzConfig(rho=0.5, dt=0.01, t_max=60.0, transient=40.0))
    with pytest.raises(ToolError, match=TOO_FEW_MAXIMA):
        lorenz.extract_z_maxima(traj)


def _boundary_cases():
    # transient -1 keeps row 0; a transient of k * dt keeps rows k..nsteps
    for nsteps in (4095, 4096, 4097, 3 * 4096 + 17):
        for first in (0, 1, 1000, 4096, 4097):
            if first < nsteps:
                yield nsteps, first


@pytest.mark.parametrize("nsteps, first", list(_boundary_cases()))
def test_pieces_are_one_whole_integration(nsteps, first, tmp_path, monkeypatch,
                                          child_steps):
    dt = 0.01
    cfg = lorenz.LorenzConfig(dt=dt, t_max=nsteps * dt,
                              transient=first * dt if first else -1.0)
    assert cfg.nsteps == nsteps
    whole = kernels.lorenz_rk4([1.0, 1.0, 1.0], 10.0, 28.0, 8.0 / 3.0, dt,
                               nsteps)
    t = np.arange(nsteps + 1) * dt
    assert np.searchsorted(t, cfg.transient - 1e-12) == first
    rows = serialize.trajectory_csv(
        lorenz.Trajectory(t=t[first:], xyz=whole[first:])).splitlines()
    # in a forked child that formats no row, one step or all of the kept
    # rows of each piece, then in this process as where os.fork is missing
    for steps, tail in [(0, lambda kept: 0),
                        (1, lambda kept: min(kept, lorenz._STEP)),
                        (None, lambda kept: kept),
                        ("no fork", lambda kept: 0)]:
        if steps == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            child_steps(steps)
        pieces = list(lorenz.integrate(cfg))
        assert all(0 < len(p.t) == len(p.xyz) <= lorenz._CHUNK for p in pieces)
        assert [p._csv_tail.count("\n") for p in pieces] == [
            tail(len(p.t)) for p in pieces]
        got = _joined(pieces)
        assert got.xyz.tobytes() == whole[first:].tobytes()
        assert got.t.tobytes() == t[first:].tobytes()
        serialize.write_trajectory_csv(tmp_path / "traj.csv", pieces)
        # by rows: a failure then names the first wrong row
        assert (tmp_path / "traj.csv").read_text().splitlines() == rows


def test_a_slow_caller_gets_later_pieces_formatted_by_the_child():
    pieces = []
    for piece in lorenz.integrate(
            lorenz.LorenzConfig(dt=0.01, t_max=100.0, transient=-1.0)):
        pieces.append(piece)
        time.sleep(0.2)  # far longer than the child's RK4 and formatting
    # the caller asks for the first piece at once, and for each later one
    # only after the child has had the time to format all of it
    assert [len(p.t) for p in pieces] == [1, 4096, 4096, 1808]
    assert [p._csv_tail.count("\n") for p in pieces[1:]] == [4096, 4096, 1808]


def _on_alarm(signum, frame):
    raise TimeoutError("the run did not end within 30 s")


def test_the_child_reads_the_requests_inside_the_transient(monkeypatch):
    # 70 000 one-row blocks before the first kept row: were the child to
    # read no request there, the request pipe would fill and block this
    # process, which then leaves the child blocked on its own full pipe
    monkeypatch.setattr(lorenz, "_CHUNK", 1)
    cfg = lorenz.LorenzConfig(dt=0.01, t_max=700.5, transient=700.0)
    handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(30)
    try:
        got = _whole(cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    whole = kernels.lorenz_rk4([1.0, 1.0, 1.0], 10.0, 28.0, 8.0 / 3.0, 0.01,
                               70_050)
    assert got.xyz.tobytes() == whole[70_000:].tobytes()


@pytest.mark.parametrize("stop", ["close", "drop"])
def test_stopping_after_the_first_piece_leaves_no_child(stop):
    pieces = lorenz.integrate(
        lorenz.LorenzConfig(dt=0.01, t_max=500.0, transient=0.0))
    assert len(next(pieces).t) == 1
    if stop == "close":
        pieces.close()
    else:
        del pieces  # the last reference: the generator is finalized
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -------------------------------------------------------- extract_z_maxima

def test_maxima_of_a_sine_are_all_one():
    t = np.arange(0.0, 100.0 + 1e-12, 0.01)
    z = np.sin(t)
    traj = lorenz.Trajectory(
        t=t, xyz=np.column_stack([np.zeros_like(t), np.zeros_like(t), z]))
    m = lorenz.extract_z_maxima(traj)
    # peaks at pi/2 + 2 pi k below 100; quadratic refinement nails them
    assert len(m) == 16
    assert np.max(np.abs(m - 1.0)) <= 1e-6


def _full_length_maxima(z):
    """The refinement on every interior sample, then the maxima picked."""
    left, mid, right = z[:-2], z[1:-1], z[2:]
    is_max = (left < mid) & (mid >= right)
    S = right - left
    Q = left - 2.0 * mid + right
    with np.errstate(divide="ignore", invalid="ignore"):
        refined = np.where(Q < 0.0, mid - S * S / (8.0 * Q), mid)
    return refined[is_max]


# two maxima at (1 - 2^-53, 1, 1), where Q = (1 - 2^-53) - 2 + 1 rounds to 0
ROUNDING_TIE = np.array([0.0, 1.0 - 2.0 ** -53, 1.0, 1.0] * 2 + [0.0])


def _walks():
    rng = np.random.default_rng(7)
    for n in (3, 4, 50, 10_001):
        yield np.cumsum(rng.normal(size=n))
        # integer steps: plateaus and flat-topped maxima
        yield np.cumsum(rng.integers(-1, 2, size=n)).astype(float)
    yield np.sin(np.arange(0.0, 100.0 + 1e-12, 0.01))
    yield np.array([0.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.0, 3.0])
    yield ROUNDING_TIE


@pytest.mark.parametrize("z", list(_walks()), ids=lambda z: f"n{len(z)}")
def test_maxima_match_the_full_length_refinement(z):
    traj = lorenz.Trajectory(t=np.arange(len(z)),
                             xyz=np.column_stack([z, z, z]))
    expect = _full_length_maxima(z)
    if len(expect) < 2:
        with pytest.raises(ToolError, match=TOO_FEW_MAXIMA):
            lorenz.extract_z_maxima(traj)
        return
    got = lorenz.extract_z_maxima(traj)
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def _fed(z, cuts):
    """A ZMaxima fed z in pieces split at the indices `cuts`."""
    acc = lorenz.ZMaxima()
    for part in np.split(z, cuts):
        piece = lorenz.Trajectory(t=np.arange(len(part)),
                                  xyz=np.column_stack([part, part, part]))
        assert acc.feed(piece) is piece
    return acc


# peaks at 3 and 13, and a plateau over 7..9 whose first sample is the
# maximum (the >= rule)
BOUNDARY_Z = np.array([0.0, 1, 2, 5, 2, 1, 3, 4, 4, 4, 1, 0, 2, 6, 1])


@pytest.mark.parametrize("cuts", [[4], [3], [8], [9], [3, 3, 4],
                                  list(range(1, len(BOUNDARY_Z)))],
                         ids=["peak-last-of-piece", "peak-first-of-next",
                              "plateau-after-first", "plateau-before-last",
                              "empty-and-one-sample", "all-one-sample"])
def test_maxima_across_piece_boundaries(cuts):
    expect = _full_length_maxima(BOUNDARY_Z)
    assert len(expect) == 3
    acc = _fed(BOUNDARY_Z, cuts)
    assert acc.samples == len(BOUNDARY_Z)
    assert acc.result().tobytes() == expect.tobytes()


def test_maxima_do_not_depend_on_where_pieces_end():
    rng = np.random.default_rng(8)
    for z in (np.cumsum(rng.integers(-1, 2, size=40)).astype(float),
              np.cumsum(rng.normal(size=40))):
        expect = _full_length_maxima(z).tobytes()
        for a in range(len(z) + 1):
            for b in (a, a + 1, a + 2):
                assert _fed(z, [a, b]).result().tobytes() == expect


def test_maxima_rounding_tie_takes_the_middle_sample():
    z = ROUNDING_TIE
    traj = lorenz.Trajectory(t=np.arange(len(z)), xyz=np.column_stack([z, z, z]))
    assert lorenz.extract_z_maxima(traj).tolist() == [1.0, 1.0]


def test_maxima_of_a_monotone_signal_raise():
    t = np.arange(0.0, 5.0, 0.01)
    traj = lorenz.Trajectory(t=t, xyz=np.column_stack([t, t, t]))
    with pytest.raises(ToolError, match=TOO_FEW_MAXIMA):
        lorenz.extract_z_maxima(traj)


# --------------------------------------------------------- build_return_map

def test_return_map_of_three_points():
    data = lorenz.build_return_map(np.array([1.0, 2.0, 3.0]))
    assert data.z_min == 1.0 and data.z_max == 3.0
    assert np.array_equal(data.pairs, [[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(data.normalized_pairs, [[0.0, 0.5], [0.5, 1.0]])
    assert data.cusp_estimate == 0.5


def test_return_map_data_derives_everything_from_the_maxima():
    data = lorenz.ReturnMapData(np.array([1.0, 3.0, 2.0, 5.0, 4.0]))
    assert np.array_equal(data.pairs, [[1, 3], [3, 2], [2, 5], [5, 4]])
    assert (data.z_min, data.z_max) == (1.0, 5.0)
    # (pairs - 1) / 4, exact in binary
    assert np.array_equal(data.normalized_pairs,
                          [[0, 0.5], [0.5, 0.25], [0.25, 1], [1, 0.75]])
    # the largest next maximum, 5, follows the maximum 2
    assert data.cusp_estimate == 0.25


def test_return_map_rejects_constant_maxima():
    with pytest.raises(ToolError, match="^maxima are all 2; cannot normalize"):
        lorenz.build_return_map(np.array([2.0, 2.0, 2.0]))


def test_return_map_rejects_too_few_maxima():
    with pytest.raises(ToolError, match="^need at least 3 maxima, got 2$"):
        lorenz.build_return_map(np.array([1.0, 2.0]))


def test_normalization_round_trips():
    rng = np.random.default_rng(0)
    m = 30.0 + 10.0 * rng.random(50)
    data = lorenz.build_return_map(m)
    back = data.normalized_pairs * (data.z_max - data.z_min) + data.z_min
    assert np.max(np.abs(back - data.pairs)) <= 1e-12


# ------------------------------------------------------------ fit_piecewise

def test_abs_extremes_matches_a_brute_force_grid():
    # p' has degree - 1 random critical points inside [lo, hi] (degree 1
    # has none), p is shifted to vanish at a random interior point and
    # scaled to max |p| = 1 on the grid; p + 2 has no root there
    P = np.polynomial.polynomial
    rng = np.random.default_rng(2401)
    for degree in range(1, 7):
        for _ in range(8):
            lo = rng.uniform(-1.0, 1.0)
            hi = lo + rng.uniform(0.5, 2.0)
            xs = np.linspace(lo, hi, 200_001)
            q = P.polyint(P.polyfromroots(rng.uniform(lo, hi, degree - 1)))
            q = P.polysub(q, [P.polyval(rng.uniform(lo, hi), q)])
            q = rng.choice([-1.0, 1.0]) * q / np.max(np.abs(P.polyval(xs, q)))
            for coeffs in (q, P.polyadd(q, [2.0])):
                grid = np.abs(P.polyval(xs, coeffs))
                # the rounding bound of Horner's rule: both sides evaluate
                # p, so they may differ by this much at the same extremum
                tol = (2 * len(coeffs) * np.finfo(float).eps
                       * P.polyval(max(abs(lo), abs(hi)), np.abs(coeffs)))
                low, high = lorenz._abs_extremes(coeffs, lo, hi)
                assert high >= grid.max() - tol
                assert high == pytest.approx(grid.max(), rel=1e-9)
                if coeffs is q:
                    assert low <= tol
                else:
                    assert low <= grid.min() + tol
                    assert low == pytest.approx(grid.min(), rel=1e-9)


def test_fit_recovers_a_tent_from_noisy_samples():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.random(500))
    ys = np.where(xs <= 0.5, 2 * xs, 2 - 2 * xs)
    ys = ys + 1e-6 * rng.normal(size=500)
    data = _synthetic_return_data(xs, ys)
    pmap, diag = lorenz.fit_piecewise(data, 1)
    assert len(pmap.branches) == 2
    assert diag.min_abs_slope_central[0] == pytest.approx(2.0, abs=1e-4)
    assert diag.min_abs_slope_central[1] == pytest.approx(2.0, abs=1e-4)
    assert max(diag.residual_rms) < 1e-4
    assert pmap.breakpoints[1] == data.cusp_estimate
    # linear branches: tau' is constant, so epsilon = 1 holds with M_i = 0
    assert pmap.holder_exponent == 1.0
    assert [br.holder_constant for br in pmap.branches] == [0.0, 0.0]


def test_fit_reports_misfit_of_a_three_branch_cloud():
    # a sawtooth with three teeth cannot be explained by two branches:
    # the cusp lands near 1/3 and the right branch mixes two teeth
    rng = np.random.default_rng(12)
    xs = np.sort(rng.random(600))
    ys = (3.0 * xs) % 1.0
    data = _synthetic_return_data(xs, ys)
    try:
        _, diag = lorenz.fit_piecewise(data, 1)
    except ToolError as err:
        assert "the two-branch cusp model does not fit" in str(err)
        return
    assert max(diag.residual_rms) > 0.1


def test_fit_rejects_constant_model():
    rng = np.random.default_rng(13)
    xs = np.sort(rng.random(200))
    data = _synthetic_return_data(xs, np.where(xs <= 0.5, xs, 1 - xs) + 0.1)
    with pytest.raises(ConfigError):
        lorenz.fit_piecewise(data, 0)


def test_fit_rejects_sparse_data():
    xs = np.linspace(0.0, 1.0, 40)
    data = _synthetic_return_data(xs, np.where(xs <= 0.5, xs, 1 - xs))
    with pytest.raises(ConfigError):
        lorenz.fit_piecewise(data, 1)


def test_fit_rejects_an_empty_branch():
    # monotone data puts the peak at the right edge; nothing remains
    # for the second branch
    xs = np.linspace(0.0, 0.99, 120)
    data = _synthetic_return_data(xs, xs.copy())
    with pytest.raises(ToolError, match=r"^branch on .* has only \d+ points"):
        lorenz.fit_piecewise(data, 1)


# ------------------------------------------------------------ full pipeline

def test_short_real_trajectory_has_the_known_shape():
    traj = _whole(lorenz.LorenzConfig(dt=0.01, t_max=150.0, transient=5.0))
    maxima = lorenz.extract_z_maxima(traj)
    assert len(maxima) > 150
    data = lorenz.build_return_map(maxima)
    # classical parameters: z-maxima live around 30..47 with the cusp
    # near the middle of the normalized interval
    assert 25.0 < data.z_min < data.z_max < 60.0
    assert 0.3 < data.cusp_estimate < 0.7

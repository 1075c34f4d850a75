"""Every CSV builder against a row-by-row oracle.

The oracles below format one cell at a time with `fmt` and `str`, the way
the builders did before they shared one chunked table writer, so a change
in cell policy, row order, chunk seams or line ends shows up as a byte
difference.  Row counts cover an empty table, exactly one chunk and two
chunks plus one row.
"""

import functools
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pwexpand import serialize
from pwexpand.analysis import CorrelationSeries
from pwexpand.errors import ToolError
from pwexpand.grid import GridFunction
from pwexpand.serialize import _CHUNK, fmt

EXTREMES = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, -2.5, 1.0 / 3.0])
ROWS = (0, _CHUNK, 2 * _CHUNK + 1)


def _values(n, seed):
    """n doubles: the extreme values first, then random magnitudes."""
    rng = np.random.default_rng(seed)
    out = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    k = min(n, len(EXTREMES))
    out[:k] = EXTREMES[:k]
    return out


def _opt(x):
    return "" if x is None else fmt(x)


def _text(lines):
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- oracles

def oracle_grid_function(f):
    return _text(["cell_index,midpoint,value"] + [
        f"{k},{fmt((k + 0.5) / f.n)},{fmt(v)}" for k, v in enumerate(f.values)])


def oracle_spectral(report):
    lines = [f"# r_ess={fmt(report.r_ess)} "
             f"resolved_rows={sum(map(bool, report.resolved))} "
             f"spectral_gap={fmt(report.spectral_gap)} "
             f"gap={report.gap_kind}",
             "re,im,modulus"]
    for lam in report.eigenvalues:
        lam = complex(lam)
        lines.append(f"{fmt(lam.real)},{fmt(lam.imag)},{fmt(abs(lam))}")
    return _text(lines)


def oracle_ly_constants(c):
    row = ",".join([
        fmt(c.p), fmt(c.t), fmt(c.A), fmt(c.B), fmt(c.D), fmt(c.alpha),
        fmt(c.beta), _opt(c.K), _opt(c.C), fmt(c.slope_condition_value),
        str(c.admissible).lower()])
    return _text(["p,t,A,B,D,alpha,beta,K,C,slope_condition_value,admissible",
                  row])


def oracle_ly_verification(v):
    lines = [f"# p={fmt(v.p)} A={fmt(v.A)} alpha={fmt(v.alpha)} "
             f"beta={fmt(v.beta)} grid={v.n} seed={v.seed} "
             f"violations={v.violations}",
             "trial,margin,slack,violation"]
    for i, (margin, slack) in enumerate(zip(v.margins, v.slacks)):
        bad = "true" if margin < -slack else "false"
        lines.append(f"{i},{fmt(margin)},{fmt(slack)},{bad}")
    return _text(lines)


def oracle_variation(r):
    return _text(["lq_exponent,p,A,variation,lq_norm,bv_norm,argmax_radius",
                  ",".join(fmt(x) for x in (
                      r.lq_exponent, r.p, r.A, r.variation, r.lq_norm,
                      r.bv_norm, r.argmax_radius))])


def oracle_correlation(s):
    lines = [f"# kind={s.kind}"]
    if s.fitted_rate is not None:
        lines.append(f"# fitted_rate={fmt(s.fitted_rate)}"
                     f" fit_quality={fmt(s.fit_quality)}")
    else:
        lines.append("# fitted_rate=none (fewer than 4 consecutive values"
                     " above the noise floor 1e-14)")
    lines.append("N,C")
    lines += [f"{int(N)},{fmt(C)}" for N, C in zip(s.N_values, s.C_values)]
    return _text(lines)


def oracle_iterate_series(s):
    n0 = "none" if s.n0 is None else s.n0
    lines = [f"# C={_opt(s.C)} bound={_opt(s.bound)}"
             f" l1_initial={fmt(s.l1_initial)} n0={n0}",
             "n,bv_norm,bound,within_bound"]
    for i, norm in enumerate(s.norms):
        if s.flags is None:
            lines.append(f"{i},{fmt(norm)},,")
        else:
            lines.append(f"{i},{fmt(norm)},{fmt(s.bound)},"
                         f"{str(bool(s.flags[i])).lower()}")
    return _text(lines)


def oracle_trajectory(traj):
    return _text(["t,x,y,z"] + [f"{fmt(t)},{fmt(x)},{fmt(y)},{fmt(z)}"
                                for t, (x, y, z) in zip(traj.t, traj.xyz)])


def oracle_return_map(data):
    return _text(["z_k,z_next"] + [f"{fmt(a)},{fmt(b)}" for a, b in data.pairs])


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("n", (2,) + ROWS[1:])
def test_grid_function_csv(n):
    f = GridFunction(_values(n, 1))
    text = serialize.grid_function_csv(f)
    assert text == oracle_grid_function(f)
    # 17 significant digits: the values read back are the same doubles
    back = np.array([float(row.split(",")[2]) for row in text.splitlines()[1:]])
    assert back.tobytes() == f.values.tobytes()


@functools.cache
def _abs_mismatches():
    """300 complex numbers whose np.abs differs from Python's abs(complex)."""
    rng = np.random.default_rng(2)
    z = rng.normal(size=20_000) + 1j * rng.normal(size=20_000)
    bad = z[np.abs(z) != np.array([abs(complex(v)) for v in z])]
    assert len(bad) >= 300
    return bad[:300]


def _spectral_report(lam, resolved_rows, gap_kind, gap=0.1):
    return SimpleNamespace(
        eigenvalues=lam, resolved=np.arange(len(lam)) < resolved_rows,
        r_ess=1.0 / 3.0, spectral_gap=gap, gap_kind=gap_kind)


@pytest.mark.parametrize("n", ROWS)
def test_spectral_csv(n):
    lam = _values(n, 3) + 1j * _values(n, 4)[::-1]
    k = min(64, n // 2)
    lam[n - k:] = _abs_mismatches()[:k]
    report = _spectral_report(lam, n // 3,
                              gap_kind="bound" if n == 0 else "measured")
    assert serialize.spectral_csv(report) == oracle_spectral(report)


def test_spectral_csv_modulus_is_pythons_abs():
    report = _spectral_report(_abs_mismatches(), 1, gap_kind="measured")
    assert serialize.spectral_csv(report) == oracle_spectral(report)
    # real eigenvalues (a float array) are written with a zero imaginary part
    real = _spectral_report(np.array([1.0, -1.0 / 3.0]), 1, gap_kind="bound")
    assert serialize.spectral_csv(real) == oracle_spectral(real)


def test_spectral_csv_unresolved_gap():
    # unconverged values outside r_ess leave the gap unestablished: a nan
    # gap is written as such, with its own label
    lam = np.array([1.0, 0.5 + 0.01j, 0.5 - 0.01j, 0.1])
    report = _spectral_report(lam, 1, gap_kind="unresolved", gap=math.nan)
    text = serialize.spectral_csv(report)
    assert text == oracle_spectral(report)
    assert text.splitlines()[0] == (
        "# r_ess=0.33333333333333331 resolved_rows=1 spectral_gap=nan "
        "gap=unresolved")


@pytest.mark.parametrize("K, C", [(3.0, 10.0), (None, None), (1e308, -0.0)])
@pytest.mark.parametrize("admissible", [True, False, np.True_])
def test_ly_constants_csv(K, C, admissible):
    c = SimpleNamespace(p=1.0, t=1.5, A=0.125, B=0.125, D=5e-324,
                        alpha=1.0 / 3.0, beta=-1e308, K=K, C=C,
                        slope_condition_value=2.0 / 3.0, admissible=admissible)
    assert serialize.ly_constants_csv(c) == oracle_ly_constants(c)


@pytest.mark.parametrize("n", ROWS)
def test_ly_verification_csv(n):
    margins = _values(n, 5)
    v = SimpleNamespace(p=2.0, A=0.125, alpha=0.5, beta=1e308, n=4096, seed=7,
                        margins=margins, slacks=np.abs(_values(n, 6)),
                        violations=3)
    assert serialize.ly_verification_csv(v) == oracle_ly_verification(v)


@pytest.mark.parametrize("lq", [1.0, float("inf")])
def test_variation_csv(lq):
    r = SimpleNamespace(lq_exponent=lq, p=2.0, A=0.125, variation=-0.0,
                        lq_norm=5e-324, bv_norm=1e308, argmax_radius=1.0 / 3.0)
    assert serialize.variation_csv(r) == oracle_variation(r)


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("rate", [None, 0.3288])
def test_correlation_csv(n, rate):
    s = CorrelationSeries(kind="invariant", C_values=_values(n, 8),
                          fitted_rate=rate,
                          fit_quality=None if rate is None else 0.99982,
                          r_ess=0.5)
    assert serialize.correlation_csv(s) == oracle_correlation(s)


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("bounded", [True, False])
def test_iterate_series_csv(n, bounded):
    norms = _values(n, 9)
    bound = 6.4 if bounded else None
    s = SimpleNamespace(norms=norms, l1_initial=0.5,
                        C=10.0 if bounded else None, bound=bound,
                        flags=norms <= bound if bounded else None,
                        n0=(1 if n else None) if bounded else None)
    assert serialize.iterate_series_csv(s) == oracle_iterate_series(s)


def _trajectory(n):
    return SimpleNamespace(t=np.arange(n) * 0.001,
                           xyz=_values(3 * n, 10).reshape(n, 3))


@pytest.mark.parametrize("n", ROWS)
def test_trajectory_csv(n, tmp_path):
    traj = _trajectory(n)
    expect = oracle_trajectory(traj)
    assert serialize.trajectory_csv(traj) == expect
    # streamed in pieces, an empty one among them, as `lorenz` writes it:
    # the same bytes under one header
    target = tmp_path / "traj.csv"
    half = n // 2
    with serialize.written_together() as stage:
        stage(target, itertools.chain(["t,x,y,z\n"], *(
            serialize.rows((traj.t[a:b], *traj.xyz[a:b].T))
            for a, b in ((0, half), (half, half), (half, n)))))
    assert target.read_bytes() == expect.encode("utf-8")
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("n", ROWS)
def test_return_map_csv(n):
    data = SimpleNamespace(pairs=_values(2 * n, 11).reshape(n, 2))
    assert serialize.return_map_csv(data) == oracle_return_map(data)


def test_write_text_atomic_writes_text_longer_than_one_slice(tmp_path):
    # ~3.3 MB with two-byte characters, so several write slices
    text = "Hölder,é,0.5\n" * 250_000
    target = tmp_path / "big.csv"
    serialize.write_text_atomic(target, text)
    assert target.read_text(encoding="utf-8") == text
    assert list(tmp_path.iterdir()) == [target]


def test_failing_chunks_leave_no_file(tmp_path):
    def chunks():
        yield "t,x,y,z\n"
        raise RuntimeError("formatting failed")

    target = tmp_path / "traj.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        with serialize.written_together() as stage:
            stage(target, chunks())
    assert list(tmp_path.iterdir()) == []


def test_write_trajectory_csv_holds_one_chunk_at_a_time(tmp_path):
    traj = _trajectory(250_000)
    target = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        with serialize.written_together() as stage:
            stage(target, serialize.rows((traj.t, *traj.xyz.T)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text is ~22 MB (a str of it ~40 MB with the join); one 4096-row
    # chunk with its cells and encoded copy is ~1.5 MB
    assert peak < 2e6 < target.stat().st_size / 10, peak


def test_written_together_renames_only_when_the_block_ends(tmp_path):
    kept = tmp_path / "kept.csv"
    kept.write_text("before\n")
    with pytest.raises(RuntimeError, match="later step"):
        with serialize.written_together() as stage:
            stage(kept, ["after\n"])
            stage(tmp_path / "new.csv", ["new\n"])
            raise RuntimeError("later step")
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_text() == "before\n"
    # a rename that fails (the target is a directory) leaves no temp file
    (tmp_path / "dir").mkdir()
    with pytest.raises(ToolError, match="cannot write .*dir"):
        with serialize.written_together() as stage:
            stage(kept, ["after\n"])
            stage(tmp_path / "dir", ["x\n"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "kept.csv"]
    assert kept.read_text() == "after\n"

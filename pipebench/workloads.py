"""Workload definitions and output checks for the pipeline benchmark.

A workload is a list of legs; a leg is one CLI invocation
(`python -m pwexpand.cli <argv>`) plus a check of the files it wrote.
Every check is an oracle that holds for any seed: exact eigenvalues of
Markov Ulam matrices, closed-form invariant densities, exact
Lasota–Yorke constants of linear maps, residuals against an operator
computed here without pwexpand, and exact row/time arithmetic of the
Lorenz trajectory.  Bytes of one seed's output are never compared
against a stored hash.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARKOV = str(ROOT / "configs" / "markov.json")
TRIPLING = str(ROOT / "configs" / "tripling.json")
TENT = str(ROOT / "configs" / "tent.json")
# two full nonlinear branches with undeclared constants, so make_map samples
# s and M and branch inversion needs several Newton steps
NONLINEAR = str(ROOT / "pipebench" / "maps" / "nonlinear.json")
NONLINEAR_FORMULAS = ("2*x + 0.1*sin(2*pi*x)", "2*x - 1 + 0.1*sin(2*pi*x)")

# sizes; see README.md for how they were chosen
MARKOV_SPECTRUM_BINS = 2100    # multiple of 3, dense eigvals path
NONLINEAR_SPECTRUM_BINS = 8192  # ARPACK path
TENT_SPECTRUM_BINS = 4500      # ARPACK path, fails at this commit
ULAM_BINS = 1 << 16
MARKOV_DENSITY_BINS = 3072
LY_TRIALS = 64
LY_GRID = 16384
ITERATES_GRID = 16384
ITERATES_N = 40
VAR_GRID = 65536
LORENZ_T_MAX = 300.0
LORENZ_DT = 0.001
LORENZ_TRANSIENT = 50.0


class CheckFailed(Exception):
    """An output file disagrees with its oracle."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Leg:
    name: str
    argv: tuple
    outputs: tuple          # files written, relative to the work directory
    check: object           # check(workdir) -> None; raises CheckFailed


@dataclass(frozen=True)
class Probe:
    """Inputs for the in-process layer probes of one workload."""
    map: str
    edge_bins: tuple        # bin counts whose edges are inverted
    replay_bins: int        # grid of the replayed test functions
    replay_trials: int


@dataclass(frozen=True)
class Workload:
    name: str
    setup_map: str
    legs: tuple
    probe: Probe
    cap_s: float            # per-invocation time cap, in reference-scaled seconds


def _read(workdir, name):
    with open(f"{workdir}/{name}", encoding="utf-8") as fh:
        return fh.read()


def _table(text):
    """Header-checked CSV body: (comment lines, header, rows of fields)."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    _require(body, "empty CSV")
    return comments, body[0], [ln.split(",") for ln in body[1:]]


def _fmt(x):
    return f"{float(x):.17g}"


def _comment_fields(comment):
    return dict(item.split("=", 1) for item in comment.lstrip("# ").split()
                if "=" in item)


# --- spectral -------------------------------------------------------------

def _eigenvalues(workdir, name, expected_rows):
    _, header, rows = _table(_read(workdir, name))
    _require(header == "re,im,modulus", f"{name}: header {header!r}")
    _require(len(rows) == expected_rows,
             f"{name}: {len(rows)} eigenvalues, expected {expected_rows}")
    vals = [complex(float(r[0]), float(r[1])) for r in rows]
    mods = [float(r[2]) for r in rows]
    for lam, mod in zip(vals, mods):
        _require(abs(abs(lam) - mod) <= 1e-12, f"{name}: modulus column disagrees")
    _require(all(a >= b for a, b in zip(mods, mods[1:])),
             f"{name}: eigenvalues not sorted by decreasing modulus")
    _require(abs(vals[0] - 1.0) <= 1e-8, f"{name}: leading eigenvalue {vals[0]}")
    return vals


def _check_markov_spectrum(workdir):
    # n divisible by 3 puts 2/3 on the grid, so the Ulam matrix carries the
    # Markov-partition eigenvalues 1 and -1/3 exactly (to rounding); values
    # inside r_ess = 2/3 drift with n and are not checked.
    vals = _eigenvalues(workdir, "spectrum_markov.csv", MARKOV_SPECTRUM_BINS)
    gap = min(abs(lam + 1.0 / 3.0) for lam in vals)
    _require(gap <= 1e-8, f"spectrum_markov.csv: -1/3 missing (closest {gap:g})")


def _check_arpack_spectrum(name):
    def check(workdir):
        vals = _eigenvalues(workdir, name, 8)
        _require(all(abs(lam) < 1.0 - 1e-6 for lam in vals[1:]),
                 f"{name}: unit eigenvalue is not simple")
    return check


def spectral(seed):
    legs = (
        Leg("markov_dense",
            ("spectrum", MARKOV, "--bins", str(MARKOV_SPECTRUM_BINS),
             "--top", str(MARKOV_SPECTRUM_BINS), "--no-plot",
             "--out", "spectrum_markov.csv"),
            ("spectrum_markov.csv",), _check_markov_spectrum),
        Leg("nonlinear_arpack",
            ("spectrum", NONLINEAR, "--bins", str(NONLINEAR_SPECTRUM_BINS),
             "--top", "8", "--no-plot", "--out", "spectrum_nonlinear.csv"),
            ("spectrum_nonlinear.csv",),
            _check_arpack_spectrum("spectrum_nonlinear.csv")),
        Leg("tent_arpack",
            ("spectrum", TENT, "--bins", str(TENT_SPECTRUM_BINS),
             "--top", "8", "--no-plot", "--out", "spectrum_tent.csv"),
            ("spectrum_tent.csv",), _check_arpack_spectrum("spectrum_tent.csv")),
    )
    # 1.5 times the dense leg: the killed tent leg adds cap_s to wall_s,
    # so the cap is as low as a run that never kills the dense leg allows
    return Workload("spectral", MARKOV, legs,
                    Probe(MARKOV, (MARKOV_SPECTRUM_BINS,), MARKOV_SPECTRUM_BINS, 16),
                    cap_s=7.5)


# --- bv_sweep -------------------------------------------------------------

def _check_ly_verify(workdir):
    comments, header, rows = _table(_read(workdir, "ly_verify.csv"))
    _require(header == "trial,margin,slack,violation", "ly_verify.csv: header")
    meta = _comment_fields(comments[0])
    # markov at p = 1: s = 3/2, M = 0, so alpha = 2/s and beta = (1/s)/A
    _require(float(meta["alpha"]) == 4.0 / 3.0, f"alpha {meta['alpha']}")
    _require(abs(float(meta["beta"]) - 16.0 / 3.0) <= 1e-15, f"beta {meta['beta']}")
    _require(meta["violations"] == "0", f"{meta['violations']} violations")
    _require(len(rows) == LY_TRIALS, f"ly_verify.csv: {len(rows)} trials")
    for r in rows:
        _require(r[3] == "false" and float(r[1]) >= -float(r[2]),
                 f"ly_verify.csv: trial {r[0]} violates the inequality")


def _check_iterates(workdir):
    comments, header, rows = _table(_read(workdir, "iterates.csv"))
    _require(header == "n,bv_norm,bound,within_bound", "iterates.csv: header")
    meta = _comment_fields(comments[0])
    # tripling at p = 1, A = 1/8: alpha = 2/3, K = 1 - alpha + beta, C = 10
    _require(abs(float(meta["C"]) - 10.0) <= 1e-12, f"iterates C = {meta['C']}")
    _require(meta["n0"] != "none", "iterates: bound never holds")
    _require(len(rows) == ITERATES_N + 1, f"iterates.csv: {len(rows)} rows")
    n0 = int(meta["n0"])
    _require(all(r[3] == "true" for r in rows[n0:]),
             "iterates.csv: bound fails after n0")


def _check_ly(workdir):
    _, header, rows = _table(_read(workdir, "ly.csv"))
    cols = dict(zip(header.split(","), rows[0]))
    _require(abs(float(cols["alpha"]) - 2.0 / 3.0) <= 1e-15, f"ly alpha {cols['alpha']}")
    _require(abs(float(cols["C"]) - 10.0) <= 1e-12, f"ly C {cols['C']}")
    _require(cols["admissible"] == "true", "ly: tripling not admissible")


def _check_var(workdir):
    _, header, rows = _table(_read(workdir, "var.csv"))
    cols = {k: float(v) for k, v in zip(header.split(","), rows[0])}
    # ||sin(2 pi x)||_1 = 2/pi; cell averaging moves it by O(1/n^2)
    _require(abs(cols["lq_norm"] - 2.0 / math.pi) <= 1e-6, f"lq_norm {cols['lq_norm']}")
    _require(cols["bv_norm"] == cols["variation"] + cols["lq_norm"], "bv_norm != var + lq")


def bv_sweep(seed):
    legs = (
        Leg("ly_verify",
            ("ly-verify", MARKOV, "--p", "1", "--A", "0.125",
             "--trials", str(LY_TRIALS), "--grid", str(LY_GRID),
             "--seed", str(seed), "--out", "ly_verify.csv"),
            ("ly_verify.csv",), _check_ly_verify),
        Leg("iterates",
            ("iterates", TRIPLING, "--f", "sin(2*pi*x)", "--p", "1",
             "--A", "0.125", "--n", str(ITERATES_N), "--grid", str(ITERATES_GRID),
             "--out", "iterates.csv"),
            ("iterates.csv",), _check_iterates),
        Leg("ly_auto_L",
            ("ly", TRIPLING, "--p", "1", "--A", "0.125", "--auto-L",
             "--out", "ly.csv"),
            ("ly.csv",), _check_ly),
        Leg("var",
            ("var", "--f", "sin(2*pi*x)", "--q", "1", "--p", "2",
             "--A", "0.125", "--grid", str(VAR_GRID), "--out", "var.csv"),
            ("var.csv",), _check_var),
    )
    return Workload("bv_sweep", MARKOV, legs,
                    Probe(MARKOV, (LY_GRID,), LY_GRID, 48), cap_s=10.0)


# --- ulam_density ---------------------------------------------------------

def _density(workdir, name, n):
    _, header, rows = _table(_read(workdir, name))
    _require(header == "cell_index,midpoint,value", f"{name}: header")
    _require(len(rows) == n, f"{name}: {len(rows)} cells, expected {n}")
    for k in (0, n // 2, n - 1):
        _require(rows[k][0] == str(k) and rows[k][1] == _fmt((k + 0.5) / n),
                 f"{name}: row {k} index/midpoint")
    return [float(r[2]) for r in rows]


def _nonlinear_fp_residual(h):
    """||Ph - h||_1 for the pointwise transfer operator of the nonlinear
    map at the cell midpoints, h read as a step function.  Preimages come
    from bisection and derivatives from the closed form, so nothing here
    is shared with pwexpand's inversion or Ulam assembly."""
    import numpy as np

    n = len(h)
    ys = (np.arange(n) + 0.5) / n
    ph = np.zeros(n)
    for shift in (0.0, 1.0):      # branch k maps [k/2, (k+1)/2] onto [0, 1]
        lo = np.full(n, shift / 2.0)
        hi = lo + 0.5
        for _ in range(60):       # each branch is increasing
            mid = (lo + hi) / 2.0
            below = 2.0 * mid - shift + 0.1 * np.sin(2.0 * np.pi * mid) < ys
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        xs = (lo + hi) / 2.0
        slope = 2.0 + 0.2 * np.pi * np.cos(2.0 * np.pi * xs)
        ph += h[np.minimum((xs * n).astype(int), n - 1)] / slope
    return float(np.mean(np.abs(ph - h)))


def _check_nonlinear_density(workdir):
    import numpy as np

    branches = json.loads(Path(NONLINEAR).read_text())["branches"]
    _require(tuple(b["formula"] for b in branches) == NONLINEAR_FORMULAS,
             "nonlinear.json no longer matches the map the oracle evaluates")
    h = np.array(_density(workdir, "density_nonlinear.csv", ULAM_BINS))
    _require(abs(np.mean(h) - 1.0) <= 1e-12, f"density mean {np.mean(h)!r}")
    # the Ulam density is within O(1/n) of the fixed point of the pointwise
    # operator: measured 0.036/n at n = 2^12 and 2^16
    residual = _nonlinear_fp_residual(h)
    _require(residual <= 0.1 / ULAM_BINS, f"||Ph - h||_1 = {residual:g}")


def _check_nonlinear_correlation(workdir):
    # C(0) = mu(x^2) - mu(x)^2 against the density of the density leg; the
    # cell averages of x are the midpoints exactly
    h = _density(workdir, "density_nonlinear.csv", ULAM_BINS)
    n = ULAM_BINS
    xs = [(k + 0.5) / n for k in range(n)]
    m1 = math.fsum(x * w for x, w in zip(xs, h)) / n
    m2 = math.fsum(x * x * w for x, w in zip(xs, h)) / n
    comments, header, rows = _table(_read(workdir, "correlation_nonlinear.csv"))
    _require(header == "N,C" and len(rows) == 21, "correlation_nonlinear.csv: shape")
    c0 = float(rows[0][1])
    _require(abs(c0 - (m2 - m1 * m1)) <= 1e-9, f"C(0) = {c0!r}, expected {m2 - m1 * m1!r}")
    rate = _comment_fields(comments[1]).get("fitted_rate")
    _require(rate is not None and 0.0 < float(rate) < 1.0, f"nonlinear rate {rate}")


def _check_tripling_correlation(workdir):
    comments, _, rows = _table(_read(workdir, "correlation_tripling.csv"))
    rate = float(_comment_fields(comments[1])["fitted_rate"])
    _require(abs(rate - 1.0 / 3.0) <= 0.02, f"tripling rate {rate}")
    _require(len(rows) == 21, "correlation_tripling.csv: rows")


def _check_markov_density(workdir):
    n = MARKOV_DENSITY_BINS
    h = _density(workdir, "density_markov.csv", n)
    cut = 2 * n // 3
    worst = max(max(abs(v - 9.0 / 8.0) for v in h[:cut]),
                max(abs(v - 3.0 / 4.0) for v in h[cut:]))
    _require(worst <= 1e-12, f"markov density off 9/8, 3/4 by {worst:g}")


def ulam_density(seed):
    grid = str(ULAM_BINS)
    legs = (
        Leg("nonlinear_density",
            ("density", NONLINEAR, "--bins", grid, "--no-plot",
             "--out", "density_nonlinear.csv"),
            ("density_nonlinear.csv",), _check_nonlinear_density),
        Leg("nonlinear_correlate",
            ("correlate", NONLINEAR, "--f", "x", "--g", "x", "--N", "20",
             "--grid", grid, "--wrt", "invariant", "--no-plot",
             "--out", "correlation_nonlinear.csv"),
            ("correlation_nonlinear.csv",), _check_nonlinear_correlation),
        Leg("tripling_correlate",
            ("correlate", TRIPLING, "--f", "x", "--g", "x", "--N", "20",
             "--grid", "2187", "--wrt", "invariant", "--no-plot",
             "--out", "correlation_tripling.csv"),
            ("correlation_tripling.csv",), _check_tripling_correlation),
        Leg("markov_density",
            ("density", MARKOV, "--bins", str(MARKOV_DENSITY_BINS), "--no-plot",
             "--out", "density_markov.csv"),
            ("density_markov.csv",), _check_markov_density),
    )
    return Workload("ulam_density", NONLINEAR, legs,
                    Probe(NONLINEAR, (ULAM_BINS,), ULAM_BINS, 8), cap_s=10.0)


# --- lorenz ---------------------------------------------------------------

def lorenz_initial_point(seed):
    rng = random.Random(seed)
    return tuple(1.0 + rng.uniform(-0.5, 0.5) for _ in range(3))


def _check_lorenz(workdir):
    text = _read(workdir, "lorenz_trajectory.csv")
    lines = text.split("\n")
    _require(lines[0] == "t,x,y,z" and lines[-1] == "", "trajectory: header/newline")
    rows = lines[1:-1]
    first = round(LORENZ_TRANSIENT / LORENZ_DT)
    last = round(LORENZ_T_MAX / LORENZ_DT)
    _require(len(rows) == last - first + 1,
             f"trajectory: {len(rows)} rows, expected {last - first + 1}")
    z = []
    for k, row in enumerate(rows, start=first):
        fields = row.split(",")
        # t = k * dt exactly, and every row re-emits to the same bytes
        _require(fields[0] == _fmt(k * LORENZ_DT), f"trajectory: t at row {k}")
        _require(",".join(_fmt(v) for v in fields) == row,
                 f"trajectory: row {k} does not round-trip")
        z.append(float(fields[3]))
    maxima = sum(1 for a, b, c in zip(z, z[1:], z[2:]) if a < b >= c)
    _, header, pairs = _table(_read(workdir, "lorenz_return_map.csv"))
    _require(header == "z_k,z_next" and len(pairs) == maxima - 1,
             f"return map: {len(pairs)} pairs for {maxima} maxima")
    _require(all(a[1] == b[0] for a, b in zip(pairs, pairs[1:])),
             "return map: pairs do not chain")
    fit = json.loads(_read(workdir, "lorenz_fitted_map.json"))
    br = fit["branches"]
    _require(len(br) == 2 and br[0]["lo"] == 0.0 and br[1]["hi"] == 1.0
             and br[0]["hi"] == br[1]["lo"], "fitted map: branches do not tile [0,1]")


def lorenz(seed):
    x0, y0, z0 = lorenz_initial_point(seed)
    legs = (
        Leg("lorenz",
            ("lorenz", "--dt", _fmt(LORENZ_DT), "--t-max", _fmt(LORENZ_T_MAX),
             "--transient", _fmt(LORENZ_TRANSIENT),
             "--x0", _fmt(x0), "--y0", _fmt(y0), "--z0", _fmt(z0),
             "--out-trajectory", "lorenz_trajectory.csv",
             "--out-map", "lorenz_return_map.csv",
             "--out-fit", "lorenz_fitted_map.json"),
            ("lorenz_trajectory.csv", "lorenz_return_map.csv",
             "lorenz_fitted_map.json"),
            _check_lorenz),
    )
    return Workload("lorenz", NONLINEAR, legs,
                    Probe(NONLINEAR, (4096,), 4096, 8), cap_s=10.0)


WORKLOADS = {"spectral": spectral, "bv_sweep": bv_sweep,
             "ulam_density": ulam_density, "lorenz": lorenz}


def main(argv):
    """Check one leg's outputs: workloads.py WORKLOAD SEED LEG WORKDIR."""
    workload, seed, leg_name, workdir = argv
    leg = next(leg for leg in WORKLOADS[workload](int(seed)).legs
               if leg.name == leg_name)
    try:
        leg.check(workdir)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as err:
        print(f"{type(err).__name__}: {err}")
        return 1
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main(sys.argv[1:]))

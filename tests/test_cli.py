"""CLI surface: argument handling, exit codes, stdout messages, and the
CSV files each subcommand leaves behind.

Everything runs in-process through main(argv) except the tests that need
a fresh interpreter: the console-script entry point declared in
pyproject.toml, run the way the wrapper that pip generates for it does,
the import checks (scipy, and numpy.random with what it pulls in, which
no subcommand loads), and a formula whose numpy warnings would reach a
user's stderr.
"""

import argparse
import contextlib
import dataclasses
import errno
import gc
import io
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pwexpand
from pwexpand import (analysis, kernels, lorenz, maps, plotting, serialize,
                      transfer)
from pwexpand.cli import build_parser, main
from pwexpand.grid import GridFunction, project, variation
from pwexpand.mapconfig import load_map
from pwexpand.maps import validate

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
TRIPLING = str(CONFIGS / "tripling.json")
DOUBLING = str(CONFIGS / "doubling.json")
MARKOV = str(CONFIGS / "markov.json")
NONLINEAR = str(ROOT / "pipebench" / "maps" / "nonlinear.json")


def _grid_csv_values(text):
    """The value column of a grid-function CSV, read without pwexpand."""
    lines = text.splitlines()
    assert lines[0] == "cell_index,midpoint,value"
    return np.array([float(line.split(",")[2]) for line in lines[1:]])


def _readme_cli_lines():
    """The `pwexpand ...` lines of README's `## CLI` sh block."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith("pwexpand ")]


def test_readme_cli_lines_parse():
    # a renamed or dropped option fails here instead of leaving the
    # README stale; nothing is run
    lines = _readme_cli_lines()
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit as exc:
            pytest.fail(f"README line does not parse ({exc.code}): {line}")


def _readme_library_blocks():
    """The `python` code blocks of README's `## Library` section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return [part.split("```", 1)[0]
            for part in section.split("```python\n")[1:]]


def test_readme_library_blocks_run():
    # a renamed function or changed signature fails here instead of
    # leaving the README stale
    blocks = _readme_library_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def _fresh_python(script, *argv, cwd=None):
    """stdout of `script` run with `argv` in a fresh interpreter on this
    pwexpand, so no module an earlier test imported counts as loaded."""
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_console_script_runs():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["pwexpand"]
    module, func = entry.split(":")
    # the body of the generated console-script wrapper
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.exit({func}())")
    assert (_fresh_python(wrapper, "check-slope", TRIPLING, "--p", "1")
            == "0.66666666666666663 < 1: admissible\n")


# runs main(sys.argv[2:]), then prints its exit code and every loaded
# module that, or whose top-level package, is named in sys.argv[1] (a
# comma-separated list)
_MAIN_SCRIPT = (
    "import sys\n"
    "from pwexpand.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "names = sys.argv[1].split(',')\n"
    "print(code, sorted(m for m in sys.modules if m in names\n"
    "                   or m.split('.')[0] in names))\n")


def test_scipy_is_imported_only_where_it_is_called():
    # importing the CLI, an oscillation profile, an Ulam matrix, its
    # density and a spectrum on either side of DENSE_EIG_LIMIT load none of
    # these scipy modules; only the CSR view UlamOperator.matrix does
    script = (
        "import sys\n"
        "import pwexpand.cli\n"
        "def loaded():\n"
        "    return [m in sys.modules for m in\n"
        "            ('scipy.ndimage', 'scipy.sparse', 'scipy.sparse.linalg')]\n"
        "print(loaded())\n"
        "from pwexpand import grid, transfer\n"
        "from pwexpand.mapconfig import load_map\n"
        "grid.variation(grid.GridFunction([0.0, 1.0, 0.0, 1.0]), 1.0, 1.0, 0.5)\n"
        "print(loaded())\n"
        f"pmap = load_map({MARKOV!r})\n"
        "op = transfer.ulam_matrix(pmap, 300)\n"
        "transfer.invariant_density(op)\n"
        "print(loaded())\n"
        "transfer.spectrum(op, 2)\n"
        "print(loaded())\n"
        "transfer.spectrum(transfer.ulam_matrix(pmap, transfer.DENSE_EIG_LIMIT + 1), 2)\n"
        "print(loaded())\n"
        "op.matrix\n"
        "print(loaded())\n")
    assert _fresh_python(script) == ("[False, False, False]\n" * 5
                                     + "[False, True, False]\n")


def test_cli_import_loads_no_secrets_hashlib_or_multiprocessing():
    # temp file names come from os.urandom and the Lorenz child from a
    # bare os.fork, so none of these is worth its import time
    script = ("import sys\n"
              "import pwexpand.cli\n"
              "print([m for m in ('secrets', 'hashlib', 'multiprocessing')\n"
              "       if m in sys.modules])\n")
    assert _fresh_python(script) == "[]\n"


@pytest.mark.parametrize("argv", [
    ["check-slope", NONLINEAR, "--p", "1"],
    ["density", NONLINEAR, "--bins", "1024", "--no-plot",
     "--out", "density.csv"],
    ["correlate", NONLINEAR, "--f", "x", "--g", "x", "--N", "4", "--grid",
     "1024", "--wrt", "invariant", "--no-plot", "--out", "correlation.csv"],
    ["ly-verify", NONLINEAR, "--p", "2", "--A", "0.125", "--trials", "2",
     "--grid", "256", "--out", "ly_verify.csv"],
    # t > 1, so the L estimator draws its test functions
    ["ly", TRIPLING, "--p", "2", "--t", "1.5", "--A", "0.125", "--auto-L",
     "--out", "ly.csv"],
    # above DENSE_EIG_LIMIT, so the Krylov start vector is drawn
    ["spectrum", str(CONFIGS / "tent.json"), "--bins", "4500", "--top", "8",
     "--no-plot", "--out", "spectrum.csv"],
], ids=["check-slope", "density", "correlate-invariant", "ly-verify",
        "ly-auto-L", "spectrum-krylov"])
def test_no_subcommand_loads_numpy_random(argv, tmp_path):
    # numpy.random brings secrets, hashlib and libcrypto with it; every
    # seeded number is drawn by random.Random.random(), and a map load
    # samples its Hölder constants on a grid
    out = _fresh_python(_MAIN_SCRIPT, "numpy.random,secrets,hashlib", *argv,
                        cwd=tmp_path)
    assert out.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv", [
    ["var", "--f", "sin(2*pi*x)", "--q", "2.5", "--p", "2", "--A", "0.125",
     "--grid", "256", "--out", "var.csv"],
    ["ly-verify", MARKOV, "--p", "1", "--A", "0.125", "--trials", "3",
     "--grid", "256", "--out", "ly_verify.csv"],
    ["iterates", TRIPLING, "--f", "x", "--p", "1", "--A", "0.125", "--n", "3",
     "--grid", "81", "--out", "iterates.csv"],
    # t > 1, so the L estimator runs
    ["ly", TRIPLING, "--p", "2", "--t", "1.5", "--A", "0.125", "--auto-L",
     "--out", "ly.csv"],
    # these build an Ulam matrix; 300 bins is a dense spectrum
    ["density", MARKOV, "--bins", "300", "--no-plot", "--out", "density.csv"],
    ["correlate", TRIPLING, "--f", "x", "--g", "x", "--N", "4", "--grid", "243",
     "--wrt", "invariant", "--no-plot", "--out", "correlation.csv"],
    ["spectrum", MARKOV, "--bins", "300", "--top", "2", "--no-plot",
     "--out", "spectrum.csv"],
], ids=["var", "ly-verify", "iterates", "ly-auto-L", "density",
        "correlate-invariant", "spectrum-dense"])
def test_variation_subcommands_load_no_scipy(argv, tmp_path):
    out = _fresh_python(_MAIN_SCRIPT, "scipy", *argv, cwd=tmp_path)
    assert out.splitlines()[-1] == "0 []"
    assert (tmp_path / argv[-1]).exists()


def test_check_slope_verdicts(capsys):
    assert main(["check-slope", TRIPLING, "--p", "1"]) == 0
    assert capsys.readouterr().out == "0.66666666666666663 < 1: admissible\n"
    assert main(["check-slope", DOUBLING, "--p", "1"]) == 0
    assert capsys.readouterr().out == "1 >= 1: inadmissible\n"


def test_ly_reports_inadmissible_without_failing(tmp_path, capsys):
    out = tmp_path / "ly.csv"
    assert main(["ly", DOUBLING, "--p", "1", "--out", str(out)]) == 0
    assert "(inadmissible)" in capsys.readouterr().out
    header, row = out.read_text().splitlines()
    assert header.split(",")[8] == "C"
    fields = row.split(",")
    assert fields[5] == "1"   # alpha
    assert fields[8] == ""    # no C when alpha >= 1
    assert fields[10] == "false"


def test_ly_rejects_A_together_with_auto_A(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["ly", TRIPLING, "--p", "1", "--A", "0.1", "--auto-A",
              "--out", str(tmp_path / "ly.csv")])
    assert exc.value.code == 2


def test_ly_auto_A_picks_the_first_admissible_cap(tmp_path, capsys):
    # on tripling beta = (1/3)/A falls with A, so the best cap is 1/8, the
    # CSV is the one written at --A 0.125 and stdout ends with C = 10
    out, plain = tmp_path / "ly.csv", tmp_path / "plain.csv"
    assert main(["ly", TRIPLING, "--p", "1", "--auto-A",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "alpha = 0.66666666666666663 (admissible), beta = 2.6666666666666665,"
        f" A = 0.125, C = 9.9999999999999982 -> {out}\n")
    assert main(["ly", TRIPLING, "--p", "1", "--out", str(plain)]) == 0
    assert out.read_bytes() == plain.read_bytes()


def _curved_tripling_config(tmp_path, M):
    doc = json.loads(Path(TRIPLING).read_text())
    for branch in doc["branches"]:
        branch["holder_constant"] = M
    cfg = tmp_path / f"tripling_M{M:g}.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


def test_ly_auto_A_tames_a_huge_curvature(tmp_path, capsys):
    out = tmp_path / "ly.csv"
    cfg = _curved_tripling_config(tmp_path, 1e6)
    assert main(["ly", cfg, "--p", "1", "--auto-A", "--out", str(out)]) == 0
    assert "(admissible)" in capsys.readouterr().out
    assert out.read_text().rstrip().endswith(",true")


def test_ly_auto_A_whose_cap_underflows_exits_one(tmp_path, capsys):
    out = tmp_path / "ly.csv"
    cfg = _curved_tripling_config(tmp_path, 1e300)
    assert main(["ly", cfg, "--p", "2", "--auto-A", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: the best radius cap ")
    assert "underflows to 0" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("M, argv", [
    (0.0, ["ly", "--p", "1", "--A", "5e-324"]),
    (1e308, ["ly", "--p", "1", "--auto-A"]),
    (0.0, ["ly-verify", "--p", "1", "--A", "5e-324", "--trials", "2",
           "--grid", "64"]),
    (0.0, ["iterates", "--f", "x", "--p", "1", "--A", "5e-324", "--n", "2",
           "--grid", "64"]),
], ids=["ly", "ly-auto-A", "ly-verify", "iterates"])
def test_constants_that_overflow_exit_one(tmp_path, capsys, M, argv):
    # beta carries 1/A, so a subnormal cap (given, or picked by --auto-A
    # for a declared M near the largest double) makes it inf
    cfg = _curved_tripling_config(tmp_path, M)
    out = tmp_path / "out.csv"
    assert main([argv[0], cfg, *argv[1:], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: alpha = ")
    assert "beta = inf" in captured.err
    assert captured.err.endswith("the constants overflow a double\n")
    assert not out.exists()


def test_ly_rejects_L_together_with_auto_L(tmp_path):
    out = tmp_path / "ly.csv"
    with pytest.raises(SystemExit) as exc:
        main(["ly", TRIPLING, "--p", "2", "--t", "1.5", "--L", "5",
              "--auto-L", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_ly_auto_A_at_t_above_one_exits_before_estimating(
        tmp_path, capsys, monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("L was estimated")

    monkeypatch.setattr(analysis, "estimate_equicontinuity_L", no_estimate)
    out = tmp_path / "ly.csv"
    assert main(["ly", TRIPLING, "--p", "2", "--t", "1.5", "--auto-L",
                 "--auto-A", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --auto-A is only available for t = 1\n"
    assert not out.exists()


def test_ly_auto_L_with_t_above_p_exits_before_estimating(
        tmp_path, capsys, monkeypatch):
    def no_operator(*args, **kwargs):
        raise AssertionError("L was estimated")

    # the estimate's first costly step
    monkeypatch.setattr(analysis, "ulam_matrix", no_operator)
    out = tmp_path / "ly.csv"
    argv = ["ly", TRIPLING, "--p", "1", "--t", "1.5", "--out", str(out)]
    assert main(argv) == 1
    plain = capsys.readouterr()
    assert plain.err == "error: t must lie in [1, p], got t=1.5, p=1.0\n"
    assert main(argv + ["--auto-L"]) == 1
    assert capsys.readouterr() == plain
    assert not out.exists()


def test_ly_at_t_one_uses_no_L(tmp_path, capsys, monkeypatch):
    # the t = 1 constants do not read L, so none is estimated, and the
    # CSV is the one written without an L
    def no_estimate(*args, **kwargs):
        raise AssertionError("L was estimated")

    monkeypatch.setattr(analysis, "estimate_equicontinuity_L", no_estimate)
    plain = tmp_path / "plain.csv"
    assert main(["ly", TRIPLING, "--p", "1", "--out", str(plain)]) == 0
    capsys.readouterr()
    for extra in (["--auto-L"], ["--L", "5"]):
        out = tmp_path / "ly.csv"
        assert main(["ly", TRIPLING, "--p", "1", *extra, "--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()
        assert capsys.readouterr().out.splitlines()[0] == (
            "L is not used at t = 1")


def test_ly_auto_L_says_when_the_estimate_is_its_floor(tmp_path, capsys,
                                                      monkeypatch):
    # the tripling map's sampled iterates never outgrow their start, so
    # the estimate is its starting value 1 and the CSV is that of --L 1
    out, given = tmp_path / "ly.csv", tmp_path / "given.csv"
    argv = ["ly", TRIPLING, "--p", "2", "--t", "1.5"]
    assert main(argv + ["--auto-L", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "estimated L = 1 (floor: no sampled iterate exceeded its start; "
        "empirical, non-rigorous)")
    assert main(argv + ["--L", "1", "--out", str(given)]) == 0
    assert out.read_bytes() == given.read_bytes()
    capsys.readouterr()
    monkeypatch.setattr(analysis, "estimate_equicontinuity_L",
                        lambda *args, **kwargs: 1.5)
    assert main(argv + ["--auto-L", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "estimated L = 1.5 (empirical, non-rigorous)")


def _quadratic_branches(tmp_path, epsilon):
    """Two branches with tau'' = 0.8; the sampled M_i shrinks with epsilon
    (0.436 at epsilon = 0.25, 0.8 at epsilon = 1)."""
    cfg = tmp_path / f"quadratic_{epsilon}.json"
    cfg.write_text(json.dumps({"v": 1, "epsilon": epsilon, "branches": [
        {"lo": 0.0, "hi": 0.5, "formula": "1.8*x + 0.4*x^2"},
        {"lo": 0.5, "hi": 1.0, "formula": "1.8*(x-0.5) + 0.4*(x-0.5)^2"}]}))
    return str(cfg)


def test_ly_needs_p_at_least_one_over_epsilon(tmp_path, capsys):
    # an epsilon-Hoelder M is the constant at exponent 1/p only when
    # 1/p <= epsilon; below that the constants would read the wrong M
    cfg = _quadratic_branches(tmp_path, 0.25)
    out = str(tmp_path / "out.csv")
    message = ("error: p must be at least 1/epsilon = 4 for the map's "
               "epsilon = 0.25, got p=1.0\n")
    for argv in (["ly", cfg, "--p", "1", "--A", "0.01"],
                 ["ly-verify", cfg, "--p", "1", "--A", "0.01",
                  "--trials", "2", "--grid", "64"],
                 ["iterates", cfg, "--f", "x", "--p", "1", "--A", "0.01",
                  "--n", "2"]):
        assert main(argv + ["--out", out]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == message, argv
        assert captured.out == ""
    assert not os.path.exists(out)
    assert main(["ly", cfg, "--p", "4", "--A", "0.01", "--out", out]) == 0
    assert "alpha = " in capsys.readouterr().out
    # check-slope reads no Hoelder constant
    assert main(["check-slope", cfg, "--p", "1"]) == 0
    assert capsys.readouterr().out == "1.1122233344455565 >= 1: inadmissible\n"


def test_ly_auto_A_needs_p_at_least_one_over_epsilon(tmp_path, capsys):
    cfg = tmp_path / "tripling_eps.json"
    doc = json.loads(Path(TRIPLING).read_text())
    doc["epsilon"] = 0.5
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "ly.csv"
    assert main(["ly", str(cfg), "--p", "1", "--auto-A",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: p must be at least 1/epsilon = 2 for the map's "
        "epsilon = 0.5, got p=1.0\n")
    assert main(["ly", str(cfg), "--p", "2", "--auto-A",
                 "--out", str(out)]) == 0


def test_ly_at_epsilon_one_keeps_its_csv(tmp_path, capsys):
    out = tmp_path / "ly.csv"
    assert main(["ly", _quadratic_branches(tmp_path, 1.0), "--p", "1",
                 "--A", "0.01", "--out", str(out)]) == 0
    assert out.read_text() == (
        "p,t,A,B,D,alpha,beta,K,C,slope_condition_value,admissible\n"
        "1,1,0.01,0.01,0.0024740814913709478,1.1177336047847488,"
        "56.244793794698332,56.127060189913585,,1.1122233344455565,false\n")


def test_density_writes_values_and_plot(tmp_path, capsys):
    out = tmp_path / "density.csv"
    assert main(["density", MARKOV, "--bins", "300", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cell_index,midpoint,value"
    assert len(lines) == 301
    assert float(lines[1].split(",")[2]) == pytest.approx(9 / 8, abs=1e-10)
    assert float(lines[300].split(",")[2]) == pytest.approx(3 / 4, abs=1e-10)
    svg = tmp_path / "density.svg"
    captured = capsys.readouterr()
    if plotting.HAVE_MPL:
        assert svg.exists()
        assert f"plot -> {svg}" in captured.out
    else:
        assert not svg.exists()
        assert "skipped plot" in captured.err


def test_density_csv_round_trips_byte_identically(tmp_path):
    out = tmp_path / "density.csv"
    assert main(["density", MARKOV, "--bins", "64", "--no-plot",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert serialize.grid_function_csv(
        GridFunction(_grid_csv_values(text))) == text


def test_density_frees_the_operator_before_building_the_csv(tmp_path,
                                                           monkeypatch):
    # the Ulam triplets are dead by the time the CSV text is built, so the
    # two never share the peak
    refs = []
    build = transfer.ulam_matrix

    def tracked(pmap, n):
        op = build(pmap, n)
        refs.append(weakref.ref(op))
        return op

    seen = []
    csv = serialize.grid_function_csv

    def check(h):
        gc.collect()
        seen.append(refs[0]() is None)
        return csv(h)

    monkeypatch.setattr(transfer, "ulam_matrix", tracked)
    monkeypatch.setattr(serialize, "grid_function_csv", check)
    assert main(["density", MARKOV, "--bins", "300", "--no-plot",
                 "--out", str(tmp_path / "density.csv")]) == 0
    assert seen == [True]


def test_density_bytes_equal_correlates_density(tmp_path):
    # density and correlate's density share one stopping rule
    out = tmp_path / "density.csv"
    assert main(["density", MARKOV, "--bins", "300", "--no-plot",
                 "--out", str(out)]) == 0
    got = _grid_csv_values(out.read_text())
    want = analysis._unique_invariant_density(
        transfer.ulam_matrix(load_map(MARKOV), 300)).values
    assert got.tobytes() == want.tobytes()


def test_failed_edge_inversion_names_the_branch_once(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(maps, "_INVERSE_MAX_ITER", 1)
    out = tmp_path / "d.csv"
    assert main(["density", str(ROOT / "pipebench" / "maps" / "nonlinear.json"),
                 "--bins", "64", "--no-plot", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: branch inversion did not reach tol=")
    assert err.count("\n") == 1 and err.count("2*x + 0.1*sin(2*pi*x)") == 1
    assert not out.exists()


def test_density_has_no_tolerance_options(tmp_path):
    for opt in ("--tol", "--max-iters"):
        with pytest.raises(SystemExit) as exc:
            main(["density", MARKOV, "--bins", "30", opt, "1e-12",
                  "--no-plot", "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2


def test_spectrum_reports_ergodic_components(tmp_path, capsys):
    cfg = tmp_path / "blocks.json"
    cfg.write_text(json.dumps({
        "v": 1, "epsilon": 1.0,
        "branches": [
            {"lo": 0.0, "hi": 0.25, "formula": "2*x"},
            {"lo": 0.25, "hi": 0.5, "formula": "2*x - 0.5"},
            {"lo": 0.5, "hi": 0.75, "formula": "2*x - 0.5"},
            {"lo": 0.75, "hi": 1.0, "formula": "2*x - 1"},
        ]}))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", str(cfg), "--bins", "64", "--top", "6",
                 "--no-plot", "--out", str(out)]) == 0
    assert "unit multiplicity 2" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    # undeclared slopes: s_i = 0.999 * 2
    r_ess = 1.0 / (0.999 * 2.0)
    assert lines[0] == (f"# r_ess={serialize.fmt(r_ess)} resolved_rows=2 "
                        f"spectral_gap={serialize.fmt(1.0 - r_ess)} gap=bound")
    assert lines[1] == "re,im,modulus"
    assert len(lines) == 8
    assert float(lines[2].split(",")[2]) == pytest.approx(1.0, abs=1e-8)
    assert float(lines[3].split(",")[2]) == pytest.approx(1.0, abs=1e-8)


def test_spectrum_counts_eigenvalues_outside_the_essential_radius(
        tmp_path, capsys):
    # the 64-bin doubling Ulam matrix has spectrum {1} and rounding noise;
    # the 301-bin tent matrix has seven moduli 1/2 + O(1e-13) after the
    # unit eigenvalue.  Either way only 1 lies outside 1/s_min = 1/2, and
    # the gap is the bound 1 - 1/2
    out = tmp_path / "spec.csv"
    for cfg, bins in ((DOUBLING, "64"), (str(CONFIGS / "tent.json"), "301")):
        assert main(["spectrum", cfg, "--bins", bins, "--top", "8",
                     "--no-plot", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            f"unit multiplicity 1, 1 on the unit circle, spectral gap >= 0.5 "
            f"(bound: no eigenvalue inside the unit circle is resolved) "
            f"-> {out}")
        assert lines[1] == (
            "r_ess = 1/s_min = 0.5; 1 of 8 eigenvalues resolved (|lambda| > "
            "r_ess + 1e-8), 7 not separated from the essential spectrum")
        assert out.read_text().splitlines()[0] == (
            "# r_ess=0.5 resolved_rows=1 spectral_gap=0.5 gap=bound")


def test_spectrum_on_a_period_two_map_prints_not_mixing(tmp_path, capsys):
    # the swap map exchanges [0, 1/2] and [1/2, 1]: -1 is an eigenvalue on
    # the unit circle, so there is no gap to print, not even a bound
    cfg = tmp_path / "swap.json"
    cfg.write_text(json.dumps({
        "v": 1, "epsilon": 1.0,
        "branches": [{"lo": k / 4, "hi": (k + 1) / 4, "formula": f}
                     for k, f in enumerate(["2*x + 0.5", "2*x", "2*x - 1",
                                            "2*x - 1.5"])]}))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", str(cfg), "--bins", "1024", "--top", "4",
                 "--no-plot", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "unit multiplicity 1, 2 on the unit circle, not mixing: eigenvalue -1 "
        f"on the unit circle, period 2 -> {out}")
    r_ess = 1.0 / (0.999 * 2.0)
    assert out.read_text().splitlines()[0] == (
        f"# r_ess={serialize.fmt(r_ess)} resolved_rows=2 spectral_gap=0 "
        "gap=measured")


def test_spectrum_prints_the_period_of_a_three_cycle(tmp_path, capsys):
    # each half of a third maps onto the next third: P permutes the thirds
    # cyclically, so the cube roots of unity are on the unit circle
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps({
        "v": 1, "epsilon": 1.0,
        "branches": [{"lo": k / 6, "hi": (k + 1) / 6, "formula": f}
                     for k, f in enumerate(["2*x + 1/3", "2*x", "2*x",
                                            "2*x - 1/3", "2*x - 4/3",
                                            "2*x - 5/3"])]}))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", str(cfg), "--bins", "300", "--top", "4",
                 "--no-plot", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "unit multiplicity 1, 3 on the unit circle, not mixing: eigenvalue "
        f"-0.5+0.866025i on the unit circle, period 3 -> {out}")


def test_spectrum_ends_on_the_tripling_cluster(tmp_path, capsys):
    # at 8192 bins the tripling Ulam matrix has λ = 1 and n - 1 values on
    # |λ| = 1/3 = r_ess; the top Ritz values stay just outside that circle,
    # unconverged, so the solve stops on the stall and says the gap is not
    # established instead of running into the basis cap
    out = tmp_path / "spec.csv"
    assert main(["spectrum", TRIPLING, "--bins", "8192", "--top", "8",
                 "--no-plot", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "unit multiplicity 1, 1 on the unit circle, spectral gap not "
        "established: 7 values outside r_ess did not converge -> " + str(out))
    assert lines[1] == (
        "r_ess = 1/s_min = 0.33333333333333331; 1 of 8 eigenvalues resolved "
        "(|lambda| > r_ess + 1e-8), 7 outside r_ess did not converge")
    assert re.fullmatch(r"eigensolver: krylov m=\d+; stalled \(largest "
                        r"residual [0-9.e+-]+\)", lines[2])
    csv = out.read_text().splitlines()
    assert csv[0] == ("# r_ess=0.33333333333333331 resolved_rows=1 "
                      "spectral_gap=nan gap=unresolved")
    assert len(csv) == 10
    assert complex(*map(float, csv[2].split(",")[:2])) == pytest.approx(1.0)


def test_spectrum_prints_its_eigensolver(tmp_path, capsys, monkeypatch):
    out = tmp_path / "spec.csv"
    tent = str(CONFIGS / "tent.json")
    assert main(["spectrum", tent, "--bins", "301", "--top", "8",
                 "--no-plot", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "eigensolver: dense"
    # the same matrix through the iterative path, which names its basis size
    monkeypatch.setattr(transfer, "DENSE_EIG_LIMIT", 100)
    assert main(["spectrum", tent, "--bins", "301", "--top", "8",
                 "--no-plot", "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[2]
    assert re.fullmatch(r"eigensolver: krylov m=\d+", line)
    assert len(out.read_text().splitlines()) == 10


def test_spectrum_krylov_cap_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(transfer, "KRYLOV_MAX_DIM", 16)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", str(CONFIGS / "tent.json"), "--bins", "4500",
                 "--top", "8", "--no-plot", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: iterative eigensolve failed: the "
                                   "Krylov basis reached its cap of 16")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_spectrum_top_above_the_krylov_cap_exits_one(tmp_path, capsys):
    # above the dense limit no solver returns more than KRYLOV_MAX_DIM
    # values, so asking for more fails before any eigensolve
    out = tmp_path / "spec.csv"
    bins = str(transfer.DENSE_EIG_LIMIT + 2)
    top = str(transfer.KRYLOV_MAX_DIM + 1)
    assert main(["spectrum", MARKOV, "--bins", bins, "--top", top,
                 "--no-plot", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot compute the top {top} eigenvalues on {bins} bins: "
        f"above DENSE_EIG_LIMIT = {transfer.DENSE_EIG_LIMIT} bins the "
        f"iterative eigensolve returns at most KRYLOV_MAX_DIM = "
        f"{transfer.KRYLOV_MAX_DIM}\n")
    assert not out.exists()


def test_spectrum_top_above_the_bins_exits_one(tmp_path, capsys):
    # an Ulam matrix on n bins has n eigenvalues and the CSV holds exactly
    # --top rows, so --top above --bins fails; --top = --bins does not
    out = tmp_path / "spec.csv"
    argv = ["spectrum", MARKOV, "--bins", "3", "--no-plot", "--out", str(out)]
    assert main(argv + ["--top", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: need 2 <= k <= 3 eigenvalues (an Ulam "
                            "matrix on 3 bins has 3), got 8\n")
    assert captured.out == ""
    assert not out.exists()
    assert main(argv + ["--top", "3"]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "re,im,modulus" and len(lines) == 2 + 3


def test_ly_auto_L_with_A_zero_exits_before_estimating(tmp_path, capsys):
    out = tmp_path / "ly.csv"
    assert main(["ly", TRIPLING, "--p", "1", "--A", "0", "--auto-L",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_var_matches_the_library_exactly(tmp_path):
    out = tmp_path / "var.csv"
    assert main(["var", "--f", "x", "--q", "1", "--p", "1", "--A", "0.25",
                 "--grid", "512", "--out", str(out)]) == 0
    rep = variation(project(pwexpand.parse("x"), 512), 1.0, 1.0, 0.25)
    row = out.read_text().splitlines()[1].split(",")
    assert row[3] == serialize.fmt(rep.variation)
    assert row[5] == serialize.fmt(rep.bv_norm)
    assert row[6] == serialize.fmt(rep.argmax_radius)


def test_var_accepts_inf_exponent(tmp_path):
    out = tmp_path / "var.csv"
    assert main(["var", "--f", "sin(2*pi*x)", "--q", "inf", "--p", "2",
                 "--A", "0.125", "--grid", "256", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[0] == "inf"


def test_correlate_rates_agree_across_measures(tmp_path, capsys):
    # the tripling map preserves Lebesgue, so both measures must
    # fit (essentially) the same rate
    rates = {}
    for wrt in ("lebesgue", "invariant"):
        out = tmp_path / f"corr_{wrt}.csv"
        assert main(["correlate", TRIPLING, "--f", "x", "--g", "x",
                     "--N", "12", "--grid", "729", "--wrt", wrt,
                     "--no-plot", "--out", str(out)]) == 0
        assert "fitted rate" in capsys.readouterr().out
        head = out.read_text().splitlines()[1]
        assert head.startswith("# fitted_rate=")
        rates[wrt] = float(head.split("=")[1].split()[0])
    assert 0.28 <= rates["lebesgue"] <= 0.38
    assert rates["lebesgue"] == pytest.approx(rates["invariant"], abs=1e-6)


@pytest.mark.parametrize("cfg, bins, wrt, r_ess", [
    (TRIPLING, 2187, "invariant", "0.33333333333333331"),
    (MARKOV, 1024, "lebesgue", "0.66666666666666663"),
    (DOUBLING, 1024, "lebesgue", "0.5")], ids=["tripling", "markov",
                                               "doubling"])
def test_correlate_labels_a_rate_inside_the_essential_spectrum(
        tmp_path, capsys, cfg, bins, wrt, r_ess):
    # each fitted rate is an eigenvalue of the n-bin Ulam chain inside
    # r_ess = 1/s_min; on tripling it sits just below 1/3 (the exact decay
    # of x against x is 3^-N), the case on the boundary
    out = tmp_path / "corr.csv"
    assert main(["correlate", cfg, "--f", "x", "--g", "x", "--N", "20",
                 "--grid", str(bins), "--wrt", wrt, "--no-plot",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("fitted rate ")
    assert lines[1] == (
        f"the rate lies inside the essential spectrum (r_ess = {r_ess}): it "
        f"belongs to the {bins}-bin Ulam chain and moves with --grid")
    rate = float(out.read_text().splitlines()[1].split()[1].split("=")[1])
    assert rate <= float(r_ess) + 1e-8


def test_correlate_does_not_label_a_rate_outside_the_essential_spectrum(
        tmp_path, capsys):
    # the leaky swap: on span{1_L, 1_R} P acts by [[1/10, 9/10],
    # [9/10, 1/10]], so x decays at |-4/5|, outside r_ess = 9/20
    cfg = tmp_path / "leaky.json"
    branches = [(0.0, 1 / 20, "10*x", 10.0),
                (1 / 20, 11 / 40, "1/2 + 20*(x - 1/20)/9", 20 / 9),
                (11 / 40, 1 / 2, "1/2 + 20*(x - 11/40)/9", 20 / 9),
                (1 / 2, 29 / 40, "20*(x - 1/2)/9", 20 / 9),
                (29 / 40, 19 / 20, "20*(x - 29/40)/9", 20 / 9),
                (19 / 20, 1.0, "10*x - 9", 10.0)]
    cfg.write_text(json.dumps({"v": 1, "epsilon": 1.0, "branches": [
        {"lo": lo, "hi": hi, "formula": f, "min_slope": slope,
         "holder_constant": 0.0} for lo, hi, f, slope in branches]}))
    out = tmp_path / "corr.csv"
    assert main(["correlate", str(cfg), "--f", "x", "--g", "x", "--N", "20",
                 "--grid", "2000", "--no-plot", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"fitted rate 0\.79\d* \(R\^2 = [0-9.]+\) -> .*",
                        lines[0])
    # a series at the noise floor has no rate to label
    assert main(["correlate", TRIPLING, "--f", "1", "--g", "x", "--N", "20",
                 "--grid", "243", "--no-plot", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "no rate: fewer than 4 consecutive values above the noise floor "
        f"1e-14 -> {out}\n")
    # a series well above the floor but only 3 values long has none either
    assert main(["correlate", TRIPLING, "--f", "x", "--g", "x", "--N", "2",
                 "--grid", "243", "--no-plot", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "no rate: fewer than 4 consecutive values above the noise floor "
        f"1e-14 -> {out}\n")
    assert out.read_text().splitlines()[1] == (
        "# fitted_rate=none (fewer than 4 consecutive values above the noise "
        "floor 1e-14)")


def _block_swap_config(tmp_path):
    """[0, 1/3] and [1/3, 1] swap blocks, so the Ulam matrix has the
    eigenvalue -1 and power iteration from the uniform start oscillates."""
    cfg = tmp_path / "swap.json"
    cfg.write_text(json.dumps({"v": 1, "epsilon": 1.0, "branches": [
        {"lo": 0.0, "hi": 1 / 3, "formula": "2*x + 1/3"},
        {"lo": 1 / 3, "hi": 5 / 9, "formula": "1.5*x - 0.5"},
        {"lo": 5 / 9, "hi": 7 / 9, "formula": "1.5*x - 5/6"},
        {"lo": 7 / 9, "hi": 1.0, "formula": "1.5*x - 7/6"}]}))
    return str(cfg)


def test_correlate_on_a_stalled_density_exits_one(tmp_path, capsys):
    assert main(["correlate", _block_swap_config(tmp_path), "--f", "x",
                 "--g", "x", "--N", "5", "--grid", "63", "--no-plot",
                 "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: power iteration from the uniform density "
                          "stalled at L1 residual ")
    assert err.endswith("; P may have another eigenvalue on the unit circle "
                        "(inspect the spectrum)\n")
    assert not (tmp_path / "c.csv").exists()


def test_density_on_a_period_two_map_names_the_unit_circle(tmp_path,
                                                            capsys):
    # spectrum finds λ = 1 simple and -1 beside it: the stall blames the
    # circle, not the multiplicity of 1
    cfg = _block_swap_config(tmp_path)
    assert main(["density", cfg, "--bins", "63", "--no-plot",
                 "--out", str(tmp_path / "d.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: power iteration from the uniform density stalled at L1 "
        rf"residual \S+ after {transfer.DENSITY_STALL_WINDOW + 1} iterations; "
        r"P may have another eigenvalue on the unit circle \(inspect the "
        r"spectrum\)\n", captured.err)
    assert not (tmp_path / "d.csv").exists()
    assert main(["spectrum", cfg, "--bins", "63", "--top", "4", "--no-plot",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().out.startswith(
        "unit multiplicity 1, 2 on the unit circle, not mixing: eigenvalue -1 "
        "on the unit circle, period 2")


def test_iterates_reports_when_the_bound_kicks_in(tmp_path, capsys):
    out = tmp_path / "iter.csv"
    assert main(["iterates", TRIPLING, "--f", "sin(2*pi*x)", "--p", "1",
                 "--A", "0.125", "--n", "10", "--grid", "243",
                 "--out", str(out)]) == 0
    # ||f||_BV ~ 8.4 starts above C*||f||_1 ~ 6.4; one application of the
    # operator pulls it under
    assert "holds from n0 = 1" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[1] == "n,bv_norm,bound,within_bound"
    assert lines[2].endswith(",false")
    assert all(ln.endswith(",true") for ln in lines[3:])


def test_iterates_without_constants_emits_norms_only(tmp_path, capsys):
    out = tmp_path / "iter.csv"
    assert main(["iterates", MARKOV, "--f", "sin(2*pi*x)", "--p", "1",
                 "--A", "0.125", "--n", "5", "--grid", "243",
                 "--out", str(out)]) == 0
    assert "no contraction constant" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# C= bound= ")
    assert lines[0].endswith("n0=none")
    assert all(ln.endswith(",,") for ln in lines[2:])


def test_iterates_takes_the_l1_norm_without_overflow(tmp_path, capsys):
    # ||f||_1 = 5e306 while the sum of |f| over the cells overflows a double
    out = tmp_path / "iter.csv"
    assert main(["iterates", TRIPLING, "--f", "1e307*x", "--p", "1",
                 "--A", "0.125", "--n", "5", "--grid", "300",
                 "--out", str(out)]) == 0
    head = out.read_text().splitlines()[0]
    l1 = float(re.search(r" l1_initial=(\S+) ", head).group(1))
    assert l1 == pytest.approx(5e306, rel=1e-12)
    C = float(re.search(r"^# C=(\S+) ", head).group(1))
    assert f" bound={serialize.fmt(C * l1)} " in head
    assert capsys.readouterr().out.startswith(
        f"bound C*||f||_1 = {serialize.fmt(C * l1)} holds from n0 = ")


def test_lorenz_options_are_the_config_fields(monkeypatch):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["lorenz"]._actions} - {"help"}
    fields = {f.name for f in dataclasses.fields(lorenz.LorenzConfig)}
    assert dests == fields | {"out_trajectory", "out_map", "out_fit"}
    seen = []

    def stop(config, maxima):
        seen.append(config)
        raise pwexpand.ToolError("stopped before integrating")

    monkeypatch.setattr(lorenz, "trajectory_rows", stop)
    assert main(["lorenz", "--beta", "3", "--fit-degree", "2"]) == 1
    assert seen == [lorenz.LorenzConfig(beta=3.0, fit_degree=2)]


def test_lorenz_pipeline_writes_all_three_files(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    rmap = tmp_path / "rmap.csv"
    fit = tmp_path / "fit.json"
    assert main(["lorenz", "--dt", "0.01", "--t-max", "150",
                 "--transient", "5", "--fit-degree", "1",
                 "--out-trajectory", str(traj), "--out-map", str(rmap),
                 "--out-fit", str(fit)]) == 0
    captured = capsys.readouterr().out
    assert "return map (" in captured
    assert json.loads(fit.read_text())["epsilon"] == 1.0
    assert traj.read_text().splitlines()[0] == "t,x,y,z"
    assert rmap.read_text().splitlines()[0] == "z_k,z_next"
    fitted = load_map(fit)
    assert len(fitted.branches) == 2
    # the verdict printed is the one `validate` gives the file written; at
    # this size both fitted branch images leave [0,1]
    report = validate(fitted)
    assert not report.accepted
    assert (f"fitted map validation: {report.violation_summary()}"
            in captured.splitlines())


def test_lorenz_cubic_fit_declares_max_second_derivative(tmp_path):
    fit = tmp_path / "fit.json"
    assert main(["lorenz", "--dt", "0.01", "--t-max", "150",
                 "--transient", "5", "--fit-degree", "3",
                 "--out-trajectory", str(tmp_path / "traj.csv"),
                 "--out-map", str(tmp_path / "rmap.csv"),
                 "--out-fit", str(fit)]) == 0
    doc = json.loads(fit.read_text())
    assert doc["epsilon"] == 1.0
    number = r"(-?[0-9.]+(?:e[-+]?[0-9]+)?)"
    cubic = re.compile(rf"{number} \+ {number}\*x \+ {number}\*x\^2 "
                       rf"\+ {number}\*x\^3")
    for br in doc["branches"]:
        _, _, c2, c3 = map(float, cubic.fullmatch(br["formula"]).groups())
        # tau'' = 2 c2 + 6 c3 x is linear: |tau''| peaks at an end
        assert br["holder_constant"] == pytest.approx(
            max(abs(2 * c2 + 6 * c3 * x) for x in (br["lo"], br["hi"])),
            rel=1e-12)
    # p = 1 is at least 1/epsilon, and both min slopes exceed 1 at this size
    analysis.check_ly_ranges(load_map(fit), p=1, t=1, A=0.125)


def test_lorenz_bad_fit_degree_exits_before_integrating(
        tmp_path, capsys, monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("the trajectory was integrated")

    # the CLI's first integrating call
    monkeypatch.setattr(lorenz, "trajectory_rows", no_integration)
    outs = [tmp_path / name for name in ("traj.csv", "rmap.csv", "fit.json")]
    assert main(["lorenz", "--t-max", "300", "--fit-degree", "9",
                 "--out-trajectory", str(outs[0]), "--out-map", str(outs[1]),
                 "--out-fit", str(outs[2])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree must lie in [1, 6], got 9\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("names", [
    ("same.out", "same.out", "same.out"), ("a.csv", "b.csv", "./a.csv"),
    ("a.csv", "b.csv", "sub/../b.csv")])
def test_lorenz_outputs_sharing_a_file_exit_before_integrating(
        tmp_path, capsys, monkeypatch, names):
    def no_integration(*args, **kwargs):
        raise AssertionError("the trajectory was integrated")

    monkeypatch.setattr(lorenz, "trajectory_rows", no_integration)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["lorenz", "--t-max", "300", "--out-trajectory", names[0],
                 "--out-map", names[1], "--out-fit", names[2]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --out-trajectory, --out-map and --out-fit "
                            "must name three different files\n")
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("args, count", [
    (["--rho", "0.5", "--t-max", "2"], 0), (["--t-max", "1"], 1),
    (["--t-max", "1.4"], 2)])
def test_lorenz_with_too_few_maxima_exits_one(tmp_path, capsys, args, count):
    # one rule, stated by build_return_map, whatever the count below 3
    outs = [tmp_path / name for name in ("traj.csv", "rmap.csv", "fit.json")]
    assert main(["lorenz", *args, "--dt", "0.01", "--transient", "0",
                 "--out-trajectory", str(outs[0]), "--out-map", str(outs[1]),
                 "--out-fit", str(outs[2])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least 3 maxima, got {count}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_max, message, existing", [
    ("1", "need at least 3 maxima, got 1", True),
    ("1.8", "need at least 100 normalized pairs to fit, got 2", False)],
    ids=["maxima", "fit"])
def test_lorenz_that_fails_leaves_the_directory_as_it_was(
        tmp_path, capsys, monkeypatch, t_max, message, existing):
    # the trajectory (and at 1.8 the return map) is written before the
    # step that fails; the three files appear only together
    monkeypatch.chdir(tmp_path)
    old = tmp_path / "lorenz_trajectory.csv"
    if existing:
        old.write_bytes(b"t,x,y,z\n0,1,2,3\n")
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    assert main(["lorenz", "--t-max", t_max, "--transient", "0",
                 "--dt", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_lorenz_files_do_not_depend_on_the_split(tmp_path, capsys, monkeypatch,
                                                 child_steps):
    # the cut at step 50000 falls inside an RK4 block; rho = 1500 gives the
    # fit its 100 return pairs in the 10 time units after it
    runs = []
    # the child stops when asked, then formats no row, one step or every
    # kept row of each piece, then no child is forked
    for name, steps in [("asked", None), ("none", 0), ("one-step", 1),
                        ("all", None), ("no-fork", None)]:
        if name == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif name != "asked":
            child_steps(steps)
        outs = [tmp_path / f"{name}-{f}" for f in ("traj.csv", "rmap.csv", "fit.json")]
        assert main(["lorenz", "--rho", "1500", "--t-max", "60", "--transient",
                     "50", "--out-trajectory", str(outs[0]), "--out-map",
                     str(outs[1]), "--out-fit", str(outs[2])]) == 0
        out = capsys.readouterr().out.replace(f"{tmp_path}/{name}-", "")
        runs.append((out, [f.read_bytes() for f in outs]))
    assert runs[0][1][0].count(b"\n") == 10_002
    assert all(run == runs[0] for run in runs)


def test_lorenz_blow_up_after_the_first_piece_leaves_no_file(
        tmp_path, capsys, child_steps):
    # x = y = 0 stays put and z' = 15 z, so z overflows after ~4700 steps
    args = ["--x0", "0", "--y0", "0", "--z0", "1", "--beta=-15", "--dt",
            "0.01", "--t-max", "60", "--transient", "5"]
    whole = kernels.lorenz_rk4([0.0, 0.0, 1.0], 10.0, 28.0, -15.0, 0.01, 6000)
    k = int(np.argmax(~np.isfinite(whole).all(axis=1)))
    assert lorenz._CHUNK < k < 6000
    outs = [str(tmp_path / name) for name in ("traj.csv", "rmap.csv", "fit.json")]
    # with the child stopping when asked, then with it formatting every
    # kept row, the non-finite ones too
    for every_kept_row in (False, True):
        if every_kept_row:
            child_steps(None)
        assert main(["lorenz", *args, "--out-trajectory", outs[0],
                     "--out-map", outs[1], "--out-fit", outs[2]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: state became non-finite at t = {k * 0.01:g}\n")
        assert list(tmp_path.iterdir()) == []
        # the integrating child, still running ahead, was killed and reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _fail_in_child(module, name, tmp_path, capfd, monkeypatch):
    """Run `lorenz` with module.name patched to raise on its third call in
    the forked child, and check that it exits 1 cleanly; returns the calls
    made in this process, which pass through."""
    real, parent, calls = getattr(module, name), os.getpid(), []

    def failing(*args):
        calls.append(args)  # the child appends to its own copy
        if os.getpid() != parent and len(calls) == 3:
            raise RuntimeError("injected failure")
        return real(*args)

    monkeypatch.setattr(module, name, failing)
    outs = [str(tmp_path / f) for f in ("traj.csv", "rmap.csv", "fit.json")]
    assert main(["lorenz", "--dt", "0.01", "--t-max", "200", "--transient",
                 "0", "--out-trajectory", outs[0], "--out-map", outs[1],
                 "--out-fit", outs[2]]) == 1
    # capfd also holds what the child wrote to file descriptors 1 and 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the RK4 integration process ended early "
                            "(exit status 1)\n")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return calls


def test_lorenz_failing_child_exits_one(tmp_path, capfd, monkeypatch):
    # the forked child inherits the patch; its third RK4 piece raises
    calls = _fail_in_child(kernels, "lorenz_rk4", tmp_path, capfd, monkeypatch)
    assert calls == []  # every call was made in the child


def test_lorenz_failing_formatting_in_the_child_exits_one(
        tmp_path, capfd, monkeypatch, child_steps):
    # the child formats one step of each piece; its third formatting raises,
    # while this process formats the rows before the child's with the same
    # function
    child_steps(1)
    assert _fail_in_child(serialize, "rows", tmp_path, capfd, monkeypatch)


@pytest.mark.parametrize("call, err", [
    (0, errno.EMFILE), (1, errno.EMFILE), (2, errno.EAGAIN)],
    ids=["pipe", "second-pipe", "fork"])
def test_lorenz_that_cannot_start_its_child_exits_one(
        call, err, tmp_path, capsys, monkeypatch):
    # the calls are os.pipe, os.pipe, os.fork; number `call` fails
    real_pipe, calls = os.pipe, []

    def failing():
        calls.append(None)
        if len(calls) - 1 == call:
            raise OSError(err, os.strerror(err))
        return real_pipe()

    monkeypatch.setattr(os, "pipe", failing)
    monkeypatch.setattr(os, "fork", failing)
    fds = os.listdir("/proc/self/fd")
    outs = [str(tmp_path / f) for f in ("traj.csv", "rmap.csv", "fit.json")]
    assert main(["lorenz", "--dt", "0.01", "--t-max", "100", "--transient",
                 "0", "--out-trajectory", outs[0], "--out-map", outs[1],
                 "--out-fit", outs[2]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot start the RK4 integration "
                            f"process: {os.strerror(err)}\n")
    assert list(tmp_path.iterdir()) == []
    assert os.listdir("/proc/self/fd") == fds  # the pipes made are closed


def _lorenz_traced_peak(tmp_path, t_max):
    """Least tracemalloc peak of three `lorenz` runs above what was live
    before each.  How many pieces the forked child has formatted while the
    main process holds one depends on scheduling, so a single run's peak
    can be a piece's text or two above the least."""
    argv = ["lorenz", "--rho", "100", "--dt", "0.01", "--t-max", str(t_max),
            "--transient", "0", "--fit-degree", "1",
            "--out-trajectory", str(tmp_path / "traj.csv"),
            "--out-map", str(tmp_path / "rmap.csv"),
            "--out-fit", str(tmp_path / "fit.json")]
    peaks = []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # loads what the pipeline imports lazily
        for _ in range(3):
            # garbage left by earlier code, freed at a collection inside
            # the traced run, would move its peak by tens of kB
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
    return min(peaks)


def test_lorenz_memory_does_not_grow_with_the_run(tmp_path, monkeypatch):
    # 256-row pieces keep the runs short: 4001 rows against 5001, 16 pieces
    # against 20; rho = 100 gives the fit its 100 return pairs by t = 40
    monkeypatch.setattr(lorenz, "_CHUNK", 256)
    short = _lorenz_traced_peak(tmp_path, 40)
    long = _lorenz_traced_peak(tmp_path, 50)
    # the 1000 extra rows of t and xyz alone would be 32 kB
    assert long - short < 8_000, (short, long)


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["density", str(tmp_path / "nope.json"), "--bins", "64",
                 "--no-plot", "--out", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["check-slope", str(bad), "--p", "1"]) == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe\x00{", "is not UTF-8 text"),
    (b"[" * 200000, "nests too deeply to read"),
], ids=["not-utf8", "deep-json"])
def test_unreadable_config_exits_one(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "d.csv"
    assert main(["density", str(bad), "--bins", "16", "--no-plot",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: map config {bad} {message}")
    assert err.count("\n") == 1
    assert not out.exists()


_VAR = ["var", "--q", "1", "--p", "2", "--A", "0.125", "--grid", "64",
        "--out", "v.csv"]


@pytest.mark.parametrize("argv", [
    _VAR + ["--f", "+".join(["x"] * 3001)],
    _VAR + ["--f=" + "-" * 3000 + "x"],
    ["correlate", TRIPLING, "--f", "x" + "*1" * 3000, "--g", "x", "--N", "4",
     "--grid", "27", "--no-plot", "--out", "c.csv"],
    ["check-slope", "deep.json", "--p", "1"],
], ids=["var-sum", "var-minus", "correlate-product", "check-slope-parens"])
def test_too_deep_formula_exits_one(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(json.dumps({
        "v": 1, "epsilon": 1.0,
        "branches": [{"lo": 0.0, "hi": 1.0,
                      "formula": "(" * 3000 + "x" + ")" * 3000}]}))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nests deeper than 100 levels" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json"]


def test_contracting_map_fails_validation(tmp_path, capsys):
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps({
        "v": 1, "epsilon": 1.0,
        "branches": [{"lo": 0.0, "hi": 1.0, "formula": "0.5*x"}]}))
    assert main(["check-slope", str(cfg), "--p", "1"]) == 1
    assert "failed validation" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--bins", "64", "--out", "spectrum.csv"],
    ["density", "--bins", "64", "--out", "density.csv"],
], ids=["spectrum", "density"])
def test_declared_slope_not_above_one_exits_one(argv, tmp_path, capsys):
    # the sampled slopes are 2, so only the declared s_i = -3 is wrong;
    # accepted, it would give 1/s_min = -1/3
    doc = json.loads(Path(DOUBLING).read_text())
    for branch in doc["branches"]:
        branch["min_slope"] = -3
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / argv[-1]
    assert main([argv[0], str(cfg), *argv[1:-1], str(out), "--no-plot"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: map {cfg} failed validation: "
        "branch 0 ('2*x'): declared min slope -3 is not greater than 1; "
        "branch 1 ('2*x - 1'): declared min slope -3 is not greater than 1\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--bins", "64", "--no-plot", "--out", "spectrum.csv"],
    ["check-slope", "--p", "1"],
], ids=["spectrum", "check-slope"])
def test_effective_slope_not_above_one_exits_one(argv, tmp_path, capsys):
    # sampled slope 1.0005, so the effective s_i = 0.999 * 1.0005 <= 1 and
    # r_ess > 1: no eigenvalue could be resolved
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "v": 1, "epsilon": 1.0,
        "branches": [{"lo": 0.0, "hi": 0.5, "formula": "1.0005*x"},
                     {"lo": 0.5, "hi": 1.0, "formula": "1.0005*x - 0.0005"}]}))
    out = tmp_path / "spectrum.csv"
    argv = [str(out) if a == out.name else a for a in argv]
    assert main([argv[0], str(cfg), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: map {cfg} failed validation: "
                                   "branch 0 ('1.0005*x'): effective")
    assert not out.exists()


def test_negative_declared_holder_constant_exits_one(tmp_path, capsys):
    # a negative M would shrink beta and let alpha pass as admissible
    doc = json.loads((ROOT / "pipebench" / "maps" / "nonlinear.json").read_text())
    for branch in doc["branches"]:
        branch.update(min_slope=1.37, holder_constant=-50)
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "ly.csv"
    assert main(["ly", str(cfg), "--p", "1", "--A", "0.01",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: branch 0 'holder_constant' must be at least 0, got -50.0\n")
    assert not out.exists()


def test_holder_sampler_failure_names_the_branch(tmp_path, capsys):
    # the pole at 1/2 misses the derivative samples but not the dyadic
    # grid of the Hölder sampler
    cfg = tmp_path / "pole.json"
    cfg.write_text(json.dumps({
        "v": 1, "epsilon": 1.0,
        "branches": [{"lo": 0.0, "hi": 1.0, "formula": "1/(x - 0.5)"}]}))
    assert main(["check-slope", str(cfg), "--p", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: branch 0 ('1/(x - 0.5)') fails to evaluate")


def test_expression_error_exits_one(tmp_path, capsys):
    assert main(["var", "--f", "2*", "--q", "1", "--p", "1", "--A", "0.25",
                 "--grid", "64", "--out", str(tmp_path / "v.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_overflowing_formula_prints_one_error_line(tmp_path):
    # a fresh interpreter, so numpy's warnings reach stderr as they would
    # for a user rather than through pytest's warning filters; the cell
    # values overflow in the formula, then in the cell averages, then only
    # in the correlation's products and sums
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    var = ["var", "--q", "1", "--p", "1", "--A", "0.1", "--grid", "64", "--f"]
    for argv, message in [
            (var + ["exp(1000*x)"], "grid values must be finite"),
            (var + ["1e308*x"], "grid values must be finite"),
            (["correlate", MARKOV, "--f", "x", "--g", "1e307*x", "--N", "5",
              "--grid", "300", "--no-plot"],
             "correlation C(0) = inf overflows a double; scale f or g down")]:
        out = subprocess.run(
            [sys.executable, "-m", "pwexpand.cli", *argv],
            cwd=tmp_path, capture_output=True, text=True, env=env)
        assert (out.returncode, out.stderr) == (1, f"error: {message}\n"), argv
    assert list(tmp_path.iterdir()) == []


def _run_with_2_gib(tmp_path, *argv):
    """`pwexpand argv` in a child whose address space is capped at 2 GiB;
    returns the CompletedProcess."""
    return _python_with_2_gib(tmp_path, "-m", "pwexpand.cli", *argv)


def _python_with_2_gib(tmp_path, *args):
    """`python args` in a child whose address space is capped at 2 GiB;
    returns the CompletedProcess."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    # one BLAS thread: each thread's buffers take address space, so the
    # import alone could exceed the cap on a machine with many cores
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, capture_output=True,
        text=True, env=env, preexec_fn=cap_memory)


def test_out_of_memory_prints_one_error_line(tmp_path):
    # the cap is far below the 7.45 GiB that the bin edges of 10^9 bins take
    out = _run_with_2_gib(tmp_path, "density", str(CONFIGS / "tent.json"),
                          "--bins", "1000000000", "--no-plot")
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("error: out of memory")
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "density.csv").exists()


# a Krylov basis on 5·10^6 bins: its first step's 65 rows take
# 8·65·5·10^6 bytes = 2.42 GiB, above the cap; the operator has no entries,
# so only the start vector is allocated before them
_KRYLOV_5M = """
import sys
from pwexpand import cli, transfer
transfer.ulam_matrix = lambda pmap, n: transfer.UlamOperator(n, (), 0.5)
sys.exit(cli.main(["spectrum", sys.argv[1], "--bins", "5000000",
                   "--no-plot"]))
"""


def test_out_of_memory_in_the_eigensolve_prints_one_error_line(tmp_path):
    out = _python_with_2_gib(tmp_path, "-c", _KRYLOV_5M,
                             str(CONFIGS / "tent.json"))
    assert out.returncode == 1
    assert out.stderr == (
        "error: out of memory: Unable to allocate 2.42 GiB for an array "
        "with shape (65, 5000000) and data type float64\n")
    assert out.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_the_krylov_basis_takes_only_the_rows_it_uses(tmp_path):
    # a basis reserved for all 1025 vectors of 2^18 doubles would take
    # 2.15 GB, above the cap; the solve stops at 65 of them
    out = _run_with_2_gib(tmp_path, "spectrum", str(CONFIGS / "doubling.json"),
                          "--bins", str(1 << 18), "--no-plot")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines()[-1] == "eigensolver: krylov m=64"
    assert (tmp_path / "spectrum.csv").exists()


# the dense Pᵀ on 20000 bins: 8·20000² bytes = 2.98 GiB, above the cap
_DENSE_20000 = """
import sys
from pwexpand import cli, transfer
if sys.argv[1] == "dense_t":
    op = transfer.UlamOperator(20000, (), 0.5)
    try:
        op.dense_t()
    except MemoryError as err:
        print(err)
else:
    transfer.DENSE_EIG_LIMIT = 20000  # the dense path on 20000 bins
    sys.exit(cli.main(["spectrum", sys.argv[1], "--bins", "20000",
                       "--no-plot"]))
"""


def test_a_dense_matrix_that_cannot_be_mapped_prints_one_error_line(tmp_path):
    message = ("Unable to allocate 2.98 GiB for an array with shape "
               "(20000, 20000) and data type float64")
    out = _python_with_2_gib(tmp_path, "-c", _DENSE_20000, "dense_t")
    assert (out.returncode, out.stdout, out.stderr) == (0, message + "\n", "")
    out = _python_with_2_gib(tmp_path, "-c", _DENSE_20000,
                             str(CONFIGS / "tent.json"))
    assert out.returncode == 1
    assert out.stderr == f"error: out of memory: {message}\n"
    assert out.stdout == ""
    assert list(tmp_path.iterdir()) == []


def _spectrum_csv_at_blas_threads(tmp_path, threads, cfg, bins):
    """The `spectrum --top 8` CSV of a child run at OPENBLAS_NUM_THREADS =
    threads: the comment's fields, and the rows as floats."""
    out = tmp_path / f"spec_{threads}.csv"
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-m", "pwexpand.cli", "spectrum", cfg,
                    "--bins", str(bins), "--top", "8", "--no-plot",
                    "--out", str(out)], check=True, capture_output=True,
                   env=env)
    head, header, *rows = out.read_text().splitlines()
    assert header == "re,im,modulus"
    fields = dict(f.split("=") for f in head.removeprefix("# ").split())
    return fields, np.array([[float(x) for x in r.split(",")] for r in rows])


@pytest.mark.parametrize("cfg, bins", [(MARKOV, 1200),
                                       (str(CONFIGS / "tent.json"), 4500)],
                         ids=["dense", "krylov"])
def test_spectrum_agrees_across_blas_thread_counts(tmp_path, cfg, bins):
    # README's contract: at a fixed OPENBLAS_NUM_THREADS the bytes repeat;
    # across thread counts the BLAS sums reassociate, and every value
    # agrees to 1e-13 (9.3e-15 on markov 1200, 2.7e-15 on tent 4500)
    one, rows_one = _spectrum_csv_at_blas_threads(tmp_path, 1, cfg, bins)
    two, rows_two = _spectrum_csv_at_blas_threads(tmp_path, 2, cfg, bins)
    assert rows_one.shape == rows_two.shape == (8, 3)
    for key in ("resolved_rows", "gap"):
        assert one[key] == two[key]
    for key in ("r_ess", "spectral_gap"):
        assert float(one[key]) == pytest.approx(float(two[key]), abs=1e-13,
                                                nan_ok=True)
    assert np.max(np.abs(rows_one - rows_two)) <= 1e-13


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_temp_files_left_behind(tmp_path):
    assert main(["density", MARKOV, "--bins", "64", "--no-plot",
                 "--out", str(tmp_path / "d.csv")]) == 0
    assert main(["iterates", TRIPLING, "--f", "x", "--p", "1", "--A",
                 "0.125", "--n", "3", "--grid", "81",
                 "--out", str(tmp_path / "i.csv")]) == 0
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_file_mode_follows_umask(tmp_path, umask, mode):
    out = tmp_path / "d.csv"
    old = os.umask(umask)
    try:
        assert main(["density", MARKOV, "--bins", "64", "--no-plot",
                     "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode


def test_missing_output_directory_exits_one(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    assert main(["density", MARKOV, "--bins", "64", "--no-plot",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_failed_write_removes_its_temp_file(tmp_path):
    target = tmp_path / "a_directory"
    target.mkdir()
    with pytest.raises(pwexpand.ToolError, match="cannot write"):
        serialize.write_text_atomic(target, "x\n")
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("argv, message", [
    (["lorenz", "--t-max", "inf"], "t_max (inf) must be finite"),
    (["lorenz", "--t-max", "nan"], "t_max (nan) must be finite"),
    (["lorenz", "--dt", "1e-300"], "cannot store 2e+303 steps"),
    (["var", "--f", "x", "--q", "nan", "--p", "1", "--A", "0.125",
      "--grid", "64"], "lq must be >= 1 or inf, got nan"),
    (["var", "--f", "x", "--q=-inf", "--p", "1", "--A", "0.125",
      "--grid", "64"], "lq must be >= 1 or inf, got -inf"),
    (["var", "--f", "x", "--q", "1", "--p", "nan", "--A", "0.125",
      "--grid", "64"], "p must be at least 1, got nan"),
    (["check-slope", TRIPLING, "--p", "nan"], "p must be at least 1, got nan"),
    (["ly", TRIPLING, "--p", "2", "--L", "nan", "--t", "1.5"],
     "L must be a finite number, got nan"),
    (["ly", TRIPLING, "--p", "0", "--auto-A"], "p must be at least 1, got 0"),
    (["ly-verify", TRIPLING, "--p", "1", "--A", "0.125", "--seed=-1"],
     "seed must be a non-negative integer, got -1"),
    (["check-slope", TRIPLING, "--p", "inf"], "p must be finite, got inf"),
    (["var", "--f", "x", "--q", "1", "--p", "inf", "--A", "0.125",
      "--grid", "64"], "p must be finite, got inf"),
    (["ly", TRIPLING, "--p", "inf"], "p must be finite, got inf"),
    (["ly-verify", TRIPLING, "--p", "inf", "--A", "0.125", "--trials", "2",
      "--grid", "64"], "p must be finite, got inf"),
    (["iterates", TRIPLING, "--f", "x", "--p", "inf", "--A", "0.125",
      "--n", "2", "--grid", "64"], "p must be finite, got inf"),
])
def test_bad_numeric_argument_exits_one(tmp_path, capsys, argv, message):
    out = str(tmp_path / "out.csv")
    outputs = (["--out-trajectory", out, "--out-map", out, "--out-fit", out]
               if argv[0] == "lorenz" else
               [] if argv[0] == "check-slope" else ["--out", out])
    assert main(argv + outputs) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


class _StubFigure:
    def savefig(self, fh, format):
        assert format == "svg"
        fh.write("<svg/>\n")


class _StubPyplot:
    def __init__(self):
        self.closed = []

    def close(self, fig):
        self.closed.append(fig)


def test_save_atomic_writes_through_write_text_atomic(tmp_path, monkeypatch):
    stub = _StubPyplot()
    monkeypatch.setattr(plotting, "plt", stub, raising=False)
    fig = _StubFigure()
    out = tmp_path / "p.svg"
    old = os.umask(0o022)
    try:
        plotting._save_atomic(fig, out)
    finally:
        os.umask(old)
    assert out.read_text() == "<svg/>\n"
    assert out.stat().st_mode & 0o777 == 0o644
    assert stub.closed == [fig]
    assert list(tmp_path.iterdir()) == [out]


class _StubAxes:
    def __init__(self):
        self.titles = []

    def set_title(self, title):
        self.titles.append(title)

    def __getattr__(self, name):  # plot, scatter and the other setters
        return lambda *args, **kwargs: None


@pytest.mark.parametrize("kind, gap, title", [
    ("measured", 0.2, "leading eigenvalues (gap 0.2)"),
    ("bound", 0.5, "leading eigenvalues (gap ≥ 0.5)"),
    ("unresolved", math.nan, "leading eigenvalues (gap not established)")])
def test_spectrum_plot_titles_the_gap_by_its_kind(monkeypatch, kind, gap,
                                                  title):
    ax = _StubAxes()
    stub = SimpleNamespace(subplots=lambda **kwargs: (None, ax))
    monkeypatch.setattr(plotting, "plt", stub, raising=False)
    monkeypatch.setattr(plotting, "_save_atomic", lambda fig, path: None)
    report = SimpleNamespace(eigenvalues=np.array([1.0, 0.8]),
                             spectral_gap=gap, gap_kind=kind)
    plotting.spectrum_plot(report, "unused.svg")
    assert ax.titles == [title]


@pytest.mark.parametrize("rate, title", [
    (0.3288, "correlation decay, rate ≈ 0.3288"),
    (None, "correlation decay (no rate: fewer than 4 consecutive values "
           "above the noise floor 1e-14)")])
def test_correlation_plot_titles_the_rate_or_why_there_is_none(
        monkeypatch, rate, title):
    ax = _StubAxes()
    stub = SimpleNamespace(subplots=lambda **kwargs: (None, ax))
    monkeypatch.setattr(plotting, "plt", stub, raising=False)
    monkeypatch.setattr(plotting, "_save_atomic", lambda fig, path: None)
    series = analysis.CorrelationSeries(
        kind="lebesgue", C_values=np.array([0.25, 0.125, 0.0]),
        fitted_rate=rate, fit_quality=None if rate is None else 1.0,
        r_ess=0.5)
    plotting.correlation_plot(series, "unused.svg")
    assert ax.titles == [title]


def test_a_matplotlib_that_cannot_load_is_imported_only_to_draw(tmp_path):
    # a stub package first on the path marks its import, then fails
    mark = tmp_path / "imported"
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(
        f"open({str(mark)!r}, 'w').close()\n"
        "raise RuntimeError('this matplotlib cannot load')\n")
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(stub.parent),
                                                       str(src)]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "pwexpand.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)

    check = run("check-slope", TRIPLING, "--p", "1")
    assert (check.returncode, check.stderr) == (0, "")
    assert check.stdout == "0.66666666666666663 < 1: admissible\n"
    quiet = run("density", MARKOV, "--bins", "64", "--no-plot")
    assert (quiet.returncode, quiet.stderr) == (0, "")
    assert not mark.exists()
    drawn = run("density", MARKOV, "--bins", "64")
    assert drawn.returncode == 0
    assert drawn.stderr == ("warning: matplotlib unavailable, skipped plot "
                            "density.svg\n")
    assert mark.exists()
    assert (tmp_path / "density.csv").exists()
    assert not (tmp_path / "density.svg").exists()


_BAD_VALUES = ["abc", "", [1], {"a": 1}]


def _markov_doc():
    return json.loads(Path(MARKOV).read_text())


@pytest.mark.parametrize("field, value", [
    *[(f, v) for f in ("epsilon", "lo", "hi") for v in _BAD_VALUES + [None]],
    # null is valid for these two: it asks for a sampled estimate
    *[(f, v) for f in ("min_slope", "holder_constant") for v in _BAD_VALUES],
    # float() takes JSON's true and false, and True == 1, but neither is a
    # number here (listed last, so the ids above keep their indices)
    ("v", True),
    *[(f, v) for f in ("epsilon", "lo", "hi", "min_slope", "holder_constant")
      for v in (True, False)],
])
def test_non_numeric_config_field_exits_one(tmp_path, capsys, field, value):
    doc = _markov_doc()
    if field == "v":
        doc["v"] = value
        message = f"unsupported map-config version {value!r} (expected 1)"
    elif field == "epsilon":
        doc["epsilon"] = value
        message = f"epsilon must be a finite number, got {value!r}"
    else:
        doc["branches"][1][field] = value
        message = f"branch 1 {field!r} must be a finite number, got {value!r}"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["check-slope", str(cfg), "--p", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_numeric_strings_in_config_stay_accepted(tmp_path, capsys):
    doc = _markov_doc()
    doc["epsilon"] = "1.0"
    doc["branches"][0].update(lo="0", min_slope="1.5", holder_constant="0")
    cfg = tmp_path / "strings.json"
    cfg.write_text(json.dumps(doc))
    assert main(["check-slope", str(cfg), "--p", "1"]) == 0
    assert main(["check-slope", MARKOV, "--p", "1"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second

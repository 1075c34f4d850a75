"""CLI surface: argument handling, exit codes, stdout messages, and the
CSV files each subcommand leaves behind.

Everything runs in-process through main(argv) except the tests that need
a fresh interpreter: the console-script entry point declared in
pyproject.toml, run the way the wrapper that pip generates for it does,
the scipy import checks, and a formula whose numpy warnings would reach a
user's stderr.
"""

import contextlib
import errno
import gc
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


def test_console_script_runs():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["pwexpand"]
    module, func = entry.split(":")
    # the body of the generated console-script wrapper
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.exit({func}())")
    # the child imports the same pwexpand as this process
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "check-slope", TRIPLING, "--p", "1"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout == "0.66666666666666663 < 1: admissible\n"


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
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("[False, False, False]\n" * 5
                          + "[False, True, False]\n")


def test_cli_import_loads_no_secrets_hashlib_or_multiprocessing():
    # temp file names come from os.urandom and the Lorenz child from a
    # bare os.fork, so none of these is worth its import time
    script = ("import sys\n"
              "import pwexpand.cli\n"
              "print([m for m in ('secrets', 'hashlib', 'multiprocessing')\n"
              "       if m in sys.modules])\n")
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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
    # a fresh interpreter, so no earlier test has loaded scipy already
    script = (
        "import sys\n"
        "from pwexpand.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"
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
    def no_estimate(*args, **kwargs):
        raise AssertionError("L was estimated")

    monkeypatch.setattr(analysis, "estimate_equicontinuity_L", no_estimate)
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


def test_density_bytes_equal_correlates_density(tmp_path):
    # density and correlate's density share one stopping rule
    out = tmp_path / "density.csv"
    assert main(["density", MARKOV, "--bins", "300", "--no-plot",
                 "--out", str(out)]) == 0
    got = _grid_csv_values(out.read_text())
    want = analysis._unique_invariant_density(load_map(MARKOV), 300).values
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
            f"unit multiplicity 1, spectral gap >= 0.5 (bound: no eigenvalue "
            f"inside the unit circle is resolved) -> {out}")
        assert lines[1] == (
            "r_ess = 1/s_min = 0.5; 1 of 8 eigenvalues resolved (|lambda| > "
            "r_ess + 1e-8), 7 not separated from the essential spectrum")
        assert out.read_text().splitlines()[0] == (
            "# r_ess=0.5 resolved_rows=1 spectral_gap=0.5 gap=bound")


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
    # the tripling map preserves Lebesgue, so both normalizations must
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


def test_correlate_on_a_stalled_density_exits_one(tmp_path, capsys):
    # [0, 1/3] and [1/3, 1] swap blocks, so the Ulam matrix has the
    # eigenvalue -1 and power iteration from the uniform start oscillates
    cfg = tmp_path / "swap.json"
    cfg.write_text(json.dumps({"v": 1, "epsilon": 1.0, "branches": [
        {"lo": 0.0, "hi": 1 / 3, "formula": "2*x + 1/3"},
        {"lo": 1 / 3, "hi": 5 / 9, "formula": "1.5*x - 0.5"},
        {"lo": 5 / 9, "hi": 7 / 9, "formula": "1.5*x - 5/6"},
        {"lo": 7 / 9, "hi": 1.0, "formula": "1.5*x - 7/6"}]}))
    assert main(["correlate", str(cfg), "--f", "x", "--g", "x", "--N", "5",
                 "--grid", "63", "--no-plot",
                 "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "power iteration stalled" in err
    assert not (tmp_path / "c.csv").exists()


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


def test_lorenz_bad_fit_degree_exits_before_integrating(tmp_path, capsys):
    outs = [tmp_path / name for name in ("traj.csv", "rmap.csv", "fit.json")]
    assert main(["lorenz", "--t-max", "300", "--fit-degree", "9",
                 "--out-trajectory", str(outs[0]), "--out-map", str(outs[1]),
                 "--out-fit", str(outs[2])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree must lie in [1, 6], got 9\n"
    assert list(tmp_path.iterdir()) == []


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
    """Run `lorenz` with module.name patched to raise on its third call,
    which happens in the forked child, and check that it exits 1 cleanly."""
    real, calls = getattr(module, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
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
    assert calls == []  # every call was made in the child
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lorenz_failing_child_exits_one(tmp_path, capfd, monkeypatch):
    # the forked child inherits the patch; its third RK4 piece raises
    _fail_in_child(kernels, "lorenz_rk4", tmp_path, capfd, monkeypatch)


def test_lorenz_failing_formatting_in_the_child_exits_one(
        tmp_path, capfd, monkeypatch, child_steps):
    # the child formats one step of each piece; its third formatting raises
    child_steps(1)
    _fail_in_child(lorenz, "_body", tmp_path, capfd, monkeypatch)


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
    """tracemalloc peak of one `lorenz` run above what was live before."""
    argv = ["lorenz", "--rho", "100", "--dt", "0.01", "--t-max", str(t_max),
            "--transient", "0", "--fit-degree", "1",
            "--out-trajectory", str(tmp_path / "traj.csv"),
            "--out-map", str(tmp_path / "rmap.csv"),
            "--out-fit", str(tmp_path / "fit.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # loads what the pipeline imports lazily
        # garbage left by earlier code, freed at a collection inside the
        # traced run, would move its peak by tens of kB
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()


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
    # for a user rather than through pytest's warning filters
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "pwexpand.cli", "var", "--f", "exp(1000*x)",
         "--q", "1", "--p", "1", "--A", "0.1", "--grid", "64"],
        cwd=tmp_path, capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stderr == "error: grid values must be finite\n"


def test_out_of_memory_prints_one_error_line(tmp_path):
    # the child's address space is capped at 2 GiB, far below the 7.45 GiB
    # that the bin edges of 10^9 bins take
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    # one BLAS thread: each thread's buffers take address space, so the
    # import alone could exceed the cap on a machine with many cores
    src = Path(pwexpand.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-m", "pwexpand.cli", "density",
         str(CONFIGS / "tent.json"), "--bins", "1000000000", "--no-plot"],
        cwd=tmp_path, capture_output=True, text=True, env=env,
        preexec_fn=cap_memory)
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("error: out of memory")
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "density.csv").exists()


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

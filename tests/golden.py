"""Golden outputs of the CLI: one directory per case under tests/golden/.

Each case is one ``pwexpand`` invocation.  Its directory holds ``argv.json``,
``stdout``, ``stderr``, ``exit_code`` and, under ``files/``, every file the
invocation wrote.  The checkout path is stored as the placeholder ``{ROOT}``,
in argv and in every output.  ``build.json`` records the numpy build, the
BLAS library and the SIMD targets of numpy's float64 loops that wrote the
goldens.

    python tests/golden.py            # run every case and compare
    python tests/golden.py --write    # regenerate tests/golden/

Every case runs through ``cli.main`` in this one process, each in a fresh
temporary directory, with ``OPENBLAS_NUM_THREADS=1`` set before numpy
loads and ``COLUMNS=80`` for argparse.  On the recorded build the outputs
must match byte for byte.  On any other build the text between numbers
must match exactly and each number must lie within `REL_TOL` of the
stored one (or within `ABS_TOL` of it, for numbers at rounding level),
since dense eigensolves, BLAS reductions and SIMD transcendental loops may
differ in their last digits between builds.  Exit status 0 when every case
matches, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PLACEHOLDER = "{ROOT}"

#: another build's numbers may differ from the stored ones relatively by
#: this much, and absolutely by ABS_TOL
REL_TOL = 1e-9
ABS_TOL = 1e-12

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

_TRIPLING = "{ROOT}/configs/tripling.json"
_DOUBLING = "{ROOT}/configs/doubling.json"
_MARKOV = "{ROOT}/configs/markov.json"
_TENT = "{ROOT}/configs/tent.json"
_NONLINEAR = "{ROOT}/pipebench/maps/nonlinear.json"
_HOLDER = "{ROOT}/tests/half_holder.json"
_SWAP = "{ROOT}/tests/swap.json"
_IDENTITY = "{ROOT}/tests/identity.json"

#: (case name, argv); every case takes at most ~0.3 s
CASES = (
    ("check_slope_tripling", ["check-slope", _TRIPLING, "--p", "1"]),
    ("check_slope_doubling", ["check-slope", _DOUBLING, "--p", "1"]),
    ("check_slope_half_holder", ["check-slope", _HOLDER, "--p", "2"]),
    ("ly_tripling", ["ly", _TRIPLING, "--p", "1"]),
    ("ly_nonlinear", ["ly", _NONLINEAR, "--p", "2", "--A", "0.125"]),
    ("ly_markov_t", ["ly", _MARKOV, "--p", "2", "--t", "1.5", "--L", "2"]),
    ("ly_tripling_auto_L", ["ly", _TRIPLING, "--p", "2", "--t", "2",
                            "--auto-L"]),
    ("ly_half_holder_auto_A", ["ly", _HOLDER, "--p", "2", "--auto-A"]),
    ("ly_verify_tripling", ["ly-verify", _TRIPLING, "--p", "1", "--A",
                            "0.125", "--trials", "16", "--grid", "1024"]),
    ("ly_verify_nonlinear", ["ly-verify", _NONLINEAR, "--p", "2", "--A",
                             "0.125", "--trials", "8", "--grid", "1024",
                             "--seed", "3"]),
    ("density_markov", ["density", _MARKOV, "--bins", "300", "--no-plot"]),
    ("density_tent", ["density", _TENT, "--bins", "256", "--no-plot"]),
    ("density_nonlinear", ["density", _NONLINEAR, "--bins", "1024",
                           "--no-plot"]),
    ("density_half_holder", ["density", _HOLDER, "--bins", "512",
                             "--no-plot"]),
    # 1/2 lies inside bin 150 of 301, and both tent branches map into the
    # top bins; markov's branch 2 covers two thirds of 1000 bins, and 2/3
    # lies inside a bin
    ("density_tent_301", ["density", _TENT, "--bins", "301", "--no-plot"]),
    ("density_markov_1000", ["density", _MARKOV, "--bins", "1000",
                             "--no-plot"]),
    ("spectrum_markov", ["spectrum", _MARKOV, "--bins", "300", "--top", "2",
                         "--no-plot"]),
    ("spectrum_nonlinear", ["spectrum", _NONLINEAR, "--bins", "400", "--top",
                            "4", "--no-plot"]),
    ("spectrum_nonlinear_krylov", ["spectrum", _NONLINEAR, "--bins", "4200",
                                   "--top", "2", "--no-plot"]),
    ("spectrum_tent_krylov_stalls", ["spectrum", _TENT, "--bins", "4500",
                                     "--top", "4", "--no-plot"]),
    ("spectrum_tent_301", ["spectrum", _TENT, "--bins", "301", "--top", "2",
                           "--no-plot"]),
    ("spectrum_swap", ["spectrum", _SWAP, "--bins", "512", "--top", "2",
                       "--no-plot"]),
    ("var_sine", ["var", "--f", "sin(2*pi*x)", "--q", "1", "--p", "2",
                  "--A", "0.125", "--grid", "4096"]),
    ("var_root_sup", ["var", "--f", "x^0.3", "--q", "inf", "--p", "1",
                      "--A", "0.125", "--grid", "4096"]),
    ("correlate_tripling", ["correlate", _TRIPLING, "--f", "x", "--g", "x",
                            "--N", "20", "--grid", "1024", "--no-plot"]),
    ("correlate_markov_invariant", ["correlate", _MARKOV, "--f", "x", "--g",
                                    "x^2", "--N", "30", "--grid", "1024",
                                    "--wrt", "invariant", "--no-plot"]),
    ("correlate_tent_invariant_301", ["correlate", _TENT, "--f", "x", "--g",
                                      "x^2", "--N", "10", "--grid", "301",
                                      "--wrt", "invariant", "--no-plot"]),
    ("correlate_doubling_no_rate", ["correlate", _DOUBLING, "--f", "x",
                                    "--g", "1", "--N", "20", "--grid",
                                    "1024", "--no-plot"]),
    ("iterates_tripling", ["iterates", _TRIPLING, "--f", "x", "--p", "1",
                           "--A", "0.125", "--n", "10", "--grid", "1024"]),
    ("iterates_doubling_no_bound", ["iterates", _DOUBLING, "--f",
                                    "sin(2*pi*x)", "--p", "1", "--A", "0.125",
                                    "--n", "10", "--grid", "1024"]),
    # f's L¹ norm overflows a plain mean; the iterates stay finite
    ("iterates_tripling_large_f", ["iterates", _TRIPLING, "--f", "1e307*x",
                                   "--p", "1", "--A", "0.125", "--n", "5",
                                   "--grid", "300"]),
    ("lorenz", ["lorenz", "--rho", "1500", "--t-max", "60", "--transient",
                "50"]),
    # exit 1, with messages the unit tests pin
    ("correlate_swap_stalls", ["correlate", _SWAP, "--f", "x", "--g", "x",
                               "--N", "12", "--grid", "256", "--wrt",
                               "invariant", "--no-plot"]),
    ("ly_auto_A_slope_fails", ["ly", _DOUBLING, "--p", "1", "--auto-A"]),
    ("ly_auto_A_needs_t_1", ["ly", _TRIPLING, "--p", "2", "--t", "1.5",
                             "--auto-L", "--auto-A"]),
    ("ly_t_above_p", ["ly", _TRIPLING, "--p", "1", "--t", "1.5"]),
    ("ly_p_below_one_over_epsilon", ["ly", _HOLDER, "--p", "1.5"]),
    ("spectrum_top_above_bins", ["spectrum", _MARKOV, "--bins", "3",
                                 "--top", "8", "--no-plot"]),
    ("lorenz_too_few_maxima", ["lorenz", "--t-max", "1", "--transient", "0",
                               "--dt", "0.01"]),
    ("density_identity_fails_validation", ["density", _IDENTITY, "--bins",
                                           "64", "--no-plot"]),
    ("density_missing_map", ["density", "{ROOT}/configs/missing.json",
                             "--bins", "64", "--no-plot"]),
    # exit 2: argparse's usage error
    ("usage_bins_zero", ["spectrum", _MARKOV, "--bins", "0"]),
)


def build() -> dict:
    """The numpy build, BLAS library and SIMD dispatch that outputs
    depend on."""
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    except ImportError:
        simd = []
    else:
        simd = sorted({target["current"]
                       for sigs in opt_func_info(signature="float64").values()
                       for target in sigs.values()})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "machine": platform.machine(), "simd": simd}


def _placeholder(text: str) -> str:
    return text.replace(str(ROOT), PLACEHOLDER)


def run_case(argv) -> dict:
    """Run one case through `cli.main` in a fresh temporary directory."""
    from pwexpand import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main([a.replace(PLACEHOLDER, str(ROOT))
                                     for a in argv])
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
            files = {p.name: _placeholder(p.read_text(encoding="utf-8"))
                     for p in sorted(Path(work).iterdir())}
        finally:
            os.chdir(ROOT)
    return {"argv": list(argv), "stdout": _placeholder(out.getvalue()),
            "stderr": _placeholder(err.getvalue()), "exit_code": code,
            "files": files}


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def stored(name: str) -> dict:
    case = GOLDEN / name
    files = case / "files"
    return {"argv": json.loads(_read(case / "argv.json")),
            "stdout": _read(case / "stdout"), "stderr": _read(case / "stderr"),
            "exit_code": int(_read(case / "exit_code")),
            "files": {p.name: _read(p) for p in sorted(files.iterdir())}
            if files.is_dir() else {}}


def write(name: str, result: dict) -> None:
    case = GOLDEN / name
    case.mkdir(parents=True)
    (case / "argv.json").write_text(json.dumps(result["argv"]) + "\n",
                                    encoding="utf-8")
    for part in ("stdout", "stderr"):
        (case / part).write_text(result[part], encoding="utf-8")
    (case / "exit_code").write_text(f"{result['exit_code']}\n",
                                    encoding="utf-8")
    if result["files"]:
        (case / "files").mkdir()
    for file_name, text in result["files"].items():
        (case / "files" / file_name).write_text(text, encoding="utf-8")


def texts_match(got: str, want: str) -> bool:
    """The same text between numbers, and numbers within REL_TOL (or
    ABS_TOL) of each other; identical tokens such as nan always match."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    return all(a == b or math.isclose(float(a), float(b), rel_tol=REL_TOL,
                                      abs_tol=ABS_TOL)
               for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)))


def differences(name: str, got: dict, want: dict, exact: bool) -> list:
    """One line per part of the case that differs from its golden."""
    same = (lambda a, b: a == b) if exact else texts_match
    out = []
    if got["argv"] != want["argv"]:
        out.append(f"{name}: argv.json differs")
    if got["exit_code"] != want["exit_code"]:
        out.append(f"{name}: exit code {got['exit_code']}, golden "
                   f"{want['exit_code']}")
    for part in ("stdout", "stderr"):
        if not same(got[part], want[part]):
            out.append(f"{name}: {part} {got[part]!r}, golden {want[part]!r}")
    if sorted(got["files"]) != sorted(want["files"]):
        out.append(f"{name}: wrote {sorted(got['files'])}, golden "
                   f"{sorted(want['files'])}")
    for file_name in sorted(set(got["files"]) & set(want["files"])):
        a, b = got["files"][file_name], want["files"][file_name]
        if not same(a, b):
            pairs = zip(a.splitlines(True), b.splitlines(True))
            line = next((i for i, (x, y) in enumerate(pairs)
                         if not same(x, y)),
                        min(a.count("\n"), b.count("\n")))
            out.append(f"{name}: files/{file_name} differs first at line "
                       f"{line + 1}")
    return out


def main(argv) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to this
    sys.path.insert(0, str(ROOT / "src"))
    results = {name: run_case(case_argv) for name, case_argv in CASES}
    if argv == ["--write"]:
        shutil.rmtree(GOLDEN, ignore_errors=True)
        for name, result in results.items():
            write(name, result)
        (GOLDEN / "build.json").write_text(
            json.dumps(build(), indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(results)} cases to {GOLDEN}")
        return 0
    if argv:
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    recorded = json.loads(_read(GOLDEN / "build.json"))
    exact = recorded == build()
    print("comparing bytes" if exact else
          f"build {build()} is not the recorded {recorded}: comparing text, "
          f"and numbers to rel {REL_TOL:g} / abs {ABS_TOL:g}")
    stray = sorted(p.name for p in GOLDEN.iterdir()
                   if p.is_dir() and p.name not in results)
    bad = [f"{name}: golden directory without a case" for name in stray]
    for name, result in results.items():
        if not (GOLDEN / name).is_dir():
            bad.append(f"{name}: no golden directory")
            continue
        bad += differences(name, result, stored(name), exact)
    print("\n".join(bad) if bad else f"{len(results)} cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

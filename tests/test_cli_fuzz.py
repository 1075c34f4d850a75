"""Regression guard for bad CLI arguments: replacing any one numeric
option of a working invocation with a non-finite, extreme, non-positive
or non-numeric value, or any one formula option with a hostile formula,
must end in exit code 0, 1 or 2 (argparse's usage error) with no
traceback, and a hostile formula's exit 1 in exactly one `error: ` line.

Every base invocation is small, and the values are a fixed list: moderate
large values (say, a hundred thousand bins) would start long computations
rather than fail, so they are deliberately absent.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pwexpand.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MARKOV = str(CONFIGS / "markov.json")
TRIPLING = str(CONFIGS / "tripling.json")

# (base argv, its numeric options with their working values)
INVOCATIONS = (
    (["check-slope", TRIPLING], {"--p": "1"}),
    (["ly", TRIPLING, "--out", "ly.csv"],
     {"--p": "2", "--t": "1.5", "--A": "0.125", "--L": "2"}),
    (["ly-verify", MARKOV, "--out", "lyv.csv"],
     {"--p": "1", "--A": "0.125", "--trials": "2", "--grid": "64",
      "--seed": "0"}),
    (["density", MARKOV, "--no-plot", "--out", "d.csv"],
     {"--bins": "16", "--tol": "1e-12", "--max-iters": "50"}),
    (["spectrum", MARKOV, "--no-plot", "--out", "s.csv"],
     {"--bins": "16", "--top": "4"}),
    (["var", "--f", "sin(2*pi*x)", "--out", "v.csv"],
     {"--q": "1", "--p": "2", "--A": "0.125", "--grid": "64"}),
    (["correlate", TRIPLING, "--f", "x", "--g", "x", "--no-plot",
      "--out", "c.csv"],
     {"--N": "4", "--grid": "27"}),
    (["iterates", TRIPLING, "--f", "sin(2*pi*x)", "--out", "i.csv"],
     {"--p": "1", "--A": "0.125", "--n": "3", "--grid": "27"}),
    (["lorenz", "--out-trajectory", "t.csv", "--out-map", "m.csv",
      "--out-fit", "f.json"],
     {"--sigma": "10", "--rho": "28", "--beta": "2.6666666666666665",
      "--x0": "1", "--y0": "1", "--z0": "1", "--dt": "0.01",
      "--t-max": "150", "--transient": "5", "--fit-degree": "1"}),
)

BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "abc", "")

CASES = [(base, opts, name) for base, opts in INVOCATIONS for name in opts]

# formulas that overflow, leave their domain or have an infinite slope
HOSTILE_FORMULAS = ("10^400", "2^2^2^2^2", "x^0.5", "1/(x-x)", "log(x-2)",
                    "sqrt(-1)", "(-8)^(1/3)", "exp(1000)", "1e400*x",
                    "exp(1000*x)")

# every formula option of a base invocation, paired with every hostile formula
FORMULA_CASES = [(base, opts, name, formula)
                 for base, opts in INVOCATIONS
                 for name in ("--f", "--g") if name in base
                 for formula in HOSTILE_FORMULAS]


def _run(argv, workdir):
    """Exit code and stderr of main(argv) run inside workdir."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    finally:
        os.chdir(cwd)
    return rc, err.getvalue()


def _argv(base, opts, name, value):
    # "--opt=value" keeps argparse from reading "-1" or "-inf" as an option
    return base + [f"{k}={value if k == name else v}" for k, v in opts.items()]


def test_base_invocations_succeed():
    with tempfile.TemporaryDirectory() as tmp:
        for base, opts in INVOCATIONS:
            rc, err = _run(_argv(base, opts, None, None), tmp)
            assert rc == 0, (base[0], err)


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from(BAD_VALUES))
def test_bad_numeric_argument_never_escapes(case, value):
    base, opts, name = case
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _run(_argv(base, opts, name, value), tmp)
    assert rc in (0, 1, 2), (name, value, rc, err)
    assert "Traceback" not in err, (name, value, err)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(FORMULA_CASES))
def test_hostile_formula_never_escapes(case):
    base, opts, name, formula = case
    argv = list(base)
    argv[argv.index(name) + 1] = formula
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _run(_argv(argv, opts, None, None), tmp)
    assert rc in (0, 1, 2), (name, formula, rc, err)
    assert "Traceback" not in err, (name, formula, err)
    if rc == 1:
        assert err.count("\n") == 1 and err.startswith("error: "), (
            name, formula, err)

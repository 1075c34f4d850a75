"""Shared fixtures: the standard test maps, built once per session, the
acceptance-criteria report surfaced after the run, a check that no test
leaves a child process, and a way to fix how much of each Lorenz piece
the RK4 child formats."""

import os

import numpy as np
import pytest

import pwexpand
from pwexpand import lorenz

# one line per acceptance criterion, echoed at the end of the run
acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_report():
    return acceptance_lines


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process (waitpid gave pid {pid})")


@pytest.fixture
def child_steps(monkeypatch):
    """Call with n to make the Lorenz RK4 child format the last n `_STEP`
    steps of kept rows of each piece, or with None for all of them,
    whenever the caller asks for the piece."""
    real_blocks, real_formatted = lorenz._rk4_blocks, lorenz._formatted_blocks

    def fix(steps):
        looks = [0]  # the child's looks at the requests in this block

        def blocks(config):
            for xyz in real_blocks(config):
                looks[0] = 0
                yield xyz

        def asked():
            looks[0] += 1
            return steps is not None and looks[0] > steps

        monkeypatch.setattr(lorenz, "_rk4_blocks", blocks)
        monkeypatch.setattr(lorenz, "_formatted_blocks",
                            lambda config, _: real_formatted(config, asked))
    return fix


@pytest.fixture(scope="session")
def tripling():
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": 1 / 3, "formula": "3*x",
             "min_slope": 3.0, "holder_constant": 0.0},
            {"lo": 1 / 3, "hi": 2 / 3, "formula": "3*x - 1",
             "min_slope": 3.0, "holder_constant": 0.0},
            {"lo": 2 / 3, "hi": 1.0, "formula": "3*x - 2",
             "min_slope": 3.0, "holder_constant": 0.0},
        ],
        epsilon=1.0)


@pytest.fixture(scope="session")
def doubling():
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": 0.5, "formula": "2*x",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1",
             "min_slope": 2.0, "holder_constant": 0.0},
        ],
        epsilon=1.0)


@pytest.fixture(scope="session")
def markov():
    # slopes 3/2 and 2; branch images [0,1] and [0,2/3]
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": 2 / 3, "formula": "3*x/2",
             "min_slope": 1.5, "holder_constant": 0.0},
            {"lo": 2 / 3, "hi": 1.0, "formula": "2*x - 4/3",
             "min_slope": 2.0, "holder_constant": 0.0},
        ],
        epsilon=1.0)


@pytest.fixture(scope="session")
def tent():
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": 0.5, "formula": "2*x",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.5, "hi": 1.0, "formula": "2 - 2*x",
             "min_slope": 2.0, "holder_constant": 0.0},
        ],
        epsilon=1.0)


@pytest.fixture(scope="session")
def threshold_map():
    # constant slope s = 2.618: at p = 2 the admissibility quantity
    # 1/sqrt(s) + 1/s sits just barely above 1
    s = 2.618
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": 1 / s, "formula": "2.618*x",
             "min_slope": s, "holder_constant": 0.0},
            {"lo": 1 / s, "hi": 2 / s, "formula": "2.618*x - 1",
             "min_slope": s, "holder_constant": 0.0},
            {"lo": 2 / s, "hi": 1.0, "formula": "2.618*x - 2",
             "min_slope": s, "holder_constant": 0.0},
        ],
        epsilon=1.0)


@pytest.fixture(scope="session")
def block_map():
    # preserves [0,1/2] and [1/2,1] separately: two ergodic components
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": 0.25, "formula": "2*x",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.25, "hi": 0.5, "formula": "2*x - 0.5",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.5, "hi": 0.75, "formula": "2*x - 0.5",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.75, "hi": 1.0, "formula": "2*x - 1",
             "min_slope": 2.0, "holder_constant": 0.0},
        ],
        epsilon=1.0)


# first branch 2.5*x + 0.5*x^2 up to its preimage of 1, then a linear
# branch covering the rest; tau' is Lipschitz with constant 1 on branch 0
_NL_A = float(-2.5 + np.sqrt(2.5 ** 2 + 2.0))


@pytest.fixture(scope="session")
def nonlinear():
    a = _NL_A
    slope2 = 1.0 / (1.0 - a)
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": a, "formula": "2.5*x + 0.5*x^2",
             "min_slope": 2.5, "holder_constant": 1.0},
            {"lo": a, "hi": 1.0, "formula": f"{slope2:.17g}*(x - {a:.17g})",
             "min_slope": slope2, "holder_constant": 0.0},
        ],
        epsilon=1.0)


@pytest.fixture(scope="session")
def swap_map():
    # swaps [0,1/2] and [1/2,1]: Lebesgue measure is the unique ACIM, and
    # P has the eigenvalue -1, so the map is ergodic but not mixing
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": 0.25, "formula": "2*x + 0.5",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.25, "hi": 0.5, "formula": "2*x",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.5, "hi": 0.75, "formula": "2*x - 1",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.75, "hi": 1.0, "formula": "2*x - 1.5",
             "min_slope": 2.0, "holder_constant": 0.0},
        ],
        epsilon=1.0)


@pytest.fixture(scope="session")
def absorbing():
    # [0,1/2] is invariant and absorbing; the unique invariant density
    # is 2 * indicator([0,1/2]), identically zero on the right half
    return pwexpand.make_map(
        [
            {"lo": 0.0, "hi": 0.25, "formula": "2*x",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.25, "hi": 0.5, "formula": "2*x - 0.5",
             "min_slope": 2.0, "holder_constant": 0.0},
            {"lo": 0.5, "hi": 1.0, "formula": "2*x - 1",
             "min_slope": 2.0, "holder_constant": 0.0},
        ],
        epsilon=1.0)

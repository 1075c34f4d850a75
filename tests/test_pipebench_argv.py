"""Every CLI invocation of the benchmark under pipebench/ parses.

The benchmark runs the program as `python -m pwexpand.cli <argv>` with
argument vectors written out in `pipebench/workloads.py`.  A CLI change
that drops or renames an option those vectors use would otherwise show
only as a failed benchmark run; here it fails the test suite."""

import importlib.util
import sys
from pathlib import Path

import pytest

from pwexpand.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    """pipebench/workloads.py, loaded from its file.  Its dataclasses look
    their module up in sys.modules, so it is registered there first."""
    name = "pipebench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "pipebench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_benchmark_leg_parses(workloads):
    parser = build_parser()
    legs = 0
    for make in workloads.WORKLOADS.values():
        workload = make(0)
        # the setup call that loads and validates the workload's map
        args = parser.parse_args(["check-slope", workload.setup_map,
                                  "--p", "1"])
        assert args.command == "check-slope"
        for leg in workload.legs:
            args = parser.parse_args(list(leg.argv))
            assert args.command == leg.argv[0], leg.name
            legs += 1
    assert legs > 0

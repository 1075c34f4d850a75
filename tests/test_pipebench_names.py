"""The benchmark under pipebench/ reaches pwexpand by name: `traced.py`
wraps functions found by (module, name), and `run.py` and `probes.py`
read module attributes and call inner functions.  A rename or deletion in
pwexpand would not fail the benchmark's own checks; it would only turn its
spans and probe metrics into zeros.  This pins every name it uses."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pwexpand
from pwexpand import (analysis, expr, grid, kernels, mapconfig, maps,
                      plotting, transfer)

ROOT = Path(__file__).resolve().parent.parent


def _traced_module():
    """pipebench/traced.py, loaded from its file; its top level only
    defines functions and the TRACED table."""
    spec = importlib.util.spec_from_file_location(
        "pipebench_traced", ROOT / "pipebench" / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = _traced_module().TRACED
    assert traced
    for module_name, fn_name in traced:
        module = importlib.import_module(f"pwexpand.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)


def test_names_read_by_the_runner_and_probes_exist():
    for module, name in ((kernels, "sliding_minmax"), (transfer, "apply_fp"),
                         (analysis, "random_test_functions"),
                         (maps, "invert_branch_array"),
                         (expr, "eval_with_derivative"),
                         (mapconfig, "load_map"), (grid, "variation")):
        assert callable(getattr(module, name, None)), (module.__name__, name)
    assert isinstance(kernels.NUMBA_ENABLED, bool)
    assert isinstance(plotting.HAVE_MPL, bool)
    assert isinstance(transfer.DENSE_EIG_LIMIT, int)
    assert "radii" in {f.name for f in dataclasses.fields(grid.VariationReport)}


def test_ulam_operator_has_what_the_spans_measure(tripling):
    # the spectrum span reads op.n; the ulam_matrix span reads op.matrix
    op = transfer.ulam_matrix(tripling, 9)
    assert op.n == 9
    assert op.matrix.nnz > 0


def test_records_have_what_the_spans_measure(tripling):
    # the ly_verify span reads rep.margins and the invariant_density span
    # h.values; hasattr on real objects, since some of their neighbours
    # are properties, not dataclass fields
    rep = analysis.ly_verify(tripling, p=1.0, A=0.125, trials=2, n=64)
    assert hasattr(rep, "margins")
    h = transfer.invariant_density(transfer.ulam_matrix(tripling, 9))
    assert hasattr(h, "values")


def test_every_public_name_resolves():
    for name in pwexpand.__all__:
        assert hasattr(pwexpand, name), name

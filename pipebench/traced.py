"""Run one CLI invocation in-process with spans around public functions.

    python pipebench/traced.py SPANS.json ARG...

is `python -m pwexpand.cli ARG...` with every function in TRACED wrapped,
wherever a pwexpand module holds a reference to it.  Each call records a
span (module, function, start, end, parent, measures); spans stay in
memory and are written to SPANS.json when the invocation ends, also when
it is stopped by SIGTERM at the benchmark's time cap.  The program's own
source is not changed.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


class Stopped(BaseException):
    """SIGTERM arrived; unwinds through the open spans so they are closed."""


def _on_sigterm(signum, frame):
    raise Stopped()


def _row_sum_defect(op):
    import numpy as np
    return float(np.max(np.abs(np.asarray(op.matrix.sum(axis=1)).ravel() - 1.0)))


def _density_residual(op, h):
    import numpy as np
    return float(np.mean(np.abs(op.matrix.T @ h.values - h.values)))


def _text_measures(args, out):
    return {"rows": out.count("\n"), "bytes": len(out.encode("utf-8"))}


# (module, function) -> measures(args, result) taken after the span closes;
# `path` for spectrum is read at call time, so a stopped call still has it
TRACED = {
    ("mapconfig", "load_map"): None,
    ("maps", "validate"): None,
    ("transfer", "ulam_matrix"): lambda a, op: {
        "nnz": int(op.matrix.nnz), "row_sum_defect": _row_sum_defect(op)},
    ("transfer", "invariant_density"): lambda a, h: {
        "residual_l1": _density_residual(a[0], h)},
    ("transfer", "spectrum"): None,
    ("transfer", "iterate_norm_series"): None,
    ("analysis", "correlation_invariant"): None,
    ("analysis", "ly_verify"): lambda a, rep: {
        "trials": len(rep.margins), "worst_margin": float(min(rep.margins))},
    ("analysis", "estimate_equicontinuity_L"): None,
    ("lorenz", "integrate"): None,
    ("kernels", "lorenz_rk4"): lambda a, out: {"steps": int(a[5])},
    ("lorenz", "extract_z_maxima"): None,
    ("lorenz", "build_return_map"): None,
    ("lorenz", "fit_piecewise"): None,
    ("serialize", "trajectory_csv"): _text_measures,
    ("serialize", "grid_function_csv"): _text_measures,
    ("serialize", "spectral_csv"): _text_measures,
    ("serialize", "ly_verification_csv"): _text_measures,
    ("serialize", "write_text_atomic"): lambda a, out: {
        "bytes": len(a[1].encode("utf-8"))},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, module, name, fn, measures, dense_limit):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "module": module, "function": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "measures": {}}
            if name == "spectrum":
                span["measures"]["path"] = (
                    "dense" if args[0].n <= dense_limit else "arpack")
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                span["measures"]["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if measures is not None and "error" not in span["measures"]:
                    span["measures"].update(measures(args, result))

        return traced


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    signal.signal(signal.SIGTERM, _on_sigterm)
    t0 = time.perf_counter()
    from pwexpand import cli, transfer
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if n == "pwexpand" or n.startswith("pwexpand.")]
    for (mod_name, fn_name), measures in TRACED.items():
        original = getattr(sys.modules[f"pwexpand.{mod_name}"], fn_name)
        wrapper = tracer.wrap(mod_name, fn_name, original, measures,
                              transfer.DENSE_EIG_LIMIT)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    rc = 1
    stopped = False
    try:
        rc = cli.main(cli_args)
    except Stopped:
        stopped = True
    finally:
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit": rc, "stopped": stopped,
                       "spans": tracer.spans}, fh)
        os.replace(tmp, out_path)
    return 143 if stopped else rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

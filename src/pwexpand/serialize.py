"""CSV emission and atomic file writes.

Every number is printed with 17 significant digits, enough for an exact
double-precision round trip, so re-reading an emitted CSV and re-emitting
it is byte-identical.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import ToolError
from .grid import GridFunction


#: rows formatted per chunk of `rows`; bounds its transient lists
_CHUNK = 4096


def fmt(x) -> str:
    return f"{float(x):.17g}"


def _cell(x) -> str:
    """One cell: None is empty, a bool true/false, an integer decimal and
    any other number `fmt`."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x) if isinstance(x, (int, np.integer)) else fmt(x)


def rows(columns):
    """Yield CSV rows _CHUNK at a time, one row per entry of the array
    columns, or one row if all are scalars.  A scalar or None column
    repeats its `_cell`; array cells follow the same policy by dtype.
    Rows go through one template; `lorenz` formats the trajectory CSV
    with it too, in the RK4 child and in the main process."""
    fields, arrays = [], []
    for col in columns:
        a = np.asarray(col)
        if a.ndim == 0:
            fields.append(_cell(a[()]).replace("%", "%%"))
            continue
        kind = a.dtype.kind
        fields.append("%d" if kind in "iu" else "%s" if kind == "b" else "%.17g")
        arrays.append(np.where(a, "true", "false") if kind == "b" else a)
    template = ",".join(fields) + "\n"
    count = min((len(a) for a in arrays), default=1)
    for start in range(0, count, _CHUNK):
        m = min(_CHUNK, count - start)
        cells = [None] * (m * len(arrays))
        for j, a in enumerate(arrays):
            cells[j::len(arrays)] = a[start:start + m].tolist()
        yield template * m % tuple(cells)


def _table(header: str, *columns, comments=()) -> str:
    """The whole CSV text: the "# " comment lines, the header, then the
    rows of `rows`, in one join."""
    head = "".join(f"# {c}\n" for c in comments) + header + "\n"
    return "".join([head, *rows(columns)])


@contextlib.contextmanager
def _tool_error(path):
    """Re-raise an OSError as the ToolError "cannot write <path>: …"."""
    try:
        yield
    except OSError as err:
        raise ToolError(f"cannot write {path}: {err.strerror or err}") from err


@contextlib.contextmanager
def written_together():
    """Yield ``stage(path, chunks)``, which writes the strings of `chunks`
    to a new temp file in the directory of `path`.  When the block ends,
    each temp file is renamed onto its path, in the order staged.  If the
    block, a write or `chunks` fails, every temp file is removed and every
    target is left as it was; a failed rename removes the temp files not
    yet renamed.  Only renames touch the targets.

    A temp file is created with mode 0o666 and the kernel applies the
    umask, so the result gets the same mode as a plain ``open(path, "w")``.
    """
    staged = []  # (temp file, target), not yet renamed

    def stage(path, chunks):
        path = os.fspath(path)
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        with _tool_error(path):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)

    try:
        yield stage
        while staged:
            tmp, path = staged[0]
            with _tool_error(path):
                os.replace(tmp, path)
            del staged[0]
    finally:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def write_text_atomic(path, text: str) -> None:
    """Write text to `path` by one staged rename (see `written_together`)."""
    with written_together() as stage:
        # by 1 MiB slices: one write would hold a second, encoded copy of text
        stage(path, (text[i:i + (1 << 20)]
                     for i in range(0, len(text), 1 << 20)))


def grid_function_csv(f: GridFunction) -> str:
    return _table("cell_index,midpoint,value", np.arange(f.n), f.midpoints(),
                  f.values)


def spectral_csv(report) -> str:
    lam = np.asarray(report.eigenvalues, dtype=complex)
    # the resolved values (converged, |λ| > r_ess + 1e-8) are the first
    # rows unless unconverged values outside r_ess leave the gap unresolved
    head = (f"r_ess={fmt(report.r_ess)}"
            f" resolved_rows={int(np.sum(report.resolved))}"
            f" spectral_gap={fmt(report.spectral_gap)} gap={report.gap_kind}")
    # np.hypot rounds as Python's abs(complex) does; np.abs does not
    return _table("re,im,modulus", lam.real, lam.imag,
                  np.hypot(lam.real, lam.imag), comments=(head,))


def ly_constants_csv(c) -> str:
    return _table("p,t,A,B,D,alpha,beta,K,C,slope_condition_value,admissible",
                  c.p, c.t, c.A, c.B, c.D, c.alpha, c.beta, c.K, c.C,
                  c.slope_condition_value, c.admissible)


def ly_verification_csv(v) -> str:
    head = (f"p={fmt(v.p)} A={fmt(v.A)} alpha={fmt(v.alpha)} beta={fmt(v.beta)}"
            f" grid={v.n} seed={v.seed} violations={v.violations}")
    return _table("trial,margin,slack,violation", np.arange(len(v.margins)),
                  v.margins, v.slacks, v.margins < -v.slacks, comments=(head,))


def variation_csv(rep) -> str:
    return _table("lq_exponent,p,A,variation,lq_norm,bv_norm,argmax_radius",
                  rep.lq_exponent, rep.p, rep.A, rep.variation, rep.lq_norm,
                  rep.bv_norm, rep.argmax_radius)


def correlation_csv(series) -> str:
    if series.no_rate_reason is not None:
        fit = f"fitted_rate=none ({series.no_rate_reason})"
    else:
        fit = (f"fitted_rate={fmt(series.fitted_rate)}"
               f" fit_quality={fmt(series.fit_quality)}")
    return _table("N,C", series.N_values, series.C_values,
                  comments=(f"kind={series.kind}", fit))


def iterate_series_csv(series) -> str:
    head = (f"C={_cell(series.C)} bound={_cell(series.bound)}"
            f" l1_initial={fmt(series.l1_initial)}"
            f" n0={'none' if series.n0 is None else series.n0}")
    return _table("n,bv_norm,bound,within_bound", np.arange(len(series.norms)),
                  series.norms, None if series.flags is None else series.bound,
                  series.flags, comments=(head,))


def trajectory_csv(traj) -> str:
    return _table("t,x,y,z", traj.t, *np.asarray(traj.xyz).T)


def return_map_csv(data) -> str:
    return _table("z_k,z_next", *np.asarray(data.pairs).T)

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


#: rows formatted per piece of `_rows`; bounds its transient lists
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


def _rows(header: str, *columns, comments=()):
    """Yield CSV text in pieces: the "# " comment lines and the header,
    then the rows of `_body`."""
    yield "".join(f"# {c}\n" for c in comments) + header + "\n"
    yield from _body(columns)


def _body(columns):
    """Yield CSV rows _CHUNK at a time, one row per entry of the array
    columns, or one row if all are scalars.  A scalar or None column
    repeats its `_cell`; array cells follow the same policy by dtype.
    Rows go through one template."""
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
    rows = min((len(a) for a in arrays), default=1)
    for start in range(0, rows, _CHUNK):
        m = min(_CHUNK, rows - start)
        cells = [None] * (m * len(arrays))
        for j, a in enumerate(arrays):
            cells[j::len(arrays)] = a[start:start + m].tolist()
        yield template * m % tuple(cells)


def _table(header: str, *columns, comments=()) -> str:
    """The whole CSV text of `_rows` as one string."""
    return "".join(_rows(header, *columns, comments=comments))


def _write_atomic(path, chunks) -> None:
    """Write the strings of `chunks` via a temp file in the destination
    directory, then rename; if writing or `chunks` fails, the temp file is
    removed and the target is left as it was.

    The temp file is created with mode 0o666 and the kernel applies the
    umask, so the result gets the same mode as a plain ``open(path, "w")``.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    created = False
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as err:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(err, OSError):
            raise ToolError(f"cannot write {path}: {err.strerror or err}") from err
        raise


def write_text_atomic(path, text: str) -> None:
    """Write text atomically (see `_write_atomic`)."""
    # by 1 MiB slices: one write would hold a second, encoded copy of text
    _write_atomic(path, (text[i:i + (1 << 20)]
                         for i in range(0, len(text), 1 << 20)))


def grid_function_csv(f: GridFunction) -> str:
    return _table("cell_index,midpoint,value", np.arange(f.n), f.midpoints(),
                  f.values)


def spectral_csv(report) -> str:
    lam = np.asarray(report.eigenvalues, dtype=complex)
    # the resolved values (|λ| > r_ess + 1e-8) are the first rows
    head = (f"r_ess={fmt(report.r_ess)}"
            f" resolved_rows={int(np.sum(report.resolved))}"
            f" spectral_gap={fmt(report.spectral_gap)}"
            f" gap={'bound' if report.gap_is_bound else 'measured'}")
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
    if series.fitted_rate is None:
        fit = "fitted_rate=none (series at or below the noise floor)"
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


def _trajectory_rows(pieces):
    yield "t,x,y,z\n"
    for traj in pieces:
        # the last rows of a `lorenz.integrate` piece may come formatted
        tail = getattr(traj, "_csv_tail", "")
        n = len(traj.t) - tail.count("\n")
        yield from _body((traj.t[:n], *np.asarray(traj.xyz)[:n].T))
        yield tail


def trajectory_csv(traj) -> str:
    return "".join(_trajectory_rows([traj]))


def write_trajectory_csv(path, pieces) -> None:
    """Write the trajectory pieces, in order, atomically as one CSV with
    one header; its text is `trajectory_csv` of their concatenation.  Each
    piece is formatted and written before the next is drawn, so neither
    the text nor the whole trajectory is held in memory."""
    _write_atomic(path, _trajectory_rows(pieces))


def return_map_csv(data) -> str:
    return _table("z_k,z_next", *np.asarray(data.pairs).T)

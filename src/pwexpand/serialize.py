"""CSV emission and atomic file writes.

Every number is printed with 17 significant digits, enough for an exact
double-precision round trip, so re-reading an emitted CSV and re-emitting
it is byte-identical.
"""

from __future__ import annotations

import contextlib
import os
import secrets

import numpy as np

from .errors import ConfigError, ToolError
from .grid import GridFunction


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the destination directory, then rename.

    The temp file is created with mode 0o666 and the kernel applies the
    umask, so the result gets the same mode as a plain ``open(path, "w")``.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    created = False
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as err:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(err, OSError):
            raise ToolError(f"cannot write {path}: {err.strerror or err}") from err
        raise


def grid_function_csv(f: GridFunction) -> str:
    lines = ["cell_index,midpoint,value"]
    for k, v in enumerate(f.values):
        lines.append(f"{k},{fmt((k + 0.5) / f.n)},{fmt(v)}")
    return "\n".join(lines) + "\n"


def read_grid_function_csv(text: str) -> GridFunction:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "cell_index,midpoint,value":
        raise ConfigError("not a grid-function CSV (bad header)")
    values = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigError(f"malformed CSV row: {ln!r}")
        values.append(float(parts[2]))
    return GridFunction.of(np.array(values))


def spectral_csv(report) -> str:
    lines = ["re,im,modulus"]
    for lam in report.eigenvalues:
        lam = complex(lam)
        lines.append(f"{fmt(lam.real)},{fmt(lam.imag)},{fmt(abs(lam))}")
    return "\n".join(lines) + "\n"


def _opt(x) -> str:
    return "" if x is None else fmt(x)


def ly_constants_csv(c) -> str:
    header = "p,t,A,B,D,alpha,beta,K,C,slope_condition_value,admissible"
    row = ",".join([
        fmt(c.p), fmt(c.t), fmt(c.A), fmt(c.B), fmt(c.D),
        fmt(c.alpha), fmt(c.beta), _opt(c.K), _opt(c.C),
        fmt(c.slope_condition_value), str(c.admissible).lower(),
    ])
    return header + "\n" + row + "\n"


def ly_verification_csv(v) -> str:
    lines = [
        f"# p={fmt(v.p)} A={fmt(v.A)} alpha={fmt(v.alpha)} beta={fmt(v.beta)}"
        f" grid={v.n} seed={v.seed} violations={v.violations}",
        "trial,margin,slack,violation",
    ]
    for i, (margin, slack) in enumerate(zip(v.margins, v.slacks)):
        bad = "true" if margin < -slack else "false"
        lines.append(f"{i},{fmt(margin)},{fmt(slack)},{bad}")
    return "\n".join(lines) + "\n"


def variation_csv(rep) -> str:
    header = "lq_exponent,p,A,variation,lq_norm,bv_norm,argmax_radius"
    row = ",".join([
        fmt(rep.lq_exponent), fmt(rep.p), fmt(rep.A), fmt(rep.variation),
        fmt(rep.lq_norm), fmt(rep.bv_norm), fmt(rep.argmax_radius),
    ])
    return header + "\n" + row + "\n"


def correlation_csv(series) -> str:
    lines = [f"# kind={series.kind}"]
    if series.fitted_rate is not None:
        lines.append(f"# fitted_rate={fmt(series.fitted_rate)}"
                     f" fit_quality={fmt(series.fit_quality)}")
    else:
        lines.append("# fitted_rate=none (series at or below the noise floor)")
    lines.append("N,C")
    for N, C in zip(series.N_values, series.C_values):
        lines.append(f"{int(N)},{fmt(C)}")
    return "\n".join(lines) + "\n"


def iterate_series_csv(series) -> str:
    lines = [
        f"# C={_opt(series.C)} bound={_opt(series.bound)}"
        f" l1_initial={fmt(series.l1_initial)}"
        f" n0={'none' if series.n0 is None else series.n0}",
        "n,bv_norm,bound,within_bound",
    ]
    for i, norm in enumerate(series.norms):
        if series.flags is None:
            lines.append(f"{i},{fmt(norm)},,")
        else:
            lines.append(f"{i},{fmt(norm)},{fmt(series.bound)},"
                         f"{str(bool(series.flags[i])).lower()}")
    return "\n".join(lines) + "\n"


def trajectory_csv(traj) -> str:
    lines = ["t,x,y,z"]
    for t, (x, y, z) in zip(traj.t, traj.xyz):
        lines.append(f"{fmt(t)},{fmt(x)},{fmt(y)},{fmt(z)}")
    return "\n".join(lines) + "\n"


def return_map_csv(data) -> str:
    lines = ["z_k,z_next"]
    for a, b in data.pairs:
        lines.append(f"{fmt(a)},{fmt(b)}")
    return "\n".join(lines) + "\n"

"""SVG plot emission.  matplotlib is optional, since every figure
duplicates data already in a CSV.  `HAVE_MPL` says whether it is
installed, found without importing it, and `load_pyplot` imports pyplot
on the first draw; when that fails the CLI warns instead of drawing, so a
run that draws nothing never imports matplotlib."""

from __future__ import annotations

import importlib.util
import io

import numpy as np

from .serialize import write_text_atomic

HAVE_MPL = importlib.util.find_spec("matplotlib") is not None

#: matplotlib.pyplot once `load_pyplot` has imported it
plt = None


def load_pyplot() -> bool:
    """Import pyplot with the Agg backend unless it is loaded; False when
    matplotlib is missing or its import fails, in whatever way."""
    global plt
    if plt is None and HAVE_MPL:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as pyplot
        except Exception:  # an optional package that cannot load draws nothing
            return False
        plt = pyplot
    return plt is not None


def _save_atomic(fig, path) -> None:
    buf = io.StringIO()
    try:
        fig.savefig(buf, format="svg")
    finally:
        plt.close(fig)
    write_text_atomic(path, buf.getvalue())


def density_plot(h, path) -> None:
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.step(h.midpoints(), h.values, where="mid", lw=1.2)
    ax.set_xlabel("x")
    ax.set_ylabel("h(x)")
    ax.set_title("invariant density")
    _save_atomic(fig, path)


def spectrum_plot(report, path) -> None:
    fig, ax = plt.subplots(figsize=(5, 5))
    theta = np.linspace(0.0, 2.0 * np.pi, 256)
    ax.plot(np.cos(theta), np.sin(theta), color="0.8", lw=0.8)
    vals = np.asarray(report.eigenvalues, dtype=complex)
    ax.scatter(vals.real, vals.imag, s=24, zorder=3)
    ax.set_xlabel("Re")
    ax.set_ylabel("Im")
    ax.set_aspect("equal")
    gap = {"measured": "{:.4g}", "bound": "≥ {:.4g}",
           "unresolved": "not established"}[report.gap_kind]
    ax.set_title(f"leading eigenvalues (gap {gap.format(report.spectral_gap)})")
    _save_atomic(fig, path)


def correlation_plot(series, path) -> None:
    fig, ax = plt.subplots(figsize=(7, 4))
    C = np.maximum(series.C_values, 1e-17)
    ax.semilogy(series.N_values, C, marker="o", ms=3, lw=1.0)
    if series.no_rate_reason is None:
        ax.set_title(f"correlation decay, rate ≈ {series.fitted_rate:.4g}")
    else:
        ax.set_title(f"correlation decay (no rate: {series.no_rate_reason})")
    ax.set_xlabel("N")
    ax.set_ylabel("C(N)")
    _save_atomic(fig, path)

"""SVG plot emission.  matplotlib is optional, since every figure
duplicates data already in a CSV: without it `HAVE_MPL` is False and the
CLI warns instead of calling a draw function."""

from __future__ import annotations

import io

import numpy as np

from .serialize import write_text_atomic

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    HAVE_MPL = True
except ImportError:
    HAVE_MPL = False


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
    rel = "≥ " if report.gap_is_bound else ""
    ax.set_title(f"leading eigenvalues (gap {rel}{report.spectral_gap:.4g})")
    _save_atomic(fig, path)


def correlation_plot(series, path) -> None:
    fig, ax = plt.subplots(figsize=(7, 4))
    C = np.maximum(series.C_values, 1e-17)
    ax.semilogy(series.N_values, C, marker="o", ms=3, lw=1.0)
    if series.fitted_rate is not None:
        ax.set_title(f"correlation decay, rate ≈ {series.fitted_rate:.4g}")
    else:
        ax.set_title("correlation decay (at noise floor)")
    ax.set_xlabel("N")
    ax.set_ylabel("C(N)")
    _save_atomic(fig, path)

"""Numerical hot loops: the sliding-window min/max behind every oscillation
profile, and the classical RK4 integrator of the Lorenz system.

``sliding_minmax_sweep`` computes the running min and max for a whole
nondecreasing sequence of half-widths from one doubling (sparse) table in
numpy; no scipy module is loaded for an oscillation profile.
``sliding_minmax``, its one-element case, has no caller in the library:
it stays only because ``pipebench/probes.py`` patches it, until the
benchmark's probes drop it.  ``lorenz_rk4`` is plain Python; each
step performs a fixed IEEE operation sequence, so a given input always
yields the same trajectory bit for bit.  Bad half-widths raise
``ToolError``.
"""

from __future__ import annotations

import numpy as np

from .errors import ToolError

#: kept for run provenance; there is no jitted path
NUMBA_ENABLED = False


def sliding_minmax_sweep(values: np.ndarray, halves):
    """Yield (lo, hi), the running min and max over the windows [k-h, k+h]
    clipped to the ends, for each h of the nondecreasing sequence halves.

    lo and hi are the same two length-n buffers at every step, and the
    next step overwrites them; a caller that keeps a step copies it.

    Level j of the table holds the min and max over 2^j consecutive cells
    of the edge-padded array; a window of width w with 2^j <= w < 2^(j+1)
    is the union of two overlapping level-j blocks.  Min and max do not
    round, so the result is exact.  The levels only grow with h, so the
    whole sweep builds each level once.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    halves = [int(h) for h in halves]
    if not halves:
        return
    if halves[0] < 0:
        raise ToolError(f"half-widths must be nonnegative, got {halves[0]}")
    for a, b in zip(halves, halves[1:]):
        if b < a:
            raise ToolError(f"half-widths must be nondecreasing, got {b} after {a}")
    n = values.size
    # a half-width of n-1 already reaches every cell from every cell
    pad = min(halves[-1], max(n - 1, 0))
    # edge padding leaves the min/max of a truncated window unchanged
    lo = hi = np.pad(values, pad, mode="edge")
    span = 1
    out_lo, out_hi = np.empty(n), np.empty(n)
    for h in halves:
        h = min(h, pad)
        width = 2 * h + 1
        while 2 * span <= width:
            lo = np.minimum(lo[:-span], lo[span:])
            hi = np.maximum(hi[:-span], hi[span:])
            span *= 2
        a = pad - h
        b = a + width - span
        yield (np.minimum(lo[a:a + n], lo[b:b + n], out=out_lo),
               np.maximum(hi[a:a + n], hi[b:b + n], out=out_hi))


def sliding_minmax(values: np.ndarray, half: int):
    """Running min and max over windows [k-half, k+half] clipped to the ends."""
    return next(sliding_minmax_sweep(values, [half]))


def lorenz_rk4(state, sigma, rho, beta, dt, nsteps):
    """Integrate the Lorenz system from `state` with classical RK4,
    storing every step.

    Returns an array of shape (nsteps + 1, 3); row 0 is `state`.  A step
    reads only the three doubles of the row before it, so a call started
    from the last row of another continues that run bit for bit.
    """
    sigma, rho, beta, dt = float(sigma), float(rho), float(beta), float(dt)
    nsteps = int(nsteps)
    out = np.empty((nsteps + 1, 3))
    # a float store through a flat memoryview costs less than a numpy
    # item assignment and writes the same double
    flat = memoryview(out).cast("B").cast("d")
    x, y, z = (float(v) for v in np.asarray(state, dtype=np.float64))
    # `x + 0.5 * dt * k` evaluates as x + (0.5 * dt) * k, so taking the
    # product once per call leaves every step's rounding unchanged
    half_dt = 0.5 * dt
    flat[0] = x
    flat[1] = y
    flat[2] = z
    for i in range(3, 3 * nsteps + 3, 3):
        k1x = sigma * (y - x)
        k1y = x * (rho - z) - y
        k1z = x * y - beta * z

        x2 = x + half_dt * k1x
        y2 = y + half_dt * k1y
        z2 = z + half_dt * k1z
        k2x = sigma * (y2 - x2)
        k2y = x2 * (rho - z2) - y2
        k2z = x2 * y2 - beta * z2

        x3 = x + half_dt * k2x
        y3 = y + half_dt * k2y
        z3 = z + half_dt * k2z
        k3x = sigma * (y3 - x3)
        k3y = x3 * (rho - z3) - y3
        k3z = x3 * y3 - beta * z3

        x4 = x + dt * k3x
        y4 = y + dt * k3y
        z4 = z + dt * k3z
        k4x = sigma * (y4 - x4)
        k4y = x4 * (rho - z4) - y4
        k4z = x4 * y4 - beta * z4

        x += dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y += dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        z += dt * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        flat[i] = x
        flat[i + 1] = y
        flat[i + 2] = z
    return out

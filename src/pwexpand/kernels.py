"""Numerical hot loops: the sliding-window min/max behind every oscillation
profile, and the classical RK4 integrator of the Lorenz system.

``sliding_minmax`` runs on scipy's C filters, imported on its first call
so that an invocation that computes no oscillation profile does not load
``scipy.ndimage``.  ``lorenz_rk4`` is plain Python; each step performs a
fixed IEEE operation sequence, so a given input always yields the same
trajectory bit for bit.
"""

from __future__ import annotations

import numpy as np

#: kept for run provenance; there is no jitted path
NUMBA_ENABLED = False


def sliding_minmax(values: np.ndarray, half: int):
    """Running min and max over windows [k-half, k+half] clipped to the ends."""
    from scipy.ndimage import maximum_filter1d, minimum_filter1d

    values = np.ascontiguousarray(values, dtype=np.float64)
    size = 2 * int(half) + 1
    # mode='nearest' replicates edge samples, which leaves the min/max of
    # the truncated window unchanged — identical to explicit clipping.
    lo = minimum_filter1d(values, size=size, mode="nearest")
    hi = maximum_filter1d(values, size=size, mode="nearest")
    return lo, hi


def lorenz_rk4(state, sigma, rho, beta, dt, nsteps):
    """Integrate the Lorenz system with classical RK4, storing every step.

    Returns an array of shape (nsteps + 1, 3); row 0 is the initial state.
    """
    sigma, rho, beta, dt = float(sigma), float(rho), float(beta), float(dt)
    nsteps = int(nsteps)
    out = np.empty((nsteps + 1, 3))
    x, y, z = (float(v) for v in np.asarray(state, dtype=np.float64))
    out[0, 0] = x
    out[0, 1] = y
    out[0, 2] = z
    for i in range(nsteps):
        k1x = sigma * (y - x)
        k1y = x * (rho - z) - y
        k1z = x * y - beta * z

        x2 = x + 0.5 * dt * k1x
        y2 = y + 0.5 * dt * k1y
        z2 = z + 0.5 * dt * k1z
        k2x = sigma * (y2 - x2)
        k2y = x2 * (rho - z2) - y2
        k2z = x2 * y2 - beta * z2

        x3 = x + 0.5 * dt * k2x
        y3 = y + 0.5 * dt * k2y
        z3 = z + 0.5 * dt * k2z
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
        out[i + 1, 0] = x
        out[i + 1, 1] = y
        out[i + 1, 2] = z
    return out

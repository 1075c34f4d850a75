"""Lorenz-system pipeline: integrate, extract successive z-maxima, build
the "next maximum of z" return map, and fit a two-branch piecewise model
over the cusp.

The trajectory is computed once, in pieces of at most `_CHUNK` steps:
`integrate` yields them, `trajectory_rows` streams each one through a
`ZMaxima` accumulator and to the trajectory CSV, and no array as long as
the run exists.  The RK4 loop runs in a forked child, where the platform
has `os.fork`, so the next piece is integrated while the caller formats
and scans this one.  While the caller has not yet asked for the piece,
the child formats its rows as CSV text, from the last row back; each
request arrives as one byte on a second pipe.  `trajectory_rows` formats
only the rows before that text, then writes the text.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels, serialize
from .errors import ConfigError, ToolError
from .maps import make_map

_CHUNK = 4096  # RK4 steps per trajectory piece
_STEP = 256  # rows the RK4 child formats between looks at the requests


@dataclass(frozen=True)
class LorenzConfig:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    x0: float = 1.0
    y0: float = 1.0
    z0: float = 1.0
    dt: float = 0.001
    t_max: float = 2000.0
    transient: float = 50.0
    fit_degree: int = 3

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.01):
            raise ConfigError(
                f"dt must lie in (0, 0.01], got {self.dt}")
        if not max(self.transient, 0.0) < self.t_max < np.inf:
            raise ConfigError(
                f"t_max ({self.t_max}) must be finite, positive and exceed "
                f"the transient ({self.transient})")
        steps = self.t_max / self.dt
        if not steps < 2.0 ** 53:
            raise ConfigError(
                f"cannot store {steps:g} steps of dt = {self.dt:g}: t = k*dt "
                "is exact only for step counts k below 2**53")
        check_fit_degree(self.fit_degree)

    @property
    def nsteps(self) -> int:
        return round(self.t_max / self.dt)


@dataclass(frozen=True, eq=False)
class Trajectory:
    t: np.ndarray
    xyz: np.ndarray  # shape (len(t), 3)

    @property
    def z(self) -> np.ndarray:
        return self.xyz[:, 2]


@dataclass(frozen=True, eq=False)
class ReturnMapData:
    maxima: np.ndarray  # successive z-maxima; the pairs derive from them

    @property
    def z_min(self) -> float:
        return float(np.min(self.maxima))

    @property
    def z_max(self) -> float:
        return float(np.max(self.maxima))

    @property
    def pairs(self) -> np.ndarray:
        """(z_k, z_{k+1}) rows."""
        return np.column_stack([self.maxima[:-1], self.maxima[1:]])

    @property
    def normalized_pairs(self) -> np.ndarray:
        """The pairs affinely rescaled into [0,1]^2."""
        return (self.pairs - self.z_min) / (self.z_max - self.z_min)

    @property
    def cusp_estimate(self) -> float:
        """Abscissa of the peak ordinate of the normalized pairs."""
        normalized = self.normalized_pairs
        return float(normalized[np.argmax(normalized[:, 1]), 0])


@dataclass(frozen=True, eq=False)
class FitDiagnostics:
    residual_rms: tuple
    min_abs_slope_central: tuple  # min |fit'| over the central 80%


def _rk4_blocks(config: LorenzConfig):
    """Yield the rows of the whole RK4 run in order, in blocks of shape
    (m, 3): the start row, then pieces of at most _CHUNK steps."""
    xyz = np.array([[config.x0, config.y0, config.z0]])
    yield xyz
    done = 0
    while done < config.nsteps:
        steps = min(_CHUNK, config.nsteps - done)
        # a step reads only the row before it, so the run continues from
        # the last stored row bit for bit; row 0 of the result is that row
        xyz = kernels.lorenz_rk4(xyz[-1], config.sigma, config.rho,
                                 config.beta, config.dt, steps)[1:]
        done += steps
        yield xyz


def _times(first: int, m: int, config: LorenzConfig):
    """The times of the m steps from step `first` on, and the index of the
    first of them after the transient."""
    # step counts below 2**53 are exact doubles, so t[k] is k * dt
    t = np.arange(first, first + m, dtype=float)
    t *= config.dt
    return t, int(np.searchsorted(t, config.transient - 1e-12))


def _formatted_blocks(config: LorenzConfig, asked):
    """Yield (xyz, text) for each block of `_rk4_blocks`, where text is
    the CSV rows (`serialize.rows`) of the last rows of the block that
    lie after the transient: formatted from the end, `_STEP` rows at a
    time, until `asked()` says that the caller wants the block."""
    first = 0
    for xyz in _rk4_blocks(config):
        t, keep = _times(first, len(xyz), config)
        parts, end = [], len(xyz)
        # asked() first: it drains the requests, transient blocks included
        while not asked() and end > keep:
            start = max(end - _STEP, keep)
            rows = serialize.rows((t[start:end], *xyz[start:end].T))
            parts.append("".join(rows))
            end = start
        yield xyz, "".join(reversed(parts))
        first += len(xyz)


def _in_child(config: LorenzConfig):
    """Iterate `_formatted_blocks(config, asked)`, pairs of a C-contiguous
    float64 array of shape (m, 3) and an ASCII string, in a forked child
    and yield them here in order, so that the child computes the next pair
    while the caller works on this one.

    The child sends each pair through a pipe as one record: the row count
    and the string's length, 8 bytes each, then the raw doubles, then the
    string.  The pipe's capacity bounds how far it runs ahead.  Each time
    the caller asks for a pair after the first, this side writes one byte
    to a second pipe; `asked()`, in the child, reads it without blocking
    and is true once it has had a byte for every pair sent.

    The child leaves only by `os._exit`, so no cleanup of the frames
    below this one (a temp file's removal, say) runs in it, and it must
    make no BLAS call: the parent's BLAS threads do not exist in it.  If
    the parent dies, the child's next write fails and it exits.  A child
    that cannot start or ends before its last record is a ToolError; if
    the caller stops early, the child is killed.  Either way it is reaped.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError as err:
        for fd in fds:
            os.close(fd)
        raise ToolError("cannot start the RK4 integration process: "
                        f"{err.strerror or err}") from err
    r, w, back_r, back_w = fds
    if pid == 0:
        status = 1
        try:
            os.close(r)
            os.close(back_w)
            os.set_blocking(back_r, False)
            requests = sent = 0

            def asked():
                nonlocal requests
                with contextlib.suppress(BlockingIOError):
                    requests += len(os.read(back_r, 1 << 16))
                return requests >= sent

            with os.fdopen(w, "wb") as out:
                for xyz, text in _formatted_blocks(config, asked):
                    data = text.encode("ascii")
                    out.write(len(xyz).to_bytes(8, sys.byteorder)
                              + len(data).to_bytes(8, sys.byteorder))
                    out.write(xyz)
                    out.write(data)
                    out.flush()
                    sent += 1
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    os.close(back_r)
    try:
        with os.fdopen(r, "rb") as src, os.fdopen(back_w, "wb", 0) as back:
            # a short read is the end of the pipe: the child has exited
            while len(head := src.read(16)) == 16:
                buf = bytearray(int.from_bytes(head[:8], sys.byteorder) * 24)
                size = int.from_bytes(head[8:], sys.byteorder)
                if src.readinto(buf) < len(buf):
                    break
                if len(data := src.read(size)) < size:
                    break
                yield np.frombuffer(buf).reshape(-1, 3), data.decode("ascii")
                with contextlib.suppress(BrokenPipeError):  # the child is gone
                    back.write(b"\0")  # the caller asks for the next pair
    except BaseException:  # also GeneratorExit: the caller stopped early
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise ToolError(
            f"the RK4 integration process ended early (exit status {status})")


def _pieces(config: LorenzConfig):
    """Yield the pieces of `integrate`, each with the CSV rows of its last
    rows that the RK4 child formatted (`_formatted_blocks`), or with ""
    where the platform has no `os.fork`."""
    dt = config.dt
    if hasattr(os, "fork"):
        blocks = _in_child(config)
    else:
        blocks = ((xyz, "") for xyz in _rk4_blocks(config))
    with contextlib.closing(blocks):
        first = 0  # step index of xyz[0]
        for xyz, text in blocks:
            bad = ~np.isfinite(xyz).all(axis=1)
            if bad.any():
                k = first + int(np.argmax(bad))
                raise ToolError(f"state became non-finite at t = {k * dt:g}")
            t, keep = _times(first, len(xyz), config)
            if keep < len(t):
                yield Trajectory(t=t[keep:], xyz=xyz[keep:]), text
            first += len(xyz)


def integrate(config: LorenzConfig):
    """Yield the fixed-step RK4 trajectory after the transient as
    `Trajectory` pieces of at most _CHUNK rows, in order; where the
    platform has `os.fork`, the RK4 loop runs in a child (`_in_child`).
    Deterministic: identical configs give bitwise-identical output, and
    the rows depend neither on the piece size nor on the fork."""
    with contextlib.closing(_pieces(config)) as pieces:
        for piece, _ in pieces:
            yield piece


def trajectory_rows(config: LorenzConfig, maxima: ZMaxima):
    """The trajectory CSV in chunks: the header, then for each piece, once
    `maxima` has been fed it, the rows before the child's text and that
    text.  No piece is drawn before the last is written, so neither the
    text nor the trajectory is ever held whole."""
    yield "t,x,y,z\n"
    with contextlib.closing(_pieces(config)) as pieces:
        for piece, text in pieces:
            maxima.feed(piece)
            n = len(piece.t) - text.count("\n")
            yield from serialize.rows((piece.t[:n], *piece.xyz[:n].T))
            yield text


class ZMaxima:
    """Interior local maxima of z over a trajectory fed piece by piece,
    each refined by the quadratic through its three samples (the parabola
    peak of (a, b, c) is b - S²/(8Q) with S = c - a and Q = a - 2b + c).

    `feed` carries the last two z samples into the next piece, so the
    maxima are those of the whole z, whatever the pieces."""

    def __init__(self):
        self.samples = 0
        self._tail = np.empty(0)
        self._found = [np.empty(0)]

    def feed(self, piece: Trajectory) -> None:
        """Take the maxima of one more piece."""
        z = np.concatenate([self._tail, piece.z])
        self.samples += len(piece.z)
        k = np.flatnonzero((z[:-2] < z[1:-1]) & (z[1:-1] >= z[2:])) + 1
        left, mid, right = z[k - 1], z[k], z[k + 1]
        S = right - left
        Q = left - 2.0 * mid + right
        with np.errstate(divide="ignore", invalid="ignore"):
            self._found.append(np.where(Q < 0.0, mid - S * S / (8.0 * Q), mid))
        self._tail = z[-2:]

    def result(self) -> np.ndarray:
        """The refined maxima found so far, in order; `build_return_map`
        judges whether they are enough."""
        return np.concatenate(self._found)


def extract_z_maxima(traj: Trajectory) -> np.ndarray:
    """The refined interior z-maxima of one whole trajectory (`ZMaxima`)."""
    acc = ZMaxima()
    acc.feed(traj)
    return acc.result()


def build_return_map(maxima: np.ndarray) -> ReturnMapData:
    """Pairs (z_k, z_{k+1}) with their affine normalization to [0,1]²;
    needs at least 3 maxima, of more than one value."""
    maxima = np.asarray(maxima, dtype=float)
    if len(maxima) < 3:
        raise ToolError(f"need at least 3 maxima, got {len(maxima)}")
    data = ReturnMapData(maxima=maxima)
    if data.z_max - data.z_min < 1e-12:
        raise ToolError(f"maxima are all {data.z_min:g}; cannot normalize "
                        "a zero-length range")
    return data


def _poly_formula(coeffs: np.ndarray) -> str:
    """Ascending-order coefficients to an expression string; the unary
    minus keeps negative coefficients parseable mid-sum."""
    terms = []
    for k, c in enumerate(coeffs):
        if k == 0:
            terms.append(f"{c:.17g}")
        elif k == 1:
            terms.append(f"{c:.17g}*x")
        else:
            terms.append(f"{c:.17g}*x^{k}")
    return " + ".join(terms)


def _abs_extremes(coeffs: np.ndarray, lo: float, hi: float):
    """(min, max) of |p| over [lo, hi] for the polynomial p with ascending
    coefficients `coeffs`.  Both lie at an end, at a root of p or at a
    root of p'; the real parts of complex roots only add candidates, and
    no candidate in [lo, hi] can carry either past its true value."""
    P = np.polynomial.polynomial
    xs = np.concatenate([[lo, hi], P.polyroots(coeffs).real,
                         P.polyroots(P.polyder(coeffs)).real])
    vals = np.abs(P.polyval(xs[(lo <= xs) & (xs <= hi)], coeffs))
    return float(vals.min()), float(vals.max())


def check_fit_degree(degree: int) -> None:
    """ConfigError unless 1 <= degree <= 6, the polynomial degrees that
    `fit_piecewise` fits."""
    if not (1 <= degree <= 6):
        raise ConfigError(f"degree must lie in [1, 6], got {degree}")


def fit_piecewise(data: ReturnMapData, degree: int):
    """Two least-squares polynomial branches split at the cusp.

    Returns (map, diagnostics); the map is built leniently and may well
    fail validation (slopes dip below 1 near the cusp) — that is reported,
    not hidden.  The branches are polynomials, so tau' is Lipschitz: the
    map has epsilon = 1, and each branch declares the exact min|tau'| and
    max|tau''| over its domain (`_abs_extremes`).
    """
    pts = data.normalized_pairs
    if len(pts) < 100:
        raise ConfigError(
            f"need at least 100 normalized pairs to fit, got {len(pts)}")
    check_fit_degree(degree)
    cusp = data.cusp_estimate
    xs, ys = pts[:, 0], pts[:, 1]
    masks = (xs <= cusp, xs > cusp)
    domains = ((0.0, cusp), (cusp, 1.0))
    P = np.polynomial.polynomial
    specs = []
    rms_list, slopes = [], []
    for (lo, hi), mask in zip(domains, masks):
        bx, by = xs[mask], ys[mask]
        if len(bx) < 10:
            raise ToolError(
                f"branch on [{lo:.4g}, {hi:.4g}] has only {len(bx)} points "
                "(needs 10); the two-branch cusp model does not fit this data")
        coeffs = P.polyfit(bx, by, degree)
        fit_vals = P.polyval(bx, coeffs)
        rms = float(np.sqrt(np.mean((fit_vals - by) ** 2)))
        dcoeffs = P.polyder(coeffs)
        width = hi - lo
        specs.append({"lo": lo, "hi": hi, "formula": _poly_formula(coeffs),
                      "min_slope": _abs_extremes(dcoeffs, lo, hi)[0],
                      "holder_constant": _abs_extremes(P.polyder(dcoeffs),
                                                       lo, hi)[1]})
        rms_list.append(rms)
        slopes.append(_abs_extremes(dcoeffs, lo + 0.1 * width,
                                    hi - 0.1 * width)[0])
    pmap = make_map(specs, epsilon=1.0)
    diagnostics = FitDiagnostics(residual_rms=tuple(rms_list),
                                 min_abs_slope_central=tuple(slopes))
    return pmap, diagnostics

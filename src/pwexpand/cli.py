"""Command-line front end.

One subcommand per analysis; every output file is CSV (SVG for plots) and
written atomically.  Exit codes: 0 on success, 1 when validation or
analysis fails or memory runs out, 2 on usage errors (argparse's own
convention).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import analysis, lorenz, plotting, serialize, transfer
from .errors import ToolError
from .expr import parse as parse_expr
from .grid import DEFAULT_A, project, variation
from .mapconfig import dump_map_config, load_map
from .maps import (check_slope_condition, ly_constants, ly_constants_best_A,
                   validate)


def _load_validated(path):
    pmap = load_map(path)
    report = validate(pmap)
    if not report.accepted:
        raise ToolError(
            f"map {path} failed validation: {report.violation_summary()}")
    return pmap


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _plot(args, draw, data) -> None:
    """Draw `data` to an SVG next to args.out unless --no-plot was given."""
    if args.no_plot:
        return
    out = args.out
    svg = (out[: -len(".csv")] if out.endswith(".csv") else out) + ".svg"
    if not plotting.load_pyplot():
        print(f"warning: matplotlib unavailable, skipped plot {svg}",
              file=sys.stderr)
        return
    draw(data, svg)
    print(f"plot -> {svg}")


def cmd_check_slope(args) -> int:
    pmap = _load_validated(args.map)
    value, holds = check_slope_condition(pmap, args.p)
    verdict = "admissible" if holds else "inadmissible"
    sign = "<" if holds else ">="
    print(f"{serialize.fmt(value)} {sign} 1: {verdict}")
    return 0


def cmd_ly(args) -> int:
    if args.auto_A and args.t != 1.0:
        raise ToolError("--auto-A is only available for t = 1")
    pmap = _load_validated(args.map)
    L = args.L
    if args.auto_L and args.t != 1.0:  # only the t > 1 constants read L
        L = analysis.estimate_equicontinuity_L(pmap, p=args.p, t=args.t,
                                               A=args.A)
    if args.auto_A:
        consts = ly_constants_best_A(pmap, p=args.p)
    else:
        consts = ly_constants(pmap, p=args.p, t=args.t, A=args.A, L=L)
    serialize.write_text_atomic(args.out, serialize.ly_constants_csv(consts))
    if args.t == 1.0 and (args.auto_L or args.L is not None):
        print("L is not used at t = 1")
    elif args.auto_L:
        floor = ("floor: no sampled iterate exceeded its start; "
                 if L == analysis.L_FLOOR else "")
        print(f"estimated L = {serialize.fmt(L)} ({floor}empirical, "
              "non-rigorous)")
    status = "admissible" if consts.admissible else "inadmissible"
    C = "" if consts.C is None else f", C = {serialize.fmt(consts.C)}"
    print(f"alpha = {serialize.fmt(consts.alpha)} ({status}), "
          f"beta = {serialize.fmt(consts.beta)}, A = {serialize.fmt(consts.A)}"
          f"{C} -> {args.out}")
    return 0


def cmd_ly_verify(args) -> int:
    pmap = _load_validated(args.map)
    report = analysis.ly_verify(pmap, p=args.p, A=args.A, trials=args.trials,
                                n=args.grid, seed=args.seed)
    serialize.write_text_atomic(args.out, serialize.ly_verification_csv(report))
    print(f"{report.violations} violation(s) in {args.trials} trials -> {args.out}")
    return 0


def cmd_density(args) -> int:
    pmap = _load_validated(args.map)
    # the operator dies here, before the CSV text is built
    h = transfer.invariant_density(transfer.ulam_matrix(pmap, args.bins))
    serialize.write_text_atomic(args.out, serialize.grid_function_csv(h))
    print(f"invariant density on {args.bins} bins -> {args.out}")
    _plot(args, plotting.density_plot, h)
    return 0


def _eigenvalue(z) -> str:
    """z to 6 digits, without an imaginary part below 1e-8."""
    if abs(z.imag) < 1e-8:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def cmd_spectrum(args) -> int:
    pmap = _load_validated(args.map)
    op = transfer.ulam_matrix(pmap, args.bins)
    report = transfer.spectrum(op, args.top)
    serialize.write_text_atomic(args.out, serialize.spectral_csv(report))
    gap = serialize.fmt(report.spectral_gap)
    stuck = int((report.outside & ~report.converged).sum())
    if len(report.peripheral):
        # correlations do not decay; the gap is 0
        period = "" if report.period is None else f", period {report.period}"
        gap = (f"not mixing: eigenvalue {_eigenvalue(report.peripheral[0])} "
               f"on the unit circle{period}")
    elif report.gap_kind == "unresolved":
        gap = (f"spectral gap not established: {stuck} "
               f"value{'s' if stuck != 1 else ''} outside r_ess did not "
               "converge")
    elif report.gap_kind == "bound":
        gap = (f"spectral gap >= {gap} (bound: no eigenvalue inside the "
               "unit circle is resolved)")
    else:
        gap = f"spectral gap {gap}"
    print(f"unit multiplicity {report.unit_multiplicity}, "
          f"{report.unit_circle} on the unit circle, {gap} -> {args.out}")
    # Ulam eigenvalues inside the essential radius bound 1/s_min depend on
    # the discretization and are not resolved eigenvalues of the operator
    resolved = int(report.resolved.sum())
    inside = len(report.eigenvalues) - resolved - stuck
    counts = [f"{stuck} outside r_ess did not converge"] if stuck else []
    if inside or not stuck:
        counts.append(f"{inside} not separated from the essential spectrum")
    print(f"r_ess = 1/s_min = {serialize.fmt(report.r_ess)}; {resolved} of "
          f"{len(report.eigenvalues)} eigenvalues resolved (|lambda| > "
          f"r_ess + 1e-8), {', '.join(counts)}")
    print(f"eigensolver: {report.solver}")
    _plot(args, plotting.spectrum_plot, report)
    return 0


def cmd_var(args) -> int:
    f = project(parse_expr(args.f), args.grid)
    report = variation(f, lq=args.q, p=args.p, A=args.A)
    serialize.write_text_atomic(args.out, serialize.variation_csv(report))
    print(f"var = {serialize.fmt(report.variation)}, bv_norm = "
          f"{serialize.fmt(report.bv_norm)} -> {args.out}")
    return 0


def cmd_correlate(args) -> int:
    pmap = _load_validated(args.map)
    if args.wrt == "lebesgue":
        series = analysis.correlation_lebesgue(pmap, args.f, args.g,
                                               N_max=args.N, n=args.grid)
    else:
        series = analysis.correlation_invariant(pmap, args.f, args.g,
                                                N_max=args.N, n=args.grid)
    serialize.write_text_atomic(args.out, serialize.correlation_csv(series))
    if series.no_rate_reason is not None:
        print(f"no rate: {series.no_rate_reason} -> {args.out}")
    else:
        print(f"fitted rate {serialize.fmt(series.fitted_rate)} "
              f"(R^2 = {serialize.fmt(series.fit_quality)}) -> {args.out}")
        if series.rate_inside_ess:
            print(f"the rate lies inside the essential spectrum (r_ess = "
                  f"{serialize.fmt(series.r_ess)}): it belongs to the "
                  f"{args.grid}-bin Ulam chain and moves with --grid")
    _plot(args, plotting.correlation_plot, series)
    return 0


def cmd_iterates(args) -> int:
    pmap = _load_validated(args.map)
    f = project(parse_expr(args.f), args.grid)
    series = transfer.iterate_norm_series(pmap, f, p=args.p, A=args.A,
                                          n_max=args.n)
    serialize.write_text_atomic(args.out, serialize.iterate_series_csv(series))
    if series.bound is None:
        print(f"no contraction constant at this (p, A); norms only -> {args.out}")
    else:
        n0 = "never" if series.n0 is None else str(series.n0)
        print(f"bound C*||f||_1 = {serialize.fmt(series.bound)} holds from "
              f"n0 = {n0} -> {args.out}")
    return 0


def cmd_lorenz(args) -> int:
    config = lorenz.LorenzConfig(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(lorenz.LorenzConfig)})
    outs = (args.out_trajectory, args.out_map, args.out_fit)
    if len({os.path.realpath(path) for path in outs}) < len(outs):
        raise ToolError("--out-trajectory, --out-map and --out-fit must name "
                        "three different files")
    maxima = lorenz.ZMaxima()
    # the three files appear together, once the fit has succeeded
    with serialize.written_together() as stage:
        stage(args.out_trajectory, lorenz.trajectory_rows(config, maxima))
        data = lorenz.build_return_map(maxima.result())
        stage(args.out_map, [serialize.return_map_csv(data)])
        fitted, diag = lorenz.fit_piecewise(data, degree=config.fit_degree)
        stage(args.out_fit, [dump_map_config(fitted)])
    print(f"trajectory ({maxima.samples} samples) -> {args.out_trajectory}")
    print(f"return map ({len(data.pairs)} pairs, cusp at "
          f"{data.cusp_estimate:.6g}) -> {args.out_map}")
    slopes = ", ".join(f"{s:.4g}" for s in diag.min_abs_slope_central)
    print(f"fitted 2-branch map (degree {config.fit_degree}) -> {args.out_fit}")
    print(f"central min |slope| per branch: {slopes}; "
          f"residual RMS: {', '.join(f'{r:.3g}' for r in diag.residual_rms)}")
    report = validate(fitted)
    verdict = "accepted" if report.accepted else report.violation_summary()
    print(f"fitted map validation: {verdict}")
    print("pass the fitted config to the other subcommands explicitly if "
          "its validation is accepted")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwexpand",
        description="Transfer operators, generalized bounded variation, and "
                    "contraction constants for piecewise expanding interval "
                    "maps, plus the Lorenz next-maximum return map.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check-slope", help="evaluate 1/s^(1/p) + 1/s < 1")
    q.add_argument("map")
    q.add_argument("--p", type=float, required=True)
    q.set_defaults(func=cmd_check_slope)

    q = sub.add_parser("ly", help="contraction constants at a radius cap")
    q.add_argument("map")
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--t", type=float, default=1.0)
    group = q.add_mutually_exclusive_group()
    group.add_argument("--A", type=float, default=DEFAULT_A)
    group.add_argument("--auto-A", action="store_true", dest="auto_A",
                       help="use the cap 0 < A <= 1/8 with the smallest C "
                            "(t = 1 only)")
    group = q.add_mutually_exclusive_group()
    group.add_argument("--L", type=float, default=None)
    group.add_argument("--auto-L", action="store_true", dest="auto_L")
    q.add_argument("--out", default="ly.csv")
    q.set_defaults(func=cmd_ly)

    q = sub.add_parser("ly-verify",
                       help="check the variation inequality on random trials")
    q.add_argument("map")
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--A", type=float, required=True)
    q.add_argument("--trials", type=_positive_int, default=100)
    q.add_argument("--grid", type=_positive_int, default=4096)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default="ly_verify.csv")
    q.set_defaults(func=cmd_ly_verify)

    q = sub.add_parser("density", help="invariant density via Ulam + power iteration")
    q.add_argument("map")
    q.add_argument("--bins", type=_positive_int, required=True)
    q.add_argument("--out", default="density.csv")
    q.add_argument("--no-plot", action="store_true", dest="no_plot")
    q.set_defaults(func=cmd_density)

    q = sub.add_parser("spectrum", help="leading Ulam eigenvalues")
    q.add_argument("map")
    q.add_argument("--bins", type=_positive_int, required=True)
    q.add_argument("--top", type=_positive_int, default=8)
    q.add_argument("--out", default="spectrum.csv")
    q.add_argument("--no-plot", action="store_true", dest="no_plot")
    q.set_defaults(func=cmd_spectrum)

    q = sub.add_parser("var", help="generalized variation of an expression")
    q.add_argument("--f", required=True)
    q.add_argument("--q", type=float, required=True,
                   help="oscillation-norm exponent (>= 1 or 'inf')")
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--A", type=float, required=True)
    q.add_argument("--grid", type=_positive_int, required=True)
    q.add_argument("--out", default="var.csv")
    q.set_defaults(func=cmd_var)

    q = sub.add_parser("correlate", help="correlation decay C(N) and its rate")
    q.add_argument("map")
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--N", type=_positive_int, required=True)
    q.add_argument("--grid", type=_positive_int, required=True)
    q.add_argument("--wrt", choices=("lebesgue", "invariant"),
                   default="lebesgue")
    q.add_argument("--out", default="correlation.csv")
    q.add_argument("--no-plot", action="store_true", dest="no_plot")
    q.set_defaults(func=cmd_correlate)

    q = sub.add_parser("iterates", help="BV norms of P^n f against the bound")
    q.add_argument("map")
    q.add_argument("--f", required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--A", type=float, required=True)
    q.add_argument("--n", type=_positive_int, required=True)
    q.add_argument("--grid", type=_positive_int, default=1024)
    q.add_argument("--out", default="iterates.csv")
    q.set_defaults(func=cmd_iterates)

    q = sub.add_parser("lorenz", help="next-maximum-of-z return map pipeline")
    for field in dataclasses.fields(lorenz.LorenzConfig):
        q.add_argument(f"--{field.name.replace('_', '-')}",
                       type=type(field.default), default=field.default)
    q.add_argument("--out-trajectory", default="lorenz_trajectory.csv",
                   dest="out_trajectory")
    q.add_argument("--out-map", default="lorenz_return_map.csv",
                   dest="out_map")
    q.add_argument("--out-fit", default="lorenz_fitted_map.json",
                   dest="out_fit")
    q.set_defaults(func=cmd_lorenz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        # numpy's message names the size and shape of the failed allocation
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

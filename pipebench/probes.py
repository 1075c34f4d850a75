"""Layer probes: time inner functions directly on a workload's own inputs.

    python pipebench/probes.py OUT.json WORKLOAD SEED

The probed functions run thousands of times inside one CLI call, so
they are timed here, outside the CLI, rather than wrapped in the traced
run:

* branch inversion and dual-number evaluation on the workload's bin
  edges (their time ratio is an outside proxy for Newton iterations);
* a replay of the ly-verify loop over `analysis.random_test_functions`:
  variation of f, one transfer step, variation of Pf, with
  `kernels.sliding_minmax` counted underneath.

Each probe is repeated and the median time reported.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from pwexpand import analysis, expr, grid, kernels, transfer
from pwexpand.mapconfig import load_map
from pwexpand.maps import invert_branch_array

from workloads import WORKLOADS

REPEATS = 3
P, A = 1.0, 0.125


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def edge_probe(pmap, bins):
    """Invert every branch at the bin edges, then evaluate value and
    derivative once at the preimages."""
    work = []
    for n in bins:
        edges = np.arange(n + 1) / n
        for br in pmap.branches:
            ys = np.clip(edges, br.image.lo, br.image.hi)
            work.append((br, ys, invert_branch_array(br, ys)))
    invert_s = _median_time(lambda: [invert_branch_array(br, ys) for br, ys, _ in work])
    eval_s = _median_time(
        lambda: [expr.eval_with_derivative(br.expression, xs) for br, _, xs in work])
    points = sum(len(ys) for _, ys, _ in work)
    return {
        "maps.invert_branch_array.s": invert_s,
        "maps.invert_branch_array.points": points,
        "expr.eval_with_derivative.s": eval_s,
        "expr.eval_with_derivative.points": points,
    }


def replay_probe(map_path, n, trials, seed):
    """The ly-verify inner loop on the same seeded test functions, on a
    freshly loaded map each repeat so the transfer stencil is rebuilt as
    in a CLI call."""
    funcs = analysis.random_test_functions(n, trials, seed)
    original = kernels.sliding_minmax
    totals = []
    acc = {}

    def counted(values, half):
        t0 = time.perf_counter()
        try:
            return original(values, half)
        finally:
            acc["minmax_s"] += time.perf_counter() - t0
            acc["minmax_calls"] += 1
            acc["cells"] += len(values)

    kernels.sliding_minmax = counted
    try:
        for _ in range(REPEATS):
            pmap = load_map(map_path)
            acc = dict.fromkeys(("var_s", "fp_s", "minmax_s"), 0.0)
            acc.update(var_calls=0, fp_calls=0, radii=0, minmax_calls=0, cells=0)
            for f in funcs:
                t0 = time.perf_counter()
                rep = grid.variation(f, 1.0, P, A)
                t1 = time.perf_counter()
                pf = transfer.apply_fp(pmap, f)
                t2 = time.perf_counter()
                rep2 = grid.variation(pf, 1.0, P, A)
                t3 = time.perf_counter()
                acc["var_s"] += (t1 - t0) + (t3 - t2)
                acc["fp_s"] += t2 - t1
                acc["var_calls"] += 2
                acc["fp_calls"] += 1
                acc["radii"] += len(rep.radii) + len(rep2.radii)
            totals.append(acc)
    finally:
        kernels.sliding_minmax = original

    def med(key):
        return statistics.median(t[key] for t in totals)

    last = totals[-1]
    return {
        "grid.variation.s": med("var_s"),
        "grid.variation.calls": last["var_calls"],
        "grid.variation.radii": last["radii"],
        "kernels.sliding_minmax.s": med("minmax_s"),
        "kernels.sliding_minmax.calls": last["minmax_calls"],
        "kernels.sliding_minmax.cells": last["cells"],
        "transfer.apply_fp.s": med("fp_s"),
        "transfer.apply_fp.calls": last["fp_calls"],
    }


def main(argv):
    out_path, workload, seed = argv[0], argv[1], int(argv[2])
    probe = WORKLOADS[workload](seed).probe
    metrics = edge_probe(load_map(probe.map), probe.edge_bins)
    metrics.update(replay_probe(probe.map, probe.replay_bins,
                                probe.replay_trials, seed))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

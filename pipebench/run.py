#!/usr/bin/env python3
"""Pipeline benchmark: pwexpand's CLI over four workloads.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs CLI invocations back to
back (a closed loop, one child process at a time), each a fresh
`python -m pwexpand.cli` with a pinned environment and the workload's
time cap.

--trace 0 measures the end-to-end metrics: wall time of one pass over
the workload's legs (median over the passes that fit in S seconds), the
largest peak RSS of any child, and the set-up time of a no-compute
invocation (median of several).  --trace 1 runs one untraced pass, one
traced pass (pipebench/traced.py) and the layer probes
(pipebench/probes.py), and reports the per-layer metrics and the
tracing overhead.  Every produced output is checked against an oracle
(pipebench/workloads.py).  The last line of stdout is one JSON object;
human-readable lines precede it.  Workloads and metrics are described
in pipebench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench_work"

from workloads import WORKLOADS  # noqa: E402  (HERE is sys.path[0])

GRACE_S = 5.0       # SIGTERM -> SIGKILL delay, lets a traced child write spans
UNTIMED_CAP_S = 60.0  # cap of the warm-up, reference and probe children
SETUP_FIRST = 2     # set-up invocations in the first pass; one in each later pass
MIN_PASSES = 3
BLAS_THREADS = 1    # at most nproc; one thread keeps dense eigvals steady

# A fixed job that uses no pwexpand code: interpreter start, numpy/scipy
# import, a pure-Python loop and numpy sorts.  It runs between any two
# timed invocations and measures how fast the machine is at that moment;
# an invocation's wall is reported as if the jobs around it had taken
# REFERENCE_S.  A program change cannot move the job, so the scaling
# removes the machine's drift and keeps the program's own changes.  The
# workload's cap is in the same scaled seconds: a child is killed after
# cap_s times the current machine speed, the median of the last
# REFERENCE_WINDOW reference walls over REFERENCE_S.
REFERENCE_JOB = (
    "import numpy, scipy.sparse\n"
    "s = 0\n"
    "for i in range(200000):\n    s += i * i\n"
    "a = numpy.random.default_rng(0).random(1 << 17)\n"
    "for _ in range(10):\n    numpy.sort(a)\n")
REFERENCE_S = 0.35
REFERENCE_WINDOW = 3

# metric names and units, in output order
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

# spans summed into `<module>.<function>.s` and, for these measures, into
# `<module>.<function>.<measure>` (summed, or the worst value where noted)
_SUMMED = ("nnz", "trials", "rows", "bytes")
_WORST = {"row_sum_defect": max, "residual_l1": max, "worst_margin": min}


@dataclass
class Invocation:
    name: str
    wall_s: float
    rss_mb: float
    exit_code: int
    killed: bool
    check_failed: bool = False

    @property
    def failed(self):
        return self.killed or self.exit_code != 0 or self.check_failed


def child_env(workdir: Path) -> dict:
    """The whole environment of every child: nothing else is inherited."""
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(workdir),
        "TMPDIR": str(workdir),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "LC_ALL": "C.UTF-8",
        "MPLBACKEND": "Agg",
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(name, argv, workdir, env, cap) -> Invocation:
    """Run one child to completion or to `cap` seconds; peak RSS from wait4."""
    log_path = workdir / f"{name}.log"
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        killed = not select.select([pidfd], [], [], cap)[0]
        if killed:
            signal.pidfd_send_signal(pidfd, signal.SIGTERM)
            if not select.select([pidfd], [], [], GRACE_S)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = cap if killed else time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(name, wall, usage.ru_maxrss / 1024.0, proc.returncode, killed)


def cli_argv(args):
    return [sys.executable, "-m", "pwexpand.cli", *args]


def traced_argv(spans_path, args):
    return [sys.executable, str(HERE / "traced.py"), str(spans_path), *args]


def setup_args(workload):
    return ("check-slope", workload.setup_map, "--p", "1")


def _digest(workdir, names):
    h = hashlib.sha256()
    for name in names:
        with open(workdir / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env(workdir)
        self.invocations = []
        self.reference = []  # walls of the reference job, in order
        self.check_failures = []
        self._checked = {}   # leg name -> digest of outputs that passed

    def run_reference(self):
        inv = invoke("reference", [sys.executable, "-c", REFERENCE_JOB],
                     self.workdir, self.env, UNTIMED_CAP_S)
        self.reference.append(inv.wall_s)

    def raw_cap(self):
        """The workload's cap in seconds of the machine as it runs now."""
        speed = statistics.median(self.reference[-REFERENCE_WINDOW:]) / REFERENCE_S
        return self.workload.cap_s * speed

    def run(self, name, argv, cap=None):
        inv = invoke(name, argv, self.workdir, self.env,
                     self.raw_cap() if cap is None else cap)
        self.invocations.append(inv)
        return inv

    def run_leg(self, leg, argv):
        inv = self.run(leg.name, argv)
        if inv.failed:
            return inv
        # full oracle check the first time; afterwards again only when the
        # bytes differ from the last outputs that passed.  The check runs in
        # a child: a large benchmark process would inflate the children's
        # ru_maxrss, which counts the parent's RSS at fork.
        digest = _digest(self.workdir, leg.outputs)
        if self._checked.get(leg.name) != digest:
            check = subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), self.workload.name,
                 str(self.seed), leg.name, str(self.workdir)],
                cwd=self.workdir, env=self.env, capture_output=True, text=True)
            if check.returncode == 0:
                self._checked[leg.name] = digest
            else:
                lines = (check.stdout + check.stderr).strip().splitlines()
                self.check_failures.append(
                    f"{leg.name}: {lines[-1] if lines else f'exit {check.returncode}'}")
                inv.check_failed = True
        return inv

    @property
    def failed(self):
        return sum(inv.failed for inv in self.invocations)


def provenance(runner):
    """Versions and switches of the measured program, from a warm-up child
    that also fills the import and bytecode caches."""
    snippet = (
        "import json, platform, numpy, scipy, scipy.sparse.linalg\n"
        "from pwexpand import cli, kernels, plotting, transfer\n"
        "print(json.dumps({'python': platform.python_version(),"
        " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'numba_enabled': kernels.NUMBA_ENABLED, 'have_mpl': plotting.HAVE_MPL,"
        " 'dense_eig_limit': transfer.DENSE_EIG_LIMIT}))\n")
    inv = invoke("warmup", [sys.executable, "-c", snippet], runner.workdir,
                 runner.env, UNTIMED_CAP_S)
    info = {}
    if not inv.failed:
        info = json.loads((runner.workdir / "warmup.log").read_text().splitlines()[-1])
    info.update(
        commit=_git_commit(), nproc=len(os.sched_getaffinity(0)),
        blas_threads=BLAS_THREADS, cap_s=runner.workload.cap_s,
        host_python=platform.python_version(),
        child_env=runner.env)
    return info


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure_end_to_end(runner, seconds):
    """Passes over the legs until the run has taken `seconds`, and at least
    MIN_PASSES, with a set-up invocation at the start of every pass.  The
    reference job runs between any two timed invocations, and each wall is
    scaled by REFERENCE_S over the mean of the reference walls just before
    and just after it; see README.md.  A leg killed at the cap contributes
    the workload's cap_s, already in scaled seconds, and is not run again."""
    reference = runner.reference
    timed = []        # (name, wall, index of the reference run just before)
    capped = {}       # leg name -> raw wall at which it was killed

    def run_timed(name, run):
        runner.run_reference()
        inv = run()
        if inv.killed:
            capped[name] = inv.wall_s
        else:
            timed.append((name, inv.wall_s, len(reference) - 1))

    setup_argv = cli_argv(setup_args(runner.workload))
    start = time.perf_counter()
    passes = 0
    while time.perf_counter() - start < seconds or passes < MIN_PASSES:
        for _ in range(SETUP_FIRST if passes == 0 else 1):
            run_timed("setup", lambda: runner.run("setup", setup_argv))
        for leg in runner.workload.legs:
            if leg.name not in capped:   # a leg that took the whole cap once
                run_timed(leg.name, lambda: runner.run_leg(leg, cli_argv(leg.argv)))
        passes += 1
    runner.run_reference()

    samples = {}      # name -> [(unscaled, scaled)]
    for name, wall, i in timed:
        speed = (reference[i] + reference[i + 1]) / 2.0
        samples.setdefault(name, []).append((wall, REFERENCE_S * wall / speed))

    def median(name, k):
        return statistics.median(s[k] for s in samples[name])

    legs = [leg.name for leg in runner.workload.legs if leg.name not in capped]
    cap = runner.workload.cap_s * len(capped)
    metrics = {
        "wall_s": sum(median(n, 1) for n in legs) + cap,
        "peak_rss_mb": max(inv.rss_mb for inv in runner.invocations),
        "setup_s": median("setup", 1),
    }
    return metrics, {"passes": passes, "capped": sorted(capped),
                     "capped_share_of_wall_s": cap / metrics["wall_s"],
                     "sample_counts": {n: len(v) for n, v in samples.items()},
                     "unscaled_wall_s": (sum(median(n, 0) for n in legs)
                                         + sum(capped.values())),
                     "unscaled_setup_s": median("setup", 0),
                     "reference_s": reference, "samples_s": samples}


def _load_spans(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {"import_s": 0.0, "spans": []}   # hard-killed: nothing written


def self_times(spans):
    """Inclusive minus the time covered by direct children, per span."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def layer_metrics(setup_doc, leg_docs, probe_metrics):
    out = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    out["import.s"] = setup_doc["import_s"]
    for s in setup_doc["spans"]:
        key = f"{s['module']}.{s['function']}.s"
        if key in ("mapconfig.load_map.s", "maps.validate.s"):
            out[key] += s["end"] - s["start"]
    steps = rk4_s = 0.0
    table = {}   # function -> [calls, inclusive s, self s]
    worst = {}
    for doc in leg_docs:
        selfs = self_times(doc["spans"])
        for s in doc["spans"]:
            fn = f"{s['module']}.{s['function']}"
            dur = s["end"] - s["start"]
            row = table.setdefault(fn, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += selfs[s["id"]]
            if fn in ("mapconfig.load_map", "maps.validate"):
                continue   # reported from the set-up invocation
            if f"{fn}.s" in out:
                out[f"{fn}.s"] += dur
            meas = s["measures"]
            if fn == "transfer.spectrum":
                out[f"{fn}.{meas['path']}.s"] += dur
                out[f"{fn}.{meas['path']}.calls"] += 1
            if fn == "kernels.lorenz_rk4" and "steps" in meas:
                steps += meas["steps"]
                rk4_s += dur
            for key, value in meas.items():
                name = f"{fn}.{key}"
                if name not in out:
                    continue
                if key in _SUMMED:
                    out[name] += value
                elif key in _WORST:
                    worst[name] = _WORST[key](worst.get(name, value), value)
    if steps:
        out["kernels.lorenz_rk4.ns_per_step"] = rk4_s / steps * 1e9
    out.update(worst)
    out.update(probe_metrics)
    out["trace.spans"] = sum(len(d["spans"]) for d in leg_docs)
    return out, table


def measure_layers(runner, seed):
    """Each leg untraced, then traced: the difference of the two sums is
    the tracing overhead; pairing the runs keeps machine drift out of it."""
    spans_dir = runner.workdir / "spans"
    spans_dir.mkdir()
    runner.run_reference()   # sets the machine speed for the cap
    setup_path = spans_dir / "setup.json"
    runner.run("setup_traced", traced_argv(setup_path, setup_args(runner.workload)))
    untraced = traced = 0.0
    for leg in runner.workload.legs:
        untraced += runner.run_leg(leg, cli_argv(leg.argv)).wall_s
        traced += runner.run_leg(
            leg, traced_argv(spans_dir / f"{leg.name}.json", leg.argv)).wall_s
    probe_path = runner.workdir / "probes.json"
    probe_inv = runner.run("probes", [sys.executable, str(HERE / "probes.py"),
                                      str(probe_path), runner.workload.name, str(seed)],
                           cap=UNTIMED_CAP_S)
    probes = {} if probe_inv.failed else json.loads(probe_path.read_text())
    metrics, table = layer_metrics(
        _load_spans(setup_path),
        [_load_spans(spans_dir / f"{leg.name}.json") for leg in runner.workload.legs],
        probes)
    metrics["trace.overhead.s"] = traced - untraced
    return metrics, {"untraced_pass_s": untraced, "traced_pass_s": traced,
                     "functions": table}


def _print_table(title, metrics, units):
    print(title)
    for name, unit in units:
        print(f"  {name:42s} {metrics[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pwexpand" / "cli.py").is_file():
        print(f"error: no pwexpand sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    # one directory per workload and mode: a run replaces the previous one,
    # so repeated runs do not pile up trajectory CSVs
    workdir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workload, args.seed, workdir)
    info = provenance(runner)
    if args.trace:
        metrics, detail = measure_layers(runner, args.seed)
        units = PER_LAYER
    else:
        metrics, detail = measure_end_to_end(runner, args.seconds)
        units = END_TO_END

    attempted = len(runner.invocations)
    failed = runner.failed
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": info, "detail": detail,
              "invocations": [vars(inv) for inv in runner.invocations],
              "check_failures": runner.check_failures, "metrics": metrics}
    (workdir / "report.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cap {workload.cap_s:g} scaled s  blas threads {BLAS_THREADS}")
    print("provenance " + json.dumps({k: v for k, v in info.items() if k != "child_env"}))
    for inv in runner.invocations:
        state = "killed at cap" if inv.killed else f"exit {inv.exit_code}"
        print(f"  {inv.name:22s} {inv.wall_s:9.3f} s {inv.rss_mb:8.1f} MB  {state}")
    for msg in runner.check_failures:
        print(f"  CHECK FAILED {msg}")
    _print_table("metrics", metrics, units)
    if not args.trace:
        counts = ", ".join(f"{n} {c}" for n, c in detail["sample_counts"].items())
        print(f"  samples per median: {counts}; capped legs "
              f"{detail['capped'] or 'none'}, "
              f"{detail['capped_share_of_wall_s']:.0%} of wall_s")
        print(f"  {detail['passes']} passes; reference job median "
              f"{statistics.median(detail['reference_s']):.4f} s (REFERENCE_S "
              f"{REFERENCE_S} s); unscaled wall_s {detail['unscaled_wall_s']:.4f} s, "
              f"setup_s {detail['unscaled_setup_s']:.4f} s")
    if args.trace:
        print("  function (traced pass)                     calls  inclusive s  self s")
        for fn, (calls, inc, own) in sorted(detail["functions"].items()):
            print(f"  {fn:42s} {calls:5d} {inc:12.4f} {own:8.4f}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} failed of {attempted} "
          "attempted invocations)")
    print(json.dumps({
        "correct": not runner.check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

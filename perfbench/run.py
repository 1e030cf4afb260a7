"""Benchmark of the obstructions CLI: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload net-certify --seed 0 --seconds 28 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` next
to this directory. Inputs come from ``--seed`` only. Each run sets up its
inputs (import plus pattern files, primes and sequence lists) in-process, then
runs batches of program calls for ``--seconds`` seconds. Between batches it sets
up ten more times in fresh processes and reports the median of all eleven
set-ups as ``setup_s``. Every output is checked against an independent
recomputation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with every public library function wrapped in a span
(see tracer.py) and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The line
before it carries the machine record and every end-to-end metric of the
workload by name. ``--quick`` shrinks the inputs for the benchmark's tests.

``attempted`` and ``failed`` count the checked operations only. The
obstruction-sets workload also runs a probe that reproduces the known p = 3
no-copy precision defect. Its output is known to be wrong, so it is not
checked; its false violations are counted in ``fail_ratio`` and printed as
``defect_violations``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread and the CLI's default of one worker thread in every run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("OBSTRUCTIONS_THREADS", None)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_PROBES = 10

# gated by the driver; every workload reports all of them
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "answer_bound": "1"}

# every end-to-end metric by its own name, reported where it applies
DETAIL_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fail_ratio": "1",
    "answer_bound": "1", "net_cells_per_s": "cells/s", "certified_epsilon": "1",
    "sampled_rows_per_s": "rows/s", "sequences_per_s": "1/s",
    "mc_points_per_s": "points/s", "exact_slice_nodes_per_s": "nodes/s",
    "placements_per_s": "1/s",
}
APPLIES = {
    "net-certify": ("net_cells_per_s", "certified_epsilon"),
    "calibrate": ("sampled_rows_per_s",),
    "equidistribution": ("sequences_per_s",),
    "obstruction-sets": ("mc_points_per_s", "exact_slice_nodes_per_s",
                         "placements_per_s"),
}

PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "patterns.self_s": "s",
    "torus.self_s": "s",
    "annuli.self_s": "s",
    "lpgeom.self_s": "s",
    "patterns.verify_hitting_net.busy_s": "s",
    "patterns.net.cells": "count",
    "patterns.net.ns_per_point": "ns",
    "patterns.net.slack_share": "1",
    "patterns.net_setup.busy_s": "s",
    "patterns.net.thread_speedup": "1",
    "patterns.verify_hitting_sampled.busy_s": "s",
    "patterns.verify_hitting_sampled.calls": "count",
    "patterns.sampled.ns_per_point": "ns",
    "patterns.thin_pattern.busy_s": "s",
    "patterns.thin_pattern.calls": "count",
    "patterns.bertrand_prime.busy_s": "s",
    "patterns.calibrate_sampled.self_s": "s",
    "patterns.PolySeqSpec.values.busy_s": "s",
    "patterns.PolySeqSpec.values.points": "count",
    "torus.erdos_turan_bound.busy_s": "s",
    "torus.erdos_turan_bound.calls": "count",
    "torus.et.terms": "count",
    "torus.et.ns_per_term": "ns",
    "torus.exact_discrepancy.self_s": "s",
    "torus.weyl_sum.busy_s": "s",
    "torus.weyl.terms": "count",
    "annuli.members.busy_s": "s",
    "annuli.members.even.ns_per_point": "ns",
    "annuli.members.odd.ns_per_point": "ns",
    "annuli.density.self_s": "s",
    "annuli.one_variable_measure.busy_s": "s",
    "annuli.one_variable_measure.calls": "count",
    "annuli.measure.pieces": "count",
    "annuli.measure.ns_per_piece": "ns",
    "annuli.no_copy_check.busy_s": "s",
    "annuli.sample_lp_sphere.busy_s": "s",
    "annuli.nocopy.placements": "count",
    "annuli.nocopy.route_mismatches": "count",
    "lpgeom.copy_sampler_check.busy_s": "s",
    "lpgeom.recover_line.busy_s": "s",
    "trace.overhead_s": "s",
}
LABELS = {"annuli.measure.pieces": "computed from the inputs as sum(floor((R/2)^p) + 2)",
          "patterns.net.thread_speedup": "untraced, --threads 2 against --threads 1"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, batches: int, overhead_s: float, speedup: float) -> dict:
    """Per-layer metrics per traced batch; a layer with no work reports 0."""
    busy, own, calls = recorder.totals()
    c = recorder.counters
    m = {"cli.main.self_s": own["cli.main"]}
    for module in ("patterns", "torus", "annuli", "lpgeom"):
        m[f"{module}.self_s"] = sum(v for k, v in own.items()
                                    if k.startswith(module + "."))
    for name in ("patterns.verify_hitting_net", "patterns.verify_hitting_sampled",
                 "patterns.thin_pattern", "patterns.bertrand_prime",
                 "patterns.PolySeqSpec.values", "torus.erdos_turan_bound",
                 "torus.weyl_sum", "annuli.members", "annuli.one_variable_measure",
                 "annuli.no_copy_check", "annuli.sample_lp_sphere",
                 "lpgeom.copy_sampler_check", "lpgeom.recover_line"):
        m[f"{name}.busy_s"] = busy[name]
    for name in ("patterns.verify_hitting_sampled", "patterns.thin_pattern",
                 "torus.erdos_turan_bound", "annuli.one_variable_measure"):
        m[f"{name}.calls"] = calls[name]
    for name in ("patterns.calibrate_sampled", "torus.exact_discrepancy",
                 "annuli.density"):
        m[f"{name}.self_s"] = own[name]
    m["patterns.net_setup.busy_s"] = (busy["patterns.scale_for_budget"]
                                      + busy["patterns.build_nets"])
    for name in ("patterns.net.cells", "patterns.PolySeqSpec.values.points",
                 "torus.et.terms", "torus.weyl.terms", "annuli.measure.pieces",
                 "annuli.nocopy.placements", "annuli.nocopy.route_mismatches"):
        m[name] = c[name]
    m = {k: v / batches for k, v in m.items()}
    m["patterns.net.ns_per_point"] = _ratio(
        1e9 * busy["patterns.verify_hitting_net"], c["patterns.net.points"])
    m["patterns.net.slack_share"] = _ratio(
        c["patterns.net.slack"], c["patterns.net.epsilon_guaranteed"])
    m["patterns.sampled.ns_per_point"] = _ratio(
        1e9 * busy["patterns.verify_hitting_sampled"], c["patterns.sampled.points"])
    m["torus.et.ns_per_term"] = _ratio(
        1e9 * busy["torus.erdos_turan_bound"], c["torus.et.terms"])
    for parity in ("even", "odd"):
        m[f"annuli.members.{parity}.ns_per_point"] = _ratio(
            1e9 * c[f"annuli.members.{parity}.busy_s"],
            c[f"annuli.members.{parity}.points"])
    m["annuli.measure.ns_per_piece"] = _ratio(
        1e9 * busy["annuli.one_variable_measure"], c["annuli.measure.pieces"])
    m["patterns.net.thread_speedup"] = speedup
    m["trace.overhead_s"] = overhead_s
    return m


def machine_record() -> dict:
    import numpy

    def first_line(path):
        try:
            return Path(path).read_text().splitlines()[0].strip()
        except (OSError, IndexError):
            return None

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cpu_max = "unknown"
    try:
        cgroups = Path("/proc/self/cgroup").read_text().splitlines()
    except OSError:
        cgroups = []
    for line in cgroups:
        _, controllers, path = line.split(":", 2)
        if controllers == "":  # cgroup v2
            cpu_max = first_line(f"/sys/fs/cgroup{path}/cpu.max") or cpu_max
        elif "cpu" in controllers.split(","):  # cgroup v1: quota and period
            base = f"/sys/fs/cgroup/{controllers}{path}"
            quota = first_line(f"{base}/cpu.cfs_quota_us")
            if quota is not None:
                cpu_max = f"{quota} {first_line(f'{base}/cpu.cfs_period_us')}"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cgroup_cpu_max": cpu_max,
    }


def run_batches(workload, state, seconds: float, crashes: list,
                probe=None, probes: int = 0, **kwargs) -> list:
    """Closed loop: start another batch only if one more fits the budget.
    A traceback from the program ends the loop and is reported as a failure.

    ``probe`` is called ``probes`` times, spread over the loop between
    batches, so that the set-up samples see the machine over the same
    stretch of time as the batches do.
    """
    batches = []
    begin = time.perf_counter()
    deadline = begin + seconds
    done = 0
    while True:
        start = time.perf_counter()
        try:
            batches.append(workload.batch(state, **kwargs))
        except Exception:
            crashes.append(traceback.format_exc())
            break
        took = time.perf_counter() - start
        while done < probes and done < probes * (time.perf_counter() - begin) / seconds:
            probe()
            done += 1
        if time.perf_counter() + took > deadline:
            break
    for _ in range(done, probes):
        probe()
    return batches


def setup_probe(args, workdir: Path) -> float:
    """Set up once in a fresh process: import plus input generation."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", str(workdir),
         "--workload", args.workload, "--seed", str(args.seed)]
        + (["--quick"] if args.quick else []),
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def import_and_setup(args, workdir: Path):
    start = time.perf_counter()
    import obstructions
    import workloads
    if not Path(obstructions.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"obstructions imported from {obstructions.__file__}, "
                          f"not from {SRC}")
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES["quick" if args.quick else "full"]
    state = workload.setup(args.seed, workdir, size)
    return workload, state, time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(APPLIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(args, workdir: Path) -> int:
    workload, state, first_setup = import_and_setup(args, workdir / "main")
    setups = [first_setup]

    def probe():
        setups.append(setup_probe(args, workdir / f"probe{len(setups)}"))

    crashes = []
    if args.trace:
        from tracer import Recorder
        untraced = run_batches(workload, state, args.seconds / 2, crashes,
                               probe, SETUP_PROBES)
        recorder = Recorder()
        recorder.install()
        try:
            traced = run_batches(workload, state, args.seconds / 2, crashes)
        finally:
            recorder.uninstall()
        batches = untraced + traced
        speedup = 0.0
        if args.workload == "net-certify" and untraced:
            threaded = run_batches(workload, state, 0, crashes, threads=2)
            batches += threaded
            if threaded:
                speedup = (statistics.median(b.wall for b in untraced)
                           / threaded[0].wall)
    else:
        untraced = batches = run_batches(workload, state, args.seconds, crashes,
                                         probe, SETUP_PROBES)
    if not untraced or (args.trace and not traced):
        print("".join(crashes) or "no batch completed", file=sys.stderr)
        return 1

    def median(key, group=untraced):
        return statistics.median(key(b) for b in group)

    # a crashed batch counts as one failed operation
    attempted = sum(b.attempted for b in batches) + len(crashes)
    failed = sum(b.failed for b in batches) + len(crashes)
    defect_placements = sum(b.defect_placements for b in batches)
    defect_violations = sum(b.defect_violations for b in batches)
    problems = crashes + [p for b in batches for p in b.problems]
    detail = {
        "setup_s": statistics.median(setups),
        "wall_s": median(lambda b: b.wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": ((failed + defect_violations)
                       / (attempted + defect_placements)),
        "answer_bound": median(lambda b: b.answer_bound),
    }
    for name in APPLIES[args.workload]:
        # a batch whose call failed has no value for its rate
        values = [b.work[name][0] / b.work[name][1] if name in b.work
                  else b.extra[name] for b in untraced
                  if name in b.work or name in b.extra]
        if values:
            detail[name] = statistics.median(values)

    if args.trace:
        overhead = median(lambda b: b.wall, traced) - detail["wall_s"]
        values = layer_metrics(recorder, len(traced), overhead, speedup)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": detail[k], "unit": u} for k, u in END_TO_END.items()}

    for name, value in detail.items():
        print(f"{name:>26} {value!r} {DETAIL_UNITS[name]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "batches": {"untraced": len(untraced),
                    "traced": len(traced) if args.trace else 0},
        "setup_samples_s": setups,
        "batch_walls_s": [b.wall for b in untraced],
        "machine": machine_record(),
        "metrics": {k: {"value": v, "unit": DETAIL_UNITS[k]}
                    for k, v in detail.items()},
        "labels": LABELS if args.trace else {},
        "problems": problems,
        "extra": untraced[-1].extra,
    }))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "obstructions" / "__init__.py").is_file():
        print(f"error: the library is not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _, _, seconds = import_and_setup(args, Path(args.setup_probe))
        print(seconds)
        return 0
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

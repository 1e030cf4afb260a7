"""Seeded inputs, timed batches and independent output checks.

Each workload generates its inputs from the benchmark seed in ``setup``
(pattern files, Bertrand primes, sequence lists) and then runs closed-loop
batches: one caller, each call waiting for the previous one. Only the calls
into the program are timed; every output is checked after its call by a
recomputation that does not reuse the code path under test, so a faster or
tighter program still passes while a wrong one fails.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from obstructions import cli, lpgeom, patterns, torus
# bound at import, before any tracing, so the checks open no spans
from obstructions.patterns import Pattern, _sample_seed, verify_hitting_sampled
from obstructions.torus import max_circular_gap

SIZES = {
    # acceptance scale
    "full": {
        "net_n": 32, "net_cells": 10_000_000, "probe_vectors": 1000,
        "cal_n": 64, "cal_retries": 10, "cal_samples": 100_000,
        "eq_sequences": 10, "eq_lengths": (64, 256, 1024),
        "gauss_sums": 2, "gauss_from": 500,
        "mc_samples": 1_000_000, "slice_R": 40.0, "nocopy_samples": 10_000,
        "defect_samples": 1000, "copy_placements": 100_000,
    },
    # seconds per workload, for the benchmark's own tests
    "quick": {
        "net_n": 8, "net_cells": 100_000, "probe_vectors": 50,
        "cal_n": 16, "cal_retries": 2, "cal_samples": 2000,
        "eq_sequences": 2, "eq_lengths": (64,),
        "gauss_sums": 1, "gauss_from": 50,
        "mc_samples": 20_000, "slice_R": 8.0, "nocopy_samples": 200,
        "defect_samples": 100, "copy_placements": 1000,
    },
}

# a p = 2 copy inside the set needs a pattern gap of at least 0.7; the net
# scans of the n = 32 patterns of seeds 0-9 find worst gaps of at most 0.54
NOCOPY_EPSILON = 0.7
DEFECT_N, DEFECT_P = 8, 3  # universe bertrand_prime(8, 3) = 16,777,259
PROBE_BITS = 40


@dataclass
class Batch:
    """One pass over a workload's calls."""

    wall: float = 0.0          # seconds inside program calls
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    work: dict = field(default_factory=dict)   # rate name -> [units, seconds]
    answer_bound: float = 0.0
    extra: dict = field(default_factory=dict)  # exact values worth printing
    # the p = 3 probe of the known no-copy precision defect, kept out of
    # attempted/failed: its output is expected to be wrong, not checked
    defect_placements: int = 0
    defect_violations: int = 0

    def add_work(self, rate: str, units: float, seconds: float) -> None:
        acc = self.work.setdefault(rate, [0.0, 0.0])
        acc[0] += units
        acc[1] += seconds

    def count(self, problems: list, operations: int = 1,
              failed_operations: int = None) -> None:
        """Record operations; a failed check fails all of them by default."""
        self.attempted += operations
        self.problems += problems
        if failed_operations is None:
            failed_operations = operations if problems else 0
        self.failed += failed_operations


class SetupError(RuntimeError):
    pass


def run_cli(argv: list, out: Path):
    """One in-process CLI call writing its report to ``out``; returns
    (exit code, seconds, report or None). Only the call itself is timed."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    code = cli.main(argv + ["-o", str(out)])
    seconds = time.perf_counter() - start
    report = json.loads(out.read_text()) if out.exists() else None
    return code, seconds, report


def _construct(workdir: Path, name: str, n: int, p: int, seed: int) -> dict:
    path = workdir / f"{name}.json"
    code, _, _ = run_cli(["construct", "--mode", "thinned", "--n", str(n),
                          "--p", str(p), "--seed", str(seed),
                          "--pattern-out", str(path)],
                         workdir / f"{name}-construct.json")
    if code != 0:
        raise SetupError(f"construct for {name} exited {code}")
    doc = json.loads(path.read_text())
    doc["path"] = str(path)
    return doc


def _poly_values(doc: dict, coeffs: list) -> list:
    """x_k = A k^p + sum_i B_i k^i mod 1 as exact Fractions."""
    lead = Fraction(doc["A_num"], doc["A_den"])
    return [(lead * k ** doc["p"]
             + sum(c * k ** (i + 1) for i, c in enumerate(coeffs))) % 1
            for k in doc["indices"]]


def check_witness(doc: dict, hitting: dict) -> list:
    """The reported worst gap must be the exact gap at the reported vector."""
    coeffs = [Fraction(c["num"], 1 << c["scale_bits"])
              for c in hitting["worst_coeffs_exact"]]
    gap = max_circular_gap(_poly_values(doc, coeffs))
    claimed = Fraction(hitting["worst_gap_exact"]["num"],
                       hitting["worst_gap_exact"]["den"])
    if gap != claimed:
        return [f"worst gap {claimed} is not the gap {gap} at the reported "
                f"coefficients"]
    return []


def probe_gap(doc: dict, us) -> Fraction:
    """Largest exact gap over dyadic B = u / 2^40 for u in ``us`` (degree 2).

    With D = A_den * 2^40 every point is an integer residue mod D, computed
    in Python integers; this is a lower bound on the worst gap over all B.
    """
    a, b = doc["A_num"], doc["A_den"]
    one = 1 << PROBE_BITS
    den = b << PROBE_BITS
    ks = doc["indices"]
    lead = [(a * k * k % b) << PROBE_BITS for k in ks]
    worst = 0
    for u in us:
        vals = sorted((l + (u * k % one) * b) % den for l, k in zip(lead, ks))
        gap = max(max(y - x for x, y in zip(vals, vals[1:])),
                  den - vals[-1] + vals[0])
        worst = max(worst, gap)
    return Fraction(worst, den)


def probe_vectors(report: dict, count: int, seed: int) -> list:
    """Seeded dyadic B: half uniform on [0, 1), half within one net mesh of
    the reported worst vector, where a too-small certificate shows first."""
    rng = random.Random(seed)
    one = 1 << PROBE_BITS
    (worst,) = report["reports"]["hitting"]["worst_coeffs_exact"]
    center = (worst["num"] << PROBE_BITS) >> worst["scale_bits"]
    radius = max(1, int(report["reports"]["nets"]["meshes"][0] * one))
    return ([rng.getrandbits(PROBE_BITS) for _ in range(count // 2)]
            + [(center + rng.randint(-radius, radius)) % one
               for _ in range(count - count // 2)])


def check_net(code: int, report, doc: dict, probe: Fraction) -> list:
    if code != 0 or report is None:
        return [f"verify --method net exited {code}"]
    hitting = report["reports"]["hitting"]
    problems = check_witness(doc, hitting)
    eps = hitting["epsilon_guaranteed"]
    if not hitting["worst_gap"] <= eps <= 1.0:
        problems.append(f"need worst_gap {hitting['worst_gap']} <= "
                        f"epsilon_guaranteed {eps} <= 1")
    if Fraction(eps) < probe:
        problems.append(f"epsilon_guaranteed {eps} is below the gap "
                        f"{float(probe)} of a probed coefficient vector")
    return problems


class NetCertify:
    """verify --method net --epsilon auto on a thinned n = 32, p = 2 pattern."""

    name = "net-certify"

    def setup(self, seed, workdir, size):
        doc = _construct(workdir, "net-pattern", size["net_n"], 2, seed)
        return {"seed": seed, "workdir": workdir, "size": size, "doc": doc}

    def batch(self, state, threads=1):
        size, doc = state["size"], state["doc"]
        code, seconds, report = run_cli(
            ["verify", "--pattern", doc["path"], "--method", "net",
             "--epsilon", "auto", "--net-cells", str(size["net_cells"]),
             "--threads", str(threads)], state["workdir"] / "verify.json")
        out = Batch(wall=seconds)
        if code != 0 or report is None:
            out.count([f"verify --method net exited {code}"])
            return out
        probe = probe_gap(doc, probe_vectors(report, size["probe_vectors"],
                                             state["seed"]))
        out.count(check_net(code, report, doc, probe))
        hitting = report["reports"]["hitting"]
        out.add_work("net_cells_per_s", hitting["tested"], seconds)
        out.answer_bound = hitting["epsilon_guaranteed"]
        out.extra = {"certified_epsilon": hitting["epsilon_guaranteed"],
                     "worst_gap": hitting["worst_gap"],
                     "probed_gap": float(probe),
                     "slack": hitting["slack"],
                     "tested": hitting["tested"]}
        return out


def check_calibration(code: int, report, retries: int, seed: int) -> list:
    if code != 0 or report is None:
        return [f"construct --calibrate exited {code}"]
    cal = report["reports"]["calibration"]
    attempts = cal["attempts"]
    problems = []
    if [a["seed"] for a in attempts] != list(range(seed, seed + retries)):
        problems.append(f"expected {retries} attempts from seed {seed}, "
                        f"got {[a['seed'] for a in attempts]}")
    if attempts and cal["epsilon_min"] != min(a["worst_gap"] for a in attempts):
        problems.append("epsilon_min is not the best attempt's worst gap")
    return problems


class Calibrate:
    """construct --mode thinned --n 64 --p 3 --calibrate, every retry run."""

    name = "calibrate"

    def setup(self, seed, workdir, size):
        # benchmark seeds map to disjoint windows of pattern seeds
        return {"seed": seed * size["cal_retries"], "workdir": workdir,
                "size": size, "pattern": workdir / "calibrated.json"}

    def batch(self, state):
        size, seed, workdir = state["size"], state["seed"], state["workdir"]
        code, seconds, report = run_cli(
            ["construct", "--mode", "thinned", "--n", str(size["cal_n"]),
             "--p", "3", "--seed", str(seed), "--calibrate",
             "--retries", str(size["cal_retries"]),
             "--samples", str(size["cal_samples"]), "--threads", "1",
             "--pattern-out", str(state["pattern"])], workdir / "construct.json")
        out = Batch(wall=seconds)
        problems = check_calibration(code, report, size["cal_retries"], seed)
        if not problems:
            problems = self._recheck_best(state, report["reports"]["calibration"])
        out.count(problems)
        if report is not None:
            rows = size["cal_retries"] * size["cal_samples"]
            out.add_work("sampled_rows_per_s", rows, seconds)
            out.answer_bound = report["reports"]["calibration"]["epsilon_min"]
        return out

    @staticmethod
    def _recheck_best(state, cal) -> list:
        """Rerun the best attempt's documented sample stream on the written
        pattern and recompute the gap at its worst vector exactly."""
        doc = json.loads(state["pattern"].read_text())
        rep = verify_hitting_sampled(
            Pattern(tuple(doc["indices"]), doc["Q"]), Fraction(doc["A_num"], doc["A_den"]),
            doc["p"], 1.0, n_samples=state["size"]["cal_samples"],
            seed=_sample_seed(cal["pattern_seed"]))
        num, den = rep.worst_gap_exact
        problems = check_witness(doc, {
            "worst_gap_exact": {"num": num, "den": den},
            "worst_coeffs_exact": [{"num": u, "scale_bits": s}
                                   for u, s in rep.worst_coeffs_exact]})
        if rep.worst_gap != cal["epsilon_min"]:
            problems.append(f"best attempt rechecks to {rep.worst_gap}, "
                            f"calibration reported {cal['epsilon_min']}")
        return problems


def grid_oracle(values: list, grid: int) -> float:
    """Largest |count/N - length| over half-open grid intervals; the exact
    discrepancy lies in [oracle, oracle + 2/grid]."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    lengths = np.arange(1, grid + 1) / grid
    best = 0.0
    for s in range(grid):
        rel = np.sort((x - s / grid) % 1.0)
        counts = np.searchsorted(rel, lengths, side="left")
        best = max(best, float(np.abs(counts / n - lengths).max()))
    return best


def check_discrepancy(code: int, report, values=None, grid: int = 200) -> list:
    if code != 0 or report is None:
        return [f"discrepancy exited {code}"]
    rep = report["reports"]["discrepancy"]
    exact, bound = rep["exact_discrepancy"], rep["et_bound"]
    problems = []
    if not bound >= exact:
        problems.append(f"Erdos-Turan bound {bound} below exact discrepancy {exact}")
    if values is not None:
        oracle = grid_oracle(values, grid)
        if not oracle - 1e-9 <= exact <= oracle + 2.0 / grid + 1e-9:
            problems.append(f"exact discrepancy {exact} outside the grid oracle "
                            f"range [{oracle}, {oracle + 2.0 / grid}]")
    return problems


def check_gauss(total: complex, q: int) -> list:
    if abs(abs(total) - math.sqrt(q)) > 1e-9 * q:
        return [f"|Gauss sum| {abs(total)} != sqrt({q})"]
    return []


def _next_prime(m: int) -> int:
    while m < 3 or any(m % d == 0 for d in range(2, math.isqrt(m) + 1)):
        m += 1
    return m


class Equidistribution:
    """discrepancy --A a/b --B u/2^30 --N N --M N, plus Gauss sums via weyl_sum."""

    name = "equidistribution"

    def setup(self, seed, workdir, size):
        rng = random.Random(seed)
        cases = []
        for _ in range(size["eq_sequences"]):
            b = rng.randrange(64, 2048)
            a, u = rng.randrange(1, b), rng.getrandbits(30)
            cases += [(a, b, u, n) for n in size["eq_lengths"]]
        gauss = []
        for _ in range(size["gauss_sums"]):
            q = _next_prime(rng.randrange(size["gauss_from"], 3 * size["gauss_from"]))
            gauss.append((rng.randrange(1, q), q))
        return {"workdir": workdir, "cases": cases, "gauss": gauss, "batches": 0}

    def batch(self, state):
        out = Batch()
        # the grid oracle rechecks one case per batch, in turn
        oracle_case = state["batches"] % len(state["cases"])
        state["batches"] += 1
        for i, (a, b, u, n) in enumerate(state["cases"]):
            code, seconds, report = run_cli(
                ["discrepancy", "--A", f"{a}/{b}", "--B", f"{u}/{1 << 30}",
                 "--N", str(n), "--M", str(n)], state["workdir"] / "disc.json")
            out.wall += seconds
            out.add_work("sequences_per_s", 1, seconds)
            values = None
            if i == oracle_case:
                values = [float((Fraction(a, b) * k * k + Fraction(u, 1 << 30) * k) % 1)
                          for k in range(n)]
            out.count(check_discrepancy(code, report, values))
            if report is not None:
                out.answer_bound += (report["reports"]["discrepancy"]["et_bound"]
                                     / len(state["cases"]))
        for c, q in state["gauss"]:
            start = time.perf_counter()
            total = torus.weyl_sum(patterns.PolySeqSpec(2, Fraction(c, q)), q)
            out.wall += time.perf_counter() - start
            out.count(check_gauss(total, q))
        return out


def check_monte_carlo(code: int, report, even: bool) -> list:
    if code != 0 or report is None:
        return [f"density --method monte-carlo exited {code}"]
    rep = report["reports"]["density"]
    problems = []
    if rep["fraction"] != rep["detail"]["hits"] / rep["detail"]["samples"]:
        problems.append("fraction is not hits / samples")
    five_se = 5 * rep["std_error"]
    if even and abs(rep["fraction"] - rep["target"]) > five_se:
        problems.append(f"even-p density {rep['fraction']} is more than 5 "
                        f"standard errors from 1 - eps = {rep['target']}")
    if not even and rep["fraction"] < rep["target"] - five_se:
        problems.append(f"odd-p density {rep['fraction']} below its lower "
                        f"bound {rep['target']}")
    return problems


def check_slice(code: int, report) -> list:
    if code != 0 or report is None:
        return [f"density --method exact-slice exited {code}"]
    rep = report["reports"]["density"]
    if abs(rep["fraction"] - rep["target"]) > rep["error_bound"]:
        return [f"exact-slice density {rep['fraction']} outside "
                f"{rep['target']} +- {rep['error_bound']}"]
    return []


def check_nocopy(code: int, report, placements: int) -> list:
    if code != 0 or report is None:
        return [f"nocopy exited {code}"]
    rep = report["reports"]["nocopy"]
    problems = []
    if rep["placements_total"] != placements:
        problems.append(f"{rep['placements_total']} placements, expected {placements}")
    if rep["violations_total"] or rep["route_mismatches"]:
        problems.append(f"p = 2 nocopy reports {rep['violations_total']} violations "
                        f"and {rep['route_mismatches']} route mismatches")
    return problems


def nocopy_failures(code: int, report, placements: int) -> int:
    """Placements reported inside the set or with disagreeing routes; a
    refusal (exit 2) leaves every placement unchecked, so all count."""
    if code in (0, 1) and report is not None:
        rep = report["reports"]["nocopy"]
        return max(rep["violations_total"], rep["route_mismatches"])
    return placements


def check_copy_sampler(rep) -> list:
    if rep.violations:
        return [f"copy_sampler_check reports {rep.violations} violations"]
    return []


def check_line(line, x, v, params) -> list:
    if (not np.allclose(line.x, x, rtol=0, atol=1e-8)
            or not np.allclose(line.v, v, rtol=0, atol=1e-8)
            or tuple(line.params) != tuple(params)):
        return [f"recover_line returned x={line.x}, v={line.v}, expected {x}, {v}"]
    return []


class ObstructionSets:
    """density (Monte Carlo and exact-slice), nocopy at p = 2 and the p = 3
    precision probe, plus copy_sampler_check and recover_line."""

    name = "obstruction-sets"

    def setup(self, seed, workdir, size):
        rng = random.Random(seed)
        pattern = _construct(workdir, "nocopy-pattern", 32, 2, seed)
        defect = _construct(workdir, "defect-pattern", DEFECT_N, DEFECT_P, seed)
        p, d = 3, 3
        v = np.array([rng.gauss(0, 1) for _ in range(d)])
        v /= (np.abs(v) ** p).sum() ** (1 / p)
        x = np.array([rng.uniform(-10, 10) for _ in range(d)])
        r, params = rng.uniform(1, 10), list(range(8))
        return {
            "seed": seed, "workdir": workdir, "size": size,
            "pattern": pattern["path"], "defect": defect["path"],
            "eps_mc": round(rng.uniform(0.1, 0.4), 4),
            "eps_slice": round(rng.uniform(0.1, 0.4), 4),
            "line": (x, v, r, p, params,
                     {t: tuple(x + r * t * v) for t in params}),
        }

    def batch(self, state):
        size, seed, workdir = state["size"], str(state["seed"]), state["workdir"]
        out = Batch()

        def call(argv):
            code, seconds, report = run_cli(argv, workdir / "report.json")
            out.wall += seconds
            return code, seconds, report

        samples = size["mc_samples"]
        for d, p, eps, R in ((2, 2, state["eps_mc"], 200), (4, 3, 0.05, 50)):
            code, seconds, report = call(
                ["density", "--d", str(d), "--p", str(p), "--epsilon", str(eps),
                 "--R", str(R), "--samples", str(samples), "--seed", seed])
            out.add_work("mc_points_per_s", samples, seconds)
            out.count(check_monte_carlo(code, report, even=p % 2 == 0))

        code, seconds, report = call(
            ["density", "--d", "2", "--p", "4", "--epsilon", str(state["eps_slice"]),
             "--R", str(size["slice_R"]), "--method", "exact-slice"])
        out.count(check_slice(code, report))
        if report is not None:
            rep = report["reports"]["density"]
            out.add_work("exact_slice_nodes_per_s", rep["detail"]["nodes"], seconds)
            out.answer_bound = rep["error_bound"]

        placements = 5 * size["nocopy_samples"]
        code, seconds, report = call(
            ["nocopy", "--pattern", state["pattern"], "--epsilon", str(NOCOPY_EPSILON),
             "--j-list", "1,2,3,4,5", "--samples", str(size["nocopy_samples"]),
             "--seed", seed])
        out.add_work("placements_per_s", placements, seconds)
        problems = check_nocopy(code, report, placements)
        failed = nocopy_failures(code, report, placements)
        out.count(problems, placements, max(failed, len(problems)))

        placements = 5 * size["defect_samples"]
        code, _, report = call(
            ["nocopy", "--pattern", state["defect"], "--epsilon", str(NOCOPY_EPSILON),
             "--j-list", "1,2,3,4,5", "--samples", str(size["defect_samples"]),
             "--seed", seed])
        # the known precision defect: its reported violations are numerical
        # noise. They go into fail_ratio, not into the checked operations
        out.defect_placements += placements
        out.defect_violations += nocopy_failures(code, report, placements)
        out.extra["defect_violations"] = out.defect_violations

        start = time.perf_counter()
        rep = lpgeom.copy_sampler_check(3, 12, 2, size["copy_placements"],
                                        seed=state["seed"])
        out.wall += time.perf_counter() - start
        out.count(check_copy_sampler(rep))

        x, v, r, p, params, points = state["line"]
        start = time.perf_counter()
        line = lpgeom.recover_line(points, p, r)
        out.wall += time.perf_counter() - start
        out.count(check_line(line, x, v, params))
        return out


WORKLOADS = {w.name: w for w in (NetCertify(), Calibrate(), Equidistribution(),
                                 ObstructionSets())}

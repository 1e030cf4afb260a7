"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Quick-mode runs must emit every metric by name with its unit, and the output
checks must reject corrupted outputs.
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from obstructions.torus import max_circular_gap  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# the end-to-end metrics by their own names, and where each applies
NAMED_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fail_ratio": "1",
    "net_cells_per_s": "cells/s", "certified_epsilon": "1",
    "sampled_rows_per_s": "rows/s", "sequences_per_s": "1/s",
    "mc_points_per_s": "points/s", "exact_slice_nodes_per_s": "nodes/s",
    "placements_per_s": "1/s",
}
COMMON = ("setup_s", "wall_s", "peak_rss_mb", "fail_ratio")
NAMED = {
    "net-certify": COMMON + ("net_cells_per_s", "certified_epsilon"),
    "calibrate": COMMON + ("sampled_rows_per_s",),
    "equidistribution": COMMON + ("sequences_per_s",),
    "obstruction-sets": COMMON + ("mc_points_per_s", "exact_slice_nodes_per_s",
                                  "placements_per_s"),
}


def _quick(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_file_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(NAMED)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(NAMED))
def test_quick_run_emits_every_metric_with_its_unit(workload):
    detail, result = _quick(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["problems"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if detail["extra"].get("defect_violations"):
        assert detail["metrics"]["fail_ratio"]["value"] > 0
    assert _units(result["metrics"]) == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    named = {k: v for k, v in _units(detail["metrics"]).items() if k in NAMED_UNITS}
    assert named == {k: NAMED_UNITS[k] for k in NAMED[workload]}
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads",
                "cgroup_cpu_max"):
        assert key in detail["machine"]


@pytest.mark.parametrize("workload", list(NAMED))
def test_quick_traced_run_emits_every_layer_metric(workload):
    _, result = _quick(workload, trace=1)
    assert result["correct"]
    assert _units(result["metrics"]) == run.PER_LAYER_UNITS


def test_missing_program_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "net-certify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


@pytest.fixture(scope="module")
def net_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("net")
    state = workloads.NetCertify().setup(0, workdir, workloads.SIZES["quick"])
    code, _, report = workloads.run_cli(
        ["verify", "--pattern", state["doc"]["path"], "--method", "net",
         "--epsilon", "auto", "--net-cells", "100000"], workdir / "verify.json")
    probe = workloads.probe_gap(state["doc"], workloads.probe_vectors(report, 50, 0))
    return code, report, state["doc"], probe


def test_net_check_accepts_the_real_output(net_run):
    assert workloads.check_net(*net_run) == []


def test_net_check_rejects_epsilon_below_a_probed_gap(net_run):
    code, report, doc, probe = net_run
    bad = json.loads(json.dumps(report))
    bad["reports"]["hitting"]["epsilon_guaranteed"] = float(probe) * 0.99
    assert any("probed" in p for p in workloads.check_net(code, bad, doc, probe))


def test_net_check_rejects_a_wrong_witness_gap(net_run):
    code, report, doc, probe = net_run
    bad = json.loads(json.dumps(report))
    bad["reports"]["hitting"]["worst_gap_exact"]["num"] += 1
    assert workloads.check_net(code, bad, doc, probe)


def test_nocopy_check_rejects_a_p2_violation(tmp_path):
    state = workloads.ObstructionSets().setup(0, tmp_path, workloads.SIZES["quick"])
    code, _, report = workloads.run_cli(
        ["nocopy", "--pattern", state["pattern"], "--epsilon", "0.7",
         "--samples", "100"], tmp_path / "nocopy.json")
    assert workloads.check_nocopy(code, report, 500) == []
    report["reports"]["nocopy"]["violations_total"] = 1
    assert workloads.check_nocopy(code, report, 500)
    assert workloads.nocopy_failures(code, report, 500) == 1


def test_discrepancy_and_gauss_checks_reject_corruption():
    report = {"reports": {"discrepancy": {"exact_discrepancy": 0.2, "et_bound": 0.1}}}
    assert workloads.check_discrepancy(0, report)
    values = [k / 64 for k in range(64)]
    report["reports"]["discrepancy"] = {"exact_discrepancy": 0.5, "et_bound": 1.0}
    assert workloads.check_discrepancy(0, report, values)
    assert workloads.check_gauss(complex(1.0, 0.0), 7)
    assert workloads.check_gauss(complex(0.0, 7 ** 0.5), 7) == []


def test_probe_gap_matches_fraction_arithmetic():
    doc = {"A_num": 1, "A_den": 101, "p": 2, "indices": [0, 3, 7, 20, 50]}
    rng = random.Random(3)
    us = [rng.getrandbits(workloads.PROBE_BITS) for _ in range(20)]
    expected = max(
        max_circular_gap([(Fraction(k * k, 101) + Fraction(u, 1 << 40) * k) % 1
                          for k in doc["indices"]])
        for u in us)
    assert workloads.probe_gap(doc, us) == expected

import argparse
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import obstructions
from obstructions import cli, patterns
from obstructions.cli import _PATTERN_KEYS, _build_parser, main
from obstructions.patterns import (Pattern, _sample_seed, block_rows,
                                   verify_hitting_sampled)
from obstructions.torus import exact_discrepancy


def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main([*args, "-o", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def payload_without_meta(payload):
    stripped = dict(payload)
    stripped.pop("meta")
    return json.dumps(stripped, sort_keys=True)


# ---------------------------------------------------------------------------


def test_construct_elementary_pattern_file(tmp_path):
    pat = tmp_path / "pat.json"
    code, payload = run(["construct", "--mode", "elementary", "--n", "16",
                         "--pattern-out", str(pat)], tmp_path)
    assert code == 0 and payload["pass"]
    doc = json.loads(pat.read_text())
    assert doc["A_num"] == 1 and doc["A_den"] == 16
    assert doc["indices"] == list(range(16))
    assert doc["provenance"] == "elementary"
    assert set(doc) == {"n", "p", "Q", "A_num", "A_den", "indices",
                        "provenance", "epsilon_verified"}


def test_construct_thinned_deterministic(tmp_path):
    args = ["construct", "--mode", "thinned", "--n", "8", "--Q", "64",
            "--seed", "1", "--pattern-out", str(tmp_path / "p.json")]
    code1, p1 = run(args, tmp_path, "r1.json")
    doc1 = (tmp_path / "p.json").read_text()
    code2, p2 = run(args, tmp_path, "r2.json")
    doc2 = (tmp_path / "p.json").read_text()
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert payload_without_meta(p1) == payload_without_meta(p2)


def test_construct_auto_bertrand_universe(tmp_path):
    pat = tmp_path / "pat.json"
    code, payload = run(["construct", "--mode", "thinned", "--n", "32",
                         "--seed", "0", "--pattern-out", str(pat)], tmp_path)
    assert code == 0
    doc = json.loads(pat.read_text())
    assert doc["Q"] == 1048583  # asserted prime elsewhere in the suite


def test_verify_sampled_pass_and_fail(tmp_path):
    pat = tmp_path / "pat.json"
    run(["construct", "--mode", "elementary", "--n", "64",
         "--pattern-out", str(pat)], tmp_path)
    code, payload = run(["verify", "--pattern", str(pat), "--method", "sampled",
                         "--epsilon", "1.25", "--samples", "500"], tmp_path)
    assert code == 0 and payload["pass"]
    code, payload = run(["verify", "--pattern", str(pat), "--method", "sampled",
                         "--epsilon", str(1.0 / 640), "--samples", "200"], tmp_path)
    assert code == 1 and not payload["pass"]
    assert payload["reports"]["hitting"]["worst_coeffs"]  # witness present


def test_verify_net_cells_bound_the_scan(tmp_path):
    # at degree 3 the k^1 grid clamps to one point; the k^2 grid must still
    # stay within --net-cells, and the nets block reports the grid scanned
    pat = tmp_path / "pat.json"
    run(["construct", "--mode", "thinned", "--n", "6", "--p", "3", "--Q", "101",
         "--seed", "1", "--pattern-out", str(pat)], tmp_path)
    code, payload = run(["verify", "--pattern", str(pat), "--method", "net",
                         "--epsilon", "auto", "--net-cells", "1000"], tmp_path)
    assert code in (0, 1)
    nets, hitting = payload["reports"]["nets"], payload["reports"]["hitting"]
    assert nets["total_cells"] == hitting["tested"] <= 1000
    assert payload["config"]["net_cells"] == 1000


def test_verify_net_budget_error_names_the_flags_that_help(tmp_path, capsys):
    # Q near 2^50 leaves the kernel 11 fixed-point bits: the default budget
    # asks for a finer step than that, and only a lower --net-cells helps
    pat = tmp_path / "pat.json"
    run(["construct", "--mode", "thinned", "--n", "16", "--Q", str((1 << 50) + 1),
         "--seed", "0", "--pattern-out", str(pat)], tmp_path)
    capsys.readouterr()
    code = main(["verify", "--pattern", str(pat), "--method", "net",
                 "--epsilon", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "lower --net-cells" in err
    assert "--budget" not in err and "--resolution-scale" not in err


def test_calibrate_thins_each_seed_once(tmp_path, monkeypatch):
    # construct --calibrate leaves the thinning to calibrate_sampled: one
    # pattern per attempt, the first at --seed
    seeds = []
    thin = patterns.thin_pattern

    def counting(n, universe, seed):
        seeds.append(seed)
        return thin(n, universe, seed)

    monkeypatch.setattr(patterns, "thin_pattern", counting)
    monkeypatch.setattr(cli, "thin_pattern", counting)
    code, payload = run(["construct", "--mode", "thinned", "--n", "12", "--Q", "257",
                         "--calibrate", "--retries", "3", "--samples", "300", "--seed", "5",
                         "--pattern-out", str(tmp_path / "pat.json")], tmp_path)
    assert code == 0 and seeds == [5, 6, 7]
    assert [a["seed"] for a in payload["reports"]["calibration"]["attempts"]] == seeds


def test_calibrated_epsilon_passes_on_its_own_stream(tmp_path):
    # construct --calibrate writes the exact worst gap rounded up; rounded
    # to nearest, re-verifying on the calibration stream at it failed for 9
    # of these 12 seeds
    pat = tmp_path / "pat.json"
    for seed in range(12):
        code, payload = run(["construct", "--mode", "thinned", "--n", "12", "--Q", "257",
                             "--calibrate", "--samples", "2000", "--seed", str(seed),
                             "--pattern-out", str(pat)], tmp_path)
        assert code == 0
        doc = json.loads(pat.read_text())
        cal = payload["reports"]["calibration"]
        assert doc["epsilon_verified"] >= cal["epsilon_min"]
        rep = verify_hitting_sampled(
            Pattern(tuple(doc["indices"]), doc["Q"]), Fraction(doc["A_num"], doc["A_den"]),
            doc["p"], doc["epsilon_verified"], cal["n_samples"],
            seed=_sample_seed(cal["pattern_seed"]))
        assert rep.passed and rep.worst_gap == cal["epsilon_min"]


def test_scan_counters_in_meta(tmp_path):
    pat = tmp_path / "pat.json"
    code, cal = run(["construct", "--mode", "thinned", "--n", "12", "--Q", "257",
                     "--calibrate", "--retries", "2", "--samples", "300",
                     "--pattern-out", str(pat)], tmp_path, "cal.json")
    assert code == 0
    code, net = run(["verify", "--pattern", str(pat), "--method", "net",
                     "--epsilon", "auto"], tmp_path, "net.json")
    assert code == 0
    # Q = 257 runs in the screened uint32 word (see patterns._ExactKernel);
    # a sampled scan's blocks are sized in it, a net's segments in uint64
    for payload, cells, rows in ((cal, 2 * 300, block_rows(12, 4)),
                                 (net, net["reports"]["hitting"]["tested"], block_rows(12))):
        counters = payload["meta"]["counters"]
        assert counters["cells"] == cells
        assert 0 < counters["sorted_rows"] <= counters["kernel_rows"] <= cells
        assert counters["block_rows"] == rows
        assert counters["word_bits"] == 32
        assert counters["cells_per_s"] > 0
    # a sampled scan sends every row to the kernel; this net (Q = 257,
    # 102,801 cells) moves a gap by at most about D/430 per step, so its
    # cone skips most cells
    assert cal["meta"]["counters"]["kernel_rows"] == 2 * 300
    assert net["meta"]["counters"]["kernel_rows"] < net["meta"]["counters"]["cells"]
    for field in ("sorted_rows", "kernel_rows", "block_rows", "word_bits"):
        assert field not in net["reports"]["hitting"]
    # n = 64, p = 3 has s = 13: the kernel runs in uint16, in blocks of
    # 2^18 / (2 * 64) rows, and the counter gives those rows
    code, cal64 = run(["construct", "--mode", "thinned", "--n", "64", "--p", "3",
                       "--calibrate", "--retries", "2", "--samples", "3000",
                       "--pattern-out", str(tmp_path / "pat64.json")], tmp_path, "cal64.json")
    assert code == 0
    counters = cal64["meta"]["counters"]
    assert counters["block_rows"] == block_rows(64, 2) == 2048
    assert counters["word_bits"] == 16
    assert counters["kernel_rows"] == counters["cells"] == 2 * 3000
    assert 0 < counters["sorted_rows"] <= counters["kernel_rows"]


def test_verify_net_threads_deterministic(tmp_path):
    pat = tmp_path / "pat.json"
    run(["construct", "--mode", "thinned", "--n", "12", "--Q", "257",
         "--seed", "3", "--pattern-out", str(pat)], tmp_path)
    base = ["verify", "--pattern", str(pat), "--method", "net",
            "--epsilon", "auto"]
    code1, p1 = run(base + ["--threads", "1"], tmp_path, "t1.json")
    code2, p2 = run(base + ["--threads", "4"], tmp_path, "t2.json")
    assert code1 == code2 == 0
    # the flag is accepted and ignored: it is not even echoed in config
    assert "threads" not in p1["config"]
    assert payload_without_meta(p1) == payload_without_meta(p2)


def test_nocopy_precision_guard_exits_2(tmp_path, capsys):
    # the n = 8, p = 3 pattern on Q = 16,777,259: extended precision cannot
    # decide its copies, which is a budget error, not a mathematical failure
    pat = tmp_path / "pat.json"
    run(["construct", "--mode", "thinned", "--n", "8", "--p", "3",
         "--pattern-out", str(pat)], tmp_path)
    assert json.loads(pat.read_text())["Q"] == 16_777_259
    capsys.readouterr()
    code = main(["nocopy", "--pattern", str(pat), "--epsilon", "0.7",
                 "--j-list", "1,2,3,4", "--samples", "1000"])
    assert code == 2
    assert "undecided" in capsys.readouterr().err


def test_density_subcommand(tmp_path):
    code, payload = run(["density", "--d", "2", "--p", "2", "--epsilon", "0.1",
                         "--R", "100", "--samples", "50000", "--seed", "7"],
                        tmp_path)
    assert code == 0
    frac = payload["reports"]["density"]["fraction"]
    assert abs(frac - 0.9) < 0.03
    counters = payload["meta"]["counters"]
    assert counters["samples"] == 50000 and counters["sign_vectors"] == 1
    assert counters["samples_per_s"] > 0
    code, payload = run(["density", "--d", "3", "--p", "3", "--epsilon", "0.1",
                         "--R", "20", "--samples", "1000"], tmp_path, "odd.json")
    assert code == 0 and payload["meta"]["counters"]["sign_vectors"] == 4


def test_nocopy_subcommand(tmp_path):
    pat = tmp_path / "pat.json"
    run(["construct", "--mode", "thinned", "--n", "20", "--Q", "101",
         "--seed", "1", "--pattern-out", str(pat)], tmp_path)
    code, payload = run(["nocopy", "--pattern", str(pat), "--epsilon", "0.9",
                         "--j-list", "1,2", "--samples", "500"], tmp_path)
    assert code == 0 and payload["pass"]
    assert payload["reports"]["nocopy"]["violations_total"] == 0
    counters = payload["meta"]["counters"]
    assert counters["placements"] == 2 * 500
    assert counters["poly_route_s"] > 0 and counters["direct_route_s"] > 0


def test_discrepancy_generated_sequence(tmp_path):
    dump = tmp_path / "points.csv"
    code, payload = run(["discrepancy", "--A", "1/101", "--B", "0.25",
                         "--N", "101", "--M", "101", "--dump", str(dump)],
                        tmp_path)
    assert code == 0 and payload["pass"]
    rep = payload["reports"]["discrepancy"]
    assert rep["et_bound"] >= rep["exact_discrepancy"]
    assert len(dump.read_text().splitlines()) == 101


def test_discrepancy_et_counters_in_meta(tmp_path):
    code, payload = run(["discrepancy", "--A", "1/101", "--B", "3/8",
                         "--N", "64", "--M", "32"], tmp_path)
    assert code == 0 and payload["pass"]
    counters = payload["meta"]["counters"]
    assert sorted(counters) == ["et_s", "et_terms", "et_terms_per_s", "exact_s",
                                "residues_s"]
    assert counters["et_terms"] == 64 * 32
    assert counters["et_s"] > 0 and counters["et_terms_per_s"] > 0
    assert counters["residues_s"] > 0 and counters["exact_s"] > 0
    # the three stages are disjoint parts of the call
    stages = counters["residues_s"] + counters["exact_s"] + counters["et_s"]
    assert stages <= payload["meta"]["wall_clock_s"]
    code, payload = run(["discrepancy", "--A", "1/101", "--N", "64"], tmp_path,
                        "no-et.json")
    assert code == 0
    assert sorted(payload["meta"]["counters"]) == ["exact_s", "residues_s"]


def test_discrepancy_points_file_roundtrip(tmp_path):
    csv = tmp_path / "pts.csv"
    csv.write_text("value\n0.0\n0.5\n")
    code, payload = run(["discrepancy", "--points", str(csv)], tmp_path)
    assert code == 0
    assert payload["reports"]["discrepancy"]["exact_discrepancy"] == 0.5


def test_discrepancy_lower_coefficients_are_exact(tmp_path):
    # x_k = k^5/101 + k^4/3 mod 1: every point is a multiple of 1/303, so a
    # count over the 303 grid arcs gives the discrepancy exactly
    code, payload = run(["discrepancy", "--A", "1/101", "--B", "0,0,0,1/3",
                         "--N", "20000"], tmp_path)
    assert code == 0
    n, grid = 20000, 303
    hist = [0] * grid
    for k in range(n):
        hist[(3 * k ** 5 + 101 * k ** 4) % grid] += 1
    # sup |count/N - length| is attained by closed arcs [a, a+L] or open
    # arcs (a, a+L+1) between grid points; scaled by N * grid to stay in ints
    best = 0
    for a in range(grid):
        inside = 0
        for length in range(grid):
            inside += hist[(a + length) % grid]
            best = max(best, inside * grid - length * n,
                       (length + 1) * n - (inside - hist[a]) * grid)
    oracle = Fraction(best, n * grid)
    rep = payload["reports"]["discrepancy"]
    assert Fraction(rep["exact_value"]["num"], rep["exact_value"]["den"]) == oracle
    assert rep["exact_discrepancy"] == float(oracle)
    # a decimal token is the decimal it spells: 0.1 is 1/10
    dumps = []
    for token in ("0.1", "1/10"):
        dump = tmp_path / f"points-{len(dumps)}.csv"
        assert run(["discrepancy", "--A", "1/7", "--B", token, "--N", "3000",
                    "--dump", str(dump)], tmp_path)[0] == 0
        dumps.append(dump.read_text())
    assert dumps[0] == dumps[1]


def test_discrepancy_dump_reads_back(tmp_path):
    dump = tmp_path / "points.csv"
    code, generated = run(["discrepancy", "--A", "1/101", "--B", "0.25",
                           "--N", "20", "--M", "7", "--dump", str(dump)], tmp_path)
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[:3] == ["0/1", "105/404", "109/202"]  # k^2/101 + k/4 mod 1
    code, reread = run(["discrepancy", "--points", str(dump), "--M", "7"], tmp_path)
    assert code == 0
    assert reread["reports"] == generated["reports"]


def test_discrepancy_dump_of_points_is_reduced_mod_1(tmp_path):
    # the dump holds the points the report used: each reduced into [0, 1)
    csv, dump = tmp_path / "pts.csv", tmp_path / "dump.csv"
    csv.write_text("5/4\n-1/3\n0.5\n")
    code, given = run(["discrepancy", "--points", str(csv), "--M", "5",
                       "--dump", str(dump)], tmp_path)
    assert code == 0
    assert dump.read_text().splitlines() == ["1/4", "2/3", "1/2"]
    code, reread = run(["discrepancy", "--points", str(dump), "--M", "5"], tmp_path)
    assert code == 0
    assert reread["reports"] == given["reports"]


def test_discrepancy_points_tokens_are_exact(tmp_path):
    # 0.1 in a points file is 1/10, as in --A and --B, not the binary float
    csv = tmp_path / "pts.csv"
    csv.write_text("x\n0.1\n7/20\n0.6\n")
    code, payload = run(["discrepancy", "--points", str(csv)], tmp_path)
    assert code == 0
    rep = payload["reports"]["discrepancy"]
    want = exact_discrepancy([Fraction(1, 10), Fraction(7, 20), Fraction(3, 5)])
    assert Fraction(rep["exact_value"]["num"], rep["exact_value"]["den"]) \
        == want.exact_value
    assert rep["witness_interval"] == want.witness_interval.to_dict()
    assert rep["witness_interval"]["start"] == {"num": 1, "den": 10}


def test_density_exact_slice_p4_at_large_R(tmp_path):
    code, payload = run(["density", "--d", "2", "--p", "4", "--epsilon", "0.2",
                         "--R", "400", "--method", "exact-slice"], tmp_path)
    assert code == 0 and "counters" not in payload["meta"]
    rep = payload["reports"]["density"]
    assert abs(rep["fraction"] - rep["target"]) <= rep["error_bound"]


def test_discrepancy_usage_error(capsys):
    assert main(["discrepancy"]) == 2
    assert "needs --points or --A" in capsys.readouterr().err


def test_render_svg(tmp_path):
    svg = tmp_path / "fig.svg"
    code, payload = run(["render", "--epsilon", "0.3", "--R", "6",
                         "--out", str(svg)], tmp_path)
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "evenodd" in text
    # shell count is of the order floor((R/2)^2 + 1/2)
    shells = payload["reports"]["shells_within_half_side"]
    assert abs(shells - 9) <= 1


def test_render_rejects_other_exponents(tmp_path, capsys):
    # render draws the circular annuli (d = p = 2) only and takes no exponent
    code = main(["render", "--p", "3", "--epsilon", "0.3", "--R", "6",
                 "--out", str(tmp_path / "f.svg")])
    assert code == 2
    assert "unrecognized arguments: --p 3" in capsys.readouterr().err


def test_construct_calibrate_needs_thinned(tmp_path, capsys):
    code = main(["construct", "--mode", "elementary", "--n", "16",
                 "--calibrate", "--pattern-out", str(tmp_path / "p.json")])
    assert code == 2
    assert "thinned" in capsys.readouterr().err


def test_verify_sampled_rejects_auto(tmp_path, capsys):
    pat = tmp_path / "pat.json"
    run(["construct", "--mode", "thinned", "--n", "8", "--Q", "64",
         "--seed", "1", "--pattern-out", str(pat)], tmp_path)
    code = main(["verify", "--pattern", str(pat), "--method", "sampled",
                 "--epsilon", "auto"])
    assert code == 2
    assert "net mode" in capsys.readouterr().err


def test_every_subcommand_rerun_identical(tmp_path):
    pat = tmp_path / "pat.json"
    run(["construct", "--mode", "thinned", "--n", "10", "--Q", "101",
         "--seed", "5", "--pattern-out", str(pat)], tmp_path)
    cases = {
        "construct": ["construct", "--mode", "thinned", "--n", "10", "--Q",
                      "101", "--seed", "5", "--pattern-out", str(pat)],
        "verify": ["verify", "--pattern", str(pat), "--method", "sampled",
                   "--epsilon", "0.9", "--samples", "300", "--seed", "2"],
        "density": ["density", "--d", "1", "--p", "2", "--epsilon", "0.2",
                    "--R", "20", "--samples", "20000", "--seed", "3"],
        "nocopy": ["nocopy", "--pattern", str(pat), "--epsilon", "0.9",
                   "--j-list", "1", "--samples", "300", "--seed", "4"],
        "discrepancy": ["discrepancy", "--A", "1/101", "--N", "50", "--M", "20"],
        "render": ["render", "--epsilon", "0.25", "--R", "4",
                   "--out", str(tmp_path / "r.svg")],
    }
    for name, args in cases.items():
        _, p1 = run(args, tmp_path, f"{name}1.json")
        _, p2 = run(args, tmp_path, f"{name}2.json")
        assert payload_without_meta(p1) == payload_without_meta(p2), name


def test_module_entry_point_keeps_the_exit_codes(tmp_path):
    # the real entry point in a fresh interpreter: exit codes reach the
    # process, and a usage error prints no traceback
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(obstructions.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "obstructions.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    done = cli("construct", "--mode", "thinned", "--n", "4", "--Q", "11",
               "--pattern-out", str(tmp_path / "p.json"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["subcommand"] == "construct"
    done = cli("construct", "--mode", "thinned", "--n", "x",
               "--pattern-out", str(tmp_path / "q.json"))
    assert done.returncode == 2
    assert "--n" in done.stderr and "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# exit-code contract: 0 pass, 1 mathematical failure, 2 usage or budget error


def _pattern_files(tmp_path):
    """Write a quadratic and a cubic pattern file plus malformed variants."""
    files = {}
    for name, extra in (("pat2", ["--Q", "64", "--epsilon", "0.95"]),
                        ("pat3", ["--n", "4", "--p", "3", "--Q", "11"])):
        path = tmp_path / f"{name}.json"
        argv = ["construct", "--mode", "thinned", "--n", "8", "--seed", "1",
                *extra, "--pattern-out", str(path), "-o", str(tmp_path / "c.json")]
        assert main(argv) in (0, 1)
        files[name] = str(path)
    doc = json.loads((tmp_path / "pat2.json").read_text())
    (tmp_path / "emptyidx.json").write_text(json.dumps({**doc, "indices": []}))
    files["emptyidx"] = str(tmp_path / "emptyidx.json")
    doc.pop("indices")
    (tmp_path / "noidx.json").write_text(json.dumps(doc))
    files["noidx"] = str(tmp_path / "noidx.json")
    (tmp_path / "garbage.json").write_text("{not json")
    files["garbage"] = str(tmp_path / "garbage.json")
    files["missing"] = str(tmp_path / "missing.json")
    return files


# an out-of-range value per pattern-file key: each key of cli._PATTERN_KEYS
# gets a generated bad-input case, and a key missing here fails them all
PATTERN_OUT_OF_RANGE = {"indices": [], "Q": -1, "provenance": 7, "p": 0,
                        "A_num": 0.5, "A_den": 0, "epsilon_verified": -1}


@pytest.mark.parametrize("argv, flag", [
    (["discrepancy", "--A", "1/0", "--N", "5"], "--A"),
    (["discrepancy", "--A", "1/7", "--B", "1/0", "--N", "5"], "--B"),
    (["verify", "--pattern", "@noidx", "--method", "sampled",
      "--epsilon", "0.5"], "indices"),
    (["density", "--d", "2", "--p", "2", "--epsilon", "0.1", "--R", "10",
      "--samples", "0"], "samples"),
    (["verify", "--pattern", "@pat2", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10", "--threads", "-3"], "--threads"),
    (["verify", "--pattern", "@pat2", "--method", "net", "--epsilon", "0.9",
      "--net-cells", "0"], "--net-cells"),
    (["verify", "--pattern", "@pat2", "--method", "net", "--epsilon", "0.9",
      "--net-cells", "-5"], "--net-cells"),
    (["verify", "--pattern", "@pat2", "--method", "sampled",
      "--epsilon", "inf"], "--epsilon"),
    (["render", "--epsilon", "0.3", "--R", "0", "--out", "@svg"], "--R"),
    (["nocopy", "--pattern", "@pat2", "--epsilon", "0.99", "--samples", "0"],
     "--samples"),
    (["nocopy", "--pattern", "@pat2", "--epsilon", "0.99", "--j-list", ""],
     "--j-list"),
    (["nocopy", "--pattern", "@pat2", "--epsilon", "0.99", "--j-list", "1,x"],
     "--j-list"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--calibrate",
      "--retries", "0", "--pattern-out", "@out"], "--retries"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--calibrate",
      "--retries", "-3", "--pattern-out", "@out"], "--retries"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--calibrate",
      "--samples", "0", "--pattern-out", "@out"], "--samples"),
    (["discrepancy", "--A", "1/7", "--B", "1e-99999999", "--N", "5"], "--B"),
    (["discrepancy", "--A", "nan", "--N", "5"], "--A"),
    (["discrepancy", "--points", "@junkcsv"], "--points"),
    (["discrepancy", "--points", "@nancsv"], "--points"),
    (["discrepancy", "--A", "0", "--N", "5"], "--A"),
    (["discrepancy", "--A", "1/7", "--N", "-3"], "--N"),
    (["discrepancy", "--A", "1/7", "--N", "5", "--M", "0"], "--M"),
    (["discrepancy", "--points", "@emptycsv"], "--points"),
    (["discrepancy", "--points", "@headercsv"], "--points"),
    (["render", "--epsilon", "1.5", "--R", "6", "--out", "@svg"], "--epsilon"),
    (["render", "--epsilon", "-3", "--R", "6", "--out", "@svg"], "--epsilon"),
    (["density", "--d", "0", "--p", "2", "--epsilon", "0.1", "--R", "10"], "--d:"),
    (["density", "--d", "2", "--p", "1", "--epsilon", "0.1", "--R", "10"], "--p:"),
    (["density", "--d", "2", "--p", "2", "--epsilon", "1.5", "--R", "10"],
     "--epsilon:"),
    (["density", "--d", "2", "--p", "2", "--epsilon", "-0.1", "--R", "10"],
     "--epsilon:"),
    (["density", "--d", "2", "--p", "2", "--epsilon", "0.1", "--R", "0.5"], "--R"),
    (["nocopy", "--pattern", "@pat2", "--d", "0", "--epsilon", "0.99"], "--d:"),
    (["nocopy", "--pattern", "@pat2", "--epsilon", "1.5"], "--epsilon:"),
    (["nocopy", "--pattern", "@patp1", "--epsilon", "0.99"], "--pattern @patp1: 'p'"),
    (["nocopy", "--pattern", "@pateps"],
     "--pattern @pateps: 'epsilon_verified'"),
    (["verify", "--pattern", "@patnull", "--method", "sampled", "--samples", "10"],
     "--epsilon: not given, and --pattern @patnull: 'epsilon_verified' is null"),
    (["verify", "--pattern", "@patnull", "--method", "net", "--net-cells", "10"],
     "--epsilon: not given, and --pattern @patnull: 'epsilon_verified' is null"),
    (["nocopy", "--pattern", "@patnull", "--samples", "10"],
     "--epsilon: not given, and --pattern @patnull: 'epsilon_verified' is null"),
    (["verify", "--pattern", "@emptyidx", "--method", "net", "--epsilon", "0.9",
      "--net-cells", "10"], "--pattern @emptyidx: 'indices'"),
    (["verify", "--pattern", "@emptyidx", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @emptyidx: 'indices'"),
    (["nocopy", "--pattern", "@emptyidx", "--epsilon", "0.99", "--samples", "10"],
     "--pattern @emptyidx: 'indices'"),
    (["verify", "--pattern", "@patpbool", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patpbool: 'p'"),
    (["verify", "--pattern", "@patQbool", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patQbool: 'Q'"),
    (["verify", "--pattern", "@patnumbool", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patnumbool: 'A_num'"),
    (["verify", "--pattern", "@patdenbool", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patdenbool: 'A_den'"),
    (["verify", "--pattern", "@patidxbool", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patidxbool: 'indices'"),
    (["verify", "--pattern", "@patepsbool", "--method", "sampled", "--samples", "10"],
     "--pattern @patepsbool: 'epsilon_verified'"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--calibrate",
      "--epsilon", "0.01", "--pattern-out", "@out"],
     "--epsilon: not allowed with argument --calibrate"),
    (["density", "--d", "2", "--p", "2", "--epsilon", "0.1", "--R", "3e7",
      "--samples", "200000", "--seed", "1"], "--R"),
    (["render", "--epsilon", "0.3", "--R", "200", "--out", "@svg"], "--R"),
    (["verify", "--pattern", "@pat2", "--method", "sampled", "--epsilon", "-0.5",
      "--samples", "10"], "--epsilon"),
    (["verify", "--pattern", "@pat2", "--method", "sampled", "--epsilon", "0",
      "--samples", "10"], "--epsilon"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--epsilon", "-1",
      "--samples", "10", "--pattern-out", "@out"], "--epsilon"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--calibrate",
      "--target-epsilon", "-3", "--samples", "10", "--pattern-out", "@out"],
     "--target-epsilon"),
    (["verify", "--pattern", "@pat2", "--method", "net", "--epsilon", "1",
      "--net-cells", "10"], "--epsilon"),
    (["verify", "--pattern", "@pateps", "--method", "net", "--net-cells", "10"],
     "--pattern @pateps: 'epsilon_verified'"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--p", "0",
      "--pattern-out", "@out"], "--p"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--p", "-3",
      "--pattern-out", "@out"], "--p"),
    (["verify", "--pattern", "@patp0", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patp0: 'p'"),
    (["verify", "--pattern", "@patQ1", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patQ1: 'Q'"),
    (["verify", "--pattern", "@patQneg", "--method", "net", "--epsilon", "0.9",
      "--net-cells", "10"], "--pattern @patQneg: 'Q'"),
    (["verify", "--pattern", "@patidxdup", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patidxdup: 'indices'"),
    (["nocopy", "--pattern", "@pat2", "--epsilon", "0.99", "--j-list", "-5",
      "--samples", "10"], "--j-list"),
    (["construct", "--mode", "thinned", "--n", "0", "--Q", "64",
      "--pattern-out", "@out"], "--n"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "5",
      "--pattern-out", "@out"], "--Q"),
    (["verify", "--pattern", "@pat2", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10", "--seed", "-1"], "--seed"),
    (["density", "--d", "2", "--p", "2", "--epsilon", "0.1", "--R", "10",
      "--samples", "10", "--seed", "-1"], "--seed"),
    (["nocopy", "--pattern", "@pat2", "--epsilon", "0.99", "--samples", "10",
      "--seed", "-1"], "--seed"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--epsilon", "0.9",
      "--samples", "10", "--seed", "-1", "--pattern-out", "@out"], "--seed"),
    (["construct", "--mode", "thinned", "--n", "8", "--Q", "64", "--seed", "-1",
      "--pattern-out", "@out"], "--seed"),
    (["discrepancy", "--points", "@okcsv", "--N", "-3"], "--N"),
    (["verify", "--pattern", "@patepsneg", "--method", "sampled", "--samples", "10"],
     "--pattern @patepsneg: 'epsilon_verified'"),
    (["verify", "--pattern", "@patepszero", "--method", "sampled", "--samples", "10"],
     "--pattern @patepszero: 'epsilon_verified'"),
    (["verify", "--pattern", "@garbage", "--method", "sampled", "--epsilon", "0.5",
      "--samples", "10"], "--pattern @garbage: "),
    (["construct", "--mode", "elementary", "--n", "2", "--pattern-out", "@out"], "--n"),
    (["construct", "--mode", "thinned", "--n", "1", "--pattern-out", "@out"], "--n"),
    (["verify", "--pattern", "@patQ0", "--method", "net", "--epsilon", "0.9",
      "--net-cells", "10"], "--pattern @patQ0: 'Q'"),
    (["verify", "--pattern", "@patlead", "--method", "net", "--epsilon", "0.9",
      "--net-cells", "10"], "--pattern @patlead: 'A_num'/'A_den'"),
    (["nocopy", "--pattern", "@pateps99", "--epsilon", "0.5", "--samples", "10"],
     "--epsilon: 0.5 is below --pattern @pateps99: 'epsilon_verified' 0.99"),
    (["verify", "--pattern", "@patepsnan", "--method", "sampled", "--samples", "10"],
     "--pattern @patepsnan: 'epsilon_verified'"),
    (["construct", "--mode", "thinned", "--n", "64", "--p", "4",
      "--pattern-out", "@out"], "--p"),
    (["construct", "--mode", "thinned", "--n", "64", "--p", "27",
      "--pattern-out", "@out"], "--p"),
    (["construct", "--mode", "thinned", "--n", "64", "--p", "30",
      "--pattern-out", "@out"], "--p"),
    (["density", "--d", "100000000", "--p", "40", "--epsilon", "0.1", "--R", "1"],
     "budget error"),
    (["nocopy", "--pattern", "@patnull", "--d", "10000000", "--samples", "10000000",
      "--epsilon", "0.9"], "budget error"),
    (["verify", "--pattern", "@patnum0", "--method", "sampled", "--epsilon", "0.9",
      "--samples", "10"], "--pattern @patnum0: 'A_num'"),
    (["nocopy", "--pattern", "@patnum0", "--epsilon", "0.99", "--samples", "10"],
     "--pattern @patnum0: 'A_num'"),
    (["verify", "--pattern", "@patp200", "--method", "net", "--epsilon", "auto",
      "--net-cells", "1000"], "degree p = 200 at Q = 64"),
    *((["verify", "--pattern", f"@range_{key}", "--method", "sampled",
        "--epsilon", "0.9", "--samples", "10"], f"--pattern @range_{key}: {key!r}")
      for key in _PATTERN_KEYS),
], ids=["A-zero-den", "B-zero-den", "pattern-no-indices",
        "density-zero-samples", "negative-threads", "net-cells-zero",
        "net-cells-negative", "epsilon-inf", "render-zero-R",
        "nocopy-zero-samples", "j-list-empty", "j-list-not-integer",
        "calibrate-zero-retries", "calibrate-negative-retries",
        "calibrate-zero-samples", "B-huge-exponent", "A-nan", "points-junk-line",
        "points-nan-line", "A-zero", "N-negative", "M-zero", "points-empty",
        "points-header-only", "render-epsilon-above-one",
        "render-epsilon-negative", "density-d-zero", "density-p-one",
        "density-epsilon-above-one", "density-epsilon-negative", "density-R-below-one",
        "nocopy-d-zero", "nocopy-epsilon-above-one", "nocopy-pattern-p-one",
        "nocopy-pattern-epsilon-above-one", "verify-sampled-no-epsilon",
        "verify-net-no-epsilon", "nocopy-no-epsilon", "verify-net-empty-indices",
        "verify-sampled-empty-indices", "nocopy-empty-indices", "pattern-p-bool",
        "pattern-Q-bool", "pattern-A-num-bool", "pattern-A-den-bool",
        "pattern-index-bool", "pattern-epsilon-bool", "calibrate-with-epsilon",
        "density-beyond-float-precision", "render-over-annulus-budget",
        "verify-sampled-epsilon-negative", "verify-sampled-epsilon-zero",
        "construct-epsilon-negative", "calibrate-target-epsilon-negative",
        "verify-net-epsilon-one", "verify-net-pattern-epsilon-above-one",
        "construct-p-zero", "construct-p-negative", "pattern-p-zero", "pattern-Q-one",
        "pattern-Q-negative", "pattern-index-repeated", "j-list-negative",
        "construct-n-zero", "construct-Q-below-n", "verify-negative-seed",
        "density-negative-seed", "nocopy-negative-seed",
        "construct-epsilon-negative-seed", "construct-negative-seed",
        "points-with-negative-N", "verify-sampled-pattern-epsilon-negative",
        "verify-sampled-pattern-epsilon-zero", "pattern-not-json",
        "elementary-n-below-four", "construct-n-one-without-Q",
        "verify-net-pattern-Q-zero", "verify-net-pattern-leading-not-1-over-Q",
        "nocopy-epsilon-below-pattern-epsilon", "verify-sampled-pattern-epsilon-nan",
        "bertrand-past-2^62", "bertrand-power-past-int-str-limit",
        "bertrand-power-past-memory", "density-out-of-memory", "nocopy-out-of-memory",
        "verify-sampled-pattern-A-num-zero", "nocopy-pattern-A-num-zero",
        "verify-net-pattern-p-beyond-float-range",
        *(f"pattern-{key}-out-of-range" for key in _PATTERN_KEYS)])
def test_bad_input_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    files = {**_pattern_files(tmp_path), "svg": str(tmp_path / "f.svg"),
             "out": str(tmp_path / "out.json")}
    for name, text in (("junkcsv", "x\n0.1\nfoo\n0.5\n"), ("nancsv", "0.1\nnan\n0.5\n"),
                       ("emptycsv", ""), ("headercsv", "value\n\n"),
                       ("okcsv", "0.1\n0.5\n")):
        (tmp_path / f"{name}.csv").write_text(text)
        files[name] = str(tmp_path / f"{name}.csv")
    for name, key, value in (("patp1", "p", 1), ("pateps", "epsilon_verified", 1.5),
                             ("patnull", "epsilon_verified", None),
                             ("patpbool", "p", True), ("patQbool", "Q", True),
                             ("patnumbool", "A_num", True), ("patdenbool", "A_den", True),
                             ("patidxbool", "indices", [0, True]),
                             ("patepsbool", "epsilon_verified", True),
                             ("patp0", "p", 0), ("patQ1", "Q", 1), ("patQneg", "Q", -5),
                             ("patidxdup", "indices", [0, 3, 3]),
                             ("patepsneg", "epsilon_verified", -0.5),
                             ("patepszero", "epsilon_verified", 0),
                             ("patQ0", "Q", 0), ("patlead", "A_num", 3),
                             ("patnum0", "A_num", 0), ("patp200", "p", 200),
                             ("pateps99", "epsilon_verified", 0.99),
                             ("patepsnan", "epsilon_verified", math.nan),
                             *((f"range_{key}", key, PATTERN_OUT_OF_RANGE[key])
                               for key in _PATTERN_KEYS)):
        doc = json.loads((tmp_path / "pat2.json").read_text())
        doc[key] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        files[name] = str(tmp_path / f"{name}.json")
    capsys.readouterr()
    argv = [files[tok[1:]] if tok.startswith("@") else tok for tok in argv]
    flag = re.sub(r"@(\w+)", lambda m: files[m.group(1)], flag)
    assert main([argv[0], "-o", str(tmp_path / "r.json"), *argv[1:]]) == 2
    assert flag in capsys.readouterr().err


# Valid flag values per subcommand, small so that every run is short. "@name"
# tokens become paths under tmp_path. Required flags, --samples (whose
# defaults are slow) and output paths are always passed; each example then
# applies at most one mutation: a malformed value, a dropped flag or an
# unknown flag.
FUZZ_FLAGS = {
    "construct": {
        "--mode": ["thinned", "elementary"],
        "--n": ["4", "8", "16"],
        "--p": ["1", "2", "3"],
        "--Q": ["11", "64", "101"],
        "--seed": ["0", "3"],
        "--epsilon": ["0.5", "0.95"],
        "--samples": ["1", "20"],
        "--retries": ["1", "2"],
        "--target-epsilon": ["0.5", "0.99"],
        "--pattern-out": ["@out"],
    },
    "verify": {
        "--pattern": ["@pat2", "@pat3", "@noidx", "@emptyidx", "@garbage", "@missing"],
        "--method": ["net", "sampled"],
        "--epsilon": ["auto", "0.5", "0.95"],
        "--samples": ["1", "50"],
        "--seed": ["0", "2"],
        "--net-cells": ["1", "1000"],
    },
    "density": {
        "--d": ["1", "2", "3"],
        "--p": ["2", "3", "4"],
        "--epsilon": ["0.1", "0.5"],
        "--R": ["1", "5", "20"],
        "--method": ["monte-carlo", "exact-slice"],
        "--samples": ["1", "100"],
        "--seed": ["0", "3"],
    },
    "nocopy": {
        "--pattern": ["@pat2", "@pat3", "@noidx", "@emptyidx", "@garbage", "@missing"],
        "--d": ["1", "2"],
        "--epsilon": ["0.5", "0.95"],
        "--j-list": ["1", "1,2"],
        "--samples": ["1", "20"],
        "--seed": ["0", "4"],
    },
    "discrepancy": {
        "--points": ["@csv", "@missing"],
        "--A": ["1/7", "3"],
        "--B": ["0.25", "3/8,1/5"],
        "--N": ["1", "5", "20"],
        "--M": ["1", "5"],
        "--dump": ["@dump"],
    },
    "render": {
        "--epsilon": ["0.25", "0.99"],
        "--R": ["1", "6"],
        "--out": ["@svg"],
    },
}
ALWAYS = {"--mode", "--n", "--pattern-out", "--pattern", "--method", "--d",
          "--p", "--epsilon", "--R", "--samples", "--out", "--A", "--N"}
SWITCHES = {"construct": ["--calibrate"]}
THREADED = {"construct", "verify"}  # the subcommands that accept --threads
BAD = ["", "x", "-1", "0", "1.5", "1/0", "0/5", "a,", ",", "nan", "inf"]


def test_fuzz_table_covers_every_parser_flag():
    # a flag left in the table after the parser dropped it only exercises
    # argparse's unknown-flag exit, which the fuzz test accepts as exit 2
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(FUZZ_FLAGS)
    for sub, parser in subparsers.choices.items():
        flags = {opt for action in parser._actions for opt in action.option_strings
                 if opt.startswith("--") and opt != "--help"}
        assert flags == {*FUZZ_FLAGS[sub], *SWITCHES.get(sub, []), "--output",
                         *(["--threads"] if sub in THREADED else [])}, sub


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_every_parser_default_is_immutable():
    # main reuses one parser, so a mutable default (a list, a dict) would
    # carry one call's changes into the next
    top = _build_parser()
    subparsers = next(a for a in top._actions
                      if isinstance(a, argparse._SubParsersAction))
    defaults = {(sub, action.dest): action.default
                for sub, parser in [("", top), *subparsers.choices.items()]
                for action in parser._actions}
    assert len(defaults) > 50
    bad = {key: value for key, value in defaults.items()
           if type(value) not in (type(None), bool, int, float, str)}
    assert bad == {}


def test_every_numeric_flag_has_a_range_checking_type():
    # a plain int or float type lets any value through to library code whose
    # messages name no flag
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    plain = {(sub, action.option_strings[-1])
             for sub, parser in subparsers.choices.items()
             for action in parser._actions if action.type in (int, float)}
    assert plain == set()


def test_malformed_float_names_the_kind_of_value(capsys):
    # argparse names a type function in "invalid <name> value"; the float
    # types refuse with their own message instead
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {(sub, action.option_strings[-1])
               for sub, parser in subparsers.choices.items()
               for action in parser._actions
               if getattr(action.type, "__name__", None)
               in ("_finite_float", "_set_epsilon", "_positive_or_auto")}
    assert options == {("construct", "--epsilon"), ("construct", "--target-epsilon"),
                       ("verify", "--epsilon"), ("density", "--epsilon"),
                       ("density", "--R"), ("nocopy", "--epsilon"),
                       ("render", "--epsilon"), ("render", "--R")}
    for sub, flag in sorted(options):
        for token in ("x", "inf"):
            capsys.readouterr()
            assert main([sub, flag, token]) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: expected a finite number" in err
            assert "invalid _" not in err


@st.composite
def cli_argv(draw):
    sub = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    pairs = [[flag, draw(st.sampled_from(values))]
             for flag, values in FUZZ_FLAGS[sub].items()
             if flag in ALWAYS or draw(st.booleans())]
    mutation = draw(st.sampled_from(["none", "value", "drop", "bogus"]))
    if mutation == "value":
        draw(st.sampled_from(pairs))[1] = draw(st.sampled_from(BAD))
    elif mutation == "drop":
        pairs.remove(draw(st.sampled_from(pairs)))
    argv = [sub] + [tok for pair in pairs for tok in pair]
    argv += [s for s in SWITCHES.get(sub, []) if draw(st.booleans())]
    if sub in THREADED and draw(st.booleans()):
        argv += ["--threads", str(draw(st.integers(-2, 4)))]
    if mutation == "bogus":
        argv.append("--bogus")
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    files = _pattern_files(tmp_path)
    (tmp_path / "pts.csv").write_text("value\n0.1\n0.7\n0.75\n")
    files.update(csv=str(tmp_path / "pts.csv"), out=str(tmp_path / "o.json"),
                 dump=str(tmp_path / "d.csv"), svg=str(tmp_path / "f.svg"))
    return tmp_path, files


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_cli_fuzz_exits_0_1_or_2(fuzz_files, monkeypatch, argv):
    tmp_path, files = fuzz_files
    # a malformed value in an output flag becomes a relative path
    monkeypatch.chdir(tmp_path)
    argv = [files[tok[1:]] if tok.startswith("@") else tok for tok in argv]
    assert main([argv[0], "-o", str(tmp_path / "r.json"), *argv[1:]]) in (0, 1, 2)

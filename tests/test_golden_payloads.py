"""Golden CLI payloads: refactors must keep every report the same.

Each case runs in a fresh working directory with relative file names, so the
config echoes do not depend on where the suite runs. The stored payloads in
``tests/golden/`` have the volatile ``meta`` block removed. Keys, ints,
strings, booleans and {num, den} pairs must match exactly; floats match to a
relative tolerance of 1e-12, because ``np.cos`` and ``np.sin`` in the
Erdos-Turan sum may round differently on another CPU.
"""

import json
import math
from pathlib import Path

import pytest

from obstructions.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden"

# (name, argv) in run order: later cases read the pattern files earlier
# cases write.
CASES = [
    ("construct", ["construct", "--mode", "thinned", "--n", "10", "--Q", "101",
                   "--seed", "5", "--pattern-out", "pat.json"]),
    ("verify-sampled", ["verify", "--pattern", "pat.json", "--method", "sampled",
                        "--epsilon", "0.95", "--samples", "400", "--seed", "2"]),
    ("verify-net", ["verify", "--pattern", "pat.json", "--method", "net",
                    "--epsilon", "auto"]),
    ("density", ["density", "--d", "2", "--p", "2", "--epsilon", "0.2",
                 "--R", "30", "--samples", "30000", "--seed", "3"]),
    ("nocopy", ["nocopy", "--pattern", "pat.json", "--epsilon", "0.9",
                "--j-list", "1,2", "--samples", "400", "--seed", "4"]),
    ("discrepancy", ["discrepancy", "--A", "1/101", "--N", "64", "--M", "32"]),
    ("render", ["render", "--epsilon", "0.25", "--R", "6", "--out", "fig.svg"]),
    ("discrepancy-lower", ["discrepancy", "--A", "1/101", "--B", "3/8",
                           "--N", "64", "--M", "32"]),
    ("construct-p3", ["construct", "--mode", "thinned", "--n", "10", "--p", "3",
                      "--seed", "1", "--pattern-out", "pat3.json"]),
    ("verify-sampled-p3", ["verify", "--pattern", "pat3.json", "--method",
                           "sampled", "--epsilon", "0.9", "--samples", "400",
                           "--seed", "2"]),
]


def assert_same(got, want, where="payload"):
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    else:
        # ints ({num, den} pairs included), strings, booleans, None
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


def run_cases(cases):
    for name, argv in cases:
        out = Path(f"{name}.out.json")
        out.unlink(missing_ok=True)
        assert main([*argv, "-o", out.name]) in (0, 1), name
        payload = json.loads(out.read_text())
        payload.pop("meta")
        want = json.loads((GOLDEN / f"{name}.json").read_text())
        assert_same(payload, want, name)


def test_cli_payloads_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cases(CASES)


def test_cached_parser_serves_repeated_calls(tmp_path, monkeypatch):
    # main parses every call with one cached parser: a usage error and
    # --version first, then every case twice, must leave each payload golden
    monkeypatch.chdir(tmp_path)
    parser = _build_parser()
    assert main(["discrepancy", "--A", "1/101", "--N", "x"]) == 2
    assert main(["--version"]) == 0
    run_cases(CASES * 2)
    assert _build_parser() is parser

"""Command-line front end: construct patterns, verify hitting, measure
densities, run no-copy checks, compute discrepancies, render the planar set.

Reports are schema-stable JSON: a ``config`` echo of every resolved
parameter, the module reports, a ``pass`` flag (conjunction of sub-report
passes), and a volatile ``meta`` block (timestamp, wall clock, and the
``counters`` of a gap scan, cells, kernel_rows, sorted_rows, block_rows,
word_bits and cells_per_s, of a discrepancy, residues_s and exact_s, with
--M also the Erdos-Turan sums' et_terms, et_s and et_terms_per_s, of a
Monte Carlo density, samples, sign_vectors and samples_per_s, or of a
no-copy check, placements, extended_copies, poly_route_s and
direct_route_s) that is the only part allowed to differ between identical
reruns. Rationals are serialized as {num, den} pairs. Output files are
written atomically.

Exit codes: 0 all checks passed, 1 a mathematical check failed (witness in
the report), 2 usage or budget error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .torus import BudgetError, Residues, exact_discrepancy
from .patterns import (
    NET_CELL_BUDGET,
    Pattern,
    PolySeqSpec,
    bertrand_prime,
    build_nets,
    calibrate_sampled,
    elementary_pattern,
    float_up,
    thin_pattern,
    verify_hitting_net,
    verify_hitting_sampled,
)
from .annuli import AnnulusSpec, density, no_copy_check


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_report(args, subcommand: str, config: dict, reports: dict,
                 passed: bool, t_start: float, counters: dict = None) -> int:
    payload = {
        "tool": {"name": "obstructions", "version": __version__},
        "subcommand": subcommand,
        "config": config,
        "reports": reports,
        "pass": bool(passed),
        "meta": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_clock_s": time.perf_counter() - t_start,
        },
    }
    if counters is not None:
        payload["meta"]["counters"] = counters
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _write_pattern_file(path: str, pattern: Pattern, degree: int,
                        leading: Fraction, epsilon_verified) -> None:
    doc = {
        "n": pattern.n,
        "p": degree,
        "Q": pattern.universe,
        "A_num": leading.numerator,
        "A_den": leading.denominator,
        "indices": list(pattern.indices),
        "provenance": pattern.provenance,
        "epsilon_verified": epsilon_verified,
    }
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _json_is(value, kind) -> bool:
    """isinstance for JSON values: true and false are not integers."""
    return isinstance(value, kind) and not isinstance(value, bool)


# pattern-file key -> (JSON type, range test, what the key must be); 'p' and
# 'Q' accept the ranges of construct's --p and --Q
_PATTERN_KEYS = {
    "indices": (list, lambda v: v and all(_json_is(k, int) for k in v)
                and len(set(v)) == len(v), "a non-empty list of distinct integers"),
    "Q": (int, lambda v: v >= 0, "an integer >= 0"),
    "provenance": (str, lambda v: True, "a string"),
    "p": (int, lambda v: v >= 1, "an integer >= 1"),
    "A_num": (int, lambda v: v != 0, "a nonzero integer"),
    "A_den": (int, lambda v: v != 0, "a nonzero integer"),
    "epsilon_verified": ((int, float, type(None)),
                         lambda v: v is None or 0 <= v < math.inf,
                         "a finite number >= 0, or null"),
}


def _read_pattern_file(path: str):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"--pattern {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"--pattern {path}: expected a JSON object")
    for key, (kind, in_range, what) in _PATTERN_KEYS.items():
        value = doc.get(key)
        if not (_json_is(value, kind) and in_range(value)):
            raise ValueError(f"--pattern {path}: {key!r} must be {what}")
    if doc["Q"] and not all(0 <= k < doc["Q"] for k in doc["indices"]):
        raise ValueError(f"--pattern {path}: 'Q' must be 0 (unconstrained indices) "
                         "or above every index, with no index below 0")
    pattern = Pattern(tuple(doc["indices"]), doc["Q"], doc["provenance"])
    leading = Fraction(doc["A_num"], doc["A_den"])
    return pattern, doc["p"], leading, doc.get("epsilon_verified")


def _epsilon(args, eps_file):
    """(source, value) of epsilon: --epsilon, else the pattern file's
    'epsilon_verified'; refused when both are missing."""
    if args.epsilon is not None:
        return "--epsilon", args.epsilon
    key = f"--pattern {args.pattern}: 'epsilon_verified'"
    if eps_file is None:
        raise ValueError(f"--epsilon: not given, and {key} is null")
    return key, eps_file


def _finite_float(token: str) -> float:
    """An argparse type: a finite float, refused as "argument --X: expected
    a finite number, got ..." otherwise."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {token!r}")
    return value


def _at_least(low, kind=int, strict=False):
    """An argparse type: a ``kind`` value >= low (> low when strict), refused
    as "argument --X: must be >= low, got ..." otherwise."""
    def parse(token: str):
        value = kind(token)
        if value < low or strict and value == low:
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {token!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return parse


# hitting lengths (epsilon) and render's side R
_positive = _at_least(0.0, _finite_float, strict=True)


def _set_epsilon(token: str) -> float:
    """An argparse type: the epsilon of an annular set, in [0, 1)."""
    value = _finite_float(token)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {token!r}")
    return value


def _positive_or_auto(token: str):
    if token == "auto":
        return token
    try:
        _finite_float(token)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number or 'auto', got {token!r}") from None
    return _positive(token)


def _int_list(token: str) -> list:
    try:
        return [int(tok) for tok in token.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{token!r} is not a comma-separated list of integers") from None


def _scan_counters(cells: int, kernel_rows: int, sorted_rows: int,
                   block_rows: int, word_bits: int, seconds: float) -> dict:
    """Volatile counters of an exact gap scan, for the report's meta block:
    kernel_rows counts the cells sent to the kernel, sorted_rows those
    whose exact gap it computed, block_rows the scan's rows per kernel
    block and word_bits the bits of the kernel's word."""
    return {"cells": cells, "kernel_rows": kernel_rows, "sorted_rows": sorted_rows,
            "block_rows": block_rows, "word_bits": word_bits,
            "cells_per_s": cells / seconds if seconds > 0 else None}


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_construct(args) -> int:
    t0 = time.perf_counter()
    if args.mode == "elementary":
        if args.calibrate:
            raise ValueError("--calibrate applies to thinned patterns only")
        if args.n < 4:
            raise ValueError(f"--n: an elementary pattern needs n >= 4, got {args.n}")
        pattern, leading = elementary_pattern(args.n)
        degree = 2
        seed = None
    else:
        degree = args.p
        if not args.Q and args.n < 2:
            raise ValueError(f"--n: the Bertrand prime universe needs n >= 2, got "
                             f"{args.n}; give --Q for a smaller n")
        try:
            universe = args.Q if args.Q else bertrand_prime(args.n, degree)
        except ValueError:  # n^(2^p) >= 2^62; n >= 2 was checked above
            raise ValueError(f"--n {args.n}, --p {degree}: the Bertrand prime universe "
                             "needs n^(2^p) below 2^62; give --Q to set the universe "
                             "directly") from None
        if universe < args.n:
            raise ValueError(f"--Q: cannot thin to --n {args.n} indices out of {universe}")
        seed = args.seed
        leading = Fraction(1, universe)
        # calibration thins its own patterns, this seed's first
        pattern = None if args.calibrate else thin_pattern(args.n, universe, seed)

    reports = {}
    epsilon_verified = None
    passed = True
    counters = None
    if args.calibrate:
        t_scan = time.perf_counter()
        cal = calibrate_sampled(
            args.n, degree, universe, seed=args.seed,
            n_samples=args.samples, retries=args.retries,
            epsilon_target=args.target_epsilon,
        )
        pattern = cal.pattern
        # the exact worst gap rounded up, at which re-verifying the pattern
        # on its calibration stream passes; epsilon_min is rounded to nearest
        epsilon_verified = float_up(Fraction(*cal.report.worst_gap_exact))
        reports["calibration"] = cal.to_dict()
        passed = cal.achieved
        # the best attempt's word and block rows: attempts share n, universe
        # and degree, so they differ only where a pattern's drift (see
        # patterns._ExactKernel) picks another word
        counters = _scan_counters(len(cal.attempts) * cal.n_samples, cal.kernel_rows,
                                  cal.sorted_rows, cal.report.block_rows,
                                  cal.report.word_bits, time.perf_counter() - t_scan)
    elif args.epsilon is not None:
        rep = verify_hitting_sampled(
            pattern, leading, degree, args.epsilon,
            n_samples=args.samples, seed=args.seed,
        )
        reports["hitting"] = rep.to_dict()
        epsilon_verified = args.epsilon if rep.passed else None
        passed = rep.passed

    _write_pattern_file(args.pattern_out, pattern, degree, leading, epsilon_verified)
    config = {
        "mode": args.mode, "n": args.n, "p": degree,
        "Q": pattern.universe, "seed": seed,
        "epsilon": args.epsilon, "calibrate": args.calibrate,
        "samples": args.samples, "retries": args.retries,
        "target_epsilon": args.target_epsilon,
        "pattern_out": args.pattern_out,
    }
    reports["pattern"] = pattern.to_dict()
    reports["leading"] = {"num": leading.numerator, "den": leading.denominator}
    return _emit_report(args, "construct", config, reports, passed, t0, counters)


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    pattern, degree, leading, eps_file = _read_pattern_file(args.pattern)
    eps_source, epsilon = _epsilon(args, eps_file)
    if args.method == "net":
        if epsilon != "auto" and not 0 < epsilon < 1:
            raise ValueError(f"{eps_source}: net mode needs epsilon in (0, 1), "
                             f"got {epsilon}")
        if pattern.universe < 2:
            raise ValueError(f"--pattern {args.pattern}: 'Q' must be >= 2 for net "
                             f"verification, got {pattern.universe}")
        if leading != Fraction(1, pattern.universe):
            raise ValueError(f"--pattern {args.pattern}: 'A_num'/'A_den' must be "
                             f"1/'Q' = 1/{pattern.universe} for net verification, "
                             f"got {leading}")
        nets = build_nets(degree, pattern.universe,
                          float(epsilon) if epsilon != "auto" else 0.5,
                          max_cells=args.net_cells)
        t_scan = time.perf_counter()
        rep = verify_hitting_net(pattern, leading, degree, epsilon, nets)
        reports = {"nets": nets.to_dict(), "hitting": rep.to_dict()}
    else:
        if epsilon == "auto":
            raise ValueError("epsilon 'auto' needs net mode; sampled runs "
                             "report the worst observed gap at a fixed epsilon")
        if epsilon == 0:  # the flag's 0 is refused by the parser
            raise ValueError(f"{eps_source}: a hitting length must be > 0, got 0")
        t_scan = time.perf_counter()
        rep = verify_hitting_sampled(pattern, leading, degree, float(epsilon),
                                     n_samples=args.samples, seed=args.seed)
        reports = {"hitting": rep.to_dict()}
    counters = _scan_counters(rep.tested, rep.kernel_rows, rep.sorted_rows,
                              rep.block_rows, rep.word_bits,
                              time.perf_counter() - t_scan)
    config = {
        "pattern": args.pattern, "method": args.method, "epsilon": epsilon,
        "samples": args.samples, "seed": args.seed,
        "net_cells": args.net_cells if args.method == "net" else None,
    }
    return _emit_report(args, "verify", config, reports, rep.passed, t0, counters)


def _cmd_density(args) -> int:
    t0 = time.perf_counter()
    spec = AnnulusSpec(args.d, args.p, args.epsilon)
    rep = density(spec, args.R, method=args.method, seed=args.seed,
                  samples=args.samples)
    config = {"d": args.d, "p": args.p, "epsilon": args.epsilon, "R": args.R,
              "method": args.method, "seed": args.seed, "samples": args.samples}
    counters = None
    if rep.seconds is not None:
        # signed sums per sample: sigma and -sigma share one, so 2^(d-1) at odd p
        counters = {"samples": args.samples,
                    "sign_vectors": 1 if spec.parity == "even" else 2 ** (args.d - 1),
                    "samples_per_s": args.samples / rep.seconds if rep.seconds > 0 else None}
    return _emit_report(args, "density", config,
                        {"spec": spec.to_dict(), "density": rep.to_dict()},
                        True, t0, counters)


def _cmd_nocopy(args) -> int:
    t0 = time.perf_counter()
    pattern, degree, leading, eps_file = _read_pattern_file(args.pattern)
    eps_source, epsilon = _epsilon(args, eps_file)
    if degree < 2:  # the file's 'p' and epsilon; the parser checks the flags
        raise ValueError(f"--pattern {args.pattern}: 'p' must be >= 2, got {degree}")
    if epsilon >= 1:
        raise ValueError(f"{eps_source}: a set epsilon must be in [0, 1), got {epsilon}")
    spec = AnnulusSpec(args.d, degree, float(epsilon))
    if eps_file is not None and eps_file > spec.epsilon:
        raise ValueError(f"--epsilon: {spec.epsilon} is below --pattern {args.pattern}: "
                         f"'epsilon_verified' {eps_file}; the set needs an epsilon "
                         "at least the pattern's verified hitting length")
    for j in args.j_list:
        if float(leading) + j <= 0:
            raise ValueError(f"--j-list: scale index {j} leaves leading + j <= 0, "
                             f"with leading {leading} from --pattern {args.pattern}")
    rep = no_copy_check(spec, pattern, leading, args.j_list, args.samples,
                        seed=args.seed, pattern_epsilon=eps_file)
    config = {"pattern": args.pattern, "d": args.d, "epsilon": spec.epsilon,
              "j_list": args.j_list, "samples": args.samples, "seed": args.seed}
    counters = {"placements": rep.placements_total, "extended_copies": rep.extended_copies,
                "poly_route_s": rep.poly_route_s, "direct_route_s": rep.direct_route_s}
    return _emit_report(args, "nocopy", config,
                        {"spec": spec.to_dict(), "nocopy": rep.to_dict()},
                        rep.passed, t0, counters)


def _read_points_csv(path: str) -> list:
    """First-column values, each read by ``_parse_exact``; only line 1 may be
    a non-numeric header."""
    values = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            tok = line.strip().split(",")[0].strip()
            if not tok:
                continue
            try:
                values.append(_parse_exact(f"--points {path}: line {number}", tok))
            except ValueError:
                if number > 1:
                    raise
    if not values:
        raise ValueError(f"--points {path}: no points")
    return values


# a decimal exponent e costs a 10^|e| numerator or denominator; the bound
# keeps every coefficient within a few thousand bits
_MAX_DECIMAL_EXPONENT = 1000


def _parse_exact(flag: str, token: str) -> Fraction:
    """The rational a token spells: an integer, num/den, or a decimal, which
    is read as written (0.1 is 1/10, not the binary float nearest it)."""
    _, e, exponent = token.lower().partition("e")
    try:
        if not e or abs(int(exponent)) <= _MAX_DECIMAL_EXPONENT:
            return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{flag}: {token!r} is not an integer, num/den with a nonzero "
                     f"den, or a decimal with exponent within +-{_MAX_DECIMAL_EXPONENT}")


def _cmd_discrepancy(args) -> int:
    t0 = time.perf_counter()
    if args.points:
        values = Residues.of(_read_points_csv(args.points))
        source = {"points": args.points}
    elif args.A is None or args.N is None:
        raise ValueError("discrepancy needs --points or --A with --N")
    else:
        leading = _parse_exact("--A", args.A)
        if leading == 0:
            raise ValueError("--A: the leading coefficient must be nonzero")
        lower = tuple(_parse_exact("--B", tok)
                      for tok in args.B.split(",")) if args.B else ()
        degree = len(lower) + 1
        values = PolySeqSpec(degree, leading, lower).residues(range(args.N))
        source = {"A": {"num": leading.numerator, "den": leading.denominator},
                  "B": [float(c) for c in lower], "N": args.N, "degree": degree}
    residues_s = time.perf_counter() - t0
    if args.dump:
        points = (Fraction(num, values.D) for num in values.nums)
        _atomic_write(args.dump, "".join(f"{v.numerator}/{v.denominator}\n"
                                         for v in points))
    t_scan = time.perf_counter()
    report = exact_discrepancy(values, et_cutoff=args.M)
    passed = True
    counters = {"residues_s": residues_s,
                "exact_s": time.perf_counter() - t_scan - (report.et_seconds or 0)}
    if report.et_bound is not None:
        # the ET value is a proven upper bound, so this is a theorem
        passed = Fraction(report.et_bound) >= report.exact_value
        terms, seconds = report.n_points * report.et_cutoff, report.et_seconds
        counters.update(et_terms=terms, et_s=seconds,
                        et_terms_per_s=terms / seconds if seconds > 0 else None)
    config = {"M": args.M, "dump": args.dump, **source}
    reports = {"discrepancy": report.to_dict()}
    return _emit_report(args, "discrepancy", config, reports, passed, t0, counters)


# render draws one path per annulus: the SVG grows as R^2
_RENDER_ANNULUS_BUDGET = 10_000


def _render_svg(spec: AnnulusSpec, R: float, size: int = 640):
    """Shaded annuli where dist(|x|^2, Z) < (1-eps)/2, drawn to scale."""
    w = spec.band_halfwidth
    half = R / 2.0
    # annulus m meets the square iff m - w <= 2 (R/2)^2, the squared
    # distance to a corner: m = 0 .. floor(reach) are drawn
    reach = 2.0 * half * half + w
    if reach >= _RENDER_ANNULUS_BUDGET:
        raise BudgetError(f"--R {R} draws about {reach:.3g} annuli, over the budget "
                          f"{_RENDER_ANNULUS_BUDGET}; lower --R")
    px = size / R
    cx = cy = size / 2.0

    def circle_path(r):
        rp = r * px
        return (f"M {cx + rp:.3f} {cy:.3f} "
                f"A {rp:.3f} {rp:.3f} 0 1 0 {cx - rp:.3f} {cy:.3f} "
                f"A {rp:.3f} {rp:.3f} 0 1 0 {cx + rp:.3f} {cy:.3f} Z")

    shells_inside = int(math.floor(half * half + w))  # annuli m >= 1 within R/2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<!-- annuli dist(|x|^2,Z) < {w}; side {R}; shells within R/2: "
        f"{shells_inside} -->",
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for m in range(math.floor(reach) + 1):
        inner = math.sqrt(max(m - w, 0.0))
        outer = math.sqrt(m + w)
        if m == 0:
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{outer * px:.3f}" '
                         f'fill="#c8c8c8" stroke="#707070" stroke-width="0.6"/>')
        else:
            parts.append(f'<path d="{circle_path(outer)} {circle_path(inner)}" '
                         f'fill="#c8c8c8" fill-rule="evenodd" '
                         f'stroke="#707070" stroke-width="0.6"/>')
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n", shells_inside


def _cmd_render(args) -> int:
    t0 = time.perf_counter()
    spec = AnnulusSpec(2, 2, args.epsilon)
    svg, shells = _render_svg(spec, args.R)
    _atomic_write(args.out, svg)
    config = {"epsilon": args.epsilon, "R": args.R, "out": args.out}
    return _emit_report(args, "render", config, {"shells_within_half_side": shells},
                        True, t0)


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and then reused: every default is
    None, a bool, an int, a float or a str, so one parse leaves nothing the
    next can see. Not built at import, which stays cheap."""
    parser = argparse.ArgumentParser(
        prog="obstructions",
        description="Construct and verify hitting patterns and obstruction sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, threads=False):
        p.add_argument("-o", "--output", help="write the JSON report here")
        if threads:
            p.add_argument("--threads", type=_at_least(1), default=1,
                           help="accepted and ignored: scans are serial")

    p = sub.add_parser("construct", help="build a pattern file")
    p.add_argument("--mode", choices=("thinned", "elementary"), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--p", type=_at_least(1), default=2, help="polynomial degree")
    p.add_argument("--Q", type=_at_least(0), default=None,
                   help="universe override (default: Bertrand prime)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    goal = p.add_mutually_exclusive_group()
    goal.add_argument("--epsilon", type=_positive, default=None,
                      help="verify (sampled) at this epsilon and record it")
    goal.add_argument("--calibrate", action="store_true",
                      help="search seeds for the smallest passing epsilon")
    p.add_argument("--samples", type=_at_least(1), default=10_000)
    p.add_argument("--retries", type=_at_least(1), default=1)
    p.add_argument("--target-epsilon", type=_positive, default=None)
    p.add_argument("--pattern-out", required=True)
    common(p, threads=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify the hitting property")
    p.add_argument("--pattern", required=True)
    p.add_argument("--method", choices=("net", "sampled"), required=True)
    p.add_argument("--epsilon", type=_positive_or_auto, default=None,
                   help="float, or 'auto' (net mode) for the smallest passing")
    p.add_argument("--samples", type=_at_least(1), default=10_000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--net-cells", type=_at_least(1), default=NET_CELL_BUDGET,
                   help="net cell budget; the grids coarsen to fit it")
    common(p, threads=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("density", help="volume fraction of the obstruction set")
    p.add_argument("--d", type=_at_least(1), required=True)
    p.add_argument("--p", type=_at_least(2), required=True)
    p.add_argument("--epsilon", type=_set_epsilon, required=True)
    p.add_argument("--R", type=_at_least(1.0, _finite_float), required=True)
    p.add_argument("--method", choices=("monte-carlo", "exact-slice"),
                   default="monte-carlo")
    p.add_argument("--samples", type=_at_least(1), default=1_000_000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("nocopy", help="sampled placements must leave the set")
    p.add_argument("--pattern", required=True)
    p.add_argument("--d", type=_at_least(1), default=2)
    p.add_argument("--epsilon", type=_set_epsilon, default=None,
                   help="set epsilon (default: the pattern file's verified value)")
    p.add_argument("--j-list", type=_int_list, default="1,2,3,4,5")
    p.add_argument("--samples", type=_at_least(1), default=10_000,
                   help="placements per scale index")
    p.add_argument("--seed", type=_at_least(0), default=0)
    common(p)
    p.set_defaults(func=_cmd_nocopy)

    p = sub.add_parser("discrepancy", help="exact discrepancy and the ET bound")
    p.add_argument("--points", default=None, help="CSV of point values in [0,1)")
    p.add_argument("--A", default=None, help="leading coefficient num/den")
    p.add_argument("--B", default=None,
                   help="lower coefficients k^1.., comma separated; their "
                        "count sets the degree (e.g. --B 0 makes A quadratic)")
    p.add_argument("--N", type=_at_least(1), default=None, help="sequence length")
    p.add_argument("--M", type=_at_least(1), default=None, help="Erdos-Turan cutoff")
    p.add_argument("--dump", default=None, help="write the points as CSV")
    common(p)
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("render", help="SVG of the planar annular set (d = p = 2)")
    p.add_argument("--epsilon", type=_set_epsilon, required=True)
    p.add_argument("--R", type=_positive, required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. The parser is built
    once per process (``_build_parser`` is cached), so repeated in-process
    calls pay only for parsing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help/--version
        return int(exc.code or 0)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"budget error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

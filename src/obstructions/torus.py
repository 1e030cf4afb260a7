"""Arithmetic on the circle R/Z: gaps, exact interval discrepancy, Weyl sums.

Functions take plain sequences of values, reduced into [0, 1). A set is
exact when every value is a Fraction (fixed-point dyadics u/2^s are the
common case); exact arithmetic is closed and bit-exact, float arithmetic is
ordinary IEEE double. Every operation in this module is a pure function of
its inputs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

Real = Union[float, Fraction]


class BudgetError(ValueError):
    """An exact computation would exceed its configured enumeration budget."""


def _mod1(value: Real) -> Real:
    if isinstance(value, Fraction):
        return value % 1
    return float(value) % 1.0


@dataclass(frozen=True)
class TorusInterval:
    """Arc [start, start+length) or [start, start+length] on R/Z.

    Membership wraps around: x is inside iff (x - start) mod 1 < length
    (half-open) or <= length (closed). Length 0 is allowed only for the
    closed degenerate interval {start}, which shows up as a discrepancy
    witness.
    """

    start: Real
    length: Real
    closure: str = "half-open"  # or "closed"

    def __post_init__(self):
        if self.closure not in ("half-open", "closed"):
            raise ValueError(f"unknown closure {self.closure!r}")
        if not 0 <= self.length <= 1:
            raise ValueError(f"interval length {self.length} outside [0, 1]")
        if self.length == 0 and self.closure != "closed":
            raise ValueError("zero-length interval must be closed")
        object.__setattr__(self, "start", _mod1(self.start))

    def contains(self, x: Real) -> bool:
        t = _mod1(x - self.start) if isinstance(x, Fraction) and isinstance(self.start, Fraction) \
            else (float(x) - float(self.start)) % 1.0
        if self.closure == "closed":
            return t <= self.length or t == 0
        return t < self.length

    def to_dict(self) -> dict:
        return {
            "start": _number_json(self.start),
            "length": _number_json(self.length),
            "closure": self.closure,
        }


def _number_json(v: Real):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    return float(v)


def _coerce(points) -> tuple[list, bool]:
    """Normalize a point sequence; exact iff every entry is a Fraction."""
    values = [_mod1(pt) for pt in points]
    exact = all(isinstance(v, Fraction) for v in values)
    if not exact:
        values = [float(v) for v in values]
    return values, exact


def max_circular_gap(points) -> Real:
    """Largest arc between consecutive points (with wrap-around).

    A point set meets every closed interval of length eps iff its max
    circular gap is <= eps. A single point (or fully coincident set) has
    gap 1. Exact (Fraction) output when all inputs are exact.
    """
    values, exact = _coerce(points)
    if not values:
        raise ValueError("empty point set")
    period = Fraction(1) if exact else 1.0
    row = np.sort(np.asarray(values, dtype=object if exact else float))
    if len(row) == 1:
        return period
    gap = max(np.diff(row).max(), period - row[-1] + row[0])
    return gap if exact else float(gap)


def _count_in_interval(sorted_values, start, length, lo_closed: bool, hi_closed: bool) -> int:
    """Exact point count in a wrapped interval with explicit endpoint closures."""
    cnt = 0
    for x in sorted_values:
        t = _mod1(x - start)
        if t == 0:
            inside = lo_closed
        elif t < length:
            inside = True
        elif t == length:
            inside = hi_closed
        else:
            inside = False
        if length == 0:
            inside = (t == 0) and lo_closed and hi_closed
        cnt += inside
    return cnt


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact sup over all circle intervals of |count/N - length|."""

    n_points: int
    exact_discrepancy: float
    witness_interval: TorusInterval
    witness_flag: str = "attained"  # or "limit"
    exact_value: Optional[Fraction] = None
    et_bound: Optional[float] = None
    et_cutoff: Optional[int] = None

    def __post_init__(self):
        n = self.n_points
        if not (1.0 / (2 * n) - 1e-12 <= self.exact_discrepancy <= 1.0 + 1e-12):
            raise ValueError(
                f"discrepancy {self.exact_discrepancy} outside [1/(2N), 1] for N={n}"
            )

    def to_dict(self) -> dict:
        d = {
            "n_points": self.n_points,
            "exact_discrepancy": self.exact_discrepancy,
            "witness_interval": self.witness_interval.to_dict(),
            "witness_flag": self.witness_flag,
        }
        if self.exact_value is not None:
            d["exact_value"] = _number_json(self.exact_value)
        if self.et_bound is not None:
            d["et_bound"] = self.et_bound
            d["et_cutoff"] = self.et_cutoff
        return d


def exact_discrepancy(points, et_cutoff: Optional[int] = None) -> DiscrepancyReport:
    """Exact interval discrepancy of points on the circle.

    The sup over all intervals is attained among intervals whose endpoints
    sit at point positions: closed intervals maximize count-minus-length,
    open intervals maximize length-minus-count. Over sorted points y_0..y_{N-1}
    both families separate,

        excess  = max_i (y_i - i/N) + max_j ((j+1)/N - y_j)
        deficit = max_i (i/N - y_i) + max_j (y_j - (j-1)/N)

    because both pair objectives are N-periodic in the wrapped index, so the
    scan is O(N log N) instead of enumerating the O(N^2) candidate pairs.
    The witness interval attains the reported value (degenerate and
    full-circle-minus-a-point witnesses included).
    """
    values, exact = _coerce(points)
    if not values:
        raise ValueError("empty point set")

    n = len(values)
    ys = sorted(values)
    one = Fraction(1) if exact else 1.0

    g_excess = [ys[i] - Fraction(i, n) if exact else ys[i] - i / n for i in range(n)]
    f_excess = [Fraction(j + 1, n) - ys[j] if exact else (j + 1) / n - ys[j] for j in range(n)]
    g_deficit = [Fraction(i, n) - ys[i] if exact else i / n - ys[i] for i in range(n)]
    f_deficit = [ys[j] - Fraction(j - 1, n) if exact else ys[j] - (j - 1) / n for j in range(n)]

    i1 = max(range(n), key=g_excess.__getitem__)
    j1 = max(range(n), key=f_excess.__getitem__)
    i2 = max(range(n), key=g_deficit.__getitem__)
    j2 = max(range(n), key=f_deficit.__getitem__)
    excess = g_excess[i1] + f_excess[j1]
    deficit = g_deficit[i2] + f_deficit[j2]

    if excess >= deficit:
        # Closed interval [y_i, y_j]; a zero length means the degenerate
        # one-point interval (it attains multiplicity/N exactly).
        value = excess
        length = _mod1(ys[j1] - ys[i1])
        witness = TorusInterval(ys[i1], length, "closed")
        flag = "attained"
        rec = Fraction(_count_in_interval(ys, ys[i1], length, True, True), n) - length
    else:
        # Open interval (y_i, y_j); reported as the half-open interval with
        # the same endpoints and flagged "limit" since the sup is approached
        # by nudging the left endpoint into the gap.
        value = deficit
        length = _mod1(ys[j2] - ys[i2])
        if length == 0:
            length = one  # circle minus the start point
        witness = TorusInterval(ys[i2], length, "half-open")
        flag = "limit"
        rec = length - Fraction(_count_in_interval(ys, ys[i2], length, False, False), n)

    # The recount can only confirm or beat the separable bound; keep the max.
    if rec > value:
        value = rec

    report = DiscrepancyReport(
        n_points=n,
        exact_discrepancy=float(value),
        witness_interval=witness,
        witness_flag=flag,
        exact_value=value if exact else None,
    )
    if et_cutoff is not None:
        report = dataclasses.replace(
            report, et_bound=erdos_turan_bound(values, et_cutoff),
            et_cutoff=et_cutoff,
        )
    return report


def grid_discrepancy(points, grid: int = 100) -> float:
    """Lower-bound discrepancy estimate over grid^2 candidate intervals.

    Scans half-open intervals with endpoints on a uniform grid; the true
    discrepancy exceeds this value by at most 2/grid. It needs N * grid
    floats of memory and is slower than ``exact_discrepancy``, which tests
    hold it against.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    values, _ = _coerce(points)
    if not values:
        raise ValueError("empty point set")
    pts = np.asarray([float(v) for v in values])
    n = len(pts)
    starts = np.arange(grid) / grid
    lengths = (np.arange(grid) + 1.0) / grid
    rel = (pts[None, :] - starts[:, None]) % 1.0
    rel.sort(axis=1)
    best = 0.0
    for row in rel:
        counts = np.searchsorted(row, lengths, side="left")
        best = max(best, float(np.abs(counts / n - lengths).max()))
    return best


def weyl_sum(poly, n_terms: int, multiplier: int = 1) -> complex:
    """Sum of e(m*f(k)) for k = 0..n_terms-1, m = multiplier.

    ``poly`` is a ``PolySeqSpec``. The phases m * N_k mod D come exact from
    its residue table and are folded to (-D/2, D/2], so negating every
    coefficient conjugates the result bit for bit. Each folded phase r is
    rounded once to t = r/D; the terms are cos and sin of 2*pi*|t|, the sine
    signed by t (and 0 at a half turn), and math.fsum adds each part.

    Rounding bound, with u = 2^-53 and np.cos, np.sin within 4 ulp: t is
    within u/2 and the angle within 3*pi*u < 10u of the exact ones, and the
    functions add 8u, so each part of a term is within 18u; fsum rounds each
    part once (<= u per term). The result is therefore within
    sqrt(2) * 19u * n_terms < n_terms * 2^-48 of the exact sum.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    nums, D = poly.residues(range(n_terms))
    folded = [(multiplier * n) % D for n in nums]
    t = np.array([(r - D if 2 * r > D else r) / D for r in folded])
    angle = 2 * np.pi * np.abs(t)
    sine = np.where(2 * np.abs(t) == 1, 0.0, np.sin(angle))
    return complex(math.fsum(np.cos(angle)), math.fsum(np.copysign(sine, t)))


def erdos_turan_bound(points, cutoff: int) -> float:
    """Explicit Erdos-Turan discrepancy bound with constants (1, 3):

        D_N <= 1/(M+1) + 3 * sum_{m=1..M} |S_m| / (m*N),

    where S_m = sum_k e(m*x_k). Exact points are reduced mod 1 exactly
    before the float exponentials are taken.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    values, _ = _coerce(points)
    if not values:
        raise ValueError("empty point set")
    x = np.asarray([float(v) for v in values], dtype=float)
    n = len(x)
    total = 0.0
    block = max(1, (1 << 21) // max(n, 1))
    for lo in range(1, cutoff + 1, block):
        ms = np.arange(lo, min(lo + block, cutoff + 1), dtype=float)
        phases = np.outer(ms, x) % 1.0
        s = np.exp(2j * np.pi * phases).sum(axis=1)
        total += float((np.abs(s) / (ms * n)).sum())
    return 1.0 / (cutoff + 1) + 3.0 * total

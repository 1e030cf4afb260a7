"""Arithmetic on the circle R/Z: gaps, exact interval discrepancy, Weyl sums.

Functions take a ``Residues`` or plain sequences of points: ints, floats,
Fractions or numpy scalars. Each point is read as the exact rational it
equals (a finite float is a dyadic rational) and reduced mod 1, so a point
set becomes a ``Residues``, integer residues over one common denominator,
and gaps and discrepancies are exact.
A float result is an exact value rounded once, a Weyl sum or Erdos-Turan
bound with a stated rounding bound, or a grid estimate that rounds each
point once. Every operation in this module is a pure function of its
inputs; only a report's ``et_seconds`` timing differs between reruns.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

Real = Union[float, Fraction]


class BudgetError(ValueError):
    """An exact computation would exceed its configured enumeration budget."""


def _ratio(x) -> tuple:
    """(numerator, denominator) of the rational x equals."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return operator.index(x), 1  # numpy integers have no as_integer_ratio
    except (OverflowError, ValueError):
        raise ValueError(f"{x!r} is not a finite number") from None


@dataclass(frozen=True)
class Residues:
    """Points nums[k] / D mod 1, each numerator in [0, D): a point set over
    one common denominator. len() counts the points."""

    nums: list
    D: int

    def __len__(self) -> int:
        return len(self.nums)

    @classmethod
    def of(cls, points) -> Residues:
        """The points as residues over D, the lcm of their denominators; a
        ``Residues`` is returned as it stands."""
        if isinstance(points, cls):
            return points
        ratios = [_ratio(x) for x in points]
        if not ratios:
            raise ValueError("empty point set")
        dens = {den for _, den in ratios}
        D = math.lcm(*dens)
        scale = {den: D // den for den in dens}
        return cls([num * scale[den] % D for num, den in ratios], D)

    def floats(self) -> np.ndarray:
        """Each point rounded once to a float (int / int is correctly rounded)."""
        return np.array([num / self.D for num in self.nums], dtype=float)


def _fraction_json(v: Fraction) -> dict:
    return {"num": v.numerator, "den": v.denominator}


@dataclass(frozen=True)
class TorusInterval:
    """Arc [start, start+length) or [start, start+length] on R/Z.

    ``start`` (reduced mod 1) and ``length`` are stored as the exact
    Fractions they equal. Membership wraps around: x is inside iff
    (x - start) mod 1 < length (half-open) or <= length (closed), computed
    exactly. Length 0 is allowed only for the closed degenerate interval
    {start}, which shows up as a discrepancy witness.
    """

    start: Fraction
    length: Fraction
    closure: str = "half-open"  # or "closed"

    def __post_init__(self):
        if self.closure not in ("half-open", "closed"):
            raise ValueError(f"unknown closure {self.closure!r}")
        object.__setattr__(self, "start", Fraction(*_ratio(self.start)) % 1)
        object.__setattr__(self, "length", Fraction(*_ratio(self.length)))
        if not 0 <= self.length <= 1:
            raise ValueError(f"interval length {self.length} outside [0, 1]")
        if self.length == 0 and self.closure != "closed":
            raise ValueError("zero-length interval must be closed")

    def contains(self, x) -> bool:
        t = (Fraction(*_ratio(x)) - self.start) % 1
        return t <= self.length if self.closure == "closed" else t < self.length

    def to_dict(self) -> dict:
        return {
            "start": _fraction_json(self.start),
            "length": _fraction_json(self.length),
            "closure": self.closure,
        }


def max_circular_gap(points) -> Fraction:
    """Largest arc between consecutive points (with wrap-around), exact.

    A point set meets every closed interval of length eps iff its max
    circular gap is <= eps. A single point (or fully coincident set) has
    gap 1.
    """
    pts = Residues.of(points)
    ys, D = sorted(pts.nums), pts.D
    wrap = D - ys[-1] + ys[0]
    return Fraction(max([wrap, *map(operator.sub, ys[1:], ys)]), D)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact sup over all circle intervals of |count/N - length|; the
    witness is a closed interval that attains it."""

    n_points: int
    exact_value: Fraction
    witness_interval: TorusInterval
    et_bound: Optional[float] = None
    et_cutoff: Optional[int] = None
    # wall time of the Erdos-Turan sums: volatile, so not compared or emitted
    et_seconds: Optional[float] = field(default=None, compare=False)
    witness_flag = "attained"  # not a field: every witness attains the value

    def __post_init__(self):
        n = self.n_points
        if not Fraction(1, 2 * n) <= self.exact_value <= 1:
            raise ValueError(
                f"discrepancy {self.exact_value} outside [1/(2N), 1] for N={n}"
            )

    @property
    def exact_discrepancy(self) -> float:
        return float(self.exact_value)

    def to_dict(self) -> dict:
        d = {
            "n_points": self.n_points,
            "exact_discrepancy": self.exact_discrepancy,
            "exact_value": _fraction_json(self.exact_value),
            "witness_interval": self.witness_interval.to_dict(),
            "witness_flag": self.witness_flag,
        }
        if self.et_bound is not None:
            d["et_bound"] = self.et_bound
            d["et_cutoff"] = self.et_cutoff
        return d


def exact_discrepancy(points, et_cutoff: Optional[int] = None) -> DiscrepancyReport:
    """Exact interval discrepancy of points on the circle.

    The sup over all intervals is attained among intervals whose endpoints
    sit at point positions. Over sorted points y_0..y_{N-1}, closed
    intervals [y_i, y_j] maximize count - length with

        excess = max_i (y_i - i/N) + max_j ((j+1)/N - y_j),

    because the pair objective is N-periodic in the wrapped index, so the
    scan is O(N log N) instead of enumerating the O(N^2) candidate pairs.
    An open interval's length - count equals count - length of its closed
    complement, so the excess is the discrepancy. The scan runs in integers
    over N*D, with D the points' common denominator, and a direct recount
    of the witness [y_i, y_j] cross-checks it (degenerate and wrapping
    witnesses included).
    """
    pts = Residues.of(points)
    n, D = len(pts), pts.D
    ys = sorted(pts.nums)
    # y_i - i/N over N*D; the excess is max + (D - min)
    a = [n * y - i * D for i, y in enumerate(ys)]
    i, j = a.index(max(a)), a.index(min(a))
    value = a[i] + D - a[j]
    start, length = ys[i], (ys[j] - ys[i]) % D
    count = sum((y - start) % D <= length for y in ys)
    # The recount can only confirm or beat the separable bound; keep the max.
    value = max(value, count * D - n * length)

    report = DiscrepancyReport(
        n_points=n,
        exact_value=Fraction(value, n * D),
        witness_interval=TorusInterval(Fraction(start, D), Fraction(length, D),
                                       "closed"),
    )
    if et_cutoff is not None:
        start = time.perf_counter()
        bound = erdos_turan_bound(pts, et_cutoff)
        report = dataclasses.replace(report, et_bound=bound, et_cutoff=et_cutoff,
                                     et_seconds=time.perf_counter() - start)
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
    pts = Residues.of(points).floats()
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


def _unit_phases(nums, D: int) -> tuple:
    """cos and sin of 2*pi*r/D for residues r in [0, D), as float arrays.

    Each r is folded to (-D/2, D/2] and rounded once to t = r/D; the parts
    are cos and sin of 2*pi*|t|, the sine signed by t (and 0 at a half
    turn), so a negated residue gives the conjugate bit for bit. With
    u = 2^-53 and np.cos, np.sin within 4 ulp: t is within u/2 and the angle
    within 3*pi*u < 10u of the exact ones, and the functions add 8u, so
    each part is within 18u of the exact one.
    """
    t = np.array([(r - D if 2 * r > D else r) / D for r in nums])
    angle = 2 * np.pi * np.abs(t)
    sine = np.where(2 * np.abs(t) == 1, 0.0, np.sin(angle))
    return np.cos(angle), np.copysign(sine, t)


def weyl_sum(poly, n_terms: int, multiplier: int = 1) -> complex:
    """Sum of e(m*f(k)) for k = 0..n_terms-1, m = multiplier.

    ``poly`` is a ``PolySeqSpec``. The phases m * N_k mod D come exact from
    its residue table; ``_unit_phases`` turns them into terms, so negating
    every coefficient conjugates the result bit for bit, and math.fsum adds
    each part.

    Rounding bound, with u = 2^-53: each part of a term is within 18u
    (``_unit_phases``); fsum rounds each part once (<= u per term). The
    result is therefore within sqrt(2) * 19u * n_terms < n_terms * 2^-48 of
    the exact sum.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    pts = poly.residues(range(n_terms))
    cos, sin = _unit_phases([(multiplier * n) % pts.D for n in pts.nums], pts.D)
    return complex(math.fsum(cos), math.fsum(sin))


# entries of erdos_turan_bound's power table (measured there): the table
# and each block's product temporary stay well inside a core's L2 cache
_ET_TABLE_TERMS = 1 << 14


def erdos_turan_bound(points, cutoff: int) -> float:
    """Explicit Erdos-Turan discrepancy bound with constants (1, 3),

        ET = 1/(M+1) + 3 * sum_{m=1..M} |S_m| / (m*N),   S_m = sum_k e(m*x_k),

    plus a rounding term rho = 3 * M * 2^-46, so that the result R is a
    rigorous upper bound: ET <= R <= ET + 2*rho, for 1 <= M <= 2^40.

    Each point is read as an exact residue and z_k = e(x_k) is taken once
    (``_unit_phases``). The powers z^m come by multiplication: a table
    Z = [z^1 .. z^B] (np.cumprod, B*N about ``_ET_TABLE_TERMS`` = 2^14)
    times a running W = z^(bB) gives the B sums of block b in one pass, then
    W *= z^B. For N <= 2^14 the table and each block's product hold at most
    256 KiB each. On a 2-vCPU Xeon (2 MiB L2 per core, shared host), over
    five sweeps, a call at M = N = 1024 took 2.6-3.8 ms, against 4.0-5.9 ms
    at 2^16, where the two arrays fill the L2, and at M = N = 256
    0.38-0.48 ms against 1.4-2.1 ms; 2^12, 2^13 and 2^15 were no faster at
    either N. The rounding below holds for any B: the entry for m is m
    factors after m - 1 rounded products. B only decides which products,
    so the last bits of the result depend on it.

    Rounding, with u = 2^-53 and zeta_k = e(x_k) exact:
      1. Each part of z_k is within 18u (``_unit_phases``), so
         z_k = zeta_k (1 + a_k) with |a_k| <= 18 sqrt(2) u < 25.5u.
      2. numpy multiplies complex numbers by the schoolbook formula, with or
         without a fused multiply-add, so a product ab rounds to ab (1 + e)
         with |e| <= 2 sqrt(2) (1 + u/2) u < 2.9u. The entry used for m,
         Z[j] * W, is m factors z_k after m - 1 rounded products (products
         with the initial W = 1 are exact), so it is zeta_k^m (1 + t) with
         |t| <= (1 + 25.5u)^m (1 + 2.9u)^m - 1 < 28.5mu for m <= 2^40.
      3. numpy sums a contiguous row pairwise, so each term passes through
         at most 20 + log2(N) < 54 additions (N < 2^34: the table alone
         would need 256 GiB). Each part of the sum is then within 54.01u
         times the sum of its parts' magnitudes, and by Minkowski's
         inequality the computed S_m is within N (28.5mu + 54.2u) of S_m.
      4. |S| (hypot, 1 ulp), the int-to-float m*N and the division add at
         most 4.01u relative. As |S_m| <= N, each term is within
         28.5u + 58.3u/m of |S_m| / (mN), and the M terms together within
         28.5uM + 58.3u H_M, where H_M = sum 1/m <= M.
      5. fsum rounds once (1.01u H_M) and the product by 3 adds 3.03u H_M.
         The rounded 1/(M+1) and the two final additions add at most
         u (1.55 + 6.08 H_M).
    The sum R - rho is therefore within 85.5uM + 187.1u H_M + 1.6u <= 274.2uM
    of ET, which is below rho = 384uM: R >= ET, and R - ET <= 2 rho.
    """
    if not 1 <= cutoff <= 1 << 40:
        raise ValueError("cutoff must be in [1, 2^40]")
    pts = Residues.of(points)
    n = len(pts)
    cos, sin = _unit_phases(pts.nums, pts.D)
    z = cos + 1j * sin
    block = min(cutoff, max(1, _ET_TABLE_TERMS // n))
    table = np.cumprod(np.broadcast_to(z, (block, n)), axis=0)
    w = np.ones(n, dtype=complex)
    terms = []
    for lo in range(0, cutoff, block):
        k = min(block, cutoff - lo)
        s = (table[:k] * w).sum(axis=1)
        terms.append(np.abs(s) / (np.arange(lo + 1, lo + k + 1) * n))
        w *= table[-1]
    total = math.fsum(np.concatenate(terms))
    return 1.0 / (cutoff + 1) + 3.0 * total + 3 * cutoff * 2.0 ** -46

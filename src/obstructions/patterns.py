"""Hitting patterns for polynomial sequences mod 1.

Constructs index patterns P (random thinning of {0..Q-1}, or the elementary
block pattern {0..n-1}) and verifies the hitting property: for coefficient
vectors B, the points (A k^p + B_{p-1} k^{p-1} + ... + B_1 k) mod 1 with
k in P must meet every interval of a prescribed length, equivalently their
max circular gap must stay below it.

Verification is exact. With A = a/b rational and each lower coefficient a
dyadic u_i/2^s, every point is an integer over the common denominator
D = b * 2^s; choosing s = 62 - bitlen(b) keeps D and all intermediates
inside uint64, so the whole scan (nets of 10^7 cells and beyond) runs as
vectorized integer arithmetic. Only the pruning bound reads rounded values:
each point's position in units of 2^-w, in a word of 16, 32 or 64 bits.
A word of at least s bits rounds each point down by less than one unit,
never across a bucket edge, so a p = 3 pattern at n = 64 (s = 13) runs its
multiply-accumulate in uint16. A narrower word drops the low s - w bits of
each coefficient, which leaves each point ahead of its position by less
than a drift L that the pattern fixes, and is used while L is at most 1/64
of a bucket: the n = 32, p = 2 net (s = 41) runs in uint32. Either way the
bound's caps, widened by L where bits were dropped, bound the exact gaps
(see ``_ExactKernel``).
A net scan also skips the cells that an exact integer Lipschitz cone proves
below a gap already found (see ``_Cone``). Every reported gap and witness
is exact over D.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .torus import BudgetError, Real, Residues, TorusInterval, max_circular_gap

NET_CELL_BUDGET = 20_000_000
FISHER_YATES_CUTOFF = 1 << 20

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_64(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def bertrand_prime(n: int, p: int) -> int:
    """Smallest prime above n^(2^p); Bertrand guarantees one below 2*n^(2^p)."""
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    # at p >= 6, n^(2^p) >= 2^64: refused without building the power
    lower = n ** (2 ** p) if p < 6 else 1 << 64
    if lower >= 1 << 62:
        raise ValueError("parameter range: n^(2^p) must be below 2^62")
    q = lower + 1
    while not is_prime_64(q):
        q += 1
    assert q < 2 * lower, "Bertrand interval exhausted (impossible)"
    return q


@dataclass(frozen=True)
class Pattern:
    """A sorted set of integer indices, optionally confined to {0..universe-1}."""

    indices: tuple
    universe: int = 0
    provenance: str = "explicit"

    def __post_init__(self):
        idx = tuple(sorted(int(k) for k in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("pattern indices must be distinct")
        if self.universe and idx and not (0 <= idx[0] and idx[-1] < self.universe):
            raise ValueError("pattern index outside universe")
        object.__setattr__(self, "indices", idx)

    @property
    def n(self) -> int:
        return len(self.indices)

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "n": self.n,
            "universe": self.universe,
            "provenance": self.provenance,
        }


def thin_pattern(n: int, universe: int, seed: int) -> Pattern:
    """Uniform random n-subset of {0..universe-1}, deterministic given seed.

    Fisher-Yates prefix below the cutoff, Floyd's subset sampling above it
    (both draw from random.Random(seed), so reruns reproduce exactly).
    """
    if n > universe:
        raise ValueError(f"cannot thin to {n} indices out of {universe}")
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    if universe <= FISHER_YATES_CUTOFF:
        pool = list(range(universe))
        for i in range(n):
            j = rng.randrange(i, universe)
            pool[i], pool[j] = pool[j], pool[i]
        chosen = pool[:n]
    else:
        chosen_set = set()
        for j in range(universe - n, universe):
            t = rng.randrange(j + 1)
            chosen_set.add(t if t not in chosen_set else j)
        chosen = list(chosen_set)
    return Pattern(tuple(chosen), universe, f"thinned(seed={seed})")


def elementary_pattern(n: int):
    """Arithmetic progression {0..n-1} with leading coefficient 1/m^2, m = floor(sqrt(n)).

    The m full blocks {i*m + l} inside the pattern guarantee, for every real
    B, a walk around the circle with steps below 5/m, so the value set meets
    every interval of length 5/m <= 10/sqrt(n).
    """
    if n < 4:
        raise ValueError("elementary pattern needs n >= 4")
    m = math.isqrt(n)
    return Pattern(tuple(range(n)), 0, "elementary"), Fraction(1, m * m)


@dataclass(frozen=True)
class PolySeqSpec:
    """Polynomial A k^p + c_{p-1} k^{p-1} + ... + c_1 k taken mod 1.

    ``leading`` is the degree-p coefficient, an exact rational (a Fraction,
    or an int); ``lower`` holds the coefficients of k^1..k^{p-1} in
    increasing degree, each stored as the exact Fraction it equals (a finite
    float is a dyadic rational, so the conversion loses nothing). Every
    evaluation reads one integer table, ``residues``: values are exact until
    their one final rounding.
    """

    degree: int
    leading: Fraction
    lower: tuple = ()

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if not isinstance(self.leading, (Fraction, int)):
            raise ValueError("the leading coefficient must be exact (a Fraction "
                             f"or an int), got {type(self.leading).__name__}")
        lower = tuple(self.lower)
        if not lower and self.degree > 1:
            lower = (0,) * (self.degree - 1)
        if len(lower) != self.degree - 1:
            raise ValueError(f"expected {self.degree - 1} lower coefficients")
        if self.leading == 0:
            raise ValueError("leading coefficient must be nonzero")
        try:
            lower = tuple(Fraction(c) for c in lower)
        except (OverflowError, ValueError):
            raise ValueError(f"lower coefficients must be finite, got {lower}") from None
        object.__setattr__(self, "leading", Fraction(self.leading))
        object.__setattr__(self, "lower", lower)

    def residues(self, ks: Iterable[int]) -> Residues:
        """The points x_k, with x_k = nums[j] / D exactly for k = ks[j].

        D is the lcm of every coefficient's denominator, and each numerator
        is the integer polynomial sum_i a_i k^i, a_i = num_i * (D / den_i),
        computed by Horner's rule in Python ints and reduced into [0, D)
        once.
        """
        coeffs = (*self.lower, self.leading)
        D = math.lcm(*(c.denominator for c in coeffs))
        top, *rest = [c.numerator * (D // c.denominator) for c in reversed(coeffs)]
        nums = []
        for k in map(int, ks):
            acc = top
            for a in rest:
                acc = acc * k + a
            nums.append(acc * k % D)
        return Residues(nums, D)

    def value_at(self, k: int) -> Fraction:
        """x_k mod 1 as a Fraction, straight from the definition; tests hold
        ``residues`` and the gap kernel to it."""
        acc = self.leading * k ** self.degree
        for i, c in enumerate(self.lower, start=1):
            acc += c * k ** i
        return acc % 1

    def values(self, ks: Iterable[int]) -> np.ndarray:
        """Float values x_k of ``residues``, each rounded once, so equal to
        float(value_at(k))."""
        return self.residues(ks).floats()


def pattern_gap(pattern: Pattern, leading: Fraction, degree: int,
                coeffs: Sequence[Real]) -> Fraction:
    """Max circular gap of {x_k : k in pattern} for one coefficient vector."""
    spec = PolySeqSpec(degree, leading, tuple(coeffs))
    return max_circular_gap([spec.value_at(k) for k in pattern.indices])


# ---------------------------------------------------------------------------
# Nets


@dataclass(frozen=True)
class NetSpec:
    """The integer grids net verification scans: grid i (the k^i coefficient)
    holds t * steps[i-1] / 2^scale_bits for t < sizes[i-1], so every
    coefficient mod 1 lies within meshes[i-1]/2 of a grid point (see ``_Cone``)."""

    degree: int
    universe: int
    scale_bits: int
    steps: tuple

    @property
    def meshes(self) -> tuple:
        return tuple(w / (1 << self.scale_bits) for w in self.steps)

    @property
    def sizes(self) -> tuple:
        return tuple(-(-(1 << self.scale_bits) // w) for w in self.steps)

    @property
    def total_cells(self) -> int:
        return math.prod(self.sizes)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "universe": self.universe,
            "meshes": list(self.meshes),
            "sizes": list(self.sizes),
            "total_cells": self.total_cells,
        }


def build_nets(degree: int, universe: int, epsilon: float,
               max_cells: int = NET_CELL_BUDGET) -> NetSpec:
    """The net closest to the recipe within max_cells cells: grid i steps by
    floor(mesh_i * 2^s), capped at 2^s, with mesh_i = epsilon / (100 * p * Q^i)
    / scale and s the kernel's fixed-point bits for Q. The scale shrinks by
    0.1% while whole points overshoot max_cells. Refused: a step below
    2^-s, and a degree whose finest grid's 100 p Q^(p-1) / epsilon points
    leave float range."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if universe < 2:
        raise ValueError("universe must be >= 2")
    if max_cells < 1:
        raise ValueError(f"net cell budget (--net-cells) must be >= 1, got {max_cells}")
    s = _scale_bits(universe)
    finest = Fraction(100 * degree * universe ** (degree - 1)) / Fraction(epsilon)
    if degree > 1 and finest > sys.float_info.max:
        raise BudgetError(
            f"degree p = {degree} at Q = {universe}: the k^{degree - 1} grid's "
            f"100 p Q^{degree - 1} / epsilon points leave float range"
        )
    scale = scale_for_budget(degree, universe, epsilon, max_cells)
    while True:
        steps = []
        for i in range(1, degree):
            mesh = epsilon / (100 * degree * universe ** i) / scale
            # a mesh of 1 or more is the one point 0, however large it is
            step = 1 << s if mesh >= 1 else int(mesh * (1 << s))
            if step < 1:
                raise BudgetError(
                    f"the k^{i} grid needs mesh {mesh:.3g}, below the exact "
                    f"kernel's resolution 2^-{s} for Q = {universe}; lower --net-cells"
                )
            steps.append(step)
        nets = NetSpec(degree, universe, s, tuple(steps))
        if nets.total_cells <= max_cells:
            return nets
        scale *= 0.999


def scale_for_budget(degree: int, universe: int, epsilon: float, max_cells: int) -> float:
    """Largest mesh scale (capped at 1) whose net fits in max_cells:
    grid i has about c_i * scale points, c_i = 100 * p * Q^i / epsilon, and at
    least one, so the grids that would shrink below one point drop out of
    prod_i c_i * scale = max_cells (less 0.1% per grid)."""
    costs = [100 * degree * universe ** i / epsilon for i in range(1, degree)]
    if math.prod(costs) <= max_cells:
        return 1.0
    while True:
        scale = float((max_cells / math.prod(costs)) ** (1.0 / len(costs))) * 0.999
        if len(costs) == 1 or costs[0] * scale >= 1:
            return scale
        costs = costs[1:]  # the coarsest grid keeps its one point


# ---------------------------------------------------------------------------
# Exact evaluation kernel


def _scale_bits(denominator: int) -> int:
    s = 62 - denominator.bit_length()
    if s < 8:
        raise BudgetError(
            f"denominator {denominator} leaves only {s} fixed-point bits; "
            "exact uint64 kernel needs at least 8"
        )
    return s


# a block of the exact kernel is sized so that one of its (n, rows) arrays
# in the kernel's word is about this many bytes, small enough that the
# kernel's scratch and tiles stay in cache across the block's stages
_BLOCK_BYTES = 1 << 18

# buckets per row of the gap bound; a row's occupancy fits in 16 bits
_BUCKETS = 16

# a word narrower than s bits is used only while the drift it causes is at
# most 2^(w - _DRIFT_BITS) units, 1/64 of a bucket (see ``_ExactKernel``)
_DRIFT_BITS = 10


def block_rows(n: int, itemsize: int = 8) -> int:
    """Coefficient rows per kernel block for an n-point pattern whose
    positions are words of itemsize bytes (8, uint64, by default)."""
    return max(1, _BLOCK_BYTES // (itemsize * n))


@functools.cache
def _empty_runs() -> np.ndarray:
    """Longest circular run of zero bits of every 16-bit mask, as a read-only
    uint8 table of 2^16 entries, built on first use (a few ms)."""
    run = np.arange(1 << _BUCKETS, dtype=np.uint32)
    run ^= 0xFFFF  # the empty buckets
    run *= 0x10001  # doubled, so a run that wraps is contiguous
    table = np.zeros(1 << _BUCKETS, dtype=np.uint8)
    for _ in range(_BUCKETS):
        # after t rounds, a set bit of run starts more than t empty buckets
        table += run != 0
        run &= run >> 1
    table.flags.writeable = False
    return table


class _ExactKernel:
    """Per-pattern tables for exact gap evaluation over uint64 coefficients.

    Point x_k = r_k/b + acc_k/2^s for a row of coefficients u_i/2^s, where
    r_k/b is the leading term's residue and acc_k = sum_i u_i k^i mod 2^s;
    its exact numerator over D = b * 2^s is (r_k 2^s + b acc_k) mod D. A
    block is laid out point-major, one (n, rows) array per stage, so every
    elementwise pass runs along rows, and has ``rows`` rows, by default
    ``block_rows(n, itemsize)``, so that one such array in the word (below)
    is about _BLOCK_BYTES: 2,048 rows at n = 64 in uint16, 512 in uint64.
    The per-point constants the passes over the whole block read are stored
    as full (n, rows) tiles, and those the kept rows read as (n, 1)
    columns. ``block`` is the pass over every row of a block (positions and
    caps); ``gaps`` then sorts chosen rows of that block, as often as asked.
    Every scan runs its blocks through both by ``_Scan.run``.

    Positions live in the word of w bits, ``word`` its unsigned dtype, in
    units of 2^-w of the circle. Every row of a block gets one wrapping
    multiply-accumulate in the word, plus the ``phase`` floor(r_k 2^w / b),
    and the gap bound reads only the top 4 bits of each position.

    Exact words (w >= s). ``kpows`` holds (k^i mod 2^s) << (w - s), so the
    sum, which wraps mod 2^w, is acc_k << (w - s) exactly (every bit above
    the low s of acc_k falls off the top), and pos_k = (acc_k 2^(w-s) +
    floor(r_k 2^w / b)) mod 2^w is the point's position rounded down to a
    whole unit: acc_k 2^(w-s) is an integer, so pos_k = floor(2^w x_k / D)
    (exact when b divides r_k 2^w). The kept rows' exact numerators are
    built from their positions less the phase (``exact``).

    Screened words (w < s). The low g = s - w bits of every coefficient are
    dropped: ``kpows`` holds k^i mod 2^w, and pos_k = (sum_i (k^i mod 2^w)
    (u_i >> g) + floor(r_k 2^w / b)) mod 2^w. Write u_i = (u_i >> g) 2^g +
    l_i, l_i < 2^g, and c_i = k^i mod 2^s. In units, 2^w x_k = r_k 2^w / b +
    sum_i c_i u_i / 2^g mod 2^w, and sum_i c_i (u_i >> g) = sum_i (k^i mod
    2^w)(u_i >> g) mod 2^w, so the point lies ahead of pos_k by the phase's
    rounding plus sum_i c_i l_i / 2^g: by between 0 and the ``drift`` L = 1
    + sum_i max_k c_i units. The kept rows' exact numerators are rebuilt
    from their coefficients in uint64 (``numerators``).

    The word is the narrowest of 16, 32 and 64 bits that is exact (w >= s)
    or has L <= 2^(w - 10), 1/64 of a bucket; it follows from s and the
    pattern alone. The n = 32, p = 2 net (s = 41, L about 2^20) runs in
    uint32, a p = 3 pattern at n = 64 (s = 13) in uint16, and the n = 64,
    p = 2 pattern (L about 2^24) in uint64.

    Why the bound holds. Bucket j is [j 2^(w-4), (j + 1) 2^(w-4)) in units
    of 2^-w. Let E be the longest circular run of empty buckets of a row's
    positions. If a position x lies in bucket i and the next one y in
    bucket i + e + 1, with e <= E empty buckets between, then y - x < (e +
    2) 2^(w-4) units; the wrap gap from the last position to the first is
    bounded the same way with the run taken through bucket 15 to bucket 0.
    A unit is D/2^w of a numerator over D, and 16 divides D (s >= 8), so
    every gap of the positions, taken as points, is below (E + 2) D/16. In
    an exact word, rounding a point down by less than one unit never moves
    it across a bucket edge, a whole unit, so the positions' buckets are the
    exact points' and every exact gap numerator is at most caps[E] = (E +
    2) D/16 - 1. In a screened word, every point lies ahead of its position
    by between 0 and L units, so by ``_Cone``'s move lemma every exact gap
    exceeds the positions' gap by at most L units, and caps[E] = (E + 2)
    D/16 - 1 + L (D >> w) (D >> w = b 2^g is a whole number of units). A
    one-point row (E = 15, gap D) is covered too. The 17 caps are built once
    in Python ints; all lie below 18 D/16 + D/1024 < 2^63.
    """

    def __init__(self, pattern: Pattern, leading: Fraction, degree: int,
                 rows: Optional[int] = None):
        ks = pattern.indices
        lead = PolySeqSpec(degree, leading).residues(ks)
        b = lead.D
        self.s = _scale_bits(b)
        self.denominator = b << self.s
        self.n = len(ks)
        pows = [[pow(k, i, 1 << self.s) for k in ks] for i in range(1, degree)]
        self.drift = 1 + sum(map(max, pows))
        w = next(w for w in (16, 32, 64)
                 if w >= self.s or self.drift <= 1 << (w - _DRIFT_BITS))
        self.word = np.dtype(f"uint{w}")
        self.rows = rows or block_rows(self.n, self.word.itemsize)
        # the coefficient bits dropped, 0 in an exact word; every scalar of a
        # pass over the word is of the word's type, so that numpy keeps the
        # pass in the word
        self.drop = max(self.s - w, 0)
        lift = max(w - self.s, 0)
        self.shift = self.word.type(lift)
        self.bucket_shift = self.word.type(w - 4)
        self.one = self.word.type(1)

        def column(values, dtype=self.word):
            return np.array(values, dtype=dtype)[:, None]

        def tile(col):
            return np.repeat(col, self.rows, axis=1)

        self.kpows = [tile(column([(c << lift) % (1 << w) for c in col]))
                      for col in pows]
        self.phase = column([(r << w) // b for r in lead.nums])
        self.phase_tile = tile(self.phase)
        self.lead = column([r << self.s for r in lead.nums], np.uint64)
        # k^i mod 2^s in uint64, from which a screened word's kept rows are
        # rebuilt
        self.coeff_pows = [column(col, np.uint64) for col in pows]
        self.mask = np.uint64((1 << self.s) - 1)
        self.b = np.uint64(b)
        self.big = np.uint64(self.denominator)
        margin = self.drift * (self.denominator >> w) if self.drop else 0
        self.caps = np.array([(E + 2) * (self.denominator >> 4) - 1 + margin
                              for E in range(_BUCKETS + 1)], dtype=np.uint64)
        # scratch reused by every block, each (n, rows): the positions, in
        # the word, and one uint64 buffer, ``wide``, that backs in turn the
        # block pass's term of the multiply-accumulate (from degree 3 on) and
        # its bucket bits, both in the word (``spare``), each dead once the
        # next stage has run, and the uint64 scratch of the kept rows in
        # ``gaps``
        shape = (self.n, self.rows)
        self.pos = np.empty(shape, dtype=self.word)
        self.wide = np.empty(shape, dtype=np.uint64)
        self.spare = np.ndarray(shape, self.word, buffer=self.wide)

    def positions(self, u: np.ndarray) -> np.ndarray:
        """The positions pos_k (see the class) of the points of every row of
        u, shape (n, rows), in a view of the kernel's positions scratch.

        u has shape (rows, degree-1), dtype uint64, with at most self.rows
        rows. Each coefficient, less its dropped bits, is below 2^w, so its
        column is cast to the word without loss."""
        rows = u.shape[0]
        pos = self.pos[:, :rows]
        if not self.kpows:
            pos.fill(0)
        if self.drop:
            u = u >> np.uint64(self.drop)
        coeffs = np.ascontiguousarray(u.T, dtype=self.word)
        for d, (kp, coeff) in enumerate(zip(self.kpows, coeffs)):
            if d:
                pos += np.multiply(kp[:, :rows], coeff, out=self.spare[:, :rows])
            else:
                np.multiply(kp[:, :rows], coeff, out=pos)
        pos += self.phase_tile[:, :rows]
        return pos

    def row_caps(self, pos: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """caps[E] of every row (column) of positions, as uint64; bits, an
        array in the word shaped like pos, is overwritten."""
        np.right_shift(pos, self.bucket_shift, out=bits)
        np.left_shift(self.one, bits, out=bits)
        return self.caps[_empty_runs()[np.bitwise_or.reduce(bits, axis=0)]]

    def to_numerators(self, acc: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The exact numerators over D, in acc, of the points whose acc_k
        (see the class) acc holds, as uint64 shaped (n, rows); scratch, a
        uint64 array of that shape, is overwritten.

        Each value v = r_k 2^s + b acc_k lies below D + D = 2D < 2^63 (D <
        2^62 by the choice of s), so one wrapping subtraction reduces it
        mod D: if v < D, v - D wraps to at least 2^64 - D > 2^63 > v and min
        keeps v."""
        acc *= self.b
        acc += self.lead
        np.subtract(acc, self.big, out=scratch)
        np.minimum(acc, scratch, out=acc)
        return acc

    def exact(self, pos: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The exact numerators over D, as uint64, of pos, columns of
        positions in an exact word, which is overwritten; they are built in
        pos itself when the word is uint64, else in a widened copy of it.
        scratch, a uint64 array shaped like pos, is overwritten.

        Subtracting the phase gives back acc_k << (w - s) exactly, since
        the sum wrapped mod 2^w, and shifting gives acc_k; both in the word."""
        pos -= self.phase
        pos >>= self.shift
        return self.to_numerators(pos.astype(np.uint64, copy=False), scratch)

    def numerators(self, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The exact numerators over D, as a new uint64 array shaped like
        scratch, (n, rows) and column-major, of every row of u, from the
        coefficients in any word: acc_k = sum_i (k^i mod 2^s) u_i wraps mod
        2^64, a multiple of 2^s, and is then masked to its low s bits.
        scratch is overwritten."""
        acc = np.zeros(scratch.shape, np.uint64, order="F")
        for kp, coeff in zip(self.coeff_pows, u.T):
            acc += np.multiply(kp, coeff, out=scratch)
        acc &= self.mask
        return self.to_numerators(acc, scratch)

    def block(self, u: np.ndarray) -> np.ndarray:
        """The block pass over the rows of u (at most self.rows): the caps
        of every row, as uint64, an upper bound on its max-gap numerator
        over D. The rows' positions stay in the positions scratch for
        ``gaps`` until the next block."""
        pos = self.positions(u)
        return self.row_caps(pos, self.spare[:, :u.shape[0]])

    def gaps(self, u: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """The exact max-gap numerators over D, as uint64, of the rows keep
        (indices) of the last block, u, built and sorted in one column-major
        array (each row's points contiguous, as the sort along points
        wants): in an exact word a gathered copy of their positions, which
        are left as they are, and in a screened one their rebuilt
        numerators. ``exact``/``numerators`` and the gaps between neighbours
        use as scratch a view of the front of ``wide``."""
        scratch = np.ndarray((self.n, len(keep)), np.uint64, buffer=self.wide, order="F")
        if self.drop:
            kept = self.numerators(u[keep], scratch)
        else:
            kept = self.exact(self.pos[:, keep], scratch)
        kept.sort(axis=0)
        # the wrap gap D - last + first, which lies in (0, D]; initial=0
        # covers one-point patterns, whose only gap is the wrap
        wrap = kept[0] - kept[-1] + self.big
        inner = np.subtract(kept[1:], kept[:-1], out=scratch[1:])
        return np.maximum(inner.max(axis=0, initial=0), wrap)


class _Scan:
    """One exact scan: its best (gap, coefficient tuple) so far, the cells
    it certified, the rows it sent to the kernel and those it sorted, and a
    one-block queue of rows for the kernel. The best starts at (0, ()):
    every gap numerator is at least 1, so every row outranks it. Every
    block, sampled, queued or a net's coarse cells, goes through ``run``,
    in blocks of the kernel's rows."""

    def __init__(self, kernel: _ExactKernel):
        self.kernel = kernel
        self.rows = kernel.rows
        self.best = (0, ())
        self.cells = self.kernel_rows = self.sorted_rows = 0
        self.queue = np.empty((self.rows, len(kernel.kpows)), dtype=np.uint64)
        self.queued = 0

    def keep_best(self, u: np.ndarray, keep: np.ndarray, gaps: np.ndarray) -> None:
        """Counts the rows keep of u (at least one) as sorted and keeps the
        best of them, given their exact gaps; ties go to the smallest
        coefficient tuple."""
        self.sorted_rows += len(keep)
        gap = gaps.max()
        top = keep[gaps == gap]
        if len(top) > 1 and u.shape[1]:
            top = top[np.lexsort(u[top].T[::-1])]
        found = (int(gap), tuple(int(x) for x in u[top[0]]))
        self.best = max(self.best, found, key=_rank)

    def run(self, u: np.ndarray) -> np.ndarray:
        """Runs the kernel on the rows of u (at most self.rows), keeps the
        best, and returns an upper bound on every row's max-gap numerator
        over D, as uint64: the exact gap of a row it sorted, the cap of any
        other. The rows whose cap reaches the best and is the block's
        largest are sorted first, which raises the floor to max(best, their
        max gap), and then only the other rows whose cap reaches that floor.
        A row left out has gap <= cap < floor <= the final best, so every
        row whose gap reaches the best, a tie included, is sorted."""
        bounds = self.kernel.block(u)
        self.kernel_rows += u.shape[0]
        keep = np.flatnonzero(bounds >= self.best[0])
        if len(keep):
            caps = bounds[keep]
            top = caps.max()
            first = keep[caps == top]
            bounds[first] = self.kernel.gaps(u, first)
            self.keep_best(u, first, bounds[first])
            rest = keep[(caps >= self.best[0]) & (caps < top)]
            if len(rest):
                bounds[rest] = self.kernel.gaps(u, rest)
                self.keep_best(u, rest, bounds[rest])
        return bounds

    def certify(self, u: np.ndarray) -> None:
        """Certifies every row of u by running the kernel on it."""
        self.cells += u.shape[0]
        self.run(u)

    def submit(self, u: np.ndarray) -> None:
        """Queues the rows of u, running the kernel on the queue each time
        it fills."""
        while len(u):
            take = min(len(u), len(self.queue) - self.queued)
            self.queue[self.queued:self.queued + take] = u[:take]
            self.queued += take
            u = u[take:]
            if self.queued == len(self.queue):
                self.flush()

    def flush(self) -> None:
        """Runs the kernel on the queued rows."""
        if self.queued:
            self.run(self.queue[:self.queued])
            self.queued = 0

    def witness(self) -> dict:
        """Flushes the queue and returns the witness as HittingReport
        fields. The best is the max gap with ties broken by the smallest
        coefficient tuple (``_rank``), whatever the order in which the rows
        were scanned."""
        self.flush()
        gap, coeffs = self.best
        return dict(tested=self.cells,
                    worst_gap_exact=(gap, self.kernel.denominator),
                    worst_coeffs_exact=tuple((u, self.kernel.s) for u in coeffs),
                    sorted_rows=self.sorted_rows,
                    kernel_rows=self.kernel_rows,
                    block_rows=self.rows,
                    word_bits=self.kernel.word.itemsize * 8)


# the longest stride between two coarse cells of the net scan
_MAX_STRIDE = 64


class _Cone:
    """The net scan, pruned by an exact Lipschitz cone along the last grid,
    and the net's transfer slack, from one lemma: moving every point forward
    by between c and c + L changes the max gap by at most L (an empty arc
    (a, a + g) of the old points leaves (a + c + L, a + c + g) empty; and
    backwards). Adding delta_i to the coefficient of k^i (i = 1..d, d =
    degree - 1) moves x_k by sum_i delta_i k^i, so the moves lie within
    sum_i |delta_i| spread_i of each other, spread_i = max_k k^i - min_k k^i.

    Slack. Coefficients live mod 1 and 2^s = 0 is a grid point, so every
    real coefficient lies within step_i/2^(s+1) = mesh_i/2 of a point of
    grid i, the short last cell included, and every real vector's gap
    exceeds a net cell's by at most slack = sum_i spread_i step_i/2^(s+1).

    Cone. Cells are numbered as mixed-radix numbers over the grid sizes,
    the last grid fastest; a run is the cells that differ only in their
    last digit t. One step of t adds w/2^s to the coefficient of k^d (w the
    last grid's step), so it moves any gap numerator over D = b 2^s by at
    most lip = spread_d w b, an integer, taken as at least 1. If coarse
    cells a < c < e of one run, r = c - a and span = e - a, have gap
    bounds ub_a and ub_e (``_Scan.run``'s: exact where the kernel sorted
    the row, its cap otherwise), cell c's gap is at most
    min(ub_a + lip r, ub_e + lip (span - r)). A cell whose bound is below
    the scan's best gap cannot hold the witness, and is certified without
    the kernel; every cell whose gap reaches the best, a tie included,
    still goes to the kernel. So the witness and its smallest-tuple
    tie-break are those of a scan of every cell, at every stride.

    ``scan`` walks each run in segments, at the stride m its best allows
    when the segment starts. A segment's coarse cells are every m-th from
    its first, plus its last, min(first + (rows - 1) m, size - 1) with
    rows the scan's and size the last grid's, at most rows of them, and go
    to the kernel in one block. The interior cells whose cone reaches the
    best are queued and sent to the kernel in full blocks. The stride is
    m = clamp(floor((2 best - 3D/8) / lip), 1, 64), which is 1 while the
    best is 0, before any row is scanned: a coarse row whose longest empty
    bucket run is one bucket has cap about 3D/16 (3D/16 - 1 in an exact
    word, at most D/1024 more in a screened one), and the cone of two such
    rows m steps apart peaks at about 3D/16 + lip m/2 <= best. Only the
    number of kernel rows depends on m.

    Headroom. Interior cells exist only at m >= 2, where lip m <= 2 best -
    3D/8 <= 13D/8 (best <= D), so lip < D. ``interior`` never forms a cone
    sum: it works in int64 on best - ub, which lies in (-18D/16 - L D/2^w,
    D] (every bound is at most the largest cap, 18D/16 - 1 + L D/2^w, with
    L D/2^w <= D/1024 the screened words' margin, 0 in an exact word; see
    ``_ExactKernel``), on max(best - ub, 1) + lip - 1 < 2D, and on last
    digits below 2^s. D < 2^62, so all of these
    lie inside int64, and a uint64 bound below 2^63 reads the same as an
    int64 one.
    """

    def __init__(self, kernel: _ExactKernel, pattern: Pattern, nets: NetSpec):
        self.kernel = kernel
        self.steps, self.sizes = nets.steps, nets.sizes
        self.run = self.sizes[-1] if self.sizes else 1
        self.runs = nets.total_cells // self.run
        D = kernel.denominator
        # the indices are sorted and nonnegative: k^i spreads from the ends
        lo, hi = pattern.indices[0], pattern.indices[-1]
        spreads = [hi ** i - lo ** i for i in range(1, len(self.steps) + 1)]
        self.slack = Fraction(sum(a * w for a, w in zip(spreads, self.steps)), 2 << kernel.s)
        # a larger constant bounds the moves too; at least 1, so it divides
        self.lip = max(1, spreads[-1] * self.steps[-1] * (D >> kernel.s)) if spreads else 1
        # 2 * 3D/16, with 3D/16 - 1 the cap of a row whose longest empty
        # bucket run is one bucket
        self.room = 3 * (D >> 3)

    def stride(self, best: int) -> int:
        """The stride m at best gap numerator best."""
        return max(1, min(_MAX_STRIDE, (2 * best - self.room) // self.lip))

    def rows(self, run: int, ts: np.ndarray) -> np.ndarray:
        """The coefficient rows of the cells of a run at last digits ts."""
        u = np.empty((len(ts), len(self.steps)), dtype=np.uint64)
        if self.steps:
            for d in range(len(self.steps) - 2, -1, -1):
                run, t = divmod(run, self.sizes[d])
                u[:, d] = t * self.steps[d]
            np.multiply(ts, np.uint64(self.steps[-1]), out=u[:, -1])
        return u

    def interior(self, ts: np.ndarray, bounds: np.ndarray, best: int) -> np.ndarray:
        """The last digits between consecutive coarse ones ts (uint64) whose
        cone bound reaches best, given the coarse cells' gap bounds.

        The cell r steps after coarse cell a and span - r before the next,
        e, passes iff ub_a + lip r >= best and ub_e + lip (span - r) >= best,
        that is iff d_a <= r <= span - d_e, with d = max(1, ceil((best - ub)
        / lip)) (r = 0 and r = span are the coarse cells): one run of
        span + 1 - d_a - d_e cells per span, if that is positive."""
        ts = ts.view(np.int64)
        d = (np.maximum(best - bounds.view(np.int64), 1) + (self.lip - 1)) // self.lip
        count = ts[1:] - ts[:-1] + 1 - d[:-1] - d[1:]
        live = np.flatnonzero(count > 0)
        count, first = count[live], ts[live] + d[live]
        # first[j], first[j] + 1, ... for count[j] cells, span by span
        shift = np.repeat(first - (np.cumsum(count) - count), count)
        return (np.arange(len(shift)) + shift).view(np.uint64)

    def scan(self, scan: _Scan) -> None:
        """Certifies every cell of the net into scan, segment by segment:
        the coarse cells with the kernel, the interior ones by their cone or
        by queuing them."""
        for run in range(self.runs):
            first = 0
            while first < self.run:
                m = self.stride(scan.best[0])
                last = min(first + (scan.rows - 1) * m, self.run - 1)
                # first, first + m, first + 2m, ... and the last cell
                ts = np.arange(first, last + m, m, dtype=np.uint64)
                ts[-1] = last
                bounds = scan.run(self.rows(run, ts))
                scan.cells += last + 1 - first
                if m > 1:
                    inner = self.interior(ts, bounds, scan.best[0])
                    if len(inner):
                        scan.submit(self.rows(run, inner))
                first = last + 1


def _rank(found):
    """Order (gap, coefficients) by larger gap, then by smaller tuple."""
    gap, coeffs = found
    return gap, tuple(-x for x in coeffs)


def float_up(x: Fraction) -> float:
    """The smallest float at or above x, so a bound x reported as a float
    stays a bound (float() alone rounds to nearest)."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


@dataclass(frozen=True)
class HittingReport:
    """Outcome of a hitting verification run; pass iff worst gap <= epsilon
    (sampled mode) or <= 9/10 epsilon - slack (net mode; ``_Cone`` proves slack)."""

    mode: str                       # "net" or "sampled"
    epsilon: float
    passed: bool
    tested: int
    worst_gap_exact: tuple          # (num, den)
    worst_coeffs_exact: tuple       # ((num, scale_bits), ...)
    pattern_n: int
    universe: int
    degree: int
    slack: float = 0.0
    epsilon_guaranteed: Optional[float] = None
    seed: Optional[int] = None
    # rows sent to the kernel, those whose exact gap it computed, the rows
    # per kernel block and the bits of the kernel's word: work counters,
    # neither compared nor emitted here (the CLI shows them in
    # meta.counters)
    kernel_rows: Optional[int] = field(default=None, compare=False)
    sorted_rows: Optional[int] = field(default=None, compare=False)
    block_rows: Optional[int] = field(default=None, compare=False)
    word_bits: Optional[int] = field(default=None, compare=False)

    @property
    def worst_gap(self) -> float:
        """The exact worst gap, rounded once (int / int is correctly rounded)."""
        num, den = self.worst_gap_exact
        return num / den

    @property
    def worst_coeffs(self) -> tuple:
        return tuple(u / (1 << s) for u, s in self.worst_coeffs_exact)

    def to_dict(self) -> dict:
        """Every set field but the volatile ones, ``passed`` as "pass", with
        the rounded witness added and the exact pairs spelled out."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.compare and getattr(self, f.name) is not None}
        num, den = self.worst_gap_exact
        d.update({"pass": d.pop("passed"), "worst_gap": self.worst_gap,
                  "worst_coeffs": list(self.worst_coeffs),
                  "worst_gap_exact": {"num": num, "den": den},
                  "worst_coeffs_exact": [{"num": u, "scale_bits": s}
                                         for u, s in self.worst_coeffs_exact]})
        return d


def verify_hitting_net(pattern: Pattern, leading: Fraction, degree: int,
                       epsilon, nets: NetSpec) -> HittingReport:
    """Exact worst gap over every cell of the coefficient net, with
    transfer margin.

    Certifies every cell of the integer grids of ``nets`` as given: tested
    equals nets.total_cells, the cells certified. A ``_Cone`` scans the
    net into one ``_Scan``, which runs the kernel only on the cells
    (kernel_rows) that the cone cannot prove below a gap already found,
    2.2 M of the 10^7-cell net of the seed-0 n = 32 pattern, so the witness
    and its tie-break are those of a scan of every cell. By the cone's
    lemma, every real coefficient vector's gap exceeds a net cell's by at
    most the cone's slack, hence:

      * every interval of length worst_gap + slack is hit for EVERY real
        coefficient vector (recorded as epsilon_guaranteed, rounded up), and
      * the run passes iff worst_gap <= (9/10) * epsilon - slack.

    epsilon="auto" picks the smallest float epsilon that passes: the exact
    boundary rounded up, so rerunning at the reported epsilon passes too.
    """
    if pattern.universe == 0 or leading != Fraction(1, pattern.universe):
        raise ValueError("net verification expects leading = 1/universe "
                         "with the pattern confined to {0..universe-1}")
    # segments of the uint64 size at every word: the stride is set once a
    # segment and the floor once a block, so longer blocks would send more
    # cells to the kernel (at s = 13, a net of 8,192 cells ran every cell at
    # stride 1)
    kernel = _ExactKernel(pattern, leading, degree, block_rows(pattern.n))
    if (nets.degree, nets.universe, nets.scale_bits) != (degree, pattern.universe, kernel.s):
        raise ValueError("net spec does not match the pattern")
    cone = _Cone(kernel, pattern, nets)
    scan = _Scan(kernel)
    cone.scan(scan)
    found = scan.witness()
    gap = Fraction(*found["worst_gap_exact"])
    # lengths above 1 are meaningless on the circle; a clamped guarantee of
    # 1 means the net was too coarse to certify anything
    guaranteed = min(gap + cone.slack, Fraction(1))

    # both are reported rounded up, and auto's pass is judged on that float
    if epsilon == "auto":
        eps = Fraction(float_up(min(guaranteed * Fraction(10, 9), Fraction(1))))
    else:
        eps = Fraction(float(epsilon))
    return HittingReport(
        mode="net",
        epsilon=float(eps),
        passed=gap <= Fraction(9, 10) * eps - cone.slack,
        slack=float(cone.slack),
        epsilon_guaranteed=float_up(guaranteed),
        pattern_n=pattern.n, universe=pattern.universe, degree=degree,
        **found,
    )


def verify_hitting_sampled(pattern: Pattern, leading: Fraction, degree: int,
                           epsilon: float, n_samples: int, seed: int) -> HittingReport:
    """Monte Carlo surrogate: worst gap over random coefficient vectors.

    Coefficients are drawn as exact dyadics u/2^s (uniform on the fixed-point
    grid) and the leading coefficient is an exact rational, so each sampled
    gap is exact; no universal guarantee is implied.
    """
    if n_samples < 1:
        raise ValueError(f"samples (--samples) must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    kernel = _ExactKernel(pattern, leading, degree)
    scan = _Scan(kernel)
    # one block drawn at a time, certified before the next is drawn; the
    # generator draws element by element, so the stream, and the witness,
    # do not depend on the block size
    for lo in range(0, n_samples, scan.rows):
        scan.certify(rng.integers(0, 1 << kernel.s, dtype=np.uint64,
                                  size=(min(scan.rows, n_samples - lo), degree - 1)))
    found = scan.witness()
    return HittingReport(
        mode="sampled",
        epsilon=float(epsilon),
        passed=Fraction(*found["worst_gap_exact"]) <= Fraction(float(epsilon)),
        seed=seed,
        pattern_n=pattern.n, universe=pattern.universe, degree=degree,
        **found,
    )


# ---------------------------------------------------------------------------
# Elementary construction


def find_hitter(n: int, B: float, target: TorusInterval) -> int:
    """Index k in {0..n-1} with (k^2/m^2 + B k) mod 1 inside the target.

    Two-step constructive search, not an exhaustive scan: pick the smallest
    block index i with (B + 2i/m) mod 1 in [1/m, 3/m), then walk l = 0..m-1
    through positions stepping by theta + (2l+1)/m^2 < 5/m until the target
    (any interval of length >= min(1, 10/sqrt(n))) is entered. Membership of
    each walk index is decided on its exact residue; exhausting the walk
    would falsify the construction and raises.
    """
    if n < 16:
        raise ValueError("find_hitter needs n >= 16")
    m = math.isqrt(n)
    needed = min(1.0, 10.0 / math.sqrt(n))
    if float(target.length) < needed - 1e-12:
        raise ValueError(f"target length {target.length} below {needed}")
    admissible = [i for i in range(m)
                  if 1.0 / m <= (B + 2.0 * i / m) % 1.0 < 3.0 / m]
    walk = [i * m + l for i in admissible for l in range(m)]
    spec = PolySeqSpec(2, Fraction(1, m * m), (B,))
    pts = spec.residues(walk)
    for k, num in zip(walk, pts.nums):
        if target.contains(Fraction(num, pts.D)):
            return k
    raise RuntimeError(
        "block walk found no hitter; this contradicts the construction "
        f"(n={n}, B={B}, target start={target.start}, length={target.length})"
    )


# ---------------------------------------------------------------------------
# Calibration


def _sample_seed(pattern_seed: int) -> int:
    """Verification stream for a pattern seed (documented, reproducible)."""
    return (pattern_seed * 0x9E3779B97F4A7C15 + 0x5EED) % (1 << 63)


def _reaches(report: HittingReport, target: Optional[float]) -> bool:
    """Whether a target is set and the exact worst gap is at most it."""
    return target is not None and Fraction(*report.worst_gap_exact) <= Fraction(target)


@dataclass(frozen=True)
class CalibrationResult:
    """Smallest epsilon passing sampled verification, with the retry log."""

    target: Optional[float]
    pattern: Pattern
    pattern_seed: int
    attempts: tuple  # of (seed, worst_gap)
    report: HittingReport  # the best attempt's
    # rows sent to the kernel and those it sorted, over every attempt:
    # work counters, neither compared nor emitted here (the CLI shows them
    # in meta.counters)
    kernel_rows: int = field(default=0, compare=False)
    sorted_rows: int = field(default=0, compare=False)

    @property
    def achieved(self) -> bool:
        return self.target is None or _reaches(self.report, self.target)

    @property
    def epsilon_min(self) -> float:
        return self.report.worst_gap

    @property
    def n_samples(self) -> int:
        return self.report.tested

    def to_dict(self) -> dict:
        return {
            "achieved": self.achieved,
            "target": self.target,
            "epsilon_min": self.epsilon_min,
            "pattern_seed": self.pattern_seed,
            "n_samples": self.n_samples,
            "attempts": [{"seed": s, "worst_gap": w} for s, w in self.attempts],
        }


def calibrate_sampled(n: int, degree: int, universe: int, seed: int = 0,
                      n_samples: int = 10_000, retries: int = 1,
                      epsilon_target: Optional[float] = None) -> CalibrationResult:
    """Measure the smallest epsilon passing sampled verification.

    Draws a fresh pattern per attempt (seeds seed, seed+1, ...), each checked
    against its own derived sample stream; stops early when an attempt's
    exact worst gap reaches epsilon_target (compared as Fractions, so a gap a
    rounding step above the target does not count). The result reports the
    best attempt and the full log. This measures the constant achievable at
    this scale; it proves nothing about other coefficient vectors.
    """
    if retries < 1:
        raise ValueError(f"retries (--retries) must be >= 1, got {retries}")
    leading = Fraction(1, universe)
    tried = []
    for pattern_seed in range(seed, seed + retries):
        pattern = thin_pattern(n, universe, pattern_seed)
        report = verify_hitting_sampled(
            pattern, leading, degree, epsilon=1.0, n_samples=n_samples,
            seed=_sample_seed(pattern_seed),
        )
        tried.append((pattern_seed, pattern, report))
        if _reaches(report, epsilon_target):
            break
    # ranked by the exact gap (distinct gaps may round to one float); min
    # keeps the first of equal ones
    pattern_seed, pattern, report = min(
        tried, key=lambda a: Fraction(*a[2].worst_gap_exact))
    return CalibrationResult(
        target=epsilon_target,
        pattern=pattern,
        pattern_seed=pattern_seed,
        attempts=tuple((a[0], a[2].worst_gap) for a in tried),
        report=report,
        kernel_rows=sum(a[2].kernel_rows for a in tried),
        sorted_rows=sum(a[2].sorted_rows for a in tried),
    )

"""Annular obstruction sets: membership, closed-form 1-D measures, densities,
binomial reduction of dilated line copies to polynomial sequences mod 1,
and end-to-end no-copy checks.

The even-exponent set keeps dist(|x|_p^p, Z) away from 1/2 by a margin
(1-eps)/2; the odd-exponent set intersects the analogous conditions over
all sign vectors. Points of a dilated collinear copy inside the set force
the associated polynomial values mod 1 into one interval of length 1-eps,
which a verified hitting pattern forbids.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .torus import BudgetError
from .patterns import Pattern, PolySeqSpec


@dataclass(frozen=True)
class AnnulusSpec:
    """Obstruction set parameters: dimension, exponent, and band width.

    Even p: x is a member iff dist(|x|_p^p, Z) < (1-eps)/2.
    Odd p: membership requires the same for every signed power sum
    sum_i sigma_i x_i^p over sigma in {-1,1}^d.
    """

    dimension: int
    exponent: int
    epsilon: float

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.exponent < 2:
            raise ValueError("exponent must be >= 2")
        if not 0 <= self.epsilon < 1:
            raise ValueError("epsilon must be in [0, 1)")

    @property
    def parity(self) -> str:
        return "even" if self.exponent % 2 == 0 else "odd"

    @property
    def band_halfwidth(self) -> float:
        return (1.0 - self.epsilon) / 2.0

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "exponent": self.exponent,
                "epsilon": self.epsilon, "parity": self.parity}


# the Monte Carlo and no-copy loops work over tiles of about this many
# elements per working array, 512 KB of float64, so that a tile and its
# temporaries stay in cache across all their passes. A Monte Carlo tile holds
# points as (rows, d); the no-copy and copy tiles are index-major, (len(ks),
# rows), so that each copy's reduction over its indices runs down axis 0
_TILE_ELEMENTS = 1 << 16


def tile_rows(width: int) -> int:
    """Rows per tile of a (rows, width) or index-major (width, rows) working
    array, at least 256."""
    return max(256, _TILE_ELEMENTS // width)


def member(spec: AnnulusSpec, x: Sequence[float]) -> bool:
    """Membership predicate; float ties resolve toward non-membership."""
    return bool(members(spec, np.asarray(x, dtype=float)[None, :])[0])


class _Members:
    """Membership of tiles of up to ``rows`` points, in scratch that every
    tile reuses.

    x^p is formed by p - 1 left-to-right products, which cost a fraction of
    libm pow (at p = 2 this is x * x, the same bits as |x|^2). Each defining
    sum is then one ``powers @ sigma``: at even p the single sign vector
    (1, ..., 1), at odd p the 2^(d-1) with sigma_1 = +1, as sigma and -sigma
    give negated sums at the same distance to Z. That distance is taken as
    |v - rint(v)|, and v - rint(v) never rounds, so v and -v are at the same
    distance bit for bit. The loop stops once no point of the tile is left.
    """

    def __init__(self, spec: AnnulusSpec, rows: int):
        self.spec = spec
        self.powers = np.empty((rows, spec.dimension))
        self.f, self.g = np.empty((2, rows))
        self.below, self.ok = np.empty((2, rows), dtype=bool)
        self.ones = np.ones(spec.dimension)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Membership of each row of pts, as a view of the kernel's scratch
        that the next call overwrites."""
        n, d = len(pts), self.spec.dimension
        powers, f, g = self.powers[:n], self.f[:n], self.g[:n]
        below, ok = self.below[:n], self.ok[:n]
        np.multiply(pts, pts, out=powers)
        for _ in range(self.spec.exponent - 2):
            powers *= pts
        ok[...] = True
        sigmas = ((self.ones,) if self.spec.parity == "even" else
                  (np.asarray((1.0, *rest)) for rest in product((1.0, -1.0), repeat=d - 1)))
        for sigma in sigmas:
            if not ok.any():
                break
            np.matmul(powers, sigma, out=f)
            f -= np.rint(f, out=g)
            np.less(np.abs(f, out=f), self.spec.band_halfwidth, out=below)
            ok &= below
        return ok


def members(spec: AnnulusSpec, points: np.ndarray,
            scratch: Optional[_Members] = None) -> np.ndarray:
    """Vectorized membership for a (count, d) array of points. With a
    ``_Members`` scratch of at least count rows the result is a view of its
    buffers, valid until its next call."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.dimension:
        raise ValueError(f"expected shape (count, {spec.dimension})")
    return (_Members(spec, len(pts)) if scratch is None else scratch)(pts)


def _reflected(start: float, length: float) -> tuple:
    """Image of the arc [start, start+length) under t -> -t on the circle."""
    return ((1.0 - start - length) % 1.0, length)


# one_variable_measure: _DIRECT_TERMS root intervals, then Euler-Maclaurin
_DIRECT_TERMS = 64
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42)
_MEASURE_TOLERANCE = 1e-6


def _geometric(y, z, k: int):
    """sum_{i<k} y^i z^(k-1-i), which is (y^k - z^k) / (y - z)."""
    return sum(y ** i * z ** (k - 1 - i) for i in range(k))


def _falling(p: int, n: int) -> float:
    """(1/p)(1/p-1)...(1/p-n+1): the n-th derivative of x^(1/p) over x^(1/p-n)."""
    return math.prod(1.0 / p - i for i in range(n))


def _roots(m, alpha: float, beta: float, p: int) -> tuple:
    """y = (m+beta)^(1/p), z = (m+alpha)^(1/p) and y - z, factored."""
    y, z = (m + beta) ** (1.0 / p), (m + alpha) ** (1.0 / p)
    return y, z, (beta - alpha) / _geometric(y, z, p)


def _tail(p: int, alpha: float, beta: float, hi: int) -> float:
    """Euler-Maclaurin sum of f(m) = (m+beta)^(1/p) - (m+alpha)^(1/p) over
    K = _DIRECT_TERMS <= m < hi: p/(p+1) (y^(p+1) - z^(p+1)) - f/2 + sum_k
    B_2k/(2k)! f^(2k-1) at hi minus at K, with f^(n) = (1/p)_n (y^(1-pn) - z^(1-pn))."""
    total = 0.0
    for m, sign in ((hi, 1.0), (_DIRECT_TERMS, -1.0)):
        y, z, f = _roots(float(m), alpha, beta, p)
        total += sign * f * (p / (p + 1) * _geometric(y, z, p + 1) - 0.5)
        for k, bernoulli in enumerate(_BERNOULLI, 1):
            # y^-e - z^-e = -(y - z) / (y z) * _geometric(1/y, 1/z, e)
            e = p * (2 * k - 1) - 1
            total -= (sign * f / (y * z) * _geometric(1 / y, 1 / z, e)
                      * bernoulli / math.factorial(2 * k) * _falling(p, 2 * k - 1))
    return total


def _halfline_measure(p: int, start: float, length: float, T: float) -> float:
    """Measure of {t in [0, T] : t^p mod 1 in [start, start+length)}: the
    floor(T^p - b) + 1 whole pieces [(m+a)^(1/p), (m+b)^(1/p)), counted
    exactly, and the piece cut by T, each a factored root difference."""
    if length >= 1.0:
        return T
    arcs = [(start, min(start + length, 1.0))]
    if start + length > 1.0:
        arcs.append((0.0, start + length - 1.0))
    top = Fraction(T) ** p
    total = 0.0
    for alpha, beta in arcs:
        whole = max(0, math.floor(top - Fraction(beta)) + 1)
        head = np.arange(min(whole, _DIRECT_TERMS), dtype=float)
        total += math.fsum(_roots(head, alpha, beta, p)[2])
        if whole > _DIRECT_TERMS:
            total += _tail(p, alpha, beta, whole)
        cut = top - whole - Fraction(alpha)
        if cut > 0:  # T - (whole+alpha)^(1/p) = cut / sum T^i z^(p-1-i)
            total += float(cut) / _geometric(T, (whole + alpha) ** (1.0 / p), p)
    return total


def one_variable_measure(p: int, sigma: int, R: float, interval) -> float:
    """Measure of {t in [-R/2, R/2] : sigma*t^p mod 1 in I}, in closed form,
    for the arc I given as a (start, length) pair.

    Deviates from |I|*R by a bounded amount independent of R. Raises
    BudgetError when its numerical error bound exceeds 1e-6.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    start, length = float(interval[0]) % 1.0, float(interval[1])
    if not 0 < length <= 1:
        raise ValueError("interval length must be in (0, 1]")
    T = R / 2.0
    # Per half-line the Euler-Maclaurin remainder of _tail is at most |B_6|/6!
    # |f^(5)(K)| <= |B_6|/6! |(1/p)_6| |I| K^(1/p-6), as f^(6) keeps one sign;
    # rounding costs a few ulps of the O(T) antiderivative.
    J, K = len(_BERNOULLI), _DIRECT_TERMS
    bound = (2 * (abs(_BERNOULLI[-1] * _falling(p, 2 * J)) / math.factorial(2 * J)
                  * length * K ** (1.0 / p - 2 * J) + 16 * p * (T + K) * 2.0 ** -52)
             if p * math.log2(T) <= 1000 else math.inf)  # T^p must stay a float
    if bound > _MEASURE_TOLERANCE:
        raise BudgetError(f"one-variable measure at R={R}, p={p} has error bound "
                          f"{bound:.1e} above {_MEASURE_TOLERANCE:g}; lower --R")

    # t > 0 sees sigma * t^p, t = -s < 0 sees sigma * (-1)^p * s^p; a sign
    # of -1 reflects the arc
    pos, neg = ((start, length) if sg == 1 else _reflected(start, length)
                for sg in (sigma, sigma * (-1) ** p))
    if pos == neg:  # even p: both halves coincide
        return 2.0 * _halfline_measure(p, *pos, T)
    return _halfline_measure(p, *pos, T) + _halfline_measure(p, *neg, T)


@dataclass(frozen=True)
class DensityReport:
    """Measured volume fraction of a set in the centered cube of side R.

    exact-slice's error_bound 3/R (+ grid step h) leaves room for rounding: a
    computed measure is within 1e-6 of the exact one, which is within 3 of
    |I|*R (about 1.2 at even p), so rounding moves the fraction by <= 1e-6/R.
    """

    R: float
    fraction: float
    target: float
    target_kind: str           # "limit" (exact density) or "lower-bound"
    method: str                # "exact-slice" or "monte-carlo"
    detail: dict
    seed: Optional[int] = None
    std_error: Optional[float] = None
    error_bound: Optional[float] = None
    # Monte Carlo wall time: volatile, so not compared or emitted
    seconds: Optional[float] = field(default=None, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

    def to_dict(self) -> dict:
        d = {
            "R": self.R, "fraction": self.fraction, "target": self.target,
            "target_kind": self.target_kind, "method": self.method,
            "detail": dict(self.detail),
        }
        for key in ("seed", "std_error", "error_bound"):
            v = getattr(self, key)
            if v is not None:
                d[key] = v
        return d


_SLICE_GRID_STEP, _SLICE_NODE_BUDGET = 0.1, 200_000  # exact-slice nodes: spacing, cap


def density(spec: AnnulusSpec, R: float, method: str = "monte-carlo",
            seed: int = 0, samples: int = 1_000_000) -> DensityReport:
    """Volume fraction of the obstruction set in [-R/2, R/2]^d.

    exact-slice (even p, d <= 2): integrates the exact one-variable measure
    over a midpoint grid in the remaining coordinates. monte-carlo: uniform
    samples with per-block child seeds, so block order never matters; each
    2^18-sample block is drawn and tested in tiles of tile_rows(d) rows,
    which continue the block's one stream, so the hits are those of one
    (2^18, d) draw per block. One _Members kernel tests every tile in the
    same scratch.

    Monte Carlo precision guard: the computed F = |x|_p^p (or a signed power
    sum) is within B = (p + q + d - 1) 2^-53 d (R/2)^p, q = max(p - 1, 2), of
    the F of the uniform point, to first order in 2^-53. Per coordinate,
    rounding (u - 1/2) R costs up to p 2^-53 (R/2)^p and the p - 1 products
    that form x^p up to (p - 1) 2^-53 (R/2)^p, which q bounds (q = 2 keeps B
    as it was for a one-ulp power at p = 2, 3). The sums are powers @ sigma,
    added in BLAS's order; a +-1 product is exact, so whatever the order,
    each of the d - 1 additions rounds a partial sum of size at most
    d (R/2)^p and costs up to 2^-53 d (R/2)^p. Rounding moves
    only the samples within B of a band edge, about a 4B share, as F mod 1
    has two edges per unit. Once 4B reaches the sampling error
    1/(2 sqrt(samples)), BudgetError is raised before any sample is drawn.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if spec.parity == "even":
        target, kind = 1.0 - spec.epsilon, "limit"
    else:
        target, kind = 1.0 - 2 ** spec.dimension * spec.epsilon, "lower-bound"
    band_start = (1.0 + spec.epsilon) / 2.0
    band_length = 1.0 - spec.epsilon

    if method == "exact-slice":
        if spec.parity != "even":
            raise ValueError("exact-slice supports even exponents only; "
                             "use monte-carlo for odd exponents")
        if spec.dimension > 2:
            raise BudgetError("exact-slice is limited to d <= 2; use monte-carlo")
        # d = 2: midpoint nodes x_2 on [0, R/2], as the slice measure is even
        count = 1 if spec.dimension == 1 else max(1, math.ceil(R / 2.0 / _SLICE_GRID_STEP))
        if count > _SLICE_NODE_BUDGET:
            raise BudgetError(f"{count} quadrature nodes over budget "
                              f"{_SLICE_NODE_BUDGET}; lower --R")
        h = 0.0 if spec.dimension == 1 else R / 2.0 / count
        acc = 0.0
        for x2 in (np.arange(count) + 0.5) * h:
            acc += one_variable_measure(spec.exponent, 1, R, (
                (band_start - x2 ** spec.exponent) % 1.0, band_length)) / R
        detail = {"nodes": count} if spec.dimension == 1 else {"nodes": count, "grid_step": h}
        return DensityReport(R=R, fraction=min(acc / count, 1.0), target=target,
                             target_kind=kind, method="exact-slice",
                             detail=detail, error_bound=3.0 / R + h)

    if method != "monte-carlo":
        raise ValueError(f"unknown method {method!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p, d = spec.exponent, spec.dimension
    rounding = ((p + max(p - 1, 2) + d - 1) * d * 2.0 ** -53 * (R / 2.0) ** p
                if p * math.log2(R / 2.0) <= 1000 else math.inf)  # (R/2)^p must stay a float
    if 4 * rounding >= 0.5 / math.sqrt(samples):
        raise BudgetError(f"Monte Carlo density at R={R}, p={p}: |x|_p^p rounds by "
                          f"up to B = {rounding:.1e}, and the share 4B of samples it "
                          f"can move across a band edge is not below the sampling "
                          f"error {0.5 / math.sqrt(samples):.1e}; lower --R")
    start = time.perf_counter()
    block = 1 << 18
    children = np.random.SeedSequence(seed).spawn(-(-samples // block))
    pts = np.empty((min(tile_rows(d), samples), d))
    scratch = _Members(spec, len(pts))
    hits = 0
    for b, child in enumerate(children):
        rng = np.random.default_rng(child)
        take = min(block, samples - b * block)
        for lo in range(0, take, len(pts)):
            tile = pts[:min(len(pts), take - lo)]
            rng.random(out=tile)
            tile -= 0.5
            tile *= R
            hits += int(members(spec, tile, scratch).sum())
    frac = hits / samples
    return DensityReport(
        R=R, fraction=frac, target=target, target_kind=kind,
        method="monte-carlo", detail={"samples": samples, "hits": hits},
        seed=seed, std_error=math.sqrt(max(frac * (1 - frac), 1e-300) / samples),
        seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Dilated copies and the binomial reduction


def sample_lp_sphere(rng: np.random.Generator, count: int, d: int, p: float) -> np.ndarray:
    """Uniform points on the unit l^p sphere (cone measure).

    Coordinates are drawn with density proportional to exp(-|t|^p)
    (|t| = G^{1/p} with G Gamma-distributed of shape 1/p), then the vector
    is l^p-normalized.
    """
    g = rng.gamma(1.0 / p, 1.0, size=(count, d))
    mags = g ** (1.0 / p)
    signs = rng.integers(0, 2, size=(count, d)) * 2 - 1
    w = mags * signs
    norms = (np.abs(w) ** p).sum(axis=1) ** (1.0 / p)
    norms[norms == 0] = 1.0
    return w / norms[:, None]


def _scale(leading: Fraction, j: int, p: int) -> float:
    """The dilation scale r_j = (leading + j)^(1/p) of scale index j."""
    if float(leading) + j <= 0:
        raise ValueError(f"scale index {j} leaves leading + j <= 0")
    return (float(leading) + j) ** (1.0 / p)


@dataclass(frozen=True)
class ReductionCertificate:
    """Residuals certifying the binomial expansion of |x + r k v|_p^p."""

    constant_term: float
    leading_value: float
    leading_target: float
    leading_residual: float
    norm_residual: float
    identity_residual: float
    signs: tuple

    def to_dict(self) -> dict:
        return {
            "constant_term": self.constant_term,
            "leading_value": self.leading_value,
            "leading_target": self.leading_target,
            "leading_residual": self.leading_residual,
            "norm_residual": self.norm_residual,
            "identity_residual": self.identity_residual,
            "signs": list(self.signs),
        }


def _signs(v: np.ndarray, p: int) -> np.ndarray:
    """sigma_i = sign(v_i), +1 at v_i = 0, for odd p; all ones for even p."""
    return np.ones_like(v) if p % 2 == 0 else np.where(v >= 0, 1.0, -1.0)


def reduction_coefficients(x: np.ndarray, v: np.ndarray, r: float,
                           p: int) -> tuple:
    """Coefficients (B_0..B_{p-1}, leading) of the expanded signed power sum.

    With sigma_i = sign(v_i) for odd p (all ones for even p),

        F_sigma(x + r k v) = sum_l B_l k^l + (r^p |v|_p^p) k^p,
        B_l = C(p, l) r^l sum_i sigma_i x_i^{p-l} v_i^l.
    x and v have shape (d,) or (count, d); the sums run over the last axis.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    signs = _signs(v, p)
    coeffs = tuple(math.comb(p, l) * r ** l * (signs * x ** (p - l) * v ** l).sum(axis=-1)
                   for l in range(p))
    leading = r ** p * (signs * v ** p).sum(axis=-1)
    return coeffs, leading, signs


def reduce_to_polynomial(spec: AnnulusSpec, pattern: Pattern, x, v, j: int,
                         leading: Fraction):
    """Polynomial whose values mod 1 reproduce the set's defining function
    along the copy {x + r_j k v : k in pattern}, r_j = (leading + j)^(1/p),
    after dropping the constant term and the integer multiple of k^p.

    Returns (PolySeqSpec, ReductionCertificate); the certificate records the
    leading-coefficient identity r_j^p |v|_p^p = leading + j and a direct
    evaluation residual over sample indices.
    """
    p = spec.exponent
    r = _scale(leading, j, p)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    norm = float((np.abs(v) ** p).sum() ** (1.0 / p))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction is not l^p-unit: norm residual {norm - 1.0}")
    coeffs, lead_val, sgn = reduction_coefficients(x, v, r, p)
    coeffs, signs = tuple(float(c) for c in coeffs), tuple(int(s) for s in sgn)
    target = float(leading) + j

    ks = list(pattern.indices)
    if len(ks) > 64:
        step = max(1, len(ks) // 64)
        ks = ks[::step] + [pattern.indices[-1]]
    worst = 0.0
    for k in ks:
        y = x + r * k * v
        direct = float((sgn * y ** p).sum())
        horner = lead_val
        for l in range(p - 1, -1, -1):
            horner = horner * k + coeffs[l]
        worst = max(worst, abs(direct - horner) / (1.0 + abs(horner)))

    cert = ReductionCertificate(
        constant_term=coeffs[0],
        leading_value=lead_val,
        leading_target=target,
        leading_residual=abs(lead_val - target),
        norm_residual=abs(norm - 1.0),
        identity_residual=worst,
        signs=signs,
    )
    poly = PolySeqSpec(p, leading, tuple(coeffs[1:]))
    return poly, cert


# ---------------------------------------------------------------------------
# No-copy checks


@dataclass(frozen=True)
class NoCopyReport:
    """Per-scale counts of sampled copies that landed entirely inside the set."""

    epsilon: float
    placements_total: int
    violations_total: int
    per_scale: tuple
    worst_margin: float
    route_mismatches: int
    # wall time of each route and the copies the direct route took in
    # extended precision: volatile, so not compared or emitted
    poly_route_s: float = field(default=0.0, compare=False)
    direct_route_s: float = field(default=0.0, compare=False)
    extended_copies: int = field(default=0, compare=False)

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "placements_total": self.placements_total,
            "violations_total": self.violations_total,
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "route_mismatches": self.route_mismatches,
            "per_scale": [dict(s) for s in self.per_scale],
        }


# no_copy_check samples base points in the cube of half-side _BOX_SCALE * r
_BOX_SCALE = 10.0


def _placements(rng: np.random.Generator, count: int, d: int, p: int, r: float,
                ks: np.ndarray) -> tuple:
    """One scale's copies as no_copy_check draws them: base points xs in the
    cube of half-side _BOX_SCALE * r, l^p-unit directions vs, and the
    magnitude M^p, M = max|x_i| + r * max|k| * max|v_i|, that bounds |F|."""
    L = _BOX_SCALE * r
    xs = (rng.random((count, d)) - 0.5) * 2 * L
    vs = sample_lp_sphere(rng, count, d, p)
    magnitude = (np.abs(xs).max() + r * np.abs(ks).max() * np.abs(vs).max()) ** p
    return xs, vs, magnitude


def _rounding_bound(magnitude: float, d: int, p: int, dtype) -> float:
    """d (4p + d + 5) eps M^p + 2^-48, eps being dtype's machine epsilon: how
    far a margin a route computes in dtype lies from the exact one."""
    return d * (4 * p + d + 5) * magnitude * float(np.finfo(dtype).eps) + 2.0 ** -48


def _direct_margins(X, V, rk, sgn, p: int, w: float, F, T, cast, out) -> None:
    """Write to out the direct route's margins max_k (dist_k - w) of the
    copies x + (r k) v, in the precision of X, V, rk and the index-major
    (len(ks), rows) buffers F and T, so that the max over k runs down axis
    0. F is the first coordinate's term plus the others in coordinate order,
    and the float cast of F - rint F into the float64 (len(ks), rows) buffer
    cast (F itself at float64) comes before abs, as rounding is
    sign-symmetric."""
    for i in range(X.shape[1]):
        Y = T if i else F
        np.multiply(rk[:, None], V[:, i], out=Y)
        Y += X[:, i]
        Y **= p
        if p % 2:
            Y *= sgn[:, i]
        if i:
            F += Y
    F -= np.rint(F, out=T)
    cast[...] = F
    np.abs(cast, out=cast).max(axis=0, out=out)
    out -= w


def no_copy_check(spec: AnnulusSpec, pattern: Pattern, leading: Fraction,
                  j_list: Sequence[int], placements_per_scale: int,
                  seed: int = 0, pattern_epsilon: Optional[float] = None) -> NoCopyReport:
    """Sample dilated line copies and confirm each has a point outside the set.

    A copy inside the set would put all its defining-function values mod 1
    into one interval of length 1-eps; a pattern whose gap stays below eps
    for every coefficient vector forbids that. Membership of every copy
    point is decided directly, and the polynomial route is cross-checked;
    ``pattern_epsilon`` is the length the pattern was verified to hit and
    must not exceed the set's epsilon.

    Precision guard: with M = max|x_i| + r * max|k| * max|v_i| per scale, a
    route computes each F within d (4p + d + 5) eps M^p + 2^-48, eps being its
    machine epsilon: longdouble (``bound``) or float64 (``poly_bound``) for
    the direct route (three roundings in Y = x + (r k) v, the p-th power,
    the d-term sum, added in coordinate order), float64 for the polynomial
    one (the B_l k^l terms, of total size <= d M^p); 2^-48 covers the float64
    mod-1 and comparison steps. A copy is decided when its longdouble margin
    max_k (dist_k - w) lies farther than ``bound`` from 0, and any undecided
    copy raises BudgetError; when ``bound`` reaches max(w, 1/2 - w), which
    no margin can exceed, it is raised before either route runs. A route
    mismatch is a polynomial margin of the other sign that its own bound
    decides.

    Screen: the direct route first runs in float64, whose margin m64 lies
    within delta = poly_bound + bound of the longdouble one, and then redoes
    in longdouble exactly the copies with |m64| <= delta + bound (their sign
    or decidedness could differ) or m64 <= min m64 + 2 delta (they could hold
    the longdouble minimum); the others keep m64. The report reads only the
    margins' signs, |m| <= bound and their minimum, so it is the all-
    longdouble report bit for bit: a kept copy has |m_ld| > bound and the
    sign of m64, and m_ld > min m64 + delta, at least the longdouble margin
    of the redone copy that holds min m64. Margins lie in [-1/2, 1/2], so
    rounding the two thresholds moves them by far less than the 2^-48 in
    each bound. When delta + bound reaches max(w, 1/2 - w), which bounds
    every |m64|, the sign condition alone redoes every copy. Both routes
    run over tiles of tile_rows(len(ks)) placements, and the redo over
    tiles of as many redone copies, one index-major (len(ks), tile) array
    per stage reused by every tile, and give the margins of whole-array
    passes bit for bit: products commute exactly, and a max is exact in
    any order.
    """
    if pattern_epsilon is not None and pattern_epsilon > spec.epsilon:
        raise ValueError(
            f"inconsistent epsilon: pattern verified at {pattern_epsilon}, "
            f"set built with {spec.epsilon}"
        )
    if placements_per_scale < 1:
        raise ValueError("placements per scale (--samples) must be >= 1")
    p, d = spec.exponent, spec.dimension
    w = spec.band_halfwidth
    ks = np.asarray(pattern.indices, dtype=float)
    k_powers = [ks ** l for l in range(p)]
    lead_vals = PolySeqSpec(p, leading).values(pattern.indices)
    rows = min(tile_rows(len(ks)), placements_per_scale)
    # flat scratch, viewed as contiguous (len(ks), n) arrays for a tile of n
    vals, term, tmp = np.empty((3, len(ks) * rows))
    F, T = np.empty((2, len(ks) * rows), dtype=np.longdouble)
    poly_margins, margins = np.empty((2, placements_per_scale))
    redone = np.empty(rows)

    children = np.random.SeedSequence(seed).spawn(len(j_list))
    per_scale = []
    mismatches = extended = 0
    poly_s = direct_s = 0.0
    for j, child in zip(j_list, children):
        r = _scale(leading, j, p)
        xs, vs, magnitude = _placements(np.random.default_rng(child),
                                        placements_per_scale, d, p, r, ks)
        bound = _rounding_bound(magnitude, d, p, np.longdouble)
        poly_bound = _rounding_bound(magnitude, d, p, float)
        delta = poly_bound + bound
        # a margin max_k (dist_k - w) lies in [-w, 1/2 - w], so a bound this
        # large leaves every copy undecided, and neither route need run
        undecided = placements_per_scale
        if bound < max(w, 0.5 - w):
            rk = r * ks
            for lo in range(0, placements_per_scale, rows):
                hi = min(lo + rows, placements_per_scale)
                v, t, u = (a[:len(ks) * (hi - lo)].reshape(len(ks), hi - lo)
                           for a in (vals, term, tmp))

                # polynomial route: j*k^p is an integer and drops mod 1, the
                # leading rational term comes from the exact table, the rest
                # from the binomial coefficients of each placement (constant
                # term included, it aligns the values with the membership
                # band). t - floor(t) is t % 1.0 bit for bit on every finite
                # double, without fmod; x - w is monotone in x, so it is
                # taken after the max over k
                start = time.perf_counter()
                coeffs, _, sgn = reduction_coefficients(xs[lo:hi], vs[lo:hi], r, p)
                v[...] = lead_vals[:, None]
                for B_l, k_l in zip(coeffs, k_powers):
                    np.multiply(k_l[:, None], B_l, out=t)
                    t -= np.floor(t, out=u)
                    v += t
                    v -= np.floor(v, out=u)
                v -= np.rint(v, out=u)
                np.abs(v, out=v).max(axis=0, out=poly_margins[lo:hi])
                poly_margins[lo:hi] -= w
                poly_s += time.perf_counter() - start

                # the direct route's float64 screen
                start = time.perf_counter()
                _direct_margins(xs[lo:hi], vs[lo:hi], rk, sgn, p, w, t, u, t,
                                margins[lo:hi])
                direct_s += time.perf_counter() - start

            # the direct route in extended precision, on the copies the
            # screen cannot place
            start = time.perf_counter()
            redo = np.flatnonzero((np.abs(margins) <= delta + bound)
                                  | (margins <= margins.min() + 2 * delta))
            rk = np.longdouble(r) * ks
            for lo in range(0, len(redo), rows):
                sel = redo[lo:lo + rows]
                n = len(sel)
                _direct_margins(xs[sel].astype(np.longdouble), vs[sel].astype(np.longdouble),
                                rk, _signs(vs[sel], p), p, w,
                                *(a[:len(ks) * n].reshape(len(ks), n) for a in (F, T, term)),
                                redone[:n])
                margins[sel] = redone[:n]
            extended += len(redo)
            direct_s += time.perf_counter() - start
            undecided = int((np.abs(margins) <= bound).sum())
        if undecided:
            raise BudgetError(
                f"no-copy check at j={j}: max |F| <= {magnitude:.3g} gives a rounding "
                f"error bound {bound:.3g} against the band half-width w = {w:.6g}; "
                f"{undecided} of {placements_per_scale} copies are undecided, as "
                "the pattern's universe is too large for extended precision")
        inside = margins < 0
        mismatches += int(((np.abs(poly_margins) > poly_bound)
                           & ((poly_margins < 0) != inside)).sum())
        per_scale.append({
            "j": int(j),
            "scale": r,
            "placements": placements_per_scale,
            "violations": int(inside.sum()),
            "worst_margin": float(margins.min()),
        })

    return NoCopyReport(
        epsilon=spec.epsilon,
        placements_total=placements_per_scale * len(j_list),
        violations_total=sum(s["violations"] for s in per_scale),
        per_scale=tuple(per_scale),
        worst_margin=min((s["worst_margin"] for s in per_scale), default=math.inf),
        route_mismatches=mismatches,
        poly_route_s=poly_s,
        direct_route_s=direct_s,
        extended_copies=extended,
    )

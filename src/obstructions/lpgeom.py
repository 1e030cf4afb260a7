"""l^p geometry: norms, Clarkson inequalities, collinear copy recovery, and
the non-collinear cross configuration with its coordinate-sum obstruction set.

For p in (1, infinity) the l^p norm is strictly convex, so triangle equality
forces same-direction parallel vectors; for p != 2 the Clarkson inequalities
are equalities exactly for disjoint-support pairs. Those two facts drive all
the deductions here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .annuli import tile_rows
from .torus import Residues, max_circular_gap

EQUALITY_TOL = 1e-12
SUPPORT_TOL = 1e-9
UNIT_TOL = 1e-9            # unit norms and diameters; recover_line's direction
RESIDUAL_TOL = 1e-6        # sign_axis_deduction: antipodal and Clarkson residuals
DISTANCE_TOL = 1e-9        # recover_line: pairwise distances, relative
RECONSTRUCTION_TOL = 1e-8  # recover_line: reconstruction residual, relative


def lp_norm(x, p: float) -> float:
    """(sum |x_i|^p)^(1/p), scaled by max|x_i| to dodge overflow."""
    v = np.abs(np.asarray(x, dtype=float))
    if v.size == 0:
        return 0.0
    top = float(v.max())
    if top == 0.0:
        return 0.0
    return top * float(((v / top) ** p).sum() ** (1.0 / p))


@dataclass(frozen=True)
class ClarksonResult:
    direction_holds: bool
    equality: bool
    lhs: float
    rhs: float
    disjoint_support: bool

    def to_dict(self) -> dict:
        return {"direction_holds": self.direction_holds, "equality": self.equality,
                "lhs": self.lhs, "rhs": self.rhs,
                "disjoint_support": self.disjoint_support}


def clarkson_check(x, y, p: float) -> ClarksonResult:
    """Check |x+y|_p^p + |x-y|_p^p against 2(|x|_p^p + |y|_p^p).

    The sum dominates for p > 2 and is dominated for 1 < p < 2, with
    equality iff x and y share no index with nonzero coordinates. p = 2 is
    excluded (the two sides are identically equal).
    """
    if p == 2:
        raise ValueError("p = 2 is excluded (parallelogram identity)")
    if not p > 1:
        raise ValueError("need p > 1")
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    lhs = float((np.abs(xv + yv) ** p).sum() + (np.abs(xv - yv) ** p).sum())
    rhs = 2.0 * float((np.abs(xv) ** p).sum() + (np.abs(yv) ** p).sum())
    slack = EQUALITY_TOL * (1.0 + abs(rhs))
    equality = abs(lhs - rhs) <= slack
    direction = lhs >= rhs - slack if p > 2 else lhs <= rhs + slack
    disjoint = not bool(((xv != 0) & (yv != 0)).any())
    return ClarksonResult(direction, equality, lhs, rhs, disjoint)


@dataclass(frozen=True)
class LineCopy:
    """Recovered line parameters: points are x + r t v for t in params."""

    x: tuple
    v: tuple
    r: float
    params: tuple
    degenerate: bool = False  # single point, direction fixed by convention

    def reconstruct(self, t: float) -> np.ndarray:
        return np.asarray(self.x) + self.r * t * np.asarray(self.v)


def recover_line(points: Mapping[float, Sequence[float]], p: float,
                 r: float) -> LineCopy:
    """Recover (x, v) from a scaled l^p-isometric copy of a set on the line.

    Input maps parameters t to points y_t with |y_s - y_t|_p = r|s - t|.
    Strict convexity pins every y_t to the segment between the extreme
    points, so v = (y_b - y_a) / (r(b - a)) and x = y_a - r a v with
    a = min, b = max. The distance precondition is checked for all pairs
    (worst offending pair named on failure) and the reconstruction residual
    is verified before returning.
    """
    if not points:
        raise ValueError("empty point collection")
    params = sorted(points)
    ys = {t: np.asarray(points[t], dtype=float) for t in params}
    if len(params) == 1:
        t0 = params[0]
        d = len(ys[t0])
        v = np.zeros(d)
        v[0] = 1.0
        x = ys[t0] - r * t0 * v
        return LineCopy(tuple(x), tuple(v), r, (t0,), degenerate=True)

    a, b = params[0], params[-1]
    span = r * (b - a)
    scale = max(1.0, span)
    worst = (0.0, None)
    for i, s in enumerate(params):
        for t in params[i + 1:]:
            err = abs(lp_norm(ys[s] - ys[t], p) - r * abs(s - t))
            if err > worst[0]:
                worst = (err, (s, t))
    if worst[0] > DISTANCE_TOL * scale:
        raise ValueError(
            f"distance precondition violated at pair {worst[1]}: "
            f"residual {worst[0]:.3e} exceeds {DISTANCE_TOL * scale:.3e}; "
            "input is not a scaled copy of a collinear set"
        )

    v = (ys[b] - ys[a]) / span
    x = ys[a] - r * a * v
    vnorm = lp_norm(v, p)
    if abs(vnorm - 1.0) > UNIT_TOL:
        raise ValueError(f"recovered direction norm {vnorm} is not 1")
    recon = max(lp_norm(ys[t] - (x + r * t * v), p) for t in params)
    if recon > RECONSTRUCTION_TOL * scale:
        raise ValueError(
            f"reconstruction residual {recon:.3e} exceeds "
            f"{RECONSTRUCTION_TOL * scale:.3e}; input is near-degenerate"
        )
    return LineCopy(tuple(float(c) for c in x), tuple(float(c) for c in v),
                    r, tuple(params))


# ---------------------------------------------------------------------------
# The cross configuration and its obstruction set


@dataclass(frozen=True)
class CoordSumBand:
    """Set of x with (x_1 + ... + x_d) mod 1 in [0, 1 - epsilon)."""

    dimension: int
    epsilon: float

    def member(self, x) -> bool:
        return bool(self.members(np.asarray(x, dtype=float)[None, :])[0])

    def members(self, points: np.ndarray) -> np.ndarray:
        s = np.asarray(points, dtype=float).sum(axis=1)
        return s % 1.0 < 1.0 - self.epsilon

    def scale(self, j: int) -> float:
        """Dilation scale r_j = j + epsilon."""
        if j < 1:
            raise ValueError("scale index must be >= 1")
        return j + self.epsilon

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "epsilon": self.epsilon}


def cross_configuration(d: int, n: int):
    """The n-point cross: {k e_1 : k = -1..n-2d} plus +-e_2..+-e_d.

    Returns (points, CoordSumBand) with epsilon = 1/(n - 2d + 2): points is
    a tuple of n distinct d-tuples, as the axis progression has n - 2d + 2
    points and the off-axis unit pairs contribute 2(d - 1).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 2 * d + 1:
        raise ValueError(f"need n >= 2d + 1 = {2 * d + 1}")
    eps = 1.0 / (n - 2 * d + 2)
    pts = []
    for k in range(-1, n - 2 * d + 1):
        e = [0.0] * d
        e[0] = float(k)
        pts.append(tuple(e))
    for i in range(2, d + 1):
        for sign in (1.0, -1.0):
            e = [0.0] * d
            e[i - 1] = sign
            pts.append(tuple(e))
    return tuple(pts), CoordSumBand(d, eps)


def equally_spaced_obstruction(count: int) -> bool:
    """No half-open arc of length 1 - 1/count holds all of {k/count}.

    A set fits in a half-open arc of length L iff one of its circular gaps
    exceeds 1 - L, so this is one exact max_circular_gap against 1/count.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    gap = max_circular_gap(Residues(list(range(count)), count))
    return gap <= Fraction(1, count)


@dataclass(frozen=True)
class SignAxisResult:
    """Outcome of the disjoint-support deduction for one direction vector."""

    status: str                      # "confirmed", "failed", or "incomplete"
    axis: Optional[int] = None       # 0-based coordinate index
    sign: Optional[int] = None
    failed_hypothesis: Optional[str] = None
    witness: Optional[dict] = None
    residuals: Optional[dict] = None

    @property
    def confirmed(self) -> bool:
        return self.status == "confirmed"

    def to_dict(self) -> dict:
        d = {"status": self.status}
        for key in ("axis", "sign", "failed_hypothesis", "witness", "residuals"):
            v = getattr(self, key)
            if v is not None:
                d[key] = v
        return d


def _support(x: np.ndarray) -> set:
    return set(np.nonzero(np.abs(x) > SUPPORT_TOL)[0].tolist())


def sign_axis_deduction(u, v_list, p: float, v_minus_list=None) -> SignAxisResult:
    """Deduce that u is a signed standard basis vector.

    Hypotheses, checked in order with the first failure reported:
      1. all inputs are l^p-unit (within UNIT_TOL);
      2. if the antipodes v_i^- are supplied, |v_i^+ - v_i^-|_p = 2, which
         by strict convexity forces v_i^- = -v_i^+;
      3. |v_i - u|_p^p + |v_i + u|_p^p = 4 (Clarkson equality), forcing
         disjoint supports of u and v_i;
      4. the same pairwise among the v_i.
    With d vectors total in R^d and pairwise disjoint nonzero supports, every
    support is a singleton; the axis index and sign of u are returned. Fewer
    than d vectors confirm disjointness only ("incomplete").
    """
    if p == 2:
        raise ValueError("p = 2 is excluded")
    if not p > 1:
        raise ValueError("need p > 1")
    uv = np.asarray(u, dtype=float)
    d = len(uv)
    vs = [np.asarray(v, dtype=float) for v in v_list]
    residuals = {}

    vectors = [("u", uv)] + [(f"v{i+2}", v) for i, v in enumerate(vs)]
    for name, vec in vectors:
        res = abs(lp_norm(vec, p) - 1.0)
        residuals[f"unit:{name}"] = res
        if res > UNIT_TOL:
            return SignAxisResult("failed", failed_hypothesis="unit-norm",
                                  witness={"vector": name, "residual": res},
                                  residuals=residuals)

    if v_minus_list is not None:
        for i, (vp, vm) in enumerate(zip(vs, v_minus_list)):
            vm = np.asarray(vm, dtype=float)
            diam = abs(lp_norm(vp - vm, p) - 2.0)
            anti = lp_norm(vp + vm, p)
            residuals[f"antipodal:v{i+2}"] = anti
            if diam > UNIT_TOL:
                return SignAxisResult("failed", failed_hypothesis="diameter",
                                      witness={"pair": f"v{i+2}", "residual": diam},
                                      residuals=residuals)
            if anti > RESIDUAL_TOL:
                return SignAxisResult("failed", failed_hypothesis="antipodal",
                                      witness={"pair": f"v{i+2}", "residual": anti},
                                      residuals=residuals)

    pairs = [(f"v{i+2}", v, "u", uv) for i, v in enumerate(vs)]
    pairs += [(f"v{i+2}", vs[i], f"v{m+2}", vs[m])
              for i in range(len(vs)) for m in range(i + 1, len(vs))]
    for name_a, a, name_b, b in pairs:
        lhs = float((np.abs(a - b) ** p).sum() + (np.abs(a + b) ** p).sum())
        res = abs(lhs - 4.0)
        residuals[f"clarkson:{name_a},{name_b}"] = res
        if res > RESIDUAL_TOL:
            return SignAxisResult("failed", failed_hypothesis="clarkson-equality",
                                  witness={"pair": (name_a, name_b), "lhs": lhs},
                                  residuals=residuals)
        if _support(a) & _support(b):
            return SignAxisResult("failed", failed_hypothesis="support-disjoint",
                                  witness={"pair": (name_a, name_b)},
                                  residuals=residuals)

    if len(vs) != d - 1:
        return SignAxisResult("incomplete", residuals=residuals)

    supports = [_support(vec) for _, vec in vectors]
    for name_vec, sup in zip(vectors, supports):
        if len(sup) != 1:
            return SignAxisResult("failed", failed_hypothesis="singleton-support",
                                  witness={"vector": name_vec[0],
                                           "support": sorted(sup)},
                                  residuals=residuals)
    axis = supports[0].pop()
    return SignAxisResult("confirmed", axis=int(axis),
                          sign=1 if uv[axis] > 0 else -1, residuals=residuals)


@dataclass(frozen=True)
class CopyCheckReport:
    """Axis-aligned placement scan of the cross configuration's set."""

    d: int
    n: int
    scale_index: int
    epsilon: float
    placements: int
    violations: int
    first_violations: tuple = ()

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "scale_index": self.scale_index,
                "epsilon": self.epsilon, "placements": self.placements,
                "violations": self.violations, "pass": self.passed,
                "first_violations": [dict(v) for v in self.first_violations]}


def copy_sampler_check(d: int, n: int, j: int, placements: int,
                       seed: int = 0, epsilon: Optional[float] = None) -> CopyCheckReport:
    """Sample axis-aligned placements of the dilated axis progression.

    These are the only placements the deduction chain leaves possible:
    points x + sigma r_j k e_l with k = -1..n-2d. With epsilon = 1/(n-2d+2)
    the coordinate sums step through n-2d+2 equally spaced residues mod 1,
    one of which must land in the forbidden arc, so zero violations are
    expected; epsilon=0 documents the sharpness (the set becomes everything
    and every placement fits).
    """
    _, band = cross_configuration(d, n)
    eps = band.epsilon if epsilon is None else float(epsilon)
    r = j + eps
    ks = np.arange(-1, n - 2 * d + 1, dtype=float)
    rng = np.random.default_rng(seed)
    L = 10.0 * r
    xs = (rng.random((placements, d)) - 0.5) * 2 * L
    axes = rng.integers(0, d, size=placements)
    signs = rng.integers(0, 2, size=placements) * 2 - 1
    base, steps = xs.sum(axis=1), signs * r
    # the coordinate sums base + sigma r k, tile by tile; x - floor(x) is
    # x % 1.0 bit for bit on every finite double
    vals, floors = np.empty((2, tile_rows(len(ks)), len(ks)))
    inside = np.empty(vals.shape, dtype=bool)
    violate = np.empty(placements, dtype=bool)
    for lo in range(0, placements, len(vals)):
        hi = min(lo + len(vals), placements)
        v, ins = vals[:hi - lo], inside[:hi - lo]
        np.multiply(steps[lo:hi, None], ks, out=v)
        v += base[lo:hi, None]
        v -= np.floor(v, out=floors[:hi - lo])
        np.less(v, 1.0 - eps, out=ins).all(axis=1, out=violate[lo:hi])
    idx = np.nonzero(violate)[0][:5]
    first = tuple(
        {"x": [float(c) for c in xs[i]], "axis": int(axes[i]) + 1,
         "sign": int(signs[i])}
        for i in idx
    )
    return CopyCheckReport(d=d, n=n, scale_index=j, epsilon=eps,
                           placements=placements, violations=int(violate.sum()),
                           first_violations=first)

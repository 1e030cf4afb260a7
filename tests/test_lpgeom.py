import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructions import (
    CopyCheckReport,
    clarkson_check,
    copy_sampler_check,
    cross_configuration,
    equally_spaced_obstruction,
    lp_norm,
    recover_line,
    sample_lp_sphere,
    sign_axis_deduction,
)
from obstructions.annuli import tile_rows


# ---------------------------------------------------------------------------
# norms


def test_lp_norm_examples():
    assert lp_norm([1, 0, 0], 3) == 1.0
    assert lp_norm([1, 1], 2) == pytest.approx(math.sqrt(2))
    assert lp_norm([3, 4], 2) == pytest.approx(5.0)


def test_lp_norm_overflow_safe():
    assert lp_norm([1e300, 1e300], 4) == pytest.approx(1e300 * 2 ** 0.25)
    assert lp_norm([0.0, 0.0], 3) == 0.0


def test_triangle_strict_convexity():
    def defect(u, w, p):  # |u|_p + |w|_p - |u+w|_p
        return lp_norm(u, p) + lp_norm(w, p) - lp_norm(u + w, p)

    rng = np.random.default_rng(1)
    for p in (1.5, 2, 3, 7):
        u = rng.normal(size=4)
        assert defect(u, 2.5 * u, p) == pytest.approx(0.0, abs=1e-12)
        w = rng.normal(size=4)
        if lp_norm(np.cross(u[:3], w[:3]), 2) > 1e-6:  # generically non-parallel
            assert defect(u, w, p) > 0


# ---------------------------------------------------------------------------
# Clarkson


def test_clarkson_examples():
    r = clarkson_check([1, 0], [0, 1], 3)
    assert r.equality and r.disjoint_support and r.lhs == pytest.approx(4.0)
    r = clarkson_check([1, 0], [1, 0], 4)
    assert r.direction_holds and not r.equality
    assert r.lhs == pytest.approx(16.0) and r.rhs == pytest.approx(4.0)
    r = clarkson_check([1, 0], [1, 0], 1.5)
    assert r.direction_holds and not r.equality
    assert r.lhs == pytest.approx(2 ** 1.5) and r.rhs == pytest.approx(4.0)


def test_clarkson_rejects_p_two():
    with pytest.raises(ValueError):
        clarkson_check([1, 0], [0, 1], 2)
    with pytest.raises(ValueError):
        clarkson_check([1, 0], [0, 1], 0.5)


@pytest.mark.parametrize("p", [1.5, 3, 4, 7])
def test_clarkson_direction_and_equality_iff(p):
    rng = np.random.default_rng(int(p * 10))
    d = 6
    for _ in range(400):
        # random support patterns; entries bounded away from zero so shared
        # support forces a visible defect
        sup_x = rng.random(d) < 0.6
        sup_y = rng.random(d) < 0.6
        x = np.where(sup_x, rng.uniform(0.2, 2.0, d) * rng.choice([-1, 1], d), 0.0)
        y = np.where(sup_y, rng.uniform(0.2, 2.0, d) * rng.choice([-1, 1], d), 0.0)
        r = clarkson_check(x, y, p)
        assert r.direction_holds
        assert r.equality == r.disjoint_support


# ---------------------------------------------------------------------------
# line recovery


def test_recover_line_axis():
    pts = {t: np.array([t, 0.0]) for t in (0, 1, 2)}
    lc = recover_line(pts, 3, 1.0)
    assert lc.x == (0.0, 0.0) and lc.v == (1.0, 0.0)


def test_recover_line_example():
    x0, v0, r = np.array([1.0, 1.0]), np.array([0.6, 0.8]), 3.0
    pts = {t: x0 + r * t * v0 for t in (-1, 0, 2)}
    lc = recover_line(pts, 2, r)
    for t in (-1, 0, 2):
        assert np.allclose(lc.reconstruct(t), pts[t], atol=1e-12)


def test_recover_line_rejects_corruption():
    pts = {t: np.array([t, 0.0]) for t in (0, 1, 2)}
    pts[1] = pts[1] + np.array([0.0, 1e-3])
    with pytest.raises(ValueError) as err:
        recover_line(pts, 2, 1.0)
    assert "pair" in str(err.value)


def test_recover_line_degenerate_single_point():
    lc = recover_line({2.0: np.array([5.0, 7.0])}, 2, 1.0)
    assert lc.degenerate and lc.v == (1.0, 0.0)
    assert np.allclose(lc.reconstruct(2.0), [5.0, 7.0])


@pytest.mark.parametrize("p", [1.5, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_recover_line_round_trips(p, d):
    rng = np.random.default_rng(d * 10 + int(p * 2))
    for _ in range(40):
        x0 = rng.normal(size=d) * 5
        v0 = sample_lp_sphere(rng, 1, d, p)[0]
        r = float(rng.uniform(0.5, 4.0))
        params = sorted(rng.choice(np.arange(-6, 7), size=4, replace=False))
        pts = {float(t): x0 + r * t * v0 for t in params}
        lc = recover_line(pts, p, r)
        for t, y in pts.items():
            assert lp_norm(lc.reconstruct(t) - y, p) <= 1e-8


# ---------------------------------------------------------------------------
# cross configuration and its set


def test_cross_configuration_example_d2_n8():
    points, band = cross_configuration(2, 8)
    expected = {(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0),
                (4.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    assert len(points) == 8 and set(points) == expected
    assert band.epsilon == pytest.approx(1 / 6)


def test_cross_configuration_d1():
    points, band = cross_configuration(1, 3)
    assert len(points) == 3 and set(points) == {(-1.0,), (0.0,), (1.0,)}
    assert band.epsilon == pytest.approx(1 / 3)


def test_cross_configuration_cardinality_sweep():
    for d in range(1, 5):
        for n in range(2 * d + 1, 41):
            points, band = cross_configuration(d, n)
            assert len(set(points)) == len(points) == n
            assert all(len(pt) == d for pt in points)
            assert band.scale(3) == pytest.approx(3 + band.epsilon)
    with pytest.raises(ValueError):
        cross_configuration(2, 4)


def test_band_membership():
    _, band = cross_configuration(2, 8)  # eps = 1/6
    assert band.member([0.0, 0.0])
    assert band.member([0.5, 0.3])
    assert not band.member([0.9, 0.0])   # 0.9 >= 5/6


def test_equally_spaced_obstruction_small():
    assert equally_spaced_obstruction(2)
    assert equally_spaced_obstruction(6)
    for count in range(2, 65):
        assert equally_spaced_obstruction(count)
    with pytest.raises(ValueError):
        equally_spaced_obstruction(1)


def test_equally_spaced_obstruction_is_sharp():
    # sanity of the check itself: a half-open window of integer length c
    # (full circle) contains all points, so the obstruction logic must rest
    # on the missing 1/count of length
    assert equally_spaced_obstruction(1024)


# ---------------------------------------------------------------------------
# sign-axis deduction


def test_sign_axis_confirms_intended_configuration():
    res = sign_axis_deduction([1.0, 0.0], [[0.0, 1.0]], 3)
    assert res.confirmed and res.axis == 0 and res.sign == 1
    res = sign_axis_deduction([0.0, -1.0], [[1.0, 0.0]], 1.5)
    assert res.confirmed and res.axis == 1 and res.sign == -1


def test_sign_axis_d1_trivial():
    res = sign_axis_deduction([-1.0], [], 3)
    assert res.confirmed and res.axis == 0 and res.sign == -1


def test_sign_axis_rejects_spread_direction():
    u = [2 ** (-1 / 3), 2 ** (-1 / 3)]  # l^3-unit with support size 2
    res = sign_axis_deduction(u, [[0.0, 1.0]], 3)
    assert res.status == "failed"
    assert res.failed_hypothesis in ("clarkson-equality", "support-disjoint")
    assert res.witness is not None


def test_sign_axis_checks_unit_norm_first():
    res = sign_axis_deduction([2.0, 0.0], [[0.0, 1.0]], 3)
    assert res.failed_hypothesis == "unit-norm"


def test_sign_axis_antipodal_hypothesis():
    ok = sign_axis_deduction([1.0, 0.0], [[0.0, 1.0]], 3,
                             v_minus_list=[[0.0, -1.0]])
    assert ok.confirmed
    bad = sign_axis_deduction([1.0, 0.0], [[0.0, 1.0]], 3,
                              v_minus_list=[[0.0, 1.0]])
    assert bad.status == "failed"
    assert bad.failed_hypothesis in ("diameter", "antipodal")


def test_sign_axis_incomplete_with_missing_vectors():
    res = sign_axis_deduction([1.0, 0.0, 0.0], [[0.0, 1.0, 0.0]], 3)
    assert res.status == "incomplete"


def test_sign_axis_rejects_p_two():
    with pytest.raises(ValueError):
        sign_axis_deduction([1.0, 0.0], [[0.0, 1.0]], 2)


# ---------------------------------------------------------------------------
# axis-aligned copy sampling


def test_copy_check_d1_explicit_example():
    # n=3, d=1, j=1: eps=1/3, r=4/3; x=0, sign +: values {k*4/3} mod 1 for
    # k=-1,0,1 are {2/3, 0, 1/3} and 2/3 is outside [0, 2/3)
    _, band = cross_configuration(1, 3)
    r = band.scale(1)
    vals = [(k * r) % 1.0 for k in (-1, 0, 1)]
    inside = [v < 1 - band.epsilon for v in vals]
    assert not all(inside)
    rep = copy_sampler_check(1, 3, 1, 2000, seed=0)
    assert rep.violations == 0


def test_copy_check_zero_violations_random():
    for d, n in ((1, 6), (2, 8)):
        for j in (1, 2, 3):
            rep = copy_sampler_check(d, n, j, 3000, seed=j)
            assert rep.violations == 0, (d, n, j)
            assert rep.passed


def test_copy_check_epsilon_zero_documents_sharpness():
    rep = copy_sampler_check(2, 8, 1, 500, seed=1, epsilon=0.0)
    assert rep.violations == 500
    assert rep.first_violations  # witnesses reported


def _whole_array_copy_check(d, n, j, placements, seed, epsilon):
    """copy_sampler_check's report from one (placements, len(ks)) array of
    coordinate sums reduced with % 1.0; returns it and the violating indices."""
    _, band = cross_configuration(d, n)
    eps = band.epsilon if epsilon is None else float(epsilon)
    r = j + eps
    ks = np.arange(-1, n - 2 * d + 1, dtype=float)
    rng = np.random.default_rng(seed)
    L = 10.0 * r
    xs = (rng.random((placements, d)) - 0.5) * 2 * L
    axes = rng.integers(0, d, size=placements)
    signs = rng.integers(0, 2, size=placements) * 2 - 1
    vals = xs.sum(axis=1)[:, None] + (signs * r)[:, None] * ks[None, :]
    violate = (vals % 1.0 < 1.0 - eps).all(axis=1)
    idx = np.nonzero(violate)[0]
    first = tuple({"x": [float(c) for c in xs[i]], "axis": int(axes[i]) + 1,
                   "sign": int(signs[i])} for i in idx[:5])
    return CopyCheckReport(d=d, n=n, scale_index=j, epsilon=eps,
                           placements=placements, violations=int(violate.sum()),
                           first_violations=first), idx


def test_copy_check_tiles_match_one_whole_array():
    # d = 3, n = 12 has 8 points per copy, so a tile holds 8192 placements.
    # epsilon 0: every placement fits, the last tile is 3 rows and the
    # witnesses are placements 0-4. epsilon 0.12495 with seed 2: 5 of 20,000
    # fit, the first in the second tile and the last in the third
    T = tile_rows(8)
    for placements, seed, eps, fits in (
            (T + 3, 1, 0.0, list(range(T + 3))),
            (20_000, 2, 0.12495, [9032, 10633, 13741, 15824, 18814])):
        want, idx = _whole_array_copy_check(3, 12, 2, placements, seed, eps)
        assert list(idx) == fits
        got = copy_sampler_check(3, 12, 2, placements, seed=seed, epsilon=eps)
        assert got.to_dict() == want.to_dict()


def test_copy_check_report_dict():
    rep = copy_sampler_check(2, 8, 2, 100, seed=3)
    d = rep.to_dict()
    assert d["pass"] and d["placements"] == 100


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=25))
def test_cross_configuration_counts(d, extra):
    n = 2 * d + 1 + extra
    points, band = cross_configuration(d, n)
    assert len(set(points)) == len(points) == n
    assert band.epsilon == pytest.approx(1.0 / (n - 2 * d + 2))

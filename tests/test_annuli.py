import dataclasses
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from obstructions import (
    AnnulusSpec,
    BudgetError,
    NoCopyReport,
    Pattern,
    PolySeqSpec,
    bertrand_prime,
    density,
    erdos_turan_bound,
    member,
    members,
    no_copy_check,
    one_variable_measure,
    pattern_gap,
    reduce_to_polynomial,
    sample_lp_sphere,
    thin_pattern,
)
from obstructions import annuli
from obstructions.annuli import tile_rows


# ---------------------------------------------------------------------------
# membership


def test_member_examples():
    assert member(AnnulusSpec(3, 2, 0.5), [0.0, 0.0, 0.0])
    assert not member(AnnulusSpec(1, 2, 0.2), [math.sqrt(0.5)])
    assert member(AnnulusSpec(2, 3, 0.1), [1.0, 1.0])


def test_member_strict_boundary():
    # dist exactly (1-eps)/2 is NOT a member
    spec = AnnulusSpec(1, 2, 0.5)  # halfwidth 0.25
    assert not member(spec, [0.5])  # 0.25 -> dist 0.25
    assert member(spec, [math.sqrt(0.25 - 1e-9)])


def test_member_symmetry_under_permutation_and_sign():
    rng = np.random.default_rng(2)
    for p in (2, 3):
        spec = AnnulusSpec(3, p, 0.15)
        for _ in range(50):
            x = rng.normal(size=3) * 3
            base = member(spec, x)
            for perm in permutations(range(3)):
                assert member(spec, x[list(perm)]) == base
            flip = x * rng.choice([-1.0, 1.0], size=3)
            assert member(spec, flip) == base


def test_members_vectorized_consistency():
    spec = AnnulusSpec(2, 3, 0.2)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 2)) * 4
    vec = members(spec, pts)
    assert all(vec[i] == member(spec, pts[i]) for i in range(len(pts)))


def product_power(x, p):
    """x^p as the p - 1 left-to-right products ((x x) x) ... x."""
    powers = x * x
    for _ in range(p - 2):
        powers = powers * x
    return powers


def full_sign_loop_members(spec, pts):
    """Odd-p membership over all 2^d sign vectors, each signed sum's distance
    to Z taken exactly as |f - rint(f)|; x^p is rounded as members rounds it,
    so only the sign loop differs."""
    powers = product_power(pts, spec.exponent)
    ok = np.ones(len(pts), dtype=bool)
    for sigma in product((1.0, -1.0), repeat=spec.dimension):
        f = powers @ np.asarray(sigma)
        ok &= np.abs(f - np.rint(f)) < spec.band_halfwidth
    return ok


def band_edge_points(spec, rng, count, ulps=4):
    """Points with one defining sum within a few ulps of a band edge m +- w,
    x_1 moved by up to ``ulps`` ulps. Odd p: a signed sum, m in {-1, 0}, as
    |sum| < 1 keeps the fractional bits that rounding can lose. Even p:
    |x|_p^p, m = d, above the other coordinates' share."""
    d, p, w = spec.dimension, spec.exponent, spec.band_halfwidth
    rest = rng.uniform(-1, 1, size=(count, d - 1))
    if spec.parity == "odd":
        sigma = rng.choice((-1.0, 1.0), size=(count, d - 1))
        m = rng.integers(-1, 1, size=count)
    else:
        sigma, m = 1.0, d
    edge = m + rng.choice((-1.0, 1.0), size=count) * w
    target = edge - (sigma * rest ** p).sum(axis=1)
    x1 = np.sign(target) * np.abs(target) ** (1.0 / p)
    x1 += rng.integers(-ulps, ulps + 1, size=count) * np.spacing(x1)
    return np.column_stack([x1, rest])


def test_members_odd_half_sign_loop_matches_full_loop():
    rng = np.random.default_rng(8)
    for d, p, eps in ((2, 3, 0.3), (3, 3, 0.7), (4, 3, 0.5), (4, 5, 0.1)):
        spec = AnnulusSpec(d, p, eps)
        edge = band_edge_points(spec, rng, 20_000)
        for pts in (rng.normal(size=(5_000, d)) * 2, edge):
            got = members(spec, pts)
            assert (got == full_sign_loop_members(spec, pts)).all(), (d, p, eps)
            assert 0 < got.sum() < len(pts)
        # the edge points do sit on the edge: most have a signed sum within
        # 2^-48 of it
        near = np.zeros(len(edge), dtype=bool)
        for sigma in product((1.0, -1.0), repeat=d):
            f = edge ** p @ np.asarray(sigma)
            near |= np.abs(np.abs(f - np.rint(f)) - spec.band_halfwidth) < 2.0 ** -48
        assert near.mean() > 0.5


def exact_margins(spec, pts):
    """Per point, exact membership and the least |dist(F, Z) - w| over the
    defining sums F, computed in Fractions from the float coordinates."""
    d, p, w = spec.dimension, spec.exponent, Fraction(spec.band_halfwidth)
    signs = [(1,) * d] if spec.parity == "even" else list(product((1, -1), repeat=d))
    inside, margin = [], []
    for x in pts:
        powers = [Fraction(float(t)) ** p for t in x]
        dists = []
        for sigma in signs:
            f = sum(s * t for s, t in zip(sigma, powers))
            dists.append(abs(f - round(f)))
        inside.append(all(t < w for t in dists))
        margin.append(min(abs(t - w) for t in dists))
    return np.array(inside), np.array([float(m) for m in margin])


def test_members_match_exact_membership_outside_the_guard():
    # the Monte Carlo guard B of density, with max |x_i| in place of R/2,
    # bounds the rounding of each defining sum: beyond it from every band
    # edge, the float membership is the exact one. Edge points move by up to
    # 256 ulps, so that some land just outside B and some inside
    rng = np.random.default_rng(21)
    for d, p, eps in ((2, 3, 0.3), (4, 3, 0.05), (3, 4, 0.2), (2, 5, 0.1)):
        spec = AnnulusSpec(d, p, eps)
        for pts, near_edge in (((rng.random((1500, d)) - 0.5) * 40, False),
                               (band_edge_points(spec, rng, 1500, ulps=256), True)):
            half = np.abs(pts).max(axis=1)
            guard = (p + max(p - 1, 2) + d - 1) * d * 2.0 ** -53 * half ** p
            inside, margin = exact_margins(spec, pts)
            decided = margin > guard
            got = members(spec, pts)
            assert (got[decided] == inside[decided]).all(), (d, p, eps)
            assert decided.sum() > len(pts) // 4
            if near_edge:  # some decided points sit within 4B of an edge
                assert (decided & (margin < 4 * guard)).any(), (d, p)


def test_product_power_within_its_rounding_allowance():
    # p - 1 products round x^p by at most (p - 1) 2^-53 relative to first
    # order; the guard allows max(p - 1, 2) of these
    rng = np.random.default_rng(22)
    x = np.concatenate([rng.uniform(-10, 10, 3000),
                        np.exp(rng.uniform(-20, 20, 3000)) * rng.choice((-1.0, 1.0), 3000),
                        [1.0, -1.0, 3.0, np.nextafter(1.0, 2.0), 0.1]])
    for p in range(2, 9):
        got = product_power(x, p)
        for t, g in zip(x, got):
            exact = Fraction(float(t)) ** p
            assert abs(Fraction(float(g)) - exact) <= max(p - 1, 2) * Fraction(1, 2 ** 53) * abs(exact), (p, t)


def test_float_mod_one_is_x_minus_floor_bit_for_bit():
    # the no-copy polynomial route reduces mod 1 as x - floor(x): the same
    # double as numpy's x % 1.0 on every finite input
    rng = np.random.default_rng(23)
    special = [0.0, -0.0, -5e-324, 5e-324, -1e-300, 1e-300, -1.0, -2.0, -3.0, -12345.0,
               2.0 ** 52 + 0.5, 2.0 ** 52 - 0.5, -(2.0 ** 52 + 0.5), -(2.0 ** 52 - 0.5),
               2.0 ** 60, -2.0 ** 60, -0.5, np.nextafter(-1.0, 0.0), np.nextafter(0.0, -1.0)]
    mags = 10.0 ** rng.uniform(-20, 20, 100_000)
    x = np.concatenate([special, mags, -mags, -np.floor(mags)])
    assert ((x % 1.0).view(np.int64) == (x - np.floor(x)).view(np.int64)).all()


def test_spec_validation():
    with pytest.raises(ValueError):
        AnnulusSpec(0, 2, 0.1)
    with pytest.raises(ValueError):
        AnnulusSpec(2, 1, 0.1)
    with pytest.raises(ValueError):
        AnnulusSpec(2, 2, 1.0)


# ---------------------------------------------------------------------------
# one-variable measure


def test_measure_full_circle():
    assert one_variable_measure(2, 1, 1, (0.0, 1.0)) == 1.0


def test_measure_single_branch():
    assert one_variable_measure(2, 1, 2, (0.0, 0.25)) == pytest.approx(1.0)


def test_measure_against_monte_carlo():
    rng = np.random.default_rng(4)
    for p, sigma in ((2, 1), (3, 1), (3, -1), (4, -1)):
        start, length = float(rng.random()), float(rng.uniform(0.2, 0.8))
        R = 20.0
        exact = one_variable_measure(p, sigma, R, (start, length))
        t = rng.uniform(-R / 2, R / 2, size=400_000)
        frac = ((sigma * t ** p) % 1.0)
        inside = ((frac - start) % 1.0) < length
        mc = float(inside.mean()) * R
        assert abs(exact - mc) < 0.12, (p, sigma, exact, mc)


def test_measure_bounded_deviation_across_scales():
    rng = np.random.default_rng(5)
    prev_bound = 0.0
    for p in (2, 3, 4):
        for _ in range(5):
            start, length = float(rng.random()), float(rng.uniform(0.1, 0.9))
            for R in (1, 2, 4, 8, 16, 32):
                m = one_variable_measure(p, 1, R, (start, length))
                assert abs(m - length * R) <= 3.0


def test_measure_large_R_stays_near_length():
    m = one_variable_measure(4, 1, 1000.0, (0.2, 0.3))
    assert abs(m - 0.3 * 1000.0) <= 3.0


def test_measure_refuses_R_beyond_its_error_bound():
    with pytest.raises(BudgetError, match="--R"):
        one_variable_measure(4, 1, 1e9, (0.2, 0.3))
    with pytest.raises(BudgetError, match="--R"):
        one_variable_measure(60, 1, 1e6, (0.2, 0.3))


def _oracle_halfline(p, start, length, T):
    """Brute force: math.fsum over every root interval (m+a)^(1/p)..(m+b)^(1/p)
    in [0, T], each length written as (b-a) / sum y^i z^(p-1-i)."""
    arcs = [(start, min(start + length, 1.0))]
    if start + length > 1.0:
        arcs.append((0.0, start + length - 1.0))
    top = Fraction(T) ** p
    terms = []
    for a, b in arcs:
        last = math.floor(top - Fraction(b))  # pieces m <= last end inside [0, T]
        for lo in range(0, last + 1, 1 << 20):
            m = np.arange(lo, min(lo + (1 << 20), last + 1), dtype=float)
            y, z = (m + b) ** (1.0 / p), (m + a) ** (1.0 / p)
            den = sum(y ** i * z ** (p - 1 - i) for i in range(p))
            terms.append(math.fsum(((b - a) / den).tolist()))
        cut = top - (last + 1) - Fraction(a)
        if cut > 0:  # the piece cut by T
            z = (last + 1 + a) ** (1.0 / p)
            terms.append(float(cut) / sum(T ** i * z ** (p - 1 - i) for i in range(p)))
    return math.fsum(terms)


def test_measure_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for p in (2, 3, 4):
        for sigma in (1, -1):
            for R in (1.0, 2.5, 3.7, 8.0, 24.0, 64.0, 128.0):
                if p == 4 and R > 64:
                    continue  # 1.7e7 pieces: too slow for a unit test
                length = float(rng.uniform(0.05, 0.95))
                start = float(rng.uniform(1.0 - length, 1.0))  # the arc wraps
                T = R / 2.0
                pos = (start, length) if sigma == 1 else ((1 - start - length) % 1.0, length)
                neg_sigma = sigma * (-1) ** p
                neg = (start, length) if neg_sigma == 1 else ((1 - start - length) % 1.0, length)
                expected = (_oracle_halfline(p, *pos, T) + _oracle_halfline(p, *neg, T))
                got = one_variable_measure(p, sigma, R, (start, length))
                assert abs(got - expected) <= 1e-10, (p, sigma, R, got, expected)


def test_measure_validation():
    with pytest.raises(ValueError):
        one_variable_measure(2, 0, 4.0, (0.0, 0.5))
    with pytest.raises(ValueError):
        one_variable_measure(2, 1, 0.5, (0.0, 0.5))


# ---------------------------------------------------------------------------
# density


def test_density_exact_slice_d1():
    rep = density(AnnulusSpec(1, 2, 0.1), 100, method="exact-slice")
    assert rep.target == pytest.approx(0.9)
    assert abs(rep.fraction - 0.9) <= 0.05


def test_density_exact_slice_d2_matches_monte_carlo():
    spec = AnnulusSpec(2, 2, 0.2)
    ex = density(spec, 40, method="exact-slice")
    mc = density(spec, 40, method="monte-carlo", samples=400_000, seed=9)
    assert abs(ex.fraction - mc.fraction) < 0.01


def test_density_monte_carlo_even_target():
    rep = density(AnnulusSpec(2, 2, 0.1), 200, method="monte-carlo",
                  samples=200_000, seed=1)
    assert rep.target_kind == "limit"
    assert abs(rep.fraction - 0.9) < 0.02


def test_density_odd_lower_bound():
    spec = AnnulusSpec(2, 3, 0.05)
    rep = density(spec, 100, method="monte-carlo", samples=200_000, seed=2)
    assert rep.target == pytest.approx(1 - 4 * 0.05)
    assert rep.target_kind == "lower-bound"
    assert rep.fraction >= rep.target - 0.02


def test_density_refusal_threshold_covers_the_products():
    # B = (p + max(p - 1, 2) + d - 1) d 2^-53 (R/2)^p is refused once 4B
    # reaches 1/(2 sqrt(samples)): just above the threshold R* it raises,
    # just below it runs
    samples, d = 1000, 2
    for p in (2, 3, 4, 5):
        factor = (p + max(p - 1, 2) + d - 1) * d * 2.0 ** -53
        threshold = 2 * (0.125 / math.sqrt(samples) / factor) ** (1 / p)
        with pytest.raises(BudgetError, match="lower --R"):
            density(AnnulusSpec(d, p, 0.1), 1.01 * threshold, samples=samples)
        density(AnnulusSpec(d, p, 0.1), 0.99 * threshold, samples=samples)


def _whole_array_hits(spec, R, seed, samples):
    """Monte Carlo hits as one (take, d) draw per 2^18-sample block gives
    them: the loop that tiled density must reproduce."""
    block = 1 << 18
    children = np.random.SeedSequence(seed).spawn(-(-samples // block))
    hits, drawn = 0, 0
    for child in children:
        take = min(block, samples - drawn)
        pts = (np.random.default_rng(child).random((take, spec.dimension)) - 0.5) * R
        hits += int(members(spec, pts).sum())
        drawn += take
    return hits


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_density_tiles_match_one_draw_per_block(d, p):
    # two blocks, the second one partial, and a partial tile in each block
    # whose 2^18 samples tile_rows(d) does not divide
    samples = (1 << 18) + 12_345
    rep = density(AnnulusSpec(d, p, 0.3), 20, samples=samples, seed=d)
    hits = _whole_array_hits(AnnulusSpec(d, p, 0.3), 20, d, samples)
    frac = hits / samples
    want = dataclasses.replace(
        rep, fraction=frac, detail={"samples": samples, "hits": hits},
        std_error=math.sqrt(max(frac * (1 - frac), 1e-300) / samples))
    assert rep.to_dict() == want.to_dict()


def test_density_monotone_in_epsilon():
    # same seed, same samples: shrinking the band can only lose points
    fracs = []
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
        rep = density(AnnulusSpec(2, 2, eps), 50, samples=50_000, seed=77)
        fracs.append(rep.fraction)
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_density_exact_slice_odd_rejected():
    with pytest.raises(ValueError, match="[Mm]onte"):
        density(AnnulusSpec(2, 3, 0.1), 10, method="exact-slice")


def test_density_converges_like_one_over_R():
    # fit the deviation constant from two scales, validate at a third
    spec = AnnulusSpec(1, 2, 0.2)
    devs = {}
    for R in (25, 50, 100):
        rep = density(spec, R, method="exact-slice")
        devs[R] = abs(rep.fraction - 0.8)
    C = max(devs[25] * 25, devs[50] * 50)
    assert devs[100] <= 1.5 * C / 100 + 1e-9, (devs, C)


# ---------------------------------------------------------------------------
# placements and reduction


def test_lp_sphere_unit_norms():
    rng = np.random.default_rng(6)
    for p in (1.5, 2, 3, 5):
        v = sample_lp_sphere(rng, 500, 4, p)
        norms = (np.abs(v) ** p).sum(axis=1) ** (1 / p)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_reduction_and_no_copy_share_the_scale_refusal():
    # leading + j <= 0 has no real p-th root: both callers of the one scale
    # rule refuse it with the same message
    spec = AnnulusSpec(2, 2, 0.2)
    pat = Pattern((0, 1))
    for leading, j in ((Fraction(-3), 1), (Fraction(-1), 1), (Fraction(1, 2), -1)):
        with pytest.raises(ValueError) as reduce_err:
            reduce_to_polynomial(spec, pat, (0.0, 0.0), (1.0, 0.0), j, leading)
        with pytest.raises(ValueError) as nocopy_err:
            no_copy_check(spec, pat, leading, [j], 1)
        assert str(reduce_err.value) == str(nocopy_err.value)
        assert str(reduce_err.value) == f"scale index {j} leaves leading + j <= 0"


def test_reduction_axis_direction_kills_cross_terms():
    pat = Pattern(tuple(range(5)))
    for p in (2, 4):
        spec = AnnulusSpec(3, p, 0.2)
        poly, cert = reduce_to_polynomial(spec, pat, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                                          2, Fraction(1, 4))
        assert all(abs(c) < 1e-12 for c in poly.lower)
        assert cert.leading_value == pytest.approx(2.25)
        assert cert.leading_residual < 1e-12


def test_reduction_orthogonal_example():
    # |x + 2k e_2|^2 with x = e_1: 1 + 4k^2 (orthogonal axes, no linear term)
    spec = AnnulusSpec(2, 2, 0.2)
    pat = Pattern((0, 1, 2, 3))
    # r_2 = (2 + 2)^(1/2) = 2
    poly, cert = reduce_to_polynomial(spec, pat, (1.0, 0.0), (0.0, 1.0), 2, Fraction(2))
    assert poly.lower[0] == pytest.approx(0.0)
    assert cert.leading_value == pytest.approx(4.0)
    assert cert.constant_term == pytest.approx(1.0)
    assert cert.leading_residual < 1e-12


def test_reduction_known_coefficients():
    spec = AnnulusSpec(2, 2, 0.2)
    pat = Pattern((0, 1, 2, 3))
    # r_24 = (1 + 24)^(1/2) = 5
    poly, cert = reduce_to_polynomial(spec, pat, (1.0, 1.0), (0.6, 0.8), 24, Fraction(1))
    assert poly.lower[0] == pytest.approx(14.0)
    assert cert.leading_value == pytest.approx(25.0)
    assert cert.constant_term == pytest.approx(2.0)
    # direct expansion oracle over k in {-3..3}
    for k in range(-3, 4):
        y = np.array([1.0, 1.0]) + 5.0 * k * np.array([0.6, 0.8])
        assert (y ** 2).sum() == pytest.approx(25.0 * k * k + 14.0 * k + 2.0)


def test_reduction_identity_random_even_and_odd():
    rng = np.random.default_rng(7)
    pat = Pattern(tuple(range(-5, 6)))
    for p in (2, 3, 4, 5):
        spec = AnnulusSpec(3, p, 0.2)
        for _ in range(200):
            x = rng.normal(size=3) * 5
            v = sample_lp_sphere(rng, 1, 3, p)[0]
            r = float(rng.uniform(0.5, 8))
            # r_1 = (leading + 1)^(1/p) is r up to rounding
            poly, cert = reduce_to_polynomial(spec, pat, x, v, 1, Fraction(r ** p) - 1)
            assert cert.norm_residual < 1e-9
            assert cert.identity_residual < 1e-9


def test_reduction_rejects_non_unit_direction():
    spec = AnnulusSpec(2, 2, 0.2)
    with pytest.raises(ValueError, match="unit"):
        reduce_to_polynomial(spec, Pattern((0, 1)), (0.0, 0.0), (1.0, 1.0), 1, Fraction(1))


# ---------------------------------------------------------------------------
# no-copy checks


def test_no_copy_degenerate_epsilon_zero_has_violations():
    q = 101
    pat = thin_pattern(20, q, seed=1)
    spec = AnnulusSpec(2, 2, 0.0)
    rep = no_copy_check(spec, pat, Fraction(1, q), [1], 500, seed=3)
    assert rep.violations_total > 0
    assert not rep.passed


def test_no_copy_full_set_above_et_bound():
    # with every index present the values spread out; above the ET-certified
    # discrepancy no sampled copy can sit inside the set
    q = 101
    pat = Pattern(tuple(range(q)), q)
    pts = [((k * k) % q) / q for k in range(q)]
    et = erdos_turan_bound(pts, q)
    eps = min(0.9, max(0.8, et + 0.01))
    spec = AnnulusSpec(2, 2, eps)
    rep = no_copy_check(spec, pat, Fraction(1, q), [1, 2], 2000, seed=4)
    assert rep.violations_total == 0
    assert rep.route_mismatches == 0


def test_no_copy_refuses_copies_its_precision_cannot_decide(monkeypatch):
    # p = 3 on Q = 16,777,259: |F| ~ 4e21 leaves longdouble no fractional
    # bits, so the margins are noise and must not be reported as violations.
    # The bound 1.9e4 is above max(w, 1/2 - w), which no margin exceeds, so
    # every copy is undecided and neither route runs
    def unreachable(*args):
        raise AssertionError("a route ran on copies no margin can decide")

    monkeypatch.setattr(annuli, "reduction_coefficients", unreachable)
    q = bertrand_prime(8, 3)
    pat = thin_pattern(8, q, seed=0)
    with pytest.raises(BudgetError) as err:
        no_copy_check(AnnulusSpec(2, 3, 0.7), pat, Fraction(1, q),
                      [1, 2, 3, 4], 1000)
    msg = str(err.value)
    assert "max |F|" in msg and "bound" in msg and "w = 0.15" in msg
    assert "1000 of 1000 copies are undecided" in msg


def _whole_array_no_copy(spec, pattern, leading, j_list, placements, seed):
    """no_copy_check's report as whole-array passes over all placements of a
    scale compute it: the polynomial route over one (placements, len(ks))
    array, the direct one from a zero F over (2048, len(ks)) chunks."""
    p, d, w = spec.exponent, spec.dimension, spec.band_halfwidth
    ks = np.asarray(pattern.indices, dtype=float)
    lead_vals = PolySeqSpec(p, leading).values(pattern.indices)
    per_scale, mismatches = [], 0
    for j, child in zip(j_list, np.random.SeedSequence(seed).spawn(len(j_list))):
        r = (float(leading) + j) ** (1.0 / p)
        rng = np.random.default_rng(child)
        L = 10.0 * r
        xs = (rng.random((placements, d)) - 0.5) * 2 * L
        vs = sample_lp_sphere(rng, placements, d, p)
        magnitude = (np.abs(xs).max() + r * np.abs(ks).max() * np.abs(vs).max()) ** p
        spread = d * (4 * p + d + 5) * magnitude
        coeffs, _, sgn = annuli.reduction_coefficients(xs, vs, r, p)
        vals = np.broadcast_to(lead_vals, (placements, len(ks))).copy()
        for l, B_l in enumerate(coeffs):
            term = B_l[:, None] * ks ** l
            vals += term - np.floor(term)
            vals -= np.floor(vals)
        poly_margins = (np.abs(vals - np.rint(vals)) - w).max(axis=1)
        rk = np.longdouble(r) * ks
        margins = np.empty(placements)
        for lo in range(0, placements, 2048):
            hi = min(lo + 2048, placements)
            X = xs[lo:hi].astype(np.longdouble)
            V = vs[lo:hi].astype(np.longdouble)
            F = np.zeros((hi - lo, len(ks)), dtype=np.longdouble)
            for i in range(d):
                term = (X[:, i, None] + rk * V[:, i, None]) ** p
                if p % 2:
                    term *= sgn[lo:hi, i, None]
                F += term
            margins[lo:hi] = (np.abs(F - np.rint(F)).astype(float) - w).max(axis=1)
        bound = spread * float(np.finfo(np.longdouble).eps) + 2.0 ** -48
        assert not (np.abs(margins) <= bound).any()
        inside = margins < 0
        poly_bound = spread * float(np.finfo(float).eps) + 2.0 ** -48
        mismatches += int(((np.abs(poly_margins) > poly_bound)
                           & ((poly_margins < 0) != inside)).sum())
        per_scale.append({"j": int(j), "scale": r, "placements": placements,
                          "violations": int(inside.sum()),
                          "worst_margin": float(margins.min())})
    return NoCopyReport(
        epsilon=spec.epsilon, placements_total=placements * len(j_list),
        violations_total=sum(s["violations"] for s in per_scale),
        per_scale=tuple(per_scale),
        worst_margin=min(s["worst_margin"] for s in per_scale),
        route_mismatches=mismatches).to_dict()


_PAT20 = thin_pattern(20, bertrand_prime(20, 2), seed=4)
_T20 = tile_rows(len(_PAT20.indices))


@pytest.mark.parametrize("d, pat, eps, j_list, counts, seed, extended", [
    # placements around one tile, and over several; epsilon 0.05 lets some
    # copies inside the set, so violations and worst margins below 0 count.
    # Each scale's minimum is redone, and few copies more: at most 800 of the
    # largest run's 6,554
    *[pytest.param(d, _PAT20, 0.05, [1, 3], (1, _T20 - 1, _T20, _T20 + 1, 400), d,
                   (2, 800), id=str(d)) for d in (1, 2, 3)],
    # n = 64 (Q = 16,777,259): delta + bound reaches max(w, 1/2 - w), so the
    # sign condition sends every copy to longdouble
    pytest.param(2, thin_pattern(64, bertrand_prime(64, 2), seed=0), 0.7, [1, 5],
                 (300,), 0, (600, 600), id="skip"),
    # the screen keeps some copies and redoes more than one tile of others
    pytest.param(3, thin_pattern(32, bertrand_prime(32, 2), seed=3), 0.5, [5],
                 (6000,), 3, (tile_rows(32) + 1, 5999), id="redo-over-tiles"),
    # 8 indices in Q = 1,048,583 at eps = 0.1: most copies lie inside the
    # set, and some float64 margins near 0 have the other sign
    pytest.param(2, thin_pattern(8, bertrand_prime(32, 2), seed=1), 0.1, [1, 2],
                 (1000,), 1, (2, 1999), id="float64-signs-differ"),
])
def test_no_copy_tiles_match_whole_array_passes(d, pat, eps, j_list, counts, seed,
                                                extended):
    spec = AnnulusSpec(d, 2, eps)
    leading = Fraction(1, pat.universe)
    for placements in counts:
        got = no_copy_check(spec, pat, leading, j_list, placements, seed=seed)
        want = _whole_array_no_copy(spec, pat, leading, j_list, placements, seed)
        assert got.to_dict() == want, (d, placements)
        assert extended[0] <= got.extended_copies <= extended[1], placements


@pytest.mark.parametrize("p, d", [(3, 3), (4, 2)])
def test_no_copy_tiles_match_whole_array_passes_beyond_p2(p, d):
    # a universe of 101 keeps the rounding bound far below w at p = 3, 4,
    # and the signed sums of odd p go through the direct route's sign step
    pat = thin_pattern(20, 101, seed=1)
    spec = AnnulusSpec(d, p, 0.05)
    T = tile_rows(len(pat.indices))
    got = no_copy_check(spec, pat, Fraction(1, 101), [1, 2], T + 7, seed=p)
    want = _whole_array_no_copy(spec, pat, Fraction(1, 101), [1, 2], T + 7, p)
    assert got.to_dict() == want


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n, q", [(20, 101), (20, bertrand_prime(20, 2)),
                                  (32, bertrand_prime(32, 2))])
def test_no_copy_screen_margins_lie_within_delta_of_longdouble(p, d, n, q):
    # the screen's lemma: on copies drawn as no_copy_check draws them, the
    # float64 and longdouble direct routes, each within its own bound of
    # the exact margin, differ by at most delta = poly_bound + bound
    pat = thin_pattern(n, q, seed=p)
    ks = np.asarray(pat.indices, dtype=float)
    w, count = 0.25, 500
    F64, T64 = np.empty((2, count, len(ks)))
    F, T = np.empty((2, count, len(ks)), dtype=np.longdouble)
    m64, m_ld = np.empty((2, count))
    leading = Fraction(1, q)
    for j, child in zip([1, 4], np.random.SeedSequence(d).spawn(2)):
        r = annuli._scale(leading, j, p)
        xs, vs, magnitude = annuli._placements(np.random.default_rng(child), count,
                                               d, p, r, ks)
        sgn = annuli._signs(vs, p)
        annuli._direct_margins(xs, vs, r * ks, sgn, p, w, F64, T64, F64, m64)
        annuli._direct_margins(xs.astype(np.longdouble), vs.astype(np.longdouble),
                               np.longdouble(r) * ks, sgn, p, w, F, T, F64, m_ld)
        delta = (annuli._rounding_bound(magnitude, d, p, float)
                 + annuli._rounding_bound(magnitude, d, p, np.longdouble))
        assert np.abs(m64 - m_ld).max() <= delta, (j, delta)


def test_no_copy_epsilon_consistency_check():
    q = 101
    pat = thin_pattern(20, q, seed=1)
    spec = AnnulusSpec(2, 2, 0.3)
    with pytest.raises(ValueError, match="inconsistent"):
        no_copy_check(spec, pat, Fraction(1, q), [1], 10, seed=0,
                      pattern_epsilon=0.5)


def test_no_copy_epsilon_compared_exactly():
    # the no-copy argument needs the pattern's length at most the set's
    # epsilon: one ulp above is refused, equality is not
    q = 101
    pat = thin_pattern(20, q, seed=1)
    spec = AnnulusSpec(2, 2, 0.9)
    with pytest.raises(ValueError, match="inconsistent"):
        no_copy_check(spec, pat, Fraction(1, q), [1], 10, seed=0,
                      pattern_epsilon=math.nextafter(0.9, 1.0))
    assert no_copy_check(spec, pat, Fraction(1, q), [1], 10, seed=0,
                         pattern_epsilon=0.9).passed


def test_no_copy_axis_placement_leaves_set():
    # explicit direct-scan oracle for one axis placement
    q = bertrand_prime(16, 2)
    pat = thin_pattern(16, q, seed=2)
    gap0 = pattern_gap(pat, Fraction(1, q), 2, (Fraction(0),))
    eps = min(0.95, float(gap0) + 0.05)
    spec = AnnulusSpec(2, 2, eps)
    r = math.sqrt(1.0 / q + 1.0)
    outside = [k for k in pat.indices
               if not member(spec, [r * k, 0.0])]
    assert outside  # some point of the copy x=0, v=e_1, j=1 escapes

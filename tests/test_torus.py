import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructions import (
    DiscrepancyReport,
    TorusInterval,
    PolySeqSpec,
    erdos_turan_bound,
    exact_discrepancy,
    grid_discrepancy,
    max_circular_gap,
    weyl_sum,
)
from obstructions.torus import _ET_TABLE_TERMS, Residues


# ---------------------------------------------------------------------------
# intervals


def test_interval_wraparound_membership():
    iv = TorusInterval(0.9, 0.2)
    assert iv.contains(0.95) and iv.contains(0.05)
    assert not iv.contains(0.15)
    closed = TorusInterval(Fraction(1, 2), Fraction(1, 4), "closed")
    assert closed.contains(Fraction(3, 4))
    half = TorusInterval(Fraction(1, 2), Fraction(1, 4))
    assert not half.contains(Fraction(3, 4))


def test_interval_validation():
    with pytest.raises(ValueError):
        TorusInterval(0.0, 1.5)
    with pytest.raises(ValueError):
        TorusInterval(0.0, 0.0)  # zero length must be closed
    TorusInterval(0.0, 0.0, "closed")


# ---------------------------------------------------------------------------
# max circular gap


def test_gap_equally_spaced():
    for n in (1, 2, 5, 64):
        pts = [Fraction(k, n) for k in range(n)]
        assert max_circular_gap(pts) == Fraction(1, n)


def test_gap_examples():
    assert max_circular_gap([0.3]) == 1.0
    assert max_circular_gap([0.0, 0.5, 0.6]) == 0.5
    with pytest.raises(ValueError):
        max_circular_gap([])


def test_gap_of_floats_equals_gap_of_their_fractions():
    # a float is the dyadic rational it equals: its gap is that set's exact
    # gap, with no rounding in the differences or the wrap-around
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        values = list(rng.random(n) * 10.0 ** rng.integers(-6, 2, n)
                      * rng.choice((-1, 1), n))
        gap = max_circular_gap(values)
        assert isinstance(gap, Fraction)
        assert gap == max_circular_gap([Fraction(x) for x in values])


def test_non_finite_points_are_refused():
    for bad in (math.nan, math.inf, np.float64(-np.inf), np.float32(np.nan)):
        with pytest.raises(ValueError):
            max_circular_gap([0.25, bad])
        with pytest.raises(ValueError):
            exact_discrepancy([0.25, bad])


def test_gap_is_one_iff_single_or_coincident():
    assert max_circular_gap([0.25, 0.25, 0.25]) == 1.0
    assert max_circular_gap([0.25, 0.26]) < 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=0.999999), min_size=1, max_size=40))
def test_gap_bounds(values):
    g = max_circular_gap(values)
    assert 0 < g <= 1.0


def test_gap_hitting_equivalence():
    rng = np.random.default_rng(11)
    pts = sorted(rng.random(9))
    g = float(max_circular_gap(pts))
    # intervals slightly longer than the max gap are always hit
    for start in rng.random(100):
        iv = TorusInterval(start, min(1.0, g + 1e-9), "closed")
        assert any(iv.contains(x) for x in pts)
    # a closed interval slightly shorter, centered in the widest gap, is missed
    arr = np.asarray(pts)
    diffs = np.diff(np.append(arr, arr[0] + 1.0))
    i = int(diffs.argmax())
    start = arr[i] + 5e-10
    iv = TorusInterval(start % 1.0, g - 1e-9, "closed")
    assert not any(iv.contains(x) for x in pts)


# ---------------------------------------------------------------------------
# exact discrepancy


def grid_oracle(points, grid=100):
    """Brute-force sup over grid*grid half-open candidate intervals."""
    pts = np.asarray([float(p) for p in points])
    starts = np.arange(grid) / grid
    lengths = (np.arange(grid) + 1) / grid
    rel = (pts[None, :] - starts[:, None]) % 1.0       # (grid, N)
    best = 0.0
    n = len(pts)
    for L in lengths:
        counts = (rel < L).sum(axis=1)
        best = max(best, float(np.abs(counts / n - L).max()))
    return best


def fraction_oracle(points):
    """Sup of |count/N - length| over every arc whose endpoints are point
    positions: count - length over closed arcs [a, b], length - count over
    open arcs (a, b) (the circle minus a when b = a), all in Fractions."""
    xs = [Fraction(x.item() if isinstance(x, np.generic) else x) % 1
          for x in points]
    n = len(xs)
    best = Fraction(0)
    for a in xs:
        offsets = [(x - a) % 1 for x in xs]
        for b in xs:
            length = (b - a) % 1
            closed = sum(t <= length for t in offsets)
            best = max(best, Fraction(closed, n) - length)
            length = length or Fraction(1)
            opened = sum(0 < t < length for t in offsets)
            best = max(best, length - Fraction(opened, n))
    return best


def mixed_points(rng, kind, n):
    """n points of one kind, with duplicates and values outside [0, 1)."""
    den = int(rng.integers(1, 40))
    make = {
        "float": lambda: float(rng.random() * 3 - 1),
        "fraction": lambda: Fraction(int(rng.integers(-den, 2 * den)), den),
        "int": lambda: int(rng.integers(-5, 5)),
        "numpy": lambda: [np.float64(rng.random()), np.float32(rng.random()),
                          np.int64(rng.integers(-3, 3))][int(rng.integers(3))],
    }
    kinds = list(make) if kind == "mixed" else [kind]
    pts = [make[kinds[int(rng.integers(len(kinds)))]]() for _ in range(n)]
    for _ in range(int(rng.integers(0, n // 2 + 1))):
        pts[int(rng.integers(n))] = pts[int(rng.integers(n))]
    return pts


def test_exact_value_matches_fraction_oracle():
    rng = np.random.default_rng(17)
    for kind in ("float", "fraction", "int", "numpy", "mixed"):
        for _ in range(8):
            pts = mixed_points(rng, kind, int(rng.integers(1, 31)))
            rep = exact_discrepancy(pts)
            assert rep.exact_value == fraction_oracle(pts), (kind, pts)
            assert rep.exact_discrepancy == float(rep.exact_value)
            # the closed witness attains the value exactly
            iv = rep.witness_interval
            inside = sum(iv.contains(x) for x in pts)
            assert Fraction(inside, len(pts)) - iv.length == rep.exact_value


def test_discrepancy_examples():
    assert exact_discrepancy([Fraction(k, 4) for k in range(4)]).exact_value == Fraction(1, 4)
    assert exact_discrepancy([0.0]).exact_discrepancy == 1.0
    assert exact_discrepancy([0.0, 0.5]).exact_discrepancy == 0.5


def test_discrepancy_matches_grid_oracle_on_random_sets():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 51))
        pts = rng.random(n)
        d = exact_discrepancy(pts).exact_discrepancy
        oracle = grid_oracle(pts)
        assert oracle - 1e-12 <= d <= oracle + 0.02


def test_discrepancy_with_duplicates():
    pts = [0.2, 0.2, 0.2, 0.7]
    rep = exact_discrepancy(pts)
    assert rep.exact_discrepancy == pytest.approx(0.75)  # triple point, length 0


def test_discrepancy_bounds_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        rep = exact_discrepancy(rng.random(n))
        assert 1.0 / (2 * n) - 1e-12 <= rep.exact_discrepancy <= 1.0 + 1e-12


def test_discrepancy_witness_attains_value():
    rng = np.random.default_rng(3)
    pts = sorted(rng.random(12))
    rep = exact_discrepancy(pts)
    iv = rep.witness_interval
    n = len(pts)
    inside = sum(iv.contains(x) for x in pts)
    dev = abs(inside / n - float(iv.length))
    if rep.witness_flag == "attained":
        assert dev == pytest.approx(rep.exact_discrepancy, abs=1e-12)
    else:
        # open-interval witness: the half-open evaluation may undercount by
        # the endpoint multiplicity but never exceeds the sup
        assert dev <= rep.exact_discrepancy + 1e-12


def test_grid_discrepancy_estimator_brackets_exact():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pts = rng.random(int(rng.integers(2, 200)))
        exact = exact_discrepancy(pts).exact_discrepancy
        est = grid_discrepancy(pts, grid=100)
        assert est <= exact + 1e-12
        assert exact - est <= 2.0 / 100 + 1e-12
    big = rng.random(2000)
    assert grid_discrepancy(big, grid=50) > 0


def test_discrepancy_report_validation():
    with pytest.raises(ValueError):
        DiscrepancyReport(4, Fraction(1, 100), TorusInterval(0.0, 0.5))
    with pytest.raises(ValueError):
        DiscrepancyReport(4, Fraction(101, 100), TorusInterval(0.0, 0.5))
    DiscrepancyReport(4, Fraction(1, 8), TorusInterval(0.0, 0.5))


# ---------------------------------------------------------------------------
# Weyl sums


def test_weyl_sum_trivial_cases():
    assert weyl_sum(PolySeqSpec(1, Fraction(1)), 7) == 7 + 0j
    assert weyl_sum(PolySeqSpec(1, Fraction(1, 2)), 2) == 0j


def test_weyl_sum_gauss_magnitude():
    f = PolySeqSpec(2, Fraction(1, 101))
    s = weyl_sum(f, 101)
    # independent direct-summation oracle in plain floats
    oracle = sum(np.exp(2j * np.pi * ((k * k) % 101) / 101) for k in range(101))
    assert abs(s - oracle) < 1e-9
    assert abs(abs(s) - math.sqrt(101)) < 1e-9


def test_weyl_sum_conjugate_symmetry_exact():
    f = PolySeqSpec(3, Fraction(3, 17), (Fraction(1, 5), Fraction(2, 9)))
    a = weyl_sum(f, 60)
    b = weyl_sum(PolySeqSpec(3, Fraction(-3, 17), (Fraction(-1, 5), Fraction(-2, 9))), 60)
    assert a == b.conjugate()  # bit-exact, thanks to phase folding


def test_weyl_sum_multiplier():
    f = PolySeqSpec(1, Fraction(1, 8))
    assert abs(weyl_sum(f, 8, multiplier=8) - 8) < 1e-12
    assert abs(weyl_sum(f, 8, multiplier=3)) < 1e-12


def test_weyl_sum_cubic_within_its_rounding_bound():
    # a 120-bit reference from the exact phases; weyl_sum promises
    # n_terms * 2^-48, whatever the float64 path rounds
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    q = 1499
    f = PolySeqSpec(3, Fraction(5, q), (Fraction(2, 7), 0.1))
    for multiplier in (1, -3, 7):
        phases = [multiplier * f.value_at(k) % 1 for k in range(q)]
        exact = mpmath.fsum(mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator)
                            for t in phases)
        got = weyl_sum(f, q, multiplier=multiplier)
        assert abs(mpmath.mpc(got) - exact) <= q * 2.0 ** -48


# ---------------------------------------------------------------------------
# Erdos-Turan bound


def test_et_equally_spaced_hits_floor():
    n = 16
    pts = [Fraction(k, n) for k in range(n)]
    assert erdos_turan_bound(pts, n - 1) == pytest.approx(1.0 / n, abs=1e-10)


def test_et_single_point():
    assert erdos_turan_bound([0.0], 1) == pytest.approx(3.5)


def test_et_dominates_exact_discrepancy_quadratic():
    pts = [((k * k) % 641) / 641 for k in range(64)]
    d = exact_discrepancy(pts).exact_discrepancy
    assert erdos_turan_bound(pts, 100) >= d


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=0.999999), min_size=2, max_size=60),
       st.integers(min_value=1, max_value=100))
def test_et_dominates_everywhere(values, cutoff):
    d = exact_discrepancy(values).exact_value
    assert Fraction(erdos_turan_bound(values, cutoff)) >= d


def test_discrepancy_report_carries_et():
    pts = [((k * k) % 101) / 101 for k in range(40)]
    rep = exact_discrepancy(pts, et_cutoff=64)
    assert rep.et_bound is not None and rep.et_cutoff == 64
    # the report hands the ET sums its residues; the result is the same float
    assert rep.et_bound == erdos_turan_bound(pts, 64)
    assert rep.et_bound >= rep.exact_discrepancy
    assert rep.et_seconds >= 0
    d = rep.to_dict()
    assert d["et_bound"] == rep.et_bound
    assert "et_seconds" not in d
    assert rep == exact_discrepancy(pts, et_cutoff=64)


def test_exact_discrepancy_reads_residues_as_they_stand():
    # residues over 20 whose reduced points share the denominator 10: the
    # report equals the one of the reduced Fractions, ET value included
    nums = [6 * k * k % 20 for k in range(9)]
    fractions = [Fraction(x, 20) for x in nums]
    assert math.lcm(*(f.denominator for f in fractions)) == 10
    for cutoff in (None, 16):
        rep = exact_discrepancy(Residues(nums, 20), et_cutoff=cutoff)
        assert rep == exact_discrepancy(fractions, et_cutoff=cutoff)
        assert rep.to_dict() == exact_discrepancy(fractions, et_cutoff=cutoff).to_dict()


def test_et_refuses_cutoff_outside_its_rounding_bound():
    for cutoff in (0, (1 << 40) + 1):
        with pytest.raises(ValueError, match="cutoff"):
            erdos_turan_bound([0.25], cutoff)


def test_numpy_sums_complex_rows_pairwise():
    # erdos_turan_bound's rounding term assumes numpy adds a contiguous row
    # pairwise; added in row order, every 2^-53 after the leading 1 is lost.
    # The table's shapes come from its size; (8192, 8) and (64, 1024), the
    # shapes of a 2^16-entry table, stay as well.
    table = [(_ET_TABLE_TERMS // n, n) for n in (8, 1024)]
    for rows, n in (*table, (8192, 8), (64, 1024), (1, 70000)):
        a = np.full((rows, n), 2.0 ** -53, dtype=complex)
        a[:, 0] = 1
        assert (a.sum(axis=1).real > 1).all(), (rows, n)


def _et_reference(mpmath, points, cutoff):
    """The Erdos-Turan value 1/(M+1) + 3 sum |S_m|/(mN) at 50 digits.

    S_m depends only on m mod q, the points' common denominator, so the
    class of r <= q is weighted by sum_{m = r mod q, m <= M} 1/m, which is
    (psi(r/q + J + 1) - psi(r/q)) / q with J = (M - r) // q.
    """
    fracs = [Fraction(p) % 1 for p in points]
    q = math.lcm(*(f.denominator for f in fracs))
    mpf = mpmath.mpf
    z = [mpmath.expjpi(2 * mpf(f.numerator) / f.denominator) for f in fracs]
    w = [mpmath.mpc(1)] * len(z)
    total = mpf(0)
    for r in range(1, min(cutoff, q) + 1):
        w = [a * b for a, b in zip(w, z)]
        J = (cutoff - r) // q
        weight = 1 / mpf(r) if J == 0 else (
            mpmath.digamma(mpf(r) / q + J + 1) - mpmath.digamma(mpf(r) / q)) / q
        total += abs(mpmath.fsum(w)) * weight
    return 1 / mpf(cutoff + 1) + 3 * total / len(z)


def _assert_et_within_stated_term(mpmath, got, exact, cutoff):
    # R >= ET, and R - ET <= 2 rho with rho = 3 M 2^-46 the added term
    rho = 3 * cutoff * 2.0 ** -46
    diff = mpmath.mpf(got) - exact
    assert 0 <= diff <= 2 * rho, (got, float(exact), float(diff), rho)


@pytest.mark.parametrize("a,q,cutoff", [(1, 101, 100), (5, 211, 700),
                                        (3, 1009, 1009), (7, 4099, 50)])
def test_et_gauss_sequence_within_stated_term(a, q, cutoff):
    # x_k = a k^2 / q for k < q, q an odd prime: |S_m| = sqrt(q) when q does
    # not divide m, and S_m = q when it does
    mpmath = pytest.importorskip("mpmath")
    pts = [Fraction(a * k * k, q) for k in range(q)]
    with mpmath.workdps(50):
        multiples = mpmath.harmonic(cutoff // q) / q
        exact = 1 / mpmath.mpf(cutoff + 1) + 3 * (
            (mpmath.harmonic(cutoff) - multiples) / mpmath.sqrt(q) + multiples)
        _assert_et_within_stated_term(mpmath, erdos_turan_bound(pts, cutoff),
                                      exact, cutoff)


def _rationals(seed, n, max_den):
    rng = np.random.default_rng(seed)
    dens = rng.integers(1, max_den + 1, size=n)
    return [Fraction(int(rng.integers(0, d)), int(d)) for d in dens]


def _multiples(seed, n, q):
    return [Fraction(int(a), q)
            for a in np.random.default_rng(seed).integers(0, q, size=n)]


@pytest.mark.parametrize("points,cutoff", [
    pytest.param(_rationals(1, 60, 40), 300, id="random-small-dens"),
    pytest.param(_rationals(2, 30, 10 ** 9), 200, id="random-large-dens"),
    pytest.param([float(x) for x in np.random.default_rng(3).random(25)], 120,
                 id="random-floats"),
    pytest.param(_multiples(4, 8, 1009), 200_000, id="tall-N8-M2e5"),
    pytest.param(_multiples(5, 4096, 4099), 16, id="wide-N4096-M16"),
    pytest.param(_rationals(6, 64, 12), 10, id="M-below-block"),
    pytest.param(_multiples(7, 64, 97), 2500, id="M-not-block-multiple"),
    pytest.param([Fraction(389, 1013)], 70_000, id="one-point"),
    pytest.param([Fraction(0)], 70_000, id="one-point-at-0"),
])
def test_et_within_stated_term_of_50_digit_value(points, cutoff):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = _et_reference(mpmath, points, cutoff)
        _assert_et_within_stated_term(mpmath, erdos_turan_bound(points, cutoff),
                                      exact, cutoff)

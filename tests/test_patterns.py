import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from obstructions import patterns
from obstructions import (
    AnnulusSpec,
    BudgetError,
    NetSpec,
    Pattern,
    PolySeqSpec,
    TorusInterval,
    bertrand_prime,
    build_nets,
    calibrate_sampled,
    elementary_pattern,
    find_hitter,
    is_prime_64,
    max_circular_gap,
    no_copy_check,
    pattern_gap,
    scale_for_budget,
    thin_pattern,
    verify_hitting_net,
    verify_hitting_sampled,
)


def sieve(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = False
    return flags


# universes whose fixed-point part s = 62 - bitlen(b) fits a narrow word:
# (id, b, w) with w the word the kernel must choose, the smallest of 16, 32
# and 64 that is at least s; at s = 16 and s = 32 the word shifts by 0
_NARROW = [
    ("s13-w16", bertrand_prime(64, 3), 16),
    ("s16-w16", bertrand_prime(50, 3), 16),
    ("s17-w32", bertrand_prime(48, 3), 32),
    ("s29-w32", bertrand_prime(16, 3), 32),
    ("s32-w32", bertrand_prime(13, 3), 32),
]


# ---------------------------------------------------------------------------
# primality and Bertrand


def test_is_prime_matches_sieve():
    flags = sieve(20_000)
    for n in range(20_000):
        assert is_prime_64(n) == flags[n]


def test_is_prime_large_known():
    assert is_prime_64((1 << 61) - 1)          # Mersenne prime
    assert not is_prime_64((1 << 58) - 1)


def test_bertrand_examples():
    assert bertrand_prime(2, 1) == 5           # smallest prime > 4
    flags = sieve(30_000)
    assert bertrand_prime(3, 2) == 83
    assert all(not flags[k] for k in range(82, 83))  # sieve agrees: 82 composite
    q = bertrand_prime(10, 2)
    assert q == 10007 and flags[q]
    assert all(not flags[k] for k in range(10_001, q))


def test_bertrand_range_error():
    with pytest.raises(ValueError, match="parameter range"):
        bertrand_prime(100, 5)


def test_bertrand_interval():
    q = bertrand_prime(32, 2)
    assert 32 ** 4 < q < 2 * 32 ** 4
    assert is_prime_64(q)


# ---------------------------------------------------------------------------
# thinning


def test_thin_forced_and_singleton():
    assert thin_pattern(5, 5, seed=9).indices == (0, 1, 2, 3, 4)
    single = thin_pattern(1, 10, seed=123)
    assert single.n == 1 and 0 <= single.indices[0] < 10


def test_thin_determinism_and_provenance():
    a = thin_pattern(8, 64, seed=1)
    b = thin_pattern(8, 64, seed=1)
    assert a.indices == b.indices
    assert a.provenance == "thinned(seed=1)"
    assert thin_pattern(8, 64, seed=2).indices != a.indices


def test_thin_rejects_oversize():
    with pytest.raises(ValueError):
        thin_pattern(6, 5, seed=0)


def test_thin_large_universe_uses_floyd():
    q = bertrand_prime(32, 2)  # above the Fisher-Yates cutoff
    pat = thin_pattern(32, q, seed=0)
    assert pat.n == 32 and pat.indices[-1] < q


def test_thin_exchangeability():
    counts = {}
    trials = 10_000
    for seed in range(trials):
        pat = thin_pattern(2, 5, seed)
        counts[pat.indices] = counts.get(pat.indices, 0) + 1
    assert len(counts) == 10
    for pair, c in counts.items():
        assert abs(c / trials - 0.1) <= 0.02, (pair, c)


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern((1, 1, 2))
    with pytest.raises(ValueError):
        Pattern((0, 7), universe=7)


# ---------------------------------------------------------------------------
# polynomial sequences


def test_polyseq_exact_values():
    spec = PolySeqSpec(2, Fraction(1, 16))
    vals = [spec.value_at(k) for k in range(16)]
    assert set(vals) == {Fraction(0), Fraction(1, 16), Fraction(4, 16), Fraction(9, 16)}


def test_polyseq_values_match_value_at():
    # values rounds the exact residue once, so it must equal the rounded
    # definition bit for bit, for float and Fraction lower coefficients alike
    rng = np.random.default_rng(23)
    for _ in range(200):
        degree = int(rng.integers(1, 6))
        leading = Fraction(int(rng.integers(-10**6, 10**6)) or 1,
                           int(rng.integers(1, 10**6)))
        lower = [float(rng.normal(0, 10.0 ** rng.integers(-6, 4)))
                 if rng.random() < 0.5 else
                 Fraction(int(rng.integers(-10**9, 10**9)), int(rng.integers(1, 10**9)))
                 for _ in range(degree - 1)]
        spec = PolySeqSpec(degree, leading, tuple(lower))
        ks = [int(k) for k in rng.integers(-10**9, 10**9, size=8)] + [0, 1, -1, 99991]
        assert list(spec.values(ks)) == [float(spec.value_at(k)) for k in ks]
    spec = PolySeqSpec(5, Fraction(1, 101), (0, 0, 0, Fraction(1, 3)))
    assert spec.values([99991])[0] == float(spec.value_at(99991))
    # the exact residues, at indices at and above D and below 0, with D
    # above 2^200
    spec = PolySeqSpec(3, Fraction(5, 3 ** 130),
                       (Fraction(-7, (1 << 61) + 1), Fraction(1, 6)))
    D = spec.residues([0]).D
    assert D > 1 << 200
    ks = [D, D + 1, 3 * D - 2, -D - 5, (1 << 300) + 17, 12345]
    res = spec.residues(ks)
    assert res.D == D and all(0 <= num < D for num in res.nums)
    assert [Fraction(num, D) for num in res.nums] == [spec.value_at(k) for k in ks]


def test_polyseq_exact_vs_quad_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = int(rng.integers(1, 4))
        den = int(rng.integers(2, 1 << 20))
        b = [Fraction(int(rng.integers(0, 1 << 30)), 1 << 30) for _ in range(p - 1)]
        spec = PolySeqSpec(p, Fraction(1, den), tuple(b))
        k = int(rng.integers(0, 1 << 12))
        if k ** p * max([1] + [abs(float(c)) for c in b]) >= 1 << 50:
            continue
        exact = spec.value_at(k)
        quad = mpmath.mpf(1) / den * k ** p
        for i, c in enumerate(b, start=1):
            quad += mpmath.mpf(c.numerator) / c.denominator * k ** i
        quad = quad % 1
        assert abs(float(exact) - float(quad)) < 2 ** -40


def test_pattern_gap_known_square_case():
    g = pattern_gap(Pattern(tuple(range(16)), 16), Fraction(1, 16), 2, (Fraction(0),))
    assert g == Fraction(7, 16)


# ---------------------------------------------------------------------------
# nets


def test_build_nets_formula():
    nets = build_nets(2, 100, 0.1)
    # the recipe mesh 0.1 / (100 * 2 * 100), realised as the dyadic step below it
    assert nets.scale_bits == 62 - (100).bit_length()
    assert nets.steps == (int(0.1 / (100 * 2 * 100) * 2 ** nets.scale_bits),)
    assert nets.meshes == (nets.steps[0] / 2 ** nets.scale_bits,)
    assert 0.1 / 20_000 - 2 ** -nets.scale_bits < nets.meshes[0] <= 0.1 / 20_000
    assert nets.sizes == (-(-2 ** nets.scale_bits // nets.steps[0]),) == (200_001,)
    # the payload is the scanned grid and nothing else
    assert set(nets.to_dict()) == {"degree", "universe", "meshes", "sizes",
                                   "total_cells"}


def test_build_nets_degree_one_is_empty():
    nets = build_nets(1, 50, 0.25)
    assert nets.meshes == () and nets.total_cells == 1


def test_build_nets_degree_three():
    nets = build_nets(3, 10, 0.5, max_cells=10 ** 9)
    assert nets.meshes[0] == pytest.approx(0.5 / 3000)
    assert nets.meshes[1] == pytest.approx(0.5 / 30000)


def test_build_nets_transfer_slack_at_scale_one():
    for degree, universe, eps in ((2, 37, 0.3), (3, 11, 0.5), (4, 7, 0.2)):
        nets = build_nets(degree, universe, eps, max_cells=10 ** 30)
        slack = sum(m * universe ** (i + 1) for i, m in enumerate(nets.meshes))
        assert slack <= eps / 100 + 1e-15


def test_build_nets_budget_error_names_term():
    # Q = 2^50 leaves the kernel 11 fixed-point bits, too few for 10^7 points
    with pytest.raises(BudgetError, match="k\\^1"):
        build_nets(2, 1 << 50, 0.01, max_cells=10 ** 7)


def test_build_nets_budget_error_names_the_flags_that_help():
    # a step below the kernel's resolution is refused naming the fix, a
    # smaller cell budget
    for degree, universe, budget in ((2, 1 << 50, 10 ** 7), (3, 1 << 40, 10 ** 7)):
        with pytest.raises(BudgetError) as err:
            build_nets(degree, universe, 0.5, max_cells=budget)
        assert "lower --net-cells" in str(err.value)
        assert "--budget" not in str(err.value)
        assert "--resolution-scale" not in str(err.value)
    with pytest.raises(ValueError, match="--net-cells"):
        build_nets(2, 101, 0.5, max_cells=0)


def test_build_nets_refuses_grids_beyond_float_range():
    # 100 p Q^(p-1) / epsilon points on the finest grid leave float range:
    # refused naming p and Q, not an OverflowError or a division by zero
    for degree, universe, eps in ((200, 64, 0.5), (52, 1048583, 0.5), (2, 64, 1e-307)):
        with pytest.raises(BudgetError, match=f"p = {degree} at Q = {universe}"):
            build_nets(degree, universe, eps, max_cells=1000)
    # just inside float range, the coarse grids' meshes pass 2^1024 and
    # clamp to one point each
    for degree, universe in ((169, 64), (51, 1048583)):
        nets = build_nets(degree, universe, 0.5, max_cells=1000)
        assert nets.steps[0] == 1 << nets.scale_bits and nets.total_cells <= 1000


def test_scale_for_budget():
    q = 1048583
    scale = scale_for_budget(2, q, 0.5, 10 ** 7)
    nets = build_nets(2, q, 0.5, max_cells=10 ** 7)
    # the net realises the recipe mesh coarsened by exactly that scale
    assert nets.steps == (int(0.5 / (100 * 2 * q) / scale * 2 ** nets.scale_bits),)
    assert nets.total_cells <= 10 ** 7
    assert scale_for_budget(2, 16, 0.5, 10 ** 7) == 1.0
    # at Q = 16,777,259 the k^1 grid clamps to one point, so the k^2 grid
    # gets the whole budget
    q3 = bertrand_prime(8, 3)
    scale = scale_for_budget(3, q3, 0.5, 1000)
    assert 300 * q3 / 0.5 * scale < 1
    assert 300 * q3 ** 2 / 0.5 * scale == pytest.approx(999)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_build_nets_never_exceeds_the_budget(degree):
    # a grid that clamps to one point must not hand its share of the budget
    # to the others; small nets are scanned, and the scan tests exactly the
    # reported cells
    budgets = [1, 2, 3, 5, 7, 10, 30, 100, 999, 1000, 4096, 10 ** 5,
               10 ** 6, 10 ** 7]
    for universe in (2, 11, 101, 1048583, bertrand_prime(8, 3)):
        pat = thin_pattern(2, universe, seed=universe)
        for eps in (0.05, 0.5, 0.95):
            for budget in budgets:
                nets = build_nets(degree, universe, eps, max_cells=budget)
                assert nets.total_cells <= budget, (universe, eps, budget, nets)
                assert nets.sizes == tuple(
                    -(-2 ** nets.scale_bits // w) for w in nets.steps)
                if budget <= 1000:
                    rep = verify_hitting_net(pat, Fraction(1, universe), degree,
                                             "auto", nets)
                    assert rep.tested == nets.total_cells


def test_net_spec_must_match_the_kernel():
    pat = thin_pattern(6, 101, seed=0)
    nets = build_nets(2, 101, 0.5, max_cells=1000)
    for wrong in (dataclasses.replace(nets, scale_bits=nets.scale_bits - 1),
                  build_nets(3, 101, 0.5, max_cells=1000),
                  build_nets(2, 103, 0.5, max_cells=1000)):
        with pytest.raises(ValueError, match="does not match"):
            verify_hitting_net(pat, Fraction(1, 101), 2, 0.5, wrong)


# ---------------------------------------------------------------------------
# net verification


def test_net_equal_spacing_degree_one():
    n = 8
    pat = Pattern(tuple(range(n)), n)
    eps_pass = (1.0 / n) * (10.0 / 9.0) + 0.01
    nets = build_nets(1, n, eps_pass)
    rep = verify_hitting_net(pat, Fraction(1, n), 1, eps_pass, nets)
    assert rep.passed and rep.worst_gap == 1.0 / n
    eps_fail = (1.0 / n) * (10.0 / 9.0) - 0.01
    rep2 = verify_hitting_net(pat, Fraction(1, n), 1, eps_fail,
                              build_nets(1, n, eps_fail))
    assert not rep2.passed


def test_net_square_pattern_sees_gap_at_zero():
    pat = Pattern(tuple(range(16)), 16)
    nets = build_nets(2, 16, 0.9)
    rep = verify_hitting_net(pat, Fraction(1, 16), 2, "auto", nets)
    # the coefficient 0 lies on the net, where the gap is exactly 7/16
    assert rep.worst_gap >= 7 / 16
    assert rep.passed
    assert rep.epsilon_guaranteed == pytest.approx(rep.worst_gap + rep.slack)


def test_net_kernel_matches_fraction_oracle():
    rng = np.random.default_rng(5)
    for degree in (2, 3):
        universe = int(rng.integers(17, 64))
        pat = thin_pattern(6, universe, seed=int(rng.integers(100)))
        nets = build_nets(degree, universe, 0.9, max_cells=50_000)
        kernel_rep = verify_hitting_net(pat, Fraction(1, universe), degree, "auto", nets)
        num_s = kernel_rep.worst_coeffs_exact
        coeffs = [Fraction(num, 1 << s) for num, s in num_s]
        oracle = pattern_gap(pat, Fraction(1, universe), degree, coeffs)
        assert Fraction(*kernel_rep.worst_gap_exact) == oracle


def _record_kernel_rows(monkeypatch) -> list:
    """A list that collects, from here on, every coefficient row the exact
    kernel evaluates."""
    rows = []
    block = patterns._ExactKernel.block

    def recording(kernel, u):
        rows.extend(map(tuple, u.tolist()))
        return block(kernel, u)

    monkeypatch.setattr(patterns._ExactKernel, "block", recording)
    return rows


@pytest.mark.parametrize("degree, universe, sizes", [(3, 13, (13, 17)),
                                                     (4, 11, (5, 6, 7)),
                                                     (2, _NARROW[0][1], (97,))])
def test_net_scans_every_cell_against_fraction_oracle(monkeypatch, degree,
                                                      universe, sizes):
    # the gap at every grid point (t_1 w_1, ...) / 2^s in Fractions; the scan
    # must visit each point once and return their max, ties to the smallest
    # tuple, with 7-row blocks that cut across the rows of every grid
    pat = thin_pattern(5, universe, seed=2)
    leading = Fraction(1, universe)
    s = patterns._scale_bits(universe)
    nets = NetSpec(degree, universe, s, tuple(-(-(1 << s) // m) for m in sizes))
    assert nets.sizes == sizes
    gaps = {}
    for ts in itertools.product(*map(range, sizes)):
        us = tuple(t * w for t, w in zip(ts, nets.steps))
        gaps[us] = pattern_gap(pat, leading, degree, [Fraction(u, 1 << s) for u in us])
    worst = max(gaps.values())
    witness = min(us for us, g in gaps.items() if g == worst)
    assert witness != (0,) * (degree - 1)
    monkeypatch.setattr(patterns, "_BLOCK_BYTES", 8 * pat.n * 7)
    # every row the kernel evaluates; these nets move a gap by more than D
    # per step of the last grid, so the scan's cone prunes nothing
    scanned = _record_kernel_rows(monkeypatch)
    rep = verify_hitting_net(pat, leading, degree, 0.9, nets)
    assert sorted(scanned) == sorted(gaps)
    assert rep.tested == nets.total_cells == len(gaps) == rep.kernel_rows
    assert Fraction(*rep.worst_gap_exact) == worst
    assert rep.worst_coeffs_exact == tuple((u, s) for u in witness)


def _exact_gaps(kernel, u) -> np.ndarray:
    """The exact max-gap numerator over D of every row of u (at most
    kernel.rows), as uint64: the kernel's block pass, then every row sorted,
    as test_kernel_rows_match_fraction_oracle holds it to Fractions."""
    kernel.block(u)
    return kernel.gaps(u, np.arange(len(u)))


def _every_cell_gap(pattern, leading, degree, nets) -> dict:
    """The exact gap numerator of every net cell, keyed by its coefficient
    tuple (``_exact_gaps``)."""
    kernel = patterns._ExactKernel(pattern, leading, degree)
    u = np.array(list(itertools.product(*map(range, nets.sizes))),
                 dtype=np.uint64) * np.array(nets.steps, dtype=np.uint64)
    gaps = np.concatenate([_exact_gaps(kernel, u[lo:lo + kernel.rows])
                           for lo in range(0, len(u), kernel.rows)])
    return dict(zip(map(tuple, u.tolist()), gaps.tolist()))


def _doubled(pattern: Pattern, universe: int) -> Pattern:
    """The pattern's indices doubled: every index even, so the points at B
    and at B + 1/2 coincide and the max gap repeats half a circle on."""
    return Pattern(tuple(2 * k for k in pattern.indices), universe)


def _pruning_cases():
    # (id, pattern, degree, nets, whether the max sits at two or more cells)
    q6, q8, q13 = bertrand_prime(6, 2), bertrand_prime(8, 2), _NARROW[0][1]
    s29, s8 = patterns._scale_bits(29), patterns._scale_bits(q8)
    return [
        # s = 13, the uint16 word, on indices below 2^10 so that a step moves
        # a gap numerator by less than D/8
        ("s13-w16", Pattern(thin_pattern(12, 1000, seed=4).indices, q13), 2,
         NetSpec(2, q13, 13, (1,)), False),
        ("thinned-6", thin_pattern(6, q6, seed=1), 2, build_nets(2, q6, 0.5, 50_000), False),
        ("degree-3", thin_pattern(6, 29, seed=3), 3,
         NetSpec(3, 29, s29, (-(-(1 << s29) // 3), -(-(1 << s29) // 20_000))), False),
        # a power-of-two step puts B + 1/2 on the grid with every B
        ("tied", _doubled(thin_pattern(8, q8 // 2, seed=5), q8), 2,
         NetSpec(2, q8, s8, (1 << (s8 - 15),)), True),
        # the universes of the n = 32 and n = 16, p = 2 nets, s = 41 and 45,
        # whose kernels run in the screened uint32 word, on indices below
        # 1000, at 2^14 cells
        *((f"s{s}-w32", Pattern(thin_pattern(12, 1000, seed=4).indices, q), 2,
           NetSpec(2, q, s, (1 << (s - 14),)), False)
          for q, s in ((bertrand_prime(32, 2), 41), (bertrand_prime(16, 2), 45))),
    ]


@pytest.mark.parametrize("case", _pruning_cases(), ids=lambda case: case[0])
def test_pruned_net_scan_matches_every_cell_oracle(monkeypatch, case):
    # nets whose last grid moves a gap numerator far less than D per step:
    # the cone skips most cells, and the report must equal a full pass of
    # the kernel over every cell, and a rerun must repeat it, work counters
    # included
    name, pat, degree, nets, tied = case
    leading = Fraction(1, pat.universe)
    full = _every_cell_gap(pat, leading, degree, nets)
    assert len(full) == nets.total_cells
    kernel = patterns._ExactKernel(pat, leading, degree)
    # every case but s13-w16 runs in the screened uint32 word
    assert kernel.word == (np.uint16 if name == "s13-w16" else np.uint32)
    assert patterns._Cone(kernel, pat, nets).lip * 8 < kernel.denominator
    worst = max(full.values())
    top = sorted(us for us, g in full.items() if g == worst)
    assert (len(top) >= 2) == tied
    s, D = kernel.s, kernel.denominator
    for us in top[:2]:  # the tie, confirmed in Fractions
        coeffs = [Fraction(u, 1 << s) for u in us]
        assert pattern_gap(pat, leading, degree, coeffs) == Fraction(worst, D)
    scanned = _record_kernel_rows(monkeypatch)
    reports = []
    for _ in range(2):
        scanned.clear()
        rep = verify_hitting_net(pat, leading, degree, "auto", nets)
        reports.append(rep)
        evaluated = set(scanned)
        # each cell goes to the kernel at most once, and some never do
        assert len(scanned) == len(evaluated) == rep.kernel_rows
        assert rep.sorted_rows <= rep.kernel_rows < nets.total_cells
        assert all(g < worst for us, g in full.items() if us not in evaluated)
        assert set(top) <= evaluated
    assert reports[0].to_dict() == reports[1].to_dict()
    assert (reports[0].kernel_rows, reports[0].sorted_rows) == (rep.kernel_rows,
                                                                rep.sorted_rows)
    assert rep.tested == nets.total_cells
    assert rep.worst_gap_exact == (worst, D)
    assert rep.worst_coeffs_exact == tuple((u, s) for u in top[0])


def _largest_denominator_net():
    """A degree-2 net at the kernel's largest denominator: b is the largest
    prime below 2^54, so s = 8 and D = b 2^8 > 2^61, on a 256-cell grid of
    step 1 for a pattern with indices 0..10. At B = 0 every point lies
    within 100/b of 0, so the best gap is nearly D, and the stride then
    sets lip m near its 13D/8 bound."""
    b = (1 << 54) - 1
    while not patterns.is_prime_64(b):
        b -= 2
    pat = Pattern((0, 1, 3, 4, 7, 10), b)
    s = patterns._scale_bits(b)
    return pat, Fraction(1, b), NetSpec(2, b, s, (1,))


def test_cone_sums_do_not_wrap_at_largest_denominator(monkeypatch):
    pat, leading, nets = _largest_denominator_net()
    kernel = patterns._ExactKernel(pat, leading, 2)
    D = kernel.denominator
    assert kernel.s == 8 and 1 << 61 < D < 1 << 62
    cone = patterns._Cone(kernel, pat, nets)
    oracle = {(t,): pattern_gap(pat, leading, 2, [Fraction(t, 1 << 8)])
              for t in range(256)}
    worst = max(oracle.values())
    m = cone.stride(int(worst * D))
    assert 2 <= m < patterns._MAX_STRIDE
    # lip m within 2% of its bound 2 best - 3D/8 <= 13D/8, where the cone
    # sums of two one-bucket rows pass 2^63: signed sums would wrap
    assert 0.98 * (13 * D / 8) < cone.lip * m <= 13 * D // 8
    assert 2 * int(kernel.caps[-2]) + cone.lip * m > 1 << 63
    # 7-row blocks: the first segment's 7 cells set the best, the rest run at m
    monkeypatch.setattr(patterns, "_BLOCK_BYTES", 8 * pat.n * 7)
    scanned = _record_kernel_rows(monkeypatch)
    rep = verify_hitting_net(pat, leading, 2, "auto", nets)
    assert len(scanned) == rep.kernel_rows < 256 and rep.tested == 256
    assert Fraction(*rep.worst_gap_exact) == worst
    witness = min(us for us, g in oracle.items() if g == worst)
    assert rep.worst_coeffs_exact == ((witness[0], 8),)
    assert all(g < worst for us, g in oracle.items() if us not in set(scanned))


def test_cone_interior_matches_integer_oracle_at_the_stride_cap():
    # the cone test on bounds up to the largest cap 18D/16 - 1 with lip m at
    # 13D/8, against the same bound in Python integers: every cell whose
    # cone reaches the best is kept, every other is dropped, for bests from
    # 0 to D, with one short span at the end
    pat, leading, nets = _largest_denominator_net()
    kernel = patterns._ExactKernel(pat, leading, 2)
    D = kernel.denominator
    cone = patterns._Cone(kernel, pat, nets)
    m = patterns._MAX_STRIDE
    cone.lip = 13 * D // 8 // m
    assert cone.stride(D) == m
    top = int(kernel.caps[-1])
    assert top == 18 * (D >> 4) - 1
    rng = np.random.default_rng(3)
    ts = [5 + m * j for j in range(40)] + [5 + m * 39 + 17]
    for best in (0, 1, D // 4, D // 2, 3 * D // 4, D - 1, D):
        for bounds in ([top] * len(ts), [0] * len(ts),
                       rng.integers(0, top + 1, size=len(ts), dtype=np.uint64).tolist(),
                       # a cone that meets the best exactly, r steps away
                       rng.choice([0, top, best, best - 1, best - cone.lip,
                                   best - 3 * cone.lip, best - 40 * cone.lip],
                                  size=len(ts)).tolist()):
            bounds = [max(0, int(x)) for x in bounds]
            want = [a + r for a, e, ua, ue in zip(ts, ts[1:], bounds, bounds[1:])
                    for r in range(1, e - a)
                    if min(ua + cone.lip * r, ue + cone.lip * (e - a - r)) >= best]
            got = cone.interior(np.array(ts, dtype=np.uint64),
                                np.array(bounds, dtype=np.uint64), best)
            assert got.tolist() == want


@pytest.mark.parametrize("seed, kernel_rows, sorted_rows, epsilon", [
    (0, 2_193_184, 320, 0.5084076727858957),
    (1, 1_571_049, 87, 0.5836175111115178),
    (2, 2_618_999, 103, 0.5100848780894421),
], ids=["seed0", "seed1", "seed2"])
def test_readme_net_work_counters(seed, kernel_rows, sorted_rows, epsilon):
    # the n = 32 nets at 10^7 cells of pattern seeds 0 to 2 (the README's is
    # seed 0); the work counters pin the cone's pruning, which the reports
    # leave out
    universe = bertrand_prime(32, 2)
    pat = thin_pattern(32, universe, seed=seed)
    nets = build_nets(2, universe, 0.5, max_cells=10 ** 7)
    rep = verify_hitting_net(pat, Fraction(1, universe), 2, "auto", nets)
    assert rep.tested == nets.total_cells == 9_990_021
    assert (rep.kernel_rows, rep.sorted_rows) == (kernel_rows, sorted_rows)
    assert rep.epsilon_guaranteed == epsilon


def test_net_requires_exact_leading():
    pat = Pattern(tuple(range(8)), 8)
    nets = build_nets(1, 8, 0.5)
    with pytest.raises(ValueError, match="exact"):
        verify_hitting_net(pat, 0.125, 1, 0.5, nets)


def _net_slack(pat, nets):
    """The transfer slack sum_i (mesh_i / 2) (max k^i - min k^i), recomputed
    in Fractions from the net's steps and the pattern."""
    return sum(Fraction(w, 2 << nets.scale_bits)
               * (max(k ** i for k in pat.indices) - min(k ** i for k in pat.indices))
               for i, w in enumerate(nets.steps, start=1))


@pytest.mark.parametrize("degree, universe, n, seed, max_cells", [
    (2, 64, 16, 3, patterns.NET_CELL_BUDGET),
    (3, 17, 10, 0, 10 ** 5),
], ids=["degree2", "degree3"])
def test_net_pass_transfers_to_random_real_coefficients(degree, universe, n, seed,
                                                        max_cells):
    # the certified guarantee must hold for off-net coefficients
    pat = thin_pattern(n, universe, seed=seed)
    nets = build_nets(degree, universe, 0.9, max_cells=max_cells)
    rep = verify_hitting_net(pat, Fraction(1, universe), degree, "auto", nets)
    assert rep.passed
    rng = np.random.default_rng(8)
    for _ in range(1000):
        coeffs = [Fraction(int(rng.integers(0, 1 << 40)), 1 << 40)
                  for _ in range(degree - 1)]
        g = pattern_gap(pat, Fraction(1, universe), degree, coeffs)
        assert g <= Fraction(rep.epsilon_guaranteed)
    # the auto epsilon satisfies the pass inequality it was derived from,
    # with the slack recomputed from the net and the pattern
    slack = _net_slack(pat, nets)
    assert rep.slack == float(slack)
    assert Fraction(*rep.worst_gap_exact) <= Fraction(9, 10) * Fraction(rep.epsilon) - slack


def test_net_too_coarse_cannot_certify():
    # with the net this coarse the transfer slack exceeds the circle, so the
    # auto epsilon clamps to 1 and the run honestly fails
    q = bertrand_prime(16, 2)
    pat = thin_pattern(16, q, seed=0)
    nets = build_nets(2, q, 0.5, max_cells=1000)
    rep = verify_hitting_net(pat, Fraction(1, q), 2, "auto", nets)
    assert rep.epsilon == 1.0 and rep.epsilon_guaranteed == 1.0
    assert not rep.passed


def _auto_nets():
    """(pattern, nets, exact slack) for the 20,000-cell degree-2 nets that
    ``verify --epsilon auto`` builds (at recipe epsilon 0.5) for thinned
    n = 8 patterns on Q = 64 and n = 12 patterns on Q = 257, seeds 0-5."""
    for n, universe in ((8, 64), (12, 257)):
        nets = build_nets(2, universe, 0.5, max_cells=20_000)
        for seed in range(6):
            pat = thin_pattern(n, universe, seed)
            yield pat, nets, _net_slack(pat, nets)


def _is_float_up(f: float, x: Fraction) -> bool:
    """Whether f is the smallest float at or above x."""
    return Fraction(f) >= x and Fraction(math.nextafter(f, -math.inf)) < x


def test_float_up_is_the_smallest_float_at_or_above():
    for x in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(0),
              Fraction(1), Fraction(10, 9) * Fraction(7, 11)):
        assert _is_float_up(patterns.float_up(x), x)


def test_net_epsilon_guaranteed_is_rounded_up():
    # rounded to nearest, it fell below worst_gap + slack on seven of these
    # twelve nets (n = 8, seeds 0-2, 4 and 5; n = 12, seeds 2 and 3), and so
    # was not a bound
    for pat, nets, slack in _auto_nets():
        rep = verify_hitting_net(pat, Fraction(1, nets.universe), 2, "auto", nets)
        assert _is_float_up(rep.epsilon_guaranteed, Fraction(*rep.worst_gap_exact) + slack)


def test_net_auto_epsilon_passes_when_fed_back():
    # the auto epsilon is the exact boundary rounded up and passes as
    # reported; rounded to nearest, rerunning at it failed on 8 of these nets
    for pat, nets, slack in _auto_nets():
        leading = Fraction(1, nets.universe)
        rep = verify_hitting_net(pat, leading, 2, "auto", nets)
        boundary = (Fraction(*rep.worst_gap_exact) + slack) * Fraction(10, 9)
        assert rep.passed and _is_float_up(rep.epsilon, boundary)
        again = verify_hitting_net(pat, leading, 2, rep.epsilon, nets)
        assert again.to_dict() == rep.to_dict()


def _exact_sup_gap(pat, universe):
    """(the supremum over real B of the max gap of k^2/Q + B k, a B that
    attains it), by brute force over every event.

    Between consecutive events, where two points meet, the circular order is
    fixed and every gap is linear in B, so the max gap is convex there and
    peaks at an event. Points j < k meet at B = (m - (k^2 - j^2)/Q)/(k - j),
    which lies in [0, 1) for k - j consecutive integers m. At such a B every
    point is (d i^2 + i (m Q - c))/(d Q), with d = k - j and c = k^2 - j^2,
    so one pair's events are one integer array."""
    ks = np.array(pat.indices, dtype=np.int64)
    best = (Fraction(0), None)
    for a, j in enumerate(pat.indices):
        for k in pat.indices[a + 1:]:
            d, c = k - j, k * k - j * j
            den = d * universe
            first = -(-c // universe)
            shifts = np.arange(first, first + d, dtype=np.int64) * universe - c
            nums = (d * ks * ks + np.outer(shifts, ks)) % den
            nums.sort(axis=1)
            gaps = np.maximum(np.diff(nums, axis=1).max(axis=1, initial=0),
                              nums[:, 0] - nums[:, -1] + den)
            r = int(gaps.argmax())
            if Fraction(int(gaps[r]), den) > best[0]:
                best = (Fraction(int(gaps[r]), den), Fraction(int(shifts[r]), den))
    return best


@pytest.mark.parametrize("n, universe", [(8, 64), (12, 257), (6, 1297)])
def test_net_certificate_bounds_the_exact_supremum(n, universe):
    # the net's worst gap, the exact worst gap over every real B, and the
    # certificate, in that order; 600-7,700 events per pattern
    leading = Fraction(1, universe)
    nets = build_nets(2, universe, 0.5, max_cells=20_000)
    rng = np.random.default_rng(universe)
    for seed in range(3):
        pat = thin_pattern(n, universe, seed)
        sup, at = _exact_sup_gap(pat, universe)
        assert pattern_gap(pat, leading, 2, (at,)) == sup
        for b in rng.integers(0, 1 << 40, size=100).tolist():
            assert pattern_gap(pat, leading, 2, (Fraction(b, 1 << 40),)) <= sup
        rep = verify_hitting_net(pat, leading, 2, "auto", nets)
        gap = Fraction(*rep.worst_gap_exact)
        assert gap <= sup <= gap + _net_slack(pat, nets) <= Fraction(rep.epsilon_guaranteed) < 1


@pytest.mark.parametrize("degree, universe, n, w", [
    (2, 67, 64, 32), (3, 71, 64, 32), (2, 64, 64, 16), (3, 64, 64, 32), (2, 67, 1, 16),
    (3, 64, 2, 16), *((degree, b, 64, w) for degree, (_, b, w) in zip((3, 2, 3, 2, 3), _NARROW)),
    (2, 1_048_583, 64, 32), (2, 65_537, 64, 32), (3, 4_099, 64, 64),
], ids=["2-67", "3-71", "2-64", "3-64", "2-67-one-point", "3-64-two-point",
        *(i for i, _, _ in _NARROW), "s41-w32", "s45-w32", "s49-w64"])
def test_kernel_rows_match_fraction_oracle(degree, universe, n, w):
    # every row's exact gap, over one full block and a short one that reuses
    # the kernel's scratch, against the rational definition; with an odd universe a
    # row puts a point on D - 1, with a power of two a row puts one on D
    # itself, which the wrapping reduce must send to 0. The small universes
    # and s41-w32 (the n = 32, p = 2 net's) and s45-w32 (the n = 16 one's)
    # run in screened words, which drop the low s - w coefficient bits. The
    # universes above 2^12 are too large for a thinned index to reach D - 1
    # by chance: there the leading numerator is -2^-s mod universe, the
    # slow phase residue when w = s, and k = 1 is added to the pattern, so
    # that k = 1 reaches it.
    s = patterns._scale_bits(universe)
    D = universe << s
    large = universe > 1 << 12
    leading = Fraction(-pow(2, -s, universe) % universe if large else 1, universe)
    edge = Fraction(D - 1, D) if universe % 2 else Fraction(0)

    def edge_row(k):
        # the point is (r 2^s + universe * acc) / D with acc = sum_i u_i k^i mod 2^s
        r = leading.numerator * k ** degree % universe
        want = ((universe - r) << s) - (universe % 2)
        if k % 2 and r and want % universe == 0:
            acc = want // universe
            return [acc * pow(k, -1, 1 << s) % (1 << s)] + [0] * (degree - 2)
        return None

    # 64 thinned indices (63 and k = 1 in a large universe), or the first n
    # of the indices that can reach the edge
    if large:
        pat = Pattern(tuple(sorted({1, *thin_pattern(63, universe, seed=1).indices})),
                      universe)
    elif n == 64:
        pat = thin_pattern(64, universe, seed=1)
    else:
        pat = Pattern(tuple(k for k in range(universe) if edge_row(k))[:n], universe)
    assert pat.n == n
    kernel = patterns._ExactKernel(pat, leading, degree)
    dims = degree - 1
    assert (kernel.s, kernel.denominator) == (s, D)
    assert kernel.word == np.dtype(f"uint{w}")
    special = [[0] * dims, [(1 << s) - 1] * dims]
    for k in pat.indices:
        row = edge_row(k)
        if row:
            coeffs = [Fraction(x, 1 << s) for x in row]
            assert PolySeqSpec(degree, leading, tuple(coeffs)).value_at(k) == edge
            special.append(row)
    assert len(special) > 2
    special = special[:6]
    # rows drawn in random order from a few distinct ones, so that the
    # oracle runs once per distinct row; the special rows open the full
    # block and close the short one
    rng = np.random.default_rng(degree)
    distinct = np.concatenate([
        np.array(special, dtype=np.uint64),
        rng.integers(0, 1 << s, size=(120, dims), dtype=np.uint64)])
    pick = rng.integers(0, len(distinct), size=kernel.rows + 101)
    pick[:len(special)] = pick[-len(special):] = range(len(special))
    u = distinct[pick]
    assert len(u) % kernel.rows != 0
    got = np.concatenate([_exact_gaps(kernel, u[lo:lo + kernel.rows])
                          for lo in range(0, len(u), kernel.rows)])
    assert len(got) == len(u)
    # every cap is below 2D and at least the exact gap
    caps = kernel.block(u[:kernel.rows])
    assert caps.dtype == np.uint64
    assert (caps < 2 * D).all() and (caps >= got[:kernel.rows]).all()
    oracle = {}
    for row, gap in zip(map(tuple, u.tolist()), got.tolist()):
        if row not in oracle:
            coeffs = [Fraction(x, 1 << s) for x in row]
            oracle[row] = pattern_gap(pat, leading, degree, coeffs)
        assert Fraction(gap, D) == oracle[row]


def _scan_sampled(kernel, blocks):
    """The scan as the sampled verifier runs it: each block of rows
    certified whole, then the witness."""
    scan = patterns._Scan(kernel)
    for u in blocks:
        scan.certify(u)
    return scan.witness()


def _witness(found):
    """The fields of a scan that name its witness: the gap, the coefficients
    and the number of rows tested."""
    return found["worst_gap_exact"], found["worst_coeffs_exact"], found["tested"]


def test_scan_keeps_few_blocks_in_flight(monkeypatch):
    # the sampled verifier draws a block only once the last one has been
    # through the kernel, so it holds one drawn block at a time however many
    # it draws
    universe = 257
    pat = thin_pattern(12, universe, seed=4)
    leading = Fraction(1, universe)
    # blocks of 50 rows in the kernel's word (uint32 here)
    word = patterns._ExactKernel(pat, leading, 2).word
    monkeypatch.setattr(patterns, "_BLOCK_BYTES", word.itemsize * pat.n * 50)
    want = verify_hitting_sampled(pat, leading, 2, 0.9, 300 * 50, seed=7)
    count = {"drawn": 0, "finished": 0, "peak": 0}
    block = patterns._ExactKernel.block
    default_rng = np.random.default_rng

    def counting_blocks(kernel, u):
        found = block(kernel, u)
        count["finished"] += 1
        return found

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, *args, **kwargs):
            count["drawn"] += 1
            count["peak"] = max(count["peak"], count["drawn"] - count["finished"])
            return self.rng.integers(*args, **kwargs)

    monkeypatch.setattr(patterns._ExactKernel, "block", counting_blocks)
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    rep = verify_hitting_sampled(pat, leading, 2, 0.9, 300 * 50, seed=7)
    assert rep.tested == 300 * 50 == rep.kernel_rows
    assert count["finished"] == count["drawn"] == 300
    assert count["peak"] == 1
    # counting changes nothing the verifier reports
    assert rep.to_dict() == want.to_dict()
    assert (rep.kernel_rows, rep.sorted_rows) == (want.kernel_rows, want.sorted_rows)


def _every_row_witness(kernel, blocks) -> tuple:
    """The best (gap, coefficients), by _rank, of every row of the blocks,
    each row's exact gap from ``_exact_gaps``."""
    found = [max(zip(_exact_gaps(kernel, u).tolist(), map(tuple, u.tolist())),
                 key=patterns._rank) for u in blocks]
    return max(found, key=patterns._rank)


@pytest.mark.parametrize("universe, n", [(_NARROW[0][1], 64), (_NARROW[3][1], 16),
                                         (257, 12)], ids=["s13-w16", "s29-w32", "s53-w64"])
def test_block_size_does_not_change_sampled_reports(monkeypatch, universe, n):
    # blocks of 2^12, 2^18 and 2^20 bytes in the word cut one drawn stream
    # in different places: the report and kernel_rows stay the same, and
    # the witness is the best, by _rank, of every drawn row's exact gap
    pat = thin_pattern(n, universe, seed=3)
    leading = Fraction(1, universe)
    samples, seed = 5_000, 17
    reports = []
    for block_bytes in (1 << 12, 1 << 18, 1 << 20):
        monkeypatch.setattr(patterns, "_BLOCK_BYTES", block_bytes)
        kernel = patterns._ExactKernel(pat, leading, 3)
        rep = verify_hitting_sampled(pat, leading, 3, 0.5, samples, seed=seed)
        assert rep.block_rows == kernel.rows == block_bytes // (kernel.word.itemsize * n)
        assert rep.kernel_rows == samples and rep.sorted_rows < samples
        reports.append(rep)
    for rep in reports[1:]:
        assert rep.to_dict() == reports[0].to_dict()
    u = np.random.default_rng(seed).integers(0, 1 << kernel.s, size=(samples, 2),
                                             dtype=np.uint64)
    gap, coeffs = _every_row_witness(kernel, [u[lo:lo + kernel.rows]
                                              for lo in range(0, samples, kernel.rows)])
    assert reports[0].worst_gap_exact == (gap, kernel.denominator)
    assert reports[0].worst_coeffs_exact == tuple((x, kernel.s) for x in coeffs)


@pytest.mark.parametrize("universe", [_NARROW[0][1], _NARROW[3][1], 257],
                         ids=["s13-w16", "s29-w32", "s53-w64"])
def test_top_cap_class_first_keeps_the_best_and_its_ties(universe):
    # patterns of 3 to 12 points have coarse caps, so a block's top cap
    # class often misses its max gap; sorting that class first and then
    # only the rows whose cap reaches the raised floor still gives the
    # witness of every row, of each block scanned alone (at floor 0) and of
    # all blocks in one scan, and a one-point pattern, where every row
    # ties, gives the smallest row
    leading = Fraction(1, universe)
    rng = np.random.default_rng(29)
    misses = 0
    for n in range(3, 13):
        pat = thin_pattern(n, universe, seed=n)
        kernel = patterns._ExactKernel(pat, leading, 3)
        blocks = np.array_split(rng.integers(0, 1 << kernel.s, size=(3_000, 2),
                                             dtype=np.uint64), 30)
        for u in blocks:
            caps = kernel.block(u)
            gaps = _exact_gaps(kernel, u)
            misses += gaps[caps == caps.max()].max() < gaps.max()
        for scanned in [[u] for u in blocks] + [blocks]:
            found = _scan_sampled(kernel, scanned)
            gap, coeffs = _every_row_witness(kernel, scanned)
            assert found["worst_gap_exact"] == (gap, kernel.denominator)
            assert found["worst_coeffs_exact"] == tuple((x, kernel.s) for x in coeffs)
        assert found["sorted_rows"] < found["kernel_rows"] == found["tested"] == 3_000
    assert misses > 0
    kernel = patterns._ExactKernel(Pattern((5,), universe), leading, 3)
    u = rng.integers(0, 1 << kernel.s, size=(500, 2), dtype=np.uint64)
    found = _scan_sampled(kernel, np.array_split(u, 7))
    assert found["worst_gap_exact"] == (kernel.denominator,) * 2
    assert found["worst_coeffs_exact"] == tuple((x, kernel.s) for x in min(map(tuple, u.tolist())))


def test_narrow_universes_choose_the_narrowest_word():
    # the scale bits of each universe, and the word of a kernel over it:
    # its positions, tiles and scratch, and every scalar its passes use. A
    # pattern on k = 1, 1000 has drift L = 1 + 1000 + (10^6 mod 2^s) > 64,
    # too large for uint16 where s > 16, so it runs in the exact word; on
    # k = 1, 2 (L = 7) every universe runs in uint16
    for (_, b, w), s in zip(_NARROW, (13, 16, 17, 29, 32)):
        assert patterns._scale_bits(b) == s
        for ks, want in (((1, 1000), w), ((1, 2), 16)):
            kernel = patterns._ExactKernel(Pattern(ks), Fraction(1, b), 3)
            assert kernel.word == np.dtype(f"uint{want}")
            assert kernel.drop == max(s - want, 0)
            arrays = [*kernel.kpows, kernel.phase, kernel.phase_tile, kernel.pos,
                      kernel.spare]
            assert {a.dtype for a in arrays} == {kernel.word}
            assert kernel.shift.dtype == kernel.bucket_shift.dtype == kernel.word
            u = np.ones((3, 2), dtype=np.uint64)
            assert kernel.positions(u).dtype == kernel.word


def _drift(ks, degree, s) -> int:
    """The drift L = 1 + sum_i max_k (k^i mod 2^s), i = 1..degree-1."""
    return 1 + sum(max(k ** i % (1 << s) for k in ks) for i in range(1, degree))


def test_word_rule_drops_bits_while_the_drift_is_small():
    # the narrowest word that holds s bits or has L <= 2^(w - 10): the
    # n = 32, p = 2 net's patterns (s = 41, L about 2^20) in uint32, the
    # n = 64, p = 2 and n = 8, p = 3 ones (L above 2^22) in uint64, and
    # two points at Q = 1,048,583 (L = 3) in uint16
    for n, p, w in ((32, 2, 32), (64, 2, 64), (8, 3, 64)):
        q = bertrand_prime(n, p)
        for seed in range(3):
            pat = thin_pattern(n, q, seed)
            kernel = patterns._ExactKernel(pat, Fraction(1, q), p)
            assert kernel.drift == _drift(pat.indices, p, kernel.s)
            assert kernel.word == np.dtype(f"uint{w}") and kernel.s > w // 2
            assert kernel.drop == max(kernel.s - w, 0)
    kernel = patterns._ExactKernel(Pattern((1, 2)), Fraction(1, 1_048_583), 2)
    assert (kernel.s, kernel.drift, kernel.word) == (41, 3, np.uint16)
    # at the limit L = 2^(w - 10) the word still drops bits, one past it not
    for K, w in ((63, 16), (64, 32), ((1 << 22) - 1, 32), (1 << 22, 64)):
        kernel = patterns._ExactKernel(Pattern((1, K)), Fraction(1, 1_048_583), 2)
        assert kernel.drift == K + 1 and kernel.word == np.dtype(f"uint{w}")


def _slow_phase(b, w):
    """The residue r over an odd b with r 2^w mod b = b - 1: the kernel's
    phase floor(r 2^w / b) in a w-bit word is then rounded down by (b - 1)/b
    of a unit of 2^-w, the most it can be. 0 for an even b, whose test needs
    none."""
    return (b - 1) * pow(2, -w, b) % b if b % 2 else 0


def _cap_oracle(points, b, s, w, drift):
    """(max gap numerator, E, cap, positions) of one row in Python ints.

    Each point is (r, k, coeffs): its leading residue r over b, its index k
    and the coefficients u_i of k^i, i = 1, 2, ...; with acc = sum_i u_i k^i
    mod 2^s, its exact numerator over D = b 2^s is (r 2^s + b acc) mod D.
    Its position in a w-bit word, in units of 2^-w, is pos = acc 2^(w-s) +
    floor(r 2^w / b) mod 2^w where w >= s, and where w < s, with the low
    g = s - w bits of each coefficient dropped, pos = sum_i (k^i mod 2^w)
    (u_i >> g) + floor(r 2^w / b) mod 2^w. E is the longest circular run of
    the 16 buckets pos >> (w - 4) that no point occupies, and the cap is
    (E + 2) D/16 - 1, plus drift D/2^w where w < s.
    """
    D, g = b << s, max(s - w, 0)
    xs, pos = [], []
    for r, k, coeffs in points:
        acc = sum(u * k ** i for i, u in enumerate(coeffs, start=1)) % (1 << s)
        x = ((r << s) + b * acc) % D
        phase = (r << w) // b
        if g:
            q = (sum(k ** i % (1 << w) * (u >> g) for i, u in enumerate(coeffs, start=1))
                 + phase) % (1 << w)
            # the point lies ahead of its position by between 0 and drift units
            assert 0 <= ((x << w) - q * D) % (D << w) < drift * D
        else:
            q = ((acc << (w - s)) + phase) % (1 << w)
            # the position is the exact point rounded down to a whole unit, so
            # its top 4 bits are the exact point's bucket
            assert q == (x << w) // D and q >> (w - 4) == 16 * x // D
        xs.append(x)
        pos.append(q)
    gap = max_circular_gap([Fraction(x, D) for x in xs]) * D
    occupied = {q >> (w - 4) for q in pos}
    runs = [0]
    for j in range(32):
        runs.append(0 if j % 16 in occupied else runs[-1] + 1)
    E = min(max(runs), 16)
    return gap, E, (E + 2) * D // 16 - 1 + (drift * (D >> w) if g else 0), pos


def test_empty_runs_table_matches_brute_force():
    table = patterns._empty_runs()
    assert table is patterns._empty_runs() and not table.flags.writeable
    for mask in range(1 << 16):
        empty = format(mask, "016b").replace("0", "e").replace("1", "0")
        want = min(16, max(map(len, (empty * 2).split("0"))))
        assert table[mask] == want, mask


@pytest.mark.parametrize("b, w, K", [
    (1, 64, 1 << 22), (3, 64, 1 << 22), (7, 64, 1 << 22), (1_048_583, 64, 1 << 22),
    *((b, w, 64 if w == 32 else 2) for _, b, w in _NARROW),
    (1_048_583, 32, (1 << 22) - 1), (1_048_583, 16, 63), (1, 16, 63),
], ids=["b1", "b3", "b7", "b1048583", *(i for i, _, _ in _NARROW),
        "b1048583-screened-w32", "b1048583-screened-w16", "b1-screened-w16"])
def test_gap_caps_bound_every_gap(b, w, K):
    # rows of exact numerators over D = b 2^s, each point split into its
    # leading residue r and a coefficient at an index k; the kernel's caps,
    # read from the 2^-w positions, bound every gap. The kernel's pattern
    # on k = 1, K sets its word through the drift L = 1 + K: K = 2^22 puts
    # s > 32 in uint64, K = 64 puts s > 16 in uint32, and K = 2^22 - 1 and
    # 63 put s = 41 in the screened uint32 and uint16 at the rule's limit
    # L = 2^(w - 10). With b = 1 every phase is exact; for b > 1 the points
    # beside the bucket edges carry the residue whose phase is rounded down
    # the most. In an exact word the bound is attained; in a screened one,
    # points at k = K with every dropped bit set whose positions sit just
    # below the bucket edges use the margin L D/2^w to within 3 + K/2^g
    # units of D/2^w. 1,048,583 is the Bertrand prime above 2^20 (n = 32, p = 2).
    r_slow = _slow_phase(b, w)
    kernel = patterns._ExactKernel(Pattern((1, K)), Fraction(r_slow or 1, b), 2)
    s, D = kernel.s, kernel.denominator
    g, L = max(s - w, 0), K + 1
    assert kernel.word == np.dtype(f"uint{w}") and kernel.drift == L and kernel.drop == g
    assert D == b << s and D % 16 == 0 and (r_slow << w) % b == (b - 1) % b
    W, U = D // 16, D >> w  # a bucket and a unit, as numerators over D

    def split(x):
        # x as a point at k = 1, whose coefficient is its acc
        r = x * pow(2, -s, b) % b if b > 1 else 0
        return r, 1, ((x - (r << s)) % D // b,)

    def drifted(q):
        # a point at k = K with the slow residue, every dropped bit of its
        # coefficient set, and position q
        t = (q - (r_slow << w) // b) * pow(K, -1, 1 << w) % (1 << w)
        return r_slow, K, ((t << g) | ((1 << g) - 1),)

    # the points with the slow residue nearest each edge i W, on either side
    c0 = (r_slow << s) % b
    above = [i * W + c0 for i in range(16)]
    below = [(i * W + c0 - b) % D for i in range(16)]
    assert all(split(x)[0] == r_slow for x in above + below)
    rng = np.random.default_rng(b)
    rows = [
        [3], [0], [D - 1], [above[0]], [below[0]],             # n = 1
        [0, 9 * W - 1], [W - 1, W], [0, D - 1], [5, 5],        # n = 2
        [above[0], below[9]],
        *([below[i], above[i]] for i in range(16)),            # both sides of each edge
        [W - 1, W, D - 1],
        [0, 1, 2, W - 1],                                      # one bucket
        [15 * W, D - 1], [15 * W + 1, D - 1, 15 * W],          # the last bucket
        above, below,                                          # every bucket
        [j * W + W - 1 for j in range(0, 16, 3)],
    ]
    rows += [rng.integers(0, D, size=n).tolist()
             for n in (1, 2, 3, 5, 8, 40) for _ in range(6)]
    rows = [[split(x) for x in row] for row in rows]
    if g:
        # positions just below each edge, the point just past them
        edge = 1 << (w - 4)
        rows += [[drifted(i * edge - 1), split(above[i])] for i in range(16)]
        rows += [[drifted(i * edge - 1) for i in range(16)],
                 [drifted(i * edge - 1) for i in range(0, 16, 5)]]
        rows += [[drifted(int(q)) for q in rng.integers(0, 1 << w, size=n)]
                 + [split(int(x)) for x in rng.integers(0, D, size=n)]
                 for n in (1, 2, 4) for _ in range(6)]
    for n in sorted({len(r) for r in rows}):
        same = [r for r in rows if len(r) == n]
        oracle = [_cap_oracle(row, b, s, w, L) for row in same]
        pos = np.array([o[3] for o in oracle], dtype=kernel.word).T.copy()
        caps = kernel.row_caps(pos, np.empty(pos.shape, dtype=kernel.word))
        for row, cap, (gap, E, want, _) in zip(same, caps.tolist(), oracle):
            assert cap == want == kernel.caps[E], row
            assert gap <= cap, row
    if not g:
        # two points 9W - 1 apart leave 7 empty buckets, and the gap is the cap
        gap, E, cap, _ = _cap_oracle([split(0), split(9 * W - 1)], b, s, w, L)
        assert E == 7 and gap == cap
        gap, E, cap, _ = _cap_oracle([split(above[0]), split(below[9])], b, s, w, L)
        assert E == 7 and cap - b < gap <= cap
    else:
        # 0, and a position at the top of bucket 8 whose point lies nearly L
        # units further on: 7 empty buckets, and the gap nearly the cap
        gap, E, cap, _ = _cap_oracle([split(0), drifted(9 * (1 << (w - 4)) - 1)],
                                     b, s, w, L)
        assert E == 7 and cap - (3 + (K >> g)) * U < gap <= cap
        assert cap == 9 * W - 1 + L * U


@pytest.mark.parametrize("degree, universe, w", [
    (2, 64, 16), (3, 101, 32), (2, 1_048_583, 32), (3, 4_099, 64),
    *((degree, b, w) for degree, (_, b, w) in zip((3, 2, 3, 2, 3), _NARROW)),
], ids=["2-64", "3-101", "2-1048583", "3-4099", *(i for i, _, _ in _NARROW)])
def test_kernel_caps_bound_its_rows(degree, universe, w):
    # the kernel's positions, exact residues and caps, row by row, against
    # Python ints and the rational points, in the screened words (2-64,
    # 3-101, 2-1048583) and the exact ones; for an odd universe the leading
    # numerator is the residue whose phase is rounded down the most, and
    # k = 1 in the pattern takes it. The exact residues come from the
    # coefficients in every word, and from the positions in an exact one.
    b = universe
    leading = Fraction(_slow_phase(b, w) or 1, b)
    pat = Pattern(tuple({0, 1, *thin_pattern(20, universe, seed=3).indices}), universe)
    kernel = patterns._ExactKernel(pat, leading, degree)
    s, D = kernel.s, kernel.denominator
    L = _drift(pat.indices, degree, s)
    lead = PolySeqSpec(degree, leading).residues(pat.indices)
    assert lead.D == b and D == b << s and kernel.word == np.dtype(f"uint{w}")
    assert kernel.drift == L and (kernel.drop > 0) == (w < s)
    if b % 2:
        assert (lead.nums[pat.indices.index(1)] << w) % b == b - 1
    rng = np.random.default_rng(universe)
    u = rng.integers(0, 1 << s, size=(300, degree - 1), dtype=np.uint64)
    u[0] = 0
    u[1] = (1 << s) - 1
    pos = kernel.positions(u).copy()
    caps = kernel.row_caps(pos, np.empty(pos.shape, dtype=kernel.word))
    vals = kernel.numerators(u, np.empty(pos.shape, dtype=np.uint64, order="F"))
    assert pos.dtype == kernel.word and vals.dtype == np.uint64
    if w >= s:
        from_pos = kernel.exact(pos.copy(), np.empty(pos.shape, dtype=np.uint64))
        assert from_pos.dtype == np.uint64 and (from_pos == vals).all()
    for coeffs, q, row, cap in zip(u.tolist(), pos.T.tolist(), vals.T.tolist(),
                                   caps.tolist()):
        points = [(r, k, coeffs) for r, k in zip(lead.nums, pat.indices)]
        gap, E, want, oracle_pos = _cap_oracle(points, b, s, w, L)
        assert q == oracle_pos and cap == want
        spec = PolySeqSpec(degree, leading, tuple(Fraction(x, 1 << s) for x in coeffs))
        assert [Fraction(x, D) for x in row] == [spec.value_at(k) for k in pat.indices]
        assert gap <= cap


@pytest.mark.parametrize("degree, universe, n", [(2, 1_048_583, 12), (3, _NARROW[0][1], 5),
                                                 (3, 101, 3)], ids=["2-1048583", "3-s13", "3-101"])
def test_run_bounds_are_exact_where_sorted_and_caps_elsewhere(degree, universe, n):
    # one scan over random blocks, then a block whose top cap class misses
    # its max gap in a new scan, against the caps and gaps of _cap_oracle
    # and, for the sorted rows, pattern_gap: every bound is at least its
    # row's gap, a sorted row's bound is its exact gap, any other row's is
    # its cap, and every row whose gap reaches the best after the block was
    # sorted; 2-1048583 and 3-101 run in the screened uint32 word, 3-s13 in
    # the exact uint16
    leading = Fraction(1, universe)
    pat = thin_pattern(n, universe, seed=2)
    kernel = patterns._ExactKernel(pat, leading, degree)
    s, D, w = kernel.s, kernel.denominator, kernel.word.itemsize * 8
    L = _drift(pat.indices, degree, s)
    lead = PolySeqSpec(degree, leading).residues(pat.indices)
    sorted_now = []
    gaps = kernel.gaps

    def recording(u, keep):
        sorted_now.extend(keep.tolist())
        return gaps(u, keep)

    kernel.gaps = recording
    found = {}  # (gap, cap) of every row checked

    def check(scan, u):
        sorted_now.clear()
        bounds = scan.run(u).tolist()
        assert len(sorted_now) == len(set(sorted_now))
        for i, coeffs in enumerate(map(tuple, u.tolist())):
            points = [(r, k, coeffs) for r, k in zip(lead.nums, pat.indices)]
            gap, _, cap, _ = _cap_oracle(points, universe, s, w, L)
            found[coeffs] = gap, cap
            assert bounds[i] >= gap
            if i in sorted_now:
                assert bounds[i] == gap
                spec = [Fraction(x, 1 << s) for x in coeffs]
                assert Fraction(gap, D) == pattern_gap(pat, leading, degree, spec)
            else:
                assert bounds[i] == cap
            if gap >= scan.best[0]:
                assert i in sorted_now

    scan = patterns._Scan(kernel)
    rng = np.random.default_rng(5)
    for rows in (400, 1, 250, 400, 37):
        check(scan, rng.integers(0, 1 << s, size=(rows, degree - 1), dtype=np.uint64))
    assert scan.sorted_rows < scan.kernel_rows == 1088
    # some rows were left at a cap above their gap, so the unsorted rows'
    # bounds are not exact gaps in disguise
    assert any(gap < cap for gap, cap in found.values())
    # t, of the largest cap, and r, of the largest gap among the rows of a
    # smaller cap, with gap_r > gap_t: t alone is the top cap class, and r
    # is sorted only after the floor has risen to gap_t
    t = min(found, key=lambda row: (-found[row][1], found[row][0]))
    r = max((row for row in found if found[row][1] < found[t][1]), key=lambda row: found[row][0])
    assert found[r][0] > found[t][0]
    scan = patterns._Scan(kernel)
    check(scan, np.array([t, r], dtype=np.uint64))
    assert sorted(sorted_now) == [0, 1] and scan.best == (found[r][0], r)


def _check_tied_rows(leading):
    """Scans blocks of rows of a degree-3 kernel on k in {0, 1, 2} whose
    best gap 9W - 1 (W = D/16) reaches their cap, which is 9W - 1 in an
    exact word and at most D/1024 more in a screened one.

    The points of a row lie at 0, x_1 and x_2 over D. With x_1 = 9W - 1 and
    x_2 in [9W, 16W) the gap is 9W - 1 and reaches the row's cap, so all
    these rows tie the best and must still be sorted; the smallest of them
    comes only after earlier blocks have set the best. Filler rows (x_1 in
    bucket 5, x_2 in bucket 10) have cap 7W - 1 in an exact word, at most
    8W - 1 + D/1024 in a screened one (whose positions can fall one bucket
    below the points'), and are pruned. x_1 = 9W - 1 needs
    r_1 2^s = -1 mod b, which the leading numerator is chosen to give. Each
    other point is rounded down onto one the row can take, at most b - 1
    below its draw for x_1 and 2b - 1 for x_2, which is even; for b = 1
    these are the draws themselves.
    """
    pat = Pattern((0, 1, 2))
    kernel = patterns._ExactKernel(pat, leading, 3)
    b, s, D = Fraction(leading).denominator, kernel.s, kernel.denominator
    r1, r2 = PolySeqSpec(3, leading).residues((1, 2)).nums
    one, W = 1 << s, D // 16
    assert (kernel.caps[7] == 9 * W - 1) == (kernel.drop == 0)

    def point(t, r, step):
        # the largest point at most t with leading residue r whose acc is a
        # multiple of step / b
        return t - (t - (r << s)) % step

    def row(x1, x2):
        # acc_1 = u_1 + u_2 and acc_2 = 2 u_1 + 4 u_2 mod 2^s; acc_2 is even
        a1 = (x1 - (r1 << s)) % D // b
        a2 = (x2 - (r2 << s)) % D // b
        assert a2 % 2 == 0
        u2 = (a2 - 2 * a1) // 2 % (one // 2)
        return (a1 - u2) % one, u2

    rng = np.random.default_rng(11)
    x1 = point(9 * W - 1, r1, b)
    assert x1 == 9 * W - 1
    ties = sorted(row(x1, point(2 * int(h), r2, 2 * b))
                  for h in rng.integers(9 * W // 2 + b - 1, 8 * W, size=60))
    filler = [row(point(5 * W + int(j), r1, b), point(10 * W + 2 * int(i), r2, 2 * b))
              for j, i in zip(rng.integers(b - 1, W, size=200),
                              rng.integers(b - 1, W // 2, size=200))]
    rest = ties[4:] + filler[13:]
    rows = ties[1:4] + filler[:13] + [rest[i] for i in rng.permutation(len(rest))]
    rows.insert(100, ties[0])
    oracle = {r: pattern_gap(pat, leading, 3, [Fraction(x, one) for x in r]) for r in rows}
    best = Fraction(9 * W - 1, D)
    assert [r for r in rows if oracle[r] == best] == [r for r in rows if r in ties]
    assert max(oracle.values()) == best
    u = np.array(rows, dtype=np.uint64)
    found = _scan_sampled(kernel, np.array_split(u, 16))
    assert _witness(found) == ((9 * W - 1, D), tuple((x, s) for x in ties[0]), len(rows))
    assert len(ties) <= found["sorted_rows"] < len(rows)


def _tie_leading(b):
    """The leading numerator over b that puts k = 1 at 9W - 1 exactly."""
    s = patterns._scale_bits(b)
    return Fraction(-pow(2, -s, b) % b, b)


def test_scan_prune_keeps_tied_rows():
    # leading 1: b = 1, D = 2^61 and every phase is exact; s = 61 and L = 7
    # run the kernel in the screened uint16 word
    _check_tied_rows(1)


def test_scan_prune_keeps_tied_rows_at_odd_leading():
    # b = 1,048,583, where the phases are rounded down, in the screened
    # uint16 word too
    _check_tied_rows(_tie_leading(1_048_583))


def test_scan_prune_keeps_tied_rows_in_an_exact_word():
    # b, the smallest prime above 2^46, has s = 15, so the kernel runs in the
    # exact uint16 word, where the ties' gap equals their cap
    b = (1 << 46) + 1
    while not patterns.is_prime_64(b):
        b += 2
    assert patterns._scale_bits(b) == 15
    _check_tied_rows(_tie_leading(b))


# ---------------------------------------------------------------------------
# sampled verification


def test_sampled_deterministic_and_exact():
    universe = bertrand_prime(8, 2)
    pat = thin_pattern(8, universe, seed=0)
    a = verify_hitting_sampled(pat, Fraction(1, universe), 2, 0.9, 500, seed=21)
    b = verify_hitting_sampled(pat, Fraction(1, universe), 2, 0.9, 500, seed=21)
    assert a.to_dict() == b.to_dict()
    assert (a.kernel_rows, a.sorted_rows) == (b.kernel_rows, b.sorted_rows)
    num, den = a.worst_gap_exact
    (u, s), = a.worst_coeffs_exact
    oracle = pattern_gap(pat, Fraction(1, universe), 2, (Fraction(u, 1 << s),))
    assert Fraction(num, den) == oracle


def test_sampled_ties_go_to_the_smallest_coefficients():
    # a one-point pattern has gap 1 for every row, so every row ties and the
    # witness is the lexicographically smallest row of the whole stream,
    # which is the same however it is cut into blocks
    pat = Pattern((3,), 11)
    samples = patterns._ExactKernel(pat, Fraction(1, 11), 3).rows + 5
    rep = verify_hitting_sampled(pat, Fraction(1, 11), 3, 0.5, samples, seed=7)
    s = rep.worst_coeffs_exact[0][1]
    drawn = np.random.default_rng(7).integers(0, 1 << s, size=(samples, 2),
                                              dtype=np.uint64)
    smallest = min(map(tuple, drawn.tolist()))
    assert rep.worst_gap == 1.0 and rep.tested == samples
    assert tuple(u for u, _ in rep.worst_coeffs_exact) == smallest


def test_sampled_equal_spacing_floor():
    n = 32
    pat = Pattern(tuple(range(n)), n)
    rep = verify_hitting_sampled(pat, Fraction(1, n), 1, 1.0 / n, 200, seed=0)
    assert rep.worst_gap == pytest.approx(1.0 / n)
    assert rep.passed


def test_sampled_float_leading_path():
    # every route evaluates an exact rational leading coefficient; a float
    # one is refused where it enters, with the same message everywhere
    pat, leading = elementary_pattern(64)
    calls = [
        lambda: PolySeqSpec(2, float(leading)),
        lambda: verify_hitting_sampled(pat, float(leading), 2, 10 / 8.0, 300, seed=5),
        lambda: no_copy_check(AnnulusSpec(2, 2, 0.9), pat, float(leading), [1], 10),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exact"):
            call()


def test_sampled_gap_below_et_bound_of_same_points():
    # full index set: for every drawn coefficient the gap is at most the
    # discrepancy, hence at most the Erdos-Turan bound of those points
    from obstructions import erdos_turan_bound
    q = 101
    pat = Pattern(tuple(range(q)), q)
    rng = np.random.default_rng(31)
    for _ in range(100):
        b = Fraction(int(rng.integers(0, 1 << 40)), 1 << 40)
        spec = PolySeqSpec(2, Fraction(1, q), (b,))
        pts = [spec.value_at(k) for k in range(q)]
        assert max_circular_gap(pts) <= Fraction(erdos_turan_bound(pts, q))


# ---------------------------------------------------------------------------
# elementary construction


def test_elementary_examples():
    pat, a = elementary_pattern(16)
    assert pat.indices == tuple(range(16)) and a == Fraction(1, 16)
    pat, a = elementary_pattern(17)
    assert a == Fraction(1, 16) and pat.n == 17
    pat, a = elementary_pattern(4)
    assert a == Fraction(1, 4)
    with pytest.raises(ValueError):
        elementary_pattern(3)


def adversarial_coeffs(n):
    """Coefficients pushing the block phase against the selection boundaries."""
    m = math.isqrt(n)
    out = []
    for i in range(m):
        for delta in (0.0, 1e-12, -1e-12, 1e-7, 1e-3):
            out.append((1.0 / m - 2.0 * i / m + delta) % 1.0)
            out.append((3.0 / m - 2.0 * i / m + delta) % 1.0)
    return out


@pytest.mark.parametrize("n", [16, 64, 256])
def test_elementary_gap_bound(n):
    pat, a = elementary_pattern(n)
    bound = min(1.0, 10.0 / math.sqrt(n)) + 1e-12
    rng = np.random.default_rng(n)
    coeffs = list(rng.random(200)) + adversarial_coeffs(n)
    ks = np.arange(n, dtype=float)
    m2 = float(a.denominator)
    lead = np.array([(k * k) % m2 for k in range(n)]) / m2
    for b in coeffs:
        x = np.sort((lead + b * ks) % 1.0)
        gap = max(np.diff(x).max(), 1.0 - x[-1] + x[0])
        assert gap <= bound, (n, b, gap)


# ---------------------------------------------------------------------------
# find_hitter


def test_find_hitter_trivial_full_circle():
    # with a full-circle target any block-walk index qualifies
    k = find_hitter(16, 0.0, TorusInterval(0.0, 1.0))
    assert 0 <= k < 16
    k = find_hitter(100, 0.37, TorusInterval(0.0, 1.0))
    assert 0 <= k < 100


def test_find_hitter_membership_and_existence():
    rng = np.random.default_rng(99)
    for n in (16, 64, 144, 1024):
        m = math.isqrt(n)
        length = min(1.0, 10.0 / math.sqrt(n))
        for _ in range(25):
            b = float(rng.random())
            target = TorusInterval(float(rng.random()), length)
            k = find_hitter(n, b, target)
            spec = PolySeqSpec(2, Fraction(1, m * m), (b,))
            assert target.contains(spec.value_at(k))
            # independent oracle: some index hits (scan everything)
            hits = [kk for kk in range(n) if target.contains(spec.value_at(kk))]
            assert k in hits


def test_find_hitter_adversarial_phases():
    n = 256
    m = math.isqrt(n)
    length = 10.0 / math.sqrt(n)
    for b in adversarial_coeffs(n):
        target = TorusInterval(0.123, length)
        k = find_hitter(n, b, target)
        assert target.contains(PolySeqSpec(2, Fraction(1, m * m), (b,)).value_at(k))


def test_find_hitter_decides_on_exact_residues():
    # index 4603's exact value lies 117/5629499534213120000 (about 2.1e-17)
    # below the target's start, but its float rounds up onto the start
    b = 0.09158478740507359
    target = TorusInterval(Fraction(1466716228767085, 2 ** 52), 0.1)
    spec = PolySeqSpec(2, Fraction(1, 10000), (b,))
    assert not target.contains(spec.value_at(4603))
    assert target.contains(spec.values([4603])[0])
    k = find_hitter(10000, b, target)
    assert k == 4604
    assert target.contains(spec.value_at(k))


def test_find_hitter_preconditions():
    with pytest.raises(ValueError):
        find_hitter(9, 0.0, TorusInterval(0.0, 1.0))
    with pytest.raises(ValueError):
        find_hitter(256, 0.0, TorusInterval(0.0, 0.1))  # target too short


# ---------------------------------------------------------------------------
# calibration


def test_calibration_logs_attempts_and_stops_early():
    universe = bertrand_prime(8, 2)
    cal = calibrate_sampled(8, 2, universe, seed=0, n_samples=300, retries=5,
                            epsilon_target=0.99)
    assert cal.achieved and len(cal.attempts) == 1  # first try passes 0.99
    cal2 = calibrate_sampled(8, 2, universe, seed=0, n_samples=300, retries=3,
                             epsilon_target=1e-9)
    assert not cal2.achieved and len(cal2.attempts) == 3
    assert cal2.epsilon_min == min(w for _, w in cal2.attempts)


@pytest.mark.parametrize("n, w, gap, coeffs, sorted_rows", [
    (64, 16, (481400609717074162, 2305843009213865984), ((3728, 13), (3182, 13)), 4_581),
    (16, 32, (1341350530537824704, 2305843017266757632),
     ((81940788, 29), (244706484, 29)), 56),
    (13, 32, (2267418595712911472, 3503536846346911744),
     ((274699740, 32), (1742889869, 32)), 19),
], ids=["n64-s13-w16", "n16-s29-w32", "n13-s32-w32"])
def test_calibration_work_counters_at_each_word(n, w, gap, coeffs, sorted_rows):
    # calibration in the narrow words, p = 3 (s = 13, 29 and 32): the
    # witness and kernel_rows, read when the kernel ran every word in uint64
    # in blocks of uint64 size, and sorted_rows, read with the blocks sized
    # in the word and their top cap class sorted first (the reports leave
    # the counters out)
    universe = bertrand_prime(n, 3)
    cal = calibrate_sampled(n, 3, universe, seed=0, n_samples=30_000, retries=3)
    kernel = patterns._ExactKernel(cal.pattern, Fraction(1, universe), 3)
    assert kernel.word == np.dtype(f"uint{w}")
    assert cal.report.block_rows == kernel.rows == patterns.block_rows(n, w // 8)
    assert cal.report.worst_gap_exact == gap
    assert cal.report.worst_coeffs_exact == coeffs
    assert (cal.kernel_rows, cal.sorted_rows) == (90_000, sorted_rows)


@pytest.mark.parametrize("gaps, best", [((((1 << 53) + 1, 1 << 54), (1, 2)), 1),
                                        (((1, 2), (2, 4)), 0)])
def test_calibration_ranks_attempts_by_exact_gap(monkeypatch, gaps, best):
    # (2^53 + 1)/2^54 and 1/2 round to the same float 0.5: the exact gaps
    # decide, and of truly equal gaps the first attempt wins
    gaps = iter(gaps)
    sampled = patterns.verify_hitting_sampled

    def with_gap(*args, **kwargs):
        return dataclasses.replace(sampled(*args, **kwargs), worst_gap_exact=next(gaps))

    monkeypatch.setattr(patterns, "verify_hitting_sampled", with_gap)
    cal = calibrate_sampled(8, 2, bertrand_prime(8, 2), seed=0, n_samples=50, retries=2)
    assert [w for _, w in cal.attempts] == [0.5, 0.5]
    assert cal.pattern_seed == best
    assert cal.report.worst_gap_exact == (1, 2)
    assert cal.pattern == thin_pattern(8, bertrand_prime(8, 2), best)


def test_calibration_target_compares_exact_gap():
    universe = bertrand_prime(8, 2)
    probe = calibrate_sampled(8, 2, universe, seed=0, n_samples=300)
    gap = Fraction(*probe.report.worst_gap_exact)
    rounded = probe.epsilon_min
    assert Fraction(rounded) < gap  # seed 0's gap rounds down to its float
    # a target between the float and the exact gap is not reached: the run
    # goes on to seed 1, whose gap is smaller, and stops there
    cal = calibrate_sampled(8, 2, universe, seed=0, n_samples=300, retries=3,
                            epsilon_target=rounded)
    assert [s for s, _ in cal.attempts] == [0, 1]
    assert cal.achieved and cal.pattern_seed == 1
    alone = calibrate_sampled(8, 2, universe, seed=0, n_samples=300,
                              epsilon_target=rounded)
    assert not alone.achieved
    above = calibrate_sampled(8, 2, universe, seed=0, n_samples=300,
                              epsilon_target=math.nextafter(rounded, 1.0))
    assert above.achieved

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cfjoin import equidist
from cfjoin.equidist import (
    Alphabet,
    DistributionTestError,
    build_s_map,
    build_sample_set,
    chart_to_su2_array,
    default_alphabet,
    halton,
    haar_sample_su2,
    koksma_hlawka_bound,
    star_discrepancy,
    su2_to_chart_array,
    van_der_corput,
    window_distance,
)
from cfjoin.groups import quat_mul, quat_normalize


def brute_force_star(p, den) -> Fraction:
    """The anchored discrepancy of the points p_i/den by brute force (an
    independent oracle): between the grid points k/den the count is constant
    and the length linear, so the sup of |count/n - beta| is met as beta
    tends to a grid point from below (count of p < k) or from above (p <= k)."""
    n = len(p)
    return max(
        abs(Fraction(count, n) - Fraction(k, den))
        for k in range(den + 1)
        for count in (sum(x < k for x in p), sum(x <= k for x in p))
    )


def vdc_numerators(count: int, bits: int) -> np.ndarray:
    """Numerators over 2^bits of the base-2 van der Corput points 1 .. count,
    by reversing the bits of each index."""
    return np.array([int(format(i, f"0{bits}b")[::-1], 2) for i in range(1, count + 1)])


class TestStarDiscrepancy:
    def test_single_point_half(self):
        # sup over beta of |1_{0.5 < beta} - beta| equals 0.5
        assert star_discrepancy(np.array([1]), 2) == Fraction(1, 2)

    def test_grid_exact(self):
        for n in (10, 100, 1000):
            assert star_discrepancy(np.arange(n), n) == Fraction(1, n)

    def test_all_points_at_origin(self):
        assert star_discrepancy(np.zeros(7, dtype=np.int64), 1) == 1

    def test_exact_dominates_brute_force_1d(self):
        # the closed form meets the brute-force sup exactly
        rng = np.random.default_rng(1)
        for n, den in ((1, 1), (40, 64), (40, 1000), (17, 7)):
            p = rng.integers(0, den + 1, size=n)
            assert star_discrepancy(p, den) == brute_force_star(p.tolist(), den)

    def test_empty_cloud_errors(self):
        with pytest.raises(ValueError, match="no points"):
            star_discrepancy(np.zeros(0, dtype=np.int64), 1)

    @pytest.mark.parametrize("pts", [[1, 3], [-1, 1]])
    def test_point_outside_unit_interval_errors(self, pts):
        # numerators over 2: 1.5 and -0.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            star_discrepancy(np.array(pts), 2)

    def test_dimension_cap(self):
        # one dimension only: a column would sort each one-point row
        with pytest.raises(ValueError, match="1-d"):
            star_discrepancy(np.zeros((2, 5), dtype=np.int64), 1)

    def test_products_past_int64_error(self):
        # i den and p n reach n den: 2 (2^62 - 1) fits int64, 2 * 2^62 does not
        top = 2**62 - 1
        assert star_discrepancy(np.array([0, top]), top) == Fraction(1, 2)
        with pytest.raises(ValueError, match="int64"):
            star_discrepancy(np.array([0, 1]), 2**62)


class TestKoksmaHlawka:
    def test_constant_function(self):
        assert koksma_hlawka_bound(lambda d: 0.0, 0.3, 1) == 0.0

    def test_lipschitz_formula(self):
        # s=1, Lipschitz-1, d* = 1/100: (1 + 2) * M(1/100) = 0.03
        assert koksma_hlawka_bound(lambda d: d, Fraction(1, 100), 1) == pytest.approx(0.03, abs=1e-15)

    def test_mesh_is_exact_at_one_over_93(self):
        # the float (1/93)^-1 is 92.99999999999999, whose floor made the mesh 1/92
        assert koksma_hlawka_bound(lambda d: d, Fraction(1, 93), 1) == 3 * (1.0 / 93)

    def test_mesh_is_the_largest_m_with_m_to_the_s_times_dstar_at_most_one(self):
        # d* = 1/n gives the mesh 1/n at s = 1, and 1/(n^2) at s = 2 the mesh
        # 1/n; a d* just above those gives 1/(n - 1).  A float root missed
        # the first at 5846 of the n below 10^5
        for n in range(2, 10**5):
            assert koksma_hlawka_bound(lambda d: d, Fraction(1, n), 1) == 3 * (1.0 / n)
        for n in range(2, 2000):
            for s, d_star in ((1, Fraction(1, n)), (2, Fraction(1, n * n))):
                scale = 1 + 2 ** (2 * s - 1)
                assert koksma_hlawka_bound(lambda d: d, d_star, s) == scale * (1.0 / n)
                above = d_star * Fraction(n**s + 1, n**s)
                assert koksma_hlawka_bound(lambda d: d, above, s) == scale * (1.0 / (n - 1))

    def test_float_dstar_is_read_exactly(self):
        # the float 0.01 lies above 1/100, so m = 99
        assert Fraction(0.01) > Fraction(1, 100)
        assert koksma_hlawka_bound(lambda d: d, 0.01, 1) == 3 * (1.0 / 99)

    def test_dstar_above_one_gives_mesh_one(self):
        assert koksma_hlawka_bound(lambda d: d, Fraction(3, 2), 2) == 9.0

    def test_invalid_dstar(self):
        with pytest.raises(ValueError):
            koksma_hlawka_bound(lambda d: d, 0.0, 1)

    def test_bound_dominates_monte_carlo_integral(self):
        numerators = vdc_numerators(512, 10)
        pts = numerators / 2**10
        d_star = star_discrepancy(numerators, 2**10)
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(-1, 1, size=2)
            lip = 2 * math.pi * (abs(a) + abs(b))
            integral = 0.0
            vals = a * np.sin(2 * math.pi * pts) + b * np.cos(2 * math.pi * pts)
            err = abs(float(vals.mean()) - integral)
            bound = koksma_hlawka_bound(lambda d: lip * d, d_star, 1)
            assert err <= bound


def radical_inverse(base: int, i: int) -> float:
    """Digit-reversal of i in the given base, one index at a time."""
    inv = 0.0
    denom = 1.0
    while i > 0:
        i, digit = divmod(i, base)
        denom *= base
        inv += digit / denom
    return inv


class TestRadicalInverse:
    def test_van_der_corput_prefix(self):
        assert np.allclose(van_der_corput(4), [0.5, 0.25, 0.75, 0.125])

    @pytest.mark.parametrize("base", [2, 3, 5, 7])
    def test_matches_scalar_digit_reversal(self, base):
        ref = np.array([radical_inverse(base, i) for i in range(1, 3001)])
        assert van_der_corput(3000, base).tobytes() == ref.tobytes()

    def test_halton_avoids_zero(self):
        pts = halton(64, 4)
        assert pts.min() > 0.0

    def test_points_are_bit_reversed_numerators(self):
        # points 1 .. 2^10 times 2^11 are the numerators, exactly
        assert np.array_equal(vdc_numerators(2**10, 11), van_der_corput(2**10) * 2**11)

    def test_star_discrepancy_checkpoints_decrease(self):
        # the first 2^k points are the grid of step 2^-k, shifted
        numerators = vdc_numerators(2**10, 11)
        ds = [star_discrepancy(numerators[: 2**k], 2**11) for k in range(6, 11)]
        assert ds == sorted(ds, reverse=True) == [Fraction(1, 2**k) for k in range(6, 11)]


# (y, x) pairs whose chart angle arctan2(y, x)/(2 pi) is +0.0, -0.0, -5e-324,
# +0.5, -0.5 and -1e-300 to within an ulp (the division by 2 pi skips the
# float -1e-300 itself); each row pairs two of them as its (a, b) and (c, d)
_EDGE_PAIRS = [(0.0, 1.0), (-0.0, 1.0), (-1e-300 * 2 * math.pi, 1.0), (-3e-323, 1.0), (0.0, -1.0), (-0.0, -1.0)]
EDGE_QUATS = np.array([p + q for p in _EDGE_PAIRS for q in _EDGE_PAIRS])


class TestHaarAndChart:
    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        n = 200_000
        qs = haar_sample_su2(rng, n)
        g = haar_sample_su2(np.random.default_rng(6), 1)[0]
        f = lambda q: q[:, 0] * q[:, 2]  # a smooth zero-mean observable
        left = quat_mul(np.broadcast_to(g, qs.shape), qs)
        diff = abs(float(np.mean(f(left))) - float(np.mean(f(qs))))
        assert diff <= 3 * 1.0 / math.sqrt(n)

    def test_coordinate_means_vanish(self):
        qs = haar_sample_su2(np.random.default_rng(7), 200_000)
        assert np.max(np.abs(qs.mean(axis=0))) <= 3 * 0.5 / math.sqrt(len(qs)) + 1e-3

    def test_z_modulus_moment(self):
        # Haar moment: E|z|^2 = 1/2 (direct integration in the double-polar
        # coordinates: |z|^2 = 1 - u1 with u1 uniform)
        qs = haar_sample_su2(np.random.default_rng(8), 200_000)
        z2 = float(np.mean(qs[:, 0] ** 2 + qs[:, 1] ** 2))
        assert abs(z2 - 0.5) <= 3 * 0.3 / math.sqrt(len(qs))

    def test_round_trip(self):
        u = np.random.default_rng(9).uniform(0.01, 0.99, size=(100, 3))
        assert np.max(np.abs(su2_to_chart_array(chart_to_su2_array(u)) - u)) < 1e-10

    @pytest.mark.parametrize("shape", [(4,), (100, 4), (3, 5, 4), "edge-angles"])
    def test_chart_columns_are_contiguous_and_unchanged(self, shape):
        # the coordinates are written into three contiguous rows: the same
        # bits as the stacked (..., 3) copy they replace, whose angles are
        # reduced by np.mod; int64 views tell the signed zeros apart
        if shape == "edge-angles":
            q = EDGE_QUATS
        else:
            q = quat_normalize(np.random.default_rng(14).standard_normal(shape))
        a, b, c, d = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
        stacked = np.stack([c * c + d * d, np.mod(np.arctan2(a, b) / (2 * math.pi), 1.0),
                            np.mod(np.arctan2(c, d) / (2 * math.pi), 1.0)], axis=-1)
        u = su2_to_chart_array(q)
        assert np.array_equal(u.view(np.int64), stacked.view(np.int64))
        assert all(u[..., i].flags.c_contiguous for i in range(3))

    def test_edge_quats_reach_the_edge_angles(self):
        angles = np.arctan2(EDGE_QUATS[:, [0, 2]], EDGE_QUATS[:, [1, 3]]) / (2 * math.pi)
        bits = {a.tobytes() for a in angles.ravel()}
        assert {np.float64(x).tobytes() for x in (0.0, -0.0, -5e-324, 0.5, -0.5)} <= bits
        assert np.any(np.isclose(angles, -1e-300, rtol=1e-15, atol=0.0))

    @pytest.mark.parametrize("n", [1, 7, 200_000])
    def test_haar_draw_is_the_normalized_gaussian(self, n):
        # normalized in place: the bits of quat_normalize on the same draw
        q = haar_sample_su2(np.random.default_rng(15), n)
        ref = quat_normalize(np.random.default_rng(15).standard_normal((n, 4)))
        assert np.array_equal(q.view(np.int64), ref.view(np.int64))

    def test_pushforward_is_haar(self):
        # low-discrepancy cube points map to a cloud passing Haar moment tests
        u = halton(100_000, 3)
        qs = chart_to_su2_array(u)
        assert np.max(np.abs(qs.mean(axis=0))) < 0.01
        z2 = float(np.mean(qs[:, 0] ** 2 + qs[:, 1] ** 2))
        assert abs(z2 - 0.5) < 0.005

    def test_ball_frequencies(self):
        # chart-image frequencies of metric balls match Haar Monte Carlo
        u = halton(200_000, 3)
        qs = chart_to_su2_array(u)
        ref = haar_sample_su2(np.random.default_rng(10), 200_000)
        rng = np.random.default_rng(11)
        for _ in range(5):
            center = haar_sample_su2(rng, 1)[0]
            radius = rng.uniform(0.4, 1.0)
            freq = float(np.mean(np.linalg.norm(qs - center, axis=1) < radius))
            vol = float(np.mean(np.linalg.norm(ref - center, axis=1) < radius))
            assert abs(freq - vol) < 0.01

    def test_measure_preservation_of_cubes(self):
        qs = haar_sample_su2(np.random.default_rng(12), 200_000)
        us = su2_to_chart_array(qs)
        rng = np.random.default_rng(13)
        for _ in range(50):
            lo = rng.uniform(0, 0.5, size=3)
            hi = lo + rng.uniform(0.1, 0.5, size=3)
            vol = float(np.prod(hi - lo))
            p = float(np.mean(np.all((us >= lo) & (us < hi), axis=1)))
            sigma = math.sqrt(vol * (1 - vol) / len(qs))
            assert abs(p - vol) <= 4 * sigma + 1e-4


class TestEquidistributionUnderMaps:
    def test_translated_clouds_error_decreases(self):
        # families of right translations act equicontinuously; the sup of the
        # empirical error over the family decreases along the checkpoints
        u = halton(2**12, 3)
        qs = chart_to_su2_array(u)
        rng = np.random.default_rng(14)
        translates = haar_sample_su2(rng, 30)
        sups = []
        for k in (8, 10, 12):
            cloud = qs[: 2**k]
            worst = 0.0
            for g in translates:
                moved = quat_mul(cloud, np.broadcast_to(g, cloud.shape))
                err = max(
                    abs(float(np.mean(moved[:, 0] ** 2 + moved[:, 1] ** 2)) - 0.5),
                    float(np.max(np.abs(moved.mean(axis=0)))),
                )
                worst = max(worst, err)
            sups.append(worst)
        assert sups[2] <= sups[0]

    def test_measure_preserving_cube_maps(self):
        # rotations mod 1 and the reflection preserve Lebesgue measure and
        # are equicontinuous; the sup of the mapped discrepancies decays.
        # On numerators over den they are integer maps mod den
        den = 2**13
        base = vdc_numerators(2**12, 13)
        maps = [
            lambda p: p,
            lambda p: (p + 3031) % den,  # about 0.37
            lambda p: (p + 6636) % den,  # about 0.81
            lambda p: den - p,
        ]
        sups = []
        for k in (7, 9, 11):
            cloud = base[: 2**k]
            sups.append(max(star_discrepancy(m(cloud), den) for m in maps))
        assert sups[2] <= sups[0]


class TestSampleSets:
    def test_elements_in_slab(self):
        ss = build_sample_set(2, 200, count=8)
        assert ss.half_width == 3 * 200
        # element times l + u on the two extreme shells and a middle one
        t = np.add.outer([-600, 0, 599], ss.u_time)
        assert np.all((-600 < t) & (t <= 600))
        assert np.all(np.abs(np.sum(ss.quats**2, axis=1) - 1) < 1e-12)

    def test_size_and_pattern(self):
        ss = build_sample_set(2, 200, count=4)
        assert ss.size == 2 * 600 * 4 == len(range(-ss.half_width, ss.half_width)) * ss.count
        assert ss.u_time.shape == (4,) and ss.quats.shape == (4, 4)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            build_sample_set(2, 200, count=0)

    def test_conditional_measure_approximation(self):
        # cheap instance of the dense-family property: a slab-scale window's
        # conditional measure matches the net's counting measure
        ss = build_sample_set(1, 1, count=64)  # slab (-1, 1] x SU(2)
        rng = np.random.default_rng(15)
        t_mc = rng.uniform(-1, 1, size=200_000)
        q_mc = quat_normalize(rng.standard_normal((200_000, 4)))
        lo, hi = -0.6, 0.45
        mc = float(np.mean((t_mc > lo) & (t_mc <= hi)))
        t = np.add.outer(np.arange(-ss.half_width, ss.half_width), ss.u_time)
        hits = int(np.sum((lo < t) & (t <= hi)))
        assert abs(mc - hits / ss.size) < 0.02


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("size, length", [(2, 3), (5, 400), (8, 4001)])
def test_window_distance_matches_counted_windows(size, length, width):
    values = np.random.default_rng(length).integers(0, size, size=length)
    m = length - width + 1
    windows = Counter(zip(*(values[k:k + m].tolist() for k in range(width))))
    exact = sum(abs(Fraction(windows[w], m) - Fraction(1, size**width))
                for w in itertools.product(range(size), repeat=width))
    assert window_distance(values, size, width) == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


class TestSMap:
    def test_boundary_pinned_to_identity(self):
        alph = default_alphabet(3, 100, 8)
        res = build_s_map(3, 50, alph, eps=0.5, rng=np.random.default_rng(16))
        assert res.values[0] == alph.identity_index
        assert res.values[-1] == alph.identity_index

    def test_degenerate_alphabet_distance_zero(self):
        alph = default_alphabet(2, 100, 1)
        res = build_s_map(2, 50, alph, eps=0.5, rng=np.random.default_rng(17))
        assert res.pair_distance == 0.0

    def test_pair_distance_below_eps_when_easy(self):
        alph = default_alphabet(5, 10_000, 8)
        res = build_s_map(5, 3125, alph, eps=1 / 6, rng=np.random.default_rng(18))
        assert res.pair_distance < 1 / 6

    def test_retry_cap_error(self):
        alph = default_alphabet(2, 100, 8)
        with pytest.raises(DistributionTestError, match="distribution test failed"):
            build_s_map(2, 100, alph, eps=0.01, rng=np.random.default_rng(19), max_retries=5)

    def test_uniformity_of_values(self):
        alph = default_alphabet(6, 10_000, 8)
        res = build_s_map(6, 7776, alph, eps=1 / 7, rng=np.random.default_rng(20))
        counts = np.bincount(res.values, minlength=8)
        assert counts.min() > 0.8 * len(res.values) / 8

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from cfjoin import cf_engine as cf
from cfjoin.groups import GElement, SU2_I, SU2Element, g_inv, g_mul


class TestSequences:
    def test_initial_values(self):
        seq = cf.derive_sequences(cf.default_params(), 0)
        assert seq == [(1, 1)]

    def test_first_level_r100(self):
        seq = cf.derive_sequences(cf.default_params(), 1)
        assert seq[1] == (199, 200)

    def test_gap_identity(self):
        # a~_{n+1} - a_{n+1} = (2n+1) a~_n exactly, all integers
        params = cf.default_params()
        seq = cf.derive_sequences(params, 8)
        for n in range(8):
            assert seq[n + 1][1] - seq[n + 1][0] == (2 * n + 1) * seq[n][1]

    def test_ratio_identity(self):
        params = cf.default_params()
        seq = cf.derive_sequences(params, 8)
        for n in range(1, 8):
            assert cf.level_ratio(seq, n) == 1 + Fraction(2 * n - 1, 2 * params.r(n - 1) - 1)

    def test_level_too_deep(self):
        with pytest.raises(cf.LevelTooDeepError, match="level too deep"):
            cf.derive_sequences(cf.default_params(), 500)

    def test_explicit_schedule(self):
        params = cf.CFParams(r_kind="explicit", r_values=(10, 20, 30))
        assert params.r(2) == 30
        with pytest.raises(ValueError):
            params.r(3)


class TestNormalizer:
    def test_near_trivial_ratios(self):
        # huge r makes every ratio 1 + tiny, so the base keeps almost all mass
        params = cf.CFParams(r_floor=10**9)
        mu0, tail = cf.mu_total_normalizer(params, 100)
        assert 0.9999 < mu0 <= 1.0
        assert tail < 1e-6

    def test_default_schedule(self):
        mu0, tail = cf.mu_total_normalizer(cf.default_params(), 120)
        assert 0.9 < mu0 < 0.95
        assert tail < 1e-6

    def test_divergent_schedule_rejected(self):
        with pytest.raises(ValueError, match="divergent product"):
            cf.mu_total_normalizer(cf.CFParams(r_kind="constant", r_floor=2), 50)

    def test_mu_consistency(self, levels):
        for n in range(6):
            ratio = float(cf.level_ratio(levels.seq, n))
            assert abs(levels.mu_xn(n + 1) - ratio * levels.mu_xn(n)) <= 1e-12


class TestValidation:
    def test_default_passes(self, levels):
        report = cf.validate_cf(levels)
        assert report.passed, report.as_dict()

    def test_single_level_vacuous(self):
        lv = cf.build_levels(cf.CFParams(max_level=1), seed=0)
        rep = cf.validate_cf(lv)
        assert rep.passed

    def test_constant_schedule_fails_finiteness(self):
        report_conditions = {}
        params = cf.CFParams(r_kind="constant", r_floor=2, max_level=2)
        lv = cf.build_levels(params, seed=0, normalizer_depth=0)
        rep = cf.validate_cf(lv)
        report_conditions = rep.as_dict()
        assert not report_conditions["finiteness-eq-9"]["passed"]
        assert not rep.passed

    def test_tiling_is_exact_integers(self, levels):
        # the 2r-1 widened shells tile the next base interval exactly
        for lv in levels.levels:
            assert (2 * lv.r - 1) * lv.a_tilde == levels.a(lv.n + 1)


class TestCylinders:
    def test_full_base_measure(self, levels):
        a1 = levels.a(1)
        cyl = cf.CylinderSet(1, [cf.full_block(-a1, a1)])
        value, err = cf.cylinder_measure(cyl, levels)
        assert err == 0.0
        assert abs(value - levels.mu_xn(1)) < 1e-15

    def test_half_interval(self, levels):
        a1 = levels.a(1)
        cyl = cf.CylinderSet(1, [cf.full_block(0, a1)])
        value, _ = cf.cylinder_measure(cyl, levels)
        assert abs(value - 0.5 * levels.mu_xn(1)) < 1e-15

    def test_cube_fiber_monte_carlo(self, levels, rng):
        cube = ((0.1, 0.6), (0.2, 0.9), (0.0, 0.5))
        vol = 0.5 * 0.7 * 0.5
        block = cf.Block(Fraction(-50), Fraction(50), "cube", cube)
        cyl = cf.CylinderSet(1, [block])
        value, err = cf.cylinder_measure(cyl, levels, samples=200_000, rng=rng)
        expected = (100 / (2 * levels.a(1))) * vol * levels.mu_xn(1)
        assert abs(value - expected) <= 4 * err + 1e-12

    def test_cube_fiber_needs_rng(self, levels):
        # a cube fiber is measured by Monte Carlo, whose seed must come from
        # the caller's named substream
        cube = ((0.1, 0.6), (0.2, 0.9), (0.0, 0.5))
        cyl = cf.CylinderSet(1, [cf.Block(Fraction(-50), Fraction(50), "cube", cube)])
        with pytest.raises(ValueError, match="needs an rng"):
            cf.cylinder_measure(cyl, levels)

    def test_y4_consistency(self, levels):
        # one level down: the measure splits equally over the #C translates
        lv0 = levels.level(0)
        cyl = cf.CylinderSet(0, [cf.full_block(Fraction(-1, 2), Fraction(3, 4))])
        v0, _ = cf.cylinder_measure(cyl, levels)
        t_c = lv0.correction_time_fraction(5)
        shifted = cf.CylinderSet(1, [cf.full_block(Fraction(-1, 2) + t_c, Fraction(3, 4) + t_c)])
        v1, _ = cf.cylinder_measure(shifted, levels)
        assert abs(v0 - lv0.card_c_next * v1) < 1e-15

    def test_validation_rejects_overlap(self, levels):
        cyl = cf.CylinderSet(1, [cf.full_block(0, 10), cf.full_block(5, 15)])
        with pytest.raises(ValueError, match="overlap"):
            cyl.validate(levels)

    def test_expand_identity(self, levels):
        cyl = cf.CylinderSet(1, [cf.full_block(-10, 10)])
        same = cf.expand_cylinder(cyl, 1, levels)
        assert same.blocks == cyl.blocks

    def test_expand_one_level_preserves_measure(self, levels):
        cyl = cf.CylinderSet(0, [cf.full_block(Fraction(-1), Fraction(1))])
        v0, _ = cf.cylinder_measure(cyl, levels)
        out = cf.expand_cylinder(cyl, 1, levels)
        assert len(out.blocks) == levels.level(0).card_c_next
        v1, _ = cf.cylinder_measure(out, levels)
        assert abs(v0 - v1) < 1e-12
        out.validate(levels)  # disjointness preserved

    def test_funny_rank_one_refinement(self, levels):
        # a level-m cylinder is a disjoint union of level-(m+1) cylinders
        # whose measures sum exactly
        cyl = cf.CylinderSet(1, [cf.full_block(-60, 35)])
        v, _ = cf.cylinder_measure(cyl, levels)
        ref = cf.expand_cylinder(cyl, 2, levels)
        ref.validate(levels)
        total = sum(
            cf.cylinder_measure(cf.CylinderSet(2, [b]), levels)[0] for b in ref.blocks
        )
        assert abs(total - v) < 1e-9

    def test_expansion_cap(self, levels):
        cyl = cf.CylinderSet(1, [cf.full_block(-10, 10)])
        with pytest.raises(cf.ExpansionTooLargeError, match="expansion too large"):
            cf.expand_cylinder(cyl, 4, levels, max_blocks=1000)

    def test_cube_fiber_expansion_round_trip(self, levels):
        # translated cube blocks keep their measure and agree pointwise with
        # the base cylinder through the level embedding
        cube = ((0.15, 0.75), (0.1, 0.8), (0.2, 0.9))
        base = cf.CylinderSet(1, [cf.Block(Fraction(-40), Fraction(40), "cube", cube)])
        v0, e0 = cf.cylinder_measure(base, levels, samples=200_000, rng=np.random.default_rng(0))
        expanded = cf.expand_cylinder(base, 2, levels)
        assert len(expanded.blocks) == levels.level(1).card_c_next
        v1, e1 = cf.cylinder_measure(expanded, levels, samples=3_000, rng=np.random.default_rng(1))
        assert abs(v0 - v1) <= 4 * math.sqrt(e0**2 + e1**2)
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = cf.sample_point(levels, 6, rng)
            up = cf.embed_to_level(x, levels, 2)
            assert cf.point_in_cylinder(x, base, levels) == cf.point_in_cylinder(up, expanded, levels)


class TestAction:
    def test_identity_action(self, levels, rng):
        x = cf.sample_point(levels, 12, rng)
        y = cf.act(GElement(0.0, SU2_I), x, levels)
        assert cf.point_eq(x, y, levels)

    def test_group_action_inverse(self, levels, rng):
        for _ in range(20):
            x = cf.sample_point(levels, 12, rng)
            g = GElement(float(rng.uniform(-300, 300)), SU2Element.from_array(rng.standard_normal(4)))
            y = cf.act(g, x, levels)
            z = cf.act(g_inv(g), y, levels)
            assert cf.point_eq(cf.normalize_point(z, levels), x, levels)

    def test_action_is_left_action(self, levels, rng):
        # T_g T_h x = T_{gh} x on points that stay within truncation
        for _ in range(10):
            x = cf.sample_point(levels, 12, rng)
            g = GElement(float(rng.uniform(-50, 50)), SU2Element.from_array(rng.standard_normal(4)))
            h = GElement(float(rng.uniform(-50, 50)), SU2Element.from_array(rng.standard_normal(4)))
            lhs = cf.act(g, cf.act(h, x, levels), levels)
            rhs = cf.act(g_mul(g, h), x, levels)
            assert cf.point_eq(lhs, rhs, levels, tol=1e-8)

    def test_central_translate_shifts_index(self, levels, rng):
        # along the scheme identity g_n * f * c(h) = f * s(h) s(h+1)^{-1} * c(h+1):
        # when the corrections at h and h+1 agree, the index simply shifts
        n = 2
        lv = levels.level(n)
        vals = lv.s_map.values
        h_match = None
        for j in range(len(vals) - 1):
            if vals[j] == vals[j + 1]:
                h_match = j - (lv.r - 1)
                break
        assert h_match is not None
        x = cf.CFPoint(n, 7, 0.25, (1.0, 0.0, 0.0, 0.0), (h_match, 0, 0, 0))
        y = cf.act_time(2 * lv.a_tilde, x, levels)
        y_at_n = cf.embed_to_level(cf.normalize_point(y, levels), levels, n)
        assert y_at_n.tail[0] == h_match + 1
        # the level-n coordinate is unchanged when the corrections cancel
        assert y_at_n.t_int == x.t_int and abs(y_at_n.t_frac - x.t_frac) < 1e-12
        assert max(abs(a - b) for a, b in zip(y_at_n.q, x.q)) < 1e-12

    def test_inexact_float_translate_rejected(self, levels):
        # from 2^53 on a float time cannot carry every integer translate
        x = cf.CFPoint(1, 0, 0.5, (1.0, 0.0, 0.0, 0.0), (0, 0, 0, 0, 0))
        with pytest.raises(cf.InexactTranslateError, match="act_time"):
            cf.act(GElement(float(2**53), SU2_I), x, levels)

    def test_truncation_exhaustion(self, levels):
        x = cf.CFPoint(1, 0, 0.5, (1.0, 0.0, 0.0, 0.0), ())
        with pytest.raises(cf.OrbitLeftTruncationError, match="orbit left truncation"):
            cf.act_time(10**6, x, levels)

    def test_measure_preservation_empirical(self, levels):
        # fraction of points with act(g, x) in a full-fiber cylinder equals
        # its measure within 4 standard errors
        rng = np.random.default_rng(5)
        n = 100_000
        cyl_lo, cyl_hi = -80.0, 45.0
        mu_c = (cyl_hi - cyl_lo) / (2 * levels.a(1)) * levels.mu_xn(1)
        ti, tf, q, tails = cf.sample_point_batch(levels, n, 3, rng)
        g = 317  # an integer translate, no fiber component
        ti3, tf3, q3 = cf.embed_batch(levels, ti, tf, q, tails, 1, 3)
        ti3 = ti3 + np.int64(g)
        valid, ti1, tf1, _, _ = cf.peel_batch(levels, ti3, tf3, q3, 3, 1)
        t1 = ti1.astype(float) + tf1
        frac = float(np.mean(valid & (t1 > cyl_lo) & (t1 <= cyl_hi))) * levels.mu_xn(1)
        sigma = levels.mu_xn(1) * math.sqrt(mu_c * (1 - mu_c) / n)
        assert abs(frac - mu_c) <= 4 * sigma


class TestSampling:
    def test_time_uniform_ks(self, levels):
        rng = np.random.default_rng(6)
        pts = [cf.sample_point(levels, 2, rng) for _ in range(4000)]
        a1 = levels.a(1)
        times = np.array([p.time() for p in pts])
        stat = scipy.stats.kstest(times, "uniform", args=(-a1, 2 * a1))
        assert stat.pvalue > 0.01

    def test_tail_indices_uniform_chi2(self, levels):
        rng = np.random.default_rng(7)
        n = 20_000
        _, _, _, tails = cf.sample_point_batch(levels, n, 3, rng)
        r1 = levels.level(1).r
        counts = np.bincount(tails[:, 0] + (r1 - 1), minlength=2 * r1 - 1)
        stat = scipy.stats.chisquare(counts)
        assert stat.pvalue > 0.01

    def test_fiber_haar_moments(self, levels):
        rng = np.random.default_rng(8)
        _, _, q, _ = cf.sample_point_batch(levels, 100_000, 0, rng)
        assert np.max(np.abs(q.mean(axis=0))) < 4 * 0.5 / math.sqrt(len(q))
        z2 = float(np.mean(q[:, 0] ** 2 + q[:, 1] ** 2))
        assert abs(z2 - 0.5) < 4 * 0.3 / math.sqrt(len(q))

    def test_h_minus_rejection(self, levels):
        rng = np.random.default_rng(9)
        _, _, _, tails = cf.sample_point_batch(levels, 5000, 4, rng, h_minus=True)
        for col, k in enumerate(range(1, 5)):
            r = levels.level(k).r
            bound = max(math.floor((1 - 1 / k**2) * r), 1)
            assert np.max(np.abs(tails[:, col])) <= bound


class TestBatchRoundTrips:
    def test_embed_peel_int64(self, levels, rng):
        ti, tf, q, tails = cf.sample_point_batch(levels, 500, 12, rng)
        ti6, tf6, q6 = cf.embed_batch(levels, ti, tf, q, tails, 1, 6)
        valid, ti1, tf1, q1, hs = cf.peel_batch(levels, ti6, tf6, q6, 6, 1)
        assert valid.all()
        assert np.all(ti1 == ti)
        assert np.max(np.abs(tf1 - tf)) < 1e-12
        assert np.max(np.abs(q1 - q)) < 1e-12
        assert np.all(hs == tails[:, :5])

    def test_embed_peel_object_lane(self, levels, rng):
        ti, tf, q, tails = cf.sample_point_batch(levels, 200, 12, rng)
        ti7, tf7, q7 = cf.embed_batch(levels, ti, tf, q, tails, 1, 7)
        assert ti7.dtype == object
        valid, ti1, _, q1, _ = cf.peel_batch(levels, ti7, tf7, q7, 7, 1)
        assert valid.all()
        assert np.all(ti1 == ti)
        assert np.max(np.abs(q1 - q)) < 1e-12

    def test_scalar_matches_batch(self, levels, rng):
        x = cf.sample_point(levels, 12, rng)
        up = cf.embed_to_level(x, levels, 4)
        ti, tf, q = cf.embed_batch(
            levels,
            np.array([x.t_int], dtype=np.int64),
            np.array([x.t_frac]),
            np.array([x.q]),
            np.array([x.tail[:3]]),
            1,
            4,
        )
        assert int(ti[0]) == up.t_int
        assert abs(float(tf[0]) - up.t_frac) < 1e-12
        assert np.max(np.abs(q[0] - np.array(up.q))) < 1e-12


class TestCylinderMembership:
    def test_point_in_full_cylinder(self, levels, rng):
        cyl = cf.CylinderSet(1, [cf.full_block(-50, 50)])
        inside = cf.CFPoint(1, 10, 0.2, (1.0, 0.0, 0.0, 0.0), (0, 0))
        outside = cf.CFPoint(1, 90, 0.2, (1.0, 0.0, 0.0, 0.0), (0, 0))
        assert cf.point_in_cylinder(inside, cyl, levels)
        assert not cf.point_in_cylinder(outside, cyl, levels)

    def test_membership_after_embedding(self, levels, rng):
        cyl = cf.CylinderSet(1, [cf.full_block(-50, 50)])
        x = cf.CFPoint(1, -3, 0.7, (1.0, 0.0, 0.0, 0.0), (5, -2, 7))
        up = cf.embed_to_level(x, levels, 3)
        assert cf.point_in_cylinder(up, cyl, levels)


class TestSerialization:
    def test_params_round_trip(self):
        params = cf.CFParams(max_level=4, alphabet_size=12, sample_count=32)
        again = cf.CFParams.from_json(params.to_json())
        assert again == params

    def test_level_dump_rows(self, levels):
        rows = cf.level_dump_rows(levels)
        assert rows[0]["n"] == 0 and rows[0]["a"] == 1
        assert rows[1]["card_C"] == 199
        assert rows[1]["ratio"] == pytest.approx(200 / 199)

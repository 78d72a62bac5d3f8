import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from cfjoin import cf_engine as cf
from cfjoin.groups import GElement, SU2_I, SU2Element, g_inv, g_mul, quat_normalize


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

    @pytest.mark.parametrize("seed", [42, 20260810, 20260811])
    def test_integer_pairs_match_fraction_reference(self, seed):
        built = cf.build_levels(cf.default_params(), seed=seed)
        assert _w3_w4(cf.validate_cf(built)) == _fraction_w3_w4(built) == (True, True)

    @pytest.mark.parametrize("u, contained", [(0.0, True), (0.125, False)])
    def test_containment_at_the_top_edge(self, u, contained):
        # the top interval (2 (r-1) a~ - a, 2 (r-1) a~ + a] shifted by
        # a~ - a + u ends at a_(n+1) + u
        built = _edited_build(-1, _AT2 - _A2, u)
        assert _fraction_w3_w4(built) == (contained, True)
        assert _w3_w4(cf.validate_cf(built)) == (contained, True)

    @pytest.mark.parametrize("u, disjoint", [(0.0, True), (0.125, False)])
    def test_overlap_of_an_eighth_flagged(self, u, disjoint):
        # the intervals at h = 0 and h = 1 are 2 (a~ - a) apart; shifting the
        # first by that gap + u overlaps the second by u
        built = _edited_build(_R2 - 1, 2 * (_AT2 - _A2), u)
        assert _fraction_w3_w4(built) == (True, disjoint)
        assert _w3_w4(cf.validate_cf(built)) == (True, disjoint)

    @pytest.mark.parametrize("u", [1.0, -0.125, float("nan")])
    def test_fraction_outside_unit_interval_raises(self, u):
        built = _edited_build(0, 0, u)
        with pytest.raises(cf.CorrectionFractionError, match="level 2"):
            cf.validate_cf(built)

    def test_tiling_is_exact_integers(self, levels):
        # the 2r-1 widened shells tile the next base interval exactly
        for lv in levels.levels:
            assert (2 * lv.r - 1) * lv.a_tilde == levels.a(lv.n + 1)


def _w3_w4(report) -> tuple[bool, bool]:
    conditions = report.as_dict()
    return conditions["w3-containment"]["passed"], conditions["w4-disjointness"]["passed"]


def _fraction_w3_w4(levels) -> tuple[bool, bool]:
    """Containment and disjointness of the intervals (t_c - a_n, t_c + a_n]
    in exact rationals, one correction time at a time."""
    contained = disjoint = True
    for lv in levels.levels:
        a_next = levels.a(lv.n + 1)
        ivs = sorted(
            (t_c - lv.a, t_c + lv.a) for t_c in map(lv.correction_time_fraction, lv.h_range())
        )
        contained &= all(lo >= -a_next and hi <= a_next for lo, hi in ivs)
        disjoint &= all(lo2 >= hi1 for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]))
    return contained, disjoint


_A2, _AT2 = cf.derive_sequences(cf.CFParams(), 2)[2]
_R2 = cf.CFParams().r(2)


def _edited_build(j: int, shell: int, u: float):
    """A two-level build whose level-2 corrections c(h) are the central
    translates (2 h a~_2, I), except at index j, whose time gains shell + u."""
    built = cf.build_levels(cf.CFParams(max_level=2), seed=0)
    lv = built.levels[2]
    s_shell, s_u = np.zeros_like(lv.s_shell), np.zeros_like(lv.s_u)
    s_shell[j], s_u[j] = shell, u
    built.levels[2] = dataclasses.replace(lv, s_shell=s_shell, s_u=s_u)
    return built


class TestCylinders:
    def test_full_base_measure(self, levels):
        a1 = levels.a(1)
        cyl = cf.CylinderSet(1, [cf.full_block(-a1, a1)])
        value = cf.cylinder_measure(cyl, levels)
        assert abs(value - levels.mu_xn(1)) < 1e-15

    def test_half_interval(self, levels):
        a1 = levels.a(1)
        cyl = cf.CylinderSet(1, [cf.full_block(0, a1)])
        value = cf.cylinder_measure(cyl, levels)
        assert abs(value - 0.5 * levels.mu_xn(1)) < 1e-15

    def test_y4_consistency(self, levels):
        # one level down: the measure splits equally over the #C translates
        lv0 = levels.level(0)
        cyl = cf.CylinderSet(0, [cf.full_block(Fraction(-1, 2), Fraction(3, 4))])
        v0 = cf.cylinder_measure(cyl, levels)
        t_c = lv0.correction_time_fraction(5)
        shifted = cf.CylinderSet(1, [cf.full_block(Fraction(-1, 2) + t_c, Fraction(3, 4) + t_c)])
        v1 = cf.cylinder_measure(shifted, levels)
        assert abs(v0 - lv0.card_c_next * v1) < 1e-15

    def test_validation_rejects_overlap(self, levels):
        cyl = cf.CylinderSet(1, [cf.full_block(0, 10), cf.full_block(5, 15)])
        with pytest.raises(ValueError, match="overlap"):
            cyl.validate(levels)

    def test_funny_rank_one_refinement(self, levels):
        # a level-m cylinder is a disjoint union of level-(m+1) cylinders
        # (its translates by the corrections c(h)) whose measures sum exactly
        cyl = cf.CylinderSet(1, [cf.full_block(-60, 35)])
        v = cf.cylinder_measure(cyl, levels)
        lv = levels.level(1)
        shifts = [lv.correction_time_fraction(h) for h in lv.h_range()]
        ref = cf.CylinderSet(2, [cf.full_block(-60 + t_c, 35 + t_c) for t_c in shifts])
        ref.validate(levels)
        total = sum(cf.cylinder_measure(cf.CylinderSet(2, [b]), levels) for b in ref.blocks)
        assert abs(total - v) < 1e-9


def _act_and_peel(levels, gs, batch, top):
    """Embed a level-1 batch to `top`, act by each element of gs in turn,
    and peel back to level 1: (valid, ti, tf, q, hs)."""
    ti, tf, q, tails = batch
    point = cf.embed_batch(levels, ti, tf, q, tails, 1, top)
    for g in gs:
        point = cf.act(g, *point)
    return cf.peel_batch(levels, *point, top, 1)


def _unmoved(batch, top):
    """The level-1 batch in the form _act_and_peel returns, all lanes valid."""
    ti, tf, q, tails = batch
    return np.ones(len(tf), dtype=bool), ti, tf, q, tails[:, : top - 1]


def _assert_same_lanes(x, y, tol):
    """Two peeled batches are one set of points: the same valid lanes and,
    on those, the same times ti + tf (a carry may move between the parts),
    fibers within tol and the same shift indices."""
    valid, ti, tf, q, hs = x
    valid_y, ti_y, tf_y, q_y, hs_y = y
    assert np.array_equal(valid, valid_y)
    v = valid
    assert np.max(np.abs((ti[v] - ti_y[v]).astype(float) + (tf[v] - tf_y[v])), initial=0.0) <= tol
    assert np.max(np.abs(q[v] - q_y[v]), initial=0.0) <= tol
    assert np.array_equal(hs[v], hs_y[v])


def _random_g(rng, half_width):
    return GElement(float(rng.uniform(-half_width, half_width)),
                    SU2Element.from_array(rng.standard_normal(4)))


class TestAction:
    def test_identity_action(self, levels, rng):
        # exact at the top level on both lanes (level-7 times are Python
        # ints, dtype=object); the embed/peel round trip rounds the fiber
        batch = cf.sample_point_batch(levels, 200, 12, rng)
        for top in (4, 7):
            ti, tf, q = cf.embed_batch(levels, *batch, 1, top)
            assert (ti.dtype == object) == (top == 7)
            ti_e, tf_e, q_e = cf.act(GElement(0.0, SU2_I), ti, tf, q)
            assert ti_e.dtype == ti.dtype and np.array_equal(ti_e, ti)
            assert np.array_equal(tf_e, tf) and np.array_equal(q_e, q)
            _assert_same_lanes(_act_and_peel(levels, [GElement(0.0, SU2_I)], batch, top),
                               _unmoved(batch, top), 1e-12)

    def test_group_action_inverse(self, levels, rng):
        for top in (3, 7):
            for _ in range(20):
                batch = cf.sample_point_batch(levels, 50, 12, rng)
                g = _random_g(rng, 300)
                _assert_same_lanes(_act_and_peel(levels, [g, g_inv(g)], batch, top),
                                   _unmoved(batch, top), 1e-9)

    def test_action_is_left_action(self, levels, rng):
        # T_g T_h x = T_{gh} x, also on lanes the translate moves off level 1
        for _ in range(10):
            batch = cf.sample_point_batch(levels, 50, 12, rng)
            g, h = _random_g(rng, 50), _random_g(rng, 50)
            lhs = _act_and_peel(levels, [h, g], batch, 3)
            rhs = _act_and_peel(levels, [g_mul(g, h)], batch, 3)
            assert lhs[0].any()
            _assert_same_lanes(lhs, rhs, 1e-8)

    def test_central_translate_shifts_index(self, levels):
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
        ti, tf, q = np.array([7]), np.array([0.25]), np.array([[1.0, 0.0, 0.0, 0.0]])
        at_top = cf.embed_batch(levels, ti, tf, q, np.array([[h_match, 0]]), n, n + 2)
        moved = cf.act(GElement(float(2 * lv.a_tilde), SU2_I), *at_top)
        valid, ti_n, tf_n, q_n, hs = cf.peel_batch(levels, *moved, n + 2, n)
        assert valid[0] and hs[0].tolist() == [h_match + 1, 0]
        # the level-n coordinate is unchanged when the corrections cancel
        assert ti_n[0] == 7 and abs(tf_n[0] - 0.25) < 1e-12
        assert np.max(np.abs(q_n - q)) < 1e-12

    def test_inexact_float_translate_rejected(self):
        # from 2^53 on a float time cannot carry every integer translate
        ti, tf, q = np.array([0]), np.array([0.5]), np.array([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(cf.InexactTranslateError, match="integer translate to the batch's integer times"):
            cf.act(GElement(float(2**53), SU2_I), ti, tf, q)

    def test_measure_preservation_empirical(self, levels):
        # fraction of points with act(g, x) in a full-fiber cylinder equals
        # its measure within 4 standard errors
        rng = np.random.default_rng(5)
        n = 100_000
        cyl_lo, cyl_hi = -80.0, 45.0
        mu_c = (cyl_hi - cyl_lo) / (2 * levels.a(1)) * levels.mu_xn(1)
        ti, tf, q, tails = cf.sample_point_batch(levels, n, 3, rng)
        g = GElement(317.0, SU2_I)  # an integer translate, no fiber component
        moved = cf.act(g, *cf.embed_batch(levels, ti, tf, q, tails, 1, 3))
        valid, ti1, tf1, _, _ = cf.peel_batch(levels, *moved, 3, 1)
        t1 = ti1.astype(float) + tf1
        frac = float(np.mean(valid & (t1 > cyl_lo) & (t1 <= cyl_hi))) * levels.mu_xn(1)
        sigma = levels.mu_xn(1) * math.sqrt(mu_c * (1 - mu_c) / n)
        assert abs(frac - mu_c) <= 4 * sigma


class TestSampling:
    def test_time_uniform_ks(self, levels):
        rng = np.random.default_rng(6)
        ti, tf, _, _ = cf.sample_point_batch(levels, 4000, 2, rng)
        a1 = levels.a(1)
        times = ti + tf
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

    @given(data=st.data())
    def test_engine_matches_bigint_oracle(self, levels, data):
        lo, hi, starts, ti, tf, q, tails = _draw_batch(levels, data)
        n = len(starts)
        if any(_fraction_lost(levels, f0, tails[i].tolist(), lo, hi) for i, (_, f0) in enumerate(starts)):
            with pytest.raises(cf.InexactFractionError):
                cf.embed_batch(levels, ti, tf, q, tails, lo, hi)
            return
        tin, tfn, qn = cf.embed_batch(levels, ti, tf, q, tails, lo, hi)
        assert (tin.dtype == object) == (hi == 7)  # level-7 times exceed int64
        for i, (t0, f0) in enumerate(starts):
            ref = _ref_split(_ref_embed(levels, t0 + Fraction(f0), tails[i].tolist(), lo, hi))
            assert int(tin[i]) == ref[0] and abs(float(tfn[i]) - ref[1]) <= 1e-12

        valid, ti1, tf1, q1, hs = cf.peel_batch(levels, tin, tfn, qn, hi, lo)
        assert valid.all()
        assert [int(v) for v in ti1] == ti.tolist()
        assert np.max(np.abs(tf1 - tf)) <= 1e-12 and np.max(np.abs(q1 - q)) <= 1e-12
        assert np.array_equal(hs, tails)

        # a central translate by 2 a~_m moves the shift index at level m
        m = data.draw(st.integers(lo, hi - 1), label="translate level")
        g = 2 * levels.a_tilde(m)
        moved = tin + g
        valid, ti1, tf1, _, hs = cf.peel_batch(levels, moved, tfn, qn, hi, lo)
        for i in range(n):
            ref = _ref_peel(levels, int(moved[i]) + Fraction(float(tfn[i])), hi, lo)
            assert bool(valid[i]) == (ref is not None)
            if ref is not None:
                t_ref, hs_ref = ref
                assert (int(ti1[i]), tuple(hs[i].tolist())) == (_ref_split(t_ref)[0], hs_ref)
                assert abs(float(tf1[i]) - _ref_split(t_ref)[1]) <= 1e-12

    @given(data=st.data())
    def test_time_only_path_matches_fiber_path(self, levels, data):
        # q=None skips the fiber and nothing else: the same times, validity
        # and shift indices, dtype included, on both lanes
        lo, hi, _, ti, tf, q, tails = _draw_batch(levels, data)
        fiber = _outcome(cf.embed_batch, levels, ti, tf, q, tails, lo, hi)
        bare = _outcome(cf.embed_batch, levels, ti, tf, None, tails, lo, hi)
        if fiber is cf.InexactFractionError:
            assert bare is fiber
            return
        assert bare[2] is None
        _assert_same_arrays(bare[:2], fiber[:2])
        tin, tfn, qn = fiber
        assert (tin.dtype == object) == (hi == 7)  # level-7 times exceed 2^62
        g = 2 * levels.a_tilde(data.draw(st.integers(lo, hi - 1), label="translate level"))
        for start in (tin, tin + g):
            fiber = _outcome(cf.peel_batch, levels, start, tfn, qn, hi, lo)
            bare = _outcome(cf.peel_batch, levels, start, tfn, None, hi, lo)
            if fiber is cf.InexactFractionError:
                assert bare is fiber
                continue
            assert bare[3] is None
            _assert_same_arrays(bare[:3] + bare[4:], fiber[:3] + fiber[4:])

    def test_sub_ulp_fraction_raises(self, levels):
        # 5.7e-220 meets the level-1 correction 0.375 and would vanish: the
        # point used to embed to (-1, 0.375) and peel back to (1, 0.0), valid
        with pytest.raises(cf.InexactFractionError, match="lane 0 .* level-1 correction 0.375"):
            cf.embed_batch(levels, np.array([-1]), np.array([5.7e-220]),
                           np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[0, 0]]), 0, 2)

    def test_borrow_rounding_to_one_raises(self, levels):
        # 0.5 - 2^-54 borrows past the level-1 correction 0.5, and the exact
        # fraction 1 - 2^-54 rounds to 1.0: peel used to return (2, 1.0), valid
        ti = np.array([2 * -96 * levels.a_tilde(1) + 2])
        with pytest.raises(cf.InexactFractionError, match="lane 0 .* level-1 correction 0.5"):
            cf.peel_batch(levels, ti, np.array([0.5 - 2.0**-54]), np.array([[1.0, 0.0, 0.0, 0.0]]), 2, 1)

    def test_short_tails_raise_truncation(self, levels, rng):
        ti, tf, q, tails = cf.sample_point_batch(levels, 10, 2, rng)
        with pytest.raises(cf.OrbitLeftTruncationError, match="orbit left truncation at level 3"):
            cf.embed_batch(levels, ti, tf, q, tails, 1, 4)

    def test_level_above_top_raises(self, levels, rng):
        ti, tf, q, tails = cf.sample_point_batch(levels, 10, 12, rng)
        with pytest.raises(cf.LevelTooDeepError, match="level 9"):
            cf.embed_batch(levels, ti, tf, q, tails, 1, 9)
        with pytest.raises(cf.LevelTooDeepError, match="level 9"):
            cf.peel_batch(levels, ti, tf, q, 9, 1)


# ---------------------------------------------------------------------------
# hypothesis draws shared by the engine properties
# ---------------------------------------------------------------------------

def _draw_batch(levels, data):
    """(from_level, to_level, starts, ti, tf, q, tails): a few points in the
    from_level base with random tails up to to_level."""
    top = levels.max_level + 1
    lo = data.draw(st.integers(0, top - 1), label="from_level")
    hi = data.draw(st.integers(lo + 1, top), label="to_level")
    n = data.draw(st.integers(1, 6), label="points")
    a = levels.a(lo)
    # fractions on a 2^-32 grid, as sampled times have, or any float in
    # [0, 1), which may carry bits below one ulp of a correction it meets
    fractions = st.one_of(
        st.integers(0, 2**32 - 1).map(lambda k: k / 2**32),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    starts = []
    while len(starts) < n:
        ti = data.draw(st.integers(-a, a))
        tf = data.draw(fractions)
        if -a < ti + Fraction(tf) <= a:
            starts.append((ti, tf))
    tails = np.array(
        [[data.draw(st.integers(-(levels.level(k).r - 1), levels.level(k).r - 1))
          for k in range(lo, hi)] for _ in range(n)],
        dtype=np.int64,
    )
    ti = np.array([t for t, _ in starts], dtype=np.int64)
    tf = np.array([f for _, f in starts])
    q = quat_normalize(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((n, 4)))
    return lo, hi, starts, ti, tf, q, tails


def _outcome(f, *args):
    """f(*args), or InexactFractionError when it raises that."""
    try:
        return f(*args)
    except cf.InexactFractionError:
        return cf.InexactFractionError


def _assert_same_arrays(xs, ys):
    for x, y in zip(xs, ys, strict=True):
        assert x.dtype == y.dtype and np.array_equal(x, y)


# ---------------------------------------------------------------------------
# big-int oracle: exact times as Fractions, read straight off the level tables
# ---------------------------------------------------------------------------

def _correction(lv, h: int) -> Fraction:
    j = h + (lv.r - 1)
    return 2 * h * lv.a_tilde + int(lv.s_shell[j]) + Fraction(float(lv.s_u[j]))


def _ref_embed(levels, t: Fraction, tail, from_level: int, to_level: int) -> Fraction:
    for k, h in zip(range(from_level, to_level), tail):
        t += _correction(levels.level(k), h)
    return t


def _fraction_lost(levels, tf: float, tail, from_level: int, to_level: int) -> bool:
    """Whether some level's exact fraction plus correction is not a float.

    The corrections are short dyadics, so this is exactly when the engine's
    float sum fails (tf + s_u) - s_u == tf.
    """
    f = Fraction(tf)
    for k, h in zip(range(from_level, to_level), tail):
        lv = levels.level(k)
        f += Fraction(float(lv.s_u[h + lv.r - 1]))
        if Fraction(float(f)) != f:
            return True
        f -= math.floor(f)
    return False


def _ref_peel(levels, t: Fraction, from_level: int, to_level: int):
    """(time, shift indices from to_level up) at to_level, or None when the
    point has no representation there."""
    hs = []
    for k in range(from_level - 1, to_level - 1, -1):
        lv = levels.level(k)
        # the shell of h is (2h a~ - a~, 2h a~ + a~]
        h = math.ceil((t - lv.a_tilde) / (2 * lv.a_tilde))
        if abs(h) > lv.r - 1:
            return None
        t -= _correction(lv, h)
        if not -lv.a < t <= lv.a:
            return None
        hs.append(h)
    return t, tuple(reversed(hs))


def _ref_split(t: Fraction) -> tuple[int, float]:
    ti = math.floor(t)
    return ti, float(t - ti)


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

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from cfjoin import cf_engine as cf
from cfjoin.groups import (
    GElement, SU2_H0, SU2_I, SU2Element, g_inv, g_mul, quat_inv, quat_mul, quat_normalize, quat_pair, quat_phi_int,
    quat_twist, twist_unit,
)


class TestSequences:
    def test_initial_values(self):
        seq = cf.derive_sequences(cf.CFParams(), 0)
        assert seq == [(1, 1)]

    def test_first_level_r100(self):
        seq = cf.derive_sequences(cf.CFParams(), 1)
        assert seq[1] == (199, 200)

    def test_gap_identity(self):
        # a~_{n+1} - a_{n+1} = (2n+1) a~_n exactly, all integers
        params = cf.CFParams()
        seq = cf.derive_sequences(params, 8)
        for n in range(8):
            assert seq[n + 1][1] - seq[n + 1][0] == (2 * n + 1) * seq[n][1]

    def test_ratio_identity(self):
        params = cf.CFParams()
        seq = cf.derive_sequences(params, 8)
        for n in range(1, 8):
            assert cf.level_ratio(seq, n) == 1 + Fraction(2 * n - 1, 2 * params.r(n - 1) - 1)

    def test_level_too_deep(self):
        with pytest.raises(cf.LevelTooDeepError, match="level too deep"):
            cf.derive_sequences(cf.CFParams(), 500)


class TestNormalizer:
    def test_near_trivial_ratios(self):
        # huge r makes every ratio 1 + tiny, so the base keeps almost all mass
        # (its level-3 shells pass int64, so the build stops at level 2; the
        # normalizer reads no max_level)
        params = cf.CFParams(r_floor=10**9, max_level=2)
        mu0, tail = cf.mu_total_normalizer(params)
        assert 0.9999 < mu0 <= 1.0
        assert tail < 1e-6

    def test_default_schedule(self):
        mu0, tail = cf.mu_total_normalizer(cf.CFParams())
        assert 0.9 < mu0 < 0.95
        assert tail < 1e-6

    def test_divergent_schedule_rejected(self):
        with pytest.raises(ValueError, match="divergent product: the r_schedule with floor 2 has power 0, below 3"):
            cf.mu_total_normalizer(cf.CFParams(r_power=0, r_floor=2))

    @pytest.mark.parametrize("floor", [10**8, 10**9])
    def test_cubic_power_past_a_high_floor(self, floor):
        # the ratio excess climbs to (2n - 1)/(2 floor - 1) until n^3 passes
        # the floor near n = 1000, and was called "not decaying"; its sum is
        # finite all the same
        mu0, tail = cf.mu_total_normalizer(cf.CFParams(r_floor=floor, r_power=3, max_level=0))
        assert 0.9999 < mu0 < 1.0
        assert 0 < tail < 0.01

    @pytest.mark.parametrize("floor", [1, 100, 10**9, 10**20])
    @pytest.mark.parametrize("power", [3, 4, 5, 6])
    def test_tail_bound_covers_the_tail(self, floor, power):
        # tail_bound / mu_X0 bounds sum_{n > 120} e_n; at floor 10^20 and
        # power 5 it read 5.7e-15 against a tail of more than 8.3e-13, as it
        # took the remainder past n = 480 from r_480 = 10^20, not from 480^5
        mu0, tail = cf.mu_total_normalizer(cf.CFParams(r_floor=floor, r_power=power, max_level=0))
        total = 0.0
        for n in np.array_split(np.arange(121, 4 * 10**6 + 1, dtype=float), 4):
            total += float(np.sum((2 * n - 1) / (2 * np.maximum(float(floor), (n - 1) ** power) - 1)))
        assert tail / mu0 >= total

    def test_mu_consistency(self, levels):
        for n in range(6):
            ratio = float(cf.level_ratio(levels.seq, n))
            assert abs(levels.mu_xn(n + 1) - ratio * levels.mu_xn(n)) <= 1e-12


class TestValidation:
    def test_default_passes(self, levels):
        report = cf.validate_cf(levels)
        assert list(report) == [
            "w2-choice-sets", "w3-containment", "w4-disjointness", "tiling-6-9",
            "w-fo-folner-ratios", "growth-n4-over-r", "finiteness-eq-9",
        ]
        assert all(report.values()), report

    @pytest.mark.parametrize("seed", [42, 20260810, 20260811])
    def test_level_7_passes(self, seed):
        # float-spread alphabet shells were off by whole shells at level 7,
        # and w4 failed with "level 7 overlap"
        report = cf.validate_cf(cf.build_levels(cf.CFParams(max_level=7), seed=seed))
        assert all(report.values()), report

    def test_shells_past_int64_raise(self):
        # level-8 shells reach -1.2e22: an OverflowError used to escape from
        # the alphabet's int64 array; the parameters refuse the depth
        cf.CFParams(max_level=7)
        with pytest.raises(cf.LevelTooDeepError, match="level 8 correction shells .* past int64 .* deepest this schedule builds"):
            cf.CFParams(max_level=8)

    def test_single_level_vacuous(self):
        lv = cf.build_levels(cf.CFParams(max_level=1), seed=0)
        assert all(cf.validate_cf(lv).values())

    @pytest.mark.parametrize("kind", ["max_power", "constant"])
    @pytest.mark.parametrize("floor", [1, 100, 1000, 10**4, 10**6])
    def test_growth_verdicts_match_the_oracle(self, kind, floor):
        # power 0 is the constant schedule: its column reads the verdicts of
        # power 0 against the oracle of r_n = floor
        for power in range(7) if kind == "max_power" else [0]:
            params = cf.CFParams(r_floor=floor, r_power=power, max_level=0)
            got = cf.growth_conditions(params)
            assert got == _growth_oracle(kind, floor, power), (kind, floor, power)
            try:
                cf.mu_total_normalizer(params)
                finite = True
            except cf.DivergentScheduleError:
                finite = False
            assert finite == got["finiteness-eq-9"]

    @pytest.mark.parametrize("floor", [1, 2, 100, 10**9])
    def test_power_0_is_the_constant_schedule(self, floor):
        params = cf.CFParams(r_power=0, r_floor=floor, max_level=0)
        assert [params.r(n) for n in range(11)] == [floor] * 11

    def test_constant_schedule_fails_finiteness(self):
        params = cf.CFParams(r_power=0, r_floor=2, max_level=2)
        report = cf.validate_cf(cf.build_levels(params, seed=0))
        assert not report["finiteness-eq-9"]

    def test_constant_schedule_has_no_measure(self):
        params = cf.CFParams(r_power=0, r_floor=2, max_level=2)
        lv = cf.build_levels(params, seed=0)
        with pytest.raises(cf.DivergentScheduleError, match="floor 2 has power 0, below 3"):
            lv.mu_xn(1)
        with pytest.raises(cf.DivergentScheduleError):
            cf.cylinder_measure(lv, 1, 0, 1)

    def test_divergent_measure_raises_on_every_read(self):
        # power 2 meets the Folner ratios but not eq. 9: the build and its
        # verdicts stand, and every read of the mass raises, none cached
        lv = cf.build_levels(cf.CFParams(r_power=2, max_level=2), seed=0)
        report = cf.validate_cf(lv)
        assert (report["w-fo-folner-ratios"], report["growth-n4-over-r"], report["finiteness-eq-9"]) == (
            True, False, False)
        for _ in range(2):
            with pytest.raises(cf.DivergentScheduleError, match="floor 100 has power 2, below 3"):
                lv.mu_x0
            with pytest.raises(cf.DivergentScheduleError, match="power 2"):
                lv.mu_xn(1)
        assert "mu_x0" not in vars(lv)

    @pytest.mark.parametrize("seed", [42, 20260810, 20260811])
    def test_integer_pairs_match_fraction_reference(self, seed):
        built = cf.build_levels(cf.CFParams(), seed=seed)
        assert _w3_w4(cf.validate_cf(built)) == _fraction_w3_w4(built) == (True, True)

    def test_correction_ticks_are_exact_past_int64(self):
        # the exact correction times in ticks, int64 through level 5 and
        # Python ints at levels 6 and 7, where they pass 2^62; the integer
        # tests read them and match the Fraction reference there too
        built = cf.build_levels(cf.CFParams(max_level=7), seed=20260810)
        for lv in built.levels:
            ticks = lv.correction_ticks()
            assert ticks.dtype == (np.int64 if lv.n <= 5 else object)
            assert ticks.tolist() == [lv.correction_time_fraction(h) * lv.grid for h in range(-(lv.r - 1), lv.r)]
        assert _w3_w4(cf.validate_cf(built)) == _fraction_w3_w4(built) == (True, True)

    @pytest.mark.parametrize("u, contained", [(0.0, True), (0.125, False), (-0.125, True)])
    def test_containment_at_the_top_edge(self, u, contained):
        # the top interval (2 (r-1) a~ - a, 2 (r-1) a~ + a] shifted by
        # a~ - a + u ends at a_(n+1) + u; u = -1/8 is one tick inside, the
        # shell one lower and the fraction 7/8
        built = _edited_build(-1, _AT2 - _A2, u)
        assert _fraction_w3_w4(built) == (contained, True)
        assert _w3_w4(cf.validate_cf(built)) == (contained, True)

    @pytest.mark.parametrize("u, disjoint", [(0.0, True), (0.125, False), (-0.125, True)])
    def test_overlap_of_an_eighth_flagged(self, u, disjoint):
        # the intervals at h = 0 and h = 1 are 2 (a~ - a) apart; shifting the
        # first by that gap + u overlaps the second by u, and leaves one tick
        # between them at u = -1/8 (the shell one lower and the fraction 7/8)
        built = _edited_build(_R2 - 1, 2 * (_AT2 - _A2), u)
        assert _fraction_w3_w4(built) == (True, disjoint)
        assert _w3_w4(cf.validate_cf(built)) == (True, disjoint)

    def test_tiling_is_exact_integers(self, levels):
        # the 2r-1 widened shells tile the next base interval exactly
        for lv in levels.levels:
            assert (2 * lv.r - 1) * lv.a_tilde == levels.a(lv.n + 1)


def _growth_oracle(kind: str, floor: int, power: int) -> dict[str, bool]:
    """The growth verdicts of r_n = floor (constant) or max(floor, n^power),
    read on exact rationals far past the floor.  A term x_n ~ c n^-q has
    x_2m / x_m -> 2^-q, so it tends to 0 iff that ratio ends at most 1/2
    (q >= 1) rather than at least 1 (q <= 0); by Cauchy condensation its
    sum is finite iff 2 x_2m / x_m ends at most 1/2 (q >= 2) rather than at
    least 1 (q <= 1).  Each verdict is read at eight doublings past
    n = 1000 floor, and they must agree."""
    def r(n):
        return floor if kind == "constant" else max(floor, n**power)

    def excess(n):
        return Fraction(2 * n - 1, 2 * r(n - 1) - 1)

    def decays(x, scale=1):
        verdicts = {scale * x(2 * m) / x(m) <= Fraction(3, 4) for m in (1000 * floor * 2**k for k in range(8))}
        assert len(verdicts) == 1
        return verdicts.pop()

    return {
        "w-fo-folner-ratios": decays(excess),
        "growth-n4-over-r": decays(lambda n: Fraction(n**4, r(n))),
        "finiteness-eq-9": decays(excess, scale=2),
    }


def _w3_w4(report) -> tuple[bool, bool]:
    return report["w3-containment"], report["w4-disjointness"]


def _fraction_w3_w4(levels) -> tuple[bool, bool]:
    """Containment and disjointness of the intervals (t_c - a_n, t_c + a_n]
    in exact rationals, one correction time at a time."""
    contained = disjoint = True
    for lv in levels.levels:
        a_next = levels.a(lv.n + 1)
        ivs = sorted(
            (t_c - lv.a, t_c + lv.a) for t_c in map(lv.correction_time_fraction, range(-(lv.r - 1), lv.r))
        )
        contained &= all(lo >= -a_next and hi <= a_next for lo, hi in ivs)
        disjoint &= all(lo2 >= hi1 for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]))
    return contained, disjoint


_A2, _AT2 = cf.derive_sequences(cf.CFParams(), 2)[2]
_R2 = cf.CFParams().r(2)


def _edited_build(j: int, shell: int, u: float):
    """A two-level build whose level-2 corrections c(h) are the central
    translates (2 h a~_2, I), except at index j, whose time gains shell + u,
    u a multiple of 1/8: 8 shell + 8 u ticks."""
    built = cf.build_levels(cf.CFParams(max_level=2), seed=0)
    lv = built.levels[2]
    ticks = np.zeros_like(lv.ticks)
    ticks[j] = shell * lv.grid + int(u * lv.grid)
    built.levels[2] = dataclasses.replace(lv, ticks=ticks)
    return built


class TestTickGrid:
    def test_grid_is_the_alphabet_denominator(self, levels):
        # the alphabet fractions are the van der Corput points 1 .. size - 1,
        # whose largest denominator is 2^ceil(log2 size)
        assert levels.grid == 8
        for size in range(1, 65):
            built = cf.build_levels(cf.CFParams(max_level=1, alphabet_size=size), seed=0)
            assert built.grid == 2 ** math.ceil(math.log2(size)), size

    @pytest.mark.parametrize("seed", [20260810, 20260811])
    def test_acceptance_build_ticks_stay_int64(self, seed):
        # level-6 ticks reach 2^60.1 at D = 8: the tick tables of levels 0-6,
        # each the exact correction times drawn from the alphabet (0 at level
        # 0), and the low digit of level-7 times are int64; only the joined
        # level-7 times are Python ints
        built = cf.build_levels(cf.CFParams(), seed=seed)
        assert not built.levels[0].ticks.any()
        for lv in built.levels:
            assert lv.ticks.dtype == np.int64 and lv.grid == built.grid == 8
        for lv in built.levels[1:]:
            alphabet, idx = lv.s_map.alphabet, lv.s_map.values
            assert [Fraction(t, 8) for t in lv.ticks.tolist()] == \
                [s + Fraction(u) for s, u in zip(alphabet.shells[idx].tolist(), alphabet.u[idx].tolist())]
            # the integer parts and fractions read off the ticks are the alphabet's, bit for bit
            assert (lv.s_shell.tobytes(), lv.s_u.tobytes()) == (alphabet.shells[idx].tobytes(), alphabet.u[idx].tobytes())
        assert [cf._lane(built, k) for k in range(8)] == [np.int64] * 7 + [object]
        ti, tf, _, tails = cf.sample_point_batch(built, 50, 6, np.random.default_rng(1))
        assert cf.embed_batch(built, ti, tf, None, tails, 1, 7, radix=True)[0].lo.dtype == np.int64
        assert cf.embed_batch(built, ti, tf, None, tails, 1, 7)[0].dtype == object


def _corrections(lv):
    """(2r-1, 4) fibers of the level's corrections s(h), h = -(r-1) .. r-1:
    its alphabet's quaternions, the identity at level 0."""
    if lv.s_map is None:
        return np.tile([1.0, 0.0, 0.0, 0.0], (2 * lv.r - 1, 1))
    return lv.s_map.alphabet.quats[lv.s_map.values]


def _table_twist(levels, k, T, j):
    """Level k's corrections j twisted by the ticks T/D as (2, n) complex
    rows, as the engine's level step twists them: the step from identity
    rows (1, 0), whose product changes no value."""
    lv, n = levels.level(k), len(j)
    identity = np.zeros((2, n), dtype=complex)
    identity[0] = 1.0
    work = [None, None, np.empty((2, n), dtype=complex), np.empty(n, dtype=complex)]
    return cf._fiber_step(identity, T, lv.s_fibers, lv.s_cols[j], lv.grid, np.empty((2, n), dtype=complex), work)


def _rows(q):
    """(2, n) complex rows of (n, 4) fibers, a view."""
    return quat_pair(q).T


class TestTwistTable:
    """The levels' fiber tables, their corrections pre-twisted at every
    tick residue."""

    @pytest.mark.parametrize("size", [1, 2, 8, 16])
    def test_entries_are_quat_twist_rows_on_the_grid(self, size):
        # column 2D alpha + e of a level's tables is alphabet entry alpha,
        # and its inverse, as quat_twist turns it at the split time of e
        # ticks, bit for bit, on grids D = 1 .. 16; correction j's columns
        # start at 2D alpha(j)
        built = cf.build_levels(cf.CFParams(max_level=1, alphabet_size=size), seed=0)
        grid = built.grid
        e = np.arange(2 * grid)
        for lv in built.levels:
            # level 0's one correction is the identity, its own inverse
            quats = lv.s_map.alphabet.quats if lv.s_map is not None else np.array([[1.0, 0.0, 0.0, 0.0]])
            inverses = quat_inv(quats) if lv.s_map is not None else quats
            assert lv.s_fibers.shape == lv.s_fibers_inv.shape == (2, len(quats) * 2 * grid)
            for table, fibers in ((lv.s_fibers, quats), (lv.s_fibers_inv, inverses)):
                fibers = np.broadcast_to(fibers[:, None], (len(quats), 2 * grid, 4))
                want = quat_pair(quat_twist(e // grid, (e % grid) / grid, fibers)).transpose(2, 0, 1)
                assert table.tobytes() == want.reshape(2, -1).tobytes()
            values = lv.s_map.values if lv.s_map is not None else np.zeros(2 * lv.r - 1, dtype=np.int64)
            assert lv.s_cols.dtype == np.int64 and np.array_equal(lv.s_cols, values * 2 * grid)

    def test_ticks_past_one_period_read_their_residue(self, levels):
        # a tick count past one period, past int64 too, reads the entry of
        # its residue mod 2D
        big = np.array([2**62 + 3, -(2**62) - 5, 2**80 + 1, -(2**70)], dtype=object)
        j = np.array([0, 7, 40, 198])
        grid = levels.grid
        want = quat_twist(big // grid, (big % grid).astype(float) / grid, _corrections(levels.level(1))[j])
        assert _table_twist(levels, 1, big, j).tobytes() == _rows(want).tobytes()

    @given(data=st.data(), n=st.integers(1, 20))
    def test_residual_turn_after_the_table_is_the_twist(self, levels, data, n):
        # phi_(rho/D) phi_(T/D) = phi_((T + rho)/D): the residual turned after
        # the table twist agrees with quat_twist at the split time within ulps
        big = data.draw(st.booleans())
        bound = 2**80 if big else 2**62
        T = np.array(data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)),
                     dtype=object if big else np.int64)
        rho = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n)))
        k = data.draw(st.integers(0, levels.max_level), label="level")
        j = np.array(data.draw(st.lists(st.integers(0, 2 * levels.level(k).r - 2), min_size=n, max_size=n)))
        rows = _table_twist(levels, k, T, j)
        turned = cf._fibers_out(rows, twist_unit(0, rho / levels.grid))
        want = quat_twist(*cf._from_ticks(levels, T, rho), _corrections(levels.level(k))[j])
        assert np.max(np.abs(turned - want)) <= 4 * np.finfo(float).eps
        # and the entry turn by phi_rho^-1 undoes it within ulps
        back = cf._own_rows(turned, rho, levels.grid)[0]
        assert np.max(np.abs(back - rows)) <= 4 * np.finfo(float).eps


class TestCylinders:
    def test_full_base_measure(self, levels):
        a1 = levels.a(1)
        value = cf.cylinder_measure(levels, 1, -a1, a1)
        assert abs(value - levels.mu_xn(1)) < 1e-15

    def test_half_interval(self, levels):
        value = cf.cylinder_measure(levels, 1, 0, levels.a(1))
        assert abs(value - 0.5 * levels.mu_xn(1)) < 1e-15

    def test_y4_consistency(self, levels):
        # one level down: the measure splits equally over the #C translates
        lv0 = levels.level(0)
        lo, hi = Fraction(-1, 2), Fraction(3, 4)
        v0 = cf.cylinder_measure(levels, 0, lo, hi)
        t_c = lv0.correction_time_fraction(5)
        v1 = cf.cylinder_measure(levels, 1, lo + t_c, hi + t_c)
        assert abs(v0 - lv0.card_c_next * v1) < 1e-15

    def test_funny_rank_one_refinement(self, levels):
        # a level-m cylinder is a disjoint union of level-(m+1) cylinders
        # (its translates by the corrections c(h)) whose measures sum exactly
        v = cf.cylinder_measure(levels, 1, -60, 35)
        lv = levels.level(1)
        shifts = [lv.correction_time_fraction(h) for h in range(-(lv.r - 1), lv.r)]
        total = sum(cf.cylinder_measure(levels, 2, -60 + t_c, 35 + t_c) for t_c in shifts)
        assert abs(total - v) < 1e-9


class TestLevelRange:
    @pytest.mark.parametrize("read", ["a", "a_tilde", "level"])
    def test_above_the_build_raises(self, levels, read):
        # a and a_tilde reach one level past the levels built
        top = levels.max_level + (0 if read == "level" else 1)
        getattr(levels, read)(top)
        with pytest.raises(cf.LevelTooDeepError, match=rf"level {top + 1} .*max_level {levels.max_level}"):
            getattr(levels, read)(top + 1)

    @pytest.mark.parametrize("read", ["a", "a_tilde", "level"])
    def test_below_zero_raises(self, levels, read):
        # a plain list would hand back the top level's value for -1
        with pytest.raises(ValueError, match=rf"level -1 .*max_level {levels.max_level}"):
            getattr(levels, read)(-1)

    @pytest.mark.parametrize("call", ["embed_batch", "peel_batch", "translate"])
    def test_a_range_the_wrong_way_raises(self, levels, call):
        # an embed from 3 to 1 once returned the point unmoved, a peel from 1
        # to 3 failed inside numpy, and a translate from 3 to 1 on a None
        ti, tf, q, tails = cf.sample_point_batch(levels, 4, 3, np.random.default_rng(0))
        run = {
            "embed_batch": lambda lo, hi: cf.embed_batch(levels, ti, tf, q, tails, lo, hi),
            "peel_batch": lambda lo, hi: cf.peel_batch(levels, ti, tf, q, hi, lo),
            "translate": lambda lo, hi: cf.translate(levels, ti, tf, q, tails, 2, lo, hi),
        }[call]
        with pytest.raises(ValueError, match=r"to_level [13] is (below|above) from_level [13]"):
            run(3, 1)
        if call != "translate":
            # equal levels stay a no-op, the fibers turned out and back by rho
            valid, *moved = (True, *run(1, 1)) if call == "embed_batch" else run(1, 1)[:4]
            assert np.all(valid) and np.array_equal(moved[0], ti) and np.array_equal(moved[1], tf)
            assert np.max(np.abs(moved[2] - q)) <= 4 * np.finfo(float).eps

    def test_a_radix_pair_at_equal_levels_raises(self, levels):
        # no level peels, so the high digit 2 was dropped and the low digit
        # 5 came back as a valid level-2 time
        pair = cf.RadixTimes(np.array([2]), np.array([5]))
        with pytest.raises(ValueError, match="to_level 2 is from_level 2"):
            cf.peel_batch(levels, pair, np.array([0.5]), None, 2, 2)

    def test_translate_at_equal_levels_raises(self, levels):
        # the embed returned no shift digit, and adding g's to it failed
        # inside numpy on a None
        ti, tf, q, tails = cf.sample_point_batch(levels, 4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="to_level 1 is from_level 1"):
            cf.translate(levels, ti, tf, q, tails, 2, 1, 1)


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


def _element(t, m):
    """The GElement of a (time, (4,) fiber) pair from the array group law."""
    return GElement(float(t), SU2Element.from_array(m))


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
                _assert_same_lanes(_act_and_peel(levels, [g, _element(*g_inv(g.t, g.m.array()))], batch, top),
                                   _unmoved(batch, top), 1e-9)

    def test_action_is_left_action(self, levels, rng):
        # T_g T_h x = T_{gh} x, also on lanes the translate moves off level 1
        for _ in range(10):
            batch = cf.sample_point_batch(levels, 50, 12, rng)
            g, h = _random_g(rng, 50), _random_g(rng, 50)
            lhs = _act_and_peel(levels, [h, g], batch, 3)
            rhs = _act_and_peel(levels, [_element(*g_mul(g.t, g.m.array(), h.t, h.m.array()))], batch, 3)
            assert lhs[0].any()
            _assert_same_lanes(lhs, rhs, 1e-8)

    @pytest.mark.parametrize("top", [2, 3, 5, 7])
    def test_fiber_element_acts_at_level_1(self, levels, top):
        # (0, m) (t, q) = (t, m q) leaves the level-1 cut in place, so acting
        # at level 1 gives the round trip through any frame above it (top 7
        # runs the Python-int lane)
        rng = np.random.default_rng(100 + top)
        batch = cf.sample_point_batch(levels, 300, 12, rng)
        ti, tf, q, tails = batch
        assert (cf.embed_batch(levels, *batch, 1, top)[0].dtype == object) == (top == 7)
        for _ in range(5):
            g = GElement(0.0, SU2Element.from_array(rng.standard_normal(4)))
            ti1, tf1, q1 = cf.act(g, ti, tf, q)
            valid, ti_p, tf_p, q_p, hs = _act_and_peel(levels, [g], batch, top)
            assert valid.all()
            assert np.array_equal(ti_p, ti1) and np.array_equal(tf_p, tf1)
            assert np.array_equal(hs, tails[:, : top - 1])
            assert np.max(np.abs(q_p - q1)) <= 1e-12

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
        assert ti_n[0] == 7 and tf_n[0] == 0.25
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

    @pytest.mark.parametrize("h_minus", [False, True])
    def test_int32_tails_are_the_int64_draws(self, h_minus):
        # every level's r (16807 at level 7) lies far inside int32, where
        # integers draws the same values as for int64 and leaves the
        # generator in the same state
        levels7 = _build(7)
        n = 1000
        rng, replay = np.random.default_rng(11), np.random.default_rng(11)
        tails = cf.sample_tails(levels7, n, 7, rng, h_minus)
        assert tails.dtype == np.int32 and tails.shape == (n, 7)
        for col, k in enumerate(range(1, 8)):
            r = levels7.level(k).r
            bound = max(1, min(r - 1, ((k * k - 1) * r - 1) // (k * k))) if h_minus else r - 1
            assert np.array_equal(tails[:, col], replay.integers(-bound, bound + 1, size=n))
        assert levels7.level(7).r == 16807
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_h_minus_rejection(self, levels):
        # |h_k| < (1 - k^-2) r_k is strict: the float bound floor((1 - k^-2) r_k)
        # is an integer on the default schedule, and used to be drawn
        rng = np.random.default_rng(9)
        _, _, _, tails = cf.sample_point_batch(levels, 5000, 6, rng, h_minus=True)
        assert np.max(np.abs(tails[:, 0])) <= 1
        for col, k in enumerate(range(2, 7), start=1):
            r = levels.level(k).r
            assert int(np.max(np.abs(tails[:, col]))) * k * k < (k * k - 1) * r


class TestBatchRoundTrips:
    def test_embed_peel_int64(self, levels, rng):
        ti, tf, q, tails = cf.sample_point_batch(levels, 500, 12, rng)
        ti6, tf6, q6 = cf.embed_batch(levels, ti, tf, q, tails, 1, 6)
        valid, ti1, tf1, q1, hs = cf.peel_batch(levels, ti6, tf6, q6, 6, 1)
        assert valid.all()
        assert np.all(ti1 == ti) and np.array_equal(tf1, tf)  # sampled fractions lose no bits
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
        # exact to the float: ti is the oracle's floor and tf its fraction
        # rounded once, whatever bits the drawn fraction carries
        lo, hi, starts, ti, tf, q, tails = _draw_batch(levels, data)
        n = len(starts)
        tin, tfn, qn = cf.embed_batch(levels, ti, tf, q, tails, lo, hi)
        assert (tin.dtype == object) == (hi == 7)  # level-7 times exceed int64
        for i, (t0, f0) in enumerate(starts):
            ref = _ref_embed(levels, t0 + Fraction(f0), tails[i].tolist(), lo, hi)
            assert (int(tin[i]), float(tfn[i])) == _ref_split(ref)

        # through the radix form, ticks and rho, the round trip is exact
        pair, rho, qr = cf.embed_batch(levels, ti, tf, q, tails, lo, hi, radix=True)
        valid, ti1, tf1, q1, hs = cf.peel_batch(levels, pair, rho, qr, hi, lo)
        assert valid.all() and [int(v) for v in ti1] == ti.tolist() and np.array_equal(tf1, tf)
        assert np.max(np.abs(q1 - q)) <= 1e-12 and np.array_equal(hs, tails)

        # the public tf may round away bits below one ulp of the corrections
        # met (5.7e-220 at 0.375), so from it, as it is and moved by the
        # central translate by 2 a~_m that moves the shift index at level m,
        # peel_batch is the oracle's peel of that rounded point
        m = data.draw(st.integers(lo, hi - 1), label="translate level")
        for g in (0, 2 * levels.a_tilde(m)):
            moved = tin + g
            valid, ti1, tf1, _, hs = cf.peel_batch(levels, moved, tfn, qn, hi, lo)
            for i in range(n):
                ref = _ref_peel(levels, int(moved[i]) + Fraction(float(tfn[i])), hi, lo)
                assert bool(valid[i]) == (ref is not None)
                if ref is not None:
                    t_ref, hs_ref = ref
                    assert (int(ti1[i]), float(tf1[i]), tuple(hs[i].tolist())) == (*_ref_split(t_ref), hs_ref)

    @given(data=st.data())
    def test_time_only_path_matches_fiber_path(self, levels, data):
        # q=None skips the fiber and nothing else: the same times, validity
        # and shift indices, dtype included, on both lanes
        lo, hi, _, ti, tf, q, tails = _draw_batch(levels, data)
        fiber = cf.embed_batch(levels, ti, tf, q, tails, lo, hi)
        bare = cf.embed_batch(levels, ti, tf, None, tails, lo, hi)
        assert bare[2] is None
        _assert_same_arrays(bare[:2], fiber[:2])
        tin, tfn, qn = fiber
        assert (tin.dtype == object) == (hi == 7)  # level-7 times exceed 2^62
        g = 2 * levels.a_tilde(data.draw(st.integers(lo, hi - 1), label="translate level"))
        for start in (tin, tin + g):
            fiber = cf.peel_batch(levels, start, tfn, qn, hi, lo)
            bare = cf.peel_batch(levels, start, tfn, None, hi, lo)
            assert bare[3] is None
            _assert_same_arrays(bare[:3] + bare[4:], fiber[:3] + fiber[4:])

    def test_lanes_the_float_engine_rounded_match_the_oracle(self, levels):
        # 5.7e-220 meeting the level-1 correction 0.375 vanished in a float
        # carry, and 0.5 - 2^-54 borrowing past the level-1 correction 0.5
        # rounded up to 1.0.  In ticks, through embed_batch, peel_batch and
        # translate, valid, ti and the shift indices are the oracle's, and tf
        # its fraction rounded once (1.0 for the borrow)
        lv = levels.level(1)
        assert (lv.correction_time_fraction(0) % 1, lv.correction_time_fraction(-96) % 1, lv.ticks[-1]) == \
            (Fraction(3, 8), Fraction(1, 2), 0)  # the last is the identity

        def assert_oracle(got, t, hi, lo):
            ref = _ref_peel(levels, t, hi, lo)
            assert ref is not None and got[0].all()
            assert {(int(x), float(f), tuple(h.tolist())) for x, f, h in zip(*got[1:3], got[4])} == \
                {(*_ref_split(ref[0]), ref[1])}

        ti, tf, tails = np.array([-1]), np.array([5.7e-220]), np.array([[0, 0]])
        t = _ref_embed(levels, -1 + Fraction(5.7e-220), [0, 0], 0, 2)
        tin, tfn, _ = cf.embed_batch(levels, ti, tf, None, tails, 0, 2)
        assert (int(tin[0]), float(tfn[0])) == _ref_split(t)
        assert_oracle(cf.peel_batch(levels, *cf.embed_batch(levels, ti, tf, None, tails, 0, 2, radix=True)[:2],
                                    None, 2, 0), t, 2, 0)
        assert_oracle(cf.peel_batch(levels, tin, tfn, None, 2, 0), int(tin[0]) + Fraction(float(tfn[0])), 2, 0)
        for g in (0, 2 * levels.a_tilde(1), -2 * levels.a_tilde(0)):
            assert_oracle(cf.translate(levels, ti, tf, None, tails, g, 0, 2), t + g, 2, 0)

        # the borrow lane peeled from level 2, and translated there from a
        # level-1 point embedded by the identity
        ti = 2 * -96 * lv.a_tilde + 2
        t = ti + Fraction(0.5 - 2.0**-54)
        assert_oracle(cf.peel_batch(levels, np.array([ti]), np.array([0.5 - 2.0**-54]), None, 2, 1), t, 2, 1)
        assert_oracle(cf.translate(levels, np.array([0]), np.array([0.5 - 2.0**-54]), None, np.array([[lv.r - 1]]),
                                   ti - 2 * (lv.r - 1) * lv.a_tilde, 1, 2), t, 2, 1)
        assert _ref_split(_ref_peel(levels, t, 2, 1)[0])[1] == 1.0

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


@functools.cache
def _build(max_level: int):
    return cf.build_levels(cf.CFParams(max_level=max_level), seed=42)


def _same_valid_lanes(got, want):
    """Equal validity, and bit-equal times, fractions, fibers and shift
    indices on the valid lanes of two peel_batch results."""
    valid = got[0]
    assert np.array_equal(valid, want[0])
    assert [int(t) for t in got[1][valid]] == [int(t) for t in want[1][valid]]
    for x, y in zip(got[2:], want[2:]):
        assert (x is None and y is None) or np.array_equal(x[valid], y[valid])


def _peel_ticks(levels, ticks, rho, q, hi, lo):
    """peel_batch of times given as one array of Python-int ticks (an
    object array, with a high digit of 0) and their residuals rho, q the
    (2, n) complex fiber rows in the residual's frame, or None."""
    ticks = np.asarray(ticks, dtype=object)
    return cf.peel_batch(levels, cf.RadixTimes(np.zeros(ticks.shape, dtype=np.int64), ticks), rho, q, hi, lo)


class TestRadixLane:
    """The top level as the int64 radix pair (h, lo) in ticks against the
    same times as one array of Python-int ticks (the object lane), and
    against the Fraction oracle.  max_level 7 puts the low digit of its top
    level 8 past int64 as well, where it falls back to the object lane."""

    @pytest.mark.parametrize("max_level", [6, 7])
    @given(data=st.data())
    def test_radix_matches_object_lane_and_oracle(self, max_level, data):
        levels = _build(max_level)
        top = max_level + 1
        lv = levels.level(top - 1)
        r, at, two, grid = lv.r, lv.a_tilde, 2 * lv.a_tilde, levels.grid
        lo = data.draw(st.integers(1, top - 1), label="from_level")
        _, _, starts, ti, tf, q, tails = _draw_batch(levels, data, lo, top, min_points=3)
        (pair, rho, qn), (joined, tfj, qj) = (cf.embed_batch(levels, ti, tf, q, tails, lo, top, radix=radix)
                                             for radix in (True, False))
        # the top's times pass 2^62; its low digit does only on the deeper build
        assert joined.dtype == object and pair.lo.dtype == (np.int64 if max_level == 6 else object)
        ticks = [int(h) * two * grid + int(t) for h, t in zip(pair.hi, pair.lo)]
        assert [t // grid for t in ticks] == joined.tolist()
        assert tfj.tolist() == [(t % grid + p) / grid for t, p in zip(ticks, rho.tolist())]
        # the radix rows are in the residual's frame: turned out, the joined fibers
        assert qn.shape == (2, len(tf)) and np.array_equal(_turned_out(levels, qn, rho), qj)
        for i, (t0, f0) in enumerate(starts):
            ref = _ref_embed(levels, t0 + Fraction(f0), tails[i].tolist(), lo, top)
            assert ticks[i] + Fraction(float(rho[i])) == ref * grid
            assert (int(joined[i]), float(tfj[i])) == _ref_split(ref)

        # a fiber-free translate against the object lane, one g for the batch
        g = data.draw(st.integers(-3 * two, 3 * two), label="translate")
        _same_valid_lanes(cf.translate(levels, ti, tf, None, tails, g, lo, top),
                          _peel_ticks(levels, [t + g * grid for t in ticks], rho, None, top, lo))

        # one translate per lane: across a top shell edge (h' = h +- 1), out
        # of H (|h'| = r), or anywhere in three shells either way
        h = pair.hi
        kinds = [("cross", "leave", "any")[i % 3] for i in range(len(h))]
        gs = [data.draw(st.sampled_from([-two, two])) if kind == "cross"
              else data.draw(st.sampled_from([-r, r])) * two - int(hk) * two if kind == "leave"
              else data.draw(st.integers(-3 * two, 3 * two))
              for kind, hk in zip(kinds, h)]
        digits = [divmod(gk, two) for gk in gs]
        his = [int(hk) + gh for hk, (gh, _) in zip(h, digits)]
        los = [int(t) + gl * grid for t, (_, gl) in zip(pair.lo, digits)]
        rhos = rho.tolist()
        # a lane on a shell edge: remainder 0 and rho 0
        his.append(data.draw(st.integers(-(r - 2), r - 2)))
        los.append(data.draw(st.sampled_from([-at, at])) * grid)
        rhos.append(0.0)
        qs = np.hstack([qn, _rows(quat_normalize(np.ones((len(rhos) - qn.shape[1], 4))))])
        rhos = np.array(rhos)
        radix = cf.RadixTimes(np.array(his, dtype=np.int64), np.array(los, dtype=pair.lo.dtype))
        big = [hk * two * grid + t for hk, t in zip(his, los)]
        for fiber in (qs, None):
            got = cf.peel_batch(levels, radix, rhos, fiber, top, lo)
            want = _peel_ticks(levels, big, rhos, fiber, top, lo)
            _same_valid_lanes(got, want)
            assert np.array_equal(got[4][:, -1], want[4][:, -1])  # the top shift, every lane
        valid, ti1, tf1, _, hs = got
        assert hs[0, -1] != h[0] and not valid[1]  # lane 0 crossed an edge, lane 1 left H
        for i, t in enumerate(big):
            exact = (t + Fraction(float(rhos[i]))) / grid
            # the shell of h is (2h a~ - a~, 2h a~ + a~], edges included on the right
            assert hs[i, -1] == math.ceil((exact - at) / two)
            ref = _ref_peel(levels, exact, top, lo)
            assert bool(valid[i]) == (ref is not None)
            if ref is not None:
                assert (int(ti1[i]), float(tf1[i]), tuple(hs[i].tolist())) == (*_ref_split(ref[0]), ref[1])


@pytest.mark.parametrize("max_level", [6, 7])
def test_peel_on_interval_edges_matches_the_oracle(max_level):
    # level-k times of exactly -a_k and a_k, and level-(k+1) times on a shell
    # edge 2 h a~_k +- a~_k, each at rho 0 and 1/2, embedded to the top and
    # peeled as Python-int ticks and as the top's radix pair, whose low
    # digit is int64 on the max_level 6 build and Python ints on 7
    levels = _build(max_level)
    top, grid = max_level + 1, levels.grid
    rng = np.random.default_rng(max_level)
    exact = []
    for k in range(top):
        tail = [int(rng.integers(1 - levels.level(m).r, levels.level(m).r)) for m in range(k, top)]
        r, at = levels.level(k).r, levels.a_tilde(k)
        h = int(rng.integers(2 - r, r - 1))
        for rho in (Fraction(0), Fraction(1, 2 * grid)):
            exact += [_ref_embed(levels, t + rho, tail, k, top) for t in (-levels.a(k), levels.a(k))]
            exact += [_ref_embed(levels, 2 * h * at + side * at + rho, tail[1:], k + 1, top) for side in (-1, 1)]
    ticks = [math.floor(t * grid) for t in exact]
    rho = np.array([float(t * grid - T) for t, T in zip(exact, ticks)])
    width = 2 * levels.a_tilde(top - 1) * grid
    hi = [(T + width // 2) // width for T in ticks]
    lane = cf._lane(levels, top - 1)
    radix = cf.RadixTimes(np.array(hi, dtype=np.int64), np.array([T - h * width for T, h in zip(ticks, hi)], dtype=lane))
    assert radix.lo.dtype == (np.int64 if max_level == 6 else object)
    q = quat_normalize(rng.standard_normal((len(exact), 4)))
    for got in (_peel_ticks(levels, ticks, rho, _rows(q), top, 0), cf.peel_batch(levels, radix, rho, None, top, 0)):
        valid, ti, tf, _, hs = got
        assert not valid.all() and valid.any()
        for i, t in enumerate(exact):
            ref = _ref_peel(levels, t, top, 0)
            assert bool(valid[i]) == (ref is not None)
            if ref is not None:
                assert (int(ti[i]), float(tf[i]), tuple(hs[i].tolist())) == (*_ref_split(ref[0]), ref[1])


def _window_arithmetic(levels, ti, tf, q, tails, g, lo, top):
    """The joining windows' own translate, the oracle for translate: the
    embedded times as one array of Python-int ticks plus g D, the fiber
    rows turned by the parity of g in the residual's frame, then
    peel_batch."""
    (hi, low), rho, qn = cf.embed_batch(levels, ti, tf, q, tails, lo, top, radix=True)
    ticks = (hi.astype(object) * (2 * levels.a_tilde(top - 1)) + np.asarray(g).astype(object)) * levels.grid
    ticks = ticks + low.astype(object)
    if q is not None:
        qn = _rows(quat_phi_int(np.asarray(g) % 2, np.broadcast_to(_fibers(qn), ticks.shape + (4,))))
    return _peel_ticks(levels, ticks, np.broadcast_to(rho, ticks.shape), qn, top, lo)


class TestTranslate:
    """translate against the windows' former arithmetic and the Fraction
    oracle at the top of the default build and of the deeper one, whose
    radix 2 a~_7 passes int64.  Rows 0 and 1 start at the right end of their
    base with every lower tail at r - 1, so their top times sit within an
    int64 g of the right edge of their top shell: lane 0 crosses it into
    h + 1, lane 1 (top tail r - 1) leaves H."""

    @pytest.mark.parametrize("max_level", [6, 7])
    @pytest.mark.parametrize("form", ["lanes", "broadcast", "scalar"])
    @given(data=st.data())
    def test_matches_window_arithmetic_and_oracle(self, max_level, form, data):
        levels = _build(max_level)
        top = max_level + 1
        lv = levels.level(top - 1)
        r, at, two = lv.r, lv.a_tilde, 2 * lv.a_tilde
        lo, _, _, ti, tf, q, tails = _draw_batch(levels, data, hi=top, min_points=3)
        ti[:2] = levels.a(lo) - 1
        tails[:2, :-1] = [levels.level(k).r - 1 for k in range(lo, top - 1)]
        tails[0, -1] = data.draw(st.integers(-(r - 2), r - 2), label="top tail")
        tails[1, -1] = r - 1
        pair = cf.embed_batch(levels, ti, tf, None, tails, lo, top, radix=True)[0]
        # the g that takes a lane just past the right edge of its top shell
        edge = [at - int(t) // levels.grid + 1 + data.draw(st.integers(0, 3)) for t in pair.lo[:2]]
        bound = min(3 * two, 2**62)
        odd = 2 * data.draw(st.integers(-bound // 2, bound // 2 - 1)) + 1
        if form == "lanes":
            g = np.array(edge + [odd] + [data.draw(st.integers(-bound, bound))
                                         for _ in range(len(tf) - 3)], dtype=np.int64)
        elif form == "broadcast":
            row = data.draw(st.sampled_from([0, 1]), label="row")
            ti, tf, q, tails = (x[row:row + 1] for x in (ti, tf, q, tails))
            g = np.array([edge[row], 0, odd, data.draw(st.integers(-bound, bound))], dtype=np.int64)
        else:
            g = data.draw(st.integers(-3 * two, 3 * two), label="translate")
        for fiber in (q, None):
            got = cf.translate(levels, ti, tf, fiber, tails, g, lo, top)
            want = _window_arithmetic(levels, ti, tf, fiber, tails, g, lo, top)
            assert (got[3] is None) == (fiber is None)
            _same_valid_lanes(got, want)
            assert np.array_equal(got[4][:, -1], want[4][:, -1])  # the top shift, every lane
        valid, ti1, tf1, _, hs = got
        if form == "lanes":
            assert hs[0, -1] == tails[0, -1] + 1 and hs[1, -1] == r and not valid[1]
        elif form == "broadcast":
            assert hs[0, -1] == tails[0, -1] + 1 and (row == 0 or not valid[0])
        gs = np.broadcast_to(np.asarray(g, dtype=object), valid.shape)
        for i, gi in enumerate(gs):
            row = min(i, len(tf) - 1)
            t = _ref_embed(levels, int(ti[row]) + Fraction(float(tf[row])), tails[row].tolist(), lo, top)
            ref = _ref_peel(levels, t + gi, top, lo)
            assert bool(valid[i]) == (ref is not None)
            if ref is not None:
                assert (int(ti1[i]), float(tf1[i]), tuple(hs[i].tolist())) == (*_ref_split(ref[0]), ref[1])

    @pytest.mark.parametrize("g", [3.5, np.array([2.9, -0.7]), np.array([1.0, 2.0]), np.array([True, False])])
    def test_a_non_integer_translate_raises(self, levels, g):
        # g was cast to the lane's integers: 3.5 moved the points by 3 and
        # [2.9, -0.7] by [2, 0], bit for bit, with no error
        x = cf.sample_point_batch(levels, 2, 6, np.random.default_rng(33))
        with pytest.raises(cf.InexactTranslateError, match=r"translate g must be an integer .*: g = array\("):
            cf.translate(levels, *x, g, 1, 6)

    @pytest.mark.parametrize("lanes", [0, 1, cf.ROW_BLOCK, cf.ROW_BLOCK + 1])
    def test_stacked_fibers_match_separate_translates(self, levels, lanes):
        # a point and its fiber partner (0, h0) x share times and tails: the
        # two translates return, bit for bit, the same validity, times and
        # shift indices, and the partner's fiber is x's turned on the left by
        # phi_g(h0), as the joining windows form it, on either side of a
        # row block
        top = levels.max_level
        x = cf.sample_point_batch(levels, 1, top, np.random.default_rng(31), h_minus=True)
        partner = cf.act(GElement(0.0, SU2_H0), *x[:3])
        # translates within one top shell keep most lanes valid; the wide
        # ones leave it
        rng = np.random.default_rng(32)
        two = 2 * levels.a_tilde(top - 1)
        g = np.where(rng.random(lanes) < 0.5, rng.integers(-two, two, lanes),
                     rng.integers(-3 * two, 3 * two, lanes))
        one = cf.translate(levels, *x, g, 1, top)
        other = cf.translate(levels, *partner, x[3], g, 1, top)
        assert one[3].shape == other[3].shape == (lanes, 4)
        for got, want in zip(one[:3] + one[4:], other[:3] + other[4:]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        moved = quat_mul(quat_phi_int(g, np.broadcast_to(SU2_H0.array(), one[3].shape)), one[3])
        assert np.max(np.abs(moved - other[3]), initial=0.0) <= OFF_GRID_FIBER_BOUND
        if lanes > 1:
            assert 0 < one[0].sum() < lanes

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_one_row_broadcasts_as_its_repeated_rows(self, levels, on_grid):
        # a one-row batch translated to many lanes comes back, lane by lane,
        # bit for bit as the row repeated once per lane
        top = levels.max_level
        x = cf.sample_point_batch(levels, 1, top, np.random.default_rng(34), h_minus=True)
        if on_grid:
            x = (x[0], np.floor(x[1] * levels.grid) / levels.grid, *x[2:])
        rng = np.random.default_rng(35)
        two = 2 * levels.a_tilde(top - 1)
        g = rng.integers(-3 * two, 3 * two, cf.ROW_BLOCK + 1)
        for fiber in (x[2], None):
            one = cf.translate(levels, x[0], x[1], fiber, x[3], g, 1, top)
            rows = [np.repeat(a, len(g), axis=0) if a is not None else None for a in (x[0], x[1], fiber, x[3])]
            repeated = cf.translate(levels, *rows, g, 1, top)
            assert 0 < one[0].sum() < len(g) and (one[3] is None) == (repeated[3] is None) == (fiber is None)
            for got, want in zip(one, repeated):
                if got is not None:
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


def _turned_out(levels, rows, rho):
    """The (n, 4) fibers of (2, n) complex rows in the residual's frame,
    turned out by phi_rho as the joined forms turn them."""
    return cf._fibers_out(rows, twist_unit(0, rho / levels.grid))


def _fibers(rows):
    """(n, 4) fibers of (2, n) complex rows, a copy."""
    return np.ascontiguousarray(rows.T).view(float)


def _frozen(*arrays):
    """Dtype, shape and contents of each array, Python ints by value."""
    return [(x.dtype, x.shape, x.tolist() if x.dtype == object else x.tobytes()) for x in arrays]


class TestInputsUnchanged:
    """embed_batch and peel_batch move times in place, on the tick arrays
    they made at entry: the caller's arrays come back byte for byte."""

    def test_int64_times(self, levels):
        ti, tf, q, tails = cf.sample_point_batch(levels, 300, 6, np.random.default_rng(41))
        before = _frozen(ti, tf, q, tails)
        ti6, tf6, q6 = cf.embed_batch(levels, ti, tf, q, tails, 1, 6)
        assert ti6.dtype == np.int64 and _frozen(ti, tf, q, tails) == before
        embedded = _frozen(ti6, tf6, q6)
        valid, ti1, _, _, _ = cf.peel_batch(levels, ti6, tf6, q6, 6, 1)
        assert valid.all() and np.array_equal(ti1, ti)
        assert _frozen(ti6, tf6, q6) == embedded

    def test_python_int_times(self, levels):
        ti, tf, q, tails = cf.sample_point_batch(levels, 300, 6, np.random.default_rng(42))
        ti7, tf7, q7 = cf.embed_batch(levels, ti, tf, q, tails, 1, 7)
        assert ti7.dtype == object
        embedded = _frozen(ti7, tf7, q7)
        objects = list(ti7)
        valid, ti1, _, _, _ = cf.peel_batch(levels, ti7, tf7, q7, 7, 1)
        assert valid.all() and np.array_equal(ti1, ti)
        assert _frozen(ti7, tf7, q7) == embedded
        assert all(x is y for x, y in zip(ti7, objects))

    def test_radix_times(self, levels):
        # the fiber rows too, which the peel steps on buffers of its own
        ti, tf, q, tails = cf.sample_point_batch(levels, 300, 6, np.random.default_rng(43))
        pair, tf7, rows = cf.embed_batch(levels, ti, tf, q, tails, 1, 7, radix=True)
        embedded = _frozen(pair.hi, pair.lo, tf7, rows)
        for fiber in (rows, None):
            valid, ti1, _, _, _ = cf.peel_batch(levels, pair, tf7, fiber, 7, 1)
            assert valid.all() and np.array_equal(ti1, ti)
            assert _frozen(pair.hi, pair.lo, tf7, rows) == embedded

    def test_translate_of_one_row_to_many_g(self, levels):
        ti, tf, q, tails = cf.sample_point_batch(levels, 4, 6, np.random.default_rng(44))
        before = _frozen(ti, tf, q, tails)
        two = 2 * levels.a_tilde(6)
        g = np.random.default_rng(45).integers(-3 * two, 3 * two, 500)
        frozen_g = _frozen(g)
        valid, _, _, q1, _ = cf.translate(levels, ti[:1], tf[:1], q[:1], tails[:1], g, 1, 7)
        assert q1.shape == (500, 4) and 0 < valid.sum() < 500
        assert _frozen(ti, tf, q, tails) == before and _frozen(g) == frozen_g

    def test_read_only_inputs(self, levels):
        # nothing the engine is given is written: read-only times, fibers,
        # tails and g go through embed_batch in both forms, peel_batch of
        # joined times and of the radix pair with its rows, and translate
        ti, tf, q, tails = cf.sample_point_batch(levels, 200, 6, np.random.default_rng(46))
        two = 2 * levels.a_tilde(6)
        g = np.random.default_rng(47).integers(-3 * two, 3 * two, 200)
        pair, rho, rows = cf.embed_batch(levels, *_read_only(ti, tf, q, tails), 1, 7, radix=True)
        joined = cf.embed_batch(levels, ti, tf, q, tails, 1, 7)
        assert cf.peel_batch(levels, cf.RadixTimes(*_read_only(*pair)), *_read_only(rho, rows), 7, 1)[0].all()
        assert cf.peel_batch(levels, *_read_only(*joined), 7, 1)[0].all()
        assert 0 < cf.translate(levels, ti, tf, q, tails, _read_only(g)[0], 1, 7)[0].sum() < 200


def _read_only(*arrays):
    """The arrays, each made read-only in place."""
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _aos_embed_fiber(levels, ti, tf, q, tails, lo, hi):
    """The fiber embed_batch returns, composed per level on (n, 4)
    arrays: q times quat_twist(t_k, s(h_k)) at each level k, with t_k the
    level-k times of the time-only embed."""
    for col, k in enumerate(range(lo, hi)):
        lv = levels.level(k)
        tk, fk, _ = cf.embed_batch(levels, ti, tf, None, tails, lo, k)
        q = quat_mul(q, quat_twist(tk, fk, _corrections(lv)[tails[:, col] + (lv.r - 1)]))
    return q


def _aos_peel_fiber(levels, ti, tf, q, hi, lo):
    """The fiber peel_batch returns, composed per level on (n, 4)
    arrays: q times quat_twist(t_k, s(h_k)^-1) at each level k from the top
    down, with t_k the peeled level-k times of the time-only peel and h_k
    its shift index, clipped into the table."""
    for k in range(hi - 1, lo - 1, -1):
        lv = levels.level(k)
        _, tk, fk, _, hs = cf.peel_batch(levels, ti, tf, None, hi, k)
        j = np.clip(hs[:, 0] + (lv.r - 1), 0, 2 * lv.r - 2)
        q = quat_mul(q, quat_twist(tk, fk, quat_inv(_corrections(lv)[j])))
    return q


def _aos_translate_fiber(levels, ti, tf, q, tails, g, lo, top):
    """The fiber translate returns, composed per level on (n, 4)
    arrays: the embedded fiber turned by quat_phi_int(g) on its broadcast to
    the lanes, then peeled from the top's radix digits moved by g."""
    pair, rho, _ = cf.embed_batch(levels, ti, tf, None, tails, lo, top, radix=True)
    qn = _aos_embed_fiber(levels, ti, tf, q, tails, lo, top)
    radix = 2 * levels.a_tilde(top - 1)
    g = np.asarray(g).astype(pair.lo.dtype)
    moved = cf.RadixTimes(pair.hi + np.asarray(g // radix, dtype=np.int64), pair.lo + g % radix * levels.grid)
    lanes = np.broadcast_shapes(rho.shape, g.shape)
    qn = quat_phi_int(g % 2, np.broadcast_to(qn, lanes + (4,)))
    return _aos_peel_fiber(levels, moved, np.broadcast_to(rho, lanes), qn, top, lo)


# Off the tick grid the engine twists by T/D per level and by the residual
# rho/D once at each end of a call, where the per-level oracle twists by the
# rounded t = (T + rho)/D: the two differ by rounding alone, an ulp or two of
# each factor per level.  Round trips through 12 levels stay within this
# absolute bound, about 9 ulps of 1; the largest difference seen over 9000
# lanes (embed 1 -> 6 and 1 -> 7, peel 6 -> 1) was 7.8e-16.
OFF_GRID_FIBER_BOUND = 2e-15


def _point_batch(levels, n, seed, on_grid, h_minus=False):
    """sample_point_batch at level 1 with tails to the build's max_level,
    its fractions floored to the tick grid (rho = 0) when on_grid."""
    ti, tf, q, tails = cf.sample_point_batch(levels, n, levels.max_level, np.random.default_rng(seed), h_minus)
    if on_grid:
        tf = np.floor(tf * levels.grid) / levels.grid
    return ti, tf, q, tails


def _assert_oracle_fibers(got, want, on_grid):
    """On the grid the engine's fibers are the oracle's bit for bit; off
    it they are within OFF_GRID_FIBER_BOUND of them."""
    if on_grid:
        assert np.array_equal(got, want)
    else:
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= OFF_GRID_FIBER_BOUND


class TestComponentMajorFiber:
    """embed_batch, peel_batch and translate step their fibers as (2, n)
    complex rows, reading each level's twisted correction from its table
    and turning by the residual once per call.  Against the per-level
    (n, 4) composition quat_mul(q, quat_twist(t, s[j])) they agree on every
    lane, valid or not, bit for bit on draws floored to the tick grid and
    within OFF_GRID_FIBER_BOUND on draws off it, and return C-contiguous
    (n, 4) fibers."""

    @staticmethod
    def _moves(rng, two, n):
        """Offsets within three shells of radix `two` either way, so that
        some lanes leave the build."""
        return rng.integers(-3 * two, 3 * two, n)

    def test_int64_times(self, levels):
        for on_grid in (True, False):
            ti, tf, q, tails = _point_batch(levels, 300, 51, on_grid)
            ti6, tf6, q6 = cf.embed_batch(levels, ti, tf, q, tails, 1, 6)
            assert ti6.dtype == np.int64 and q6.flags.c_contiguous
            _assert_oracle_fibers(q6, _aos_embed_fiber(levels, ti, tf, q, tails, 1, 6), on_grid)
            moved = ti6 + self._moves(np.random.default_rng(52), 2 * levels.a_tilde(5), 300)
            valid, _, _, q1, _ = cf.peel_batch(levels, moved, tf6, q6, 6, 1)
            assert 0 < valid.sum() < 300
            _assert_oracle_fibers(q1, _aos_peel_fiber(levels, moved, tf6, q6, 6, 1), on_grid)

    def test_python_int_times(self, levels):
        # a level-7 top: the joined times are Python ints, and the peel
        # turns invalid lanes' times to 0 where they return to int64
        for on_grid in (True, False):
            ti, tf, q, tails = _point_batch(levels, 300, 53, on_grid)
            ti7, tf7, q7 = cf.embed_batch(levels, ti, tf, q, tails, 1, 7)
            assert ti7.dtype == object
            _assert_oracle_fibers(q7, _aos_embed_fiber(levels, ti, tf, q, tails, 1, 7), on_grid)
            moved = ti7 + self._moves(np.random.default_rng(54), 2 * levels.a_tilde(6), 300).astype(object)
            valid, _, _, q1, _ = cf.peel_batch(levels, moved, tf7, q7, 7, 1)
            assert 0 < valid.sum() < 300
            _assert_oracle_fibers(q1, _aos_peel_fiber(levels, moved, tf7, q7, 7, 1), on_grid)

    def test_radix_times(self, levels):
        # the radix rows are in the residual's frame, and turned out they
        # are the fibers the oracle composes and peels
        for on_grid in (True, False):
            ti, tf, q, tails = _point_batch(levels, 300, 55, on_grid)
            pair, tf7, rows = cf.embed_batch(levels, ti, tf, q, tails, 1, 7, radix=True)
            q7 = _turned_out(levels, rows, tf7)
            _assert_oracle_fibers(q7, _aos_embed_fiber(levels, ti, tf, q, tails, 1, 7), on_grid)
            rng = np.random.default_rng(56)
            two = 2 * levels.a_tilde(6)
            moved = cf.RadixTimes(pair.hi + rng.integers(-1, 2, 300),
                                  pair.lo + rng.integers(-two, two, 300) * levels.grid)
            valid, _, _, q1, _ = cf.peel_batch(levels, moved, tf7, rows, 7, 1)
            assert 0 < valid.sum() < 300
            _assert_oracle_fibers(q1, _aos_peel_fiber(levels, moved, tf7, q7, 7, 1), on_grid)

    @pytest.mark.parametrize("top", [6, 7])
    def test_radix_rows_are_the_joined_fibers_in_the_frame(self, levels, top):
        # embed_batch(radix=True) hands its rows over in the residual's
        # frame: turned out they are the joined form's fibers bit for bit,
        # and peel_batch takes them as they are, where the joined peel
        # turns its (n, 4) fibers in at entry
        for on_grid in (True, False):
            ti, tf, q, tails = _point_batch(levels, 300, 63, on_grid)
            pair, rho, rows = cf.embed_batch(levels, ti, tf, q, tails, 1, top, radix=True)
            tin, tfn, qn = cf.embed_batch(levels, ti, tf, q, tails, 1, top)
            assert rows.shape == (2, 300) and np.array_equal(_turned_out(levels, rows, rho), qn)
            radix = cf.peel_batch(levels, pair, rho, rows, top, 1)
            joined = cf.peel_batch(levels, tin, tfn, qn, top, 1)
            assert radix[0].all() and joined[0].all()
            _assert_same_arrays((radix[1], radix[4]), (joined[1], joined[4]))
            _assert_oracle_fibers(radix[3], joined[3], on_grid)

    @pytest.mark.parametrize("top", [6, 7])
    def test_translate_fibers(self, levels, top):
        # one row to many g, as the joining windows translate a point; and
        # a batch with one g per row, or one g for all
        two = 2 * levels.a_tilde(top - 1)
        for on_grid in (True, False):
            ti, tf, q, tails = _point_batch(levels, 1, 57, on_grid, h_minus=True)
            g = self._moves(np.random.default_rng(58), two, 2000)
            valid, _, _, qg, _ = cf.translate(levels, ti, tf, q, tails, g, 1, top)
            assert qg.shape == (2000, 4) and qg.flags.c_contiguous
            assert 0 < valid.sum() < 2000
            _assert_oracle_fibers(qg, _aos_translate_fiber(levels, ti, tf, q, tails, g, 1, top), on_grid)
            ti, tf, q, tails = _point_batch(levels, 300, 59, on_grid)
            g = self._moves(np.random.default_rng(60), two, 300)
            for gs in (g, int(g[0])):
                qg = cf.translate(levels, ti, tf, q, tails, gs, 1, top)[3]
                _assert_oracle_fibers(qg, _aos_translate_fiber(levels, ti, tf, q, tails, gs, 1, top), on_grid)

    @pytest.mark.parametrize("max_level", [6, 7])
    def test_partner_fiber_is_a_left_product(self, max_level):
        # the fiber partner (0, h0) x has x's times and tails, and (0, h0)
        # acts on the left, where every embed and peel step multiplies on
        # the right and phi_g is an automorphism: the partner's translate
        # is x's, its fiber phi_g(h0) q' for x's fiber q', up to rounding,
        # as the joining windows form it.  The top's low digit is int64 at
        # top 7 of the default build and Python ints at top 8 of the deeper
        top = max_level + 1
        levels = _build(max_level)
        assert (cf._lane(levels, top - 1) is object) == (max_level == 7)
        # within three shells of the top either way, or as far as int64 g reach
        g = self._moves(np.random.default_rng(62), min(2 * levels.a_tilde(top - 1), 2**61), 2000)
        h0 = SU2_H0.array()
        for on_grid in (True, False):
            x = _point_batch(levels, 1, 61, on_grid, h_minus=True)
            valid, ti, tf, q, hs = cf.translate(levels, *x, g, 1, top)
            partner = cf.translate(levels, *cf.act(GElement(0.0, SU2_H0), *x[:3]), x[3], g, 1, top)
            assert 0 < valid.sum() < 2000
            _assert_same_arrays((valid, ti, tf, hs), partner[:3] + partner[4:])
            moved = quat_mul(quat_phi_int(g, np.broadcast_to(h0, q.shape)), q)
            assert np.max(np.abs(moved - partner[3])) <= OFF_GRID_FIBER_BOUND


# ---------------------------------------------------------------------------
# hypothesis draws shared by the engine properties
# ---------------------------------------------------------------------------

def _draw_batch(levels, data, lo=None, hi=None, min_points=1):
    """(from_level, to_level, starts, ti, tf, q, tails): a few points in the
    from_level base with random tails up to to_level; levels not given are
    drawn."""
    top = levels.max_level + 1
    if lo is None:
        lo = data.draw(st.integers(0, top - 1), label="from_level")
    if hi is None:
        hi = data.draw(st.integers(lo + 1, top), label="to_level")
    n = data.draw(st.integers(min_points, 6), label="points")
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
    ti = np.array([t for t, _ in starts], dtype=cf._lane(levels, lo))
    tf = np.array([f for _, f in starts])
    q = quat_normalize(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((n, 4)))
    return lo, hi, starts, ti, tf, q, tails


def _assert_same_arrays(xs, ys):
    for x, y in zip(xs, ys, strict=True):
        assert x.dtype == y.dtype and np.array_equal(x, y)


# ---------------------------------------------------------------------------
# big-int oracle: exact times as Fractions, read straight off the level tables
# ---------------------------------------------------------------------------

def _correction(lv, h: int) -> Fraction:
    return 2 * h * lv.a_tilde + Fraction(int(lv.ticks[h + (lv.r - 1)]), lv.grid)


def _ref_embed(levels, t: Fraction, tail, from_level: int, to_level: int) -> Fraction:
    for k, h in zip(range(from_level, to_level), tail):
        t += _correction(levels.level(k), h)
    return t


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
        params = cf.CFParams(max_level=4, alphabet_size=12)
        again = cf.CFParams.from_json(params.to_json())
        assert again == params

    def test_level_dump_rows(self, levels):
        rows = cf.level_dump_rows(levels)
        assert rows[0]["n"] == 0 and rows[0]["a"] == 1
        assert rows[1]["card_C"] == 199
        assert rows[1]["ratio"] == pytest.approx(200 / 199)

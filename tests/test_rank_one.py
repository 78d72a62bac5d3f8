import numpy as np
import pytest

from cfjoin import rank_one as rk


@pytest.fixture(scope="module")
def scheme():
    return rk.chacon_scheme(18)


def _levels_oracle(top: int, stage: int) -> list[int]:
    """Stage-`stage` levels along the stage-`top` tower, bottom to top, by the
    stacking recursion L_{n+1} = L_n + L_n + [spacer] + L_n (spacer = -1)."""
    levels = list(range((3 ** (stage + 1) - 1) // 2))
    for _ in range(stage, top):
        levels = levels + levels + [-1] + levels
    return levels


def _reading(scheme, pos) -> str:
    """Orbit reading over {'0','s'} relative to the stage-0 base level."""
    return "".join("0" if lv == 0 else "s" for lv in rk.stage_level(scheme, pos, 0))


class TestScheme:
    def test_height_prefix(self):
        # brute-force recursion h_{n+1} = 3 h_n + 1
        hs = [1]
        for _ in range(3):
            hs.append(3 * hs[-1] + 1)
        assert rk.chacon_scheme(4).heights == tuple(hs) == (1, 4, 13, 40)

    def test_single_stage(self):
        assert rk.chacon_scheme(1).heights == (1,)

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            rk.chacon_scheme(0)

    def test_mass_bookkeeping(self, scheme):
        # rungs of width (2/3) 3^{-n} fill mass 1 - 3^{-(n+1)}: 2 h_n + 1 = 3^{n+1}
        for n in range(scheme.stages):
            assert 2 * scheme.height(n) + 1 == 3 ** (n + 1)


class TestStageLevel:
    @pytest.mark.parametrize("top", range(10))
    def test_matches_stacking_recursion_everywhere(self, top):
        scheme = rk.chacon_scheme(top + 1)
        pos = np.arange(scheme.height(top))
        for stage in (0, 1, 2):
            if stage <= top:
                assert rk.stage_level(scheme, pos, stage).tolist() == _levels_oracle(top, stage)

    def test_top_stage_is_identity(self, scheme):
        pos = rk.sample_tower_point(scheme, np.random.default_rng(1), 1000)
        assert np.array_equal(rk.stage_level(scheme, pos, scheme.stages - 1), pos)

    def test_scalar_position(self, scheme):
        assert rk.stage_level(scheme, 2 * scheme.height(16), 16) == -1
        assert rk.stage_level(scheme, 2 * scheme.height(16) + 1, 16) == 0

    @pytest.mark.parametrize("stage", [0, 3, 5])
    def test_int64_input_is_not_written(self, stage):
        # the levels are undone in place on a copy, never on the caller's array
        scheme = rk.chacon_scheme(6)
        pos = np.arange(scheme.heights[-1], dtype=np.int64)
        levels = rk.stage_level(scheme, pos, stage)
        assert np.array_equal(pos, np.arange(scheme.heights[-1]))
        assert not np.shares_memory(levels, pos)

    def test_list_and_0d_inputs_match_the_array(self):
        scheme = rk.chacon_scheme(6)
        pos = np.arange(scheme.heights[-1], dtype=np.int64)
        for stage in (0, 2, 4):
            levels = rk.stage_level(scheme, pos, stage)
            assert rk.stage_level(scheme, pos.tolist(), stage).tolist() == levels.tolist()
            for p, lv in zip(pos.tolist(), levels.tolist()):
                for point in (p, np.int64(p), np.array(p)):
                    level = rk.stage_level(scheme, point, stage)
                    assert level.shape == () and level == lv


class TestApply:
    def test_below_top_increments(self, scheme):
        assert rk.tower_apply(scheme, 5) == 6
        assert rk.tower_apply(scheme, np.array([5, 9]), np.array([1, 3])).tolist() == [6, 12]

    def test_across_every_tower_top(self):
        # each of the 3^(8-n) copies of the stage-n top rung, bar the last,
        # steps to the stage-n base or to a spacer, and every spacer steps to
        # a stage-n base
        scheme = rk.chacon_scheme(9)
        pos = np.arange(scheme.heights[-1] - 1)
        nxt = rk.tower_apply(scheme, pos)
        assert np.array_equal(nxt, pos + 1)
        for n in range(scheme.stages - 1):
            lv, lv_next = rk.stage_level(scheme, pos, n), rk.stage_level(scheme, nxt, n)
            top = lv == scheme.height(n) - 1
            assert top.sum() == 3 ** (8 - n) - 1
            assert set(lv_next[top].tolist()) <= {0, -1}
            inside = (lv >= 0) & ~top
            assert np.array_equal(lv_next[inside], lv[inside] + 1)
            assert (lv_next[lv == -1] == 0).all()

    def test_orbit_returns_to_base(self, scheme):
        # from the bottom of the first stage-(n+1) column, h_n steps lead
        # back to the stage-n base (the next column's copy)
        for n in (2, 3, 4):
            assert rk.stage_level(scheme, rk.tower_apply(scheme, 0, scheme.height(n)), n) == 0

    def test_inverse_roundtrip(self, scheme, rng):
        p = rk.sample_tower_point(scheme, rng, 200)
        assert np.array_equal(rk.tower_apply(scheme, rk.tower_apply(scheme, p), -1), p)

    def test_tail_exhaustion(self, scheme):
        top = scheme.heights[-1]
        assert rk.tower_apply(scheme, top - 2) == top - 1
        with pytest.raises(rk.TailExhaustedError):
            rk.tower_apply(scheme, top - 1)
        with pytest.raises(rk.TailExhaustedError):
            rk.tower_apply(scheme, np.array([0, top - 1]))
        with pytest.raises(rk.TailExhaustedError):
            rk.tower_apply(scheme, top - 10, np.arange(11))
        with pytest.raises(rk.TailExhaustedError):
            rk.tower_apply(scheme, 0, -1)

    def test_sample_in_top_tower(self, scheme):
        p = rk.sample_tower_point(scheme, np.random.default_rng(2), 5000)
        assert p.shape == (5000,) and p.dtype == np.int64
        assert 0 <= p.min() and p.max() < scheme.heights[-1]


class TestWords:
    def test_substitution_words(self):
        assert _reading(rk.chacon_scheme(1), np.arange(1)) == "0"
        assert _reading(rk.chacon_scheme(2), np.arange(4)) == "00s0"
        assert _reading(rk.chacon_scheme(3), np.arange(13)) == "00s000s0s00s0"

    def test_exact_base_frequency(self):
        # the base level carries 2/3 of the mass
        scheme = rk.chacon_scheme(14)
        lv = rk.stage_level(scheme, np.arange(scheme.heights[-1]), 0)
        assert abs(np.mean(lv == 0) - 2 / 3) < 1e-5

    def test_word_frequencies_match_simulation(self, scheme):
        # frequencies along one long orbit match the factor counts of the
        # stage-12 reading
        reading = _reading(scheme, np.arange(scheme.height(12)))
        n = 40_000
        x = rk.sample_tower_point(scheme, np.random.default_rng(3), 1)
        text = _reading(scheme, rk.tower_apply(scheme, x, np.arange(n + 8)))
        for word in ("0", "00", "0s", "00s0", "0s00s0s0"):
            freq = sum(reading.startswith(word, i) for i in range(len(reading))) / len(reading)
            count = sum(text.startswith(word, i) for i in range(n))
            sigma = np.sqrt(freq * (1 - freq) / n) * np.sqrt(8.0)
            assert abs(count / n - freq) <= 4 * sigma + 1e-3

    def test_invalid_word_never_occurs(self):
        # two consecutive spacers never appear in the Chacon reading
        scheme = rk.chacon_scheme(12)
        assert "ss" not in _reading(scheme, np.arange(scheme.heights[-1]))


class TestBirkhoff:
    # time averages along one orbit of level-set indicators of a low stage

    @staticmethod
    def _correlation(scheme, stage, rungs_a, rungs_b, shift, orbit_len, seed):
        """Fraction of n < orbit_len with T^{n+shift} x in A and T^n x in B."""
        x = rk.sample_tower_point(scheme, np.random.default_rng(seed), 1)
        lv = rk.stage_level(scheme, rk.tower_apply(scheme, x, np.arange(orbit_len + shift)), stage)
        in_a, in_b = np.isin(lv, list(rungs_a)), np.isin(lv, list(rungs_b))
        return float(np.mean(in_a[shift:] & in_b[:orbit_len]))

    @staticmethod
    def _measure(rungs, stage):
        return len(rungs) * (2 / 3) / 3**stage

    def test_zero_shift_recovers_measure(self, scheme):
        est = self._correlation(scheme, 2, {0, 4, 7}, {0, 4, 7}, 0, 60_000, 4)
        assert abs(est - self._measure({0, 4, 7}, 2)) <= 2e-3

    def test_disjoint_sets_zero(self, scheme):
        assert self._correlation(scheme, 2, {0}, {5}, 0, 20_000, 5) == 0.0

    def test_partial_rigidity_at_heights(self, scheme):
        # the Chacon correlation at shift h_n stays near mu(A)/2 + mu(A)^2-ish,
        # visibly above the mixing value mu(A)^2
        mu = self._measure({0}, 2)
        est = self._correlation(scheme, 2, {0}, {0}, scheme.height(4), 120_000, 6)
        assert est > mu**2 + 0.01

    def test_level_frequency_invariance(self, scheme):
        est = self._correlation(scheme, 1, {2}, {2}, 0, 80_000, 7)
        assert abs(est - self._measure({2}, 1)) <= 2e-3

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfjoin import cocycles as co
from cfjoin import rank_one as rk
from cfjoin.groups import D6_LABELS, D6_MUL


@pytest.fixture(scope="module")
def scheme():
    return rk.chacon_scheme(18)


phi = co.chacon_z2_phi


class TestSkewProducts:
    # the (x, s) part of a double-extension step is the Z2 skew product
    # (x, s) -> (Tx, phi(x) + s)
    def test_identity_cocycle(self, scheme, rng):
        p = rk.sample_tower_point(scheme, rng, 1)
        _, s, _ = co.double_ext_apply(scheme, np.zeros(1, dtype=np.int64), p, 1, 0)
        assert s.tolist() == [1]

    def test_constant_one_alternates(self, scheme, rng):
        x, s, r = rk.sample_tower_point(scheme, rng, 1), 0, 0
        seen = []
        for _ in range(8):
            x, s, r = co.double_ext_apply(scheme, np.ones(1, dtype=np.int64), x, s, r)
            seen.append(int(s[0]))
        assert seen == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_iterates_compose_cocycle_word(self, scheme, rng):
        # the prefix-sum fibers of an orbit equal the step-by-step recursion
        # of double_ext_apply, and s carries the cocycle word
        # phi(x) + phi(Tx) + ...
        for _ in range(20):
            xs, ss, rs = co.double_extension_orbit(scheme, rng, 37)
            x, s, r = xs[:1], ss[:1], rs[:1]
            word = int(s[0])
            for k in range(37):
                assert (int(x[0]), int(s[0]), int(r[0])) == (xs[k], ss[k], rs[k])
                assert int(s[0]) == word
                word = (word + int(phi(scheme, x)[0])) % 2
                x, s, r = co.double_ext_apply(scheme, phi(scheme, x), x, s, r)

    def test_right_translations_commute(self, scheme, rng):
        # sigma_g(x, h) = (x, h * g) commutes with the left-cocycle extension
        def t_phi(x, h):
            return rk.tower_apply(scheme, x), D6_MUL[coc(x), h]

        def coc(p):
            return D6_LABELS.index("d") if phi(scheme, p) else D6_LABELS.index("e")

        for glabel in ("a", "d", "f"):
            g = D6_LABELS.index(glabel)
            for x in rk.sample_tower_point(scheme, rng, 50):
                h = D6_LABELS.index("b")
                x1, h1 = t_phi(x, D6_MUL[h, g])
                x2, h2 = t_phi(x, h)
                assert (x1, h1) == (x2, D6_MUL[h2, g])


class TestDoubleExtension:
    def test_displayed_formula(self, scheme, rng):
        x = rk.sample_tower_point(scheme, rng, 100)
        s, r = rng.integers(0, 2, 100), rng.integers(0, 2, 100)
        x2, s2, r2 = co.double_ext_apply(scheme, phi(scheme, x), x, s, r)
        assert np.array_equal(x2, x + 1)
        assert np.array_equal(s2, (phi(scheme, x) + s) % 2)
        assert np.array_equal(r2, (s + r) % 2)

    def test_zero_cocycle_case(self, scheme, rng):
        x = rk.sample_tower_point(scheme, rng, 1)
        zero = np.zeros(1, dtype=np.int64)
        x2, s2, r2 = co.double_ext_apply(scheme, zero, x, zero, zero)
        assert (s2.tolist(), r2.tolist()) == ([0], [0])

    def test_two_iterations_compose(self, scheme, rng):
        # the second-coordinate word of two steps is psi + psi o T_phi
        x = rk.sample_tower_point(scheme, rng, 50)
        s, r = rng.integers(0, 2, 50), rng.integers(0, 2, 50)
        x1, s1, r1 = co.double_ext_apply(scheme, phi(scheme, x), x, s, r)
        x2, s2, r2 = co.double_ext_apply(scheme, phi(scheme, x1), x1, s1, r1)
        # psi^(2)(x, s) = psi(x,s) + psi(T_phi(x,s)) = s + (phi(x)+s) = phi(x)
        assert np.array_equal(r2, (r + s + s1) % 2)
        assert np.array_equal(r2, (r + phi(scheme, x)) % 2)

    def test_fiber_measure_preservation(self, scheme, rng):
        # fiber frequencies along an orbit stay uniform (4 sigma)
        n = 40_000
        _, s, _ = co.double_extension_orbit(scheme, rng, n)
        sigma = 0.5 / math.sqrt(n)
        # orbit correlation inflates the variance; allow a generous factor
        assert abs(s.mean() - 0.5) <= 12 * sigma

    def test_orbit_past_the_top_raises(self, scheme):
        class Top:
            def integers(self, lo, hi, size):
                return np.full(size, hi - 1)

        with pytest.raises(rk.TailExhaustedError):
            co.double_extension_orbit(scheme, Top(), 2)


class TestCocycleEquation:
    def test_zero_transfer_solves_doubled_equation(self, scheme, rng):
        # psi^(2)(x, s+1) + psi^(2)(x, s) = 0, so F = 0 works; psi^(2)(x, s)
        # is the r-increment of two double-extension steps from (x, s)
        def psi2(x, s):
            x1, s1, r1 = co.double_ext_apply(scheme, phi(scheme, x), x, s, 0)
            return co.double_ext_apply(scheme, phi(scheme, x1), x1, s1, r1)[2]

        x = rk.sample_tower_point(scheme, rng, 500)
        assert not ((psi2(x, 0) + psi2(x, 1)) % 2).any()

    def test_psi2_identity_exhaustive_in_fiber(self, scheme, rng):
        x = rk.sample_tower_point(scheme, rng, 300)
        for s in (0, 1):
            psi2_s = (s + (phi(scheme, x) + s)) % 2
            psi2_s1 = ((s + 1) % 2 + (phi(scheme, x) + s + 1)) % 2
            assert not ((psi2_s + psi2_s1) % 2).any()


class TestObstruction:
    def test_witnesses_are_contradictory(self, scheme, monkeypatch):
        assert co.constant_one_obstruction(scheme) is True
        # under the cocycle 1 itself the increment is the odd return time,
        # so no return contradicts
        monkeypatch.setattr(co, "chacon_z2_phi", lambda scheme, pos: np.ones(len(pos), dtype=np.int64))
        assert co.constant_one_obstruction(scheme) is False

    def test_return_times_follow_heights(self, scheme, monkeypatch):
        # the returns after 2 h_n + 1 steps are checked on the orbit, not
        # assumed: an orbit one step ahead misses the stage-3 base
        monkeypatch.setattr(co, "tower_apply", lambda scheme, pos, k=1: rk.tower_apply(scheme, pos, k) + 1)
        with pytest.raises(AssertionError, match="stage-3 base"):
            co.constant_one_obstruction(scheme)


class TestD6Root:
    def test_root_identity_and_witness(self, scheme, rng):
        rep = co.d6_root_check(scheme, 2000, rng)
        assert rep.root_identity_holds
        # with the right-translation convention, the fiber e separates:
        # sigma_a sigma_b gives b*a = f while sigma_b sigma_a gives a*b = d
        assert rep.commutation_witness == ("e", "f", "d")
        assert rep.abelian_commutes

    def test_root_identity_fails_where_a_is_not_an_involution(self, scheme, rng, monkeypatch):
        # the check multiplies by a twice and compares: in a table where
        # a a != e the two squares part on every fiber that reaches e
        a = D6_LABELS.index("a")
        table = D6_MUL.copy()
        table[a, a] = D6_LABELS.index("b")
        monkeypatch.setattr(co, "D6_MUL", table)
        assert not co.d6_root_check(scheme, 2000, rng).root_identity_holds


class TestFlowCommutation:
    def test_special_times(self):
        assert co.su2_flow_commutation(0.0)
        assert co.su2_flow_commutation(0.5)
        assert not co.su2_flow_commutation(0.25)

    def test_grid_characterization(self):
        for k in range(-64, 65):
            t = k / 64
            assert co.su2_flow_commutation(t) == (abs(2 * t - round(2 * t)) < 1e-12)


class TestSpectralProbe:
    def test_constant_observable_at_zero(self):
        moduli, _ = co.eigenvalue_probe(np.ones(10_000), [0.0])
        assert moduli[0] == pytest.approx(1.0, abs=1e-12)

    def test_rotation_weyl_oracle(self):
        # closed form: the twisted sum telescopes to a geometric series, so
        # the modulus is 1 at the rotation number and o(1) off it
        alpha = (math.sqrt(5) - 1) / 2
        orbit = (0.1 + alpha * np.arange(20_000)) % 1.0
        moduli, _ = co.eigenvalue_probe(np.exp(2j * math.pi * orbit), [alpha, 0.25])
        assert moduli[0] == pytest.approx(1.0, abs=1e-10)
        assert moduli[1] < 0.01

    def test_threshold_reference_line(self, scheme, rng):
        n = 20_000
        _, _, r = co.double_extension_orbit(scheme, rng, n)
        _, threshold = co.eigenvalue_probe((-1.0) ** r, [0.37])
        assert threshold == pytest.approx(5 * math.log(n) / math.sqrt(n))

    def test_orbit_length_validation(self):
        with pytest.raises(ValueError):
            co.eigenvalue_probe(np.ones(100), [0.0])

    @given(
        orbit_len=st.integers(10_000, 30_000),
        kind=st.sampled_from(["sign", "real", "complex"]),
        seed=st.integers(0, 2**32 - 1),
        frequencies=st.lists(
            st.one_of(
                st.integers(-64, 64).map(lambda k: k / 64),
                st.floats(-2.0, 2.0, allow_nan=False),
            ),
            max_size=8,
        ),
    )
    def test_blocked_sum_matches_per_theta_loop(self, orbit_len, kind, seed, frequencies):
        rng = np.random.default_rng(seed)
        if kind == "sign":
            values = (-1.0) ** rng.integers(0, 2, orbit_len)
        elif kind == "real":
            values = rng.standard_normal(orbit_len)
        else:
            values = np.exp(2j * math.pi * rng.uniform(size=orbit_len))
        moduli, _ = co.eigenvalue_probe(values, frequencies)
        # Python floats, which spectral.csv writes by repr
        assert [type(m) for m in moduli] == [float] * len(frequencies)
        for got, modulus in zip(moduli, _probe_loop(values, frequencies)):
            assert abs(got - modulus) <= 1e-9


def _probe_loop(values, frequencies):
    """|1/N sum_n e^{-2 pi i n theta} values[n]|, one full-length phase
    vector per theta."""
    ks = np.arange(len(values))
    return [abs(np.mean(np.exp(-2j * math.pi * theta * ks) * values)) for theta in frequencies]

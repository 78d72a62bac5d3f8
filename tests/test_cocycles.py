import math

import numpy as np
import pytest

from cfjoin import cocycles as co
from cfjoin import rank_one as rk
from cfjoin.groups import D6Element, d6_mul


@pytest.fixture(scope="module")
def scheme():
    return rk.chacon_scheme(18)


@pytest.fixture(scope="module")
def phi(scheme):
    return co.chacon_z2_phi(scheme)


class TestSkewProducts:
    # the (x, s) part of a double-extension step is the Z2 skew product
    # (x, s) -> (Tx, phi(x) + s)
    def test_identity_cocycle(self, scheme, rng):
        p = rk.sample_tower_point(scheme, rng, stage=8)
        _, s, _ = co.double_ext_apply(lambda p: rk.tower_apply(scheme, p), lambda p: 0, p, 1, 0)
        assert s == 1

    def test_constant_one_alternates(self, scheme, rng):
        base = lambda p: rk.tower_apply(scheme, p)
        x, s, r = rk.sample_tower_point(scheme, rng, stage=8), 0, 0
        seen = []
        for _ in range(8):
            x, s, r = co.double_ext_apply(base, lambda p: 1, x, s, r)
            seen.append(s)
        assert seen == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_iterates_compose_cocycle_word(self, scheme, phi, rng):
        # n-fold iterate carries the cocycle word phi(x) + phi(Tx) + ...
        base = lambda p: rk.tower_apply(scheme, p)
        for _ in range(20):
            x0 = rk.sample_tower_point(scheme, rng, stage=9)
            word = 0
            x, s, r = x0, 0, 0
            for _ in range(37):
                word = (word + phi(x)) % 2
                x, s, r = co.double_ext_apply(base, phi, x, s, r)
            assert s == word

    def test_right_translations_commute(self, scheme, phi, rng):
        # sigma_g(x, h) = (x, h * g) commutes with the left-cocycle extension
        def t_phi(x, h):
            return rk.tower_apply(scheme, x), d6_mul(coc(x), h)

        def coc(p):
            return D6Element("d") if phi(p) else D6Element("e")

        for glabel in ("a", "d", "f"):
            g = D6Element(glabel)
            for _ in range(50):
                x = rk.sample_tower_point(scheme, rng, stage=8)
                h = D6Element("b")
                x1, h1 = t_phi(x, d6_mul(h, g))
                x2, h2 = t_phi(x, h)
                assert (x1, h1) == (x2, d6_mul(h2, g))


class TestDoubleExtension:
    def test_displayed_formula(self, scheme, phi, rng):
        for _ in range(100):
            x = rk.sample_tower_point(scheme, rng, stage=9)
            s, r = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            x2, s2, r2 = co.double_ext_apply(lambda p: rk.tower_apply(scheme, p), phi, x, s, r)
            assert s2 == (phi(x) + s) % 2
            assert r2 == (s + r) % 2

    def test_zero_cocycle_case(self, scheme, rng):
        x = rk.sample_tower_point(scheme, rng, stage=9)
        x2, s2, r2 = co.double_ext_apply(
            lambda p: rk.tower_apply(scheme, p), lambda p: 0, x, 0, 0
        )
        assert (s2, r2) == (0, 0)

    def test_two_iterations_compose(self, scheme, phi, rng):
        # the second-coordinate word of two steps is psi + psi o T_phi
        base = lambda p: rk.tower_apply(scheme, p)
        for _ in range(50):
            x = rk.sample_tower_point(scheme, rng, stage=9)
            s, r = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            x1, s1, r1 = co.double_ext_apply(base, phi, x, s, r)
            x2, s2, r2 = co.double_ext_apply(base, phi, x1, s1, r1)
            # psi^(2)(x, s) = psi(x,s) + psi(T_phi(x,s)) = s + (phi(x)+s) = phi(x)
            assert r2 == (r + s + s1) % 2 == (r + phi(x)) % 2

    def test_fiber_measure_preservation(self, scheme, phi, rng):
        # fiber frequencies along an orbit stay uniform (4 sigma)
        state, step = co.double_extension_orbit(scheme, phi, rng)
        n = 40_000
        count = 0
        for _ in range(n):
            count += state[1]
            state = step(state)
        sigma = 0.5 / math.sqrt(n)
        # orbit correlation inflates the variance; allow a generous factor
        assert abs(count / n - 0.5) <= 12 * sigma


class TestCocycleEquation:
    def test_zero_transfer_solves_doubled_equation(self, scheme, phi, rng):
        # psi^(2)(x, s+1) + psi^(2)(x, s) = 0, so F = 0 works; psi^(2)(x, s)
        # is the r-increment of two double-extension steps from (x, s)
        base = lambda p: rk.tower_apply(scheme, p)

        def psi2(x, s):
            x1, s1, r1 = co.double_ext_apply(base, phi, x, s, 0)
            return co.double_ext_apply(base, phi, x1, s1, r1)[2]

        for _ in range(500):
            x = rk.sample_tower_point(scheme, rng, stage=9)
            assert (psi2(x, 0) + psi2(x, 1)) % 2 == 0

    def test_psi2_identity_exhaustive_in_fiber(self, scheme, phi, rng):
        for _ in range(300):
            x = rk.sample_tower_point(scheme, rng, stage=9)
            for s in (0, 1):
                psi2_s = (s + (phi(x) + s)) % 2
                psi2_s1 = ((s + 1) % 2 + (phi(x) + s + 1)) % 2
                assert (psi2_s + psi2_s1) % 2 == 0


class TestObstruction:
    def test_witnesses_are_contradictory(self, scheme, phi):
        for w in co.constant_one_obstruction(scheme, phi):
            assert w.return_time % 2 == 1
            assert w.fiber_increment % 2 == 0
            assert w.contradictory

    def test_return_times_follow_heights(self, scheme, phi):
        ws = co.constant_one_obstruction(scheme, phi, stages=(3, 4))
        assert ws[0].return_time == 2 * scheme.height(3) + 1
        assert ws[1].return_time == 2 * scheme.height(4) + 1


class TestD6Root:
    def test_root_identity_and_witness(self, scheme, phi, rng):
        coc = lambda p: D6Element("d") if phi(p) else D6Element("e")
        rep = co.d6_root_check(scheme, coc, 2000, rng)
        assert rep.root_identity_holds
        # with the right-translation convention, the fiber e separates:
        # sigma_a sigma_b gives b*a = f while sigma_b sigma_a gives a*b = d
        assert rep.commutation_witness == ("e", "f", "d")
        assert rep.abelian_commutes


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
    def test_constant_observable_at_zero(self, scheme, phi, rng):
        state, step = co.double_extension_orbit(scheme, phi, rng)
        lines = co.eigenvalue_probe(step, [0.0], lambda st: 1.0, 10_000, state)
        assert lines[0].modulus == pytest.approx(1.0, abs=1e-12)

    def test_rotation_weyl_oracle(self):
        # closed form: the twisted sum telescopes to a geometric series, so
        # the modulus is 1 at the rotation number and o(1) off it
        alpha = (math.sqrt(5) - 1) / 2
        rot = lambda x: (x + alpha) % 1.0
        obs = lambda x: np.exp(2j * math.pi * x)
        lines = co.eigenvalue_probe(rot, [alpha, 0.25], obs, 20_000, 0.1)
        assert lines[0].modulus == pytest.approx(1.0, abs=1e-10)
        assert lines[1].modulus < 0.01

    def test_threshold_reference_line(self, scheme, phi, rng):
        state, step = co.double_extension_orbit(scheme, phi, rng)
        n = 20_000
        lines = co.eigenvalue_probe(step, [0.37], lambda st: (-1.0) ** st[2], n, state)
        assert lines[0].threshold == pytest.approx(5 * math.log(n) / math.sqrt(n))

    def test_orbit_length_validation(self, scheme, phi, rng):
        state, step = co.double_extension_orbit(scheme, phi, rng)
        with pytest.raises(ValueError):
            co.eigenvalue_probe(step, [0.0], lambda st: 1.0, 100, state)

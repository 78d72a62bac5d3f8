import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfjoin.groups import (
    D6_ELEMENTS,
    D6Element,
    G_IDENTITY,
    GElement,
    SU2_H0,
    SU2_I,
    SU2_MINUS_I,
    SU2Element,
    adjoint_matrix,
    conj_star,
    d6_mul,
    g_dist,
    g_inv,
    g_mul,
    is_central,
    phi,
    quat_mul,
    quat_normalize,
    quat_phi_int,
    quat_phi_real,
    quat_twist,
    su2_dist,
    su2_from_angle,
    su2_mul,
)


def rand_su2(rng):
    return SU2Element.from_array(rng.standard_normal(4))


def rand_g(rng, tmax=3.0):
    return GElement(float(rng.uniform(-tmax, tmax)), rand_su2(rng))


class TestSU2:
    def test_identity_product(self):
        assert su2_dist(su2_mul(SU2_I, SU2_I), SU2_I) == 0.0

    def test_h0_squared_is_minus_identity(self):
        # oracle: direct 2x2 complex matrix product
        m = SU2_H0.matrix() @ SU2_H0.matrix()
        assert np.max(np.abs(m - SU2_MINUS_I.matrix())) < 1e-15
        assert su2_dist(su2_mul(SU2_H0, SU2_H0), SU2_MINUS_I) < 1e-15

    def test_matrix_form_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, q = rand_su2(rng), rand_su2(rng)
            lhs = su2_mul(p, q).matrix()
            rhs = p.matrix() @ q.matrix()
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_renormalization_keeps_unit(self):
        rng = np.random.default_rng(1)
        p = rand_su2(rng)
        for _ in range(2000):
            p = su2_mul(p, rand_su2(rng))
        assert abs(sum(c * c for c in p.q) - 1.0) < 1e-12

    def test_nonunit_rejected(self):
        with pytest.raises(ValueError):
            SU2Element((1.0, 1.0, 0.0, 0.0))

    def test_adjoint_is_conjugation_action(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rand_su2(rng)
            rot = adjoint_matrix(q.array())
            for basis in (np.array([0.0, 1, 0, 0]), np.array([0.0, 0, 1, 0]), np.array([0.0, 0, 0, 1])):
                conj = su2_mul(su2_mul(q, SU2Element.from_array(basis, renormalize=False)), su2_inv_el(q))
                assert np.max(np.abs(conj.array()[1:] - rot @ basis[1:])) < 1e-10

    def test_adjoint_orthogonality_moment(self):
        # Schur: the mean square of any adjoint entry over Haar is 1/3
        rng = np.random.default_rng(3)
        qs = np.array([rand_su2(rng).array() for _ in range(20000)])
        rot = adjoint_matrix(qs)
        m = float(np.mean(rot[:, 0, 0] ** 2))
        assert abs(m - 1 / 3) < 0.02


def su2_inv_el(q):
    from cfjoin.groups import su2_inv

    return su2_inv(q)


class TestTwist:
    def test_phi_zero_fixes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rand_su2(rng)
            assert su2_dist(phi(0, m), m) == 0.0

    def test_phi_two_is_identity(self):
        # conjugation by -I acts trivially; oracle is the matrix computation
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rand_su2(rng)
            u = np.diag([np.exp(1j * math.pi), np.exp(-1j * math.pi)])
            oracle = u @ m.matrix() @ np.conj(u.T)
            assert np.max(np.abs(oracle - m.matrix())) < 1e-12
            assert su2_dist(phi(2, m), m) < 1e-12

    def test_phi_one_h0(self):
        u = np.diag([1j, -1j])
        oracle = u @ SU2_H0.matrix() @ np.conj(u.T)
        got = phi(1, SU2_H0)
        assert np.max(np.abs(got.matrix() - oracle)) < 1e-12
        assert su2_dist(got, su2_mul(SU2_MINUS_I, SU2_H0)) < 1e-12  # -h0

    def test_phi_additive(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s, t = rng.uniform(-4, 4, size=2)
            m = rand_su2(rng)
            assert su2_dist(phi(s + t, m), phi(s, phi(t, m))) < 1e-12


def _split_times(data, n):
    """n split times (ti, tf): ti an int64 array, or Python ints as a
    dtype=object array reaching past 2^62 and int64."""
    big = data.draw(st.booleans())
    bound = 2**80 if big else 2**62
    ints = data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    ti = np.array(ints, dtype=object if big else np.int64)
    tf = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n)))
    return ti, tf


class TestClosedFormTwist:
    @given(data=st.data(), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_matches_two_product_twist(self, data, n, seed):
        ti, tf = _split_times(data, n)
        ti[0] = data.draw(st.sampled_from([-(2**63) + 1, -3, -1, 1, 2**62 + 1]))
        q = quat_normalize(np.random.default_rng(seed).standard_normal((n, 4)))
        got = quat_twist(ti, tf, q)
        oracle = quat_phi_real(tf, quat_phi_int(ti, q))
        assert np.max(np.abs(got - oracle)) <= 1e-15
        # one split time against a batch of fibers broadcasts the same way
        one = quat_twist(ti[0], tf[0], q)
        assert np.max(np.abs(one - quat_phi_real(tf[0], quat_phi_int(ti[0], q)))) <= 1e-15

    @given(data=st.data(), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_integer_time_is_exact(self, data, n, seed):
        ti, _ = _split_times(data, n)
        q = quat_normalize(np.random.default_rng(seed).standard_normal((n, 4)))
        got = quat_twist(ti, np.zeros(n), q)
        assert np.array_equal(got, quat_phi_int(ti, q))


def _literal_mul(p, q):
    """quat_mul as the (..., 4) expression it was written as before the
    component-rows kernel."""
    a1, b1, c1, d1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    a2, b2, c2, d2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
    out[..., 1] = a1 * b2 + b1 * a2 - c1 * d2 + d1 * c2
    out[..., 2] = a1 * c2 + b1 * d2 + c1 * a2 - d1 * b2
    out[..., 3] = a1 * d2 - b1 * c2 + c1 * b2 + d1 * a2
    return out


def _literal_twist(ti, tf, q):
    """quat_twist as the (..., 4) expression it was written as before the
    component-rows kernel."""
    ang = math.pi * np.asarray(tf, dtype=float)
    sign = np.where(np.asarray(ti) & 1, -1.0, 1.0)
    cos = sign * np.cos(ang)
    sin = sign * np.sin(ang)
    c, d = q[..., 2], q[..., 3]
    out = q.copy()
    out[..., 2] = c * cos + d * sin
    out[..., 3] = d * cos - c * sin
    return out


class TestRowsWrappers:
    """quat_mul and quat_twist are (..., 4) forms of the component-rows
    kernels: the same bits as their former expressions, broadcast shapes
    included, in a C-contiguous (..., 4) result."""

    @pytest.mark.parametrize("p_shape, q_shape", [
        ((4,), (4,)), ((4,), (50, 4)), ((4,), (4, 4)), ((50, 4), (4,)),
        ((50, 4), (50, 4)), ((3, 1, 4), (1, 5, 4)), ((2, 50, 4), (50, 4)),
    ])
    def test_quat_mul_is_the_literal_product(self, p_shape, q_shape):
        rng = np.random.default_rng(61)
        p, q = rng.standard_normal(p_shape), rng.standard_normal(q_shape)
        got = quat_mul(p, q)
        assert got.flags.c_contiguous
        assert np.array_equal(got, _literal_mul(p, q))

    @given(data=st.data(), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_quat_twist_is_the_literal_twist(self, data, n, seed):
        ti, tf = _split_times(data, n)
        q = np.random.default_rng(seed).standard_normal((n, 4))
        for args in ((ti, tf, q), (ti[0], tf[0], q), (ti[0], tf[0], q[0])):
            got = quat_twist(*args)
            assert got.flags.c_contiguous
            assert np.array_equal(got, _literal_twist(*args))


class TestG:
    def test_identity(self):
        rng = np.random.default_rng(7)
        x = rand_g(rng)
        assert g_dist(g_mul(G_IDENTITY, x), x) < 1e-15
        assert g_dist(g_mul(x, G_IDENTITY), x) < 1e-12

    def test_center_time_two(self):
        # (2, I) and (2, -I) commute with everything
        rng = np.random.default_rng(8)
        for center in (GElement(2.0, SU2_I), GElement(2.0, SU2_MINUS_I)):
            for _ in range(50):
                y = rand_g(rng)
                assert g_dist(g_mul(center, y), g_mul(y, center)) < 1e-12

    def test_associativity_random(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            x, y, z = rand_g(rng), rand_g(rng), rand_g(rng)
            assert g_dist(g_mul(g_mul(x, y), z), g_mul(x, g_mul(y, z))) < 1e-12

    def test_inverse(self):
        rng = np.random.default_rng(10)
        assert g_dist(g_inv(G_IDENTITY), G_IDENTITY) == 0.0
        for _ in range(100):
            x = rand_g(rng)
            assert g_dist(g_mul(x, g_inv(x)), G_IDENTITY) < 1e-12
            assert g_dist(g_inv(g_inv(x)), x) < 1e-12
        x = GElement(1.0, SU2_H0)
        inv = g_inv(x)
        assert inv.t == -1.0
        assert g_dist(g_mul(x, inv), G_IDENTITY) < 1e-12

    def test_star_fixed_points_and_involution(self):
        rng = np.random.default_rng(11)
        k = GElement(0.7, SU2_I)
        assert g_dist(conj_star(k), k) == 0.0
        for _ in range(100):
            x = rand_g(rng)
            assert g_dist(conj_star(conj_star(x)), x) < 1e-12

    def test_star_on_h0(self):
        got = conj_star(GElement(0.0, SU2_H0))
        assert g_dist(got, GElement(0.0, su2_mul(SU2_MINUS_I, SU2_H0))) < 1e-12

    def test_star_is_conjugation(self):
        one = GElement(1.0, SU2_I)
        rng = np.random.default_rng(12)
        for _ in range(50):
            k = rand_g(rng)
            direct = g_mul(g_mul(one, k), g_inv(one))
            assert g_dist(conj_star(k), direct) < 1e-12

    def test_star_homomorphism(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x, y = rand_g(rng), rand_g(rng)
            assert g_dist(conj_star(g_mul(x, y)), g_mul(conj_star(x), conj_star(y))) < 1e-12


class TestD6:
    def test_table_reads(self):
        assert d6_mul(D6Element("a"), D6Element("b")) == D6Element("d")
        assert d6_mul(D6Element("b"), D6Element("a")) == D6Element("f")
        assert d6_mul(D6Element("a"), D6Element("a")) == D6Element("e")

    def test_identity_row(self):
        for x in D6_ELEMENTS:
            assert d6_mul(D6Element("e"), x) == x
            assert d6_mul(x, D6Element("e")) == x

    def test_exhaustive_group_axioms(self):
        for x in D6_ELEMENTS:
            # every row of the table holds the identity: x has an inverse
            assert any(d6_mul(x, y) == D6Element("e") for y in D6_ELEMENTS)
            for y in D6_ELEMENTS:
                assert d6_mul(x, y) in D6_ELEMENTS
                for z in D6_ELEMENTS:
                    assert d6_mul(d6_mul(x, y), z) == d6_mul(x, d6_mul(y, z))

    def test_nonabelian(self):
        assert d6_mul(D6Element("a"), D6Element("b")) != d6_mul(D6Element("b"), D6Element("a"))


class TestCentrality:
    def test_central_elements(self):
        rng = np.random.default_rng(14)
        assert is_central(GElement(2.0, SU2_I), 500, rng).central
        assert is_central(GElement(-4.0, SU2_MINUS_I), 500, rng).central

    def test_time_one_not_central(self):
        res = is_central(GElement(1.0, SU2_I), 200, np.random.default_rng(15))
        assert not res.central
        w = res.witness
        assert g_dist(g_mul(GElement(1.0, SU2_I), w), g_mul(w, GElement(1.0, SU2_I))) > 1e-10

    def test_h0_not_central(self):
        res = is_central(GElement(0.0, SU2_H0), 200, np.random.default_rng(16))
        assert not res.central
        # the flow direction alone already fails to commute with h0
        g_t = GElement(0.25, SU2_I)
        k = GElement(0.0, SU2_H0)
        assert g_dist(g_mul(k, g_t), g_mul(g_t, k)) > 1e-6

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            is_central(G_IDENTITY, 0, np.random.default_rng(0))


def test_su2_from_angle_matches_diagonal():
    t = 0.3
    m = su2_from_angle(t).matrix()
    assert abs(m[0, 0] - np.exp(2j * math.pi * t)) < 1e-15
    assert abs(m[1, 1] - np.exp(-2j * math.pi * t)) < 1e-15
    assert abs(m[0, 1]) == 0.0

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfjoin.groups import (
    D6_LABELS,
    D6_MUL,
    GElement,
    SU2_H0,
    SU2_I,
    SU2Element,
    adjoint_entry_rows,
    adjoint_matrix,
    conj_star,
    g_inv,
    g_mul,
    is_central,
    quat_inv,
    quat_mul,
    quat_normalize,
    quat_phi_int,
    quat_phi_real,
    quat_twist,
    twist_unit,
)

I = SU2_I.array()
MINUS_I = -I
H0 = SU2_H0.array()


def quat_to_matrix(q):
    """The oracle of the product convention: the 2x2 complex matrix
    [[z, -conj(w)], [w, conj(z)]] of a quaternion, z = a + bi, w = c + di."""
    q = np.asarray(q, dtype=float)
    z = q[..., 0] + 1j * q[..., 1]
    w = q[..., 2] + 1j * q[..., 3]
    return np.stack([np.stack([z, -np.conj(w)], -1), np.stack([w, np.conj(z)], -1)], -2)


def rand_su2(rng, n=None):
    """n Haar-random unit quaternions as an (n, 4) array, or one as (4,)."""
    return quat_normalize(rng.standard_normal(4 if n is None else (n, 4)))


def rand_g(rng, n=None, tmax=3.0):
    """Random elements (t, m) of G: times in (-tmax, tmax), Haar fibers."""
    return rng.uniform(-tmax, tmax, size=n), rand_su2(rng, n)


def dist(x, y):
    """Max over times and quaternion components (distinguishes M from -M)."""
    (tx, mx), (ty, my) = x, y
    return float(max(np.max(np.abs(np.subtract(tx, ty))), np.max(np.abs(mx - my))))


class TestSU2:
    def test_identity_product(self):
        assert np.array_equal(quat_mul(I, I), I)

    def test_h0_squared_is_minus_identity(self):
        # oracle: direct 2x2 complex matrix product
        m = quat_to_matrix(H0) @ quat_to_matrix(H0)
        assert np.max(np.abs(m - quat_to_matrix(MINUS_I))) < 1e-15
        assert np.max(np.abs(quat_mul(H0, H0) - MINUS_I)) < 1e-15

    def test_matrix_form_oracle(self):
        rng = np.random.default_rng(0)
        p, q = rand_su2(rng, 200), rand_su2(rng, 200)
        lhs = quat_to_matrix(quat_mul(p, q))
        rhs = quat_to_matrix(p) @ quat_to_matrix(q)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_nonunit_rejected(self):
        with pytest.raises(ValueError):
            SU2Element((1.0, 1.0, 0.0, 0.0))

    def test_adjoint_is_conjugation_action(self):
        rng = np.random.default_rng(2)
        q = rand_su2(rng, 50)
        rot = adjoint_matrix(q)
        for basis in (np.array([0.0, 1, 0, 0]), np.array([0.0, 0, 1, 0]), np.array([0.0, 0, 0, 1])):
            conj = quat_mul(quat_mul(q, basis), quat_inv(q))
            assert np.max(np.abs(conj[:, 1:] - rot @ basis[1:])) < 1e-10

    def test_adjoint_matches_the_written_out_matrix(self):
        # the oracle: the nine entries written out one by one on the
        # conjugate's components; the same bits, signed zeros of the units
        # included
        q = np.vstack([rand_su2(np.random.default_rng(21), 1000), np.eye(4), -np.eye(4)])
        a, b, c, d = q[:, 0], -q[:, 1], -q[:, 2], -q[:, 3]
        m = np.empty((len(q), 3, 3))
        m[:, 0, 0] = a * a + b * b - c * c - d * d
        m[:, 0, 1] = 2 * (b * c - a * d)
        m[:, 0, 2] = 2 * (b * d + a * c)
        m[:, 1, 0] = 2 * (b * c + a * d)
        m[:, 1, 1] = a * a - b * b + c * c - d * d
        m[:, 1, 2] = 2 * (c * d - a * b)
        m[:, 2, 0] = 2 * (b * d - a * c)
        m[:, 2, 1] = 2 * (c * d + a * b)
        m[:, 2, 2] = a * a - b * b - c * c + d * d
        assert adjoint_matrix(q).tobytes() == m.tobytes()
        assert adjoint_matrix(q[7]).tobytes() == m[7].tobytes()
        for i, j in np.ndindex(3, 3):
            assert adjoint_entry_rows(q.T, i, j).tobytes() == m[:, i, j].tobytes()

    def test_adjoint_orthogonality_moment(self):
        # Schur: the mean square of any adjoint entry over Haar is 1/3
        rng = np.random.default_rng(3)
        rot = adjoint_matrix(rand_su2(rng, 20000))
        m = float(np.mean(rot[:, 0, 0] ** 2))
        assert abs(m - 1 / 3) < 0.02


class TestTwist:
    def test_phi_zero_fixes(self):
        m = rand_su2(np.random.default_rng(4), 20)
        assert np.array_equal(quat_phi_int(0, m), m)
        assert np.array_equal(quat_phi_real(0.0, m), m)

    def test_phi_two_is_identity(self):
        # conjugation by -I acts trivially; oracle is the matrix computation
        m = rand_su2(np.random.default_rng(5), 20)
        u = np.diag([np.exp(1j * math.pi), np.exp(-1j * math.pi)])
        oracle = u @ quat_to_matrix(m) @ np.conj(u.T)
        assert np.max(np.abs(oracle - quat_to_matrix(m))) < 1e-12
        assert np.array_equal(quat_phi_int(2, m), m)
        assert np.max(np.abs(quat_phi_real(2.0, m) - m)) < 1e-12

    def test_phi_one_h0(self):
        u = np.diag([1j, -1j])
        oracle = u @ quat_to_matrix(H0) @ np.conj(u.T)
        for got in (quat_phi_int(1, H0), quat_phi_real(1.0, H0)):
            assert np.max(np.abs(quat_to_matrix(got) - oracle)) < 1e-12
            assert np.max(np.abs(got - quat_mul(MINUS_I, H0))) < 1e-12  # -h0

    def test_phi_additive(self):
        rng = np.random.default_rng(6)
        s, t = rng.uniform(-4, 4, size=(2, 100))
        m = rand_su2(rng, 100)
        assert np.max(np.abs(quat_phi_real(s + t, m) - quat_phi_real(s, quat_phi_real(t, m)))) < 1e-12


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
    """quat_mul as the complex-pair expression (z1 z2 - conj(w1) w2,
    conj(z1) w2 + w1 z2) on at least one-row copies of p and q broadcast
    against each other, one numpy operation at a time."""
    shape = np.broadcast_shapes(p.shape, q.shape)
    p, q = (np.broadcast_to(x, (1,) + shape).copy().view(complex) for x in (p, q))
    z1, w1, z2, w2 = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    out = np.stack([z1 * z2 - np.conjugate(w1) * w2, np.conjugate(z1) * w2 + w1 * z2], -1)
    return out.view(float).reshape(shape)


def _literal_twist(ti, tf, q):
    """quat_twist as w turned by one complex multiply with its unit
    (-1)^ti (cos pi tf - i sin pi tf), on at least one-row copies of q and
    of the unit broadcast to q's rows."""
    ang = math.pi * np.asarray(tf, dtype=float)
    sign = np.where(np.asarray(ti) & 1, -1.0, 1.0)
    out = np.broadcast_to(q, (1,) + q.shape).copy().view(complex)
    unit = np.broadcast_to(sign * np.cos(ang) - 1j * (sign * np.sin(ang)), out.shape[:-1]).copy()
    out[..., 1] = out[..., 1] * unit
    return out.view(float).reshape(q.shape)


# floats whose products neither overflow nor pass below the normal range,
# where a relative bound on rounding would not hold
_COMPONENT = st.one_of(st.just(0.0), st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-30))
_FRACTION = st.one_of(st.just(0.0), st.floats(1e-30, 1.0, exclude_max=True))
_ROW = st.lists(_COMPONENT, min_size=4, max_size=4).map(np.array)


def _within_ulps(got, terms, ulps):
    """Each component of got within `ulps` ulps of 1 (2^-52), relative to
    its terms' absolute sum, of the exact sum of its terms, each term the
    exact Fraction product of two floats and a sign.  A complex product
    rounds each part at most twice (a fused or a plain product, then the
    sum) and pair_mul's sums once more, 3 half-ulps of the terms' sum at
    most; the twist's one complex multiply 2 half-ulps, plus a term of the
    order of the square of a half-ulp."""
    for value, row in zip(got.tolist(), terms):
        exact = sum(sign * Fraction(x) * Fraction(y) for sign, x, y in row)
        scale = sum(abs(Fraction(x) * Fraction(y)) for _, x, y in row)
        assert abs(Fraction(value) - exact) <= ulps * Fraction(2.0**-52) * scale


class TestRowsWrappers:
    """quat_mul and quat_twist are (..., 4) forms of the complex-pair
    kernels: the bits of the pair expressions, broadcast shapes included,
    in a C-contiguous (..., 4) result."""

    @pytest.mark.parametrize("p_shape, q_shape", [
        ((4,), (4,)), ((4,), (50, 4)), ((4,), (4, 4)), ((50, 4), (4,)),
        ((50, 4), (50, 4)), ((3, 1, 4), (1, 5, 4)), ((2, 50, 4), (50, 4)),
    ])
    def test_quat_mul_is_the_literal_product(self, p_shape, q_shape):
        rng = np.random.default_rng(61)
        p, q = rng.standard_normal(p_shape), rng.standard_normal(q_shape)
        got = quat_mul(p, q)
        assert got.flags.c_contiguous and got.dtype == float
        assert got.tobytes() == _literal_mul(p, q).tobytes()

    @given(data=st.data(), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_quat_twist_is_the_literal_twist(self, data, n, seed):
        ti, tf = _split_times(data, n)
        q = np.random.default_rng(seed).standard_normal((n, 4))
        for args in ((ti, tf, q), (ti[0], tf[0], q), (ti[0], tf[0], q[0])):
            got = quat_twist(*args)
            assert got.flags.c_contiguous
            assert got.tobytes() == _literal_twist(*args).tobytes()


class TestPairKernels:
    """numpy's complex multiply may fuse a multiply and an add (it does on
    AVX-512), so the product and the twist are held to the real formula
    within a rounding bound, and to their own bits wherever a row sits:
    alone, broadcast, strided or in a long batch."""

    @given(p=_ROW, q=_ROW)
    def test_product_is_the_real_formula_within_two_ulps(self, p, q):
        # the real formula of the matrix convention, as signed products
        (a1, b1, c1, d1), (a2, b2, c2, d2) = p.tolist(), q.tolist()
        terms = [
            [(1, a1, a2), (-1, b1, b2), (-1, c1, c2), (-1, d1, d2)],
            [(1, a1, b2), (1, b1, a2), (-1, c1, d2), (1, d1, c2)],
            [(1, a1, c2), (1, b1, d2), (1, c1, a2), (-1, d1, b2)],
            [(1, a1, d2), (-1, b1, c2), (1, c1, b2), (1, d1, a2)],
        ]
        _within_ulps(quat_mul(p, q), terms, 2)

    @given(q=_ROW, ti=st.integers(-(2**70), 2**70), tf=_FRACTION)
    def test_twist_is_the_real_formula_within_two_ulps(self, q, ti, tf):
        # (c, d) -> (c cos + d sin, d cos - c sin) with (cos, sin) the
        # unit's parts, (-1)^ti (cos pi tf, sin pi tf)
        unit = twist_unit(np.array([ti], dtype=object), tf)[0]
        cos, sin = float(unit.real), -float(unit.imag)
        a, b, c, d = q.tolist()
        terms = [[(1, a, 1.0)], [(1, b, 1.0)], [(1, c, cos), (1, d, sin)], [(1, d, cos), (-1, c, sin)]]
        _within_ulps(quat_twist(ti, tf, q), terms, 2)

    @given(p=_ROW, q=_ROW, n=st.integers(1, 40), at=st.integers(0, 2**14 - 1), seed=st.integers(0, 2**32 - 1))
    def test_a_row_has_the_same_bits_wherever_it_is(self, p, q, n, at, seed):
        # alone, broadcast (4,) x (n, 4) and (n, 4) x (4,), strided, and
        # inside a 2^14 batch, the row's product and twist are bit for bit
        # the same
        rng = np.random.default_rng(seed)
        want = quat_mul(p, q).tobytes()
        batch_p, batch_q = rng.standard_normal((2, 2**14, 4))
        batch_p[at], batch_q[at] = p, q
        i = at % n
        strided = rng.standard_normal((2 * n, 4))
        strided[2 * i] = q
        assert quat_mul(batch_p, batch_q)[at].tobytes() == want
        assert quat_mul(p, batch_q[at - i: at - i + n])[i].tobytes() == want
        assert quat_mul(batch_p[at - i: at - i + n], q)[i].tobytes() == want
        assert quat_mul(p, strided[::2])[i].tobytes() == want
        assert quat_mul(p[None], q[None])[0].tobytes() == want
        tf = rng.random(2**14)
        ti = rng.integers(-5, 5, 2**14)
        want = quat_twist(ti[at], tf[at], q).tobytes()
        assert quat_twist(ti, tf, batch_q)[at].tobytes() == want
        assert quat_twist(ti[at], tf[at], strided[::2])[i].tobytes() == want
        assert quat_twist(ti[at:at + 1], tf[at:at + 1], q[None])[0].tobytes() == want


class TestG:
    def test_identity(self):
        x = rand_g(np.random.default_rng(7), 100)
        assert dist(g_mul(0.0, I, *x), x) < 1e-15
        assert dist(g_mul(*x, 0.0, I), x) < 1e-12

    def test_center_time_two(self):
        # (2, I) and (2, -I) commute with everything
        y = rand_g(np.random.default_rng(8), 50)
        for center in ((2.0, I), (2.0, MINUS_I)):
            assert dist(g_mul(*center, *y), g_mul(*y, *center)) < 1e-12

    def test_associativity_random(self):
        rng = np.random.default_rng(9)
        x, y, z = rand_g(rng, 300), rand_g(rng, 300), rand_g(rng, 300)
        assert dist(g_mul(*g_mul(*x, *y), *z), g_mul(*x, *g_mul(*y, *z))) < 1e-12

    def test_inverse(self):
        assert dist(g_inv(0.0, I), (0.0, I)) == 0.0
        x = rand_g(np.random.default_rng(10), 100)
        assert dist(g_mul(*x, *g_inv(*x)), (0.0, I)) < 1e-12
        assert dist(g_inv(*g_inv(*x)), x) < 1e-12
        t, m = g_inv(1.0, H0)
        assert t == -1.0
        assert dist(g_mul(1.0, H0, t, m), (0.0, I)) < 1e-12

    def test_broadcasts_one_element_against_a_batch(self):
        # the law of a single (t, (4,)) element against n rows is the law row by row
        rng = np.random.default_rng(17)
        x, (ty, my) = rand_g(rng), rand_g(rng, 20)
        t, m = g_mul(*x, ty, my)
        for i in range(20):
            assert dist((t[i], m[i]), g_mul(*x, ty[i], my[i])) == 0.0

    def test_star_fixed_points_and_involution(self):
        assert dist(conj_star(0.7, I), (0.7, I)) == 0.0
        # the integer-time twist only flips signs, so the star is exactly
        # an involution
        x = rand_g(np.random.default_rng(11), 100)
        assert dist(conj_star(*conj_star(*x)), x) == 0.0

    def test_star_on_h0(self):
        assert dist(conj_star(0.0, H0), (0.0, quat_mul(MINUS_I, H0))) < 1e-12

    def test_star_is_conjugation(self):
        x = rand_g(np.random.default_rng(12), 50)
        direct = g_mul(*g_mul(1.0, I, *x), *g_inv(1.0, I))
        assert dist(conj_star(*x), direct) < 1e-12

    def test_star_homomorphism(self):
        rng = np.random.default_rng(13)
        x, y = rand_g(rng, 100), rand_g(rng, 100)
        assert dist(conj_star(*g_mul(*x, *y)), g_mul(*conj_star(*x), *conj_star(*y))) < 1e-12


# the Cayley table of D6 by label, row * column: the oracle for D6_MUL
D6_TABLE = {
    "e": {"e": "e", "a": "a", "b": "b", "c": "c", "d": "d", "f": "f"},
    "a": {"e": "a", "a": "e", "b": "d", "c": "f", "d": "b", "f": "c"},
    "b": {"e": "b", "a": "f", "b": "e", "c": "d", "d": "c", "f": "a"},
    "c": {"e": "c", "a": "d", "b": "f", "c": "e", "d": "a", "f": "b"},
    "d": {"e": "d", "a": "c", "b": "a", "c": "b", "d": "f", "f": "e"},
    "f": {"e": "f", "a": "b", "b": "c", "c": "a", "d": "e", "f": "d"},
}


def d6(label):
    return D6_LABELS.index(label)


class TestD6:
    def test_table_matches_the_label_oracle(self):
        assert D6_MUL.shape == (6, 6)
        assert sorted(D6_LABELS) == sorted(D6_TABLE)
        for g, row in D6_TABLE.items():
            for h, prod in row.items():
                assert D6_LABELS[D6_MUL[d6(g), d6(h)]] == prod

    def test_table_reads(self):
        assert D6_MUL[d6("a"), d6("b")] == d6("d")
        assert D6_MUL[d6("b"), d6("a")] == d6("f")
        assert D6_MUL[d6("a"), d6("a")] == d6("e")

    def test_identity_row(self):
        e = d6("e")
        assert np.array_equal(D6_MUL[e, :], np.arange(6))
        assert np.array_equal(D6_MUL[:, e], np.arange(6))

    def test_exhaustive_group_axioms(self):
        # closure: every product is an element
        assert set(D6_MUL.ravel()) <= set(range(6))
        # every row of the table holds the identity: each x has an inverse
        assert all(d6("e") in D6_MUL[x] for x in range(6))
        x, y, z = np.indices((6, 6, 6))
        assert np.array_equal(D6_MUL[D6_MUL[x, y], z], D6_MUL[x, D6_MUL[y, z]])

    def test_nonabelian(self):
        assert D6_MUL[d6("a"), d6("b")] != D6_MUL[d6("b"), d6("a")]


class TestCentrality:
    def test_central_elements(self):
        rng = np.random.default_rng(14)
        assert is_central(GElement(2.0, SU2_I), 500, rng) is True
        assert is_central(GElement(-4.0, SU2Element((-1.0, 0.0, 0.0, 0.0))), 500, rng) is True

    def test_time_one_not_central(self):
        assert is_central(GElement(1.0, SU2_I), 200, np.random.default_rng(15)) is False
        # the time-one twist moves the fiber h0 to -h0
        assert dist(g_mul(1.0, I, 0.0, H0), g_mul(0.0, H0, 1.0, I)) > 1e-10

    def test_h0_not_central(self):
        assert is_central(GElement(0.0, SU2_H0), 200, np.random.default_rng(16)) is False
        # the flow direction alone already fails to commute with h0
        assert dist(g_mul(0.0, H0, 0.25, I), g_mul(0.25, I, 0.0, H0)) > 1e-6

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            is_central(GElement(0.0, SU2_I), 0, np.random.default_rng(0))

"""Exact arithmetic for SU(2), the semidirect product G = R x| SU(2) and D6,
each group written once, on arrays.

SU(2) elements are stored as unit quaternions (a, b, c, d).  The associated
matrix is [[z, -conj(w)], [w, conj(z)]] with z = a + bi and w = c + di, and the
quaternion product here is defined so that it matches the matrix product in
that convention (tests verify this against direct 2x2 complex matmuls).

The time-one twist of the semidirect product conjugates the fiber by
diag(e^{i pi t/2}, e^{-i pi t/2}); it has period 2 in t as an automorphism,
which is why the center of G sits over the even integers.  It fixes z and
turns w by e^{-i pi t}, so the point engine applies it in closed form to split
times ti + tf (quat_twist); quat_phi_real, two quaternion products, stays the
general-time form and the oracle for it.  The product, the turn of the
twist and the adjoint representation are written once, on component rows
(quat_mul_rows, quat_turn_rows, adjoint_entry_rows); quat_mul, quat_twist and
adjoint_matrix are their (..., 4) forms, with the same bits.  The twist is
two steps, its factor (cos, sin) = (-1)^ti (cos pi tf, sin pi tf)
(twist_factors) and the turn of w by cos - i sin (quat_turn_rows), so that
the point engine can read the factors from a table on its tick grid.

The law of G is g_mul and g_inv on times and (..., 4) fibers, with conj_star
the conjugation by the time-one translate; GElement and SU2Element are the
value types of single elements, and is_central tells whether one commutes
with random elements.  D6 is its Cayley table of indices, D6_MUL, with
D6_LABELS naming the elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SU2Element",
    "GElement",
    "SU2_I",
    "SU2_H0",
    "g_mul",
    "g_inv",
    "conj_star",
    "D6_LABELS",
    "D6_MUL",
    "is_central",
    "quat_mul",
    "quat_mul_rows",
    "quat_turn_rows",
    "twist_factors",
    "quat_inv",
    "quat_normalize",
    "quat_phi_int",
    "quat_phi_real",
    "quat_twist",
    "quat_to_matrix",
    "adjoint_entry_rows",
    "adjoint_matrix",
]


# ---------------------------------------------------------------------------
# vectorized quaternion kernels.  The product, the turn of the twist and the
# adjoint entries are written once, on component rows: a quaternion array is
# its four rows a, b, c, d, either a (4, ...) stack or the four columns of a
# (..., 4) array.  quat_mul, quat_twist and adjoint_matrix are their
# (..., 4) forms.  The point engine keeps a batch's fibers as (4, n)
# contiguous rows, turns them with quat_turn_rows by twist factors it reads
# from a table, and multiplies them with quat_mul_rows.
# ---------------------------------------------------------------------------

def _rows(q: np.ndarray) -> np.ndarray:
    """The component rows of a (..., 4) array, as a (4, ...) view."""
    return q.transpose((q.ndim - 1,) + tuple(range(q.ndim - 1)))


def quat_mul_rows(p, q, out):
    """The quaternion product p q on component rows, written with out= into
    the four preallocated rows of the (4, ...) array `out` (which must not
    overlap p or q) and returned.  Each row is the expression of the matrix
    convention evaluated left to right, every product and sum rounded once,
    its last term taken in the out= call, so each form of the product gives
    the same bits:
        a1 a2 - b1 b2 - c1 c2 - d1 d2,   a1 b2 + b1 a2 - c1 d2 + d1 c2,
        a1 c2 + b1 d2 + c1 a2 - d1 b2,   a1 d2 - b1 c2 + c1 b2 + d1 a2."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    np.subtract(a1 * a2 - b1 * b2 - c1 * c2, d1 * d2, out=out[0, ...])
    np.add(a1 * b2 + b1 * a2 - c1 * d2, d1 * c2, out=out[1, ...])
    np.subtract(a1 * c2 + b1 * d2 + c1 * a2, d1 * b2, out=out[2, ...])
    np.add(a1 * d2 - b1 * c2 + c1 * b2, d1 * a2, out=out[3, ...])
    return out


def twist_factors(ti, tf):
    """The factors (cos, sin) of the fiber twist by a split time ti + tf,
    (-1)^ti (cos pi tf, sin pi tf), so that the twist turns w = c + di by
    cos - i sin = e^{-i pi tf} (-1)^ti.  ti may be int64 or Python ints
    (dtype=object)."""
    ang = math.pi * np.asarray(tf, dtype=float)
    sign = np.where(np.asarray(ti) & 1, -1.0, 1.0)
    return sign * np.cos(ang), sign * np.sin(ang)


def quat_turn_rows(q, cos, sin):
    """The rows (a, b, c', d') of component rows q with w = c + di turned
    by cos - i sin: c' = c cos + d sin, d' = d cos - c sin, each rounded as
    written; a and b are q's own rows."""
    a, b, c, d = q
    return a, b, c * cos + d * sin, d * cos - c * sin


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product matching the SU(2) matrix product convention above."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=float)
    quat_mul_rows(_rows(p), _rows(q), _rows(out))
    return out


def quat_inv(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion (its conjugate)."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    norm = np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    return q / norm


def quat_phi_int(k, q: np.ndarray) -> np.ndarray:
    """Fiber twist by an integer time: identity for even k, (a,b,c,d) ->
    (a,b,-c,-d) for odd k.  Exact, no trigonometry."""
    q = np.asarray(q, dtype=float)
    odd = np.asarray(k) % 2
    sign = np.where(odd == 0, 1.0, -1.0)
    out = q.copy()
    out[..., 2] = q[..., 2] * sign
    out[..., 3] = q[..., 3] * sign
    return out


def quat_phi_real(t, q: np.ndarray) -> np.ndarray:
    """Fiber twist by a real time t: conjugation by the diagonal one-parameter
    subgroup at angle pi*t/2.  t may be an array broadcastable against q."""
    t = np.asarray(t, dtype=float)
    ang = 0.5 * math.pi * np.mod(t, 4.0)
    u = np.zeros(ang.shape + (4,))
    u[..., 0] = np.cos(ang)
    u[..., 1] = np.sin(ang)
    return quat_mul(quat_mul(u, q), quat_inv(u))


def quat_twist(ti, tf, q: np.ndarray) -> np.ndarray:
    """Fiber twist by a split time ti + tf in closed form, equal to
    quat_phi_real(tf, quat_phi_int(ti, q)): (a, b, c, d) -> (a, b, w') with
    w' = (c + di) e^{-i pi tf} (-1)^ti, w turned by its twist_factors.  ti
    may be int64 or Python ints (dtype=object); for tf = 0 the result is
    quat_phi_int(ti, q) exactly."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    _, _, out[..., 2], out[..., 3] = quat_turn_rows(_rows(q), *twist_factors(ti, tf))
    return out


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """2x2 complex matrix [[z, -conj(w)], [w, conj(z)]] of a quaternion."""
    q = np.asarray(q, dtype=float)
    z = q[..., 0] + 1j * q[..., 1]
    w = q[..., 2] + 1j * q[..., 3]
    m = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = z
    m[..., 0, 1] = -np.conj(w)
    m[..., 1, 0] = w
    m[..., 1, 1] = np.conj(z)
    return m


def adjoint_entry_rows(q, i, j):
    """Entry (i, j) of the adjoint matrix (adjoint_matrix) on component rows
    q = (a, v0, v1, v2).  The product convention here is opposite to
    Hamilton's, so conjugation by q acts as the classical rotation matrix of
    the conjugate quaternion (a, -v): entry (i, i) is a a + v_i v_i less the
    other two v_k v_k, and entry (i, j), k the third index, is
    2 (v_i v_j + a v_k) when (i, j, k) is a cyclic order of (0, 1, 2) and
    2 (v_i v_j - a v_k) otherwise.  Each is evaluated left to right, the
    squares in the order of k: negation being exact, these are the bits of
    the same forms on the conjugate's components, and adjoint_matrix and
    the dictionary's adjoint rows read the same bits."""
    a, v = q[0], q[1:]
    if i == j:
        out = a * a
        for k in range(3):
            out = out + v[k] * v[k] if k == i else out - v[k] * v[k]
        return out
    k = 3 - i - j
    if (j - i) % 3 == 1:
        return 2 * (v[i] * v[j] + a * v[k])
    return 2 * (v[i] * v[j] - a * v[k])


def adjoint_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of the conjugation action m -> q m q^{-1} on the
    imaginary part (b, c, d).  Columns are the images of i, j, k."""
    rows = _rows(np.asarray(q, dtype=float))
    m = [[adjoint_entry_rows(rows, i, j) for j in range(3)] for i in range(3)]
    return np.moveaxis(np.array(m), (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# SU(2) and G value types, and the group law on arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SU2Element:
    """Unit quaternion a + bi + cj + dk; I and -I are distinct elements."""

    q: tuple[float, float, float, float]

    def __post_init__(self):
        a, b, c, d = self.q
        norm2 = a * a + b * b + c * c + d * d
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"quaternion norm^2 {norm2!r} is not 1 within 1e-12")

    @staticmethod
    def from_array(q: np.ndarray) -> "SU2Element":
        """The element of the quaternion q, normalised to unit norm."""
        q = quat_normalize(q)
        return SU2Element((float(q[0]), float(q[1]), float(q[2]), float(q[3])))

    def array(self) -> np.ndarray:
        return np.array(self.q, dtype=float)

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.array())


SU2_I = SU2Element((1.0, 0.0, 0.0, 0.0))
# fiber element with matrix [[0, -1], [1, 0]] (the quaternion j)
SU2_H0 = SU2Element((0.0, 0.0, 1.0, 0.0))


@dataclass(frozen=True)
class GElement:
    """Element (t, m) of G with group law (t,M)(s,N) = (t+s, M phi_t(N))."""

    t: float
    m: SU2Element


def g_mul(ta, ma, tb, mb):
    """The group law (ta, ma)(tb, mb) = (ta + tb, ma phi_ta(mb)) on times
    and (..., 4) fibers, broadcast against each other."""
    return ta + tb, quat_mul(ma, quat_phi_real(ta, mb))


def g_inv(t, m):
    """The inverse (t, m)^{-1} = (-t, phi_{-t}(m^{-1})) on times and
    (..., 4) fibers."""
    return -t, quat_phi_real(-t, quat_inv(m))


def conj_star(t, m):
    """Conjugation by the time-one translate, (t, m) -> (t, phi_1(m)), on
    times and (..., 4) fibers, with the exact integer-time twist."""
    return t, quat_phi_int(1, m)


# ---------------------------------------------------------------------------
# D6 (the symmetric group on three letters, smallest non-abelian group)
# ---------------------------------------------------------------------------

D6_LABELS = "eabcdf"

# Cayley table, row * column, as indices into D6_LABELS.
D6_MUL = np.array([
    [D6_LABELS.index(label) for label in row]
    for row in ("eabcdf", "aedfbc", "bfedca", "cdfeab", "dcabfe", "fbcaed")
])


# ---------------------------------------------------------------------------
# centrality probe
# ---------------------------------------------------------------------------

def is_central(k: GElement, trials: int, rng: np.random.Generator) -> bool:
    """Probabilistic centrality test: whether k commutes with `trials`
    random elements.

    Both sides are products of g_mul.  Time coordinates always commute
    exactly, so only the fiber is compared, at tolerance 1e-10.  Random
    elements mix integer, half-integer and continuous times so that the
    twist is exercised away from its period.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    times = rng.uniform(-4.0, 4.0, size=trials)
    # make sure some plain time translations are tested as well
    times[::3] = np.round(times[::3] * 2) / 2 + 0.25
    quats = quat_normalize(rng.standard_normal((trials, 4)))
    quats[1::3] = np.array([1.0, 0.0, 0.0, 0.0])
    kq = k.m.array()
    _, left = g_mul(times, quats, k.t, kq)
    _, right = g_mul(k.t, kq, times, quats)
    return not np.any(np.max(np.abs(left - right), axis=-1) > 1e-10)

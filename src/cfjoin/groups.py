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
general-time form and the oracle for it.  The product and the twist are
written once, on the complex pair (z, w) of a quaternion (quat_pair): the
product is pair_mul, and the twist turns w by one complex multiply with its
twist_unit (-1)^ti e^{-i pi tf}, which the point engine reads pre-multiplied
from tables on its tick grid.  quat_mul and quat_twist are their (..., 4)
forms, with the same bits.  The adjoint representation is written once on
component rows (adjoint_entry_rows), and adjoint_matrix is its (..., 4) form.

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
    "quat_pair",
    "pair_mul",
    "twist_unit",
    "quat_inv",
    "quat_normalize",
    "quat_phi_int",
    "quat_phi_real",
    "quat_twist",
    "adjoint_entry_rows",
    "adjoint_matrix",
]


# ---------------------------------------------------------------------------
# vectorized quaternion kernels, on complex pairs.  numpy's complex multiply
# may fuse a multiply and an add in its SIMD loops (on AVX-512 it does,
# re = fma(x.re, y.re, -x.im y.im), im = fma(x.re, y.im, x.im y.re)), with
# the same bits for every array length, stride and broadcast; complex
# scalars multiply without it, and so does a one-element product written
# over an operand or broadcast from fewer dimensions.  So every product here
# is an array operation written with out= into an array that is neither
# operand, on operands broadcast to one shape, in the order written.
# ---------------------------------------------------------------------------

def quat_pair(q) -> np.ndarray:
    """The complex pairs (z, w) of (..., 4) quaternions as a (..., 2)
    complex array: a view of q when it is C-contiguous float64, else of a
    copy."""
    return np.ascontiguousarray(q, dtype=float).view(complex)


def pair_mul(p, q, out, tmp):
    """The quaternion product p q on complex pairs p = (z1, w1) and
    q = (z2, w2), the product of the matrices [[z, -conj(w)], [w, conj(z)]]:
        (z1 z2 - conj(w1) w2,  conj(z1) w2 + w1 z2),
    four complex multiplies, written with out= into the pair `out` (which
    must not overlap p or q) and returned; `tmp`, an array of the shape of
    out's rows, holds the conjugates and the last product."""
    z1, w1 = p
    z2, w2 = q
    np.multiply(np.conjugate(w1, out=tmp), w2, out=out[1])
    np.subtract(np.multiply(z1, z2, out=out[0]), out[1], out=out[0])
    np.multiply(np.conjugate(z1, out=tmp), w2, out=out[1])
    np.add(out[1], np.multiply(w1, z2, out=tmp), out=out[1])
    return out


def twist_unit(ti, tf) -> np.ndarray:
    """The unit (-1)^ti e^{-i pi tf} that the fiber twist by a split time
    ti + tf turns w = c + di by, as a complex array: (-1)^ti cos(pi tf)
    - i (-1)^ti sin(pi tf).  ti may be int64 or Python ints (dtype=object)."""
    ang = math.pi * np.asarray(tf, dtype=float)
    sign = np.where(np.asarray(ti) & 1, -1.0, 1.0)
    unit = np.empty(np.broadcast_shapes(ang.shape, sign.shape), dtype=complex)
    unit.real = sign * np.cos(ang)
    unit.imag = sign * -np.sin(ang)
    return unit


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product matching the SU(2) matrix product convention
    above: pair_mul on the pairs of p and q, broadcast against each other,
    as a C-contiguous (..., 4) float array."""
    p, q = np.broadcast_arrays(quat_pair(p), quat_pair(q))
    out = np.empty(p.shape, dtype=complex)
    pair_mul(*((x[..., 0], x[..., 1]) for x in (p, q, out)), np.empty(out.shape[:-1], dtype=complex))
    return out.view(float)


def quat_inv(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion (its conjugate)."""
    out = np.array(q, dtype=float)
    out[..., 1:] *= -1.0
    return out


def quat_normalize(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(..., 4) quaternions over their norms, the square root of
    ((q0^2 + q1^2) + q2^2) + q3^2 summed left to right over the columns,
    the bits np.sum(q * q, axis=-1) gives, with no (..., 4) product.
    out=q divides q in place."""
    q = np.asarray(q, dtype=float)
    sq = q[..., 0] * q[..., 0]
    for c in range(1, 4):
        sq += q[..., c] * q[..., c]
    return np.divide(q, np.sqrt(sq)[..., None], out=out)


def quat_phi_int(k, q: np.ndarray) -> np.ndarray:
    """Fiber twist by an integer time: identity for even k, (a,b,c,d) ->
    (a,b,-c,-d) for odd k.  Exact, no trigonometry."""
    out = np.array(q, dtype=float)
    out[..., 2:] *= np.where(np.asarray(k) % 2 == 0, 1.0, -1.0)[..., None]
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
    quat_phi_real(tf, quat_phi_int(ti, q)): (z, w) -> (z, w u), u the
    twist_unit (-1)^ti e^{-i pi tf}, in a C-contiguous copy of q.  ti may
    be int64 or Python ints (dtype=object); for tf = 0 the result is
    quat_phi_int(ti, q) exactly."""
    q = quat_pair(q)
    out = q.copy()
    np.multiply(q[..., 1], np.broadcast_to(twist_unit(ti, tf), q.shape[:-1]), out=out[..., 1])
    return out.view(float)


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
    rows = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
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

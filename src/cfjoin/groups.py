"""Exact arithmetic for SU(2), the semidirect product G = R x| SU(2), D6 and Z2.

SU(2) elements are stored as unit quaternions (a, b, c, d).  The associated
matrix is [[z, -conj(w)], [w, conj(z)]] with z = a + bi and w = c + di, and the
quaternion product here is defined so that it matches the matrix product in
that convention (tests verify this against direct 2x2 complex matmuls).

The time-one twist of the semidirect product conjugates the fiber by
diag(e^{i pi t/2}, e^{-i pi t/2}); it has period 2 in t as an automorphism,
which is why the center of G sits over the even integers.  It fixes z and
turns w by e^{-i pi t}, so the point engine applies it in closed form to split
times ti + tf (quat_twist); quat_phi_real, two quaternion products, stays the
general-time form and the oracle for it.  The product and the closed-form
twist are written once, on component rows (quat_mul_rows, quat_twist_rows);
quat_mul and quat_twist are their (..., 4) forms, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "SU2Element",
    "GElement",
    "D6Element",
    "SU2_I",
    "SU2_MINUS_I",
    "SU2_H0",
    "G_IDENTITY",
    "D6_ELEMENTS",
    "su2_mul",
    "su2_inv",
    "su2_dist",
    "su2_from_angle",
    "phi",
    "g_mul",
    "g_inv",
    "g_dist",
    "conj_star",
    "d6_mul",
    "is_central",
    "quat_mul",
    "quat_mul_rows",
    "quat_twist_rows",
    "quat_mul_twisted_rows",
    "quat_inv",
    "quat_normalize",
    "quat_phi_int",
    "quat_phi_real",
    "quat_twist",
    "quat_to_matrix",
    "adjoint_matrix",
]


# ---------------------------------------------------------------------------
# vectorized quaternion kernels.  The product and the closed-form twist are
# written once, on component rows: a quaternion array is its four rows a, b,
# c, d, either a (4, ...) stack or the four columns of a (..., 4) array.
# quat_mul and quat_twist are their (..., 4) forms; the point engine keeps
# its fibers as a (4, ..., n) stack of contiguous rows and steps them with
# quat_mul_twisted_rows.
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


def quat_twist_rows(ti, tf, q):
    """The rows (a, b, c', d') of the fiber twist by a split time ti + tf on
    component rows q: a and b are q's own rows, and w' = c' + d'i is
    (c + di) e^{-i pi tf} (-1)^ti.  ti may be int64 or Python ints
    (dtype=object)."""
    ang = math.pi * np.asarray(tf, dtype=float)
    sign = np.where(np.asarray(ti) & 1, -1.0, 1.0)
    cos = sign * np.cos(ang)
    sin = sign * np.sin(ang)
    a, b, c, d = q
    return a, b, c * cos + d * sin, d * cos - c * sin


def quat_mul_twisted_rows(q, ti, tf, s, out):
    """q * quat_twist(ti, tf, s) on component rows, written into `out`: one
    level's fiber step of the point engine, with q a (4, ..., n) stack of
    fibers and s the (4, n) rows of the level's corrections."""
    return quat_mul_rows(q, quat_twist_rows(ti, tf, s), out)


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
    w' = (c + di) e^{-i pi tf} (-1)^ti (quat_twist_rows).  ti may be int64
    or Python ints (dtype=object); for tf = 0 the result is
    quat_phi_int(ti, q) exactly."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    _, _, out[..., 2], out[..., 3] = quat_twist_rows(ti, tf, _rows(q))
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


def adjoint_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of the conjugation action m -> q m q^{-1} on the
    imaginary part (b, c, d).  Columns are the images of i, j, k."""
    q = np.asarray(q, dtype=float)
    # The product convention here is opposite to Hamilton's, so conjugation by
    # q acts as the classical rotation matrix of the conjugate quaternion.
    a, b, c, d = q[..., 0], -q[..., 1], -q[..., 2], -q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3), dtype=float)
    m[..., 0, 0] = a * a + b * b - c * c - d * d
    m[..., 0, 1] = 2 * (b * c - a * d)
    m[..., 0, 2] = 2 * (b * d + a * c)
    m[..., 1, 0] = 2 * (b * c + a * d)
    m[..., 1, 1] = a * a - b * b + c * c - d * d
    m[..., 1, 2] = 2 * (c * d - a * b)
    m[..., 2, 0] = 2 * (b * d - a * c)
    m[..., 2, 1] = 2 * (c * d + a * b)
    m[..., 2, 2] = a * a - b * b - c * c + d * d
    return m


# ---------------------------------------------------------------------------
# scalar SU(2) and G elements
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
    def from_array(q: np.ndarray, renormalize: bool = True) -> "SU2Element":
        q = np.asarray(q, dtype=float)
        if renormalize:
            q = quat_normalize(q)
        return SU2Element((float(q[0]), float(q[1]), float(q[2]), float(q[3])))

    def array(self) -> np.ndarray:
        return np.array(self.q, dtype=float)

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.array())


SU2_I = SU2Element((1.0, 0.0, 0.0, 0.0))
SU2_MINUS_I = SU2Element((-1.0, 0.0, 0.0, 0.0))
# fiber element with matrix [[0, -1], [1, 0]] (the quaternion j)
SU2_H0 = SU2Element((0.0, 0.0, 1.0, 0.0))


def su2_mul(p: SU2Element, q: SU2Element) -> SU2Element:
    """Product of two SU(2) elements, renormalized to control drift."""
    return SU2Element.from_array(quat_mul(p.array(), q.array()))


def su2_inv(p: SU2Element) -> SU2Element:
    return SU2Element.from_array(quat_inv(p.array()), renormalize=False)


def su2_dist(p: SU2Element, q: SU2Element) -> float:
    """Max componentwise quaternion distance (distinguishes M from -M)."""
    return float(np.max(np.abs(p.array() - q.array())))


def su2_from_angle(t: float) -> SU2Element:
    """Diagonal element diag(e^{2 pi i t}, e^{-2 pi i t}) as a quaternion."""
    return SU2Element((math.cos(2 * math.pi * t), math.sin(2 * math.pi * t), 0.0, 0.0))


def phi(t: float, n: SU2Element) -> SU2Element:
    """Twist automorphism: conjugation by diag(e^{i pi t/2}, e^{-i pi t/2}).

    Integer times take an exact branch (the conjugator is then one of
    1, i, -1, -i), so the period-2 identity holds to machine precision.
    """
    ti = round(t)
    if t == ti:
        return SU2Element.from_array(quat_phi_int(ti, n.array()), renormalize=False)
    return SU2Element.from_array(quat_phi_real(t, n.array()))


@dataclass(frozen=True)
class GElement:
    """Element (t, m) of G with group law (t,M)(s,N) = (t+s, M phi_t(N))."""

    t: float
    m: SU2Element


G_IDENTITY = GElement(0.0, SU2_I)


def g_mul(x: GElement, y: GElement) -> GElement:
    return GElement(x.t + y.t, su2_mul(x.m, phi(x.t, y.m)))


def g_inv(x: GElement) -> GElement:
    return GElement(-x.t, phi(-x.t, su2_inv(x.m)))


def g_dist(x: GElement, y: GElement) -> float:
    return max(abs(x.t - y.t), su2_dist(x.m, y.m))


def conj_star(k: GElement) -> GElement:
    """Conjugation by the time-one translate: (t, M) -> (t, phi_1(M))."""
    return GElement(k.t, phi(1, k.m))


# ---------------------------------------------------------------------------
# D6 (the symmetric group on three letters, smallest non-abelian group)
# ---------------------------------------------------------------------------

_D6_LABELS = ("e", "a", "b", "c", "d", "f")

# Cayley table, row * column.
_D6_TABLE = {
    "e": {"e": "e", "a": "a", "b": "b", "c": "c", "d": "d", "f": "f"},
    "a": {"e": "a", "a": "e", "b": "d", "c": "f", "d": "b", "f": "c"},
    "b": {"e": "b", "a": "f", "b": "e", "c": "d", "d": "c", "f": "a"},
    "c": {"e": "c", "a": "d", "b": "f", "c": "e", "d": "a", "f": "b"},
    "d": {"e": "d", "a": "c", "b": "a", "c": "b", "d": "f", "f": "e"},
    "f": {"e": "f", "a": "b", "b": "c", "c": "a", "d": "e", "f": "d"},
}


@dataclass(frozen=True)
class D6Element:
    label: str

    def __post_init__(self):
        if self.label not in _D6_LABELS:
            raise ValueError(f"unknown D6 label {self.label!r}")


D6_ELEMENTS = tuple(D6Element(s) for s in _D6_LABELS)
D6_IDENTITY = D6_ELEMENTS[0]

# the Cayley table over interned elements, so a product constructs nothing
_D6_BY_LABEL = {g.label: g for g in D6_ELEMENTS}
_D6_PRODUCTS = {
    g: {h: _D6_BY_LABEL[prod] for h, prod in row.items()} for g, row in _D6_TABLE.items()
}


def d6_mul(g: D6Element, h: D6Element) -> D6Element:
    return _D6_PRODUCTS[g.label][h.label]


# ---------------------------------------------------------------------------
# centrality probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralityResult:
    central: bool
    witness: Optional[GElement]


def _haar_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 4))
    return quat_normalize(v)


def is_central(k: GElement, trials: int, rng: np.random.Generator) -> CentralityResult:
    """Probabilistic centrality test: commute with `trials` random elements.

    Time coordinates always commute exactly, so only the fiber is compared,
    at tolerance 1e-10.  Random elements mix integer, half-integer and
    continuous times so that the twist is exercised away from its period.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    times = rng.uniform(-4.0, 4.0, size=trials)
    # make sure some plain time translations are tested as well
    times[::3] = np.round(times[::3] * 2) / 2 + 0.25
    quats = _haar_quaternions(rng, trials)
    quats[1::3] = np.array([1.0, 0.0, 0.0, 0.0])
    kq = k.m.array()
    kt_twist = (
        quat_phi_int(round(k.t), quats)
        if k.t == round(k.t)
        else quat_phi_real(np.full(trials, k.t), quats)
    )
    left = quat_mul(quats, quat_phi_real(times, np.broadcast_to(kq, quats.shape)))
    right = quat_mul(np.broadcast_to(kq, quats.shape), kt_twist)
    bad = np.max(np.abs(left - right), axis=-1) > 1e-10
    if np.any(bad):
        i = int(np.argmax(bad))
        return CentralityResult(False, GElement(float(times[i]), SU2Element.from_array(quats[i])))
    return CentralityResult(True, None)

"""Discrepancy, quasi-random sequences, Haar charts and finite sample sets.

The finite sample sets built here play two roles: a dense per-time-shell
low-discrepancy net used to approximate conditional measures on the slabs
S_n of the semidirect product, and small per-level alphabets from which the
correction maps of the cutting construction draw their values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .groups import quat_normalize

__all__ = [
    "FiniteSampleSet",
    "Alphabet",
    "van_der_corput",
    "halton",
    "star_discrepancy",
    "koksma_hlawka_bound",
    "haar_sample_su2",
    "chart_to_su2_array",
    "su2_to_chart_array",
    "build_sample_set",
    "default_alphabet",
    "build_s_map",
    "SMapResult",
    "DistributionTestError",
    "window_distance",
    "slab_half_width",
]


# ---------------------------------------------------------------------------
# low-discrepancy sequences
# ---------------------------------------------------------------------------

_HALTON_BASES = (2, 3, 5, 7)


def van_der_corput(n: int, base: int = 2) -> np.ndarray:
    """Points 1..n of the base-b radical-inverse sequence.

    One digit of every index per pass, with the float operations of the
    digit-reversal sum inv += digit / base^k in their scalar order, so each
    point is the scalar sum bit for bit."""
    i = np.arange(1, n + 1, dtype=np.int64)
    inv = np.zeros(n)
    denom = 1.0
    while i.any():
        i, digit = np.divmod(i, base)
        denom *= base
        inv += digit / denom
    return inv


def halton(n: int, dim: int) -> np.ndarray:
    """First n points of the Halton sequence in the given dimension.

    Indexing starts at 1 so the all-zero point is never produced (it would sit
    on a chart boundary).
    """
    if dim > len(_HALTON_BASES):
        raise ValueError(f"halton supports dim <= {len(_HALTON_BASES)}")
    cols = [van_der_corput(n, _HALTON_BASES[k]) for k in range(dim)]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------

def star_discrepancy(p, den: int) -> Fraction:
    """Exact sup over anchored intervals [0, beta) of |empirical - length|
    for the points p_i/den in [0, 1], given by a 1-d array of integer
    numerators p: by the sorted closed form
    max_i max(i den - p_(i) n, p_(i) n - (i - 1) den)/(n den), whose
    products stay within n den and so are taken in int64."""
    p, den = np.asarray(p), operator.index(den)
    if p.ndim != 1 or p.dtype.kind not in "iu":
        raise ValueError("star discrepancy takes a 1-d array of integer numerators")
    n = len(p)
    if n == 0:
        raise ValueError("no points")
    if not 0 < n * den < 2**63:
        raise ValueError(f"{n} points over denominator {den}: n * den must lie in (0, 2^63) for int64 products")
    if p.min() < 0 or p.max() > den:
        raise ValueError(f"points must lie in [0, 1]: numerators in [0, {den}]")
    ps = np.sort(p).astype(np.int64) * n
    i_den = np.arange(1, n + 1, dtype=np.int64) * den
    return Fraction(int(np.max(np.maximum(i_den - ps, ps - (i_den - den)))), n * den)


def koksma_hlawka_bound(modulus: Callable[[float], float], d_star, s: int) -> float:
    """Quantitative equidistribution bound for a continuous integrand.

    For a point set with anchored discrepancy d_star and an integrand with
    modulus of continuity M, the integration error is at most
    (1 + 2^{2s-1}) * M(1 / m), m = floor(d_star^{-1/s}).  d_star is taken
    exactly, as the Fraction star_discrepancy returns (a float is read as
    the rational it is), and m = max{m : m^s d_star <= 1} is found in
    integers: a float root rounds below an exact m, as at d_star = 1/93.
    """
    d_star = Fraction(d_star)
    if d_star <= 0:
        raise ValueError("d_star must be positive")
    num, den = min(d_star, Fraction(1)).as_integer_ratio()
    # m^s num <= den iff m^s <= den // num; start from the float root, then step
    bound = den // num
    m = int(bound ** (1.0 / s))
    while m**s > bound:
        m -= 1
    while (m + 1) ** s <= bound:
        m += 1
    return (1 + 2 ** (2 * s - 1)) * modulus(1.0 / m)


# ---------------------------------------------------------------------------
# Haar sampling and the measure-transport chart
# ---------------------------------------------------------------------------

def haar_sample_su2(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-uniform SU(2) elements (normalized 4-d Gaussians) as an (n, 4)
    quaternion array, the draw divided by its norms in place: the bits of
    quat_normalize, with no second (n, 4) array."""
    q = rng.standard_normal((n, 4))
    return quat_normalize(q, out=q)


def chart_to_su2_array(u: np.ndarray) -> np.ndarray:
    """Vectorized chart: open cube (0,1)^3 -> unit quaternions.

    Pushes Lebesgue measure to Haar measure; coordinates are the classical
    double-polar parametrization (u1 splits the (a,b) and (c,d) circles,
    u2 and u3 are the two angles).
    """
    u = np.asarray(u, dtype=float)
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    r1 = np.sqrt(1.0 - u1)
    r2 = np.sqrt(u1)
    out = np.empty(u.shape[:-1] + (4,))
    out[..., 0] = r1 * np.sin(2 * math.pi * u2)
    out[..., 1] = r1 * np.cos(2 * math.pi * u2)
    out[..., 2] = r2 * np.sin(2 * math.pi * u3)
    out[..., 3] = r2 * np.cos(2 * math.pi * u3)
    return out


def su2_to_chart_array(q: np.ndarray) -> np.ndarray:
    """Vectorized chart inverse (defined off the two null circles).  The
    (..., 3) result is a view of three contiguous coordinate rows, so each
    coordinate u[..., i] reads contiguously and no stacked copy is made.

    An angle x = arctan2(.)/(2 pi) in [-1/2, 1/2] is reduced as x - floor(x),
    the bits of np.mod(x, 1.0) (x for x >= 0, the one rounding of x + 1 for
    x < 0, and +0.0 at -0.0) without its fmod and sign fix-ups."""
    q = np.asarray(q, dtype=float)
    a, b, c, d = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    u = np.empty((3,) + q.shape[:-1])
    np.add(c * c, d * d, out=u[0, ...])
    for row, (y, x) in ((u[1, ...], (a, b)), (u[2, ...], (c, d))):
        np.arctan2(y, x, out=row)
        row /= 2 * math.pi
        row -= np.floor(row)
    return np.moveaxis(u, 0, -1)


# ---------------------------------------------------------------------------
# finite sample sets on the slabs S_n
# ---------------------------------------------------------------------------

@dataclass
class FiniteSampleSet:
    """Per-shell low-discrepancy net on S_n = (-K, K] x SU(2).

    The same `count` points are reused in every unit time shell [l, l+1),
    l = -K .. K-1, shifted by the integer l; this keeps the set exactly
    stackable under the integer translations the construction applies.
    Points are stored in factored form (shell offsets u in [0,1) and
    quaternions) so the full set never needs materializing:
    at deeper levels it has millions of virtual elements.
    """

    n: int
    half_width: int  # K: time support is (-K, K]
    u_time: np.ndarray  # (count,) fractional time offsets in [0, 1)
    quats: np.ndarray  # (count, 4)

    @property
    def count(self) -> int:
        return len(self.u_time)

    @property
    def size(self) -> int:
        return 2 * self.half_width * self.count


def slab_half_width(n: int, a_tilde_prev: int) -> int:
    """Half-width K of the slab S_n = (-(2n-1) * a_tilde_{n-1}, ...] x SU(2)."""
    return (2 * n - 1) * a_tilde_prev


def build_sample_set(n: int, a_tilde_prev: int, count: int) -> FiniteSampleSet:
    """Per-shell net of `count` points of the 4-d Halton sequence on S_n: the
    first coordinate is the time offset, the other three go through the chart.

    The sequence is fixed (no scrambling) so rebuilt sets are identical.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = halton(count, 4)
    return FiniteSampleSet(
        n=n,
        half_width=slab_half_width(n, a_tilde_prev),
        u_time=pts[:, 0],
        quats=chart_to_su2_array(pts[:, 1:]),
    )


# ---------------------------------------------------------------------------
# correction-map alphabets and the maps s_n : H_n -> alphabet
# ---------------------------------------------------------------------------

@dataclass
class Alphabet:
    """Small finite subset of a slab S_n, in factored (shell, frac, quat) form.

    Element j is (shells[j] + u[j], quats[j]); the identity (0, I) is always
    present so the boundary pinning of the correction maps stays inside the
    alphabet.
    """

    n: int
    shells: np.ndarray  # (m,) int64
    u: np.ndarray  # (m,) float in [0, 1)
    quats: np.ndarray  # (m, 4)
    identity_index: int

    @property
    def size(self) -> int:
        return len(self.shells)


def default_alphabet(n: int, half_width: int, size: int = 8) -> Alphabet:
    """Identity plus size-1 Halton points on shells spread across the slab."""
    shells = [0]
    u = [0.0]
    quats = [np.array([1.0, 0.0, 0.0, 0.0])]
    if size > 1:
        pts = halton(size - 1, 4)
        # size - 1 shells from -K to K - 1 at exact rational positions,
        # rounded half to even: a float step is off by whole shells past 2^53
        step = Fraction(2 * half_width - 1, max(size - 2, 1))
        for j in range(size - 1):
            shells.append(round(-half_width + j * step))
            u.append(float(pts[j, 0]))
            quats.append(chart_to_su2_array(pts[j, 1:]))
    return Alphabet(
        n=n,
        shells=np.array(shells, dtype=np.int64),
        u=np.array(u, dtype=float),
        quats=np.stack(quats),
        identity_index=0,
    )


class DistributionTestError(RuntimeError):
    """Raised when the pair-distribution check keeps failing after retries."""

    def __init__(self, n: int, distance: float, tolerance: float, retries: int):
        super().__init__(
            f"distribution test failed at level {n}: pair l1 distance "
            f"{distance:.4f} >= {tolerance:.4f} after {retries} retries"
        )


@dataclass
class SMapResult:
    """A correction map on H_n = {|h| < r_n}, stored by alphabet index.

    values[j] is the alphabet index assigned to h = j - (r_n - 1); the two
    boundary shifts are pinned to the identity's index.
    """

    n: int
    r: int
    alphabet: Alphabet
    values: np.ndarray  # (2r-1,) int indices into the alphabet
    pair_distance: float
    triple_distance: float
    tolerance: float
    attempts: int


def window_distance(values: np.ndarray, alphabet_size: int, width: int) -> float:
    """L1 distance between the distribution of the sliding windows of
    `width` consecutive values and the product of uniform laws on the
    alphabet; each window is coded as code * alphabet_size + v, value by
    value, and the codes are counted by one bincount."""
    m = len(values) - width + 1
    codes = values[:m]
    for k in range(1, width):
        codes = codes * alphabet_size + values[k:k + m]
    counts = np.bincount(codes, minlength=alphabet_size**width)
    return float(np.sum(np.abs(counts / m - 1.0 / alphabet_size**width)))


def build_s_map(
    n: int,
    r: int,
    alphabet: Alphabet,
    eps: float,
    rng: np.random.Generator,
    max_retries: int = 5000,
) -> SMapResult:
    """Draw s_n i.i.d.-uniform over the alphabet, pin the boundary values to
    the identity, and retry until the sliding-pair distribution over the
    maximal window is eps-close in l1 to the product of uniform laws.

    The check is gated only when an admissible window exists at all, i.e.
    a width delta with r/n^2 <= delta <= r - 2 (at n = 1, and for very small
    r, there is none); triple distances are always measured but never gated
    (at desk-scale r_n an i.i.d. draw cannot meet eps on the cubed alphabet).
    """
    size = 2 * r - 1
    m = alphabet.size
    gate = n >= 2 and size >= 3 and m > 1 and (r - 2) * n * n >= r
    attempts = 0
    best = math.inf
    while True:
        attempts += 1
        values = rng.integers(0, m, size=size)
        values[0] = alphabet.identity_index
        values[-1] = alphabet.identity_index
        pair = window_distance(values, m, 2) if size >= 2 else 0.0
        if not gate or pair < eps:
            triple = window_distance(values, m, 3) if size >= 3 else 0.0
            return SMapResult(
                n=n,
                r=r,
                alphabet=alphabet,
                values=values,
                pair_distance=pair,
                triple_distance=triple,
                tolerance=eps,
                attempts=attempts,
            )
        best = min(best, pair)
        if attempts >= max_retries:
            raise DistributionTestError(n, best, eps, attempts)

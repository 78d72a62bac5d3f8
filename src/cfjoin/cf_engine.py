"""The cutting construction for G = R x| SU(2): schedules, levels, cylinders
and the action on finite truncations.

Time coordinates blow up fast (the level-7 base interval half-width exceeds
1e20 under the default schedule), so times are carried in split form: an
exact integer part plus a float fraction in [0, 1).  Every point is a row
of a batch (ti, tf, q, tails) at some level: integer times, fractions, unit
quaternion fibers, and the shift indices that embedding consumes level by
level, as sample_point_batch draws them.  One batch engine moves points:
embed_batch and peel_batch run a single arithmetic path on int64 times
while magnitudes allow it and on Python-int object arrays above that
(time_lane makes that choice).  Both take q=None for time-only work (a
central time translate against full-fiber sets): the SU(2) fiber is then
neither moved nor returned, and times, validity and shift indices are
exactly those of the fiber path.  act applies a group element to a batch
at one level.  Exact set checks use Fractions built from the (exact)
floats, or, for the stacking conditions, integer parts and fractions in
[0, 1) compared as pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .groups import GElement, quat_inv, quat_mul, quat_normalize, quat_twist
from . import equidist
from .equidist import SMapResult, default_alphabet

__all__ = [
    "CFParams",
    "CFLevel",
    "CFLevels",
    "CylinderSet",
    "Block",
    "CFValidationReport",
    "ConditionResult",
    "LevelTooDeepError",
    "OrbitLeftTruncationError",
    "InexactTranslateError",
    "InexactFractionError",
    "CorrectionFractionError",
    "default_params",
    "derive_sequences",
    "level_ratio",
    "build_levels",
    "validate_cf",
    "mu_total_normalizer",
    "cylinder_measure",
    "full_block",
    "act",
    "split_translate",
    "time_lane",
    "sample_point_batch",
    "embed_batch",
    "peel_batch",
    "level_dump_rows",
    "substream",
]

_INT64_SAFE = 2**62
_FLOAT_EXACT = 2**53


class LevelTooDeepError(OverflowError):
    pass


class OrbitLeftTruncationError(RuntimeError):
    pass


class InexactTranslateError(ValueError):
    pass


class InexactFractionError(ValueError):
    """A split time's fraction would be rounded by the correction it meets."""


class CorrectionFractionError(ValueError):
    """A correction time's fractional part lies outside [0, 1)."""


def substream(seed: int, label: str) -> np.random.Generator:
    """Deterministic named substream of a root seed."""
    import zlib

    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(label.encode())]))


# ---------------------------------------------------------------------------
# parameters and integer sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CFParams:
    """Schedules driving the construction.

    r_schedule(n) must be increasing with n^4/r_n eventually decreasing to 0;
    the default max(100, n^5) keeps level data tractable through level ~8.
    """

    r_kind: str = "max_power"
    r_floor: int = 100
    r_power: int = 5
    r_values: tuple[int, ...] = ()
    eps_kind: str = "harmonic"  # eps_n = 1/(n+1)
    max_level: int = 6
    alphabet_size: int = 8
    sample_count: int = 64

    def r(self, n: int) -> int:
        if self.r_kind == "max_power":
            return max(self.r_floor, n**self.r_power)
        if self.r_kind == "explicit":
            if n >= len(self.r_values):
                raise ValueError(f"explicit r_schedule has no entry for n={n}")
            return int(self.r_values[n])
        if self.r_kind == "constant":
            return self.r_floor
        raise ValueError(f"unknown r_kind {self.r_kind!r}")

    def eps(self, n: int) -> float:
        if self.eps_kind == "harmonic":
            return 1.0 / (n + 1)
        raise ValueError(f"unknown eps_kind {self.eps_kind!r}")

    def to_json(self) -> dict:
        return {
            "r_schedule": {
                "kind": self.r_kind,
                "floor": self.r_floor,
                "power": self.r_power,
                "values": list(self.r_values),
            },
            "eps_schedule": {"kind": self.eps_kind},
            "max_level": self.max_level,
            "alphabet_size": self.alphabet_size,
            "sample_count": self.sample_count,
        }

    @staticmethod
    def from_json(data: dict) -> "CFParams":
        rs = data.get("r_schedule", {})
        return CFParams(
            r_kind=rs.get("kind", "max_power"),
            r_floor=int(rs.get("floor", 100)),
            r_power=int(rs.get("power", 5)),
            r_values=tuple(rs.get("values", ())),
            eps_kind=data.get("eps_schedule", {}).get("kind", "harmonic"),
            max_level=int(data.get("max_level", 6)),
            alphabet_size=int(data.get("alphabet_size", 8)),
            sample_count=int(data.get("sample_count", 64)),
        )


def default_params(max_level: int = 6, **kw) -> CFParams:
    return CFParams(max_level=max_level, **kw)


def derive_sequences(params: CFParams, upto: int) -> list[tuple[int, int]]:
    """Exact integer pairs (a_n, a~_n) for n = 0..upto.

    a_0 = a~_0 = 1, a_{n+1} = a~_n (2 r_n - 1), a~_{n+1} = a_{n+1} + (2n+1) a~_n.
    """
    a, at = 1, 1
    out = [(a, at)]
    for n in range(upto):
        a_next = at * (2 * params.r(n) - 1)
        at_next = a_next + (2 * n + 1) * at
        if at_next > 2**512:
            raise LevelTooDeepError("level too deep")
        out.append((a_next, at_next))
        a, at = a_next, at_next
    return out


def level_ratio(seq: Sequence[tuple[int, int]], n: int) -> Fraction:
    """Exact ratio lambda(F_{n+1}) / (lambda(F_n) #C_{n+1}) = a~_n / a_n."""
    a, at = seq[n]
    return Fraction(at, a)


def mu_total_normalizer(
    params: CFParams, depth: int, horizon: Optional[int] = None
) -> tuple[float, float]:
    """Mass of the level-0 base set when the total measure is normalized to 1.

    Returns (mu_X0, tail_bound): mu_X0 = 1 / prod_{n <= depth} (a~_n / a_n)
    with an explicit bound on the neglected tail of the product, derived from
    log(1+x) <= x and the n^4/r_n monotonicity of admissible schedules.
    """
    # ratio_n = a~_n / a_n = 1 + (2n-1)/(2 r_{n-1} - 1) for n >= 1, ratio_0 = 1
    log_prod = 0.0
    for n in range(1, depth + 1):
        log_prod += math.log1p((2 * n - 1) / (2 * params.r(n - 1) - 1))
    mu0 = math.exp(-log_prod)

    if horizon is None:
        horizon = max(4 * depth, 400)
    tail = 0.0
    xs = []
    for n in range(depth + 1, horizon + 1):
        x = (2 * n - 1) / (2 * params.r(n - 1) - 1)
        xs.append(x)
        tail += x
    if len(xs) >= 2 and xs[-1] > xs[0] and xs[-1] > 1e-9:
        raise ValueError("divergent product: ratio excess is not decaying")
    r_m = params.r(horizon)
    remainder = (horizon**4 / r_m) * 2.0 / (horizon - 1) ** 2
    tail_bound = mu0 * (tail + remainder)
    if tail + remainder > 1.0:
        raise ValueError("divergent product: tail estimate exceeds 1")
    return mu0, tail_bound


# ---------------------------------------------------------------------------
# level data
# ---------------------------------------------------------------------------

@dataclass
class CFLevel:
    """Data of one level, including the transition into the next level.

    c(h) = s(h) * (2 h a~_n, I) for h in H_n = {|h| < r_n}; the arrays below
    are indexed by j = h + (r_n - 1) and spell out the correction s(h) in
    factored time form (integer shell + fraction) plus its fiber.
    """

    n: int
    a: int
    a_tilde: int
    r: int
    s_map: Optional[SMapResult]  # None at level 0 (identity corrections)
    s_shell: np.ndarray  # (2r-1,) int64 integer parts of the correction times
    s_u: np.ndarray  # (2r-1,) float fractional parts
    s_quat: np.ndarray  # (2r-1, 4)
    s_quat_inv: np.ndarray  # (2r-1, 4)

    @property
    def card_c_next(self) -> int:
        return 2 * self.r - 1

    def h_range(self) -> range:
        return range(-(self.r - 1), self.r)

    def correction_time_fraction(self, h: int) -> Fraction:
        """Exact time of c(h) as a Fraction (floats are exact binary rationals)."""
        j = h + (self.r - 1)
        return (
            Fraction(int(self.s_shell[j]))
            + Fraction(float(self.s_u[j]))
            + 2 * h * self.a_tilde
        )


@dataclass
class CFLevels:
    """Built construction: sequences, correction maps, normalization."""

    params: CFParams
    seed: int
    levels: list[CFLevel]
    seq: list[tuple[int, int]]  # (a_n, a~_n) for n = 0..max_level+1
    mu_x0: float
    mu_tail_bound: float

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def a(self, n: int) -> int:
        return self.seq[n][0]

    def a_tilde(self, n: int) -> int:
        return self.seq[n][1]

    def mu_xn(self, n: int) -> float:
        prod = Fraction(1)
        for k in range(n):
            prod *= level_ratio(self.seq, k)
        return self.mu_x0 * float(prod)

    def level(self, n: int) -> CFLevel:
        return self.levels[n]

    def to_json(self) -> dict:
        return {**self.params.to_json(), "seed": self.seed}


def _identity_level(n: int, a: int, a_tilde: int, r: int) -> CFLevel:
    size = 2 * r - 1
    quats = np.zeros((size, 4))
    quats[:, 0] = 1.0
    return CFLevel(
        n=n,
        a=a,
        a_tilde=a_tilde,
        r=r,
        s_map=None,
        s_shell=np.zeros(size, dtype=np.int64),
        s_u=np.zeros(size),
        s_quat=quats,
        s_quat_inv=quats.copy(),
    )


def build_levels(
    params: Optional[CFParams] = None,
    seed: int = 0,
    normalizer_depth: int = 120,
    s_map_retries: int = 5000,
) -> CFLevels:
    """Build level data with correction maps for levels 1..max_level.

    Level 0 gets identity corrections (its slab is degenerate, and the level-0
    tiling is exact without them); correction maps at higher levels are drawn
    from per-level substreams of `seed` via the retry protocol.
    """
    if params is None:
        params = default_params()
    seq = derive_sequences(params, params.max_level + 1)
    levels = [_identity_level(0, 1, 1, params.r(0))]
    for n in range(1, params.max_level + 1):
        a, at = seq[n]
        r = params.r(n)
        half_width = (2 * n - 1) * seq[n - 1][1]
        alphabet = default_alphabet(n, half_width, params.alphabet_size)
        s_map = equidist.build_s_map(
            n,
            r,
            alphabet,
            params.eps(n),
            substream(seed, f"s-map-{n}"),
            max_retries=s_map_retries,
        )
        idx = s_map.values
        levels.append(
            CFLevel(
                n=n,
                a=a,
                a_tilde=at,
                r=r,
                s_map=s_map,
                s_shell=alphabet.shells[idx].astype(np.int64),
                s_u=alphabet.u[idx],
                s_quat=alphabet.quats[idx],
                s_quat_inv=quat_inv(alphabet.quats[idx]),
            )
        )
    try:
        mu0, tail = mu_total_normalizer(params, normalizer_depth)
    except ValueError:
        # divergent schedules still yield level data; validate_cf reports the
        # finiteness failure and measure-dependent operations will surface nan
        mu0, tail = float("nan"), float("inf")
    return CFLevels(
        params=params, seed=seed, levels=levels, seq=seq, mu_x0=mu0, mu_tail_bound=tail
    )


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

@dataclass
class ConditionResult:
    name: str
    passed: bool
    detail: str


@dataclass
class CFValidationReport:
    conditions: list[ConditionResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def as_dict(self) -> dict:
        return {
            c.name: {"passed": c.passed, "detail": c.detail} for c in self.conditions
        }


def validate_cf(levels: CFLevels, finiteness_threshold: float = 1e-6) -> CFValidationReport:
    """Exact checks of the stacking conditions at every instantiated level.

    Containment and disjointness of the translated base sets are exact
    integer tests: the interval F_n c(h) = (lo, lo + 2 a_n] has
    lo = lo_int + u with lo_int an integer and u = s_u in [0, 1), so its
    ends compare with integers through lo_int alone (and u == 0), and with
    each other as (integer part, u) pairs in lexicographic order.  A
    correction fraction outside [0, 1) raises CorrectionFractionError.  The
    base-interval tiling is pure integer arithmetic; finiteness is the
    ratio-excess series with an explicit tail.
    """
    out: list[ConditionResult] = []
    params = levels.params

    # choice-set size > 1
    ok = all(lv.card_c_next > 1 for lv in levels.levels)
    out.append(
        ConditionResult(
            "w2-choice-sets",
            ok,
            f"#C_(n+1) = 2 r_n - 1 over levels 0..{levels.max_level}",
        )
    )

    # containment and disjointness of F_n c(h) inside F_(n+1)
    containment_ok = True
    disjoint_ok = True
    worst = ""
    for lv in levels.levels:
        if not np.all((lv.s_u >= 0.0) & (lv.s_u < 1.0)):
            raise CorrectionFractionError(
                f"level {lv.n} has a correction fraction outside [0, 1)"
            )
        a_next = levels.a(lv.n + 1)
        width = 2 * lv.a
        # (lo_int, u) of lo = t_c - a_n, with t_c = s_shell + u + 2 h a~_n
        los = [
            (s + 2 * h * lv.a_tilde - lv.a, u)
            for h, s, u in zip(lv.h_range(), lv.s_shell.tolist(), lv.s_u.tolist())
        ]
        for h, (lo_int, u) in zip(lv.h_range(), los):
            # (lo, hi] subset (-a_next, a_next] iff lo >= -a_next, hi <= a_next
            hi_int = lo_int + width
            if not (lo_int >= -a_next and (hi_int < a_next or (hi_int == a_next and u == 0.0))):
                containment_ok = False
                worst = f"level {lv.n}, h={h}"
        los.sort()
        for (lo_int, u), lo2 in zip(los, los[1:]):
            if lo2 < (lo_int + width, u):
                disjoint_ok = False
                worst = f"level {lv.n} overlap"
    out.append(ConditionResult("w3-containment", containment_ok, worst or "exact"))
    out.append(ConditionResult("w4-disjointness", disjoint_ok, worst or "exact"))

    # exact tiling of the next base interval by the widened-shell translates
    tiling_ok = True
    for lv in levels.levels:
        a_next = levels.a(lv.n + 1)
        cover = (2 * lv.r - 1) * lv.a_tilde
        if cover != a_next:
            tiling_ok = False
    out.append(
        ConditionResult(
            "tiling-6-9",
            tiling_ok,
            "union of 2r-1 shells of half-width a~_n equals the level n+1 interval",
        )
    )

    # Folner growth: ratio excess eventually decreasing to 0, and n^4/r_n
    # eventually nonincreasing (both peak while r_n sits at a flat floor and
    # decay once the power law takes over; probe well past the built range)
    horizon = max(2 * levels.max_level + 2, 40)
    excesses = [(2 * n - 1) / (2 * params.r(n - 1) - 1) for n in range(1, horizon)]
    eq_gr = [n**4 / params.r(n) for n in range(1, horizon)]

    def _eventually_decaying(xs: list[float]) -> bool:
        peak = max(range(len(xs)), key=xs.__getitem__)
        tail_mono = all(x >= y - 1e-12 for x, y in zip(xs[peak:], xs[peak:][1:]))
        return tail_mono and xs[-1] < 0.5 * max(xs[0], xs[peak] * 0.2 + xs[0])

    folner_ok = _eventually_decaying(excesses)
    gr_ok = _eventually_decaying(eq_gr)
    out.append(
        ConditionResult(
            "w-fo-folner-ratios",
            folner_ok,
            f"ratio excesses head {['%.3g' % e for e in excesses[:6]]}",
        )
    )
    out.append(
        ConditionResult("growth-n4-over-r", gr_ok, f"n^4/r_n head {['%.3g' % e for e in eq_gr[:6]]}")
    )

    # finiteness of the total measure
    try:
        _, tail = mu_total_normalizer(params, depth=120)
        fin_ok = tail < finiteness_threshold
        detail = f"tail bound {tail:.2e}"
    except ValueError as exc:
        fin_ok = False
        detail = str(exc)
    out.append(ConditionResult("finiteness-eq-9", fin_ok, detail))

    return CFValidationReport(out)


# ---------------------------------------------------------------------------
# the integer lane and the group action
# ---------------------------------------------------------------------------

def time_lane(bound: int):
    """Array dtype for integer times of magnitude below `bound`: int64 while
    bound < 2^62, which leaves room for one more step of the same size, and
    Python ints (object) from there on."""
    return np.int64 if bound < _INT64_SAFE else object


def _in_base(ti, tf, a: int):
    """Mask of the times ti + tf in the half-open base interval (-a, a]."""
    return ((ti > -a) | ((ti == -a) & (tf > 0.0))) & ((ti < a) | ((ti == a) & (tf == 0.0)))


def split_translate(t: float) -> tuple[int, float]:
    """Split a float time translate into (floor, fraction in [0, 1)).

    Raises InexactTranslateError from 2^53 on, where a float no longer
    carries every integer translate exactly.
    """
    if abs(t) >= _FLOAT_EXACT:
        raise InexactTranslateError(
            f"time {t!r} is at or above 2^53, where a float no longer carries "
            "an exact integer translate; add an integer translate to the "
            "batch's integer times ti instead"
        )
    gi = math.floor(t)
    return gi, t - gi


def act(g: GElement, ti, tf, q):
    """Left action of g = (t, m) on a batch of points at one level.

    The split translate (gi, gf) of t is added to the times, the fraction's
    carry going into ti, and each fiber becomes m * phi_t(q), one quat_mul
    and the closed-form quat_twist.  The level does not change: embed the
    batch high enough first, since a lane moved out of the level's base
    comes back invalid from peel_batch.  ti may be int64 or Python ints
    (dtype=object).  Returns (ti, tf, q).
    """
    gi, gf = split_translate(g.t)
    ti = ti + gi
    tf = tf + gf
    carry = tf >= 1.0
    tf = np.where(carry, tf - 1.0, tf)
    ti = ti + carry.astype(ti.dtype)
    return ti, tf, quat_mul(g.m.array(), quat_twist(gi, gf, q))


# ---------------------------------------------------------------------------
# vectorized batches
# ---------------------------------------------------------------------------

def sample_point_batch(
    levels: CFLevels,
    n: int,
    truncation: int,
    rng: np.random.Generator,
    level: int = 1,
    h_minus: bool = False,
):
    """Arrays (ti, tf, q, tails) of n points at the given base level.

    With h_minus the tail indices are rejected into the slightly shrunken
    ranges |h_k| < (1 - k^{-2}) r_k used by generic-point selection.
    """
    a = levels.a(level)
    t = rng.uniform(-float(a), float(a), size=n)
    ti = np.floor(t)
    tf = t - ti
    ti = ti.astype(np.int64)
    q = quat_normalize(rng.standard_normal((n, 4)))
    ks = list(range(level, min(level + truncation, levels.max_level + 1)))
    tails = np.zeros((n, len(ks)), dtype=np.int64)
    for col, k in enumerate(ks):
        r = levels.level(k).r
        bound = r - 1
        if h_minus:
            bound = min(bound, math.floor((1 - 1.0 / k**2) * r))
            if bound < 1:
                bound = 1
        tails[:, col] = rng.integers(-bound, bound + 1, size=n)
    return ti, tf, q, tails


def _check_depth(levels: CFLevels, *ns: int) -> None:
    top = levels.max_level + 1
    for n in ns:
        if n > top:
            raise LevelTooDeepError(f"level {n} is above the deepest built level {top}")


def embed_batch(levels: CFLevels, ti, tf, q, tails, from_level: int, to_level: int):
    """Vectorized embedding of a batch from from_level up to to_level.

    tails columns are consumed in order; the integer times become Python ints
    (an object array) at the first level whose magnitudes no longer fit int64
    safely, and every step below runs unchanged on either dtype.  Each level
    multiplies the fiber by the shift element twisted by the current time,
    one quat_mul and the closed-form quat_twist.
    Returns (ti, tf, q) at to_level.  With q None the fiber is neither moved
    nor returned (None in its place); times are the same either way.
    """
    _check_depth(levels, from_level, to_level)
    if tails.shape[1] < to_level - from_level:
        raise OrbitLeftTruncationError(
            f"orbit left truncation at level {from_level + tails.shape[1]}: "
            "no tail index available"
        )
    ti = np.array(ti, copy=True)
    tf = np.array(tf, dtype=float, copy=True)
    q = None if q is None else np.array(q, dtype=float, copy=True)
    for col, k in enumerate(range(from_level, to_level)):
        lv = levels.level(k)
        h = tails[:, col].astype(np.int64)
        j = h + (lv.r - 1)
        # fiber twist by the current time, before the time moves
        if q is not None:
            q = quat_mul(q, quat_twist(ti, tf, lv.s_quat[j]))
        step = 2 * lv.a_tilde
        if time_lane(levels.a(k + 1) + step) is object:
            ti = ti.astype(object)
        ti = ti + h.astype(ti.dtype) * step + lv.s_shell[j].astype(ti.dtype)
        s_u = lv.s_u[j]
        moved = tf + s_u
        lost = moved - s_u != tf
        if lost.any():
            i = int(np.argmax(lost))
            raise InexactFractionError(
                f"fraction {float(tf[i])!r} of lane {i} is lost below one ulp of "
                f"the level-{k} correction {float(s_u[i])!r}"
            )
        tf = moved
        carry = tf >= 1.0
        tf = np.where(carry, tf - 1.0, tf)
        ti = ti + carry.astype(ti.dtype)
    return ti, tf, q


def peel_batch(levels: CFLevels, ti, tf, q, from_level: int, to_level: int):
    """Vectorized peeling of a batch down to to_level.

    Returns (valid, ti, tf, q, hs): lanes where the point has no
    representation at to_level are masked out of `valid` (their coordinate
    values are unspecified); hs[:, c] is the recovered shift index at level
    to_level + c.  Python-int times return to int64 at the first level where
    they fit.  Each level multiplies the fiber by the inverse shift element
    twisted by the peeled time, one quat_mul and the closed-form quat_twist.
    With q None the fiber is neither moved nor returned (None in its place);
    valid, times and hs are the same either way.
    """
    _check_depth(levels, from_level, to_level)
    ti = np.array(ti, copy=True)
    tf = np.array(tf, dtype=float, copy=True)
    q = None if q is None else np.array(q, dtype=float, copy=True)
    n = len(tf)
    valid = np.ones(n, dtype=bool)
    hs = np.zeros((n, from_level - to_level), dtype=np.int64)
    for k in range(from_level - 1, to_level - 1, -1):
        lv = levels.level(k)
        two = 2 * lv.a_tilde
        shifted = ti + lv.a_tilde
        q0 = shifted // two
        on_edge = (shifted - q0 * two == 0) & (tf == 0.0)
        h = (q0 - on_edge.astype(ti.dtype)).astype(np.int64)
        ok_h = np.abs(h) <= lv.r - 1
        j = np.clip(h + (lv.r - 1), 0, 2 * lv.r - 2)
        ti = ti - h.astype(ti.dtype) * two - lv.s_shell[j].astype(ti.dtype)
        tf = tf - lv.s_u[j]
        borrow = tf < 0.0
        tf = np.where(borrow, tf + 1.0, tf)
        # a borrowed fraction can round up to 1.0; the max allocates no mask
        if tf.max(initial=0.0) == 1.0:
            lost = np.flatnonzero((tf == 1.0) & valid & ok_h)
            if len(lost):
                raise InexactFractionError(
                    f"fraction of lane {lost[0]} rounds up to 1.0 when it borrows past "
                    f"the level-{k} correction {float(lv.s_u[j[lost[0]]])!r}"
                )
        ti = ti - borrow.astype(ti.dtype)
        if ti.dtype == object and time_lane(levels.a(k) + two) is np.int64:
            ti = np.where(valid & ok_h, ti, 0).astype(np.int64)
        ok_t = _in_base(ti, tf, lv.a)
        if q is not None:
            q = quat_mul(q, quat_twist(ti, tf, lv.s_quat_inv[j]))
        valid &= ok_h & ok_t
        hs[:, k - to_level] = h
    return valid, ti, tf, q, hs


# ---------------------------------------------------------------------------
# cylinder sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """One block of a cylinder base: the half-open time interval (lo, hi]
    crossed with all of SU(2)."""

    lo: Fraction
    hi: Fraction

    def length(self) -> Fraction:
        return self.hi - self.lo


@dataclass
class CylinderSet:
    """Union of disjoint blocks inside the level-n base set."""

    level: int
    blocks: list[Block]

    def validate(self, levels: CFLevels) -> None:
        a = levels.a(self.level)
        ivs = sorted((b.lo, b.hi) for b in self.blocks)
        for lo, hi in ivs:
            if lo < -a or hi > a or hi <= lo:
                raise ValueError(f"block ({lo}, {hi}] outside base interval +-{a}")
        for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
            if lo2 < hi1:
                raise ValueError("blocks overlap in time")

    def total_length(self) -> Fraction:
        return sum((b.length() for b in self.blocks), Fraction(0))


def full_block(lo, hi) -> Block:
    return Block(Fraction(lo), Fraction(hi))


def cylinder_measure(c: CylinderSet, levels: CFLevels) -> float:
    """Measure mu([A]_n) = lambda(A)/lambda(F_n) * mu(X_n) of a cylinder;
    the time part is exact rational arithmetic."""
    return float(c.total_length() / (2 * levels.a(c.level))) * levels.mu_xn(c.level)


def level_dump_rows(levels: CFLevels) -> list[dict]:
    """Rows for the level dump CSV with header n,a,a_tilde,card_C,ratio."""
    rows = []
    for n in range(levels.max_level + 1):
        a, at = levels.seq[n]
        card = 2 * levels.params.r(n - 1) - 1 if n >= 1 else 1
        rows.append(
            {
                "n": n,
                "a": a,
                "a_tilde": at,
                "card_C": card,
                "ratio": float(Fraction(at, a)),
            }
        )
    return rows

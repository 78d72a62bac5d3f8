"""The cutting construction for G = R x| SU(2): schedules, levels, cylinders
and the action on finite truncations.

Time coordinates blow up fast (the level-7 base interval half-width exceeds
1e20 under the default schedule), so times are carried in split form: an
exact integer part plus a float fraction in [0, 1).  Every point is a row
of a batch (ti, tf, q, tails) at some level: integer times, fractions, unit
quaternion fibers, and the shift indices that embedding consumes level by
level, as sample_point_batch draws them.  One batch engine moves points:
embed_batch and peel_batch run a single arithmetic path per level.  The
top level of an embedding is kept in mixed radix, t = hi * 2 a~_k + lo
with hi the last shift index h_k (a RadixTimes pair).  Its low digit is a
level-k time plus one correction, so it stays int64 at the first level
whose times pass 2^62 (level 7 of the default build), and translate, which
moves the points of weakmix and of the joining windows, adds an integer
time translate to the digits without forming the big time.  On deeper
builds the times past that level, and the low digit of a top above them,
fall back to Python-int object arrays (one radix digit, not one per
overflowing level); _lane is the one place that picks int64 or object.
At the public boundary times are one array: embed_batch joins the pair
unless asked for it, and peel_batch takes either form.  Both take q=None for
time-only work (a central time translate against full-fiber sets): the
SU(2) fiber is then neither moved nor returned, and times, validity and
shift indices are exactly those of the fiber path.  act applies a group
element to a batch at one level.  Exact set checks use Fractions built
from the (exact) floats, or, for the stacking conditions, integer parts
and fractions in [0, 1) compared as pairs.

Inside embed_batch and peel_batch a batch's fibers are component-major, a
(4, ..., n) stack of contiguous rows, as are the level tables s_quat and
s_quat_inv, (4, 2r - 1); each level twists and multiplies them with one
kernel, groups.quat_mul_twisted_rows.  At the public boundary fibers stay
(..., n, 4), returned as views of those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .groups import GElement, quat_inv, quat_mul, quat_mul_twisted_rows, quat_normalize, quat_twist
from . import equidist
from .equidist import SMapResult, default_alphabet

__all__ = [
    "CFParams",
    "CFLevel",
    "CFLevels",
    "LevelTooDeepError",
    "DivergentScheduleError",
    "OrbitLeftTruncationError",
    "InexactTranslateError",
    "InexactFractionError",
    "CorrectionFractionError",
    "UnknownConfigKeyError",
    "check_config_keys",
    "config_int",
    "derive_sequences",
    "level_ratio",
    "check_level_depth",
    "build_levels",
    "validate_cf",
    "growth_conditions",
    "mu_total_normalizer",
    "cylinder_measure",
    "act",
    "split_translate",
    "RadixTimes",
    "sample_point_batch",
    "embed_batch",
    "peel_batch",
    "translate",
    "level_dump_rows",
    "substream",
    "ROW_BLOCK",
    "row_blocks",
]

_INT64_SAFE = 2**62
_FLOAT_EXACT = 2**53
# product terms of the measure normalizer taken exactly; the rest is bounded
_NORMALIZER_DEPTH = 120
# rows per block of the batch passes whose rows are reduced as they go (the
# joining tables, the sample-sets fiber test), so that a pass holds a few MB
# of temporaries whatever its length
ROW_BLOCK = 2**14


class LevelTooDeepError(OverflowError):
    pass


class DivergentScheduleError(ValueError):
    """The r-schedule's level ratios have an infinite product, so the
    construction carries no finite measure to normalize."""


class OrbitLeftTruncationError(RuntimeError):
    pass


class InexactTranslateError(ValueError):
    pass


class InexactFractionError(ValueError):
    """A split time's fraction would be rounded by the correction it meets."""


class CorrectionFractionError(ValueError):
    """A correction time's fractional part lies outside [0, 1)."""


class UnknownConfigKeyError(ValueError):
    """A config sets a key that no setting reads: a misspelt or retired one."""


def substream(seed: int, label: str) -> np.random.Generator:
    """Deterministic named substream of a root seed."""
    import zlib

    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(label.encode())]))


# ---------------------------------------------------------------------------
# parameters and integer sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CFParams:
    """Schedules driving the construction, and every rule a construction
    obeys, whether built in code or read from a config.

    r_n = max(floor, n^p) with the exponent p = power, or 0 for r_kind
    "constant".  The growth conditions depend on p alone (the floor only
    delays them): (2n - 1)/(2 r_(n-1) - 1) -> 0 iff p >= 2, n^4/r_n -> 0
    iff p >= 5, and the level ratios have a finite product (eq. 9) iff
    p >= 3.  The default max(100, n^5) meets all three and keeps level
    data tractable through level ~8.  Each integer field goes through
    config_int.
    alphabet_size and r_floor are at least 1, the smallest values that
    build: alphabet size 0 has no correction to draw, and floor 0 makes
    r_0 = 0 and H_0 a set of 2 r_0 - 1 = -1 shifts.  A floor of 1 builds
    with alphabet sizes 1 to 3; with the default alphabet of 8, floors
    below about 65 fail the level-2 distribution test instead.  r_power is
    at least 0: a negative power divides by 0 at n = 0 (powers 0 and 1 fail
    the level-3 distribution test at the default floor).  max_level is at
    least 0 and no deeper than check_level_depth allows.
    """

    r_kind: str = "max_power"
    r_floor: int = 100
    r_power: int = 5
    max_level: int = 6
    alphabet_size: int = 8

    def __post_init__(self):
        for name, key, least in (("r_floor", "r_schedule.floor", 1), ("r_power", "r_schedule.power", 0),
                                 ("max_level", "max_level", 0), ("alphabet_size", "alphabet_size", 1)):
            value = config_int(getattr(self, name), f"construction.{key}")
            if value < least:
                raise ValueError(f"construction.{key} must be at least {least}, not {value}")
            object.__setattr__(self, name, value)
        if self.r_kind not in ("max_power", "constant"):
            kinds = "construction.r_schedule.kind is max_power or constant"
            raise ValueError(f"unknown r_kind {self.r_kind!r}: {kinds}")
        check_level_depth(self)

    @property
    def exponent(self) -> int:
        return 0 if self.r_kind == "constant" else self.r_power

    def r(self, n: int) -> int:
        return max(self.r_floor, n**self.exponent)

    def eps(self, n: int) -> float:
        return 1.0 / (n + 1)  # the harmonic tolerance schedule

    def to_json(self) -> dict:
        """The config; a constant schedule reads no power, so it states none."""
        schedule = {"kind": self.r_kind, "floor": self.r_floor}
        if self.r_kind != "constant":
            schedule["power"] = self.r_power
        return {"r_schedule": schedule, "max_level": self.max_level, "alphabet_size": self.alphabet_size}

    @staticmethod
    def from_json(data: dict) -> "CFParams":
        check_config_keys(data, ("r_schedule", "max_level", "alphabet_size"), "construction")
        rs = data.get("r_schedule", {})
        check_config_keys(rs, ("kind", "floor", "power"), "construction.r_schedule")
        renamed = {f"r_{key}": value for key, value in rs.items()}
        return CFParams(**{key: value for key, value in data.items() if key != "r_schedule"}, **renamed)


def check_config_keys(data: dict, known: Sequence[str], where: str) -> None:
    """TypeError unless `data` is a dict, UnknownConfigKeyError naming its keys outside `known`."""
    if not isinstance(data, dict):
        raise TypeError(f"{where} config must be a JSON object, not {data!r}")
    if unknown := sorted(set(data) - set(known)):
        raise UnknownConfigKeyError(f"unknown {where} config keys {unknown}; known: {list(known)}")


def config_int(value, key: str) -> int:
    """int(value) for an integer config key.  A bool or a fractional float
    is a ValueError, where int() would read it as 0 or 1 or truncate it;
    any other value goes to int(), whose error is raised naming the key."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be an int, not {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{key} must be an int, not {value!r}: {exc}") from exc


# the benchmark's tests build their parameters under this name
default_params = CFParams


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


def mu_total_normalizer(params: CFParams) -> tuple[float, float]:
    """Mass of the level-0 base set when the total measure is normalized to 1.

    The level ratios are 1 + e_n, e_n = (2n - 1)/(2 r_(n-1) - 1), and with
    r_n = max(floor, n^p) (p = power, or 0 for a constant schedule) e_n ~
    n^(1-p): e_n -> 0 iff p >= 2, and the product (eq. 9) is finite iff
    p >= 3, else DivergentScheduleError (n^4/r_n -> 0, the third growth
    condition, iff p >= 5).

    Returns (mu_X0, tail_bound): mu_X0 = 1 / prod_{n <= D} (1 + e_n), D =
    _NORMALIZER_DEPTH, and tail_bound = mu_X0 (sum_{D < n <= H} e_n + R),
    H = 4 D, bounds the neglected mu_X0 (1 - prod_{n > D} (1 + e_n)^-1) by
    1 - e^-x <= x and log(1 + x) <= x.  For m = n - 1 >= H and p >= 3,
    r_m >= m^p at any floor, so e_n <= (2m + 1)/(2 m^p - 1) <= H^(3-p)
    (2m + 1)/(2 m^3 - 1) <= H^(3-p)/(m (m - 1)), as 2 m^p - 1 >= m^(p-3)
    (2 m^3 - 1) and (2m + 1) m (m - 1) = 2 m^3 - m^2 - m; the sum over
    m >= H telescopes to H^(3-p)/(H - 1) <= R = 2 H^(4-p)/(H - 1)^2.
    """
    p = params.exponent
    if p < 3:
        raise DivergentScheduleError(
            f"divergent product: the r_schedule kind {params.r_kind} with floor {params.r_floor} "
            f"has exponent {p}, below 3, so its ratio excess "
            f"(2n - 1)/(2 r_(n-1) - 1) ~ n^{1 - p} has no finite sum and it carries no finite measure"
        )
    # ratio_n = a~_n / a_n = 1 + (2n-1)/(2 r_{n-1} - 1) for n >= 1, ratio_0 = 1
    log_prod = 0.0
    for n in range(1, _NORMALIZER_DEPTH + 1):
        log_prod += math.log1p((2 * n - 1) / (2 * params.r(n - 1) - 1))
    mu0 = math.exp(-log_prod)

    horizon = 4 * _NORMALIZER_DEPTH
    tail = 0.0
    for n in range(_NORMALIZER_DEPTH + 1, horizon + 1):
        tail += (2 * n - 1) / (2 * params.r(n - 1) - 1)
    remainder = (horizon**4 / horizon**p) * 2.0 / (horizon - 1) ** 2
    return mu0, mu0 * (tail + remainder)


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
    # the correction fibers component-major, (4, 2r-1), so that a level
    # gathers its lanes' corrections as four contiguous rows
    s_quat: np.ndarray
    s_quat_inv: np.ndarray

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
    mu_x0: Optional[float]  # None when the schedule diverges

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def _built(self, n: int, top: int) -> int:
        """n itself, once it is a level in 0..top of this build."""
        if n < 0:
            raise ValueError(f"level {n} is below 0 (the build has max_level {self.max_level})")
        if n > top:
            raise LevelTooDeepError(
                f"level {n} is above {top}, the deepest this build holds "
                f"(max_level {self.max_level})"
            )
        return n

    def a(self, n: int) -> int:
        return self.seq[self._built(n, self.max_level + 1)][0]

    def a_tilde(self, n: int) -> int:
        return self.seq[self._built(n, self.max_level + 1)][1]

    def mu_xn(self, n: int) -> float:
        if self.mu_x0 is None:
            raise DivergentScheduleError(
                f"no measure for level {n}: the schedule's level ratios diverge"
            )
        prod = Fraction(1)
        for k in range(n):
            prod *= level_ratio(self.seq, k)
        return self.mu_x0 * float(prod)

    def level(self, n: int) -> CFLevel:
        return self.levels[self._built(n, self.max_level)]


def _identity_level(n: int, a: int, a_tilde: int, r: int) -> CFLevel:
    size = 2 * r - 1
    quats = np.zeros((4, size))
    quats[0] = 1.0
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


def check_level_depth(params: CFParams) -> None:
    """LevelTooDeepError unless the correction shells of every level up to
    params.max_level fit int64: level n draws them from its slab, as the
    integers -K .. K - 1 with K = (2n - 1) a~_(n-1).  Levels are checked
    from the bottom, each deriving the sequences only up to n - 1, so the
    error names the first level past int64 however deep max_level is."""
    for n in range(1, params.max_level + 1):
        half_width = equidist.slab_half_width(n, derive_sequences(params, n - 1)[n - 1][1])
        if half_width > 2**63:
            raise LevelTooDeepError(
                f"level {n} correction shells reach -{half_width}, past int64 (-2^63): "
                f"max_level {params.max_level} is above {n - 1}, the deepest this schedule builds"
            )


def build_levels(params: CFParams, seed: int = 0) -> CFLevels:
    """Build level data with correction maps for levels 1..max_level.

    Level 0 gets identity corrections (its slab is degenerate, and the level-0
    tiling is exact without them); correction maps at higher levels are drawn
    from per-level substreams of `seed` via the retry protocol.  A divergent
    schedule still yields level data, with mu_x0 None: validate_cf reports
    the finiteness failure and mu_xn raises DivergentScheduleError.
    """
    seq = derive_sequences(params, params.max_level + 1)
    levels = [_identity_level(0, 1, 1, params.r(0))]
    for n in range(1, params.max_level + 1):
        a, at = seq[n]
        r = params.r(n)
        half_width = equidist.slab_half_width(n, seq[n - 1][1])
        alphabet = default_alphabet(n, half_width, params.alphabet_size)
        s_map = equidist.build_s_map(
            n,
            r,
            alphabet,
            params.eps(n),
            substream(seed, f"s-map-{n}"),
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
                s_quat=alphabet.quats[idx].T.copy(),
                s_quat_inv=quat_inv(alphabet.quats[idx]).T.copy(),
            )
        )
    try:
        mu0, _ = mu_total_normalizer(params)
    except DivergentScheduleError:
        mu0 = None
    return CFLevels(params=params, seed=seed, levels=levels, seq=seq, mu_x0=mu0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def growth_conditions(params: CFParams) -> dict[str, bool]:
    """The growth verdicts of validate_cf, which read the schedule's exponent
    p alone; finiteness is p >= 3, where mu_total_normalizer does not raise."""
    p = params.exponent
    return {"w-fo-folner-ratios": p >= 2, "growth-n4-over-r": p >= 5, "finiteness-eq-9": p >= 3}


def validate_cf(levels: CFLevels) -> dict[str, bool]:
    """Exact checks of the stacking conditions at every instantiated level,
    as verdicts by name in report order.

    Containment and disjointness of the translated base sets are exact
    integer tests: the interval F_n c(h) = (lo, lo + 2 a_n] has
    lo = lo_int + u with lo_int an integer and u = s_u in [0, 1), so its
    ends compare with integers through lo_int alone (and u == 0), and with
    each other as (integer part, u) pairs in lexicographic order.  A
    correction fraction outside [0, 1) raises CorrectionFractionError.  The
    base-interval tiling (2 r_n - 1 shells of half-width a~_n make the
    level n+1 interval) is pure integer arithmetic.  The growth conditions
    are exact in the exponent p of r_n = max(floor, n^p), p = power or 0 for
    a constant schedule: (2n - 1)/(2 r_(n-1) - 1) ~ n^(1-p) -> 0 iff p >= 2,
    n^4/r_n -> 0 iff p >= 5, and the ratios' product (eq. 9) is finite iff p >= 3.
    """
    containment_ok = True
    disjoint_ok = True
    for lv in levels.levels:
        if not np.all((lv.s_u >= 0.0) & (lv.s_u < 1.0)):
            raise CorrectionFractionError(
                f"level {lv.n} has a correction fraction outside [0, 1)"
            )
        a_next = levels.a(lv.n + 1)
        width = 2 * lv.a
        # (lo_int, u) of lo = t_c - a_n, with t_c = s_shell + u + 2 h a~_n
        los = sorted(
            (s + 2 * h * lv.a_tilde - lv.a, u)
            for h, s, u in zip(lv.h_range(), lv.s_shell.tolist(), lv.s_u.tolist())
        )
        # (lo, hi] subset (-a_next, a_next] iff lo >= -a_next, hi <= a_next
        containment_ok &= all(
            lo_int >= -a_next
            and (lo_int + width < a_next or (lo_int + width == a_next and u == 0.0))
            for lo_int, u in los
        )
        disjoint_ok &= all(lo2 >= (lo_int + width, u) for (lo_int, u), lo2 in zip(los, los[1:]))
    return {
        "w2-choice-sets": all(lv.card_c_next > 1 for lv in levels.levels),
        "w3-containment": containment_ok,
        "w4-disjointness": disjoint_ok,
        "tiling-6-9": all((2 * lv.r - 1) * lv.a_tilde == levels.a(lv.n + 1) for lv in levels.levels),
        **growth_conditions(levels.params),
    }


# ---------------------------------------------------------------------------
# the integer lane and the group action
# ---------------------------------------------------------------------------

def _lane(levels: CFLevels, k: int):
    """The dtype of level-k times inside the engine loops, and of the low
    digit of level-(k+1) times: a level-k time plus one correction, room
    left for a translate by up to 2 a~_k and the peel's + a~_k.  int64 below
    2^62, room for one more such step, and Python ints (object) from there."""
    return np.int64 if levels.a(k) + 2 * levels.a_tilde(k) < _INT64_SAFE else object


class RadixTimes(NamedTuple):
    """Integer times of level k+1 in mixed radix, hi * 2 a~_k + lo: hi the
    shift index h_k (int64), lo the rest, in the lane of level k."""

    hi: np.ndarray
    lo: np.ndarray


def _join(levels: CFLevels, k: int, hi, lo):
    """Level-k times hi * 2 a~_(k-1) + lo as one array in the lane of level
    k; lo alone, moved to that lane, when hi is None."""
    lane = _lane(levels, k)
    lo = lo.astype(lane, copy=False)
    return lo if hi is None else lo + hi.astype(lane, copy=False) * (2 * levels.a_tilde(k - 1))


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

def _own_rows(q):
    """(rows, spare): a (4, ..., n) copy of the (..., n, 4) fibers q as
    contiguous component rows, which embed_batch and peel_batch step level
    by level, and a buffer of its shape for the next level's rows; (None,
    None) when q is None."""
    if q is None:
        return None, None
    rows = np.moveaxis(np.asarray(q, dtype=float), -1, 0).copy()
    return rows, np.empty_like(rows)


def _fiber_view(rows):
    """The (..., n, 4) fibers of component rows (a view), or None."""
    return None if rows is None else np.moveaxis(rows, 0, -1)


def row_blocks(n: int):
    """Slices of ROW_BLOCK consecutive rows (the last one shorter) covering
    rows 0 .. n - 1; none when n is 0."""
    return (slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK))


def sample_point_batch(
    levels: CFLevels,
    n: int,
    truncation: int,
    rng: np.random.Generator,
    h_minus: bool = False,
    *,
    fiber: bool = True,
):
    """Arrays (ti, tf, q, tails) of n points of the level-1 base set, with
    the shift indices of levels 1..truncation (as far as the build goes),
    as int32 (a level with r >= 2^31 cannot be built: its correction tables
    hold 2r - 1 entries).

    With h_minus the tail indices are rejected into the slightly shrunken
    ranges |h_k| < (1 - k^{-2}) r_k used by generic-point selection, strict
    and in integers: |h_k| k^2 < (k^2 - 1) r_k, and never narrower than
    |h_k| <= 1.

    With fiber False q is None: the (n, 4) normals are still drawn, so the
    random stream and ti, tf and tails are the same, but in ROW_BLOCK
    chunks, each dropped without being normalised.
    """
    a = levels.a(1)
    t = rng.uniform(-float(a), float(a), size=n)
    ti = np.floor(t)
    tf = np.subtract(t, ti, out=t)
    ti = ti.astype(np.int64)
    if fiber:
        q = quat_normalize(rng.standard_normal((n, 4)))
    else:
        q = None
        for rows in row_blocks(n):
            rng.standard_normal((rows.stop - rows.start, 4))
    ks = list(range(1, min(1 + truncation, levels.max_level + 1)))
    tails = np.zeros((n, len(ks)), dtype=np.int32)
    for col, k in enumerate(ks):
        r = levels.level(k).r
        bound = r - 1
        if h_minus:
            bound = max(1, min(bound, ((k * k - 1) * r - 1) // (k * k)))
        tails[:, col] = rng.integers(-bound, bound + 1, size=n, dtype=np.int32)
    return ti, tf, q, tails


def embed_batch(levels: CFLevels, ti, tf, q, tails, from_level: int, to_level: int,
                *, radix: bool = False):
    """Vectorized embedding of a batch from from_level up to to_level.

    tails columns are consumed in order.  Each level k adds the correction's
    shell, fraction and carry to the time and keeps the shift index h_k as
    the high digit of the level-(k+1) time, joined in at the next level (see
    RadixTimes); times run in the lane _lane picks for their level.  So the
    to_level times are the pair (h, lo), lo int64 wherever the level below
    is.  By default they are joined into one array, Python ints (an object
    array) where the level's times pass 2^62; with radix they come back as
    RadixTimes, which peel_batch also takes.  Each level multiplies the
    fiber by the shift element twisted by the current time, in one
    groups.quat_mul_twisted_rows step on the fibers held component-major, a
    (4, ..., n) stack of contiguous rows, with the same bits as
    quat_mul(q, quat_twist(ti, tf, s)).
    Returns (ti, tf, q) at to_level, q a (..., n, 4) view of those rows.
    With q None the fiber is neither moved nor returned (None in its
    place); times are the same either way.  The carries are made in place,
    on times copied at entry, and the fibers are stepped on their own copy,
    so the caller's arrays are never written.
    """
    levels._built(to_level, levels.max_level + 1)
    if tails.shape[1] < to_level - from_level:
        raise OrbitLeftTruncationError(
            f"orbit left truncation at level {from_level + tails.shape[1]}: "
            "no tail index available"
        )
    ti = np.array(ti, copy=True)
    tf = np.array(tf, dtype=float, copy=True)
    q, spare = _own_rows(q)
    h = None
    for col, k in enumerate(range(from_level, to_level)):
        lv = levels.level(k)
        ti = _join(levels, k, h, ti)
        h = tails[:, col].astype(np.int64)
        j = h + (lv.r - 1)
        # fiber twist by the current time, before the time moves
        if q is not None:
            q, spare = quat_mul_twisted_rows(q, ti, tf, lv.s_quat.take(j, axis=1), out=spare), q
        ti += lv.s_shell[j].astype(ti.dtype, copy=False)
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
        # the carry in place: tf - 1.0 is exact on [1, 2), and tf - 0.0 = tf
        carry = tf >= 1.0
        np.subtract(tf, carry, out=tf)
        np.add(ti, carry, out=ti)
    ti = RadixTimes(h, ti) if radix else _join(levels, to_level, h, ti)
    return ti, tf, _fiber_view(q)


def peel_batch(levels: CFLevels, ti, tf, q, from_level: int, to_level: int):
    """Vectorized peeling of a batch down to to_level.

    ti is one array of integer times, int64 or Python ints, or a RadixTimes
    pair (hi, lo), of which the first level peels lo and adds hi to the
    shift index it finds.  Returns (valid, ti, tf, q, hs): lanes where the
    point has no representation at to_level are masked out of `valid` (their
    coordinate values are unspecified); hs[:, c] is the recovered shift index
    at level to_level + c.  Level k finds d = (t + a~_k) // 2 a~_k, less one
    on a shell edge (remainder 0 and fraction 0), so h = hi + d (h = d
    without hi) and the level-k time is t - d * 2 a~_k less the correction.
    Python-int times return to int64 at the first level where they fit
    (_lane).  Each level multiplies the fiber by the inverse shift element
    twisted by the peeled time, as embed_batch does: one
    groups.quat_mul_twisted_rows step on a (4, ..., n) stack of contiguous
    rows, copied from q at entry, and q comes back as a (..., n, 4) view of
    them.  With q None the fiber is neither moved nor returned (None in its
    place); valid, times and hs are the same either way.  Times are peeled and
    borrowed in place, on the copies made at entry: the caller's arrays,
    or the read-only broadcast translate passes, are never written.
    """
    levels._built(from_level, levels.max_level + 1)
    hi, ti = ti if isinstance(ti, RadixTimes) else (None, ti)
    ti = np.array(ti, copy=True)
    tf = np.array(tf, dtype=float, copy=True)
    q, spare = _own_rows(q)
    n = len(tf)
    valid = np.ones(n, dtype=bool)
    hs = np.zeros((n, from_level - to_level), dtype=np.int64)
    for k in range(from_level - 1, to_level - 1, -1):
        lv = levels.level(k)
        two = 2 * lv.a_tilde
        # ti becomes the remainder t + a~_k - d * 2 a~_k, in [0, 2 a~_k)
        ti += lv.a_tilde
        d = ti // two
        ti -= d * two
        # a shell edge (remainder 0 and fraction 0) is the top of the shell below
        on_edge = (ti == 0) & (tf == 0.0)
        np.subtract(d, on_edge, out=d)
        np.add(ti, two, out=ti, where=on_edge)
        h = d.astype(np.int64, copy=False)
        h = h if hi is None else hi + h
        hi = None
        ok_h = np.abs(h) <= lv.r - 1
        j = np.clip(h + (lv.r - 1), 0, 2 * lv.r - 2)
        # the level-k time: the remainder less a~_k and the correction's shell
        ti -= lv.a_tilde
        ti -= lv.s_shell[j].astype(ti.dtype, copy=False)
        # the borrow in place, tf + 0.0 = tf where there is none
        np.subtract(tf, lv.s_u[j], out=tf)
        borrow = tf < 0.0
        np.add(tf, borrow, out=tf)
        # a borrowed fraction can round up to 1.0; the max allocates no mask
        if tf.max(initial=0.0) == 1.0:
            lost = np.flatnonzero((tf == 1.0) & valid & ok_h)
            if len(lost):
                raise InexactFractionError(
                    f"fraction of lane {lost[0]} rounds up to 1.0 when it borrows past "
                    f"the level-{k} correction {float(lv.s_u[j[lost[0]]])!r}"
                )
        np.subtract(ti, borrow, out=ti)
        if ti.dtype == object and _lane(levels, k) is np.int64:
            ti = np.where(valid & ok_h, ti, 0).astype(np.int64)
        ok_t = _in_base(ti, tf, lv.a)
        if q is not None:
            q, spare = quat_mul_twisted_rows(q, ti, tf, lv.s_quat_inv.take(j, axis=1), out=spare), q
        valid &= ok_h & ok_t
        hs[:, k - to_level] = h
    return valid, ti, tf, _fiber_view(q), hs


def translate(levels: CFLevels, ti, tf, q, tails, g, from_level: int, to_level: int):
    """peel_batch back to from_level of the batch embedded up to to_level
    with `tails` and moved there by the integer time translate (g, I), the
    fiber (if any) turned by phi_g, the parity twist quat_phi_int, as a
    sign on the c and d rows of the fibers broadcast to the lanes.  g is a
    Python int or an int64 array, one per lane, to which a one-row batch is
    broadcast.  q may carry leading fiber axes, shape (..., n, 4): fibers
    over the same times and tails share one time peel, and each comes back
    as its own translate would return it.  The top times stay a RadixTimes
    pair: g = gh * 2 a~_(to-1) + gl, 0 <= gl < 2 a~_(to-1), adds gh to the
    shift digit and gl to the low digit, so no time past 2^62 is formed
    where the low digit fits int64."""
    top, tf, q = embed_batch(levels, ti, tf, q, tails, from_level, to_level, radix=True)
    radix = 2 * levels.a_tilde(to_level - 1)
    # the digits of g in the low digit's lane, which holds the radix too
    g = np.asarray(g).astype(_lane(levels, to_level - 1), copy=False)
    lanes = np.broadcast_shapes(tf.shape, g.shape)
    if q is not None:
        rows = np.empty((4,) + q.shape[:-2] + lanes)
        rows[...] = np.moveaxis(q, -1, 0)
        rows[2:] *= np.where(g & 1, -1.0, 1.0)
        q = np.moveaxis(rows, 0, -1)
    top = RadixTimes(top.hi + np.asarray(g // radix, dtype=np.int64), top.lo + g % radix)
    return peel_batch(levels, top, np.broadcast_to(tf, lanes), q, to_level, from_level)


# ---------------------------------------------------------------------------
# cylinder sets
# ---------------------------------------------------------------------------

def cylinder_measure(levels: CFLevels, n: int, lo, hi) -> float:
    """Exact measure mu([A]_n) = lambda(A)/lambda(F_n) * mu(X_n) of the
    full-fiber cylinder over A = (lo, hi] x SU(2) inside the level-n base;
    the time part is exact rational arithmetic."""
    return float(Fraction(hi - lo) / (2 * levels.a(n))) * levels.mu_xn(n)


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

"""The cutting construction for G = R x| SU(2): schedules, levels, cylinders
and the action on finite truncations.

Time coordinates blow up fast (the level-7 base interval half-width exceeds
1e20 under the default schedule), so at the public boundary times are
carried in split form: an exact integer part plus a float fraction in
[0, 1).  Every point is a row of a batch (ti, tf, q, tails) at some level:
integer times, fractions, unit quaternion fibers, and the shift indices
that embedding consumes level by level, as sample_tails draws them.  One
batch engine moves points: embed_batch and peel_batch run a single
arithmetic path per level.  Every correction time is a multiple of 1/D,
D = CFLevels.grid the largest denominator of the correction alphabets'
fractions (a power of two, 8 at the default alphabet), so inside the
engine a time is t = (T + rho)/D: T an integer count of ticks of 1/D, and
rho in [0, 1) a residual that no embed, peel or integer translate moves.
Times then move only as integer ticks (CFLevel.ticks), and nothing
rounds; the public fraction (T mod D + rho)/D is one rounding of the
exact one.  Base intervals and shells are half-open, (lo, hi] in ticks,
and peel_batch tests them on the tick below the time,
T' = ceil(T + rho) - 1 (T - 1 on the grid, rho = 0, and T off it): the
time lies in (lo, hi] exactly when lo <= T' < hi, one integer test that
reads no rho.  The top level of an embedding is kept in mixed radix,
T = hi * 2 a~_k D + lo with hi the last shift index h_k (a RadixTimes
pair).  Its low digit is a level-k time plus one correction, so it stays
int64 at the first level whose times pass 2^62 (level 7 of the default
build), and translate, which moves the points of weakmix and of the
joining windows, adds an integer time translate to the digits without
forming the big time.  On deeper builds the times past that level, and
the low digit of a top above them, fall back to Python-int object arrays
(one radix digit, not one per overflowing level); _tick_lane is the one
place that picks int64 or object.
At the public boundary times are one array: embed_batch joins the pair
unless asked for it, and peel_batch takes either form.  Both take q=None for
time-only work (a central time translate against full-fiber sets): the
SU(2) fiber is then neither moved nor returned, and times, validity and
shift indices are exactly those of the fiber path.  act applies a group
element to a batch at one level.  The stacking conditions compare the
interval ends as integers in ticks, and the exact cylinder and shift
identities use Fractions built from the ticks.

Inside embed_batch and peel_batch a batch's fibers are (2, n) complex
rows, the pairs (z, w) of groups.quat_pair.  Each level multiplies them by
its correction twisted by the current time t = (T + rho)/D.  The twist is
an automorphism and phi_(a+b) = phi_a phi_b, so with one rho for every level
q prod phi_(t_k)(s_k) = phi_rho(phi_rho^-1(q) prod phi_(T_k/D)(s_k)),
phi_rho the twist by rho/D: the rows are stepped in the residual's frame,
turned in by phi_rho^-1 (_own_rows) and out by phi_rho (_fibers_out), and
each level twists its correction by T_k/D alone.  The twist has period 2D
in ticks, so a level holds its alphabet's corrections and their inverses
pre-twisted at every residue mod 2D (CFLevel.s_fibers), and its fiber step
is one 2-row gather and one groups.pair_mul (_fiber_step), with no cosine
and no turn per lane.  On the grid (rho = 0) the fibers are bit for bit the
per-level quat_mul(q, quat_twist(ti, tf, s)); off it they differ by
rounding alone.  The joined forms take and return (n, 4) fibers, turned in
and out at each call; the radix form carries the rows in the frame, so
only translate turns its fibers once in and once out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .groups import GElement, pair_mul, quat_inv, quat_mul, quat_normalize, quat_pair, quat_twist, twist_unit
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
    "RadixTimes",
    "sample_point_batch",
    "sample_tails",
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

    r_n = max(floor, n^p) with the one exponent p = power; power 0 is the
    constant schedule r_n = floor.  The growth conditions depend on p alone
    (the floor only delays them): (2n - 1)/(2 r_(n-1) - 1) -> 0 iff p >= 2,
    n^4/r_n -> 0 iff p >= 5, and the level ratios have a finite product
    (eq. 9) iff p >= 3.  The default max(100, n^5) meets all three and
    keeps level data tractable through level ~8.  Each integer field goes through
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

    # not a field, so no config sets it: bench/checks.recursion reads it, and
    # ROADMAP item 1 deletes it along with that read
    r_kind = "max_power"

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
        check_level_depth(self)

    def r(self, n: int) -> int:
        return max(self.r_floor, n**self.r_power)

    def eps(self, n: int) -> float:
        return 1.0 / (n + 1)  # the harmonic tolerance schedule

    def to_json(self) -> dict:
        schedule = {"floor": self.r_floor, "power": self.r_power}
        return {"r_schedule": schedule, "max_level": self.max_level, "alphabet_size": self.alphabet_size}

    @staticmethod
    def from_json(data: dict) -> "CFParams":
        check_config_keys(data, ("r_schedule", "max_level", "alphabet_size"), "construction")
        rs = data.get("r_schedule", {})
        check_config_keys(rs, ("floor", "power"), "construction.r_schedule")
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
    r_n = max(floor, n^p), p = power, e_n ~ n^(1-p): e_n -> 0 iff p >= 2,
    and the product (eq. 9) is finite iff p >= 3, else
    DivergentScheduleError naming the floor and the power: every reader of
    the measure meets it here (n^4/r_n -> 0, the third growth condition,
    iff p >= 5).

    Returns (mu_X0, tail_bound): mu_X0 = 1 / prod_{n <= D} (1 + e_n), D =
    _NORMALIZER_DEPTH, and tail_bound = mu_X0 (sum_{D < n <= H} e_n + R),
    H = 4 D, bounds the neglected mu_X0 (1 - prod_{n > D} (1 + e_n)^-1) by
    1 - e^-x <= x and log(1 + x) <= x.  For m = n - 1 >= H and p >= 3,
    r_m >= m^p at any floor, so e_n <= (2m + 1)/(2 m^p - 1) <= H^(3-p)
    (2m + 1)/(2 m^3 - 1) <= H^(3-p)/(m (m - 1)), as 2 m^p - 1 >= m^(p-3)
    (2 m^3 - 1) and (2m + 1) m (m - 1) = 2 m^3 - m^2 - m; the sum over
    m >= H telescopes to H^(3-p)/(H - 1) <= R = 2 H^(4-p)/(H - 1)^2.
    """
    p = params.r_power
    if p < 3:
        raise DivergentScheduleError(
            f"divergent product: the r_schedule with floor {params.r_floor} "
            f"has power {p}, below 3, so its ratio excess "
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
    indexed by j = h + (r_n - 1) spell out the correction s(h): its time as
    a whole number of ticks of 1/grid, the one table of it, and where its
    fiber is in the level's fiber tables.
    """

    n: int
    a: int
    a_tilde: int
    r: int
    s_map: Optional[SMapResult]  # None at level 0 (identity corrections)
    # (2r-1,) the correction times in ticks of 1/grid, exact integers in the
    # level's lane (_lane)
    ticks: np.ndarray
    grid: int  # D, ticks per unit of time: the build's CFLevels.grid
    # (2, A 2D) complex pairs of the A alphabet fibers and of their inverses:
    # column 2D alpha + e holds entry alpha twisted by phi_(e/D), e < 2D
    s_fibers: np.ndarray
    s_fibers_inv: np.ndarray
    s_cols: np.ndarray  # (2r-1,) int64 2D alpha(j), where correction j's columns start

    @property
    def card_c_next(self) -> int:
        return 2 * self.r - 1

    def correction_ticks(self) -> np.ndarray:
        """(2r-1,) exact times 2 h a~ D + ticks(h) of the corrections c(h) in ticks of 1/D:
        int64 while they stay below 2^62, with room for one more a D, and Python ints from there."""
        step = 2 * self.a_tilde * self.grid
        lane = np.int64 if self.r * step + int(np.abs(self.ticks).max()) < _INT64_SAFE else object
        return np.arange(-(self.r - 1), self.r).astype(lane) * step + self.ticks.astype(lane)

    @property
    def s_shell(self) -> np.ndarray:
        """(2r-1,) int64 integer parts ticks // grid of the correction
        times: the view of the table that bench/reference.py reads."""
        return (self.ticks // self.grid).astype(np.int64)

    @property
    def s_u(self) -> np.ndarray:
        """(2r-1,) float fractions (ticks mod grid)/grid in [0, 1) of the
        correction times, exact: the view that bench/reference.py reads."""
        return (self.ticks % self.grid).astype(float) / self.grid

    def correction_time_fraction(self, h: int) -> Fraction:
        """Exact time of c(h) as a Fraction, read off the tick table."""
        return Fraction(int(self.ticks[h + (self.r - 1)]), self.grid) + 2 * h * self.a_tilde


@dataclass
class CFLevels:
    """Built construction: sequences, correction maps, normalization."""

    params: CFParams
    seed: int
    levels: list[CFLevel]
    seq: list[tuple[int, int]]  # (a_n, a~_n) for n = 0..max_level+1

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    @property
    def grid(self) -> int:
        """D, the ticks of 1/D per unit of time that every correction time
        is a whole number of (see build_levels)."""
        return self.levels[0].grid

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

    @cached_property
    def mu_x0(self) -> float:
        """The level-0 base mass, mu_total_normalizer's: a divergent schedule
        raises DivergentScheduleError on every read, as nothing is cached."""
        return mu_total_normalizer(self.params)[0]

    def mu_xn(self, n: int) -> float:
        prod = Fraction(1)
        for k in range(n):
            prod *= level_ratio(self.seq, k)
        return self.mu_x0 * float(prod)

    def level(self, n: int) -> CFLevel:
        return self.levels[self._built(n, self.max_level)]


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
    from per-level substreams of `seed` via the retry protocol.  The grid D
    is the largest denominator of the alphabets' fractions; floats are
    dyadic, so it is a power of two and every correction time is a whole
    number of ticks of 1/D.  Each level's maps and tables are made in turn,
    D being known from the alphabets first; its fiber tables are its
    alphabet's quaternions and their inverses twisted by twist_unit at the
    times e/D, e = 0 .. 2D - 1, the bits quat_twist gives at those times.
    A divergent schedule still yields level data: validate_cf reports the
    finiteness failure, and its measures (mu_x0, mu_xn) raise
    DivergentScheduleError.
    """
    seq = derive_sequences(params, params.max_level + 1)
    alphabets = [default_alphabet(n, equidist.slab_half_width(n, seq[n - 1][1]), params.alphabet_size)
                 for n in range(1, params.max_level + 1)]
    grid = max((u.as_integer_ratio()[1] for alphabet in alphabets for u in alphabet.u.tolist()), default=1)
    residues = np.arange(2 * grid)
    unit = twist_unit(residues >> (grid.bit_length() - 1), (residues & (grid - 1)) / grid)

    def twisted(quats):
        pair = quat_pair(quats)[:, :, None]
        table = np.empty((2, len(quats), 2 * grid), dtype=complex)
        table[0] = pair[:, 0]
        np.multiply(pair[:, 1], unit[None], out=table[1])
        return table.reshape(2, -1)

    size, identity = 2 * params.r(0) - 1, np.array([[1.0, 0.0, 0.0, 0.0]])
    levels = [CFLevel(n=0, a=1, a_tilde=1, r=params.r(0), s_map=None,
                      ticks=np.zeros(size, dtype=_tick_lane(grid, 1, 1)), grid=grid, s_fibers=twisted(identity),
                      s_fibers_inv=twisted(identity), s_cols=np.zeros(size, dtype=np.int64))]
    for n, alphabet in enumerate(alphabets, start=1):
        s_map = equidist.build_s_map(n, params.r(n), alphabet, params.eps(n), substream(seed, f"s-map-{n}"))
        idx = s_map.values
        lane = _tick_lane(grid, *seq[n])
        ticks = alphabet.shells.astype(lane) * grid + (alphabet.u * grid).astype(np.int64).astype(lane)
        levels.append(CFLevel(n=n, a=seq[n][0], a_tilde=seq[n][1], r=params.r(n), s_map=s_map, ticks=ticks[idx],
                              grid=grid, s_fibers=twisted(alphabet.quats),
                              s_fibers_inv=twisted(quat_inv(alphabet.quats)), s_cols=idx * (2 * grid)))
    return CFLevels(params=params, seed=seed, levels=levels, seq=seq)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def growth_conditions(params: CFParams) -> dict[str, bool]:
    """The growth verdicts of validate_cf, which read the schedule's power
    p alone; finiteness is p >= 3, where mu_total_normalizer does not raise."""
    p = params.r_power
    return {"w-fo-folner-ratios": p >= 2, "growth-n4-over-r": p >= 5, "finiteness-eq-9": p >= 3}


def validate_cf(levels: CFLevels) -> dict[str, bool]:
    """Exact checks of the stacking conditions at every instantiated level,
    as verdicts by name in report order.

    Containment and disjointness of the translated base sets are exact
    integer tests in ticks of 1/D, D = levels.grid: the interval
    F_n c(h) = (lo, hi] has lo = 2 h a~_n D + ticks(h) - a_n D and
    hi = lo + 2 a_n D, and lies in (-a_(n+1) D, a_(n+1) D] iff
    lo >= -a_(n+1) D and hi <= a_(n+1) D; sorted by lo, the intervals are
    disjoint iff each lo is at least the hi before it.  The base-interval
    tiling (2 r_n - 1 shells of half-width a~_n make the level n+1
    interval) is pure integer arithmetic.  The growth conditions are exact
    in the power p of r_n = max(floor, n^p), 0 for a constant schedule:
    (2n - 1)/(2 r_(n-1) - 1) ~ n^(1-p) -> 0 iff p >= 2, n^4/r_n -> 0 iff
    p >= 5, and the ratios' product (eq. 9) is finite iff p >= 3.
    """
    containment_ok = True
    disjoint_ok = True
    grid = levels.grid
    for lv in levels.levels:
        a_next = levels.a(lv.n + 1) * grid
        width = 2 * lv.a * grid
        los = np.sort(lv.correction_ticks() - lv.a * grid)
        # every interval lies inside iff the lowest lo and the highest hi do
        containment_ok &= int(los[0]) >= -a_next and int(los[-1]) + width <= a_next
        disjoint_ok &= bool(np.all(np.diff(los) >= width))
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

def _tick_lane(grid: int, a: int, a_tilde: int):
    """The dtype of a level's times in ticks, and of the low digit of the
    level above (a time plus one correction), room left for a translate by
    up to 2 a~ and the peel's + a~: int64 while D (a + 2 a~) < 2^62, room
    for one more such step, and Python ints (object) from there."""
    return np.int64 if grid * (a + 2 * a_tilde) < _INT64_SAFE else object


def _lane(levels: CFLevels, k: int):
    return _tick_lane(levels.grid, levels.a(k), levels.a_tilde(k))


class RadixTimes(NamedTuple):
    """Times of level k+1 in ticks and in mixed radix, hi * 2 a~_k D + lo:
    hi the shift index h_k (int64), lo the rest, in the lane of level k.
    Beside them the residual rho takes the place of tf."""

    hi: np.ndarray
    lo: np.ndarray


def _join(levels: CFLevels, k: int, hi, lo):
    """Level-k times in ticks hi * 2 a~_(k-1) D + lo as one array in the
    lane of level k; lo alone, moved to that lane, when hi is None."""
    lane = _lane(levels, k)
    lo = lo.astype(lane, copy=False)
    return lo if hi is None else lo + hi.astype(lane, copy=False) * (2 * levels.a_tilde(k - 1) * levels.grid)


def _to_ticks(levels: CFLevels, k: int, ti, tf):
    """(T, rho), exactly, of level-k times ti + tf = (T + rho)/D: T new
    ticks in the lane of level k (Python ints wherever ti is)."""
    scaled = np.asarray(tf, dtype=float) * levels.grid
    ticks = np.floor(scaled)
    ti = np.asarray(ti)
    lane = object if ti.dtype == object else _lane(levels, k)
    T = ti.astype(lane, copy=False) * levels.grid
    T += ticks.astype(np.int64).astype(lane, copy=False)
    return T, np.subtract(scaled, ticks, out=scaled)


def _from_ticks(levels: CFLevels, T, rho):
    """The split time (ti, tf) of (T + rho)/D, D a power of two: ti the
    floor, tf = (T mod D + rho)/D one rounding of the exact fraction."""
    tf = (T & (levels.grid - 1)).astype(float)
    tf += rho
    tf /= levels.grid
    return T >> (levels.grid.bit_length() - 1), tf


def act(g: GElement, ti, tf, q):
    """Left action of g = (t, m) on a batch of points at one level.

    The floor gi of t and its fraction gf in [0, 1) are added to the times,
    the fraction's carry going into ti, and each fiber becomes
    m * phi_t(q), one quat_mul and the closed-form quat_twist.  The level
    does not change: embed the batch high enough first, since a lane moved
    out of the level's base comes back invalid from peel_batch.  ti may be
    int64 or Python ints (dtype=object).  Raises InexactTranslateError for
    |t| from 2^53 on, where a float no longer carries every integer
    translate exactly.  Returns (ti, tf, q).
    """
    if abs(g.t) >= _FLOAT_EXACT:
        raise InexactTranslateError(
            f"time {g.t!r} is at or above 2^53, where a float no longer carries an exact integer translate; "
            "add an integer translate to the batch's integer times ti instead")
    gi = math.floor(g.t)
    gf = g.t - gi
    ti = ti + gi
    tf = tf + gf
    carry = tf >= 1.0
    tf = np.where(carry, tf - 1.0, tf)
    ti = ti + carry.astype(ti.dtype)
    return ti, tf, quat_mul(g.m.array(), quat_twist(gi, gf, q))


# ---------------------------------------------------------------------------
# vectorized batches
# ---------------------------------------------------------------------------

def _own_rows(q, rho, grid: int, framed: bool = False):
    """(rows, work, turn): the fibers q as (2, n) complex rows (z, w) in the
    residual's frame, turned by phi_rho^-1 (see the module docstring); the
    buffers that embed_batch and peel_batch step them through, two (2, n)
    ones that level i writes in turn (i & 1), a (2, n) one for the gathered
    corrections and an (n,) one for pair_mul; and the unit of phi_rho, which
    _fibers_out turns the rows back by.  q is (n, 4) and turned into a copy
    held in the second buffer, or, framed, such rows already, taken as they
    are and never written.  (None, None, None) when q is None."""
    if q is None:
        return None, None, None
    turn = twist_unit(0, rho / grid)
    work = [np.empty((2, len(rho)), dtype=complex) for _ in range(3)] + [np.empty(len(rho), dtype=complex)]
    if framed:
        return q, work, turn
    src, rows = quat_pair(q), work[1]
    rows[0] = src[:, 0]
    np.multiply(src[:, 1], np.conjugate(turn), out=rows[1])
    return rows, work, turn


def _fiber_step(q, T, table, cols, grid: int, out, work, below=None):
    """q * phi_(T/D)(s) on complex rows, written into `out`: one level's
    fiber step, s the corrections whose residues start at the columns
    `cols` of the level's pre-twisted (2, A 2D) table, read at the residue
    T mod 2D (T + below, where peel_batch holds the tick below); work holds
    the (2, n) gather and pair_mul's (n,) row."""
    mask = 2 * grid - 1
    e = (T & mask).astype(np.int64, copy=False)
    if below is not None:
        e += below
        e &= mask
    e += cols
    return pair_mul(q, table.take(e, axis=1, out=work[2], mode="clip"), out, work[3])


def _fibers_out(rows, turn):
    """The (n, 4) fibers of complex rows turned out by the unit `turn`, in
    a C-contiguous array of their own, or None."""
    if rows is None:
        return None
    out = np.empty((rows.shape[1], 2), dtype=complex)
    out[:, 0] = rows[0]
    np.multiply(rows[1], turn, out=out[:, 1])
    return out.view(float)


def row_blocks(n: int):
    """Slices of ROW_BLOCK consecutive rows (the last one shorter) covering
    rows 0 .. n - 1; none when n is 0."""
    return (slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK))


def sample_point_batch(levels: CFLevels, n: int, truncation: int, rng: np.random.Generator,
                       h_minus: bool = False):
    """Arrays (ti, tf, q, tails) of n points of the level-1 base set, drawn
    in this order: uniform times (split into int64 ti and tf in [0, 1)),
    Haar fibers, and sample_tails(levels, n, truncation, rng, h_minus)."""
    a = levels.a(1)
    t = rng.uniform(-float(a), float(a), size=n)
    ti = np.floor(t)
    tf = np.subtract(t, ti, out=t)
    q = quat_normalize(rng.standard_normal((n, 4)))
    return ti.astype(np.int64), tf, q, sample_tails(levels, n, truncation, rng, h_minus)


def sample_tails(levels: CFLevels, n: int, truncation: int, rng: np.random.Generator,
                 h_minus: bool = False):
    """(n, k) shift indices of levels 1..truncation (as far as the build goes,
    k levels), drawn a level at a time, as int32 (a level with r >= 2^31
    cannot be built: its correction tables hold 2r - 1 entries).

    With h_minus the indices are rejected into the slightly shrunken ranges
    |h_k| < (1 - k^{-2}) r_k used by generic-point selection, strict and in
    integers: |h_k| k^2 < (k^2 - 1) r_k, and never narrower than |h_k| <= 1.
    """
    ks = list(range(1, min(1 + truncation, levels.max_level + 1)))
    tails = np.zeros((n, len(ks)), dtype=np.int32)
    for col, k in enumerate(ks):
        r = levels.level(k).r
        bound = r - 1
        if h_minus:
            bound = max(1, min(bound, ((k * k - 1) * r - 1) // (k * k)))
        tails[:, col] = rng.integers(-bound, bound + 1, size=n, dtype=np.int32)
    return tails


def embed_batch(levels: CFLevels, ti, tf, q, tails, from_level: int, to_level: int,
                *, radix: bool = False):
    """Vectorized embedding of a batch from from_level up to to_level.

    tails columns are consumed in order.  Each level adds the correction's
    ticks to the time, in the lane _lane picks for the level, and keeps the
    shift index h_k as the high digit of the level-(k+1) time, joined in at
    the next level (see RadixTimes).  So the to_level times are the pair
    (h, lo), lo int64 wherever the level below is.  Each level multiplies
    the fiber by the shift element twisted by the current time, on (2, n)
    complex rows in the residual's frame, twisting by its ticks alone
    (see the module docstring).  By default the times are joined and split
    into (ti, tf), ti Python ints (an object array) where the level's times
    pass 2^62, and the rows turned out: on the grid (rho = 0) bit for bit
    quat_mul(q, quat_twist(ti, tf, s)) per level, off it the same up to
    rounding.  Returns (ti, tf, q) at to_level, q (n, 4) C-contiguous;
    with radix (RadixTimes, rho, rows), the rows still in the frame,
    which peel_batch takes as they are.  With q None the fiber is neither
    moved nor returned (None in its place); times are the same either way.
    to_level below from_level is a ValueError.  Times are moved in place,
    on the tick arrays made at entry, and the fibers are stepped on their
    own copy, so the caller's arrays are never written.
    """
    if to_level < from_level:
        raise ValueError(f"embed_batch goes up, and to_level {to_level} is below from_level {from_level}")
    levels._built(to_level, levels.max_level + 1)
    if tails.shape[1] < to_level - from_level:
        raise OrbitLeftTruncationError(
            f"orbit left truncation at level {from_level + tails.shape[1]}: "
            "no tail index available"
        )
    T, rho = _to_ticks(levels, from_level, ti, tf)
    q, work, turn = _own_rows(q, rho, levels.grid)
    h = None
    for col, k in enumerate(range(from_level, to_level)):
        lv = levels.level(k)
        T = _join(levels, k, h, T)
        h = tails[:, col].astype(np.int64)
        j = h + (lv.r - 1)
        # fiber twist by the current ticks, before the time moves
        if q is not None:
            q = _fiber_step(q, T, lv.s_fibers, lv.s_cols[j], lv.grid, work[col & 1], work)
        T += lv.ticks[j]
    if radix:
        return RadixTimes(h, T), rho, q
    return (*_from_ticks(levels, _join(levels, to_level, h, T), rho), _fibers_out(q, turn))


def peel_batch(levels: CFLevels, ti, tf, q, from_level: int, to_level: int):
    """Vectorized peeling of a batch down to to_level.

    ti is one array of integer times, int64 or Python ints, with (n, 4)
    fibers q; or a RadixTimes pair (hi, lo) with tf the residual rho and q
    the (2, n) complex rows in the residual's frame, as
    embed_batch(radix=True) returns them, whose first level peels lo and
    adds hi to the shift index it finds.  Returns (valid, ti, tf, q, hs):
    lanes where the point has no representation at to_level are masked out
    of `valid` (their coordinate values are unspecified); hs[:, c] is the
    recovered shift index at level to_level + c, each level writing one
    contiguous row of hs.T.  The levels peel T', the tick below the time (see
    the module docstring), and add the on-grid mask rho == 0 back where the
    floor is read: the fiber step's table, and the exit.  Level k finds the
    shell d = (T' + a~_k D) // 2 a~_k D, so h = hi + d (h = d without hi),
    and the level-k T' is T' - d * 2 a~_k D less the correction's ticks, in
    the base iff -a_k D <= T' < a_k D.  Python-int times return to int64 at
    the first level where they fit (_lane).  Each level multiplies the fiber
    by the inverse shift element twisted by the peeled time, as embed_batch
    does, on rows in the residual's frame ((n, 4) fibers turned in at entry)
    on buffers of their own; q comes back turned out, (n, 4) C-contiguous.
    With q None the fiber is neither moved nor returned (None in its place);
    valid, times and hs are the same either way.  to_level above from_level
    is a ValueError, and so is a RadixTimes pair at to_level equal to
    from_level, whose high digit no level would take in.  Times are peeled
    in place, on the tick array made at entry: no array given, nor the
    read-only broadcasts translate passes, is written.
    """
    if to_level > from_level:
        raise ValueError(f"peel_batch goes down, and to_level {to_level} is above from_level {from_level}")
    levels._built(from_level, levels.max_level + 1)
    if isinstance(ti, RadixTimes):
        if to_level == from_level:
            raise ValueError(f"peel_batch of a RadixTimes pair peels at least one level, "
                             f"and to_level {to_level} is from_level {from_level}")
        hi, T, rho = ti.hi, np.array(ti.lo, copy=True), np.asarray(tf, dtype=float)
    else:
        hi = None
        T, rho = _to_ticks(levels, from_level, ti, tf)
    q, work, turn = _own_rows(q, rho, levels.grid, framed=isinstance(ti, RadixTimes))
    n = len(rho)
    # T becomes the tick below the time, ceil(T + rho) - 1
    below = rho == 0.0
    T -= below
    valid = np.ones(n, dtype=bool)
    hs = np.empty((from_level - to_level, n), dtype=np.int64)
    for col, k in enumerate(range(from_level - 1, to_level - 1, -1)):
        lv = levels.level(k)
        half = lv.a_tilde * levels.grid
        # T becomes the remainder T + a~_k D - d * 2 a~_k D, in [0, 2 a~_k D)
        T += half
        d = T // (2 * half)
        T -= d * (2 * half)
        h = d.astype(np.int64, copy=False)
        h = h if hi is None else hi + h
        hi = None
        ok_h = np.abs(h) <= lv.r - 1
        j = np.clip(h + (lv.r - 1), 0, 2 * lv.r - 2)
        # the level-k time: the remainder less a~_k D and the correction's ticks
        T -= half
        T -= lv.ticks[j].astype(T.dtype, copy=False)
        if T.dtype == object and _lane(levels, k) is np.int64:
            # lost lanes, whose times may pass int64, move to the time 0
            T = np.where(valid & ok_h, T, 0 - below).astype(np.int64)
        a = lv.a * levels.grid
        valid &= ok_h & (T >= -a) & (T < a)
        if q is not None:
            q = _fiber_step(q, T, lv.s_fibers_inv, lv.s_cols[j], lv.grid, work[col & 1], work, below)
        hs[k - to_level] = h
    T += below
    return (valid, *_from_ticks(levels, T, rho), _fibers_out(q, turn), hs.T)


def translate(levels: CFLevels, ti, tf, q, tails, g, from_level: int, to_level: int):
    """peel_batch back to from_level of the batch embedded up to to_level
    with `tails` and moved there by the integer time translate (g, I), the
    fiber (if any) turned by phi_g, the parity twist quat_phi_int.  g is a
    Python int or an integer array, one per lane, to which a one-row batch
    is broadcast; any other dtype is an InexactTranslateError, not a
    truncation.  The top times stay a RadixTimes pair, and rho and the
    fiber rows go from the embed to the peel in the residual's frame, so no
    float fraction is formed and each fiber is turned once in and once out:
    phi_g, a sign on the w row that commutes with phi_rho, is taken in
    their one copy, the broadcast to the lanes.  g = gh * 2 a~_(to-1) +
    gl, 0 <= gl < 2 a~_(to-1), adds gh to the shift digit and gl D ticks to
    the low digit, so no time past 2^62 is formed where the low digit fits
    int64.  to_level at or below from_level is a ValueError: the translate
    moves the digits of at least one embedded level."""
    if to_level == from_level:
        raise ValueError(f"translate embeds at least one level, and to_level {to_level} is from_level {from_level}")
    g = np.asarray(g)
    if g.dtype.kind not in "iu" and not (g.dtype == object and all(isinstance(x, int) for x in g.flat)):
        raise InexactTranslateError(f"translate g must be an integer or integer array, not {g.dtype}: g = {g!r}")
    top, rho, rows = embed_batch(levels, ti, tf, q, tails, from_level, to_level, radix=True)
    radix = 2 * levels.a_tilde(to_level - 1)
    # the digits of g in the low digit's lane, which holds the radix too
    g = g.astype(_lane(levels, to_level - 1), copy=False)
    lanes = np.broadcast_shapes(rho.shape, g.shape)
    if rows is not None:
        q = np.broadcast_to(rows, (2,) + lanes).copy()
        np.negative(q[1], out=q[1], where=np.asarray(g & 1, dtype=bool))
    top = RadixTimes(top.hi + np.asarray(g // radix, dtype=np.int64), top.lo + g % radix * levels.grid)
    return peel_batch(levels, top, np.broadcast_to(rho, lanes), q, to_level, from_level)


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

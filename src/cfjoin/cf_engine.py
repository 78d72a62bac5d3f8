"""The cutting construction for G = R x| SU(2): schedules, levels, cylinders
and the action on finite truncations.

Time coordinates blow up fast (the level-7 base interval half-width exceeds
1e20 under the default schedule), so times are carried in split form: an
exact integer part plus a float fraction in [0, 1).  Vectorized paths use
int64 while magnitudes allow it and fall back to Python-int object arrays
above that; exact set checks use Fractions built from the (exact) floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .groups import (
    GElement,
    SU2Element,
    SU2_I,
    g_mul,
    quat_mul,
    quat_inv,
    quat_normalize,
    quat_phi_int,
    quat_phi_real,
)
from . import equidist
from .equidist import SMapResult, default_alphabet

__all__ = [
    "CFParams",
    "CFLevel",
    "CFLevels",
    "CFPoint",
    "CylinderSet",
    "Block",
    "CFValidationReport",
    "ConditionResult",
    "LevelTooDeepError",
    "OrbitLeftTruncationError",
    "ExpansionTooLargeError",
    "InexactTranslateError",
    "default_params",
    "derive_sequences",
    "level_ratio",
    "build_levels",
    "validate_cf",
    "mu_total_normalizer",
    "cylinder_measure",
    "expand_cylinder",
    "full_block",
    "point_in_cylinder",
    "act",
    "act_time",
    "embed_to_level",
    "normalize_point",
    "sample_point",
    "sample_point_batch",
    "embed_batch",
    "peel_batch",
    "point_eq",
    "level_dump_rows",
    "substream",
]

_INT64_SAFE = 2**62
_FLOAT_EXACT = 2**53


class LevelTooDeepError(OverflowError):
    pass


class OrbitLeftTruncationError(RuntimeError):
    pass


class ExpansionTooLargeError(RuntimeError):
    pass


class InexactTranslateError(ValueError):
    pass


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

    Containment and disjointness of the translated base sets are interval
    arithmetic over exact rationals; the base-interval tiling is pure integer
    arithmetic; finiteness is the ratio-excess series with an explicit tail.
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
        a_next = levels.a(lv.n + 1)
        ivs = []
        for h in lv.h_range():
            t_c = lv.correction_time_fraction(h)
            lo, hi = t_c - lv.a, t_c + lv.a
            ivs.append((lo, hi))
            # (lo, hi] subset (-a_next, a_next] iff lo >= -a_next, hi <= a_next
            if not (lo >= -a_next and hi <= a_next):
                containment_ok = False
                worst = f"level {lv.n}, h={h}"
        ivs.sort()
        for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
            if lo2 < hi1:
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
# points, embedding, peeling, acting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CFPoint:
    """Point in factored form: level coordinate plus tail of shift indices.

    The level coordinate is (t_int + t_frac, quaternion) with t_frac in [0,1);
    tail[k] is the H-index consumed when embedding from level+k to level+k+1.
    """

    level: int
    t_int: int
    t_frac: float
    q: tuple[float, float, float, float]
    tail: tuple[int, ...]

    def time(self) -> float:
        return self.t_int + self.t_frac

    def quat(self) -> np.ndarray:
        return np.array(self.q)

    def fiber(self) -> SU2Element:
        return SU2Element.from_array(self.quat())


def _split(t: float) -> tuple[int, float]:
    ti = math.floor(t)
    return int(ti), t - ti


def _in_base_interval(ti: int, tf: float, a: int) -> bool:
    # (t_int + t_frac) in (-a, a]
    if -a < ti < a:
        return True
    if ti == -a:
        return tf > 0.0
    if ti == a:
        return tf == 0.0
    return False


def sample_point(
    levels: CFLevels,
    truncation: int,
    rng: np.random.Generator,
    level: int = 1,
    h_minus: bool = False,
) -> CFPoint:
    """Point with uniform time on the level base, Haar fiber, uniform tail.

    With h_minus the tail indices are rejected into the shrunken ranges
    |h_k| < (1 - k^{-2}) r_k used when selecting generic points for the
    window averages (keeps every translate inside the next frame).
    """
    a = levels.a(level)
    t = rng.uniform(-a, a)
    ti, tf = _split(t)
    q = quat_normalize(rng.standard_normal(4))
    tail = []
    for k in range(level, min(level + truncation, levels.max_level + 1)):
        r = levels.level(k).r
        bound = r - 1
        if h_minus:
            bound = max(min(bound, math.floor((1 - 1.0 / k**2) * r)), 1)
        tail.append(int(rng.integers(-bound, bound + 1)))
    return CFPoint(level, ti, tf, (q[0], q[1], q[2], q[3]), tuple(tail))


def _embed_once(p: CFPoint, levels: CFLevels) -> CFPoint:
    if not p.tail:
        raise OrbitLeftTruncationError(
            f"orbit left truncation at level {p.level}: no tail index available"
        )
    lv = levels.level(p.level)
    h = p.tail[0]
    j = h + (lv.r - 1)
    ti = p.t_int + int(lv.s_shell[j]) + 2 * h * lv.a_tilde
    tf = p.t_frac + float(lv.s_u[j])
    if tf >= 1.0:
        tf -= 1.0
        ti += 1
    s_eff = quat_phi_real(p.t_frac, quat_phi_int(p.t_int, lv.s_quat[j]))
    q = quat_mul(np.array(p.q), s_eff)
    return CFPoint(p.level + 1, ti, tf, tuple(float(v) for v in q), p.tail[1:])


def embed_to_level(p: CFPoint, levels: CFLevels, to_level: int) -> CFPoint:
    while p.level < to_level:
        p = _embed_once(p, levels)
    return p


def _peel_once(p: CFPoint, levels: CFLevels) -> Optional[CFPoint]:
    if p.level == 0:
        return None
    lv = levels.level(p.level - 1)
    two = 2 * lv.a_tilde
    q0, r0 = divmod(p.t_int + lv.a_tilde, two)
    h = int(q0) if (r0 > 0 or p.t_frac > 0.0) else int(q0) - 1
    if abs(h) > lv.r - 1:
        return None
    j = h + (lv.r - 1)
    ti = p.t_int - 2 * h * lv.a_tilde - int(lv.s_shell[j])
    tf = p.t_frac - float(lv.s_u[j])
    if tf < 0.0:
        tf += 1.0
        ti -= 1
    if not _in_base_interval(ti, tf, lv.a):
        return None
    s_inv_eff = quat_phi_real(tf, quat_phi_int(ti, lv.s_quat_inv[j]))
    q = quat_mul(np.array(p.q), s_inv_eff)
    return CFPoint(p.level - 1, ti, tf, tuple(float(v) for v in q), (h,) + p.tail)


def normalize_point(p: CFPoint, levels: CFLevels) -> CFPoint:
    """Peel to the lowest level at which the point is defined."""
    while True:
        lower = _peel_once(p, levels)
        if lower is None:
            return p
        p = lower


def act(g: GElement, x: CFPoint, levels: CFLevels) -> CFPoint:
    """Left action of g: raise the level until g*f fits the base, then apply.

    The result stays at the raised level; use normalize_point to peel back.
    """
    if abs(g.t) >= _FLOAT_EXACT:
        raise InexactTranslateError(
            f"time {g.t!r} is at or above 2^53, where a float no longer carries "
            "an exact integer translate; use act_time for integer translates"
        )
    gi, gf = _split(g.t)
    p = x
    while True:
        ti = p.t_int + gi
        tf = p.t_frac + gf
        if tf >= 1.0:
            tf -= 1.0
            ti += 1
        if _in_base_interval(ti, tf, levels.a(p.level)):
            break
        p = _embed_once(p, levels)
    twisted = quat_phi_real(gf, quat_phi_int(gi, np.array(p.q)))
    q = quat_mul(g.m.array(), twisted)
    return CFPoint(p.level, ti, tf, tuple(float(v) for v in q), p.tail)


def act_time(g_int: int, x: CFPoint, levels: CFLevels) -> CFPoint:
    """Action of the integer time translate (g_int, I); exact arithmetic."""
    p = x
    while True:
        ti = p.t_int + g_int
        if _in_base_interval(ti, p.t_frac, levels.a(p.level)):
            break
        p = _embed_once(p, levels)
    q = quat_phi_int(g_int, np.array(p.q))
    return CFPoint(p.level, ti, p.t_frac, tuple(float(v) for v in q), p.tail)


def point_eq(x: CFPoint, y: CFPoint, levels: CFLevels, tol: float = 1e-9) -> bool:
    """Equality as points of the inductive-limit space (compare at a common level)."""
    top = max(x.level, y.level)
    xe = embed_to_level(x, levels, top)
    ye = embed_to_level(y, levels, top)
    if xe.t_int != ye.t_int or abs(xe.t_frac - ye.t_frac) > tol:
        return False
    if max(abs(a - b) for a, b in zip(xe.q, ye.q)) > tol:
        return False
    return xe.tail[: len(ye.tail)] == ye.tail[: len(xe.tail)]


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


def _parity(ti: np.ndarray) -> np.ndarray:
    if ti.dtype == object:
        return np.array([int(v) & 1 for v in ti], dtype=np.int64)
    return (ti % 2).astype(np.int64)


def embed_batch(levels: CFLevels, ti, tf, q, tails, from_level: int, to_level: int):
    """Vectorized embedding of a batch from from_level up to to_level.

    tails columns are consumed in order; the integer time lane switches to
    Python ints once the target magnitudes no longer fit int64 safely.
    Returns (ti, tf, q) at to_level.
    """
    ti = np.array(ti, copy=True)
    tf = np.array(tf, dtype=float, copy=True)
    q = np.array(q, dtype=float, copy=True)
    col = 0
    for k in range(from_level, to_level):
        lv = levels.level(k)
        h = tails[:, col].astype(np.int64)
        col += 1
        j = h + (lv.r - 1)
        # fiber twist by the current time, before the time moves
        s_eff = quat_phi_real(tf, quat_phi_int(_parity(ti), lv.s_quat[j]))
        q = quat_mul(q, s_eff)
        step = 2 * lv.a_tilde
        if levels.a(k + 1) + step >= _INT64_SAFE and ti.dtype != object:
            ti = ti.astype(object)
        if ti.dtype == object:
            incr = np.array([int(v) * step for v in h], dtype=object)
            ti = ti + incr + lv.s_shell[j].astype(object)
        else:
            ti = ti + h * np.int64(step) + lv.s_shell[j]
        tf = tf + lv.s_u[j]
        carry = tf >= 1.0
        tf = np.where(carry, tf - 1.0, tf)
        ti = ti + carry.astype(int if ti.dtype == object else np.int64)
    return ti, tf, q


def peel_batch(levels: CFLevels, ti, tf, q, from_level: int, to_level: int):
    """Vectorized peeling of a batch down to to_level.

    Returns (valid, ti, tf, q, hs): lanes where the point has no
    representation at to_level are masked out of `valid` (their coordinate
    values are unspecified); hs[:, c] is the recovered shift index at level
    to_level + c.
    """
    ti = np.array(ti, copy=True)
    tf = np.array(tf, dtype=float, copy=True)
    q = np.array(q, dtype=float, copy=True)
    n = len(tf)
    valid = np.ones(n, dtype=bool)
    hs = np.zeros((n, from_level - to_level), dtype=np.int64)
    for k in range(from_level - 1, to_level - 1, -1):
        lv = levels.level(k)
        two = 2 * lv.a_tilde
        if ti.dtype == object:
            q0 = (ti + lv.a_tilde) // two
            r0 = (ti + lv.a_tilde) - q0 * two
            zero_rem = np.array([int(v) == 0 for v in r0])
        else:
            q0, r0 = np.divmod(ti + np.int64(lv.a_tilde), np.int64(two))
            zero_rem = r0 == 0
        h = q0 - (zero_rem & (tf == 0.0)).astype(int if ti.dtype == object else np.int64)
        if ti.dtype == object:
            h = np.array([int(v) for v in h], dtype=np.int64)
        ok_h = np.abs(h) <= lv.r - 1
        j = np.clip(h + (lv.r - 1), 0, 2 * lv.r - 2)
        if ti.dtype == object:
            ti = ti - np.array([int(v) * two for v in h], dtype=object) - lv.s_shell[j].astype(object)
        else:
            ti = ti - h * np.int64(two) - lv.s_shell[j]
        tf = tf - lv.s_u[j]
        borrow = tf < 0.0
        tf = np.where(borrow, tf + 1.0, tf)
        ti = ti - borrow.astype(int if ti.dtype == object else np.int64)
        if ti.dtype == object and levels.a(k) + two < _INT64_SAFE:
            safe = np.array(
                [int(v) if ok else 0 for v, ok in zip(ti, valid & ok_h)], dtype=np.int64
            )
            ti = safe
        if ti.dtype == object:
            in_lo = np.array([int(v) > -lv.a or (int(v) == -lv.a and f > 0.0) for v, f in zip(ti, tf)])
            in_hi = np.array([int(v) < lv.a or (int(v) == lv.a and f == 0.0) for v, f in zip(ti, tf)])
            ok_t = in_lo & in_hi
        else:
            a = np.int64(lv.a)
            ok_t = ((ti > -a) | ((ti == -a) & (tf > 0.0))) & ((ti < a) | ((ti == a) & (tf == 0.0)))
        s_inv_eff = quat_phi_real(tf, quat_phi_int(_parity(ti), lv.s_quat_inv[j]))
        q = quat_mul(q, s_inv_eff)
        valid &= ok_h & ok_t
        hs[:, k - to_level] = h
    return valid, ti, tf, q, hs


# ---------------------------------------------------------------------------
# cylinder sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """One measurable block of a cylinder base: a half-open time interval
    crossed with a fiber part.

    fiber is "full" (all of SU(2)) or "cube" (a chart cube, optionally
    right-translated by `translator`: membership means x * translator^{-1}
    lands in interval x cube).
    """

    lo: Fraction
    hi: Fraction
    fiber: str = "full"
    cube: Optional[tuple[tuple[float, float], ...]] = None
    translator: Optional[GElement] = None

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
    return Block(Fraction(lo), Fraction(hi), "full")


def cylinder_measure(
    c: CylinderSet,
    levels: CFLevels,
    samples: int = 100_000,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, float]:
    """Measure of a cylinder: exact for full-fiber blocks, else Monte Carlo.

    mu([A]_n) = lambda(A)/lambda(F_n) * mu(X_n); the time part is exact
    rational arithmetic, cube fibers are estimated with reported stderr from
    draws of `rng`, which a cylinder with a cube fiber requires.
    """
    mu_xn = levels.mu_xn(c.level)
    a = levels.a(c.level)
    if all(b.fiber == "full" for b in c.blocks):
        frac = c.total_length() / (2 * a)
        return float(frac) * mu_xn, 0.0
    value = 0.0
    var = 0.0
    for b in c.blocks:
        if b.fiber == "full":
            value += float(b.length() / (2 * a)) * mu_xn
            continue
        if rng is None:
            raise ValueError("a cube-fiber block is measured by Monte Carlo and needs an rng")
        width = float(b.length())
        t = rng.uniform(float(b.lo), float(b.hi), size=samples)
        q = quat_normalize(rng.standard_normal((samples, 4)))
        if b.translator is not None:
            ginv_t = -b.translator.t
            ginv_q = quat_phi_real(ginv_t, quat_inv(b.translator.m.array()))
            q = quat_mul(q, quat_phi_real(t, np.broadcast_to(ginv_q, q.shape)))
        u = equidist.su2_to_chart_array(q)
        inside = np.ones(samples, dtype=bool)
        for dim, (lo_b, hi_b) in enumerate(b.cube):
            inside &= (u[:, dim] >= lo_b) & (u[:, dim] < hi_b)
        p = float(np.mean(inside))
        value += p * width / (2 * a) * mu_xn
        var += (p * (1 - p) / samples) * (width / (2 * a) * mu_xn) ** 2
    return value, math.sqrt(var)


def expand_cylinder(
    c: CylinderSet, to_level: int, levels: CFLevels, max_blocks: int = 4_000_000
) -> CylinderSet:
    """Rewrite a cylinder at a deeper level by translating every block through
    all level corrections; the block count multiplies by #C at each step."""
    if to_level < c.level:
        raise ValueError("to_level must be >= cylinder level")
    blocks = list(c.blocks)
    for k in range(c.level, to_level):
        lv = levels.level(k)
        if len(blocks) * lv.card_c_next > max_blocks:
            raise ExpansionTooLargeError(
                f"expansion too large: {len(blocks) * lv.card_c_next} blocks"
            )
        new_blocks = []
        for h in lv.h_range():
            t_c = lv.correction_time_fraction(h)
            for b in blocks:
                if b.fiber == "full":
                    new_blocks.append(Block(b.lo + t_c, b.hi + t_c, "full"))
                else:
                    corr = GElement(
                        float(t_c),
                        SU2Element.from_array(lv.s_quat[h + lv.r - 1], renormalize=False),
                    )
                    trans = corr if b.translator is None else g_mul(b.translator, corr)
                    new_blocks.append(Block(b.lo + t_c, b.hi + t_c, "cube", b.cube, trans))
        blocks = new_blocks
    out = CylinderSet(to_level, blocks)
    out.validate(levels)
    return out


def point_in_cylinder(p: CFPoint, c: CylinderSet, levels: CFLevels) -> bool:
    """Membership of a point in a cylinder (peeling or embedding as needed)."""
    x = p
    while x.level > c.level:
        lower = _peel_once(x, levels)
        if lower is None:
            return False
        x = lower
    if x.level < c.level:
        x = embed_to_level(x, levels, c.level)
    t = Fraction(x.t_int) + Fraction(x.t_frac)
    for b in c.blocks:
        if not (b.lo < t <= b.hi):
            continue
        if b.fiber == "full":
            return True
        q = x.quat()
        if b.translator is not None:
            ginv_t = -b.translator.t
            ginv_q = quat_phi_real(ginv_t, quat_inv(b.translator.m.array()))
            q = quat_mul(q, quat_phi_real(x.t_frac, quat_phi_int(x.t_int, ginv_q)))
        u = equidist.su2_to_chart_array(q)
        return all(lo_b <= u[dim] < hi_b for dim, (lo_b, hi_b) in enumerate(b.cube))
    return False


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

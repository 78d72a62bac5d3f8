"""Batch experiment runners wiring all modules, with machine-readable reports.

Every runner returns a CheckReport whose numeric claims carry their
tolerances, plus optional CSV tables.  Anchors are the short labels of the
identities and estimates being checked, so reports can be grepped against
the design notes.  All randomness flows through named substreams of the
config seed; rerunning a config byte-reproduces every artifact.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import cf_engine, cocycles, equidist, joinings, rank_one
from .cf_engine import CFLevels, CFParams, substream
from .groups import (
    D6_LABELS,
    D6_MUL,
    GElement,
    SU2_H0,
    SU2_I,
    SU2Element,
    conj_star,
    g_inv,
    g_mul,
    is_central,
    quat_inv,
    quat_mul,
    quat_normalize,
    quat_phi_real,
    quat_twist,
)

__all__ = [
    "ExperimentConfig",
    "CheckReport",
    "Metric",
    "run_groups",
    "run_sequences",
    "run_validate_cf",
    "run_equidist",
    "run_sample_sets",
    "run_weak_mixing",
    "run_lemma62",
    "run_fubini",
    "run_joining_classification",
    "run_counterexample_51",
    "run_nonuniqueness_42",
    "emit_report",
    "EXPERIMENTS",
    "check_builds",
]


# ---------------------------------------------------------------------------
# config and report containers
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One run's settings.  seed (at least 0) and mc_samples (at least 1) go
    through config_int, output_dir is a string, and weakmix_levels is a
    non-empty, strictly increasing list or tuple of ints from 1, kept as a
    tuple: the weakmix trend check reads them in order."""

    seed: int = 0
    construction: CFParams = field(default_factory=CFParams)
    mc_samples: int = 1_000_000
    output_dir: str = "out"
    weakmix_levels: tuple[int, ...] = (2, 3, 4, 5, 6)

    def __post_init__(self):
        self.seed = cf_engine.config_int(self.seed, "seed")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, not {self.seed}")
        self.mc_samples = cf_engine.config_int(self.mc_samples, "mc_samples")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be a positive int, not {self.mc_samples}")
        if not isinstance(self.output_dir, str):
            raise TypeError(f"output_dir must be a string, not {self.output_dir!r}")
        if not isinstance(self.weakmix_levels, (list, tuple)) or not self.weakmix_levels:
            raise ValueError(f"weakmix_levels must be a non-empty list, not {self.weakmix_levels!r}")
        levels = [cf_engine.config_int(n, "weakmix_levels") for n in self.weakmix_levels]
        if min(levels) < 1:
            raise ValueError(f"weakmix_levels must be at least 1, not {levels}")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError(f"weakmix_levels must be strictly increasing, not {levels}")
        self.weakmix_levels = tuple(levels)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "construction": self.construction.to_json(),
            "mc_samples": self.mc_samples,
            "output_dir": self.output_dir,
            "weakmix_levels": list(self.weakmix_levels),
        }

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        cf_engine.check_config_keys(data, [f.name for f in fields(ExperimentConfig)], "experiment")
        if "construction" in data:
            data = data | {"construction": CFParams.from_json(data["construction"])}
        return ExperimentConfig(**data)


@dataclass
class Metric:
    name: str
    value: float
    tolerance: Optional[float] = None
    stderr: Optional[float] = None
    passed: Optional[bool] = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "value": float(self.value)}
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        if self.stderr is not None:
            out["stderr"] = float(self.stderr)
        if self.passed is not None:
            out["passed"] = bool(self.passed)
        return out


@dataclass
class CheckReport:
    name: str
    anchor: str
    metrics: list[Metric] = field(default_factory=list)
    csv_tables: dict = field(default_factory=dict)  # filename -> (header, rows)

    @property
    def status(self) -> str:
        return "pass" if all(m.passed is not False for m in self.metrics) else "fail"

    def add(self, name, value, tolerance=None, stderr=None, passed=None) -> None:
        self.metrics.append(Metric(name, float(value), tolerance, stderr, passed))

    def as_dict(self) -> dict:
        return {
            "experiment": self.name,
            "status": self.status,
            "anchors": self.anchor,
            "metrics": [m.as_dict() for m in self.metrics],
        }


def _levels_cache(cfg: ExperimentConfig) -> CFLevels:
    return _build_levels(cfg.seed, cfg.construction)


@functools.cache
def _build_levels(seed: int, params: CFParams) -> CFLevels:
    """Levels of one construction, built once per process and shared by the
    runners; `_build_levels.cache_clear()` forces a rebuild.  A schedule
    that fails a level's distribution test is a ValueError naming it."""
    try:
        return cf_engine.build_levels(params, seed=seed)
    except equidist.DistributionTestError as exc:
        raise ValueError(
            f"the construction with r_schedule floor {params.r_floor}, power "
            f"{params.r_power} and alphabet size {params.alphabet_size} does "
            f"not build at seed {seed}: {exc}"
        ) from exc


def _alt_seeds(seed: int) -> tuple[int, ...]:
    """The seeds of the three constructions re-drawn for a quenched sigma."""
    return tuple(seed + 1009 * (i + 1) for i in range(3))


def _quenched_sigma(cfg: ExperimentConfig, value: float, estimate) -> float:
    """Spread of a quantity over the correction-map draw: the sample std of
    `value` and of `estimate(levels, i)` on the construction re-drawn under
    the three alternate seeds i = 0, 1, 2."""
    alts = [
        estimate(_build_levels(seed, cfg.construction), i)
        for i, seed in enumerate(_alt_seeds(cfg.seed))
    ]
    return float(np.std([value] + alts, ddof=1))


# the experiments that read the construction, those of them that also read
# it re-drawn for a quenched sigma, and those that read its measure
_READS_LEVELS = ("sequences", "validate-cf", "sample-sets", "weakmix", "lemma62", "joinings")
_QUENCHED = ("weakmix", "lemma62")
_READS_MEASURE = ("sequences", "weakmix", "joinings")


def _build_seeds(cfg: ExperimentConfig, name: str) -> tuple[int, ...]:
    """The seeds of the constructions experiment `name` builds: none, the
    config seed, or the config seed and the alternate seeds of its
    quenched sigma."""
    if name not in _READS_LEVELS:
        return ()
    return (cfg.seed,) + (_alt_seeds(cfg.seed) if name in _QUENCHED else ())


def check_builds(cfg: ExperimentConfig, names: Sequence[str]) -> None:
    """ValueError unless the experiments `names` can run on cfg: its
    max_level reaches min_max_level of each, it carries a finite measure if
    one of them reads the measure (DivergentScheduleError from
    mu_total_normalizer), and its construction builds at every seed they
    read.  Finiteness is decided first, from the power alone: a
    divergent schedule builds at the config seed only, so that one that
    also does not build is one ValueError naming both faults, and the
    alternate seeds are never built for it.  The builds fill the runners'
    shared cache, so a schedule that does not build fails before any
    experiment runs."""
    level = cfg.construction.max_level
    needs = {name: min_max_level(cfg, name) for name in names}
    if short := [name for name, need in needs.items() if need > level]:
        need = max(needs[name] for name in short)
        raise ValueError(
            f"max level {level} is below {need}, the smallest at which "
            f"{', '.join(short)} can run; pass --level {need} or higher"
        )
    if any(name in _READS_MEASURE for name in names):
        try:
            cf_engine.mu_total_normalizer(cfg.construction)
        except cf_engine.DivergentScheduleError as divergent:
            try:
                _build_levels(cfg.seed, cfg.construction)
            except ValueError as unbuilt:
                raise ValueError(f"{divergent}; and {unbuilt}") from unbuilt
            raise
    for seed in sorted({seed for name in names for seed in _build_seeds(cfg, name)}):
        _build_levels(seed, cfg.construction)


# ---------------------------------------------------------------------------
# group arithmetic experiment
# ---------------------------------------------------------------------------

def run_groups(cfg: ExperimentConfig) -> CheckReport:
    rep = CheckReport("groups", "tabelka;C(G);phi-period")
    # exhaustive D6 associativity over all 216 triples and the two table reads
    x, y, z = np.indices((6, 6, 6))
    assoc = bool(np.array_equal(D6_MUL[D6_MUL[x, y], z], D6_MUL[x, D6_MUL[y, z]]))
    rep.add("d6-associativity-216", 1.0 if assoc else 0.0, passed=assoc)
    a, b = D6_LABELS.index("a"), D6_LABELS.index("b")
    ab, ba = D6_LABELS[D6_MUL[a, b]], D6_LABELS[D6_MUL[b, a]]
    rep.add("d6-ab-is-d", 1.0 if ab == "d" else 0.0, passed=ab == "d")
    rep.add("d6-ba-is-f", 1.0 if ba == "f" else 0.0, passed=ba == "f")

    rng = substream(cfg.seed, "groups")
    n = 10_000
    t1 = rng.uniform(-3, 3, size=n)
    t2 = rng.uniform(-3, 3, size=n)
    m1 = quat_normalize(rng.standard_normal((n, 4)))
    m2 = quat_normalize(rng.standard_normal((n, 4)))
    m3 = quat_normalize(rng.standard_normal((n, 4)))
    t3 = rng.uniform(-3, 3, size=n)
    tl, ml = g_mul(*g_mul(t1, m1, t2, m2), t3, m3)
    tr, mr = g_mul(t1, m1, *g_mul(t2, m2, t3, m3))
    worst_assoc = float(max(np.max(np.abs(tl - tr)), np.max(np.abs(ml - mr))))

    worst_phi_add = float(
        np.max(np.abs(quat_phi_real(t1 + t2, m3) - quat_phi_real(t1, quat_phi_real(t2, m3))))
    )
    worst_phi2 = float(np.max(np.abs(quat_phi_real(np.full(n, 2.0), m1) - m1)))
    # check x x^{-1} lands at the identity
    te, me = g_mul(t1, m1, *g_inv(t1, m1))
    ident = np.zeros((n, 4))
    ident[:, 0] = 1.0
    worst_inv = float(max(np.max(np.abs(te)), np.max(np.abs(me - ident))))
    ts, ms = conj_star(*conj_star(t1, m1))
    worst_star = float(max(np.max(np.abs(ts - t1)), np.max(np.abs(ms - m1))))
    tol = 1e-12
    rep.add("g-associativity-max", worst_assoc, tolerance=tol, passed=worst_assoc <= tol)
    rep.add("phi-additivity-max", worst_phi_add, tolerance=tol, passed=worst_phi_add <= tol)
    rep.add("phi-period-2-max", worst_phi2, tolerance=tol, passed=worst_phi2 <= tol)
    rep.add("g-inverse-max", worst_inv, tolerance=tol, passed=worst_inv <= tol)
    rep.add("star-involution-max", worst_star, tolerance=tol, passed=worst_star <= tol)

    central = is_central(GElement(2.0, SU2_I), 10_000, substream(cfg.seed, "central-2I"))
    rep.add("central-2I", 1.0 if central else 0.0, passed=central)
    nc1 = is_central(GElement(1.0, SU2_I), 200, substream(cfg.seed, "central-1I"))
    rep.add("noncentral-1I-witnessed", 0.0 if nc1 else 1.0, passed=not nc1)
    nc2 = is_central(GElement(0.0, SU2_H0), 200, substream(cfg.seed, "central-h0"))
    rep.add("noncentral-h0-witnessed", 0.0 if nc2 else 1.0, passed=not nc2)
    return rep


# ---------------------------------------------------------------------------
# sequences / validation experiments
# ---------------------------------------------------------------------------

def run_sequences(cfg: ExperimentConfig) -> CheckReport:
    rep = CheckReport("sequences", "jk1;eq:inpart;eq:9;y4")
    params = cfg.construction
    seq = cf_engine.derive_sequences(params, 8)
    rep.add("a0", seq[0][0], passed=seq[0] == (1, 1))
    ok_rec = True
    for n in range(8):
        a_next = seq[n][1] * (2 * params.r(n) - 1)
        at_next = a_next + (2 * n + 1) * seq[n][1]
        ok_rec &= seq[n + 1] == (a_next, at_next)
    rep.add("recursion-exact-to-8", 1.0 if ok_rec else 0.0, passed=ok_rec)

    # ratio identity: a~_n / a_n = 1 + (2n-1)/(2 r_{n-1} - 1), exact rationals
    worst = 0.0
    exact = True
    for n in range(1, 8):
        lhs = cf_engine.level_ratio(seq, n)
        rhs = 1 + Fraction(2 * n - 1, 2 * params.r(n - 1) - 1)
        exact &= lhs == rhs
        worst = max(worst, abs(float(lhs) - float(rhs)))
    rep.add("ratio-identity-max-err", worst, tolerance=1e-12, passed=exact)

    mu0, tail = cf_engine.mu_total_normalizer(params)
    rep.add("mu-x0", mu0)
    rep.add("mu-tail-bound", tail, tolerance=1e-6, passed=tail < 1e-6)

    # consistency mu(X_{n+1}) = ratio_n mu(X_n)
    levels = _levels_cache(cfg)
    worst = max(
        abs(levels.mu_xn(n + 1) - float(cf_engine.level_ratio(seq, n)) * levels.mu_xn(n))
        for n in range(6)
    )
    rep.add("mu-consistency-max", worst, tolerance=1e-12, passed=worst <= 1e-12)

    # cylinder consistency: mu([A]_n) = #C_{n+1} mu([A c]_{n+1}) for full fibers
    lv = levels.level(1)
    lo, hi = Fraction(-30), Fraction(55)
    v1 = cf_engine.cylinder_measure(levels, 1, lo, hi)
    t_c = lv.correction_time_fraction(3)
    v2 = cf_engine.cylinder_measure(levels, 2, lo + t_c, hi + t_c)
    err = abs(v1 - lv.card_c_next * v2)
    rep.add("cylinder-y4-consistency", err, tolerance=1e-12, passed=err <= 1e-12)

    rows = cf_engine.level_dump_rows(levels)
    rep.csv_tables["sequences.csv"] = (
        ["n", "a", "a_tilde", "card_C", "ratio"],
        [[r["n"], r["a"], r["a_tilde"], r["card_C"], repr(r["ratio"])] for r in rows],
    )
    return rep


def run_validate_cf(cfg: ExperimentConfig) -> CheckReport:
    rep = CheckReport("validate-cf", "w:fo;w:2;w:3;w:4;6-9;eq:9")
    levels = _levels_cache(cfg)
    for name, passed in cf_engine.validate_cf(levels).items():
        rep.add(name, 1.0 if passed else 0.0, passed=passed)
    return rep


# ---------------------------------------------------------------------------
# discrepancy / chart experiments
# ---------------------------------------------------------------------------

def _lipschitz_family(rng: np.random.Generator, count: int):
    """Random low-order trig polynomials with known integral and Lipschitz
    constant; returns (callable, integral, L) triples."""
    out = []
    for _ in range(count):
        coef = rng.uniform(-1, 1, size=(3, 2))
        c0 = float(rng.uniform(-1, 1))
        lip = float(sum(2 * math.pi * (m + 1) * (abs(a) + abs(b)) for m, (a, b) in enumerate(coef)))

        def f(x, coef=coef, c0=c0):
            x = np.asarray(x)
            val = np.full(x.shape, c0)
            for m, (a, b) in enumerate(coef):
                val = val + a * np.sin(2 * math.pi * (m + 1) * x) + b * np.cos(
                    2 * math.pi * (m + 1) * x
                )
            return val

        out.append((f, c0, lip))
    return out


def run_equidist(cfg: ExperimentConfig) -> CheckReport:
    rep = CheckReport("equidist", "dyskrepancja;hlawka;oxtoby")
    # exact grid discrepancies
    for n in (10, 100, 1000):
        d = equidist.star_discrepancy(np.arange(n), n)
        rep.add(f"grid-dstar-{n}", float(d), tolerance=0.0, passed=d == Fraction(1, n))

    # radical-inverse checkpoints: points 1 .. 2^14 of the base-2 sequence
    # are multiples of 2^-15 (index 2^14 is 2^-15), so their numerators over
    # 2^15 are exact
    den = 2**15
    seq = equidist.van_der_corput(2**14)
    numerators = (seq * den).astype(np.int64)
    prev = None
    mono = True
    for k in range(8, 15):
        d = equidist.star_discrepancy(numerators[: 2**k], den)
        if prev is not None and d > prev:
            mono = False
        rep.add(f"vdc-dstar-2^{k}", float(d))
        prev = d
    rep.add("vdc-monotone-checkpoints", 1.0 if mono else 0.0, passed=mono)

    # quantitative bound dominates empirical integration error
    rng = substream(cfg.seed, "lipschitz")
    pts = seq[:1024]
    d_star = equidist.star_discrepancy(numerators[:1024], den)
    ok = True
    worst_ratio = 0.0
    for f, integral, lip in _lipschitz_family(rng, 20):
        err = abs(float(np.mean(f(pts))) - integral)
        bound = equidist.koksma_hlawka_bound(lambda d, lip=lip: lip * d, d_star, 1)
        ok &= err <= bound
        worst_ratio = max(worst_ratio, err / bound)
    rep.add("kh-bound-dominates", worst_ratio, tolerance=1.0, passed=ok)

    # chart transport: Haar mass of chart-cube images matches cube volume
    rng = substream(cfg.seed, "chart-cubes")
    qs = equidist.haar_sample_su2(substream(cfg.seed, "haar"), 200_000)
    us = equidist.su2_to_chart_array(qs)
    worst_sigma = 0.0
    for _ in range(50):
        lo = rng.uniform(0.0, 0.6, size=3)
        hi = lo + rng.uniform(0.1, 0.4, size=3)
        hi = np.minimum(hi, 1.0)
        vol = float(np.prod(hi - lo))
        inside = (us[:, 0] >= lo[0]) & (us[:, 0] < hi[0])
        for dim in (1, 2):
            inside &= (us[:, dim] >= lo[dim]) & (us[:, dim] < hi[dim])
        p = float(inside.mean())
        sigma = math.sqrt(max(vol * (1 - vol), 1e-12) / len(qs))
        worst_sigma = max(worst_sigma, abs(p - vol) / sigma)
    rep.add("chart-cube-worst-sigma", worst_sigma, tolerance=3.9, passed=worst_sigma <= 3.9)

    # Haar moments
    mean_coord = float(np.max(np.abs(qs.mean(axis=0))))
    rep.add("haar-mean-coord", mean_coord, tolerance=4 / math.sqrt(len(qs)),
            passed=mean_coord <= 4 / math.sqrt(len(qs)))
    z2 = float(np.mean(qs[:, 0] ** 2 + qs[:, 1] ** 2))
    rep.add("haar-z2-deviation", abs(z2 - 0.5), tolerance=4 / math.sqrt(len(qs)),
            passed=abs(z2 - 0.5) <= 4 / math.sqrt(len(qs)))

    # round trip of the chart
    u = substream(cfg.seed, "roundtrip").uniform(0.05, 0.95, size=(200, 3))
    m = equidist.chart_to_su2_array(u)
    back = equidist.su2_to_chart_array(m)
    rt = float(np.max(np.abs(back - u)))
    rep.add("chart-roundtrip-max", rt, tolerance=1e-10, passed=rt <= 1e-10)
    return rep


# ---------------------------------------------------------------------------
# sample sets: conditional-measure approximation and correction maps
# ---------------------------------------------------------------------------

def _fiber_in_cube(ta, quats, m, cube):
    """Chart-cube test of the fiber m * phi_{ta}(q^{-1}) of a x^{-1}.

    The twist is the closed form `quat_twist` on ta split into floor(ta) and
    ta - floor(ta), a difference that floats hold exactly, so each point
    costs one quaternion product.
    """
    ti = np.floor(ta)
    fib = quat_mul(m.array(), quat_twist(ti.astype(np.int64), ta - ti, quat_inv(quats)))
    u = equidist.su2_to_chart_array(fib)
    inside = np.ones(len(ta), dtype=bool)
    for dim, (lo_b, hi_b) in enumerate(cube):
        inside &= (u[:, dim] >= lo_b) & (u[:, dim] < hi_b)
    return inside


def _last_shell_above(a_t: float, u: np.ndarray, x: float) -> np.ndarray:
    """Largest integer l with a_t - (l + u) > x, for each offset u.

    The float expression is non-increasing in l, so stepping down from a
    guess above the answer stops at the last l passing the test as written.
    """
    l = np.floor(a_t - u - x).astype(np.int64) + 2
    while (above := ~(a_t - (l + u) > x)).any():
        l -= above
    return l


def _sample_set_fraction(ss: equidist.FiniteSampleSet, rects) -> float:
    """Fraction of the virtual sample set in A^{-1} a for every rect =
    (a, (lo, hi], cube): the points x with a.t - x.t in (lo, hi] and, where
    there is a cube, the fiber of a x^{-1} in it (`_fiber_in_cube`).

    Point (l + u_i, q_i) passes a time test exactly on a run of shells l,
    found per i from the float test itself.  The twist has period 2 in time,
    so a fiber test is taken once per residue l = r mod 4, and each run is
    counted by residue: the 2K * count points are never built.
    """
    half, u = ss.half_width, ss.u_time
    lo_l = np.full(len(u), -half, dtype=np.int64)
    hi_l = np.full(len(u), half - 1, dtype=np.int64)
    fiber = np.ones((4, len(u)), dtype=bool)
    for a_elem, (lo, hi), cube in rects:
        lo_l = np.maximum(lo_l, _last_shell_above(a_elem.t, u, hi) + 1)
        hi_l = np.minimum(hi_l, _last_shell_above(a_elem.t, u, lo))
        if cube is not None:
            ta = a_elem.t - (np.arange(4)[:, None] + u[None, :]).ravel()
            quats = np.tile(ss.quats, (4, 1))
            fiber &= _fiber_in_cube(ta, quats, a_elem.m, cube).reshape(4, len(u))
    nonempty = hi_l >= lo_l
    hits = 0
    for r in range(4):
        per_residue = (hi_l - r) // 4 - (lo_l - 1 - r) // 4
        hits += int(np.sum(per_residue, where=nonempty & fiber[r]))
    return hits / ss.size


def _common_length(*intervals):
    """Length of the intersection of the intervals (lo, hi]; 0 if it is empty."""
    return max(min(hi for _, hi in intervals) - max(lo for lo, _ in intervals), 0)


def _simpson(f, lo, hi, breaks):
    """6 times Simpson's rule for f on (lo, hi) between the breaks, on ints:
    exact where f is a cubic between them and each piece's a + b is even."""
    x = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    fx = [f(b) for b in x]
    return sum((b - a) * (fa + 4 * f((a + b) // 2) + fb) for a, b, fa, fb in zip(x, x[1:], fx, fx[1:]))


def _translate_integral(I, J, F, V, W) -> Fraction:
    """The integral over x in V, y in W of |(I + x) n (J + y) n F| for intervals
    (lo, hi], exactly.  In y the integrand is linear between the breaks where
    an end of J + y meets one of I + x or F; in x the inner integral is
    quadratic between the points where two breaks cross or one meets W's end.
    Its ends, read through Fraction, scale by S = 4 lcm(denominators) into 4Z,
    as do the outer breaks d - c: outer midpoints x and inner breaks x + c lie
    in 2Z, inner midpoints in Z.  On these ints the inner `_simpson` is 6 S^2
    times the inner integral (y and lengths scale by S), the outer 36 S^3."""
    intervals = [tuple(map(Fraction, iv)) for iv in (I, J, F, V, W)]
    scale = 4 * math.lcm(*(end.denominator for iv in intervals for end in iv))
    I, J, F, V, W = ([end.numerator * (scale // end.denominator) for end in iv] for iv in intervals)
    moving = [i - j for i in I for j in J]  # the breaks y = x + c
    fixed = [f - j for f in F for j in J]  # the breaks y = c

    def inner(x):
        return _simpson(lambda y: _common_length((I[0] + x, I[1] + x), (J[0] + y, J[1] + y), F),
                        *W, [x + c for c in moving] + fixed)

    return Fraction(_simpson(inner, *V, [d - c for c in moving for d in fixed + W]), 36 * scale**3)


def _rectangle_measure(half: int, rects) -> float:
    """Measure of A^{-1} a for every rect = (a, (lo, hi], cube) under the
    normalised Lebesgue x Haar measure of (-K, K] x SU(2), K = half: the
    clipped window of times t with a.t - t in (lo, hi], times vol(cube):
    q -> m phi_t(q^{-1}) preserves Haar measure, the chart's image of
    Lebesgue measure.  Two cube fibers are not independent: ValueError."""
    cubes = [cube for _, _, cube in rects if cube is not None]
    if len(cubes) > 1:
        raise ValueError("the fiber tests of two cubes are not independent")
    window = _common_length((-half, half), *((a_elem.t - hi, a_elem.t - lo) for a_elem, (lo, hi), _ in rects))
    return window / (2 * half) * math.prod(b - a for cube in cubes for a, b in cube)


def _overlap_pair_sum(u: np.ndarray, half: int, ta: float, wa: float, tb: float, wb: float) -> float:
    """Sum over offsets u_i, u_j and shell shifts |d| < 2K of the tent weight
    2K - |d| times overlap(d + u_i - u_j), in closed form.

    overlap(x) = |((0, wa] + ta + x) n ((0, wb] + tb)| rises with slope 1 on (p0, p1), stays
    min(wa, wb) on [p1, p2] and falls with slope -1 on (p2, p3).  On each piece and each side of d = 0 the summand
    is a product of two linear functions of d, summed by Faulhaber sums.
    """
    c = (u[:, None] - u[None, :]).ravel()
    p0 = tb - ta - wa
    p1, p2, p3 = p0 + min(wa, wb), p0 + max(wa, wb), tb - ta + wb
    # piece j holds the shifts d in [cuts[j], cuts[j + 1])
    cuts = [np.floor(p0 - c) + 1, np.ceil(p1 - c), np.floor(p2 - c) + 1, np.ceil(p3 - c)]
    cuts = [cut.astype(np.int64) for cut in cuts]
    top = 2 * half - 1
    total = 0.0
    for j, slope in enumerate((1, 0, -1)):
        # tent weight w0 + beta * k and overlap v0 + slope * k at d = start + k
        for lo, hi, beta in ((-top, -1, 1), (0, top, -1)):
            start = np.maximum(cuts[j], lo)
            n = np.maximum(np.minimum(cuts[j + 1] - 1, hi) - start + 1, 0)
            w0 = (2 * half + beta * start).astype(float)
            v0 = (start + c - p0, np.full(len(c), min(wa, wb)), p3 - (start + c))[j]
            s1 = (n * (n - 1) // 2).astype(float)
            s2 = ((n - 1) * n * (2 * n - 1) // 6).astype(float)
            total += float(np.sum(n * w0 * v0 + (beta * v0 + slope * w0) * s1 + beta * slope * s2))
    return total


def _mean_overlap(half: int, ta: float, wa: float, tb: float, wb: float) -> float:
    """E |((0, wa] + ta + U) n ((0, wb] + tb + V)| for U, V uniform on (-K, K],
    K = half: `_translate_integral` over (-K, K]^2 / (2K)^2, rounded once."""
    ta, wa, tb, wb, k = map(Fraction, (ta, wa, tb, wb, half))
    reach = (ta - k, ta + wa + k)  # as F: holds every translate, so clips none
    return float(_translate_integral((ta, ta + wa), (tb, tb + wb), reach, (-k, k), (-k, k)) / (2 * k) ** 2)


def run_sample_sets(cfg: ExperimentConfig) -> CheckReport:
    rep = CheckReport("sample-sets", "techniczny-i;techniczny-ii;lm:6.2")
    levels = _levels_cache(cfg)

    for n in (2, 3):
        eps = cfg.construction.eps(n)
        count = 64 if n == 2 else 16  # sample-set elements
        ss = equidist.build_sample_set(n, levels.a_tilde(n - 1), count)
        half = ss.half_width
        rng = substream(cfg.seed, f"techniczny-{n}")

        # containment of every element l + u, -K <= l < K, in the slab
        # (-K, K] (construction constraint): every offset u lies in (0, 1)
        in_slab = bool(np.all((ss.u_time > 0.0) & (ss.u_time < 1.0)))
        rep.add(f"shat-in-slab-n{n}", float(in_slab), passed=in_slab)

        # (i): conditional measures of two-sided translate intersections;
        # rectangles at slab scale so the fractions compared are order 0.1-0.5
        worst = 0.0
        for trial in range(6):
            wa = rng.uniform(0.4, 0.9) * 2 * half
            wb = rng.uniform(0.4, 0.9) * 2 * half
            lo_a = rng.uniform(-0.3, 0.1) * half - wa / 2
            lo_b = rng.uniform(-0.3, 0.1) * half - wb / 2
            cube_a = None
            if trial >= 3:
                clo = rng.uniform(0.0, 0.4, size=3)
                chi = clo + rng.uniform(0.4, 0.6, size=3)
                cube_a = tuple((float(a), float(min(b, 1.0))) for a, b in zip(clo, chi))
            a_el = GElement(float(rng.uniform(-half / 4, half / 4)),
                            SU2Element.from_array(rng.standard_normal(4)))
            b_el = GElement(a_el.t + float(rng.uniform(-3, 3)),
                            SU2Element.from_array(rng.standard_normal(4)))

            rects = ((a_el, (lo_a, lo_a + wa), cube_a), (b_el, (lo_b, lo_b + wb), None))
            exact = _rectangle_measure(half, rects)
            worst = max(worst, abs(exact - _sample_set_fraction(ss, rects)))
        rep.add(f"techniczny-i-n{n}", worst, tolerance=eps, passed=worst < eps)

        # (ii): double averages of the base-overlap kernel.  The kernel is of
        # order K/a_n, so the absolute gate is easy; the relative agreement
        # with the exact mean is reported as the informative quality figure.
        a_n = levels.a(n)
        worst2 = 0.0
        worst2_rel = 0.0
        for _ in range(4):
            wa = rng.uniform(0.5, 1.5) * half
            wb = rng.uniform(0.5, 1.5) * half
            ta = float(rng.uniform(-half, half))
            tb = float(rng.uniform(-half, half))

            exact = _mean_overlap(half, ta, wa, tb, wb) / (2.0 * a_n)
            # the same average over the virtual product set, summed exactly
            total = _overlap_pair_sum(ss.u_time, half, ta, wa, tb, wb)
            ss_val = total / (2.0 * a_n) / (ss.size**2)
            worst2 = max(worst2, abs(exact - ss_val))
            worst2_rel = max(worst2_rel, abs(exact - ss_val) / max(exact, 1e-12))
        rep.add(f"techniczny-ii-n{n}", worst2, tolerance=eps, passed=worst2 < eps)
        rep.add(f"techniczny-ii-rel-n{n}", worst2_rel)

    # correction maps: boundary pinning exact, pair distance below tolerance
    for n in range(1, levels.max_level + 1):
        sm = levels.level(n).s_map
        idx = sm.alphabet.identity_index
        boundary = sm.values[0] == idx and sm.values[-1] == idx
        rep.add(f"smap-boundary-n{n}", 1.0 if boundary else 0.0, passed=bool(boundary))
        if n >= 2:
            rep.add(
                f"smap-pair-l1-n{n}",
                sm.pair_distance,
                tolerance=sm.tolerance,
                passed=sm.pair_distance < sm.tolerance,
            )
            rep.add(f"smap-triple-l1-n{n}", sm.triple_distance)
    return rep


# ---------------------------------------------------------------------------
# weak mixing along the central translates
# ---------------------------------------------------------------------------

def _level1_full_rectangles(levels: CFLevels):
    a1 = levels.a(1)
    A = (Fraction(-a1, 2), Fraction(a1, 4))
    B = (Fraction(-a1, 8), Fraction(a1 * 3, 5))
    return A, B


def _weakmix_deviation(
    levels: CFLevels, n: int, samples: int, rng: np.random.Generator
) -> tuple[float, float, float]:
    """(deviation, stderr, estimate): the deviation |mu(T_{g_n}[A] n [B]) -
    mu[A] mu[B]| for the level-1 rectangles, its Monte Carlo stderr, and the
    estimate of the correlation mu(T_{g_n}[A] n [B]) itself.  Conditions on
    the level-1 part, which contains both cylinders exactly, so the only
    truncation effect is the vanishing mass of translates leaving the deepest
    built frame.  g_n = (2 a~_n, I) moves the level-n shift index, so a build
    without level n raises LevelTooDeepError (the correlation would read 0).
    It moves only time and both rectangles have full fibers, so no fiber is
    drawn and translate moves the points as int64 radix digits.  A hit lies
    in [B] before the translate, so only the rows in [B] go on: the level-1
    times are drawn for every sample and tested against B, and only the kept
    rows get shift indices (sample_tails) and a translate, in ROW_BLOCK
    blocks; p_hat = hits / samples.  translate moves every lane's time as
    integer ticks of 1/D, so no translated time is rounded."""
    g = 2 * levels.level(n).a_tilde
    A, B = _level1_full_rectangles(levels)
    mu_a = cf_engine.cylinder_measure(levels, 1, *A)
    mu_b = cf_engine.cylinder_measure(levels, 1, *B)
    mu1 = levels.mu_xn(1)
    top = min(n + 2, levels.max_level + 1)
    a1 = float(levels.a(1))
    t = rng.uniform(-a1, a1, size=samples)
    t = t[(t > float(B[0])) & (t <= float(B[1]))]
    ti = np.floor(t)
    tf = np.subtract(t, ti, out=t)
    ti = ti.astype(np.int64)
    tails = cf_engine.sample_tails(levels, len(tf), top - 1, rng)
    hits = 0
    for rows in cf_engine.row_blocks(len(tf)):
        valid, ti1, tf1, _, _ = cf_engine.translate(levels, ti[rows], tf[rows], None, tails[rows], g, 1, top)
        t1_shift = ti1.astype(float) + tf1
        hits += int(np.count_nonzero(valid & (t1_shift > float(A[0])) & (t1_shift <= float(A[1]))))
    p_hat = hits / samples
    sigma = mu1 * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / samples)
    return abs(mu1 * p_hat - mu_a * mu_b), sigma, mu1 * p_hat


def run_weak_mixing(cfg: ExperimentConfig) -> CheckReport:
    """Correlation decay along the central translates g_n = (2 a~_n, I).

    Each deviation is tested against the analytic budget
    16(4n+1)/(2n-1)^2 (a_{n-1}/a~_{n-1})^2 + eps_n plus 4 sigma.  The
    deviations carry quenched variability from the level's correction-map
    draw, so the trend check measures that spread by re-drawing the maps
    under alternate seeds and uses the combined sigma.
    """
    rep = CheckReport("weakmix", "gw1;eq:6;eq:7;TisWM")
    levels = _levels_cache(cfg)
    params = cfg.construction
    A, B = _level1_full_rectangles(levels)
    mu_a = cf_engine.cylinder_measure(levels, 1, *A)
    mu_b = cf_engine.cylinder_measure(levels, 1, *B)
    samples = cfg.mc_samples
    rows = []
    devs = {}
    sig_tot = {}
    for n in cfg.weakmix_levels:
        dev, sigma, est = _weakmix_deviation(
            levels, n, samples, substream(cfg.seed, f"weakmix-{n}")
        )
        quenched = _quenched_sigma(cfg, dev, lambda lv, i: _weakmix_deviation(
            lv, n, max(samples // 4, 50_000), substream(cfg.seed, f"weakmix-alt{i}-{n}")
        )[0])
        budget = 16.0 * (4 * n + 1) / (2 * n - 1) ** 2 * (
            levels.a(n - 1) / levels.a_tilde(n - 1)
        ) ** 2 + params.eps(n)
        ok = dev <= budget + 4 * sigma
        rep.add(f"deviation-n{n}", dev, tolerance=budget + 4 * sigma, stderr=sigma, passed=ok)
        devs[n] = dev
        sig_tot[n] = math.sqrt(sigma**2 + quenched**2)
        rows.append([n, repr(est), repr(mu_a * mu_b), repr(dev),
                     repr(budget), repr(sigma), repr(quenched)])
    trend_ok = True
    ns = list(cfg.weakmix_levels)
    for m, n in zip(ns, ns[1:]):
        if devs[n] > devs[m] + 4 * math.sqrt(sig_tot[m] ** 2 + sig_tot[n] ** 2):
            trend_ok = False
    rep.add("trend-non-increasing", 1.0 if trend_ok else 0.0, passed=trend_ok)
    rep.csv_tables["weakmix.csv"] = (
        ["n", "correlation", "product", "deviation", "budget", "stderr", "quenched"],
        rows,
    )
    return rep


# ---------------------------------------------------------------------------
# slab translate overlap estimates
# ---------------------------------------------------------------------------

def _correction_times(lv: cf_engine.CFLevel) -> np.ndarray:
    """Times of the corrections c(h), h in H_n, each float(correction_time_fraction(h))
    bit for bit: the Python-int quotient (2 h a~_n D + ticks) / D, which is
    correctly rounded at any size (level 6 passes 2^63)."""
    return np.array([
        (2 * h * lv.a_tilde * lv.grid + ticks) / lv.grid for h, ticks in zip(lv.h_range(), lv.ticks.tolist())
    ])


def _overlap_deviation(levels: CFLevels, n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean |lambda(A C_n n f S_n)/lambda(S_n) - lambda_F(A)| over 60 sampled
    f, with the f-sampling standard error."""
    at_prev = levels.a_tilde(n - 1)
    k_slab = (2 * n - 1) * at_prev
    lv_prev = levels.level(n - 1)
    a_prev = levels.a(n - 1)
    a_n = levels.a(n)
    width = float(rng.uniform(0.4, 1.2)) * a_prev
    lo_a = float(rng.uniform(-a_prev, a_prev - width))
    target = width / (2 * a_prev)
    offs = _correction_times(lv_prev)
    devs = []
    for _ in range(60):
        t_f = float(rng.uniform(-(a_n - k_slab), a_n - k_slab))
        lo_s, hi_s = t_f - k_slab, t_f + k_slab
        lo_i = np.maximum(offs + lo_a, lo_s)
        hi_i = np.minimum(offs + lo_a + width, hi_s)
        overlap = float(np.sum(np.maximum(hi_i - lo_i, 0.0)))
        devs.append(abs(overlap / (2 * k_slab) - target))
    return float(np.mean(devs)), float(np.std(devs) / math.sqrt(len(devs)))


# the levels n whose slabs run_lemma62 checks
_LEMMA62_LEVELS = (3, 4, 5, 6)


def min_max_level(cfg: ExperimentConfig, name: str) -> int:
    """The smallest construction max_level at which experiment `name` runs.
    A build of max_level L holds levels 0..L and the sequences (a_n, a~_n)
    for n <= L + 1.
    - sequences: 4.  Its mu-consistency check reads mu(X_6), the product of
      the level ratios a~_k / a_k for k <= 5, so a~_5 must be in the build.
    - sample-sets: 2.  Its technical checks at n = 2, 3 read a(n).
    - lemma62: the largest of its levels n less 1, as it reads a(n) and
      level n - 1.
    - weakmix: its largest level n, since g_n = (2 a~_n, I) moves the
      level-n shift index, so on a build of max_level n - 1 every translate
      leaves it.
    - joinings: 4.  The translates of its level-4 window move the level-4
      shift index in the same way; at max_level 3 they leave the build, the
      values there read 0, and diagonal-distance fails.
    The other experiments run on any build."""
    if name == "weakmix":
        return cfg.weakmix_levels[-1]
    if name == "lemma62":
        return max(_LEMMA62_LEVELS) - 1
    return {"sequences": 4, "sample-sets": 2, "joinings": 4}.get(name, 0)


def run_lemma62(cfg: ExperimentConfig) -> CheckReport:
    """Exact symmetric-difference bound for translated slabs, and the
    conditional overlap density of expanded rectangles.

    The overlap deviations inherit quenched variability from the level's
    correction-map draw, so the decay trend is tested with a sigma that
    includes the spread over re-drawn maps (as in the mixing experiment).
    """
    rep = CheckReport("lemma62", "lm:6.2-i;lm:6.2-ii")
    levels = _levels_cache(cfg)

    means = {}
    for n in _LEMMA62_LEVELS:
        at_prev = levels.a_tilde(n - 1)
        k_slab = (2 * n - 1) * at_prev
        # (i): lambda(f S_n delta fhat S_n) <= 4 lambda(F~_{n-1}) for slab
        # centres t, t' in one shell block (-a~, a~) + 2 h a~, with the
        # sandwich inclusions around it.  Every inequality is linear in the
        # centres and invariant under h, so checking them in integers at
        # h = 0 and the block's ends t = -+a~ covers the whole block; the
        # ratio there, 1/2, is its supremum
        ends = (-at_prev, at_prev)
        sym = 2 * (ends[1] - ends[0])  # both slabs have the same width 2 k_slab
        bound = 4 * 2 * at_prev
        ok_i = sym <= bound and all(
            -(2 * n + 1) * at_prev <= t - k_slab <= -(2 * n - 3) * at_prev
            and (2 * n - 3) * at_prev <= t + k_slab <= (2 * n + 1) * at_prev
            for t in ends
        )
        rep.add(f"symdiff-bound-n{n}", sym / bound, tolerance=1.0, passed=ok_i)

        # (ii): lambda(A C_n n f S_n)/lambda(S_n) vs lambda_{F_{n-1}}(A);
        # float interval arithmetic (1e-6 absolute is plenty against
        # deviations of order 1/n)
        mean_dev, sem = _overlap_deviation(levels, n, substream(cfg.seed, f"l62-{n}"))
        quenched = _quenched_sigma(cfg, mean_dev, lambda lv, i: _overlap_deviation(
            lv, n, substream(cfg.seed, f"l62-alt{i}-{n}")
        )[0])
        means[n] = (mean_dev, math.sqrt(sem**2 + quenched**2))
        rep.add(f"overlap-deviation-n{n}", mean_dev, stderr=means[n][1])
    for n in (3, 4):
        later, earlier = means[n + 2], means[n]
        ok = later[0] <= earlier[0] + 4 * math.sqrt(later[1] ** 2 + earlier[1] ** 2)
        rep.add(f"overlap-trend-{n}-to-{n+2}", later[0] - earlier[0], passed=ok)
    return rep


def run_fubini(cfg: ExperimentConfig) -> CheckReport:
    """Two-sided translate averaging: the integral over v, w in S of |(A + v) n
    (B + w) n F| equals the one over a in A, b in B of |(S + a) n (S + b) n F|.
    Both sides are exact Fractions, each in its own order, and must be equal."""
    rep = CheckReport("fubini", "lm:fubini")
    rng = substream(cfg.seed, "fubini")
    worst, positive = Fraction(0), 0
    for trial in range(10):
        wa, wb, ws, wf = rng.uniform(2.0, 12.0, size=4)
        # left ends in (-1, 1) give 1_S * 1_A and 1_S * 1_B a common support longer than 2,
        # which F meets: both sides are positive, where ends in (-20, 20) left them 0
        la, lb, ls = rng.uniform(-1.0, 1.0, size=3)
        wf = 0.0 if trial == 9 else wf  # F empty, both sides 0
        lf = rng.uniform(ls + max(la, lb) - wf, ls + ws + min(la + wa, lb + wb))
        A, B, S, F = ((Fraction(lo), Fraction(lo) + Fraction(w)) for lo, w in ((la, wa), (lb, wb), (ls, ws), (lf, wf)))
        lhs, rhs = _translate_integral(A, B, F, S, S), _translate_integral(S, S, F, A, B)
        worst, positive = max(worst, abs(lhs - rhs)), positive + (lhs > 0)
    rep.add("fubini-max-abs-difference", worst, tolerance=0.0, passed=worst == 0)
    rep.add("fubini-positive-trials", positive, passed=positive == 9)
    return rep


# ---------------------------------------------------------------------------
# joining classification
# ---------------------------------------------------------------------------

def run_joining_classification(cfg: ExperimentConfig) -> CheckReport:
    rep = CheckReport("joinings", "2:1;6-15;metryka")
    levels = _levels_cache(cfg)
    d = joinings.CFDictionary(levels)
    window = joinings.folner_window(4, levels)  # translates reach level 6
    samples = max(cfg.mc_samples // 5, 50_000)

    h0 = SU2_H0.array()
    gk = joinings.graph_joining_target(h0, d)
    gks = joinings.graph_joining_target(conj_star(0.0, h0)[1], d)
    diag = joinings.graph_joining_target(SU2_I.array(), d)
    targets = {
        "product": joinings.product_joining_target(d),
        "graph_k": gk,
        "graph_kstar": gks,
        "mixture": 0.5 * (gk + gks),
    }

    # generic points with every tail the build holds, rejected into the
    # shrunken index ranges so every window translate stays inside the next
    # frame; the independent partner has all tail indices distinct from x's
    rng_pts = substream(cfg.seed, "generic-points")
    x = cf_engine.sample_point_batch(levels, 1, levels.max_level, rng_pts, h_minus=True)
    y = cf_engine.sample_point_batch(levels, 1, levels.max_level, rng_pts, h_minus=True)
    while np.any(x[3] == y[3]):
        y = cf_engine.sample_point_batch(levels, 1, levels.max_level, rng_pts, h_minus=True)

    # x with its fiber partner (0, h0) x, with y, and with itself (the
    # diagonal sanity check), from one pass over one set of window draws
    emp_paired, emp_indep, emp_diag = joinings.empirical_joining(
        x, y, h0, window, d, levels, samples, substream(cfg.seed, "win")
    )
    rows = []
    for case, emp, expect in (
        ("paired", emp_paired, "mixture"),
        ("independent", emp_indep, "product"),
    ):
        # every target is exact, so each distance has the estimate's stderr;
        # the verdict is the first nearest target in insertion order
        dist = {name: joinings.joining_metric(emp.corr, table) for name, table in targets.items()}
        se = joinings.joining_metric_stderr(emp)
        verdict = min(dist, key=dist.get)
        margins_ok = True
        for name in sorted(dist):
            rows.append([case, name, repr(dist[name]), repr(se), "nearest" if name == verdict else ""])
            if name != expect:
                margins_ok &= dist[name] - dist[expect] > 4 * math.sqrt(2 * se**2)
        rep.add(f"{case}-verdict-{expect}", 1.0 if verdict == expect else 0.0,
                passed=verdict == expect)
        rep.add(f"{case}-margins-4sigma", 1.0 if margins_ok else 0.0, passed=margins_ok)

    # diagonal sanity: x paired with itself matches the identity graph table
    d_diag = joinings.joining_metric(emp_diag.corr, diag)
    se_diag = joinings.joining_metric_stderr(emp_diag)
    rep.add("diagonal-distance", d_diag, tolerance=8 * se_diag + 0.02,
            passed=d_diag <= 8 * se_diag + 0.02)

    rep.csv_tables["joinings.csv"] = (
        ["case", "target", "distance", "stderr", "verdict"],
        rows,
    )
    for m in range(2, min(7, levels.max_level + 1)):
        uncovered, size = joinings.shulman_check(m, levels)
        rep.add(f"shulman-n{m}", uncovered / max(size, 1), tolerance=3.0, passed=uncovered <= 3 * size)
    return rep


# ---------------------------------------------------------------------------
# counterexample bundles
# ---------------------------------------------------------------------------

def run_counterexample_51(cfg: ExperimentConfig) -> CheckReport:
    rep = CheckReport("counterexample-51", "f1;niepr;lm:Twm")
    scheme = rank_one.chacon_scheme(18)
    rng = substream(cfg.seed, "c51")

    # transfer equation with zero transfer function, on 1e5 sampled points:
    # psi^(2)(x, s) = s + (phi(x) + s) = phi(x), so the shifted sum vanishes
    samples = 100_000
    x = rank_one.sample_tower_point(scheme, rng, samples)
    s = rng.integers(0, 2, samples)
    phi = cocycles.chacon_z2_phi(scheme, x)
    psi2_s = (s + (phi + s)) % 2
    psi2_s1 = ((s + 1) + (phi + s + 1)) % 2
    ok = not ((psi2_s + psi2_s1) % 2).any()
    # spot-check the displayed double-extension step on every 16th point
    x, s, phi = x[::16], s[::16], phi[::16]
    r = rng.integers(0, 2, len(x))
    _, s2, r2 = cocycles.double_ext_apply(scheme, phi, x, s, r)
    ok &= np.array_equal(s2, (phi + s) % 2) and np.array_equal(r2, (s + r) % 2)
    rep.add("f1-zero-transfer-1e5", 1.0 if ok else 0.0, passed=ok)

    ok_w = cocycles.constant_one_obstruction(scheme)
    rep.add("constant-1-obstruction", 1.0 if ok_w else 0.0, passed=ok_w)

    _, s, r = cocycles.double_extension_orbit(scheme, rng, 100_000)
    thetas = [kk / 64 for kk in range(64)]
    moduli, threshold = cocycles.eigenvalue_probe((-1.0) ** (s + r), thetas)
    rep.add("spectral-probe-max", max(moduli), tolerance=threshold,
            passed=all(m <= threshold for m in moduli))
    rep.csv_tables["spectral.csv"] = (
        ["theta", "modulus", "threshold"],
        [[repr(t), repr(m), repr(threshold)] for t, m in zip(thetas, moduli)],
    )
    return rep


def run_nonuniqueness_42(cfg: ExperimentConfig) -> CheckReport:
    rep = CheckReport("nonuniqueness-42", "1.02b;rrr;tabelka")
    scheme = rank_one.chacon_scheme(18)
    root = cocycles.d6_root_check(scheme, 100_000, substream(cfg.seed, "d6root"))
    rep.add("root-identity-100k", 1.0 if root.root_identity_holds else 0.0,
            passed=root.root_identity_holds)
    rep.add("commutation-witness-found", 1.0 if root.commutation_witness else 0.0,
            passed=root.commutation_witness is not None)
    rep.add("abelian-subgroup-commutes", 1.0 if root.abelian_commutes else 0.0,
            passed=root.abelian_commutes)

    grid_ok = all(
        cocycles.su2_flow_commutation(kk / 64) == (abs(2 * (kk / 64) - round(2 * (kk / 64))) < 1e-12)
        for kk in range(-128, 129)
    )
    rep.add("commutation-grid-1-over-64", 1.0 if grid_ok else 0.0, passed=grid_ok)
    return rep


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[[ExperimentConfig], CheckReport]] = {
    "groups": run_groups,
    "sequences": run_sequences,
    "validate-cf": run_validate_cf,
    "equidist": run_equidist,
    "sample-sets": run_sample_sets,
    "weakmix": run_weak_mixing,
    "lemma62": run_lemma62,
    "fubini": run_fubini,
    "joinings": run_joining_classification,
    "counterexample-51": run_counterexample_51,
    "nonuniqueness-42": run_nonuniqueness_42,
}


def emit_report(reports: Sequence[CheckReport], out_dir: str, cfg: ExperimentConfig) -> int:
    """Write report.json and per-experiment CSVs; exit code 0 iff all pass."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": cfg.to_json(),
        "reports": [r.as_dict() for r in reports],
        "status": "pass" if all(r.status == "pass" for r in reports) else "fail",
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for r in reports:
        for fname, (header, rows) in r.csv_tables.items():
            with open(out / fname, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
    return 0 if payload["status"] == "pass" else 1

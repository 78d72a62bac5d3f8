"""Rank-one cutting-and-stacking Z-automorphisms (Chacon base).

The classical Chacon scheme cuts each tower into three columns and adds one
spacer over the middle column, so heights satisfy h_{n+1} = 3 h_n + 1 and the
symbolic reading of stage n+1 is W W s W.  Level widths shrink by 3 per stage
and the total mass is normalized to 1, which puts the stage-n tower at mass
1 - 3^{-(n+1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = [
    "TowerScheme",
    "TowerPoint",
    "LevelSetUnion",
    "TailExhaustedError",
    "chacon_scheme",
    "tower_apply",
    "tower_apply_inverse",
    "sample_tower_point",
    "stage_level_of",
    "level_width",
    "tower_mass",
    "symbol_word",
    "substitution_word",
    "exact_word_frequency",
    "birkhoff_correlation",
]


class TailExhaustedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TowerScheme:
    """Cutting description: cuts per stage and spacer position.

    Only the classical 3-cut middle-spacer scheme is instantiated, but the
    heights/width bookkeeping is parametric in the number of stages.
    """

    stages: int
    heights: tuple[int, ...]
    cuts: int = 3
    spacer_after_column: int = 1  # one spacer over the middle column

    def height(self, n: int) -> int:
        if n >= len(self.heights):
            raise ValueError(f"stage {n} beyond scheme with {self.stages} stages")
        return self.heights[n]


def chacon_scheme(stages: int) -> TowerScheme:
    """Heights 1, 4, 13, 40, ... (h_{n+1} = 3 h_n + 1)."""
    if stages < 1:
        raise ValueError("stages must be >= 1")
    hs = [1]
    for _ in range(stages - 1):
        hs.append(3 * hs[-1] + 1)
    return TowerScheme(stages=stages, heights=tuple(hs))


def level_width(n: int) -> float:
    """Measure of one rung of the stage-n tower (total mass normalized to 1)."""
    return (2.0 / 3.0) / 3**n


def tower_mass(n: int) -> float:
    """Mass of the stage-n tower: 1 - 3^{-(n+1)}."""
    return 1.0 - 3.0 ** -(n + 1)


@dataclass(frozen=True)
class TowerPoint:
    """Point represented at some stage: rung index plus future cut choices.

    tail[k] chooses the column (0, 1 or 2) taken when the orbit climbs out of
    the stage+k tower.  The representation stage grows as the orbit crosses
    tower tops; membership queries project back down.
    """

    stage: int
    rung: int
    tail: tuple[int, ...]


def sample_tower_point(
    scheme: TowerScheme,
    rng: np.random.Generator,
    stage: Optional[int] = None,
    tail_length: int = 48,
) -> TowerPoint:
    """Uniform point of the stage-n tower with i.i.d. uniform cut choices.

    The stage-n tower misses the spacer mass 3^{-(n+1)}; sampling at the
    deepest available stage makes that bias negligible.
    """
    n = scheme.stages - 1 if stage is None else stage
    rung = int(rng.integers(0, scheme.height(n)))
    tail = tuple(int(v) for v in rng.integers(0, 3, size=tail_length))
    return TowerPoint(n, rung, tail)


def _column_base(column: int, h: int) -> int:
    # stacking order: column 0, column 1, spacer, column 2
    if column == 0:
        return 0
    if column == 1:
        return h
    return 2 * h + 1


def _promote(p: TowerPoint, scheme_height: int) -> TowerPoint:
    if not p.tail:
        raise TailExhaustedError("tail exhausted while promoting tower point")
    col = p.tail[0]
    return TowerPoint(p.stage + 1, _column_base(col, scheme_height) + p.rung, p.tail[1:])


def tower_apply(scheme: TowerScheme, p: TowerPoint) -> TowerPoint:
    """One step up the tower; at a top rung, consult cut choices."""
    h = scheme.height(p.stage)
    if p.rung < h - 1:
        return TowerPoint(p.stage, p.rung + 1, p.tail)
    q = p
    while q.rung == scheme.height(q.stage) - 1:
        if q.stage + 1 >= scheme.stages:
            raise TailExhaustedError("scheme has no deeper stage to promote into")
        q = _promote(q, scheme.height(q.stage))
    return TowerPoint(q.stage, q.rung + 1, q.tail)


def tower_apply_inverse(scheme: TowerScheme, p: TowerPoint) -> TowerPoint:
    """Inverse map: one step down, promoting at base rungs."""
    if p.rung > 0:
        return TowerPoint(p.stage, p.rung - 1, p.tail)
    q = p
    while q.rung == 0:
        if q.stage + 1 >= scheme.stages:
            raise TailExhaustedError("scheme has no deeper stage to promote into")
        q = _promote(q, scheme.height(q.stage))
    return TowerPoint(q.stage, q.rung - 1, q.tail)


def _project_down(p: TowerPoint, scheme: TowerScheme, to_stage: int) -> Optional[int]:
    """Rung of p in the stage to_stage tower, or None if p sits on a spacer
    added after that stage."""
    stage, rung = p.stage, p.rung
    while stage > to_stage:
        h_prev = scheme.height(stage - 1)
        if rung < h_prev:
            pass
        elif rung < 2 * h_prev:
            rung -= h_prev
        elif rung == 2 * h_prev:
            return None
        else:
            rung -= 2 * h_prev + 1
        stage -= 1
    return rung


def stage_level_of(p: TowerPoint, scheme: TowerScheme, stage: int) -> Optional[int]:
    """Stage-level index of a point (None when outside the stage tower)."""
    if p.stage < stage:
        raise ValueError("point represented below query stage; promote first")
    return _project_down(p, scheme, stage)


@dataclass(frozen=True)
class LevelSetUnion:
    """Union of rungs of one stage's tower."""

    stage: int
    rungs: frozenset[int]

    def contains(self, p: TowerPoint, scheme: TowerScheme) -> bool:
        lv = stage_level_of(p, scheme, self.stage)
        return lv is not None and lv in self.rungs

    def measure(self) -> float:
        return len(self.rungs) * level_width(self.stage)


# ---------------------------------------------------------------------------
# symbolic words and exact frequencies
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def substitution_word(stage: int) -> str:
    """Stage reading over {'0','s'}: w_{n+1} = w_n + w_n + 's' + w_n."""
    if stage == 0:
        return "0"
    w = substitution_word(stage - 1)
    return w + w + "s" + w


def _count_overlapping(haystack: str, needle: str) -> int:
    count = 0
    start = 0
    while True:
        idx = haystack.find(needle, start)
        if idx < 0:
            return count
        count += 1
        start = idx + 1


def exact_word_frequency(word: str, stage: int = 13) -> float:
    """Measure of the cylinder {x: reading of length len(word) from x is word}.

    Computed by counting factor occurrences in a deep substitution word; the
    truncation error is below (3 len + 1) * level_width(stage) / 2.
    """
    w = substitution_word(stage)
    occurrences = _count_overlapping(w, word)
    return occurrences * level_width(stage)


def symbol_word(scheme: TowerScheme, p: TowerPoint, length: int) -> str:
    """Orbit reading over {'0','s'} relative to the stage-0 base level."""
    out = []
    q = p
    for _ in range(length):
        lv = stage_level_of(q, scheme, 0)
        out.append("0" if lv == 0 else "s")
        q = tower_apply(scheme, q)
    return "".join(out)


# ---------------------------------------------------------------------------
# Birkhoff correlation estimator
# ---------------------------------------------------------------------------

def birkhoff_correlation(
    scheme: TowerScheme,
    set_a: LevelSetUnion,
    set_b: LevelSetUnion,
    shift: int,
    orbit_len: int,
    rng: np.random.Generator,
    batches: int = 20,
) -> tuple[float, float]:
    """Time-average estimate of mu(T^shift A intersect B) with batch stderr."""
    if orbit_len <= 8 * shift and shift > 0:
        raise ValueError("orbit_len should be much larger than the shift")
    p = sample_tower_point(scheme, rng)
    window: list[TowerPoint] = []
    hits = []
    q = p
    for _ in range(shift):
        window.append(q)
        q = tower_apply(scheme, q)
    for _ in range(orbit_len):
        in_a = set_a.contains(q, scheme)
        if shift > 0:
            base = window.pop(0)
            window.append(q)
        else:
            base = q
        hits.append(1.0 if in_a and set_b.contains(base, scheme) else 0.0)
        q = tower_apply(scheme, q)
    hits_arr = np.array(hits)
    est = float(hits_arr.mean())
    batch_means = hits_arr[: (orbit_len // batches) * batches].reshape(batches, -1).mean(axis=1)
    stderr = float(batch_means.std(ddof=1) / math.sqrt(batches))
    return est, stderr

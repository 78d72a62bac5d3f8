"""Chacon's rank-one automorphism as position arithmetic.

The classical Chacon scheme cuts each tower into three columns and adds one
spacer over the middle column, so heights satisfy h_{n+1} = 3 h_n + 1 and the
stage-(n+1) tower stacks column 0, column 1, the spacer, column 2.  A point is
its int64 position in the top tower of a scheme: T^k adds k, and the level in
any lower stage is read off by undoing the stacking one stage at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TowerScheme",
    "TailExhaustedError",
    "chacon_scheme",
    "tower_apply",
    "sample_tower_point",
    "stage_level",
]


class TailExhaustedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TowerScheme:
    """Heights of the stage towers of the 3-cut middle-spacer scheme."""

    stages: int
    heights: tuple[int, ...]

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


def sample_tower_point(scheme: TowerScheme, rng: np.random.Generator, size: int) -> np.ndarray:
    """Positions of `size` uniform points of the top tower.

    The top tower misses the spacer mass 3^{-stages} of the limit system,
    which is below 3e-9 for the 18-stage scheme.
    """
    return rng.integers(0, scheme.heights[-1], size)


def tower_apply(scheme: TowerScheme, pos, k=1) -> np.ndarray:
    """T^k of the points at positions pos (k broadcasts against pos).

    Raises TailExhaustedError when an orbit leaves the top tower: the scheme
    does not say which column the point climbs into past its top.
    """
    out = np.asarray(pos, dtype=np.int64) + np.asarray(k, dtype=np.int64)
    if out.size and (out.min() < 0 or out.max() >= scheme.heights[-1]):
        raise TailExhaustedError(
            f"orbit leaves the stage-{scheme.stages - 1} tower of height {scheme.heights[-1]}"
        )
    return out


def stage_level(scheme: TowerScheme, pos, stage: int) -> np.ndarray:
    """Level in the stage tower of the points at positions pos, or -1 on a
    spacer added after that stage.  Each stage of height h drops, on a copy
    of pos, h and then h + 1 from every level >= h: column 1 goes to [0, h),
    the spacer 2h to h then -1, column 2 to [h + 1, 2h + 1) then [0, h)."""
    level = np.array(pos, dtype=np.int64)
    for h in reversed(scheme.heights[stage:-1]):
        level -= h * (level >= h)
        level -= (h + 1) * (level >= h)
    return level

"""Pure-Python reference for the time part of embed/peel.

It uses Python ints and exact rationals, and reads only the level tables
(a, a_tilde, r, s_shell, s_u) and the half-open base-interval rule: a point
of level k has time t in (-a_k, a_k].  Embedding from level k with shift
index h maps t to t + 2 h a~_k + s_k(h); peeling finds the h with
t in (2 h a~_k - a~_k, 2 h a~_k + a~_k], undoes that map and fails when
|h| > r_k - 1 or the result leaves the level-k base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


@dataclass(frozen=True)
class LevelTable:
    a: int
    a_tilde: int
    r: int
    s_shell: tuple[int, ...]  # indexed by h + (r - 1)
    s_u: tuple[float, ...]

    def correction(self, h: int) -> Fraction:
        j = h + (self.r - 1)
        return self.s_shell[j] + Fraction(self.s_u[j])


def level_tables(levels) -> list[LevelTable]:
    """Copy a CFLevels' tables into Python ints and floats."""
    return [
        LevelTable(
            a=int(lv.a),
            a_tilde=int(lv.a_tilde),
            r=int(lv.r),
            s_shell=tuple(int(v) for v in lv.s_shell),
            s_u=tuple(float(v) for v in lv.s_u),
        )
        for lv in levels.levels
    ]


def split(t: Fraction) -> tuple[int, float]:
    """(integer part, fraction in [0, 1)) of an exact time."""
    ti = math.floor(t)
    return ti, float(t - ti)


def in_base(t: Fraction, a: int) -> bool:
    return -a < t <= a


def embed(tables: Sequence[LevelTable], ti: int, tf: float, tail: Sequence[int],
          from_level: int, to_level: int) -> tuple[int, float]:
    """Time of the point embedded from from_level to to_level, consuming tail."""
    t = ti + Fraction(tf)
    for k, h in zip(range(from_level, to_level), tail):
        lv = tables[k]
        if abs(h) > lv.r - 1:
            raise ValueError(f"shift index {h} outside H_{k}")
        t += 2 * h * lv.a_tilde + lv.correction(h)
    return split(t)


def peel(tables: Sequence[LevelTable], ti: int, tf: float, from_level: int,
         to_level: int) -> Optional[tuple[int, float, tuple[int, ...]]]:
    """(time, fraction, shift indices from to_level upward) of the point peeled
    from from_level to to_level, or None when it has no such representation."""
    t = ti + Fraction(tf)
    hs = []
    for k in range(from_level - 1, to_level - 1, -1):
        lv = tables[k]
        h = math.ceil((t + lv.a_tilde) / (2 * lv.a_tilde)) - 1
        if abs(h) > lv.r - 1:
            return None
        t -= 2 * h * lv.a_tilde + lv.correction(h)
        if not in_base(t, lv.a):
            return None
        hs.append(h)
    return (*split(t), tuple(reversed(hs)))

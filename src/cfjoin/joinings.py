"""Joining metric, Folner windows, and empirical joining estimation.

A joining is read as a K x K table of correlations int f_i(x) conj(f_j(y))
against a fixed ordered dictionary of unit-norm observables; the metric
weights entry (i, j) by 2^{-(i+j)} (1-indexed), so the dictionary ORDER is
part of the experiment identity.  The graph and product targets are exact
tables; an EmpiricalJoining is a window estimate, its table with the stderr
of each entry.  The default dictionary interleaves the observables that
separate the classification targets (time harmonic, the two
defining-representation coefficients, an adjoint diagonal entry) into the
low-index slots where the metric can see them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groups import adjoint_entry_rows, adjoint_matrix, pair_mul, quat_mul, quat_pair
from .cf_engine import (
    CFLevels,
    LevelTooDeepError,
    OrbitLeftTruncationError,
    _to_ticks,
    embed_batch,
    row_blocks,
    shift_peel,
)

__all__ = [
    "JOINING_BLOCK",
    "CFDictionary",
    "EmpiricalJoining",
    "FolnerWindow",
    "joining_metric",
    "joining_metric_stderr",
    "folner_window",
    "shulman_check",
    "empirical_joining",
    "graph_joining_target",
    "product_joining_target",
]


# draws per block of empirical_joining: one (16, 2^12) complex value block is
# 1 MiB.  Blocks of 2^14 (cf_engine.ROW_BLOCK) free about 12 MiB at each
# block's end, which the allocator hands back to the system and the next
# block faults in again; at 2^12 the freed arrays are reused.  Minor faults
# per joinings run at the acceptance config: 19.9k at 2^14, 28.9k at 2^13,
# 1.4k at 2^12
JOINING_BLOCK = 2**12


# ---------------------------------------------------------------------------
# dictionaries
# ---------------------------------------------------------------------------

class CFDictionary:
    """Default K=16 dictionary on the inductive-limit space.

    Observables read the level-1 coordinate when the point has one and vanish
    otherwise; all are scaled by mu(X_1)^{-1/2} so they have unit norm.  Eight
    time harmonics exp(2 pi i m t / a_1) and eight fiber matrix coefficients
    (two defining-representation entries, six adjoint entries), interleaved so
    each classification target pair separates at low metric weight.  The
    harmonics of a level-1 time t = (T + rho)/D have period N = a_1 D in the
    ticks T, so for one residual rho they are the columns T mod N of a
    tick_table.
    """

    def __init__(self, levels: CFLevels):
        self.a1 = levels.a(1)
        self.period = self.a1 * levels.grid
        self.scale = 1.0 / math.sqrt(levels.mu_xn(1))
        spec = [
            ("harm-1", ("harm", 1)),
            ("def-z", ("def", "z")),
            ("def-w", ("def", "w")),
            ("adj-11", ("adj", (0, 0))),
            ("harm-2", ("harm", 2)),
            ("adj-22", ("adj", (1, 1))),
            ("harm-3", ("harm", 3)),
            ("adj-33", ("adj", (2, 2))),
            ("harm-4", ("harm", 4)),
            ("adj-12", ("adj", (0, 1))),
            ("harm-5", ("harm", 5)),
            ("adj-23", ("adj", (1, 2))),
            ("harm-6", ("harm", 6)),
            ("adj-13", ("adj", (0, 2))),
            ("harm-7", ("harm", 7)),
            ("harm-8", ("harm", 8)),
        ]
        self.labels = [name for name, _ in spec]
        # the harmonic rows in the order of m, and the (row, code) of the rest
        self._harm = [row for row, (_, (kind, _)) in enumerate(spec) if kind == "harm"]
        self._fiber = [(row, code) for row, (_, code) in enumerate(spec) if code[0] != "harm"]

    @property
    def size(self) -> int:
        return len(self.labels)

    def tick_table(self, rho: float) -> np.ndarray:
        """(8, N) complex table of the harmonics at the residual rho in
        [0, 1): row m - 1, column k holds scale e^(2 pi i m (k + rho) / N),
        harmonic m at every level-1 time (T + rho)/D with T = k mod N.  The
        phase is taken in quarter turns, 4 ((m k) mod N + m rho) / N: the
        nearest whole quarter turn of 4 ((m k) mod N) / N is split off in
        integers, and turns the unit exactly (a swap and signs), so the one
        float angle left is at most about an eighth of a turn."""
        n = self.period
        m = np.arange(1, len(self._harm) + 1)[:, None]
        k4 = 4 * (m * np.arange(n) % n)
        quarter = (k4 + n // 2) // n
        angle = (k4 - quarter * n + 4 * m * rho) * (math.pi / (2 * n))
        cos, sin = np.cos(angle), np.sin(angle)
        odd, quarter = quarter & 1, quarter & 3
        # i^quarter (cos + i sin), scaled: the signs and the swap are exact
        table = np.empty(angle.shape, dtype=complex)
        table.real = np.where(odd, sin, cos) * np.where((quarter == 1) | (quarter == 2), -self.scale, self.scale)
        table.imag = np.where(odd, cos, sin) * np.where(quarter >= 2, -self.scale, self.scale)
        return table

    def evaluate(self, batch, table) -> np.ndarray:
        """batch = (valid, T, q) level-1 coordinates as translate returns
        them: the times in ticks, whose residual rho `table`, the
        tick_table of rho, holds, and (n, 4) fibers.  Each harmonic row is
        one take of its table row at T mod N; each fiber row is sqrt 2 or
        sqrt 3 times a matrix coefficient of q, then scaled: z and w of q's
        complex pair, and the adjoint entries of
        groups.adjoint_entry_rows, without adjoint_matrix's (n, 3, 3) array,
        scaled on the row's real view, its imaginary part zero."""
        valid, T, q = batch
        out = np.empty((self.size, len(q)), dtype=complex)
        # T mod N, as T less its floor quotient's multiple: numpy divides by
        # an integer scalar several times faster than np.remainder does
        cols = T - T // self.period * self.period
        for harmonic, row in zip(table, self._harm):
            harmonic.take(cols, out=out[row], mode="clip")
        pair = quat_pair(q)
        for row, (kind, arg) in self._fiber:
            if kind == "def":
                np.multiply(pair[:, "zw".index(arg)], math.sqrt(2.0), out=out[row])
                out[row] *= self.scale
            else:
                real = out[row].real
                np.multiply(adjoint_entry_rows(q.T, *arg), math.sqrt(3.0), out=real)
                real *= self.scale
                out[row].imag = 0.0
        out[:, ~valid] = 0.0
        return out


# ---------------------------------------------------------------------------
# empirical joinings and the metric
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalJoining:
    """Estimated correlation table of a (candidate) 2-fold joining at
    dictionary resolution, with the stderr of each entry."""

    corr: np.ndarray  # (K, K) complex
    stderr: np.ndarray  # (K, K) float


def _weights(k: int) -> np.ndarray:
    i = np.arange(1, k + 1)
    return 2.0 ** -(i[:, None] + i[None, :])


def joining_metric(x: np.ndarray, y: np.ndarray) -> float:
    """Weighted l1 distance sum_{ij} 2^{-(i+j)} |x_ij - y_ij| (1-indexed)
    between two (K, K) tables."""
    w = _weights(x.shape[0])
    return float(np.sum(w * np.abs(x - y)))


def joining_metric_stderr(x: EmpiricalJoining) -> float:
    """Conservative propagated error of the metric from the estimate x to an
    exact table, from x's entry stderrs."""
    w = _weights(x.corr.shape[0])
    return float(np.sqrt(np.sum(w**2 * x.stderr**2)))


def _sq_moduli(f: np.ndarray, out=None) -> np.ndarray:
    """|f|^2, squared in place in the one real array it makes or in out."""
    sq = np.abs(f, out=out)
    return np.square(sq, out=sq)


class _TableSums:
    """Running sums of one correlation table over row blocks: the means of
    scale * f_i(x_k) conj(f_j(y_k)) over the pairs added, with the stderr
    of each mean.

    Each block gives two (K, n_b) x (n_b, K) matrix products: the cross
    sum conj(f_x) f_y^T, whose conjugate is the table's f_x f_y^H, and,
    since |f_i g_j|^2 = |f_i|^2 |g_j|^2, the second moment |f_x|^2
    (|f_y|^2)^T.  No (K, K, N) array, nor any (K, N) table of all N pairs,
    is formed.
    """

    def __init__(self):
        self.n = 0
        self.cross = self.second = 0.0

    def add(self, conj_x, sq_x, fy, sq_y) -> None:
        """Add the pairs of one block: conj(f_x) and |f_x|^2, (K, n_b) rows
        that every table of x's block shares, and f_y and |f_y|^2, (K, m)
        with m <= n_b, paired with x's first m columns."""
        m = fy.shape[1]
        self.n += m
        self.cross = self.cross + conj_x[:, :m] @ fy.T
        self.second = self.second + sq_x[:, :m] @ sq_y.T

    def table(self, scale: float) -> EmpiricalJoining:
        corr = self.cross.conj() * (scale / self.n)
        var = np.maximum(self.second * (scale**2 / self.n) - np.abs(corr) ** 2, 0.0)
        return EmpiricalJoining(corr, np.sqrt(var / self.n))


# ---------------------------------------------------------------------------
# Folner windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FolnerWindow:
    """Integer averaging window b + spacing * t, |b| <= i_max, |t| <= j_max."""

    n: int
    i_max: int
    j_max: int
    spacing: int  # 2 a~_n

    @property
    def size(self) -> int:
        return (2 * self.i_max + 1) * (2 * self.j_max + 1)

    def max_abs(self) -> int:
        return self.i_max + self.spacing * self.j_max


def _int_interval_bound(value: int, divisor: int) -> int:
    """Largest m with |m| < value / divisor, i.e. (value - 1) // divisor."""
    return (value - 1) // divisor


def folner_window(n: int, levels: CFLevels) -> FolnerWindow:
    if n < 2:
        raise ValueError("n too small for schedule: windows start at n = 2")
    i_max = _int_interval_bound(levels.a(n), n * n)
    j_max = _int_interval_bound(levels.params.r(n), n * n)
    if i_max < 0 or j_max < 0:
        raise ValueError("n too small for schedule: empty window")
    w = FolnerWindow(n, i_max, j_max, 2 * levels.a_tilde(n))
    if 2 * i_max + 1 > w.spacing:
        raise ValueError("window blocks would overlap; schedule too slow")
    return w


def _window_intervals(w: FolnerWindow) -> list[tuple[int, int]]:
    return [
        (w.spacing * t - w.i_max, w.spacing * t + w.i_max)
        for t in range(-w.j_max, w.j_max + 1)
    ]


def _subtract_union(blocks: list[tuple[int, int]], union: list[tuple[int, int]]) -> int:
    """Total count of integers in `blocks` not covered by `union`, summed
    block by block (both are lists of inclusive integer intervals; union
    must be merged/sorted).  One merge over the blocks sorted by their
    lower ends and the union: the union's intervals that end below a block
    end below every later block too, so each block's scan starts at the
    first union interval that reaches it, never before the last block's,
    and reads only the intervals that meet the block."""
    total = start = 0
    for lo, hi in sorted(blocks):
        while start < len(union) and union[start][1] < lo:
            start += 1
        covered, k = 0, start
        while k < len(union) and union[k][0] <= hi:
            ulo, uhi = union[k]
            covered += min(hi, uhi) - max(lo, ulo) + 1
            k += 1
        total += (hi - lo + 1) - covered
    return total


def _merged(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def shulman_check(n: int, levels: CFLevels) -> tuple[int, int]:
    """Exact growth accounting of the averaging windows at index n: the
    count of window-n elements not already covered by earlier windows (the
    literal reading of the growth inequality, which bounds it by 3 times
    the window size) and the window size.  Exact integer-interval
    arithmetic; no window is ever materialized."""
    w = folner_window(n, levels)
    own = _window_intervals(w)
    earlier: list[tuple[int, int]] = []
    for m in range(2, n):
        earlier.extend(_window_intervals(folner_window(m, levels)))
    setminus = _subtract_union(own, _merged(earlier)) if earlier else w.size
    return setminus, w.size


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def empirical_joining(
    x: tuple,
    y: tuple,
    m: np.ndarray,
    window: FolnerWindow,
    dictionary: CFDictionary,
    levels: CFLevels,
    samples: int,
    rng: np.random.Generator,
) -> tuple[EmpiricalJoining, EmpiricalJoining, EmpiricalJoining]:
    """Window-average correlation tables (paired, independent, diagonal) of
    the orbit pairs of x with its fiber partner (0, m) x, of x with y, and
    of x with itself; x and y are level-1 points given as one-row batches
    (ti, tf, q, tails), m a (4,) unit quaternion.  Each table is read on the
    window's own frame.

    The frame factor.  A translate g = b + 2 a~_n t with |b| <= a_n / n^2
    moves the level-n copy that holds the point by t shift indices and its
    time inside that copy by b, so the orbit points of the level-n window
    lie in copies of the level-n base X_n and the window sees X_n, not X:
    as the corrections of the copies equidistribute, the window average of
    F = f_i(.) conj(f_j(.)) tends to the conditional mean
    (1 / mu(X_n)) int_{X_n} F dmu.  Every observable vanishes off
    X_1, a subset of X_n, so that mean is T_ij / mu(X_n), T the joining's
    table on the whole space, and the average is multiplied by mu(X_n);
    the stderr scales with it.

    The averages are estimated from `samples` uniform draws of (b, t), b
    drawn before t, with the reported stderr; the diagonal reads the first
    samples // 2 of them.  The draws are unbiased for the window average
    whatever its size, so a window that `samples` could enumerate (only an
    r_schedule far below the default makes one) is drawn too; the level-4
    window of the default build has about 6.3e10 elements.

    x and y are embedded once each (embed_batch(radix=True), which does
    not read g), and one pass over JOINING_BLOCK blocks of the draws moves
    and peels both embeddings by the block's translates (shift_peel): bit
    for bit a translate of each per block.  Their harmonic rows are read
    from a tick_table of each point's residual, made once.  The partner
    shares x's times and tails, so it reads x's table at x's ticks, and its
    fiber is phi_g(m) q', q' x's translated fiber: (0, m) acts on the left,
    every embed and peel step multiplies on the right, and phi_g is an
    automorphism.  x's values are conjugated once, in place, for all three
    tables, and one partner block is held at a time, its fiber written by
    groups.pair_mul into a buffer of the block's own, after x's fiber is
    last read; the diagonal's block, x's values conjugated back, comes
    last, when no other partner is held.
    """
    if window.max_abs() >= 2**63:
        raise LevelTooDeepError(f"window-{window.n} translates reach {window.max_abs()}, past int64")
    top = min(window.n + 2, levels.max_level + 1)
    # the translates g = b + 2 a~_n t, b drawn before t
    g = (rng.integers(-window.i_max, window.i_max + 1, size=samples)
         + window.spacing * rng.integers(-window.j_max, window.j_max + 1, size=samples))
    paired, independent, diagonal = _TableSums(), _TableSums(), _TableSums()
    mz, mw = (quat_pair(m)[..., c] for c in (0, 1))  # phi_g(m) = (mz, +-mw)
    # each point's residual rho, which no translate moves, and its harmonic table
    table_x, table_y = (dictionary.tick_table(float(_to_ticks(levels, 1, ti, tf)[1][0])) for ti, tf, *_ in (x, y))
    try:
        embedded_x, embedded_y = (embed_batch(levels, *p, 1, top, radix=True) for p in (x, y))
        for rows in row_blocks(samples, JOINING_BLOCK):
            valid, T, _, q = shift_peel(levels, *embedded_x, g[rows], 1, top)
            fx = dictionary.evaluate((valid, T, q), table_x)
            sq_x = _sq_moduli(fx)
            conj_x = np.conjugate(fx, out=fx)
            # the paired partner's fiber phi_g(m) q', the last read of x's fiber
            qy = np.empty((len(q), 2), dtype=complex)
            pair_mul((mz, np.where(g[rows] & 1, -mw, mw)), quat_pair(q).T, qy.T, np.empty(len(q), dtype=complex))
            del q
            # its harmonic rows and their squared moduli are x's
            fy = dictionary.evaluate((valid, T, qy.view(float)), table_x)
            del qy
            sq_y = sq_x.copy()
            for row, _ in dictionary._fiber:
                _sq_moduli(fy[row], out=sq_y[row])
            paired.add(conj_x, sq_x, fy, sq_y)
            del fy, sq_y
            valid_y, T_y, _, q_y = shift_peel(levels, *embedded_y, g[rows], 1, top)
            fy = dictionary.evaluate((valid_y, T_y, q_y), table_y)
            del valid_y, T_y, q_y
            independent.add(conj_x, sq_x, fy, _sq_moduli(fy))
            del fy
            # the diagonal's partner: x's own values, on its first draws; its
            # squared moduli are x's, copied: numpy's sq_x @ sq_x.T is a syrk,
            # which rounds otherwise
            fd = np.conjugate(conj_x[:, : max(samples // 2 - rows.start, 0)])
            diagonal.add(conj_x, sq_x, fd, sq_x[:, : fd.shape[1]].copy())
            # nothing of this block is left when the next one is made
            del conj_x, sq_x, fd
    except OrbitLeftTruncationError as exc:
        raise OrbitLeftTruncationError(
            f"window-{window.n} translates up to |g| = {window.max_abs()} "
            f"exceeded the point's truncation: {exc}"
        ) from exc
    scale = levels.mu_xn(window.n)
    return paired.table(scale), independent.table(scale), diagonal.table(scale)


# the defining rows read sqrt 2 times these coefficients of q
_DEF_COEFFS = {"z": np.array([1.0, 1j, 0.0, 0.0]), "w": np.array([0.0, 0.0, 1.0, 1j])}


def graph_joining_target(m: np.ndarray, dictionary: CFDictionary) -> np.ndarray:
    """Exact (K, K) table of the graph joining along the fiber element
    k = (0, m), m a (4,) unit quaternion: int f_i(x) conj(f_j(T_k x)).

    T_k (t, q) = (t, m q) leaves the level-1 time in place and the
    observables vanish off X_1, so the table is the mean over a uniform
    level-1 time and a Haar fiber of g_i(t, q) conj(g_j(t, m q)), g the
    observables without their mu(X_1)^{-1/2} scale.  By Schur orthogonality:
    - the harmonic rows give the identity, the harmonics running over whole
      periods of (-a_1, a_1];
    - a harmonic against a fiber row gives 0, the fiber rows having Haar
      mean 0;
    - two defining rows sqrt 2 c.q and sqrt 2 c'.(m q) give
      (1/2) c^T P conj(c'), where E[q q^T] = I/4 and P = quat_mul(m, I_4),
      whose row e is m e_e, so that m q = P^T q;
    - two adjoint rows sqrt 3 A(q)_ab and sqrt 3 A(m q)_cd give
      delta_bd A(m)_ca, A = adjoint_matrix;
    - a defining row against an adjoint row gives 0, the representations
      being inequivalent.
    """
    k = dictionary.size
    corr = np.zeros((k, k), dtype=complex)
    corr[dictionary._harm, dictionary._harm] = 1.0
    left = quat_mul(m, np.eye(4))
    adj = adjoint_matrix(m)
    for (i, (kind, arg)), (j, (kind2, arg2)) in itertools.product(dictionary._fiber, repeat=2):
        if kind == kind2 == "def":
            corr[i, j] = 0.5 * (_DEF_COEFFS[arg] @ left @ _DEF_COEFFS[arg2].conj())
        elif kind == kind2 == "adj":
            (a, b), (c, d) = arg, arg2
            corr[i, j] = adj[c, a] if b == d else 0.0
    return corr


def product_joining_target(dictionary: CFDictionary) -> np.ndarray:
    """Exact (K, K) table of the product joining, (int f_i) conj(int f_j):
    every observable of the dictionary has mean 0, so the table is 0.  The
    harmonics exp(2 pi i m t / a_1), m >= 1, run over whole periods of the
    level-1 times (-a_1, a_1], and the fiber rows are matrix
    coefficients of non-trivial irreducible representations of SU(2), whose
    Haar means vanish by Schur orthogonality.
    """
    return np.zeros((dictionary.size, dictionary.size), dtype=complex)

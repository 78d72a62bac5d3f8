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

import math
from dataclasses import dataclass

import numpy as np

from .groups import adjoint_matrix, adjoint_rows, pair_mul, quat_mul, quat_pair
from .cf_engine import (
    CFLevels,
    LevelTooDeepError,
    OrbitLeftTruncationError,
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


# draws per block of empirical_joining: one (26, 2^12) real value block is
# 0.8 MiB.  Blocks of 2^14 (cf_engine.ROW_BLOCK) freed about 12 MiB at each
# block's end when value blocks were (16, n) complex, which the allocator
# handed back to the system and the next block faulted in again; at 2^12
# the freed arrays are reused.  Minor faults per joinings run at the
# acceptance config then: 19.9k at 2^14, 28.9k at 2^13, 1.4k at 2^12
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

    Values are real blocks of `height` = 26 rows, one column per point: the
    real parts of the harmonics m = 1..8 (rows 0-7) and their imaginary
    parts (rows 8-15), the real and imaginary parts of the defining rows z
    and w (16-19), and the adjoint entries ADJOINT (20-25), which are real.
    OBSERVABLES lists the K = `size` observables in metric order: observable
    i, with its label, is row re plus i times row im of a block, im = height
    for a real observable (a row of zeros past the block's end), and its
    squared modulus is row sq of squared_moduli; `layout` is the table's
    columns (re, im, sq) as index arrays.
    """

    height = 26
    OBSERVABLES = (  # (label, re, im, sq)
        ("harm-1", 0, 8, 0),
        ("def-z", 16, 17, 1),
        ("def-w", 18, 19, 2),
        ("adj-11", 20, height, 3),
        ("harm-2", 1, 9, 0),
        ("adj-22", 21, height, 4),
        ("harm-3", 2, 10, 0),
        ("adj-33", 22, height, 5),
        ("harm-4", 3, 11, 0),
        ("adj-12", 23, height, 6),
        ("harm-5", 4, 12, 0),
        ("adj-23", 24, height, 7),
        ("harm-6", 5, 13, 0),
        ("adj-13", 25, height, 8),
        ("harm-7", 6, 14, 0),
        ("harm-8", 7, 15, 0),
    )
    size = len(OBSERVABLES)
    # the adjoint_matrix entries of rows 20-25, in order
    ADJOINT = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))

    def __init__(self, levels: CFLevels):
        self.period = levels.a(1) * levels.grid
        self.scale = 1.0 / math.sqrt(levels.mu_xn(1))
        _, *layout = zip(*self.OBSERVABLES)
        self.layout = tuple(np.array(rows) for rows in layout)

    def tick_table(self, rho: float) -> np.ndarray:
        """(16, N + 1) real table of the harmonics at the residual rho in
        [0, 1): rows m - 1 and 8 + m - 1, column k < N, hold the real and
        imaginary parts of scale e^(2 pi i m (k + rho) / N), harmonic m at
        every level-1 time (T + rho)/D with T = k mod N; column N is 0, the
        harmonics off level 1.  The phase is taken in quarter turns,
        4 ((m k) mod N + m rho) / N: the nearest whole quarter turn of
        4 ((m k) mod N) / N is split off in integers, and turns the unit
        exactly (a swap and signs), so the one float angle left is at most
        about an eighth of a turn."""
        n = self.period
        m = np.arange(1, 9)[:, None]
        k4 = 4 * (m * np.arange(n) % n)
        quarter = (k4 + n // 2) // n
        angle = (k4 - quarter * n + 4 * m * rho) * (math.pi / (2 * n))
        cos, sin = np.cos(angle), np.sin(angle)
        odd, quarter = quarter & 1, quarter & 3
        # i^quarter (cos + i sin), scaled: the signs and the swap are exact
        table = np.zeros((16, n + 1))
        np.multiply(np.where(odd, sin, cos), np.where((quarter == 1) | (quarter == 2), -self.scale, self.scale),
                    out=table[:8, :n])
        np.multiply(np.where(odd, cos, sin), np.where(quarter >= 2, -self.scale, self.scale), out=table[8:, :n])
        return table

    def evaluate(self, batch, table, harmonics=None) -> np.ndarray:
        """The (26, n) real value block of batch = (valid, T, q), level-1
        coordinates as translate returns them: the times in ticks, whose
        residual rho `table`, the tick_table of rho, holds, and (n, 4)
        fibers.  The 16 harmonic rows are one take of the table's columns,
        at T mod N on the lanes on level 1 and at the zero column N off it,
        or, given `harmonics`, a value block of the same lanes and times,
        its harmonic rows copied.  The defining rows are the components of
        q, the parts of its complex pair z and w, times sqrt 2 scale, and
        the adjoint rows groups.adjoint_rows of the pair times sqrt 3 scale.
        Off level 1 the harmonic rows read the zero column and the 10 fiber
        rows are zeroed, so every row is 0 there."""
        valid, T, q = batch
        out = np.empty((self.height, len(q)))
        off = np.flatnonzero(~valid)
        if harmonics is None:
            # T mod N, as T less its floor quotient's multiple: numpy divides
            # by an integer scalar several times faster than np.remainder does
            cols = T - T // self.period * self.period
            cols[off] = self.period
            table.take(cols, axis=1, out=out[:16], mode="clip")
        else:
            out[:16] = harmonics[:16]
        np.multiply(q.T, math.sqrt(2.0) * self.scale, out=out[16:20])
        adjoint = adjoint_rows(quat_pair(q), self.ADJOINT, out[20:])
        adjoint *= math.sqrt(3.0) * self.scale
        out[16:, off] = 0.0
        return out

    def squared_moduli(self, values, valid) -> np.ndarray:
        """The (9, n) squared moduli of a value block's observables (rows
        `layout` sq): row 0 is scale^2 on the lanes on level 1 and 0 off
        them, every harmonic's squared modulus; rows 1 and 2 are |z|^2 and
        |w|^2 of the defining rows, the sums of their parts' squares, and
        rows 3-8 the adjoint rows squared."""
        sq = np.empty((9, values.shape[1]))
        np.multiply(valid, self.scale**2, out=sq[0])
        parts = np.square(values[16:20])
        np.add(parts[0::2], parts[1::2], out=sq[1:3])
        np.square(values[20:], out=sq[3:])
        return sq


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


def _read(cross, layout) -> np.ndarray:
    """The (K, K) complex table of the real (height, height) sums `cross`
    of products of two value blocks' rows, laid out as `layout` (re, im, sq)
    says (CFDictionary): f_i conj(g_j) sums to
    R[re_i, re_j] + R[im_i, im_j] + i (R[im_i, re_j] - R[re_i, im_j])."""
    re, im, _ = layout
    # a row of zeros for the imaginary parts of real observables
    padded = np.zeros(np.add(cross.shape, 1))
    padded[:-1, :-1] = cross
    corr = np.empty((len(re), len(re)), dtype=complex)
    corr.real = padded[np.ix_(re, re)] + padded[np.ix_(im, im)]
    corr.imag = padded[np.ix_(im, re)] - padded[np.ix_(re, im)]
    return corr


class _TableSums:
    """Running sums of one correlation table over row blocks: the means of
    scale * f_i(x_k) conj(f_j(y_k)) over the pairs added, with the stderr
    of each mean, from real value blocks laid out as `layout` (re, im, sq)
    says (CFDictionary).

    Each block gives two real matrix products: the cross sums R = F_x F_y^T
    of the blocks' rows, and, since |f_i g_j|^2 = |f_i|^2 |g_j|^2, the
    second moments of their squared moduli.  No (K, K, N) array, nor any
    table of all N pairs, is formed.  The (K, K) complex table is read off
    the sums once, at the end, by _read.
    """

    def __init__(self, layout):
        self.layout = layout
        self.n = 0
        self.cross = self.second = 0.0

    def add(self, fx, sq_x, fy, sq_y) -> None:
        """Add the pairs of one block: x's value block and squared moduli,
        whose columns every table of x's block shares, and y's, of m
        columns, m at most x's, paired with x's first m columns.  Where y's
        block is x's first m columns themselves, the cross sums are x's one
        syrk, symmetric bit for bit, and so the table Hermitian."""
        m = fy.shape[1]
        self.n += m
        self.cross += fx[:, :m] @ fy.T
        self.second += sq_x[:, :m] @ sq_y.T

    def table(self, scale: float) -> EmpiricalJoining:
        corr = _read(self.cross, self.layout)
        corr *= scale / self.n
        sq = self.layout[2]
        second = self.second[np.ix_(sq, sq)]
        var = np.maximum(second * (scale**2 / self.n) - np.abs(corr) ** 2, 0.0)
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
    shares x's times and tails, so its harmonic rows are x's, copied, and
    its fiber is phi_g(m) q', q' x's translated fiber: (0, m) acts on the
    left, every embed and peel step multiplies on the right, and phi_g is
    an automorphism.  Every table is one real product of x's value block
    with a partner's per block (_TableSums); one partner block is held at
    a time, its fiber written by groups.pair_mul into a buffer of the
    block's own, after x's fiber is last read; the diagonal's partner, x's
    own block on its first draws, comes last.
    """
    if window.max_abs() >= 2**63:
        raise LevelTooDeepError(f"window-{window.n} translates reach {window.max_abs()}, past int64")
    top = min(window.n + 2, levels.max_level + 1)
    # the translates g = b + 2 a~_n t, b drawn before t
    g = (rng.integers(-window.i_max, window.i_max + 1, size=samples)
         + window.spacing * rng.integers(-window.j_max, window.j_max + 1, size=samples))
    paired, independent, diagonal = (_TableSums(dictionary.layout) for _ in range(3))
    mz, mw = (quat_pair(m)[..., c] for c in (0, 1))  # phi_g(m) = (mz, +-mw)
    try:
        embedded_x, embedded_y = (embed_batch(levels, *p, 1, top, radix=True) for p in (x, y))
        # each point's residual rho, which no translate moves, and its harmonic table
        table_x, table_y = (dictionary.tick_table(float(rho[0])) for _, rho, _ in (embedded_x, embedded_y))
        for rows in row_blocks(samples, JOINING_BLOCK):
            valid, T, _, q = shift_peel(levels, *embedded_x, g[rows], 1, top)
            fx = dictionary.evaluate((valid, T, q), table_x)
            sq_x = dictionary.squared_moduli(fx, valid)
            # the paired partner's fiber phi_g(m) q', the last read of x's fiber
            qy = np.empty((len(q), 2), dtype=complex)
            pair_mul((mz, np.where(g[rows] & 1, -mw, mw)), quat_pair(q).T, qy.T, np.empty(len(q), dtype=complex))
            del q
            fy = dictionary.evaluate((valid, T, qy.view(float)), None, harmonics=fx)
            del qy
            paired.add(fx, sq_x, fy, dictionary.squared_moduli(fy, valid))
            del fy
            valid_y, T_y, _, q_y = shift_peel(levels, *embedded_y, g[rows], 1, top)
            fy = dictionary.evaluate((valid_y, T_y, q_y), table_y)
            del T_y, q_y
            independent.add(fx, sq_x, fy, dictionary.squared_moduli(fy, valid_y))
            del fy, valid_y
            # the diagonal's partner: x's own values, on its first draws
            first = max(samples // 2 - rows.start, 0)
            diagonal.add(fx, sq_x, fx[:, :first], sq_x[:, :first])
            # nothing of this block is left when the next one is made
            del fx, sq_x
    except OrbitLeftTruncationError as exc:
        raise OrbitLeftTruncationError(
            f"window-{window.n} translates up to |g| = {window.max_abs()} "
            f"exceeded the point's truncation: {exc}"
        ) from exc
    scale = levels.mu_xn(window.n)
    return paired.table(scale), independent.table(scale), diagonal.table(scale)


def graph_joining_target(m: np.ndarray, dictionary: CFDictionary) -> np.ndarray:
    """Exact (K, K) table of the graph joining along the fiber element
    k = (0, m), m a (4,) unit quaternion: int f_i(x) conj(f_j(T_k x)).

    T_k (t, q) = (t, m q) leaves the level-1 time in place and the
    observables vanish off X_1, so the table is the mean over a uniform
    level-1 time and a Haar fiber of g_i(t, q) conj(g_j(t, m q)), g the
    observables without their mu(X_1)^{-1/2} scale.  _read, the reader of
    the estimates, reads it off the exact means of the products of the
    value rows (CFDictionary) at (t, q) and at (t, m q), by Schur
    orthogonality:
    - each real or imaginary part of a harmonic gives 1/2 against itself,
      the harmonics running over whole periods of (-a_1, a_1];
    - two defining component rows sqrt 2 q_a and sqrt 2 (m q)_b give
      (1/2) P_ab, where E[q q^T] = I/4 and P = quat_mul(m, I_4), whose row
      e is m e_e, so that m q = P^T q;
    - two adjoint rows sqrt 3 A(q)_ab and sqrt 3 A(m q)_cd give
      delta_bd A(m)_ca, A = adjoint_matrix;
    - every other pair gives 0: the fiber rows have Haar mean 0, and the
      defining and adjoint representations are inequivalent.
    """
    cross = np.zeros((dictionary.height, dictionary.height))
    np.fill_diagonal(cross[:16, :16], 0.5)
    cross[16:20, 16:20] = 0.5 * quat_mul(m, np.eye(4))
    a, b = np.array(dictionary.ADJOINT).T
    cross[20:, 20:] = np.where(b[:, None] == b, adjoint_matrix(m).T[np.ix_(a, a)], 0.0)
    return _read(cross, dictionary.layout)


def product_joining_target(dictionary: CFDictionary) -> np.ndarray:
    """Exact (K, K) table of the product joining, (int f_i) conj(int f_j):
    every observable of the dictionary has mean 0, so the table is 0.  The
    harmonics exp(2 pi i m t / a_1), m >= 1, run over whole periods of the
    level-1 times (-a_1, a_1], and the fiber rows are matrix
    coefficients of non-trivial irreducible representations of SU(2), whose
    Haar means vanish by Schur orthogonality.
    """
    return np.zeros((dictionary.size, dictionary.size), dtype=complex)

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

from .groups import adjoint_entry_rows, adjoint_matrix, quat_mul
from .cf_engine import (
    CFLevels,
    LevelTooDeepError,
    OrbitLeftTruncationError,
    row_blocks,
    translate,
)

__all__ = [
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


# ---------------------------------------------------------------------------
# dictionaries
# ---------------------------------------------------------------------------

class CFDictionary:
    """Default K=16 dictionary on the inductive-limit space.

    Observables read the level-1 coordinate when the point has one and vanish
    otherwise; all are scaled by mu(X_1)^{-1/2} so they have unit norm.  Eight
    time harmonics exp(2 pi i m t / a_1) and eight fiber matrix coefficients
    (two defining-representation entries, six adjoint entries), interleaved so
    each classification target pair separates at low metric weight.
    """

    def __init__(self, levels: CFLevels):
        self.a1 = levels.a(1)
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

    def evaluate(self, batch) -> np.ndarray:
        """batch = (valid, ti, tf, q) level-1 coordinates from peel_batch."""
        valid, ti, tf, q = batch
        t = np.asarray(ti, dtype=float) + tf
        out = np.empty((self.size, len(t)), dtype=complex)
        # harmonic m is harmonic m - 1 times harmonic 1, multiplied in place,
        # so one exponential serves all of them
        first = out[self._harm[0]]
        np.exp(2j * math.pi * t / self.a1, out=first)
        for prev, row in zip(self._harm, self._harm[1:]):
            np.multiply(out[prev], first, out=out[row])
        for row in self._harm:
            out[row] *= self.scale
        self._fiber_rows(valid, q, out)
        return out

    def _fiber_rows(self, valid, q, out) -> None:
        """Write the fiber rows of q into `out`, whose time rows hold the
        values at the same times, and zero the lanes off `valid`.  Each row
        is sqrt 2 or sqrt 3 times a matrix coefficient, then scaled, written
        as real and imaginary parts; the adjoint entries are those of
        groups.adjoint_entry_rows, without adjoint_matrix's (n, 3, 3) array."""
        for row, (kind, arg) in self._fiber:
            if kind == "def":
                lo = 0 if arg == "z" else 2
                parts = [(out[row].real, q[:, lo]), (out[row].imag, q[:, lo + 1])]
                root = math.sqrt(2.0)
            else:
                parts = [(out[row].real, adjoint_entry_rows(q.T, *arg))]
                out[row].imag = 0.0
                root = math.sqrt(3.0)
            for part, value in parts:
                np.multiply(value, root, out=part)
                part *= self.scale
        out[:, ~valid] = 0.0

    def evaluate_shared_times(self, batch, q2) -> tuple[np.ndarray, np.ndarray]:
        """Values (fx, fy) of two points with the same times and fibers q
        and q2, batch = (valid, ti, tf, q): fy copies the time rows of fx,
        which the fiber does not enter, and computes only its fiber rows.
        fy is fx when q2 is None."""
        fx = self.evaluate(batch)
        if q2 is None:
            return fx, fx
        fy = fx.copy()
        self._fiber_rows(batch[0], q2, fy)
        return fx, fy


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


def _correlation_table(blocks, scale: float = 1.0) -> EmpiricalJoining:
    """Table of the means of scale * f_i(x_k) conj(f_j(y_k)) over the value
    pairs of `blocks`, an iterable of (fx, fy) row blocks (both (K, n_b)),
    with the stderr of each mean.

    Since |f_i g_j|^2 = |f_i|^2 |g_j|^2, both moments are (K, n_b) x (n_b, K)
    matrix products summed over the blocks, and no (K, K, N) array, nor any
    (K, N) table of all N pairs, is formed.  When fy is fx, |fx|^2 is
    computed once.
    """
    n = 0
    cross = second = 0.0
    for fx, fy in blocks:
        n += fx.shape[1]
        cross = cross + fx @ fy.conj().T
        sq_x = np.abs(fx) ** 2
        # a copy, not sq_x itself: numpy takes the product of an array with
        # its own transpose through syrk, which rounds differently
        sq_y = sq_x.copy() if fy is fx else np.abs(fy) ** 2
        second = second + sq_x @ sq_y.T
        # free this block's tables before the next block is computed
        del fx, fy, sq_x, sq_y
    corr = cross * (scale / n)
    var = np.maximum(second * (scale**2 / n) - np.abs(corr) ** 2, 0.0)
    return EmpiricalJoining(corr, np.sqrt(var / n))


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
    """Total count of integers in `blocks` not covered by `union` (both are
    unions of inclusive integer intervals; union must be merged/sorted)."""
    total = 0
    for lo, hi in blocks:
        covered = 0
        for ulo, uhi in union:
            if uhi < lo:
                continue
            if ulo > hi:
                break
            covered += min(hi, uhi) - max(lo, ulo) + 1
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

def _window_blocks(
    x: tuple,
    x2: tuple,
    window: FolnerWindow,
    dictionary: CFDictionary,
    levels: CFLevels,
    bs: np.ndarray,
    ts: np.ndarray,
):
    """Row blocks (fx, fy) of the dictionary values at the translates of two
    level-1 points, one-row batches (ti, tf, q, tails), by g = b + spacing t.

    Points with the same times and tails, such as x and its fiber partner
    act((0, m), x), share one translate of both fibers and the time rows of
    their values; fy is fx when the fibers are the same too.
    """
    if window.max_abs() >= 2**63:
        raise LevelTooDeepError(f"window-{window.n} translates reach {window.max_abs()}, past int64")
    top = min(window.n + 2, levels.max_level + 1)
    shared = all(np.array_equal(x[i], x2[i]) for i in (0, 1, 3))
    same = shared and np.array_equal(x[2], x2[2])
    q = x[2] if same else np.stack([x[2], x2[2]])
    for rows in row_blocks(len(bs)):
        g = bs[rows] + window.spacing * ts[rows]
        if shared:
            valid, ti, tf, qg, _ = translate(levels, x[0], x[1], q, x[3], g, 1, top)
            qx, qy = (qg, None) if same else qg
            yield dictionary.evaluate_shared_times((valid, ti, tf, qx), qy)
        else:
            yield (dictionary.evaluate(translate(levels, *x, g, 1, top)[:4]),
                   dictionary.evaluate(translate(levels, *x2, g, 1, top)[:4]))


def empirical_joining(
    x: tuple,
    x2: tuple,
    window: FolnerWindow,
    dictionary: CFDictionary,
    levels: CFLevels,
    samples: int,
    rng: np.random.Generator,
) -> EmpiricalJoining:
    """Window-average correlation table of the orbit pair of (x, x2), two
    level-1 points given as one-row batches (ti, tf, q, tails), read on the
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

    The average is estimated from `samples` uniform draws of (b, t), with
    the reported stderr.  The draws are unbiased for the window average
    whatever its size, so a window that `samples` could enumerate (only an
    r_schedule far below the default makes one) is drawn too; the level-4
    window of the default build has about 6.3e10 elements.
    """
    bs = rng.integers(-window.i_max, window.i_max + 1, size=samples)
    ts = rng.integers(-window.j_max, window.j_max + 1, size=samples)
    blocks = _window_blocks(x, x2, window, dictionary, levels, bs, ts)
    try:
        return _correlation_table(blocks, levels.mu_xn(window.n))
    except OrbitLeftTruncationError as exc:
        raise OrbitLeftTruncationError(
            f"window-{window.n} translates up to |g| = {window.max_abs()} "
            f"exceeded the point's truncation: {exc}"
        ) from exc


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

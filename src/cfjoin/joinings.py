"""Joining metric, Folner windows, and empirical joining estimation.

An empirical joining is a K x K table of correlations int f_i(x) conj(f_j(y))
against a fixed ordered dictionary of unit-norm observables; the metric
weights entry (i, j) by 2^{-(i+j)} (1-indexed), so the dictionary ORDER is
part of the experiment identity.  The default dictionary interleaves the
observables that separate the classification targets (time harmonic, the two
defining-representation coefficients, an adjoint diagonal entry) into the
low-index slots where the metric can see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# quat_mul is unused here but stays importable: the benchmark's tracer wraps
# it in every module that holds it and checks joinings.quat_mul
from .groups import GElement, adjoint_matrix, quat_mul, quat_phi_int
from .cf_engine import (
    CFLevels,
    OrbitLeftTruncationError,
    act,
    embed_batch,
    peel_batch,
    sample_point_batch,
    time_lane,
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
    "classify",
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

    def __init__(self, levels: CFLevels, dict_id: str = "k16-default-v1"):
        self.dict_id = dict_id
        self.levels = levels
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
        self._spec = [code for _, code in spec]

    @property
    def size(self) -> int:
        return len(self.labels)

    def evaluate(self, batch) -> np.ndarray:
        """batch = (valid, ti, tf, q) level-1 coordinates from peel_batch."""
        valid, ti, tf, q = batch
        t = np.asarray(ti, dtype=float) + tf
        n = len(t)
        out = np.zeros((self.size, n), dtype=complex)
        adj = None
        # harmonic m -> its row; harmonic m is harmonic m - 1 times harmonic 1,
        # multiplied in place, so one exponential serves all of them
        harm_rows = {}
        for row, code in enumerate(self._spec):
            kind, arg = code
            if kind == "harm":
                if arg == 1:
                    np.exp(2j * math.pi * t / self.a1, out=out[row])
                else:
                    np.multiply(out[harm_rows[arg - 1]], out[harm_rows[1]], out=out[row])
                harm_rows[arg] = row
            elif kind == "def":
                if arg == "z":
                    out[row] = math.sqrt(2.0) * (q[:, 0] + 1j * q[:, 1])
                else:
                    out[row] = math.sqrt(2.0) * (q[:, 2] + 1j * q[:, 3])
            else:
                if adj is None:
                    adj = adjoint_matrix(q)
                a, b = arg
                out[row] = math.sqrt(3.0) * adj[:, a, b]
        out *= self.scale
        out[:, ~valid] = 0.0
        return out

    def norm_report(self, samples: int, rng: np.random.Generator) -> list[tuple[str, float, float]]:
        """Monte Carlo estimates (label, norm, stderr) of every entry norm."""
        ti, tf, q, _ = sample_point_batch(self.levels, samples, 0, rng)
        valid = np.ones(samples, dtype=bool)
        vals = self.evaluate((valid, ti, tf, q))
        mu1 = self.levels.mu_xn(1)
        out = []
        for row, label in enumerate(self.labels):
            sq = np.abs(vals[row]) ** 2 * mu1  # mu-integral via X_1 conditioning
            norm2 = float(np.mean(sq))
            se2 = float(np.std(sq, ddof=1) / math.sqrt(samples))
            norm = math.sqrt(norm2)
            out.append((label, norm, se2 / (2 * max(norm, 1e-9))))
        return out


# ---------------------------------------------------------------------------
# empirical joinings and the metric
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalJoining:
    """Correlation table of a (candidate) 2-fold joining at dictionary resolution."""

    dict_id: str
    corr: np.ndarray  # (K, K) complex
    stderr: np.ndarray  # (K, K) float
    sample_count: int

    def validate(self, slack: float = 0.1) -> None:
        """Entries of a joining table are bounded by 1 for unit-norm
        observables; estimates may exceed by sampling error (3 stderr) plus,
        for single-orbit window averages, a small genericity slack that the
        within-window stderr cannot see."""
        if np.any(np.abs(self.corr) > 1.0 + 3.0 * self.stderr + slack + 1e-9):
            raise ValueError("correlation entry exceeds 1 beyond 3 stderr")

    def to_json(self) -> dict:
        return {
            "dict_id": self.dict_id,
            "n_samples": self.sample_count,
            "corr": [[[float(v.real), float(v.imag)] for v in row] for row in self.corr],
            "stderr": [[float(v) for v in row] for row in self.stderr],
        }


def _check_same_dict(x: EmpiricalJoining, y: EmpiricalJoining) -> None:
    if x.dict_id != y.dict_id or x.corr.shape != y.corr.shape:
        raise ValueError(f"dictionary mismatch: {x.dict_id!r} vs {y.dict_id!r}")


def _weights(k: int) -> np.ndarray:
    i = np.arange(1, k + 1)
    return 2.0 ** -(i[:, None] + i[None, :])


def joining_metric(x: EmpiricalJoining, y: EmpiricalJoining) -> float:
    """Weighted l1 distance sum_{ij} 2^{-(i+j)} |x_ij - y_ij| (1-indexed)."""
    _check_same_dict(x, y)
    w = _weights(x.corr.shape[0])
    return float(np.sum(w * np.abs(x.corr - y.corr)))


def joining_metric_stderr(x: EmpiricalJoining, y: EmpiricalJoining) -> float:
    """Conservative propagated error of the metric from the entry stderrs."""
    _check_same_dict(x, y)
    w = _weights(x.corr.shape[0])
    return float(np.sqrt(np.sum(w**2 * (x.stderr**2 + y.stderr**2))))


def _correlation_table(
    dict_id: str, fx: np.ndarray, fy: np.ndarray, scale: float = 1.0
) -> EmpiricalJoining:
    """Table of the means of scale * f_i(x_k) conj(f_j(y_k)) over the N value
    pairs of fx, fy (both (K, N)), with the stderr of each mean.

    Since |f_i g_j|^2 = |f_i|^2 |g_j|^2, both moments are (K, N) x (N, K)
    matrix products and no (K, K, N) array is formed.
    """
    n = fx.shape[1]
    corr = fx @ fy.conj().T * (scale / n)
    second = (np.abs(fx) ** 2) @ (np.abs(fy) ** 2).T * (scale**2 / n)
    var = np.maximum(second - np.abs(corr) ** 2, 0.0)
    return EmpiricalJoining(dict_id, corr, np.sqrt(var / n), n)


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


@dataclass
class ShulmanReport:
    """Exact growth accounting of the averaging windows at index n.

    setminus_count counts the window elements not already covered by earlier
    windows (the literal reading of the growth inequality).  Containment in
    the doubled next core holds from n = 3 on only: the inequality chain
    behind it needs (n+1)^2 < 2 n^2 regardless of the schedule.
    """

    n: int
    contained: bool
    setminus_count: int
    window_size: int

    @property
    def passed(self) -> bool:
        return self.setminus_count <= 3 * self.window_size


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


def shulman_check(n: int, levels: CFLevels) -> ShulmanReport:
    """Exact integer-interval arithmetic; no window is ever materialized."""
    w = folner_window(n, levels)
    i_next = _int_interval_bound(levels.a(n + 1), (n + 1) * (n + 1))
    contained = w.max_abs() <= 2 * i_next

    own = _window_intervals(w)
    earlier: list[tuple[int, int]] = []
    for m in range(2, n):
        earlier.extend(_window_intervals(folner_window(m, levels)))
    setminus = _subtract_union(own, _merged(earlier)) if earlier else w.size
    return ShulmanReport(n, contained, setminus, w.size)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _window_values(
    point: tuple,
    window: FolnerWindow,
    dictionary: CFDictionary,
    levels: CFLevels,
    bs: np.ndarray,
    ts: np.ndarray,
) -> np.ndarray:
    """Dictionary values (K, R) at the translates of a level-1 point, a
    one-row batch (ti, tf, q, tails), by g = b + spacing t."""
    top = min(window.n + 2, levels.max_level + 1)
    ti, tf, q = embed_batch(levels, *point, 1, top)
    lane = time_lane(levels.a(top) + window.max_abs())
    ti = ti.astype(lane) + bs.astype(lane) + window.spacing * ts.astype(lane)
    tf = np.full(len(bs), tf[0])
    # spacing is even, so parity comes from b
    q = quat_phi_int(bs % 2, np.broadcast_to(q, (len(bs), 4)))
    valid, ti1, tf1, q1, _ = peel_batch(levels, ti, tf, q, top, 1)
    return dictionary.evaluate((valid, ti1, tf1, q1))


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
    level-1 points given as one-row batches (ti, tf, q, tails).

    The full window is enumerated when it fits in `samples`; otherwise the
    average is estimated from uniform draws of (b, t), which is unbiased for
    the window average (the level-4 window already has ~6e10 elements, far
    beyond desk scale) with the reported stderr.
    """
    if window.size <= samples:
        bs, ts = np.meshgrid(
            np.arange(-window.i_max, window.i_max + 1),
            np.arange(-window.j_max, window.j_max + 1),
        )
        bs, ts = bs.ravel(), ts.ravel()
    else:
        bs = rng.integers(-window.i_max, window.i_max + 1, size=samples)
        ts = rng.integers(-window.j_max, window.j_max + 1, size=samples)
    try:
        fx = _window_values(x, window, dictionary, levels, bs, ts)
        fy = _window_values(x2, window, dictionary, levels, bs, ts)
    except OrbitLeftTruncationError as exc:
        raise OrbitLeftTruncationError(
            f"window-{window.n} translates up to |g| = {window.max_abs()} "
            f"exceeded the point's truncation: {exc}"
        ) from exc
    return _correlation_table(dictionary.dict_id, fx, fy)


def graph_joining_target(
    k: GElement,
    dictionary: CFDictionary,
    levels: CFLevels,
    samples: int,
    rng: np.random.Generator,
) -> EmpiricalJoining:
    """Monte Carlo table of the graph joining along k: int f_i(x) conj(f_j(T_k x)).

    The observables vanish off the level-1 part and T_k preserves it for the
    fiber translates used here, so conditioning the sampler on that part is
    exact; the mu(X_1) mass factor enters through the observable norms.
    """
    ti, tf, q, tails = sample_point_batch(levels, samples, 4, rng)
    valid = np.ones(samples, dtype=bool)
    fx = dictionary.evaluate((valid, ti, tf, q))
    # embed two levels, translate by k, peel back
    top = 3
    ti3, tf3, q3 = act(k, *embed_batch(levels, ti, tf, q, tails, 1, top))
    valid_y, ti1, tf1, q1, _ = peel_batch(levels, ti3, tf3, q3, top, 1)
    fy = dictionary.evaluate((valid_y, ti1, tf1, q1))
    return _correlation_table(dictionary.dict_id, fx, fy, levels.mu_xn(1))


def product_joining_target(
    dictionary: CFDictionary,
    levels: CFLevels,
    samples: int,
    rng: np.random.Generator,
) -> EmpiricalJoining:
    """Monte Carlo table of the product joining: (int f_i) conj(int f_j)."""
    ti, tf, q, _ = sample_point_batch(levels, samples, 4, rng)
    valid = np.ones(samples, dtype=bool)
    fx = dictionary.evaluate((valid, ti, tf, q))
    mu1 = levels.mu_xn(1)
    means = fx.mean(axis=1) * mu1
    se = np.std(fx * mu1, axis=1, ddof=1) / math.sqrt(samples)
    corr = means[:, None] * np.conj(means[None, :])
    stderr = (
        np.abs(means[:, None]) * se[None, :]
        + np.abs(means[None, :]) * se[:, None]
        + se[:, None] * se[None, :]
    )
    return EmpiricalJoining(dictionary.dict_id, corr, stderr, samples)


def mixture_table(a: EmpiricalJoining, b: EmpiricalJoining) -> EmpiricalJoining:
    _check_same_dict(a, b)
    return EmpiricalJoining(
        a.dict_id,
        0.5 * (a.corr + b.corr),
        0.5 * np.sqrt(a.stderr**2 + b.stderr**2),
        a.sample_count + b.sample_count,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class ClassificationRow:
    case: str
    target: str
    distance: float
    stderr: float
    verdict: str


def classify(
    case: str, estimate: EmpiricalJoining, targets: dict[str, EmpiricalJoining]
) -> list[ClassificationRow]:
    """Distances from an estimate to the named targets, nearest marked."""
    dists = {
        name: (joining_metric(estimate, tb), joining_metric_stderr(estimate, tb))
        for name, tb in targets.items()
    }
    best = min(dists, key=lambda name: dists[name][0])
    return [
        ClassificationRow(case, name, d, se, "nearest" if name == best else "")
        for name, (d, se) in sorted(dists.items())
    ]

"""Group extensions, skew products, and checkable extension identities.

Fiber convention, fixed throughout: the cocycle multiplies on the left
(T_phi(x, g) = (Tx, phi(x) * g)) and the commuting translations sigma_g
multiply on the right (sigma_g(x, h) = (x, h * g)).  Weak-mixing claims are
supported by statistical probes with explicit thresholds, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .groups import D6_LABELS, D6_MUL, SU2_H0, quat_mul
from .rank_one import TowerScheme, sample_tower_point, stage_level, tower_apply

__all__ = [
    "double_ext_apply",
    "constant_one_obstruction",
    "d6_root_check",
    "D6RootReport",
    "su2_flow_commutation",
    "eigenvalue_probe",
    "chacon_z2_phi",
    "double_extension_orbit",
]


def chacon_z2_phi(scheme: TowerScheme, pos) -> np.ndarray:
    """Default Z2 cocycle at positions pos: 1 on the top level of the stage-2
    tower, 0 elsewhere."""
    return (stage_level(scheme, pos, 2) == scheme.height(2) - 1).astype(np.int64)


def double_ext_apply(scheme: TowerScheme, phi_x, x, s, r):
    """Double extension step (x, s, r) -> (Tx, phi(x) + s, s + r) over Z2,
    elementwise over arrays; phi_x holds the cocycle values phi(x)."""
    return tower_apply(scheme, x), (phi_x + s) % 2, (s + r) % 2


def double_extension_orbit(scheme: TowerScheme, rng: np.random.Generator, length: int):
    """Arrays (x_k, s_k, r_k), k < length, of a random orbit of the Z2 x Z2
    double extension over chacon_z2_phi.

    The fibers are prefix sums mod 2 of the step (x, s, r) -> (Tx, phi(x) + s,
    s + r): s_k = s_0 + sum_{j<k} phi(x_j) and r_k = r_0 + sum_{j<k} s_j.
    """
    x0 = sample_tower_point(scheme, rng, 1)
    s0, r0 = rng.integers(0, 2, 2)
    x = tower_apply(scheme, x0, np.arange(length))
    phi = chacon_z2_phi(scheme, x)
    s = (s0 + np.cumsum(phi) - phi) % 2
    r = (r0 + np.cumsum(s) - s) % 2
    return x, s, r


# ---------------------------------------------------------------------------
# non-coboundary obstruction for the constant-1 cocycle
# ---------------------------------------------------------------------------

def constant_one_obstruction(scheme: TowerScheme) -> bool:
    """Whether chacon_z2_phi returns to a cylinder at an odd time with an even
    fiber increment at each of stages 3 to 6.

    Such a return rules out the constant 1 as a coboundary: the transfer
    equation F o T_phi + F = 1 would force the parity of the return time
    onto the fiber increment, so no transfer function near-constant on the
    cylinder exists.  From the bottom of the first column of the stage n+1
    tower (position 0), the orbit re-enters the stage-n base after 2 h_n + 1
    steps (two column passes plus the spacer), and the cocycle sum doubles
    the per-pass count; the returns are verified on the simulated orbit, not
    assumed, and a missed one is an AssertionError.
    """
    contradictory = True
    for n in (3, 4, 5, 6):
        steps = 2 * scheme.height(n) + 1
        orbit = tower_apply(scheme, 0, np.arange(steps + 1))
        if stage_level(scheme, orbit[-1], n) != 0:
            raise AssertionError(f"expected return to the stage-{n} base")
        total = int(chacon_z2_phi(scheme, orbit[:-1]).sum())
        contradictory &= steps % 2 == 1 and total % 2 == 0
    return contradictory


# ---------------------------------------------------------------------------
# D6 square-root identity
# ---------------------------------------------------------------------------

@dataclass
class D6RootReport:
    root_identity_holds: bool
    commutation_witness: Optional[tuple[str, str, str]]  # (fiber, sig_a sig_b, sig_b sig_a)
    abelian_commutes: bool


def d6_root_check(scheme: TowerScheme, samples: int, rng: np.random.Generator) -> D6RootReport:
    """Verify (T_phi o sigma_a)^2 = (T_phi)^2 pointwise for the D6 cocycle
    x -> d^{chacon_z2_phi(x)}, and exhibit a fiber witness for
    sigma_a sigma_b != sigma_b sigma_a.

    sigma_g(x, h) = (x, h*g) commutes with T_phi, and a*a = e makes the two
    squares literally equal on every point; both facts are checked on raw
    samples with exact group arithmetic, D6 elements being indices into
    D6_LABELS and products lookups in the Cayley table D6_MUL.
    """
    e, a, b, d = (D6_LABELS.index(label) for label in "eabd")
    cocycle = np.array([e, d])

    x = sample_tower_point(scheme, rng, samples)
    fiber = rng.integers(0, 6, samples)
    tx = tower_apply(scheme, x)
    # T^2 x, the base point of both squares; an orbit that leaves the tower
    # here raises TailExhaustedError
    tower_apply(scheme, tx)
    # both squares multiply the fiber by c(phi(Tx)) c(phi(x)) on the left;
    # (T_phi o sigma_a)^2 also by a a on the right
    g2 = D6_MUL[D6_MUL[cocycle[chacon_z2_phi(scheme, tx)], cocycle[chacon_z2_phi(scheme, x)]], fiber]
    g1 = D6_MUL[D6_MUL[g2, a], a]
    ok = bool(np.array_equal(g1, g2))

    witness = None
    for h in range(6):
        ab = D6_MUL[D6_MUL[h, b], a]  # sigma_a(sigma_b(.,h)) fiber
        ba = D6_MUL[D6_MUL[h, a], b]
        if ab != ba:
            witness = (D6_LABELS[h], D6_LABELS[ab], D6_LABELS[ba])
            break

    abelian = all(D6_MUL[D6_MUL[h, a], e] == D6_MUL[D6_MUL[h, e], a] for h in (e, a))
    return D6RootReport(ok, witness, abelian)


# ---------------------------------------------------------------------------
# SU(2) flow non-commutation
# ---------------------------------------------------------------------------

def su2_flow_commutation(t: float) -> bool:
    """Whether the fixed fiber rotation commutes with the diagonal flow at
    time t (true exactly when 2t is an integer)."""
    g_t = np.array([math.cos(2 * math.pi * t), math.sin(2 * math.pi * t), 0.0, 0.0])
    h0 = SU2_H0.array()
    return float(np.max(np.abs(quat_mul(h0, g_t) - quat_mul(g_t, h0)))) <= 1e-10


# ---------------------------------------------------------------------------
# spectral probe
# ---------------------------------------------------------------------------

def eigenvalue_probe(values, frequencies: Sequence[float]) -> tuple[list[float], float]:
    """Twisted Birkhoff sums |1/N sum e^{-2 pi i n theta} f(T^n x)|, one per
    theta of `frequencies`, from the observable values f(T^n x), n < N, and
    the threshold, the reference line 5 N^{-1/2} log N.

    Values near 1 flag point spectrum at theta; values of order N^{-1/2} are
    consistent with its absence.

    All frequencies share one blocked sum: with n = m a + b, m = isqrt(N),
    the values zero-padded to V[a, b] give sum_a e^{-2 pi i theta m a}
    sum_b e^{-2 pi i theta b} V[a, b], so 2 sqrt(N) exponentials per theta
    and one matrix product replace N exponentials per theta.
    """
    values = np.asarray(values)
    orbit_len = len(values)
    if orbit_len < 10_000:
        raise ValueError("orbit_len must be at least 1e4 for a meaningful probe")
    threshold = 5.0 * math.log(orbit_len) / math.sqrt(orbit_len)
    m = math.isqrt(orbit_len)
    rows = -(-orbit_len // m)
    padded = np.zeros(rows * m, dtype=np.result_type(values, 1.0))
    padded[:orbit_len] = values
    theta = np.asarray(frequencies, dtype=float)[:, None]
    outer = np.exp(-2j * math.pi * theta * (m * np.arange(rows)))
    inner = np.exp(-2j * math.pi * theta * np.arange(m))
    sums = ((outer @ padded.reshape(rows, m)) * inner).sum(axis=1) / orbit_len
    return [float(abs(z)) for z in sums], threshold

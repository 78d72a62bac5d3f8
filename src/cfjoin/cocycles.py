"""Group extensions, skew products, and checkable extension identities.

Fiber convention, fixed throughout: the cocycle multiplies on the left
(T_phi(x, g) = (Tx, phi(x) * g)) and the commuting translations sigma_g
multiply on the right (sigma_g(x, h) = (x, h * g)).  Weak-mixing claims are
supported by statistical probes with explicit thresholds, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import (
    D6Element,
    D6_ELEMENTS,
    D6_IDENTITY,
    SU2_H0,
    su2_dist,
    su2_from_angle,
    su2_mul,
    d6_mul,
)
from .rank_one import (
    TowerPoint,
    TowerScheme,
    sample_tower_point,
    stage_level_of,
    tower_apply,
)

__all__ = [
    "double_ext_apply",
    "constant_one_obstruction",
    "ObstructionWitness",
    "d6_root_check",
    "D6RootReport",
    "su2_flow_commutation",
    "eigenvalue_probe",
    "SpectralLine",
    "chacon_z2_phi",
    "double_extension_orbit",
]


def chacon_z2_phi(scheme: TowerScheme, stage: int = 2) -> Callable[[TowerPoint], int]:
    """Default Z2 cocycle: indicator of the top level of the stage-2 tower."""
    top = scheme.height(stage) - 1

    def phi(p: TowerPoint) -> int:
        return 1 if stage_level_of(p, scheme, stage) == top else 0

    return phi


def double_ext_apply(
    base: Callable[[TowerPoint], TowerPoint],
    phi: Callable[[TowerPoint], int],
    x: TowerPoint,
    s: int,
    r: int,
) -> tuple[TowerPoint, int, int]:
    """Double extension step (x, s, r) -> (Tx, phi(x) + s, s + r) over Z2."""
    return base(x), (phi(x) + s) % 2, (s + r) % 2


# ---------------------------------------------------------------------------
# non-coboundary obstruction for the constant-1 cocycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionWitness:
    """Return to the same base cylinder at an odd time with an even fiber
    increment: the transfer equation F o T_phi + F = 1 would force the parity
    of the return time onto the fiber increment, so such a return rules out
    any transfer function that is near-constant on the cylinder."""

    stage: int
    return_time: int
    fiber_increment: int

    @property
    def contradictory(self) -> bool:
        return self.return_time % 2 == 1 and self.fiber_increment % 2 == 0


def constant_one_obstruction(
    scheme: TowerScheme,
    phi: Callable[[TowerPoint], int],
    stages: Sequence[int] = (3, 4, 5, 6),
) -> list[ObstructionWitness]:
    """Exhibit odd-time, even-increment cylinder returns at a family of stages.

    From the bottom of the first column of the stage n+1 tower, the orbit
    re-enters the stage-n base after 2 h_n + 1 steps (two column passes plus
    the spacer), and the cocycle sum doubles the per-pass count; these
    witnesses are verified by direct orbit simulation, not assumed.
    """
    out = []
    for n in stages:
        h = scheme.height(n)
        p = TowerPoint(stage=n + 1, rung=0, tail=tuple([0] * 48))
        steps = 2 * h + 1
        total = 0
        q = p
        for _ in range(steps):
            total += phi(q)
            q = tower_apply(scheme, q)
        if stage_level_of(q, scheme, n) != 0:
            raise AssertionError(f"expected return to the stage-{n} base")
        out.append(ObstructionWitness(stage=n, return_time=steps, fiber_increment=total))
    return out


# ---------------------------------------------------------------------------
# D6 square-root identity
# ---------------------------------------------------------------------------

@dataclass
class D6RootReport:
    root_identity_holds: bool
    samples: int
    commutation_witness: Optional[tuple[str, str, str]]  # (fiber, sig_a sig_b, sig_b sig_a)
    abelian_commutes: bool


def d6_root_check(
    scheme: TowerScheme,
    cocycle: Callable[[TowerPoint], D6Element],
    samples: int,
    rng: np.random.Generator,
    root_element: D6Element = D6Element("a"),
    other_element: D6Element = D6Element("b"),
) -> D6RootReport:
    """Verify (T_phi o sigma_a)^2 = (T_phi)^2 pointwise and exhibit a fiber
    witness for sigma_a sigma_b != sigma_b sigma_a.

    sigma_g(x, h) = (x, h*g) commutes with T_phi, and a*a = e makes the two
    squares literally equal on every point; both facts are checked on raw
    samples with exact group arithmetic.
    """
    a = root_element
    b = other_element

    def t_phi(x: TowerPoint, h: D6Element) -> tuple[TowerPoint, D6Element]:
        return tower_apply(scheme, x), d6_mul(cocycle(x), h)

    def sigma(g: D6Element, x: TowerPoint, h: D6Element):
        return x, d6_mul(h, g)

    ok = True
    for _ in range(samples):
        x = sample_tower_point(scheme, rng, stage=min(8, scheme.stages - 2))
        h = D6_ELEMENTS[int(rng.integers(0, 6))]
        # (T_phi o sigma_a)^2
        y1, g1 = t_phi(*sigma(a, x, h))
        y1, g1 = t_phi(*sigma(a, y1, g1))
        # (T_phi)^2
        y2, g2 = t_phi(x, h)
        y2, g2 = t_phi(y2, g2)
        if g1 != g2 or stage_level_of(y1, scheme, 2) != stage_level_of(y2, scheme, 2):
            ok = False
            break

    witness = None
    for h in D6_ELEMENTS:
        ab = d6_mul(d6_mul(h, b), a)  # sigma_a(sigma_b(.,h)) fiber
        ba = d6_mul(d6_mul(h, a), b)
        if ab != ba:
            witness = (h.label, ab.label, ba.label)
            break

    abelian = all(
        d6_mul(d6_mul(h, a), D6_IDENTITY) == d6_mul(d6_mul(h, D6_IDENTITY), a)
        for h in (D6_IDENTITY, a)
    )
    return D6RootReport(ok, samples, witness, abelian)


# ---------------------------------------------------------------------------
# SU(2) flow non-commutation
# ---------------------------------------------------------------------------

def su2_flow_commutation(t: float) -> bool:
    """Whether the fixed fiber rotation commutes with the diagonal flow at
    time t (true exactly when 2t is an integer)."""
    g_t = su2_from_angle(t)
    return su2_dist(su2_mul(SU2_H0, g_t), su2_mul(g_t, SU2_H0)) <= 1e-10


# ---------------------------------------------------------------------------
# spectral probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralLine:
    theta: float
    modulus: float
    threshold: float

    @property
    def below(self) -> bool:
        return self.modulus <= self.threshold


def eigenvalue_probe(
    transform: Callable,
    frequencies: Sequence[float],
    observable: Callable,
    orbit_len: int,
    initial_state,
    threshold: Optional[float] = None,
) -> list[SpectralLine]:
    """Twisted Birkhoff sums |1/N sum e^{-2 pi i n theta} f(T^n x)| per theta.

    Values near 1 flag point spectrum at theta; values of order N^{-1/2} are
    consistent with its absence.  The default threshold is the reference line
    5 N^{-1/2} log N.
    """
    if orbit_len < 10_000:
        raise ValueError("orbit_len must be at least 1e4 for a meaningful probe")
    if threshold is None:
        threshold = 5.0 * math.log(orbit_len) / math.sqrt(orbit_len)
    values = np.empty(orbit_len, dtype=complex)
    x = initial_state
    for k in range(orbit_len):
        values[k] = observable(x)
        x = transform(x)
    ks = np.arange(orbit_len)
    out = []
    for theta in frequencies:
        phase = np.exp(-2j * math.pi * theta * ks)
        out.append(SpectralLine(float(theta), float(abs(np.mean(phase * values))), threshold))
    return out


def double_extension_orbit(
    scheme: TowerScheme,
    phi: Callable[[TowerPoint], int],
    rng: np.random.Generator,
):
    """Initial state and step function of the Z2 x Z2 double extension."""
    x0 = sample_tower_point(scheme, rng, stage=min(10, scheme.stages - 4))
    s0 = int(rng.integers(0, 2))
    r0 = int(rng.integers(0, 2))

    def step(state):
        x, s, r = state
        return double_ext_apply(lambda p: tower_apply(scheme, p), phi, x, s, r)

    return (x0, s0, r0), step

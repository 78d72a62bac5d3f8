"""Oracles for the closed forms of `run_sample_sets`.

The per-shell loops below are the brute-force sums that the closed forms
replace: the techniczny-ii pair sum over every shell shift d, and the
techniczny-i fraction over every one of the 2K * count sample-set points.
The exact references those are compared with (the rectangle measure and the
mean overlap) are checked against uniform draws and against quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from cfjoin import equidist
from cfjoin.groups import SU2_I, GElement, SU2Element, quat_inv, quat_mul, quat_normalize, quat_phi_real
from cfjoin.verifier import (
    _common_length,
    _fiber_in_cube,
    _mean_overlap,
    _overlap_pair_sum,
    _rectangle_measure,
    _sample_set_fraction,
)


def _in_rectangles(t, quats, rects):
    """Mask of the points x = (t, q) lying in A^{-1} a for every rect =
    (a, (lo, hi], cube): a x^{-1} in A, so a.t - t in (lo, hi] and, where
    there is a cube, the fiber m phi_{a.t - t}(q^{-1}) in it."""
    sel = np.ones(len(t), dtype=bool)
    for a_elem, (lo, hi), cube in rects:
        ta = a_elem.t - t
        sel &= (ta > lo) & (ta <= hi)
        if cube is not None:
            sel &= _fiber_in_cube(ta, quat_normalize(quats), a_elem.m, cube)
    return sel


def _dshift_pair_sum(u, half, ta, wa, tb, wb) -> float:
    """Tent-weighted overlap sum, one shell shift d at a time."""
    du = u[:, None] - u[None, :]
    total = 0.0
    for d in range(math.floor(tb - ta - wa - 2), math.ceil(tb - ta + wb + 2) + 1):
        mult = 2 * half - abs(d)
        if mult <= 0:
            continue
        lo = np.maximum(ta + d + du, tb)
        hi = np.minimum(ta + d + du + wa, tb + wb)
        total += mult * float(np.sum(np.maximum(hi - lo, 0.0)))
    return total


def _shell_points(ss):
    t = (np.arange(-ss.half_width, ss.half_width)[:, None] + ss.u_time[None, :]).ravel()
    q = np.tile(ss.quats, (2 * ss.half_width, 1))
    return t, q


def _near_face(t, q, rect, tol=1e-9):
    """Points whose chart coordinate of a x^{-1} lies within tol of a cube face."""
    a_elem, _, cube = rect
    if cube is None:
        return np.zeros(len(t), dtype=bool)
    u = equidist.su2_to_chart_array(quat_mul(a_elem.m.array(), quat_phi_real(a_elem.t - t, quat_inv(q))))
    near = np.zeros(len(t), dtype=bool)
    for dim, (lo, hi) in enumerate(cube):
        near |= (np.abs(u[:, dim] - lo) < tol) | (np.abs(u[:, dim] - hi) < tol)
    return near


@settings(max_examples=40)
@given(data=st.data())
def test_closed_form_fiber_matches_three_products(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    scale = 2.0 ** data.draw(st.integers(0, 50), label="log2 |ta|")
    # large and negative times, with integers and eighths among them
    ta = np.concatenate([rng.uniform(-scale, scale, 300), np.round(rng.uniform(-scale, scale, 100) * 8) / 8])
    q = rng.standard_normal((len(ta), 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    lows = [data.draw(st.floats(0.0, 0.6), label=f"cube{d}") for d in range(3)]
    cube = tuple((c, min(c + data.draw(st.floats(0.2, 0.6)), 1.0)) for c in lows)
    m = SU2Element.from_array(rng.standard_normal(4))
    u = equidist.su2_to_chart_array(quat_mul(m.array(), quat_phi_real(ta, quat_inv(q))))
    ref = np.ones(len(ta), dtype=bool)
    for dim, (lo, hi) in enumerate(cube):
        ref &= (u[:, dim] >= lo) & (u[:, dim] < hi)
    # a at time 0 and points at time -ta give a x^{-1} the time ta exactly
    near = _near_face(-ta, q, (GElement(0.0, m), None, cube))
    assert not np.any((_fiber_in_cube(ta, q, m, cube) != ref) & ~near)


# shell offsets: a Halton prefix, as sample sets use, or any floats in [0, 1)
offsets = st.one_of(
    st.integers(1, 16).map(lambda k: equidist.halton(k, 4)[:, 0]),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=16, unique=True).map(np.array),
)


@settings(max_examples=30)
@given(data=st.data())
def test_pair_sum_matches_dshift_loop(data):
    half = data.draw(st.integers(1, 2000), label="half")
    u = data.draw(offsets, label="offsets")
    # rectangles at slab scale, as run_sample_sets draws them
    wa = data.draw(st.floats(0.5, 1.5), label="wa") * half
    wb = data.draw(st.floats(0.5, 1.5), label="wb") * half
    ta = data.draw(st.floats(-1.0, 1.0), label="ta") * half
    tb = data.draw(st.floats(-1.0, 1.0), label="tb") * half
    ref = _dshift_pair_sum(u, half, ta, wa, tb, wb)
    assert abs(_overlap_pair_sum(u, half, ta, wa, tb, wb) - ref) <= 1e-12 * ref


def _rect(data, half, label, cube):
    """A rectangle whose translate by a may reach past either slab edge."""
    times = st.one_of(st.integers(-3 * half, 3 * half).map(float), st.floats(-3.0, 3.0).map(lambda x: x * half))
    a_t = data.draw(times, label=f"{label}.t")
    lo = data.draw(times, label=f"{label}.lo")
    width = data.draw(st.floats(0.0, 3.0), label=f"{label}.width") * half
    q = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label=f"{label}.m")).standard_normal(4)
    box = None
    if cube:
        lows = [data.draw(st.floats(0.0, 0.6), label=f"{label}.cube{d}") for d in range(3)]
        box = tuple((c, min(c + data.draw(st.floats(0.2, 0.6)), 1.0)) for c in lows)
    return (GElement(a_t, SU2Element.from_array(q)), (lo, lo + width), box)


@settings(max_examples=60)
@given(data=st.data())
def test_time_fraction_matches_every_point(data):
    half = data.draw(st.integers(1, 2000), label="half")
    ss = equidist.build_sample_set(1, half, data.draw(st.integers(1, 16), label="count"))
    rect_a = _rect(data, half, "a", cube=False)
    rect_b = _rect(data, half, "b", cube=False)
    t, q = _shell_points(ss)
    hits = int(np.sum(_in_rectangles(t, q, (rect_a, rect_b))))
    assert _sample_set_fraction(ss, (rect_a, rect_b)) == hits / ss.size


def test_time_fraction_at_exact_interval_ends():
    # the 16 Halton offsets and all times are multiples of 1/16, so points
    # of many shells sit exactly on an interval end
    ss = equidist.build_sample_set(1, 500, 16)
    t, q = _shell_points(ss)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a_t, b_t, lo_a, lo_b = (float(x) for x in rng.integers(-8000, 8000, size=4) / 16)
        wa, wb = (float(x) for x in rng.integers(16, 16000, size=2) / 16)
        rect_a = (GElement(a_t, SU2_I), (lo_a, lo_a + wa), None)
        rect_b = (GElement(b_t, SU2_I), (lo_b, lo_b + wb), None)
        hits = int(np.sum(_in_rectangles(t, q, (rect_a, rect_b))))
        assert _sample_set_fraction(ss, (rect_a, rect_b)) == hits / ss.size


@settings(max_examples=40)
@given(data=st.data())
def test_cube_fraction_matches_every_point(data):
    half = data.draw(st.integers(1, 2000), label="half")
    ss = equidist.build_sample_set(1, half, data.draw(st.integers(1, 16), label="count"))
    rect_a = _rect(data, half, "a", cube=True)
    rect_b = _rect(data, half, "b", cube=data.draw(st.booleans(), label="b has a cube"))
    t, q = _shell_points(ss)
    hits = int(np.sum(_in_rectangles(t, q, (rect_a, rect_b))))
    got = round(_sample_set_fraction(ss, (rect_a, rect_b)) * ss.size)
    # the closed form twists by the shell's residue mod 4 in place of the
    # shell itself, which moves chart coordinates by rounding only
    in_time = _in_rectangles(t, q, (rect_a[:2] + (None,), rect_b[:2] + (None,)))
    near = in_time & (_near_face(t, q, rect_a) | _near_face(t, q, rect_b))
    assert abs(got - hits) <= int(np.sum(near))


def test_fraction_counts_shells_far_from_zero():
    # a slab of 2 * 2000 shells and rectangles clipped at its top, at its
    # bottom and at both, with a cube fiber on each: every residue class
    # runs to a clipped edge
    ss = equidist.build_sample_set(1, 2000, 16)
    rng = np.random.default_rng(1)
    for a_t, lo, width in ((1500.25, -4100.0, 6000.0), (-1000.5, -1500.0, 3999.0), (3.0, -2500.0, 5000.0)):
        rect_a = (GElement(a_t, SU2Element.from_array(rng.standard_normal(4))), (lo, lo + width),
                  ((0.1, 0.7), (0.2, 0.9), (0.0, 0.6)))
        rect_b = (GElement(a_t - 1.5, SU2Element.from_array(rng.standard_normal(4))), (lo, lo + width),
                  ((0.3, 1.0), (0.0, 0.5), (0.25, 0.95)))
        t, q = _shell_points(ss)
        hits = int(np.sum(_in_rectangles(t, q, (rect_a, rect_b))))
        assert hits > 0
        assert _sample_set_fraction(ss, (rect_a, rect_b)) == hits / ss.size


@settings(max_examples=40)
@given(data=st.data())
def test_rectangle_measure_matches_uniform_draws(data):
    # windows past either slab edge, empty windows, and a cube on one
    # rectangle or on none; uniform points of (-K, K] x SU(2) at 4 sigma
    half = data.draw(st.integers(1, 2000), label="half")
    with_cube = data.draw(st.sampled_from([None, "a", "b"]), label="cube on")
    rects = (_rect(data, half, "a", cube=with_cube == "a"), _rect(data, half, "b", cube=with_cube == "b"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    draws = 20_000
    t = rng.uniform(-half, half, draws)
    q = rng.standard_normal((draws, 4))
    exact = _rectangle_measure(half, rects)
    assert 0.0 <= exact <= 1.0
    hit = np.count_nonzero(_in_rectangles(t, q, rects)) / draws
    assert abs(hit - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / draws) + 1e-12


def test_rectangle_measure_rejects_two_cubes():
    # the fiber tests of two cubes are not independent, so the product of
    # their volumes would be wrong
    cube = ((0.1, 0.8), (0.2, 0.9), (0.0, 0.7))
    rects = ((GElement(0.0, SU2_I), (-10.0, 10.0), cube), (GElement(1.0, SU2_I), (-10.0, 10.0), cube))
    with pytest.raises(ValueError, match="two cubes"):
        _rectangle_measure(20, rects)


@settings(max_examples=40)
@given(data=st.data())
def test_mean_overlap_matches_quadrature(data):
    half = data.draw(st.integers(1, 2000), label="half")
    # rectangles at slab scale, as run_sample_sets draws them
    wa = data.draw(st.floats(0.5, 1.5), label="wa") * half
    wb = data.draw(st.floats(0.5, 1.5), label="wb") * half
    ta = data.draw(st.floats(-1.0, 1.0), label="ta") * half
    tb = data.draw(st.floats(-1.0, 1.0), label="tb") * half
    k2 = 2.0 * half
    p0 = tb - ta - wa
    breaks = [p for p in (0.0, p0, p0 + min(wa, wb), p0 + max(wa, wb), tb - ta + wb) if -k2 < p < k2]
    ref, _ = integrate.quad(
        lambda d: _common_length((ta + d, ta + d + wa), (tb, tb + wb)) * (k2 - abs(d)) / k2**2,
        -k2, k2, points=breaks, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    assert abs(_mean_overlap(half, ta, wa, tb, wb) - ref) <= 1e-12 * ref


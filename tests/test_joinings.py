import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cfjoin import cf_engine as cf
from cfjoin import joinings as jo
from cfjoin.groups import GElement, SU2_H0, SU2_I, conj_star


@pytest.fixture(scope="module")
def dictionary(levels):
    return jo.CFDictionary(levels)


def random_table(rng, k=4):
    corr = rng.uniform(-1, 1, size=(k, k)) + 1j * rng.uniform(-1, 1, size=(k, k))
    corr /= np.max(np.abs(corr))
    return jo.EmpiricalJoining("test", corr, np.zeros((k, k)), 100)


class TestMetric:
    def test_identical_tables(self, rng):
        t = random_table(rng)
        assert jo.joining_metric(t, t) == 0.0

    def test_single_entry_delta(self, rng):
        t = random_table(rng)
        corr2 = t.corr.copy()
        corr2[0, 0] += 0.12
        t2 = jo.EmpiricalJoining("test", corr2, t.stderr, 100)
        assert jo.joining_metric(t, t2) == pytest.approx(0.12 / 4)

    def test_metric_axioms(self, rng):
        a, b, c = (random_table(rng) for _ in range(3))
        dab = jo.joining_metric(a, b)
        assert dab == pytest.approx(jo.joining_metric(b, a))
        assert dab >= 0
        assert dab <= jo.joining_metric(a, c) + jo.joining_metric(c, b) + 1e-12

    def test_dictionary_mismatch(self, rng):
        t = random_table(rng)
        other = jo.EmpiricalJoining("other", t.corr, t.stderr, 100)
        with pytest.raises(ValueError, match="dictionary mismatch"):
            jo.joining_metric(t, other)


def circle_table(functions, xs, ys):
    """Correlation table of a pair cloud (x_k, y_k) of circle points."""
    fx = np.stack([f(xs) for f in functions]).astype(complex)
    fy = np.stack([f(ys) for f in functions]).astype(complex)
    return jo._correlation_table("circle", fx, fy)


def invariance_gap(functions, xi_pairs, nu_pairs, move):
    """|d(xi o (T x T), nu o (T x T)) - d(xi, nu)| on empirical pair clouds."""
    before = jo.joining_metric(circle_table(functions, *xi_pairs), circle_table(functions, *nu_pairs))
    after = jo.joining_metric(
        circle_table(functions, *map(move, xi_pairs)), circle_table(functions, *map(move, nu_pairs))
    )
    return abs(after - before)


class TestCorrelationTable:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(1, 6), n=st.integers(1, 50),
           scale=st.floats(0.01, 2.0))
    def test_matches_broadcast(self, data, k, n, scale):
        values = hnp.arrays(
            complex, (k, n),
            elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        )
        fx, fy = data.draw(values), data.draw(values)
        table = jo._correlation_table("t", fx, fy, scale)
        prod = fx[:, None, :] * np.conj(fy[None, :, :]) * scale
        corr = prod.mean(axis=2)
        var = np.maximum((np.abs(prod) ** 2).mean(axis=2) - np.abs(corr) ** 2, 0.0)
        assert table.sample_count == n
        assert np.max(np.abs(table.corr - corr)) <= 1e-12
        # compared before the square root, which turns rounding of a zero
        # variance into an error of order 1e-8
        assert np.max(np.abs(table.stderr**2 * n - var)) <= 1e-12


class TestInvarianceCheck:
    def test_rotation_eigen_dictionary_exact(self, rng):
        # harmonics are rotation eigenfunctions: composing with the rotation
        # multiplies each correlation entry by a unit phase, so the metric is
        # exactly invariant
        alpha = 0.234
        functions = [lambda x, m=m: np.exp(2j * math.pi * m * np.asarray(x)) for m in (1, 2, 3)]
        xs, ys = rng.uniform(size=300), rng.uniform(size=300)
        xs2, ys2 = rng.uniform(size=300), rng.uniform(size=300)
        move = lambda b: np.mod(b + alpha, 1.0)
        assert invariance_gap(functions, (xs, ys), (xs2, ys2), move) < 1e-10

    def test_identical_joinings_trivial(self, rng):
        functions = [lambda x: np.exp(2j * math.pi * np.asarray(x))]
        xs, ys = rng.uniform(size=100), rng.uniform(size=100)
        assert invariance_gap(functions, (xs, ys), (xs, ys), lambda b: b) == 0.0

    def test_generic_map_small_difference(self, rng):
        # a non-eigen dictionary under a measure-preserving map: the change is
        # within a few empirical standard errors
        functions = [
            lambda x: np.exp(2j * math.pi * np.asarray(x)),
            lambda x: np.sqrt(3) * (2 * np.asarray(x) - 1) + 0j,
        ]
        n = 60_000
        xs = rng.uniform(size=n)
        ys = np.mod(xs + 0.1, 1.0)
        xs2 = rng.uniform(size=n)
        ys2 = rng.uniform(size=n)
        move = lambda b: np.mod(b + 0.37, 1.0)
        assert invariance_gap(functions, (xs, ys), (xs2, ys2), move) < 8 / math.sqrt(n)


class TestWindows:
    def test_window_size_formula(self, levels):
        w = jo.folner_window(3, levels)
        assert w.size == (2 * w.i_max + 1) * (2 * w.j_max + 1)
        assert w.i_max == (levels.a(3) - 1) // 9
        assert w.j_max == (levels.params.r(3) - 1) // 9

    def test_window_too_small(self, levels):
        with pytest.raises(ValueError, match="too small"):
            jo.folner_window(1, levels)

    def test_shulman_reports(self, levels):
        for n in range(2, 7):
            rep = jo.shulman_check(n, levels)
            assert rep.passed  # covered-growth reading, exact integer count
            assert rep.setminus_count <= rep.window_size
        # containment in the doubled next core requires (n+1)^2 < 2 n^2
        assert not jo.shulman_check(2, levels).contained
        for n in range(3, 7):
            assert jo.shulman_check(n, levels).contained

    def test_windows_grow(self, levels):
        sizes = [jo.folner_window(n, levels).size for n in range(2, 7)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


class TestDictionary:
    def test_norms_unit_within_mc_error(self, levels, dictionary):
        rows = dictionary.norm_report(100_000, np.random.default_rng(0))
        for label, norm, se in rows:
            assert abs(norm - 1.0) <= 4 * se + 1e-3, (label, norm, se)

    def test_vanishes_off_level1(self, levels, dictionary):
        valid = np.array([True, False])
        ti = np.array([3, 5], dtype=np.int64)
        tf = np.array([0.2, 0.7])
        q = np.tile(np.array([1.0, 0, 0, 0]), (2, 1))
        vals = dictionary.evaluate((valid, ti, tf, q))
        assert np.all(vals[:, 1] == 0.0)
        # the harmonic entries are nonvanishing at any valid point
        assert abs(vals[0, 0]) > 0.9

    def test_harmonic_powers_match_direct_exponentials(self, levels, dictionary):
        rng = np.random.default_rng(8)
        a1 = levels.a(1)
        ti = rng.integers(-a1, a1, size=5000)
        tf = rng.uniform(0.0, 1.0, size=5000)
        q = np.tile(np.array([1.0, 0, 0, 0]), (5000, 1))
        vals = dictionary.evaluate((np.ones(5000, dtype=bool), ti, tf, q))
        t = ti + tf
        for m in range(1, 9):
            row = dictionary.labels.index(f"harm-{m}")
            direct = dictionary.scale * np.exp(2j * math.pi * m * t / a1)
            assert np.max(np.abs(vals[row] - direct)) <= 1e-12

    def test_weights_are_dyadic(self, dictionary):
        w = jo._weights(dictionary.size)
        assert w[0, 0] == 0.25
        assert w[1, 0] == w[0, 1] == 0.125


class TestTargets:
    def test_identity_graph_is_diagonal(self, levels, dictionary):
        diag = jo.graph_joining_target(
            GElement(0.0, SU2_I), dictionary, levels, 40_000, np.random.default_rng(1)
        )
        # diagonal correlations: <f_i, f_j> with mass mu(X_1); diagonal
        # entries are the squared norms = 1
        for i in range(dictionary.size):
            assert abs(diag.corr[i, i] - 1.0) <= 5 * diag.stderr[i, i] + 0.01

    def test_central_translate_fixed_by_star(self, levels, dictionary):
        k = GElement(2.0, SU2_I)
        assert conj_star(k) == k
        a = jo.graph_joining_target(k, dictionary, levels, 20_000, np.random.default_rng(2))
        b = jo.graph_joining_target(k, dictionary, levels, 20_000, np.random.default_rng(2))
        assert np.allclose(a.corr, b.corr)

    def test_inexact_float_translate_rejected(self, levels, dictionary):
        # the float 2^53 no longer carries every integer translate; flooring
        # it silently would round the graph's time shift
        with pytest.raises(cf.InexactTranslateError):
            jo.graph_joining_target(
                GElement(2.0**53, SU2_I), dictionary, levels, 100, np.random.default_rng(0)
            )

    def test_mixture_is_average(self, levels, dictionary):
        k = GElement(0.0, SU2_H0)
        a = jo.graph_joining_target(k, dictionary, levels, 20_000, np.random.default_rng(3))
        b = jo.graph_joining_target(conj_star(k), dictionary, levels, 20_000, np.random.default_rng(4))
        mix = jo.mixture_table(a, b)
        assert np.allclose(mix.corr, 0.5 * (a.corr + b.corr))

    def test_product_target_entries(self, levels, dictionary):
        prod = jo.product_joining_target(dictionary, levels, 50_000, np.random.default_rng(5))
        # every observable has zero mean, so the product table vanishes
        assert np.max(np.abs(prod.corr)) < 0.02

    def test_graph_target_discriminating_entries(self, levels, dictionary):
        # frozen from the representation-theoretic oracle: the (z, w)-cross
        # correlation of the h0 graph is +1, of its star graph -1, and the
        # first adjoint diagonal entry is -1 for both
        k = GElement(0.0, SU2_H0)
        gk = jo.graph_joining_target(k, dictionary, levels, 60_000, np.random.default_rng(6))
        gks = jo.graph_joining_target(conj_star(k), dictionary, levels, 60_000, np.random.default_rng(7))
        assert gk.corr[1, 2].real == pytest.approx(1.0, abs=0.03)
        assert gks.corr[1, 2].real == pytest.approx(-1.0, abs=0.03)
        assert gk.corr[3, 3].real == pytest.approx(-1.0, abs=0.03)
        assert gks.corr[3, 3].real == pytest.approx(-1.0, abs=0.03)
        assert gk.corr[0, 0].real == pytest.approx(1.0, abs=0.03)


class TestEmpiricalJoining:
    def test_diagonal_case(self, levels, dictionary):
        w = jo.folner_window(3, levels)
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(8))
        emp = jo.empirical_joining(x, x, w, dictionary, levels, 40_000, np.random.default_rng(9))
        diag = jo.graph_joining_target(
            GElement(0.0, SU2_I), dictionary, levels, 40_000, np.random.default_rng(10)
        )
        d = jo.joining_metric(emp, diag)
        assert d <= 8 * jo.joining_metric_stderr(emp, diag) + 0.03

    def test_paired_case_close_to_graph_structure(self, levels, dictionary):
        w = jo.folner_window(4, levels)
        k = GElement(0.0, SU2_H0)
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(11))
        x2 = (*cf.act(k, *x[:3]), x[3])
        emp = jo.empirical_joining(x, x2, w, dictionary, levels, 40_000, np.random.default_rng(12))
        # time coordinates agree along the whole window, so the phases of the
        # first harmonic cancel exactly; the magnitude carries the window's
        # level-1 occupation frequency (a genericity fluctuation around 1)
        assert abs(emp.corr[0, 0].imag) < 1e-9
        assert emp.corr[0, 0].real == pytest.approx(1.0, abs=0.05)
        # the fiber cross-entry averages the +1/-1 graph values to ~0
        assert abs(emp.corr[1, 2]) < 0.05

    def test_truncation_error_lists_translate(self, levels, dictionary):
        w = jo.folner_window(4, levels)
        # one tail index: the level-6 frame of window 4 needs five
        x = (np.array([0]), np.array([0.5]), np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[0]]))
        with pytest.raises(cf.OrbitLeftTruncationError, match="translate"):
            jo.empirical_joining(x, x, w, dictionary, levels, 100, np.random.default_rng(13))

    def test_validate_bound(self, levels, dictionary):
        w = jo.folner_window(3, levels)
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(14))
        emp = jo.empirical_joining(x, x, w, dictionary, levels, 5_000, np.random.default_rng(15))
        emp.validate()


class TestClassify:
    def test_rows_and_verdict(self, rng):
        t = random_table(rng)
        targets = {"a": t, "b": random_table(rng)}
        rows = jo.classify("case", t, targets)
        verdicts = {r.target: r.verdict for r in rows}
        assert verdicts["a"] == "nearest"
        assert verdicts["b"] == ""

    def test_serialization(self, rng):
        t = random_table(rng)
        data = t.to_json()
        assert data["n_samples"] == 100
        assert len(data["corr"]) == 4 and len(data["corr"][0][0]) == 2

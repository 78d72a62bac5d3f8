import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cfjoin import cf_engine as cf
from cfjoin import joinings as jo
from cfjoin import verifier
from cfjoin.groups import GElement, SU2_H0, SU2_I, adjoint_matrix, conj_star, quat_mul, quat_normalize

H0 = SU2_H0.array()
H0_STAR = conj_star(0.0, H0)[1]


@pytest.fixture(scope="module")
def dictionary(levels):
    return jo.CFDictionary(levels)


def reference_evaluate(dictionary, batch):
    """CFDictionary.evaluate as it was before it wrote the fiber rows from q
    directly: zeroed complex rows, complex temporaries, the (n, 3, 3)
    adjoint_matrix, then one scale pass.  The oracle for evaluate."""
    valid, ti, tf, q = batch
    t = np.asarray(ti, dtype=float) + tf
    out = np.zeros((dictionary.size, len(t)), dtype=complex)
    adj = None
    harm_rows = {}
    for row, label in enumerate(dictionary.labels):
        kind, arg = label.split("-")
        if kind == "harm":
            m = int(arg)
            if m == 1:
                np.exp(2j * math.pi * t / dictionary.a1, out=out[row])
            else:
                np.multiply(out[harm_rows[m - 1]], out[harm_rows[1]], out=out[row])
            harm_rows[m] = row
        elif kind == "def":
            if arg == "z":
                out[row] = math.sqrt(2.0) * (q[:, 0] + 1j * q[:, 1])
            else:
                out[row] = math.sqrt(2.0) * (q[:, 2] + 1j * q[:, 3])
        else:
            if adj is None:
                adj = adjoint_matrix(q)
            out[row] = math.sqrt(3.0) * adj[:, int(arg[0]) - 1, int(arg[1]) - 1]
    out *= dictionary.scale
    out[:, ~valid] = 0.0
    return out


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_table(a, b) -> bool:
    return same_bits(a.corr, b.corr) and same_bits(a.stderr, b.stderr)


def random_table(rng, k=4):
    corr = rng.uniform(-1, 1, size=(k, k)) + 1j * rng.uniform(-1, 1, size=(k, k))
    return corr / np.max(np.abs(corr))


class TestMetric:
    def test_identical_tables(self, rng):
        t = random_table(rng)
        assert jo.joining_metric(t, t) == 0.0

    def test_single_entry_delta(self, rng):
        t = random_table(rng)
        t2 = t.copy()
        t2[0, 0] += 0.12
        assert jo.joining_metric(t, t2) == pytest.approx(0.12 / 4)

    def test_metric_axioms(self, rng):
        a, b, c = (random_table(rng) for _ in range(3))
        dab = jo.joining_metric(a, b)
        assert dab == pytest.approx(jo.joining_metric(b, a))
        assert dab >= 0
        assert dab <= jo.joining_metric(a, c) + jo.joining_metric(c, b) + 1e-12

    def test_stderr_reads_the_estimate(self, rng):
        # the targets are exact, so the metric's stderr is the weighted
        # stderr of the estimate's entries alone
        stderr = np.zeros((4, 4))
        stderr[0, 0], stderr[1, 0] = 0.4, 0.8
        estimate = jo.EmpiricalJoining(random_table(rng), stderr)
        assert jo.joining_metric_stderr(estimate) == pytest.approx(math.hypot(0.4 / 4, 0.8 / 8))


def circle_table(functions, xs, ys):
    """Correlation table of a pair cloud (x_k, y_k) of circle points."""
    fx = np.stack([f(xs) for f in functions]).astype(complex)
    fy = np.stack([f(ys) for f in functions]).astype(complex)
    return jo._correlation_table([(fx, fy)]).corr


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
        table = jo._correlation_table([(fx, fy)], scale)
        prod = fx[:, None, :] * np.conj(fy[None, :, :]) * scale
        corr = prod.mean(axis=2)
        var = np.maximum((np.abs(prod) ** 2).mean(axis=2) - np.abs(corr) ** 2, 0.0)
        assert np.max(np.abs(table.corr - corr)) <= 1e-12
        # compared before the square root, which turns rounding of a zero
        # variance into an error of order 1e-8
        assert np.max(np.abs(table.stderr**2 * n - var)) <= 1e-12


    def test_row_blocks_match_one_shot_matmul(self, rng):
        # one row past a block: the sums run over two blocks, the second of
        # one row
        n, scale = cf.ROW_BLOCK + 1, 0.37
        fx, fy = (rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n)) for _ in "xy")
        blocks = [(fx[:, rows], fy[:, rows]) for rows in cf.row_blocks(n)]
        assert [b[0].shape[1] for b in blocks] == [cf.ROW_BLOCK, 1]
        table = jo._correlation_table(blocks, scale)
        corr = fx @ fy.conj().T * (scale / n)
        second = (np.abs(fx) ** 2) @ (np.abs(fy) ** 2).T * (scale**2 / n)
        assert np.max(np.abs(table.corr - corr)) <= 1e-12
        assert np.max(np.abs(table.stderr**2 * n - (second - np.abs(corr) ** 2))) <= 1e-12

    def test_fy_is_fx_matches_a_copy_bit_for_bit(self, rng):
        # |fx|^2 is computed once when fy is fx, and must not reach numpy's
        # syrk product of an array with its own transpose, which rounds
        # differently from the product with an equal copy
        blocks = [rng.standard_normal((16, n)) * rng.uniform(0, 5, (16, 1))
                  + 1j * rng.standard_normal((16, n)) for n in (cf.ROW_BLOCK, 1000)]
        once = jo._correlation_table([(fx, fx) for fx in blocks], 0.37)
        copies = jo._correlation_table([(fx, fx.copy()) for fx in blocks], 0.37)
        assert same_table(once, copies)


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
            uncovered, size = jo.shulman_check(n, levels)
            assert size == jo.folner_window(n, levels).size
            # covered-growth reading, exact integer count
            assert uncovered <= size

    def test_windows_grow(self, levels):
        sizes = [jo.folner_window(n, levels).size for n in range(2, 7)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


class TestDictionary:
    def test_norms_unit_within_mc_error(self, levels, dictionary):
        samples = 100_000
        ti, tf, q, _ = cf.sample_point_batch(levels, samples, 0, np.random.default_rng(0))
        vals = dictionary.evaluate((np.ones(samples, dtype=bool), ti, tf, q))
        mu1 = levels.mu_xn(1)
        for label, row in zip(dictionary.labels, vals):
            sq = np.abs(row) ** 2 * mu1  # mu-integral via X_1 conditioning
            norm = math.sqrt(float(np.mean(sq)))
            se = float(np.std(sq, ddof=1) / math.sqrt(samples)) / (2 * max(norm, 1e-9))
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

    @pytest.mark.parametrize("lanes", [0, 1, 1000])
    def test_matches_reference_evaluate(self, levels, dictionary, lanes):
        # some lanes invalid, some of them holding NaN fibers and times far
        # off level 1, as peel_batch may leave them; one valid lane holds
        # the fiber element h0 itself, whose quaternion has exact zeros
        rng = np.random.default_rng(24)
        ti, tf, q, _ = cf.sample_point_batch(levels, lanes, 0, rng)
        valid = rng.random(lanes) < 0.8
        ti = np.where(valid, ti, 2**40)
        q[~valid] = np.nan
        if lanes:
            valid[0], q[0] = True, SU2_H0.array()
        batch = (valid, ti, tf, q)
        assert same_bits(dictionary.evaluate(batch), reference_evaluate(dictionary, batch))

    def test_shared_times_match_two_evaluates(self, levels, dictionary):
        rng = np.random.default_rng(25)
        ti, tf, q, _ = cf.sample_point_batch(levels, 1000, 0, rng)
        valid = rng.random(1000) < 0.8
        moved = quat_mul(SU2_H0.array(), q)
        fx, fy = dictionary.evaluate_shared_times((valid, ti, tf, q), moved)
        assert same_bits(fx, reference_evaluate(dictionary, (valid, ti, tf, q)))
        assert same_bits(fy, reference_evaluate(dictionary, (valid, ti, tf, moved)))
        fx, fy = dictionary.evaluate_shared_times((valid, ti, tf, q), None)
        assert fy is fx

    def test_weights_are_dyadic(self, dictionary):
        w = jo._weights(dictionary.size)
        assert w[0, 0] == 0.25
        assert w[1, 0] == w[0, 1] == 0.125


def cubature_batch(dictionary):
    """A product cubature on the level-1 part: 32 equally spaced level-1
    times, over which exp(2 pi i m t / a_1) runs whole periods for m < 32,
    times the 24 binary-tetrahedral units, a spherical 5-design.  It
    averages every product of two rows, and of a row and a moved row, exactly:
    harmonic differences below 32, and polynomials of degree at most 4 in q."""
    a1 = dictionary.a1
    t = -a1 + 2 * a1 * np.arange(1, 33) / 32
    units = [np.roll([sign, 0.0, 0.0, 0.0], axis) for axis in range(4) for sign in (1.0, -1.0)]
    units += [np.array(signs) / 2 for signs in itertools.product((1.0, -1.0), repeat=4)]
    q = np.tile(np.array(units), (len(t), 1))
    t = np.repeat(t, len(units))
    ti = np.floor(t).astype(np.int64)
    return np.ones(len(t), dtype=bool), ti, t - ti, q


def random_su2(seed):
    return quat_normalize(np.random.default_rng(seed).standard_normal(4))


GRAPH_ELEMENTS = {
    "I": SU2_I.array(),
    "h0": H0,
    "h0-star": H0_STAR,
    "random": random_su2(30),
}


class TestTargets:
    def test_identity_graph_is_diagonal(self, dictionary):
        diag = jo.graph_joining_target(SU2_I.array(), dictionary)
        assert same_bits(diag, np.eye(dictionary.size, dtype=complex))

    def test_mixture_is_average(self, levels, dictionary):
        # the mixture joining pairs x with (0, h0) x or with (0, h0*) x, each
        # with probability 1/2: its table over the cubature, both pairings in
        # one estimate, is the average of the two graph tables, the mixture
        # target of the joinings experiment
        gk, gks = (jo.graph_joining_target(m, dictionary) for m in (H0, H0_STAR))
        batch = cubature_batch(dictionary)
        blocks = [dictionary.evaluate_shared_times(batch, quat_mul(m, batch[3])) for m in (H0, H0_STAR)]
        cubature = jo._correlation_table(blocks, levels.mu_xn(1))
        assert np.max(np.abs(0.5 * (gk + gks) - cubature.corr)) <= 2e-15

    def test_product_target_is_exact(self, levels, dictionary):
        # the product table (int f_i) conj(int f_j) is 0 because every row
        # has mean 0; the cubature averages the rows and their squared moduli
        prod = jo.product_joining_target(dictionary)
        k = dictionary.size
        assert same_bits(prod, np.zeros((k, k), dtype=complex))
        vals = dictionary.evaluate(cubature_batch(dictionary))
        assert np.max(np.abs(vals.mean(axis=1))) <= 1e-14
        assert np.max(np.abs((np.abs(vals) ** 2).mean(axis=1) * levels.mu_xn(1) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("name", sorted(GRAPH_ELEMENTS))
    def test_graph_target_matches_cubature(self, levels, dictionary, name):
        # the mean of f_i(t, q) conj(f_j(t, m q)) over the cubature, with
        # the mu(X_1) mass of the level-1 part, through the program's own
        # evaluate and estimator; its rounding reaches 6 ulp of 1 on the
        # adjoint diagonal
        m = GRAPH_ELEMENTS[name]
        table = jo.graph_joining_target(m, dictionary)
        batch = cubature_batch(dictionary)
        blocks = [dictionary.evaluate_shared_times(batch, quat_mul(m, batch[3]))]
        cubature = jo._correlation_table(blocks, levels.mu_xn(1))
        assert np.max(np.abs(table - cubature.corr)) <= 2e-15

    def test_fiber_blocks_are_representations(self, dictionary):
        # T_(0, m1 m2) = T_(0, m2) T_(0, m1) on functions of q, so the table
        # of m1 m2 is the table of m2 times that of m1 on each block of rows
        # closed under the fiber action: the two defining rows, and the
        # adjoint rows of the third column (adj-13, adj-23, adj-33); the six
        # adjoint rows together are not closed, being 6 of the 9 entries
        m1, m2 = random_su2(31), random_su2(32)
        m12 = quat_mul(m1, m2)
        tables = [jo.graph_joining_target(m, dictionary) for m in (m1, m2, m12)]
        for labels in (["def-z", "def-w"], ["adj-13", "adj-23", "adj-33"]):
            rows = [dictionary.labels.index(label) for label in labels]
            b1, b2, b12 = (t[np.ix_(rows, rows)] for t in tables)
            assert np.max(np.abs(b12 - b2 @ b1)) <= 1e-15

    def test_graph_target_discriminating_entries(self, dictionary):
        # the (z, w)-cross correlation of the h0 graph is +1, of its star
        # graph -1, and the first adjoint diagonal entry is -1 for both
        gk = jo.graph_joining_target(H0, dictionary)
        gks = jo.graph_joining_target(H0_STAR, dictionary)
        assert gk[1, 2] == pytest.approx(1.0, abs=1e-15)
        assert gks[1, 2] == pytest.approx(-1.0, abs=1e-15)
        assert gk[3, 3] == pytest.approx(-1.0, abs=1e-15)
        assert gks[3, 3] == pytest.approx(-1.0, abs=1e-15)
        assert gk[0, 0] == 1.0


class TestEmpiricalJoining:
    def test_diagonal_case(self, levels, dictionary):
        w = jo.folner_window(3, levels)
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(8))
        emp = jo.empirical_joining(x, x, w, dictionary, levels, 40_000, np.random.default_rng(9))
        diag = jo.graph_joining_target(SU2_I.array(), dictionary)
        d = jo.joining_metric(emp.corr, diag)
        assert d <= 8 * jo.joining_metric_stderr(emp) + 0.03

    def test_paired_case_close_to_graph_structure(self, levels, dictionary):
        w = jo.folner_window(4, levels)
        k = GElement(0.0, SU2_H0)
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(11))
        x2 = (*cf.act(k, *x[:3]), x[3])
        emp = jo.empirical_joining(x, x2, w, dictionary, levels, 40_000, np.random.default_rng(12))
        # time coordinates agree along the whole window, so the phases of the
        # first harmonic cancel exactly; the magnitude is the window's
        # level-1 visit frequency over mu(X_1), read on the window's frame
        assert abs(emp.corr[0, 0].imag) < 1e-9
        assert emp.corr[0, 0].real == pytest.approx(1.0, abs=0.05)
        # the fiber cross-entry averages the +1/-1 graph values to ~0
        assert abs(emp.corr[1, 2]) < 0.05

    def test_frame_factor_is_the_windows_level(self, levels, dictionary):
        # |f|^2 is 1/mu(X_1) on X_1 and 0 off it, so the raw harmonic
        # diagonal, the estimate before the frame factor, is the window's
        # X_1 visit frequency over mu(X_1): 1/mu(X_3) for the level-3 window,
        # which sees X_3, and not the 1/mu(X_2) or 1/mu(X_4) of the
        # neighbouring frames
        n = 3
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(27))
        emp = jo.empirical_joining(x, x, jo.folner_window(n, levels), dictionary, levels,
                                   10**6, np.random.default_rng(28))
        rows = [dictionary.labels.index(f"harm-{m}") for m in range(1, 9)]
        raw = emp.corr[rows, rows].real / levels.mu_xn(n)
        sigma = emp.stderr[rows, rows] / levels.mu_xn(n)
        assert np.all(np.abs(raw - 1 / levels.mu_xn(n)) <= 4 * sigma)
        for other in (n - 1, n + 1):
            assert np.all(np.abs(raw - 1 / levels.mu_xn(other)) > 10 * sigma)

    def test_diagonal_reuses_values_bit_for_bit(self, levels, dictionary):
        # x paired with itself translates and evaluates each block once
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(16))
        self._assert_matches_two_translates(levels, dictionary, x, x, 17)

    @pytest.mark.parametrize("partner", ["paired", "independent"])
    def test_partner_matches_two_translates(self, levels, dictionary, partner):
        # the fiber partner (0, h0) x shares one translate and the time rows;
        # an independent point takes two translates
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(18))
        if partner == "paired":
            x2 = (*cf.act(GElement(0.0, SU2_H0), *x[:3]), x[3])
        else:
            x2 = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(19))
        self._assert_matches_two_translates(levels, dictionary, x, x2, 20)

    @staticmethod
    def _assert_matches_two_translates(levels, dictionary, x, x2, seed):
        """empirical_joining equals, bit for bit, the table of two translates
        and two evaluates per block, as it was computed before points with
        shared times shared them."""
        w = jo.folner_window(4, levels)
        samples = cf.ROW_BLOCK + 1
        table = jo.empirical_joining(x, x2, w, dictionary, levels, samples, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        bs = rng.integers(-w.i_max, w.i_max + 1, size=samples)
        ts = rng.integers(-w.j_max, w.j_max + 1, size=samples)
        top = min(w.n + 2, levels.max_level + 1)
        blocks = []
        for rows in cf.row_blocks(samples):
            g = bs[rows] + w.spacing * ts[rows]
            blocks.append(tuple(reference_evaluate(dictionary, cf.translate(levels, *p, g, 1, top)[:4])
                                for p in (x, x2)))
        assert 0 < (blocks[0][0][0] != 0).sum() < cf.ROW_BLOCK  # some lanes off level 1
        assert same_table(table, jo._correlation_table(blocks, levels.mu_xn(w.n)))

    def test_truncation_error_lists_translate(self, levels, dictionary):
        w = jo.folner_window(4, levels)
        # one tail index: the level-6 frame of window 4 needs five
        x = (np.array([0]), np.array([0.5]), np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[0]]))
        with pytest.raises(cf.OrbitLeftTruncationError, match="translate"):
            jo.empirical_joining(x, x, w, dictionary, levels, 100, np.random.default_rng(13))


    def test_window_past_int64_raises(self, levels, dictionary):
        # window 6 reaches |g| ~ 2.3e19, where int64 window translates would wrap
        w = jo.folner_window(6, levels)
        x = cf.sample_point_batch(levels, 1, 12, np.random.default_rng(14))
        with pytest.raises(cf.LevelTooDeepError, match="window-6 .* past int64"):
            jo.empirical_joining(x, x, w, dictionary, levels, 100, np.random.default_rng(15))


class TestClassify:
    def test_rows_and_verdict(self, tmp_path, monkeypatch):
        # the joinings experiment measures each estimate against the exact
        # targets, marks the first nearest in the order product, graph_k,
        # graph_kstar, mixture, and writes the rows sorted by target name,
        # each with the estimate's stderr
        estimates = []
        estimate = jo.empirical_joining

        def recording(*args):
            estimates.append(estimate(*args))
            return estimates[-1]

        monkeypatch.setattr(jo, "empirical_joining", recording)
        cfg = verifier.ExperimentConfig(seed=5, mc_samples=20_000, output_dir=str(tmp_path))
        _, rows = verifier.run_joining_classification(cfg).csv_tables["joinings.csv"]
        d = jo.CFDictionary(verifier._build_levels(cfg.seed, cfg.construction))
        gk, gks = (jo.graph_joining_target(m, d) for m in (H0, H0_STAR))
        targets = {"product": np.zeros_like(gk), "graph_k": gk, "graph_kstar": gks, "mixture": 0.5 * (gk + gks)}
        for case, emp in zip(("paired", "independent"), estimates):
            dist = {name: jo.joining_metric(emp.corr, table) for name, table in targets.items()}
            nearest = min(dist, key=dist.get)
            se = repr(jo.joining_metric_stderr(emp))
            assert [row for row in rows if row[0] == case] == [
                [case, name, repr(dist[name]), se, "nearest" if name == nearest else ""]
                for name in sorted(targets)
            ]

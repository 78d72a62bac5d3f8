import decimal
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cfjoin import cf_engine as cf
from cfjoin import joinings as jo
from cfjoin import verifier
from cfjoin.groups import (
    GElement, SU2_H0, SU2_I, SU2Element, adjoint_matrix, conj_star, quat_mul, quat_normalize, quat_phi_int,
)

H0 = SU2_H0.array()
H0_STAR = conj_star(0.0, H0)[1]


@pytest.fixture(scope="module")
def dictionary(levels):
    return jo.CFDictionary(levels)


def reference_evaluate(dictionary, batch, table):
    """CFDictionary.evaluate as it was before it wrote the fiber rows from q
    directly: zeroed complex rows, complex temporaries, the (n, 3, 3)
    adjoint_matrix, then one complex scale pass over the fiber rows; the
    harmonic rows indexed out of the tick table at T mod N.  The oracle for
    evaluate."""
    valid, T, q = batch
    out = np.zeros((dictionary.size, len(T)), dtype=complex)
    adj = None
    for row, label in enumerate(dictionary.labels):
        kind, arg = label.split("-")
        if kind == "harm":
            out[row] = table[int(arg) - 1][np.asarray(T) % dictionary.period]
        elif kind == "def":
            if arg == "z":
                out[row] = math.sqrt(2.0) * (q[:, 0] + 1j * q[:, 1])
            else:
                out[row] = math.sqrt(2.0) * (q[:, 2] + 1j * q[:, 3])
        else:
            if adj is None:
                adj = adjoint_matrix(q)
            out[row] = math.sqrt(3.0) * adj[:, int(arg[0]) - 1, int(arg[1]) - 1]
    for row, _ in dictionary._fiber:
        out[row] *= dictionary.scale
    out[:, ~valid] = 0.0
    return out


def point_table(dictionary, levels, point):
    """The tick table of a one-row level-1 batch (ti, tf, ...): of its
    residual rho, the fraction of tf D."""
    return dictionary.tick_table(float(cf._to_ticks(levels, 1, point[0], point[1])[1][0]))


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_table(a, b) -> bool:
    return same_bits(a.corr, b.corr) and same_bits(a.stderr, b.stderr)


def correlation_table(pairs, scale=1.0):
    """The table of the (fx, fy) value blocks `pairs`, through the
    estimator's accumulator."""
    sums = jo._TableSums()
    for fx, fy in pairs:
        sums.add(fx.conj(), np.abs(fx) ** 2, fy, np.abs(fy) ** 2)
    return sums.table(scale)


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
    return correlation_table([(fx, fy)]).corr


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
        table = correlation_table([(fx, fy)], scale)
        prod = fx[:, None, :] * np.conj(fy[None, :, :]) * scale
        corr = prod.mean(axis=2)
        var = np.maximum((np.abs(prod) ** 2).mean(axis=2) - np.abs(corr) ** 2, 0.0)
        assert np.max(np.abs(table.corr - corr)) <= 1e-12
        # compared before the square root, which turns rounding of a zero
        # variance into an error of order 1e-8
        assert np.max(np.abs(table.stderr**2 * n - var)) <= 1e-12


    def test_row_blocks_match_one_shot_matmul(self, rng):
        # one row past the estimator's block: the sums run over two blocks,
        # the second of one row
        n, scale = jo.JOINING_BLOCK + 1, 0.37
        fx, fy = (rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n)) for _ in "xy")
        blocks = [(fx[:, rows], fy[:, rows]) for rows in cf.row_blocks(n, jo.JOINING_BLOCK)]
        assert [b[0].shape[1] for b in blocks] == [jo.JOINING_BLOCK, 1]
        table = correlation_table(blocks, scale)
        corr = fx @ fy.conj().T * (scale / n)
        second = (np.abs(fx) ** 2) @ (np.abs(fy) ** 2).T * (scale**2 / n)
        assert np.max(np.abs(table.corr - corr)) <= 1e-12
        assert np.max(np.abs(table.stderr**2 * n - (second - np.abs(corr) ** 2))) <= 1e-12

    def test_narrow_partner_pairs_the_first_columns(self, rng):
        # the diagonal's partner block covers only x's first draws: a
        # partner of m columns pairs with x's first m, the rest of x's
        # block unread
        fx, fy = (rng.standard_normal((16, 1000)) + 1j * rng.standard_normal((16, 1000)) for _ in "xy")
        sums = jo._TableSums()
        sums.add(fx.conj(), np.abs(fx) ** 2, fy[:, :300].copy(), np.abs(fy[:, :300]) ** 2)
        assert sums.n == 300
        assert same_table(sums.table(0.37), correlation_table([(fx[:, :300].copy(), fy[:, :300].copy())], 0.37))


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

    @pytest.mark.parametrize("case", ["random", "touching", "nested", "windows"])
    def test_subtract_union_matches_the_double_loop(self, case, rng, levels):
        # the merge against the scan of the whole union for every block,
        # which it replaced: blocks and union intervals drawn at random,
        # blocks that touch union intervals end to end and cover one
        # exactly, blocks nested in one another and around union intervals,
        # and the shulman windows themselves
        if case == "random":
            blocks = [tuple(sorted(rng.integers(-200, 200, 2).tolist())) for _ in range(60)]
            union = jo._merged([tuple(sorted(rng.integers(-250, 250, 2).tolist())) for _ in range(40)])
        elif case == "touching":
            union = [(-10, -5), (0, 3), (7, 7), (20, 30)]
            blocks = [(-14, -11), (-4, -1), (4, 6), (8, 19), (0, 3), (7, 7), (-11, -10), (3, 4), (30, 31), (31, 40)]
        elif case == "nested":
            union = [(-50, -40), (-30, -20), (0, 100), (150, 160)]
            blocks = [(-60, 200), (-45, 170), (-35, -25), (10, 20), (12, 14), (-30, -20), (101, 149), (155, 155)]
        else:
            blocks = jo._window_intervals(jo.folner_window(5, levels))
            union = jo._merged([i for m in (2, 3, 4) for i in jo._window_intervals(jo.folner_window(m, levels))])
        for order in (sorted(blocks), blocks, blocks[::-1]):
            assert jo._subtract_union(order, union) == _double_loop_subtract(order, union)
        assert jo._subtract_union(blocks, []) == sum(hi - lo + 1 for lo, hi in blocks)


def _double_loop_subtract(blocks, union):
    """The count of integers in `blocks` not covered by `union`, the whole
    merged union scanned for every block: the oracle for _subtract_union."""
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


def level1_ticks(levels, rng, n):
    """n level-1 times in ticks, uniform over the base (-a_1, a_1]: T' in
    [-a_1 D, a_1 D) for a residual rho > 0."""
    reach = levels.a(1) * levels.grid
    return rng.integers(-reach, reach, size=n)


# pi to 50 places, for the exponentials of exact phases
_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


def exact_unit(turns: Fraction) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(cos, sin) of 2 pi turns to 40 digits: the turns reduced exactly to
    the nearest quarter turn and a rest of at most an eighth, whose Taylor
    series is summed in Decimal, then turned by the quarter turns."""
    with decimal.localcontext(prec=40):
        quarter = round(4 * turns)
        rest = 4 * turns - quarter
        x = _PI / 2 * decimal.Decimal(rest.numerator) / decimal.Decimal(rest.denominator)
        # the terms x^k / k! signed (-1)^(k // 2): cos takes the even k, sin the odd
        cos, sin, term = decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1)
        for k in range(40):
            if k % 2:
                sin += term
            else:
                cos += term
            term = term * x / (k + 1) * (-1 if k % 2 else 1)
        return [(cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos)][quarter % 4]


class TestDictionary:
    def test_norms_unit_within_mc_error(self, levels, dictionary):
        samples = 100_000
        rng = np.random.default_rng(0)
        _, _, q, _ = cf.sample_point_batch(levels, samples, 0, rng)
        table = dictionary.tick_table(float(rng.random()))
        vals = dictionary.evaluate((np.ones(samples, dtype=bool), level1_ticks(levels, rng, samples), q), table)
        mu1 = levels.mu_xn(1)
        for label, row in zip(dictionary.labels, vals):
            sq = np.abs(row) ** 2 * mu1  # mu-integral via X_1 conditioning
            norm = math.sqrt(float(np.mean(sq)))
            se = float(np.std(sq, ddof=1) / math.sqrt(samples)) / (2 * max(norm, 1e-9))
            assert abs(norm - 1.0) <= 4 * se + 1e-3, (label, norm, se)

    def test_vanishes_off_level1(self, levels, dictionary):
        valid = np.array([True, False])
        T = np.array([3 * levels.grid + 1, 5 * levels.grid + 5], dtype=np.int64)
        q = np.tile(np.array([1.0, 0, 0, 0]), (2, 1))
        vals = dictionary.evaluate((valid, T, q), dictionary.tick_table(0.6))
        assert np.all(vals[:, 1] == 0.0)
        # the harmonic entries are nonvanishing at any valid point
        assert abs(vals[0, 0]) > 0.9

    def test_harmonic_powers_match_direct_exponentials(self, levels, dictionary):
        # harmonic m of the time (T + rho)/D read off the tick table at
        # T mod N, also for T past one period either way, against the
        # exponential of the float time
        rng = np.random.default_rng(8)
        T = np.concatenate([level1_ticks(levels, rng, 5000), rng.integers(-2**40, 2**40, size=100)])
        q = np.tile(np.array([1.0, 0, 0, 0]), (len(T), 1))
        for rho in (0.0, float(rng.random()), 1.0 - 2.0**-53):
            vals = dictionary.evaluate((np.ones(len(T), dtype=bool), T, q), dictionary.tick_table(rho))
            for m in range(1, 9):
                row = dictionary.labels.index(f"harm-{m}")
                phase = (m * T % dictionary.period + m * rho) / dictionary.period
                direct = dictionary.scale * np.exp(2j * math.pi * phase)
                assert np.max(np.abs(vals[row] - direct)) <= 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.5, 2.0**-40, 0.7071067811865476, 1.0 - 2.0**-53])
    def test_tick_table_within_two_ulps_of_the_exact_phase(self, dictionary, rho):
        # every entry, and on every second rho every fifth column, against
        # scale e^(2 pi i phase) of the exact Fraction phase
        # ((m k) mod N + m rho) / N, in units of the spacing of floats at
        # the entries' modulus, the scale
        table = dictionary.tick_table(rho)
        n = dictionary.period
        assert table.shape == (8, n)
        step = 1 if rho in (0.0, 0.7071067811865476) else 5
        scale, ulp = decimal.Decimal(dictionary.scale), np.spacing(dictionary.scale)
        worst = 0.0
        for m in range(1, 9):
            for k in range(0, n, step):
                cos, sin = exact_unit((Fraction(m * k % n) + m * Fraction(rho)) / n)
                entry = table[m - 1, k]
                worst = max(worst, abs(float(decimal.Decimal(entry.real) - scale * cos)),
                            abs(float(decimal.Decimal(entry.imag) - scale * sin)))
        assert worst <= 2 * ulp

    @pytest.mark.parametrize("lanes", [0, 1, 1000])
    def test_matches_reference_evaluate(self, levels, dictionary, lanes):
        # some lanes invalid, some of them holding NaN fibers and times far
        # off level 1, as peel_batch may leave them; one valid lane holds
        # the fiber element h0 itself, whose quaternion has exact zeros
        rng = np.random.default_rng(24)
        ti, tf, q, _ = cf.sample_point_batch(levels, lanes, 0, rng)
        T, _ = cf._to_ticks(levels, 1, ti, tf)
        valid = rng.random(lanes) < 0.8
        T = np.where(valid, T, 2**40)
        q[~valid] = np.nan
        if lanes:
            valid[0], q[0] = True, SU2_H0.array()
        batch, table = (valid, T, q), dictionary.tick_table(0.3)
        assert same_bits(dictionary.evaluate(batch, table), reference_evaluate(dictionary, batch, table))

    def test_weights_are_dyadic(self, dictionary):
        w = jo._weights(dictionary.size)
        assert w[0, 0] == 0.25
        assert w[1, 0] == w[0, 1] == 0.125


def cubature_values(dictionary, m=None):
    """The dictionary's values on a product cubature of the level-1 part,
    the fibers moved to m q when m is given: 32 equally spaced level-1
    times, over which exp(2 pi i m t / a_1) runs whole periods for m < 32,
    times the 24 binary-tetrahedral units, a spherical 5-design.  It
    averages every product of two rows, and of a row and a moved row, exactly:
    harmonic differences below 32, and polynomials of degree at most 4 in q.
    The times -a_1 + 2 a_1 j / 32 are N (j - 16) / 16 ticks, N = a_1 D: the
    lanes of each residual rho are evaluated with its tick table."""
    n = dictionary.period
    T, rest = np.divmod(n * (np.arange(1, 33) - 16), 16)
    units = [np.roll([sign, 0.0, 0.0, 0.0], axis) for axis in range(4) for sign in (1.0, -1.0)]
    units += [np.array(signs) / 2 for signs in itertools.product((1.0, -1.0), repeat=4)]
    q = np.tile(np.array(units), (len(T), 1))
    if m is not None:
        q = quat_mul(m, q)
    T, rho = np.repeat(T, len(units)), np.repeat(rest / 16, len(units))
    out = np.empty((dictionary.size, len(T)), dtype=complex)
    for r in np.unique(rho):
        lanes = rho == r
        batch = (np.ones(lanes.sum(), dtype=bool), T[lanes], q[lanes])
        out[:, lanes] = dictionary.evaluate(batch, dictionary.tick_table(float(r)))
    return out


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
        blocks = [(cubature_values(dictionary), cubature_values(dictionary, m)) for m in (H0, H0_STAR)]
        cubature = correlation_table(blocks, levels.mu_xn(1))
        assert np.max(np.abs(0.5 * (gk + gks) - cubature.corr)) <= 2e-15

    def test_product_target_is_exact(self, levels, dictionary):
        # the product table (int f_i) conj(int f_j) is 0 because every row
        # has mean 0; the cubature averages the rows and their squared moduli
        prod = jo.product_joining_target(dictionary)
        k = dictionary.size
        assert same_bits(prod, np.zeros((k, k), dtype=complex))
        vals = cubature_values(dictionary)
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
        blocks = [(cubature_values(dictionary), cubature_values(dictionary, m))]
        cubature = correlation_table(blocks, levels.mu_xn(1))
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


def window_points(levels, *seeds):
    """One-row level-1 batches with tails through the build's top level."""
    return [cf.sample_point_batch(levels, 1, 12, np.random.default_rng(seed)) for seed in seeds]


def reference_table(fx, fy, n, scale):
    """(corr, stderr) of the first n value pairs of (K, N) values fx and
    fy: the means of scale f_i(x) conj(f_j(y)) and their stderrs, from the
    moments summed over JOINING_BLOCK blocks in the estimator's order."""
    cross = second = 0.0
    for rows in cf.row_blocks(n, jo.JOINING_BLOCK):
        cross = cross + fx[:, rows] @ fy[:, rows].conj().T
        second = second + (np.abs(fx[:, rows]) ** 2) @ (np.abs(fy[:, rows]) ** 2).T
    corr = cross * (scale / n)
    var = np.maximum(second * (scale**2 / n) - np.abs(corr) ** 2, 0.0)
    return jo.EmpiricalJoining(corr, np.sqrt(var / n))


def assert_same_values(table, reference):
    """The stderrs bit for bit and the means equal entry for entry: the
    estimator takes the means as the conjugate of conj(f_x) f_y^T, and
    where an imaginary part sums to +0 its conjugate is -0."""
    assert same_bits(table.stderr, reference.stderr)
    assert table.corr.shape == reference.corr.shape and np.array_equal(table.corr, reference.corr)


def _full_evaluate_pass(x, y, m, window, dictionary, levels, samples, rng):
    """empirical_joining's window pass as it was when the paired partner had
    a full evaluate and its own squared moduli of all K rows, here with the
    tick table of the partner point (0, m) x itself."""
    top = min(window.n + 2, levels.max_level + 1)
    g = (rng.integers(-window.i_max, window.i_max + 1, size=samples)
         + window.spacing * rng.integers(-window.j_max, window.j_max + 1, size=samples))
    paired, independent, diagonal = jo._TableSums(), jo._TableSums(), jo._TableSums()
    table_x, table_y = (point_table(dictionary, levels, p) for p in (x, y))
    table_p = point_table(dictionary, levels, cf.act(GElement(0.0, SU2Element.from_array(m)), *x[:3]))
    for rows in cf.row_blocks(samples, jo.JOINING_BLOCK):
        valid, T, _, q = cf.translate(levels, *x, g[rows], 1, top)
        fx = dictionary.evaluate((valid, T, q), table_x)
        fd = fx[:, : max(samples // 2 - rows.start, 0)].copy()
        sq_x = jo._sq_moduli(fx)
        conj_x = np.conjugate(fx, out=fx)
        diagonal.add(conj_x, sq_x, fd, sq_x[:, : fd.shape[1]].copy())
        q = quat_mul(quat_phi_int(g[rows], np.broadcast_to(m, q.shape)), q)
        fy = dictionary.evaluate((valid, T, q), table_p)
        paired.add(conj_x, sq_x, fy, jo._sq_moduli(fy))
        valid, T, _, q = cf.translate(levels, *y, g[rows], 1, top)
        fy = dictionary.evaluate((valid, T, q), table_y)
        independent.add(conj_x, sq_x, fy, jo._sq_moduli(fy))
    scale = levels.mu_xn(window.n)
    return paired.table(scale), independent.table(scale), diagonal.table(scale)


@pytest.fixture(scope="module")
def one_pass(levels, dictionary):
    """The window pass's tables (paired, independent, diagonal) and their
    whole-array reference on the same draws.  The reference translates x,
    act((0, h0), x) and y over every draw at once and evaluates them with
    reference_evaluate.  3 JOINING_BLOCK + 123 draws put the diagonal's
    samples // 2 cut inside the second block."""
    w = jo.folner_window(4, levels)
    x, y = window_points(levels, 18, 19)
    samples = 3 * jo.JOINING_BLOCK + 123
    tables = jo.empirical_joining(x, y, H0, w, dictionary, levels, samples, np.random.default_rng(20))
    rng = np.random.default_rng(20)
    bs = rng.integers(-w.i_max, w.i_max + 1, size=samples)
    ts = rng.integers(-w.j_max, w.j_max + 1, size=samples)
    top = min(w.n + 2, levels.max_level + 1)
    partner = (*cf.act(GElement(0.0, SU2_H0), *x[:3]), x[3])
    fx, fp, fy = (reference_evaluate(dictionary, (valid, T, q), dictionary.tick_table(float(rho[0])))
                  for valid, T, rho, q in (cf.translate(levels, *p, bs + w.spacing * ts, 1, top)
                                           for p in (x, partner, y)))
    assert 0 < (fx[0] != 0).sum() < samples  # some lanes off level 1
    scale = levels.mu_xn(w.n)
    reference = [reference_table(fx, f, n, scale) for f, n in ((fp, samples), (fy, samples), (fx, samples // 2))]
    return tables, reference


class TestEmpiricalJoining:
    def test_diagonal_case(self, levels, dictionary):
        w = jo.folner_window(3, levels)
        x, y = window_points(levels, 8, 10)
        emp = jo.empirical_joining(x, y, H0, w, dictionary, levels, 80_000, np.random.default_rng(9))[2]
        diag = jo.graph_joining_target(SU2_I.array(), dictionary)
        d = jo.joining_metric(emp.corr, diag)
        assert d <= 8 * jo.joining_metric_stderr(emp) + 0.03

    def test_paired_case_close_to_graph_structure(self, levels, dictionary):
        w = jo.folner_window(4, levels)
        x, y = window_points(levels, 11, 10)
        emp = jo.empirical_joining(x, y, H0, w, dictionary, levels, 40_000, np.random.default_rng(12))[0]
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
        # neighbouring frames.  The paired table reads it over every draw:
        # the fiber partner's harmonic rows are x's own
        n = 3
        x, y = window_points(levels, 27, 29)
        emp = jo.empirical_joining(x, y, H0, jo.folner_window(n, levels), dictionary, levels,
                                   10**6, np.random.default_rng(28))[0]
        rows = [dictionary.labels.index(f"harm-{m}") for m in range(1, 9)]
        raw = emp.corr[rows, rows].real / levels.mu_xn(n)
        sigma = emp.stderr[rows, rows] / levels.mu_xn(n)
        assert np.all(np.abs(raw - 1 / levels.mu_xn(n)) <= 4 * sigma)
        for other in (n - 1, n + 1):
            assert np.all(np.abs(raw - 1 / levels.mu_xn(other)) > 10 * sigma)

    def test_diagonal_reuses_values_bit_for_bit(self, one_pass):
        # x with itself reads x's own values on the first samples // 2 draws
        tables, reference = one_pass
        assert_same_values(tables[2], reference[2])

    @pytest.mark.parametrize("partner", ["paired", "independent"])
    def test_partner_matches_two_translates(self, one_pass, partner):
        # an independent point takes its own translate, and its table is the
        # reference's entry for entry; the fiber partner's fiber is
        # phi_g(h0) q' on x's translate, its own translate up to rounding
        tables, reference = one_pass
        i = ["paired", "independent"].index(partner)
        if partner == "independent":
            assert_same_values(tables[i], reference[i])
        else:
            assert np.max(np.abs(tables[i].corr - reference[i].corr)) <= 1e-15
            assert np.max(np.abs(tables[i].stderr - reference[i].stderr)) <= 1e-15

    def test_paired_partner_reuses_harmonic_rows_bit_for_bit(self, levels, dictionary):
        # the paired partner reads x's tick table at x's ticks, and takes
        # the squared moduli of x's harmonic rows; every table is the
        # full-evaluate pass's, whose partner reads the table of its own
        # point, bit for bit
        w = jo.folner_window(4, levels)
        x, y = window_points(levels, 18, 19)
        samples = 2 * jo.JOINING_BLOCK + 123
        got = jo.empirical_joining(x, y, H0, w, dictionary, levels, samples, np.random.default_rng(21))
        want = _full_evaluate_pass(x, y, H0, w, dictionary, levels, samples, np.random.default_rng(21))
        for table, reference in zip(got, want):
            assert same_bits(table.corr, reference.corr) and same_bits(table.stderr, reference.stderr)

    def test_peak_memory_below_three_value_blocks(self, levels, dictionary):
        # a (16, ROW_BLOCK) complex value block is 4 MiB.  Live at once are
        # x's block, conjugated in place (1 block), its squared moduli (1/2),
        # one partner block (1) and its squared moduli (1/2): 3 blocks, and
        # the draws and one block's translate arrays stay under half a block
        # more.  The first block's diagonal partner is x's whole block, the
        # second's is empty.  Conjugating a copy of x's block and a copy of
        # each partner block would hold 2 blocks more
        w = jo.folner_window(4, levels)
        x, y = window_points(levels, 63, 64)
        tracemalloc.start()
        try:
            jo.empirical_joining(x, y, H0, w, dictionary, levels, 2 * cf.ROW_BLOCK, np.random.default_rng(65))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * dictionary.size * cf.ROW_BLOCK * np.dtype(complex).itemsize

    def test_peak_memory_below_four_of_its_value_blocks(self, levels, dictionary):
        # over 8 of the estimator's blocks the traced peak stays under 4 of
        # its (16, JOINING_BLOCK) complex value blocks, 4 MiB: the 3 blocks
        # of the test above, and the draws and one block's translate arrays.
        # Blocks of 2^14 held about 12.8 MiB at this sample size
        block = dictionary.size * jo.JOINING_BLOCK * np.dtype(complex).itemsize
        assert block == 2**20
        w = jo.folner_window(4, levels)
        x, y = window_points(levels, 63, 64)
        tracemalloc.start()
        try:
            jo.empirical_joining(x, y, H0, w, dictionary, levels, 8 * jo.JOINING_BLOCK, np.random.default_rng(65))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * block

    def test_one_embed_per_point_matches_a_translate_per_block(self, levels, dictionary, monkeypatch):
        # x and y are embedded once per call, and every block moves and
        # peels those embeddings; the tables are, bit for bit, those of a
        # pass that translates both points afresh in every block
        w = jo.folner_window(4, levels)
        x, y = window_points(levels, 18, 19)
        samples = 2 * jo.JOINING_BLOCK + 123
        embeds = []
        embed = jo.embed_batch

        def counting(*args, **kwargs):
            embeds.append(len(args[1]))
            return embed(*args, **kwargs)

        monkeypatch.setattr(jo, "embed_batch", counting)
        got = jo.empirical_joining(x, y, H0, w, dictionary, levels, samples, np.random.default_rng(22))
        assert embeds == [1, 1]
        # the oracle: the "embedding" is the point itself, which each block
        # translates
        monkeypatch.setattr(jo, "embed_batch", lambda levels, *point, radix: point[:4])
        monkeypatch.setattr(jo, "shift_peel", lambda levels, ti, tf, q, tails, g, lo, top:
                            cf.translate(levels, ti, tf, q, tails, g, lo, top))
        want = jo.empirical_joining(x, y, H0, w, dictionary, levels, samples, np.random.default_rng(22))
        for table, reference in zip(got, want, strict=True):
            assert same_table(table, reference)

    def test_truncation_error_lists_translate(self, levels, dictionary):
        w = jo.folner_window(4, levels)
        # one tail index: the level-6 frame of window 4 needs five
        x = (np.array([0]), np.array([0.5]), np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[0]]))
        with pytest.raises(cf.OrbitLeftTruncationError, match="translate"):
            jo.empirical_joining(x, x, H0, w, dictionary, levels, 100, np.random.default_rng(13))

    def test_window_past_int64_raises(self, levels, dictionary):
        # window 6 reaches |g| ~ 2.3e19, where int64 window translates would wrap
        w = jo.folner_window(6, levels)
        x, y = window_points(levels, 14, 16)
        with pytest.raises(cf.LevelTooDeepError, match="window-6 .* past int64"):
            jo.empirical_joining(x, y, H0, w, dictionary, levels, 100, np.random.default_rng(15))


class TestClassify:
    def test_rows_and_verdict(self, tmp_path, monkeypatch):
        # the joinings experiment measures each estimate against the exact
        # targets, marks the first nearest in the order product, graph_k,
        # graph_kstar, mixture, and writes the rows sorted by target name,
        # each with the estimate's stderr
        estimates = []
        estimate = jo.empirical_joining

        def recording(*args):
            estimates.extend(estimate(*args))
            return estimates

        monkeypatch.setattr(jo, "empirical_joining", recording)
        cfg = verifier.ExperimentConfig(seed=5, mc_samples=20_000, output_dir=str(tmp_path))
        _, rows = verifier.run_joining_classification(cfg).csv_tables["joinings.csv"]
        d = jo.CFDictionary(verifier._build_levels(cfg.seed, cfg.construction))
        gk, gks = (jo.graph_joining_target(m, d) for m in (H0, H0_STAR))
        targets = {"product": np.zeros_like(gk), "graph_k": gk, "graph_kstar": gks, "mixture": 0.5 * (gk + gks)}
        assert len(estimates) == 3
        for case, emp in zip(("paired", "independent"), estimates):
            dist = {name: jo.joining_metric(emp.corr, table) for name, table in targets.items()}
            nearest = min(dist, key=dist.get)
            se = repr(jo.joining_metric_stderr(emp))
            assert [row for row in rows if row[0] == case] == [
                [case, name, repr(dist[name]), se, "nearest" if name == nearest else ""]
                for name in sorted(targets)
            ]

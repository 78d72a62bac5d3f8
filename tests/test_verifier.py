import json
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfjoin import cf_engine, cli, verifier
from cfjoin.groups import quat_mul, quat_normalize, quat_phi_real
from cfjoin.verifier import (
    EXPERIMENTS,
    CheckReport,
    ExperimentConfig,
    IntervalOrderError,
    _build_seeds,
    _chart_cube_counts,
    _common_length,
    _correction_times,
    _levels_cache,
    _overlap_deviation,
    _union_overlaps,
    _level1_full_rectangles,
    _simpson,
    _translate_integral,
    _weakmix_deviation,
    emit_report,
    run_fubini,
    run_sequences,
    run_validate_cf,
    run_weak_mixing,
)


# (config, error, message): values the config's constructors or check_builds
# reject, each checked three ways: built in code, read by from_json, and
# passed to the CLI
BAD_VALUES = [
    ({"seed": "seven"}, ValueError, "invalid literal for int()"),
    ({"seed": None}, TypeError, "not 'NoneType'"),
    # the schedule's kind is retired: power 0 is the constant schedule
    ({"construction": {"r_schedule": {"kind": "max_power"}}}, cf_engine.UnknownConfigKeyError,
     "unknown construction.r_schedule config keys ['kind']"),
    ({"construction": {"r_schedule": {"kind": "constant", "floor": 1000}}}, cf_engine.UnknownConfigKeyError,
     "unknown construction.r_schedule config keys ['kind']"),
    # these ended in a ZeroDivisionError, a numpy shape error and a
    # TypeError; --out replaces output_dir, so the file's value is checked
    # where the file is read
    ({"mc_samples": 0}, ValueError, "mc_samples must be a positive int, not 0"),
    ({"mc_samples": -5}, ValueError, "mc_samples must be a positive int, not -5"),
    ({"output_dir": 5}, TypeError, "output_dir must be a string, not 5"),
    # these loaded as seed 1, 2 samples, level 6 and floor 1, wrote true
    # into report.json, or failed inside the weakmix runner
    ({"seed": 1.5}, ValueError, "seed must be an int, not 1.5"),
    ({"mc_samples": 2.7}, ValueError, "mc_samples must be an int, not 2.7"),
    ({"construction": {"max_level": 6.9}}, ValueError, "construction.max_level must be an int, not 6.9"),
    ({"construction": {"r_schedule": {"floor": True}}}, ValueError,
     "construction.r_schedule.floor must be an int, not True"),
    ({"weakmix_levels": [True, 3]}, ValueError, "weakmix_levels must be an int, not True"),
    ({"weakmix_levels": [2.5]}, ValueError, "weakmix_levels must be an int, not 2.5"),
    ({"weakmix_levels": [0]}, ValueError, "weakmix_levels must be at least 1, not [0]"),
    ({"weakmix_levels": [-1]}, ValueError, "weakmix_levels must be at least 1, not [-1]"),
    # no level ran and the trend gate alone passed; a string was read
    # character by character; the schedule values ended in tracebacks
    # from default_alphabet and numpy
    ({"weakmix_levels": []}, ValueError, "weakmix_levels must be a non-empty list, not []"),
    ({"weakmix_levels": "56"}, ValueError, "weakmix_levels must be a non-empty list, not '56'"),
    ({"construction": {"alphabet_size": 0}}, ValueError, "construction.alphabet_size must be at least 1, not 0"),
    ({"construction": {"r_schedule": {"floor": 0}}}, ValueError,
     "construction.r_schedule.floor must be at least 1, not 0"),
    # 0.0 cannot be raised to a negative power: a ZeroDivisionError
    ({"construction": {"r_schedule": {"power": -1}}}, ValueError,
     "construction.r_schedule.power must be at least 0, not -1"),
    # numpy's "expected non-negative integer" from substream, in any
    # experiment that draws
    ({"seed": -1}, ValueError, "seed must be at least 0, not -1"),
    # the weakmix trend check ran backwards and passed, or compared level 3
    # with itself
    ({"weakmix_levels": [6, 2]}, ValueError, "weakmix_levels must be strictly increasing, not [6, 2]"),
    ({"weakmix_levels": [3, 3]}, ValueError, "weakmix_levels must be strictly increasing, not [3, 3]"),
    # built a one-level construction
    ({"construction": {"max_level": -1}}, ValueError, "construction.max_level must be at least 0, not -1"),
    # a config built in code met the depth check only when it built
    ({"construction": {"max_level": 8}}, cf_engine.LevelTooDeepError, "level 8 correction shells"),
    # sections that are not JSON objects, which no constructor takes: the
    # first two ended in an AttributeError traceback, the others in errors
    # that did not name the section
    ({"construction": []}, TypeError, "construction config must be a JSON object, not []"),
    ({"construction": {"r_schedule": []}}, TypeError,
     "construction.r_schedule config must be a JSON object, not []"),
    (None, TypeError, "experiment config must be a JSON object, not None"),
    ("ab", TypeError, "experiment config must be a JSON object, not 'ab'"),
    ([], TypeError, "experiment config must be a JSON object, not []"),
    # schedules whose level ratios have an infinite product: they built,
    # and the measure's readers ended in DivergentScheduleError tracebacks
    ({"construction": {"r_schedule": {"floor": 1000, "power": 0}}}, cf_engine.DivergentScheduleError,
     "the r_schedule with floor 1000 has power 0, below 3"),
    ({"construction": {"r_schedule": {"floor": 1000, "power": 2}}}, cf_engine.DivergentScheduleError,
     "the r_schedule with floor 1000 has power 2, below 3"),
]


def _construct(data: dict) -> ExperimentConfig:
    """The config `data` states, built by the constructors alone."""
    kwargs = dict(data)
    if "construction" in data:
        construction = dict(data["construction"])
        schedule = construction.pop("r_schedule", {})
        kwargs["construction"] = cf_engine.CFParams(**construction, **{f"r_{k}": v for k, v in schedule.items()})
    return ExperimentConfig(**kwargs)


def _leaf_key(data: dict) -> str:
    """The innermost key of a config that sets one value."""
    key, value = next(iter(data.items()))
    return _leaf_key(value) if isinstance(value, dict) else key


@pytest.fixture()
def small_cfg(tmp_path):
    return ExperimentConfig(seed=5, mc_samples=20_000, output_dir=str(tmp_path))


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(seed=9, mc_samples=1234, weakmix_levels=(2, 3))
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_constant_schedule_is_power_0(self):
        # the constant schedule is power 0, stated as such in its config and
        # in its divergent-schedule error
        data = {"r_schedule": {"floor": 1000, "power": 0}}
        params = cf_engine.CFParams.from_json(data)
        assert params.to_json()["r_schedule"] == data["r_schedule"]
        assert cf_engine.CFParams.from_json(params.to_json()) == params
        with pytest.raises(cf_engine.DivergentScheduleError, match="floor 1000 has power 0, below 3"):
            cf_engine.mu_total_normalizer(params)
        assert cf_engine.CFParams().to_json() == {
            "r_schedule": {"floor": 100, "power": 5}, "max_level": 6, "alphabet_size": 8,
        }

    def test_from_partial_json(self):
        cfg = ExperimentConfig.from_json({"seed": 3})
        assert cfg.seed == 3
        assert cfg.construction == cf_engine.CFParams()

    def test_whole_floats_and_int_strings_load_as_ints(self):
        cfg = ExperimentConfig.from_json(
            {"seed": 7.0, "mc_samples": "500", "weakmix_levels": [3.0, 4],
             "construction": {"max_level": 6.0}}
        )
        assert (cfg.seed, cfg.mc_samples, cfg.weakmix_levels) == (7, 500, (3, 4))
        assert type(cfg.construction.max_level) is int and cfg.construction.max_level == 6

    @pytest.mark.parametrize("data, key", [
        ({"seed": 3, "window_level": 4}, "'window_level'"),
        ({"construction": {"max_level": 5, "sample_count": 64}}, "'sample_count'"),
        ({"construction": {"r_schedule": {"power": 5, "flor": 90}}}, "'flor'"),
        # the subcommand is the one selector of experiments
        ({"experiments": ["sequences"]}, "'experiments'"),
        # the explicit r schedule is gone with its list of values
        ({"construction": {"r_schedule": {"kind": "explicit", "values": [100] * 481}}}, "'values'"),
    ])
    def test_unknown_key_is_named(self, data, key):
        # a retired or misspelt setting used to be dropped without a word
        with pytest.raises(cf_engine.UnknownConfigKeyError, match=key):
            ExperimentConfig.from_json(data)

    @pytest.mark.parametrize("data, error, message", BAD_VALUES, ids=[json.dumps(row[0]) for row in BAD_VALUES])
    def test_bad_value_is_a_named_error(self, data, error, message):
        # the constructors hold every check of a value, and check_builds
        # those of a schedule, so a config built in code meets the error
        # that the same values read from JSON meet; the shape of a section
        # and its unknown keys, which no constructor takes, are read by
        # from_json alone
        builds = [_construct, ExperimentConfig.from_json]
        if error is cf_engine.UnknownConfigKeyError or "must be a JSON object" in message:
            builds.remove(_construct)
        raised = set()
        for build in builds:
            with pytest.raises(error, match=re.escape(message)) as exc:
                verifier.check_builds(build(data), ["sequences"])
            raised.add((exc.type, str(exc.value)))
        assert len(raised) == 1 and raised.pop()[0] is error

    def test_readme_config_parses_and_round_trips(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("A config file is JSON with the shape")[1].split("```json")[1]
        data = json.loads(block.split("```")[0])
        cfg = ExperimentConfig.from_json(data)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg
        assert all(cfg.to_json()[key] == data[key] for key in data if key != "construction")


class TestReports:
    def test_status_aggregation(self):
        rep = CheckReport("x", "anchor")
        rep.check("m1", True)
        rep.add("m2", 0.5)
        assert rep.status == "pass"
        rep.gate("m3", 2.0, 1.0)
        assert rep.status == "fail"

    def test_metric_dict_is_json_safe(self):
        rep = CheckReport("x", "anchor")
        rep.gate("g", np.float64(1.0), np.float64(2.0), stderr=np.float64(0.5))
        rep.check("c", np.bool_(True), np.int64(9))
        rep.add("f", Fraction(1, 3))
        json.dumps(rep.as_dict())

    @pytest.mark.parametrize("strict", [False, True])
    def test_gate_one_ulp_either_side_of_the_bound(self, strict):
        bound = 0.3
        rep = CheckReport("x", "anchor")
        for value in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0)):
            rep.gate("g", value, bound, strict=strict)
        assert [m.passed for m in rep.metrics] == [True, not strict, False]
        assert all(type(m.passed) is bool and m.tolerance == bound for m in rep.metrics)

    def test_gate_compares_the_value_as_given(self):
        # the float of this Fraction is 3.0, which a float comparison passes
        rep = CheckReport("x", "anchor")
        rep.gate("x", Fraction(3 * 2**60 + 1, 2**60), 3)
        assert rep.metrics[0].as_dict() == {"name": "x", "value": 3.0, "tolerance": 3.0, "passed": False}

    def test_check_records_its_verdict_or_a_figure(self):
        rep = CheckReport("x", "anchor")
        rep.check("holds", np.bool_(True))
        rep.check("fails", False)
        rep.check("figure", True, Fraction(1, 10))
        rep.add("plain", 2, stderr=0.5)
        assert [m.as_dict() for m in rep.metrics] == [
            {"name": "holds", "value": 1.0, "passed": True},
            {"name": "fails", "value": 0.0, "passed": False},
            {"name": "figure", "value": 0.1, "passed": True},
            {"name": "plain", "value": 2.0, "stderr": 0.5},
        ]

    def test_every_recorded_tolerance_decides_its_verdict(self, small_cfg):
        # a metric that records a tolerance is a gate on it: grid-dstar-10
        # recorded 0.1 against a tolerance of 0.0 and passed
        incoherent = [
            (rep.name, m.name, m.value, m.tolerance, m.passed)
            for rep in (run(small_cfg) for run in EXPERIMENTS.values())
            for m in rep.metrics
            if m.tolerance is not None and not (m.value <= m.tolerance if m.passed else m.value >= m.tolerance)
        ]
        assert incoherent == []

    def test_emit_report_files_and_exit_code(self, small_cfg, tmp_path):
        rep = run_sequences(small_cfg)
        code = emit_report([rep], str(tmp_path / "out"), small_cfg)
        assert code == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["status"] == "pass"
        assert (tmp_path / "out" / "sequences.csv").exists()
        header = (tmp_path / "out" / "sequences.csv").read_text().splitlines()[0]
        assert header == "n,a,a_tilde,card_C,ratio"

    def test_failing_report_exit_code(self, small_cfg, tmp_path):
        rep = CheckReport("x", "anchor")
        rep.check("bad", False)
        assert emit_report([rep], str(tmp_path / "out2"), small_cfg) == 1


class TestRunners:
    def test_sequences_pass(self, small_cfg):
        assert run_sequences(small_cfg).status == "pass"

    def test_validate_pass(self, small_cfg):
        assert run_validate_cf(small_cfg).status == "pass"

    def test_fubini_pass(self, small_cfg):
        assert run_fubini(small_cfg).status == "pass"

    @pytest.mark.parametrize("seed", [20260810, 20260811, 1, 2, 3])
    def test_fubini_sides_equal_and_positive(self, seed, monkeypatch):
        # with every end drawn in (-20, 20), both sides were 0 in all ten
        # trials at seeds 20260810 and 2, and in nine of ten at 20260811
        values = [value for _, value in _fubini_calls(seed, monkeypatch)]
        assert values[::2] == values[1::2]
        assert [lhs > 0 for lhs in values[::2]] == [True] * 9 + [False]

    def test_groups_checks_the_library_law(self, small_cfg, monkeypatch):
        # run_groups multiplies with groups.g_mul, not a copy of its own: a
        # law that twists by the right factor's time is not associative
        def associative():
            metrics = {m.name: m for m in verifier.run_groups(small_cfg).metrics}
            return metrics["g-associativity-max"].passed

        def twisted_by_tb(ta, ma, tb, mb):
            return ta + tb, quat_mul(ma, quat_phi_real(tb, mb))

        assert associative()
        monkeypatch.setattr(verifier, "g_mul", twisted_by_tb)
        assert not associative()

    def test_groups_checks_the_library_star(self, small_cfg, monkeypatch):
        # run_groups applies groups.conj_star, not a twist of its own: a star
        # that twists by half a period is not an involution
        def involutive():
            metrics = {m.name: m for m in verifier.run_groups(small_cfg).metrics}
            return metrics["star-involution-max"].passed

        def half_twist(t, m):
            return t, quat_phi_real(0.5, m)

        assert involutive()
        monkeypatch.setattr(verifier, "conj_star", half_twist)
        assert not involutive()

    def test_anchor_strings_nonempty(self, small_cfg):
        for rep in (run_sequences(small_cfg), run_validate_cf(small_cfg)):
            assert rep.anchor


@pytest.mark.parametrize("name", [name for name in EXPERIMENTS if name not in ("weakmix", "joinings")])
def test_report_does_not_read_mc_samples(name, tmp_path):
    # only weakmix and joinings draw mc_samples points; every other report
    # is exact or draws sample sizes of its own, as the README states
    reports = [
        EXPERIMENTS[name](ExperimentConfig(seed=20260810, mc_samples=samples, output_dir=str(tmp_path)))
        for samples in (2000, 1_000_000)
    ]
    assert reports[0].metrics == reports[1].metrics


# interval ends on a grid of halves meet, nest and coincide often; thirds
# and fifths are not dyadic, and the float ends carry long binary fractions
_ENDS = st.one_of(st.integers(-8, 8).map(lambda k: Fraction(k, 2)),
                  st.integers(-30, 30).map(lambda k: Fraction(k, 3)),
                  st.integers(-50, 50).map(lambda k: Fraction(k, 5)),
                  st.floats(-10.0, 10.0))
_INTERVALS = st.tuples(_ENDS, _ENDS).map(lambda ends: tuple(sorted(ends)))


def _fraction_simpson(f, lo, hi, breaks):
    """Simpson's rule for f on (lo, hi) between the breaks, in Fractions:
    the oracle of the integer rule `_simpson`."""
    x = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    fx = [f(b) for b in x]
    return sum((b - a) / 6 * (fa + 4 * f((a + b) / 2) + fb) for a, b, fa, fb in zip(x, x[1:], fx, fx[1:]))


def _fraction_translate_integral(I, J, F, V, W):
    """`_translate_integral` as nested Fraction Simpson rules, unscaled: its oracle."""
    moving = [i - j for i in I for j in J]
    fixed = [f - j for f in F for j in J]

    def inner(x):
        return _fraction_simpson(lambda y: _common_length((I[0] + x, I[1] + x), (J[0] + y, J[1] + y), F),
                                 *W, [x + c for c in moving] + fixed)

    return _fraction_simpson(inner, *V, [d - c for c in moving for d in fixed + list(W)])


def _convolution_integral(S, A, B, F):
    """The integral over F of (1_S * 1_A)(1_S * 1_B), the 1-D form of both
    sides of the fubini identity.  Each factor is linear between the sums
    of an end of S and an end of A or B, so the product is quadratic."""
    def conv(z, X):
        return _common_length(X, (z - S[1], z - S[0]))

    return _fraction_simpson(lambda z: conv(z, A) * conv(z, B), *F, [s + x for s in S for x in A + B])


def test_simpson_evaluates_each_point_once():
    # each interior break is the end of one piece and the start of the next;
    # 6 times the integral of y^2 over (0, 12) is 3456
    points = []
    x = list(range(0, 13, 2))
    assert _simpson(lambda y: points.append(y) or y * y, x[0], x[-1], x[1:-1]) == 3456
    assert sorted(points) == sorted(set(points)) and len(points) == 2 * len(x) - 1


def test_simpson_is_exact_on_cubics():
    # 6 times the integral of x^3 - 2x over (-2, 6) is 6 * 288, with or
    # without breaks, on integers
    for breaks in ([], [4, -10, 6, 2]):
        total = _simpson(lambda x: x**3 - 2 * x, -2, 6, breaks)
        assert type(total) is int and total == 6 * 288


@settings(max_examples=40, deadline=None)
@given(A=_INTERVALS, B=_INTERVALS, S=_INTERVALS, F=_INTERVALS)
@example(A=(0, 1), B=(5, 6), S=(0, 1), F=(-10, 10))  # disjoint trapezoids
@example(A=(0, 1), B=(1, 2), S=(0, 1), F=(2, 3))  # touching at one end
@example(A=(0, 4), B=(1, 2), S=(-1, 1), F=(0, 2))  # nested
@example(A=(1, 1), B=(0, 3), S=(0, 2), F=(0, 5))  # zero-width A
@example(A=(0, 3), B=(0, 3), S=(0, 2), F=(2, 2))  # zero-width F
def test_translate_integral_matches_the_convolution(A, B, S, F):
    A, B, S, F = (tuple(map(Fraction, iv)) for iv in (A, B, S, F))
    lhs = _translate_integral(A, B, F, S, S)
    rhs = _translate_integral(S, S, F, A, B)
    assert lhs == rhs == _convolution_integral(S, A, B, F)


@settings(max_examples=40, deadline=None)
@given(I=_INTERVALS, J=_INTERVALS, F=_INTERVALS, V=_INTERVALS, W=_INTERVALS)
@example(I=(0, 1), J=(5, 6), F=(-10, 10), V=(0, 1), W=(0, 1))  # disjoint
@example(I=(0, 1), J=(1, 2), F=(2, 3), V=(0, 1), W=(0, 1))  # touching at one end
@example(I=(0, 4), J=(1, 2), F=(0, 2), V=(-1, 1), W=(-1, 1))  # nested
@example(I=(1, 1), J=(0, 3), F=(0, 5), V=(0, 2), W=(0, 2))  # zero-width I
@example(I=(0, 3), J=(0, 3), F=(0, 5), V=(2, 2), W=(0, 2))  # zero-width V
@example(I=(Fraction(1, 3), Fraction(7, 5)), J=(0.1, 2.75), F=(Fraction(-2, 3), 3.3),
         V=(Fraction(-1, 5), Fraction(2, 3)), W=(-0.7, Fraction(4, 3)))  # thirds, fifths and floats
def test_translate_integral_matches_the_fraction_oracle(I, J, F, V, W):
    # ends as given, floats included: the integer sums read them exactly
    value = _translate_integral(I, J, F, V, W)
    assert type(value) is Fraction
    assert value == _fraction_translate_integral(*(tuple(map(Fraction, iv)) for iv in (I, J, F, V, W)))


def _monte_carlo_side(I, J, F, V, W, draws, rng):
    """(estimate, stderr) of the integral over x in V, y in W of
    |(I + x) n (J + y) n F| from uniform draws: run_fubini's Monte Carlo
    before it integrated exactly."""
    I, J, F, V, W = (tuple(map(float, iv)) for iv in (I, J, F, V, W))
    x = rng.uniform(*V, size=draws)
    y = rng.uniform(*W, size=draws)
    lo = np.maximum(np.maximum(I[0] + x, J[0] + y), F[0])
    hi = np.minimum(np.minimum(I[1] + x, J[1] + y), F[1])
    vals = np.maximum(hi - lo, 0.0)
    area = (V[1] - V[0]) * (W[1] - W[0])
    return float(np.mean(vals)) * area, float(np.std(vals)) / math.sqrt(draws) * area


def _fubini_calls(seed, monkeypatch):
    """[(intervals, value)] of every `_translate_integral` call run_fubini
    makes at `seed`, the two sides of each trial in turn."""
    calls = []

    def recording(*intervals):
        calls.append((intervals, _translate_integral(*intervals)))
        return calls[-1][1]

    monkeypatch.setattr(verifier, "_translate_integral", recording)
    assert run_fubini(ExperimentConfig(seed=seed)).status == "pass"
    return calls


def test_fubini_sides_match_monte_carlo(monkeypatch):
    # both sides of the first three trials at the acceptance seed, each
    # within 4 sigma of 10^5 uniform draws
    rng = np.random.default_rng(24)
    for intervals, value in _fubini_calls(20260810, monkeypatch)[:6]:
        assert value > 0
        estimate, stderr = _monte_carlo_side(*intervals, 10**5, rng)
        assert abs(estimate - float(value)) <= 4 * stderr


@pytest.mark.parametrize("seed", [42, 20260810])
def test_correction_times_are_rounded_fractions(seed):
    # every level of the default build; level 6 times pass 2^63
    built = cf_engine.build_levels(cf_engine.CFParams(), seed=seed)
    top = built.levels[6]
    assert max(abs(top.correction_time_fraction(h)) for h in range(-(top.r - 1), top.r)) > 2**63
    for lv in built.levels:
        ref = np.array([float(lv.correction_time_fraction(h)) for h in range(-(lv.r - 1), lv.r)])
        assert _correction_times(lv).tobytes() == ref.tobytes()


def _six_comparison_counts(us, cubes):
    """The oracle: each cube's count from six comparisons over every point."""
    return [
        int(np.count_nonzero(np.logical_and.reduce([(us[:, i] >= lo[i]) & (us[:, i] < hi[i]) for i in range(3)])))
        for lo, hi in cubes
    ]


def test_chart_cube_counts_match_six_comparisons():
    # points on a grid of step 1/32, so coordinates repeat and cube ends
    # can fall on them exactly
    rng = np.random.default_rng(31)
    us = np.floor(rng.uniform(size=(20_000, 3)) * 32) / 32
    cubes = []
    for _ in range(30):
        lo = rng.uniform(0.0, 0.6, size=3)
        cubes.append((lo, np.minimum(lo + rng.uniform(0.1, 0.4, size=3), 1.0)))
    for _ in range(30):  # ends equal to sample coordinates
        a, b = us[rng.integers(0, len(us), 2)]
        cubes.append((np.minimum(a, b), np.maximum(a, b)))
    cubes += [
        (np.full(3, 0.25), np.full(3, 0.25)),  # empty slice at a sample coordinate
        (np.full(3, 0.99), np.ones(3)),  # empty slice above every u_0
        (np.zeros(3), np.ones(3)),  # every point
    ]
    rows = np.array(us.T)
    counts = _chart_cube_counts(rows, cubes)
    assert counts == _six_comparison_counts(us, cubes)
    assert counts[-3:] == [0, 0, len(us)]
    # the rows hold the same points, sorted by u_0
    assert np.all(np.diff(rows[0]) >= 0)
    assert np.array_equal(np.unique(rows.T, axis=0), np.unique(us, axis=0))


def _overlap_deviation_loop(levels, n, rng):
    """The oracle: the sum over every interval of its overlap with each of
    the 60 slabs, one scalar draw and one pass over the intervals per slab."""
    at_prev = levels.a_tilde(n - 1)
    k_slab = (2 * n - 1) * at_prev
    a_prev, a_n = levels.a(n - 1), levels.a(n)
    width = float(rng.uniform(0.4, 1.2)) * a_prev
    lo_a = float(rng.uniform(-a_prev, a_prev - width))
    target = width / (2 * a_prev)
    lo_f = _correction_times(levels.level(n - 1)) + lo_a
    hi_f = lo_f + width
    devs = []
    for _ in range(60):
        t_f = float(rng.uniform(-(a_n - k_slab), a_n - k_slab))
        lo_s, hi_s = t_f - k_slab, t_f + k_slab
        overlap = float(np.sum(np.maximum(np.minimum(hi_f, hi_s) - np.maximum(lo_f, lo_s), 0.0)))
        devs.append(abs(overlap / (2 * k_slab) - target))
    return float(np.mean(devs)), float(np.std(devs) / math.sqrt(len(devs)))


@pytest.mark.parametrize("seed", [20260810, 20260811])
def test_overlap_deviation_matches_the_loop(seed):
    levels = _levels_cache(ExperimentConfig(seed=seed))
    for n in (3, 4, 5, 6):
        closed = _overlap_deviation(levels, n, verifier.substream(seed, f"l62-{n}"))
        loop = _overlap_deviation_loop(levels, n, verifier.substream(seed, f"l62-{n}"))
        assert closed[0] > 0 and np.allclose(closed, loop, rtol=0.0, atol=1e-12)


def test_union_overlaps_on_interval_ends():
    # intervals [0, 2), [3, 5), [5, 7), [10, 12), the middle two touching;
    # every window has its ends on interval ends or between them, and the
    # sums are exact in floats
    lo_f = np.array([0.0, 3.0, 5.0, 10.0])
    ends = np.array([-1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 8.0, 10.0, 12.0, 13.0])
    lo_s, hi_s = (a.ravel() for a in np.meshgrid(ends, ends))
    keep = lo_s <= hi_s
    lo_s, hi_s = lo_s[keep], hi_s[keep]
    loop = [float(np.sum(np.maximum(np.minimum(lo_f + 2.0, h) - np.maximum(lo_f, l), 0.0))) for l, h in zip(lo_s, hi_s)]
    assert _union_overlaps(lo_f, 2.0, lo_s, hi_s).tolist() == loop


@pytest.mark.parametrize("lo_f", [[0.0, 1.5, 4.0], [0.0, 4.0, 3.0], [0.0, np.nan]])
def test_union_overlaps_rejects_intervals_not_sorted_and_disjoint(lo_f):
    # width 2: [0, 2) and [1.5, 3.5) overlap, 4 then 3 is out of order
    with pytest.raises(IntervalOrderError, match="sorted and disjoint"):
        _union_overlaps(np.array(lo_f), 2.0, np.zeros(1), np.ones(1))


def _weakmix_draw(levels, n, samples, rng):
    """(in_b, ti, tf, tails, top): the weakmix draw of the whole batch.  The
    level-1 times for every sample, split, with the mask of [B] taken on the
    split ti + tf; then the shift indices of the rows in [B] only.  ti, tf
    and tails are those rows'."""
    _, B = _level1_full_rectangles(levels)
    top = min(n + 2, levels.max_level + 1)
    a1 = float(levels.a(1))
    t = rng.uniform(-a1, a1, size=samples)
    ti = np.floor(t)
    tf = t - ti
    t1 = ti + tf
    in_b = (t1 > float(B[0])) & (t1 <= float(B[1]))
    tails = cf_engine.sample_tails(levels, int(in_b.sum()), top - 1, rng)
    return in_b, ti[in_b].astype(np.int64), tf[in_b], tails, top


def _weakmix_result(levels, samples, in_b, valid, ti1, tf1):
    """(deviation, stderr, estimate) from the peeled B rows, with p_hat the
    mean of the whole batch's hit mask."""
    A, B = _level1_full_rectangles(levels)
    mu_a = cf_engine.cylinder_measure(levels, 1, *A)
    mu_b = cf_engine.cylinder_measure(levels, 1, *B)
    mu1 = levels.mu_xn(1)
    t1_shift = ti1.astype(float) + tf1
    hit = np.zeros(samples, dtype=bool)
    hit[in_b] = valid & (t1_shift > float(A[0])) & (t1_shift <= float(A[1]))
    p_hat = float(np.mean(hit))
    sigma = mu1 * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / samples)
    return abs(mu1 * p_hat - mu_a * mu_b), sigma, mu1 * p_hat


def _weakmix_deviation_with_fiber(levels, n, samples, rng):
    """The weakmix deviation with a Haar fiber riding along the B rows (drawn
    from its own generator, so the stream is the weakmix one), moved by
    embed_batch, a plain time shift and peel_batch."""
    in_b, ti, tf, tails, top = _weakmix_draw(levels, n, samples, rng)
    q = quat_normalize(np.random.default_rng(samples).standard_normal((len(tf), 4)))
    tin, tfn, qn = cf_engine.embed_batch(levels, ti, tf, q, tails, 1, top)
    assert qn is not None
    g = 2 * levels.a_tilde(n)
    tin = tin + (g if tin.dtype == object else np.int64(g))
    valid, ti1, tf1, q1, _ = cf_engine.peel_batch(levels, tin, tfn, qn, top, 1)
    assert q1 is not None
    return _weakmix_result(levels, samples, in_b, valid, ti1, tf1)


class TestWeakmixTimeOnly:
    @pytest.mark.parametrize("n", [2, 5])
    def test_no_fiber_arithmetic_and_same_result(self, levels, monkeypatch, n):
        # g_n moves time only; the fiber must not be drawn, normalised or
        # moved, and leaving it out must not move a bit of (deviation,
        # sigma, estimate)
        ref = _weakmix_deviation_with_fiber(levels, n, 4000, np.random.default_rng(n))

        def forbidden(*args, **kwargs):
            raise AssertionError("weakmix computed a fiber")

        monkeypatch.setattr(cf_engine, "quat_normalize", forbidden)
        monkeypatch.setattr(cf_engine, "quat_mul", forbidden)
        monkeypatch.setattr(cf_engine, "quat_twist", forbidden)
        monkeypatch.setattr(cf_engine, "_fiber_step", forbidden)
        monkeypatch.setattr(cf_engine, "twist_unit", forbidden)
        got = _weakmix_deviation(levels, n, 4000, np.random.default_rng(n))
        assert got == ref


def _weakmix_deviation_whole(levels, n, samples, rng):
    """The weakmix deviation with all the B rows translated at once and the
    rectangle tests run on the whole batch's masks, as without row blocks,
    and on the split times as floats, as before the ticks."""
    in_b, ti, tf, tails, top = _weakmix_draw(levels, n, samples, rng)
    g = 2 * levels.a_tilde(n)
    valid, T, rho, _ = cf_engine.translate(levels, ti, tf, None, tails, g, 1, top)
    return _weakmix_result(levels, samples, in_b, valid, *cf_engine._from_ticks(levels, T, rho))


@pytest.mark.parametrize("params", [
    cf_engine.CFParams(max_level=2),
    # the benchmark's smoke construction: a_1 D = 59 * 2, so A's right end
    # a_1 D / 4 = 29.5 ticks is not a whole tick
    cf_engine.CFParams(r_floor=30, alphabet_size=2, max_level=2),
])
def test_tick_hits_match_the_float_test(params):
    # A = (-a_1 / 2, a_1 / 4] tested on the ticks (T, rho) as weakmix tests
    # it, lane for lane against the float test on the split time ti + tf:
    # every tick from two below each end of A to two above it, at residuals
    # 0, 1/4, 1/2, 3/4, 1 - 2^-32 and random ones on the 2^-32 grid, which
    # the float sum carries exactly, as it does the program's uniform draws
    levels = cf_engine.build_levels(params, seed=0)
    A, _ = _level1_full_rectangles(levels)
    ends = [end * levels.grid for end in A]
    rng = np.random.default_rng(9)
    rhos = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-32] + list(rng.integers(1, 2**32, 20) / 2**32)
    T = np.array([math.floor(end) + d for end in ends for d in range(-2, 3)], dtype=np.int64)
    T, rho = (np.repeat(T, len(rhos)), np.tile(rhos, len(T)))
    below = T - (rho == 0.0)
    ticks = verifier._past(below, rho, ends[0]) & ~verifier._past(below, rho, ends[1])
    ti, tf = cf_engine._from_ticks(levels, T, rho)
    t = ti.astype(float) + tf
    assert np.array_equal(ticks, (t > float(A[0])) & (t <= float(A[1])))
    assert 0 < ticks.sum() < len(T)
    assert [end.denominator for end in ends] == ([1, 1] if levels.grid == 8 else [1, 2])


class TestWeakmixInRowBlocks:
    @pytest.mark.parametrize("samples", [
        1, cf_engine.ROW_BLOCK, cf_engine.ROW_BLOCK + 1, 3 * cf_engine.ROW_BLOCK,
    ])
    def test_matches_the_whole_batch(self, levels, samples):
        # the hits summed over the blocks give the whole mask's mean bit for bit
        ref = _weakmix_deviation_whole(levels, 5, samples, np.random.default_rng(samples))
        assert _weakmix_deviation(levels, 5, samples, np.random.default_rng(samples)) == ref

    def test_peak_memory_below_six_columns(self, levels):
        # an (N,) float or int64 column is 1 MB at N = 2^17.  The times of
        # every row, then the split times and 6 int32 tail indices of the B
        # rows (36%) and one block's translate peak near 4.9 columns.
        # Drawing times and tails for every row peaked near 6.5, translating
        # every row of the block near 8.6, drawing and normalising the whole
        # (N, 4) fiber near 14, and the whole-batch translate at n = 6 near 32
        n = 2**17
        tracemalloc.start()
        try:
            _weakmix_deviation(levels, 6, n, np.random.default_rng(24))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * n * np.dtype(np.int64).itemsize


class TestWeakmixTranslatesBRows:
    """Only the rows in B can count, so only they get tails and reach
    translate."""

    @staticmethod
    def _record(monkeypatch, name):
        """The arguments after levels of each call to cf_engine.<name>,
        arrays copied."""
        calls = []
        original = getattr(cf_engine, name)

        def recording(levels, *args):
            calls.append([np.copy(x) if isinstance(x, np.ndarray) else x for x in args])
            return original(levels, *args)

        monkeypatch.setattr(cf_engine, name, recording)
        return calls

    @staticmethod
    def _outside_b_seed(levels):
        """The first seed whose one point lies outside B."""
        return next(s for s in range(100) if not _weakmix_draw(levels, 5, 1, np.random.default_rng(s))[0][0])

    def test_each_block_hands_over_its_b_rows(self, levels, monkeypatch):
        samples = 3 * cf_engine.ROW_BLOCK + 5
        in_b, ti, tf, tails, _ = _weakmix_draw(levels, 5, samples, np.random.default_rng(7))
        calls = self._record(monkeypatch, "translate")
        _weakmix_deviation(levels, 5, samples, np.random.default_rng(7))
        blocks = list(cf_engine.row_blocks(int(in_b.sum())))
        assert len(calls) == len(blocks) == 2
        assert sum(len(c[1]) for c in calls) == in_b.sum() < samples
        for rows, (ti_b, tf_b, _, tails_b, *_) in zip(blocks, calls):
            assert np.array_equal(ti_b, ti[rows]) and np.array_equal(tf_b, tf[rows])
            assert np.array_equal(tails_b, tails[rows])

    @pytest.mark.parametrize("samples", [5000, 3 * cf_engine.ROW_BLOCK + 5])
    def test_tails_once_for_the_b_rows(self, levels, monkeypatch, samples):
        in_b = _weakmix_draw(levels, 6, samples, np.random.default_rng(samples))[0]
        calls = self._record(monkeypatch, "sample_tails")
        _weakmix_deviation(levels, 6, samples, np.random.default_rng(samples))
        assert [c[0] for c in calls] == [in_b.sum()]

    def test_a_block_without_b_rows(self, levels, monkeypatch):
        # one point outside B: no tails drawn, no lane translated, and the
        # same result as the whole batch
        seed = self._outside_b_seed(levels)
        ref = _weakmix_deviation_whole(levels, 5, 1, np.random.default_rng(seed))
        tails = self._record(monkeypatch, "sample_tails")
        translated = self._record(monkeypatch, "translate")
        assert _weakmix_deviation(levels, 5, 1, np.random.default_rng(seed)) == ref
        assert [c[0] for c in tails] == [0] and sum(len(c[1]) for c in translated) == 0

    @pytest.mark.parametrize("samples", [1, 4000, cf_engine.ROW_BLOCK + 1])
    def test_stream_is_the_times_then_the_b_rows_tails(self, levels, samples):
        # the generator ends where uniform(samples) and then the tails of
        # the rows in B leave it
        for seed in (samples, self._outside_b_seed(levels)):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            _weakmix_deviation(levels, 4, samples, rng)
            _weakmix_draw(levels, 4, samples, replay)
            assert rng.bit_generator.state == replay.bit_generator.state


def test_weakmix_above_the_build_names_the_level(tmp_path):
    # the default weakmix levels reach 6, so a max_level-3 build runs out at
    # n = 4, whose translate moves the level-4 shift index, with a named
    # error instead of an IndexError from a plain list
    cfg = ExperimentConfig(
        seed=5,
        mc_samples=2000,
        construction=cf_engine.CFParams(max_level=3),
        output_dir=str(tmp_path),
    )
    with pytest.raises(cf_engine.LevelTooDeepError, match="level 4 .*max_level 3"):
        run_weak_mixing(cfg)


def test_weakmix_one_level_short_raises(tmp_path):
    # on a max_level-5 build every g_6 translate leaves the frame: the n = 6
    # correlation used to read 0.0 and only the trend gate failed
    cfg = ExperimentConfig(
        seed=5,
        mc_samples=2000,
        construction=cf_engine.CFParams(max_level=5),
        output_dir=str(tmp_path),
        weakmix_levels=(6,),
    )
    with pytest.raises(cf_engine.LevelTooDeepError, match="level 6 .*max_level 5"):
        run_weak_mixing(cfg)


def test_every_experiment_passes_at_level_7(tmp_path, monkeypatch):
    # the deepest build whose correction shells fit int64; each experiment
    # reads exactly the builds _build_seeds names, which the CLI builds (and
    # so checks) before any experiment runs
    cfg = ExperimentConfig(
        seed=20260810,
        mc_samples=20_000,
        construction=cf_engine.CFParams(max_level=7),
        output_dir=str(tmp_path),
    )
    build = verifier._build_levels
    seeds = []

    def recording(seed, params):
        assert params == cfg.construction
        seeds.append(seed)
        return build(seed, params)

    monkeypatch.setattr(verifier, "_build_levels", recording)
    reports = []
    for name, run in EXPERIMENTS.items():
        seeds.clear()
        reports.append(run(cfg))
        assert set(seeds) == set(_build_seeds(cfg, name)), name
    assert [(rep.name, m.name) for rep in reports for m in rep.metrics if m.passed is False] == []


def test_schedule_that_does_not_build_is_named_in_code(tmp_path):
    # a config built in code met a bare DistributionTestError inside the
    # first runner that read the levels
    cfg = ExperimentConfig(seed=0, construction=cf_engine.CFParams(r_floor=10), output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="floor 10, power 5 and alphabet size 8 does not build at seed 0: "
                       "distribution test failed at level 2"):
        run_sequences(cfg)


class TestCLI:
    @pytest.mark.parametrize("command, need", [
        ("weakmix", 6), ("lemma62", 5), ("sequences", 4), ("equidist", 2), ("joinings", 4),
    ])
    def test_level_below_the_runners_is_a_usage_error(self, command, need, tmp_path, capsys):
        # below its floor each used to end in a traceback from inside the
        # runner: a LevelTooDeepError (weakmix, lemma62, equidist's
        # sample-sets, joinings below 3) or an IndexError (sequences).  At
        # the level under its floor, weakmix read 0 for its n = 6
        # correlation and joinings wrote a FAIL report: their translates
        # left the build
        experiment = "sample-sets" if command == "equidist" else command
        for level in (0, need - 1):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--level", str(level), "--out", str(tmp_path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"max level {level} is below {need}, the smallest at which {experiment} can run" in err
            assert f"pass --level {need} or higher" in err
        parser = cli.build_parser()
        cfg = cli.load_config(parser.parse_args([command, "--level", str(need)]), parser)
        assert cfg.construction.max_level == need

    def test_level_past_int64_is_a_usage_error(self, tmp_path, capsys):
        # --level 8 used to end in an OverflowError traceback from the
        # level build, and --level 100 in a bare "level too deep" from
        # deriving all 100 levels' sequences
        for command, level in (("sequences", 8), ("all", 100)):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--level", str(level), "--out", str(tmp_path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "level 8 correction shells" in err
            assert f"max_level {level} is above 7" in err
            assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("text, message", [
        (None, "No such file or directory"),
        ("{bad", "Expecting property name"),
        ('{"experiments": ["sequences"]}', "unknown experiment config keys ['experiments']"),
    ] + [(json.dumps(data), message) for data, _, message in BAD_VALUES])
    def test_config_error_is_a_usage_error(self, text, message, tmp_path, capsys):
        # each of these used to end in a traceback with exit code 1
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sequences", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"config {cfg_path}: " in err
        assert message in err
        if text is not None and text.startswith('{"'):
            assert _leaf_key(json.loads(text)) in err.split(f"config {cfg_path}: ", 1)[1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["groups", "fubini", "equidist", "cocycles"])
    def test_negative_seed_is_a_usage_error(self, command, tmp_path, capsys):
        # each ended in numpy's "expected non-negative integer" traceback
        # from substream, with exit code 1 and no report
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--seed", "-3", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "seed must be at least 0, not -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, schedule, seed, level", [
        ("sequences", {"floor": 10}, 0, 2),
        ("sequences", {"power": 0}, 0, 3),
        ("sequences", {"power": 1}, 0, 3),
        # builds at the config seed but not at the first alternate seed,
        # which only the quenched sigma of weakmix and lemma62 reads
        ("weakmix", {"floor": 66}, 1009, 2),
    ])
    def test_schedule_that_does_not_build_is_a_usage_error(
        self, command, schedule, seed, level, tmp_path, capsys
    ):
        # each used to end in a DistributionTestError traceback from inside
        # the first runner that read the levels
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"construction": {"r_schedule": schedule}}))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        params = {"floor": 100, "power": 5} | schedule
        err = capsys.readouterr().err
        assert (
            f"r_schedule floor {params['floor']}, power {params['power']} and alphabet "
            f"size 8 does not build at seed {seed}: distribution test failed at level {level}"
        ) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("schedule, faults", [
        # builds at the config seed: the divergence alone is refused
        ({"floor": 1000, "power": 0}, ["the r_schedule with floor 1000 has power 0, below 3"]),
        # does not build either: one error names both faults
        ({"power": 1}, ["the r_schedule with floor 100 has power 1, below 3",
                        "power 1 and alphabet size 8 does not build at seed 0: "
                        "distribution test failed at level 3"]),
    ])
    def test_divergent_schedule_builds_the_config_seed_at_most(
        self, schedule, faults, tmp_path, capsys, monkeypatch
    ):
        # `all` used to build four level sets (the config seed and the three
        # alternate seeds of the quenched sigma) before it refused a
        # divergent schedule
        verifier._build_levels.cache_clear()
        seeds = []
        build = cf_engine.build_levels

        def counted(params, seed=0):
            seeds.append(seed)
            return build(params, seed=seed)

        monkeypatch.setattr(cf_engine, "build_levels", counted)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"construction": {"r_schedule": schedule}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["all", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert seeds == [0]
        err = capsys.readouterr().err
        assert all(fault in err for fault in faults)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("schedule, code, failed", [
        # r_n = n^5 from n = 4 on, so n^4/r_n = 1/n: growth-n4-over-r used
        # to fail, as the floor held n^4/r_n rising over the probed terms
        ({"floor": 1000}, 0, []),
        # the measure's readers refuse this schedule; validate-cf reports it
        ({"floor": 1000, "power": 0}, 1, ["w-fo-folner-ratios", "growth-n4-over-r", "finiteness-eq-9"]),
    ])
    def test_validate_cf_reads_the_exponent(self, schedule, code, failed, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"construction": {"r_schedule": schedule, "max_level": 3}}))
        assert cli.main(["validate-cf", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == code
        (entry,) = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
        assert [m["name"] for m in entry["metrics"] if not m["passed"]] == failed

    def test_cli_subcommand(self, tmp_path):
        out = tmp_path / "cli"
        proc = subprocess.run(
            [sys.executable, "-m", "cfjoin.cli", "sequences", "--out", str(out), "--seed", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (out / "report.json").exists()

    def test_cli_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 4, "mc_samples": 10_000}))
        out = tmp_path / "cli2"
        proc = subprocess.run(
            [
                sys.executable, "-m", "cfjoin.cli", "validate-cf",
                "--config", str(cfg_path), "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["seed"] == 4

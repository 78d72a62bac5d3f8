"""Tests of the benchmark itself: the pure-Python embed/peel reference, the
metric and workload names, the output checks fed corrupted outputs, and a
smoke run of each workload's code path at a tiny config.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import csv
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import probe
import reference
import run as bench
from workloads import ACCEPTANCE_SEED, WORKLOADS

verifier, _ = probe.import_cfjoin()
from cfjoin import cf_engine, rank_one  # noqa: E402  (importable once probe set the path)

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# small enough that every experiment runs in seconds, and every check passes
SMOKE = {
    "mc_samples": 2000,
    "construction": cf_engine.default_params(r_floor=30, alphabet_size=2),
}


@pytest.fixture(scope="module")
def levels():
    return cf_engine.build_levels(cf_engine.default_params(), seed=ACCEPTANCE_SEED)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced smoke run per workload: workload -> (result, out_root)."""
    out = {}
    for name in WORKLOADS:
        root = tmp_path_factory.mktemp(name)
        result = bench.run(name, seed=1, seconds=0, trace=False, config_seed=ACCEPTANCE_SEED,
                           out_root=root, overrides=SMOKE, setup_repeats=1)
        out[name] = (result, root)
    return out


# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------

def _engine_peel(levels, ti, tf, from_level, to_level):
    ti_arr = np.array([ti], dtype=object if abs(ti) >= 2**62 else np.int64)
    q = np.array([[1.0, 0.0, 0.0, 0.0]])
    valid, ti1, tf1, _, hs = cf_engine.peel_batch(levels, ti_arr, np.array([tf]), q, from_level, to_level)
    if not valid[0]:
        return None
    return int(ti1[0]), float(tf1[0]), tuple(int(h) for h in hs[0])


def test_reference_base_interval_is_half_open(levels):
    """Level-1 times lie in (-a_1, a_1]: the right end peels back from level 2
    to itself, the left end has no level-1 preimage."""
    tables = reference.level_tables(levels)
    a1 = levels.a(1)
    for h in (-3, 0, 5):
        right = reference.embed(tables, a1, 0.0, [h], 1, 2)
        assert reference.peel(tables, *right, 2, 1) == (a1, 0.0, (h,))
        assert _engine_peel(levels, *right, 2, 1) == (a1, 0.0, (h,))
        left = reference.embed(tables, -a1, 0.0, [h], 1, 2)
        assert reference.peel(tables, *left, 2, 1) is None
        assert _engine_peel(levels, *left, 2, 1) is None


def test_reference_round_trip_and_engine_agree(levels):
    tables = reference.level_tables(levels)
    top = levels.max_level + 1
    tails = [3, -7, 40, -200, 1000, -4000][: top - 1]
    ti, tf = reference.embed(tables, -37, 0.625, tails, 1, top)
    assert reference.peel(tables, ti, tf, top, 1) == (-37, 0.625, tuple(tails))
    ti_e, tf_e, _ = cf_engine.embed_batch(
        levels, np.array([-37]), np.array([0.625]), np.array([[1.0, 0, 0, 0]]),
        np.array([tails]), 1, top)
    assert int(ti_e[0]) == ti and abs(float(tf_e[0]) - tf) <= 1e-12


def test_reference_translate_across_2_62(levels):
    """A level-7 point just below 2^62, translated so that its integer time
    crosses 2^62: the engine's Python-int lane agrees with the reference."""
    tables = reference.level_tables(levels)
    top = levels.max_level + 1
    h_top = 2**62 // (2 * levels.a_tilde(top - 1))
    tails = [0] * (top - 2) + [h_top]
    ti, tf = reference.embed(tables, 11, 0.25, tails, 1, top)
    assert ti < 2**62
    g = 2**62 - ti + 1000
    moved = reference.peel(tables, ti + g, tf, top, 1)
    assert moved is not None and ti + g > 2**62
    engine = _engine_peel(levels, ti + g, tf, top, 1)
    assert engine[0] == moved[0] and engine[2] == moved[2]
    assert abs(engine[1] - moved[1]) <= 1e-12
    # and back up again
    back = reference.embed(tables, moved[0], moved[1], moved[2], 1, top)
    assert back[0] == ti + g and abs(back[1] - tf) <= 1e-12


def test_reference_rejects_shift_outside_h(levels):
    tables = reference.level_tables(levels)
    r1 = levels.level(1).r
    with pytest.raises(ValueError):
        reference.embed(tables, 0, 0.0, [r1], 1, 2)
    t = 2 * r1 * levels.a_tilde(1)
    assert reference.peel(tables, t, 0.5, 2, 1) is None
    assert _engine_peel(levels, t, 0.5, 2, 1) is None


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOAD_NAMES = {"weakmix-accept", "joinings-accept", "suite-rest-accept"}
END_TO_END_NAMES = {"setup_s", "wall_s", "peak_rss_mb"}


def layer_metric_names() -> set[str]:
    """Every per-layer metric of the benchmark's design.  A traced run
    reports all of them; BENCHMARK.json lists those with a reading on every
    workload."""
    names = {
        "groups.quat_mul.s", "groups.quat_mul.rows", "groups.quat_phi_real.s",
        "groups.quat_phi_real.rows", "groups.quat_phi_int.s",
        "cf_engine.build_levels.s", "cf_engine.sample_point_batch.s", "cf_engine.embed_batch.s",
        "cf_engine.embed_batch.point_levels", "cf_engine.peel_batch.s",
        "cf_engine.peel_batch.point_levels", "cf_engine.peel_batch.valid_ratio",
        "cf_engine.object_lane.calls", "cf_engine.validate_cf.s", "cf_engine.act.s",
        "equidist.build_s_map.s", "equidist.build_s_map.attempts",
        "equidist.build_s_map.accept_ratio", "equidist.star_discrepancy.s",
        "equidist.su2_to_chart_array.s", "equidist.su2_to_chart_array.rows",
        "joinings.CFDictionary.evaluate.s", "joinings.CFDictionary.evaluate.values",
        "joinings.empirical_joining.s", "joinings.graph_joining_target.s",
        "joinings.product_joining_target.s", "joinings.shulman_check.s",
        "joinings.peak_rss_rise_mb",
        "rank_one.tower_apply.s", "rank_one.tower_apply.calls",
        "rank_one.sample_tower_point.s", "rank_one.sample_tower_point.calls",
        "cocycles.d6_root_check.s", "cocycles.eigenvalue_probe.s",
        "cocycles.constant_one_obstruction.s", "cocycles.double_ext_apply.calls",
        "verifier.emit_report.s",
    }
    for name in verifier.EXPERIMENTS:
        names |= {f"verifier.{name}.s", f"verifier.{name}.self_s"}
    return names


def test_names_match_pattern_and_design():
    workloads = [w["name"] for w in SPEC["workloads"]]
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for name in workloads + e2e + per_layer:
        assert NAME.fullmatch(name), name
    assert len(set(workloads + e2e + per_layer)) == len(workloads + e2e + per_layer)
    assert set(workloads) == WORKLOAD_NAMES == set(WORKLOADS)
    assert set(e2e) == END_TO_END_NAMES
    assert set(per_layer) <= layer_metric_names()


def test_workloads_partition_cfjoin_all():
    runs = [name for w in WORKLOADS.values() for name in w.experiments]
    assert sorted(runs) == sorted(verifier.EXPERIMENTS)
    assert len(runs) == len(set(runs))
    for w in WORKLOADS.values():  # each in `cfjoin all` order
        order = [n for n in verifier.EXPERIMENTS if n in w.experiments]
        assert list(w.experiments) == order


# ---------------------------------------------------------------------------
# smoke runs, traced and untraced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(smoke, name):
    result, root = smoke[name]
    assert result["correct"] and result["failed"] == 0, result["operations"]
    assert result["attempted"] == len(WORKLOADS[name].experiments)
    for op in result["operations"]:
        assert op["statuses"] == ["pass"] and not op["check_failures"] and not op["errors"]
    line = bench.summary_line(result, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == END_TO_END_NAMES
    assert all(m["value"] > 0 for m in line["metrics"].values())
    man = result["manifest"]
    for key in ("package_version", "git_sha", "python", "numpy", "nproc", "ram_bytes",
                "blas_threads", "config_hash"):
        assert key in man
    assert (root / "results" / f"{result['run_id']}.json").is_file()
    assert not (root / "reports" / name / "manifest.json").exists()


def test_smoke_traced_run(tmp_path):
    result = bench.run("joinings-accept", seed=1, seconds=0, trace=True,
                       config_seed=ACCEPTANCE_SEED, out_root=tmp_path, overrides=SMOKE,
                       setup_repeats=1)
    assert result["correct"] and result["failed"] == 0
    layers = result["per_layer"]
    assert layer_metric_names() <= set(layers)
    line = bench.summary_line(result, SPEC)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["joinings.CFDictionary.evaluate.values"] > 0
    assert layers["cf_engine.peel_batch.point_levels"] > 0
    assert layers["verifier.joinings.s"] >= layers["verifier.joinings.self_s"] > 0
    assert layers["verifier.weakmix.s"] == 0.0
    assert list((tmp_path / "traces").iterdir())
    # the originals are back in place after the run
    assert not hasattr(cf_engine.peel_batch, "__wrapped__")


def test_tracer_replaces_every_import():
    from tracing import Tracer

    from cfjoin import groups, joinings

    original = groups.quat_mul
    tracer = Tracer()
    tracer.install()
    try:
        assert groups.quat_mul is cf_engine.quat_mul is joinings.quat_mul is verifier.quat_mul
        assert groups.quat_mul is not original
        groups.quat_phi_real(np.zeros(3), np.tile([1.0, 0, 0, 0], (3, 1)))
    finally:
        tracer.uninstall()
    assert groups.quat_mul is original and verifier.quat_mul is original
    total, own = tracer.times()
    assert tracer.counters["groups.quat_mul.rows"] == 6  # two products inside the twist
    assert own["groups.quat_phi_real"] == pytest.approx(
        total["groups.quat_phi_real"] - total["groups.quat_mul"])


def test_probe_subprocess():
    times = bench.setup_probes("weakmix-accept", ACCEPTANCE_SEED, 1)
    assert len(times) == 1 and times[0] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "weakmix-accept", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# the checks, fed corrupted outputs
# ---------------------------------------------------------------------------

def _report_entry(smoke, workload, experiment):
    _, root = smoke[workload]
    report = json.loads((root / "reports" / workload / "report.json").read_text())
    return next(e for e in report["reports"] if e["experiment"] == experiment)


def _rewrite_csv(src: Path, dst: Path, edit) -> Path:
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return dst


def test_gates_check(smoke):
    entry = _report_entry(smoke, "suite-rest-accept", "equidist")
    assert checks.gates(entry) == []
    failed = copy.deepcopy(entry)
    failed["metrics"][0]["passed"] = False
    assert checks.gates(failed)
    over = copy.deepcopy(entry)
    m = next(m for m in over["metrics"] if m.get("tolerance", 0) > 0)
    m["value"] = 2 * m["tolerance"]
    assert checks.gates(over)
    grid = copy.deepcopy(entry)
    next(m for m in grid["metrics"] if m["name"] == "grid-dstar-10")["value"] = 0.2
    assert checks.gates(grid)


def test_sequences_checks(smoke, tmp_path):
    _, root = smoke["suite-rest-accept"]
    path = root / "reports" / "suite-rest-accept" / "sequences.csv"
    params = SMOKE["construction"]
    assert checks.sequences_csv(path, params) == []

    def bump_ratio(rows):
        rows[3]["ratio"] = repr(float(rows[3]["ratio"]) * (1 + 2**-50))

    def bump_a(rows):
        rows[2]["a"] = str(int(rows[2]["a"]) + 1)

    assert checks.sequences_csv(_rewrite_csv(path, tmp_path / "r.csv", bump_ratio), params)
    assert checks.sequences_csv(_rewrite_csv(path, tmp_path / "a.csv", bump_a), params)


def test_levels_check(levels):
    params = levels.params
    assert checks.levels_match_recursion(levels, params) == []
    broken = copy.copy(levels)
    broken.seq = list(levels.seq)
    broken.seq[4] = (broken.seq[4][0] + 2, broken.seq[4][1])
    assert checks.levels_match_recursion(broken, params)


def test_weakmix_checks(smoke, tmp_path):
    _, root = smoke["weakmix-accept"]
    path = root / "reports" / "weakmix-accept" / "weakmix.csv"
    cfg_levels = (2, 3, 4, 5, 6)
    assert checks.weakmix_csv(path, cfg_levels) == []

    def shift_deviation(rows):
        rows[1]["deviation"] = repr(float(rows[1]["deviation"]) + 1e-9)

    assert checks.weakmix_csv(_rewrite_csv(path, tmp_path / "w.csv", shift_deviation), cfg_levels)


def test_engine_reference_check_catches_a_wrong_engine(levels, monkeypatch):
    cfg = verifier.ExperimentConfig(seed=ACCEPTANCE_SEED, mc_samples=5000, weakmix_levels=(5,))
    assert checks.engine_matches_reference(cf_engine, levels, cfg, seed=1, per_level=50) == []
    embed = cf_engine.embed_batch

    def off_by_one(*args, **kwargs):
        ti, tf, q = embed(*args, **kwargs)
        return ti + 1, tf, q

    monkeypatch.setattr(cf_engine, "embed_batch", off_by_one)
    assert checks.engine_matches_reference(cf_engine, levels, cfg, seed=1, per_level=50)


def test_joinings_checks(smoke, tmp_path):
    _, root = smoke["joinings-accept"]
    path = root / "reports" / "joinings-accept" / "joinings.csv"
    assert checks.joinings_csv(path) == []

    def swap_verdicts(rows):
        # the paired case now reads nearest to the product, with distances to match
        paired = {r["target"]: r for r in rows if r["case"] == "paired"}
        paired["mixture"]["distance"], paired["product"]["distance"] = (
            paired["product"]["distance"], paired["mixture"]["distance"])
        paired["mixture"]["verdict"], paired["product"]["verdict"] = "", "nearest"

    def break_convexity(rows):
        indep = {r["target"]: r for r in rows if r["case"] == "independent"}
        far = max(float(indep["graph_k"]["distance"]), float(indep["graph_kstar"]["distance"]))
        indep["mixture"]["distance"] = repr(far * 1.5)

    assert checks.joinings_csv(_rewrite_csv(path, tmp_path / "v.csv", swap_verdicts))
    assert checks.joinings_csv(_rewrite_csv(path, tmp_path / "c.csv", break_convexity))


def test_spectral_and_chacon_checks(smoke, tmp_path):
    _, root = smoke["suite-rest-accept"]
    path = root / "reports" / "suite-rest-accept" / "spectral.csv"
    assert checks.spectral_csv(path) == []

    def too_large(rows):
        rows[5]["modulus"] = "1.5"

    assert checks.spectral_csv(_rewrite_csv(path, tmp_path / "s.csv", too_large))

    assert checks.chacon_heights(rank_one) == []

    class OffByOne:
        @staticmethod
        def chacon_scheme(stages):
            scheme = rank_one.chacon_scheme(stages)
            return replace(scheme, heights=scheme.heights[:4] + (scheme.heights[4] + 1,)
                           + scheme.heights[5:])

    assert checks.chacon_heights(OffByOne)

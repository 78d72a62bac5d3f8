"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Experiments run at the full default sample sizes, so this module takes a few
minutes end to end; each criterion also enforces its runtime budget.
"""

import filecmp
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cfjoin import cf_engine, cocycles, equidist, joinings, rank_one, verifier
from cfjoin.groups import D6_LABELS, D6_MUL
from cfjoin.verifier import EXPERIMENTS, ExperimentConfig, emit_report

SEED = 20260810


@pytest.fixture(scope="module")
def cfg(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    return ExperimentConfig(seed=SEED, mc_samples=1_000_000, output_dir=str(out))


_reports: dict = {}
_times: dict = {}


def _run(cfg, name):
    if name not in _reports:
        t0 = time.perf_counter()
        _reports[name] = EXPERIMENTS[name](cfg)
        _times[name] = time.perf_counter() - t0
    return _reports[name], _times[name]


def _line(num, ok, budget, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {elapsed:.3f}s (budget {budget}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.3f}s >= {budget}s"


def _metric(report, name):
    for m in report.metrics:
        if m.name == name:
            return m
    raise KeyError(name)


def test_criterion_01_d6_exhaustive(cfg):
    # the fastest of 5 repetitions, so that another process sharing the CPU
    # does not decide the 1 ms budget
    elapsed = math.inf
    x, y, z = np.indices((6, 6, 6))
    for _ in range(5):
        t0 = time.perf_counter()
        assoc = np.array_equal(D6_MUL[D6_MUL[x, y], z], D6_MUL[x, D6_MUL[y, z]])
        elapsed = min(elapsed, time.perf_counter() - t0)
    a, b = D6_LABELS.index("a"), D6_LABELS.index("b")
    ok = assoc and D6_LABELS[D6_MUL[a, b]] == "d" and D6_LABELS[D6_MUL[b, a]] == "f"
    _line(1, ok, 0.001, elapsed, "216 associativity triples + table reads")


def test_criterion_02_g_arithmetic(cfg):
    rep, elapsed = _run(cfg, "groups")
    checks = [
        "g-associativity-max",
        "phi-additivity-max",
        "phi-period-2-max",
        "g-inverse-max",
        "star-involution-max",
    ]
    ok = all(_metric(rep, c).passed and _metric(rep, c).value <= 1e-12 for c in checks)
    ok &= bool(_metric(rep, "central-2I").passed)
    ok &= bool(_metric(rep, "noncentral-1I-witnessed").passed)
    ok &= bool(_metric(rep, "noncentral-h0-witnessed").passed)
    _line(2, ok, 1.0, elapsed, "1e4 random elements at 1e-12; centrality witnesses")


def test_criterion_03_sequences(cfg):
    rep, elapsed = _run(cfg, "sequences")
    ok = rep.status == "pass"
    ok &= _metric(rep, "mu-tail-bound").value < 1e-6
    ok &= _metric(rep, "ratio-identity-max-err").value <= 1e-12
    ok &= bool(_metric(rep, "cylinder-y4-consistency").passed)
    _line(3, ok, 1.0, elapsed, "integer recursion to level 8; ratio and mass identities")


def test_criterion_04_cf_validity(cfg):
    rep, elapsed = _run(cfg, "validate-cf")
    needed = ["w2-choice-sets", "w3-containment", "w4-disjointness", "tiling-6-9"]
    ok = all(_metric(rep, c).passed for c in needed) and rep.status == "pass"
    _line(4, ok, 1.0, elapsed, "stacking conditions by exact interval arithmetic")


def test_criterion_05_discrepancy(cfg):
    t0 = time.perf_counter()
    grids_exact = all(equidist.star_discrepancy(np.arange(n), n) == Fraction(1, n) for n in (10, 100, 1000))
    rep, t_eq = _run(cfg, "equidist")
    elapsed = time.perf_counter() - t0 + t_eq
    ok = grids_exact
    ok &= bool(_metric(rep, "vdc-monotone-checkpoints").passed)
    ok &= bool(_metric(rep, "kh-bound-dominates").passed)
    _line(5, ok, 30.0, elapsed, "exact grid values; checkpoints 2^8..2^14; 20 Lipschitz f")


def test_criterion_06_sample_sets(cfg):
    rep, elapsed = _run(cfg, "sample-sets")
    ok = True
    for n in (2, 3):
        eps = 1.0 / (n + 1)
        ok &= _metric(rep, f"techniczny-i-n{n}").value < eps
        ok &= _metric(rep, f"techniczny-ii-n{n}").value < eps
        ok &= _metric(rep, f"smap-pair-l1-n{n}").value < eps
    for n in range(1, 7):
        ok &= bool(_metric(rep, f"smap-boundary-n{n}").passed)
    _line(6, ok, 300.0, elapsed, "conditional-measure tests against exact references; pair l1 < eps_n")


def test_criterion_07_weak_mixing(cfg):
    rep, elapsed = _run(cfg, "weakmix")
    ok = all(_metric(rep, f"deviation-n{n}").passed for n in (2, 3, 4, 5, 6))
    ok &= bool(_metric(rep, "trend-non-increasing").passed)
    _line(7, ok, 600.0, elapsed, "correlation deviations within budget; trend at 4 sigma")


def test_criterion_08_lemma62_fubini(cfg):
    rep1, t1 = _run(cfg, "lemma62")
    rep2, t2 = _run(cfg, "fubini")
    ok = all(
        _metric(rep1, f"symdiff-bound-n{n}").passed for n in (3, 4, 5, 6)
    )
    ok &= rep1.status == "pass" and rep2.status == "pass"
    _line(8, ok, 300.0, t1 + t2, "exact slab bounds at the shell-block ends; both fubini sides equal as Fractions in 10 trials")


def test_criterion_09_joining_classification(cfg):
    rep, elapsed = _run(cfg, "joinings")
    ok = bool(_metric(rep, "paired-verdict-mixture").passed)
    ok &= bool(_metric(rep, "paired-margins-4sigma").passed)
    ok &= bool(_metric(rep, "independent-verdict-product").passed)
    ok &= bool(_metric(rep, "independent-margins-4sigma").passed)
    _line(9, ok, 600.0, elapsed, "window-4 verdicts with margins over 4 combined sigma")


def test_criterion_10_counterexample_bundle(cfg):
    rep, elapsed = _run(cfg, "counterexample-51")
    ok = bool(_metric(rep, "f1-zero-transfer-1e5").passed)
    ok &= bool(_metric(rep, "constant-1-obstruction").passed)
    ok &= bool(_metric(rep, "spectral-probe-max").passed)
    _line(10, ok, 120.0, elapsed, "zero transfer on 1e5 points; obstruction; 64-line probe")


def test_criterion_11_nonuniqueness_bundle(cfg):
    rep, elapsed = _run(cfg, "nonuniqueness-42")
    ok = bool(_metric(rep, "root-identity-100k").passed)
    ok &= bool(_metric(rep, "commutation-grid-1-over-64").passed)
    ok &= bool(_metric(rep, "commutation-witness-found").passed)
    _line(11, ok, 60.0, elapsed, "square-root identity on 1e5 samples; exact grid scan")


def test_criterion_12_determinism(tmp_path):
    # two runs of one config write the same bytes: four experiments at seed
    # 99, and every experiment of `cfjoin all` at the acceptance config
    t0 = time.perf_counter()
    runs = {
        "seed-99": (ExperimentConfig(seed=99, mc_samples=20_000, output_dir="det"),
                    ("sequences", "validate-cf", "weakmix", "counterexample-51")),
        "acceptance": (ExperimentConfig(seed=SEED, mc_samples=1_000_000, output_dir="det"), tuple(EXPERIMENTS)),
    }
    ok, files = True, []
    for label, (cfg, names) in runs.items():
        paths = []
        for run in range(2):
            verifier._build_levels.cache_clear()  # each run builds its own levels
            reports = [EXPERIMENTS[name](cfg) for name in names]
            out = tmp_path / label / f"run{run}"
            emit_report(reports, str(out), cfg)
            paths.append(out)
        written = sorted(p.name for p in paths[0].iterdir())
        ok &= bool(written) and written == sorted(p.name for p in paths[1].iterdir())
        for name in written:
            ok &= filecmp.cmp(paths[0] / name, paths[1] / name, shallow=False)
        files += [f"{label}/{name}" for name in written]
    elapsed = time.perf_counter() - t0
    _line(12, ok, 300.0, elapsed, f"byte-identical outputs: {', '.join(files)}")

"""Benchmark command: run one workload of cfjoin's experiments, check its
outputs and print its metrics.

    python3 bench/run.py --workload weakmix-accept --seed 1 --seconds 10 --trace 0

Each run is one fresh process.  It imports cfjoin from the checkout's `src`,
builds the workload's levels (the set-up), then runs whole rounds of the
workload's experiment runners plus `emit_report` until `--seconds` have
passed (at least one round), exactly as `cfjoin` calls them.  With
`--trace 1` it runs one round with every traced cfjoin function wrapped
(see tracing.py) and prints the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
come from BENCHMARK.json.

The program always runs at the workload's config with seed `--config-seed`
(the acceptance seed by default).  `--seed` seeds the benchmark's own
choices: the subsample of the weakmix batch that the reference checks.

Reports go to bench/reports/<workload> (byte-identical from run to run),
and a JSON file per run with the metrics, the manifest and every check to
bench/results; a traced run writes its spans to bench/traces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import probe
from tracing import TRACED, Tracer
from workloads import ACCEPTANCE_SEED, WORKLOADS, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="seed of the benchmark's own choices")
    parser.add_argument("--seconds", type=float, default=10.0, help="measure whole rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config-seed", type=int, default=ACCEPTANCE_SEED,
                        help="seed of the program's config")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one round of the workload
# ---------------------------------------------------------------------------

def run_round(verifier, cfg, experiments, tracer):
    """Runner calls plus emit_report, as cfjoin makes them.  Returns
    (wall seconds, reports by experiment, tracebacks by experiment)."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    reports, errors = {}, {}
    t0 = time.perf_counter()
    for name in experiments:
        with span(f"verifier.{name}"):
            try:
                reports[name] = verifier.EXPERIMENTS[name](cfg)
            except Exception:  # an operation that raises counts as failed
                errors[name] = traceback.format_exc()
    with span("verifier.emit_report"):
        verifier.emit_report(list(reports.values()), cfg.output_dir, cfg)
    return time.perf_counter() - t0, reports, errors


def report_hashes(report_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(report_dir.iterdir())
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer, all_experiments) -> dict[str, float]:
    """Per-layer metrics of a traced run: self seconds of every traced
    function, its work counts, and the verifier's per-experiment times."""
    total, own = tracer.times()
    c = tracer.counters
    out = {f"{name}.s": own.get(name, 0.0) for name in TRACED}
    for name in ("groups.quat_mul", "groups.quat_phi_real", "equidist.su2_to_chart_array"):
        out[f"{name}.rows"] = c.get(f"{name}.rows", 0)
    for name in ("cf_engine.embed_batch", "cf_engine.peel_batch"):
        out[f"{name}.point_levels"] = c.get(f"{name}.point_levels", 0)
    for name in ("rank_one.tower_apply", "rank_one.sample_tower_point", "cocycles.double_ext_apply"):
        out[f"{name}.calls"] = c.get(f"{name}.calls", 0)
    lanes_in = c.get("cf_engine.peel_batch.lanes_in", 0)
    out["cf_engine.peel_batch.valid_ratio"] = (
        c.get("cf_engine.peel_batch.lanes_valid", 0) / lanes_in if lanes_in else 0.0
    )
    out["cf_engine.object_lane.calls"] = c.get("cf_engine.object_lane.calls", 0)
    attempts = c.get("equidist.build_s_map.attempts", 0)
    out["equidist.build_s_map.attempts"] = attempts
    out["equidist.build_s_map.accept_ratio"] = (
        c.get("equidist.build_s_map.calls", 0) / attempts if attempts else 0.0
    )
    out["joinings.CFDictionary.evaluate.values"] = c.get("joinings.CFDictionary.evaluate.values", 0)
    out["joinings.peak_rss_rise_mb"] = c.get("joinings.peak_rss_rise_mb", 0.0)
    for name in all_experiments:
        out[f"verifier.{name}.s"] = total.get(f"verifier.{name}", 0.0)
        out[f"verifier.{name}.self_s"] = own.get(f"verifier.{name}", 0.0)
    out["verifier.emit_report.s"] = total.get("verifier.emit_report", 0.0)
    return out


def untraced_wall(results_dir: Path, workload: str, config_hash: str):
    """Median wall_s of the untraced runs of the same workload and config
    recorded in results_dir, and how many there are."""
    walls = []
    for path in results_dir.glob(f"{workload}-*.json"):
        data = json.loads(path.read_text())
        if not data["trace"] and data["manifest"]["config_hash"] == config_hash:
            walls.append(data["end_to_end"]["wall_s"])
    return (statistics.median(walls) if walls else None), len(walls)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def git_sha(root: Path):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    if not git.is_dir():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def manifest(cfjoin, cfg) -> dict:
    import numpy

    config = cfg.to_json()
    return {
        "package_version": cfjoin.__version__,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "config": config,
    }


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def setup_probes(workload: str, config_seed: int, count: int) -> list[float]:
    """Set-up seconds (import + build) of `count` fresh interpreters."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(config_seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(times["import_s"] + times["build_s"])
    return out


def run_rounds(verifier, cfg, experiments, report_dir: Path, seconds: float, tracer):
    """Whole rounds until `seconds` have passed (one round when traced).
    Returns (round records, peak RSS in MB after the first round)."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        cpu0 = time.process_time()
        wall, reports, errors = run_round(verifier, cfg, experiments, tracer)
        rounds.append({"wall_s": wall, "cpu_s": time.process_time() - cpu0, "errors": errors,
                       "statuses": {k: r.status for k, r in reports.items()},
                       "report_sha256": report_hashes(report_dir)})
        if len(rounds) == 1:
            # the peak of one pass, as a cfjoin user meets it; later rounds
            # reuse freed memory unevenly and would lift it by a few percent
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer or time.perf_counter() - t_start >= seconds:
            return rounds, peak_rss_mb


def check_outputs(checks, cfjoin, experiments, report_dir: Path, rounds, levels, cfg, seed: int):
    """Checks on the outputs the last round left in report_dir.  Returns
    (failures of the workload as a whole, one record per operation)."""
    entries = {e["experiment"]: e for e in json.loads((report_dir / "report.json").read_text())["reports"]}
    workload_checks = []
    if list(entries) != [n for n in experiments if n not in rounds[-1]["errors"]]:
        workload_checks.append(f"report.json lists {list(entries)}")
    if any(r["report_sha256"] != rounds[0]["report_sha256"] for r in rounds):
        workload_checks.append("report files differ between rounds")
    operations = []
    for name in experiments:
        failures = []
        if name in entries:
            try:
                failures = checks.experiment_checks(name, entries[name], report_dir, cfjoin, levels, cfg, seed)
            except Exception:  # a check that cannot run on the output counts as failing
                failures = [traceback.format_exc()]
        operations.append({
            "experiment": name,
            "errors": [r["errors"][name] for r in rounds if name in r["errors"]],
            "statuses": [r["statuses"][name] for r in rounds if name in r["statuses"]],
            "check_failures": failures,
            "failed_rounds": sum(
                1 for r in rounds if failures or r["statuses"].get(name) != "pass"
            ),
        })
    return workload_checks, operations


def run(workload_name: str, *, seed: int, seconds: float, trace: bool, config_seed: int,
        out_root: Path = BENCH, overrides: dict | None = None,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run in this process; returns the full result record.

    `overrides` replace config fields and `setup_repeats` sets how many
    set-ups `setup_s` is the median of (the first in this process, the rest in
    fresh interpreters of the unchanged config); the tests use both for small
    smoke runs.
    """
    workload = WORKLOADS[workload_name]
    verifier, import_s = probe.import_cfjoin()
    import cfjoin  # its modules are loaded by now, numpy with them

    import checks

    report_dir = out_root / "reports" / workload_name
    cfg = make_config(verifier, workload, config_seed, os.path.relpath(report_dir), **(overrides or {}))

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        with tracer.span("bench.setup") if tracer else nullcontext():
            levels, build_s = probe.build_levels(verifier, cfg)
        setup = [import_s + build_s]
        if not tracer:
            setup += setup_probes(workload_name, config_seed, setup_repeats - 1)
        rounds, peak_rss_mb = run_rounds(verifier, cfg, workload.experiments, report_dir, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    workload_checks, operations = check_outputs(
        checks, cfjoin, workload.experiments, report_dir, rounds, levels, cfg, seed)

    man = manifest(cfjoin, cfg)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "run_id": f"{workload_name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}",
        "workload": workload_name,
        "seed": seed,
        "config_seed": config_seed,
        "seconds": seconds,
        "trace": bool(trace),
        "manifest": man,
        "setup_samples_s": setup,
        "rounds": rounds,
        "end_to_end": values,
        "operations": operations,
        "workload_checks": workload_checks,
        "correct": not workload_checks,
        "attempted": len(rounds) * len(workload.experiments),
        "failed": sum(op["failed_rounds"] for op in operations),
    }
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if tracer:
        result["per_layer"] = layer_metrics(tracer, list(verifier.EXPERIMENTS))
        untraced, count = untraced_wall(results_dir, workload_name, man["config_hash"])
        result["trace_overhead_s"] = None if untraced is None else values["wall_s"] - untraced
        result["trace_overhead_base_runs"] = count
        traces_dir = out_root / "traces"
        traces_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(traces_dir / f"{result['run_id']}.jsonl.gz")
    (results_dir / f"{result['run_id']}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def summary_line(result: dict, spec: dict) -> dict:
    """The JSON object printed last: end-to-end metrics of an untraced run,
    per-layer metrics of a traced one, named and with units as in spec."""
    if result["trace"]:
        declared, values = spec["per_layer"], result["per_layer"]
    else:
        declared, values = spec["end_to_end"], result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        os.chdir(ROOT)
        result = run(args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                     config_seed=args.config_seed)
    except probe.MissingProgramError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    e2e = result["end_to_end"]
    note = f"{args.workload}: {len(result['rounds'])} round(s), wall {e2e['wall_s']:.3f} s"
    if result["trace"] and result["trace_overhead_s"] is not None:
        note += (f", tracing overhead {result['trace_overhead_s']:+.3f} s against the median of "
                 f"{result['trace_overhead_base_runs']} untraced runs")
    print(note, file=sys.stderr)
    for op in result["operations"]:
        for msg in op["check_failures"] + op["errors"]:
            print(f"  {op['experiment']}: {msg}", file=sys.stderr)
    print(json.dumps(summary_line(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

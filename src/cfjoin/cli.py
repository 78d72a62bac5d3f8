"""Command-line entry point: run verification experiments and emit reports."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .cf_engine import LevelTooDeepError
from .verifier import EXPERIMENTS, ExperimentConfig, check_builds, emit_report

_SUBCOMMAND_SETS = {
    "sequences": ["sequences"],
    "validate-cf": ["validate-cf"],
    "equidist": ["equidist", "sample-sets"],
    "weakmix": ["weakmix"],
    "joinings": ["joinings"],
    "cocycles": ["counterexample-51", "nonuniqueness-42"],
    "groups": ["groups"],
    "lemma62": ["lemma62"],
    "fubini": ["fubini"],
    "all": list(EXPERIMENTS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfjoin",
        description="Verification experiments for the cutting construction "
        "over R x| SU(2) and its joining structure.",
    )
    parser.add_argument("command", choices=sorted(_SUBCOMMAND_SETS), help="experiment bundle")
    parser.add_argument("--config", type=Path, default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override root seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--level", type=int, default=None, help="override max level")
    parser.add_argument("--samples", type=int, default=None, help="override mc_samples (read by weakmix, joinings)")
    return parser


def load_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ExperimentConfig:
    """The config file (or the default) with the command-line overrides.
    The config's constructors check every value, and verifier.check_builds
    checks that the subcommand's experiments can run on it, building the
    constructions they read for the runners to reuse; any error is a usage
    error (exit 2)."""
    try:
        data = {} if args.config is None else json.loads(Path(args.config).read_text())
        cfg = ExperimentConfig.from_json(data)
        out = None if args.out is None else str(args.out)
        flags = {"seed": args.seed, "output_dir": out, "mc_samples": args.samples}
        if args.level is not None:
            flags["construction"] = dataclasses.replace(cfg.construction, max_level=args.level)
        cfg = dataclasses.replace(cfg, **{key: value for key, value in flags.items() if value is not None})
        check_builds(cfg, _SUBCOMMAND_SETS[args.command])
    except (OSError, ValueError, TypeError, LevelTooDeepError) as exc:
        parser.error(f"config {args.config}: {exc}" if args.config else str(exc))
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = load_config(args, parser)
    reports = []
    for name in _SUBCOMMAND_SETS[args.command]:
        t0 = time.perf_counter()
        rep = EXPERIMENTS[name](cfg)
        dt = time.perf_counter() - t0
        print(f"[{rep.status:4s}] {name} ({dt:.1f}s)")
        for m in rep.metrics:
            flag = "" if m.passed is None else (" ok" if m.passed else " FAIL")
            tol = "" if m.tolerance is None else f" (tol {m.tolerance:.3g})"
            print(f"    {m.name}: {m.value:.6g}{tol}{flag}")
        reports.append(rep)
    code = emit_report(reports, cfg.output_dir, cfg)
    print(f"report written to {cfg.output_dir}/report.json -> {'PASS' if code == 0 else 'FAIL'}")
    return code


if __name__ == "__main__":
    sys.exit(main())

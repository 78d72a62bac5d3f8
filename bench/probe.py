"""Set-up of one benchmark run: import cfjoin from the checkout's `src` and
build the levels of the workload's config.

Run as a script, `python3 bench/probe.py <workload> <config-seed>` does one
set-up in a fresh interpreter and prints its two times as a JSON object;
run.py starts several such probes so that `setup_s` is a median.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgramError(RuntimeError):
    pass


def import_cfjoin():
    """Import cfjoin.verifier from SRC; returns (verifier module, seconds)."""
    package = SRC / "cfjoin"
    if not (package / "__init__.py").is_file():
        raise MissingProgramError(f"no cfjoin package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from cfjoin import verifier

    seconds = time.perf_counter() - t0
    if Path(verifier.__file__).resolve().parent != package.resolve():
        raise MissingProgramError(f"cfjoin was imported from {verifier.__file__}, not {package}")
    return verifier, seconds


def build_levels(verifier, cfg):
    """cf_engine.build_levels for cfg, made through the runners' own level
    cache so that the timed runner calls reuse it; returns (levels, seconds)."""
    t0 = time.perf_counter()
    levels = verifier._levels_cache(cfg)
    return levels, time.perf_counter() - t0


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS, make_config

    workload, config_seed = WORKLOADS[argv[0]], int(argv[1])
    verifier, import_s = import_cfjoin()
    cfg = make_config(verifier, workload, config_seed, out_dir="unused")
    _, build_s = build_levels(verifier, cfg)
    print(json.dumps({"import_s": import_s, "build_s": build_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

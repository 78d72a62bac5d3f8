"""The benchmark's workloads: which experiments each runs, at which config.

Together the workloads run every experiment of `cfjoin all`, each once, in
`cfjoin all` order.  This module imports nothing from cfjoin, so importing it
does not disturb the set-up timing.
"""

from __future__ import annotations

from dataclasses import dataclass

ACCEPTANCE_SEED = 20260810
ACCEPTANCE_SAMPLES = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    mc_samples: int


WORKLOADS = {
    w.name: w
    for w in (
        # A quarter of the acceptance sample size: every level, both integer
        # lanes and the three alternate builds still run, but at 10^6 samples
        # the three workloads overrun the benchmark's time budget.
        Workload("weakmix-accept", ("weakmix",), ACCEPTANCE_SAMPLES // 4),
        Workload("joinings-accept", ("joinings",), ACCEPTANCE_SAMPLES),
        Workload(
            "suite-rest-accept",
            (
                "groups",
                "sequences",
                "validate-cf",
                "equidist",
                "sample-sets",
                "lemma62",
                "fubini",
                "counterexample-51",
                "nonuniqueness-42",
            ),
            ACCEPTANCE_SAMPLES,
        ),
    )
}


def make_config(verifier, workload: Workload, config_seed: int, out_dir: str, **overrides):
    """ExperimentConfig of a workload; `overrides` replace config fields
    (the tests use them for small smoke runs)."""
    cfg = verifier.ExperimentConfig(
        seed=config_seed, mc_samples=workload.mc_samples, output_dir=out_dir
    )
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ValueError(f"ExperimentConfig has no field {key!r}")
        setattr(cfg, key, value)
    return cfg

"""Checks of a workload's outputs, made apart from the program.

Each check returns a list of failure messages (empty when it passes).  The
checks compare the outputs with computations of their own (the integer
recursion, the pure-Python embed/peel reference, closed forms) or with
properties the method must have (convexity of the joining metric, moduli of
averages of unit-modulus terms), never with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

import numpy as np

import reference

FRACTION_TOL = 1e-12


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# report.json gates
# ---------------------------------------------------------------------------

def gates(entry: dict) -> list[str]:
    """Every gated metric of one experiment's report.json entry passes, and
    its value is within its own tolerance.  A tolerance of 0 marks an exact
    gate; grid-dstar-N must equal 1/N, the star discrepancy of the grid
    {k/N}."""
    out = []
    for m in entry["metrics"]:
        if "passed" not in m:
            continue
        name, value, tol = m["name"], m["value"], m.get("tolerance")
        if not m["passed"]:
            out.append(f"{name}: gate failed (value {value!r}, tolerance {tol!r})")
        elif tol is not None and tol > 0.0 and not value <= tol:
            out.append(f"{name}: value {value!r} above its tolerance {tol!r}")
        elif name.startswith("grid-dstar-") and value != 1 / int(name.rsplit("-", 1)[1]):
            out.append(f"{name}: value {value!r} is not 1/N")
    return out


# ---------------------------------------------------------------------------
# level sequences
# ---------------------------------------------------------------------------

def recursion(params, upto: int) -> list[tuple[int, int]]:
    """(a_n, a~_n) for n = 0..upto from a_0 = a~_0 = 1,
    a_{n+1} = a~_n (2 r_n - 1), a~_{n+1} = a_{n+1} + (2n + 1) a~_n,
    with r_n = max(floor, n^power), in Python ints."""
    if params.r_kind != "max_power":
        raise ValueError(f"no independent schedule for r_kind {params.r_kind!r}")
    seq = [(1, 1)]
    for n in range(upto):
        r = max(params.r_floor, n**params.r_power)
        a_next = seq[n][1] * (2 * r - 1)
        seq.append((a_next, a_next + (2 * n + 1) * seq[n][1]))
    return seq


def levels_match_recursion(levels, params) -> list[str]:
    seq = recursion(params, params.max_level + 1)
    out = []
    if list(levels.seq) != seq:
        out.append(f"level sequences {levels.seq} differ from the recursion {seq}")
    for lv in levels.levels:
        if (lv.a, lv.a_tilde) != seq[lv.n]:
            out.append(f"level {lv.n} holds ({lv.a}, {lv.a_tilde}), recursion gives {seq[lv.n]}")
    return out


def sequences_csv(path: Path, params) -> list[str]:
    """a_n and a~_n follow the recursion, card_C = 2 r_{n-1} - 1, and the
    ratio column is a~_n / a_n correctly rounded."""
    seq = recursion(params, params.max_level)
    rows = _rows(path)
    out = []
    if [int(r["n"]) for r in rows] != list(range(params.max_level + 1)):
        out.append(f"sequences.csv lists levels {[r['n'] for r in rows]}")
        return out
    for r in rows:
        n, a, at = int(r["n"]), int(r["a"]), int(r["a_tilde"])
        if (a, at) != seq[n]:
            out.append(f"sequences.csv level {n}: ({a}, {at}) but the recursion gives {seq[n]}")
        card = 2 * max(params.r_floor, (n - 1) ** params.r_power) - 1 if n >= 1 else 1
        if int(r["card_C"]) != card:
            out.append(f"sequences.csv level {n}: card_C {r['card_C']}, expected {card}")
        if float(r["ratio"]) != seq[n][1] / seq[n][0]:
            out.append(f"sequences.csv level {n}: ratio {r['ratio']} is not a~_n/a_n")
    return out


# ---------------------------------------------------------------------------
# weak mixing
# ---------------------------------------------------------------------------

def weakmix_csv(path: Path, weakmix_levels) -> list[str]:
    """One row per level; deviation = |correlation - product| to the bit;
    stderr and quenched spread are non-negative; deviation within the
    budget plus 4 stderr."""
    rows = _rows(path)
    out = []
    if [int(r["n"]) for r in rows] != list(weakmix_levels):
        out.append(f"weakmix.csv lists levels {[r['n'] for r in rows]}")
    for r in rows:
        corr, prod, dev = float(r["correlation"]), float(r["product"]), float(r["deviation"])
        stderr, quenched, budget = float(r["stderr"]), float(r["quenched"]), float(r["budget"])
        if dev != abs(corr - prod):
            out.append(f"weakmix.csv n={r['n']}: deviation {dev!r} != |correlation - product|")
        if not (stderr >= 0.0 and quenched >= 0.0):
            out.append(f"weakmix.csv n={r['n']}: negative stderr or quenched spread")
        if not dev <= budget + 4 * stderr:
            out.append(f"weakmix.csv n={r['n']}: deviation {dev!r} above budget + 4 stderr")
    if len({r["product"] for r in rows}) > 1:
        out.append("weakmix.csv: mu(A) mu(B) differs between rows")
    return out


def engine_matches_reference(cf_engine, levels, cfg, seed: int, per_level: int = 1000) -> list[str]:
    """On a subsample of each level's weakmix batch (redrawn from the runner's
    own substream), embed_batch and peel_batch agree with the pure-Python
    reference, and peeling an embedded batch returns the batch and its tails.
    `seed` picks the subsample."""
    tables = reference.level_tables(levels)
    pick = random.Random(seed)
    out = []
    for n in cfg.weakmix_levels:
        top = min(n + 2, levels.max_level + 1)
        rng = cf_engine.substream(cfg.seed, f"weakmix-{n}")
        ti, tf, q, tails = cf_engine.sample_point_batch(levels, cfg.mc_samples, top - 1, rng)
        idx = np.array(sorted(pick.sample(range(len(tf)), min(per_level, len(tf)))))
        ti, tf, q, tails = ti[idx], tf[idx], q[idx], tails[idx]
        out += _compare_lane(cf_engine, levels, tables, n, top, ti, tf, q, tails)
        if len(out) > 20:
            return out[:20] + ["(more reference mismatches omitted)"]
    return out


def _compare_lane(cf_engine, levels, tables, n, top, ti, tf, q, tails) -> list[str]:
    out = []
    tin, tfn, qn = cf_engine.embed_batch(levels, ti, tf, q, tails, 1, top)
    for i in range(len(tf)):
        ref = reference.embed(tables, int(ti[i]), float(tf[i]), tails[i].tolist(), 1, top)
        if int(tin[i]) != ref[0] or abs(float(tfn[i]) - ref[1]) > FRACTION_TOL:
            out.append(f"weakmix n={n}: embed 1->{top} gives ({tin[i]}, {tfn[i]!r}), reference {ref}")

    valid, ti1, tf1, q1, hs = cf_engine.peel_batch(levels, tin, tfn, qn, top, 1)
    if not valid.all():
        out.append(f"weakmix n={n}: peel {top}->1 of an embedded batch lost {int((~valid).sum())} lanes")
    back = valid & (np.asarray(ti1, dtype=object) == np.asarray(ti, dtype=object))
    back &= np.abs(tf1 - tf) <= FRACTION_TOL
    back &= np.all(np.abs(q1 - q) <= FRACTION_TOL, axis=1)
    back &= np.all(hs == tails[:, : top - 1], axis=1)
    if not back.all():
        out.append(f"weakmix n={n}: peel of embed does not return {int((~back).sum())} points and tails")

    g = 2 * levels.a_tilde(n)
    ting = tin + (g if tin.dtype == object else np.int64(g))
    valid, ti1, tf1, _, hs = cf_engine.peel_batch(levels, ting, tfn, qn, top, 1)
    for i in range(len(tf)):
        ref = reference.peel(tables, int(ting[i]), float(tfn[i]), top, 1)
        if ref is None:
            if valid[i]:
                out.append(f"weakmix n={n}: peel of ({ting[i]}, {tfn[i]!r}) valid, reference invalid")
        elif not valid[i]:
            out.append(f"weakmix n={n}: peel of ({ting[i]}, {tfn[i]!r}) invalid, reference {ref}")
        elif (
            int(ti1[i]) != ref[0]
            or abs(float(tf1[i]) - ref[1]) > FRACTION_TOL
            or tuple(int(h) for h in hs[i]) != ref[2]
        ):
            out.append(
                f"weakmix n={n}: peel of ({ting[i]}, {tfn[i]!r}) gives "
                f"({ti1[i]}, {tf1[i]!r}, {hs[i].tolist()}), reference {ref}"
            )
    return out


# ---------------------------------------------------------------------------
# joinings, spectral probe, Chacon towers
# ---------------------------------------------------------------------------

EXPECTED_VERDICT = {"paired": "mixture", "independent": "product"}
TARGETS = {"graph_k", "graph_kstar", "mixture", "product"}


def joinings_csv(path: Path) -> list[str]:
    """Per case: the four targets, one nearest and it is the closest; the
    verdicts the paper predicts; and d(e, mixture) <= (d(e, graph_k) +
    d(e, graph_kstar))/2, which holds because the mixture table is the mean
    of the two graph tables and the weighted l1 metric is convex."""
    out = []
    by_case: dict[str, dict[str, dict]] = {}
    for r in _rows(path):
        by_case.setdefault(r["case"], {})[r["target"]] = r
    if set(by_case) != set(EXPECTED_VERDICT):
        return [f"joinings.csv has cases {sorted(by_case)}"]
    for case, rows in by_case.items():
        if set(rows) != TARGETS:
            out.append(f"joinings.csv {case}: targets {sorted(rows)}")
            continue
        dist = {t: float(r["distance"]) for t, r in rows.items()}
        if any(not (d >= 0.0) for d in dist.values()):
            out.append(f"joinings.csv {case}: negative distance")
        if any(not (float(r["stderr"]) >= 0.0) for r in rows.values()):
            out.append(f"joinings.csv {case}: negative stderr")
        nearest = [t for t, r in rows.items() if r["verdict"] == "nearest"]
        if len(nearest) != 1 or dist[nearest[0]] != min(dist.values()):
            out.append(f"joinings.csv {case}: nearest {nearest} is not the closest target")
        elif nearest[0] != EXPECTED_VERDICT[case]:
            out.append(f"joinings.csv {case}: verdict {nearest[0]}, expected {EXPECTED_VERDICT[case]}")
        bound = (dist["graph_k"] + dist["graph_kstar"]) / 2 + 1e-12
        if not dist["mixture"] <= bound:
            out.append(f"joinings.csv {case}: d(mixture) {dist['mixture']!r} breaks convexity ({bound!r})")
    return out


def spectral_csv(path: Path) -> list[str]:
    """Every modulus of an average of unit-modulus terms lies in [0, 1]."""
    rows = _rows(path)
    bad = [r["theta"] for r in rows if not 0.0 <= float(r["modulus"]) <= 1.0]
    out = [f"spectral.csv: modulus outside [0, 1] at theta {bad}"] if bad else []
    if not rows:
        out.append("spectral.csv is empty")
    return out


def chacon_heights(rank_one, stages: int = 18) -> list[str]:
    """Heights of the 3-cut middle-spacer towers are (3^{n+1} - 1)/2."""
    scheme = rank_one.chacon_scheme(stages)
    return [
        f"Chacon height h_{n} = {scheme.height(n)}, expected {(3 ** (n + 1) - 1) // 2}"
        for n in range(stages)
        if scheme.height(n) != (3 ** (n + 1) - 1) // 2
    ]


# ---------------------------------------------------------------------------
# per-experiment dispatch
# ---------------------------------------------------------------------------

def experiment_checks(name: str, entry: dict, report_dir: Path, cfjoin, levels, cfg, seed: int) -> list[str]:
    """All checks on the outputs of one experiment runner call."""
    out = gates(entry)
    params = cfg.construction
    if name in ("sequences", "weakmix", "joinings"):
        out += levels_match_recursion(levels, params)
    if name == "sequences":
        out += sequences_csv(report_dir / "sequences.csv", params)
    elif name == "weakmix":
        out += weakmix_csv(report_dir / "weakmix.csv", cfg.weakmix_levels)
        out += engine_matches_reference(cfjoin.cf_engine, levels, cfg, seed)
    elif name == "joinings":
        out += joinings_csv(report_dir / "joinings.csv")
    elif name == "counterexample-51":
        out += spectral_csv(report_dir / "spectral.csv")
        out += chacon_heights(cfjoin.rank_one)
    elif name == "nonuniqueness-42":
        out += chacon_heights(cfjoin.rank_one)
    return out

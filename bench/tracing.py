"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install()` replaces each traced cfjoin function by a wrapper in every
cfjoin module that holds it (modules import these functions by name, so
`quat_mul` alone lives in groups, cf_engine, joinings and verifier), and
`uninstall()` puts the originals back.  A wrapper records one span per call
(name, start, end, parent) in flat arrays and adds the call's work to named
counters.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import resource
import sys
import time
from array import array
from contextlib import contextmanager


def _rows(width):
    """Counter of the rows of an (..., width) array result."""

    def count(tracer, name, bound, result):
        tracer.add(f"{name}.rows", result.size // width)

    return count


def _embed(tracer, name, bound, result):
    ti, tf = bound.arguments["ti"], bound.arguments["tf"]
    depth = bound.arguments["to_level"] - bound.arguments["from_level"]
    tracer.add(f"{name}.point_levels", len(tf) * depth)
    tracer.add("cf_engine.object_lane.calls", int(_is_object(ti) or _is_object(result[0])))


def _peel(tracer, name, bound, result):
    ti, tf = bound.arguments["ti"], bound.arguments["tf"]
    depth = bound.arguments["from_level"] - bound.arguments["to_level"]
    tracer.add(f"{name}.point_levels", len(tf) * depth)
    tracer.add(f"{name}.lanes_in", len(tf))
    tracer.add(f"{name}.lanes_valid", int(result[0].sum()))
    tracer.add("cf_engine.object_lane.calls", int(_is_object(ti) or _is_object(result[1])))


def _is_object(ti) -> bool:
    return getattr(ti, "dtype", None) == object


def _s_map(tracer, name, bound, result):
    tracer.add(f"{name}.attempts", result.attempts)


def _values(tracer, name, bound, result):
    tracer.add(f"{name}.values", result.size)


# traced function ("module.attribute") -> counter of its work, or None when
# the call count is the only count
TRACED = {
    "groups.quat_mul": _rows(4),
    "groups.quat_phi_real": _rows(4),
    "groups.quat_phi_int": _rows(4),
    "cf_engine.build_levels": None,
    "cf_engine.sample_point_batch": None,
    "cf_engine.embed_batch": _embed,
    "cf_engine.peel_batch": _peel,
    "cf_engine.validate_cf": None,
    "cf_engine.act": None,
    "equidist.build_s_map": _s_map,
    "equidist.star_discrepancy": None,
    "equidist.su2_to_chart_array": _rows(3),
    "joinings.CFDictionary.evaluate": _values,
    "joinings.empirical_joining": None,
    "joinings.graph_joining_target": None,
    "joinings.product_joining_target": None,
    "joinings.shulman_check": None,
    "rank_one.tower_apply": None,
    "rank_one.sample_tower_point": None,
    "cocycles.d6_root_check": None,
    "cocycles.eigenvalue_probe": None,
    "cocycles.constant_one_obstruction": None,
    "cocycles.double_ext_apply": None,
}

# counters that need the call's arguments by name
_BINDS = {"cf_engine.embed_batch", "cf_engine.peel_batch"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._joinings_depth = 0

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a call made by the benchmark itself."""
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, func):
        name_id = self._name_id(name)
        count = TRACED[name]
        signature = inspect.signature(func) if name in _BINDS else None
        in_joinings = name.startswith("joinings.")
        calls = f"{name}.calls"
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            outermost = in_joinings and tracer._joinings_depth == 0
            if in_joinings:
                tracer._joinings_depth += 1
                if outermost:
                    rss0 = _peak_rss_mb()
            sid = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
                tracer.add(calls, 1)
                if count is not None:
                    bound = signature.bind(*args, **kwargs) if signature else None
                    count(tracer, name, bound, result)
            finally:
                tracer._close(sid)
                if in_joinings:
                    tracer._joinings_depth -= 1
                    if outermost:
                        tracer.add("joinings.peak_rss_rise_mb", _peak_rss_mb() - rss0)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cfjoin" or k.startswith("cfjoin.")]
        for name in TRACED:
            module_name, attr = name.split(".", 1)
            module = sys.modules[f"cfjoin.{module_name}"]
            if "." in attr:  # a method: replace it on its class
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                func = cls.__dict__[method]
                self._replace(cls, method, func, self._wrap(name, func))
                continue
            func = getattr(module, attr)
            wrapper = self._wrap(name, func)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._replace(mod, key, func, wrapper)

    def _replace(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for sid in range(n):
            name = self.names[self.span_name[sid]]
            dur = self.end[sid] - self.start[sid]
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child[sid]
        return total, own

    def write_jsonl(self, path) -> None:
        """Gzipped JSON lines: first {"names": [...]}, then one line
        [id, name index, parent id (-1 for none), start, end] per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"[{sid},{self.span_name[sid]},{self.parent[sid]},"
                    f"{self.start[sid]!r},{self.end[sid]!r}]\n"
                )

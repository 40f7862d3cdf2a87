"""Span tracer that wraps dispbound's public functions from the outside.

``install(tracer)`` replaces each traced function at every binding a caller
resolves: the defining module, every ``dispbound`` module that imported the
name, and the class for methods.  Each call records one span (name, start,
end, parent span, run id) in flat arrays held in memory; ``summary`` derives
totals and self times from them when the run ends.

The suite runs single threaded (``threads=1``, the product default), so one
span stack per tracer is enough.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

BODY_TYPES = ("Polytope3", "PolygonBoundary", "CylinderBody", "SphereBody")

# (module, attribute, span name); a name ending in "." gets the type name of
# the first argument (the body) appended.
FUNCTIONS = (
    ("dispbound.numerics", "log_gamma_array", "numerics.log_gamma_array"),
    ("dispbound.constants", "solve_crossing", "constants.solve_crossing"),
    # constants_row, suboptimality_factor and sphere_reference are spanned so
    # that the constants command's own work is not counted as cli.main self time
    ("dispbound.constants", "constants_row", "constants.constants_row"),
    ("dispbound.constants", "suboptimality_factor", "constants.suboptimality_factor"),
    ("dispbound.constants", "sphere_reference", "constants.sphere_reference"),
    ("dispbound.constants", "scan_ab", "constants.scan_ab"),
    ("dispbound.asymptotics", "compare", "asymptotics.compare"),
    ("dispbound.geometry.maps", "displacement_stats", "geometry.displacement_stats."),
    ("dispbound.geometry.measures", "mean_width", "geometry.mean_width"),
    ("dispbound.geometry.measures", "min_width", "geometry.min_width"),
    ("dispbound.geometry.io", "load_body", "geometry.io.load_body"),
    ("dispbound.verify", "run_suite", "verify.run_suite"),
    ("dispbound.verify", "records_to_jsonl", "verify.serialize"),
    ("dispbound.cli", "main", "cli.main"),
)

# (module, attribute, counter name): counted, no span
COUNTED = (("dispbound.numerics", "log_gamma", "numerics.log_gamma"),)

# (module, class, method, span name)
METHODS = tuple(
    ("dispbound.geometry.bodies", body, "ray_exit", f"geometry.ray_exit.{body}")
    for body in BODY_TYPES
) + (
    ("dispbound.geometry.bodies", "Polytope3", "faces_containing", "geometry.faces_containing"),
    ("dispbound.geometry.bodies", "Polytope3", "__init__", "geometry.polytope.build"),
    ("dispbound.geometry.geodesic", "GeodesicGraph", "__init__", "geometry.geodesic.build"),
    ("dispbound.geometry.geodesic", "GeodesicGraph", "pairwise_distances", "geometry.geodesic.query"),
)

CHECK_PREFIX = "check_"  # every public check in dispbound.verify


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.run_id = 0
        self.labels: dict[int, str] = {}  # span id -> label, for root spans
        # per-span-name sums of values taken from arguments or results
        self.tallies: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)  # count-only wrappers

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, fn, name: str):
        """Count calls without a span, for functions called so often that a
        span each would distort the times around them."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, fn, name: str, tally=None, label=None):
        per_body = name.endswith(".")
        fixed_id = None if per_body else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if per_body:
                body = args[0] if args else kwargs.get("body")
                nid = self._name_id(name + type(body).__name__)
            else:
                nid = fixed_id
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_run.append(self.run_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(sid)
            if label is not None:
                self.labels[sid] = label(args, kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.span_start[sid] = start
                self.span_end[sid] = end
            if tally is not None:
                tally(self.tallies, self.names[nid], args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds."""
        n = len(self.span_name)
        child_time = [0.0] * n
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child_time[parent] += self.span_end[sid] - self.span_start[sid]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for sid in range(n):
            entry = out[self.names[self.span_name[sid]]]
            duration = self.span_end[sid] - self.span_start[sid]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[sid]
        return out

    def within_counts(self) -> dict[str, int]:
        """Calls per "name@label", where label is that of the span's root
        (for example the CLI subcommand that caused the call)."""
        root = array("i", [0]) * len(self.span_name)
        counts: dict[str, int] = defaultdict(int)
        for sid in range(len(self.span_name)):
            parent = self.span_parent[sid]
            root[sid] = sid if parent < 0 else root[parent]
            label = self.labels.get(root[sid])
            if label is not None:
                counts[f"{self.names[self.span_name[sid]]}@{label}"] += 1
        return dict(counts)

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, name, start, end, parent, run (start and
        end in perf_counter seconds; parent -1 for a root span)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trun\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid]!r}\t{self.span_end[sid]!r}\t"
                    f"{self.span_parent[sid]}\t{self.span_run[sid]}\n"
                )


def _tally_stats(tallies, name, args, stats) -> None:
    tallies[name + ".samples"] += stats.sample_count
    tallies[name + ".distance_samples"] += stats.distance_samples


def _tally_pairs(tallies, name, args, result) -> None:
    tallies[name + ".pairs"] += len(result)


def _subcommand(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return str(argv[0]) if argv else ""


LABELS = {"cli.main": _subcommand}

TALLIES = {
    "geometry.displacement_stats.": _tally_stats,
    "geometry.geodesic.query": _tally_pairs,
}


def _rebind(original, replacement) -> None:
    """Point every dispbound module global bound to ``original`` at
    ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("dispbound"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method; dispbound must be imported."""
    for mod_name, attr, name in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, tracer.wrap(original, name, TALLIES.get(name), LABELS.get(name)))
    for mod_name, attr, name in COUNTED:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, tracer.count(original, name))
    verify = sys.modules["dispbound.verify"]
    for attr in sorted(vars(verify)):
        if attr.startswith(CHECK_PREFIX) and callable(getattr(verify, attr)):
            original = getattr(verify, attr)
            _rebind(original, tracer.wrap(original, "verify.checks"))
    for mod_name, cls_name, method, name in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, tracer.wrap(original, name, TALLIES.get(name)))

"""Span recorder for the traced benchmark run.

The program is not edited: ``install`` swaps each target function, in every
``qclab`` module namespace that binds it, for a wrapper that records a span
(name, start, end, parent span, invocation id) and a few counts.  ``restore``
puts the originals back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict


def _sample_force_counts(counts, args, kwargs, result):
    sites = 2 * int(kwargs["N"] if "N" in kwargs else args[1])
    counts["model.sites"] += sites
    counts["model.lattice_bytes"] += 8 * sites  # computed: one float64 array


def _basis_value_counts(counts, args, kwargs, result):
    ell = kwargs["ell"] if "ell" in kwargs else args[2]
    counts["mesh.basis_value.sites"] += getattr(ell, "size", 1)


def _iteration_counts(counts, args, kwargs, result):
    counts[f"solve.{result.method}.iterations"] += result.iterations


def _written_bytes(span):
    def count(counts, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[0]
        counts[f"{span}.bytes"] += os.path.getsize(path)
    return count


# (module, function, span name, count hook).  Wrapped in every qclab
# namespace that binds the function, so calls made through an imported name
# and calls inside the defining module are both seen.
TARGETS = (
    ("model", "sample_force", None, _sample_force_counts),
    ("mesh", "build_mesh", None, None),
    ("mesh", "exact_load", None, None),
    ("mesh", "prolong", None, None),
    ("mesh", "smoothness_profile", None, None),
    ("mesh", "basis_value", None, _basis_value_counts),
    ("cluster", "assemble_weight_system", None, None),
    ("cluster", "solve_weights", None, None),
    ("cluster", "verify_exactness", None, None),
    ("solve", "solve_atomistic", None, _iteration_counts),
    ("solve", "solve_constrained", None, _iteration_counts),
    ("solve", "solve_energy_cluster", None, _iteration_counts),
    ("solve", "solve_force_cluster", None, _iteration_counts),
    ("solve", "cluster_load", None, None),
    ("solve", "energy_cluster_functional", None, None),
    ("analysis", "error_report", None, None),
    ("analysis", "consistency_estimate", None, None),
    ("analysis", "smooth_mesh_consistency", None, None),
    ("analysis", "force_scaling_study", None, None),
    ("analysis", "gradient_alternation", None, None),
    ("cli", "_execute", "cli.execute", None),
    ("cli", "_write_csv", "cli.write_csv", _written_bytes("cli.write_csv")),
    ("cli", "_write_json", "cli.write_json", _written_bytes("cli.write_json")),
)

SPANS = tuple(span or f"{module}.{function}" for module, function, span, _ in TARGETS)
COUNTS = ("solve.atomistic.iterations", "solve.constrained.iterations",
          "solve.energy-cluster.iterations", "solve.force-cluster.iterations",
          "mesh.basis_value.sites", "model.sites", "model.lattice_bytes",
          "cli.write_csv.bytes", "cli.write_json.bytes")
THROUGHPUTS = ("cli.write_csv", "cli.write_json")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.total_s"] = "s"
        units[f"{span}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "bytes" if name.endswith("bytes") else "count"
    for span in THROUGHPUTS:
        units[f"{span}.MBps"] = "MB/s"
    units.update({"trace.overhead_s": "s", "trace.uncovered_s": "s",
                  "trace.uncovered_frac": "fraction", "trace.absent_names": "count"})
    return units


def qclab_namespaces() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "qclab" or name.startswith("qclab."))]


class Recorder:
    """Spans and counts of traced invocations, kept in memory."""

    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index, invocation)
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # per invocation
        self.invocation = 0
        self.absent: list[str] = []
        self.missing_counts: set[str] = set()
        self._stack: list[int] = []
        self._swapped: list = []  # (namespace, attribute, original)

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.invocation)
            if count is not None:
                try:
                    count(self.counts[self.invocation], args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    # the program's signature or result changed; the count is
                    # reported missing instead of failing the invocation
                    self.missing_counts.add(name)
            return result

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def install(self) -> None:
        namespaces = qclab_namespaces()
        self.absent = []
        for module, function, span, count in TARGETS:
            home = sys.modules.get(f"qclab.{module}")
            original = getattr(home, function, None)
            if not callable(original):
                self.absent.append(f"{module}.{function}")
                continue
            wrapper = self._wrap(span or f"{module}.{function}", original, count)
            for namespace in namespaces:
                for attribute, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attribute, wrapper)
                        self._swapped.append((namespace, attribute, original))

    def restore(self) -> None:
        while self._swapped:
            namespace, attribute, original = self._swapped.pop()
            setattr(namespace, attribute, original)


def installed_wrappers() -> list[str]:
    """Names in qclab namespaces that still hold a benchmark wrapper."""
    return [f"{m.__name__}.{a}" for m in qclab_namespaces()
            for a, v in vars(m).items() if getattr(v, "__wrapped_by_bench__", False)]


def layer_times(spans, invocation) -> tuple[dict, float]:
    """Per span name (calls, total_s, self_s) of one invocation, and the
    summed duration of its top-level spans."""
    child_time = defaultdict(float)
    mine = [(i, s) for i, s in enumerate(spans) if s is not None and s[4] == invocation]
    for _, (_, start, end, parent, _) in mine:
        if parent is not None:
            child_time[parent] += end - start
    layers: dict = {}
    top = 0.0
    for index, (name, start, end, parent, _) in mine:
        calls, total, own = layers.get(name, (0, 0.0, 0.0))
        layers[name] = (calls + 1, total + end - start, own + end - start - child_time[index])
        if parent is None:
            top += end - start
    return layers, top


def summarize(recorder: Recorder, traced: dict, untraced: list[float]) -> dict:
    """Per-layer metrics: medians over the traced invocations.

    ``traced`` maps invocation id to its wall seconds; ``untraced`` holds the
    wall seconds of the untraced invocations of the same run.
    """
    per_invocation = []
    uncovered = []
    for invocation, wall in traced.items():
        layers, top = layer_times(recorder.spans, invocation)
        per_invocation.append(layers)
        uncovered.append(wall - top)
    values = {}
    for span in SPANS:
        for position, suffix in enumerate(("calls", "total_s", "self_s")):
            values[f"{span}.{suffix}"] = statistics.median(
                layers.get(span, (0, 0.0, 0.0))[position] for layers in per_invocation)
    for name in COUNTS:
        values[name] = statistics.median(recorder.counts[i][name] for i in traced)
    for span in THROUGHPUTS:
        seconds = values[f"{span}.total_s"]
        values[f"{span}.MBps"] = values[f"{span}.bytes"] / seconds / 1e6 if seconds else 0.0
    traced_s = statistics.median(traced.values())
    values["trace.overhead_s"] = traced_s - statistics.median(untraced)
    values["trace.uncovered_s"] = statistics.median(uncovered)
    values["trace.uncovered_frac"] = values["trace.uncovered_s"] / traced_s
    values["trace.absent_names"] = len(recorder.absent)
    return values

"""Spans and counts recorded around exposure_lab's public functions.

The benchmark does not edit the library. It wraps each listed function
and rebinds the wrapper in every exposure_lab module that holds the
original, so a name bound by ``from .x import f`` (``harness.configuration_model``,
``tracking.true_exposure``) and a call through a module attribute
(``tracking.cascade.icm_step``) both land in the wrapper.

Each wrapped call records a span (name, start, end, parent) under one run
id and adds counts read from its arguments and return value. Spans stay
in memory until ``dump`` writes them out; per-name calls, total time and
self time (duration minus the time covered by child spans) are summed as
the calls happen.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = ("graph", "genmodel", "cascade", "estimators", "tracking", "harness", "rng", "cli")


def _num_edges_in(result, edges, num_nodes):
    return {"edges_in": len(edges), "edges_out": result.num_edges}


def _load_graph_counts(result, path, *args, **kwargs):
    report = result[1]
    return {"bytes": os.path.getsize(path), "lines": report.num_edge_lines + report.num_ignored_lines}


def _written_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _stub_loss(result, seq, rng):
    # stubs pair up into sum(d)/2 candidate edges; simplification drops the rest
    return {"stub_loss": int(seq.degrees.sum()) // 2 - result.num_edges}


def _shaping_counts(result, *args, **kwargs):
    shaping = result[1]
    return {"iterations": shaping.iterations, "converged": int(shaping.converged)}


def _walk_steps(result, g, start, burn_in=None, thin=None, num_samples=1, rng=None):
    burn_in = 10 * g.num_nodes if burn_in is None else burn_in
    thin = g.num_nodes if thin is None else thin
    return {"steps": burn_in + max(num_samples - 1, 0) * thin}


def _batch_nodes(result, g, s, nodes):
    return {"nodes": len(nodes)}


def _csv_rows(result, path, comment, header, rows):
    return {"rows": len(rows)}


def _new_sharers(result, g, s, *args, **kwargs):
    return {"new_sharers": result.num_sharers - s.num_sharers}


def _cascade_counts(result, g, model, steps, **kwargs):
    # an unreached fixed point counts as the full horizon: steps of real growth
    fixed = steps if result.fixed_point_step is None else result.fixed_point_step
    return {"fixed_point_step": fixed, "states_retained": len({id(st) for st in result.states})}


def _method_tag(method, *args, **kwargs):
    return method


# (module.function, count hook, span-name tag). The probe set runs in every
# session: each is called at most a few thousand times per session, so its
# cost stays far below the run-to-run noise. The rest run only when traced.
PROBES = (
    ("genmodel.configuration_model", _stub_loss, None),
    ("genmodel.rewire_to_assortativity", _shaping_counts, None),
    ("genmodel.swap_to_correlation", _shaping_counts, None),
    ("graph.random_walk_friends", _walk_steps, None),
    ("cascade.run_cascade", _cascade_counts, None),
    ("cascade.icm_step", _new_sharers, None),
    ("cascade.ltm_step", _new_sharers, None),
)
TRACED = PROBES + (
    ("harness.build_cell", None, None),
    ("graph.build_undirected", _num_edges_in, None),
    ("graph.sample_friend_two_step", None, None),
    ("graph.sample_uniform_nodes", None, None),
    ("graph.sample_random_friends", None, None),
    ("harness.load_graph", _load_graph_counts, None),
    ("harness.read_sharers", None, None),
    ("harness.write_edge_list", _written_bytes, None),
    ("harness.write_sharers", _written_bytes, None),
    ("harness.compact_nonisolated", None, None),
    ("harness.run_static_experiment", None, None),
    ("harness.run_grid", None, None),
    ("harness.run_method", None, _method_tag),
    ("harness.write_csv", _csv_rows, None),
    ("genmodel.powerlaw_degree_sequence", None, None),
    ("genmodel.bernoulli_sharing", None, None),
    ("genmodel.assortativity_coefficient", None, None),
    ("genmodel.degree_sharing_correlation", None, None),
    ("rng.make_generator", None, None),
    ("cascade.exposure_bits", _batch_nodes, None),
    ("cascade.true_exposure", None, None),
    ("estimators.vanilla_estimate", None, None),
    ("estimators.fp_estimate", None, None),
    ("estimators.condition_empirical", None, None),
    ("estimators.exact_variance_vanilla", None, None),
    ("estimators.exact_variance_fp", None, None),
    ("tracking.tracker_update", None, None),
    ("tracking.run_tracking_experiment", None, None),
)


class Tracer:
    """Wraps library functions; keeps per-name sums and, optionally, every span."""

    def __init__(self, run_id: str, keep_spans: bool):
        self.run_id = run_id
        self.keep_spans = keep_spans
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # open spans: [child_seconds, span_id]
        self._next_id = 0

    def install(self, targets) -> None:
        modules = [importlib.import_module("exposure_lab")]
        modules += [importlib.import_module(f"exposure_lab.{m}") for m in MODULES]
        for qualname, hook, tag in targets:
            modname, fname = qualname.split(".")
            original = getattr(importlib.import_module(f"exposure_lab.{modname}"), fname)
            wrapper = self._wrap(qualname, original, hook, tag)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name, fn, hook, tag):
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            span_name = name if tag is None else f"{name}.{tag(*args, **kwargs)}"
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[0] += duration
                agg = self.stats.get(span_name)
                if agg is None:
                    agg = self.stats[span_name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if self.keep_spans:
                    self._record(span_name, frame[1], -1 if parent is None else parent[1], t0, t1)
            if hook is not None:
                for stat, value in hook(result, *args, **kwargs).items():
                    key = f"{name}.{stat}"
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def _record(self, name, span_id, parent_id, t0, t1) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._span_id.append(span_id)
        self._span_name.append(name_id)
        self._span_parent.append(parent_id)
        self._span_start.append(t0)
        self._span_end.append(t1)

    def durations(self, name: str) -> np.ndarray:
        """Per-call durations of one span name, from the kept spans."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return np.empty(0)
        mask = np.frombuffer(self._span_name, dtype=np.int32) == name_id
        return np.frombuffer(self._span_end)[mask] - np.frombuffer(self._span_start)[mask]

    def layer_metrics(self) -> dict:
        """Per-layer metrics: calls, total_s and self_s per span name, the
        counts, per-call percentiles of each estimation method and the
        derived cost of one tracker update."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        for name in self.stats:
            if name.startswith("harness.run_method."):
                durations = self.durations(name)
                for q in (50, 99):
                    # a percentile needs at least ten samples beyond it
                    if durations.size * (100 - q) / 100 >= 10:
                        out[f"{name}.p{q}_us"] = float(np.percentile(durations, q)) * 1e6
        updates = self.stats.get("tracking.tracker_update")
        if updates:
            out["tracking.tracker_update.us_per_update"] = updates[1] / updates[0] * 1e6
        return out

    @property
    def span_count(self) -> int:
        return len(self._span_id)

    def dump(self, path: str) -> None:
        """Write every kept span (ids, names, parents, perf_counter times) to an .npz file."""
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self._names),
            span_id=np.frombuffer(self._span_id, dtype=np.int64),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int64),
            start=np.frombuffer(self._span_start),
            end=np.frombuffer(self._span_end),
        )

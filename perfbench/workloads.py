"""The benchmark's workloads, one session each, with their output checks.

Each workload drives the public calls that the matching ``cli._cmd_*``
path makes, in the same order, through module attributes so that the
tracer's rebinding sees them. ``cli`` itself only adds argparse and
prints, so it is not called.

- large-1e5: one user's generate -> analyze -> estimate -> cascade session on a
  1e5-node network. Edge arrays (~5 MB each) are beyond the 2 MiB L2,
  so dedupe, CSR build and edge-list parse and write dominate.
- grid-2k: the Fig-1-style shaped grid through ``harness.run_grid``. The graphs
  fit in cache; the time is pure-Python shaping loops plus 4.8k short
  estimates, so edge-core work is bypassed.
- track-1e4: the tracker recipe of the acceptance suite on two 1e4-node graphs.
  Per-sample tracker updates and per-step truth and cascade steps dominate;
  there is no file I/O.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import monotonic, perf_counter

import numpy as np

from exposure_lab import cascade, estimators, genmodel, harness, tracking
from exposure_lab import rng as rngmod

SCALES = {
    "large-1e5": {
        "full": dict(nodes=100_000, rewire_iters=10_000, reps=10, burn_in=10_000, cascade_seeds=1000),
        "toy": dict(nodes=1000, rewire_iters=1000, reps=3, burn_in=200, cascade_seeds=10),
    },
    "grid-2k": {
        "full": dict(nodes=2000, reps=200, max_iters=60_000),
        "toy": dict(nodes=1000, reps=40, max_iters=5000),
    },
    "track-1e4": {
        "full": dict(nodes=10_000, replicas=3, max_iters=100_000, steps=(("icm", 100), ("ltm", 30))),
        "toy": dict(nodes=1000, replicas=2, max_iters=20_000, steps=(("icm", 20), ("ltm", 10))),
    },
}

ESTIMATE_HEADER = ["rep", "method", "estimate", "abs_error", "true_exposure"]


class Checks:
    """Output checks; each one is an attempted operation, failed when false."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


_REFERENCE_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 100_000)


def reference_work() -> None:
    """Fixed work that does not touch exposure_lab: a pure-Python dict loop
    and a numpy sort, ~10 ms on a quiet 2 GHz Xeon core. Its time tracks how
    fast the host runs Python and numpy at that moment."""
    table: dict[int, int] = {}
    for i in range(40_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    np.sort(_REFERENCE_KEYS)


class Clock:
    """Per-call timers. Every timed library call is one step; the first marks
    the first timed call. Between steps, outside them, the reference work is
    timed: the median of those times gives the host's speed during the
    session."""

    def __init__(self):
        self.first_monotonic = None
        self.steps: list[tuple[str, float]] = []  # (phase, seconds), in call order
        self.reference_times: list[float] = []  # seconds of each reference_work run
        self._phase = None
        self._t0 = None

    @contextmanager
    def phase(self, name: str):
        self._phase = name
        yield
        self._phase = None

    def start(self) -> None:
        """Time the reference work, then open a step."""
        if self.first_monotonic is None:
            self.first_monotonic = monotonic()
        self._time_reference()
        self._t0 = perf_counter()

    def lap(self, phase: str | None = None) -> None:
        """Close the open step under ``phase`` (default: the current phase), time the
        reference work, open the next step."""
        self.steps.append((phase or self._phase, perf_counter() - self._t0))
        self._time_reference()
        self._t0 = perf_counter()

    def _time_reference(self) -> None:
        t0 = perf_counter()
        reference_work()
        self.reference_times.append(perf_counter() - t0)

    def call(self, fn, *args, **kwargs):
        """Time one call as one step; it starts where the previous step ended."""
        if self._t0 is None:
            self.start()
        result = fn(*args, **kwargs)
        self.lap()
        return result

    @property
    def phases(self) -> dict:
        out: dict[str, float] = {}
        for phase, secs in self.steps:
            out[phase] = out.get(phase, 0.0) + secs
        return out


@dataclass
class Session:
    seed: int
    params: dict  # one entry of SCALES
    tmp: str  # scratch directory for the files the workload writes
    fault: bool  # corrupt one output before it is checked
    clock: Clock
    checks: Checks


def _neighbor_share_counts(edges: np.ndarray, mask: np.ndarray, n: int):
    """Sharing-neighbor count and degree of every node, from the edge array alone."""
    u, v = edges[:, 0], edges[:, 1]
    shared = np.bincount(u, weights=mask[v], minlength=n) + np.bincount(v, weights=mask[u], minlength=n)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return shared, degree


def _two_step_expectation(g, s) -> float:
    """Exact mean of the fp estimate fed by two-step samples (a uniform
    neighbor of a uniform non-isolated node). That law is not d(v)/2|E|, so
    this mean differs from the true exposure on correlated graphs."""
    u, v = g.edge_array[:, 0], g.edge_array[:, 1]
    n = g.num_nodes
    shared, degree = _neighbor_share_counts(g.edge_array, s.mask, n)
    law = np.bincount(v, weights=1.0 / degree[u], minlength=n) + np.bincount(u, weights=1.0 / degree[v], minlength=n)
    law /= np.count_nonzero(degree)
    d_bar = 2.0 * g.num_edges / n
    return float(d_bar * np.sum(law * (shared > 0) / np.maximum(degree, 1)))


def _finite(*values) -> bool:
    return all(math.isfinite(x) for x in values)


def run_large(ses: Session) -> dict:
    p = ses.params
    clock, ck = ses.clock, ses.checks
    graph_path = os.path.join(ses.tmp, "graph.txt")
    sharers_path = os.path.join(ses.tmp, "sharers.txt")
    estimates_path = os.path.join(ses.tmp, "estimates.csv")
    call = clock.call
    with clock.phase("generate"):
        gen = call(rngmod.make_generator, ses.seed)
        seq = call(genmodel.powerlaw_degree_sequence, p["nodes"], 2.5, 2, gen, k_max=1000)
        g = call(genmodel.configuration_model, seq, gen)
        g, _kept = call(harness.compact_nonisolated, g)
        g, _res = call(genmodel.rewire_to_assortativity,
                       g, genmodel.CorrelationTarget(0.05, 0.01, p["rewire_iters"]), gen)
        call(harness.write_edge_list, graph_path, g)
        s = call(genmodel.bernoulli_sharing, g, 0.01, gen)
        call(harness.write_sharers, sharers_path, s)
    with clock.phase("analyze"):
        g2, report = call(harness.load_graph, graph_path)
        s2 = call(harness.read_sharers, sharers_path, g2.num_nodes, id_map=report.id_map)
        f_bar = call(cascade.true_exposure, g2, s2)
        verdict = call(estimators.condition_empirical, g2, s2)
        rho = call(genmodel.degree_sharing_correlation, g2, s2)
        rkk = call(genmodel.assortativity_coefficient, g2)
        var_v = call(estimators.exact_variance_vanilla, f_bar, 1)
        var_fp = call(estimators.exact_variance_fp, g2, s2, 1)
    with clock.phase("estimate"):
        result = call(harness.run_static_experiment,
                      g2, s2, ("vanilla", "fp", "fp-two-step", "fp-walk"), 100, p["reps"], ses.seed,
                      walk_burn_in=p["burn_in"], walk_thin=10)
        call(harness.write_csv, estimates_path, f"perfbench large seed={ses.seed}", ESTIMATE_HEADER, result.rows)
    with clock.phase("cascade"):
        crng = call(rngmod.make_generator, ses.seed, 1)
        ltm = call(cascade.run_cascade, g2, "ltm", 20, seed_count=p["cascade_seeds"], theta=0.05, rng=crng)
        icm = call(cascade.run_cascade, g2, "icm", 20, seed_count=p["cascade_seeds"], p_inf=0.05, rng=crng)

    reloaded = g2.edge_array[1:] if ses.fault else g2.edge_array  # fault: a dropped edge
    ck.check("reloaded edge array equals the generated one", np.array_equal(reloaded, g.edge_array))
    ck.check("no .idmap written for dense ids",
             not report.remapped and not os.path.exists(graph_path + ".idmap"))
    ck.check("sharers survive the file round trip", np.array_equal(s2.mask, s.mask))
    n = g.num_nodes
    shared, degree = _neighbor_share_counts(g.edge_array, s.mask, n)
    exposed = shared > 0
    d_bar = 2.0 * g.num_edges / n
    lhs_ref = float(np.mean(np.where(exposed, 1.0 - d_bar / np.maximum(degree, 1), 0.0)))
    ck.check("true_exposure matches a recomputation from the edge array", f_bar == float(exposed.mean()))
    ck.check("condition lhs matches a recomputation from the edge array",
             math.isclose(verdict.lhs_value, lhs_ref, rel_tol=1e-9, abs_tol=1e-12))
    ck.check("analytic values are finite", _finite(f_bar, verdict.lhs_value, rho, rkk, var_v, var_fp))
    for row in result.rows:
        ck.check(f"estimate rep {row[0]} {row[1]} is finite", _finite(row[2], row[3]))
    for name, traj in (("ltm", ltm), ("icm", icm)):
        ck.check(f"{name} sharer counts never decrease", bool(np.all(np.diff(traj.sharer_counts()) >= 0)))
    final = ltm.states[-1].mask
    shared, _ = _neighbor_share_counts(g2.edge_array, final, n)
    eligible = ~final & (degree > 0)
    fires = shared[eligible] / degree[eligible] >= 0.05
    ck.check("ltm final state is a fixed point exactly when one was reported",
             (ltm.fixed_point_step is not None) == (not fires.any()))
    return {
        "ltm_new_sharers_per_step": np.diff(ltm.sharer_counts()).tolist(),
        "icm_new_sharers_per_step": np.diff(icm.sharer_counts()).tolist(),
    }


def run_grid(ses: Session) -> dict:
    p = ses.params
    clock, ck = ses.clock, ses.checks
    summary_path = os.path.join(ses.tmp, "grid.csv")
    ledger_path = os.path.join(ses.tmp, "ledger.csv")
    cfg = harness.GridConfig(
        nodes=p["nodes"], alphas=(2.2, 2.5), k_min=1, k_max=85, rkk_targets=(-0.2, 0.2),
        rho_targets=(-0.2, 0.2), sharing_probs=(0.05,), methods=("vanilla", "fp", "fp-two-step"),
        n_samples=100, reps=p["reps"], seed=ses.seed, max_iters=p["max_iters"])
    built = {}  # cell index -> (graph, sharing), kept for the output checks
    build_cell = harness.build_cell

    def keep_cell(cfg, cell_index, *args):
        # split run_grid into steps at cell boundaries: the estimates of the
        # previous cell, then this cell's generation
        clock.lap("estimate")
        out = build_cell(cfg, cell_index, *args)
        clock.lap("generate")
        built[cell_index] = out[:2]
        return out

    harness.build_cell = keep_cell
    try:
        clock.start()
        cells, ledger, null_cells = harness.run_grid(cfg, collect_ledger=True)
        clock.lap("estimate")
    finally:
        harness.build_cell = build_cell
    with clock.phase("estimate"):
        rows = clock.call(harness.grid_rows, cells)
        clock.call(harness.write_csv, summary_path, f"perfbench grid seed={ses.seed}", harness.GRID_HEADER, rows)
        clock.call(harness.write_csv, ledger_path, f"perfbench grid-ledger seed={ses.seed}", harness.LEDGER_HEADER,
                   ledger)

    if ses.fault:  # a tampered truth value in one ledger row
        ledger[0] = ledger[0][:-1] + (ledger[0][-1] * 1.5,)
    ck.check("no cell has zero exposure", not null_cells)
    ck.check("one summary row per cell and method", len(cells) == len(cfg.cells()) * len(cfg.methods))
    for path, rows in ((summary_path, cells), (ledger_path, ledger)):
        with open(path, encoding="utf-8") as fh:
            ck.check(f"{os.path.basename(path)} holds a comment, a header and every row",
                     sum(1 for _ in fh) == len(rows) + 2)
    aggregated = harness.aggregate_ledger(ledger)
    by_key: dict = {}
    for cell_index, _a, _rk, _rh, _p, method, _rep, est, _err, truth in ledger:
        by_key.setdefault((cell_index, method), ([], truth))[0].append(est)
    for c in cells:
        key = (c.cell_index, c.method)
        ck.check(f"cell {key} aggregate_ledger matches mean_abs_error_pct",
                 key in aggregated and math.isclose(aggregated[key], c.mean_abs_error_pct, rel_tol=1e-9))
        ests, truth = by_key.get(key, ([], math.nan))
        est = np.asarray(ests)
        se = est.std(ddof=1) / math.sqrt(est.size) if est.size > 1 else math.nan
        g, s = built[c.cell_index]
        expected = _two_step_expectation(g, s) if c.method == "fp-two-step" else truth
        ck.check(f"cell {key} mean estimate lies within 5 standard errors of its expectation",
                 truth == c.true_exposure and abs(est.mean() - expected) <= 5 * se)
        off_target = not (abs(c.rkk_achieved - c.rkk_target) <= cfg.tolerance
                          and abs(c.rho_achieved - c.rho_target) <= cfg.tolerance)
        ck.check(f"cell {key} is flagged shaping_missed exactly when off target", c.shaping_missed == off_target)
    return {}


def run_track(ses: Session) -> dict:
    p = ses.params
    clock, ck = ses.clock, ses.checks
    call = clock.call
    graphs = []
    with clock.phase("generate"):
        for i, rkk in enumerate((-0.2, 0.2)):
            gen = call(rngmod.make_generator, ses.seed, i)
            seq = call(genmodel.powerlaw_degree_sequence, p["nodes"], 2.5, 3, gen, k_max=300)
            g = call(genmodel.configuration_model, seq, gen)
            g, _res = call(genmodel.rewire_to_assortativity,
                           g, genmodel.CorrelationTarget(rkk, 0.01, p["max_iters"]), gen)
            graphs.append(g)
    policy = tracking.StepPolicy("constant", 0.01)
    experiments = []
    with clock.phase("track"):
        for i, g in enumerate(graphs):
            for j, (model, steps) in enumerate(p["steps"]):
                for r in range(p["replicas"]):
                    rng = call(rngmod.make_generator, ses.seed, i, j, r)
                    records = call(tracking.run_tracking_experiment,
                                   g, model=model, steps=steps, schedule=100, vanilla_policy=policy,
                                   fp_policy=policy, seed_count=10, p_inf=0.05, theta=0.05, rng=rng)
                    experiments.append((f"graph {i} {model} replica {r}", steps, records))

    if ses.fault:  # a tampered truth value in one record
        records = experiments[0][2]
        records[-1] = replace(records[-1], true_exposure=records[-1].true_exposure * 0.5)
    for what, steps, records in experiments:
        truth = np.array([r.true_exposure for r in records])
        ck.check(f"{what}: one record per step", len(records) == steps)
        ck.check(f"{what}: truth never decreases", bool(np.all(np.diff(truth) >= 0)))
        ck.check(f"{what}: every estimate is finite",
                 all(_finite(r.vanilla_estimate, r.fp_estimate) for r in records))
        ck.check(f"{what}: abs errors equal |estimate - truth|",
                 all(r.vanilla_abs_error == abs(r.vanilla_estimate - r.true_exposure)
                     and r.fp_abs_error == abs(r.fp_estimate - r.true_exposure) for r in records))
    return {"tracker_updates": 2 * 100 * sum(len(records) for _, _, records in experiments)}


WORKLOADS = {"large-1e5": run_large, "grid-2k": run_grid, "track-1e4": run_track}

"""Stochastic-approximation trackers for time-evolving average exposure.

Each tracker keeps one scalar estimate and nudges it toward every new
observation: estimate += step * (observation - estimate). Decreasing
steps (1/n) average a static target; a constant step keeps tracking a
drifting one. The vanilla tracker observes exposure bits of uniform
nodes; the friendship-paradox tracker observes degree-corrected exposure
of random friends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cascade
from .cascade import exposure_times
from .genmodel import _pearson_from_moments
from .graph import Graph, average_degree, sample_random_friends, sample_uniform_nodes

DEFAULT_STEP_SIZE = 0.01
DEFAULT_UPDATES_PER_STEP = 100
_CHUNK_SAMPLES = 1 << 16  # samples per tracker block in run_tracking_experiment: bounds its temporaries


@dataclass(frozen=True)
class StepPolicy:
    """Step-size schedule: 'decreasing' uses 1/n at update n, 'constant' uses epsilon."""

    kind: str = "constant"
    epsilon: float = DEFAULT_STEP_SIZE

    def __post_init__(self):
        if self.kind not in ("decreasing", "constant"):
            raise ValueError(f"unknown step policy: {self.kind!r}")
        if self.kind == "constant" and not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"constant step size must lie in (0, 1], got {self.epsilon}")

    def step(self, update_index):
        """Step size for the update_index-th update (1-based). An index array
        gives an array of steps for 'decreasing'; 'constant' gives epsilon."""
        return 1.0 / update_index if self.kind == "decreasing" else self.epsilon


@dataclass(frozen=True)
class TrackerState:
    """Current estimate of one tracker plus its update count and policy."""

    estimate: float
    updates_done: int
    kind: str  # 'vanilla' | 'fp'
    policy: StepPolicy

    def __post_init__(self):
        if self.kind not in ("vanilla", "fp"):
            raise ValueError(f"unknown tracker kind: {self.kind!r}")


def make_tracker(kind: str, policy: StepPolicy, initial_estimate: float = 0.0) -> TrackerState:
    if not math.isfinite(initial_estimate):
        raise ValueError(f"initial estimate must be finite, got {initial_estimate}")
    return TrackerState(initial_estimate, 0, kind, policy)


def _fold(state: TrackerState, obs: np.ndarray) -> tuple[TrackerState, list]:
    """Fold a (rows, U) block of observations, row after row in draw order,
    through the scalar recursion estimate += step(n) * (observation - estimate).

    Returns the new state and the estimate after each row. The steps come
    from one ``StepPolicy.step`` call; a constant step skips the pairing.
    """
    n = state.updates_done
    steps = state.policy.step(np.arange(n + 1, n + obs.size + 1))
    rows = np.asarray(obs, dtype=float).tolist()  # floats even for bool blocks: bool - float is the slow path
    estimate = state.estimate
    estimates = []
    if isinstance(steps, np.ndarray):
        for row, row_steps in zip(rows, steps.reshape(obs.shape).tolist()):
            for o, a in zip(row, row_steps):
                estimate += a * (o - estimate)
            estimates.append(estimate)
    else:
        for row in rows:
            for o in row:
                estimate += steps * (o - estimate)
            estimates.append(estimate)
    return TrackerState(estimate, n + obs.size, state.kind, state.policy), estimates


def _check_schedule(schedule: int) -> None:
    if schedule < 1:
        raise ValueError("need at least one update per diffusion step")


def _check_tracked_graph(g, kind: str) -> None:
    cascade._cascade_csr(g)  # trackers follow cascades, which need an undirected graph
    if kind == "fp" and g.num_edges < 1:
        raise ValueError("the fp tracker needs at least one edge")


def tracker_update(
    state: TrackerState, g: Graph, exposed: np.ndarray, rng: np.random.Generator, count: int = 1
) -> TrackerState:
    """``count`` tracker updates against one sharing snapshot, from one batch.

    ``exposed`` is the snapshot's exposure vector (``exposure_all``), from
    which the samples' exposure bits f are read. vanilla: observe f(X) for
    fresh uniform nodes X. fp: observe d_bar * f(Y)/d(Y) for fresh random
    friends Y. All ``count`` samples are drawn at once and their
    observations folded in order through the scalar recursion, so the
    result equals ``count`` single updates fed the same observations.
    Returns the new state; the input is not mutated. A ``DiGraph`` is
    rejected before anything is drawn.
    """
    _check_tracked_graph(g, state.kind)
    if state.kind == "vanilla":
        obs = exposed[sample_uniform_nodes(g, count, rng)]
    else:
        nodes = sample_random_friends(g, count, rng)
        obs = average_degree(g) * exposed[nodes] / g.degrees[nodes]
    return _fold(state, obs.reshape(1, count))[0]


@dataclass(frozen=True)
class TrackRecord:
    """Per-diffusion-step snapshot of the truth and both trackers."""

    step: int
    true_exposure: float
    vanilla_estimate: float
    fp_estimate: float
    vanilla_abs_error: float
    fp_abs_error: float
    degree_sharing_corr: float  # NaN when undefined at this step


def run_tracking_experiment(
    g: Graph,
    *,
    model: str,
    steps: int,
    schedule: int = DEFAULT_UPDATES_PER_STEP,
    vanilla_policy: StepPolicy = StepPolicy(),
    fp_policy: StepPolicy = StepPolicy(),
    rng: np.random.Generator = None,
    initial_estimate: float = 0.0,
    **cascade_args,
) -> list[TrackRecord]:
    """Run one cascade with ``run_cascade``, then let both trackers chase its exposure.

    Other keywords (seeds, seed_count, p_inf, theta, ...) go to ``run_cascade``.
    The trackers and the graph are checked first (an undirected graph, with
    an edge for the fp tracker when steps >= 1), then the cascade draws
    from ``rng``. Node v is exposed at step t when its ``exposure_times``
    entry is <= t, so the run needs no per-step sharing state:

    - truth: the exposed fraction per step, from one ``bincount`` and
      ``cumsum`` of the exposure times;
    - degree-sharing correlation: the Pearson correlation of degree and
      sharing, from cumulative sums of the activation steps with and
      without degree weights (NaN where undefined);
    - trackers: at step t = 1..steps each makes ``schedule`` U updates
      from samples drawn with replacement, a sample x observing
      ``exposure_time[x] <= t``. The steps are drawn in chunks of
      max(1, 65536 // U) whole steps: per chunk, first the vanilla
      tracker's (chunk steps, U) block of uniform nodes, then the fp
      tracker's (chunk steps, U) block of random friends. Each block is
      folded row after row in draw order through the scalar recursion of
      ``tracker_update``.

    One record per step.
    """
    _check_schedule(schedule)
    vanilla = make_tracker("vanilla", vanilla_policy, initial_estimate)
    fp = make_tracker("fp", fp_policy, initial_estimate)
    _check_tracked_graph(g, "fp" if steps >= 1 else "vanilla")
    traj = cascade.run_cascade(g, model, steps, rng=rng, **cascade_args)
    n = g.num_nodes
    times = exposure_times(g, traj.activation)
    exposed = np.cumsum(np.bincount(times[times <= steps], minlength=steps + 1)).tolist()
    d = g.degrees.astype(np.int64, copy=False)
    sum_d, sum_dd = int(d.sum()), int(d @ d)
    shared = traj.activation >= 0
    sharers = traj.sharer_counts().tolist()
    sharer_degrees = np.cumsum(np.bincount(traj.activation[shared], weights=d[shared], minlength=steps + 1)
                               .astype(np.int64)).tolist()
    d_bar = average_degree(g)
    chunk = max(1, _CHUNK_SAMPLES // schedule)
    records = []
    for first in range(1, steps + 1, chunk):
        t = np.arange(first, min(first + chunk, steps + 1))
        seen = t[:, None]
        x = sample_uniform_nodes(g, (t.size, schedule), rng)
        y = sample_random_friends(g, (t.size, schedule), rng)
        vanilla, v_est = _fold(vanilla, times[x] <= seen)
        fp, f_est = _fold(fp, d_bar * (times[y] <= seen) / g.degrees[y])
        for step, ve, fe in zip(t.tolist(), v_est, f_est):
            f_bar = exposed[step] / n
            records.append(
                TrackRecord(
                    step=step,
                    true_exposure=f_bar,
                    vanilla_estimate=ve,
                    fp_estimate=fe,
                    vanilla_abs_error=abs(ve - f_bar),
                    fp_abs_error=abs(fe - f_bar),
                    degree_sharing_corr=_pearson_from_moments(
                        n, sum_d, sum_dd, sharer_degrees[step], sharers[step], sharers[step]),
                )
            )
    return records

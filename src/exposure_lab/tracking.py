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
from itertools import repeat

import numpy as np

from . import cascade
from .cascade import exposure_all
from .genmodel import degree_sharing_correlation
from .graph import Graph, average_degree, gather_segments, sample_random_friends, sample_uniform_nodes

DEFAULT_STEP_SIZE = 0.01
DEFAULT_UPDATES_PER_STEP = 100


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
    cascade._cascade_csr(g)  # trackers follow cascades, which need an undirected graph
    if state.kind == "vanilla":
        obs = exposed[sample_uniform_nodes(g, count, rng)]
    else:
        if g.num_edges < 1:
            raise ValueError("the fp tracker needs at least one edge")
        nodes = sample_random_friends(g, count, rng)
        obs = average_degree(g) * exposed[nodes] / g.degrees[nodes]
    n = state.updates_done
    steps = state.policy.step(np.arange(n + 1, n + count + 1))
    estimate = state.estimate
    for o, a in zip(obs.tolist(), steps.tolist() if isinstance(steps, np.ndarray) else repeat(steps)):
        estimate += a * (o - estimate)
    return TrackerState(estimate, n + count, state.kind, state.policy)


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
    Per diffusion step t = 1..steps: mark the friends of the step's new
    sharers exposed (exposure only grows) to get the exact exposed fraction,
    then make ``schedule`` updates for the vanilla tracker and then for the
    fp tracker, each from one batch of samples drawn with replacement
    against the frozen step-t sharing state. The trackers are made (and
    their inputs checked) first; the cascade draws from ``rng`` before they
    do. One record per step.
    """
    if schedule < 1:
        raise ValueError("need at least one update per diffusion step")
    vanilla = make_tracker("vanilla", vanilla_policy, initial_estimate)
    fp = make_tracker("fp", fp_policy, initial_estimate)
    traj = cascade.run_cascade(g, model, steps, rng=rng, **cascade_args)
    last = steps if traj.fixed_point_step is None else traj.fixed_point_step
    exposed = exposure_all(g, traj.state(0))
    records = []
    for t in range(1, steps + 1):
        if t == 1 or t <= last:  # past the fixed point the state stays put
            state = traj.state(t)
            exposed[gather_segments(g.indptr, g.indices, state.new_sharers)[0]] = True
            f_bar = float(exposed.mean())
            corr = degree_sharing_correlation(g, state)
        vanilla = tracker_update(vanilla, g, exposed, rng, schedule)
        fp = tracker_update(fp, g, exposed, rng, schedule)
        records.append(
            TrackRecord(
                step=t,
                true_exposure=f_bar,
                vanilla_estimate=vanilla.estimate,
                fp_estimate=fp.estimate,
                vanilla_abs_error=abs(vanilla.estimate - f_bar),
                fp_abs_error=abs(fp.estimate - f_bar),
                degree_sharing_corr=corr,
            )
        )
    return records

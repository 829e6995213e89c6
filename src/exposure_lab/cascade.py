"""Sharing state, exposure queries, and the two diffusion models.

A node is *exposed* when at least one of its friends shared the item
(neighbors in undirected graphs, in-neighbors in directed ones). Sharing
yourself does not count as exposure unless a friend also shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DiGraph, Graph, gather_segments, sorted_unique

DEFAULT_SEED_COUNT = 10
DEFAULT_INFECTION_PROB = 0.05
DEFAULT_LTM_THRESHOLD = 0.05
EXPOSURE_CHUNK = 1 << 10  # nodes per friend-list gather: bounds exposure_bits' temporaries


class SharingState:
    """Immutable snapshot of who has shared the item.

    ``mask`` is one bit per node; ``sharers`` caches the sorted sharer ids
    for intersection queries. ``new_sharers`` records who became a sharer
    at the most recent step (for a seed state: everyone) -- the
    single-attempt cascade model spreads only from these.
    """

    __slots__ = ("mask", "sharers", "new_sharers")

    def __init__(self, mask: np.ndarray, new_sharers: np.ndarray | None = None):
        mask = np.asarray(mask, dtype=bool)
        self.mask = mask
        self.sharers = np.flatnonzero(mask)
        if new_sharers is None:
            self.new_sharers = self.sharers
        else:
            self.new_sharers = sorted_unique(np.asarray(new_sharers, dtype=np.int64))
        self.mask.setflags(write=False)
        self.sharers.setflags(write=False)
        self.new_sharers.setflags(write=False)

    @classmethod
    def from_sharers(cls, sharers, num_nodes: int) -> "SharingState":
        sharers = np.asarray(sharers, dtype=np.int64)
        if sharers.size and (sharers.min() < 0 or sharers.max() >= num_nodes):
            raise ValueError(f"sharer id out of range [0, {num_nodes})")
        mask = np.zeros(num_nodes, dtype=bool)
        mask[sharers] = True
        return cls(mask)

    @property
    def num_nodes(self) -> int:
        return self.mask.shape[0]

    @property
    def num_sharers(self) -> int:
        return self.sharers.shape[0]

    @property
    def sharing_fraction(self) -> float:
        return self.num_sharers / self.num_nodes if self.num_nodes else 0.0

    def __repr__(self) -> str:
        return f"SharingState(num_nodes={self.num_nodes}, num_sharers={self.num_sharers})"


def _friend_csr(g):
    """Adjacency defining exposure: neighbors, or in-neighbors for DiGraph."""
    if isinstance(g, DiGraph):
        return g.in_indptr, g.in_indices
    return g.indptr, g.indices


def exposure_bits(g, s: SharingState, nodes) -> np.ndarray:
    """Exposure indicator for a batch of nodes: does some friend of each node share?"""
    nodes = np.asarray(nodes, dtype=np.int64)
    out = np.empty(nodes.shape[0], dtype=bool)
    for lo in range(0, nodes.shape[0], EXPOSURE_CHUNK):
        friends, bounds = gather_segments(*_friend_csr(g), nodes[lo : lo + EXPOSURE_CHUNK])
        csum = np.concatenate(([0], np.cumsum(s.mask[friends])))
        out[lo : lo + EXPOSURE_CHUNK] = (csum[bounds[1:]] - csum[bounds[:-1]]) > 0
    return out


def exposure_all(g, s: SharingState) -> np.ndarray:
    """Exposure indicator for every node, computed in one vectorized pass."""
    indptr, indices = _friend_csr(g)
    if indices.shape[0] == 0:
        return np.zeros(g.num_nodes, dtype=bool)
    csum = np.concatenate(([0], np.cumsum(s.mask[indices])))
    return (csum[indptr[1:]] - csum[indptr[:-1]]) > 0


def true_exposure(g, s: SharingState) -> float:
    """Exact fraction of nodes exposed to the item: the estimation target."""
    if g.num_nodes < 1:
        raise ValueError("true exposure is undefined on an empty graph")
    return float(exposure_all(g, s).mean())


@dataclass(frozen=True)
class CascadeTrajectory:
    """One cascade run, stored as the step at which each node began sharing.

    ``activation[v]`` is 0 for a seed, t for a node that began sharing at
    step t, and -1 for a node that never shared within ``steps`` steps.
    When the dynamics hit a fixed point before the last step,
    ``fixed_point_step`` records where growth stopped.
    """

    activation: np.ndarray = field(repr=False)
    steps: int
    model_tag: str = "icm"
    params: dict = field(default_factory=dict)
    fixed_point_step: int | None = None

    def state(self, t: int) -> SharingState:
        """Sharing state after t steps; its new sharers began sharing at step t."""
        act = self.activation
        return SharingState((act >= 0) & (act <= t), np.flatnonzero(act == t))

    @property
    def states(self) -> list:
        """state(t) for t = 0..steps, rebuilt per access; past the fixed point, one object."""
        last = self.steps if self.fixed_point_step is None else self.fixed_point_step
        states = [self.state(t) for t in range(last + 1)]
        return states + [states[-1]] * (self.steps - last)

    def sharer_counts(self) -> np.ndarray:
        act = self.activation
        return np.cumsum(np.bincount(act[act >= 0], minlength=self.steps + 1))


def icm_step(g: Graph, s: SharingState, p_inf: float, rng: np.random.Generator, retry: bool = False) -> SharingState:
    """One independent-cascade step.

    Each node that newly shared at the previous step makes one independent
    Bernoulli(p_inf) attempt per non-sharing neighbor; successes share now.
    Earlier sharers never retry (set ``retry=True`` for the re-attempt
    variant where every current sharer attempts each step).
    """
    if not 0.0 <= p_inf <= 1.0:
        raise ValueError("infection probability must lie in [0, 1]")
    sources = s.sharers if retry else s.new_sharers
    if sources.size == 0:
        return SharingState(s.mask, np.empty(0, dtype=np.int64))
    targets = gather_segments(g.indptr, g.indices, sources)[0]
    targets = targets[~s.mask[targets]]  # one entry per (source, target) attempt
    hits = targets[rng.random(targets.shape[0]) < p_inf]  # SharingState dedupes repeat hits
    if hits.size == 0:
        return SharingState(s.mask, hits)
    mask = s.mask.copy()
    mask[hits] = True
    return SharingState(mask, hits)


def ltm_step(g: Graph, s: SharingState, theta: float, strict: bool = False) -> SharingState:
    """One linear-threshold step (deterministic, consumes no randomness).

    A non-sharing node with degree >= 1 activates when the fraction of its
    neighbors already sharing reaches ``theta`` (strictly exceeds it when
    ``strict``). Degree-0 nodes never activate.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if g.indices.shape[0] == 0:
        return SharingState(s.mask, np.empty(0, dtype=np.int64))
    csum = np.concatenate(([0], np.cumsum(s.mask[g.indices])))
    counts = csum[g.indptr[1:]] - csum[g.indptr[:-1]]
    eligible = (~s.mask) & (g.degrees > 0)
    frac = np.zeros(g.num_nodes)
    frac[eligible] = counts[eligible] / g.degrees[eligible]
    fires = frac > theta if strict else frac >= theta
    hits = np.flatnonzero(eligible & fires)
    if hits.size == 0:
        return SharingState(s.mask, hits)
    mask = s.mask.copy()
    mask[hits] = True
    return SharingState(mask, hits)


def run_cascade(
    g: Graph,
    model: str,
    steps: int,
    *,
    seeds=None,
    seed_count: int = DEFAULT_SEED_COUNT,
    p_inf: float = DEFAULT_INFECTION_PROB,
    theta: float = DEFAULT_LTM_THRESHOLD,
    rng: np.random.Generator = None,
    icm_retry: bool = False,
    ltm_strict: bool = False,
) -> CascadeTrajectory:
    """Run a cascade for ``steps`` steps from explicit or uniformly drawn seeds.

    Returns the trajectory as one activation step per node. If a step adds
    no sharers the cascade stops there and the fixed point is flagged.
    """
    if model not in ("icm", "ltm"):
        raise ValueError(f"unknown cascade model: {model!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if seeds is None:
        if rng is None:
            raise ValueError("either explicit seeds or an rng for seed selection is required")
        if not 1 <= seed_count <= g.num_nodes:
            raise ValueError("seed_count must lie in [1, num_nodes]")
        seeds = rng.choice(g.num_nodes, size=seed_count, replace=False)
    state = SharingState.from_sharers(seeds, g.num_nodes)
    activation = np.full(g.num_nodes, -1, dtype=np.int32)
    activation[state.sharers] = 0
    params = {"p_inf": p_inf} if model == "icm" else {"theta": theta}
    fixed_point = None
    # A stalled step is a true fixed point for LTM (deterministic) and for
    # single-attempt ICM (empty frontier); the retry variant can stall by
    # chance and still grow later, so it never terminates early.
    may_stop_early = model == "ltm" or not icm_retry
    for t in range(1, steps + 1):
        if model == "icm":
            state = icm_step(g, state, p_inf, rng, retry=icm_retry)
        else:
            state = ltm_step(g, state, theta, strict=ltm_strict)
        if state.new_sharers.size == 0 and may_stop_early:
            fixed_point = t - 1
            break
        activation[state.new_sharers] = t
    activation.setflags(write=False)
    return CascadeTrajectory(activation, steps, model, params, fixed_point)

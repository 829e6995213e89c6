"""Sharing state, exposure queries, and the two diffusion models.

A node is *exposed* when at least one of its friends shared the item
(neighbors in undirected graphs, in-neighbors in directed ones). Sharing
yourself does not count as exposure unless a friend also shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DiGraph, Graph, _freeze, gather_segments, sorted_unique

DEFAULT_SEED_COUNT = 10
DEFAULT_INFECTION_PROB = 0.05
DEFAULT_LTM_THRESHOLD = 0.05


class SharingState:
    """Immutable snapshot of who has shared the item.

    ``mask`` is one bit per node; ``sharers`` caches the sorted sharer ids
    for intersection queries. ``new_sharers`` records who became a sharer
    at the most recent step (for a seed state: everyone) -- the
    single-attempt cascade model spreads only from these, so they must
    lie in ``mask`` (else ValueError).
    """

    __slots__ = ("mask", "sharers", "new_sharers")

    def __init__(self, mask: np.ndarray, new_sharers: np.ndarray | None = None):
        mask = np.asarray(mask, dtype=bool)
        self.mask = mask
        self.sharers = np.flatnonzero(mask)
        if new_sharers is None:
            self.new_sharers = self.sharers
        else:
            self.new_sharers = new = sorted_unique(np.asarray(new_sharers, dtype=np.int64))
            if new.size and not (new[0] >= 0 and new[-1] < mask.shape[0] and mask[new].all()):
                raise ValueError("new sharers must be sharers of the mask")
        _freeze(self.mask, self.sharers, self.new_sharers)

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

    def __repr__(self) -> str:
        return f"SharingState(num_nodes={self.num_nodes}, num_sharers={self.num_sharers})"


def _friend_arcs(g):
    """Yield g's friendship arcs (src, dst), src a friend of dst, as edge-array columns: u -> v per edge,
    and v -> u too when an edge makes each end the other's friend (``_FRIENDS_PER_EDGE`` 2, undirected)."""
    src, dst = g.edge_array.T
    yield src, dst
    if g._FRIENDS_PER_EDGE == 2:
        yield dst, src


def _sharing_counts(g: Graph, sharers, counts: np.ndarray | None = None) -> np.ndarray:
    """Each node's count of sharing neighbors, added into ``counts`` (new zeros by default): LTM's input.

    One np.add.at per gather_segments block of the sharers' friend lists, so the cost follows their degrees.
    """
    if counts is None:
        counts = np.zeros(g.num_nodes, dtype=np.int64)
    for friends in gather_segments(g.indptr, g.indices, sharers):
        np.add.at(counts, friends, 1)
        del friends  # let go before the next block is gathered
    return counts


def exposure_bits(g, s: SharingState, nodes) -> np.ndarray:
    """Exposure indicator for a batch of nodes: does some friend of each node share?"""
    return exposure_all(g, s)[np.asarray(nodes, dtype=np.int64)]


def exposure_all(g, s: SharingState) -> np.ndarray:
    """Exposure indicator for every node: each arc whose source shares marks its target (``_friend_arcs``)."""
    exposed = np.zeros(g.num_nodes, dtype=bool)
    for src, dst in _friend_arcs(g):
        exposed[dst[s.mask[src]]] = True
    return exposed


def exposure_times(g, activation) -> np.ndarray:
    """Each node's earliest exposure step under a cascade's activation steps.

    ``activation`` holds each node's step of first sharing, or -1 for never
    (``CascadeTrajectory.activation``): an integer array of shape
    ``(num_nodes,)`` with steps from -1 to below ``never = np.iinfo(np.int32).max``,
    else ValueError. A node is exposed at step t exactly when some friend's
    activation step lies in [0, t], so its exposure step is the least such
    step among its friends; a node with no friend that ever shares (degree-0
    nodes included) gets ``never``. So ``exposure_times(g, traj.activation)
    <= t`` is ``exposure_all(g, traj.state(t))``. Each arc of
    ``_friend_arcs`` scatters its source's step onto its target by ``np.minimum.at``.
    """
    act = np.asarray(activation)
    if act.shape != (g.num_nodes,) or not np.issubdtype(act.dtype, np.integer):
        raise ValueError(f"activation must be an integer array of shape ({g.num_nodes},), "
                         f"not {act.dtype} of shape {act.shape}")
    never = np.iinfo(np.int32).max
    if act.size and not -1 <= act.min() <= act.max() < never:
        raise ValueError(f"activation steps must lie below {never} and be -1 (never) or >= 0, "
                         f"not in [{act.min()}, {act.max()}]")
    first = np.where(act >= 0, act, never).astype(np.int32, copy=False)
    times = np.full(g.num_nodes, never, dtype=np.int32)
    for src, dst in _friend_arcs(g):
        np.minimum.at(times, dst, first[src])
    return times


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
    fixed_point_step: int | None = None

    def state(self, t: int) -> SharingState:
        """Sharing state after t >= 0 steps (else ValueError); its new sharers began sharing at step t."""
        if t < 0:
            raise ValueError(f"a cascade has no state before step 0, not at step {t}")
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


def _check_undirected(g) -> None:
    if isinstance(g, DiGraph):
        raise ValueError("cascades run on undirected graphs, not on a DiGraph")


def _next_state(s: SharingState, hits: np.ndarray) -> SharingState:
    """The state after a step: s's sharers plus ``hits``, who are its new sharers."""
    if hits.size == 0:
        return SharingState(s.mask, hits)
    mask = s.mask.copy()
    mask[hits] = True
    return SharingState(mask, hits)


def _check_model_value(model: str, value: float) -> None:
    """Reject an ICM infection probability outside [0, 1] or an LTM threshold outside (0, 1]."""
    if model == "icm" and not 0.0 <= value <= 1.0:
        raise ValueError("infection probability must lie in [0, 1]")
    if model == "ltm" and not 0.0 < value <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")


def _check_cascade_inputs(model: str, steps: int, p_inf: float, theta: float, seed_count: int | None,
                          num_nodes: int | None) -> None:
    """run_cascade's checks that need no graph; seed_count None means explicit seeds, num_nodes None an unknown size."""
    if model not in ("icm", "ltm"):
        raise ValueError(f"unknown cascade model: {model!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_model_value(model, p_inf if model == "icm" else theta)
    if seed_count is not None and (seed_count < 1 or num_nodes is not None and seed_count > num_nodes):
        raise ValueError("seed_count must lie in [1, num_nodes]")


def _check_icm_rng(rng) -> None:
    if rng is None:
        raise ValueError("ICM steps draw their infection attempts from rng, which is None")


def icm_step(g: Graph, s: SharingState, p_inf: float, rng: np.random.Generator, retry: bool = False) -> SharingState:
    """One independent-cascade step.

    Each node that newly shared at the previous step makes one independent
    Bernoulli(p_inf) attempt per non-sharing neighbor; successes share now.
    Earlier sharers never retry (set ``retry=True`` for the re-attempt
    variant where every current sharer attempts each step).
    """
    _check_model_value("icm", p_inf)
    _check_undirected(g)
    _check_icm_rng(rng)
    return _next_state(s, _icm_hits(g, s.mask, s.sharers if retry else s.new_sharers, p_inf, rng))


def _icm_hits(g: Graph, mask: np.ndarray, sources: np.ndarray, p_inf: float, rng: np.random.Generator) -> np.ndarray:
    """The nodes an ICM step adds, ascending: one uniform per attempt on a source's friend outside ``mask``.

    Drawn per gather_segments block, in gather order: consecutive draws, so the blocks change none."""
    hits = [np.empty(0, dtype=np.int64)]
    for targets in gather_segments(g.indptr, g.indices, sources):
        targets = targets[~mask[targets]]
        hits.append(targets[rng.random(targets.shape[0]) < p_inf])
        del targets  # let go before the next block is gathered
    return sorted_unique(np.concatenate(hits))


def ltm_step(g: Graph, s: SharingState, theta: float, strict: bool = False) -> SharingState:
    """One linear-threshold step (deterministic, consumes no randomness).

    A non-sharing node with degree >= 1 activates when the fraction of its
    neighbors already sharing reaches ``theta`` (strictly exceeds it when
    ``strict``). Degree-0 nodes never activate.
    """
    _check_model_value("ltm", theta)
    _check_undirected(g)
    return _next_state(s, _ltm_hits(g, s.mask, _sharing_counts(g, s.sharers), theta, strict))


def _ltm_hits(g: Graph, mask: np.ndarray, counts: np.ndarray, theta: float, strict: bool) -> np.ndarray:
    """The nodes an LTM step adds, ascending, from ``counts``: each node's sharing neighbors in ``mask``."""
    eligible = (~mask) & (g.degrees > 0)
    frac = np.divide(counts, g.degrees, out=np.zeros(g.num_nodes), where=eligible)
    fires = frac > theta if strict else frac >= theta
    return np.flatnonzero(eligible & fires)


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
    no sharers the cascade stops there and the fixed point is flagged. An
    LTM cascade's counts of sharing neighbors start at zero and add the
    friends of each step's new sharers, the seeds first. A step draws and
    fires as ``icm_step`` and ``ltm_step`` do, on one mask. Every input, the
    graph's kind included, is checked before the seeds are drawn, also when
    ``steps`` is 0; ``icm_retry`` with LTM, ``ltm_strict`` with ICM, or ICM
    steps without ``rng``, raises.
    """
    _check_cascade_inputs(model, steps, p_inf, theta, seed_count if seeds is None else None, g.num_nodes)
    for flag, value, reader in (("icm_retry", icm_retry, "icm"), ("ltm_strict", ltm_strict, "ltm")):
        if value and model != reader:
            raise ValueError(f"{flag} is read only by the {reader} model, not by {model!r}")
    _check_undirected(g)
    if seeds is None:
        if rng is None:
            raise ValueError("either explicit seeds or an rng for seed selection is required")
        seeds = rng.choice(g.num_nodes, size=seed_count, replace=False)
    if model == "icm" and steps >= 1:
        _check_icm_rng(rng)
    start = SharingState.from_sharers(seeds, g.num_nodes)
    mask, new = start.mask.copy(), start.sharers  # the sharers so far, and those of the last step
    activation = np.full(g.num_nodes, -1, dtype=np.int32)
    activation[new] = 0
    fixed_point = None
    # A stalled step is a true fixed point for LTM (deterministic) and for
    # single-attempt ICM (empty frontier); the retry variant can stall by
    # chance and still grow later, so it never terminates early.
    may_stop_early = model == "ltm" or not icm_retry
    counts = np.zeros(g.num_nodes, dtype=np.int64)  # LTM: each node's sharing neighbors in ``mask``
    for t in range(1, steps + 1):
        if model == "icm":
            new = _icm_hits(g, mask, np.flatnonzero(mask) if icm_retry else new, p_inf, rng)
        else:
            new = _ltm_hits(g, mask, _sharing_counts(g, new, counts), theta, ltm_strict)
        if new.size == 0 and may_stop_early:
            fixed_point = t - 1
            break
        mask[new] = True
        activation[new] = t
    activation.setflags(write=False)
    return CascadeTrajectory(activation, steps, fixed_point)

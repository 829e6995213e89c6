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
_COUNT_BLOCK_ENTRIES = 1 << 16  # friend entries per block of _sharing_counts: bounds a cascade step's temporaries


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


def _sharing_counts(g, sharers, counts: np.ndarray | None = None) -> np.ndarray:
    """Each node's count of sharing friends, added into ``counts`` (new zeros by default).

    The sharers' friend entries, their out-lists concatenated, are added in
    blocks of at most _COUNT_BLOCK_ENTRIES, cut from the sharers' cumulative
    degrees by one searchsorted; a block may start or end inside a list. So
    no temporary grows with the number of entries. A DiGraph's out-lists are
    the rows of ``edge_array``, which is sorted by source.
    """
    if isinstance(g, DiGraph):
        indptr, indices = np.concatenate(([0], np.cumsum(g.out_degrees))), g.edge_array[:, 1]
    else:
        indptr, indices = g.indptr, g.indices
    if counts is None:
        counts = np.zeros(g.num_nodes, dtype=np.int64)
    sharers = np.asarray(sharers, dtype=np.int64)
    starts = indptr[sharers]
    lengths = indptr[sharers + 1] - starts
    ends = np.cumsum(lengths)
    begins = np.subtract(ends, lengths, out=lengths)  # sharer i's entries are positions begins[i]:ends[i]
    shift = np.subtract(starts, begins, out=starts)  # and position p among them is indices[p + shift[i]]
    total = int(ends[-1]) if ends.size else 0
    cuts = np.minimum(np.arange(0, total + _COUNT_BLOCK_ENTRIES, _COUNT_BLOCK_ENTRIES), total)
    # each cut with the sharer that holds its entry; a block's sharers run from its first cut's to its last's
    bounds = list(zip(cuts.tolist(), np.searchsorted(ends, cuts, side="right").tolist()))
    for (lo, first), (hi, last) in zip(bounds, bounds[1:]):
        rows = slice(first, last + 1)
        taken = np.minimum(ends[rows], hi) - np.maximum(begins[rows], lo)
        np.add.at(counts, indices[np.arange(lo, hi) + np.repeat(shift[rows], taken)], 1)
    return counts


def exposure_bits(g, s: SharingState, nodes) -> np.ndarray:
    """Exposure indicator for a batch of nodes: does some friend of each node share?"""
    return exposure_all(g, s)[np.asarray(nodes, dtype=np.int64)]


def exposure_all(g, s: SharingState) -> np.ndarray:
    """Exposure indicator for every node: counted from the sharers' side, so the cost follows their degrees."""
    return _sharing_counts(g, s.sharers) > 0


def exposure_times(g, activation) -> np.ndarray:
    """Each node's earliest exposure step under a cascade's activation steps.

    ``activation`` holds each node's step of first sharing, or -1 for never
    (``CascadeTrajectory.activation``): an integer array of shape
    ``(num_nodes,)``, else ValueError. A node is exposed at step t exactly
    when some friend's activation step lies in [0, t], so its exposure step
    is the least such step among its friends; a node with no friend that
    ever shares (degree-0 nodes included) gets ``np.iinfo(np.int32).max``.
    So ``exposure_times(g, traj.activation) <= t`` is
    ``exposure_all(g, traj.state(t))``. Each edge u -> v scatters u's step
    onto v by ``np.minimum.at`` over the ``edge_array`` columns; an
    undirected edge also scatters v's onto u.
    """
    act = np.asarray(activation)
    if act.shape != (g.num_nodes,) or not np.issubdtype(act.dtype, np.integer):
        raise ValueError(f"activation must be an integer array of shape ({g.num_nodes},), "
                         f"not {act.dtype} of shape {act.shape}")
    never = np.iinfo(np.int32).max
    first = np.where(act >= 0, act, never).astype(np.int32, copy=False)
    times = np.full(g.num_nodes, never, dtype=np.int32)
    src, dst = g.edge_array.T
    np.minimum.at(times, dst, first[src])
    if g._FRIENDS_PER_EDGE == 2:  # an undirected edge makes each end the other's friend
        np.minimum.at(times, src, first[dst])
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


def _cascade_csr(g):
    """The friend CSR a cascade spreads over; both steps and run_cascade refuse a DiGraph."""
    if isinstance(g, DiGraph):
        raise ValueError("cascades run on undirected graphs, not on a DiGraph")
    return g.indptr, g.indices


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


def icm_step(g: Graph, s: SharingState, p_inf: float, rng: np.random.Generator, retry: bool = False) -> SharingState:
    """One independent-cascade step.

    Each node that newly shared at the previous step makes one independent
    Bernoulli(p_inf) attempt per non-sharing neighbor; successes share now.
    Earlier sharers never retry (set ``retry=True`` for the re-attempt
    variant where every current sharer attempts each step).
    """
    _check_model_value("icm", p_inf)
    return _next_state(s, _icm_hits(g, s.mask, s.sharers if retry else s.new_sharers, p_inf, rng))


def _icm_hits(g: Graph, mask: np.ndarray, sources: np.ndarray, p_inf: float, rng: np.random.Generator) -> np.ndarray:
    """The nodes an ICM step adds: the sources' friends outside ``mask``, one uniform per attempt in gather order."""
    targets = gather_segments(*_cascade_csr(g), sources)[0]
    targets = targets[~mask[targets]]  # one entry per (source, target) attempt
    return sorted_unique(targets[rng.random(targets.shape[0]) < p_inf])


def ltm_step(g: Graph, s: SharingState, theta: float, strict: bool = False) -> SharingState:
    """One linear-threshold step (deterministic, consumes no randomness).

    A non-sharing node with degree >= 1 activates when the fraction of its
    neighbors already sharing reaches ``theta`` (strictly exceeds it when
    ``strict``). Degree-0 nodes never activate.
    """
    _check_model_value("ltm", theta)
    _cascade_csr(g)  # refuses a DiGraph
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
    ``steps`` is 0; ``icm_retry`` with LTM, or ``ltm_strict`` with ICM, raises.
    """
    _check_cascade_inputs(model, steps, p_inf, theta, seed_count if seeds is None else None, g.num_nodes)
    for flag, value, reader in (("icm_retry", icm_retry, "icm"), ("ltm_strict", ltm_strict, "ltm")):
        if value and model != reader:
            raise ValueError(f"{flag} is read only by the {reader} model, not by {model!r}")
    _cascade_csr(g)
    if seeds is None:
        if rng is None:
            raise ValueError("either explicit seeds or an rng for seed selection is required")
        seeds = rng.choice(g.num_nodes, size=seed_count, replace=False)
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

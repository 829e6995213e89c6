"""Synthetic network generation and controlled correlation shaping.

Power-law configuration-model graphs, degree-preserving rewiring that
drives the assortativity coefficient toward a target, and sharing-label
swapping that drives the degree-sharing correlation toward a target.
Both shaping loops keep only their proposals and run one batched,
budgeted hill climb, ``_climb``, which reports what it achieved.
``shape_network`` chains them into the one recipe that the grid and the
CLI call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cascade import SharingState
from .graph import Graph, _edges_from_keys, build_undirected

DEFAULT_TOLERANCE = 0.01
DEFAULT_MAX_ITERS = 100_000
REWIRE_BATCH_MIN, REWIRE_BATCH_MAX = 64, 16384  # rewiring proposals per step: m/8, clamped
SWAP_BATCH = 256  # label-swap proposals per step
_MOMENT_BLOCK_EDGES = 1 << 16  # edges per block of the endpoint-degree products: bounds their temporaries


@dataclass(frozen=True)
class DegreeSequence:
    """A valid degree sequence: positive entries, even sum, one per node."""

    degrees: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.degrees, dtype=np.int64)
        object.__setattr__(self, "degrees", d)
        if d.size == 0:
            raise ValueError("degree sequence must be non-empty")
        if d.min() < 1:
            raise ValueError("degrees must be positive")
        if int(d.sum()) % 2:
            raise ValueError("degree sum must be even")

    def __len__(self) -> int:
        return self.degrees.shape[0]


@dataclass(frozen=True)
class CorrelationTarget:
    """Target value for a shaping loop, with stopping tolerance and budget."""

    target: float
    tolerance: float = DEFAULT_TOLERANCE
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if not -1.0 <= self.target <= 1.0:
            raise ValueError("correlation target must lie in [-1, 1]")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(frozen=True)
class ShapingResult:
    """Outcome of a best-effort shaping loop: the value reached, the proposals
    drawn, whether it converged, and why it stopped.

    ``stop`` is "band" (converged), "floor" or "ceiling" (no move can go
    further that way), or "budget" (max_iters proposals drawn) for a loop
    that ran; "undefined" when the coefficient is undefined on the input,
    and "skipped" when ``shape_network`` ran no loop. No per-move trace is
    kept; the reference loops in ``tests/oracles.py`` record one.
    """

    achieved: float
    iterations: int  # proposals drawn, rejected and dropped ones included
    converged: bool
    stop: str


def powerlaw_cap(n: int, alpha: float, k_min: int = 1, k_max: int | None = None) -> int:
    """Check the inputs of ``powerlaw_degree_sequence``, drawing nothing; return its degree cap."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if alpha <= 2.0:
        raise ValueError("power-law exponent must exceed 2")
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    cap = n - 1 if k_max is None else min(int(k_max), n - 1)
    if cap < k_min:
        raise ValueError("k_max must be >= k_min")
    return cap


def powerlaw_degree_sequence(
    n: int, alpha: float, k_min: int = 1, rng: np.random.Generator = None, k_max: int | None = None
) -> DegreeSequence:
    """Degrees drawn from a continuous power law of scale k_min, rounded up.

    A draw exceeds k_min almost surely, so degrees are at least k_min + 1
    unless ``k_max`` caps them at k_min: not the integer law of
    ``PowerLawDegrees(alpha, k_min)``. alpha must exceed 2 (finite mean).
    Degrees are capped at n-1, or at ``k_max`` when given: heavy tails
    routinely produce hubs so large that a simple graph cannot realize
    assortative mixing around them, and the usual cure is a structural
    cutoff near sqrt(mean_degree * n). The first entry is altered by 1 if
    needed to make the sum even.
    """
    cap = powerlaw_cap(n, alpha, k_min, k_max)
    u = rng.random(n)
    draws = k_min * (1.0 - u) ** (-1.0 / (alpha - 1.0))
    degrees = np.minimum(np.ceil(draws).astype(np.int64), cap)
    if int(degrees.sum()) % 2:
        if degrees[0] < cap:
            degrees[0] += 1
        elif degrees[0] > 1:
            degrees[0] -= 1
        else:
            raise ValueError("cannot even out the degree sum with k_max = 1 and an odd node count")
    return DegreeSequence(degrees)


def configuration_model(seq: DegreeSequence, rng: np.random.Generator) -> Graph:
    """Uniform stub matching, then simplification (self-loops and parallel
    edges removed), so realized degrees may fall slightly short of ``seq``."""
    stubs = np.repeat(np.arange(len(seq), dtype=np.int64), seq.degrees)
    rng.shuffle(stubs)
    return build_undirected(stubs.reshape(-1, 2), len(seq))


def _pearson_from_moments(n_points, sum_x, sum_xx, sum_xy, sum_y, sum_yy) -> float:
    mean_x = sum_x / n_points
    mean_y = sum_y / n_points
    var_x = sum_xx / n_points - mean_x * mean_x
    var_y = sum_yy / n_points - mean_y * mean_y
    if var_x <= 0.0 or var_y <= 0.0:
        return math.nan
    return (sum_xy / n_points - mean_x * mean_y) / math.sqrt(var_x * var_y)


def _assortativity_moments(g: Graph):
    """Integer moment sums for the endpoint-degree Pearson over both edge
    orientations. Only sum_xy changes under degree-preserving rewiring.

    sum_x and sum_xx are exact Python ints taken over the degree histogram:
    a hub's d**3 overflows int64 from d ~ 2.1e6. sum_xy adds the endpoint
    degree products _MOMENT_BLOCK_EDGES edges at a time, so no temporary
    grows with the edge count.
    """
    d = g.degrees
    hist = np.bincount(d)
    ks = np.flatnonzero(hist)
    pairs = list(zip(ks.tolist(), hist[ks].tolist()))  # (degree k, nodes of degree k)
    sum_x = sum(c * k * k for k, c in pairs)  # each node appears as an endpoint d(v) times
    sum_xx = sum(c * k * k * k for k, c in pairs)
    sum_xy = 0
    for start in range(0, g.num_edges, _MOMENT_BLOCK_EDGES):
        block = g.edge_array[start : start + _MOMENT_BLOCK_EDGES]
        products = d[block[:, 0]].astype(np.int64, copy=False)  # copy=False still converts where intp is narrower
        products *= d[block[:, 1]]
        sum_xy += int(products.sum())
    return 2 * g.num_edges, sum_x, sum_xx, 2 * sum_xy


def assortativity_coefficient(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over all edges, both
    orientations counted. NaN when endpoint degrees have zero variance
    (e.g. regular graphs)."""
    if g.num_edges < 1:
        raise ValueError("assortativity needs at least one edge")
    n_points, sum_x, sum_xx, sum_xy = _assortativity_moments(g)
    return _pearson_from_moments(n_points, sum_x, sum_xx, sum_xy, sum_x, sum_xx)


def _first_claims(slots: np.ndarray) -> np.ndarray:
    """Rows of a (k, w) slot array none of whose slots appears in an earlier row.

    In batch order these are the proposals that touch nothing an earlier
    proposal touched, so they can all be applied at once.
    """
    flat = slots.ravel()
    if not flat.size:
        return np.ones(slots.shape[0], dtype=bool)
    # sort the slots, then take the earliest flat position in each run of equal
    # ones: the sort need not be stable, and no key beyond the slots is formed
    order = np.argsort(flat)
    ordered = flat[order]
    runs = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    first = np.zeros(flat.size, dtype=bool)
    first[np.minimum.reduceat(order, runs)] = True
    # an AND of the columns: .all(axis=1) loops over each row's few slots, ~17 ns a row
    return functools.reduce(np.logical_and, first.reshape(slots.shape).T)


def _cut(accepted: np.ndarray, stop: np.ndarray, batch: int) -> tuple[int, int]:
    """(moves to apply, proposals drawn) for a batch whose accepted proposal
    indices are ``accepted``: everything up to the first move flagged ``stop``."""
    hit = np.flatnonzero(stop)
    if not hit.size:
        return accepted.size, batch
    return int(hit[0]) + 1, int(accepted[hit[0]]) + 1


def _climb(target: CorrelationTarget, rho, total: int, floor, ceiling, batch: int, propose):
    """The batched, budgeted hill climb of both shaping loops, on ``rho(total)``.

    ``propose(k, up)`` draws k proposals climbing up or down and returns the
    accepted ones' batch indices, their gains to ``total``, and ``apply(moves)``,
    which applies the first ``moves``. A batch is cut at the first move that
    reaches the tolerance band, crosses the target, or brings ``total`` to its
    floor or ceiling. The loop stops in the band, at the floor or ceiling it
    climbs toward, or with the budget spent, in that order of precedence, and
    names the reason in ``stop``. ``iterations`` counts the proposals drawn up
    to the cut, rejected ones included, against max_iters.
    """
    current = rho(total)
    iters = 0
    while True:
        up = target.target > current
        bound = ceiling if up else floor
        if abs(current - target.target) <= target.tolerance:
            return ShapingResult(current, iters, True, "band")
        if total == bound:
            return ShapingResult(current, iters, False, "ceiling" if up else "floor")
        if iters >= target.max_iters:
            return ShapingResult(current, iters, False, "budget")
        k = min(batch, target.max_iters - iters)
        acc, gain, apply = propose(k, up)
        totals = total + np.cumsum(gain)
        running = rho(totals)
        band = target.target - target.tolerance if up else target.target + target.tolerance
        moves, drawn = _cut(acc, (running >= band if up else running <= band) | (totals == bound), k)
        iters += drawn
        if moves:
            apply(moves)
            total = int(totals[moves - 1])
            current = rho(total)


def _absent(keys: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Which pairs of packed edge keys (first[i], second[i]) are both missing from the sorted, non-empty ``keys``.

    One searchsorted over all of them in ascending order, which keeps its
    successive searches close.
    """
    new = np.concatenate([first, second])
    order = np.argsort(new)
    ordered = new[order]
    absent = np.empty(new.size, dtype=bool)
    absent[order] = keys[np.minimum(np.searchsorted(keys, ordered), keys.size - 1)] != ordered
    return absent.reshape(2, -1).all(axis=0)


def rewire_to_assortativity(
    g: Graph, target: CorrelationTarget, rng: np.random.Generator
) -> tuple[Graph, ShapingResult]:
    """Degree-preserving rewiring toward a target assortativity coefficient.

    Each proposal draws two distinct edges and, among the three pairings of
    their four endpoints, keeps the one moving the coefficient furthest in
    the needed direction; pairings creating self-loops or existing edges
    are skipped. ``_climb`` evaluates them K = clamp(m/8, 64, 16384) at a
    time against the graph as it stood before the batch, dropping an
    accepted proposal that touches or creates an edge an earlier one
    touched or created.

    The edges are kept as sorted packed keys. A batch looks up each
    proposal's first choice, its better climbing pairing without a
    self-loop, in one sorted search; only the blocked first choices whose
    other pairing also climbs are searched again. An apply drops the moved
    keys by a mask, appends the sorted new ones and merges the two sorted
    runs by one stable sort. Returns a best-effort graph plus the achieved
    coefficient when the target is out of reach, and the input graph
    itself when no move was applied.
    """
    if g.num_edges < 2:
        raise ValueError("rewiring needs at least two edges")
    n_points, sum_x, sum_xx, sum_xy = _assortativity_moments(g)
    mean_sq = (sum_x / n_points) ** 2
    denom = sum_xx / n_points - mean_sq
    if denom <= 0.0:  # regular graph: coefficient undefined, nothing to shape
        return g, ShapingResult(math.nan, 0, False, "undefined")
    n, m = g.num_nodes, g.num_edges
    deg = g.degrees.astype(np.int64, copy=False)  # degree products and gains fit int64 while degrees stay below 2**31
    # the edges as ascending packed keys u*n + v (u < v); edge_array is sorted
    keys = g.edge_array[:, 0] * n + g.edge_array[:, 1]
    moved = False

    def propose(k, up):
        i = rng.integers(m, size=k)
        j = rng.integers(m - 1, size=k)
        j += j >= i
        a, b = np.divmod(keys[i], n)
        q = np.empty((2, k), dtype=np.int64)
        np.divmod(keys[j], n, out=(q[0], q[1]))
        # keeping the current pairing is the zero-gain baseline; row 0 scores the
        # alternative pairing (a c)(b d) against it, row 1 (a d)(b c), with q = (c, d)
        dq = deg[q]
        gain = (deg[a] - dq[::-1]) * (dq - deg[b])
        # their new edges {a, q} and {b, q[::-1]} as packed keys min*n + max = min*(n-1) + both ends
        k1, k2 = np.minimum(a, q), np.minimum(b, q[::-1])
        for key, p, r in ((k1, a, q), (k2, b, q[::-1])):
            key *= n - 1
            key += p
            key += r
        # a pairing that does not climb or makes a self-loop scores 0
        score = gain if up else -gain
        score = np.where((score > 0) & (a != q) & (b != q[::-1]), score, 0)
        # each proposal's first choice as a flat position row*k + proposal; a tie keeps (a c)(b d)
        acc = np.flatnonzero(np.maximum(score[0], score[1]))
        pos = acc + k * (score[1, acc] > score[0, acc])
        k1, k2, score = k1.ravel(), k2.ravel(), score.ravel()
        free = _absent(keys, k1[pos], k2[pos])
        # a first choice that makes an existing edge falls back on the other pairing, if it climbs
        other = (pos + k) % (2 * k)
        retry = np.flatnonzero(~free & (score[other] > 0))
        if retry.size:
            alt = other[retry]
            found = _absent(keys, k1[alt], k2[alt])
            pos[retry[found]] = alt[found]
            free[retry[found]] = True
        acc, pos = acc[free], pos[free]
        claims = _first_claims(np.stack([i[acc], j[acc]], axis=1))
        acc, pos = acc[claims], pos[claims]
        k1, k2 = k1[pos], k2[pos]
        claims = _first_claims(np.stack([k1, k2], axis=1))
        acc, pos, k1, k2 = acc[claims], pos[claims], k1[claims], k2[claims]

        def apply(moves):
            nonlocal keys, moved
            keep = np.ones(m, dtype=bool)
            keep[i[acc[:moves]]] = False
            keep[j[acc[:moves]]] = False
            added = np.sort(np.concatenate([k1[:moves], k2[:moves]]))
            keys = keys[keep]  # rebinding frees the old keys before the concatenation copies
            keys = np.concatenate([keys, added])
            keys.sort(kind="stable")  # timsort: one merge of the kept run and the added run
            moved = True

        return acc, gain.ravel()[pos], apply

    # the climb runs on sum_xy / 2, which each move changes by its gain
    result = _climb(target, lambda t: (2 * t / n_points - mean_sq) / denom, sum_xy // 2, -math.inf, math.inf,
                    min(max(m // 8, REWIRE_BATCH_MIN), REWIRE_BATCH_MAX), propose)
    if not moved:
        return g, result
    # the keys stay sorted and distinct, with u < v: the edges are already simple
    return Graph(n, _edges_from_keys(keys, n)), result


def _check_sharing_prob(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError("sharing probability must lie in [0, 1]")


def bernoulli_sharing(g: Graph, p: float, rng: np.random.Generator) -> SharingState:
    """Each node shares independently with probability p."""
    _check_sharing_prob(p)
    return SharingState(rng.random(g.num_nodes) < p)


def degree_sharing_correlation(g: Graph, s: SharingState) -> float:
    """Pearson correlation between node degree and the sharing indicator.

    NaN when either marginal is constant (regular graph, or all/none
    sharing) -- deliberately distinct from 0, which would silently satisfy
    a zero-correlation target.
    """
    d = g.degrees.astype(np.int64, copy=False)
    m = s.num_sharers
    return _pearson_from_moments(g.num_nodes, int(d.sum()), int(d @ d), int(d[s.sharers].sum()), m, m)


def swap_to_correlation(
    g: Graph, s: SharingState, target: CorrelationTarget, rng: np.random.Generator
) -> tuple[SharingState, ShapingResult]:
    """Sharer-label swapping toward a target degree-sharing correlation.

    Each proposal draws one sharer u and one non-sharer v uniformly and
    swaps their labels when that moves the correlation toward the target
    (raise: swap if d(u) < d(v); lower: swap if d(u) > d(v); ties skipped).
    ``_climb`` evaluates them SWAP_BATCH at a time, dropping an accepted
    proposal that touches a sharer or non-sharer slot an earlier one
    touched; its floor and ceiling put the sharers on the lowest and the
    highest degrees. The sharer count is exactly preserved. Returns the
    achieved value either way.
    """
    n = g.num_nodes
    m = s.num_sharers
    if not 0 < m < n:
        raise ValueError("swapping needs a sharer set that is neither empty nor everyone")
    d = g.degrees.astype(np.int64, copy=False)
    mean_d = float(d.mean())
    var_d = float(np.mean(d * d) - mean_d * mean_d)
    p_bar = m / n
    scale = math.sqrt(var_d) * math.sqrt(p_bar * (1.0 - p_bar))
    if scale == 0.0:
        return s, ShapingResult(math.nan, 0, False, "undefined")
    sharers = s.sharers.copy()
    others = np.flatnonzero(~s.mask)
    ordered = np.sort(d)

    def propose(k, up):
        iu = rng.integers(m, size=k)
        iv = rng.integers(n - m, size=k)
        gain = d[others[iv]] - d[sharers[iu]]
        acc = np.flatnonzero(gain > 0 if up else gain < 0)
        acc = acc[_first_claims(np.stack([iu[acc], iv[acc] + m], axis=1))]  # non-sharer slots after sharer slots

        def apply(moves):
            su, sv = iu[acc[:moves]], iv[acc[:moves]]
            sharers[su], others[sv] = others[sv], sharers[su]

        return acc, gain[acc], apply

    # the climb runs on the sharers' degree total, the only moving part of the correlation
    result = _climb(target, lambda tot: (tot / n - mean_d * p_bar) / scale, int(d[sharers].sum()),
                    int(ordered[:m].sum()), int(ordered[n - m :].sum()), SWAP_BATCH, propose)
    return SharingState.from_sharers(sharers, n), result


def shaping_targets(rkk_target, sharing_prob, rho_target, tolerance=DEFAULT_TOLERANCE, max_iters=DEFAULT_MAX_ITERS):
    """Check every input of ``shape_network``, drawing nothing; return its
    (rkk, rho) CorrelationTargets, None for a skipped loop."""
    if sharing_prob is not None:
        _check_sharing_prob(sharing_prob)
    elif rho_target is not None:
        raise ValueError("a degree-sharing correlation target needs a sharing probability")
    return tuple(None if t is None else CorrelationTarget(t, tolerance, max_iters) for t in (rkk_target, rho_target))


def shape_network(g: Graph, rng: np.random.Generator, rkk_target=None, sharing_prob=None, rho_target=None,
                  tolerance=DEFAULT_TOLERANCE, max_iters=DEFAULT_MAX_ITERS):
    """The network recipe: rewire toward ``rkk_target``, draw Bernoulli(``sharing_prob``)
    sharers, swap their labels toward ``rho_target``; every input is checked first.

    Returns (graph, sharing, rkk, rho), a ShapingResult per loop. A skipped loop
    (target None) reports (value, 0, True, "skipped"); a rho target with nobody or
    everyone sharing, (value, 0, False, "skipped"). No ``sharing_prob``: sharing
    None, rho (nan, 0, True, "skipped").
    """
    rkk_t, rho_t = shaping_targets(rkk_target, sharing_prob, rho_target, tolerance, max_iters)
    if rkk_t is None:
        rkk = ShapingResult(assortativity_coefficient(g), 0, True, "skipped")
    else:
        g, rkk = rewire_to_assortativity(g, rkk_t, rng)
    if sharing_prob is None:
        return g, None, rkk, ShapingResult(math.nan, 0, True, "skipped")
    s = bernoulli_sharing(g, sharing_prob, rng)
    if rho_t is not None and 0 < s.num_sharers < g.num_nodes:
        s, rho = swap_to_correlation(g, s, rho_t, rng)
    else:
        rho = ShapingResult(degree_sharing_correlation(g, s), 0, rho_t is None, "skipped")
    return g, s, rkk, rho

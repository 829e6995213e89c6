"""Synthetic network generation and controlled correlation shaping.

Power-law configuration-model graphs, degree-preserving rewiring that
drives the assortativity coefficient toward a target, and sharing-label
swapping that drives the degree-sharing correlation toward a target.
Both shaping loops are budgeted: they stop at the tolerance or after
max_iters attempts and report what they achieved. ``shape_network``
chains them into the one recipe that the grid and the CLI call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cascade import SharingState
from .graph import Graph, build_undirected

DEFAULT_TOLERANCE = 0.01
DEFAULT_MAX_ITERS = 100_000


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
    """Outcome of a best-effort shaping loop."""

    achieved: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list, repr=False)


def powerlaw_degree_sequence(
    n: int, alpha: float, k_min: int = 1, rng: np.random.Generator = None, k_max: int | None = None
) -> DegreeSequence:
    """Degrees drawn from a continuous power law on [k_min, inf), rounded up.

    alpha must exceed 2 (finite mean). Degrees are capped at n-1, or at
    ``k_max`` when given: heavy tails routinely produce hubs so large that
    a simple graph cannot realize assortative mixing around them, and the
    usual cure is a structural cutoff near sqrt(mean_degree * n). The
    first entry is altered by 1 if needed to make the sum even.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if alpha <= 2.0:
        raise ValueError("power-law exponent must exceed 2")
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    cap = n - 1 if k_max is None else min(int(k_max), n - 1)
    if cap < k_min:
        raise ValueError("k_max must be >= k_min")
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
    a hub's d**3 overflows int64 from d ~ 2.1e6.
    """
    d = g.degrees
    hist = np.bincount(d)
    ks = np.flatnonzero(hist)
    pairs = list(zip(ks.tolist(), hist[ks].tolist()))  # (degree k, nodes of degree k)
    sum_x = sum(c * k * k for k, c in pairs)  # each node appears as an endpoint d(v) times
    sum_xx = sum(c * k * k * k for k, c in pairs)
    du = d[g.edge_array[:, 0]].astype(np.int64)
    dv = d[g.edge_array[:, 1]].astype(np.int64)
    sum_xy = 2 * int(np.sum(du * dv))
    return 2 * g.num_edges, sum_x, sum_xx, sum_xy


def assortativity_coefficient(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over all edges, both
    orientations counted. NaN when endpoint degrees have zero variance
    (e.g. regular graphs)."""
    if g.num_edges < 1:
        raise ValueError("assortativity needs at least one edge")
    n_points, sum_x, sum_xx, sum_xy = _assortativity_moments(g)
    return _pearson_from_moments(n_points, sum_x, sum_xx, sum_xy, sum_x, sum_xx)


def rewire_to_assortativity(
    g: Graph, target: CorrelationTarget, rng: np.random.Generator, record_trace: bool = False
) -> tuple[Graph, ShapingResult]:
    """Degree-preserving rewiring toward a target assortativity coefficient.

    Each iteration draws two distinct edges and, among the three pairings of
    their four endpoints, keeps the one moving the coefficient furthest in
    the needed direction; pairings creating self-loops or duplicate edges
    are skipped. Rejected iterations still count against max_iters. Returns
    a best-effort graph plus the achieved coefficient when the target is out
    of reach.
    """
    if g.num_edges < 2:
        raise ValueError("rewiring needs at least two edges")
    n_points, sum_x, sum_xx, sum_xy = _assortativity_moments(g)
    denom = sum_xx / n_points - (sum_x / n_points) ** 2
    deg = g.degrees.astype(np.int64).tolist()

    def rho(sxy: int) -> float:
        return (sxy / n_points - (sum_x / n_points) ** 2) / denom

    if denom <= 0.0:  # regular graph: coefficient undefined, nothing to shape
        return g, ShapingResult(math.nan, 0, False)

    eu = g.edge_array[:, 0].tolist()
    ev = g.edge_array[:, 1].tolist()
    edge_set = set(zip(eu, ev))
    m = len(eu)
    trace: list[float] = []
    current = rho(sum_xy)
    iters = 0
    converged = abs(current - target.target) <= target.tolerance
    while not converged and iters < target.max_iters:
        iters += 1
        i = int(rng.integers(m))
        j = int(rng.integers(m - 1))
        if j >= i:
            j += 1
        a, b = eu[i], ev[i]
        c, d = eu[j], ev[j]
        base = deg[a] * deg[b] + deg[c] * deg[d]
        best_gain = 0
        best_pairing = None
        want_up = target.target > current
        # keeping the current pairing is the zero-gain baseline; evaluate the
        # two alternative pairings of the four endpoints against it
        for (p, q), (r, t) in (((a, c), (b, d)), ((a, d), (b, c))):
            if p == q or r == t:
                continue
            e1 = (p, q) if p <= q else (q, p)
            e2 = (r, t) if r <= t else (t, r)
            if e1 == e2 or e1 in edge_set or e2 in edge_set:
                continue
            gain = deg[p] * deg[q] + deg[r] * deg[t] - base
            if (want_up and gain > best_gain) or (not want_up and gain < best_gain):
                best_gain = gain
                best_pairing = (e1, e2)
        if best_pairing is not None:
            edge_set.discard((eu[i], ev[i]))
            edge_set.discard((eu[j], ev[j]))
            (eu[i], ev[i]), (eu[j], ev[j]) = best_pairing
            edge_set.add(best_pairing[0])
            edge_set.add(best_pairing[1])
            sum_xy += 2 * best_gain
            current = rho(sum_xy)
            if record_trace:
                trace.append(current)
        converged = abs(current - target.target) <= target.tolerance
    rewired = build_undirected(np.stack([eu, ev], axis=1), g.num_nodes)
    return rewired, ShapingResult(current, iters, converged, trace)


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
    n = g.num_nodes
    d = g.degrees.astype(np.int64)
    sh = s.mask.astype(np.int64)
    return _pearson_from_moments(
        n,
        int(d.sum()),
        int(np.sum(d * d)),
        int(np.sum(d * sh)),
        int(sh.sum()),
        int(sh.sum()),
    )


def swap_to_correlation(
    g: Graph, s: SharingState, target: CorrelationTarget, rng: np.random.Generator, record_trace: bool = False
) -> tuple[SharingState, ShapingResult]:
    """Sharer-label swapping toward a target degree-sharing correlation.

    Each iteration draws one sharer u and one non-sharer v uniformly and
    swaps their labels when that moves the correlation toward the target
    (raise: swap if d(u) < d(v); lower: swap if d(u) > d(v); ties skipped).
    The sharer count is exactly preserved. Stops at the tolerance or after
    max_iters iterations, returning the achieved value either way.
    """
    n = g.num_nodes
    m = s.num_sharers
    if not 0 < m < n:
        raise ValueError("swapping needs a sharer set that is neither empty nor everyone")
    d = g.degrees.astype(np.int64)
    mean_d = float(d.mean())
    var_d = float(np.mean(d * d) - mean_d * mean_d)
    p_bar = m / n
    scale = math.sqrt(var_d) * math.sqrt(p_bar * (1.0 - p_bar))

    deg = d.tolist()
    sharers = s.sharers.tolist()
    others = np.flatnonzero(~s.mask).tolist()
    pos_sharer = {v: i for i, v in enumerate(sharers)}
    pos_other = {v: i for i, v in enumerate(others)}
    total = sum(deg[v] for v in sharers)  # only moving part of the correlation

    def rho(tot: int) -> float:
        if scale == 0.0:
            return math.nan
        return (tot / n - mean_d * p_bar) / scale

    trace: list[float] = []
    current = rho(total)
    iters = 0
    if math.isnan(current):
        return s, ShapingResult(current, 0, False)
    converged = abs(current - target.target) <= target.tolerance
    n_others = len(others)
    while not converged and iters < target.max_iters:
        iters += 1
        u = sharers[int(rng.integers(m))]
        v = others[int(rng.integers(n_others))]
        want_up = target.target > current
        if (want_up and deg[u] < deg[v]) or (not want_up and deg[u] > deg[v]):
            iu, iv = pos_sharer[u], pos_other[v]
            sharers[iu], others[iv] = v, u
            pos_sharer[v] = iu
            pos_other[u] = iv
            del pos_sharer[u]
            del pos_other[v]
            total += deg[v] - deg[u]
            current = rho(total)
            if record_trace:
                trace.append(current)
        converged = abs(current - target.target) <= target.tolerance
    out = SharingState.from_sharers(np.array(sharers, dtype=np.int64), n)
    return out, ShapingResult(current, iters, converged, trace)


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
    (target None) reports (value, 0, True); a rho target with nobody or everyone
    sharing, (value, 0, False). No ``sharing_prob``: sharing None, rho (nan, 0, True).
    """
    rkk_t, rho_t = shaping_targets(rkk_target, sharing_prob, rho_target, tolerance, max_iters)
    if rkk_t is None:
        rkk = ShapingResult(assortativity_coefficient(g), 0, True)
    else:
        g, rkk = rewire_to_assortativity(g, rkk_t, rng)
    if sharing_prob is None:
        return g, None, rkk, ShapingResult(math.nan, 0, True)
    s = bernoulli_sharing(g, sharing_prob, rng)
    if rho_t is not None and 0 < s.num_sharers < g.num_nodes:
        s, rho = swap_to_correlation(g, s, rho_t, rng)
    else:
        rho = ShapingResult(degree_sharing_correlation(g, s), 0, rho_t is None)
    return g, s, rkk, rho

"""Independent brute-force oracles and small-graph builders for the tests.

Everything here recomputes quantities from first principles (dense loops,
full enumerations, textbook formulas) so the tests never reuse the code
paths they are checking.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigs

from exposure_lab import (
    CorrelationTarget,
    DiGraph,
    Graph,
    ShapingResult,
    SharingState,
    assortativity_coefficient,
    bernoulli_sharing,
    build_directed,
    build_undirected,
    degree_sharing_correlation,
    directed_estimates,
    exposure_bits,
    exposure_times,
    fp_estimate,
    random_walk_friends,
    rewire_to_assortativity,
    sample_directed_many,
    sample_friend_two_step,
    sample_random_friends,
    sample_uniform_nodes,
    swap_to_correlation,
    vanilla_estimate,
)
from exposure_lab.harness import format_value
from exposure_lab.genmodel import (
    REWIRE_BATCH_MAX,
    REWIRE_BATCH_MIN,
    SWAP_BATCH,
    _assortativity_moments,
    _cut,
)

# ---------------------------------------------------------------------------
# Small named graphs
# ---------------------------------------------------------------------------


def star(leaves: int = 4) -> Graph:
    """Hub 0 with the given number of leaves."""
    return build_undirected([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def path(n: int) -> Graph:
    return build_undirected([(i, i + 1) for i in range(n - 1)], n)


def cycle(n: int) -> Graph:
    return build_undirected([(i, (i + 1) % n) for i in range(n)], n)


def complete(n: int) -> Graph:
    return build_undirected([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def random_graph(rng: np.random.Generator, max_nodes: int = 12, p: float = 0.35,
                 min_nodes: int = 2, require_edge: bool = True) -> Graph:
    """Erdos-Renyi style random simple graph for property tests."""
    while True:
        n = int(rng.integers(min_nodes, max_nodes + 1))
        mask = rng.random((n, n)) < p
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        g = build_undirected(edges, n)
        if g.num_edges >= 1 or not require_edge:
            return g


def random_digraph(rng: np.random.Generator, max_nodes: int = 10, p: float = 0.3,
                   min_nodes: int = 2) -> DiGraph:
    while True:
        n = int(rng.integers(min_nodes, max_nodes + 1))
        mask = rng.random((n, n)) < p
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and mask[i, j]]
        g = build_directed(edges, n)
        if g.num_edges >= 1:
            return g


def shuffled_edges(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The edge rows in a random order, each one's endpoints swapped with probability 1/2."""
    e = edges[rng.permutation(edges.shape[0])]
    flip = rng.random(e.shape[0]) < 0.5
    e[flip] = e[flip, ::-1]
    return e


def random_multigraph_edges(rng, n: int) -> np.ndarray:
    """Edges over [0, n) with self-loops, both orientations and repeats; often misses nodes."""
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    m = int(rng.integers(0, 3 * n + 2))
    e = rng.integers(0, max(1, n // 2 + 1) if rng.random() < 0.3 else n, size=(m, 2))
    loops = rng.integers(0, n, size=int(rng.integers(0, 3)))
    e = np.concatenate([e, e[: m // 3, ::-1], e[: m // 4], np.stack([loops, loops], axis=1)])
    return e[rng.permutation(e.shape[0])]


def random_sharing_mask(rng: np.random.Generator, n: int, nontrivial: bool = False) -> np.ndarray:
    """Random subset of sharers; with nontrivial=True, neither empty nor full."""
    while True:
        mask = rng.random(n) < rng.uniform(0.1, 0.9)
        if not nontrivial or 0 < mask.sum() < n:
            return mask


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def powerlaw_degree_pmf(alpha: float, k_min: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(degrees k_min+1..cap, their probabilities) of ``powerlaw_degree_sequence``
    before its parity fix: ceil of a continuous power law of scale k_min, capped.

    P(k) = ((k-1)/k_min)^(1-alpha) - (k/k_min)^(1-alpha) for k_min < k < cap,
    and the whole tail beyond cap-1, ((cap-1)/k_min)^(1-alpha), at cap.
    """
    ks = np.arange(k_min + 1, cap + 1)
    below = (ks - 1.0) / k_min
    pmf = below ** (1.0 - alpha) - (ks / k_min) ** (1.0 - alpha)
    pmf[-1] = below[-1] ** (1.0 - alpha)
    return ks, pmf


def exposure_oracle(g, mask: np.ndarray, v: int) -> int:
    """Does any friend of v share? Friends are neighbors, or in-neighbors
    (sources of incoming links) for directed graphs."""
    if isinstance(g, DiGraph):
        friends = [u for (u, w) in g.edge_array.tolist() if w == v]
    else:
        friends = [b if a == v else a for (a, b) in g.edge_array.tolist() if v in (a, b)]
    return int(any(mask[u] for u in friends))


def sharing_count_oracle(g, mask: np.ndarray) -> list:
    """Each node's number of sharing friends, by a loop over the edges: an edge
    u -> v makes u a friend of v; an undirected edge makes each end the other's."""
    counts = [0] * g.num_nodes
    for u, v in g.edge_array.tolist():
        counts[v] += bool(mask[u])
        if not isinstance(g, DiGraph):
            counts[u] += bool(mask[v])
    return counts


def true_exposure_oracle(g, mask: np.ndarray) -> float:
    return sum(exposure_oracle(g, mask, v) for v in range(g.num_nodes)) / g.num_nodes


def pearson_oracle(x, y) -> float:
    """Dense-matrix Pearson correlation, NaN on zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.var(x) == 0.0 or np.var(y) == 0.0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def assortativity_oracle(g: Graph) -> float:
    """Pearson of endpoint degrees over all edges, both orientations."""
    d = g.degrees
    xs, ys = [], []
    for u, v in g.edge_array.tolist():
        xs += [d[u], d[v]]
        ys += [d[v], d[u]]
    return pearson_oracle(xs, ys)


def friend_distribution_oracle(g: Graph) -> np.ndarray:
    """P(random friend = v) by enumerating every (edge, endpoint) pair."""
    probs = np.zeros(g.num_nodes)
    for u, v in g.edge_array.tolist():
        probs[u] += 0.5 / g.num_edges
        probs[v] += 0.5 / g.num_edges
    return probs


def two_step_distribution_oracle(g: Graph) -> np.ndarray:
    """P(uniform neighbor of a uniform node = v), anchors restricted to
    non-isolated nodes with uniform re-anchoring."""
    anchors = [u for u in range(g.num_nodes) if g.degree(u) > 0]
    probs = np.zeros(g.num_nodes)
    for u in anchors:
        nbrs = g.neighbors(u).tolist()
        for v in nbrs:
            probs[v] += 1.0 / (len(anchors) * len(nbrs))
    return probs


def enum_vanilla_expectation(g, mask: np.ndarray) -> float:
    """Exact E[single-sample vanilla estimate] over the uniform node draw."""
    return true_exposure_oracle(g, mask)


def enum_fp_expectation(g: Graph, mask: np.ndarray) -> float:
    """Exact E[single-sample friend-based estimate] over all (edge, endpoint) draws."""
    d_bar = 2.0 * g.num_edges / g.num_nodes
    total = 0.0
    for u, v in g.edge_array.tolist():
        for w in (u, v):
            total += d_bar * exposure_oracle(g, mask, w) / g.degree(w)
    return total / (2.0 * g.num_edges)


def enum_fp_variance(g: Graph, mask: np.ndarray) -> float:
    """Exact Var[single-sample friend-based estimate] by enumeration."""
    d_bar = 2.0 * g.num_edges / g.num_nodes
    mean = enum_fp_expectation(g, mask)
    second = 0.0
    for u, v in g.edge_array.tolist():
        for w in (u, v):
            second += (d_bar * exposure_oracle(g, mask, w) / g.degree(w)) ** 2
    return second / (2.0 * g.num_edges) - mean * mean


def per_step_moments(g: Graph, trajectory) -> tuple[np.ndarray, np.ndarray]:
    """(f_t, q_t) for t = 0..steps of a cascade, from its exposure times.

    f_t is the exposed fraction after t steps: the cumulative count of the
    exposure times <= t, over n. q_t = d_bar E[f(X)/d(X)] is the fp
    observation's second moment: d_bar times the same cumulative count with
    each node weighted by 1/d, over n. So Var_fp(t) = q_t - f_t^2 and the
    decision rule's lhs_t = f_t - q_t. An exposed node has a friend, so d >= 1.
    """
    times = exposure_times(g, trajectory.activation)
    reached = times <= trajectory.steps
    counts = np.bincount(times[reached], minlength=trajectory.steps + 1)
    weighted = np.bincount(times[reached], weights=1.0 / g.degrees[reached], minlength=trajectory.steps + 1)
    d_bar = 2.0 * g.num_edges / g.num_nodes
    return np.cumsum(counts) / g.num_nodes, d_bar * np.cumsum(weighted) / g.num_nodes


def enum_directed_expectation(g: DiGraph, mask: np.ndarray, mode: str) -> float:
    """Exact E[single-sample directed estimate] over the relevant draw."""
    d_bar = g.num_edges / g.num_nodes
    if mode == "node":
        return true_exposure_oracle(g, mask)
    total = 0.0
    for u, v in g.edge_array.tolist():
        if mode == "friend":
            total += d_bar * exposure_oracle(g, mask, u) / int(g.out_degrees[u])
        else:
            total += d_bar * exposure_oracle(g, mask, v) / int(g.in_degrees[v])
    return total / g.num_edges


def _adjacency_lists(g: Graph) -> list:
    adj = [[] for _ in range(g.num_nodes)]
    for u, v in g.edge_array.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def reference_component_labels(g: Graph) -> np.ndarray:
    """Each node's smallest component member, by one BFS per component from its smallest id."""
    adj = _adjacency_lists(g)
    labels = [-1] * g.num_nodes
    for root in range(g.num_nodes):
        if labels[root] != -1:
            continue
        labels[root] = root
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = root
                    queue.append(v)
    return np.array(labels, dtype=np.int64)


def reference_is_bipartite(g: Graph) -> bool:
    """2-colouring by BFS: False as soon as an edge joins two nodes of one colour."""
    adj = _adjacency_lists(g)
    color = [-1] * g.num_nodes
    for root in range(g.num_nodes):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Percolation threshold
# ---------------------------------------------------------------------------


def nonbacktracking_matrix(g: Graph) -> np.ndarray:
    """Dense 2m x 2m non-backtracking (Hashimoto) matrix.

    Rows and columns are directed edges u->v; entry (u->v, x->y) is 1 when
    v == x and y != u.
    """
    arcs = [(u, v) for u, v in g.edge_array.tolist()] + [(v, u) for u, v in g.edge_array.tolist()]
    b = np.zeros((len(arcs), len(arcs)))
    for i, (u, v) in enumerate(arcs):
        for j, (x, y) in enumerate(arcs):
            b[i, j] = v == x and y != u
    return b


def nb_percolation_threshold(g: Graph) -> float:
    """Bond-percolation (single-attempt ICM) threshold 1/lambda_NB.

    lambda_NB is the leading eigenvalue of the non-backtracking matrix
    (Karrer, Newman & Zdeborova 2014, *Percolation on sparse networks*). It
    is found here on the 2n x 2n Ihara-Bass matrix [[A, I - D], [I, 0]],
    whose spectrum is the non-backtracking one up to eigenvalues +-1, so
    the graph must contain a cycle (lambda_NB >= 1). Every eigenvalue's
    real part is at most the spectral radius, which is itself an
    eigenvalue, so the largest real part is lambda_NB.
    """
    n = g.num_nodes
    adj = sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    eye = sparse.identity(n, format="csr")
    ihara_bass = sparse.bmat([[adj, eye - sparse.diags(g.degrees.astype(float))], [eye, None]], format="csr")
    lam = eigs(ihara_bass, k=1, which="LR", v0=np.ones(2 * n), return_eigenvectors=False)
    return 1.0 / float(lam[0].real)


# ---------------------------------------------------------------------------
# Reference edge core: the row-sort builders and the per-line writer
# ---------------------------------------------------------------------------


def _reference_csr(src: np.ndarray, dst: np.ndarray, n: int):
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def _reference_edges(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64)
    return e.reshape(-1, 2) if e.size else np.empty((0, 2), dtype=np.int64)


def reference_build_undirected(edges, n: int):
    """(edge_array, indptr, indices) by np.unique(axis=0) and np.lexsort."""
    e = _reference_edges(edges)
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    keep = lo != hi
    edge_array = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    src = np.concatenate([edge_array[:, 0], edge_array[:, 1]])
    dst = np.concatenate([edge_array[:, 1], edge_array[:, 0]])
    return (edge_array, *_reference_csr(src, dst, n))


def reference_build_directed(edges, n: int):
    """(edge_array, out_indptr, out_indices, in_indptr, in_indices), same methods."""
    e = _reference_edges(edges)
    edge_array = np.unique(e[e[:, 0] != e[:, 1]], axis=0)
    src, dst = edge_array[:, 0], edge_array[:, 1]
    return (edge_array, *_reference_csr(src, dst, n), *_reference_csr(dst, src, n))


def reference_markovian_spec(g: Graph, mask: np.ndarray) -> tuple:
    """MarkovianSpec.from_graph's four arrays, counted node by node and edge by edge."""
    degrees = g.degrees.tolist()
    support = sorted(set(degrees))
    index = {k: i for i, k in enumerate(support)}
    m = len(support)
    nodes, sharers = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    for d, shares in zip(degrees, mask.tolist()):
        nodes[index[d]] += 1
        sharers[index[d]] += shares
    joint = np.zeros((m, m))
    for u, v in g.edge_array.tolist():
        a, b = index[degrees[u]], index[degrees[v]]
        joint[a, b] += 1.0
        joint[b, a] += 1.0
    return (np.array(support, dtype=np.int64), nodes / g.num_nodes, joint / joint.sum(axis=1, keepdims=True),
            sharers / nodes)


def reference_write_id_rows(path: str, header: str, rows) -> None:
    """The id-file writer, one formatted line per row, each ending in '\\n'."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {header}\n")
        for row in np.asarray(rows).tolist():
            fh.write(f"{' '.join(map(str, row))}\n")


def reference_write_edge_list(path: str, g) -> None:
    """The edge-list writer, one formatted line per edge."""
    reference_write_id_rows(path, f"{'directed' if isinstance(g, DiGraph) else 'undirected'}"
                                  f" nodes={g.num_nodes} edges={g.num_edges}", g.edge_array)


# ---------------------------------------------------------------------------
# Reference id-file reader: one line at a time
# ---------------------------------------------------------------------------


def reference_read_ids(path: str, count: int):
    """(ids of shape (rows, count), number of ignored lines), read line by line.

    A line ends at LF, CRLF or a lone CR, and must be valid UTF-8. A blank
    line, or one whose first non-blank character is '#', is ignored. Any
    other line must hold ``count`` ids of ASCII digits, at most 2**63 - 1,
    separated by spaces or tabs. The first line that breaks a rule raises
    ValueError with path and line; a line that is not UTF-8 names its first
    bad byte.
    """
    expected = "two node ids" if count == 2 else "a node id"
    rows, ignored = [], 0
    with open(path, "rb") as fh:
        lines = re.split(rb"\r\n|\r|\n", fh.read())
    if lines[-1] == b"":  # what follows the last line end, or an empty file
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip(" \t")
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: line {lineno}: invalid UTF-8 byte 0x{raw[err.start]:02x}") from None
        if not line or line.startswith("#"):
            ignored += 1
            continue
        parts = re.split(r"[ \t]+", line)
        if len(parts) != count or not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
            raise ValueError(f"{path}: line {lineno}: expected {expected}, got {line!r}")
        ids = [int(p) for p in parts]
        if min(ids) < 0:
            raise ValueError(f"{path}: line {lineno}: node ids must be non-negative")
        if max(ids) > 2**63 - 1:
            raise ValueError(f"{path}: line {lineno}: node id above {2**63 - 1}")
        rows.append(ids)
    return np.array(rows, dtype=np.int64).reshape(-1, count), ignored


# ---------------------------------------------------------------------------
# Reference CSV writer: one cell at a time
# ---------------------------------------------------------------------------


def reference_write_csv(path: str, comment: str, header: list, rows: list) -> None:
    """The CSV writer, one format_value call per cell."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# Reference estimate paths: a block of samples, one 1-D estimator call per row
# ---------------------------------------------------------------------------


def reference_method_rows(method: str, g, s, n_samples: int, reps: int, rng, d_bar=None,
                          walk_burn_in=None, walk_thin=None) -> np.ndarray:
    """reps estimates from one (reps, n_samples) block drawn from ``rng`` through the public samplers.

    fp-walk first draws the reps' start nodes, uniform over the nodes with
    friends. Each row's bits come from exposure_bits and its estimate from
    one 1-D estimator call.
    """
    shape = (reps, n_samples)
    if method == "vanilla":
        block = sample_uniform_nodes(g, shape, rng)
    elif method == "fp":
        block = sample_random_friends(g, shape, rng)
    elif method == "fp-two-step":
        block = sample_friend_two_step(g, shape, rng)
    elif method == "fp-walk":
        candidates = np.flatnonzero(g.degrees > 0)
        starts = candidates[rng.integers(candidates.size, size=reps)]
        block = random_walk_friends(g, starts, walk_burn_in, walk_thin, n_samples, rng)
    else:
        block = sample_directed_many(g, method[2:], shape, rng)
    estimates = []
    for row in block:
        if method == "vanilla":
            est = vanilla_estimate(exposure_bits(g, s, row))
        elif method.startswith("d-"):
            est = directed_estimates(g, method[2:], row, s, d_bar)
        else:
            est = fp_estimate(g, row, s, d_bar)
        estimates.append(est.estimate)
    return np.array(estimates)


def reference_walk(g: Graph, start: int, burn_in: int, thin: int, num_samples: int, uniforms) -> list:
    """One walker's samples, stepping to neighbor int(u * d) of its d ascending neighbors for each uniform u."""
    adj = [sorted(nbrs) for nbrs in _adjacency_lists(g)]
    positions = [int(start)]
    for u in uniforms[: burn_in + (num_samples - 1) * thin]:
        nbrs = adj[positions[-1]]
        positions.append(nbrs[int(u * len(nbrs))])
    return [positions[burn_in + i * thin] for i in range(num_samples)]


def reference_walk_precondition_failures(g: Graph) -> tuple:
    """The walk's precondition failures in two passes: count the components
    of the nodes with friends by BFS, then 2-colour the graph."""
    labels = reference_component_labels(g)
    components = len({int(labels[v]) for v in range(g.num_nodes) if g.degree(v) > 0})
    if components > 1:
        return (f"fp-walk samples are biased: the nodes with friends form {components} components, "
                "and a walk never leaves the one it starts in",)
    if components == 1 and reference_is_bipartite(g):
        return ("fp-walk samples are biased: the graph is bipartite, so a walk alternates between its two sides",)
    return ()


# ---------------------------------------------------------------------------
# First claims: the rows of a shaping batch that can be applied together
# ---------------------------------------------------------------------------


def first_claims_oracle(slots) -> np.ndarray:
    """Rows of a (k, w) slot array kept by a scan in flat order.

    A row is kept unless one of its slots was seen before, in an earlier row
    or earlier in the same row; every slot of every row, kept or not, counts
    as seen from then on.
    """
    seen = set()
    keep = []
    for row in np.asarray(slots).tolist():
        kept = True
        for slot in row:
            kept = kept and slot not in seen
            seen.add(slot)
        keep.append(kept)
    return np.array(keep, dtype=bool)


# ---------------------------------------------------------------------------
# Reference rewiring: the batched loop with its unsorted edge lookups
# ---------------------------------------------------------------------------


def reference_rewire(
    g: Graph, target: CorrelationTarget, rng: np.random.Generator
) -> tuple[Graph, ShapingResult, list]:
    """rewire_to_assortativity with unsorted edge lookups: each batch looks up
    all 4K new-edge keys of both pairings, in draw order, by searchsorted, picks
    the better pairing by argmax, and keeps first claims by the flat-order scan.
    Also returns the trace: the coefficient after each applied move, in order."""
    if g.num_edges < 2:
        raise ValueError("rewiring needs at least two edges")
    n_points, sum_x, sum_xx, sum_xy = _assortativity_moments(g)
    mean_sq = (sum_x / n_points) ** 2
    denom = sum_xx / n_points - mean_sq
    if denom <= 0.0:  # regular graph: coefficient undefined, nothing to shape
        return g, ShapingResult(math.nan, 0, False, "undefined"), []

    def rho(sxy):
        return (sxy / n_points - mean_sq) / denom

    n, m = g.num_nodes, g.num_edges
    deg = g.degrees.astype(np.int64)  # degree products and gains fit int64 while degrees stay below 2**31
    # the edges as ascending packed keys u*n + v (u < v); edge_array is sorted
    keys = g.edge_array[:, 0] * n + g.edge_array[:, 1]
    batch = min(max(m // 8, REWIRE_BATCH_MIN), REWIRE_BATCH_MAX)

    def new_edge(p, q):
        """Packed key of edge {p, q}, and whether it is neither a self-loop nor in the graph."""
        key = np.minimum(p, q) * n + np.maximum(p, q)
        return key, (p != q) & (keys[np.minimum(np.searchsorted(keys, key), m - 1)] != key)

    trace: list[float] = []
    current = rho(sum_xy)
    iters = 0
    moved = False
    converged = abs(current - target.target) <= target.tolerance
    while not converged and iters < target.max_iters:
        k = min(batch, target.max_iters - iters)
        i = rng.integers(m, size=k)
        j = rng.integers(m - 1, size=k)
        j += j >= i
        a, b = np.divmod(keys[i], n)
        c, d = np.divmod(keys[j], n)
        up = target.target > current
        # keeping the current pairing is the zero-gain baseline; row 0 scores the
        # alternative pairing (a c)(b d) against it, row 1 (a d)(b c)
        q, t = np.stack([c, d]), np.stack([d, c])
        k1, ok1 = new_edge(a, q)
        k2, ok2 = new_edge(b, t)
        gain = deg[a] * deg[q] + deg[b] * deg[t] - (deg[a] * deg[b] + deg[c] * deg[d])
        score = np.where(ok1 & ok2, gain if up else -gain, 0)
        best = (np.argmax(score, axis=0), np.arange(k))  # a tie keeps (a c)(b d)
        k1, k2, gain = k1[best], k2[best], gain[best]
        acc = np.flatnonzero(score[best] > 0)
        acc = acc[first_claims_oracle(np.stack([i[acc], j[acc]], axis=1))]
        acc = acc[first_claims_oracle(np.stack([k1[acc], k2[acc]], axis=1))]
        running = rho(sum_xy + 2 * np.cumsum(gain[acc]))
        band = target.target - target.tolerance if up else target.target + target.tolerance
        moves, drawn = _cut(acc, running >= band if up else running <= band, k)
        iters += drawn
        acc = acc[:moves]
        if acc.size:
            moved = True
            added = np.sort(np.concatenate([k1[acc], k2[acc]]))
            keys = np.delete(keys, np.concatenate([i[acc], j[acc]]))
            keys = np.insert(keys, np.searchsorted(keys, added), added)
            sum_xy += 2 * int(gain[acc].sum())
            current = rho(sum_xy)
            trace += running[:moves].tolist()
        converged = abs(current - target.target) <= target.tolerance
    # rewiring has no floor or ceiling: a loop that did not converge spent its budget
    result = ShapingResult(current, iters, converged, "band" if converged else "budget")
    if not moved:
        return g, result, trace
    return build_undirected(np.stack(np.divmod(keys, n), axis=1), n), result, trace


# ---------------------------------------------------------------------------
# Reference label swapping: the batched loop written out on its own
# ---------------------------------------------------------------------------


def reference_swap(
    g: Graph, s: SharingState, target: CorrelationTarget, rng: np.random.Generator
) -> tuple[SharingState, ShapingResult, list]:
    """swap_to_correlation as it stood with its own loop: the label-swap climb
    written out in full, with its floor and ceiling stop and the flat-order
    scan for first claims. Also returns the trace: the correlation after each
    applied move, in order."""
    n = g.num_nodes
    m = s.num_sharers
    if not 0 < m < n:
        raise ValueError("swapping needs a sharer set that is neither empty nor everyone")
    d = g.degrees.astype(np.int64)
    mean_d = float(d.mean())
    var_d = float(np.mean(d * d) - mean_d * mean_d)
    p_bar = m / n
    scale = math.sqrt(var_d) * math.sqrt(p_bar * (1.0 - p_bar))
    if scale == 0.0:
        return s, ShapingResult(math.nan, 0, False, "undefined"), []

    def rho(tot):
        return (tot / n - mean_d * p_bar) / scale

    sharers = s.sharers.copy()
    others = np.flatnonzero(~s.mask)
    total = int(d[sharers].sum())  # only moving part of the correlation
    ordered = np.sort(d)
    floor, ceiling = int(ordered[:m].sum()), int(ordered[n - m :].sum())
    trace: list[float] = []
    current = rho(total)
    iters = 0
    moved = False
    converged = abs(current - target.target) <= target.tolerance
    while not converged and iters < target.max_iters:
        up = target.target > current
        bound = ceiling if up else floor
        if total == bound:  # no swap can move the total further this way
            break
        k = min(SWAP_BATCH, target.max_iters - iters)
        iu = rng.integers(m, size=k)
        iv = rng.integers(n - m, size=k)
        gain = d[others[iv]] - d[sharers[iu]]
        acc = np.flatnonzero(gain > 0 if up else gain < 0)
        acc = acc[first_claims_oracle(np.stack([iu[acc], iv[acc] + m], axis=1))]  # non-sharer slots after sharer slots
        totals = total + np.cumsum(gain[acc])
        running = rho(totals)
        band = target.target - target.tolerance if up else target.target + target.tolerance
        moves, drawn = _cut(acc, (running >= band if up else running <= band) | (totals == bound), k)
        iters += drawn
        acc = acc[:moves]
        if acc.size:
            su, sv = iu[acc], iv[acc]
            sharers[su], others[sv] = others[sv], sharers[su]
            total = int(totals[moves - 1])
            current = rho(total)
            trace += running[:moves].tolist()
        converged = abs(current - target.target) <= target.tolerance
    if converged:
        stop = "band"
    elif target.target > current:
        stop = "ceiling" if total == ceiling else "budget"
    else:
        stop = "floor" if total == floor else "budget"
    return SharingState.from_sharers(sharers, n), ShapingResult(current, iters, converged, stop), trace


# ---------------------------------------------------------------------------
# Reference network recipe: the shaping steps written out one by one
# ---------------------------------------------------------------------------


def reference_shaped_network(g, rng, rkk_target, sharing_prob, rho_target, tolerance, max_iters):
    """(graph, sharing, rkk_achieved, rho_achieved, missed, stops) for a generated graph.

    Rewire toward rkk_target unless it is None; then, unless sharing_prob
    is None (sharing None, rho_achieved None), draw Bernoulli sharers and
    swap them toward rho_target when it is set and the sharer set is
    neither empty nor everyone. ``missed`` flags a loop that stopped beyond
    tolerance, or a rho target with a sharer set that cannot be swapped.
    ``stops`` holds each loop's ShapingResult.stop, "skipped" for a loop
    that did not run, rkk first.
    """
    missed = False
    rkk_stop = rho_stop = "skipped"
    if rkk_target is None:
        rkk_achieved = assortativity_coefficient(g)
    else:
        g, res = rewire_to_assortativity(g, CorrelationTarget(rkk_target, tolerance, max_iters), rng)
        rkk_achieved, rkk_stop = res.achieved, res.stop
        missed |= not res.converged
    if sharing_prob is None:
        return g, None, rkk_achieved, None, missed, (rkk_stop, rho_stop)
    s = bernoulli_sharing(g, sharing_prob, rng)
    if rho_target is None or not 0 < s.num_sharers < g.num_nodes:
        rho_achieved = degree_sharing_correlation(g, s)
        missed |= rho_target is not None
    else:
        s, res = swap_to_correlation(g, s, CorrelationTarget(rho_target, tolerance, max_iters), rng)
        rho_achieved, rho_stop = res.achieved, res.stop
        missed |= not res.converged
    return g, s, rkk_achieved, rho_achieved, missed, (rkk_stop, rho_stop)

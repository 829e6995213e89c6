"""Independent brute-force oracles and small-graph builders for the tests.

Everything here recomputes quantities from first principles (dense loops,
full enumerations, textbook formulas) so the tests never reuse the code
paths they are checking.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigs

from exposure_lab import (
    DiGraph,
    Graph,
    build_directed,
    build_undirected,
    directed_estimates,
    exposure_bits,
    fp_estimate,
    random_walk_friends,
    sample_directed_many,
    sample_friend_two_step,
    sample_random_friends,
    sample_uniform_nodes,
    vanilla_estimate,
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


def random_sharing_mask(rng: np.random.Generator, n: int, nontrivial: bool = False) -> np.ndarray:
    """Random subset of sharers; with nontrivial=True, neither empty nor full."""
    while True:
        mask = rng.random(n) < rng.uniform(0.1, 0.9)
        if not nontrivial or 0 < mask.sum() < n:
            return mask


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def exposure_oracle(g, mask: np.ndarray, v: int) -> int:
    """Does any friend of v share? Friends are neighbors, or in-neighbors
    (sources of incoming links) for directed graphs."""
    if isinstance(g, DiGraph):
        friends = [u for (u, w) in g.edge_array.tolist() if w == v]
    else:
        friends = [b if a == v else a for (a, b) in g.edge_array.tolist() if v in (a, b)]
    return int(any(mask[u] for u in friends))


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


def reference_write_edge_list(path: str, g) -> None:
    """The edge-list writer, one formatted line per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {'directed' if isinstance(g, DiGraph) else 'undirected'}"
                 f" nodes={g.num_nodes} edges={g.num_edges}\n")
        for u, v in g.edge_array.tolist():
            fh.write(f"{u} {v}\n")


# ---------------------------------------------------------------------------
# Reference rep loop: one 1-D estimator call per rep
# ---------------------------------------------------------------------------


def reference_rep_estimates(method: str, g, s, n_samples: int, generators, d_bar=None,
                            walk_burn_in=None, walk_thin=None) -> np.ndarray:
    """One estimate per generator, each drawn and estimated on its own.

    Rep r draws its samples from generators[r] exactly as a single estimate
    would, and each rep calls the estimator once with its 1-D samples.
    """
    estimates = []
    for rng in generators:
        if method == "vanilla":
            est = vanilla_estimate(exposure_bits(g, s, sample_uniform_nodes(g, n_samples, rng)))
        elif method == "fp":
            est = fp_estimate(g, sample_random_friends(g, n_samples, rng), s, d_bar)
        elif method == "fp-two-step":
            est = fp_estimate(g, sample_friend_two_step(g, n_samples, rng), s, d_bar)
        elif method == "fp-walk":
            candidates = np.flatnonzero(g.degrees > 0)
            start = int(candidates[rng.integers(candidates.size)])
            est = fp_estimate(g, random_walk_friends(g, start, walk_burn_in, walk_thin, n_samples, rng), s, d_bar)
        else:
            mode = method[2:]
            est = directed_estimates(g, mode, sample_directed_many(g, mode, n_samples, rng), s, d_bar)
        estimates.append(est.estimate)
    return np.array(estimates)

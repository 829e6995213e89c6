"""Immutable graph storage and the sampling primitives estimators consume.

Graphs are stored in compressed sparse row form (sorted neighbor lists)
plus a flat edge array, so uniform edge sampling -- the primitive behind
friend sampling -- is O(1). Construction simplifies the input: self-loops
are dropped and parallel edges collapsed, and degrees always reflect the
simplified graph. Deduplication and CSR ordering each sort one array of
int64 packed keys u*n + v, so n*n must stay below 2**63.
"""

from __future__ import annotations

import numpy as np

WALK_BURN_IN_FACTOR = 10  # default burn-in = 10 * |V|, a conservative mixing heuristic


def _as_edge_array(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be a sequence of (u, v) pairs")
    return e


def _packed_key_base(num_nodes) -> int:
    """Validated node count n, the base of the packed edge key u*n + v.

    Keys must fit int64, so n*n < 2**63 (n <= 3037000499); checked before
    anything is allocated.
    """
    num_nodes = int(num_nodes)
    if num_nodes < 0:
        raise ValueError("num_nodes must be non-negative")
    if num_nodes * num_nodes >= 2**63:
        raise ValueError(f"num_nodes={num_nodes} too large: packed edge keys need num_nodes**2 < 2**63")
    return num_nodes


def sorted_unique(values) -> np.ndarray:
    """np.unique(values) for integer arrays: the distinct values, flattened and ascending, from one sort."""
    keys = np.sort(values, axis=None)
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def _unique_pairs(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Distinct (src, dst) pairs as an (m, 2) array in lexicographic order."""
    return np.stack(np.divmod(sorted_unique(src * num_nodes + dst), num_nodes), axis=1)


def _csr_from_pairs(src: np.ndarray, dst: np.ndarray, num_nodes: int):
    """Sorted-CSR adjacency from (src, dst) pairs. dst lists sorted per row."""
    num_nodes = _packed_key_base(num_nodes)
    indices = np.sort(src * num_nodes + dst) % num_nodes
    counts = np.bincount(src, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


class Graph:
    """Immutable undirected simple graph.

    ``edge_array`` holds each edge once as (u, v) with u <= v, in
    lexicographic order; ``indptr``/``indices`` are the CSR adjacency with
    ascending neighbor lists. Safe to share across threads: nothing here
    mutates after construction.
    """

    __slots__ = ("num_nodes", "indptr", "indices", "edge_array", "degrees")

    def __init__(self, num_nodes: int, indptr, indices, edge_array):
        self.num_nodes = int(num_nodes)
        self.indptr = indptr
        self.indices = indices
        self.edge_array = edge_array
        self.degrees = indptr[1:] - indptr[:-1]
        _freeze(self.indptr, self.indices, self.edge_array, self.degrees)

    @property
    def num_edges(self) -> int:
        return self.edge_array.shape[0]

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of v (a read-only view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


class DiGraph:
    """Immutable directed simple graph.

    An edge u -> v means v follows u: u is a friend of v. ``edge_array``
    holds distinct (u, v) pairs; out- and in-adjacency are kept mutually
    consistent with sorted neighbor lists.
    """

    __slots__ = (
        "num_nodes",
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
        "edge_array",
        "out_degrees",
        "in_degrees",
    )

    def __init__(self, num_nodes: int, edge_array):
        self.num_nodes = int(num_nodes)
        self.edge_array = edge_array
        src, dst = edge_array[:, 0], edge_array[:, 1]
        self.out_indptr, self.out_indices = _csr_from_pairs(src, dst, num_nodes)
        self.in_indptr, self.in_indices = _csr_from_pairs(dst, src, num_nodes)
        self.out_degrees = self.out_indptr[1:] - self.out_indptr[:-1]
        self.in_degrees = self.in_indptr[1:] - self.in_indptr[:-1]
        _freeze(
            self.edge_array,
            self.out_indptr,
            self.out_indices,
            self.in_indptr,
            self.in_indices,
            self.out_degrees,
            self.in_degrees,
        )

    @property
    def num_edges(self) -> int:
        return self.edge_array.shape[0]

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Friends of v: the sources of v's incoming links."""
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def __repr__(self) -> str:
        return f"DiGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def build_undirected(edges, num_nodes: int) -> Graph:
    """Build a simple undirected graph from an edge list.

    Self-loops are dropped, parallel edges (in either orientation)
    collapsed. Endpoints must lie in [0, num_nodes).
    """
    num_nodes = _packed_key_base(num_nodes)
    e = _as_edge_array(edges)
    if e.size and (e.min() < 0 or e.max() >= num_nodes):
        raise ValueError(f"edge endpoint out of range [0, {num_nodes})")
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    keep = lo != hi
    edge_array = _unique_pairs(lo[keep], hi[keep], num_nodes)
    src = np.concatenate([edge_array[:, 0], edge_array[:, 1]])
    dst = np.concatenate([edge_array[:, 1], edge_array[:, 0]])
    indptr, indices = _csr_from_pairs(src, dst, num_nodes)
    return Graph(num_nodes, indptr, indices, edge_array)


def build_directed(edges, num_nodes: int) -> DiGraph:
    """Build a simple directed graph: self-loops dropped, duplicate (u, v) collapsed."""
    num_nodes = _packed_key_base(num_nodes)
    e = _as_edge_array(edges)
    if e.size and (e.min() < 0 or e.max() >= num_nodes):
        raise ValueError(f"edge endpoint out of range [0, {num_nodes})")
    keep = e[:, 0] != e[:, 1]
    edge_array = _unique_pairs(e[keep, 0], e[keep, 1], num_nodes)
    return DiGraph(num_nodes, edge_array)


def average_degree(g) -> float:
    """2|E|/|V| for undirected graphs, |E|/|V| for directed ones (0 if edgeless)."""
    if g.num_nodes == 0:
        return 0.0
    if isinstance(g, DiGraph):
        return g.num_edges / g.num_nodes
    return 2.0 * g.num_edges / g.num_nodes


# ---------------------------------------------------------------------------
# Sampling primitives
# ---------------------------------------------------------------------------


def sample_uniform_nodes(g, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` nodes drawn uniformly from V, with replacement."""
    if g.num_nodes < 1:
        raise ValueError("cannot sample a node from an empty graph")
    return rng.integers(0, g.num_nodes, size=size)


def sample_random_friends(g: Graph, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` random friends: each a uniform edge, then a fair coin on its two endpoints.

    Returns node v with probability d(v) / 2|E| per draw.
    """
    if g.num_edges < 1:
        raise ValueError("cannot sample a friend from an edgeless graph")
    idx = rng.integers(0, g.num_edges, size=size)
    side = rng.integers(0, 2, size=size)
    return g.edge_array[idx, side]


def sample_friend_two_step(g: Graph, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` uniform neighbors of uniform non-isolated anchor nodes.

    Returns v with probability (1/|V'|) * sum over u in N(v) of 1/d(u) per
    draw, V' being the nodes of degree >= 1 (the law of a uniform anchor
    re-drawn until it has a neighbor).
    """
    if g.num_edges < 1:
        raise ValueError("no node with degree >= 1 to anchor two-step sampling")
    candidates = np.flatnonzero(g.degrees > 0)
    anchors = candidates[rng.integers(0, candidates.size, size=size)]
    return g.indices[g.indptr[anchors] + rng.integers(0, g.degrees[anchors])]


def sample_directed_many(g: DiGraph, mode: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` samples of a directed graph as nodes, friends, or followers.

    node: uniform over V. friend: the source end of a uniform link,
    P(v) proportional to out-degree. follower: the target end,
    P(v) proportional to in-degree.
    """
    if mode == "node":
        return sample_uniform_nodes(g, size, rng)
    if mode not in ("friend", "follower"):
        raise ValueError(f"unknown sampling mode: {mode!r}")
    if g.num_edges < 1:
        raise ValueError(f"cannot sample a {mode} from an edgeless graph")
    idx = rng.integers(0, g.num_edges, size=size)
    return g.edge_array[idx, 0 if mode == "friend" else 1]


def random_walk_friends(
    g: Graph,
    start: int,
    burn_in: int | None = None,
    thin: int | None = None,
    num_samples: int = 1,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Degree-proportional node samples from a simple random walk.

    The first sample is the position after ``burn_in`` steps; each later
    sample follows ``thin`` further steps. The empirical distribution
    converges to d(v)/2|E| only when the nodes of degree >= 1 form one
    connected, non-bipartite graph; walk_precondition_failures checks
    that. Defaults: burn_in = 10|V|, thin = |V|.
    """
    if burn_in is None:
        burn_in = WALK_BURN_IN_FACTOR * g.num_nodes
    if thin is None:
        thin = g.num_nodes
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if num_samples < 0:
        raise ValueError("num_samples must be >= 0")
    if not (0 <= start < g.num_nodes) or g.degree(start) == 0:
        raise ValueError("walk start must be a node with degree >= 1")

    out = np.empty(num_samples, dtype=np.int64)
    if num_samples == 0:
        return out
    total_steps = burn_in + (num_samples - 1) * thin
    # Plain-list walk: per-step cost dominates, so avoid numpy scalar indexing.
    uniforms = rng.random(total_steps).tolist()
    indptr = g.indptr.tolist()
    indices = g.indices.tolist()
    cur = int(start)
    pos = 0
    for i in range(num_samples):
        for _ in range(burn_in if i == 0 else thin):
            lo = indptr[cur]
            deg = indptr[cur + 1] - lo
            j = int(uniforms[pos] * deg)
            cur = indices[lo + (j if j < deg else deg - 1)]
            pos += 1
        out[i] = cur
    return out


# ---------------------------------------------------------------------------
# Structure checks (the random-walk preconditions)
# ---------------------------------------------------------------------------


def gather_segments(indptr: np.ndarray, indices: np.ndarray, rows) -> tuple:
    """Concatenated CSR segments ``indices[indptr[r]:indptr[r + 1]]`` of ``rows``.

    Rows keep their order and repeats. Returns (values, bounds): row i's
    segment is ``values[bounds[i]:bounds[i + 1]]``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    bounds = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    offsets = np.repeat(starts - bounds[:-1], lengths)
    return indices[np.arange(int(bounds[-1])) + offsets], bounds


def component_labels(edges, num_nodes: int) -> np.ndarray:
    """Each node's smallest component member, by hook-and-jump labelling (Shiloach & Vishkin 1982).

    A round hooks each root that an edge joins to a smaller root onto the
    smallest such root, then jumps pointers until every label is a root.
    """
    labels = np.arange(num_nodes, dtype=np.int64)
    u, v = _as_edge_array(edges).T
    lu, lv = u, v  # every node starts as its own root
    while u.size:
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
        lu, lv = labels[u], labels[v]
        cross = lu != lv
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
    return labels


def is_connected(g: Graph) -> bool:
    """True when every node is reachable from node 0 (vacuously for |V| <= 1)."""
    return bool((component_labels(g.edge_array, g.num_nodes) == 0).all())


def is_bipartite(g: Graph) -> bool:
    """True when no node shares a label with its copy in the double cover, edges (u, v+n) and (u+n, v)."""
    n, (u, v) = g.num_nodes, g.edge_array.T
    labels = component_labels(np.concatenate([np.stack([u, v + n], 1), np.stack([u + n, v], 1)]), 2 * n)
    return not np.any(labels[:n] == labels[n:])


def walk_precondition_failures(g: Graph) -> tuple:
    """Why random_walk_friends' samples are not degree-proportional on g; empty when they are.

    The walk's law converges to d(v)/2|E| when the nodes of degree >= 1
    form one connected, non-bipartite graph; isolated nodes are never
    visited, so they do not count.
    """
    active = np.flatnonzero(g.degrees > 0)
    components = np.count_nonzero(component_labels(g.edge_array, g.num_nodes)[active] == active)
    if components > 1:
        return (f"fp-walk samples are biased: the nodes with friends form {components} components, "
                "and a walk never leaves the one it starts in",)
    if components == 1 and is_bipartite(g):
        return ("fp-walk samples are biased: the graph is bipartite, so a walk alternates between its two sides",)
    return ()

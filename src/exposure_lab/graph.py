"""Immutable graph storage and the sampling primitives estimators consume.

A graph is a flat edge array plus its degrees, so uniform edge sampling --
the primitive behind friend sampling -- is O(1). Its friend lists, in
compressed sparse row form (sorted neighbor lists), are built on their
first read: uniform-node and random-friend estimates never sort them.
Construction simplifies the input: self-loops are dropped and parallel
edges collapsed, and degrees always reflect the simplified graph.
Deduplication and CSR ordering each sort one array of int64 packed keys
u*n + v, so n*n must stay below 2**63.
"""

from __future__ import annotations

import numpy as np

WALK_BURN_IN_FACTOR = 10  # default burn-in = 10 * |V|, a conservative mixing heuristic
WALK_CHUNK_UNIFORMS = 1 << 16  # uniforms per draw of random_walk_friends: bounds its block's memory
_GATHER_BLOCK_ENTRIES = 1 << 16  # entries per block of gather_segments: bounds its callers' temporaries


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


def _simple_edges(edges, num_nodes, directed: bool, adopt: bool = False) -> tuple:
    """Checked (n, edge_array): the distinct non-loop pairs in lexicographic order, undirected ones as u <= v.

    Rows already in that form, as write_edge_list writes them, are kept as
    they are: copied, or with ``adopt`` (the caller hands over an int64
    array it reads no more) returned themselves.
    """
    num_nodes = _packed_key_base(num_nodes)
    e = _as_edge_array(edges)
    if e.size and (e.min() < 0 or e.max() >= num_nodes):
        raise ValueError(f"edge endpoint out of range [0, {num_nodes})")
    src, dst = e[:, 0], e[:, 1]
    if directed:
        keys = src * num_nodes
    else:  # min*n + max, built in one array as min*(n - 1) + src + dst
        keys = np.minimum(src, dst)
        keys *= num_nodes - 1
        keys += src
    keys += dst
    loops = src == dst
    if loops.any():
        keys = keys[~loops]
    if not (keys[1:] > keys[:-1]).all():
        keys = sorted_unique(keys)
    elif keys.size == e.shape[0] and (directed or not (src > dst).any()):
        return num_nodes, e if adopt else e.copy()
    return num_nodes, _edges_from_keys(keys, num_nodes)


def _edges_from_keys(keys: np.ndarray, num_nodes: int) -> np.ndarray:
    """The (u, v) rows of packed keys u*n + v, unpacked into one new array."""
    edge_array = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, num_nodes, out=(edge_array[:, 0], edge_array[:, 1]))
    return edge_array


def _csr_from_keys(keys: np.ndarray, counts: np.ndarray, num_nodes: int):
    """Sorted-CSR (indptr, indices) from each row's count and packed keys row*n + col, sorted and reduced in place."""
    keys.sort()
    np.remainder(keys, num_nodes, out=keys)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, keys


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


class _FriendLists:
    """What Graph and DiGraph share: the edge count and the friend CSR, built on its first read.

    A subclass sets ``num_nodes`` and ``edge_array`` and gives
    ``_friend_keys()``: each friend-list entry as a packed key row*n + friend,
    and each row's entry count. ``indptr``/``indices`` are sorted from
    them on the first read of either, frozen, and kept in ``_csr``, the one
    slot filled after construction. Threads racing on the first read each
    build equal arrays; either may be kept.
    """

    __slots__ = ("num_nodes", "edge_array", "_csr")

    @property
    def num_edges(self) -> int:
        return self.edge_array.shape[0]

    @property
    def indptr(self) -> np.ndarray:
        """Row offsets: node v's friends are ``indices[indptr[v]:indptr[v + 1]]``."""
        return self._friend_csr()[0]

    @property
    def indices(self) -> np.ndarray:
        """Every node's ascending friend list, concatenated in node order."""
        return self._friend_csr()[1]

    def _friend_csr(self) -> tuple:
        try:
            return self._csr
        except AttributeError:
            csr = _csr_from_keys(*self._friend_keys(), self.num_nodes)
            _freeze(*csr)
            self._csr = csr
            return csr

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


class Graph(_FriendLists):
    """Immutable undirected simple graph.

    ``edge_array`` holds each edge once as (u, v) with u <= v, in
    lexicographic order; ``indptr``/``indices`` are the CSR adjacency with
    ascending neighbor lists, built on first read. Safe to share across
    threads: no array changes once stored, and the one slot filled after
    construction, the CSR's, is filled once (see _FriendLists).
    """

    __slots__ = ("degrees",)
    _FRIENDS_PER_EDGE = 2  # an edge enters the friend lists of both its ends

    def __init__(self, num_nodes: int, edge_array):
        self.num_nodes = n = int(num_nodes)
        self.edge_array = edge_array
        self.degrees = np.bincount(edge_array.reshape(-1), minlength=n)
        _freeze(self.edge_array, self.degrees)

    def _friend_keys(self) -> tuple:
        # row (u, v) packs to the keys u*n + v and v*n + u of its two orientations
        n = self.num_nodes
        return (self.edge_array @ [[n, 1], [1, n]]).reshape(-1), self.degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of v (a read-only view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.degrees[v])


class DiGraph(_FriendLists):
    """Immutable directed simple graph.

    An edge u -> v means v follows u: u is a friend of v. ``edge_array``
    holds distinct (u, v) pairs in lexicographic order; ``indptr``/``indices``
    are, as on Graph, the CSR of each node's ascending friend list (the
    sources of its incoming links), built on first read. Of the out side
    only ``out_degrees`` is kept.
    """

    __slots__ = ("out_degrees", "in_degrees")
    _FRIENDS_PER_EDGE = 1  # an edge u -> v enters v's friend list only

    def __init__(self, num_nodes: int, edge_array):
        self.num_nodes = n = int(num_nodes)
        self.edge_array = edge_array
        self.out_degrees = np.bincount(edge_array[:, 0], minlength=n)
        self.in_degrees = np.bincount(edge_array[:, 1], minlength=n)
        _freeze(self.edge_array, self.out_degrees, self.in_degrees)

    def _friend_keys(self) -> tuple:
        # row (src, dst) packs to the key dst*n + src: rows are the friend lists
        return self.edge_array @ [1, self.num_nodes], self.in_degrees


def build_undirected(edges, num_nodes: int) -> Graph:
    """Build a simple undirected graph from an edge list.

    Self-loops are dropped, parallel edges (in either orientation)
    collapsed. Endpoints must lie in [0, num_nodes).
    """
    return Graph(*_simple_edges(edges, num_nodes, directed=False))


def build_directed(edges, num_nodes: int) -> DiGraph:
    """Build a simple directed graph: self-loops dropped, duplicate (u, v) collapsed."""
    return DiGraph(*_simple_edges(edges, num_nodes, directed=True))


def average_degree(g) -> float:
    """Friend-list entries per node: 2|E|/|V| undirected, |E|/|V| directed (0.0 on an empty graph)."""
    return g._FRIENDS_PER_EDGE * g.num_edges / g.num_nodes if g.num_nodes else 0.0


# ---------------------------------------------------------------------------
# Sampling primitives: ``size`` is a sample count or a shape such as (reps, n)
# ---------------------------------------------------------------------------


def sample_uniform_nodes(g, size: int | tuple, rng: np.random.Generator) -> np.ndarray:
    """``size`` nodes drawn uniformly from V, with replacement."""
    if g.num_nodes < 1:
        raise ValueError("cannot sample a node from an empty graph")
    return rng.integers(0, g.num_nodes, size=size)


def sample_random_friends(g: Graph, size: int | tuple, rng: np.random.Generator) -> np.ndarray:
    """``size`` random friends: each a uniform edge, then a fair coin on its two endpoints.

    Returns node v with probability d(v) / 2|E| per draw.
    """
    if g.num_edges < 1:
        raise ValueError("cannot sample a friend from an edgeless graph")
    idx = rng.integers(0, g.num_edges, size=size)
    side = rng.integers(0, 2, size=size)
    return g.edge_array[idx, side]


def sample_friend_two_step(g: Graph, size: int | tuple, rng: np.random.Generator) -> np.ndarray:
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


def sample_directed_many(g: DiGraph, mode: str, size: int | tuple, rng: np.random.Generator) -> np.ndarray:
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


def _walk_lengths(g, burn_in: int | None, thin: int | None) -> tuple[int, int]:
    """random_walk_friends' checked (burn_in, thin) on g; None gives the default 10|V| or |V|."""
    burn_in = WALK_BURN_IN_FACTOR * g.num_nodes if burn_in is None else burn_in
    thin = g.num_nodes if thin is None else thin
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    return burn_in, thin


def random_walk_friends(
    g: Graph,
    start,
    burn_in: int | None = None,
    thin: int | None = None,
    num_samples: int = 1,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Degree-proportional node samples from simple random walks.

    ``start`` is one node, or a 1-D array of R nodes whose R walkers step
    in lockstep: one CSR gather per step serves them all. Step t of walker
    k moves to neighbor floor(u * d) of its d neighbors, u being entry
    (t, k) of a (steps, R) block of uniforms drawn WALK_CHUNK_UNIFORMS at a
    time, so a walker's path does not depend on R or on the chunking, and a
    scalar start reads the uniforms ``rng.random(steps)`` would give. The
    first sample is the position after ``burn_in`` steps; each later sample
    follows ``thin`` further steps. Returns num_samples nodes for a scalar
    start, an (R, num_samples) array otherwise. The samples converge to
    d(v)/2|E| only when the nodes of degree >= 1 form one connected,
    non-bipartite graph; walk_precondition_failures checks that. Defaults:
    burn_in = 10|V|, thin = |V|.
    """
    burn_in, thin = _walk_lengths(g, burn_in, thin)
    if num_samples < 0:
        raise ValueError("num_samples must be >= 0")
    starts = np.asarray(start, dtype=np.int64)
    cur = starts.reshape(-1)
    if ((cur < 0) | (cur >= g.num_nodes)).any() or (g.degrees[cur] == 0).any():
        raise ValueError("walk start must be a node with degree >= 1")

    out = np.empty((num_samples, cur.size), dtype=np.int64)  # transposed on return
    total_steps = burn_in + (num_samples - 1) * thin if num_samples else 0
    if num_samples and burn_in == 0:
        out[0] = cur
    # u < 1 is a multiple of 2**-53, so u * d rounds below d for any degree d < 2**53; the degrees
    # are converted to float64 once, exactly, rather than cast on every step's product
    indptr, indices, degrees = g.indptr, g.indices, g.degrees.astype(np.float64)
    rows = max(WALK_CHUNK_UNIFORMS // max(cur.size, 1), 1)
    step = 0
    while step < total_steps:
        for u in rng.random((min(rows, total_steps - step), cur.size)):
            cur = indices[indptr[cur] + (u * degrees[cur]).astype(np.int64)]
            step += 1
            if step >= burn_in and (step - burn_in) % thin == 0:
                out[(step - burn_in) // thin] = cur
    return np.ascontiguousarray(out.T) if starts.ndim else out[:, 0]


def gather_segments(indptr: np.ndarray, indices: np.ndarray, rows):
    """Yield the concatenated CSR segments ``indices[indptr[r]:indptr[r + 1]]`` of ``rows``, in blocks.

    Rows keep their order and repeats. A block holds _GATHER_BLOCK_ENTRIES entries, the last one up to
    that, and may cut a segment; no entries give no block. So no temporary grows with the entry count,
    as long as the caller lets go of a block before it asks for the next.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    begins = np.subtract(ends, lengths, out=lengths)  # row i's entries are positions begins[i]:ends[i]
    shift = np.subtract(starts, begins, out=starts)  # and position p among them is indices[p + shift[i]]
    total = int(ends[-1]) if ends.size else 0
    cuts = np.minimum(np.arange(0, total + _GATHER_BLOCK_ENTRIES, _GATHER_BLOCK_ENTRIES), total)
    # each cut with the row that holds its entry; a block's rows run from its first cut's to its last's
    bounds = list(zip(cuts.tolist(), np.searchsorted(ends, cuts, side="right").tolist()))
    for (lo, first), (hi, last) in zip(bounds, bounds[1:]):
        held = slice(first, last + 1)
        taken = np.minimum(ends[held], hi) - np.maximum(begins[held], lo)
        yield indices[np.arange(lo, hi) + np.repeat(shift[held], taken)]


# ---------------------------------------------------------------------------
# Structure checks (the random-walk preconditions)
# ---------------------------------------------------------------------------


def _labels_and_sides(edges, num_nodes: int) -> tuple:
    """Each node's smallest component member and its side, 0 or 1, by hook-and-jump labelling (Shiloach & Vishkin 1982).

    A node holds 2*label + side. A round hooks each root that an edge (u, v)
    joins to a smaller root onto the smallest such root, on side
    side(u) ^ side(v) ^ 1, then jumps pointers, composing sides, until every
    label is a root. The hooked edges span each component, so a component is
    bipartite exactly when every one of its edges joins two sides. The codes
    are int32 while 2n fits, which halves the bytes of every gather, and each
    round works them out in place; both arrays come back as int64.
    """
    dtype = np.int32 if 2 * num_nodes < 2**31 else np.int64
    code = 2 * np.arange(num_nodes, dtype=dtype)  # every node starts as its own root, on side 0
    u, v = _as_edge_array(edges).T
    # in the first round every code is 2x: no gathers, and the larger end hooks onto the smaller on side 1
    # (ufunc.at takes its fast path only when the values match the codes' dtype)
    np.minimum.at(code, np.maximum(u, v), np.minimum(u, v, dtype=dtype, casting="same_kind") << 1 | 1)
    while True:
        jumped = code[code >> 1] ^ (code & 1)
        while not np.array_equal(jumped, code):
            code, jumped = jumped, jumped[jumped >> 1] ^ (jumped & 1)
        cross = code[u]
        cross ^= code[v]
        cross = cross > 1  # the labels differ
        u, v = u[cross], v[cross]
        if not u.size:
            code = code.astype(np.int64, copy=False)
            return code >> 1, code & 1
        _hook(code, u, v)


def _hook(code: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """One round's hooks: the larger root of each edge's ends takes the smaller root's label, on side
    side(u) ^ side(v) ^ 1. In place in the codes' dtype, as the smaller code is (cu ^ cv) ^ the larger;
    a function of its own, so that its arrays are freed before the next round gathers codes."""
    cu, cv = code[u], code[v]
    flip = cu ^ cv
    np.maximum(cu, cv, out=cu)
    np.bitwise_xor(flip, cu, out=cv)
    flip &= 1
    cv |= 1
    cv ^= flip
    cu >>= 1
    np.minimum.at(code, cu, cv)


def component_labels(edges, num_nodes: int) -> np.ndarray:
    """Each node's smallest component member (see _labels_and_sides)."""
    return _labels_and_sides(edges, num_nodes)[0]


def is_connected(g: Graph) -> bool:
    """True when every node is reachable from node 0 (vacuously for |V| <= 1)."""
    return bool((component_labels(g.edge_array, g.num_nodes) == 0).all())


def _two_sided(g: Graph, sides: np.ndarray) -> bool:
    return not np.any(sides[g.edge_array[:, 0]] == sides[g.edge_array[:, 1]])


def is_bipartite(g: Graph) -> bool:
    """True when every edge joins the two sides of its component."""
    return _two_sided(g, _labels_and_sides(g.edge_array, g.num_nodes)[1])


def walk_precondition_failures(g: Graph) -> tuple:
    """Why random_walk_friends' samples are not degree-proportional on g; empty when they are.

    The walk's law converges to d(v)/2|E| when the nodes of degree >= 1
    form one connected, non-bipartite graph; isolated nodes are never
    visited, so they do not count. One labelling with sides answers both:
    it counts components at their smallest members and reads the sides.
    """
    labels, sides = _labels_and_sides(g.edge_array, g.num_nodes)
    active = np.flatnonzero(g.degrees > 0)
    components = int(np.count_nonzero(labels[active] == active))
    if components > 1:
        return (f"fp-walk samples are biased: the nodes with friends form {components} components, "
                "and a walk never leaves the one it starts in",)
    if components == 1 and _two_sided(g, sides):
        return ("fp-walk samples are biased: the graph is bipartite, so a walk alternates between its two sides",)
    return ()

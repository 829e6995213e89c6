"""Graph construction and sampling primitives."""

import numpy as np
import pytest
from scipy import stats

from exposure_lab import (
    Graph,
    average_degree,
    build_directed,
    build_undirected,
    component_labels,
    is_bipartite,
    is_connected,
    make_generator,
    random_walk_friends,
    sample_directed_many,
    sample_friend_two_step,
    sample_random_friends,
    sample_uniform_nodes,
)
from exposure_lab.graph import _packed_key_base, gather_segments

from oracles import (
    complete,
    cycle,
    friend_distribution_oracle,
    path,
    random_digraph,
    random_graph,
    reference_build_directed,
    reference_build_undirected,
    reference_component_labels,
    reference_is_bipartite,
    star,
    two_step_distribution_oracle,
)


def random_multigraph_edges(rng, n: int) -> np.ndarray:
    """Edges over [0, n) with self-loops, both orientations and repeats; often misses nodes."""
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    m = int(rng.integers(0, 3 * n + 2))
    e = rng.integers(0, max(1, n // 2 + 1) if rng.random() < 0.3 else n, size=(m, 2))
    loops = rng.integers(0, n, size=int(rng.integers(0, 3)))
    e = np.concatenate([e, e[: m // 3, ::-1], e[: m // 4], np.stack([loops, loops], axis=1)])
    return e[rng.permutation(e.shape[0])]


class TestBuildUndirected:
    def test_dedup_and_self_loop_rules(self):
        g = build_undirected([(0, 1), (1, 0), (2, 2)], 3)
        assert g.num_edges == 1
        assert g.degrees.tolist() == [1, 1, 0]

    def test_empty_edge_list(self):
        g = build_undirected([], 4)
        assert g.num_edges == 0
        assert g.degrees.tolist() == [0, 0, 0, 0]

    def test_star(self):
        g = star(4)
        assert g.degree(0) == 4
        assert all(g.degree(i) == 1 for i in range(1, 5))
        assert g.num_edges == 4

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            build_undirected([(0, 3)], 3)
        with pytest.raises(ValueError):
            build_undirected([(-1, 0)], 3)

    def test_adjacency_symmetric_and_sorted(self):
        rng = make_generator(42)
        for _ in range(25):
            g = random_graph(rng, max_nodes=20, require_edge=False)
            for v in range(g.num_nodes):
                nbrs = g.neighbors(v)
                assert np.all(np.diff(nbrs) > 0)  # sorted, no duplicates
                assert v not in nbrs
                for u in nbrs.tolist():
                    assert v in g.neighbors(u)
            assert g.num_edges == g.degrees.sum() // 2


class TestBuildDirected:
    def test_cycle_degrees(self):
        g = build_directed([(0, 1), (1, 2), (2, 0)], 3)
        assert g.out_degrees.tolist() == [1, 1, 1]
        assert g.in_degrees.tolist() == [1, 1, 1]

    def test_out_star(self):
        g = build_directed([(0, 1), (0, 2)], 3)
        assert g.out_degrees[0] == 2
        assert g.in_degrees.tolist() == [0, 1, 1]

    def test_duplicate_collapsed(self):
        g = build_directed([(0, 1), (0, 1)], 2)
        assert g.num_edges == 1

    def test_self_loop_dropped_but_reverse_kept(self):
        g = build_directed([(0, 0), (0, 1), (1, 0)], 2)
        assert g.num_edges == 2

    def test_in_out_consistent(self):
        rng = make_generator(7)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 8, size=(40, 2)) if a != b]
        g = build_directed(edges, 8)
        assert g.out_degrees.sum() == g.in_degrees.sum() == g.num_edges
        for v in range(8):
            for u in g.out_neighbors(v).tolist():
                assert v in g.in_neighbors(u)


class TestPackedKeyEdgeCore:
    """The packed-key builders against the row-sort reference in oracles."""

    SIZES = [0, 1, 1, 2, 3, 5, 8, 13, 40, 200]

    def test_undirected_matches_reference_on_random_multigraphs(self):
        rng = make_generator(301)
        for n in self.SIZES * 8:
            edges = random_multigraph_edges(rng, n)
            g = build_undirected(edges, n)
            for got, want in zip((g.edge_array, g.indptr, g.indices), reference_build_undirected(edges, n)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    def test_directed_matches_reference_on_random_multigraphs(self):
        rng = make_generator(302)
        for n in self.SIZES * 8:
            edges = random_multigraph_edges(rng, n)
            g = build_directed(edges, n)
            got = (g.edge_array, g.out_indptr, g.out_indices, g.in_indptr, g.in_indices)
            for a, b in zip(got, reference_build_directed(edges, n)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)

    def test_single_node_and_self_loops_only(self):
        for build in (build_undirected, build_directed):
            g = build([(0, 0), (0, 0)], 1)
            assert g.num_edges == 0 and g.edge_array.shape == (0, 2)

    def test_key_bound_raises_value_error(self):
        limit = 3037000499  # the largest n with n*n < 2**63
        assert limit * limit < 2**63 <= (limit + 1) ** 2
        assert _packed_key_base(limit) == limit
        with pytest.raises(ValueError, match="2\\*\\*63"):
            _packed_key_base(limit + 1)
        # 2**62 nodes: the check has to fire before any per-node array exists
        for build in (build_undirected, build_directed):
            with pytest.raises(ValueError, match="too large"):
                build([(0, 1)], 2**62)
            with pytest.raises(ValueError, match="too large"):
                build([], 2**62)


class TestUniformNodeSampling:
    def test_single_node_graph(self):
        g = build_undirected([], 1)
        rng = make_generator(0)
        assert sample_uniform_nodes(g, 10, rng).tolist() == [0] * 10

    def test_law_of_large_numbers(self):
        g = build_undirected([], 5)
        rng = make_generator(1)
        draws = sample_uniform_nodes(g, 100_000, rng)
        freqs = np.bincount(draws, minlength=5) / draws.size
        assert np.all(np.abs(freqs - 0.2) < 0.01)

    def test_empty_graph_rejected(self):
        g = build_undirected([], 0)
        with pytest.raises(ValueError):
            sample_uniform_nodes(g, 1, make_generator(0))

    def test_distinct_streams_differ(self):
        g = build_undirected([], 100)
        a = sample_uniform_nodes(g, 50, make_generator(3, 0))
        b = sample_uniform_nodes(g, 50, make_generator(3, 1))
        assert not np.array_equal(a, b)


class TestRandomFriendSampling:
    def test_star_distribution(self):
        g = star(4)
        expected = friend_distribution_oracle(g)
        assert expected[0] == pytest.approx(0.5)
        assert expected[1] == pytest.approx(1 / 8)
        rng = make_generator(2)
        draws = sample_random_friends(g, 100_000, rng)
        freqs = np.bincount(draws, minlength=5) / draws.size
        assert np.all(np.abs(freqs - expected) < 0.01)

    def test_regular_graph_uniform(self):
        g = cycle(6)
        expected = friend_distribution_oracle(g)
        assert np.allclose(expected, 1 / 6)

    def test_single_edge(self):
        g = build_undirected([(0, 1)], 2)
        rng = make_generator(3)
        draws = sample_random_friends(g, 2000, rng)
        frac = np.mean(draws == 0)
        assert abs(frac - 0.5) < 0.05

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            sample_random_friends(build_undirected([], 3), 1, make_generator(0))

    def test_chi_square_matches_degree_distribution(self):
        rng = make_generator(11)
        for trial in range(5):
            g = random_graph(rng, max_nodes=20)
            draws = sample_random_friends(g, 100_000, make_generator(12, trial))
            observed = np.bincount(draws, minlength=g.num_nodes)
            expected = friend_distribution_oracle(g) * draws.size
            live = expected > 0
            assert observed[~live].sum() == 0
            _, p_value = stats.chisquare(observed[live], expected[live])
            assert p_value > 0.001


class TestTwoStepFriendSampling:
    def test_star_distribution(self):
        g = star(4)
        expected = two_step_distribution_oracle(g)
        assert expected[0] == pytest.approx(4 / 5)
        assert expected[1] == pytest.approx(1 / 20)
        rng = make_generator(4)
        draws = sample_friend_two_step(g, 50_000, rng)
        freqs = np.bincount(draws, minlength=5) / draws.size
        assert np.all(np.abs(freqs - expected) < 0.01)

    def test_path_distribution(self):
        g = path(3)
        expected = two_step_distribution_oracle(g)
        assert expected.tolist() == pytest.approx([1 / 6, 2 / 3, 1 / 6])
        rng = make_generator(5)
        draws = sample_friend_two_step(g, 50_000, rng)
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.all(np.abs(freqs - expected) < 0.01)

    def test_regular_graph_uniform(self):
        assert np.allclose(two_step_distribution_oracle(cycle(5)), 0.2)

    def test_chi_square_matches_two_step_oracle(self):
        # sparse graphs: two of the five have isolated nodes, never anchors
        rng = make_generator(13)
        for trial in range(5):
            g = random_graph(rng, max_nodes=20, min_nodes=8, p=0.12)
            draws = sample_friend_two_step(g, 100_000, make_generator(14, trial))
            observed = np.bincount(draws, minlength=g.num_nodes)
            expected = two_step_distribution_oracle(g) * draws.size
            live = expected > 0
            assert observed[~live].sum() == 0
            _, p_value = stats.chisquare(observed[live], expected[live])
            assert p_value > 0.001

    def test_isolated_anchor_resampled(self):
        # node 3 is isolated; anchoring must skip it rather than fail
        g = build_undirected([(0, 1), (1, 2)], 4)
        rng = make_generator(6)
        draws = set(sample_friend_two_step(g, 200, rng).tolist())
        assert 3 not in draws

    def test_all_isolated_rejected(self):
        with pytest.raises(ValueError):
            sample_friend_two_step(build_undirected([], 3), 1, make_generator(0))


class TestDirectedSampling:
    def test_out_star_friend_and_follower(self):
        g = build_directed([(0, 1), (0, 2)], 3)
        rng = make_generator(7)
        friends = sample_directed_many(g, "friend", 200, rng)
        assert set(friends.tolist()) == {0}
        followers = sample_directed_many(g, "follower", 5000, rng)
        assert set(followers.tolist()) == {1, 2}
        assert abs(np.mean(followers == 1) - 0.5) < 0.05

    def test_cycle_all_modes_uniform(self):
        g = build_directed([(0, 1), (1, 2), (2, 0)], 3)
        rng = make_generator(8)
        for mode in ("node", "friend", "follower"):
            draws = np.bincount(sample_directed_many(g, mode, 30_000, rng), minlength=3)
            assert np.all(np.abs(draws / 30_000 - 1 / 3) < 0.02)

    def test_single_edge(self):
        g = build_directed([(0, 1)], 2)
        rng = make_generator(9)
        assert sample_directed_many(g, "friend", 1, rng).tolist() == [0]
        assert sample_directed_many(g, "follower", 1, rng).tolist() == [1]

    def test_edgeless_rejected_in_link_modes(self):
        g = build_directed([], 3)
        rng = make_generator(0)
        assert set(sample_directed_many(g, "node", 20, rng).tolist()) <= {0, 1, 2}
        for mode in ("friend", "follower"):
            with pytest.raises(ValueError):
                sample_directed_many(g, mode, 1, rng)


class TestRandomWalk:
    def test_triangle_uniform(self):
        g = complete(3)
        draws = random_walk_friends(g, 0, burn_in=1000, thin=1, num_samples=100_000,
                                    rng=make_generator(10))
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.all(np.abs(freqs - 1 / 3) < 0.01)

    def test_star_with_triangle_matches_degree_proportions(self):
        # star plus a triangle among three leaves: connected and non-bipartite
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (1, 3)]
        g = build_undirected(edges, 5)
        assert is_connected(g) and not is_bipartite(g)
        exact = g.degrees / (2 * g.num_edges)
        draws = random_walk_friends(g, 0, burn_in=500, thin=5, num_samples=100_000,
                                    rng=make_generator(11))
        freqs = np.bincount(draws, minlength=5) / draws.size
        tv = 0.5 * np.abs(freqs - exact).sum()
        assert tv < 0.02

    def test_thin_zero_rejected(self):
        with pytest.raises(ValueError):
            random_walk_friends(complete(3), 0, burn_in=1, thin=0, num_samples=1,
                                rng=make_generator(0))

    def test_isolated_start_rejected(self):
        g = build_undirected([(0, 1)], 3)
        with pytest.raises(ValueError):
            random_walk_friends(g, 2, burn_in=1, thin=1, num_samples=1, rng=make_generator(0))

    def test_default_burn_in_and_thin(self):
        g = complete(4)
        draws = random_walk_friends(g, 0, num_samples=10, rng=make_generator(12))
        assert draws.shape == (10,)


class TestAverageDegree:
    def test_star(self):
        assert average_degree(star(4)) == pytest.approx(1.6)

    def test_directed_cycle(self):
        assert average_degree(build_directed([(0, 1), (1, 2), (2, 0)], 3)) == pytest.approx(1.0)

    def test_edgeless(self):
        assert average_degree(build_undirected([], 5)) == 0.0


class TestFriendshipParadox:
    def test_closed_form_inequality(self):
        rng = make_generator(13)
        for _ in range(50):
            g = random_graph(rng, max_nodes=25)
            d = g.degrees.astype(float)
            friend_mean = float(np.sum(d * d)) / (2 * g.num_edges)
            node_mean = 2 * g.num_edges / g.num_nodes
            assert friend_mean >= node_mean - 1e-12

    def test_empirical_friend_mean_dominates(self):
        rng = make_generator(14)
        g = random_graph(rng, max_nodes=25, min_nodes=10)
        friends = sample_random_friends(g, 10_000, make_generator(15))
        nodes = sample_uniform_nodes(g, 10_000, make_generator(16))
        fr_deg = g.degrees[friends].astype(float)
        nd_deg = g.degrees[nodes].astype(float)
        stderr = np.sqrt(fr_deg.var() / 10_000 + nd_deg.var() / 10_000)
        assert fr_deg.mean() >= nd_deg.mean() - 3 * stderr


class TestDeterminism:
    def test_same_stream_same_sequences(self):
        g = star(6)
        dg = build_directed([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], 4)
        for draw in (
            lambda r: sample_uniform_nodes(g, 20, r).tolist(),
            lambda r: sample_random_friends(g, 20, r).tolist(),
            lambda r: sample_friend_two_step(g, 20, r).tolist(),
            lambda r: sample_directed_many(dg, "friend", 20, r).tolist(),
            lambda r: random_walk_friends(g, 0, 10, 2, 20, r).tolist(),
        ):
            assert draw(make_generator(99, 5)) == draw(make_generator(99, 5))


class TestStructureChecks:
    def test_connectivity(self):
        assert is_connected(path(5))
        assert not is_connected(build_undirected([(0, 1)], 3))

    def test_bipartiteness(self):
        assert is_bipartite(path(4))
        assert is_bipartite(cycle(6))
        assert not is_bipartite(cycle(5))
        assert not is_bipartite(complete(3))


def relabeled(edges, order) -> Graph:
    """The graph of ``edges`` over len(order) nodes with node i renamed order[i]."""
    order = np.asarray(order, dtype=np.int64)
    return build_undirected(order[np.asarray(edges, dtype=np.int64).reshape(-1, 2)], order.size)


def path_orders(n: int, rng) -> dict:
    """Ids along an n-node path: ascending, descending, zigzag (0, n-1, 1, n-2, ...) and random."""
    zigzag = np.empty(n, dtype=np.int64)
    zigzag[0::2] = np.arange((n + 1) // 2)
    zigzag[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return {"ascending": np.arange(n), "descending": np.arange(n)[::-1], "zigzag": zigzag,
            "random": rng.permutation(n)}


class TestComponentLabels:
    """component_labels, is_connected and is_bipartite against per-component BFS oracles."""

    @staticmethod
    def check(g: Graph) -> None:
        labels = component_labels(g.edge_array, g.num_nodes)
        want = reference_component_labels(g)
        assert labels.dtype == np.int64 and np.array_equal(labels, want)
        assert is_connected(g) == bool((want == 0).all())
        assert is_bipartite(g) == reference_is_bipartite(g)

    def test_empty_and_single_node(self):
        for n in (0, 1):
            g = build_undirected([], n)
            assert component_labels(g.edge_array, n).tolist() == list(range(n))
            assert is_connected(g) and is_bipartite(g)
            self.check(g)

    def test_random_graphs_with_isolated_nodes(self):
        rng = make_generator(707)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(0, 2 * n))
            self.check(build_undirected(rng.integers(0, n, size=(m, 2)), n))

    @pytest.mark.parametrize("n", [2, 3, 1000, 1001])
    def test_paths_in_every_id_order(self, n):
        edges = [(i, i + 1) for i in range(n - 1)]
        for name, order in path_orders(n, make_generator(708, n)).items():
            g = relabeled(edges, order)
            self.check(g)
            assert is_connected(g) and is_bipartite(g), name

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 999, 1000])
    def test_even_and_odd_cycles(self, n):
        edges = [(i, (i + 1) % n) for i in range(n)]
        for order in path_orders(n, make_generator(709, n)).values():
            g = relabeled(edges, order)
            self.check(g)
            assert is_bipartite(g) == (n % 2 == 0)

    @pytest.mark.parametrize("sizes", [(3, 4), (4,)])
    def test_thousands_of_triangles_and_squares(self, sizes):
        rng = make_generator(710)
        edges, n = [], 0
        for k in rng.choice(sizes, size=3000).tolist():
            edges += [(n + i, n + (i + 1) % k) for i in range(k)]
            n += k
        g = relabeled(edges, rng.permutation(n))
        self.check(g)
        assert not is_connected(g) and is_bipartite(g) == (sizes == (4,))

    def test_one_odd_component_breaks_bipartiteness(self):
        # 200k isolated nodes plus an even and an odd cycle at the far end
        n = 200_000
        even = [(n - 10 + i, n - 10 + (i + 1) % 4) for i in range(4)]
        odd = [(n - 5 + i, n - 5 + (i + 1) % 5) for i in range(5)]
        assert is_bipartite(build_undirected(even, n))
        assert not is_bipartite(build_undirected(even + odd, n))


class TestGatherSegments:
    @staticmethod
    def brute(indptr, indices, rows):
        segs = [indices[indptr[r] : indptr[r + 1]] for r in rows]
        bounds = np.concatenate(([0], np.cumsum([s.size for s in segs], dtype=np.int64)))
        values = np.concatenate(segs) if segs else np.empty(0, dtype=indices.dtype)
        return values, bounds

    def test_matches_per_row_slices(self):
        rng = make_generator(303)
        for _ in range(30):
            g = random_graph(rng, max_nodes=15, require_edge=False)
            dg = random_digraph(rng)
            for indptr, indices, n in ((g.indptr, g.indices, g.num_nodes),
                                       (dg.in_indptr, dg.in_indices, dg.num_nodes)):
                rows = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))  # repeats, isolated rows
                values, bounds = gather_segments(indptr, indices, rows)
                want_values, want_bounds = self.brute(indptr, indices, rows)
                assert np.array_equal(values, want_values) and values.dtype == np.int64
                assert np.array_equal(bounds, want_bounds)

    def test_empty_rows_and_isolated_rows(self):
        g = build_undirected([(0, 1)], 3)
        values, bounds = gather_segments(g.indptr, g.indices, [])
        assert values.size == 0 and bounds.tolist() == [0]
        values, bounds = gather_segments(g.indptr, g.indices, [2, 2])
        assert values.size == 0 and bounds.tolist() == [0, 0, 0]
        values, bounds = gather_segments(g.indptr, g.indices, [1, 2, 0, 1])
        assert values.tolist() == [0, 1, 0] and bounds.tolist() == [0, 1, 1, 2, 3]

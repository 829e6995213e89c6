"""Graph construction and sampling primitives."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from exposure_lab import (
    Graph,
    StepPolicy,
    average_degree,
    build_directed,
    build_undirected,
    component_labels,
    is_bipartite,
    is_connected,
    make_generator,
    make_tracker,
    random_walk_friends,
    run_tracking_experiment,
    sample_directed_many,
    sample_friend_two_step,
    sample_random_friends,
    sample_uniform_nodes,
    tracker_update,
)
from exposure_lab import graph as graphmod
from exposure_lab.genmodel import (
    CorrelationTarget,
    configuration_model,
    powerlaw_degree_sequence,
    rewire_to_assortativity,
)
from exposure_lab.graph import _labels_and_sides, _packed_key_base, gather_segments, walk_precondition_failures

from oracles import (
    complete,
    cycle,
    friend_distribution_oracle,
    path,
    random_digraph,
    random_graph,
    random_multigraph_edges,
    reference_build_directed,
    reference_build_undirected,
    reference_component_labels,
    reference_is_bipartite,
    reference_walk,
    reference_walk_precondition_failures,
    shuffled_edges,
    star,
    two_step_distribution_oracle,
)


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
        assert g.out_degrees.tolist() == [len({w for u, w in edges if u == v}) for v in range(8)]
        for v in range(8):
            friends = g.indices[g.indptr[v] : g.indptr[v + 1]]  # the sources of v's incoming links
            assert friends.tolist() == sorted({u for u, w in edges if w == v})
            assert g.in_degrees[v] == friends.size


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
            edge_array, out_indptr, _, in_indptr, in_indices = reference_build_directed(edges, n)
            got = (g.edge_array, g.indptr, g.indices, g.out_degrees)
            for a, b in zip(got, (edge_array, in_indptr, in_indices, np.diff(out_indptr))):
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

    @pytest.mark.parametrize("build,bound", [(lambda e, n: Graph(n, e), 2.5), (build_undirected, 4.0)],
                             ids=["Graph", "build_undirected"])
    def test_traced_peak_of_a_build(self, build, bound):
        # the CSR is sorted and reduced in place in one array of packed keys,
        # on the first read of indptr, which has to fall inside the window
        rng = make_generator(714)
        g = configuration_model(powerlaw_degree_sequence(100_000, 2.5, 1, rng), rng)
        tracemalloc.start()
        try:
            build(g.edge_array, g.num_nodes).indptr
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * g.edge_array.nbytes

    def test_traced_peak_of_a_dedupe(self):
        # the packed keys are built in one array, without copies of the endpoints in
        # (min, max) order: 1.63 edge arrays here, 2.63 with them
        rng = make_generator(718)
        g = configuration_model(powerlaw_degree_sequence(100_000, 2.5, 2, rng, k_max=1000), rng)
        edges = shuffled_edges(g.edge_array, rng)
        tracemalloc.start()
        try:
            rebuilt = build_undirected(edges, g.num_nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rebuilt.edge_array, g.edge_array)
        assert peak <= 2 * g.edge_array.nbytes


    @pytest.mark.parametrize("build", [build_undirected, build_directed])
    def test_rows_already_simple_are_copied(self, build):
        # the caller keeps its array: neither shared with the graph nor frozen
        edges = np.array([[0, 1], [0, 4], [1, 2], [1, 3], [3, 4]], dtype=np.int64)
        g = build(edges, 5)
        assert np.array_equal(g.edge_array, edges) and not np.shares_memory(g.edge_array, edges)
        assert edges.flags.writeable and not g.edge_array.flags.writeable


class TestFriendCSROnFirstRead:
    """Both graph classes keep the edges and degrees and sort their friend CSR once, when it is first read."""

    @pytest.fixture
    def builds(self, monkeypatch):
        sizes = []
        csr_from_keys = graphmod._csr_from_keys

        def counted(keys, counts, n):
            sizes.append(keys.size)
            return csr_from_keys(keys, counts, n)

        monkeypatch.setattr(graphmod, "_csr_from_keys", counted)
        return sizes

    @pytest.mark.parametrize("build", [build_undirected, build_directed])
    def test_built_once_on_first_read_and_frozen(self, build, builds):
        g = build(make_generator(716).integers(0, 50, size=(200, 2)), 50)
        average_degree(g), repr(g)
        assert builds == []  # neither the constructor nor average_degree nor repr sorts friend lists
        indices, indptr = g.indices, g.indptr
        for _ in range(3):
            assert g.indptr is indptr and g.indices is indices
        assert builds == [indices.size] == [int(indptr[-1])]
        assert not indptr.flags.writeable and not indices.flags.writeable

    @pytest.mark.parametrize("first", ["indptr", "indices"])
    def test_arrays_equal_the_eager_build(self, first):
        # whichever array is read first, both equal the row-sort reference, as the
        # constructors' eager CSR did
        rng = make_generator(717)
        for n in TestPackedKeyEdgeCore.SIZES * 4:
            edges = random_multigraph_edges(rng, n)
            g, dg = build_undirected(edges, n), build_directed(edges, n)
            getattr(g, first), getattr(dg, first)
            got = (g.indptr, g.indices, dg.indptr, dg.indices)
            want = reference_build_undirected(edges, n)[1:] + reference_build_directed(edges, n)[3:]
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert average_degree(g) == (int(g.indptr[-1]) / n if n else 0.0)
            assert average_degree(dg) == (int(dg.indptr[-1]) / n if n else 0.0)

    def test_trackers_sort_no_friend_lists(self, builds):
        # a tracker update reads the edge array, the degrees and the exposure vector, and the
        # refusal of a DiGraph before it is a type check; so is the experiment's without steps
        g = build_undirected(make_generator(718).integers(0, 50, size=(200, 2)), 50)
        exposed = np.arange(50) % 2 == 0
        for kind in ("vanilla", "fp"):
            tracker_update(make_tracker(kind, StepPolicy()), g, exposed, make_generator(0), 5)
        run_tracking_experiment(g, model="ltm", steps=0, seeds=[0])
        assert builds == []

    def test_generate_path_sorts_no_friend_lists(self, builds):
        # the configuration model, then rewiring at the large-1e5 benchmark's
        # shape: 2.82 edge arrays of traced peak here (the bound leaves 15%),
        # 3.63 when the dedupe copied the endpoints in (min, max) order and
        # 5.29 when every constructor sorted its CSR
        rng = make_generator(715)
        seq = powerlaw_degree_sequence(100_000, 2.5, 2, rng, k_max=1000)
        tracemalloc.start()
        try:
            g = configuration_model(seq, rng)
            rewired, res = rewire_to_assortativity(g, CorrelationTarget(0.05, 0.01, 10_000), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rewired is not g and res.iterations > 0
        assert builds == []
        assert peak <= 3.25 * rewired.edge_array.nbytes


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


class TestLockstepWalk:
    """R walkers stepped together against a scalar reference walk per walker, fed column k of the same uniforms."""

    @staticmethod
    def case(rng):
        """(graph, 1-8 starts with friends, burn_in, thin, num_samples), burn_in 0 included."""
        g = random_graph(rng, max_nodes=30, p=0.2)
        candidates = np.flatnonzero(g.degrees > 0)
        starts = candidates[rng.integers(candidates.size, size=int(rng.integers(1, 9)))]
        return g, starts, int(rng.integers(0, 40)), int(rng.integers(1, 5)), int(rng.integers(1, 15))

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_matches_per_walker_reference(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(graphmod, "WALK_CHUNK_UNIFORMS", chunk)
        rng = make_generator(720)
        for trial in range(60):
            g, starts, burn_in, thin, num_samples = self.case(rng)
            walk_rng = make_generator(721, trial)
            got = random_walk_friends(g, starts, burn_in, thin, num_samples, walk_rng)
            steps = burn_in + (num_samples - 1) * thin
            replay = make_generator(721, trial)
            uniforms = replay.random((steps, starts.size))
            assert got.shape == (starts.size, num_samples)
            for k, start in enumerate(starts.tolist()):
                assert got[k].tolist() == reference_walk(g, start, burn_in, thin, num_samples, uniforms[:, k])
            assert walk_rng.random() == replay.random()  # the walk drew exactly steps * R uniforms

    def test_scalar_start_is_one_walker(self):
        rng = make_generator(722)
        for trial in range(40):
            g, starts, burn_in, thin, num_samples = self.case(rng)
            start = int(starts[0])
            got = random_walk_friends(g, start, burn_in, thin, num_samples, make_generator(723, trial))
            uniforms = make_generator(723, trial).random(burn_in + (num_samples - 1) * thin)
            assert got.shape == (num_samples,)
            assert got.tolist() == reference_walk(g, start, burn_in, thin, num_samples, uniforms)
            one = random_walk_friends(g, np.array([start]), burn_in, thin, num_samples, make_generator(723, trial))
            assert one.tolist() == [got.tolist()]

    def test_no_samples_draw_nothing(self):
        rng = make_generator(724)
        got = random_walk_friends(complete(4), np.array([0, 1, 2]), 30, 5, 0, rng)
        assert got.shape == (3, 0)
        assert rng.random() == make_generator(724).random()

    def test_every_start_checked(self):
        g = build_undirected([(0, 1), (1, 2)], 4)  # node 3 is isolated
        for starts in ([0, 3], [1, 4], [-1, 0]):
            with pytest.raises(ValueError, match="walk start must be a node with degree >= 1"):
                random_walk_friends(g, np.array(starts), 5, 1, 2, make_generator(0))


class TestAverageDegree:
    def test_star(self):
        assert average_degree(star(4)) == 1.6

    def test_directed_cycle(self):
        assert average_degree(build_directed([(0, 1), (1, 2), (2, 0)], 3)) == 1.0

    def test_edgeless(self):
        assert average_degree(build_undirected([], 5)) == 0.0

    def test_equals_edge_count_formula_bit_for_bit(self):
        rng = make_generator(305)
        for n in [0, 0, 1, 2, 3, 7, 13, 40, 200, 997] * 6:
            edges = random_multigraph_edges(rng, n)
            g, dg = build_undirected(edges, n), build_directed(edges, n)
            if n == 0:
                assert average_degree(g) == average_degree(dg) == 0.0
            else:
                assert average_degree(g) == 2.0 * g.num_edges / n
                assert average_degree(dg) == dg.num_edges / n
        for _ in range(30):
            g, dg = random_graph(rng, max_nodes=30, require_edge=False), random_digraph(rng, max_nodes=30)
            assert average_degree(g) == 2.0 * g.num_edges / g.num_nodes
            assert average_degree(dg) == dg.num_edges / dg.num_nodes


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
        sides = _labels_and_sides(g.edge_array, g.num_nodes)[1]
        assert set(sides.tolist()) <= {0, 1}
        u, v = g.edge_array.T
        assert bool((sides[u] != sides[v]).all()) == reference_is_bipartite(g)
        assert is_connected(g) == bool((want == 0).all())
        assert is_bipartite(g) == reference_is_bipartite(g)
        assert walk_precondition_failures(g) == reference_walk_precondition_failures(g)

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


class TestWalkPreconditionOracle:
    """walk_precondition_failures, one labelling with sides, against BFS counting and 2-colouring."""

    CASES = {
        "connected, odd cycle": [(0, 1), (1, 2), (2, 0), (2, 3)],
        "connected, bipartite": [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)],
        "two odd components": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        "two even components": [(0, 1), (2, 3), (3, 4)],
        "odd and even components": [(0, 1), (1, 2), (2, 0), (3, 4)],
        "isolated nodes only": [],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_named_graphs(self, name):
        for order in path_orders(9, make_generator(711)).values():
            g = relabeled(self.CASES[name], order)
            assert walk_precondition_failures(g) == reference_walk_precondition_failures(g), name

    def test_random_mixtures(self):
        rng = make_generator(712)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 30))
            g = build_undirected(rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2)), n)
            want = reference_walk_precondition_failures(g)
            assert walk_precondition_failures(g) == want
            seen.add("bipartite" if want and "bipartite" in want[0] else "components" if want else "none")
        assert seen == {"none", "components", "bipartite"}

    @pytest.mark.parametrize("check", [walk_precondition_failures, is_bipartite])
    def test_traced_peak_stays_within_four_edge_arrays(self, check):
        # labelling the graph itself, not a 2n-node double cover with 4m edge rows
        rng = make_generator(713)
        g = configuration_model(powerlaw_degree_sequence(100_000, 2.5, 1, rng), rng)
        tracemalloc.start()
        try:
            check(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * g.edge_array.nbytes

    @pytest.mark.parametrize("check", [walk_precondition_failures, is_bipartite])
    def test_traced_peak_stays_within_two_edge_arrays(self, check):
        # int32 codes while 2n fits, and a first round that gathers no codes:
        # 1.89 edge arrays here, 2.83 with int64 codes; the labels still come back as int64
        rng = make_generator(713)
        g = configuration_model(powerlaw_degree_sequence(100_000, 2.5, 1, rng), rng)
        tracemalloc.start()
        try:
            check(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * g.edge_array.nbytes
        assert component_labels(g.edge_array, g.num_nodes).dtype == np.int64


class TestGatherSegments:
    @staticmethod
    def brute(indptr, indices, rows):
        segs = [indices[indptr[r] : indptr[r + 1]] for r in rows]
        return np.concatenate(segs) if segs else np.empty(0, dtype=indices.dtype)

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_matches_per_row_slices(self, block, monkeypatch):
        monkeypatch.setattr(graphmod, "_GATHER_BLOCK_ENTRIES", block)
        rng = make_generator(303)
        for _ in range(30):
            g = random_graph(rng, max_nodes=15, require_edge=False)
            dg = random_digraph(rng)
            for indptr, indices, n in ((g.indptr, g.indices, g.num_nodes),
                                       (dg.indptr, dg.indices, dg.num_nodes)):
                rows = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))  # repeats, isolated rows
                blocks = list(gather_segments(indptr, indices, rows))
                want = self.brute(indptr, indices, rows)
                assert all(b.dtype == np.int64 for b in blocks)
                full, rest = divmod(want.size, block)
                assert [b.size for b in blocks] == [block] * full + [rest] * (rest > 0)
                assert np.array_equal(np.concatenate(blocks) if blocks else want[:0], want)

    def test_empty_rows_and_isolated_rows(self):
        g = build_undirected([(0, 1)], 3)
        assert list(gather_segments(g.indptr, g.indices, [])) == []
        assert list(gather_segments(g.indptr, g.indices, [2, 2])) == []
        assert [b.tolist() for b in gather_segments(g.indptr, g.indices, [1, 2, 0, 1])] == [[0, 1, 0]]

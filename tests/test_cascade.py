"""Exposure semantics and the two diffusion models."""

import math
import tracemalloc

import numpy as np
import pytest

from exposure_lab import (
    DiGraph,
    SharingState,
    StepPolicy,
    build_directed,
    build_undirected,
    cascade,
    exposure_all,
    exposure_bits,
    exposure_times,
    icm_step,
    ltm_step,
    make_generator,
    run_cascade,
    run_tracking_experiment,
    tracking,
    true_exposure,
)

from oracles import (
    complete,
    random_digraph,
    cycle,
    exposure_oracle,
    nb_percolation_threshold,
    nonbacktracking_matrix,
    path,
    random_graph,
    random_multigraph_edges,
    random_sharing_mask,
    sharing_count_oracle,
    star,
)


def sharing(g, sharers):
    return SharingState.from_sharers(sharers, g.num_nodes)


class TestExposure:
    def test_star_center_shares(self):
        g = star(4)
        s = sharing(g, [0])
        assert exposure_bits(g, s, np.arange(5)).tolist() == [False, True, True, True, True]

    def test_star_leaf_shares(self):
        g = star(4)
        s = sharing(g, [1])
        assert exposure_bits(g, s, np.arange(5)).tolist() == [True, False, False, False, False]

    def test_isolated_node_never_exposed(self):
        g = build_undirected([(0, 1)], 3)
        s = sharing(g, [0, 1, 2])
        assert exposure_bits(g, s, [2]).tolist() == [False]

    def test_sharing_alone_is_not_exposure(self):
        g = path(3)
        s = sharing(g, [0])
        assert exposure_bits(g, s, [0]).tolist() == [False]

    def test_matches_brute_force_on_random_graphs(self):
        # undirected and directed graphs, each with two isolated nodes appended,
        # checked whole, node by node, and in a batch of length 0-13 whose every
        # third entry is the same isolated node
        rng = make_generator(20)
        graphs = [random_graph(rng, max_nodes=50, require_edge=False) for _ in range(42)]
        graphs += [random_digraph(rng, max_nodes=30) for _ in range(42)]
        for i, g in enumerate(graphs):
            g = (build_directed if isinstance(g, DiGraph) else build_undirected)(g.edge_array, g.num_nodes + 2)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            expected = [exposure_oracle(g, mask, v) for v in range(g.num_nodes)]
            for v in range(g.num_nodes):
                assert exposure_bits(g, s, [v]).astype(int).tolist() == [expected[v]]
            assert exposure_all(g, s).astype(int).tolist() == expected
            assert exposure_bits(g, s, np.arange(g.num_nodes)).astype(int).tolist() == expected
            nodes = rng.integers(0, g.num_nodes, size=i % 14)
            nodes[::3] = g.num_nodes - 1
            assert exposure_bits(g, s, nodes).astype(int).tolist() == [expected[v] for v in nodes.tolist()]


EDGELESS = [build_undirected([], 5), build_directed([], 4), build_undirected([], 0), build_directed([], 0)]
EDGELESS_IDS = ["undirected", "directed", "no-nodes", "directed-no-nodes"]


class TestSharingCounts:
    """The exact count of sharing friends that exposure (> 0) and the LTM thresholds read."""

    def test_matches_oracle_on_random_graphs(self):
        rng = make_generator(24)
        graphs = [random_graph(rng, max_nodes=30, require_edge=False) for _ in range(40)]
        graphs += [random_digraph(rng, max_nodes=20) for _ in range(40)]
        for g in graphs:
            for mask in (random_sharing_mask(rng, g.num_nodes), np.ones(g.num_nodes, dtype=bool)):
                counts = cascade._sharing_counts(g, np.flatnonzero(mask))
                assert counts.tolist() == sharing_count_oracle(g, mask)

    @pytest.mark.parametrize("g", EDGELESS, ids=EDGELESS_IDS)
    @pytest.mark.parametrize("everyone_shares", [False, True])
    def test_edgeless_graphs_count_zero(self, g, everyone_shares):
        mask = np.full(g.num_nodes, everyone_shares)
        counts = cascade._sharing_counts(g, np.flatnonzero(mask))
        assert counts.tolist() == sharing_count_oracle(g, mask) == [0] * g.num_nodes


class TestSharingCountBlocks:
    """_sharing_counts adds the sharers' friend entries in blocks of at most _COUNT_BLOCK_ENTRIES."""

    @staticmethod
    def cases():
        # random multigraphs with isolated nodes appended, under empty, degree-0, random and full
        # sharer sets; and a star whose hub alone holds more friend entries than a small block
        rng = make_generator(41)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            edges = random_multigraph_edges(rng, n)
            g = build_undirected(edges, n + 3)
            for mask in (np.zeros(n + 3, dtype=bool), g.degrees == 0, random_sharing_mask(rng, n + 3),
                         np.ones(n + 3, dtype=bool)):
                yield g, mask
            dg = build_directed(edges, n + 3)
            yield dg, random_sharing_mask(rng, n + 3)
        yield star(20), np.arange(21) == 0

    @staticmethod
    def outputs(g, mask):
        s = SharingState(mask)
        out = [cascade._sharing_counts(g, s.sharers), exposure_all(g, s)]
        if not isinstance(g, DiGraph):
            for strict in (False, True):
                out.append(ltm_step(g, s, 0.3, strict).mask)
                if mask.any():
                    out.append(run_cascade(g, "ltm", 6, seeds=s.sharers, theta=0.3, ltm_strict=strict).activation)
        return out

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_equal_one_block(self, block, monkeypatch):
        single = [self.outputs(g, mask) for g, mask in self.cases()]
        assert all(cascade._COUNT_BLOCK_ENTRIES > g.num_edges * 2 for g, _ in self.cases())
        monkeypatch.setattr(cascade, "_COUNT_BLOCK_ENTRIES", block)
        seen = set()
        for (g, mask), want in zip(self.cases(), single):
            got = self.outputs(g, mask)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert got[0].tolist() == sharing_count_oracle(g, mask)
            degrees = g.out_degrees if isinstance(g, DiGraph) else g.degrees
            seen.add("empty" if not mask.any() else "degree 0" if (degrees[mask] == 0).any() else "other")
            if (degrees[mask] > block).any():
                seen.add("list beyond a block")
        assert seen == {"empty", "degree 0", "other", "list beyond a block"}

    def test_ltm_memory_stays_bounded(self):
        # two 1e5-node graphs, average degree 4 and 16, one seed set: the seeds' step
        # counts 4x the friend entries on the second graph; at theta 1 few nodes fire,
        # so every other array of the cascade is the same size on both
        peaks, entries = [], []
        seeds = np.arange(0, 100_000, 5)
        for k in (4, 16):
            rng = make_generator(42)
            g = build_undirected(rng.integers(0, 100_000, size=(k * 50_000, 2)), 100_000)
            g.indptr  # the CSR is the graph's, built before the window
            entries.append(int(g.degrees[seeds].sum()))
            tracemalloc.start()
            try:
                run_cascade(g, "ltm", 3, seeds=seeds, theta=1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert entries[1] >= 4 * entries[0]
        # measured: 2.98 and 2.88 MiB; one bincount over every entry took 4.18 and 9.18 MiB
        assert peaks[1] <= 1.05 * peaks[0]
        assert entries[0] > cascade._COUNT_BLOCK_ENTRIES  # both steps fill whole blocks


class TestEdgelessGraphs:
    """Without friend lists every row's sharing count is 0: nobody is exposed and LTM adds nobody."""

    @pytest.mark.parametrize("g", EDGELESS, ids=EDGELESS_IDS)
    @pytest.mark.parametrize("everyone_shares", [False, True])
    def test_exposure_matches_oracle(self, g, everyone_shares):
        mask = np.full(g.num_nodes, everyone_shares)
        s = SharingState(mask.copy())
        expected = [exposure_oracle(g, mask, v) for v in range(g.num_nodes)]
        assert expected == [0] * g.num_nodes
        exposed = exposure_all(g, s)
        assert exposed.dtype == bool and exposed.astype(int).tolist() == expected
        nodes = np.repeat(np.arange(g.num_nodes), 2)
        bits = exposure_bits(g, s, nodes)
        assert bits.dtype == bool and bits.astype(int).tolist() == [expected[v] for v in nodes.tolist()]

    @pytest.mark.parametrize("n", [5, 0])
    @pytest.mark.parametrize("strict", [False, True])
    def test_ltm_step_adds_nobody(self, n, strict):
        g = build_undirected([], n)
        for sharers in ([], list(range(0, n, 2))):
            s = sharing(g, sharers)
            nxt = ltm_step(g, s, 0.05, strict=strict)
            assert nxt.mask.tolist() == s.mask.tolist()
            assert nxt.new_sharers.dtype == np.int64 and nxt.new_sharers.size == 0

    def test_ltm_cascade_stops_at_its_seeds(self):
        g = build_undirected([], 5)
        traj = run_cascade(g, "ltm", 3, seeds=[1, 3])
        assert traj.fixed_point_step == 0
        assert traj.activation.tolist() == [-1, 0, -1, 0, -1]


class TestTrueExposure:
    def test_star_center(self):
        g = star(4)
        assert true_exposure(g, sharing(g, [0])) == pytest.approx(0.8)

    def test_star_leaf(self):
        g = star(4)
        assert true_exposure(g, sharing(g, [1])) == pytest.approx(0.2)

    def test_empty_sharers(self):
        g = star(4)
        assert true_exposure(g, sharing(g, [])) == 0.0

    def test_bounds_and_zero_characterization(self):
        rng = make_generator(21)
        for _ in range(20):
            g = random_graph(rng, max_nodes=30, require_edge=False)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            f = true_exposure(g, s)
            assert 0.0 <= f <= 1.0
            has_exposed = any(exposure_oracle(g, mask, v) for v in range(g.num_nodes))
            assert (f == 0.0) == (not has_exposed)


NEVER = np.iinfo(np.int32).max


def _with_isolated_nodes(rng, extra):
    """A random graph whose node count is padded with ``extra`` isolated nodes."""
    g = random_graph(rng, max_nodes=40, min_nodes=10, p=0.12)
    return build_undirected(g.edge_array, g.num_nodes + extra)


class TestExposureTimes:
    """exposure_times(g, activation) <= t is exposure_all(g, state(t)) at every step t."""

    def _check(self, g, traj):
        times = exposure_times(g, traj.activation)
        assert times.dtype == np.int32 and times.shape == (g.num_nodes,)
        for t in range(traj.steps + 1):
            assert np.array_equal(times <= t, exposure_all(g, traj.state(t))), t
        never = ~exposure_all(g, traj.state(traj.steps))
        assert np.array_equal(times == NEVER, never)
        assert np.all(times[g.degrees == 0] == NEVER)
        return times

    @pytest.mark.parametrize("model,kwargs", [
        ("icm", dict(p_inf=0.3)),
        ("icm", dict(p_inf=0.3, icm_retry=True)),
        ("ltm", dict(theta=0.2)),
        ("ltm", dict(theta=0.25, ltm_strict=True)),
    ], ids=["icm", "icm_retry", "ltm", "ltm_strict"])
    def test_equals_exposure_of_every_state(self, model, kwargs):
        rng = make_generator(310)
        grew = 0
        for i in range(30):
            g = _with_isolated_nodes(rng, extra=int(rng.integers(0, 4)))
            traj = run_cascade(g, model, steps=10, seed_count=2, rng=make_generator(311, i), **kwargs)
            times = self._check(g, traj)
            grew += len(set(times[times != NEVER].tolist())) >= 3
        assert grew >= 5

    @pytest.mark.parametrize("model,kwargs", [("icm", dict(p_inf=0.0)), ("ltm", dict(theta=1.0))])
    def test_cascade_that_never_grows(self, model, kwargs):
        g = star(5)
        traj = run_cascade(g, model, steps=4, seeds=[1], rng=make_generator(312), **kwargs)
        assert traj.fixed_point_step == 0
        times = self._check(g, traj)
        assert times.tolist() == [0] + [NEVER] * 5

    def test_edgeless_graph(self):
        for n in (0, 5):
            g = build_undirected([], n)
            traj = run_cascade(g, "ltm", steps=3, seeds=list(range(0, n, 2)))
            assert self._check(g, traj).tolist() == [NEVER] * n

    def test_any_activation_on_either_graph_type(self):
        # activation steps drawn at random, -1 for never, on undirected
        # graphs and on digraphs, whose friends are the sources of their links
        rng = make_generator(313)
        for i in range(60):
            g = random_digraph(rng, max_nodes=30) if i % 2 else _with_isolated_nodes(rng, extra=2)
            activation = rng.integers(-1, 6, size=g.num_nodes).astype(np.int32)
            times = exposure_times(g, activation)
            for t in range(7):
                state = SharingState((activation >= 0) & (activation <= t))
                assert np.array_equal(times <= t, exposure_all(g, state)), (i, t)

    @pytest.mark.parametrize("activation", [np.array([0, -1, 1, 2, -1]), np.array([0.7, -1.0, -1.0])],
                             ids=["five entries on three nodes", "float steps"])
    def test_rejects_activation_not_one_integer_per_node(self, activation):
        with pytest.raises(ValueError, match=r"activation must be an integer array of shape \(3,\)"):
            exposure_times(path(3), activation)

    def test_tracking_passes_its_int32_activation(self, monkeypatch):
        # run_tracking_experiment hands over run_cascade's int32 activation steps, which pass the check
        seen = []

        def recorded(g, activation):
            seen.append(activation.dtype)
            return exposure_times(g, activation)

        monkeypatch.setattr(tracking, "exposure_times", recorded)
        policy = StepPolicy("constant", 0.1)
        records = run_tracking_experiment(cycle(12), model="icm", steps=3, schedule=5, vanilla_policy=policy,
                                          fp_policy=policy, seed_count=2, p_inf=0.5, rng=make_generator(314))
        assert seen == [np.dtype(np.int32)] and len(records) == 3


class TestIcm:
    def test_zero_probability_is_constant(self):
        g = complete(5)
        s = sharing(g, [0])
        rng = make_generator(22)
        nxt = icm_step(g, s, 0.0, rng)
        assert nxt.sharers.tolist() == [0]

    def test_full_probability_floods_within_diameter(self):
        g = path(6)
        traj = run_cascade(g, "icm", steps=5, seeds=[0], p_inf=1.0, rng=make_generator(23))
        assert traj.state(traj.steps).num_sharers == 6

    def test_two_hop_chain_probability(self):
        # seed 0 on a 3-path with p = 0.5: node 2 ever activates with prob 0.25
        g = path(3)
        hits = 0
        for i in range(10_000):
            traj = run_cascade(g, "icm", steps=10, seeds=[0], p_inf=0.5, rng=make_generator(24, i))
            hits += bool(traj.state(traj.steps).mask[2])
        assert abs(hits / 10_000 - 0.25) < 0.015

    def test_single_attempt_semantics(self):
        # after an attempt fails, the non-retry model never tries that edge again
        g = path(2)
        s = sharing(g, [0])
        rng = make_generator(25)
        cur = s
        for _ in range(50):
            cur = icm_step(g, cur, 0.5, rng)
        # frontier empties after step 1, so node 1 activates at step 1 or never
        first = icm_step(g, s, 0.0, make_generator(0))
        assert first.new_sharers.size == 0

    def test_invalid_probability(self):
        g = path(2)
        with pytest.raises(ValueError):
            icm_step(g, sharing(g, [0]), 1.5, make_generator(0))

    def test_retry_variant_keeps_attempting(self):
        g = path(2)
        s = sharing(g, [0])
        activated = 0
        for i in range(300):
            rng = make_generator(26, i)
            cur = s
            for _ in range(20):
                cur = icm_step(g, cur, 0.2, rng, retry=True)
            activated += bool(cur.mask[1])
        # twenty retries at p=0.2 activate with prob 1 - 0.8^20 = 0.988
        assert activated / 300 > 0.9


class TestLtm:
    def test_star_center_threshold_one(self):
        g = star(4)
        nxt = ltm_step(g, sharing(g, [0]), 1.0)
        assert nxt.num_sharers == 5

    def test_threshold_above_max_fraction_is_constant(self):
        # one leaf shares: the hub sees 1/4 = 0.25 < 0.3
        g = star(4)
        nxt = ltm_step(g, sharing(g, [1]), 0.3)
        assert nxt.sharers.tolist() == [1]

    def test_complete_graph_low_threshold(self):
        g = complete(4)
        nxt = ltm_step(g, sharing(g, [0]), 0.3)
        assert nxt.num_sharers == 4

    def test_strict_comparison_flag(self):
        g = star(4)
        s = sharing(g, [0])
        assert ltm_step(g, s, 1.0, strict=False).num_sharers == 5
        assert ltm_step(g, s, 1.0, strict=True).num_sharers == 1

    def test_degree_zero_nodes_never_activate(self):
        g = build_undirected([(0, 1)], 3)
        nxt = ltm_step(g, sharing(g, [0]), 0.05)
        assert not nxt.mask[2]

    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, theta):
        g = star(4)
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\]"):
            ltm_step(g, sharing(g, [0]), theta)
        # a cascade rejects it before its first step, at steps=0 too
        for steps in (0, 1, 3):
            with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\]"):
                run_cascade(g, "ltm", steps, seeds=[0], theta=theta)

    def test_deterministic_and_consumes_no_rng(self):
        rng = make_generator(27)
        g = random_graph(rng, max_nodes=30)
        s = SharingState(random_sharing_mask(rng, g.num_nodes, nontrivial=True))
        before = rng.bit_generator.state
        a = ltm_step(g, s, 0.4)
        assert rng.bit_generator.state == before
        b = ltm_step(g, s, 0.4)
        assert a.mask.tobytes() == b.mask.tobytes()


class TestRunCascade:
    def test_zero_steps(self):
        g = star(4)
        traj = run_cascade(g, "icm", steps=0, seeds=[0], p_inf=0.5, rng=make_generator(28))
        assert traj.steps == 0
        assert traj.state(0).sharers.tolist() == [0]

    def test_monotone_sharers(self):
        rng = make_generator(29)
        for i in range(20):
            g = random_graph(rng, max_nodes=40, min_nodes=5)
            model = "icm" if i % 2 else "ltm"
            traj = run_cascade(g, model, steps=15, seed_count=2, p_inf=0.3, theta=0.2,
                               rng=make_generator(30, i))
            for t in range(traj.steps):
                assert set(traj.state(t).sharers.tolist()) <= set(traj.state(t + 1).sharers.tolist())

    def test_flood_on_star_reaches_everyone_by_step_two(self):
        g = star(4)
        traj = run_cascade(g, "icm", steps=2, seeds=[1], p_inf=1.0, rng=make_generator(31))
        assert true_exposure(g, traj.state(2)) == 1.0

    def test_fixed_point_padding(self):
        g = star(4)
        traj = run_cascade(g, "icm", steps=7, seeds=[0], p_inf=1.0, rng=make_generator(32))
        assert traj.steps == 7
        assert traj.fixed_point_step is not None
        assert traj.state(traj.steps).num_sharers == traj.state(traj.fixed_point_step).num_sharers

    @pytest.mark.parametrize("model,kwargs,message", [
        ("icm", dict(p_inf=7.0), r"infection probability must lie in \[0, 1\]"),
        ("icm", dict(p_inf=math.nan), r"infection probability must lie in \[0, 1\]"),
        ("ltm", dict(theta=0.0), r"threshold must lie in \(0, 1\]"),
        ("icm", dict(seed_count=0), r"seed_count must lie in \[1, num_nodes\]"),
        ("ltm", dict(seed_count=6), r"seed_count must lie in \[1, num_nodes\]"),
    ])
    @pytest.mark.parametrize("steps", [0, 2])
    def test_rejects_its_inputs_before_drawing_seeds(self, model, kwargs, message, steps):
        g = star(4)
        rng = make_generator(33)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            run_cascade(g, model, steps, rng=rng, **kwargs)
        assert rng.bit_generator.state == before
        if "seed_count" not in kwargs:
            with pytest.raises(ValueError, match=message):
                run_cascade(g, model, steps, seeds=[0], **kwargs)

    def test_seed_out_of_range(self):
        g = star(4)
        with pytest.raises(ValueError):
            run_cascade(g, "icm", steps=1, seeds=[9], p_inf=0.5, rng=make_generator(0))

    def test_ltm_trajectory_reproducible(self):
        g = complete(6)
        a = run_cascade(g, "ltm", steps=4, seeds=[0], theta=0.1)
        b = run_cascade(g, "ltm", steps=4, seeds=[0], theta=0.1)
        assert a.steps == b.steps
        assert all(a.state(t).mask.tobytes() == b.state(t).mask.tobytes() for t in range(a.steps + 1))

    @pytest.mark.parametrize("model,retry,strict,theta", [
        ("ltm", False, False, 0.3), ("icm", False, False, 0.3), ("icm", True, False, 0.3),
        ("ltm", False, True, 0.5), ("ltm", False, False, 0.01), ("ltm", False, True, 0.01),
    ], ids=["ltm-False", "icm-False", "icm-True", "ltm-strict", "ltm-saturating", "ltm-strict-saturating"])
    def test_activation_steps_equal_step_replay(self, model, retry, strict, theta):
        # p_inf = 1 makes every ICM attempt succeed, so a replay needs no
        # shared generator; past a fixed point the replay adds nobody. LTM
        # cascades keep running neighbor counts, which ltm_step recomputes;
        # at theta 0.01 every node with a sharing neighbor fires, so the
        # cascade floods the seeds' components
        rng = make_generator(37)
        saturated = 0
        for i in range(10):
            g = random_graph(rng, max_nodes=40, min_nodes=5, p=0.1)
            seeds = rng.choice(g.num_nodes, size=2, replace=False)
            traj = run_cascade(g, model, steps=8, seeds=seeds, p_inf=1.0, theta=theta,
                               rng=make_generator(38, i), icm_retry=retry, ltm_strict=strict)
            replay = sharing(g, seeds)
            for t in range(9):
                if t:
                    replay = (ltm_step(g, replay, theta, strict) if model == "ltm"
                              else icm_step(g, replay, 1.0, make_generator(0), retry=retry))
                st = traj.state(t)
                assert np.array_equal(st.mask, replay.mask), (i, t)
                assert np.array_equal(st.new_sharers, replay.new_sharers), (i, t)
            assert traj.activation.dtype == np.int32
            assert traj.activation.shape == (g.num_nodes,)
            assert np.array_equal(traj.activation == -1, ~replay.mask), i
            if retry:  # a stalled retry cascade may grow later, so it never stops early
                assert traj.fixed_point_step is None
            saturated += not (exposure_all(g, replay) & ~replay.mask).any()  # every exposed node shares
        if theta < 0.1:
            assert saturated == 10

    @pytest.mark.parametrize("p_inf", [0.3, 0.7])
    @pytest.mark.parametrize("retry", [False, True], ids=["single", "retry"])
    @pytest.mark.parametrize("drawn", [False, True], ids=["explicit-seeds", "drawn-seeds"])
    def test_icm_draws_equal_step_replay(self, p_inf, retry, drawn):
        # a replay through icm_step on a generator of the same seed, which
        # also draws the seeds when the cascade does, gives the same
        # activation steps and fixed point and leaves the generator at the
        # same next draw: the cascade draws its uniforms as icm_step does
        rng = make_generator(41)
        grown = 0
        for i in range(12):
            g = random_graph(rng, max_nodes=40, min_nodes=5, p=0.1)
            explicit = None if drawn else rng.choice(g.num_nodes, size=2, replace=False)
            ours, theirs = make_generator(42, i), make_generator(42, i)
            traj = run_cascade(g, "icm", steps=8, seeds=explicit, seed_count=2, p_inf=p_inf, rng=ours,
                               icm_retry=retry)
            seeds = theirs.choice(g.num_nodes, size=2, replace=False) if drawn else explicit
            replay = sharing(g, seeds)
            activation = np.where(replay.mask, 0, -1)
            fixed_point = None
            for t in range(1, 9):
                replay = icm_step(g, replay, p_inf, theirs, retry=retry)
                if replay.new_sharers.size == 0 and not retry:
                    fixed_point = t - 1
                    break
                activation[replay.new_sharers] = t
            assert traj.activation.tolist() == activation.tolist(), i
            assert traj.fixed_point_step == fixed_point, i
            assert ours.random() == theirs.random(), i
            grown += int((activation > 0).any())
        assert grown >= 6

    @pytest.mark.parametrize("model,retry,strict", [
        ("icm", False, False), ("icm", True, False), ("ltm", False, False), ("ltm", False, True),
    ])
    def test_one_sharing_state_per_call(self, model, retry, strict, monkeypatch):
        # the seeds' state is the only one a cascade builds; its steps
        # advance one mask
        built = []
        init = SharingState.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SharingState, "__init__", counted)
        g = path(12)
        traj = run_cascade(g, model, steps=6, seeds=[0], p_inf=1.0, theta=0.5, rng=make_generator(43),
                           icm_retry=retry, ltm_strict=strict)
        assert len(built) == 1
        assert (traj.activation >= 0).sum() == (1 if strict else 7)  # a strict 0.5 never fires on a path

    @pytest.mark.parametrize("model,flag", [("ltm", "icm_retry"), ("icm", "ltm_strict")])
    @pytest.mark.parametrize("seeds", [[0], None], ids=["explicit-seeds", "drawn-seeds"])
    @pytest.mark.parametrize("steps", [0, 2])
    def test_rejects_a_flag_of_the_other_model(self, model, flag, seeds, steps):
        # the flag would be ignored, so it is refused before any seed is drawn
        g = star(4)
        rng = make_generator(44)
        with pytest.raises(ValueError, match=f"{flag} is read only by the {flag[:3]} model, not by '{model}'"):
            run_cascade(g, model, steps, seeds=seeds, seed_count=1, rng=rng, **{flag: True})
        assert rng.random() == make_generator(44).random()

    def test_states_past_fixed_point_are_one_object(self):
        rng = make_generator(39)
        stopped = 0
        for i in range(10):
            g = random_graph(rng, max_nodes=30, min_nodes=5)
            traj = run_cascade(g, "ltm", steps=12, seed_count=1, theta=0.4, rng=make_generator(40, i))
            states = traj.states
            assert len(states) == 13
            assert traj.sharer_counts().tolist() == [st.num_sharers for st in states]
            if traj.fixed_point_step is not None:
                stopped += 1
                assert len({id(st) for st in states[traj.fixed_point_step:]}) == 1
        assert stopped >= 5


class TestDirectedGraphRejected:
    """Cascades spread over undirected friendships; a DiGraph is named as the problem."""

    G = build_directed([(0, 1), (1, 2)], 3)

    @pytest.mark.parametrize("retry", [False, True])
    def test_icm_step(self, retry):
        with pytest.raises(ValueError, match="cascades run on undirected graphs"):
            icm_step(self.G, sharing(self.G, [0]), 0.5, make_generator(0), retry=retry)

    @pytest.mark.parametrize("strict", [False, True])
    def test_ltm_step(self, strict):
        with pytest.raises(ValueError, match="cascades run on undirected graphs"):
            ltm_step(self.G, sharing(self.G, [0]), 0.5, strict=strict)

    @pytest.mark.parametrize("model", ["icm", "ltm"])
    @pytest.mark.parametrize("steps", [0, 2])
    @pytest.mark.parametrize("seeds", [[0], None], ids=["explicit-seeds", "drawn-seeds"])
    def test_run_cascade(self, model, steps, seeds):
        # refused before any seed is drawn: the generator is left untouched
        rng = make_generator(1)
        with pytest.raises(ValueError, match="cascades run on undirected graphs"):
            run_cascade(self.G, model, steps, seeds=seeds, seed_count=1, rng=rng)
        assert rng.random() == make_generator(1).random()


class TestIcmDominance:
    def test_percolation_coupling_is_monotone_in_p(self):
        # shared per-edge-attempt uniforms: the set reachable through
        # attempts that succeed at p is a subset of the one at p' > p
        rng = make_generator(33)
        for _ in range(20):
            g = random_graph(rng, max_nodes=25, min_nodes=5)
            u = {tuple(e): rng.random() for e in np.vstack([g.edge_array, g.edge_array[:, ::-1]]).tolist()}
            seed = int(rng.integers(g.num_nodes))

            def reachable(p):
                seen = {seed}
                frontier = [seed]
                while frontier:
                    fresh = []
                    for a in frontier:
                        for b in g.neighbors(a).tolist():
                            if b not in seen and u[(a, b)] < p:
                                seen.add(b)
                                fresh.append(b)
                    frontier = fresh
                return seen

            assert reachable(0.3) <= reachable(0.6)

    def test_mean_final_size_increases_with_p(self):
        g = complete(6)
        sizes = {}
        for p in (0.2, 0.6):
            totals = [
                run_cascade(g, "icm", steps=10, seeds=[0], p_inf=p,
                            rng=make_generator(34, i)).state(10).num_sharers
                for i in range(400)
            ]
            sizes[p] = np.mean(totals)
        assert sizes[0.6] > sizes[0.2]


class TestPercolationThresholdOracle:
    def test_ihara_bass_matches_explicit_nonbacktracking_matrix(self):
        rng = make_generator(60)
        graphs = [complete(5), cycle(7),
                  # a triangle with a pendant path and an isolated node: m < n
                  build_undirected([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 6)]
        while len(graphs) < 8:
            g = random_graph(rng, max_nodes=20, min_nodes=8, p=0.3)
            if g.num_edges > g.num_nodes:  # guarantees a cycle
                graphs.append(g)
        for g in graphs:
            rho = np.abs(np.linalg.eigvals(nonbacktracking_matrix(g))).max()
            assert nb_percolation_threshold(g) == pytest.approx(1.0 / rho, rel=1e-9)
        # d-regular graphs have lambda_NB = d - 1
        assert nb_percolation_threshold(complete(5)) == pytest.approx(1.0 / 3.0)
        assert nb_percolation_threshold(cycle(7)) == pytest.approx(1.0)

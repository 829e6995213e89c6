"""Estimators, exact variances, and the decision machinery."""

import math

import numpy as np
import pytest

from exposure_lab import (
    ExponentialDegrees,
    MarkovianSpec,
    PowerLawDegrees,
    SharingState,
    build_directed,
    build_undirected,
    condition_analytic,
    condition_empirical,
    condition_independent_case,
    directed_estimates,
    exact_variance_fp,
    exact_variance_vanilla,
    exposure_bits,
    fp_estimate,
    make_generator,
    markovian_exposure_prob,
    run_cascade,
    sample_directed_many,
    sample_random_friends,
    sharer_degree_sign_heuristic,
    true_exposure,
    vanilla_estimate,
)
from exposure_lab.genmodel import configuration_model, powerlaw_degree_sequence
from exposure_lab.harness import compact_nonisolated

from oracles import (
    complete,
    cycle,
    enum_directed_expectation,
    enum_fp_expectation,
    enum_fp_variance,
    enum_vanilla_expectation,
    per_step_moments,
    random_digraph,
    random_graph,
    random_sharing_mask,
    reference_markovian_spec,
    star,
)


def sharing(g, sharers):
    return SharingState.from_sharers(sharers, g.num_nodes)


class TestVanillaEstimate:
    def test_simple_mean(self):
        assert vanilla_estimate([1, 0, 1, 1]).estimate == pytest.approx(0.75)

    def test_all_zeros(self):
        assert vanilla_estimate([0, 0, 0]).estimate == 0.0

    def test_census_recovers_truth(self):
        g = star(4)
        s = sharing(g, [0])
        bits = exposure_bits(g, s, np.arange(5))
        assert vanilla_estimate(bits).estimate == pytest.approx(0.8, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vanilla_estimate([])


class TestFpEstimate:
    def test_star_single_leaf_sample(self):
        g = star(4)
        s = sharing(g, [0])
        assert fp_estimate(g, [1], s).estimate == pytest.approx(1.6)

    def test_star_single_center_sample(self):
        g = star(4)
        s = sharing(g, [0])
        assert fp_estimate(g, [0], s).estimate == 0.0

    def test_enumeration_is_unbiased_on_star(self):
        g = star(4)
        s = sharing(g, [0])
        assert enum_fp_expectation(g, s.mask) == pytest.approx(0.8, abs=1e-12)

    def test_dbar_override(self):
        g = star(4)
        s = sharing(g, [0])
        rep = fp_estimate(g, [1], s, d_bar=2.0)
        assert rep.estimate == pytest.approx(2.0)
        assert rep.d_bar == 2.0

    @pytest.mark.parametrize("d_bar", [-3.0, 0.0, math.nan, math.inf])
    def test_dbar_override_must_be_finite_and_positive(self, d_bar):
        s = sharing(star(4), [0])
        with pytest.raises(ValueError, match="d_bar must be finite and > 0"):
            fp_estimate(star(4), [1], s, d_bar=d_bar)
        g = build_directed([(0, 1), (1, 2), (2, 0)], 3)
        for mode in ("node", "friend", "follower"):
            with pytest.raises(ValueError, match="d_bar must be finite and > 0"):
                directed_estimates(g, mode, [1], sharing(g, [0]), d_bar=d_bar)

    def test_estimates_not_clamped(self):
        # single-draw values can exceed 1 by design; clamping would bias them
        g = star(9)
        s = sharing(g, [0])
        assert fp_estimate(g, [1], s).estimate > 1.0

    def test_unbiased_by_enumeration_random_graphs(self):
        rng = make_generator(70)
        for _ in range(60):
            g = random_graph(rng, max_nodes=12)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            f_bar = true_exposure(g, s)
            assert enum_fp_expectation(g, mask) == pytest.approx(f_bar, abs=1e-12)
            assert enum_vanilla_expectation(g, mask) == pytest.approx(f_bar, abs=1e-12)

    def test_permutation_equivariance(self):
        rng = make_generator(71)
        g = random_graph(rng, max_nodes=15)
        mask = random_sharing_mask(rng, g.num_nodes)
        perm = rng.permutation(g.num_nodes)
        g2 = build_undirected(perm[g.edge_array], g.num_nodes)
        s = SharingState(mask.copy())
        mask2 = np.zeros_like(mask)
        mask2[perm[np.flatnonzero(mask)]] = True
        s2 = SharingState(mask2)
        friends = sample_random_friends(g, 50, make_generator(72))
        a = fp_estimate(g, friends, s).estimate
        b = fp_estimate(g2, perm[friends], s2).estimate
        assert a == pytest.approx(b, abs=1e-12)

    def test_degree_zero_sample_rejected(self):
        # 0/0 would otherwise turn the whole estimate into a silent NaN
        g = build_undirected([(0, 1)], 3)
        s = sharing(g, [0])
        with pytest.raises(ValueError, match="node 2 has degree 0"):
            fp_estimate(g, [1, 2, 1], s)


class TestSampleRows:
    """A 2-D sample array gives one estimate per row, the same as the 1-D call on that row."""

    def test_one_dimensional_calls_return_floats(self):
        g = star(4)
        s = sharing(g, [0])
        dg = build_directed([(0, 1), (1, 2), (2, 0)], 3)
        ds = SharingState.from_sharers([0], 3)
        reports = [vanilla_estimate([1, 0, 1]), fp_estimate(g, [1, 0, 2], s)]
        reports += [directed_estimates(dg, mode, [0, 1, 2], ds) for mode in ("node", "friend", "follower")]
        for rep in reports:
            assert type(rep.estimate) is float
            assert rep.n == 3

    def test_rows_equal_one_dimensional_calls(self):
        rng = make_generator(73)
        for _ in range(20):
            g = random_graph(rng, max_nodes=30)
            s = SharingState(random_sharing_mask(rng, g.num_nodes))
            friends = sample_random_friends(g, 6 * 40, rng).reshape(6, 40)
            bits = exposure_bits(g, s, friends.ravel()).reshape(friends.shape)
            dg = random_digraph(rng, max_nodes=30)
            ds = SharingState(random_sharing_mask(rng, dg.num_nodes))
            batched = [(vanilla_estimate(bits), [vanilla_estimate(row) for row in bits]),
                       (fp_estimate(g, friends, s), [fp_estimate(g, row, s) for row in friends])]
            for mode in ("node", "friend", "follower"):
                samples = sample_directed_many(dg, mode, 6 * 40, rng).reshape(6, 40)
                batched.append((directed_estimates(dg, mode, samples, ds, 1.5),
                                [directed_estimates(dg, mode, row, ds, 1.5) for row in samples]))
            for report, rows in batched:
                assert report.estimate.shape == (6,) and report.n == 40
                assert report.estimate.tolist() == [r.estimate for r in rows]

    def test_degree_zero_sample_in_a_row_rejected(self):
        g = build_undirected([(0, 1)], 3)
        s = sharing(g, [0])
        with pytest.raises(ValueError, match="node 2 has degree 0"):
            fp_estimate(g, [[1, 0], [1, 2]], s)


class TestDirectedEstimates:
    def test_cycle_follower_mode_exact(self):
        g = build_directed([(0, 1), (1, 2), (2, 0)], 3)
        s = sharing(g, [0])
        assert true_exposure(g, s) == pytest.approx(1 / 3)
        assert enum_directed_expectation(g, s.mask, "follower") == pytest.approx(1 / 3, abs=1e-12)

    def test_out_star_friend_mode_degenerate_support(self):
        # only node 0 has out-degree and it is unexposed, so every
        # friend-mode draw evaluates to 0 while two thirds are exposed
        g = build_directed([(0, 1), (0, 2)], 3)
        s = sharing(g, [0])
        assert true_exposure(g, s) == pytest.approx(2 / 3)
        assert directed_estimates(g, "friend", [0], s).estimate == 0.0
        assert enum_directed_expectation(g, s.mask, "friend") == 0.0

    def test_out_star_follower_mode_exact(self):
        g = build_directed([(0, 1), (0, 2)], 3)
        s = sharing(g, [0])
        assert directed_estimates(g, "follower", [1], s).estimate == pytest.approx(2 / 3)
        assert enum_directed_expectation(g, s.mask, "follower") == pytest.approx(2 / 3, abs=1e-12)

    def test_node_mode_is_plain_mean(self):
        g = build_directed([(0, 1), (1, 2), (2, 0)], 3)
        s = sharing(g, [0])
        assert directed_estimates(g, "node", [0, 1, 2], s).estimate == pytest.approx(1 / 3)

    def test_degree_zero_link_samples_rejected(self):
        # out-star: leaves have out-degree 0 (an exposed one would give 1/0 = inf)
        # and the hub has in-degree 0 (0/0 = NaN); node mode needs no degree
        g = build_directed([(0, 1), (0, 2)], 3)
        s = sharing(g, [0])
        with pytest.raises(ValueError, match="node 1 has out-degree 0"):
            directed_estimates(g, "friend", [0, 1], s)
        with pytest.raises(ValueError, match="node 0 has in-degree 0"):
            directed_estimates(g, "follower", [2, 0], s)
        assert directed_estimates(g, "node", [0, 1], s).estimate == 0.5

    @pytest.mark.parametrize("mode", ["fp", "friends", ""])
    def test_unknown_directed_mode_rejected(self, mode):
        g = build_directed([(0, 1), (1, 2)], 3)
        with pytest.raises(ValueError, match=f"unknown estimator mode: '{mode}'"):
            directed_estimates(g, mode, [1], sharing(g, [0]))

    def test_node_and_follower_enumeration_unbiased(self):
        rng = make_generator(73)
        for _ in range(40):
            g = random_digraph(rng)
            mask = random_sharing_mask(rng, g.num_nodes)
            f_bar = true_exposure(g, SharingState(mask.copy()))
            assert enum_directed_expectation(g, mask, "node") == pytest.approx(f_bar, abs=1e-12)
            # followers: every exposed node has an in-link, so the in-degree
            # correction telescopes exactly
            assert enum_directed_expectation(g, mask, "follower") == pytest.approx(f_bar, abs=1e-12)

    def test_friend_mode_bias_equals_unreached_exposed_mass(self):
        # friend-mode enumeration misses exposed nodes with no outgoing links
        rng = make_generator(74)
        seen_bias = 0
        for _ in range(40):
            g = random_digraph(rng)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            f_bar = true_exposure(g, s)
            exposed = exposure_bits(g, s, np.arange(g.num_nodes))
            missing = np.sum(exposed & (np.asarray(g.out_degrees) == 0)) / g.num_nodes
            got = enum_directed_expectation(g, mask, "friend")
            assert got == pytest.approx(f_bar - missing, abs=1e-12)
            seen_bias += missing > 0
        assert seen_bias > 0  # the degenerate case genuinely occurs


class TestExactVariances:
    def test_vanilla_star_value(self):
        assert exact_variance_vanilla(0.8, 1) == pytest.approx(0.16, abs=1e-12)

    def test_vanilla_edge_values(self):
        assert exact_variance_vanilla(0.0, 5) == 0.0
        assert exact_variance_vanilla(1.0, 5) == 0.0
        assert exact_variance_vanilla(0.5, 100) == pytest.approx(0.0025)

    def test_fp_star_center_sharing(self):
        g = star(4)
        assert exact_variance_fp(g, sharing(g, [0]), 1) == pytest.approx(0.64, abs=1e-12)

    def test_fp_star_leaf_sharing(self):
        g = star(4)
        assert exact_variance_fp(g, sharing(g, [1]), 1) == pytest.approx(0.04, abs=1e-12)

    def test_regular_graph_variances_equal(self):
        g = cycle(6)
        s = sharing(g, [0, 3])
        f_bar = true_exposure(g, s)
        assert exact_variance_fp(g, s, 7) == pytest.approx(exact_variance_vanilla(f_bar, 7), abs=1e-15)

    def test_fp_matches_enumeration_oracle(self):
        rng = make_generator(75)
        for _ in range(40):
            g = random_graph(rng, max_nodes=15)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            assert exact_variance_fp(g, s, 1) == pytest.approx(enum_fp_variance(g, mask), abs=1e-10)

    def test_fp_matches_empirical_single_draw_variance(self):
        rng = make_generator(76)
        for trial in range(5):
            g = random_graph(rng, max_nodes=15, min_nodes=5)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            friends = sample_random_friends(g, 100_000, make_generator(77, trial))
            d_bar = 2 * g.num_edges / g.num_nodes
            vals = d_bar * exposure_bits(g, s, friends) / g.degrees[friends]
            emp_var = vals.var(ddof=1)
            fourth = np.mean((vals - vals.mean()) ** 4)
            se = math.sqrt(max(fourth - emp_var**2, 0.0) / vals.size)
            assert abs(emp_var - exact_variance_fp(g, s, 1)) <= 3 * se + 1e-12


class TestConditionEmpirical:
    def test_star_center_prefers_vanilla(self):
        g = star(4)
        v = condition_empirical(g, sharing(g, [0]))
        assert v.lhs_value == pytest.approx(-0.48, abs=1e-12)
        assert not v.fp_preferred and not v.tie

    def test_star_leaf_prefers_fp(self):
        g = star(4)
        v = condition_empirical(g, sharing(g, [1]))
        assert v.lhs_value == pytest.approx(0.12, abs=1e-12)
        assert v.fp_preferred and not v.tie

    def test_regular_graph_is_a_tie(self):
        g = cycle(5)
        v = condition_empirical(g, sharing(g, [0]))
        assert v.tie
        assert abs(v.lhs_value) <= 1e-12

    def test_sign_matches_variance_gap(self):
        rng = make_generator(78)
        for _ in range(200):
            g = random_graph(rng, max_nodes=30)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            f_bar = true_exposure(g, s)
            gap = exact_variance_vanilla(f_bar, 1) - exact_variance_fp(g, s, 1)
            v = condition_empirical(g, s)
            assert v.lhs_value == pytest.approx(gap, abs=1e-12)
            if abs(gap) > 1e-12:
                assert v.fp_preferred == (gap > 0)

    def test_verdict_keeps_the_moments_it_compared(self):
        rng = make_generator(79)
        for _ in range(200):
            g = random_graph(rng, max_nodes=30)
            s = SharingState(random_sharing_mask(rng, g.num_nodes))
            v = condition_empirical(g, s)
            assert v.f_bar == true_exposure(g, s)
            assert v.fp_moment - v.f_bar * v.f_bar == exact_variance_fp(g, s, 1)
            assert v.lhs_value == v.f_bar - v.fp_moment

    @pytest.mark.parametrize("g, message", [
        (build_undirected([], 0), "true exposure is undefined on an empty graph"),
        (build_undirected([], 3), "the comparison needs at least one edge"),
    ])
    def test_edgeless_graphs_rejected(self, g, message):
        with pytest.raises(ValueError, match=message):
            condition_empirical(g, SharingState.from_sharers([], g.num_nodes))


class TestPerStepMoments:
    """The per-step moments from exposure times equal the static quantities of every replayed state."""

    @pytest.mark.parametrize("model", ["icm", "ltm"])
    def test_match_every_state_of_a_cascade(self, model):
        rng = make_generator(83)
        for i in range(15):
            g = random_graph(rng, max_nodes=40, min_nodes=5, p=0.15)
            traj = run_cascade(g, model, steps=8, seed_count=2, p_inf=0.4, theta=0.2, rng=make_generator(84, i))
            f, q = per_step_moments(g, traj)
            assert f.shape == q.shape == (traj.steps + 1,)
            for t in range(traj.steps + 1):
                state = traj.state(t)
                assert f[t] == pytest.approx(true_exposure(g, state), abs=1e-12)
                assert q[t] - f[t] ** 2 == pytest.approx(exact_variance_fp(g, state, 1), abs=1e-12)
                assert f[t] - q[t] == pytest.approx(condition_empirical(g, state).lhs_value, abs=1e-12)


def star_markovian_spec(leaves=4):
    """Exact degree-level statistics of the hub-and-leaves graph with the hub sharing."""
    n = leaves + 1
    return MarkovianSpec(
        degree_support=np.array([1, leaves]),
        degree_dist=np.array([leaves / n, 1 / n]),
        neighbor_degree_dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
        sharing_prob_given_degree=np.array([0.0, 1.0]),
    )


class TestMarkovianSpec:
    def test_detailed_balance_enforced(self):
        with pytest.raises(ValueError):
            MarkovianSpec(
                degree_support=np.array([1, 4]),
                degree_dist=np.array([0.5, 0.5]),
                neighbor_degree_dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                sharing_prob_given_degree=np.array([0.0, 1.0]),
            )

    def test_row_sums_enforced(self):
        with pytest.raises(ValueError):
            MarkovianSpec(
                degree_support=np.array([1, 4]),
                degree_dist=np.array([0.8, 0.2]),
                neighbor_degree_dist=np.array([[0.2, 0.2], [1.0, 0.0]]),
                sharing_prob_given_degree=np.array([0.0, 1.0]),
            )

    def test_from_graph_matches_hand_built_star_spec(self):
        g = star(4)
        got = MarkovianSpec.from_graph(g, sharing(g, [0]))
        want = star_markovian_spec()
        assert np.array_equal(got.degree_support, want.degree_support)
        assert np.allclose(got.degree_dist, want.degree_dist)
        assert np.allclose(got.neighbor_degree_dist, want.neighbor_degree_dist)
        assert np.allclose(got.sharing_prob_given_degree, want.sharing_prob_given_degree)

    def test_from_graph_equals_a_per_edge_count_on_configuration_model_graphs(self):
        rng = make_generator(331)
        for n, alpha in [(30, 2.1), (200, 2.5), (2000, 2.2), (2000, 3.0)]:
            g = compact_nonisolated(configuration_model(powerlaw_degree_sequence(n, alpha, 1, rng), rng))[0]
            mask = random_sharing_mask(rng, g.num_nodes)
            got = MarkovianSpec.from_graph(g, SharingState.from_sharers(np.flatnonzero(mask), g.num_nodes))
            arrays = (got.degree_support, got.degree_dist, got.neighbor_degree_dist, got.sharing_prob_given_degree)
            for a, b in zip(arrays, reference_markovian_spec(g, mask)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert (a == b).all()


class TestMarkovianExposureProb:
    def test_nobody_shares(self):
        spec = star_markovian_spec()
        spec = MarkovianSpec(spec.degree_support, spec.degree_dist,
                             spec.neighbor_degree_dist, np.zeros(2))
        assert markovian_exposure_prob(spec, 1) == 0.0
        assert markovian_exposure_prob(spec, 4) == 0.0

    def test_everybody_shares(self):
        spec = star_markovian_spec()
        spec = MarkovianSpec(spec.degree_support, spec.degree_dist,
                             spec.neighbor_degree_dist, np.ones(2))
        assert markovian_exposure_prob(spec, 1) == 1.0
        assert markovian_exposure_prob(spec, 4) == 1.0

    def test_two_class_value_matches_direct_summation(self):
        # neutral (uncorrelated) mixing between degree classes 1 and 4
        ks = np.array([1, 4])
        pk = np.array([0.8, 0.2])
        d_bar = float(np.sum(ks * pk))
        edge_weights = ks * pk / d_bar  # degree-biased class frequencies
        pkk = np.tile(edge_weights, (2, 1))
        rho = np.array([0.3, 0.9])
        spec = MarkovianSpec(ks, pk, pkk, rho)
        for i, k in enumerate(ks):
            fail_one = sum(pkk[i, j] * (1 - rho[j]) for j in range(2))
            want = 1.0 - fail_one ** k
            assert markovian_exposure_prob(spec, int(k)) == pytest.approx(want, abs=1e-12)

    def test_unknown_degree_rejected(self):
        with pytest.raises(ValueError):
            markovian_exposure_prob(star_markovian_spec(), 3)


class TestConditionAnalytic:
    def test_single_degree_class_is_a_tie(self):
        spec = MarkovianSpec(np.array([3]), np.array([1.0]), np.array([[1.0]]), np.array([0.4]))
        v = condition_analytic(spec)
        assert v.tie
        assert v.lhs_value == pytest.approx(0.0, abs=1e-12)

    def test_star_spec_matches_empirical_condition(self):
        g = star(4)
        v_emp = condition_empirical(g, sharing(g, [0]))
        v_ana = condition_analytic(star_markovian_spec())
        assert v_ana.lhs_value == pytest.approx(v_emp.lhs_value, abs=1e-12)
        assert v_ana.fp_preferred == v_emp.fp_preferred

    def test_independent_powerlaw_prefers_vanilla(self):
        spec_dist = PowerLawDegrees(2.5, 1, 1000)
        pk = spec_dist.pmf()
        ks = spec_dist.support()
        d_bar = float(np.sum(ks * pk))
        pkk = np.tile(ks * pk / d_bar, (ks.size, 1))
        spec = MarkovianSpec(ks, pk, pkk, np.full(ks.size, 0.05))
        v = condition_analytic(spec)
        assert v.lhs_value < 0
        assert not v.fp_preferred

    def test_degree_zero_support_rejected(self):
        spec = MarkovianSpec(np.array([0, 2]), np.array([0.5, 0.5]),
                             np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            condition_analytic(spec)

    def test_matches_empirical_on_bipartite_block_family(self):
        # disjoint complete-bipartite blocks with disjoint degree values and
        # per-degree-class deterministic sharing: exposure is exactly a
        # function of the degree class, so the ensemble formula must agree
        # with the concrete-graph computation
        rng = make_generator(79)
        for _ in range(20):
            blocks = []
            offset = 0
            edges = []
            used_degrees = set()
            for (a, b) in ((2, 5), (3, 7), (4, 9)):
                if rng.random() < 0.3:
                    continue
                if a in used_degrees or b in used_degrees:
                    continue
                used_degrees.update((a, b))
                for i in range(a):
                    for j in range(b):
                        edges.append((offset + i, offset + a + j))
                blocks.append((offset, a, b))
                offset += a + b
            if not blocks:
                continue
            g = build_undirected(edges, offset)
            mask = np.zeros(offset, dtype=bool)
            for (start, a, b) in blocks:
                if rng.random() < 0.5:
                    mask[start : start + a] = True  # the whole degree-b class shares
                if rng.random() < 0.5:
                    mask[start + a : start + a + b] = True
            s = SharingState(mask.copy())
            if not 0 < mask.sum() < offset:
                continue
            spec = MarkovianSpec.from_graph(g, s)
            v_emp = condition_empirical(g, s)
            v_ana = condition_analytic(spec)
            assert v_ana.lhs_value == pytest.approx(v_emp.lhs_value, abs=1e-9)


class TestConditionIndependentCase:
    def test_nobody_shares_is_zero(self):
        v = condition_independent_case(PowerLawDegrees(2.5), 1.0)
        assert v.lhs_value == 0.0
        assert v.tie

    def test_single_point_support_is_zero(self):
        v = condition_independent_case(PowerLawDegrees(2.5, 3, 3), 0.7)
        assert v.lhs_value == pytest.approx(0.0, abs=1e-12)
        assert v.tie

    def test_a_preference_at_tiny_exposure_is_not_a_tie(self):
        # f_bar is 1.93e-7 and lhs -7.2e-13: the two variances differ by about
        # 4e-6 of their size, a real preference for vanilla however small lhs is
        v = condition_independent_case(PowerLawDegrees(2.5), 1 - 1e-7)
        assert -1e-12 < v.lhs_value < 0
        assert not v.tie
        assert not v.fp_preferred

    def test_vanilla_preferred_across_parameter_grid(self):
        for alpha in np.linspace(2.1, 3.5, 10):
            for rho0 in np.linspace(0.5, 0.99, 10):
                assert condition_independent_case(PowerLawDegrees(float(alpha)), float(rho0)).lhs_value < 0
        for lam in np.linspace(0.1, 2.0, 10):
            for rho0 in np.linspace(0.5, 0.99, 10):
                assert condition_independent_case(ExponentialDegrees(float(lam)), float(rho0)).lhs_value < 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PowerLawDegrees(2.0)
        with pytest.raises(ValueError):
            ExponentialDegrees(0.0)
        with pytest.raises(ValueError):
            condition_independent_case(PowerLawDegrees(2.5), 1.5)

    def test_tail_mass_reported(self):
        assert 0 < PowerLawDegrees(2.1, 1, 100).truncated_tail_mass() < 0.2
        assert ExponentialDegrees(0.5, 1, 50).truncated_tail_mass() < 1e-9


class TestSharerDegreeSignHeuristic:
    def test_star_center_sharing_positive(self):
        g = star(4)
        assert sharer_degree_sign_heuristic(g, sharing(g, [0]), 100, make_generator(80)) == "positive"

    def test_star_leaf_sharing_negative_with_census(self):
        g = star(4)
        # sample_size covers all non-sharers: exact means 1 vs 7/4
        assert sharer_degree_sign_heuristic(g, sharing(g, [1]), 100, make_generator(81)) == "negative"

    def test_regular_graph_inconclusive(self):
        g = complete(5)
        assert sharer_degree_sign_heuristic(g, sharing(g, [0, 1]), 100, make_generator(82)) == "inconclusive"

    def test_all_share_rejected(self):
        g = star(4)
        with pytest.raises(ValueError):
            sharer_degree_sign_heuristic(g, sharing(g, list(range(5))), 10, make_generator(0))

    def test_empty_sharers_rejected(self):
        g = star(4)
        with pytest.raises(ValueError):
            sharer_degree_sign_heuristic(g, sharing(g, []), 10, make_generator(0))

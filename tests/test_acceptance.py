"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s``). Monte
Carlo protocols use frozen seeds so the suite is deterministic.

The ICM tracker orderings run each graph at its own percolation threshold
1/lambda_NB and compare the trackers' exact expected errors: a fixed
infection probability of 0.05 is near-critical only on the disassortative
graph and floods the assortative one, and at the threshold a single
tracker run cannot resolve the few-percent gap. One check fails on its
recipe and is asserted unchanged rather than weakened: the assortative LTM
ordering, where a 5% threshold makes every node share by step 6, after
which the vanilla observation has variance 0 and the fp one does not.
"""

import math

import numpy as np
import pytest

from exposure_lab import (
    CorrelationTarget,
    ExponentialDegrees,
    PowerLawDegrees,
    SharingState,
    StepPolicy,
    condition_empirical,
    condition_independent_case,
    configuration_model,
    exact_variance_fp,
    exact_variance_vanilla,
    exposure_all,
    exposure_bits,
    is_bipartite,
    is_connected,
    make_generator,
    powerlaw_degree_sequence,
    random_walk_friends,
    rewire_to_assortativity,
    run_cascade,
    run_tracking_experiment,
    sample_random_friends,
    true_exposure,
)
from exposure_lab.harness import GridConfig, build_cell, method_generator, run_method

from oracles import (
    enum_directed_expectation,
    enum_fp_expectation,
    enum_vanilla_expectation,
    nb_percolation_threshold,
    per_step_moments,
    random_digraph,
    random_graph,
    random_sharing_mask,
    star,
)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


class TestUnbiasednessEnumeration:
    def test_exact_expectations_equal_truth(self):
        rng = make_generator(200)
        worst = 0.0
        for _ in range(500):
            g = random_graph(rng, max_nodes=12)
            mask = random_sharing_mask(rng, g.num_nodes)
            f_bar = true_exposure(g, SharingState(mask.copy()))
            worst = max(worst,
                        abs(enum_vanilla_expectation(g, mask) - f_bar),
                        abs(enum_fp_expectation(g, mask) - f_bar))
        _report("unbiasedness-enumeration", worst <= 1e-12, f"max |E[est] - truth| = {worst:.2e}")


class TestVarianceFormulas:
    def test_star_hand_values(self):
        g = star(4)
        v_fp = exact_variance_fp(g, SharingState.from_sharers([0], 5), 1)
        v_van = exact_variance_vanilla(0.8, 1)
        ok = abs(v_fp - 0.64) <= 1e-12 and abs(v_van - 0.16) <= 1e-12
        _report("variance-star-values", ok, f"fp={v_fp!r} vanilla={v_van!r}")

    def test_empirical_variance_within_three_stderr(self):
        rng = make_generator(201)
        failures = []
        for trial in range(20):
            g = random_graph(rng, max_nodes=20, min_nodes=5)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            f_bar = true_exposure(g, s)
            draw_rng = make_generator(202, trial)

            friends = sample_random_friends(g, 100_000, draw_rng)
            d_bar = 2 * g.num_edges / g.num_nodes
            fp_vals = d_bar * exposure_bits(g, s, friends) / g.degrees[friends]
            node_vals = exposure_bits(g, s, draw_rng.integers(0, g.num_nodes, 100_000)).astype(float)
            for vals, exact in ((fp_vals, exact_variance_fp(g, s, 1)),
                                (node_vals, exact_variance_vanilla(f_bar, 1))):
                emp = vals.var(ddof=1)
                fourth = np.mean((vals - vals.mean()) ** 4)
                se = math.sqrt(max(fourth - emp**2, 0.0) / vals.size)
                if abs(emp - exact) > 3 * se + 1e-12:
                    failures.append((trial, emp, exact, se))
        _report("variance-empirical-3se", not failures, f"failures={failures!r}")


class TestSignEquivalence:
    def test_condition_sign_matches_variance_gap(self):
        rng = make_generator(203)
        bad = 0
        for _ in range(200):
            g = random_graph(rng, max_nodes=30)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            gap = exact_variance_vanilla(true_exposure(g, s), 1) - exact_variance_fp(g, s, 1)
            verdict = condition_empirical(g, s)
            if abs(gap) <= 1e-12 or abs(verdict.lhs_value) <= 1e-12:
                ok = abs(gap - verdict.lhs_value) <= 1e-12
            else:
                ok = (gap > 0) == (verdict.lhs_value > 0) == verdict.fp_preferred
            bad += not ok
        _report("condition-sign-equivalence", bad == 0, f"{bad} mismatches of 200")


class TestIndependentSharingClaim:
    def test_vanilla_preferred_across_grid(self):
        worst = -math.inf
        for alpha in np.linspace(2.1, 3.5, 10):
            for rho0 in np.linspace(0.5, 0.99, 10):
                worst = max(worst, condition_independent_case(PowerLawDegrees(float(alpha)), float(rho0)).lhs_value)
        for lam in np.linspace(0.1, 2.0, 10):
            for rho0 in np.linspace(0.5, 0.99, 10):
                worst = max(worst, condition_independent_case(ExponentialDegrees(float(lam)), float(rho0)).lhs_value)
        _report("independent-sharing-vanilla", worst < 0, f"max lhs over grid = {worst:.3e}")


# Shaped-grid ordering cells. Per cell family the sharing probability is the
# one structural free parameter: the positive-correlation cells live in the
# sparse-sharing regime, while negative degree-sharing correlation is only
# reachable at all (its exact floor scales with sqrt(p)) when sharing is
# denser. The degree cap is the usual structural cutoff, without which a
# heavy-tail hub makes the mixing targets unreachable in a simple graph.
FIG1_CELLS = [
    # (alpha, rkk, rho, p, expected winner)
    (2.5, +0.2, +0.2, 0.01, "fp"),
    (2.5, -0.2, -0.2, 0.05, "fp"),
    (2.5, +0.2, -0.2, 0.01, "vanilla"),
    (2.5, -0.2, +0.2, 0.01, "vanilla"),
    (2.2, +0.2, +0.2, 0.005, "fp"),
    (2.2, -0.2, -0.2, 0.02, "fp"),
    (2.2, +0.2, -0.2, 0.01, "vanilla"),
    (2.2, -0.2, +0.2, 0.01, "vanilla"),
]


@pytest.mark.slow
class TestEstimatorOrderingsOnShapedGrids:
    @pytest.mark.parametrize("alpha,rkk,rho,p,expect", FIG1_CELLS,
                             ids=[f"a{a}_rkk{r:+}_rho{q:+}" for a, r, q, _, _ in FIG1_CELLS])
    def test_cell_ordering(self, alpha, rkk, rho, p, expect):
        wins = 0
        margins = []
        for seed in range(5):
            cfg = GridConfig(nodes=2000, alphas=(alpha,), k_min=1, k_max=85,
                             rkk_targets=(rkk,), rho_targets=(rho,), sharing_probs=(p,),
                             n_samples=100, reps=500, seed=seed, max_iters=300_000)
            g, s, *_ = build_cell(cfg, 0, alpha, rkk, rho, p)
            f_bar = true_exposure(g, s)
            exposed = exposure_all(g, s)
            err = {m: float(np.abs(run_method(m, g, exposed, 100, 500, method_generator(seed, 0, m)) - f_bar).sum())
                   for m in ("vanilla", "fp")}
            winner = "fp" if err["fp"] < err["vanilla"] else "vanilla"
            wins += winner == expect
            margins.append(round(100 * (err["vanilla"] - err["fp"]) / err["vanilla"], 1))
        _report(f"estimator-ordering a={alpha} ({rkk:+},{rho:+})", wins >= 4,
                f"{wins}/5 seeds favored {expect}; fp-vs-vanilla margins % = {margins}")


# Tracker-ordering recipe. Both trackers take constant steps of TRACK_EPSILON,
# TRACK_UPDATES updates per diffusion step, from 10 uniform seed nodes.
TRACK_EPSILON = 0.01
TRACK_UPDATES = 100
ICM_CASCADES = 40


def _recipe_graph(rkk, seed):
    """The 1e4-node tracker graph (power law 2.5, k in [3, 300]) rewired to
    assortativity rkk; returns it with the generator that built it."""
    rng = make_generator(1000 + seed)
    seq = powerlaw_degree_sequence(10_000, 2.5, 3, rng, k_max=300)
    g = configuration_model(seq, rng)
    g, _ = rewire_to_assortativity(g, CorrelationTarget(rkk, 0.01, 300_000), rng)
    return g, rng


def _tracking_mean_errors(rkk, seed):
    """One 30-step LTM tracking run at threshold 0.05; returns the trackers'
    mean absolute errors.

    Measured on the recipe graphs, at either mixing sign: every node shares
    by step 5 or 6 of 30. From then on the vanilla observation is always 1
    (variance exactly 0), while the fp observation d_bar/d(Y) keeps the
    variance d_bar*E[1/d] - 1 = 0.57 to 0.59 (Jensen's inequality), so the
    decision rule prefers vanilla on 29 or 30 of the 30 steps of every seed.
    """
    g, rng = _recipe_graph(rkk, seed)
    policy = StepPolicy("constant", TRACK_EPSILON)
    records = run_tracking_experiment(g, model="ltm", steps=30, schedule=TRACK_UPDATES,
                                      vanilla_policy=policy, fp_policy=policy,
                                      seed_count=10, theta=0.05, rng=rng)
    return (float(np.mean([r.vanilla_abs_error for r in records])),
            float(np.mean([r.fp_abs_error for r in records])))


def _expected_tracker_errors(g, trajectory):
    """Exact expected time-averaged squared error of the vanilla and fp
    trackers along one cascade, over the trackers' own sampling.

    Both start at 0 and make TRACK_UPDATES constant-step updates against
    each frozen step-t state. With a = (1-eps)^U the estimate's mean follows
    m <- a*m + (1-a)*f_t and its variance v <- a^2*v + eps^2 (1-a^2) /
    (1-(1-eps)^2) * V_t, V_t being the one-sample variance of the tracker's
    observation on the step-t state. The expected squared error is
    (m - f_t)^2 + v; the lag term is common to both trackers. f_t and the
    fp observation's second moment q_t come from the exposure times, so
    V_t is f_t (1 - f_t) for vanilla and q_t - f_t^2 for fp.
    """
    a = (1.0 - TRACK_EPSILON) ** TRACK_UPDATES
    gain = TRACK_EPSILON**2 * (1.0 - a * a) / (1.0 - (1.0 - TRACK_EPSILON) ** 2)
    m = v_van = v_fp = 0.0
    err_van = err_fp = 0.0
    f, q = per_step_moments(g, trajectory)
    for t in range(1, trajectory.steps + 1):
        f_bar = float(f[t])
        var_van, var_fp = exact_variance_vanilla(f_bar, 1), float(q[t]) - f_bar * f_bar
        m = a * m + (1.0 - a) * f_bar
        v_van = a * a * v_van + gain * var_van
        v_fp = a * a * v_fp + gain * var_fp
        lag = (m - f_bar) ** 2
        err_van += lag + v_van
        err_fp += lag + v_fp
    return err_van / trajectory.steps, err_fp / trajectory.steps


def _vote(name, expect, errors, detail=""):
    """Per-seed winner by lower (vanilla, fp) error; passes on >= 4/5 seeds."""
    wins = sum(("fp" if ef < ev else "vanilla") == expect for ev, ef in errors)
    gaps = [round(100 * (ev - ef) / max(ev, 1e-12), 1) for ev, ef in errors]
    _report(name, wins >= 4, f"{wins}/5 seeds favored {expect}; fp-vs-vanilla gaps % = {gaps}{detail}")


def _icm_ordering(name, rkk, expect):
    """ICM at each graph's own percolation threshold p_inf = 1/lambda_NB,
    judged by the exact expected tracker errors summed over ICM_CASCADES
    cascades of 100 steps per seed."""
    errors = []
    thresholds = []
    for seed in range(5):
        g, rng = _recipe_graph(rkk, seed)
        p_inf = nb_percolation_threshold(g)
        ev = ef = 0.0
        for _ in range(ICM_CASCADES):
            trajectory = run_cascade(g, "icm", 100, seed_count=10, p_inf=p_inf, rng=rng)
            van, fp = _expected_tracker_errors(g, trajectory)
            ev += van
            ef += fp
        errors.append((ev, ef))
        thresholds.append(round(p_inf, 4))
    _vote(name, expect, errors, f"; p_inf = 1/lambda_NB = {thresholds}")


@pytest.mark.slow
class TestTrackerOrderingsOnCascades:
    def test_icm_disassortative_prefers_vanilla(self):
        # 1/lambda_NB = 0.050-0.054 on these graphs.
        _icm_ordering("tracking icm rkk=-0.2", -0.2, "vanilla")

    def test_ltm_disassortative_prefers_vanilla(self):
        # Passes through saturation, not mixing: see _tracking_mean_errors.
        _vote("tracking ltm rkk=-0.2", "vanilla",
              [_tracking_mean_errors(-0.2, seed) for seed in range(5)])

    def test_icm_assortative_prefers_fp(self):
        # Assortative mixing lowers the percolation threshold (Newman 2002).
        # Rewiring keeps the degrees, so the degree-only threshold 1/kappa
        # ~ 0.028 is common to both mixings, yet lambda_NB is ~19 on the
        # rkk=-0.2 graphs and 57-63 here. A fixed p_inf = 0.05 is thus
        # 2.8-3.2x supercritical: 3 of 5 cascades flood to ~9% sharers and
        # exposure ~0.6, the rule prefers vanilla on 95-96 of their 100
        # steps, and the exact expected error favours vanilla by 61-77% on
        # every seed. At each graph's own threshold fp leads by 3-18% in
        # expectation, while one tracker run's abs-error gap has a standard
        # deviation of 16 points (fp ahead in 19 of 30 runs on seed 0).
        _icm_ordering("tracking icm rkk=+0.2", +0.2, "fp")

    def test_ltm_assortative_prefers_fp(self):
        # Fails on this recipe, asserted unchanged. At threshold 0.05 every
        # node shares by step 6 and the rule then prefers vanilla at every
        # step (see _tracking_mean_errors). By the exact expected tracker
        # errors over 40 cascades per seed, thresholds 0.05-0.25 favour
        # vanilla on every seed here, while 0.2-0.25 favour fp on every
        # rkk=-0.2 seed: the ordering reverses. At 0.3-0.34 fp leads by at
        # most 10%, on 2 to 5 seeds depending on the cascade draws, and on
        # 2 or 3 rkk=-0.2 seeds as well. Mending it waits for the paper's
        # own LTM setup.
        _vote("tracking ltm rkk=+0.2", "fp",
              [_tracking_mean_errors(+0.2, seed) for seed in range(5)])


class TestRandomWalkSampler:
    def test_total_variation_to_degree_distribution(self):
        rng = make_generator(204)
        while True:
            g = random_graph(rng, max_nodes=30, min_nodes=30, p=0.18)
            if g.degrees.min() >= 1 and is_connected(g) and not is_bipartite(g):
                break
        exact = g.degrees / (2 * g.num_edges)
        draws = random_walk_friends(g, 0, burn_in=500, thin=5, num_samples=100_000,
                                    rng=make_generator(205))
        freqs = np.bincount(draws, minlength=g.num_nodes) / draws.size
        tv = 0.5 * float(np.abs(freqs - exact).sum())
        _report("random-walk-tv", tv < 0.02, f"TV = {tv:.4f} on {g.num_nodes} nodes")


class TestCascadeInvariants:
    def test_monotonicity_and_ltm_determinism(self):
        rng = make_generator(206)
        violations = 0
        for i in range(1000):
            g = random_graph(rng, max_nodes=25, min_nodes=4)
            model = "icm" if i % 2 else "ltm"
            traj = run_cascade(g, model, steps=8, seed_count=min(2, g.num_nodes),
                               p_inf=0.3, theta=0.25, rng=make_generator(207, i))
            for t in range(traj.steps):
                if not set(traj.state(t).sharers.tolist()) <= set(traj.state(t + 1).sharers.tolist()):
                    violations += 1
        rng = make_generator(208)
        g = random_graph(rng, max_nodes=40, min_nodes=20)
        seeds = [0, 1, 2]
        a = run_cascade(g, "ltm", steps=10, seeds=seeds, theta=0.2)
        b = run_cascade(g, "ltm", steps=10, seeds=seeds, theta=0.2)
        deterministic = all(a.state(t).mask.tobytes() == b.state(t).mask.tobytes() for t in range(a.steps + 1))
        _report("cascade-invariants", violations == 0 and deterministic,
                f"monotonicity violations={violations}, ltm byte-exact={deterministic}")


class TestDirectedEnumeration:
    def test_node_mode_exact_and_link_mode_findings(self):
        rng = make_generator(209)
        worst_node = 0.0
        friend_devs = []
        follower_devs = []
        for _ in range(100):
            g = random_digraph(rng, max_nodes=10)
            mask = random_sharing_mask(rng, g.num_nodes)
            f_bar = true_exposure(g, SharingState(mask.copy()))
            worst_node = max(worst_node, abs(enum_directed_expectation(g, mask, "node") - f_bar))
            friend_devs.append(abs(enum_directed_expectation(g, mask, "friend") - f_bar))
            follower_devs.append(abs(enum_directed_expectation(g, mask, "follower") - f_bar))
        n_friend_biased = sum(d > 1e-12 for d in friend_devs)
        print(f"\nfindings: friend-mode enumeration deviated from the truth on "
              f"{n_friend_biased}/100 graphs (max {max(friend_devs):.3f}); exposed nodes "
              f"without outgoing links are unreachable by friend sampling. "
              f"follower-mode max deviation {max(follower_devs):.2e} (exact: every "
              f"exposed node has an incoming link).")
        _report("directed-enumeration", worst_node <= 1e-12,
                f"node-mode max |E - truth| = {worst_node:.2e}")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"] + sys.argv[1:]))

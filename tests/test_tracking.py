"""Stochastic-approximation trackers."""

import math

import numpy as np
import pytest

from exposure_lab import (
    SharingState,
    StepPolicy,
    average_degree,
    build_directed,
    build_undirected,
    cascade,
    degree_sharing_correlation,
    exact_variance_fp,
    exact_variance_vanilla,
    exposure_all,
    exposure_bits,
    icm_step,
    ltm_step,
    make_generator,
    make_tracker,
    run_cascade,
    run_tracking_experiment,
    sample_random_friends,
    sample_uniform_nodes,
    tracker_update,
    true_exposure,
)

from exposure_lab import tracking
from oracles import complete, random_graph, random_sharing_mask, star


def sharing(g, sharers):
    return SharingState.from_sharers(sharers, g.num_nodes)


def check_closed_form_mean_and_variance(batch):
    """U constant-step updates, made ``batch`` per tracker_update call, on a
    frozen state with exposure f and one-sample observation variance V take
    the estimate's mean m and variance v to a*m + (1-a)*f and
    a^2*v + eps^2 (1-a^2)/(1-(1-eps)^2) * V, with a = (1-eps)^U. Two frozen
    states in a row check the recursion."""
    g = star(4)
    states = [sharing(g, [0]), sharing(g, [1])]
    eps, updates, replicas, start = 0.1, 10, 2000, 0.3
    a = (1.0 - eps) ** updates
    gain = eps**2 * (1.0 - a * a) / (1.0 - (1.0 - eps) ** 2)
    for kind in ("vanilla", "fp"):
        rng = make_generator(101)
        estimates = np.empty((replicas, len(states)))
        for r in range(replicas):
            state = make_tracker(kind, StepPolicy("constant", eps), initial_estimate=start)
            for t, exposed in enumerate(exposure_all(g, s) for s in states):
                for _ in range(updates // batch):
                    state = tracker_update(state, g, exposed, rng, batch)
                estimates[r, t] = state.estimate
        m, v = start, 0.0
        for t, s in enumerate(states):
            f_bar = true_exposure(g, s)
            obs_var = exact_variance_vanilla(f_bar, 1) if kind == "vanilla" else exact_variance_fp(g, s, 1)
            m = a * m + (1.0 - a) * f_bar
            v = a * a * v + gain * obs_var
            x = estimates[:, t]
            emp = x.var(ddof=1)
            var_se = math.sqrt(max(np.mean((x - x.mean()) ** 4) - emp**2, 0.0) / replicas)
            assert abs(x.mean() - m) <= 3 * math.sqrt(v / replicas), (kind, t)
            assert abs(emp - v) <= 3 * var_se, (kind, t)


class TestStepPolicy:
    def test_decreasing_steps(self):
        policy = StepPolicy("decreasing")
        assert policy.step(1) == 1.0
        assert policy.step(4) == 0.25

    def test_constant_steps(self):
        assert StepPolicy("constant", 0.01).step(99) == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            StepPolicy("warmup")
        for epsilon in (0.0, -0.1, 1.0 + 1e-12, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"constant step size must lie in \(0, 1\]"):
                StepPolicy("constant", epsilon)

    def test_step_one_is_accepted_and_jumps_to_the_observation(self):
        g = complete(3)
        s = SharingState.from_sharers([0, 1, 2], 3)  # every node exposed: each observation is 1
        state = make_tracker("vanilla", StepPolicy("constant", 1.0), initial_estimate=0.3)
        assert tracker_update(state, g, exposure_all(g, s), make_generator(0), 4).estimate == 1.0

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_make_tracker_rejects_a_non_finite_start(self, start):
        with pytest.raises(ValueError, match="initial estimate must be finite"):
            make_tracker("fp", StepPolicy(), initial_estimate=start)


class TestTrackerUpdate:
    def test_constant_step_arithmetic(self):
        # estimate 0, epsilon 0.01, observation 1 -> 0.01; on a fully shared
        # complete graph the vanilla observation is always 1
        g = complete(3)
        s = sharing(g, [0, 1, 2])
        state = make_tracker("vanilla", StepPolicy("constant", 0.01))
        state = tracker_update(state, g, exposure_all(g, s), make_generator(90))
        assert state.estimate == pytest.approx(0.01)
        assert state.updates_done == 1

    def test_first_decreasing_update_equals_observation(self):
        g = star(4)
        s = sharing(g, [0])
        for kind in ("vanilla", "fp"):
            state = make_tracker(kind, StepPolicy("decreasing"), initial_estimate=0.77)
            new = tracker_update(state, g, exposure_all(g, s), make_generator(91))
            # step = 1 at n = 1 wipes out the initial value entirely
            obs_candidates = {0.0, 1.0} if kind == "vanilla" else {0.0, 1.6}
            assert new.estimate in obs_candidates

    def test_constant_step_long_run_near_truth(self):
        g = star(4)
        s = sharing(g, [0])
        state = make_tracker("vanilla", StepPolicy("constant", 0.01))
        rng = make_generator(92)
        exposed = exposure_all(g, s)
        for _ in range(100_000):
            state = tracker_update(state, g, exposed, rng)
        assert abs(state.estimate - true_exposure(g, s)) < 0.05

    def test_decreasing_steps_equal_running_mean(self):
        # the 1/n recursion is algebraically the running sample mean: check
        # it against a parallel accumulator fed the recovered observations
        g = star(4)
        s = sharing(g, [1])
        state = make_tracker("fp", StepPolicy("decreasing"))
        rng = make_generator(93)
        exposed = exposure_all(g, s)
        total = 0.0
        for i in range(1, 501):
            prev = state.estimate
            state = tracker_update(state, g, exposed, rng)
            obs = prev + i * (state.estimate - prev)
            total += obs
            assert state.estimate == pytest.approx(total / i, abs=1e-12)

    def test_constant_steps_match_closed_form_mean_and_variance(self):
        check_closed_form_mean_and_variance(batch=1)

    def test_batched_constant_steps_match_closed_form_mean_and_variance(self):
        check_closed_form_mean_and_variance(batch=10)

    def test_batch_equals_sequential_recursion(self):
        # one call of count=U folds, in draw order, the observations that the
        # same generator's samples give through exposure_bits, while the
        # tracker reads the exposure vector; the arithmetic is the scalar
        # recursion, so the estimates agree exactly
        rng = make_generator(102)
        g = random_graph(rng, max_nodes=30, min_nodes=10)
        s = SharingState(random_sharing_mask(rng, g.num_nodes))
        exposed = exposure_all(g, s)
        updates = 37
        for kind in ("vanilla", "fp"):
            for policy in (StepPolicy("decreasing"), StepPolicy("constant", 0.05)):
                start = tracker_update(make_tracker(kind, policy, 0.4), g, exposed, make_generator(103))
                batched = tracker_update(start, g, exposed, make_generator(104), count=updates)
                replay = make_generator(104)
                if kind == "vanilla":
                    obs = exposure_bits(g, s, sample_uniform_nodes(g, updates, replay)).astype(float)
                else:
                    friends = sample_random_friends(g, updates, replay)
                    obs = average_degree(g) * exposure_bits(g, s, friends) / g.degrees[friends]
                estimate = start.estimate
                for n, o in enumerate(obs.tolist(), start=start.updates_done + 1):
                    estimate = estimate + policy.step(n) * (o - estimate)
                assert batched.estimate == estimate, (kind, policy.kind)
                assert batched.updates_done == start.updates_done + updates == updates + 1

    def test_vanilla_constant_step_stays_in_unit_interval(self):
        rng = make_generator(94)
        g = random_graph(rng, max_nodes=20)
        s = SharingState(random_sharing_mask(rng, g.num_nodes))
        state = make_tracker("vanilla", StepPolicy("constant", 0.2), initial_estimate=0.5)
        exposed = exposure_all(g, s)
        for _ in range(2000):
            state = tracker_update(state, g, exposed, rng)
            assert 0.0 <= state.estimate <= 1.0

    @pytest.mark.parametrize("kind", ["vanilla", "fp"])
    def test_directed_graph_rejected_before_any_draw(self, kind):
        g = build_directed([(0, 1), (1, 2)], 3)
        rng = make_generator(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="cascades run on undirected graphs"):
            tracker_update(make_tracker(kind, StepPolicy()), g, np.array([False, True, True]), rng, 3)
        assert rng.bit_generator.state == before

    def test_fp_needs_edges(self):
        g = build_undirected([], 3)
        state = make_tracker("fp", StepPolicy("constant", 0.01))
        with pytest.raises(ValueError):
            tracker_update(state, g, exposure_all(g, SharingState.from_sharers([0], 3)), make_generator(0))


class TestRunTrackingExperiment:
    @pytest.mark.parametrize("bad", [
        dict(model="sir"), dict(steps=-1), dict(seed_count=0), dict(seed_count=6),
        dict(rng=None), dict(schedule=0),
    ], ids=["unknown_model", "negative_steps", "no_seeds", "too_many_seeds", "no_rng", "no_updates"])
    def test_invalid_arguments_rejected(self, bad):
        args = dict(model="icm", steps=3, schedule=2, seed_count=2, rng=make_generator(0))
        with pytest.raises(ValueError):
            run_tracking_experiment(star(4), **(args | bad))

    @pytest.mark.parametrize("policy,start,message", [
        (StepPolicy("decreasing"), math.nan, "initial estimate must be finite"),
        (StepPolicy("constant", 1.0), math.inf, "initial estimate must be finite"),
    ])
    def test_trackers_checked_before_the_cascade(self, monkeypatch, policy, start, message):
        def no_cascade(*args, **kwargs):
            raise AssertionError("the cascade ran before the trackers were checked")
        monkeypatch.setattr(cascade, "run_cascade", no_cascade)
        with pytest.raises(ValueError, match=message):
            run_tracking_experiment(star(4), model="icm", steps=2, vanilla_policy=policy, fp_policy=policy,
                                    rng=make_generator(0), initial_estimate=start)

    @pytest.mark.parametrize("model", ["icm", "ltm"])
    def test_directed_graph_rejected(self, model):
        g = build_directed([(0, 1), (1, 2)], 3)
        with pytest.raises(ValueError, match="cascades run on undirected graphs"):
            run_tracking_experiment(g, model=model, steps=1, schedule=2, seeds=[0], rng=make_generator(0))

    def test_reproducible_time_series(self):
        rng = make_generator(95)
        g = random_graph(rng, max_nodes=40, min_nodes=20)

        def run():
            return run_tracking_experiment(
                g, model="icm", steps=20, schedule=5,
                vanilla_policy=StepPolicy("constant", 0.05),
                fp_policy=StepPolicy("constant", 0.05),
                seed_count=2, p_inf=0.3, rng=make_generator(96))

        a, b = run(), run()
        assert a == b

    def test_reported_correlation_matches_genmodel(self):
        rng = make_generator(97)
        g = random_graph(rng, max_nodes=40, min_nodes=20)
        records = run_tracking_experiment(
            g, model="ltm", steps=6, schedule=3,
            vanilla_policy=StepPolicy("constant", 0.05),
            fp_policy=StepPolicy("constant", 0.05),
            seeds=[0, 1], theta=0.3, rng=make_generator(98))
        # replay the deterministic cascade to recover each step's state
        from exposure_lab import ltm_step
        state = SharingState.from_sharers([0, 1], g.num_nodes)
        for rec in records:
            state = ltm_step(g, state, 0.3)
            want = degree_sharing_correlation(g, state)
            if math.isnan(want):
                assert math.isnan(rec.degree_sharing_corr)
            else:
                assert rec.degree_sharing_corr == want

    def test_static_target_convergence_with_decreasing_steps(self):
        # a dead cascade freezes the target; decreasing-step trackers must
        # settle toward it: last-step error below first-step error
        improved = 0
        for seed in range(20):
            rng = make_generator(99, seed)
            g = random_graph(rng, max_nodes=30, min_nodes=15)
            records = run_tracking_experiment(
                g, model="icm", steps=50, schedule=1,
                vanilla_policy=StepPolicy("decreasing"),
                fp_policy=StepPolicy("decreasing"),
                seed_count=3, p_inf=0.0, rng=rng)
            improved += records[-1].vanilla_abs_error <= records[0].vanilla_abs_error
        assert improved >= 19

    def test_truth_equals_replayed_state(self):
        # the truth read from the exposure times equals a full recomputation
        # on the replayed cascade: LTM, and ICM with and without retry at p_inf 1
        rng = make_generator(105)
        g = random_graph(rng, max_nodes=60, min_nodes=40, p=0.06)
        for model, retry in (("ltm", False), ("icm", False), ("icm", True)):
            records = run_tracking_experiment(
                g, model=model, steps=8, schedule=3, seeds=[0, 1], p_inf=1.0, theta=0.3,
                icm_retry=retry, rng=make_generator(106))
            state = sharing(g, [0, 1])
            for rec in records:
                if model == "ltm":
                    state = ltm_step(g, state, 0.3)
                else:
                    state = icm_step(g, state, 1.0, make_generator(0), retry=retry)
                assert rec.true_exposure == true_exposure(g, state), (model, retry, rec.step)
            assert len({r.true_exposure for r in records}) >= 3, (model, retry)

    @pytest.mark.parametrize("model,kwargs", [
        ("icm", dict(p_inf=0.3)), ("icm", dict(p_inf=0.3, icm_retry=True)),
        ("ltm", dict(theta=0.2)), ("ltm", dict(theta=0.2, ltm_strict=True)),
    ], ids=["icm", "icm_retry", "ltm", "ltm_strict"])
    def test_truth_and_correlation_equal_each_replayed_state(self, model, kwargs):
        # both columns, read from cumulative counts, equal a recomputation on
        # every step's replayed state, the last step included
        rng = make_generator(110)
        grew_at_the_end = 0
        for i in range(20):
            g = random_graph(rng, max_nodes=50, min_nodes=20, p=0.08)
            steps = int(rng.integers(1, 5))
            records = run_tracking_experiment(g, model=model, steps=steps, schedule=2, seed_count=2,
                                              rng=make_generator(111, i), **kwargs)
            traj = run_cascade(g, model, steps, seed_count=2, rng=make_generator(111, i), **kwargs)
            grew_at_the_end += int(traj.activation.max()) == steps
            assert [r.step for r in records] == list(range(1, steps + 1))
            for r in records:
                state = traj.state(r.step)
                assert r.true_exposure == true_exposure(g, state)
                want = degree_sharing_correlation(g, state)
                assert r.degree_sharing_corr == want or math.isnan(r.degree_sharing_corr) and math.isnan(want)
        assert grew_at_the_end >= 3

    @pytest.mark.parametrize("cap", [tracking._CHUNK_SAMPLES, 10, 3], ids=["one_chunk", "three_steps", "over_cap"])
    @pytest.mark.parametrize("model,kwargs", [
        ("icm", dict(p_inf=0.3)), ("icm", dict(p_inf=0.3, icm_retry=True)), ("ltm", dict(theta=0.2)),
    ], ids=["icm", "icm_retry", "ltm"])
    def test_records_replay_the_documented_draws(self, monkeypatch, cap, model, kwargs):
        # the same generator draws the cascade, then per chunk of
        # max(1, cap // U) steps a (steps, U) block of uniform nodes and then
        # one of random friends; each block's exposure bits, read from the
        # replayed state of its step, are folded through tracker_update's
        # recursion, and the records hold the estimate after each step's U
        monkeypatch.setattr(tracking, "_CHUNK_SAMPLES", cap)
        rng = make_generator(107)
        g = random_graph(rng, max_nodes=40, min_nodes=25, p=0.1)
        policies = {"vanilla": StepPolicy("decreasing"), "fp": StepPolicy("constant", 0.2)}
        steps, updates = 8, 4
        records = run_tracking_experiment(
            g, model=model, steps=steps, schedule=updates, vanilla_policy=policies["vanilla"],
            fp_policy=policies["fp"], seed_count=3, rng=make_generator(108), initial_estimate=0.25, **kwargs)
        replay = make_generator(108)
        traj = run_cascade(g, model, steps, seed_count=3, rng=replay, **kwargs)
        estimates = {"vanilla": 0.25, "fp": 0.25}
        want = {"vanilla": [], "fp": []}
        chunk = max(1, cap // updates)
        for first in range(1, steps + 1, chunk):
            chunk_steps = list(range(first, min(first + chunk, steps + 1)))
            blocks = {"vanilla": sample_uniform_nodes(g, (len(chunk_steps), updates), replay),
                      "fp": sample_random_friends(g, (len(chunk_steps), updates), replay)}
            for kind, block in blocks.items():
                for row, t in zip(block, chunk_steps):
                    bits = exposure_bits(g, traj.state(t), row)
                    obs = bits.astype(float) if kind == "vanilla" else average_degree(g) * bits / g.degrees[row]
                    for i, o in enumerate(obs.tolist()):
                        n = (t - 1) * updates + i + 1
                        estimates[kind] = estimates[kind] + policies[kind].step(n) * (o - estimates[kind])
                    want[kind].append(estimates[kind])
        assert [r.vanilla_estimate for r in records] == want["vanilla"]
        assert [r.fp_estimate for r in records] == want["fp"]
        assert [r.step for r in records] == list(range(1, steps + 1))

    def test_blocks_stay_within_the_chunk_cap(self, monkeypatch):
        # 700 steps of 100 updates is 70 000 samples per tracker, above the
        # 65 536 cap: two chunks (655 and 45 steps), a record for every step
        sizes = []

        def recording(sampler):
            def wrapped(g, size, rng):
                sizes.append((sampler.__name__, size))
                return sampler(g, size, rng)
            return wrapped

        monkeypatch.setattr(tracking, "sample_uniform_nodes", recording(sample_uniform_nodes))
        monkeypatch.setattr(tracking, "sample_random_friends", recording(sample_random_friends))
        steps, updates = 700, 100
        assert steps * updates > tracking._CHUNK_SAMPLES == 1 << 16
        records = run_tracking_experiment(star(6), model="icm", steps=steps, schedule=updates, seeds=[0],
                                          p_inf=0.5, rng=make_generator(109))
        assert [r.step for r in records] == list(range(1, steps + 1))
        assert all(math.isfinite(r.vanilla_estimate) and math.isfinite(r.fp_estimate) for r in records)
        assert sizes == [("sample_uniform_nodes", (655, 100)), ("sample_random_friends", (655, 100)),
                         ("sample_uniform_nodes", (45, 100)), ("sample_random_friends", (45, 100))]
        assert all(math.prod(size) <= tracking._CHUNK_SAMPLES for _, size in sizes)

    @pytest.mark.parametrize("g,message", [
        (build_undirected([], 4), "the fp tracker needs at least one edge"),
        (build_directed([(0, 1), (1, 2)], 3), "cascades run on undirected graphs"),
    ], ids=["edgeless", "directed"])
    def test_graph_checked_before_any_block(self, monkeypatch, g, message):
        def no_block(*args, **kwargs):
            raise AssertionError("a tracker block was drawn before the graph was checked")
        monkeypatch.setattr(tracking, "sample_uniform_nodes", no_block)
        monkeypatch.setattr(tracking, "sample_random_friends", no_block)
        rng = make_generator(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            run_tracking_experiment(g, model="ltm", steps=2, schedule=3, seeds=[0], rng=rng)
        assert rng.bit_generator.state == before

    def test_zero_steps_give_no_records(self):
        assert run_tracking_experiment(star(4), model="icm", steps=0, seeds=[0], rng=make_generator(0)) == []
        assert run_tracking_experiment(build_undirected([], 3), model="ltm", steps=0, seeds=[0]) == []

    def test_records_shape(self):
        g = star(4)
        records = run_tracking_experiment(
            g, model="icm", steps=7, schedule=2,
            vanilla_policy=StepPolicy("constant", 0.1),
            fp_policy=StepPolicy("constant", 0.1),
            seeds=[0], p_inf=1.0, rng=make_generator(100))
        assert [r.step for r in records] == list(range(1, 8))
        assert all(r.vanilla_abs_error == abs(r.vanilla_estimate - r.true_exposure) for r in records)

"""The actor-critic training loop, gradient estimation, and oracle diagnostics."""

import numpy as np
import pytest

from morlab import (
    AVERAGE,
    DISCOUNTED,
    ConvergenceError,
    DivergenceError,
    ModelError,
    MoacConfig,
    MomentumSchedule,
    ParameterError,
    PolicyEvaluation,
    PolicyParams,
    TabularMomdp,
    build_fishwood,
    build_resource_gathering,
    complete_feature_map,
    compute_td_fixed_point,
    default_feature_map,
    estimate_gradient_lipschitz,
    exact_policy_gradient,
    expected_td_gradient,
    pareto_stationarity_gap,
    run_moac,
    solve_min_norm,
    theory_actor_step,
    uniform_policy,
)
from morlab.critic import CriticState, run_critic
from morlab.driver import estimate_objective_gradients
from morlab.momdp import MarkovSampler

from util import draw, objective_gradients_reference, random_momdp, random_policy, two_state_env


def small_config(**overrides) -> MoacConfig:
    base = dict(
        setting=DISCOUNTED,
        actor_iterations=15,
        actor_batch_size=16,
        actor_step_size=0.05,
        momentum=MomentumSchedule("power", 1.0),
        critic_step_size=0.2,
        critic_iterations=3,
        critic_batch_size=10,
        seed=0,
    )
    base.update(overrides)
    return MoacConfig(**base)


class TestGradientEstimates:
    def test_zero_rewards_zero_weights_give_zero(self):
        from morlab import TabularMomdp
        P = np.array([[[0.5, 0.5], [0.2, 0.8]], [[0.7, 0.3], [0.4, 0.6]]])
        env = TabularMomdp(2, 2, 2, P, np.zeros((2, 2, 2)), np.array([0.9, 0.8]),
                           np.array([0.5, 0.5]))
        policy = uniform_policy(env)
        grads, reward_mean = estimate_objective_gradients(
            env, policy, np.zeros((2, 1)), draw(env, 0, policy, 64), DISCOUNTED,
            default_feature_map(2), np.zeros(2), policy.probability_matrix()
        )
        assert np.all(grads == 0.0)
        assert np.all(reward_mean == 0.0)

    def test_concentrates_on_enumeration_limit(self):
        # large-batch estimate at the TD fixed point vs the exact enumeration,
        # within the concentration budget 3 (2 r_max + 2 R_w) / sqrt(B)
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        evaluation = PolicyEvaluation(env, policy, DISCOUNTED)
        fp = compute_td_fixed_point(evaluation, features)
        B = 100_000
        grads, _ = estimate_objective_gradients(
            env, policy, fp.w_star, draw(env, 7, policy, B), DISCOUNTED, features, np.zeros(2),
            policy.probability_matrix()
        )
        budget = 3.0 * (2.0 * env.r_max + 2.0 * fp.r_w_bound) / np.sqrt(B)
        for i in range(2):
            limit = expected_td_gradient(evaluation, features, fp.w_star[i], i)
            assert np.linalg.norm(grads[i] - limit) <= budget

    def test_enumeration_limit_equals_exact_gradient_with_complete_features(self):
        # zero approximation error makes the TD-based direction the exact
        # stationary-weighted policy gradient
        rng = np.random.default_rng(42)
        env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=2)
        policy = random_policy(rng, 4, 2)
        features = complete_feature_map(4)
        disc = PolicyEvaluation(env, policy, DISCOUNTED)
        avg = PolicyEvaluation(env, policy, AVERAGE)
        fp = compute_td_fixed_point(disc, features)
        V_avg, _ = avg.values
        epg_disc = exact_policy_gradient(disc)
        epg_avg = exact_policy_gradient(avg)
        for i in range(2):
            delta_disc = expected_td_gradient(disc, features, fp.w_star[i], i)
            assert np.max(np.abs(delta_disc - epg_disc[i])) <= 1e-8
            delta_avg = expected_td_gradient(avg, features, V_avg[i], i)
            assert np.max(np.abs(delta_avg - epg_avg[i])) <= 1e-8

    def test_trackers_read_in_average_setting_only(self):
        # the TD errors are r - mu in the average setting, so there the
        # trackers move the estimate; the discounted setting ignores them
        env = two_state_env()
        policy = uniform_policy(env)
        batch = draw(env, 3, policy, 32)
        probs = policy.probability_matrix()

        def estimate(setting, mu):
            return estimate_objective_gradients(env, policy, np.zeros((2, 1)), batch, setting,
                                                default_feature_map(2), np.array(mu), probs)

        grads, reward_mean = estimate(AVERAGE, [0.5, 0.25])
        assert np.all(np.isfinite(grads))
        assert reward_mean.shape == (2,)
        assert not np.array_equal(grads, estimate(AVERAGE, [0.0, 0.0])[0])
        assert np.array_equal(estimate(DISCOUNTED, [0.5, 0.25])[0],
                              estimate(DISCOUNTED, [0.0, 0.0])[0])


    @pytest.mark.parametrize("shape", [(2, 4), (2, 7), (2, 2), (3, 3), (3,)], ids=str)
    def test_weight_shape_rejected(self, shape):
        # fishwood with default features has dim 3: (2, 7) weights used to
        # return gradients up to 0.09 off those of their first 3 columns,
        # (2, 2) weights a bare IndexError
        env = build_fishwood(0.3, 0.6)
        policy = uniform_policy(env)
        with pytest.raises(ParameterError, match=r"critic weights must have shape \(2, 3\)"):
            estimate_objective_gradients(env, policy, np.zeros(shape), draw(env, 1, policy, 32),
                                         DISCOUNTED, default_feature_map(env.n_states),
                                         np.zeros(2), policy.probability_matrix())

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_batch_lengths_must_agree(self, setting):
        env = build_fishwood(0.3, 0.6)
        policy = uniform_policy(env)
        s, a, ns = draw(env, 1, policy, 32)
        with pytest.raises(ParameterError, match="one length"):
            estimate_objective_gradients(env, policy, np.zeros((2, 3)), (s, a[:-1], ns), setting,
                                         default_feature_map(env.n_states), np.zeros(2),
                                         policy.probability_matrix())

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_out_of_range_action_rejected(self, setting):
        # fishwood has A = 2: an action of 2 in state 0 used to read the
        # reward row of (1, 0) and return finite gradients
        env = build_fishwood(0.3, 0.6)
        policy = uniform_policy(env)
        s, a, ns = draw(env, 1, policy, 32)
        s[0], a[0] = 0, 2
        with pytest.raises(ParameterError, match=r"batch actions must lie in \[0, 2\)") as e:
            estimate_objective_gradients(env, policy, np.zeros((2, 3)), (s, a, ns), setting,
                                         default_feature_map(env.n_states), np.zeros(2),
                                         policy.probability_matrix())
        assert e.value.exit_code == 2

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_empty_batch_rejected(self, setting):
        # an empty batch used to return NaN gradients with a RuntimeWarning
        env = build_fishwood(0.3, 0.6)
        policy = uniform_policy(env)
        with pytest.raises(ParameterError, match="empty"):
            estimate_objective_gradients(env, policy, np.zeros((2, 3)), draw(env, 1, policy, 0),
                                         setting, default_feature_map(env.n_states), np.zeros(2),
                                         policy.probability_matrix())

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    @pytest.mark.parametrize("n_objectives", [2, 3])
    def test_matches_add_at_reference(self, setting, n_objectives):
        # the buckets filled in one pass against np.add.at: the same sums, bit for bit
        rng = np.random.default_rng(n_objectives)
        env = (build_fishwood(0.3, 0.6) if n_objectives == 2 else build_resource_gathering())
        policy = random_policy(rng, env.n_states, env.n_actions)
        features = default_feature_map(env.n_states)
        w = rng.normal(0.0, 1.0, size=(n_objectives, features.dim))
        mu = rng.normal(0.0, 1.0, size=n_objectives)
        batch = draw(env, 9, policy, 300)
        got = estimate_objective_gradients(env, policy, w, batch, setting, features, mu,
                                           policy.probability_matrix())
        want = objective_gradients_reference(env, policy, w, batch, setting, features, mu)
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes()

class TestParetoGap:
    def test_single_objective_equals_gradient_norm(self):
        rng = np.random.default_rng(1)
        env = random_momdp(rng, n_states=3, n_actions=2, n_objectives=1)
        policy = random_policy(rng, 3, 2)
        for setting in (AVERAGE, DISCOUNTED):
            evaluation = PolicyEvaluation(env, policy, setting)
            g = exact_policy_gradient(evaluation)[0]
            gap = pareto_stationarity_gap(evaluation)
            assert gap == pytest.approx(float(g @ g), rel=1e-10, abs=1e-15)

    def test_complementary_rewards_give_zero_gap(self):
        # objective 1 pays r_max - r_0, so the exact gradients are antiparallel
        # with equal norms and the hull contains the origin
        from morlab import TabularMomdp
        rng = np.random.default_rng(2)
        base = random_momdp(rng, n_states=3, n_actions=2, n_objectives=1)
        R = np.stack([base.reward[0], base.r_max - base.reward[0]])
        env = TabularMomdp(3, 2, 2, base.transition, R, np.array([0.9, 0.9]),
                           base.initial_distribution)
        policy = random_policy(rng, 3, 2)
        for setting in (AVERAGE, DISCOUNTED):
            evaluation = PolicyEvaluation(env, policy, setting)
            g0, g1 = exact_policy_gradient(evaluation)
            assert np.allclose(g0, -g1, atol=1e-10)
            assert pareto_stationarity_gap(evaluation) <= 1e-12

    def test_objective_permutation_invariance(self):
        rng = np.random.default_rng(3)
        env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=3,
                           discounts=[0.9, 0.8, 0.7])
        policy = random_policy(rng, 4, 2)
        from morlab import TabularMomdp
        perm = [2, 0, 1]
        env2 = TabularMomdp(4, 2, 3, env.transition, env.reward[perm],
                            env.discounts[perm], env.initial_distribution)
        g1 = pareto_stationarity_gap(PolicyEvaluation(env, policy, DISCOUNTED))
        g2 = pareto_stationarity_gap(PolicyEvaluation(env2, policy, DISCOUNTED))
        assert g1 == pytest.approx(g2, rel=1e-8, abs=1e-15)


class TestRunMoac:
    def test_single_objective_weights_stay_one(self):
        rng = np.random.default_rng(4)
        env = random_momdp(rng, n_states=3, n_actions=2, n_objectives=1)
        res = run_moac(env, small_config())
        for rec in res.records:
            assert np.array_equal(rec.lam, [1.0])

    def test_zero_momentum_keeps_uniform_weights(self):
        env = two_state_env()
        res = run_moac(env, small_config(momentum=MomentumSchedule("zero")))
        for rec in res.records:
            assert np.allclose(rec.lam, [0.5, 0.5], atol=1e-15)
            assert rec.eta == 0.0

    def test_power_schedule_adopts_first_qp_solution(self):
        # eta_1 = 1 means lambda_1 is exactly the first batch's QP solution;
        # replicate the first iteration's draw with an equal-seeded sampler
        env = two_state_env()
        config = small_config(momentum=MomentumSchedule("power", 2.0), seed=11)
        res = run_moac(env, config)
        features = default_feature_map(2)
        policy = uniform_policy(env)
        n_critic = config.critic_iterations * config.critic_batch_size
        batch = draw(env, 11, policy, n_critic + config.actor_batch_size)
        critic = CriticState.zeros(2, features.dim, config.critic_step_size,
                                   config.critic_batch_size, config.critic_iterations)
        critic = run_critic(env, [x[:n_critic] for x in batch], critic, features, DISCOUNTED)
        grads, _ = estimate_objective_gradients(
            env, policy, critic.weights, [x[n_critic:] for x in batch],
            DISCOUNTED, features, critic.avg_reward, policy.probability_matrix(),
        )
        lam_hat, _ = solve_min_norm(grads)
        assert np.allclose(res.records[0].lam, lam_hat.values, atol=1e-14)
        # combined-direction identity: the recorded norm is ||sum_i lam_i g_i||^2
        combined = lam_hat.values @ grads
        assert res.records[0].grad_norm_sq == pytest.approx(float(combined @ combined),
                                                            rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("momentum", [MomentumSchedule("power", 1.0),
                                          MomentumSchedule("constant", 0.3)])
    def test_lambda_trajectory_invariants(self, momentum):
        env = two_state_env()
        res = run_moac(env, small_config(momentum=momentum, actor_iterations=40))
        prev = res.lambda_initial
        for rec in res.records:
            assert np.all(rec.lam >= 0.0)
            assert rec.lam.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.abs(rec.lam - prev).sum() <= 2.0 * rec.eta + 1e-12
            prev = rec.lam

    def test_metrics_stream_is_deterministic(self):
        env = build_fishwood(0.3, 0.6)
        cfg = lambda: small_config(actor_iterations=12, seed=21,
                                   momentum=MomentumSchedule("power", 1.0))
        r1 = run_moac(env, cfg())
        r2 = run_moac(env, cfg())
        assert r1.t_hat == r2.t_hat
        assert np.array_equal(r1.final_policy.theta, r2.final_policy.theta)
        for a, b in zip(r1.records, r2.records):
            assert a.t == b.t and a.grad_norm_sq == b.grad_norm_sq
            assert np.array_equal(a.lam, b.lam)
            assert np.array_equal(a.reward_mean, b.reward_mean)

    def test_sampled_policy_comes_from_trajectory(self):
        env = two_state_env()
        res = run_moac(env, small_config(actor_iterations=10))
        assert 1 <= res.t_hat <= 10
        # theta_1 is the initial (zero) parameter vector
        if res.t_hat == 1:
            assert np.array_equal(res.sampled_policy.theta, np.zeros(4))

    def test_oracle_records_present_at_requested_cadence(self):
        env = two_state_env()
        res = run_moac(env, small_config(actor_iterations=20, oracle_diagnostics=True,
                                         oracle_every=5))
        with_oracle = {rec.t for rec in res.records if rec.pareto_gap is not None}
        assert with_oracle == {1, 5, 10, 15, 20}
        for rec in res.records:
            if rec.pareto_gap is not None:
                assert rec.critic_err is not None and rec.j_exact is not None

    def test_critic_divergence_propagates_with_iteration(self):
        env = two_state_env()
        with pytest.raises(DivergenceError) as err:
            run_moac(env, small_config(critic_step_size=1e9, critic_iterations=50,
                                       actor_iterations=3))
        assert err.value.iteration is not None

    def test_critic_divergence_names_actor_and_critic_iterations(self):
        # the critic fails at its first inner step of actor iteration 3; the
        # report must carry t = 3 (a run of 2 iterations still completes)
        config = dict(setting=AVERAGE, critic_step_size=3.0, critic_iterations=2)
        run_moac(two_state_env(), small_config(actor_iterations=2, **config))
        with pytest.raises(DivergenceError) as err:
            run_moac(two_state_env(), small_config(actor_iterations=15, **config))
        assert err.value.iteration == 3
        assert err.value.__cause__.iteration == 1
        assert "actor iteration 3" in str(err.value)
        assert "inner critic iteration 1" in str(err.value)

    def test_oracle_and_qp_errors_name_actor_iteration(self, monkeypatch):
        import morlab.driver

        # every action keeps the state: the first oracle step finds the chain reducible
        stuck = TabularMomdp(2, 2, 1, np.stack([np.eye(2), np.eye(2)], axis=1),
                             np.ones((1, 2, 2)), np.array([0.9]), np.array([0.5, 0.5]))
        with pytest.raises(ModelError, match="actor iteration 1: .*reducible"):
            run_moac(stuck, small_config(oracle_diagnostics=True))

        real_solve = morlab.driver.solve_min_norm
        calls = []

        def fails_third_call(gradients):
            calls.append(1)
            if len(calls) == 3:
                raise ConvergenceError("min-norm solver stopped without certificate", residual=0.25)
            return real_solve(gradients)

        monkeypatch.setattr(morlab.driver, "solve_min_norm", fails_third_call)
        with pytest.raises(ConvergenceError, match="actor iteration 3: .*certificate") as err:
            run_moac(two_state_env(), small_config())
        assert err.value.residual == 0.25

    def test_average_actor_step_above_one_accepted(self):
        # the actor reads the critic's trackers and runs none of its own, so
        # its step has no average-setting cap
        env = build_fishwood(0.25, 0.65)
        res = run_moac(env, small_config(setting=AVERAGE, actor_step_size=20.0, actor_batch_size=128,
                                         actor_iterations=3))
        assert all(np.isfinite(rec.grad_norm_sq) for rec in res.records)

    def test_actor_step_is_required(self):
        # a caller that wants 1/(3L) passes theory_actor_step(L)
        with pytest.raises(ParameterError, match="actor_step_size"):
            small_config(actor_step_size=None)

    def test_chain_hand_off_is_single_trajectory(self, monkeypatch):
        # one draw of N * D + B steps per actor iteration, and one unbroken
        # chain across the draws of a run
        draws = []
        sample = MarkovSampler.sample_policy_batch

        def recorded(sampler, action_probs, n):
            draws.append(sample(sampler, action_probs, n))
            return draws[-1]

        monkeypatch.setattr(MarkovSampler, "sample_policy_batch", recorded)
        run_moac(two_state_env(), small_config(actor_iterations=4))
        assert [len(s) for s, _, _ in draws] == [3 * 10 + 16] * 4
        s, _, ns = map(np.concatenate, zip(*draws))
        assert np.array_equal(ns[:-1], s[1:])

    def test_theory_actor_step(self):
        assert theory_actor_step(10.0) == pytest.approx(1.0 / 30.0)
        L = estimate_gradient_lipschitz(two_state_env(), DISCOUNTED, n_probes=5, seed=0)
        assert L > 0

    @pytest.mark.parametrize("n_probes, radius, name", [
        (0, 0.5, "n_probes"), (-2, 0.5, "n_probes"), (5, 0.0, "radius"),
        (5, -1.0, "radius"), (5, float("nan"), "radius"), (5, float("inf"), "radius"),
    ])
    def test_lipschitz_probe_rejects_bad_arguments(self, n_probes, radius, name):
        # no probe, or a probe of no length, measures nothing: not a bound of 0.0
        with pytest.raises(ParameterError, match=name):
            estimate_gradient_lipschitz(two_state_env(), DISCOUNTED, n_probes=n_probes,
                                        radius=radius, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("n_probes", 2.5), ("n_probes", True), ("seed", -1), ("seed", 1.5), ("seed", False),
    ])
    def test_lipschitz_probe_rejects_non_integer_counts(self, field, value):
        # a float count or seed used to escape as a bare TypeError from range()
        # or numpy; a negative seed as numpy's ValueError
        arguments = dict(n_probes=2, seed=0)
        arguments[field] = value
        with pytest.raises(ParameterError, match=field):
            estimate_gradient_lipschitz(two_state_env(), DISCOUNTED, **arguments)

    def test_lipschitz_probe_takes_numpy_integers(self):
        got = estimate_gradient_lipschitz(two_state_env(), DISCOUNTED, n_probes=np.int64(2),
                                          seed=np.int32(3))
        assert got == estimate_gradient_lipschitz(two_state_env(), DISCOUNTED, n_probes=2, seed=3)


class TestConfigIntegers:
    """Every count and the seed of ``MoacConfig`` must be an integer (a Python
    or numpy int, not a bool) of at least its minimum; anything else is a
    ParameterError naming the field."""

    @pytest.mark.parametrize("field, value", [
        ("actor_iterations", 2.5), ("actor_iterations", 0), ("actor_iterations", True),
        ("actor_batch_size", 2.5), ("actor_batch_size", 0),
        ("critic_iterations", 2.5), ("critic_iterations", 0),
        ("critic_batch_size", 2.5), ("critic_batch_size", -1),
        ("oracle_every", 1.5), ("oracle_every", 0),
        ("seed", 1.5), ("seed", True), ("seed", -1), ("seed", "3"),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            small_config(**{field: value})

    def test_numpy_integers_accepted(self):
        fields = dict(actor_iterations=3, actor_batch_size=16, critic_iterations=3,
                      critic_batch_size=10, oracle_every=2, seed=5)
        config = small_config(**{k: np.int64(v) for k, v in fields.items()})
        want = run_moac(two_state_env(), small_config(**fields))
        got = run_moac(two_state_env(), config)
        assert [r.grad_norm_sq for r in got.records] == [r.grad_norm_sq for r in want.records]


class TestTrends:
    def test_gradient_norm_decays_as_weights_converge(self):
        # starting from uniform weights, the min-norm mixing learns to cancel
        # the opposing objectives and the sampled combined norm drops to its
        # batch-noise floor: smoothed last-decile mean < 0.25 x first-decile
        env = build_fishwood(0.25, 0.65)
        ratios = []
        for seed in range(10):
            cfg = MoacConfig(
                setting=DISCOUNTED, actor_iterations=150, actor_batch_size=2048,
                actor_step_size=1.0 / 30.0, momentum=MomentumSchedule("constant", 0.2),
                critic_step_size=0.3, critic_iterations=10, critic_batch_size=100,
                seed=seed, features="complete",
            )
            res = run_moac(env, cfg)
            g = np.array([rec.grad_norm_sq for rec in res.records])
            smooth = np.convolve(g, np.ones(5) / 5.0, mode="valid")
            n = len(smooth) // 10
            ratios.append(smooth[-n:].mean() / smooth[:n].mean())
        assert float(np.median(ratios)) < 0.25

    def test_momentum_ordering_reported(self):
        # larger momentum tends to reach half the initial gradient norm sooner;
        # the effect is empirical, so the ordering is reported, not asserted
        env = build_fishwood(0.25, 0.65)
        crossings = {}
        for label, power in (("t^-2", 2.0), ("t^-1", 1.0), ("t^-0.5", 0.5)):
            per_seed = []
            for seed in range(6):
                cfg = MoacConfig(
                    setting=DISCOUNTED, actor_iterations=120, actor_batch_size=512,
                    actor_step_size=1.0 / 30.0, momentum=MomentumSchedule("power", power),
                    critic_step_size=0.3, critic_iterations=5, critic_batch_size=40,
                    seed=seed, features="complete",
                )
                res = run_moac(env, cfg)
                g = np.array([rec.grad_norm_sq for rec in res.records])
                smooth = np.convolve(g, np.ones(5) / 5.0, mode="valid")
                below = np.flatnonzero(smooth <= 0.5 * smooth[0])
                per_seed.append(int(below[0]) + 1 if below.size else len(smooth))
            crossings[label] = float(np.median(per_seed))
        print(f"\nmomentum ordering (median half-crossing iteration): {crossings}")
        assert all(v >= 1 for v in crossings.values())


class TestOracleCost:
    """Work counts of the exact oracle on resource_gathering (M = 3): one
    value solve per distinct discount and feature dimension, shared by V and
    w*, and one strong-components search per non-zero pattern of P_pi."""

    @staticmethod
    def counting(monkeypatch, owner, name):
        real = getattr(owner, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    def dense_solves(self, monkeypatch, setting: str, features) -> list[int]:
        """The ndim of the matrix of each ``np.linalg.solve`` one oracle step
        on resource_gathering makes: w*, (V, J) and the Pareto gap."""
        env = build_resource_gathering()
        evaluation = PolicyEvaluation(env, uniform_policy(env), setting)
        solves = self.counting(monkeypatch, np.linalg, "solve")
        compute_td_fixed_point(evaluation, features(env.n_states))
        evaluation.values
        pareto_stationarity_gap(evaluation)
        return [np.ndim(args[0]) for args in solves]

    def test_one_oracle_step_makes_two_dense_solves(self, monkeypatch):
        # the stationary distribution, and one value solve for the three
        # objectives that serves both V and w*; the exact min-norm QP of the
        # Pareto gap adds one batched solve of its face systems
        dims = self.dense_solves(monkeypatch, AVERAGE, default_feature_map)
        assert dims.count(2) == 2 and dims.count(3) == 1 and len(dims) == 3

    @pytest.mark.parametrize("features, dense", [(default_feature_map, 3), (complete_feature_map, 2)])
    def test_discounted_oracle_step_solves_once_per_discount(self, monkeypatch, features, dense):
        # the stationary distribution, the value solve (k = S) and, with
        # default features, the TD solve (k = S - 1); the three objectives
        # share one discount, and complete features read w* from the value solve
        dims = self.dense_solves(monkeypatch, DISCOUNTED, features)
        assert dims.count(2) == dense and dims.count(3) == 1 and len(dims) == dense + 1

    def test_run_searches_the_graph_once(self):
        import morlab.momdp

        search = morlab.momdp._strongly_connected
        search.cache_clear()
        config = MoacConfig(setting=AVERAGE, actor_iterations=20, actor_batch_size=32,
                            actor_step_size=0.5, momentum=MomentumSchedule("power", 1.0),
                            critic_step_size=0.3, critic_iterations=2, critic_batch_size=50,
                            seed=3, oracle_diagnostics=True, oracle_every=1)
        res = run_moac(build_resource_gathering(), config)
        assert all(rec.pareto_gap is not None for rec in res.records)
        assert search.cache_info().misses == 1

    @pytest.mark.parametrize("oracle", [True, False])
    def test_one_softmax_per_iteration_and_no_eigvalsh(self, monkeypatch, oracle):
        # the oracle-rg shape (and, without the oracle, a training run): the
        # margin certificate settles every gate, and each actor iteration
        # computes its action probabilities once for the oracle, the draw and
        # both score sums
        T = 5
        eigvalsh = self.counting(monkeypatch, np.linalg, "eigvalsh")
        softmax = self.counting(monkeypatch, PolicyParams, "probability_matrix")
        config = MoacConfig(setting=AVERAGE, actor_iterations=T, actor_batch_size=32,
                            actor_step_size=0.5, momentum=MomentumSchedule("power", 1.0),
                            critic_step_size=0.3, critic_iterations=2, critic_batch_size=25,
                            seed=911, oracle_diagnostics=oracle, oracle_every=1)
        res = run_moac(build_resource_gathering(), config)
        assert all((rec.pareto_gap is not None) == oracle for rec in res.records)
        assert len(eigvalsh) == 0
        assert len(softmax) == T

"""TD errors, the mini-batch critic loop, and the exact fixed-point oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlab import (
    AVERAGE,
    DISCOUNTED,
    DivergenceError,
    ModelError,
    ParameterError,
    PolicyEvaluation,
    PolicyParams,
    TabularMomdp,
    build_fishwood,
    build_resource_gathering,
    compute_td_fixed_point,
    compute_zeta_approx,
    complete_feature_map,
    default_feature_map,
    expected_td_update,
    theory_critic_step,
    uniform_policy,
)
from morlab.critic import CriticState, run_critic, td_errors
from morlab.momdp import MarkovSampler

from util import (
    random_momdp,
    random_policy,
    reward_tracker_path,
    single_chain_env,
    td_fixed_point_reference,
    two_state_env,
)


def one_step(n_states, reward, next_state, w, features, setting, mu_prev=0.0, step_size=0.1,
             discount=0.9):
    """TD error and tracker of a one-sample batch 0 -> next_state paying ``reward``."""
    rewards = np.zeros((1, n_states, 1))
    rewards[0, 0, 0] = reward
    env = single_chain_env(np.full((n_states, n_states), 1.0 / n_states), rewards, discount)
    batch = (np.array([0]), np.array([0]), np.array([next_state]))
    delta, r, mu = td_errors(env, features, np.array([w], dtype=float), batch, setting,
                             np.array([mu_prev]), step_size)
    assert r.tolist() == [[reward]]
    return float(delta[0, 0]), float(mu[0])


class TestTdErrors:
    def test_average_plugin(self):
        # r=1, mu_prev=0, beta=0.1, equal state values => mu=0.1, delta=0.9
        delta, mu = one_step(2, 1.0, 0, [0.0], default_feature_map(2), AVERAGE, 0.0, 0.1)
        assert mu == pytest.approx(0.1)
        assert delta == pytest.approx(0.9)

    def test_average_constant_reward_tracked(self):
        c = 0.6
        w = [0.4, -0.2]
        delta, mu = one_step(3, c, 1, w, default_feature_map(3), AVERAGE, c, 0.3)
        assert mu == pytest.approx(c)
        assert delta == pytest.approx(w[1] - w[0])

    def test_discounted_plugin(self):
        # r=1, gamma=0.9, phi(s')w=2, phi(s)w=1 => delta=1.8
        delta, mu = one_step(2, 1.0, 1, [1.0, 2.0], complete_feature_map(2), DISCOUNTED,
                             mu_prev=0.25, discount=0.9)
        assert delta == pytest.approx(1.8)
        assert mu == 0.25   # the discounted setting leaves the tracker alone

    def test_discounted_zero_weights(self):
        delta, _ = one_step(2, 0.7, 1, [0.0], default_feature_map(2), DISCOUNTED, discount=0.95)
        assert delta == pytest.approx(0.7)

    def test_average_trackers_match_recursion_reference(self):
        # the one-tap IIR filter reproduces the plain recursion bit for bit,
        # so the TD errors and the final trackers do too
        rng = np.random.default_rng(2026)
        for trial in range(300):
            M = int(rng.integers(1, 5))
            S = int(rng.integers(2, 7))
            D = int(rng.integers(1, 201))
            env = random_momdp(rng, n_states=S, n_actions=2, n_objectives=M)
            features = default_feature_map(S)
            w = rng.normal(0.0, 1.0, size=(M, features.dim))
            batch = tuple(rng.integers(0, n, size=D) for n in (S, 2, S))
            mu0 = rng.normal(0.0, 1.0, size=M)
            beta = (0.1, 0.5, 20.0, float(rng.uniform(0.0, 1.0)))[trial % 4]
            delta, r, mu = td_errors(env, features, w, batch, AVERAGE, mu0, beta)
            s_arr, a_arr, ns_arr = batch
            phi = features.matrix
            ref_r = env.reward[:, s_arr, a_arr]
            path = reward_tracker_path(ref_r, mu0, beta)
            ref_delta = ref_r - path + (phi[ns_arr] @ w.T - phi[s_arr] @ w.T).T
            assert np.array_equal(r, ref_r)
            assert np.array_equal(delta, ref_delta, equal_nan=True)
            assert np.array_equal(mu, path[:, -1], equal_nan=True)
            assert np.array_equal(delta @ phi[s_arr], ref_delta @ phi[s_arr], equal_nan=True)


class TestFixedPoint:
    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_residual_and_bounds(self, setting):
        rng = np.random.default_rng(100)
        for _ in range(5):
            env = random_momdp(rng, n_states=5, n_actions=2, n_objectives=2)
            policy = random_policy(rng, 5, 2)
            features = default_feature_map(5)
            fp = compute_td_fixed_point(PolicyEvaluation(env, policy, setting), features)
            for i in range(2):
                residual = fp.A[i] @ fp.w_star[i] + fp.b[i]
                assert np.max(np.abs(residual)) <= 1e-10
                assert np.linalg.norm(fp.w_star[i]) <= fp.r_w_bound + 1e-12
            factor = 4.0 if setting == AVERAGE else 2.0
            assert fp.r_w_bound == pytest.approx(factor * env.r_max / fp.lambda_A)

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_negative_definiteness(self, setting):
        rng = np.random.default_rng(200)
        env = random_momdp(rng, n_states=4, n_actions=3, n_objectives=2)
        policy = random_policy(rng, 4, 3)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, setting), default_feature_map(4))
        for _ in range(100):
            w = rng.normal(size=fp.A.shape[-1])
            for i in range(env.n_objectives):
                assert w @ fp.A[i] @ w < 0

    def test_expected_update_vanishes_at_fixed_point(self):
        rng = np.random.default_rng(300)
        env = random_momdp(rng, n_states=5, n_actions=2, n_objectives=2)
        policy = random_policy(rng, 5, 2)
        features = default_feature_map(5)
        for setting in (AVERAGE, DISCOUNTED):
            evaluation = PolicyEvaluation(env, policy, setting)
            fp = compute_td_fixed_point(evaluation, features)
            for i in range(2):
                upd = expected_td_update(evaluation, features, fp.w_star[i], i)
                assert np.max(np.abs(upd)) <= 1e-10
            for objective in (-1, 2):
                with pytest.raises(ParameterError):
                    expected_td_update(evaluation, features, fp.w_star[0], objective)

    def test_discounted_one_hot_features_solve_represented_bellman_rows(self):
        # with one-hot features over all-but-last states, the fixed point is
        # exact on represented states: it solves their Bellman equations with
        # the zeroed state's value clamped at 0 (independent direct solve)
        rng = np.random.default_rng(400)
        env = random_momdp(rng, n_states=5, n_actions=2, n_objectives=2,
                           discounts=[0.9, 0.8])
        policy = random_policy(rng, 5, 2)
        features = default_feature_map(5)
        evaluation = PolicyEvaluation(env, policy, DISCOUNTED)
        fp = compute_td_fixed_point(evaluation, features)
        P, r_bar = evaluation.P, evaluation.r
        for i in range(2):
            gamma = env.discounts[i]
            sub = np.eye(4) - gamma * P[:4, :4]
            clamped = np.linalg.solve(sub, r_bar[i, :4])
            assert np.max(np.abs(fp.w_star[i] - clamped)) <= 1e-8

    def test_discounted_complete_features_recover_exact_values(self):
        # full one-hot features make the fixed point the exact value function
        rng = np.random.default_rng(401)
        env = random_momdp(rng, n_states=5, n_actions=2, n_objectives=2,
                           discounts=[0.9, 0.8])
        policy = random_policy(rng, 5, 2)
        features = complete_feature_map(5)
        evaluation = PolicyEvaluation(env, policy, DISCOUNTED)
        fp = compute_td_fixed_point(evaluation, features)
        V, _ = evaluation.values
        assert np.max(np.abs(fp.w_star - V)) <= 1e-8

    def test_average_full_one_hot_rejected(self):
        # the all-ones direction collapses the margin for average-setting TD
        env = two_state_env()
        policy = uniform_policy(env)
        with pytest.raises(ModelError):
            compute_td_fixed_point(PolicyEvaluation(env, policy, AVERAGE), complete_feature_map(2))

    def test_heterogeneous_discounts_give_distinct_matrices(self):
        rng = np.random.default_rng(500)
        env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=2,
                           discounts=[0.95, 0.6])
        policy = random_policy(rng, 4, 2)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, DISCOUNTED), default_feature_map(4))
        assert not np.allclose(fp.A[0], fp.A[1])


def _discount_variants():
    """resource_gathering and fishwood with equal, partly equal and distinct
    discounts: one, two and M groups of identical TD slices."""
    rg = build_resource_gathering()
    return {
        "rg-equal": rg,
        "rg-paired": replace(rg, discounts=np.array([0.9, 0.8, 0.9])),
        "rg-distinct": replace(rg, discounts=np.array([0.95, 0.9, 0.8])),
        "fw-equal": build_fishwood(0.3, 0.7),
        "fw-distinct": build_fishwood(0.3, 0.7, discount=(0.9, 0.8)),
    }


_TD_ENVS = _discount_variants()
_EPS = np.finfo(float).eps


class TestGroupedFixedPoint:
    """The grouped solve of w* (one factorization per distinct TD slice)
    against the per-objective reference solves."""

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    @pytest.mark.parametrize("env_name", sorted(_TD_ENVS))
    def test_matches_per_objective_solves(self, env_name, setting):
        env = _TD_ENVS[env_name]
        features = default_feature_map(env.n_states)
        rng = np.random.default_rng(910)
        policies = [uniform_policy(env)] + [
            random_policy(rng, env.n_states, env.n_actions, scale=0.5) for _ in range(4)
        ]
        for policy in policies:
            fp = compute_td_fixed_point(PolicyEvaluation(env, policy, setting), features)
            ref = td_fixed_point_reference(fp.A, fp.b)
            for w, w_ref in zip(fp.w_star, ref):
                assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)

    @settings(max_examples=40, deadline=None)
    @given(
        env_name=st.sampled_from(sorted(_TD_ENVS)),
        setting=st.sampled_from([AVERAGE, DISCOUNTED]),
        policy_seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.0, 1.0),
    )
    def test_random_policies_no_worse_than_reference(self, env_name, setting, policy_seed, scale):
        env = _TD_ENVS[env_name]
        rng = np.random.default_rng(policy_seed)
        theta = rng.normal(0.0, 1.0, size=env.n_states * env.n_actions) * scale
        policy = PolicyParams(theta, env.n_states, env.n_actions)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, setting),
                                    default_feature_map(env.n_states))
        ref = td_fixed_point_reference(fp.A, fp.b)
        for A, b, w, w_ref in zip(fp.A, fp.b, fp.w_star, ref):
            # two backward-stable solves agree to cond(A) * eps; the residual
            # may differ from the reference's by at most one rounding of A w
            assert np.linalg.norm(w - w_ref) <= np.linalg.cond(A) * _EPS * np.linalg.norm(w_ref)
            scale_Aw = np.linalg.norm(A, 2) * np.linalg.norm(w_ref)
            assert (np.linalg.norm(A @ w + b)
                    <= np.linalg.norm(A @ w_ref + b) + _EPS * scale_Aw)


class TestZetaApprox:
    def test_complete_features_zero_gap(self):
        rng = np.random.default_rng(600)
        env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=2)
        policy = random_policy(rng, 4, 2)
        features = complete_feature_map(4)
        evaluation = PolicyEvaluation(env, policy, DISCOUNTED)
        fp = compute_td_fixed_point(evaluation, features)
        zeta = compute_zeta_approx(evaluation, fp, features)
        assert zeta <= 1e-16

    def test_default_features_match_enumeration(self):
        rng = np.random.default_rng(700)
        env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=2)
        policy = random_policy(rng, 4, 2)
        features = default_feature_map(4)
        evaluation = PolicyEvaluation(env, policy, DISCOUNTED)
        fp = compute_td_fixed_point(evaluation, features)
        zeta = compute_zeta_approx(evaluation, fp, features)
        d = evaluation.d
        V, _ = evaluation.values
        expected = max(
            float(d @ (V[i] - features.matrix @ fp.w_star[i]) ** 2) for i in range(2)
        )
        assert zeta == pytest.approx(expected, rel=1e-12)
        assert zeta >= 0.0


class TestRunCritic:
    def test_single_step_matches_manual_td(self):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        # replicate the batch's sampled transition with an equal-seeded sampler
        probe = MarkovSampler(env, seed=77)
        s_arr, a_arr, ns_arr = probe.sample_policy_batch(policy.probability_matrix(), 1)
        s, a = int(s_arr[0]), int(a_arr[0])
        sampler = MarkovSampler(env, seed=77)
        critic = CriticState.zeros(2, 1, step_size=0.2, batch_size=1, n_iterations=1)
        updated = run_critic(sampler, policy, critic, features, DISCOUNTED)
        assert sampler.state == int(ns_arr[0])
        for i in range(2):
            delta = env.reward[i, s, a]   # zero weights: the TD error is the reward
            expected = 0.2 * delta * features.matrix[s]
            assert np.allclose(updated.weights[i], expected, atol=1e-15)

    def test_zero_reward_keeps_weights_zero(self):
        P = np.array([[[0.5, 0.5], [0.2, 0.8]], [[0.7, 0.3], [0.4, 0.6]]])
        env = TabularMomdp(2, 2, 1, P, np.zeros((1, 2, 2)), np.array([0.9]), np.array([0.5, 0.5]))
        features = default_feature_map(2)
        sampler = MarkovSampler(env, seed=5)
        critic = CriticState.zeros(1, 1, step_size=0.1, batch_size=8, n_iterations=20)
        for setting in (AVERAGE, DISCOUNTED):
            updated = run_critic(MarkovSampler(env, seed=5), uniform_policy(env),
                                    critic, features, setting)
            assert np.all(updated.weights == 0.0)
            assert np.all(updated.avg_reward == 0.0)

    def test_objective_permutation_permutes_weights(self):
        env = two_state_env()
        flipped = TabularMomdp(2, 2, 2, env.transition, env.reward[::-1].copy(),
                               env.discounts[::-1].copy(), env.initial_distribution)
        features = default_feature_map(2)
        policy = uniform_policy(env)
        critic = CriticState.zeros(2, 1, step_size=0.1, batch_size=16, n_iterations=30)
        out1 = run_critic(MarkovSampler(env, seed=13), policy, critic, features, DISCOUNTED)
        out2 = run_critic(MarkovSampler(flipped, seed=13), policy, critic, features, DISCOUNTED)
        assert np.array_equal(out1.weights, out2.weights[::-1])

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_converges_toward_fixed_point(self, setting):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, setting), features)
        # the analysis only upper-bounds beta; the average setting needs a
        # moderate step or the reward-tracker coupling dominates the floor
        beta = theory_critic_step(fp) if setting == DISCOUNTED else min(0.1, theory_critic_step(fp))
        initial = float((fp.w_star ** 2).sum())
        errors = []
        for seed in range(40):
            critic = CriticState.zeros(2, 1, step_size=beta, batch_size=200, n_iterations=300)
            sampler = MarkovSampler(env, seed=seed)
            updated = run_critic(sampler, policy, critic, features, setting)
            errors.append(float(((updated.weights - fp.w_star) ** 2).sum()))
        assert np.mean(errors) < 0.1 * initial

    def test_no_divergence_with_theory_step(self):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, DISCOUNTED), features)
        beta = theory_critic_step(fp)
        for seed in range(1000):
            critic = CriticState.zeros(2, 1, step_size=beta, batch_size=10, n_iterations=20)
            run_critic(MarkovSampler(env, seed=seed), policy, critic, features, DISCOUNTED)

    def test_divergence_raises_with_iteration(self):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        critic = CriticState.zeros(2, 1, step_size=1e9, batch_size=4, n_iterations=50)
        with pytest.raises(DivergenceError) as err:
            run_critic(MarkovSampler(env, seed=1), policy, critic, features, AVERAGE)
        assert err.value.iteration is not None

    def test_error_trace_streams_per_iteration(self):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, DISCOUNTED), features)
        critic = CriticState.zeros(2, 1, step_size=0.1, batch_size=8, n_iterations=25)
        trace = []
        run_critic(MarkovSampler(env, seed=3), policy, critic, features, DISCOUNTED,
                   fixed_point=fp, error_trace=trace)
        assert len(trace) == 25
        assert all(e >= 0 for e in trace)

    def test_average_tracker_follows_batch_recursion(self):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        beta = 0.25
        probe = MarkovSampler(env, seed=21)
        s_arr, a_arr, _ = probe.sample_policy_batch(policy.probability_matrix(), 12)
        mu = np.zeros(2)
        for s, a in zip(s_arr, a_arr):
            mu = (1 - beta) * mu + beta * env.reward[:, s, a]
        critic = CriticState.zeros(2, 1, step_size=beta, batch_size=12, n_iterations=1)
        updated = run_critic(MarkovSampler(env, seed=21), policy, critic, features, AVERAGE)
        assert np.allclose(updated.avg_reward, mu, atol=1e-12)

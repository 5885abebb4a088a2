"""Softmax policies, score functions, feature maps, and the gradient oracle."""

import json

import numpy as np
import pytest

from morlab import (
    AVERAGE,
    DISCOUNTED,
    FeatureMap,
    ParameterError,
    PolicyEvaluation,
    PolicyParams,
    complete_feature_map,
    default_feature_map,
    exact_policy_gradient,
    load_policy_json,
    save_policy_json,
)

from util import (
    action_probabilities,
    feature_matrix,
    finite_difference_gradient,
    permute_momdp,
    permute_tabular_policy,
    random_momdp,
    random_policy,
    score_function,
    visitation_policy_gradient,
)


class TestActionProbabilities:
    def test_zero_logits_uniform(self):
        policy = PolicyParams(np.zeros(6), 2, 3)
        for s in range(2):
            assert np.allclose(action_probabilities(policy, s), 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=8)
        policy = PolicyParams(theta, 2, 4)
        base = action_probabilities(policy, 1)
        shifted = theta.copy()
        shifted[4:] += 3.7  # constant added to one state's logits
        policy2 = PolicyParams(shifted, 2, 4)
        assert np.allclose(action_probabilities(policy2, 1), base, atol=1e-12)

    def test_log2_logits(self):
        policy = PolicyParams(np.array([np.log(2.0), 0.0]), 1, 2)
        assert np.allclose(action_probabilities(policy, 0), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        policy = random_policy(rng, 5, 4, scale=5.0)
        probs = policy.probability_matrix()
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)

    @pytest.mark.parametrize("n_states, n_actions", [(4.0, 2), (4, 2.0), (True, 8), (8, True),
                                                     (np.float64(4.0), 2), (0, 2)],
                             ids=["float-states", "float-actions", "bool-states", "bool-actions",
                                  "numpy-float-states", "zero-states"])
    def test_counts_that_are_not_integers_of_at_least_1_rejected(self, n_states, n_actions):
        with pytest.raises(ParameterError, match=r"n_(states|actions) must be an integer >= 1"):
            PolicyParams(np.zeros(8), n_states, n_actions)

    def test_non_finite_theta_rejected(self):
        with pytest.raises(ParameterError):
            PolicyParams(np.array([np.nan, 0.0]), 1, 2)

    def test_large_logits_stable(self):
        policy = PolicyParams(np.array([1e4, 0.0, -1e4, 0.0]), 2, 2)
        probs = policy.probability_matrix()
        assert np.all(np.isfinite(probs))
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestScoreFunction:
    def test_uniform_two_actions(self):
        policy = PolicyParams(np.zeros(4), 2, 2)
        psi = score_function(policy, 0, 0)
        assert np.allclose(psi, [0.5, -0.5, 0.0, 0.0], atol=1e-15)

    def test_zero_mean_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            S, A = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            policy = random_policy(rng, S, A, scale=1.5)
            s = int(rng.integers(0, S))
            probs = action_probabilities(policy, s)
            mean_score = sum(probs[a] * score_function(policy, s, a) for a in range(A))
            assert np.max(np.abs(mean_score)) <= 1e-12

    def test_matches_log_prob_finite_differences(self):
        rng = np.random.default_rng(11)
        policy = random_policy(rng, 3, 3)
        h = 1e-5
        for _ in range(20):
            s = int(rng.integers(0, 3))
            a = int(rng.integers(0, 3))
            direction = rng.normal(size=policy.dim)
            direction /= np.linalg.norm(direction)
            lp = lambda th: np.log(
                action_probabilities(PolicyParams(th, 3, 3), s)[a]
            )
            fd = (lp(policy.theta + h * direction) - lp(policy.theta - h * direction)) / (2 * h)
            analytic = float(score_function(policy, s, a) @ direction)
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-8)

    def test_stacked_coefficients_match_per_objective_sums(self):
        rng = np.random.default_rng(6)
        S, A = 93, 4
        policy = PolicyParams(rng.normal(size=S * A), S, A)
        probs = policy.probability_matrix()
        for M in (1, 2, 3):
            coeff = rng.normal(size=(M, S, A))
            coeff[:, ::5] = 0.0
            stacked = policy.score_weighted_sum(coeff, probs)
            assert stacked.shape == (M, S * A)
            assert np.array_equal(stacked, np.stack([policy.score_weighted_sum(c, probs) for c in coeff]))


class TestFeatureMaps:
    def test_default_map_satisfies_conditions(self):
        # unit rows, full column rank, and the all-ones vector outside the
        # span; the values are those of the dense feature rows
        rng = np.random.default_rng(8)
        for S in (2, 5, 93):
            fm = default_feature_map(S)
            assert fm == FeatureMap(S, S - 1)
            phi = feature_matrix(fm)
            w = rng.normal(size=(3, S - 1))
            assert np.array_equal(fm.values(w), w @ phi.T)
            assert np.array_equal(np.linalg.norm(phi, axis=1), [1.0] * (S - 1) + [0.0])
            assert np.linalg.matrix_rank(phi) == S - 1
            sol = np.linalg.lstsq(phi, np.ones(S), rcond=None)[0]
            assert np.linalg.norm(phi @ sol - np.ones(S)) == pytest.approx(1.0)

    def test_complete_map_rejected_for_average(self):
        # the all-ones vector lies in the span, so the average-setting
        # condition fails (compute_td_fixed_point raises ModelError there)
        fm = complete_feature_map(4)
        assert fm == FeatureMap(4, 4)
        w = np.random.default_rng(9).normal(size=(2, 4))
        assert np.array_equal(fm.values(w), w)
        phi = feature_matrix(fm)
        sol = np.linalg.lstsq(phi, np.ones(4), rcond=None)[0]
        assert np.linalg.norm(phi @ sol - np.ones(4)) < 1e-12

    @pytest.mark.parametrize("n_states, dim", [(3, 0), (3, 4), (1, 0), (4, -1), (4, 2.5), (4, True),
                                               (4, np.float64(2.0))],
                             ids=["zero", "above-n-states", "one-state-default", "negative",
                                  "fraction", "bool", "numpy-float"])
    def test_dim_outside_range_rejected(self, n_states, dim):
        with pytest.raises(ParameterError, match="dim"):
            FeatureMap(n_states, dim)
        if dim == n_states - 1:
            with pytest.raises(ParameterError):
                default_feature_map(n_states)

    @pytest.mark.parametrize("n_states", [4.0, True, 0])
    def test_state_count_that_is_not_an_integer_of_at_least_1_rejected(self, n_states):
        with pytest.raises(ParameterError, match=r"n_states must be an integer >= 1"):
            FeatureMap(n_states, 1)


class TestExactGradient:
    def test_constant_reward_zero_gradient(self):
        rng = np.random.default_rng(17)
        env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=2)
        R = env.reward.copy()
        R[0] = 0.3
        from morlab import TabularMomdp
        env = TabularMomdp(4, 2, 2, env.transition, R, env.discounts, env.initial_distribution)
        policy = random_policy(rng, 4, 2)
        for setting in (AVERAGE, DISCOUNTED):
            g = exact_policy_gradient(PolicyEvaluation(env, policy, setting))[0]
            assert np.max(np.abs(g)) <= 1e-10

    def test_average_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=2)
            policy = random_policy(rng, 4, 2)
            grads = exact_policy_gradient(PolicyEvaluation(env, policy, AVERAGE))
            for i, g in enumerate(grads):
                fd = finite_difference_gradient(env, policy.theta, i, AVERAGE)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)

    def test_discounted_visitation_weighting_matches_finite_differences(self):
        # the visitation-weighted referee is the exact gradient of the
        # start-state discounted objective
        rng = np.random.default_rng(29)
        for _ in range(3):
            env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=2)
            policy = random_policy(rng, 4, 2)
            grads = visitation_policy_gradient(PolicyEvaluation(env, policy, DISCOUNTED))
            for i, g in enumerate(grads):
                fd = finite_difference_gradient(env, policy.theta, i, DISCOUNTED)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)

    def test_discounted_stationary_equals_scaled_gradient_at_stationary_start(self):
        # started from its own stationary distribution, the stationary-weighted
        # direction is exactly (1 - gamma) times the true gradient
        from morlab import TabularMomdp
        rng = np.random.default_rng(31)
        env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=1, discounts=[0.85])
        policy = random_policy(rng, 4, 2)
        d = PolicyEvaluation(env, policy, DISCOUNTED).d
        env2 = TabularMomdp(4, 2, 1, env.transition, env.reward, env.discounts, d)
        g_stat = exact_policy_gradient(PolicyEvaluation(env2, policy, DISCOUNTED))[0]
        fd = finite_difference_gradient(env2, policy.theta, 0, DISCOUNTED)
        assert np.allclose(g_stat, (1 - env.discounts[0]) * fd, atol=1e-7)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(37)
        env = random_momdp(rng, n_states=5, n_actions=2, n_objectives=2)
        policy = random_policy(rng, 5, 2)
        perm = rng.permutation(5)
        env2 = permute_momdp(env, perm)
        policy2 = permute_tabular_policy(policy, perm)
        for setting in (AVERAGE, DISCOUNTED):
            g1 = exact_policy_gradient(PolicyEvaluation(env, policy, setting))[0].reshape(5, 2)
            g2 = exact_policy_gradient(PolicyEvaluation(env2, policy2, setting))[0].reshape(5, 2)
            # block for relabeled state perm[s] must equal the original block s
            assert np.allclose(g2[perm], g1, atol=1e-10)


class TestPolicyIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        policy = random_policy(rng, 4, 3)
        path = tmp_path / "policy.json"
        save_policy_json(policy, str(path))
        loaded = load_policy_json(str(path))
        assert np.array_equal(loaded.theta, policy.theta)
        assert loaded.n_states == 4 and loaded.n_actions == 3
        doc = {"kind": "tabular", "n_states": 4, "n_actions": 3, "theta": policy.theta.tolist()}
        assert path.read_text() == json.dumps(doc)
        del doc["kind"]   # files without a kind are tabular
        path.write_text(json.dumps(doc))
        assert np.array_equal(load_policy_json(str(path)).theta, policy.theta)

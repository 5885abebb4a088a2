"""Sampled quantities against their exact oracles on the lab's own models.

Each cell compares the mean of a sampled quantity with its oracle. Seeds,
sizes and bounds were fixed before the first run and are not tuned to pass."""

import numpy as np
import pytest

from morlab import (
    AVERAGE,
    DISCOUNTED,
    PolicyEvaluation,
    build_fishwood,
    build_resource_gathering,
    compute_td_fixed_point,
    default_feature_map,
    expected_td_gradient,
    uniform_policy,
)
from morlab.critic import CriticState, run_critic
from morlab.driver import estimate_objective_gradients
from morlab.momdp import MarkovSampler

from util import draw, random_policy


@pytest.mark.parametrize("env", [build_fishwood(0.25, 0.65), build_resource_gathering()],
                         ids=["fishwood", "resource_gathering"])
def test_sampler_visitation_matches_stationary_distribution(env):
    # one chain under one N(0, 0.5) logit policy: a 2,000-step burn-in, then
    # 200,000 steps in 50 batches of 4,000; each state's visit frequency
    # within 5 batch-means standard errors of d. A state that no batch
    # visits has a batch-means error of 0; its count over n steps has an
    # independent-draws standard deviation of sqrt(n d (1 - d)), and the
    # positive correlation of a chain's visits only widens it, so the error
    # of its frequency is floored at sqrt(d / n). About 0.1 s per model.
    policy = random_policy(np.random.default_rng(0), env.n_states, env.n_actions, scale=0.5)
    d = PolicyEvaluation(env, policy, AVERAGE).d
    probs = policy.probability_matrix()
    sampler = MarkovSampler(env, 0)
    sampler.sample_policy_batch(probs, 2_000)
    n, batches = 200_000, 50
    states = sampler.sample_policy_batch(probs, n)[0].reshape(batches, -1)
    freq = np.array([np.bincount(row, minlength=env.n_states) for row in states]) / states.shape[1]
    standard_error = np.maximum(freq.std(axis=0, ddof=1) / np.sqrt(batches), np.sqrt(d / n))
    error = np.abs(freq.mean(axis=0) - d)
    assert np.all(error <= 5 * standard_error), np.max(error / standard_error)


@pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
def test_critic_reaches_td_fixed_point_on_fishwood(setting):
    # 400 inner iterations of D = 500 at beta = 0.3 from w = 0, one chain per
    # seed, under one N(0, 0.5) logit policy; the discounted control reads
    # about 1e-4 at most. The average cell read near beta^2 = 9e-2 on every
    # seed while each reward was centred by the tracker it had just moved
    env = build_fishwood(0.25, 0.65)
    features = default_feature_map(env.n_states)
    policy = random_policy(np.random.default_rng(0), env.n_states, env.n_actions, scale=0.5)
    w_star = compute_td_fixed_point(PolicyEvaluation(env, policy, setting), features).w_star
    N, D = 400, 500
    for seed in range(4):
        critic = CriticState.zeros(env.n_objectives, features.dim, 0.3, D, N)
        w = run_critic(env, draw(env, seed, policy, N * D), critic, features, setting).weights
        relative = ((w - w_star) ** 2).sum() / (w_star ** 2).sum()
        assert relative <= 1e-2, (seed, relative)


@pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
@pytest.mark.parametrize("model", ["fishwood", "resource_gathering"])
def test_actor_mean_matches_expected_td_gradient(model, setting):
    # the uniform policy at the critic's fixed point w*, the trackers held at
    # J (unread in the discounted setting): 8,000 chained batches of B = 128
    # after a 2,000-step burn-in. The resource_gathering average cell keeps
    # its bound of 10% of each gradient's norm (23-39% off when the actor ran
    # its own trackers, against a batch-means standard error of 2-3%). The
    # other cells allow 5 batch-means standard errors in absolute norm: with
    # default features fishwood's discounted objective 0 has an expected
    # gradient of exactly 0, which no relative bound can take
    env = build_fishwood(0.25, 0.65) if model == "fishwood" else build_resource_gathering()
    features = default_feature_map(env.n_states)
    policy = uniform_policy(env)
    evaluation = PolicyEvaluation(env, policy, setting)
    w_star = compute_td_fixed_point(evaluation, features).w_star
    probs = evaluation.probs
    sampler = MarkovSampler(env, 0)
    sampler.sample_policy_batch(probs, 2_000)
    B, K = 128, 8_000
    steps = sampler.sample_policy_batch(probs, B * K)
    grads = np.array([
        estimate_objective_gradients(env, policy, w_star, [x[k * B:(k + 1) * B] for x in steps],
                                     setting, features, evaluation.offset, probs)[0]
        for k in range(K)
    ])
    mean = grads.mean(axis=0)
    relative = (model, setting) == ("resource_gathering", AVERAGE)
    for i in range(env.n_objectives):
        want = expected_td_gradient(evaluation, features, w_star[i], i)
        error = np.linalg.norm(mean[i] - want)
        standard_error = np.sqrt(grads[:, i].var(axis=0, ddof=1).sum() / K)
        if relative:
            assert error <= 0.1 * np.linalg.norm(want), (i, error, standard_error)
        else:
            assert error <= 5 * standard_error, (i, error, standard_error)

"""Environment builders, sampling, and exact chain quantities."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlab import (
    AVERAGE,
    DISCOUNTED,
    ModelError,
    ParameterError,
    PolicyEvaluation,
    PolicyParams,
    TabularMomdp,
    build_fishwood,
    build_resource_gathering,
    compute_exact_objective,
    compute_stationary_distribution,
    load_env_json,
    save_env_json,
    uniform_policy,
)
from morlab.momdp import MarkovSampler

from util import (
    dense_policy_batch,
    permute_momdp,
    permute_tabular_policy,
    random_momdp,
    random_policy,
    sample_step,
    single_chain_env,
    two_state_env,
)


def fixed_policy_params(probs: np.ndarray) -> PolicyParams:
    """Tabular policy whose softmax reproduces the given row-stochastic matrix."""
    return PolicyParams(np.log(probs).ravel(), probs.shape[0], probs.shape[1])


class TestBuilders:
    def test_fishwood_shape(self):
        env = build_fishwood(0.5, 0.5)
        assert env.n_objectives == 2
        assert env.n_actions == 2
        assert env.n_states == 4  # (location, produced-flag) pairs

    def test_fishwood_rejects_bad_probability(self):
        with pytest.raises(ParameterError):
            build_fishwood(0.0, 0.5)
        with pytest.raises(ParameterError):
            build_fishwood(0.5, 1.0)

    def test_fishwood_rows_stochastic(self):
        env = build_fishwood(0.3, 0.8)
        assert np.allclose(env.transition.sum(axis=2), 1.0, atol=1e-12)

    def test_fishwood_symmetric_under_relabeling(self):
        # with equal probabilities, swapping locations, actions, and objectives
        # maps the env onto itself
        env = build_fishwood(0.4, 0.4)
        state_perm = np.array([2, 3, 0, 1])
        action_perm = np.array([1, 0])
        inv = np.empty(4, dtype=int)
        inv[state_perm] = np.arange(4)
        P2 = env.transition[inv][:, action_perm][:, :, inv]
        R2 = env.reward[::-1][:, inv][:, :, action_perm]
        assert np.allclose(P2, env.transition)
        assert np.allclose(R2, env.reward)

    def test_fishwood_always_fish_reward_rate(self):
        # stationary rate of the fish objective under the always-fish policy
        fish_proba = 0.37
        env = build_fishwood(fish_proba, 0.6)
        policy = fixed_policy_params(np.array([[1 - 1e-12, 1e-12]] * 4))
        J = compute_exact_objective(env, policy, AVERAGE)
        assert J[1] == pytest.approx(fish_proba, abs=1e-9)
        assert J[0] == pytest.approx(0.0, abs=1e-9)

    def test_resource_gathering_shape(self):
        env = build_resource_gathering()
        assert env.n_objectives == 3
        assert env.n_actions == 4
        assert env.n_states <= 100
        assert env.n_states == 93  # reachable (position, flags) combinations

    def test_resource_gathering_rows_stochastic(self):
        env = build_resource_gathering()
        assert np.allclose(env.transition.sum(axis=2), 1.0, atol=1e-12)

    def test_resource_gathering_uniform_chain_ergodic(self):
        env = build_resource_gathering()
        P = PolicyEvaluation(env, uniform_policy(env), AVERAGE).P
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components
        n_comp, _ = connected_components(csr_matrix(P > 0), directed=True, connection="strong")
        assert n_comp == 1
        assert np.any(np.diag(P) > 0)  # self-loop => aperiodic

    def test_resource_gathering_reset_semantics(self):
        # every move onto the home cell from a flagged state lands flags-cleared
        env = build_resource_gathering()
        states = [tuple(s) for s in env.metadata["states"]]
        home = tuple(env.metadata["home"])
        home_cleared = states.index((*home, 0, 0))
        moves = ((-1, 0), (1, 0), (0, -1), (0, 1))
        checked = 0
        for s, (r, c, g, d) in enumerate(states):
            if not (g or d):
                continue
            for a, (dr, dc) in enumerate(moves):
                nr = min(max(r + dr, 0), 4)
                nc = min(max(c + dc, 0), 4)
                if (nr, nc) == home:
                    assert env.transition[s, a, home_cleared] == pytest.approx(1.0)
                    checked += 1
        assert checked > 0

    def test_resource_gathering_delivery_rewards(self):
        env = build_resource_gathering()
        states = [tuple(s) for s in env.metadata["states"]]
        home = tuple(env.metadata["home"])
        # gold flag set, one step above home, moving down
        s = states.index((home[0] - 1, home[1], 1, 0))
        down = 1
        assert env.reward[1, s, down] == pytest.approx(1.0)
        assert env.reward[2, s, down] == pytest.approx(0.0)

    def test_resource_gathering_survival_reward_on_enemy_moves(self):
        env = build_resource_gathering()
        states = [tuple(s) for s in env.metadata["states"]]
        enemies = {tuple(e) for e in env.metadata["enemies"]}
        attack = env.metadata["attack_prob"]
        moves = ((-1, 0), (1, 0), (0, -1), (0, 1))
        for s, (r, c, g, d) in enumerate(states):
            for a, (dr, dc) in enumerate(moves):
                nr = min(max(r + dr, 0), 4)
                nc = min(max(c + dc, 0), 4)
                expected = 1.0 - attack if (nr, nc) in enemies else 1.0
                assert env.reward[0, s, a] == pytest.approx(expected)


class TestValidation:
    def test_rejects_non_stochastic_rows(self):
        env = two_state_env()
        bad = env.transition.copy()
        bad[0, 0, 0] += 1e-6
        with pytest.raises(ParameterError):
            TabularMomdp(2, 2, 2, bad, env.reward, env.discounts, env.initial_distribution)

    def test_rejects_negative_rewards(self):
        env = two_state_env()
        bad = env.reward.copy()
        bad[0, 0, 0] = -0.1
        with pytest.raises(ParameterError):
            TabularMomdp(2, 2, 2, env.transition, bad, env.discounts, env.initial_distribution)

    def test_rejects_reward_above_rmax(self):
        env = two_state_env()
        bad = env.reward.copy()
        bad[0, 0, 0] = 1.5
        with pytest.raises(ParameterError):
            TabularMomdp(2, 2, 2, env.transition, bad, env.discounts, env.initial_distribution)

    def test_rejects_bad_discount(self):
        env = two_state_env()
        with pytest.raises(ParameterError):
            TabularMomdp(2, 2, 2, env.transition, env.reward, np.array([1.0, 0.9]),
                         env.initial_distribution)

    @pytest.mark.parametrize("field", ["transition", "reward", "discounts", "initial_distribution"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_arrays(self, field, value):
        env = two_state_env()
        arrays = {name: getattr(env, name).copy()
                  for name in ("transition", "reward", "discounts", "initial_distribution")}
        arrays[field].flat[0] = value
        with pytest.raises(ParameterError, match="finite"):
            TabularMomdp(2, 2, 2, **arrays)

    def test_json_missing_key_raises_parameter_error(self):
        doc = build_fishwood(0.3, 0.7).to_json_dict()
        del doc["reward"]
        with pytest.raises(ParameterError, match="reward"):
            TabularMomdp.from_json_dict(doc)

    def test_json_round_trip(self, tmp_path):
        env = build_fishwood(0.3, 0.7)
        path = tmp_path / "env.json"
        save_env_json(env, str(path))
        loaded = load_env_json(str(path))
        assert loaded.n_states == env.n_states
        assert np.array_equal(loaded.transition, env.transition)
        assert np.array_equal(loaded.reward, env.reward)
        assert np.array_equal(loaded.discounts, env.discounts)
        assert loaded.metadata["kind"] == "fishwood"

    def test_json_loader_validates(self, tmp_path):
        env = build_fishwood(0.3, 0.7)
        doc = env.to_json_dict()
        doc["transition"][0][0][0] += 1e-3
        path = tmp_path / "bad.json"
        import json
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError):
            load_env_json(str(path))


class TestSampling:
    def test_deterministic_row_is_followed(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 0] = 1.0
        R = np.zeros((1, 2, 1))
        env = TabularMomdp(2, 1, 1, P, R, np.array([0.9]), np.array([1.0, 0.0]))
        sampler = MarkovSampler(env, seed=0, initial_state=0)
        for expected in (1, 0, 1, 0):
            tr = sample_step(sampler, 0)
            assert tr.next_state == expected

    def test_transition_record_fields(self):
        env = two_state_env()
        sampler = MarkovSampler(env, seed=3, initial_state=1)
        tr = sample_step(sampler, 1)
        assert tr.state == 1 and tr.action == 1
        assert np.array_equal(tr.rewards, env.reward[:, 1, 1])
        assert 0 <= tr.next_state < 2
        assert np.all((tr.rewards >= 0) & (tr.rewards <= env.r_max))

    def test_empirical_frequencies_match_binomial(self):
        P = np.array([[[0.3, 0.7]], [[0.3, 0.7]]])
        R = np.zeros((1, 2, 1))
        env = TabularMomdp(2, 1, 1, P, R, np.array([0.9]), np.array([0.5, 0.5]))
        sampler = MarkovSampler(env, seed=11, initial_state=0)
        n = 100_000
        hits = sum(sample_step(sampler, 0).next_state == 0 for _ in range(n))
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) <= 3 * sigma

    def test_equal_seeds_equal_trajectories(self):
        env = two_state_env()
        rng = np.random.default_rng(5)
        actions = rng.integers(0, 2, size=200)
        s1 = MarkovSampler(env, seed=42)
        s2 = MarkovSampler(env, seed=42)
        for a in actions:
            t1 = sample_step(s1, int(a))
            t2 = sample_step(s2, int(a))
            assert (t1.state, t1.action, t1.next_state) == (t2.state, t2.action, t2.next_state)

    def test_batch_continues_the_chain(self):
        env = two_state_env()
        policy = random_policy(np.random.default_rng(0), 2, 2)
        sampler = MarkovSampler(env, seed=9)
        sampler.trace = []
        probs = policy.probability_matrix()
        sampler.sample_policy_batch(probs, 50)
        sampler.sample_policy_batch(probs, 30)
        trace = sampler.trace
        assert len(trace) == 80
        for (s, a, ns), (s2, _, _) in zip(trace, trace[1:]):
            assert ns == s2

    def test_rejects_bad_action(self):
        env = two_state_env()
        sampler = MarkovSampler(env, seed=0)
        with pytest.raises(ParameterError):
            sample_step(sampler, 7)


def paired_samplers(env: TabularMomdp, seed: int = 7):
    """Library sampler (tracing) and dense-reference sampler, seeded alike."""
    fast = MarkovSampler(env, seed)
    fast.trace = []
    return fast, MarkovSampler(env, seed)


def assert_same_batch(fast: MarkovSampler, ref: MarkovSampler, probs: np.ndarray, n: int):
    """One batch from each sampler: indices, chain state, trace tail and RNG
    state must all agree exactly."""
    got = fast.sample_policy_batch(probs, n)
    want = dense_policy_batch(ref, probs, n)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.shape == (n,)
        assert np.array_equal(g, w)
    assert fast.state == ref.state
    assert fast.trace[len(fast.trace) - n:] == list(zip(*(w.tolist() for w in want)))
    assert fast.rng.bit_generator.state == ref.rng.bit_generator.state


SAMPLER_ENVS = {"fishwood": lambda: build_fishwood(0.25, 0.65),
                "resource_gathering": build_resource_gathering}


class TestPolicyBatchMatchesDenseReference:
    @pytest.mark.parametrize("env_name", sorted(SAMPLER_ENVS))
    @pytest.mark.parametrize("n", [1, 50, 128, 500])
    def test_alternating_policies(self, env_name, n):
        env = SAMPLER_ENVS[env_name]()
        rng = np.random.default_rng(n)
        p1 = random_policy(rng, env.n_states, env.n_actions, scale=2.0).probability_matrix()
        p2 = random_policy(rng, env.n_states, env.n_actions, scale=2.0).probability_matrix()
        fast, ref = paired_samplers(env, seed=n + 11)
        for probs in (p1, p1, p2, p1, p2, p2, p1):
            assert_same_batch(fast, ref, probs, n)

    def test_probabilities_modified_in_place(self):
        env = build_resource_gathering()
        rng = np.random.default_rng(4)
        probs = random_policy(rng, env.n_states, env.n_actions).probability_matrix()
        fast, ref = paired_samplers(env)
        assert_same_batch(fast, ref, probs, 128)
        probs[:] = random_policy(rng, env.n_states, env.n_actions).probability_matrix()
        assert_same_batch(fast, ref, probs, 128)
        probs[3] = [1.0, 0.0, 0.0, 0.0]
        assert_same_batch(fast, ref, probs, 500)

    @pytest.mark.parametrize("env_name", sorted(SAMPLER_ENVS))
    def test_underflowed_action_probabilities(self, env_name):
        env = SAMPLER_ENVS[env_name]()
        rng = np.random.default_rng(800)
        theta = rng.choice([-800.0, 0.0, 800.0], size=env.n_states * env.n_actions)
        probs = PolicyParams(theta, env.n_states, env.n_actions).probability_matrix()
        assert np.any(probs == 0.0)
        fast, ref = paired_samplers(env)
        for n in (1, 50, 500):
            assert_same_batch(fast, ref, probs, n)

    @settings(max_examples=150, deadline=None)
    @given(
        n_states=st.integers(1, 6),
        n_actions=st.integers(1, 4),
        density=st.floats(0.05, 1.0),
        model_seed=st.integers(0, 2**32 - 1),
        sampler_seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 60), min_size=1, max_size=5),
    )
    def test_random_sparse_models(self, n_states, n_actions, density, model_seed, sampler_seed, sizes):
        rng = np.random.default_rng(model_seed)
        S, A = n_states, n_actions

        def sparse_rows(shape):
            x = rng.uniform(0.0, 1.0, size=shape) * (rng.random(shape) < density)
            flat = x.reshape(-1, shape[-1])
            for row in flat:  # keep at least one non-zero entry per row
                row[rng.integers(shape[-1])] = rng.uniform(0.1, 1.0)
            return x / x.sum(axis=-1, keepdims=True)

        env = TabularMomdp(S, A, 1, sparse_rows((S, A, S)), np.zeros((1, S, A)),
                           np.array([0.9]), np.full(S, 1.0 / S))
        policies = (sparse_rows((S, A)), sparse_rows((S, A)))
        fast, ref = paired_samplers(env, seed=sampler_seed)
        for k, n in enumerate(sizes):
            assert_same_batch(fast, ref, policies[k % 2], n)

    def test_rejects_wrong_shape(self):
        env = build_fishwood(0.25, 0.65)
        sampler = MarkovSampler(env, seed=0)
        for shape in ((env.n_states, env.n_actions + 1), (env.n_actions, env.n_states),
                      (env.n_states * env.n_actions,)):
            with pytest.raises(ParameterError):
                sampler.sample_policy_batch(np.full(shape, 0.5), 10)

    def test_rejects_invalid_probabilities(self):
        env = build_fishwood(0.25, 0.65)
        sampler = MarkovSampler(env, seed=0)
        good = np.full((env.n_states, env.n_actions), 0.5)
        for row in ([np.nan, 1.0], [-0.5, 1.0], [np.inf, 0.5], [1.5, 0.5], [0.0, 0.0]):
            probs = good.copy()
            probs[2] = row
            with pytest.raises(ParameterError):
                sampler.sample_policy_batch(probs, 10)


class TestStationary:
    def test_doubly_stochastic_two_states(self):
        # also a deterministic 3-cycle: periodic, yet the direct solve is exact
        for P in (np.array([[0.4, 0.6], [0.6, 0.4]]), np.roll(np.eye(3), 1, axis=1)):
            env = single_chain_env(P)
            d = PolicyEvaluation(env, uniform_policy(env), AVERAGE).d
            assert np.allclose(d, np.full(len(P), 1.0 / len(P)), atol=1e-12)

    def test_two_state_balance(self):
        # dP = d  =>  d = (5/6, 1/6) for this chain
        P = np.array([[0.9, 0.1], [0.5, 0.5]])
        env = single_chain_env(P)
        d = PolicyEvaluation(env, uniform_policy(env), AVERAGE).d
        assert np.allclose(d, [5.0 / 6.0, 1.0 / 6.0], atol=1e-12)

    def test_residual_bound_for_built_envs(self):
        rng = np.random.default_rng(2024)
        for env in (build_fishwood(0.3, 0.7), build_resource_gathering(), two_state_env()):
            for _ in range(20):
                policy = random_policy(rng, env.n_states, env.n_actions)
                evaluation = PolicyEvaluation(env, policy, AVERAGE)
                d, P = evaluation.d, evaluation.P
                assert np.max(np.abs(d @ P - d)) <= 1e-10
                assert d.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reducible_chain_raises(self):
        P = np.eye(2)  # two absorbing states
        env = single_chain_env(P)
        with pytest.raises(ModelError):
            PolicyEvaluation(env, uniform_policy(env), AVERAGE).d

    def test_discounted_objective_does_not_need_stationarity(self):
        # d is solved only on demand: the discounted values of a reducible
        # chain stay well defined
        env = single_chain_env(np.eye(2), rewards=[[[1.0], [0.5]]], discount=0.5)
        evaluation = PolicyEvaluation(env, uniform_policy(env), DISCOUNTED)
        V, J = evaluation.values
        assert np.allclose(V, [[2.0, 1.0]], atol=1e-12)
        assert J == pytest.approx([1.5], abs=1e-12)
        assert np.array_equal(compute_exact_objective(env, uniform_policy(env), DISCOUNTED), J)
        with pytest.raises(ModelError):
            evaluation.d

    def test_reducible_kernel_raises_on_every_call(self):
        # the irreducibility verdict is cached per non-zero pattern; a
        # reducible kernel must still be rejected every time it comes back,
        # also with other values on the same pattern
        reducible = (np.eye(3), np.array([[0.3, 0.7, 0.0], [0.0, 1.0, 0.0], [0.2, 0.2, 0.6]]),
                     np.array([[0.6, 0.4, 0.0], [0.0, 1.0, 0.0], [0.5, 0.1, 0.4]]))
        cycle = 0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1)
        for _ in range(3):
            for P in reducible:
                with pytest.raises(ModelError, match="reducible"):
                    compute_stationary_distribution(P)
                assert np.allclose(compute_stationary_distribution(cycle), 1.0 / 3.0, atol=1e-12)

    def test_numerically_reducible_kernel_fails_fast(self):
        # an extreme softmax policy on resource_gathering: the pattern check
        # passes, but the balance equations are singular in floating point
        env = build_resource_gathering()
        rng = np.random.default_rng(0)
        theta = [rng.normal(0.0, 50.0, env.n_states * env.n_actions) for _ in range(39)][38]
        evaluation = PolicyEvaluation(env, PolicyParams(theta, env.n_states, env.n_actions), AVERAGE)
        start = time.perf_counter()
        with pytest.raises(ModelError) as info:
            evaluation.d
        assert time.perf_counter() - start < 2.0
        assert "periodic" not in str(info.value)

    def test_pattern_cache_stays_bounded(self):
        from morlab.momdp import _component_count

        n = 8
        cycle = np.roll(np.eye(n), 1, axis=1)
        maxsize = _component_count.cache_info().maxsize
        assert maxsize is not None
        for mask in range(2 * maxsize + 5):  # distinct self-loop patterns
            P = cycle + np.diag([(mask >> k) & 1 for k in range(n)])
            P /= P.sum(axis=1, keepdims=True)
            d = compute_stationary_distribution(P)
            assert np.allclose(d @ P, d, atol=1e-12)
            assert _component_count.cache_info().currsize <= maxsize

    def test_policy_shape_mismatch_rejected(self):
        env = two_state_env()
        with pytest.raises(ParameterError):
            PolicyEvaluation(env, PolicyParams(np.zeros(6), 3, 2), AVERAGE)
        with pytest.raises(ParameterError):
            PolicyEvaluation(env, uniform_policy(env), "episodic")


class TestExactObjective:
    def test_constant_reward_closed_forms(self):
        c = 0.42
        rng = np.random.default_rng(1)
        env = random_momdp(rng, n_states=3, n_actions=2, n_objectives=2)
        R = env.reward.copy()
        R[0] = c
        env = TabularMomdp(3, 2, 2, env.transition, R, env.discounts, env.initial_distribution)
        policy = random_policy(rng, 3, 2)
        j_avg = compute_exact_objective(env, policy, AVERAGE)
        assert j_avg[0] == pytest.approx(c, abs=1e-12)
        j_disc = compute_exact_objective(env, policy, DISCOUNTED)
        assert j_disc[0] == pytest.approx(c / (1 - env.discounts[0]), rel=1e-12)

    def test_fishwood_always_fish_objectives(self):
        env = build_fishwood(0.25, 0.5)
        policy = fixed_policy_params(np.array([[1 - 1e-12, 1e-12]] * 4))
        J = compute_exact_objective(env, policy, AVERAGE)
        assert J[1] == pytest.approx(0.25, abs=1e-9)   # fish rate
        assert J[0] == pytest.approx(0.0, abs=1e-9)    # wood rate

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        env = random_momdp(rng, n_states=5, n_actions=3, n_objectives=2)
        policy = random_policy(rng, 5, 3)
        perm = rng.permutation(5)
        env2 = permute_momdp(env, perm)
        policy2 = permute_tabular_policy(policy, perm)
        for setting in (AVERAGE, DISCOUNTED):
            j1 = compute_exact_objective(env, policy, setting)
            j2 = compute_exact_objective(env2, policy2, setting)
            assert np.allclose(j1, j2, atol=1e-10)

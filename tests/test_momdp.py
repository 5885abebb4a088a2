"""Environment builders, sampling, and exact chain quantities."""

import copy
import pickle
import time
import tracemalloc
from unittest import mock

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
    compute_stationary_distribution,
    compute_td_fixed_point,
    default_feature_map,
    exact_policy_gradient,
    load_env_json,
    pareto_stationarity_gap,
    save_env_json,
    uniform_policy,
)
from morlab.critic import expected_td_errors
from morlab import momdp
from morlab.momdp import MarkovSampler, value_functions

import util
from util import (
    advantages_reference,
    compute_exact_objective,
    dense_policy_batch,
    expected_td_errors_reference,
    next_values_reference,
    permute_momdp,
    permute_tabular_policy,
    policy_kernel_reference,
    random_momdp,
    random_policy,
    random_sparse_momdp,
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

    @pytest.mark.parametrize("field", ["n_states", "n_actions", "n_objectives"])
    @pytest.mark.parametrize("value", [2.0, np.float64(2.0), True, 0],
                             ids=["float", "numpy-float", "bool", "zero"])
    def test_rejects_a_count_that_is_not_an_integer_of_at_least_1(self, field, value):
        env = two_state_env()
        counts = dict(n_states=2, n_actions=2, n_objectives=2)
        counts[field] = value
        with pytest.raises(ParameterError, match=rf"{field} must be an integer >= 1"):
            TabularMomdp(**counts, transition=env.transition, reward=env.reward,
                         discounts=env.discounts, initial_distribution=env.initial_distribution)

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


def built_with_transition(module, build, *args):
    """The model ``build(*args)`` returns and, as a float array, the dense
    ``transition`` it passed to ``module.TabularMomdp``."""
    passed = []

    def capture(*fields, **named):
        passed.append(named["transition"] if "transition" in named else fields[3])
        return TabularMomdp(*fields, **named)

    with mock.patch.object(module, "TabularMomdp", capture):
        env = build(*args)
    return env, np.asarray(passed[-1], dtype=float)


class TestFrozenModel:
    """A model holds private read-only copies of its arrays and its law as
    read-only padded rows only, so an in-place edit raises rather than being
    missed by the cached rows."""

    @pytest.mark.parametrize("name", ["transition", "reward", "discounts", "initial_distribution",
                                      "reward_rows", "transition_rows"])
    def test_every_array_is_read_only(self, name):
        env = build_fishwood(0.3, 0.6)
        arrays = getattr(env, name)
        for array in arrays if isinstance(arrays, tuple) else (arrays,):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.5

    def test_edit_of_the_law_raises(self):
        env = build_fishwood(0.3, 0.6)
        before = PolicyEvaluation(env, uniform_policy(env), DISCOUNTED).P.copy()
        with pytest.raises(ValueError, match="read-only"):
            env.transition[0, 0] = [0, 0, 0, 1.0]
        assert np.array_equal(PolicyEvaluation(env, uniform_policy(env), DISCOUNTED).P, before)

    def test_constructor_copies_its_arguments(self):
        base = two_state_env()
        arrays = {name: getattr(base, name).copy()
                  for name in ("transition", "reward", "discounts", "initial_distribution")}
        env = TabularMomdp(2, 2, 2, **arrays)
        for name, array in arrays.items():
            assert array.flags.writeable and not np.shares_memory(array, getattr(env, name)), name
        arrays["transition"][0, 0] = [0.0, 1.0]
        assert np.array_equal(env.transition, base.transition)

    @pytest.mark.parametrize("module, build, args", [
        (momdp, build_fishwood, (0.3, 0.6)),
        (momdp, build_fishwood, (0.8, 0.95, (0.9, 0.99))),
        (momdp, build_resource_gathering, ()),
        (util, random_momdp, (np.random.default_rng(3), 6, 3, 2)),
        (util, random_sparse_momdp, (np.random.default_rng(4), 40, 4, 3)),
        (util, two_state_env, ()),
    ], ids=["fishwood", "fishwood-distinct", "resource_gathering", "random", "random-sparse", "two-state"])
    def test_dense_law_is_rebuilt_bit_for_bit_and_read_only(self, module, build, args):
        env, passed = built_with_transition(module, build, *args)
        dense = env.transition
        assert dense.dtype == passed.dtype and dense.shape == passed.shape
        assert dense.tobytes() == passed.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            dense[0, 0, 0] = 0.5
        # rebuilt from the rows on request, never held
        assert env.transition is not dense and "transition" not in vars(env)

    def test_model_retains_no_dense_tensor(self):
        # the dense (400, 4, 400) law is 5.1 MB; the rows (at most 4 slots
        # a cell) and the reward are 0.13 MB. Budget: construction 2 s.
        base = random_sparse_momdp(np.random.default_rng(11), 400, 4, 2)
        inputs = (base.transition, base.reward, base.discounts, base.initial_distribution)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            env = TabularMomdp(400, 4, 2, *inputs)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2.0
        assert retained < 2 ** 20
        assert env.transition.tobytes() == inputs[0].tobytes()

    @pytest.mark.parametrize("clone", [pickle.loads, copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_stay_read_only(self, clone):
        env = build_fishwood(0.3, 0.6)
        env.reward_rows   # cached before the copy
        copied = clone(pickle.dumps(env)) if clone is pickle.loads else clone(env)
        for name in ("transition", "reward", "discounts", "initial_distribution", "reward_rows"):
            assert not getattr(copied, name).flags.writeable, name
        assert not any(array.flags.writeable for array in copied.transition_rows)
        assert type(copied) is TabularMomdp and copied.to_json_dict() == env.to_json_dict()
        for got, want in zip((*copied.transition_rows, copied.reward_rows), (*env.transition_rows, env.reward_rows)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSampling:
    def test_deterministic_row_is_followed(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 0] = 1.0
        R = np.zeros((1, 2, 1))
        env = TabularMomdp(2, 1, 1, P, R, np.array([0.9]), np.array([1.0, 0.0]))
        sampler = MarkovSampler(env, seed=0)
        sampler.state = 0
        for expected in (1, 0, 1, 0):
            tr = sample_step(sampler, 0)
            assert tr.next_state == expected

    def test_transition_record_fields(self):
        env = two_state_env()
        sampler = MarkovSampler(env, seed=3)
        sampler.state = 1
        tr = sample_step(sampler, 1)
        assert tr.state == 1 and tr.action == 1
        assert np.array_equal(tr.rewards, env.reward[:, 1, 1])
        assert 0 <= tr.next_state < 2
        assert np.all((tr.rewards >= 0) & (tr.rewards <= env.r_max))

    def test_empirical_frequencies_match_binomial(self):
        P = np.array([[[0.3, 0.7]], [[0.3, 0.7]]])
        R = np.zeros((1, 2, 1))
        env = TabularMomdp(2, 1, 1, P, R, np.array([0.9]), np.array([0.5, 0.5]))
        sampler = MarkovSampler(env, seed=11)
        sampler.state = 0
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
        probs = policy.probability_matrix()
        batches = [sampler.sample_policy_batch(probs, n) for n in (50, 30)]
        s, _, ns = map(np.concatenate, zip(*batches))
        assert len(s) == 80
        assert np.array_equal(ns[:-1], s[1:])
        assert ns[-1] == sampler.state

    def test_rejects_bad_action(self):
        env = two_state_env()
        sampler = MarkovSampler(env, seed=0)
        with pytest.raises(ParameterError):
            sample_step(sampler, 7)

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    def test_rejects_a_seed_that_is_not_an_integer_of_at_least_0(self, seed):
        with pytest.raises(ParameterError, match=r"seed must be an integer >= 0"):
            MarkovSampler(two_state_env(), seed)

    @pytest.mark.parametrize("n", [2.5, -1, True, np.float64(4.0)])
    def test_rejects_a_count_that_is_not_an_integer_of_at_least_0(self, n):
        sampler = MarkovSampler(two_state_env(), seed=0)
        state, rng_state = sampler.state, sampler.rng.bit_generator.state
        with pytest.raises(ParameterError, match=r"n must be an integer >= 0"):
            sampler.sample_policy_batch(np.full((2, 2), 0.5), n)
        # a rejected call draws nothing
        assert sampler.state == state and sampler.rng.bit_generator.state == rng_state

    def test_numpy_integers_and_zero_steps(self):
        env = two_state_env()
        probs = np.full((2, 2), 0.5)
        fast, ref = MarkovSampler(env, np.int64(4)), MarkovSampler(env, 4)
        for part in (*fast.sample_policy_batch(probs, 0), *fast.sample_policy_batch(probs, np.int32(0))):
            assert part.shape == (0,) and part.dtype == np.int64
        for got, want in zip(fast.sample_policy_batch(probs, np.int64(25)),
                             ref.sample_policy_batch(probs, 25)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [None, 5, 6])
    def test_transition_rows_next_states_and_probabilities(self, seed):
        # resource_gathering (seed None) and random sparse models, all with padded rows
        env = (build_resource_gathering() if seed is None
               else random_sparse_momdp(np.random.default_rng(seed), 30, 3, 1))
        next_states, probs = env.transition_rows
        S, A, R = env.n_states, env.n_actions, probs.shape[1]
        assert next_states.shape == probs.shape == (S * A, R) and next_states.dtype == np.int64
        padded = 0
        for s in range(S):
            for a in range(A):
                row = s * A + a
                nonzero = np.flatnonzero(env.transition[s, a])   # increasing s'
                k = nonzero.size
                assert np.array_equal(next_states[row, :k], nonzero)
                assert np.array_equal(probs[row, :k], env.transition[s, a, nonzero])
                assert not np.any(next_states[row, k:])
                assert probs[row, k:].tobytes() == bytes(8 * (R - k))   # +0.0, bit for bit
                padded += R - k
        assert padded > 0


def paired_samplers(env: TabularMomdp, seed: int = 7):
    """Library sampler and dense-reference sampler, seeded alike."""
    return MarkovSampler(env, seed), MarkovSampler(env, seed)


def assert_same_batch(fast: MarkovSampler, ref: MarkovSampler, probs: np.ndarray, n: int):
    """One batch from each sampler: indices, chain state and RNG state must
    all agree exactly."""
    got = fast.sample_policy_batch(probs, n)
    want = dense_policy_batch(ref, probs, n)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.shape == (n,)
        assert np.array_equal(g, w)
    assert fast.state == ref.state
    assert fast.rng.bit_generator.state == ref.rng.bit_generator.state


SAMPLER_ENVS = {"fishwood": lambda: build_fishwood(0.25, 0.65),
                "resource_gathering": build_resource_gathering}


class TestPolicyBatchMatchesDenseReference:
    @pytest.mark.parametrize("env_name", sorted(SAMPLER_ENVS))
    @pytest.mark.parametrize("n", [0, 1, 50, 128, 500])
    def test_alternating_policies(self, env_name, n):
        env = SAMPLER_ENVS[env_name]()
        rng = np.random.default_rng(n)
        p1 = random_policy(rng, env.n_states, env.n_actions, scale=2.0).probability_matrix()
        p2 = random_policy(rng, env.n_states, env.n_actions, scale=2.0).probability_matrix()
        fast, ref = paired_samplers(env, seed=n + 11)
        for probs in (p1, p1, p2, p1, p2, p2, p1):
            assert_same_batch(fast, ref, probs, n)

    @pytest.mark.parametrize("env_name", sorted(SAMPLER_ENVS))
    def test_one_draw_equals_chained_calls(self, env_name):
        # an actor iteration's N*D + B steps in one call, against N critic
        # calls of D steps and one actor call of B
        env = SAMPLER_ENVS[env_name]()
        rng = np.random.default_rng(3)
        probs = random_policy(rng, env.n_states, env.n_actions, scale=1.0).probability_matrix()
        N, D, B = 10, 50, 128
        one, chained = paired_samplers(env, seed=5)
        drawn = one.sample_policy_batch(probs, N * D + B)
        parts = [chained.sample_policy_batch(probs, n) for n in [D] * N + [B]]
        for got, want in zip(drawn, map(np.concatenate, zip(*parts))):
            assert np.array_equal(got, want)
        assert one.state == chained.state
        assert one.rng.bit_generator.state == chained.rng.bit_generator.state

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
        for row in ([np.nan, 1.0], [-0.5, 1.0], [np.inf, 0.5], [1.5, 0.5], [0.0, 0.0],
                    [0.1, 0.1], [1.0, 1.0]):
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
        from morlab.momdp import _strongly_connected

        n = 8
        cycle = np.roll(np.eye(n), 1, axis=1)
        maxsize = _strongly_connected.cache_info().maxsize
        assert maxsize is not None
        for mask in range(2 * maxsize + 5):  # distinct self-loop patterns
            P = cycle + np.diag([(mask >> k) & 1 for k in range(n)])
            P /= P.sum(axis=1, keepdims=True)
            d = compute_stationary_distribution(P)
            assert np.allclose(d @ P, d, atol=1e-12)
            assert _strongly_connected.cache_info().currsize <= maxsize

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 15),
           density=st.floats(0.0, 1.0), planted=st.booleans())
    def test_graph_search_agrees_with_scipy(self, seed, n, density, planted):
        # planted: no edge leaves a random proper subset of states, so the
        # graph is reducible whenever n > 1
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        from morlab.momdp import _strongly_connected

        rng = np.random.default_rng(seed)
        pattern = rng.random((n, n)) < density
        if planted and n > 1:
            closed = rng.permutation(n)[:rng.integers(1, n)]
            pattern[np.ix_(closed, np.setdiff1d(np.arange(n), closed))] = False
        expected = connected_components(csr_matrix(pattern), directed=True,
                                        connection="strong")[0] == 1
        assert _strongly_connected(pattern.shape, pattern.tobytes()) == expected

    @pytest.mark.parametrize("P, problem", [
        (np.full((2, 3), 1.0 / 3.0), "square"),
        (np.array([0.5, 0.5]), r"kernel must have shape \(\*, \*\)"),
        (np.array([[1.5, -0.5], [0.5, 0.5]]), "non-negative"),
    ], ids=["non-square", "one-dim", "negative-entry"])
    def test_bad_kernel_raises_parameter_error(self, P, problem):
        with pytest.raises(ParameterError, match=problem):
            compute_stationary_distribution(P)

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


class TestValueSolves:
    """``PolicyEvaluation.lead_values``: one memoized solve per k and
    distinct discount, read by ``values`` (k = S discounted, S - 1 average)
    and by ``compute_td_fixed_point``."""

    @pytest.mark.parametrize("env", [build_fishwood(0.25, 0.65), build_resource_gathering(),
                                     random_momdp(np.random.default_rng(3), 12, 3, 3)],
                             ids=["fishwood", "resource_gathering", "random"])
    def test_average_values_solve_the_poisson_equation(self, env):
        rng = np.random.default_rng(5)
        for scale in (0.0, 1.0):
            evaluation = PolicyEvaluation(env, random_policy(rng, env.n_states, env.n_actions, scale),
                                          AVERAGE)
            V, J = evaluation.values
            d, P, r = evaluation.d, evaluation.P, evaluation.r
            assert J.tobytes() == (r @ d).tobytes()
            # the (I - P + 1 d^T) solve, whose solution meets d V = 0 already
            S = env.n_states
            ref = np.linalg.solve(np.eye(S) - P + np.outer(np.ones(S), d), (r - J[:, None]).T).T
            assert np.max(np.abs(V - ref)) <= 1e-11 * max(1.0, np.abs(ref).max())
            assert np.max(np.abs(r - J[:, None] + V @ P.T - V)) <= 1e-11
            assert np.max(np.abs(V @ d)) <= 1e-13 * max(1.0, np.abs(V).max())

    def test_skewed_policies_fall_back_to_the_poisson_solve(self, monkeypatch):
        # N(0, 3) logits make some states rare: the values pinned at the last
        # state then miss the Poisson equation by up to 4e-7 of their scale,
        # and the (I - P + 1 d^T) solve takes over
        env = build_resource_gathering()
        rng = np.random.default_rng(5)
        real, solves = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or real(*args))
        fallbacks = 0
        for _ in range(10):
            evaluation = PolicyEvaluation(env, random_policy(rng, env.n_states, env.n_actions, 3.0),
                                          AVERAGE)
            evaluation.offset   # the stationary solve
            solves.clear()
            V, J = evaluation.values
            fallbacks += len(solves) - 1
            centred = evaluation.r - J[:, None]
            residual = np.abs(centred + V @ evaluation.P.T - V).max()
            assert residual <= 1e-12 * (np.abs(V).max() + np.abs(centred).max())
        assert 0 < fallbacks < 10

    @pytest.mark.parametrize("scale, draw", [(30.0, 23), (50.0, 19), (50.0, 21)])
    def test_singular_value_solves_raise_model_error(self, scale, draw):
        # near-reducible chains whose d passes its residual check: the (I - P
        # + 1 d^T) fallback (N(0, 30), draw 23) or the pinned lead_values(S - 1)
        # solve (N(0, 50), draws 19 and 21) is exactly singular in floating point
        env = build_resource_gathering()
        rng = np.random.default_rng(5)
        draws = [rng.normal(0.0, 30.0, size=env.n_states * env.n_actions) for _ in range(40)]
        draws += [rng.normal(0.0, 50.0, size=env.n_states * env.n_actions) for _ in range(40)]
        policy = PolicyParams(draws[draw + (40 if scale == 50.0 else 0)], env.n_states, env.n_actions)
        for oracle in (lambda: exact_policy_gradient(PolicyEvaluation(env, policy, AVERAGE)),
                       lambda: pareto_stationarity_gap(PolicyEvaluation(env, policy, AVERAGE)),
                       lambda: value_functions(env, policy, AVERAGE)):
            with pytest.raises(ModelError, match="singular"):
                oracle()

    def test_discounted_values_match_per_objective_solves(self):
        env = build_fishwood(0.25, 0.65, discount=(0.8, 0.95))
        rng = np.random.default_rng(6)
        for scale in (0.0, 1.0):
            evaluation = PolicyEvaluation(env, random_policy(rng, 4, 2, scale), DISCOUNTED)
            V, J = evaluation.values
            for i, gamma in enumerate(env.discounts):
                ref = np.linalg.solve(np.eye(4) - gamma * evaluation.P, evaluation.r[i])
                assert np.max(np.abs(V[i] - ref)) <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(J, V @ env.initial_distribution)

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_one_read_only_solve_per_dimension(self, monkeypatch, setting):
        env = build_resource_gathering()
        evaluation = PolicyEvaluation(env, uniform_policy(env), setting)
        evaluation.d, evaluation.offset   # the stationary solve
        solves = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or real(*args))
        k = env.n_states - 1
        X = evaluation.lead_values(k)
        assert evaluation.lead_values(k) is X and len(solves) == 1   # three objectives, one discount
        assert not X.flags.writeable
        fp = compute_td_fixed_point(evaluation, default_feature_map(env.n_states))
        assert np.array_equal(fp.w_star, X) and fp.w_star.flags.writeable
        assert not np.shares_memory(fp.w_star, X)
        assert len(solves) == 1


_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=-1)[..., ::2],
}


class TestAdvantages:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sparse=st.booleans(),
        setting=st.sampled_from([AVERAGE, DISCOUNTED]),
        n_states=st.integers(2, 40),
        n_actions=st.integers(1, 4),
        n_objectives=st.integers(1, 3),
    )
    def test_equal_to_dense_references(self, seed, sparse, setting, n_states, n_actions,
                                       n_objectives):
        # P V sums each row from +0.0 in increasing s': the bits of the
        # sequential dense referee in every case. einsum adds a strided V (the
        # Poisson solve's for M > 1) the same way, one term at a time, so the
        # bits are its bits too. A C-ordered V (the discounted solves, and
        # M = 1) einsum adds with SIMD partial sums, in another order. Any
        # order of the S products of a row is within gamma_S sum_x P|V| of the
        # exact sum, gamma_n = n u / (1 - n u) and u = eps / 2 (Higham,
        # Accuracy and Stability of Numerical Algorithms, 3.1), so the two
        # are within 2 gamma_S sum_x P|V| of each other. The bound below takes
        # gamma_{S+1}: the slack, a relative 1/S, covers the rounding of the
        # bound's own sum and products, a relative (S + 3) u at most.
        rng = np.random.default_rng(seed)
        build = random_sparse_momdp if sparse else random_momdp
        env = build(rng, n_states, n_actions, n_objectives)
        policy = random_policy(rng, n_states, n_actions, scale=float(rng.uniform(0.0, 3.0)))
        evaluation = PolicyEvaluation(env, policy, setting)
        assert np.array_equal(evaluation.advantages, advantages_reference(evaluation, sequential=True))
        V, _ = evaluation.values
        if not V.flags.c_contiguous:
            assert np.array_equal(evaluation.advantages, advantages_reference(evaluation))
            return
        u = np.finfo(float).eps / 2
        n = n_states + 1
        bound = 2 * n * u / (1 - n * u) * next_values_reference(env, np.abs(V), sequential=True)
        gap = np.abs(next_values_reference(env, V) - next_values_reference(env, V, sequential=True))
        assert np.all(gap <= bound)

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    @pytest.mark.parametrize("env", [build_fishwood(0.25, 0.65), build_resource_gathering()],
                             ids=["fishwood", "resource_gathering"])
    def test_lab_models_keep_the_einsum_bits(self, env, setting, layout):
        # the lab's models have at most 2 next states per (s, a), so the
        # einsum forms' bits hold for every memory layout of the values
        features = default_feature_map(env.n_states)
        rng = np.random.default_rng(2200)
        to_layout = _LAYOUTS[layout]
        for scale in (0.0, 1.0, 3.0):
            evaluation = PolicyEvaluation(env, random_policy(rng, env.n_states, env.n_actions, scale),
                                          setting)
            V, J = evaluation.values
            evaluation.values = (to_layout(V), J)
            assert np.array_equal(evaluation.advantages, advantages_reference(evaluation))
            weights = np.vstack([compute_td_fixed_point(evaluation, features).w_star,
                                 rng.normal(0.0, 1.0, size=(2, features.dim))])
            for i, w in enumerate(to_layout(weights)):
                objective = i % env.n_objectives
                assert np.array_equal(expected_td_errors(evaluation, features, w, objective),
                                      expected_td_errors_reference(evaluation, features, w, objective))


class TestPolicyKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sparse=st.booleans(),
        n_states=st.integers(2, 40),
        n_actions=st.integers(1, 4),
        scale=st.sampled_from([0.0, 1.0, 3.0, 800.0]),
    )
    def test_equal_to_the_sequential_referee(self, seed, sparse, n_states, n_actions, scale):
        # each P_pi(s, s') adds its terms in increasing a from +0.0; a padded
        # slot adds +0.0 and leaves the sum unchanged. Logits of scale 800
        # underflow some action probabilities to 0.0.
        rng = np.random.default_rng(seed)
        build = random_sparse_momdp if sparse else random_momdp
        env = build(rng, n_states, n_actions, 1)
        evaluation = PolicyEvaluation(env, random_policy(rng, n_states, n_actions, scale), AVERAGE)
        assert np.array_equal(evaluation.P, policy_kernel_reference(env, evaluation.probs,
                                                                    sequential=True))

    @pytest.mark.parametrize("env", [build_fishwood(0.25, 0.65), build_resource_gathering()],
                             ids=["fishwood", "resource_gathering"])
    def test_lab_models_keep_the_einsum_bits(self, env):
        rng = np.random.default_rng(2500)
        for scale in (0.0, 1.0, 3.0, 800.0):
            evaluation = PolicyEvaluation(env, random_policy(rng, env.n_states, env.n_actions, scale),
                                          DISCOUNTED)
            assert np.array_equal(evaluation.P, policy_kernel_reference(env, evaluation.probs))

"""TD errors, the mini-batch critic loop, and the exact fixed-point oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlab import (
    AVERAGE,
    DISCOUNTED,
    DivergenceError,
    FeatureMap,
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
    expected_td_gradient,
    expected_td_update,
    theory_critic_step,
    uniform_policy,
)
from morlab.critic import (
    CriticState,
    _centred_rewards,
    _check_margin,
    expected_td_errors,
    run_critic,
    td_errors,
)

from util import (
    critic_error_trace,
    draw,
    eigvalsh_margin,
    feature_matrix,
    random_momdp,
    random_policy,
    reward_tracker_path,
    run_critic_reference,
    single_chain_env,
    td_fixed_point_reference,
    td_margin_reference,
    tracker_filter_reference,
    two_state_env,
)


def one_step(n_states, reward, next_state, w, features, setting, mu=0.0, discount=0.9):
    """TD error of a one-sample batch 0 -> next_state paying ``reward``, at the tracker ``mu``."""
    rewards = np.zeros((1, n_states, 1))
    rewards[0, 0, 0] = reward
    env = single_chain_env(np.full((n_states, n_states), 1.0 / n_states), rewards, discount)
    batch = (np.array([0]), np.array([0]), np.array([next_state]))
    delta, r = td_errors(env, features, np.array([w], dtype=float), batch, setting, np.array([mu]))
    assert r.tolist() == [[reward]]
    return float(delta[0, 0])


class TestTdErrors:
    def test_average_plugin(self):
        # r=1, mu=0.25, equal state values => delta=0.75: the tracker is held, not advanced
        assert one_step(2, 1.0, 0, [0.0], default_feature_map(2), AVERAGE, 0.25) == 0.75

    def test_average_constant_reward_tracked(self):
        c = 0.6
        w = [0.4, -0.2]
        delta = one_step(3, c, 1, w, default_feature_map(3), AVERAGE, c)
        assert delta == pytest.approx(w[1] - w[0])

    def test_discounted_plugin(self):
        # r=1, gamma=0.9, phi(s')w=2, phi(s)w=1 => delta=1.8, whatever the tracker
        for mu in (0.0, 0.25):
            delta = one_step(2, 1.0, 1, [1.0, 2.0], complete_feature_map(2), DISCOUNTED, mu,
                             discount=0.9)
            assert delta == pytest.approx(1.8)

    def test_discounted_zero_weights(self):
        delta = one_step(2, 0.7, 1, [0.0], default_feature_map(2), DISCOUNTED, discount=0.95)
        assert delta == pytest.approx(0.7)

    def test_average_holds_trackers_fixed(self):
        # every sample is centred by the same trackers: the TD errors equal
        # r - mu + phi(s') w - phi(s) w, bit for bit
        rng = np.random.default_rng(2026)
        for _ in range(300):
            M = int(rng.integers(1, 5))
            S = int(rng.integers(2, 7))
            D = int(rng.integers(1, 201))
            env = random_momdp(rng, n_states=S, n_actions=2, n_objectives=M)
            features = default_feature_map(S)
            w = rng.normal(0.0, 1.0, size=(M, features.dim))
            batch = tuple(rng.integers(0, n, size=D) for n in (S, 2, S))
            mu = rng.normal(0.0, 1.0, size=M)
            delta, r = td_errors(env, features, w, batch, AVERAGE, mu)
            s_arr, a_arr, ns_arr = batch
            phi = feature_matrix(features)
            ref_r = env.reward[:, s_arr, a_arr]
            ref_delta = ref_r - mu[:, None] + (phi[ns_arr] @ w.T - phi[s_arr] @ w.T).T
            assert np.array_equal(r, ref_r)
            assert np.array_equal(delta, ref_delta)

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_zero_step_batch(self, setting):
        # a zero-step draw is a valid batch: no errors
        env = build_fishwood(0.3, 0.6)
        features = default_feature_map(env.n_states)
        batch = draw(env, 0, uniform_policy(env), 0)
        delta, r = td_errors(env, features, np.ones((2, features.dim)), batch, setting,
                             np.array([0.25, -0.0]))
        assert delta.shape == r.shape == (2, 0)


class TestTrackerRecursion:
    """The critic's average-setting reward trackers, the one recursion in
    the package: each reward is centred by the tracker from before its own
    update."""

    def test_match_recursion_reference(self):
        # the trackers follow the plain recursion of the docstring, so the
        # centred rewards and the final trackers equal its per-sample reference
        rng = np.random.default_rng(2026)
        for trial in range(300):
            M = int(rng.integers(1, 5))
            D = int(rng.integers(1, 201))
            r = rng.normal(0.0, 1.0, size=(M, D))
            mu0 = rng.normal(0.0, 1.0, size=M)
            beta = (0.1, 0.5, 20.0, float(rng.uniform(0.0, 1.0)))[trial % 4]
            centred, mu = _centred_rewards(r, mu0, beta)
            path, ref_mu = reward_tracker_path(r, mu0, beta)
            assert np.array_equal(centred, r - path, equal_nan=True)
            assert np.array_equal(mu, ref_mu, equal_nan=True)

    def test_first_sample_reads_incoming_tracker(self):
        # r = 1 from mu = 0 at beta = 0.1: the first sample is centred by 0,
        # the second by 0.1, and the tracker ends at 0.19
        centred, mu = _centred_rewards(np.array([[1.0, 1.0]]), np.array([0.0]), 0.1)
        assert centred.tolist() == [[1.0, 0.9]]
        assert mu == pytest.approx([0.19])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        M=st.integers(1, 4),
        D=st.integers(0, 200),
        beta=st.one_of(st.sampled_from([1.0, 20.0]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        mu0=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)),
                     min_size=4, max_size=4),
        zero_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_match_lfilter_bit_for_bit(self, seed, M, D, beta, mu0, zero_share):
        # scipy's one-tap IIR filter referees the recursion: centred rewards
        # and final trackers agree in every bit, signed zeros included. Zero
        # rewards are +0.0, as in every model here: for beta > 1 a -0.0
        # reward can flip the sign of a zero tracker, since lfilter forms its
        # state as 0 * r - a1 * y
        rng = np.random.default_rng(seed)
        S = 3
        env = random_momdp(rng, n_states=S, n_actions=2, n_objectives=M)
        reward = np.where(rng.random(env.reward.shape) < zero_share, 0.0, env.reward)
        s_arr, a_arr = rng.integers(0, S, size=D), rng.integers(0, 2, size=D)
        r = reward[:, s_arr, a_arr]
        mu = np.array(mu0[:M])
        centred, mu_after = _centred_rewards(r, mu, beta)
        path, ref_mu = tracker_filter_reference(r, mu, beta)
        assert centred.shape == (M, D)
        assert _bytes(centred) == _bytes(r - path)
        assert _bytes(mu_after) == _bytes(ref_mu)

    def test_zero_step_batch_returns_incoming_trackers(self):
        mu0 = np.array([0.25, -0.0])
        centred, mu = _centred_rewards(np.empty((2, 0)), mu0, 0.5)
        assert centred.shape == (2, 0)
        assert _bytes(mu) == _bytes(mu0)


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
                residual = fp.A[fp.slice_of[i]] @ fp.w_star[i] + fp.b[i]
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
                assert w @ fp.A[fp.slice_of[i]] @ w < 0

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
            for objective in (-1, 2, True, 1.0, np.float64(0.0)):
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

    def test_features_for_another_state_count_rejected(self):
        env = two_state_env()
        with pytest.raises(ParameterError, match="features are for 3 states"):
            compute_td_fixed_point(PolicyEvaluation(env, uniform_policy(env), DISCOUNTED),
                                   default_feature_map(3))

    def test_heterogeneous_discounts_give_distinct_matrices(self):
        rng = np.random.default_rng(500)
        env = random_momdp(rng, n_states=4, n_actions=2, n_objectives=2,
                           discounts=[0.95, 0.6])
        policy = random_policy(rng, 4, 2)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, DISCOUNTED), default_feature_map(4))
        assert not np.allclose(fp.A[fp.slice_of[0]], fp.A[fp.slice_of[1]])


def _discount_variants():
    """resource_gathering and fishwood with equal, partly equal and distinct
    discounts: one, two and M groups of identical TD slices."""
    rg = build_resource_gathering()

    def rg_with(discounts):
        return TabularMomdp(rg.n_states, rg.n_actions, rg.n_objectives, rg.transition, rg.reward,
                            np.array(discounts), rg.initial_distribution)

    return {
        "rg-equal": rg,
        "rg-paired": rg_with([0.9, 0.8, 0.9]),
        "rg-distinct": rg_with([0.95, 0.9, 0.8]),
        "fw-equal": build_fishwood(0.3, 0.7),
        "fw-distinct": build_fishwood(0.3, 0.7, discount=(0.9, 0.8)),
    }


_TD_ENVS = _discount_variants()
_EPS = np.finfo(float).eps


class TestGroupedFixedPoint:
    """The TD slices (one per distinct discount) against the dense-feature
    products, and the grouped solve of w* (one factorization per slice)
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
            ref = td_fixed_point_reference(fp.A[fp.slice_of], fp.b)
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
        evaluation = PolicyEvaluation(env, policy, setting)
        fp = compute_td_fixed_point(evaluation, default_feature_map(env.n_states))
        ref = td_fixed_point_reference(fp.A[fp.slice_of], fp.b)
        n = fp.b.shape[1]
        rhs = (evaluation.r - evaluation.offset[:, None])[:, :n]
        g = lambda k: k * _EPS / 2 / (1 - k * _EPS / 2)  # noqa: E731
        for A, gamma, c, w, w_ref in zip(fp.A[fp.slice_of], evaluation.gamma, rhs, fp.w_star, ref):
            # two backward-stable solves agree to cond(A) * eps
            assert np.linalg.norm(w - w_ref) <= np.linalg.cond(A) * _EPS * np.linalg.norm(w_ref)
            # the backward error of the solve made: w solves B w = c with
            # B = I - gamma P_lead by LU with partial pivoting, so
            # (B + E) w = c with |E| <= g(3n) |L| |U|, g(k) = k u / (1 - k u),
            # u = eps / 2 (Higham, Accuracy and Stability of Numerical
            # Algorithms, Thm 9.4). With |l_ij| <= 1 and |u_ij| <= rho max|B|,
            # ||L| |U||_inf <= n^2 rho max|B|, and the growth factor rho is at
            # most 2 for the row diagonally dominant B (Wilkinson; ibid., section
            # 9.5; at most 1.6 measured with partial pivoting on these models).
            # Evaluating the residual in floating point adds at most
            # g(n + 1) (|B| |w| + |c|).
            B = np.eye(n) - gamma * evaluation.P[:n, :n]
            bound = (g(3 * n) * 2 * n ** 2 * np.abs(B).max() * np.abs(w).max()
                     + g(n + 1) * (np.abs(B) @ np.abs(w) + np.abs(c)).max())
            assert np.abs(B @ w - c).max() <= bound

    @pytest.mark.parametrize("setting, kind", [(AVERAGE, "default"), (DISCOUNTED, "default"),
                                               (DISCOUNTED, "complete")])
    @pytest.mark.parametrize("env_name", sorted(_TD_ENVS))
    def test_slices_are_the_dense_feature_products(self, env_name, setting, kind):
        # A[slice_of[i]] and b are, bit for bit, the dense-feature products
        # Phi^T D (gamma_i P Phi - Phi) and ((r - offset) D) Phi: each entry
        # of a product with one-hot Phi adds one term to exact zeros
        env = _TD_ENVS[env_name]
        features = {"default": default_feature_map, "complete": complete_feature_map}[kind](env.n_states)
        phi = feature_matrix(features)
        rng = np.random.default_rng(911)
        for scale in (0.0, 1.0):
            evaluation = PolicyEvaluation(env, random_policy(rng, env.n_states, env.n_actions, scale),
                                          setting)
            fp = compute_td_fixed_point(evaluation, features)
            D = np.diag(evaluation.d)
            assert fp.A.shape[0] == len(set(evaluation.gamma.tolist()))
            assert np.array_equal(fp.b, ((evaluation.r - evaluation.offset[:, None]) @ D) @ phi)
            for i, g in enumerate(evaluation.gamma):
                dense = phi.T @ (D @ (g * evaluation.P @ phi - phi))
                assert np.array_equal(fp.A[fp.slice_of[i]], dense)


def _gate_outcome(gate, *args):
    """None if ``gate`` accepts, else the text of the ModelError it raises."""
    try:
        gate(*args)
    except ModelError as exc:
        return str(exc)
    return None


def _bytes(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestMarginGate:
    """The Cholesky certificate in front of ``eigvalsh`` accepts and rejects
    exactly the TD slices a full ``eigvalsh`` does, and the lazily computed
    margin is the eager one, byte for byte."""

    @staticmethod
    def planted(rng, n, scale, k):
        """A random (n, n) matrix a with a non-symmetric part, like a TD
        slice, whose a + a^T has its top eigenvalue planted at
        -1e-10 + k * eps * ||a + a^T||_F (up to the rounding of the products)
        and the others in [-scale, -scale / 1000]."""
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = rng.uniform(-scale, -scale / 1000, size=n)
        lam[0] = 0.0
        lam[0] = -1e-10 + k * _EPS * max(np.linalg.norm(lam), 1e-10)
        sym = (Q * lam) @ Q.T
        sym = 0.5 * (sym + sym.T)
        skew = scale * rng.normal(size=(n, n))
        return 0.5 * sym + 0.5 * (skew - skew.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40, 92])
    def test_planted_margins_gate_like_eigvalsh(self, n):
        rng = np.random.default_rng(1700 + n)
        accepted = []
        for k in [*range(-40, 41), -4000, 4000, -10**6, 10**6, -10**9]:
            for scale in (1.0, 1e-2):
                a = self.planted(rng, n, scale, k)
                want = _gate_outcome(eigvalsh_margin, a)
                assert _gate_outcome(_check_margin, a) == want, (n, k, scale)
                accepted.append(want is None)
        assert any(accepted) and not all(accepted)

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_resource_gathering_policies_gate_like_eigvalsh(self, setting):
        env = build_resource_gathering()
        features = default_feature_map(env.n_states)
        rng = np.random.default_rng(1703)
        rejected = 0
        for _ in range(30):
            policy = random_policy(rng, env.n_states, env.n_actions, scale=3.0)
            want = _gate_outcome(td_margin_reference, PolicyEvaluation(env, policy, setting), features)
            got = _gate_outcome(compute_td_fixed_point, PolicyEvaluation(env, policy, setting), features)
            assert got == want
            rejected += want is not None
        assert 0 < rejected < 30

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    @pytest.mark.parametrize("env_name", sorted(_TD_ENVS))
    def test_lazy_margin_and_bounds_match_eager_reference(self, env_name, setting):
        env = _TD_ENVS[env_name]
        features = default_feature_map(env.n_states)
        rng = np.random.default_rng(1704)
        for scale in (0.0, 0.5, 1.0):
            policy = random_policy(rng, env.n_states, env.n_actions, scale=scale)
            evaluation = PolicyEvaluation(env, policy, setting)
            fp = compute_td_fixed_point(evaluation, features)
            margin = td_margin_reference(evaluation, features)
            r_w = (4.0 if setting == AVERAGE else 2.0) * env.r_max / margin
            step = min(margin / (8.0 * fp.c_a ** 2), 4.0 / margin)
            assert _bytes(fp.lambda_A) == _bytes(margin)
            assert _bytes(fp.r_w_bound) == _bytes(r_w)
            assert _bytes(theory_critic_step(fp)) == _bytes(step)


class TestFeatureStateCount:
    """Every critic entry point rejects a feature map made for another
    state count with ParameterError."""

    # compute_td_fixed_point: TestFixedPoint.test_features_for_another_state_count_rejected
    @pytest.mark.parametrize("entry", ["td_errors", "run_critic", "expected_td_errors",
                                       "expected_td_update", "compute_zeta_approx"])
    def test_rejected(self, entry):
        env = two_state_env()
        evaluation = PolicyEvaluation(env, uniform_policy(env), DISCOUNTED)
        wrong = default_feature_map(3)
        w = np.zeros((env.n_objectives, wrong.dim))
        batch = (np.array([0, 1]), np.array([1, 0]), np.array([1, 1]))
        calls = {
            "td_errors": lambda: td_errors(env, wrong, w, batch, DISCOUNTED,
                                           np.zeros(env.n_objectives)),
            "run_critic": lambda: run_critic(env, batch, CriticState.zeros(2, wrong.dim, 0.1, 2, 1),
                                             wrong, DISCOUNTED),
            "expected_td_errors": lambda: expected_td_errors(evaluation, wrong, w[0], 0),
            "expected_td_update": lambda: expected_td_update(evaluation, wrong, w[0], 0),
            "compute_zeta_approx": lambda: compute_zeta_approx(
                evaluation, compute_td_fixed_point(evaluation, default_feature_map(2)), wrong),
        }
        with pytest.raises(ParameterError, match="the features are for 3 states, the model has 2"):
            calls[entry]()


class TestWeightShape:
    """The exact TD oracles take the weights of one objective, shape (dim,),
    and reject any other shape or a non-numeric w with ParameterError."""

    @pytest.mark.parametrize("entry", [expected_td_errors, expected_td_update, expected_td_gradient])
    @pytest.mark.parametrize("w", [np.zeros(5), np.zeros(2), np.zeros((2, 3)), np.zeros(()),
                                   np.array(["0", "0", "0"]), np.array([True, False, True])],
                             ids=["(5,)", "(2,)", "(2, 3)", "scalar", "str", "bool"])
    def test_rejected(self, entry, w):
        env = build_fishwood(0.3, 0.6)
        features = default_feature_map(env.n_states)   # dim 3
        evaluation = PolicyEvaluation(env, uniform_policy(env), DISCOUNTED)
        with pytest.raises(ParameterError, match=r"w must (have shape \(3,\)|hold numbers)"):
            entry(evaluation, features, w, 0)

    @pytest.mark.parametrize("entry", [expected_td_errors, expected_td_update, expected_td_gradient])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, entry, bad):
        env = build_fishwood(0.3, 0.6)
        features = default_feature_map(env.n_states)
        evaluation = PolicyEvaluation(env, uniform_policy(env), DISCOUNTED)
        with pytest.raises(ParameterError, match="w must be finite"):
            entry(evaluation, features, np.array([bad, 0.0, 0.0]), 0)

    @pytest.mark.parametrize("entry", [expected_td_errors, expected_td_update, expected_td_gradient])
    def test_integer_weights_match_float_weights(self, entry):
        env = build_fishwood(0.3, 0.6)
        features = default_feature_map(env.n_states)
        evaluation = PolicyEvaluation(env, uniform_policy(env), AVERAGE)
        w = np.array([1, -2, 3])
        assert np.array_equal(entry(evaluation, features, w, 1), entry(evaluation, features, w.astype(float), 1))


class TestCriticMisuse:
    """td_errors and run_critic reject weights that are not (M, dim) for the
    model and features, and a batch whose three arrays differ in length, with
    ParameterError (CLI exit 2)."""

    # fishwood has S = 4 and M = 2, and default features have dim 3: (2, 4)
    # and (2, 7) weights used to give silently wrong TD errors, (2, 2) a bare
    # IndexError, (3, 3) and (3,) bare ValueErrors
    BAD_WEIGHTS = [(2, 4), (2, 7), (2, 2), (3, 3), (1, 3), (3,)]

    @staticmethod
    def model():
        env = build_fishwood(0.3, 0.6)
        features = default_feature_map(env.n_states)
        return env, features, draw(env, 2, uniform_policy(env), 20)

    @pytest.mark.parametrize("shape", BAD_WEIGHTS, ids=str)
    def test_td_errors_weight_shape(self, shape):
        env, features, batch = self.model()
        with pytest.raises(ParameterError, match=r"critic weights must have shape \(2, 3\)") as e:
            td_errors(env, features, np.ones(shape), batch, DISCOUNTED, np.zeros(2))
        assert e.value.exit_code == 2

    @pytest.mark.parametrize("shape", BAD_WEIGHTS[:-1], ids=str)
    def test_run_critic_weight_shape(self, shape):
        env, features, batch = self.model()
        critic = CriticState(weights=np.ones(shape), avg_reward=np.zeros(shape[0]), step_size=0.1,
                             batch_size=10, n_iterations=2)
        with pytest.raises(ParameterError, match=r"critic weights must have shape \(2, 3\)"):
            run_critic(env, batch, critic, features, DISCOUNTED)

    @pytest.mark.parametrize("short", [1, 2], ids=["actions", "next_states"])
    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_batch_lengths_must_agree(self, short, setting):
        env, features, batch = self.model()
        batch = list(batch)
        batch[short] = batch[short][:-1]
        critic = CriticState.zeros(2, features.dim, 0.1, batch_size=10, n_iterations=2)
        with pytest.raises(ParameterError, match="one length"):
            td_errors(env, features, critic.weights, batch, setting, np.zeros(2))
        with pytest.raises(ParameterError, match="one length"):
            run_critic(env, batch, critic, features, setting)

    def test_td_errors_unknown_setting(self):
        # an unknown setting used to run as the discounted one
        env, features, batch = self.model()
        with pytest.raises(ParameterError, match="unknown reward setting 'avg'"):
            td_errors(env, features, np.zeros((2, 3)), batch, "avg", np.zeros(2))

    def test_batch_must_be_a_triple(self):
        env, features, batch = self.model()
        with pytest.raises(ParameterError, match="triple"):
            td_errors(env, features, np.zeros((2, 3)), batch[:2], DISCOUNTED, np.zeros(2))

    @pytest.mark.parametrize("bad", [None, 5])
    def test_batch_that_is_no_sequence_is_not_a_triple(self, bad):
        # None and a number used to escape as a bare TypeError from len()
        env, features, _ = self.model()
        with pytest.raises(ParameterError, match="triple"):
            td_errors(env, features, np.zeros((2, 3)), bad, DISCOUNTED, np.zeros(2))
        with pytest.raises(ParameterError, match="triple"):
            run_critic(env, bad, CriticState.zeros(2, 3, 0.1, 10, 2), features, DISCOUNTED)

    # (part of the batch, step, value). Fishwood has S = 4 and A = 2: an
    # action of 2 in state s used to read the reward row of (s + 1, 0), a
    # state of -1 to wrap to state 3, and a state of 4 to raise a bare
    # IndexError
    BAD_INDICES = [(1, 0, 2), (1, 3, -1), (0, 5, 4), (0, 7, -1), (2, 0, 4), (2, 19, -1)]

    @classmethod
    def bad_batch(cls, part, step, value):
        env, features, batch = cls.model()
        batch = [x.copy() for x in batch]
        batch[part][step] = value
        return env, features, batch

    @pytest.mark.parametrize("part, step, value", BAD_INDICES, ids=str)
    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_td_errors_index_range(self, part, step, value, setting):
        env, features, batch = self.bad_batch(part, step, value)
        name = "actions" if part == 1 else "states"
        with pytest.raises(ParameterError, match=f"batch {name} must lie in") as e:
            td_errors(env, features, np.zeros((2, 3)), batch, setting, np.zeros(2))
        assert e.value.exit_code == 2

    @pytest.mark.parametrize("part, step, value", BAD_INDICES, ids=str)
    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_run_critic_index_range(self, part, step, value, setting):
        env, features, batch = self.bad_batch(part, step, value)
        name = "actions" if part == 1 else "states"
        critic = CriticState.zeros(2, features.dim, 0.1, batch_size=10, n_iterations=2)
        with pytest.raises(ParameterError, match=f"batch {name} must lie in"):
            run_critic(env, batch, critic, features, setting)

    def test_shifted_states_rejected(self):
        # states - 1 and next states - 1 used to return finite weights
        env, features, (s, a, ns) = self.model()
        critic = CriticState.zeros(2, features.dim, 0.1, batch_size=10, n_iterations=2)
        with pytest.raises(ParameterError, match=r"batch states must lie in \[0, 4\)"):
            run_critic(env, (s - 1, a, ns - 1), critic, features, AVERAGE)

    @pytest.mark.parametrize("mu", [np.array([np.nan, 0.0]), np.array([0.0, np.inf]),
                                    np.zeros(3), np.zeros((2, 1)), np.array(["0", "0"]),
                                    np.array([True, False])],
                             ids=["nan", "inf", "(3,)", "(2, 1)", "str", "bool"])
    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_td_errors_trackers(self, mu, setting):
        env, features, batch = self.model()
        with pytest.raises(ParameterError, match=r"reward trackers must (have shape \(2,\)"
                                                 r"|hold numbers|be finite)") as e:
            td_errors(env, features, np.zeros((2, 3)), batch, setting, mu)
        assert e.value.exit_code == 2

    @pytest.mark.parametrize("field, bad", [("weights", np.nan), ("weights", np.inf),
                                            ("avg_reward", np.nan), ("avg_reward", -np.inf)],
                             ids=str)
    def test_critic_state_must_be_finite(self, field, bad):
        # a NaN weight or a non-finite tracker used to end in DivergenceError
        # (exit 3) at inner critic iteration 1, with a RuntimeWarning
        values = {"weights": np.zeros((2, 3)), "avg_reward": np.zeros(2)}
        values[field][0] = bad
        with pytest.raises(ParameterError, match="must be finite") as e:
            CriticState(step_size=0.1, batch_size=10, n_iterations=2, **values)
        assert e.value.exit_code == 2


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
            float(d @ (V[i] - feature_matrix(features) @ fp.w_star[i]) ** 2) for i in range(2)
        )
        assert zeta == pytest.approx(expected, rel=1e-12)
        assert zeta >= 0.0

    @pytest.mark.parametrize("env", [build_fishwood(0.25, 0.65), build_resource_gathering()],
                             ids=["fishwood", "resource_gathering"])
    def test_average_default_features_zero_modulo_constants(self, env):
        # with default features w* is V less its value in the last state, a
        # constant the average-setting zeta does not count
        features = default_feature_map(env.n_states)
        policy = random_policy(np.random.default_rng(0), env.n_states, env.n_actions)
        evaluation = PolicyEvaluation(env, policy, AVERAGE)
        fp = compute_td_fixed_point(evaluation, features)
        assert 0.0 <= compute_zeta_approx(evaluation, fp, features) <= 1e-24

    @pytest.mark.parametrize("env", [build_fishwood(0.25, 0.65), build_resource_gathering()],
                             ids=["fishwood", "resource_gathering"])
    def test_average_matches_dense_referee(self, env):
        # two states with zero features: a gap that no constant removes,
        # against w* from the dense-feature products and V from the
        # (I - P + 1 d^T) Poisson solve
        S = env.n_states
        features = FeatureMap(S, S - 2)
        policy = random_policy(np.random.default_rng(0), S, env.n_actions)
        evaluation = PolicyEvaluation(env, policy, AVERAGE)
        fp = compute_td_fixed_point(evaluation, features)
        phi, d, P = feature_matrix(features), evaluation.d, evaluation.P
        D = np.diag(d)
        J = evaluation.r @ d
        A = phi.T @ D @ (P @ phi - phi)
        b = (evaluation.r - J[:, None]) @ D @ phi
        w = td_fixed_point_reference(np.repeat(A[None], env.n_objectives, axis=0), b)
        V = np.linalg.solve(np.eye(S) - P + np.outer(np.ones(S), d), (evaluation.r - J[:, None]).T).T
        gaps = V - w @ phi.T
        gaps -= (gaps @ d)[:, None]
        expected = float(((gaps ** 2) @ d).max())
        assert expected > 1e-6   # far above the rounding floor of default features
        assert compute_zeta_approx(evaluation, fp, features) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kind", [default_feature_map, complete_feature_map])
    def test_discounted_is_the_plain_weighted_gap(self, kind):
        # no centring in the discounted setting: the d-weighted squared gap, bit for bit
        env = build_fishwood(0.25, 0.65, discount=(0.8, 0.95))
        features = kind(env.n_states)
        evaluation = PolicyEvaluation(env, random_policy(np.random.default_rng(1), 4, 2),
                                      DISCOUNTED)
        fp = compute_td_fixed_point(evaluation, features)
        V, _ = evaluation.values
        expected = float((((V - features.values(fp.w_star)) ** 2) @ evaluation.d).max())
        assert _bytes(compute_zeta_approx(evaluation, fp, features)) == _bytes(expected)


class TestRunCritic:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 2.5), ("batch_size", True), ("batch_size", 0),
        ("n_iterations", 2.5), ("n_iterations", 0),
    ])
    def test_counts_must_be_integers(self, field, value):
        # a float count used to pass and fail later in run_critic with a bare
        # TypeError from slicing; True ran as a batch of one
        counts = dict(batch_size=2, n_iterations=2)
        counts[field] = value
        with pytest.raises(ParameterError, match=field):
            CriticState.zeros(2, 1, 0.1, **counts)

    @pytest.mark.parametrize("step", [np.inf, -np.inf, np.nan, 0.0, -0.1])
    def test_step_size_must_be_positive_and_finite(self, step):
        # an infinite step used to pass and end the run in DivergenceError
        # (exit 3) at inner iteration 1
        with pytest.raises(ParameterError, match="step size must be positive and finite") as e:
            CriticState.zeros(2, 1, step, batch_size=2, n_iterations=2)
        assert e.value.exit_code == 2

    def test_single_step_matches_manual_td(self):
        env = two_state_env()
        features = default_feature_map(2)
        batch = draw(env, 77, uniform_policy(env), 1)
        s, a = int(batch[0][0]), int(batch[1][0])
        critic = CriticState.zeros(2, 1, step_size=0.2, batch_size=1, n_iterations=1)
        updated = run_critic(env, batch, critic, features, DISCOUNTED)
        for i in range(2):
            delta = env.reward[i, s, a]   # zero weights: the TD error is the reward
            expected = 0.2 * delta * feature_matrix(features)[s]
            assert np.allclose(updated.weights[i], expected, atol=1e-15)

    def test_zero_reward_keeps_weights_zero(self):
        P = np.array([[[0.5, 0.5], [0.2, 0.8]], [[0.7, 0.3], [0.4, 0.6]]])
        env = TabularMomdp(2, 2, 1, P, np.zeros((1, 2, 2)), np.array([0.9]), np.array([0.5, 0.5]))
        features = default_feature_map(2)
        critic = CriticState.zeros(1, 1, step_size=0.1, batch_size=8, n_iterations=20)
        batch = draw(env, 5, uniform_policy(env), 8 * 20)
        for setting in (AVERAGE, DISCOUNTED):
            updated = run_critic(env, batch, critic, features, setting)
            assert np.all(updated.weights == 0.0)
            assert np.all(updated.avg_reward == 0.0)

    def test_objective_permutation_permutes_weights(self):
        env = two_state_env()
        flipped = TabularMomdp(2, 2, 2, env.transition, env.reward[::-1].copy(),
                               env.discounts[::-1].copy(), env.initial_distribution)
        features = default_feature_map(2)
        policy = uniform_policy(env)
        critic = CriticState.zeros(2, 1, step_size=0.1, batch_size=16, n_iterations=30)
        batch = draw(env, 13, policy, 16 * 30)   # the flipped model has the same chain
        out1 = run_critic(env, batch, critic, features, DISCOUNTED)
        out2 = run_critic(flipped, batch, critic, features, DISCOUNTED)
        assert np.array_equal(out1.weights, out2.weights[::-1])

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_converges_toward_fixed_point(self, setting):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, setting), features)
        # the analysis only upper-bounds beta. In the average setting each TD
        # error also carries the noise of the tracker that centres it, which
        # grows with beta: at beta = 0.9 the mean error here is about 2.6x
        # the initial one, at 0.1 about 0.05x, so beta stays moderate
        beta = theory_critic_step(fp) if setting == DISCOUNTED else min(0.1, theory_critic_step(fp))
        initial = float((fp.w_star ** 2).sum())
        errors = []
        for seed in range(40):
            critic = CriticState.zeros(2, 1, step_size=beta, batch_size=200, n_iterations=300)
            updated = run_critic(env, draw(env, seed, policy, 200 * 300), critic, features, setting)
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
            run_critic(env, draw(env, seed, policy, 10 * 20), critic, features, DISCOUNTED)

    def test_divergence_raises_with_iteration(self):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        critic = CriticState.zeros(2, 1, step_size=1e9, batch_size=4, n_iterations=50)
        with pytest.raises(DivergenceError) as err:
            run_critic(env, draw(env, 1, policy, 4 * 50), critic, features, AVERAGE)
        assert err.value.iteration is not None

    def test_non_finite_weights_raise_at_their_iteration(self):
        # state 0 pays nothing and inner iterations 1 and 2 stay on state 0.
        # From weights [0, 1e11], iterations 1 and 2 leave the weights as they
        # are; iteration 3 steps 0 -> 1 with TD error 9e10, which the step
        # 1e300 overflows to inf. (A NaN start is a ParameterError of
        # CriticState: TestCriticMisuse.)
        env = single_chain_env(np.full((2, 2), 0.5), rewards=[[[0.0], [1.0]]])
        critic = CriticState(weights=[[0.0, 1e11]], avg_reward=[0.0], step_size=1e300,
                             batch_size=2, n_iterations=4)
        path = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1])
        batch = (path[:-1], np.zeros(8, dtype=np.int64), path[1:])
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            run_critic(env, batch, critic, complete_feature_map(2), DISCOUNTED)
        assert err.value.iteration == 3
        assert "inner critic iteration 3" in str(err.value)

    def test_non_finite_final_trackers_diverge(self):
        # the chain sits in state 1, whose default feature is zero, so the
        # weights never move; at step 1e200 the second tracker update
        # overflows, and no slice reads that last update
        env = single_chain_env(np.full((2, 2), 0.5), rewards=[[[0.0], [1.0]]])
        critic = CriticState.zeros(1, 1, 1e200, batch_size=2, n_iterations=1)
        batch = (np.array([1, 1]), np.array([0, 0]), np.array([1, 1]))
        with pytest.raises(DivergenceError, match="trackers diverged at inner critic iteration 1") as err:
            run_critic(env, batch, critic, default_feature_map(2), AVERAGE)
        assert err.value.exit_code == 3

    def test_divergence_raises_without_a_warning(self):
        # at beta = 10 the tracker recursion overflows, and the first slice's
        # update used to emit numpy's "invalid value encountered in matmul"
        # before the DivergenceError that reports the same NaN
        env = build_resource_gathering()
        rng = np.random.default_rng(0)
        policy = PolicyParams(rng.normal(0.0, 0.5, env.n_states * env.n_actions),
                              env.n_states, env.n_actions)
        features = default_feature_map(env.n_states)
        critic = CriticState.zeros(3, features.dim, 10.0, 500, 800)
        batch = draw(env, 0, policy, 800 * 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="inner critic iteration 1$") as err:
                run_critic(env, batch, critic, features, AVERAGE)
        assert err.value.iteration == 1

    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    def test_batch_equals_one_iteration_calls(self, setting):
        # one call on N * D steps against N one-iteration calls on consecutive
        # D-step slices: the same weights and trackers, bit for bit
        env = build_resource_gathering()
        policy = random_policy(np.random.default_rng(8), env.n_states, env.n_actions)
        features = default_feature_map(env.n_states)
        critic = CriticState.zeros(3, features.dim, 0.3, batch_size=25, n_iterations=8)
        batch = draw(env, 4, policy, 25 * 8)
        whole = run_critic(env, batch, critic, features, setting)
        _, sliced = critic_error_trace(env, batch, critic, features, setting, whole.weights)
        assert np.array_equal(whole.weights, sliced.weights)
        assert np.array_equal(whole.avg_reward, sliced.avg_reward)

    def test_batch_length_must_match(self):
        env = two_state_env()
        critic = CriticState.zeros(2, 1, step_size=0.1, batch_size=8, n_iterations=3)
        with pytest.raises(ParameterError):
            run_critic(env, draw(env, 0, uniform_policy(env), 23), critic,
                       default_feature_map(2), DISCOUNTED)

    def test_error_trace_streams_per_iteration(self):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        fp = compute_td_fixed_point(PolicyEvaluation(env, policy, DISCOUNTED), features)
        critic = CriticState.zeros(2, 1, step_size=0.1, batch_size=8, n_iterations=25)
        trace, _ = critic_error_trace(env, draw(env, 3, policy, 8 * 25), critic, features,
                                      DISCOUNTED, fp.w_star)
        assert len(trace) == 25
        assert all(e >= 0 for e in trace)

    def test_average_tracker_follows_batch_recursion(self):
        env = two_state_env()
        features = default_feature_map(2)
        policy = uniform_policy(env)
        beta = 0.25
        batch = draw(env, 21, policy, 12)
        mu = np.zeros(2)
        for s, a in zip(batch[0], batch[1]):
            mu = (1 - beta) * mu + beta * env.reward[:, s, a]
        critic = CriticState.zeros(2, 1, step_size=beta, batch_size=12, n_iterations=1)
        updated = run_critic(env, batch, critic, features, AVERAGE)
        assert np.allclose(updated.avg_reward, mu, atol=1e-12)


class TestRunCriticEquivalence:
    @pytest.mark.parametrize("env_name", ["fishwood", "resource_gathering"])
    @pytest.mark.parametrize("setting", [AVERAGE, DISCOUNTED])
    @pytest.mark.parametrize("kind", ["default", "complete"])
    def test_matches_per_iteration_reference(self, env_name, setting, kind):
        # one reward gather and one tracker filter per batch against N
        # from-scratch iterations: the same weights and trackers, bit for bit,
        # from non-zero starting weights and trackers
        env = build_fishwood(0.3, 0.6) if env_name == "fishwood" else build_resource_gathering()
        rng = np.random.default_rng(31)
        policy = random_policy(rng, env.n_states, env.n_actions)
        S, M = env.n_states, env.n_objectives
        features = default_feature_map(S) if kind == "default" else complete_feature_map(S)
        for N in (1, 2, 10):
            critic = CriticState(weights=rng.normal(0.0, 1.0, size=(M, features.dim)),
                                 avg_reward=rng.uniform(-0.5, 1.0, size=M), step_size=0.3,
                                 batch_size=17, n_iterations=N)
            batch = draw(env, 40 + N, policy, 17 * N)
            got = run_critic(env, batch, critic, features, setting)
            want = run_critic_reference(env, batch, critic, features, setting)
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.avg_reward, want.avg_reward)

    @pytest.mark.parametrize("env_name, setting, N, D", [
        ("fishwood", DISCOUNTED, 10, 50), ("fishwood", AVERAGE, 10, 50),
        ("resource_gathering", DISCOUNTED, 10, 50), ("resource_gathering", AVERAGE, 10, 50),
        ("fishwood", AVERAGE, 2, 25), ("resource_gathering", AVERAGE, 2, 25),
    ])
    def test_workload_shapes_match_reference(self, env_name, setting, N, D):
        # the benchmark's critic shapes, 400 random policies, weights,
        # trackers and steps each: at this count a C-ordered delta, equal in
        # value, moved the final weights in 75 of 400 discounted runs
        env = build_fishwood(0.25, 0.65) if env_name == "fishwood" else build_resource_gathering()
        rng = np.random.default_rng(2800 + N)
        S, A, M = env.n_states, env.n_actions, env.n_objectives
        features = default_feature_map(S)
        for seed in range(400):
            policy = random_policy(rng, S, A, scale=rng.uniform(0.0, 2.0))
            weights = rng.normal(0.0, rng.uniform(0.1, 10.0), size=(M, features.dim))
            critic = CriticState(weights=weights, avg_reward=rng.uniform(-0.5, 1.0, size=M),
                                 step_size=rng.uniform(0.05, 0.5), batch_size=D, n_iterations=N)
            batch = draw(env, seed, policy, N * D)
            got = run_critic(env, batch, critic, features, setting)
            want = run_critic_reference(env, batch, critic, features, setting)
            assert got.weights.tobytes() == want.weights.tobytes(), seed
            assert got.avg_reward.tobytes() == want.avg_reward.tobytes(), seed

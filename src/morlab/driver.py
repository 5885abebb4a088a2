"""The multi-objective actor-critic training loop: critic hand-off, batched
gradient estimates per objective, min-norm weighting with momentum, and the
policy ascent step, with optional exact-oracle diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .critic import (
    CriticState,
    compute_td_fixed_point,
    expected_td_errors,
    run_critic,
    td_errors,
    theory_critic_step,
)
from .errors import DivergenceError, MorlabError, ParameterError, check_float, check_integer, check_types
from .mgda import MomentumSchedule, momentum_update, solve_min_norm, uniform_weights
from .momdp import MarkovSampler, PolicyEvaluation, TabularMomdp, check_setting
from .policy import FeatureMap, PolicyParams, complete_feature_map, default_feature_map, exact_policy_gradient, uniform_policy

FEATURE_KINDS = {"default": default_feature_map, "complete": complete_feature_map}


@dataclass(slots=True)
class MetricsRecord:
    """One telemetry row per actor iteration (slotted: a run keeps T of them)."""

    t: int
    reward_mean: np.ndarray
    grad_norm_sq: float
    lam: np.ndarray
    eta: float
    critic_err: np.ndarray | None = None   # per-objective ||w_i - w_i*||^2
    j_exact: np.ndarray | None = None      # exact objective vector at theta_t
    pareto_gap: float | None = None        # min-norm gap on exact gradients at theta_t


@dataclass
class MoacConfig:
    """Hyperparameters for one training run."""

    setting: str
    actor_iterations: int                  # T
    actor_batch_size: int                  # B
    actor_step_size: float                 # alpha; theory_actor_step(L) gives 1/(3L)
    momentum: MomentumSchedule
    critic_step_size: float
    critic_iterations: int                 # N
    critic_batch_size: int                 # D
    seed: int = 0
    oracle_diagnostics: bool = False
    oracle_every: int = 10
    theory_compliant: bool = False
    features: str = "default"

    def __post_init__(self):
        check_setting(self.setting)
        for name in ("actor_iterations", "actor_batch_size", "critic_iterations",
                     "critic_batch_size", "oracle_every"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)
        for name in ("critic_step_size", "actor_step_size"):
            check_float(name, getattr(self, name), 0, np.inf)
        if not isinstance(self.features, str) or self.features not in FEATURE_KINDS:
            raise ParameterError(f"features must be one of {tuple(FEATURE_KINDS)}")
        if not isinstance(self.momentum, MomentumSchedule):
            self.momentum = MomentumSchedule.parse(str(self.momentum))


@dataclass
class MoacResult:
    """Output of one training run."""

    final_policy: PolicyParams             # theta after the last update
    sampled_policy: PolicyParams           # theta_That for a uniformly drawn That
    t_hat: int
    records: list[MetricsRecord]
    lambda_initial: np.ndarray             # lam_0 before the first momentum mix


def theory_actor_step(lipschitz_estimate: float) -> float:
    """Actor step size 1/(3 L) for a smoothness estimate L."""
    check_float("lipschitz_estimate", lipschitz_estimate, 0, np.inf, "(]")
    return 1.0 / (3.0 * lipschitz_estimate)


def estimate_objective_gradients(
    env: TabularMomdp,
    policy: PolicyParams,
    critic_weights: np.ndarray,
    batch,
    setting: str,
    features: FeatureMap,
    mu: np.ndarray,
    probs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Average delta * score per objective over one chained actor batch.

    ``batch`` is the (states, actions, next_states) triple of B steps drawn
    under ``policy``, whose ``probability_matrix()`` is ``probs``. Returns the
    (M, dim) gradient estimates and the (M,) batch reward means.

    The per-sample TD errors read the critic's weights and, in the average
    setting, its (M,) reward trackers ``mu``, both held fixed. One
    ``np.bincount`` folds the TD errors into per-(objective, state, action)
    buckets, each summed in step order from 0.0 as ``np.add.at`` would, so the
    projection onto the parameter space happens once for all M objectives.
    """
    if len(batch[0]) == 0:
        raise ParameterError("the actor batch is empty")
    M, S, A = env.n_objectives, env.n_states, env.n_actions
    delta, r = td_errors(env, features, critic_weights, batch, setting, mu)
    cells = (np.arange(M)[:, None] * S + batch[0]) * A + batch[1]    # (M, B)
    buckets = np.bincount(cells.ravel(), delta.ravel(), minlength=M * S * A)
    return policy.score_weighted_sum(buckets.reshape(M, S, A) / r.shape[1], probs), r.mean(axis=1)


def expected_td_gradient(evaluation: PolicyEvaluation, features: FeatureMap,
                         w: np.ndarray, objective: int) -> np.ndarray:
    """Exact enumeration limit of the sampled gradient estimate at weights w.

    Weights (s, a) by the stationary joint law and uses the conditional TD
    error expectation; the average-setting reward tracker is held at the exact
    objective value.
    """
    return evaluation.policy.score_weighted_sum(expected_td_errors(evaluation, features, w, objective),
                                                evaluation.probs)


def pareto_stationarity_gap(evaluation: PolicyEvaluation) -> float:
    """min over simplex weights of ||sum_i lam_i grad J_i||^2 on exact gradients."""
    _, min_norm_sq = solve_min_norm(exact_policy_gradient(evaluation))
    return min_norm_sq


def run_moac(env: TabularMomdp, config: MoacConfig) -> MoacResult:
    """Run the full training loop and return policies plus the metrics stream.

    Every iteration draws N * D + B chained steps under its policy in one
    call: the first N * D feed the critic's inner loop, the last B the actor
    batch. The next draw resumes where the last ended, so one unbroken
    trajectory underlies the whole run; (seed, config) fixes the stream
    bit-exactly. The action probabilities are computed once per iteration,
    for the oracle step, the draw and the actor's score sum. An error raised
    inside an iteration names that actor iteration in its message and its
    ``iteration``.
    """
    check_types(("env", env, TabularMomdp), ("config", config, MoacConfig))
    setting = config.setting
    features = FEATURE_KINDS[config.features](env.n_states)
    policy = uniform_policy(env)
    sampler = MarkovSampler(env, config.seed)
    critic = CriticState.zeros(
        env.n_objectives, features.dim,
        config.critic_step_size, config.critic_batch_size, config.critic_iterations,
    )
    if config.theory_compliant:
        fp0 = compute_td_fixed_point(PolicyEvaluation(env, policy, setting), features)
        limit = theory_critic_step(fp0)
        if config.critic_step_size > limit + 1e-12:
            raise ParameterError(
                f"critic step size {config.critic_step_size} exceeds the "
                f"theory-compliant bound {limit:.6g} for this environment"
            )
    lam = uniform_weights(env.n_objectives)
    lam_initial = lam.values.copy()
    records: list[MetricsRecord] = []
    T = config.actor_iterations
    thetas = np.empty((T, policy.theta.size))
    critic_steps = config.critic_iterations * config.critic_batch_size
    for t in range(1, T + 1):
        oracle_now = config.oracle_diagnostics and (
            t == 1 or t == T or t % config.oracle_every == 0
        )
        try:
            if oracle_now:
                evaluation = PolicyEvaluation(env, policy, setting)
                fp_t = compute_td_fixed_point(evaluation, features)
                probs = evaluation.probs
            else:
                probs = policy.probability_matrix()
            batch = sampler.sample_policy_batch(probs, critic_steps + config.actor_batch_size)
            critic = run_critic(env, [x[:critic_steps] for x in batch], critic, features, setting)
            grads, reward_mean = estimate_objective_gradients(
                env, policy, critic.weights, [x[critic_steps:] for x in batch],
                setting, features, mu=critic.avg_reward, probs=probs,
            )
            lam_hat, _ = solve_min_norm(grads)
            critic_err = j_exact = gap = None
            if oracle_now:
                critic_err = ((critic.weights - fp_t.w_star) ** 2).sum(axis=1)
                j_exact = evaluation.values[1]
                gap = pareto_stationarity_gap(evaluation)
            eta = config.momentum.eta(t)
            lam = momentum_update(lam, lam_hat, eta)
            combined = lam.values @ grads
            records.append(MetricsRecord(
                t=t,
                reward_mean=reward_mean,
                grad_norm_sq=float(combined @ combined),
                lam=lam.values.copy(),
                eta=eta,
                critic_err=critic_err,
                j_exact=j_exact,
                pareto_gap=gap,
            ))
            thetas[t - 1] = policy.theta
            new_theta = policy.theta + config.actor_step_size * combined
            if not np.all(np.isfinite(new_theta)):
                raise DivergenceError("policy parameters diverged")
            policy = replace(policy, theta=new_theta)
        except MorlabError as exc:
            raise exc.within(f"actor iteration {t}", iteration=t) from exc
    t_hat = int(sampler.rng.integers(1, T + 1))
    sampled = replace(policy, theta=thetas[t_hat - 1].copy())
    return MoacResult(
        final_policy=policy,
        sampled_policy=sampled,
        t_hat=t_hat,
        records=records,
        lambda_initial=lam_initial,
    )


def estimate_gradient_lipschitz(
    env: TabularMomdp,
    setting: str,
    n_probes: int = 20,
    radius: float = 0.5,
    seed: int = 0,
) -> float:
    """Probe the smoothness constant of the exact gradients.

    Samples random parameter pairs at the given radius around random centers
    and returns the largest observed ratio ||grad J(x) - grad J(y)|| / ||x - y||
    across objectives.
    """
    check_setting(setting)
    check_integer("n_probes", n_probes, 1)
    check_integer("seed", seed, 0)
    check_float("radius", radius, 0, np.inf)
    rng = np.random.default_rng(seed)
    S, A = env.n_states, env.n_actions

    def gradients(theta):
        return exact_policy_gradient(PolicyEvaluation(env, PolicyParams(theta, S, A), setting))

    worst = 0.0
    for _ in range(n_probes):
        center = rng.normal(0.0, 1.0, size=S * A)
        step = rng.normal(0.0, 1.0, size=S * A)
        step *= radius / np.linalg.norm(step)
        diff = gradients(center) - gradients(center + step)
        worst = max(worst, float(max(map(np.linalg.norm, diff)) / np.linalg.norm(step)))
    return worst

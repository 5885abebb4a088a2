"""Mini-batch TD(0) policy evaluation with linear features, one weight vector
per objective, plus the exact TD fixed-point oracle."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, ModelError, ParameterError
from .momdp import AVERAGE, MarkovSampler, PolicyEvaluation, TabularMomdp, check_setting
from .policy import FeatureMap, PolicyParams

_DIVERGENCE_LIMIT = 1e12
_LAMBDA_FLOOR = 1e-10


@dataclass
class CriticState:
    """Per-objective value weights and average-reward trackers."""

    weights: np.ndarray      # (M, d2)
    avg_reward: np.ndarray   # (M,) running reward-rate estimates, average setting only
    step_size: float         # beta
    batch_size: int          # samples per inner iteration
    n_iterations: int        # inner iterations per critic call

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.avg_reward = np.asarray(self.avg_reward, dtype=float)
        if self.weights.ndim != 2:
            raise ParameterError("weights must have shape (n_objectives, feature_dim)")
        if self.avg_reward.shape != (self.weights.shape[0],):
            raise ParameterError("avg_reward must have one tracker per objective")
        if not self.step_size > 0:
            raise ParameterError("critic step size must be positive")
        if self.batch_size < 1 or self.n_iterations < 1:
            raise ParameterError("batch size and iteration count must be >= 1")

    @classmethod
    def zeros(cls, n_objectives: int, feature_dim: int, step_size: float,
              batch_size: int, n_iterations: int) -> "CriticState":
        return cls(
            weights=np.zeros((n_objectives, feature_dim)),
            avg_reward=np.zeros(n_objectives),
            step_size=step_size,
            batch_size=batch_size,
            n_iterations=n_iterations,
        )


@dataclass
class TdFixedPoint:
    """Exact TD quantities for a fixed policy.

    ``A`` is stored per objective (shape (M, d2, d2)) because discounted
    objectives may carry different discount factors; in the average setting all
    slices are identical.
    """

    A: np.ndarray            # (M, d2, d2)
    b: np.ndarray            # (M, d2)
    w_star: np.ndarray       # (M, d2), solves A w + b = 0
    lambda_A: float          # uniform negative-definiteness margin of A + A^T
    r_w_bound: float         # norm bound on every w_star
    c_a: float               # strict upper bound on ||A||_F
    setting: str


def td_errors(env: TabularMomdp, features: FeatureMap, weights: np.ndarray, batch,
              setting: str, mu: np.ndarray, step_size: float):
    """TD errors of all M objectives along one chained batch, weights held fixed.

    ``batch`` is the (states, actions, next_states) triple drawn by
    ``MarkovSampler.sample_policy_batch``; ``weights`` has shape (M, d2). In
    the average setting the reward trackers start at ``mu`` and follow
    mu_t = (1 - beta) mu_{t-1} + beta r_t with beta = ``step_size``, and each
    sample's error uses the tracker its own reward has just updated; the
    discounted setting leaves ``mu`` as it is.

    Returns (delta, rewards, trackers): the (M, D) TD errors, the (M, D)
    rewards and the (M,) trackers after the batch.
    """
    s_arr, a_arr, ns_arr = batch
    phi = features.matrix
    r = env.reward[:, s_arr, a_arr]               # (M, D)
    v_s = phi[s_arr] @ weights.T                  # (D, M)
    v_n = phi[ns_arr] @ weights.T
    if setting != AVERAGE:  # kept apart: the tracker path groups (r - mu) + (v' - v)
        return r + env.discounts[:, None] * v_n.T - v_s.T, r, mu
    # the tracker recursion as a one-tap IIR filter; imported here so that
    # discounted runs never load scipy.signal
    from scipy.signal import lfilter
    keep = 1.0 - step_size
    path, _ = lfilter([step_size], [1.0, -keep], r, axis=1, zi=(keep * mu)[:, None])
    return r - path + (v_n - v_s).T, r, path[:, -1].copy()


def run_critic(
    sampler: MarkovSampler,
    policy: PolicyParams,
    critic: CriticState,
    features: FeatureMap,
    setting: str,
    fixed_point: TdFixedPoint | None = None,
    error_trace: list | None = None,
) -> CriticState:
    """Run the inner TD loop and return the updated critic.

    Each iteration draws one batch of chained Markovian samples under the
    policy, evaluates all M TD errors against that same batch with the
    weights held fixed, then applies the averaged semi-gradient update
    w_i += (beta / D) * sum_tau delta_i * phi(s_tau). The sampler resumes from
    wherever the previous caller left the chain. When ``fixed_point`` is given,
    the squared distance sum_i ||w_i - w_i*||^2 is appended to ``error_trace``
    after every iteration.
    """
    check_setting(setting)
    beta = critic.step_size
    D = critic.batch_size
    probs = policy.probability_matrix()
    phi = features.matrix
    w = critic.weights.copy()
    mu = critic.avg_reward.copy()
    for k in range(1, critic.n_iterations + 1):
        batch = sampler.sample_policy_batch(probs, D)
        delta, _, mu = td_errors(sampler.env, features, w, batch, setting, mu, beta)
        w = w + (beta / D) * (delta @ phi[batch[0]])
        if not np.all(np.isfinite(w)) or np.abs(w).max() > _DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"critic weights diverged at inner iteration {k}", iteration=k
            )
        if fixed_point is not None and error_trace is not None:
            error_trace.append(float(((w - fixed_point.w_star) ** 2).sum()))
    return replace(critic, weights=w, avg_reward=mu)


def compute_td_fixed_point(evaluation: PolicyEvaluation, features: FeatureMap) -> TdFixedPoint:
    """Exact A, b, w* = -A^{-1} b, and the margin/bound constants.

    All expectations are enumerated over (s, a, s') weighted by
    d(s) pi(a|s) P(s'|s, a) with d the stationary distribution. ``A`` is
    oriented so that the mean TD update direction is exactly A w + b, i.e.
    A = E[phi(s) (phi(s') - phi(s))^T] (with the discount inside for the
    discounted setting); w* is then the limit the sampled critic tracks. The
    margin lambda_A and the norm bounds are the same for either orientation of
    the outer product.
    """
    env, setting = evaluation.env, evaluation.setting
    d, gamma = evaluation.d, evaluation.gamma
    phi = features.matrix
    d2 = features.dim
    M = env.n_objectives
    weighted_phi = d[:, None] * phi
    next_phi = evaluation.P @ phi                     # E[phi(s') | s]
    b = ((evaluation.r - evaluation.offset[:, None]) * d) @ phi
    # objectives with equal discounts (all M in the average setting) share one
    # slice of A: one product, one eigendecomposition and one stacked solve per group
    A = np.empty((M, d2, d2))
    lambda_A = np.inf
    w_star = np.empty((M, d2))
    for g in np.unique(gamma):
        group = np.flatnonzero(gamma == g)
        A[group] = a = weighted_phi.T @ (g * next_phi - phi)
        rhs = b[group].T
        lambda_A = min(lambda_A, -np.linalg.eigvalsh(a + a.T)[-1])
        if lambda_A <= _LAMBDA_FLOOR:
            raise ModelError(
                "TD matrix is not negative definite for this (environment, policy, features) "
                f"triple: margin {lambda_A:.2e} <= {_LAMBDA_FLOOR:.0e}"
            )
        w = np.linalg.solve(a, -rhs)
        w -= np.linalg.solve(a, a @ w + rhs)          # one refinement pass
        w_star[group] = w.T
    # the analysis bounds the centred reward r - J by 2 r_max, twice r itself
    r_w = (4.0 if setting == AVERAGE else 2.0) * env.r_max / lambda_A
    c_a = max(float(np.linalg.norm(A[i], "fro")) for i in range(M)) + 1e-6
    return TdFixedPoint(A=A, b=b, w_star=w_star, lambda_A=lambda_A,
                        r_w_bound=r_w, c_a=c_a, setting=setting)


def theory_critic_step(fixed_point: TdFixedPoint) -> float:
    """Largest step size permitted by the convergence analysis."""
    return min(fixed_point.lambda_A / (8.0 * fixed_point.c_a ** 2),
               4.0 / fixed_point.lambda_A)


def expected_td_errors(evaluation: PolicyEvaluation, features: FeatureMap,
                       w: np.ndarray, objective: int) -> np.ndarray:
    """(S, A) array d(s) pi(a|s) E[delta | s, a] at the weights w of one objective.

    The conditional TD error is enumerated over next states; in the average
    setting the reward tracker is held at its limit, the exact objective value.
    """
    env = evaluation.env
    if not 0 <= objective < env.n_objectives:
        raise ParameterError(f"objective {objective} out of range")
    values = features.matrix @ w                   # (S,)
    next_values = np.einsum("sax,x->sa", env.transition, values)
    delta_bar = (env.reward[objective] - evaluation.offset[objective]
                 + evaluation.gamma[objective] * next_values - values[:, None])
    return evaluation.d[:, None] * evaluation.probs * delta_bar


def expected_td_update(evaluation: PolicyEvaluation, features: FeatureMap,
                       w: np.ndarray, objective: int) -> np.ndarray:
    """Exact enumeration of E[delta * phi(s)] at the given weights.

    Zero at w = w* by the fixed-point property.
    """
    return expected_td_errors(evaluation, features, w, objective).sum(axis=1) @ features.matrix


def compute_zeta_approx(evaluation: PolicyEvaluation, fixed_point: TdFixedPoint,
                        features: FeatureMap) -> float:
    """Worst-objective stationary-weighted squared gap between the exact value
    function and its fixed-point linear approximation."""
    V, _ = evaluation.values
    approx = fixed_point.w_star @ features.matrix.T    # (M, S)
    gaps = ((V - approx) ** 2) @ evaluation.d
    return float(gaps.max())

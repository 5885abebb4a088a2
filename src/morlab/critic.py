"""Mini-batch TD(0) policy evaluation with linear features, one weight vector
per objective, plus the exact TD fixed-point oracle."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DivergenceError, ModelError, ParameterError, check_array, check_float, check_integer, check_types
from .momdp import AVERAGE, PolicyEvaluation, TabularMomdp, check_setting
from .policy import FeatureMap

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
        self.weights = check_array("critic weights", self.weights, (None, None))
        self.avg_reward = check_array("reward trackers", self.avg_reward, (len(self.weights),))
        check_float("critic step size", self.step_size, 0, np.inf)
        check_integer("batch_size", self.batch_size, 1)
        check_integer("n_iterations", self.n_iterations, 1)

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

    ``A`` holds one (d2, d2) slice per distinct discount, in ascending order
    of discount: objectives with equal discounts (all M in the average
    setting) share a slice, and objective i's is ``A[slice_of[i]]``. The
    margin ``lambda_A`` and the bound ``r_w_bound`` are computed on first
    access: the gate of ``compute_td_fixed_point`` only certifies that the
    margin is above 1e-10. ``w_star`` is a copy of the evaluation's
    ``lead_values(d2)``.
    """

    A: np.ndarray            # (G, d2, d2), G the number of distinct discounts
    slice_of: np.ndarray     # (M,) index into A of each objective's slice
    b: np.ndarray            # (M, d2)
    w_star: np.ndarray       # (M, d2), solves A[slice_of[i]] w + b = 0
    c_a: float               # strict upper bound on ||A||_F
    r_bound: float           # bound on the centred reward: 2 r_max average, r_max discounted

    @cached_property
    def lambda_A(self) -> float:
        """Uniform negative-definiteness margin of A + A^T over the slices."""
        return min(_margin(a) for a in self.A)

    @cached_property
    def r_w_bound(self) -> float:
        """Norm bound on every w_star."""
        return 2.0 * self.r_bound / self.lambda_A


def _check_features(env: TabularMomdp, features: FeatureMap):
    check_types(("env", env, TabularMomdp), ("features", features, FeatureMap))
    if features.n_states != env.n_states:
        raise ParameterError(f"the features are for {features.n_states} states, "
                             f"the model has {env.n_states}")


def _margin(a: np.ndarray) -> float:
    """-lambda_max(a + a^T): the negative-definiteness margin of one TD slice."""
    return -np.linalg.eigvalsh(a + a.T)[-1]


def _check_margin(a: np.ndarray):
    """ModelError unless the margin of ``a`` is above the 1e-10 floor.

    ``eigvalsh`` decides, but only when a Cholesky factorization of
    -(a + a^T) - (floor + slack) I fails; when it succeeds, ``eigvalsh`` would
    have put the margin above the floor as well. Why, with S the computed
    a + a^T, n its order and u = eps / 2 (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10):
    - a Cholesky factorization of H that runs to completion is exact for some
      H + E with |E| <= gamma_{n+1} |R^T| |R|, so
      ||E||_2 <= gamma_{n+1} trace(H + E), about (n+1) sqrt(n) u ||S||_F
      here; rounding H's diagonal adds u ||S||_F at most. So the smallest
      eigenvalue of -S is at least floor + slack - ||E||_2.
    - ``eigvalsh`` is backward stable: its top eigenvalue of S is off by
      about n u ||S||_2 at most.
    The slack 4 (n+1)^2 eps ||S||_F is 8 (n+1)^2 u ||S||_F, more than twice
    the two errors together. Near the floor the factorization fails and
    ``eigvalsh`` decides as before, so the gate stays exactly where it is.
    """
    sym = a + a.T
    n = sym.shape[0]
    slack = 4.0 * (n + 1) ** 2 * np.finfo(float).eps * np.linalg.norm(sym)
    try:
        np.linalg.cholesky(-sym - (_LAMBDA_FLOOR + slack) * np.eye(n))
        return
    except np.linalg.LinAlgError:
        pass
    margin = _margin(a)
    if margin <= _LAMBDA_FLOOR:
        raise ModelError(
            "TD matrix is not negative definite for this (environment, policy, features) "
            f"triple: margin {margin:.2e} <= {_LAMBDA_FLOOR:.0e}"
        )


def td_errors(env: TabularMomdp, features: FeatureMap, weights: np.ndarray, batch,
              setting: str, mu: np.ndarray):
    """TD errors of all M objectives along one chained batch, weights and
    reward trackers held fixed.

    ``batch`` is the (states, actions, next_states) triple drawn by
    ``MarkovSampler.sample_policy_batch``; ``weights`` has shape (M, d2) and
    ``mu`` holds the M reward trackers, finite. In the average setting each
    sample's error is centred by ``mu``, the sampled twin of
    ``expected_td_errors`` with its tracker held at J; the discounted setting
    does not read ``mu``.

    Returns (delta, rewards): the (M, D) TD errors and the (M, D) rewards.
    """
    check_setting(setting)
    _check_features(env, features)
    weights = check_array("critic weights", weights, (env.n_objectives, features.dim))
    batch = _check_batch(batch)
    mu = check_array("reward trackers", mu, (env.n_objectives,))
    pairs = np.concatenate((batch[0], batch[2]))
    r = _rewards(env, batch, pairs)
    base = r - mu[:, None] if setting == AVERAGE else r
    return _add_values(base, features.values(weights).T, pairs, _discount(env, setting, r.shape[1])), r


def _check_batch(batch) -> tuple:
    """A (states, actions, next_states) batch as three index arrays;
    ParameterError unless it is three integer arrays of one length."""
    try:
        s, a, ns = batch
    except (TypeError, ValueError):   # None, a number, or not three parts
        raise ParameterError("a batch is a (states, actions, next_states) triple") from None
    # written out: a generator over the names costs a third more
    batch = (check_array("batch states", s, (None,), integer=True),
             check_array("batch actions", a, (None,), integer=True),
             check_array("batch next states", ns, (None,), integer=True))
    if not len(batch[0]) == len(batch[1]) == len(batch[2]):
        raise ParameterError("a batch needs states, actions and next states of one "
                             f"length, got {[len(x) for x in batch]}")
    return batch


def _discount(env: TabularMomdp, setting: str, D: int):
    """The discounts of ``_add_values`` on D steps, None in the average
    setting: an F-ordered (M, D) block, the layout of the values it scales,
    which numpy multiplies in half the time of a broadcast (M, 1) column."""
    return None if setting == AVERAGE else np.full((D, env.n_objectives), env.discounts).T


def _rewards(env: TabularMomdp, batch, pairs: np.ndarray) -> np.ndarray:
    """The (M, D) rewards of a batch whose states and next states are
    ``pairs``; ParameterError unless those lie in [0, S) and the actions in
    [0, A), checked with one min and one max of each index array."""
    _, a_arr, _ = batch
    for name, idx, n in (("states", pairs, env.n_states), ("actions", a_arr, env.n_actions)):
        if idx.size and not (idx.min() >= 0 and idx.max() < n):
            raise ParameterError(f"batch {name} must lie in [0, {n}), "
                                 f"got {idx.min()} to {idx.max()}")
    # (M, D) with the objective axis contiguous, the layout env.reward[:, s, a]
    # has: later sums and products over it keep their bits
    return env.reward_rows.take(batch[0] * env.n_actions + a_arr, axis=0).T


def _centred_rewards(r: np.ndarray, mu: np.ndarray, step_size: float):
    """(r_t - mu_{t-1}, trackers after) along the (M, D) rewards ``r`` for
    mu_t = (1 - beta) mu_{t-1} + beta r_t from ``mu``, beta = ``step_size``."""
    # the recursion over Python floats, one objective at a time; the rows are
    # rebuilt C-ordered, the layout the critic's update reads
    keep = 1.0 - float(step_size)
    rows, last = (step_size * r).tolist(), mu.tolist()
    for i, row in enumerate(rows):
        y = last[i]
        for t, c in enumerate(row):
            row[t], y = y, keep * y + c
        last[i] = y
    return r - np.array(rows), np.array(last)


def _add_values(base, state_values, pairs, discount) -> np.ndarray:
    """The weight half of ``td_errors``: ``base`` plus the values of s' less
    those of s. ``pairs`` holds the D states, then the D next states, and one
    gather from the (S, M) ``state_values`` (row s: the M values of state s)
    reads both."""
    v = state_values.take(pairs, axis=0).T      # (M, 2D), F-ordered
    D = base.shape[1]
    v_s, v_n = v[:, :D], v[:, D:]
    if discount is None:  # kept apart: the tracker path groups (r - mu) + (v' - v)
        return base + (v_n - v_s)
    return base + discount * v_n - v_s


def run_critic(
    env: TabularMomdp,
    batch,
    critic: CriticState,
    features: FeatureMap,
    setting: str,
) -> CriticState:
    """Run the inner TD loop on one chained batch and return the updated critic.

    ``batch`` is the (states, actions, next_states) triple of N * D chained
    steps under one policy, N = ``critic.n_iterations`` and
    D = ``critic.batch_size``; inner iteration k takes steps (k-1)D to kD. Each
    iteration evaluates all M TD errors on its D steps with the weights held
    fixed, then applies the averaged semi-gradient update
    w_i += (beta / D) * sum_tau delta_i * phi(s_tau). The weight-free terms are
    computed once per batch: one tracker recursion over N * D steps centres
    each reward by the tracker from before its own update.
    """
    check_setting(setting)
    _check_features(env, features)
    N, D = critic.n_iterations, critic.batch_size
    batch = _check_batch(batch)
    if len(batch[0]) != N * D:
        raise ParameterError(f"the critic takes {N} x {D} steps, got {len(batch[0])}")
    check_array("critic weights", critic.weights, (env.n_objectives, features.dim))
    # slice k's states then next states as row k, one gather per slice
    pairs = np.concatenate((batch[0].reshape(N, D), batch[2].reshape(N, D)), axis=1)
    r = _rewards(env, batch, pairs)
    base, mu = (_centred_rewards(r, critic.avg_reward, critic.step_size) if setting == AVERAGE
                else (r, critic.avg_reward.copy()))
    discount, step = _discount(env, setting, D), critic.step_size / D
    # one (S, M) value buffer for the whole loop, zero past row dim: w is a
    # view of its first dim rows, so the update writes the values the next
    # slice gathers
    values = np.zeros((features.n_states, env.n_objectives))
    w = values[:features.dim].T
    w[...] = critic.weights
    # the update stays a product with the slice's one-hot rows phi(s): BLAS
    # need not add a state's terms in np.bincount's step order, so a bincount
    # update could move the last bit of the weights and, with them, the
    # stream. A slice gathers its own rows; one (N * D, dim) gather for the
    # batch was no faster and left a larger heap
    phi = np.eye(features.n_states, features.dim)
    # the check after each slice reports a NaN or inf, so numpy need not warn
    # of it; one errstate for the loop, not one per slice (about 1 us each)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N):
            # the bits of delta @ phi depend on delta's memory order, which the
            # gather in _add_values sets in the discounted setting: it is
            # F-ordered, and so is each of its (M, D) halves. A C-ordered gather,
            # such as np.take(values, s, axis=1) on (M, S) values, gives equal
            # deltas in another layout, yet moved the final weights in 314 of 400
            # random fishwood runs and 19 of 400 resource_gathering ones at
            # N = 10, D = 50 (none in the average setting, whose delta takes the
            # C order of its centred rewards). A faster gather must keep this
            # layout or announce a stream change.
            lo, p = k * D, pairs[k]
            delta = _add_values(base[:, lo:lo + D], values, p, discount)
            w += step * (delta @ phi.take(p[:D], axis=0))
            if not np.abs(values).max() <= _DIVERGENCE_LIMIT:   # NaN and inf fail too
                raise DivergenceError(f"critic weights diverged at inner critic iteration {k + 1}",
                                      iteration=k + 1)
    if setting == AVERAGE and not np.isfinite(mu).all():   # their last update feeds no slice
        raise DivergenceError(f"critic reward trackers diverged at inner critic iteration {N}",
                              iteration=N)
    return replace(critic, weights=w.copy(), avg_reward=mu)


def compute_td_fixed_point(evaluation: PolicyEvaluation, features: FeatureMap) -> TdFixedPoint:
    """Exact A, b, w* = -A^{-1} b, and the margin/bound constants.

    All expectations are enumerated over (s, a, s') weighted by
    d(s) pi(a|s) P(s'|s, a) with d the stationary distribution. ``A`` is
    oriented so that the mean TD update direction is exactly A w + b, i.e.
    A = E[phi(s) (phi(s') - phi(s))^T] (with the discount inside for the
    discounted setting); w* is then the limit the sampled critic tracks. The
    margin lambda_A and the norm bounds are the same for either orientation of
    the outer product. ModelError if a slice of A has a margin of at most
    1e-10; the margin itself is computed only when ``lambda_A`` is read.
    With one-hot features diag(d) > 0 cancels from A w + b = 0, so w* is
    the value solve ``evaluation.lead_values(d2)``, read after the gate.
    """
    check_types(("evaluation", evaluation, PolicyEvaluation))
    _check_features(evaluation.env, features)
    d, d2 = evaluation.d, features.dim
    # one-hot features: A and b are the leading blocks of D(gamma P - I) and (r - offset) D
    P, eye, d_lead = evaluation.P[:d2, :d2], np.eye(d2), d[:d2, None]
    b = ((evaluation.r - evaluation.offset[:, None]) * d)[:, :d2]
    # objectives with equal discounts (all M in the average setting) share one
    # slice of A and one margin check
    discounts, slice_of = evaluation.discount_groups
    A = d_lead * (discounts[:, None, None] * P - eye)
    for a in A:
        _check_margin(a)
    w_star = evaluation.lead_values(d2).copy()
    # the analysis bounds the centred reward r - J by 2 r_max, twice r itself
    r_bound = (2.0 if evaluation.setting == AVERAGE else 1.0) * evaluation.env.r_max
    c_a = max(float(np.linalg.norm(a, "fro")) for a in A) + 1e-6
    return TdFixedPoint(A=A, slice_of=slice_of, b=b, w_star=w_star, c_a=c_a, r_bound=r_bound)


def theory_critic_step(fixed_point: TdFixedPoint) -> float:
    """Largest step size permitted by the convergence analysis."""
    return min(fixed_point.lambda_A / (8.0 * fixed_point.c_a ** 2),
               4.0 / fixed_point.lambda_A)


def expected_td_errors(evaluation: PolicyEvaluation, features: FeatureMap,
                       w: np.ndarray, objective: int) -> np.ndarray:
    """(S, A) array d(s) pi(a|s) E[delta | s, a] at the weights w of one objective.

    The conditional TD error is enumerated over next states; in the average
    setting the reward tracker is held at its limit, the exact objective value.
    ``w`` is a finite numeric array of shape (features.dim,); any other is a
    ``ParameterError``.
    """
    env = evaluation.env
    _check_features(env, features)
    check_integer("objective", objective, 0)
    if objective >= env.n_objectives:
        raise ParameterError(f"objective {objective} out of range")
    values = features.values(check_array("w", w, (features.dim,)))   # (S,)
    delta_bar = (env.reward[objective] - evaluation.offset[objective]
                 + evaluation.gamma[objective] * env.expected_next(values) - values[:, None])
    return evaluation.d[:, None] * evaluation.probs * delta_bar


def expected_td_update(evaluation: PolicyEvaluation, features: FeatureMap,
                       w: np.ndarray, objective: int) -> np.ndarray:
    """Exact enumeration of E[delta * phi(s)] at the given weights.

    Zero at w = w* by the fixed-point property.
    """
    return expected_td_errors(evaluation, features, w, objective).sum(axis=1)[:features.dim]


def compute_zeta_approx(evaluation: PolicyEvaluation, fixed_point: TdFixedPoint,
                        features: FeatureMap) -> float:
    """Worst-objective stationary-weighted squared gap between the exact value
    function and its fixed-point linear approximation, max_i d (V_i - Phi w_i*)^2.
    The average-setting V is defined up to a constant, so there the gap is
    centred first: zeta is the largest d-weighted variance of V_i - Phi w_i*."""
    _check_features(evaluation.env, features)
    V, _ = evaluation.values
    gaps = V - features.values(fixed_point.w_star)   # (M, S)
    if evaluation.setting == AVERAGE:
        gaps -= (gaps @ evaluation.d)[:, None]
    return float(((gaps ** 2) @ evaluation.d).max())

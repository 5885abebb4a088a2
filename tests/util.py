"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive quantities through different routes
than the library (finite differences, direct enumeration, lattice search) so
every stochastic or optimized code path has a second opinion.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice
from pathlib import Path

import numpy as np

from morlab import (AVERAGE, DataError, LoggedDataset, ModelError, ParameterError, PolicyEvaluation, PolicyParams,
                    TabularMomdp, opeval)
from morlab.critic import CriticState, run_critic
from morlab.experiment import load_metrics_csv
from morlab.momdp import MarkovSampler


def random_momdp(rng: np.random.Generator, n_states: int = 4, n_actions: int = 2,
                 n_objectives: int = 2, discounts=None) -> TabularMomdp:
    """Dense random MOMDP; Dirichlet rows keep every chain irreducible."""
    P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    R = rng.uniform(0.0, 1.0, size=(n_objectives, n_states, n_actions))
    if discounts is None:
        discounts = rng.uniform(0.6, 0.95, size=n_objectives)
    init = rng.dirichlet(np.ones(n_states))
    return TabularMomdp(n_states, n_actions, n_objectives, P, R,
                        np.asarray(discounts, dtype=float), init)


def random_sparse_momdp(rng: np.random.Generator, n_states: int, n_actions: int,
                        n_objectives: int, successors: int = 3) -> TabularMomdp:
    """Random MOMDP with at most ``successors`` + 1 next states per (s, a):
    Dirichlet weights on a random subset, plus the step s -> s + 1 (mod S)
    under every action, which keeps every chain irreducible."""
    S, A = n_states, n_actions
    P = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            cells = rng.choice(S, size=min(successors, S), replace=False)
            P[s, a, cells] = 0.8 * rng.dirichlet(np.ones(cells.size))
            P[s, a, (s + 1) % S] += 0.2
    R = rng.uniform(0.0, 1.0, size=(n_objectives, S, A))
    discounts = rng.uniform(0.6, 0.95, size=n_objectives)
    return TabularMomdp(S, A, n_objectives, P, R, discounts, np.full(S, 1.0 / S))


def random_policy(rng: np.random.Generator, n_states: int, n_actions: int,
                  scale: float = 0.8) -> PolicyParams:
    return PolicyParams(rng.normal(0.0, scale, size=n_states * n_actions), n_states, n_actions)


def dense_policy_batch(sampler: MarkovSampler, action_probs: np.ndarray, n: int):
    """Reference for ``MarkovSampler.sample_policy_batch``: the dense (S, A*S)
    joint cumsum rebuilt on every call, one ``np.searchsorted`` per step.

    Advances ``sampler.rng`` and ``sampler.state`` exactly as the library
    sampler must, so two samplers seeded alike can be compared draw for draw.
    """
    env = sampler.env
    S, A = env.n_states, env.n_actions
    joint = action_probs[:, :, None] * env.transition
    cum = joint.reshape(S, A * S).cumsum(axis=1)
    cum /= cum[:, -1:]
    us = sampler.rng.random(n)
    states = np.empty(n, dtype=np.int64)
    actions = np.empty(n, dtype=np.int64)
    next_states = np.empty(n, dtype=np.int64)
    s = sampler.state
    last = A * S - 1
    for i in range(n):
        j = int(np.searchsorted(cum[s], us[i], side="right"))
        if j > last:
            j = last
        a, ns = divmod(j, S)
        states[i] = s
        actions[i] = a
        next_states[i] = ns
        s = ns
    sampler.state = int(s)
    return states, actions, next_states


def draw(env: TabularMomdp, seed: int, policy: PolicyParams, n: int):
    """n chained (s, a, s') steps under ``policy`` from a fresh sampler."""
    return MarkovSampler(env, seed).sample_policy_batch(policy.probability_matrix(), n)


def critic_error_trace(env: TabularMomdp, batch, critic: CriticState, features, setting: str,
                       w_star: np.ndarray) -> tuple[list[float], CriticState]:
    """sum_i ||w_i - w_i*||^2 after every inner iteration of ``critic`` on
    ``batch``, from one-iteration ``run_critic`` calls on its consecutive
    D-step slices; returns the trace and the final critic."""
    D = critic.batch_size
    step = replace(critic, n_iterations=1)
    trace = []
    for lo in range(0, critic.n_iterations * D, D):
        step = run_critic(env, [x[lo:lo + D] for x in batch], step, features, setting)
        trace.append(float(((step.weights - w_star) ** 2).sum()))
    return trace, step


@dataclass
class Transition:
    """One step drawn by ``sample_step``: rewards carry all M objectives."""

    state: int
    action: int
    rewards: np.ndarray
    next_state: int


def sample_step(sampler: MarkovSampler, action: int) -> Transition:
    """Dense single-step sampler: one uniform against the cumulative row of
    P(. | state, action), the last entry pinned to 1.

    Advances ``sampler.rng`` and ``sampler.state`` like a chained draw with a
    fixed action.
    """
    env = sampler.env
    if not 0 <= action < env.n_actions:
        raise ParameterError(f"action {action} out of range")
    s = sampler.state
    cum = np.cumsum(env.transition[s, action])
    cum[-1] = 1.0
    ns = min(int(np.searchsorted(cum, sampler.rng.random(), side="right")), env.n_states - 1)
    sampler.state = ns
    return Transition(state=s, action=action, rewards=env.reward[:, s, action].copy(), next_state=ns)


def action_probabilities(policy: PolicyParams, state: int) -> np.ndarray:
    """Action distribution of ``policy`` at one state."""
    if not 0 <= state < policy.n_states:
        raise ParameterError(f"state {state} out of range")
    return policy.probability_matrix()[state]


def score_function(policy: PolicyParams, state: int, action: int) -> np.ndarray:
    """Gradient of log pi(action | state) in theta, through ``score_weighted_sum``
    with a one-hot coefficient."""
    coeff = np.zeros((policy.n_states, policy.n_actions))
    coeff[state, action] = 1.0
    return policy.score_weighted_sum(coeff, policy.probability_matrix())


def ncis_score(dataset: LoggedDataset, candidate: PolicyParams, cap: float, objective: int) -> float:
    """Reference for one objective of ``ncis_scores``: sum_k w_k r_k / sum_k w_k
    with w_k = min(cap, pi(a_k | s_k) / pi_beta(a_k | s_k)), one record at a time."""
    probs = candidate.probability_matrix()
    num = den = 0.0
    for s, a, r, pb in zip(dataset.states, dataset.actions, dataset.rewards[:, objective],
                           dataset.behavior_probs):
        w = min(cap, probs[s, a] / pb)
        num += w * r
        den += w
    return num / den


def save_logged_data_reference(dataset: LoggedDataset, path: str):
    """Reference for ``save_logged_data``: one ``json.dumps`` per record,
    numpy scalars converted one at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, a, r, pb in zip(dataset.states, dataset.actions, dataset.rewards, dataset.behavior_probs):
            fh.write(json.dumps({"s": int(s), "a": int(a), "r": r.tolist(), "pb": float(pb)}))
            fh.write("\n")


_NUMBERS = frozenset((int, float))   # JSON numbers; bool and str are not


def load_logged_data_reference(path: str) -> LoggedDataset:
    """Reference for ``load_logged_data``: one ``json.loads`` and one type
    check per line, ``opeval.CHUNK_RECORDS`` lines at a time, each chunk's
    width and range checked before the next is read."""
    chunks, lineno = [], 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lines in iter(lambda: list(islice(fh, opeval.CHUNK_RECORDS)), []):
                states, actions, rewards, probs = [], [], [], []
                for lineno, line in enumerate(lines, start=lineno + 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        doc = json.loads(line)
                        s, a, r, pb = doc["s"], doc["a"], doc["r"], doc["pb"]
                        if not (type(s) is int and type(a) is int and type(pb) in _NUMBERS
                                and type(r) is list and _NUMBERS.issuperset(map(type, r))):
                            raise TypeError("s and a must be integers, pb a number and r a list of numbers")
                    except (KeyError, TypeError, ValueError, RecursionError) as exc:
                        raise DataError(f"bad logged-data record at line {lineno}: {exc}") from exc
                    states.append(s)
                    actions.append(a)
                    rewards.append(r)
                    probs.append(pb)
                if not states:
                    continue
                widths = {len(r) for r in rewards} | {rows.shape[1] for _, _, rows, _ in chunks[:1]}
                if len(widths) != 1:
                    raise DataError("logged-data records disagree on the number of objectives")
                try:
                    chunks.append((np.array(states, dtype=np.int64), np.array(actions, dtype=np.int64),
                                   np.array(rewards, dtype=float), np.array(probs, dtype=float)))
                except OverflowError as exc:   # an integer beyond int64 or float range
                    raise DataError(f"logged-data value out of range: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: logged-data file is not UTF-8 text: {exc}") from exc
    if not chunks:
        raise DataError("logged-data file contains no records")
    return LoggedDataset(*map(np.concatenate, zip(*chunks)))


def two_state_env() -> TabularMomdp:
    """Hand-built 2-state, 2-action, 2-objective fixture used across modules."""
    P = np.array([
        [[0.9, 0.1], [0.3, 0.7]],
        [[0.2, 0.8], [0.6, 0.4]],
    ])
    R = np.array([
        [[1.0, 0.2], [0.0, 0.6]],
        [[0.1, 0.9], [0.7, 0.2]],
    ])
    return TabularMomdp(2, 2, 2, P, R, np.array([0.9, 0.8]), np.array([0.6, 0.4]))


def single_chain_env(P: np.ndarray, rewards=None, discount: float = 0.9) -> TabularMomdp:
    """Wrap a bare (S, S) chain as a 1-action MOMDP."""
    S = P.shape[0]
    R = np.zeros((1, S, 1)) if rewards is None else np.asarray(rewards, dtype=float)
    init = np.full(S, 1.0 / S)
    return TabularMomdp(S, 1, R.shape[0], P[:, None, :], R, np.full(R.shape[0], discount), init)


def compute_exact_objective(env: TabularMomdp, policy, setting: str) -> np.ndarray:
    """(M,) exact objective vector J(theta) in the requested reward setting."""
    return PolicyEvaluation(env, policy, setting).values[1]


def visitation_policy_gradient(evaluation: PolicyEvaluation) -> np.ndarray:
    """Referee for the discounted start-state gradient, shape (M, dim): the
    advantage sum of ``exact_policy_gradient`` with states weighted by the
    discounted visitation measure initial^T (I - gamma P)^{-1} of each
    objective in place of the stationary law (discounted setting only)."""
    env = evaluation.env
    eye = np.eye(env.n_states)
    weights = np.stack([np.linalg.solve((eye - gamma * evaluation.P).T, env.initial_distribution)
                        for gamma in env.discounts])
    coeff = weights[:, :, None] * evaluation.probs * evaluation.advantages
    return evaluation.policy.score_weighted_sum(coeff, evaluation.probs)


def finite_difference_gradient(env: TabularMomdp, theta: np.ndarray, objective: int,
                               setting: str, h: float = 1e-5) -> np.ndarray:
    """Central differences of the exact objective in theta."""
    S, A = env.n_states, env.n_actions
    g = np.zeros_like(theta)
    for j in range(theta.size):
        tp = theta.copy()
        tp[j] += h
        tm = theta.copy()
        tm[j] -= h
        jp = compute_exact_objective(env, PolicyParams(tp, S, A), setting)[objective]
        jm = compute_exact_objective(env, PolicyParams(tm, S, A), setting)[objective]
        g[j] = (jp - jm) / (2.0 * h)
    return g


def duality_gap(gradients, lam: np.ndarray) -> float:
    """Frank-Wolfe certificate max_i(<gbar, gbar> - <gbar, g_i>) at weights lam."""
    W = np.asarray(gradients, dtype=float)
    gbar = lam @ W
    inner = W @ gbar
    return float(gbar @ gbar - inner.min())


def grid_min_norm_1d(g1: np.ndarray, g2: np.ndarray, step: float = 1e-6) -> tuple[float, float]:
    """Brute 1-D scan of ||t g1 + (1-t) g2||^2 over t in [0, 1]."""
    ts = np.arange(0.0, 1.0 + step / 2, step)
    combos = ts[:, None] * g1[None, :] + (1.0 - ts)[:, None] * g2[None, :]
    vals = (combos ** 2).sum(axis=1)
    k = int(np.argmin(vals))
    return float(ts[k]), float(vals[k])


def lattice_min_norm(gram: np.ndarray, step: float = 1e-3) -> float:
    """Exact minimum of lam^T G lam over the simplex lattice with spacing
    ``step`` (M <= 4).

    Outer coordinates are enumerated densely; the innermost pair (x, s - x) is
    a 1-D quadratic in x, whose lattice minimum lies at a segment endpoint or
    at one of the two lattice points bracketing the unconstrained vertex, so it
    is resolved in closed form instead of being enumerated.
    """
    G = np.asarray(gram, dtype=float)
    M = G.shape[0]
    n = int(round(1.0 / step))
    if M == 1:
        return float(G[0, 0])
    lead, budget = _lattice_outer(M, n)
    return float(_lattice_min_tail2(G, lead, budget, n).min())


@lru_cache(maxsize=None)
def _lattice_outer(M: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading lattice counts (as floats) and the counts left for the final
    pair, built once per (M, n) and shared read-only by every call."""
    if M == 2:
        outer = np.zeros((1, 0), dtype=np.int64)
    elif M == 3:
        outer = np.arange(n + 1, dtype=np.int64)[:, None]     # lambda_1 grid
    else:
        counts = np.arange(n + 1, 0, -1)                      # b-range size per a
        a = np.repeat(np.arange(n + 1, dtype=np.int64), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        b = np.arange(counts.sum(), dtype=np.int64) - np.repeat(offsets, counts)
        outer = np.column_stack((a, b))                       # (lambda_1, lambda_2) grid
    lead = outer.astype(float)
    budget = (n - outer.sum(axis=1)).astype(float)
    lead.flags.writeable = False
    budget.flags.writeable = False
    return lead, budget


def _lattice_min_tail2(G: np.ndarray, lead: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Minimum over the last two lattice coordinates given fixed leading ones.

    lead: (K, M-2) grid counts; s: (K,) remaining counts for the final pair
    (x, s - x). Works in counts and rescales by 1/n at the end.
    """
    M = G.shape[0]
    K = lead.shape[0]
    # q(x) = c2 x^2 + c1 x + c0 over x in [0, s], with lam = (lead, x, s - x)
    g_aa = G[M - 2, M - 2]
    g_bb = G[M - 1, M - 1]
    g_ab = G[M - 2, M - 1]
    c2 = g_aa + g_bb - 2.0 * g_ab
    if M > 2:
        lin_a = lead @ G[: M - 2, M - 2]
        lin_b = lead @ G[: M - 2, M - 1]
        quad_lead = ((lead @ G[: M - 2, : M - 2]) * lead).sum(axis=1)
    else:
        lin_a = lin_b = quad_lead = np.zeros(K)
    c1 = 2.0 * (lin_a - lin_b) + 2.0 * s * (g_ab - g_bb)
    c0 = quad_lead + 2.0 * s * lin_b + s * s * g_bb

    candidates = [np.zeros(K), s]
    if c2 > 0:
        vertex = -c1 / (2.0 * c2)
        lo = np.clip(np.floor(vertex), 0.0, None)
        for cand in (lo, lo + 1.0):
            candidates.append(np.clip(cand, 0.0, s))
    best = np.full(K, np.inf)
    for x in candidates:
        val = (c2 * x + c1) * x + c0
        best = np.minimum(best, val)
    return best / float(n * n)


def reward_tracker_path(rewards: np.ndarray, mu0: np.ndarray, step_size: float):
    """Reference for the critic's average-setting reward trackers: the
    recursion mu_t = (1-beta) mu_{t-1} + beta r_t along a batch, one sample
    at a time.

    rewards: (M, D); mu0: (M,). Returns the (M, D) trackers each sample is
    centred by, those from before its own update (mu0 first), and the (M,)
    trackers after the batch.
    """
    beta = step_size
    mu = np.array(mu0, dtype=float)
    path = np.empty(rewards.shape)
    for t in range(rewards.shape[1]):
        path[:, t] = mu
        mu = (1.0 - beta) * mu + beta * rewards[:, t]
    return path, mu


def tracker_filter_reference(rewards: np.ndarray, mu0: np.ndarray, step_size: float):
    """Referee for the critic's average-setting reward trackers: scipy's
    one-tap IIR filter y_t = beta r_t + (1 - beta) y_{t-1}, started at
    y_{-1} = mu0, along each row of the (M, D) ``rewards``.

    Returns the (M, D) trackers each sample is centred by, the filter's path
    shifted by one (y_{t-1}, mu0 first), and the (M,) trackers after the
    batch (``mu0`` itself for a zero-step batch, where ``lfilter`` leaves
    its final state unset).
    """
    from scipy.signal import lfilter
    mu0 = np.asarray(mu0, dtype=float)
    if rewards.shape[1] == 0:
        return np.empty(rewards.shape), mu0.copy()
    keep = 1.0 - step_size
    path, _ = lfilter([step_size], [1.0, -keep], rewards, axis=1, zi=(keep * mu0)[:, None])
    return np.concatenate((mu0[:, None], path[:, :-1]), axis=1), path[:, -1].copy()


def td_fixed_point_reference(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference for ``w_star`` of ``compute_td_fixed_point``: one dense solve
    plus one refinement solve per objective, each slice of A on its own.

    A: (M, d2, d2); b: (M, d2). Returns the (M, d2) solutions of A_i w + b_i = 0.
    """
    w_star = np.empty(b.shape)
    for i in range(b.shape[0]):
        w = np.linalg.solve(A[i], -b[i])
        w -= np.linalg.solve(A[i], A[i] @ w + b[i])
        w_star[i] = w
    return w_star


def policy_kernel_reference(env: TabularMomdp, probs: np.ndarray, sequential: bool = False) -> np.ndarray:
    """Reference for ``PolicyEvaluation.P``: the (S, S) sums
    sum_a pi(a|s) P(s'|s, a) over the dense (S, A, S) transition tensor, as
    one ``einsum`` or, with ``sequential``, one action a at a time in
    increasing order from +0.0."""
    if not sequential:
        return np.einsum("sa,sax->sx", probs, env.transition)
    P = np.zeros((env.n_states, env.n_states))
    for a in range(env.n_actions):
        P += probs[:, a, None] * env.transition[:, a]
    return P


def next_values_reference(env: TabularMomdp, V: np.ndarray, sequential: bool = False) -> np.ndarray:
    """Reference for ``TabularMomdp.expected_next`` of (M, S) values: the
    (M, S, A) sums P V over the dense (S, A, S) transition tensor, as one
    ``einsum`` or, with ``sequential``, one next state s' at a time in
    increasing order from +0.0."""
    if not sequential:
        return np.einsum("sax,mx->msa", env.transition, V)
    PV = np.zeros((V.shape[0], env.n_states, env.n_actions))
    for x in range(env.n_states):
        PV += env.transition[:, :, x] * V[:, x, None, None]
    return PV


def advantages_reference(evaluation: PolicyEvaluation, sequential: bool = False) -> np.ndarray:
    """Reference for ``PolicyEvaluation.advantages``: Q - V with the
    next-state expectation P V from ``next_values_reference``."""
    env = evaluation.env
    V, _ = evaluation.values
    PV = next_values_reference(env, V, sequential)
    Q = env.reward - evaluation.offset[:, None, None] + evaluation.gamma[:, None, None] * PV
    return Q - V[:, :, None]


def expected_td_errors_reference(evaluation: PolicyEvaluation, features, w: np.ndarray,
                                 objective: int) -> np.ndarray:
    """Reference for ``critic.expected_td_errors``: the next-state expectation
    of the values as one dense ``einsum`` over the transition tensor."""
    env = evaluation.env
    values = features.values(w)
    next_values = np.einsum("sax,x->sa", env.transition, values)
    delta_bar = (env.reward[objective] - evaluation.offset[objective]
                 + evaluation.gamma[objective] * next_values - values[:, None])
    return evaluation.d[:, None] * evaluation.probs * delta_bar


def eigvalsh_margin(a: np.ndarray) -> float:
    """Reference for the negative-definiteness gate of one TD slice ``a``: the
    margin -lambda_max(a + a^T) from a full ``eigvalsh``; ``ModelError`` with
    the library's message when it is at most 1e-10."""
    margin = -np.linalg.eigvalsh(a + a.T)[-1]
    if margin <= 1e-10:
        raise ModelError(
            "TD matrix is not negative definite for this (environment, policy, features) "
            f"triple: margin {margin:.2e} <= 1e-10"
        )
    return margin


def td_margin_reference(evaluation: PolicyEvaluation, features) -> float:
    """Reference for the gate of ``compute_td_fixed_point`` and for its
    ``lambda_A``: ``eigvalsh_margin`` of the TD slice of each distinct
    discount, in ascending order, eagerly; the smallest margin is returned."""
    d2 = features.dim
    P, d_lead = evaluation.P[:d2, :d2], evaluation.d[:d2, None]
    return min(eigvalsh_margin(d_lead * (g * P - np.eye(d2))) for g in np.unique(evaluation.gamma))


def permute_momdp(env: TabularMomdp, perm: np.ndarray) -> TabularMomdp:
    """Relabel states by perm (new index = perm[old index])."""
    S = env.n_states
    inv = np.empty(S, dtype=np.int64)
    inv[perm] = np.arange(S)
    P = env.transition[inv][:, :, inv]
    R = env.reward[:, inv, :]
    init = env.initial_distribution[inv]
    return TabularMomdp(S, env.n_actions, env.n_objectives, P, R, env.discounts.copy(), init)


def permute_tabular_policy(policy: PolicyParams, perm: np.ndarray) -> PolicyParams:
    inv = np.empty(policy.n_states, dtype=np.int64)
    inv[perm] = np.arange(policy.n_states)
    theta = policy.theta.reshape(policy.n_states, policy.n_actions)[inv].ravel()
    return PolicyParams(theta, policy.n_states, policy.n_actions)


def feature_matrix(features) -> np.ndarray:
    """The dense (S, dim) matrix of a one-hot ``FeatureMap``: row s is phi(s)."""
    return np.eye(features.n_states, features.dim)


def run_critic_reference(env: TabularMomdp, batch, critic: CriticState, features,
                         setting: str) -> CriticState:
    """Reference for ``run_critic``: N inner iterations, each computing its
    D-step TD errors from scratch (reward gather, state values as products
    with the dense feature rows, one tracker ``lfilter`` started at the
    trackers the previous slice left) before the semi-gradient update.
    Returns the updated critic."""
    N, D, beta = critic.n_iterations, critic.batch_size, critic.step_size
    phi = feature_matrix(features)
    w = critic.weights.copy()
    mu = critic.avg_reward.copy()
    for s, a, ns in zip(*(x.reshape(N, D) for x in batch)):
        r = env.reward[:, s, a]
        v_s = phi[s] @ w.T
        v_n = phi[ns] @ w.T
        if setting == AVERAGE:
            path, mu = tracker_filter_reference(r, mu, beta)
            delta = r - path + (v_n - v_s).T
        else:
            delta = r + env.discounts[:, None] * v_n.T - v_s.T
        w = w + (beta / D) * (delta @ phi[s])
    return replace(critic, weights=w, avg_reward=mu)


def objective_gradients_reference(env: TabularMomdp, policy: PolicyParams, weights: np.ndarray,
                                  batch, setting: str, features, mu: np.ndarray):
    """Reference for ``estimate_objective_gradients``: the TD errors of
    ``td_errors`` at the trackers ``mu`` folded into (objective, state,
    action) buckets with ``np.add.at``, one sample at a time in step order."""
    from morlab.critic import td_errors
    M = env.n_objectives
    delta, r = td_errors(env, features, weights, batch, setting, mu)
    s, a, _ = batch
    buckets = np.zeros((M, env.n_states, env.n_actions))
    np.add.at(buckets, (slice(None), s, a), delta)
    return policy.score_weighted_sum(buckets / len(s), policy.probability_matrix()), r.mean(axis=1)


def min_norm_reference(gradients) -> tuple[np.ndarray, float]:
    """Reference for ``solve_min_norm`` at M = 1 and M >= 3: the face KKT
    systems built from scratch on every call, solved in one batched LU (one
    ``lstsq`` per face when any face is singular), the feasible candidate of
    smallest duality gap kept. Returns (lam, min_norm_sq); no certificate."""
    W = np.asarray(gradients, dtype=float)
    M = W.shape[0]
    G = W @ W.T
    G = 0.5 * (G + G.T)
    top = float(np.diag(G).max())
    Gs = np.ldexp(G, -np.frexp(top)[1])
    faces = (np.arange(1, 2 ** M)[:, None] >> np.arange(M)) & 1 == 1
    K = np.zeros((faces.shape[0], M + 1, M + 1))
    K[:, :M, :M] = Gs * (faces[:, :, None] & faces[:, None, :])
    K[:, np.arange(M), np.arange(M)] += ~faces
    K[:, :M, M] = K[:, M, :M] = faces
    rhs = np.eye(M + 1)[M:].T
    try:
        lam = np.linalg.solve(K, rhs)[:, :M, 0]
    except np.linalg.LinAlgError:
        lam = np.stack([np.linalg.lstsq(k, rhs, rcond=None)[0][:M, 0] for k in K])
    feasible = (lam >= -1e-12).all(axis=1) & (np.abs(lam.sum(axis=1) - 1.0) <= 1e-9)
    lam = np.clip(lam[feasible], 0.0, None)
    lam /= lam.sum(axis=1, keepdims=True)
    grads = lam @ Gs
    lam = lam[int(np.argmin(np.einsum("fi,fi->f", lam, grads) - grads.min(axis=1)))]
    return lam, max(float(lam @ (G @ lam)), 0.0)


def summary_stats_reference(run_dir, seeds) -> dict:
    """The ``stats`` block of ``summarize`` from one nan-aware mean, median and
    percentile per column, over the seed CSVs of ``seeds`` in ``run_dir``. It
    drops the NaN of a seed that did not log a lane, so on a partly logged
    lane it gives a statistic over the seeds that did."""
    tables = [load_metrics_csv(Path(run_dir) / f"seed_{seed}.csv") for seed in seeds]
    header = tables[0][0]
    stack = np.stack([data for _, data in tables])
    stats = {}
    for j, col in enumerate(header):
        if col == "t":
            continue
        block = stack[:, :, j]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # all-NaN lanes
            lanes = {"mean": np.nanmean(block, axis=0), "median": np.nanmedian(block, axis=0),
                     "iqr": np.nanpercentile(block, 75, axis=0) - np.nanpercentile(block, 25, axis=0)}
        stats[col] = {name: [None if np.isnan(x) else float(x) for x in values]
                      for name, values in lanes.items()}
    return stats

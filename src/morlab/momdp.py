"""Tabular multi-objective MDPs: the model container, two benchmark environment
builders, Markovian sampling, and exact chain quantities (stationary
distribution, value functions, objectives)."""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ModelError, ParameterError

AVERAGE = "average"
DISCOUNTED = "discounted"
SETTINGS = (AVERAGE, DISCOUNTED)

_ROW_SUM_TOL = 1e-12


def check_setting(setting: str) -> str:
    if setting not in SETTINGS:
        raise ParameterError(f"unknown reward setting {setting!r}; expected one of {SETTINGS}")
    return setting


@dataclass
class TabularMomdp:
    """Finite MDP with an M-dimensional reward.

    Immutable after construction; rewards are deterministic per (state, action),
    so any per-step stochastic reward has to be folded into the state encoding
    (see :func:`build_fishwood`).
    """

    n_states: int
    n_actions: int
    n_objectives: int
    transition: np.ndarray            # (S, A, S), each row a distribution over next states
    reward: np.ndarray                # (M, S, A), values in [0, r_max]
    discounts: np.ndarray             # (M,), per-objective discount in (0, 1)
    initial_distribution: np.ndarray  # (S,)
    r_max: float = 1.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.reward = np.asarray(self.reward, dtype=float)
        self.discounts = np.asarray(self.discounts, dtype=float)
        self.initial_distribution = np.asarray(self.initial_distribution, dtype=float)
        self.validate()

    def validate(self):
        S, A, M = self.n_states, self.n_actions, self.n_objectives
        if min(S, A, M) < 1:
            raise ParameterError("n_states, n_actions, n_objectives must be positive")
        if self.transition.shape != (S, A, S):
            raise ParameterError(f"transition tensor must have shape {(S, A, S)}")
        if self.reward.shape != (M, S, A):
            raise ParameterError(f"reward tensor must have shape {(M, S, A)}")
        if self.discounts.shape != (M,):
            raise ParameterError(f"discounts must have shape {(M,)}")
        if self.initial_distribution.shape != (S,):
            raise ParameterError(f"initial_distribution must have shape {(S,)}")
        for name in ("transition", "reward", "discounts", "initial_distribution"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ParameterError(f"{name} entries must be finite")
        if np.any(self.transition < 0):
            raise ParameterError("transition entries must be non-negative")
        row_sums = self.transition.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > _ROW_SUM_TOL:
            raise ParameterError("every transition row must sum to 1 within 1e-12")
        if abs(self.initial_distribution.sum() - 1.0) > _ROW_SUM_TOL or np.any(self.initial_distribution < 0):
            raise ParameterError("initial_distribution must be a probability vector")
        if not self.r_max > 0:
            raise ParameterError("r_max must be positive")
        if np.any(self.reward < 0) or np.any(self.reward > self.r_max):
            raise ParameterError("rewards must lie in [0, r_max]")
        if np.any(self.discounts <= 0) or np.any(self.discounts >= 1):
            raise ParameterError("each discount must lie in (0, 1)")

    @cached_property
    def transition_support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Non-zero pattern of ``transition``, cached for sparse sampling.

        Returns (actions, next_states, real), each of shape (S, K) with K the
        most non-zero (a, s') cells of any state. Row s lists its cells in
        row-major (a, s') order and ``real`` marks them; the padding on the
        right points at cell (0, 0).
        """
        S = self.n_states
        nonzero = self.transition.reshape(S, -1) != 0
        counts = nonzero.sum(axis=1)
        real = np.arange(counts.max()) < counts[:, None]
        cells = np.zeros(real.shape, dtype=np.int64)
        cells[real] = np.flatnonzero(nonzero) % nonzero.shape[1]
        actions, next_states = np.divmod(cells, S)
        return actions, next_states, real

    def to_json_dict(self) -> dict:
        return {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            "n_objectives": self.n_objectives,
            "transition": self.transition.tolist(),
            "reward": self.reward.tolist(),
            "discounts": self.discounts.tolist(),
            "initial_distribution": self.initial_distribution.tolist(),
            "r_max": self.r_max,
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TabularMomdp":
        try:
            fields = dict(
                n_states=int(doc["n_states"]),
                n_actions=int(doc["n_actions"]),
                n_objectives=int(doc["n_objectives"]),
                transition=np.asarray(doc["transition"], dtype=float),
                reward=np.asarray(doc["reward"], dtype=float),
                discounts=np.asarray(doc["discounts"], dtype=float),
                initial_distribution=np.asarray(doc["initial_distribution"], dtype=float),
                r_max=float(doc.get("r_max", 1.0)),
                metadata=dict(doc.get("metadata", {})),
            )
        except KeyError as exc:
            raise ParameterError(f"environment document lacks key {exc.args[0]!r}") from exc
        return cls(**fields)


def save_env_json(env: TabularMomdp, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env.to_json_dict(), fh)


def load_env_json(path: str) -> TabularMomdp:
    with open(path, "r", encoding="utf-8") as fh:
        return TabularMomdp.from_json_dict(json.load(fh))


class MarkovSampler:
    """Stateful sampler owning its RNG.

    Successive calls continue a single unbroken chain, so alternating callers
    (critic inner loop, actor batch) hand the walk back and forth through the
    shared ``state``. Set ``trace`` to a list to record every (s, a, s') drawn.
    """

    def __init__(self, env: TabularMomdp, seed: int, initial_state: int | None = None):
        self.env = env
        self.rng = np.random.default_rng(seed)
        if initial_state is None:
            initial_state = int(self.rng.choice(env.n_states, p=env.initial_distribution))
        if not 0 <= initial_state < env.n_states:
            raise ParameterError(f"initial_state {initial_state} out of range")
        self.state = int(initial_state)
        self.trace: list | None = None
        self._table_key: bytes | None = None
        self._table: tuple[list, list, list] | None = None

    def sample_policy_batch(self, action_probs: np.ndarray, n: int):
        """Draw n chained (s, a, s') steps under the (S, A) policy matrix.

        Uses one uniform per step against the joint (action, next-state) law of
        the current state; returns index arrays so batch arithmetic stays
        vectorized downstream. The law's cumulative table is built once per
        probability matrix and cached on its bytes, so the repeated batches of
        one policy share it and any new or modified matrix rebuilds it.
        """
        probs = np.asarray(action_probs, dtype=float)
        shape = (self.env.n_states, self.env.n_actions)
        if probs.shape != shape:
            raise ParameterError(f"action probabilities must have shape {shape}, got {probs.shape}")
        key = probs.tobytes()
        if key != self._table_key:
            self._table = self._policy_table(probs)
            self._table_key = key
        cum_rows, action_rows, next_rows = self._table
        states, actions, next_states = [], [], []
        s = self.state
        for u in self.rng.random(n).tolist():
            k = bisect_right(cum_rows[s], u)
            states.append(s)
            actions.append(action_rows[s][k])
            s = next_rows[s][k]
            next_states.append(s)
        if self.trace is not None:
            self.trace.extend(zip(states, actions, next_states))
        self.state = s
        return (np.array(states, dtype=np.int64), np.array(actions, dtype=np.int64),
                np.array(next_states, dtype=np.int64))

    def _policy_table(self, probs: np.ndarray) -> tuple[list, list, list]:
        """Per-state cumulative joint law over the non-zero transition cells.

        The row-wise sequential cumsum leaves out only cells whose transition
        probability, and so whose joint probability, is exactly 0.0. Adding
        0.0 leaves a float sum unchanged, so each entry equals the dense
        (S, A*S) cumsum at its cell, and a right bisection picks the same cell
        as ``np.searchsorted(..., side="right")`` over the dense row would.
        The last real entry of each row is exactly 1.0 and every uniform is
        below it, so the padding is never drawn.
        """
        env = self.env
        if not np.all((probs >= 0) & (probs <= 1)):
            raise ParameterError("action probabilities must lie in [0, 1]")
        actions, next_states, real = env.transition_support
        rows = np.arange(env.n_states)[:, None]
        joint = np.where(real, probs[rows, actions] * env.transition[rows, actions, next_states], 0.0)
        cum = joint.cumsum(axis=1)
        if not np.all(cum[:, -1] > 0):
            raise ParameterError("every state needs an action of positive probability")
        cum /= cum[:, -1:]
        return cum.tolist(), actions.tolist(), next_states.tolist()


# ---------------------------------------------------------------------------
# Benchmark environments
# ---------------------------------------------------------------------------

_FW_FISH, _FW_WOOD = 0, 1


def build_fishwood(fish_proba: float, wood_proba: float, discount=0.9) -> TabularMomdp:
    """Two-location gathering task with conflicting wood and fish objectives.

    The underlying task has two locations (fishing spot, woods) and two actions
    that deterministically choose the next location; standing in the woods
    yields +1 wood with probability ``wood_proba`` and fishing yields +1 fish
    with probability ``fish_proba``. The Bernoulli outcome is folded into the
    state so rewards stay deterministic per (state, action): state = (location,
    produced flag), 4 states total. Objective 0 is wood, objective 1 is fish.
    The episode cap of the original task is dropped; the chain is continuing.

    ``discount`` may be a scalar or a per-objective pair. With equal discounts
    the two objectives obey an exact conservation law (the location marginal
    splits the time budget), so their gradients are antiparallel at every
    policy; distinct discounts break that degeneracy.
    """
    for name, p in (("fish_proba", fish_proba), ("wood_proba", wood_proba)):
        if not 0.0 < p < 1.0:
            raise ParameterError(f"{name} must lie strictly inside (0, 1), got {p}")
    produce = {_FW_FISH: fish_proba, _FW_WOOD: wood_proba}
    S, A, M = 4, 2, 2
    discounts = np.broadcast_to(np.asarray(discount, dtype=float), (M,)).copy()

    def idx(loc, produced):
        return loc * 2 + produced

    P = np.zeros((S, A, S))
    for loc in (_FW_FISH, _FW_WOOD):
        for produced in (0, 1):
            s = idx(loc, produced)
            for a in (_FW_FISH, _FW_WOOD):
                P[s, a, idx(a, 1)] = produce[a]
                P[s, a, idx(a, 0)] = 1.0 - produce[a]

    R = np.zeros((M, S, A))
    R[0, idx(_FW_WOOD, 1), :] = 1.0   # wood delivered this step
    R[1, idx(_FW_FISH, 1), :] = 1.0   # fish caught this step

    init = np.zeros(S)
    init[idx(_FW_WOOD, 1)] = wood_proba
    init[idx(_FW_WOOD, 0)] = 1.0 - wood_proba

    return TabularMomdp(
        n_states=S, n_actions=A, n_objectives=M,
        transition=P, reward=R,
        discounts=discounts,
        initial_distribution=init,
        r_max=1.0,
        metadata={
            "kind": "fishwood",
            "fish_proba": fish_proba,
            "wood_proba": wood_proba,
            "states": "(location, produced): 0=(fish,0) 1=(fish,1) 2=(wood,0) 3=(wood,1)",
            "actions": "0=go fishing, 1=go collect wood",
            "objectives": ["wood", "fish"],
        },
    )


_RG_HOME = (4, 2)
_RG_GOLD = (0, 2)
_RG_DIAMOND = (1, 4)
_RG_ENEMIES = ((0, 3), (1, 2))
_RG_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right


def build_resource_gathering(discount: float = 0.9, attack_prob: float = 0.1) -> TabularMomdp:
    """5x5 grid gathering task with enemy, gold, and diamond objectives.

    State is (row, col, gold flag, diamond flag); 4 move actions clipped at the
    grid border. Arriving on an enemy cell triggers an attack with probability
    ``attack_prob``: the agent resets home with flags cleared. Delivering
    resources (arriving home with a flag set) pays the flagged objectives and
    also resets flags, which converts the original terminal events into reset
    transitions of a continuing chain.

    Objective 0 is enemy survival: the original {-1 killed, 0 otherwise} signal
    is shifted by +1 into {0, 1} to keep rewards non-negative; because the
    attack outcome is random, the per-(state, action) reward stores its
    expectation, 1 - attack_prob on moves that enter an enemy cell and 1
    elsewhere. Objectives 1 and 2 pay +1 for gold and diamond delivery.

    The state set is restricted to states reachable from the start, which makes
    the uniform-policy chain irreducible (flag combinations such as "at home
    carrying gold" can never occur and are dropped).
    """
    if not 0.0 < attack_prob < 1.0:
        raise ParameterError("attack_prob must lie strictly inside (0, 1)")
    home_cleared = (*_RG_HOME, 0, 0)

    def step_outcomes(state, action):
        r, c, g, d = state
        dr, dc = _RG_MOVES[action]
        nr = min(max(r + dr, 0), 4)
        nc = min(max(c + dc, 0), 4)
        if (nr, nc) in _RG_ENEMIES:
            return [(1.0 - attack_prob, (nr, nc, g, d)), (attack_prob, home_cleared)]
        if (nr, nc) == _RG_GOLD:
            return [(1.0, (nr, nc, 1, d))]
        if (nr, nc) == _RG_DIAMOND:
            return [(1.0, (nr, nc, g, 1))]
        if (nr, nc) == _RG_HOME and (g or d):
            return [(1.0, home_cleared)]
        return [(1.0, (nr, nc, g, d))]

    # breadth-first discovery fixes a deterministic state indexing
    index = {home_cleared: 0}
    order = [home_cleared]
    head = 0
    while head < len(order):
        state = order[head]
        head += 1
        for a in range(4):
            for _, nxt in step_outcomes(state, a):
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)

    S, A, M = len(order), 4, 3
    P = np.zeros((S, A, S))
    R = np.zeros((M, S, A))
    for state, s in index.items():
        g, d = state[2], state[3]
        for a in range(4):
            outcomes = step_outcomes(state, a)
            for prob, nxt in outcomes:
                P[s, a, index[nxt]] += prob
            enters_enemy = any(nxt[:2] in _RG_ENEMIES for _, nxt in outcomes)
            R[0, s, a] = 1.0 - attack_prob if enters_enemy else 1.0
            arrives_home = outcomes[0][1][:2] == _RG_HOME and not enters_enemy
            if arrives_home:
                R[1, s, a] = float(g)
                R[2, s, a] = float(d)

    init = np.zeros(S)
    init[0] = 1.0
    return TabularMomdp(
        n_states=S, n_actions=A, n_objectives=M,
        transition=P, reward=R,
        discounts=np.full(M, discount),
        initial_distribution=init,
        r_max=1.0,
        metadata={
            "kind": "resource_gathering",
            "grid": 5,
            "home": list(_RG_HOME),
            "gold": list(_RG_GOLD),
            "diamond": list(_RG_DIAMOND),
            "enemies": [list(e) for e in _RG_ENEMIES],
            "attack_prob": attack_prob,
            "objectives": ["enemy_survival", "gold_delivery", "diamond_delivery"],
            "reward_shift": "survival objective shifted from {-1 killed, 0 else} to {0, 1}; "
                            "per-(s,a) value stores the expectation over the attack outcome",
            "states": [list(s) for s in order],
        },
    )


# ---------------------------------------------------------------------------
# Exact chain quantities
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _component_count(shape: tuple[int, int], pattern: bytes) -> int:
    """Strong components of the graph with boolean adjacency ``pattern`` of ``shape``."""
    adjacency = np.frombuffer(pattern, dtype=bool).reshape(shape)
    return connected_components(csr_matrix(adjacency), directed=True, connection="strong")[0]


def _check_irreducible(P: np.ndarray):
    # a softmax policy never changes the non-zero pattern of P_pi, so the
    # graph search runs once per pattern
    n_comp = _component_count(P.shape, (P > 0).tobytes())
    if n_comp != 1:
        raise ModelError(
            f"induced chain is reducible ({n_comp} strongly connected components); "
            "no unique stationary distribution"
        )


def compute_stationary_distribution(P: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Stationary distribution of the (S, S) kernel P, d^T P = d^T, sum(d) = 1.

    One direct solve of the balance equations (the last replaced by
    sum(d) = 1), clipped at 0, normalised and polished by 8 exact power
    steps. ModelError if the pattern of P is reducible, if the solve finds
    the equations singular (a chain reducible in floating point) or if the
    residual max|d P - d| is not within ``tol``.
    """
    _check_irreducible(P)
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        d = np.clip(np.linalg.solve(A, rhs), 0.0, None)
    except np.linalg.LinAlgError as exc:
        raise ModelError("balance equations of the induced chain are singular: "
                         "numerically reducible, no unique stationary distribution") from exc
    d /= d.sum()
    for _ in range(8):  # power polish: contracts solve error for aperiodic chains
        d = d @ P
        d /= d.sum()
    residual = float(np.max(np.abs(d @ P - d)))
    if not residual <= tol:
        raise ModelError(f"stationary solve missed its residual ({residual:.2e} > {tol:.0e})")
    return d


class PolicyEvaluation:
    """Exact chain quantities of one policy in one reward setting.

    The action probabilities ``probs`` (S, A), the state kernel ``P``
    (P_pi(s'|s) = sum_a pi(a|s) P(s'|s,a)) and the expected one-step reward
    ``r`` (M, S) are built on construction. The stationary distribution ``d``,
    the value functions ``values`` and the ``advantages`` are solved once, on
    first use, so a quantity no caller asks for is never solved (a discounted
    objective, for instance, never needs ``d``).

    The setting enters Q = r - offset + gamma P V as data: ``gamma`` (M,) is
    the discounts (ones if average), ``offset`` (M,) is 0 (J if average).
    """

    def __init__(self, env: TabularMomdp, policy, setting: str):
        self.env = env
        self.policy = policy
        self.setting = check_setting(setting)
        self.gamma = env.discounts if setting == DISCOUNTED else np.ones(env.n_objectives)
        self.probs = policy.probability_matrix()
        if self.probs.shape != (env.n_states, env.n_actions):
            raise ParameterError("policy dimensions do not match the environment")
        self.P = np.einsum("sa,sax->sx", self.probs, env.transition)
        self.r = np.einsum("sa,msa->ms", self.probs, env.reward)

    @cached_property
    def d(self) -> np.ndarray:
        """(S,) stationary distribution of ``P``; ModelError if reducible."""
        return compute_stationary_distribution(self.P)

    @cached_property
    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-objective (V, J): V has shape (M, S), J shape (M,).

        Discounted: V solves (I - gamma_i P_pi) V = r_pi exactly and
        J = <initial_distribution, V>. Average: V is the differential value
        from the Poisson equation, pinned by sum_s d(s) V(s) = 0, and J is the
        stationary per-step reward.
        """
        env, P, r = self.env, self.P, self.r
        S, M = env.n_states, env.n_objectives
        if self.setting == DISCOUNTED:  # I - gamma P is singular at gamma = 1: Poisson solve
            V = np.empty((M, S))
            for i in range(M):
                V[i] = np.linalg.solve(np.eye(S) - env.discounts[i] * P, r[i])
            return V, V @ env.initial_distribution
        d = self.d
        J = r @ d
        # (I - P + 1 d^T) is invertible for irreducible chains and its solution
        # already satisfies the d-weighted pinning
        A = np.eye(S) - P + np.outer(np.ones(S), d)
        V = np.linalg.solve(A, (r - J[:, None]).T).T
        V -= (V @ d)[:, None]
        return V, J

    @cached_property
    def offset(self) -> np.ndarray:
        """(M,) reward offset: zeros when discounted, J in the average setting."""
        return np.zeros(self.env.n_objectives) if self.setting == DISCOUNTED else self.values[1]

    @cached_property
    def advantages(self) -> np.ndarray:
        """(M, S, A) exact advantages Q(s, a) - V(s)."""
        env = self.env
        V, _ = self.values
        PV = np.einsum("sax,mx->msa", env.transition, V)
        Q = env.reward - self.offset[:, None, None] + self.gamma[:, None, None] * PV
        return Q - V[:, :, None]


def value_functions(env: TabularMomdp, policy, setting: str):
    """Exact per-objective (V, J); see :attr:`PolicyEvaluation.values`."""
    return PolicyEvaluation(env, policy, setting).values


def compute_exact_objective(env: TabularMomdp, policy, setting: str) -> np.ndarray:
    """(M,) exact objective vector J(theta) in the requested reward setting."""
    return PolicyEvaluation(env, policy, setting).values[1]

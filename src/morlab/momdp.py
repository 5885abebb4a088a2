"""Tabular multi-objective MDPs: the model container, two benchmark environment
builders, Markovian sampling, and exact chain quantities (stationary
distribution, value functions, objectives)."""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cached_property, lru_cache

import numpy as np

from .errors import ModelError, ParameterError, check_array, check_distribution, check_float, check_integer, check_types

AVERAGE = "average"
DISCOUNTED = "discounted"
SETTINGS = (AVERAGE, DISCOUNTED)

_STATIONARY_TOL = 1e-10   # bound on the residual max|d P - d| of a stationary solve
_POISSON_TOL = 1e-12      # relative Poisson residual above which pinned values are re-solved


def check_setting(setting: str) -> str:
    if setting not in SETTINGS:
        raise ParameterError(f"unknown reward setting {setting!r}; expected one of {SETTINGS}")
    return setting


class TabularMomdp:
    """Finite MDP with an M-dimensional reward.

    The law is held once, as the padded ``transition_rows``: the constructor
    validates the dense ``transition`` (S, A, S) and keeps only its rows.
    ``reward`` (M, S, A) in [0, r_max], ``discounts`` (M,) in (0, 1) and
    ``initial_distribution`` (S,) are private copies. Every array is
    read-only, so an in-place edit raises ``ValueError``; pickle and copies
    rebuild the model through the constructor. Rewards are deterministic per
    (state, action), so any per-step stochastic reward has to be folded into
    the state encoding (see :func:`build_fishwood`).
    """

    def __init__(self, n_states: int, n_actions: int, n_objectives: int, transition: np.ndarray,
                 reward: np.ndarray, discounts: np.ndarray, initial_distribution: np.ndarray,
                 r_max: float = 1.0, metadata: dict | None = None):
        for name, count in (("n_states", n_states), ("n_actions", n_actions),
                            ("n_objectives", n_objectives)):
            check_integer(name, count, 1)
        check_float("r_max", r_max, 0, np.inf)
        if metadata is not None:
            check_types(("metadata", metadata, dict))
        self.n_states, self.n_actions, self.n_objectives = S, A, M = n_states, n_actions, n_objectives
        self.r_max, self.metadata = r_max, {} if metadata is None else dict(metadata)
        # the transition is validated, read into rows and dropped; the rest are private copies
        self.transition_rows = _padded_rows(check_distribution("transition", transition, (S, A, S)))
        self.reward = _read_only(check_array("reward", reward, (M, S, A), within=(0, r_max, "[]")).copy())
        self.discounts = _read_only(check_array("discounts", discounts, (M,), within=(0, 1, "()")).copy())
        self.initial_distribution = _read_only(
            check_distribution("initial_distribution", initial_distribution, (S,)).copy())

    def __reduce__(self):
        return type(self), (self.n_states, self.n_actions, self.n_objectives, self.transition, self.reward,
                            self.discounts, self.initial_distribution, self.r_max, self.metadata)

    @property
    def transition(self) -> np.ndarray:
        """The dense (S, A, S) law, rebuilt read-only from the rows on each
        read and not held. A cell sums +0.0, its one entry or none, and +0.0
        padding, so it is the validated input bit for bit (-0.0 reads +0.0)."""
        next_states, probs = self.transition_rows
        S, A = self.n_states, self.n_actions
        cells = np.arange(S * A).repeat(probs.shape[1]) * S + next_states.ravel()
        return _read_only(np.bincount(cells, probs.ravel(), minlength=S * A * S).reshape(S, A, S))

    @cached_property
    def reward_rows(self) -> np.ndarray:
        """``reward`` as a C-ordered (S * A, M) table, row s * A + a the M
        rewards of (s, a)."""
        return _read_only(np.ascontiguousarray(self.reward.reshape(self.n_objectives, -1).T))

    def expected_next(self, values: np.ndarray) -> np.ndarray:
        """(..., S, A) sums sum_s' P(s' | s, a) v(s') of the finite (..., S)
        ``values`` over ``transition_rows``. Each starts from +0.0 and adds its
        terms in increasing s', whatever the layout of ``values``; a padded
        term is +-0.0 and leaves every partial sum unchanged."""
        next_states, probs = self.transition_rows
        terms = probs * np.take(values, next_states, axis=-1)   # (..., S * A, R)
        total = np.zeros(terms.shape[:-1])
        for j in range(terms.shape[-1]):
            total += terms[..., j]
        return total.reshape(values.shape[:-1] + (self.n_states, self.n_actions))

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
                n_states=_json_int(doc, "n_states"),
                n_actions=_json_int(doc, "n_actions"),
                n_objectives=_json_int(doc, "n_objectives"),
                transition=_json_floats(doc["transition"], "transition"),
                reward=_json_floats(doc["reward"], "reward"),
                discounts=_json_floats(doc["discounts"], "discounts"),
                initial_distribution=_json_floats(doc["initial_distribution"],
                                                  "initial_distribution"),
                r_max=_json_number(doc.get("r_max", 1.0), "r_max"),
                metadata=dict(doc.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ParameterError(f"bad environment document: {exc!r}") from exc
        return cls(**fields)


def _padded_rows(transition: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (S, A, S) ``transition`` as padded rows (next_states, probs), each
    of shape (S * A, R): row s * A + a lists the R or fewer next states s' of
    P(s' | s, a) > 0 in increasing order, padded on the right with state 0
    and probability exactly 0.0. The one layout of the transition law that
    the model holds and that the sampler, ``PolicyEvaluation.P`` and
    ``expected_next`` read, at O(S * A * R) cost against the dense O(S^2 * A)."""
    nonzero = transition != 0
    counts = nonzero.sum(axis=2).ravel()
    filled = np.arange(counts.max()) < counts[:, None]
    next_states = np.zeros(filled.shape, dtype=np.int64)
    next_states[filled] = np.flatnonzero(nonzero) % transition.shape[2]
    probs = np.zeros(filled.shape)
    probs[filled] = transition[nonzero]
    return _read_only(next_states), _read_only(probs)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def save_env_json(env: TabularMomdp, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env.to_json_dict(), fh)


def read_json(path: str):
    """The document in a JSON file; ParameterError if the file is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:   # also not UTF-8, or nested too deep
            raise ParameterError(f"{path} is not a JSON file: {exc}") from exc


def _json_int(doc: dict, key: str) -> int:
    """``doc[key]``, which must be a JSON integer: a float such as 4.9 or 2.0,
    a string or a bool raises TypeError rather than being truncated."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """``value``, which must be a JSON number: a string such as "0.75", a bool
    or null raises TypeError rather than being coerced (``np.asarray`` reads
    "0.75" as 0.75 and true as 1.0)."""
    if type(value) is not int and type(value) is not float:
        raise TypeError(f"{name} must hold JSON numbers only, got {value!r}")
    return float(value)


def _json_floats(value, name: str) -> np.ndarray:
    """The nested JSON list ``value`` as a float array, every entry checked
    by ``_json_number``."""
    values = np.asarray(value, dtype=object)
    return np.array([_json_number(x, name) for x in values.flat], dtype=float).reshape(values.shape)


def load_env_json(path: str) -> TabularMomdp:
    return TabularMomdp.from_json_dict(read_json(path))


class MarkovSampler:
    """Stateful sampler owning its RNG.

    Successive calls continue a single unbroken chain through the shared
    ``state``, so one draw split into consecutive slices equals chained calls
    of the slices' lengths. ``seed`` is an integer >= 0.
    """

    def __init__(self, env: TabularMomdp, seed: int):
        check_integer("seed", seed, 0)
        check_types(("env", env, TabularMomdp))
        self.env = env
        self.rng = np.random.default_rng(seed)
        self.state = int(self.rng.choice(env.n_states, p=env.initial_distribution))
        self._next_state_of_cell = env.transition_rows[0].ravel().tolist()

    def sample_policy_batch(self, action_probs: np.ndarray, n: int):
        """Draw n chained (s, a, s') steps under the (S, A) policy matrix.

        Uses one uniform per step against the joint (action, next-state) law of
        the current state and records the flat index c of the ``transition_rows``
        slot it draws; with K = A * R, states, actions and next states are the
        vectorized c // K, c % K // R and gather at c. ``n`` is an integer >= 0.
        """
        check_integer("n", n, 0)
        probs = check_distribution("action probabilities", action_probs,
                                   (self.env.n_states, self.env.n_actions))
        cum = self._policy_table(probs)
        K = cum.shape[1]
        cum_rows, next_state_of_cell = cum.tolist(), self._next_state_of_cell
        s = self.state
        cells = []
        for u in self.rng.random(n).tolist():
            c = K * s + bisect_right(cum_rows[s], u)
            cells.append(c)
            s = next_state_of_cell[c]
        self.state = s
        cells = np.array(cells, dtype=np.int64)
        next_states, _ = self.env.transition_rows
        states, actions = np.divmod(cells, K)
        actions //= next_states.shape[1]
        return states, actions, next_states.ravel()[cells]

    def _policy_table(self, probs: np.ndarray) -> np.ndarray:
        """(S, A * R) per-state cumulative joint law over the slots of
        ``transition_rows``, rows s * A to s * A + A - 1 side by side.

        Each slot's joint probability is pi(a | s) times its transition
        probability, +0.0 on the padding since both factors are >= 0. Against
        the dense (S, A*S) row-wise cumsum, this one leaves out only cells of
        transition probability 0.0 and adds only +0.0 slots, neither of which
        changes a float sum, so each entry equals the dense cumsum at its cell.
        A right bisection picks the cell ``np.searchsorted(..., side="right")``
        picks in the dense row: a padding slot repeats the entry of a real slot
        on its left, and a row ends at exactly 1.0, above every uniform.
        """
        _, cell_probs = self.env.transition_rows
        cum = (probs.reshape(-1, 1) * cell_probs).reshape(len(probs), -1).cumsum(axis=1)
        cum /= cum[:, -1:]
        return cum


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
    check_float("fish_proba", fish_proba, 0, 1)
    check_float("wood_proba", wood_proba, 0, 1)
    produce = {_FW_FISH: fish_proba, _FW_WOOD: wood_proba}
    S, A, M = 4, 2, 2

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
        discounts=np.full(M, discount) if np.isscalar(discount) else discount,
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
    check_float("attack_prob", attack_prob, 0, 1)
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
def _strongly_connected(shape: tuple[int, int], pattern: bytes) -> bool:
    """Whether every state of the graph with boolean adjacency ``pattern`` of
    ``shape`` reaches every other: a search from state 0 along the edges and
    along the reversed edges reaches all states. Each state enters a frontier
    at most once, so a search reads O(S^2) entries."""
    adjacency = np.frombuffer(pattern, dtype=bool).reshape(shape)
    for edges in (adjacency, adjacency.T):
        seen = np.zeros(shape[0], dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            reached = edges[frontier].any(axis=0) & ~seen
            seen |= reached
            frontier = np.flatnonzero(reached)
        if not seen.all():
            return False
    return True


def compute_stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of the (S, S) kernel P, d^T P = d^T, sum(d) = 1.

    One direct solve of the balance equations (the last replaced by
    sum(d) = 1), clipped at 0, normalised and polished by 8 exact power
    steps. ModelError if the pattern of P is reducible, if the solve finds
    the equations singular (a chain reducible in floating point) or if the
    residual max|d P - d| is above 1e-10. ParameterError if P is not a
    non-empty square matrix or has a negative entry; its row sums go
    unchecked, as the P_pi it is given carries the model's row error.
    """
    P = check_array("kernel", P, (None, None), within=(0, np.inf, "[)"))
    if P.shape[0] != P.shape[1] or P.size == 0:
        raise ParameterError(f"kernel must be a non-empty square matrix, got shape {P.shape}")
    # a softmax policy never changes the non-zero pattern of P_pi, so the
    # graph search runs once per pattern
    if not _strongly_connected(P.shape, (P > 0).tobytes()):
        raise ModelError("induced chain is reducible (some state cannot reach another); "
                         "no unique stationary distribution")
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
    if not residual <= _STATIONARY_TOL:
        raise ModelError(f"stationary solve missed its residual "
                         f"({residual:.2e} > {_STATIONARY_TOL:.0e})")
    return d


class PolicyEvaluation:
    """Exact chain quantities of one policy in one reward setting.

    The action probabilities ``probs`` (S, A), the state kernel ``P``
    (P_pi(s'|s) = sum_a pi(a|s) P(s'|s,a)) and the expected one-step reward
    ``r`` (M, S) are built on construction. The stationary distribution ``d``,
    the value solves ``lead_values``, the value functions ``values`` and the
    ``advantages`` are solved once, on first use, so a quantity no caller asks
    for is never solved (a discounted objective, for instance, never needs
    ``d``).

    The setting enters Q = r - offset + gamma P V as data: ``gamma`` (M,) is
    the discounts (ones if average), ``offset`` (M,) is 0 (J = r d if average).
    """

    def __init__(self, env: TabularMomdp, policy, setting: str):
        from .policy import PolicyParams   # here: policy.py imports this module
        check_types(("env", env, TabularMomdp), ("policy", policy, PolicyParams))
        self.env = env
        self.policy = policy
        self.setting = check_setting(setting)
        self.gamma = env.discounts if setting == DISCOUNTED else np.ones(env.n_objectives)
        self.probs = policy.probability_matrix()
        if self.probs.shape != (env.n_states, env.n_actions):
            raise ParameterError("policy dimensions do not match the environment")
        # each P_pi(s, s') adds pi(a|s) P(s'|s, a) over the slots of
        # ``transition_rows`` in increasing a from +0.0; padding adds +0.0
        next_states, cell_probs = env.transition_rows
        S = env.n_states
        bins = np.arange(S).repeat(next_states.size // S) * S + next_states.ravel()
        self.P = np.bincount(bins, (self.probs.reshape(-1, 1) * cell_probs).ravel(),
                             minlength=S * S).reshape(S, S)
        self.r = np.einsum("sa,msa->ms", self.probs, env.reward)
        self._lead_values: dict[int, np.ndarray] = {}

    @cached_property
    def d(self) -> np.ndarray:
        """(S,) stationary distribution of ``P``; ModelError if reducible."""
        return compute_stationary_distribution(self.P)

    @cached_property
    def discount_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct entries of ``gamma``, ascending, and each objective's index into them."""
        return np.unique(self.gamma, return_inverse=True)

    @cached_property
    def offset(self) -> np.ndarray:
        """(M,) reward offset: zeros when discounted, J = r d in the average setting."""
        return np.zeros(self.env.n_objectives) if self.setting == DISCOUNTED else self.r @ self.d

    def lead_values(self, k: int) -> np.ndarray:
        """(M, k) solution X of (I - gamma_i P[:k, :k]) x_i = (r_i - offset_i)[:k]:
        the values with every state from k on held at 0, which ``values``
        (k = S, or S - 1 if average) and ``compute_td_fixed_point``
        (k = ``features.dim``) share. One ``np.linalg.solve`` per distinct
        discount, right-hand sides stacked; memoized per k, read-only."""
        X = self._lead_values.get(k)
        if X is None:
            discounts, group_of = self.discount_groups
            rhs = (self.r - self.offset[:, None])[:, :k]
            P, eye = self.P[:k, :k], np.eye(k)
            X = np.empty(rhs.shape)
            for g, gamma in enumerate(discounts):
                group = np.flatnonzero(group_of == g)
                X[group] = np.linalg.solve(eye - gamma * P, rhs[group].T).T
            X.setflags(write=False)
            self._lead_values[k] = X
        return X

    @cached_property
    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-objective (V, J): V has shape (M, S), J shape (M,).

        Discounted: V solves (I - gamma_i P_pi) V = r_pi (``lead_values(S)``)
        and J = <initial_distribution, V>. Average: J = r d is the stationary
        per-step reward and V the differential value of V = r - J + P_pi V,
        ``lead_values(S - 1)`` with the last state at 0, shifted to d V = 0;
        if that V misses the Poisson equation by more than 1e-12 of its
        scale, (I - P_pi + 1 d^T) V = r - J is solved instead. ModelError
        if either solve finds its matrix singular (a chain reducible in
        floating point whose ``d`` passed its check).
        """
        env = self.env
        if self.setting == DISCOUNTED:
            V = self.lead_values(env.n_states)
            return V, V @ env.initial_distribution
        d, J, S = self.d, self.offset, env.n_states
        # I - P[:-1, :-1] is invertible for an irreducible chain, and the
        # last Poisson row holds too: d (r - J + P V - V) = 0 with d > 0
        V = np.zeros((env.n_objectives, S))
        try:
            V[:, :-1] = self.lead_values(S - 1)
            V -= (V @ d)[:, None]
            # the pinned solution nears a constant as d(last state) shrinks, and
            # the shift cancels digits; the (I - P + 1 d^T) solve, invertible for
            # irreducible chains and already d-pinned, does not
            centred = self.r - J[:, None]
            residual = np.abs(centred + V @ self.P.T - V).max()
            if not residual <= _POISSON_TOL * (np.abs(V).max() + np.abs(centred).max()):
                A = np.eye(S) - self.P + np.outer(np.ones(S), d)
                V = np.linalg.solve(A, centred.T).T
                V -= (V @ d)[:, None]
        except np.linalg.LinAlgError as exc:
            raise ModelError("Poisson equations of the induced chain are singular: "
                             "numerically reducible, no unique differential value") from exc
        return V, J

    @cached_property
    def advantages(self) -> np.ndarray:
        """(M, S, A) exact advantages Q(s, a) - V(s)."""
        env = self.env
        V, _ = self.values
        Q = env.reward - self.offset[:, None, None] + self.gamma[:, None, None] * env.expected_next(V)
        return Q - V[:, :, None]


def value_functions(env: TabularMomdp, policy, setting: str):
    """Exact per-objective (V, J); see :attr:`PolicyEvaluation.values`."""
    return PolicyEvaluation(env, policy, setting).values

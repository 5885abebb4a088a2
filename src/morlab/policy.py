"""Softmax policies, score functions, critic feature maps, and the exact
policy-gradient oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_array, check_integer, check_types
from .momdp import PolicyEvaluation, TabularMomdp, _json_floats, _json_int, read_json


@dataclass(frozen=True)
class FeatureMap:
    """One-hot state features for linear value approximation, as an index map.

    State s < ``dim`` has the unit feature vector e_s, so its value at weights
    w is ``w[..., s]``; every later state has the zero feature vector and value
    0. Unit row norms and full column rank hold by construction.
    """

    n_states: int
    dim: int

    def __post_init__(self):
        check_integer("n_states", self.n_states, 1)
        check_integer("feature dim", self.dim, 1)
        if self.dim > self.n_states:
            raise ParameterError(f"feature dim must be in [1, {self.n_states}], got {self.dim}")

    def values(self, w: np.ndarray) -> np.ndarray:
        """(..., S) state values of (..., dim) weights: w padded with zero columns."""
        return np.concatenate([w, np.zeros(w.shape[:-1] + (self.n_states - self.dim,))], axis=-1)


def default_feature_map(n_states: int) -> FeatureMap:
    """One-hot features with the last state zeroed out (dim = n_states - 1).

    Keeps the all-ones vector outside the span, so it is valid in both reward
    settings.
    """
    check_integer("n_states", n_states, 2)
    return FeatureMap(n_states, n_states - 1)


def complete_feature_map(n_states: int) -> FeatureMap:
    """Full one-hot features over all states (dim = n_states).

    Makes every value function exactly representable (zero approximation
    error). The all-ones vector lies in the span, so in the average setting
    the TD matrix is not negative definite and compute_td_fixed_point raises
    ModelError.
    """
    return FeatureMap(n_states, n_states)


@dataclass
class PolicyParams:
    """Tabular softmax policy: one logit per (state, action), theta laid out
    state-major with dimension S*A."""

    theta: np.ndarray
    n_states: int
    n_actions: int

    def __post_init__(self):
        check_integer("n_states", self.n_states, 1)
        check_integer("n_actions", self.n_actions, 1)
        self.theta = check_array("theta", self.theta, (self.n_states * self.n_actions,))

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    def probability_matrix(self) -> np.ndarray:
        """(S, A) softmax over actions, computed with max subtraction."""
        z = self.theta.reshape(self.n_states, self.n_actions)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def score_weighted_sum(self, coeff: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """sum_{s,a} coeff[s, a] * score(s, a), assembled blockwise.

        The softmax score for (s, a) only touches the logit block of state s,
        so the sum collapses to coeff[s, :] - (sum_a coeff[s, a]) * pi(.|s) per
        block. A stacked (M, S, A) ``coeff`` gives all M sums, shape (M, dim),
        at once. ``probs`` is this policy's ``probability_matrix()``.
        """
        block = coeff - probs * coeff.sum(axis=-1, keepdims=True)
        return block.reshape(coeff.shape[:-2] + (-1,))


def uniform_policy(env: TabularMomdp) -> PolicyParams:
    check_types(("env", env, TabularMomdp))
    return PolicyParams(np.zeros(env.n_states * env.n_actions), env.n_states, env.n_actions)


def exact_policy_gradient(evaluation: PolicyEvaluation) -> np.ndarray:
    """Exact-enumeration policy gradients of all M objectives, shape (M, dim).

    The per-pair contribution is score(s, a) weighted by pi(a|s) and the exact
    advantage Q(s, a) - V(s) of the evaluation. States are weighted by the
    stationary distribution of the induced chain; this is the exact gradient
    of the average-reward objective and, in the discounted setting, the
    direction the sampled TD actor estimates (not the gradient of the
    start-state discounted objective).
    """
    check_types(("evaluation", evaluation, PolicyEvaluation))
    coeff = evaluation.d[:, None] * evaluation.probs * evaluation.advantages
    return evaluation.policy.score_weighted_sum(coeff, evaluation.probs)


def save_policy_json(policy: PolicyParams, path: str):
    import json

    doc = {
        "kind": "tabular",
        "n_states": policy.n_states,
        "n_actions": policy.n_actions,
        "theta": policy.theta.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_policy_json(path: str) -> PolicyParams:
    """The policy in a file of save_policy_json's format; a document without a
    ``kind`` is tabular, and any other kind raises ParameterError."""
    doc = read_json(path)
    try:
        kind = doc.get("kind", "tabular")
        fields = dict(
            theta=_json_floats(doc["theta"], "theta"),
            n_states=_json_int(doc, "n_states"),
            n_actions=_json_int(doc, "n_actions"),
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParameterError(f"bad policy document: {exc!r}") from exc
    if kind != "tabular":
        raise ParameterError(f"policy kind must be 'tabular', got {kind!r}")
    return PolicyParams(**fields)

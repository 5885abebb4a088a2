"""Softmax policies, score functions, critic feature maps, and the exact
policy-gradient oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .momdp import DISCOUNTED, PolicyEvaluation, TabularMomdp, read_json


@dataclass
class FeatureMap:
    """State features for linear value approximation, one row per state."""

    matrix: np.ndarray  # (S, d2)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ParameterError("feature matrix must be 2-D (n_states, dim)")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def validate(self, for_average: bool = False, rank_tol: float = 1e-8):
        """Check row norms <= 1, full column rank, and (average setting only)
        that the all-ones vector is outside the column span."""
        norms = np.linalg.norm(self.matrix, axis=1)
        if np.any(norms > 1.0 + 1e-12):
            raise ParameterError("feature rows must have unit norm at most")
        svals = np.linalg.svd(self.matrix, compute_uv=False)
        if svals[-1] < rank_tol:
            raise ParameterError("feature matrix must have full column rank")
        if for_average:
            ones = np.ones(self.matrix.shape[0])
            sol, _, _, _ = np.linalg.lstsq(self.matrix, ones, rcond=None)
            residual = float(np.linalg.norm(self.matrix @ sol - ones))
            if residual < rank_tol:
                raise ParameterError("all-ones vector must not be representable by the features")
        return self


def default_feature_map(n_states: int) -> FeatureMap:
    """One-hot features with the last state zeroed out (dim = n_states - 1).

    Satisfies unit row norms, full column rank, and keeps the all-ones vector
    outside the span, so it is valid in both reward settings.
    """
    if n_states < 2:
        raise ParameterError("need at least 2 states for the default feature map")
    return FeatureMap(np.eye(n_states)[:, : n_states - 1])


def complete_feature_map(n_states: int) -> FeatureMap:
    """Full one-hot features over all states (dim = n_states).

    Makes every value function exactly representable (zero approximation
    error). Test fixture only: the all-ones vector lies in the span, so the
    average-setting span condition is deliberately waived here.
    """
    return FeatureMap(np.eye(n_states))


@dataclass
class PolicyParams:
    """Tabular softmax policy: one logit per (state, action), theta laid out
    state-major with dimension S*A."""

    theta: np.ndarray
    n_states: int
    n_actions: int

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        expected = self.n_states * self.n_actions
        if self.theta.shape != (expected,):
            raise ParameterError(f"theta must have shape ({expected},)")
        if not np.all(np.isfinite(self.theta)):
            raise ParameterError("theta must be finite")

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    def probability_matrix(self) -> np.ndarray:
        """(S, A) softmax over actions, computed with max subtraction."""
        z = self.theta.reshape(self.n_states, self.n_actions)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def score_weighted_sum(self, coeff: np.ndarray) -> np.ndarray:
        """sum_{s,a} coeff[s, a] * score(s, a), assembled blockwise.

        The softmax score for (s, a) only touches the logit block of state s,
        so the sum collapses to coeff[s, :] - (sum_a coeff[s, a]) * pi(.|s) per
        block. A stacked (M, S, A) ``coeff`` gives all M sums, shape (M, dim),
        at once.
        """
        probs = self.probability_matrix()
        block = coeff - probs * coeff.sum(axis=-1, keepdims=True)
        return block.reshape(coeff.shape[:-2] + (-1,))


def uniform_policy(env: TabularMomdp) -> PolicyParams:
    return PolicyParams(np.zeros(env.n_states * env.n_actions), env.n_states, env.n_actions)


def exact_policy_gradient(evaluation: PolicyEvaluation,
                          state_weighting: str = "stationary") -> np.ndarray:
    """Exact-enumeration policy gradients of all M objectives, shape (M, dim).

    The per-pair contribution is score(s, a) weighted by pi(a|s) and the exact
    advantage Q(s, a) - V(s) of the evaluation. States are weighted by the
    stationary distribution of the induced chain by default; this is the exact
    gradient of the average-reward objective and, in the discounted setting,
    the direction the sampled TD actor estimates.

    ``state_weighting="visitation"`` instead weights states by the discounted
    visitation measure initial^T (I - gamma P)^{-1}, which is the exact
    gradient of the discounted start-state objective (the two weightings agree
    in the average setting, where the visitation measure is stationary).
    """
    if state_weighting not in ("stationary", "visitation"):
        raise ParameterError(f"unknown state_weighting {state_weighting!r}")
    env = evaluation.env
    # gamma = 1 leaves I - P singular; the average setting's visitation law is d
    if state_weighting == "visitation" and evaluation.setting == DISCOUNTED:
        eye = np.eye(env.n_states)
        weights = np.stack([np.linalg.solve((eye - gamma * evaluation.P).T, env.initial_distribution)
                            for gamma in env.discounts])
    else:
        weights = evaluation.d[None, :]
    coeff = weights[:, :, None] * evaluation.probs * evaluation.advantages
    return evaluation.policy.score_weighted_sum(coeff)


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
            theta=np.asarray(doc["theta"], dtype=float),
            n_states=int(doc["n_states"]),
            n_actions=int(doc["n_actions"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"bad policy document: {exc!r}") from exc
    if kind != "tabular":
        raise ParameterError(f"policy kind must be 'tabular', got {kind!r}")
    return PolicyParams(**fields)

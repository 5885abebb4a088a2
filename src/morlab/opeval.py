"""Normalized capped importance sampling over logged multi-reward data, plus a
synthetic log generator."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .momdp import MarkovSampler, TabularMomdp
from .policy import PolicyParams

DEFAULT_CAP = 10.0


@dataclass
class LoggedDataset:
    """Logged (state, action, reward vector) records with the behavior policy's
    probability of each logged action stored alongside."""

    states: np.ndarray          # (n,)
    actions: np.ndarray         # (n,)
    rewards: np.ndarray         # (n, M)
    behavior_probs: np.ndarray  # (n,) pi_beta(a_k | s_k)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.behavior_probs = np.asarray(self.behavior_probs, dtype=float)
        n = self.states.shape[0]
        if n == 0:
            raise DataError("logged dataset must be non-empty")
        if self.actions.shape != (n,) or self.behavior_probs.shape != (n,):
            raise DataError("actions and behavior_probs must match the number of records")
        if self.rewards.ndim != 2 or self.rewards.shape[0] != n:
            raise DataError("rewards must have shape (n_records, n_objectives)")
        if not np.all((self.behavior_probs > 0.0) & (self.behavior_probs <= 1.0)):
            raise DataError("every behavior probability must be finite and lie in (0, 1]")

    def __len__(self):
        return self.states.shape[0]

    @property
    def n_objectives(self) -> int:
        return self.rewards.shape[1]


def ncis_scores(dataset: LoggedDataset, candidate: PolicyParams, cap: float = DEFAULT_CAP) -> np.ndarray:
    """Per-objective capped importance-sampling estimates as an (M,) vector."""
    if not cap > 0:
        raise ParameterError("cap must be positive")
    probs = candidate.probability_matrix()
    S, A = probs.shape
    if not (np.all((dataset.states >= 0) & (dataset.states < S))
            and np.all((dataset.actions >= 0) & (dataset.actions < A))):
        raise DataError(f"logged states and actions must index the candidate's {S} states and {A} actions")
    ratios = probs[dataset.states, dataset.actions] / dataset.behavior_probs
    weights = np.minimum(cap, ratios)
    total = weights.sum()
    if total <= 0.0:
        raise DataError("all importance weights vanished; dataset is degenerate for this candidate")
    # pairwise-summed like ndarray.mean so unit weights reproduce the plain mean bit-exactly
    return (weights[:, None] * dataset.rewards).sum(axis=0) / total


def generate_logged_data(env: TabularMomdp, behavior: PolicyParams, n: int, seed: int) -> LoggedDataset:
    """Roll the chain n steps under the behavior policy and keep exact
    behavior probabilities for every logged action."""
    if n < 1:
        raise ParameterError("need at least one logged record")
    sampler = MarkovSampler(env, seed)
    probs = behavior.probability_matrix()
    s_arr, a_arr, _ = sampler.sample_policy_batch(probs, n)
    return LoggedDataset(
        states=s_arr,
        actions=a_arr,
        rewards=env.reward[:, s_arr, a_arr].T,
        behavior_probs=probs[s_arr, a_arr],
    )


def save_logged_data(dataset: LoggedDataset, path: str):
    """One JSON record per line: {"s": ..., "a": ..., "r": [...], "pb": ...}."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, a, r, pb in zip(dataset.states, dataset.actions, dataset.rewards, dataset.behavior_probs):
            fh.write(json.dumps({"s": int(s), "a": int(a), "r": r.tolist(), "pb": float(pb)}))
            fh.write("\n")


def load_logged_data(path: str) -> LoggedDataset:
    states, actions, rewards, probs = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                states.append(int(doc["s"]))
                actions.append(int(doc["a"]))
                rewards.append([float(x) for x in doc["r"]])
                probs.append(float(doc["pb"]))
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise DataError(f"bad logged-data record at line {lineno}: {exc}") from exc
    if not states:
        raise DataError("logged-data file contains no records")
    widths = {len(r) for r in rewards}
    if len(widths) != 1:
        raise DataError("logged-data records disagree on the number of objectives")
    return LoggedDataset(
        states=np.array(states),
        actions=np.array(actions),
        rewards=np.array(rewards),
        behavior_probs=np.array(probs),
    )

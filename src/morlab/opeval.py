"""Normalized capped importance sampling over logged multi-reward data, plus a
synthetic log generator."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .errors import DataError, check_array, check_float, check_integer, check_types
from .momdp import MarkovSampler, TabularMomdp
from .policy import PolicyParams

DEFAULT_CAP = 10.0
CHUNK_RECORDS = 1024     # records per write in save_logged_data, lines per parse in load_logged_data
_NUMBERS = frozenset((int, float))   # JSON numbers; bool and str are not
_INTEGERS = frozenset((int,))
_LISTS = frozenset((list,))
_RAW_DECODE = json.JSONDecoder().raw_decode


@dataclass
class LoggedDataset:
    """Logged (state, action, reward vector) records with the behavior policy's
    probability of each logged action stored alongside."""

    states: np.ndarray          # (n,)
    actions: np.ndarray         # (n,)
    rewards: np.ndarray         # (n, M)
    behavior_probs: np.ndarray  # (n,) pi_beta(a_k | s_k)

    def __post_init__(self):
        self.states = check_array("states", self.states, (None,), integer=True, error=DataError)
        n = len(self.states)
        if n == 0:
            raise DataError("logged dataset must be non-empty")
        self.actions = check_array("actions", self.actions, (n,), integer=True, error=DataError)
        self.rewards = check_array("rewards", self.rewards, (n, None), error=DataError)
        self.behavior_probs = check_array("behavior_probs", self.behavior_probs, (n,), error=DataError)
        if self.rewards.shape[1] == 0:
            raise DataError("rewards must have at least one objective")
        if not np.all((self.behavior_probs > 0.0) & (self.behavior_probs <= 1.0)):
            raise DataError("every behavior probability must lie in (0, 1]")

    def __len__(self):
        return self.states.shape[0]

    @property
    def n_objectives(self) -> int:
        return self.rewards.shape[1]


def ncis_scores(dataset: LoggedDataset, candidate: PolicyParams, cap: float = DEFAULT_CAP) -> np.ndarray:
    """Per-objective capped importance-sampling estimates as an (M,) vector."""
    check_types(("dataset", dataset, LoggedDataset), ("candidate", candidate, PolicyParams))
    check_float("cap", cap, 0, np.inf, "(]")
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
    check_integer("n", n, 1)
    check_integer("seed", seed, 0)
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
    """One JSON record per line: {"s": ..., "a": ..., "r": [...], "pb": ...}.

    Byte for byte one ``json.dumps`` per record: JSON prints finite floats,
    ints and lists of them as ``repr`` does, and ``LoggedDataset`` holds
    finite values only. Formatting a chunk at a time keeps memory flat.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(dataset), CHUNK_RECORDS):
            rows = slice(lo, lo + CHUNK_RECORDS)
            fh.writelines([f'{{"s": {s}, "a": {a}, "r": {r!r}, "pb": {pb!r}}}\n' for s, a, r, pb in zip(
                dataset.states[rows].tolist(), dataset.actions[rows].tolist(),
                dataset.rewards[rows].tolist(), dataset.behavior_probs[rows].tolist())])


def load_logged_data(path: str) -> LoggedDataset:
    """Read a JSON-lines log. ``s`` and ``a`` must be JSON integers, ``pb`` and
    every entry of the list ``r`` JSON numbers; anything else is a ``DataError``.

    Parses ``CHUNK_RECORDS`` lines at a time and keeps each chunk as numpy
    columns only, so memory holds the columns, not every record's objects.
    Each chunk is first decoded in one pass (``_decode_chunk``); a chunk that
    pass does not accept goes through ``_check_lines``, which names the first
    bad line.
    """
    columns, lineno = [[], [], [], []], 0   # states, actions, rewards, probs: one array per chunk
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lines in iter(lambda: list(islice(fh, CHUNK_RECORDS)), []):
                parsed = _decode_chunk(lines)
                if parsed is None:
                    parsed = _check_lines(lines, lineno)
                lineno += len(lines)
                states, actions, rewards, probs = parsed
                if not states:
                    continue
                widths = {len(r) for r in rewards} | {rows.shape[1] for rows in columns[2][:1]}
                if len(widths) != 1:
                    raise DataError("logged-data records disagree on the number of objectives")
                try:
                    arrays = (np.array(states, dtype=np.int64), np.array(actions, dtype=np.int64),
                              np.array(rewards, dtype=float), np.array(probs, dtype=float))
                except OverflowError as exc:   # an integer beyond int64 or float range
                    raise DataError(f"logged-data value out of range: {exc}") from exc
                for column, array in zip(columns, arrays):
                    column.append(array)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: logged-data file is not UTF-8 text: {exc}") from exc
    if not columns[0]:
        raise DataError("logged-data file contains no records")
    # join one column at a time and drop its chunks before the next: the peak
    # is the columns plus the largest one, not the columns twice
    for k, pieces in enumerate(columns):
        columns[k] = np.concatenate(pieces)
    return LoggedDataset(*columns)


def _decode_chunk(lines: list[str]):
    """The (states, actions, rewards, probs) lists of a chunk whose every
    non-blank line is a good record, decoded and checked a column at a time;
    None if any line is not.

    Accepts exactly what ``_check_lines`` accepts, with the same lists: a
    stripped line starts and ends with no JSON whitespace, so ``raw_decode``
    from 0 ending at ``len(line)`` is ``json.loads`` without "Extra data".
    """
    lines = list(filter(None, map(str.strip, lines)))
    try:
        decoded = list(map(_RAW_DECODE, lines))
        if list(map(len, lines)) != list(map(itemgetter(1), decoded)):
            return None
        docs = list(map(itemgetter(0), decoded))
        states, actions, rewards, probs = (list(map(itemgetter(key), docs)) for key in ("s", "a", "r", "pb"))
    except (KeyError, TypeError, ValueError, RecursionError):
        return None
    if (_INTEGERS.issuperset(map(type, states)) and _INTEGERS.issuperset(map(type, actions))
            and _NUMBERS.issuperset(map(type, probs)) and _LISTS.issuperset(map(type, rewards))
            and _NUMBERS.issuperset(map(type, chain.from_iterable(rewards)))):
        return states, actions, rewards, probs
    return None


def _check_lines(lines: list[str], lineno: int):
    """The (states, actions, rewards, probs) lists of a chunk checked one line
    at a time; a ``DataError`` names the first bad line, counting from
    ``lineno + 1``."""
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
    return states, actions, rewards, probs

"""Capped importance-sampling scores and the synthetic log generator."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlab import (
    AVERAGE,
    DataError,
    LoggedDataset,
    ParameterError,
    PolicyEvaluation,
    PolicyParams,
    build_fishwood,
    build_resource_gathering,
    generate_logged_data,
    load_logged_data,
    ncis_scores,
    save_logged_data,
    uniform_policy,
)

from morlab import opeval
from morlab.opeval import CHUNK_RECORDS

from util import (
    compute_exact_objective,
    load_logged_data_reference,
    ncis_score,
    random_momdp,
    random_policy,
    save_logged_data_reference,
)


_GOOD_RECORD = '{"s": 0, "a": 1, "r": [1.0, 0.5], "pb": 0.5}\n'


def logit_policy(probs: np.ndarray) -> PolicyParams:
    return PolicyParams(np.log(probs).ravel(), probs.shape[0], probs.shape[1])


class TestNcisScore:
    def test_hand_computed_two_records(self):
        # ratios (1, 3) capped at 2, rewards (0, 1) => (0*1 + 1*2) / (1 + 2) = 2/3
        dataset = LoggedDataset(
            states=np.array([0, 0]),
            actions=np.array([0, 1]),
            rewards=np.array([[0.0], [1.0]]),
            behavior_probs=np.array([0.25, 0.25]),
        )
        pol = logit_policy(np.array([[0.25, 0.75]]))  # ratios 0.25/0.25=1, 0.75/0.25=3
        score = ncis_scores(dataset, pol, cap=2.0)[0]
        assert score == pytest.approx(2.0 / 3.0)

    def test_self_evaluation_is_plain_mean(self):
        rng = np.random.default_rng(0)
        env = random_momdp(rng, n_states=3, n_actions=2, n_objectives=2)
        behavior = random_policy(rng, 3, 2)
        data = generate_logged_data(env, behavior, n=500, seed=1)
        scores = ncis_scores(data, behavior, cap=10.0)
        assert np.array_equal(scores, data.rewards.mean(axis=0))

    def test_tiny_cap_with_identical_policies_still_mean(self):
        rng = np.random.default_rng(1)
        env = random_momdp(rng, n_states=3, n_actions=2, n_objectives=1)
        behavior = random_policy(rng, 3, 2)
        data = generate_logged_data(env, behavior, n=200, seed=2)
        score = ncis_scores(data, behavior, cap=1e-9)[0]
        assert score == pytest.approx(float(data.rewards[:, 0].mean()), rel=1e-12)

    def test_cap_monotone_on_high_reward_concentrating_candidate(self):
        dataset = LoggedDataset(
            states=np.array([0, 0]),
            actions=np.array([0, 1]),
            rewards=np.array([[0.0], [1.0]]),
            behavior_probs=np.array([0.5, 0.5]),
        )
        candidate = logit_policy(np.array([[0.1, 0.9]]))  # ratio 1.8 > 1 on the rewarded record
        caps = np.linspace(0.05, 3.0, 40)
        scores = [ncis_scores(dataset, candidate, cap=c)[0] for c in caps]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_matches_record_by_record_reference(self):
        rng = np.random.default_rng(4)
        env = random_momdp(rng, n_states=4, n_actions=3, n_objectives=3)
        data = generate_logged_data(env, random_policy(rng, 4, 3), n=300, seed=5)
        candidate = random_policy(rng, 4, 3, scale=1.5)
        for cap in (0.5, 1.0, 2.0, 10.0):
            reference = [ncis_score(data, candidate, cap, i) for i in range(3)]
            assert ncis_scores(data, candidate, cap) == pytest.approx(reference, rel=1e-12)

    def test_zero_support_rejected(self):
        with pytest.raises(DataError):
            LoggedDataset(states=np.array([0]), actions=np.array([0]),
                          rewards=np.array([[1.0]]), behavior_probs=np.array([0.0]))

    @pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
    def test_non_finite_reward_rejected(self, reward):
        with pytest.raises(DataError, match="finite"):
            LoggedDataset(states=np.array([0, 0]), actions=np.array([0, 1]),
                          rewards=np.array([[reward, 1.0], [0.5, 0.0]]), behavior_probs=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("pb", [1.5, np.nan, np.inf, -0.25])
    def test_behavior_probability_outside_unit_interval_rejected(self, pb):
        with pytest.raises(DataError):
            LoggedDataset(states=np.array([0, 0]), actions=np.array([0, 1]),
                          rewards=np.array([[1.0], [0.0]]), behavior_probs=np.array([0.5, pb]))

    def test_behavior_probability_one_accepted(self):
        dataset = LoggedDataset(states=np.array([0]), actions=np.array([1]),
                                rewards=np.array([[1.0]]), behavior_probs=np.array([1.0]))
        assert ncis_scores(dataset, logit_policy(np.array([[0.5, 0.5]]))).tolist() == [1.0]

    @pytest.mark.parametrize("state, action", [(-1, 0), (2, 0), (0, -1), (0, 2)])
    def test_index_outside_candidate_rejected(self, state, action):
        # a state of -1 must not wrap to the last state, nor one past the end
        # escape as a raw IndexError
        dataset = LoggedDataset(states=np.array([0, state]), actions=np.array([1, action]),
                                rewards=np.array([[1.0], [0.0]]), behavior_probs=np.array([0.5, 0.5]))
        candidate = logit_policy(np.array([[0.5, 0.5], [0.25, 0.75]]))
        with pytest.raises(DataError, match="index"):
            ncis_scores(dataset, candidate)

    def test_bad_cap_rejected(self):
        dataset = LoggedDataset(states=np.array([0]), actions=np.array([0]),
                                rewards=np.array([[1.0]]), behavior_probs=np.array([0.5]))
        pol = logit_policy(np.array([[0.5, 0.5]]))
        with pytest.raises(ParameterError):
            ncis_scores(dataset, pol, cap=0.0)


class TestGeneratedLogs:
    def test_rejects_empty_request(self):
        env = build_fishwood(0.4, 0.5)
        with pytest.raises(ParameterError):
            generate_logged_data(env, uniform_policy(env), n=0, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("n", True), ("seed", -1), ("seed", 1.5), ("seed", True),
    ])
    def test_rejects_non_integer_count_or_seed(self, field, value):
        # a float n or seed used to escape as a bare TypeError or ValueError
        # from numpy, and a bool ran silently as 1 or 0
        env = build_fishwood(0.4, 0.5)
        arguments = dict(n=3, seed=0)
        arguments[field] = value
        with pytest.raises(ParameterError, match=field):
            generate_logged_data(env, uniform_policy(env), **arguments)

    def test_deterministic_under_seed(self):
        env = build_fishwood(0.4, 0.5)
        behavior = uniform_policy(env)
        d1 = generate_logged_data(env, behavior, n=300, seed=9)
        d2 = generate_logged_data(env, behavior, n=300, seed=9)
        assert np.array_equal(d1.states, d2.states)
        assert np.array_equal(d1.actions, d2.actions)
        assert np.array_equal(d1.rewards, d2.rewards)

    def test_state_frequencies_match_stationary(self):
        env = build_fishwood(0.35, 0.55)
        behavior = uniform_policy(env)
        n = 100_000
        data = generate_logged_data(env, behavior, n=n, seed=17)
        d = PolicyEvaluation(env, behavior, AVERAGE).d
        freqs = np.bincount(data.states, minlength=env.n_states) / n
        for s in range(env.n_states):
            sigma = np.sqrt(d[s] * (1 - d[s]) / n)
            assert abs(freqs[s] - d[s]) <= 3 * sigma

    def test_behavior_probs_are_exact(self):
        env = build_fishwood(0.4, 0.5)
        rng = np.random.default_rng(3)
        behavior = random_policy(rng, env.n_states, env.n_actions)
        data = generate_logged_data(env, behavior, n=100, seed=4)
        probs = behavior.probability_matrix()
        assert np.array_equal(data.behavior_probs, probs[data.states, data.actions])

    def test_self_evaluation_converges_to_exact_objective(self):
        env = build_fishwood(0.35, 0.55)
        behavior = uniform_policy(env)
        n = 100_000
        data = generate_logged_data(env, behavior, n=n, seed=23)
        scores = ncis_scores(data, behavior, cap=10.0)
        J = compute_exact_objective(env, behavior, AVERAGE)
        # exact per-step reward variance under the stationary law
        d = PolicyEvaluation(env, behavior, AVERAGE).d
        probs = behavior.probability_matrix()
        weights = d[:, None] * probs
        for i in range(2):
            second = float((weights * env.reward[i] ** 2).sum())
            sigma = np.sqrt(max(second - J[i] ** 2, 1e-12) / n)
            assert abs(scores[i] - J[i]) <= 3 * sigma


class TestLoggedDataIO:
    def test_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        env = random_momdp(rng, n_states=3, n_actions=2, n_objectives=2)
        behavior = random_policy(rng, 3, 2)
        data = generate_logged_data(env, behavior, n=50, seed=6)
        path = tmp_path / "log.jsonl"
        save_logged_data(data, str(path))
        loaded = load_logged_data(str(path))
        assert np.array_equal(loaded.states, data.states)
        assert np.array_equal(loaded.actions, data.actions)
        assert np.array_equal(loaded.rewards, data.rewards)
        assert np.array_equal(loaded.behavior_probs, data.behavior_probs)

    def test_loader_rejects_bad_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"s": 0, "a": 0, "r": [1.0]}\n')  # missing pb
        with pytest.raises(DataError):
            load_logged_data(str(path))

    @pytest.mark.parametrize("field, text, match", [
        ("s", "3.7", "line 2"),
        ("s", "true", "line 2"),
        ("s", '"3"', "line 2"),
        ("a", "1.0", "line 2"),
        ("a", "false", "line 2"),
        ("pb", '"0.5"', "line 2"),
        ("pb", "true", "line 2"),
        ("pb", "null", "line 2"),
        ("r", '["1.0"]', "line 2"),
        ("r", "[true, 0.5]", "line 2"),
        ("r", '"12"', "line 2"),
        ("r", '{"1": 2}', "line 2"),
        ("r", "[NaN, 0.5]", "finite"),
        ("r", "[Infinity, 0.5]", "finite"),
        ("r", "[1e400, 0.5]", "finite"),
        ("r", "[1" + "0" * 400 + ", 0.5]", "out of range"),
        ("s", str(2 ** 70), "out of range"),
    ], ids=["s-float", "s-bool", "s-str", "a-float", "a-bool", "pb-str", "pb-bool", "pb-null",
            "r-str-entry", "r-bool-entry", "r-str", "r-object", "r-nan", "r-infinity", "r-1e400",
            "r-int-beyond-float", "s-int-beyond-int64"])
    def test_loader_rejects_mistyped_records(self, tmp_path, field, text, match):
        fields = {"s": "0", "a": "1", "r": "[1.0, 0.5]", "pb": "0.5"}
        good = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"
        fields[field] = text
        bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"
        path = tmp_path / "bad.jsonl"
        path.write_text(good + bad)
        with pytest.raises(DataError, match=match):
            load_logged_data(str(path))

    def test_loader_accepts_integer_numbers(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"s": 0, "a": 1, "r": [1, -2], "pb": 1}\n')
        loaded = load_logged_data(str(path))
        assert loaded.rewards.tolist() == [[1.0, -2.0]] and loaded.behavior_probs.tolist() == [1.0]

    def test_loader_rejects_non_utf8_file(self, tmp_path):
        path = tmp_path / "utf16.jsonl"
        path.write_bytes(b"\xff\xfe" + '{"s": 0, "a": 0, "r": [1.0], "pb": 0.5}\n'.encode("utf-16-le"))
        with pytest.raises(DataError, match="UTF-8"):
            load_logged_data(str(path))

    @pytest.mark.parametrize("M", [1, 3])
    def test_writer_bytes_on_extreme_floats(self, tmp_path, M):
        values = [5e-324, 1e-300, 1e300, -0.0, 0.1 + 0.2, 2 ** 62 - 1, 2 ** 62, 2 ** 62 + 2048, -(2 ** 62 + 1)]
        n = len(values) // M
        data = LoggedDataset(states=np.arange(n) + 2 ** 62, actions=np.arange(n),
                             rewards=np.array(values, dtype=float).reshape(n, M),
                             behavior_probs=np.array([5e-324, 0.1 + 0.2, 1.0, 1e-300, 2.0 / 3.0,
                                                      0.5, 1e-5, 0.7, 0.9][:n]))
        assert_writer_matches_reference(data, tmp_path)

    @pytest.mark.parametrize("n", [1, 2 * CHUNK_RECORDS + 1])
    def test_writer_bytes_on_generated_log(self, tmp_path, n):
        # 2 * CHUNK_RECORDS + 1 records cross both chunk boundaries
        env = build_resource_gathering()
        rng = np.random.default_rng(8)
        data = generate_logged_data(env, random_policy(rng, env.n_states, env.n_actions, scale=1.0), n=n, seed=9)
        assert_writer_matches_reference(data, tmp_path)

    def test_writer_streams(self, tmp_path):
        # chunked formatting peaks under 1 MB here; one string for the whole
        # file would hold all 50k lines (several MB) at once
        env = build_fishwood(0.4, 0.5)
        data = generate_logged_data(env, uniform_policy(env), n=50_000, seed=10)
        tracemalloc.start()
        try:
            save_logged_data(data, str(tmp_path / "log.jsonl"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_loader_streams(self, tmp_path):
        # the twin of test_writer_streams: holding all 50k records as Python
        # objects until the last line peaks near 14 MB; a chunk at a time, the
        # numpy columns (2.4 MB, plus the largest while they are joined one at
        # a time) dominate, about 3.8 MB
        env = build_resource_gathering()
        data = generate_logged_data(env, uniform_policy(env), n=50_000, seed=10)
        path = tmp_path / "log.jsonl"
        save_logged_data(data, str(path))
        tracemalloc.start()
        try:
            loaded = load_logged_data(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 50_000
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("bad_line", [CHUNK_RECORDS + 1, 2 * CHUNK_RECORDS + 1])
    def test_loader_names_bad_line_past_a_chunk_boundary(self, tmp_path, bad_line):
        path = tmp_path / "bad.jsonl"
        path.write_text(_GOOD_RECORD * (bad_line - 1) + '{"s": 0, "a": 1.0, "r": [1.0, 0.5], "pb": 0.5}\n'
                        + _GOOD_RECORD * 3)
        with pytest.raises(DataError, match=f"at line {bad_line}:"):
            load_logged_data(str(path))

    def test_loader_counts_blank_lines_across_a_chunk_boundary(self, tmp_path):
        # blank lines CHUNK_RECORDS and CHUNK_RECORDS + 1 straddle the first
        # boundary; they are skipped, yet counted in the line numbers
        text = _GOOD_RECORD * (CHUNK_RECORDS - 1) + "\n  \n" + _GOOD_RECORD
        path = tmp_path / "blank.jsonl"
        path.write_text(text)
        assert len(load_logged_data(str(path))) == CHUNK_RECORDS
        path.write_text(text + '{"s": true, "a": 1, "r": [1.0, 0.5], "pb": 0.5}\n')
        with pytest.raises(DataError, match=f"at line {CHUNK_RECORDS + 3}:"):
            load_logged_data(str(path))

    def test_loader_names_a_line_nested_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text(_GOOD_RECORD + "[" * 100_000 + "\n")
        with pytest.raises(DataError, match="at line 2: maximum recursion depth"):
            load_logged_data(str(path))

    def test_loader_rejects_width_change_in_a_later_chunk(self, tmp_path):
        path = tmp_path / "widths.jsonl"
        path.write_text(_GOOD_RECORD * (CHUNK_RECORDS + 2) + '{"s": 0, "a": 1, "r": [1.0, 0.5, 2.0], "pb": 0.5}\n')
        with pytest.raises(DataError, match="disagree"):
            load_logged_data(str(path))

    def test_loader_rejects_blank_lines_only(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n \n" * (CHUNK_RECORDS + 1))
        with pytest.raises(DataError, match="contains no records"):
            load_logged_data(str(path))

    def test_loader_rejects_non_utf8_bytes_in_a_later_chunk(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes((_GOOD_RECORD * (CHUNK_RECORDS + 5)).encode() + b'{"s": 0, "a": 1, "r": [1.0], "pb": 0.5}\xe9\n')
        with pytest.raises(DataError, match="UTF-8"):
            load_logged_data(str(path))

    def test_loader_round_trip_across_chunks(self, tmp_path):
        env = build_resource_gathering()
        rng = np.random.default_rng(8)
        data = generate_logged_data(env, random_policy(rng, env.n_states, env.n_actions, scale=1.0),
                                    n=2 * CHUNK_RECORDS + 1, seed=9)
        save_logged_data(data, str(tmp_path / "log.jsonl"))
        loaded = load_logged_data(str(tmp_path / "log.jsonl"))
        for name, dtype in (("states", np.int64), ("actions", np.int64), ("rewards", np.float64),
                            ("behavior_probs", np.float64)):
            column = getattr(loaded, name)
            assert np.array_equal(column, getattr(data, name)), name
            assert column.dtype == dtype and column.flags.c_contiguous, name
        assert loaded.rewards.shape == (2 * CHUNK_RECORDS + 1, 3)

    def test_loader_rejects_zero_support(self, tmp_path):
        path = tmp_path / "zero.jsonl"
        path.write_text('{"s": 0, "a": 0, "r": [1.0], "pb": 0.0}\n')
        with pytest.raises(DataError):
            load_logged_data(str(path))


_RECORD = _GOOD_RECORD.rstrip("\n")
_WIDE = '{"s": 0, "a": 1, "r": [1.0, 0.5, 2.0], "pb": 0.5}'
_BAD = '{"s": 0, "a": 1.0, "r": [1.0, 0.5], "pb": 0.5}'
_OPEN = _RECORD[:-1] + ', "x": [{}'   # with the next line "{}]}" a record over two lines


def _log(*lines: str, end: str = "\n") -> str:
    return "\n".join(lines) + end


def _with(**fields) -> str:
    """_RECORD with some field texts replaced."""
    doc = {"s": "0", "a": "1", "r": "[1.0, 0.5]", "pb": "0.5"} | fields
    return "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"


def _bad_at(line: int, total: int) -> str:
    return _log(*(_BAD if k == line else _RECORD for k in range(1, total + 1)))


_C = CHUNK_RECORDS
_LOADER_CASES = {
    "ws-space": _log(" " + _RECORD + "  ", _RECORD),
    "ws-tab": _log("\t" + _RECORD + "\t", _RECORD),
    "ws-formfeed": _log("\x0c" + _RECORD + "\x0c"),
    "ws-nel": _log("\x85" + _RECORD + "\x85"),
    "ws-ideographic": _log("\u3000" + _RECORD + "\u3000"),
    "crlf": _log(_RECORD, _RECORD, end="\r\n").replace("\n", "\r\n"),
    "lone-cr": _log(_RECORD, _RECORD).replace("\n", "\r"),
    "bom": _log("\ufeff" + _RECORD),
    "reordered-keys": _log('{"pb": 0.25, "r": [2, 0.5], "a": 3, "s": 7}', _RECORD),
    "extra-keys": _log(_RECORD[:-1] + ', "t": 3, "note": "x"}'),
    "nested-extra": _log('{"s": 0, "x": {"y": [1, {"z": null}], "w": "\u00e9"}, "a": 1, "r": [1.0, 0.5], "pb": 0.5}'),
    "duplicate-key": _log('{"s": 0, "a": 1, "r": [1.0, 0.5], "pb": 0.5, "s": 2}'),
    "split-record": _log(_RECORD, _OPEN, "{}]}", _RECORD),
    "two-on-one-line": _log(_RECORD, _RECORD + " " + _RECORD, _RECORD),
    "split-then-two": _log(_OPEN, "{}]}", _RECORD + " " + _RECORD),
    "extra-data": _log(_RECORD, _RECORD + " x"),
    "extra-brace": _log(_RECORD, _RECORD + "}"),
    "not-an-object": _log(_RECORD, "[1, 2]", '"s"', "3"),
    "missing-key": _log(_RECORD, '{"s": 0, "a": 1, "r": [1.0]}'),
    "nan": _log(_RECORD, _with(r="[NaN, 0.5]")),
    "infinity": _log(_RECORD, _with(pb="Infinity")),
    "1e400": _log(_with(r="[1e400, 0.5]")),
    "int-beyond-int64": _log(_RECORD, _with(s=str(2 ** 63))),
    "int-beyond-float": _log(_RECORD, _with(r="[1" + "0" * 400 + ", 0.5]")),
    "int-beyond-digit-limit": _log(_RECORD, _with(a="1" * 5000)),
    "bool": _log(_RECORD, _with(s="true")),
    "bool-entry": _log(_RECORD, _with(r="[false, 0.5]")),
    "string": _log(_RECORD, _with(pb='"0.5"')),
    "null": _log(_RECORD, _with(pb="null")),
    "empty-r": _log(_with(r="[]"), _with(r="[]")),
    "width-change-in-chunk": _log(_RECORD, _WIDE),
    "width-change-across-chunks": _log(*[_RECORD] * _C, _WIDE),
    "width-then-type-in-chunk": _log(_RECORD, _WIDE, _BAD),
    "width-then-type-in-next-chunk": _log(_RECORD, _WIDE, *[_RECORD] * _C, _BAD),
    "range-then-type-in-chunk": _log(_with(s=str(2 ** 64)), _BAD),
    "bad-line-1": _bad_at(1, 2 * _C + 3),
    "bad-line-chunk": _bad_at(_C, 2 * _C + 3),
    "bad-line-chunk-plus-1": _bad_at(_C + 1, 2 * _C + 3),
    "bad-line-last": _bad_at(2 * _C + 3, 2 * _C + 3),
    "no-final-newline": _log(_RECORD, _RECORD, end=""),
    "no-final-newline-bad": _log(_RECORD, _BAD, end=""),
    "blank-lines": _log("", _RECORD, "  ", "\t", _RECORD, ""),
    "deep-nesting": _log(_RECORD, "[" * 100_000, _RECORD),
    "deep-nesting-after-bad-line": _log(_RECORD, _BAD, "[" * 100_000),
    "blank-only": _log("", " ", "\u3000"),
    "empty": "",
}


def assert_loaders_agree(path) -> bool:
    """``load_logged_data`` returns what the reference returns, with equal
    bytes and dtypes, or raises the same error type with the same text.
    True if the log was accepted."""
    try:
        expected = load_logged_data_reference(str(path))
    except Exception as exc:   # the reference's own error is the expectation
        with pytest.raises(type(exc)) as info:
            load_logged_data(str(path))
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return False
    loaded = load_logged_data(str(path))
    for name in ("states", "actions", "rewards", "behavior_probs"):
        got, want = getattr(loaded, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    return True


_WHITESPACE = st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\u3000", "\r"])
_NUMBER = st.floats() | st.integers(-(2 ** 70), 2 ** 70) | st.sampled_from([True, None, "1"])


@st.composite
def _good_line(draw) -> str:
    """A record the loader accepts, two objectives wide, in any key order,
    maybe with an extra key and whitespace around it."""
    doc = {"s": draw(st.integers(0, 2 ** 63 - 1)), "a": draw(st.integers(0, 3)),
           "r": draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-5, 5),
                              min_size=2, max_size=2)),
           "pb": draw(st.floats(1e-3, 1.0) | st.just(1))}
    if draw(st.booleans()):
        doc = dict(reversed(doc.items())) | {"x": [1, {"y": None}]}
    return draw(_WHITESPACE) + json.dumps(doc) + draw(_WHITESPACE)


@st.composite
def _any_line(draw) -> str:
    """A record whose fields may have any JSON type or range."""
    doc = {"s": draw(st.integers(-3, 2 ** 64) | _NUMBER), "a": draw(st.integers(0, 5)),
           "r": draw(st.lists(st.floats() | st.integers(-5, 5), min_size=0, max_size=3)
                     | st.sampled_from([[True], "r", {}])),
           "pb": draw(_NUMBER)}
    return draw(_WHITESPACE) + json.dumps(doc) + draw(_WHITESPACE)


@st.composite
def _log_lines(draw) -> list[str]:
    """Half the logs hold good records and blank lines only; the other half
    mix in bad records, junk, and lines split or joined."""
    if draw(st.booleans()):
        return draw(st.lists(st.one_of(_good_line(), _good_line(), _WHITESPACE), max_size=12))
    junk = st.text(alphabet=' {}[]":,0123456789.eEtruefalsnx\t', max_size=12)
    lines = draw(st.lists(st.one_of(_good_line(), _good_line(), _any_line(), junk, _WHITESPACE), max_size=12))
    if lines and draw(st.booleans()):   # split one line in two
        k = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[k])))
        lines[k:k + 1] = [lines[k][:cut], lines[k][cut:]]
    if len(lines) > 1 and draw(st.booleans()):   # join two lines into one
        k = draw(st.integers(0, len(lines) - 2))
        lines[k:k + 2] = [lines[k] + draw(_WHITESPACE) + lines[k + 1]]
    return lines


class TestLoaderMatchesReference:
    """``load_logged_data`` against ``util.load_logged_data_reference``, the
    one-``json.loads``-per-line loader it replaced."""

    @pytest.mark.parametrize("name", list(_LOADER_CASES))
    def test_fixed_case(self, tmp_path, name):
        path = tmp_path / "log.jsonl"
        path.write_bytes(_LOADER_CASES[name].encode("utf-8"))
        assert_loaders_agree(path)

    @pytest.mark.parametrize("later", [1, _C, _C + 1])
    def test_non_utf8_bytes(self, tmp_path, later):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(_log(*[_RECORD] * later).encode() + b'{"s": 0, "a": 1, "r": [1.0, 0.5], "pb": 0.5}\xe9\n')
        assert_loaders_agree(path)

    @settings(max_examples=300, deadline=None)
    @given(lines=_log_lines(), final_newline=st.booleans(), chunk=st.integers(1, 4))
    def test_random_logs(self, tmp_path_factory, lines, final_newline, chunk):
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        path.write_bytes(_log(*lines, end="\n" if final_newline else "").encode("utf-8"))
        with mock.patch.object(opeval, "CHUNK_RECORDS", chunk):
            assert_loaders_agree(path)

    def test_good_logs_take_the_one_pass_decode(self, tmp_path):
        env = build_resource_gathering()
        data = generate_logged_data(env, uniform_policy(env), n=2 * _C + 1, seed=3)
        path = tmp_path / "log.jsonl"
        save_logged_data(data, str(path))
        path.write_text(" " + path.read_text().replace("\n", "\r\n\n \u3000", 7))
        with mock.patch.object(opeval, "_check_lines", side_effect=AssertionError("per-line path taken")):
            assert assert_loaders_agree(path)


def assert_writer_matches_reference(data: LoggedDataset, tmp_path):
    save_logged_data(data, str(tmp_path / "fast.jsonl"))
    save_logged_data_reference(data, str(tmp_path / "reference.jsonl"))
    written = (tmp_path / "fast.jsonl").read_bytes()
    assert written == (tmp_path / "reference.jsonl").read_bytes()
    assert written.count(b"\n") == len(data)

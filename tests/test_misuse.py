"""The misuse table, first slice: every entry that turns an array argument
into an array (``errors.check_array``) rejects a wrong array with its
documented ``MorlabError`` subclass, never with a silently wrong number or a
bare numpy error.

One row per (callable, argument), crossed with the misuse kinds that apply
to the argument: an index array must hold integers, any other array finite
numbers. Every call runs on fishwood (S = 4, A = 2, M = 2) with default
features (dim 3)."""

import numpy as np
import pytest

from morlab import (
    AVERAGE,
    DISCOUNTED,
    DataError,
    LoggedDataset,
    ParameterError,
    PolicyEvaluation,
    PolicyParams,
    TabularMomdp,
    build_fishwood,
    compute_stationary_distribution,
    default_feature_map,
    expected_td_gradient,
    expected_td_update,
    ncis_scores,
    solve_min_norm,
    uniform_policy,
)
from morlab.critic import CriticState, expected_td_errors, run_critic, td_errors
from morlab.mgda import SimplexWeights
from morlab.momdp import MarkovSampler

ENV = build_fishwood(0.3, 0.6)
FEATURES = default_feature_map(ENV.n_states)
POLICY = uniform_policy(ENV)
PROBS = POLICY.probability_matrix()
EVALUATION = PolicyEvaluation(ENV, POLICY, DISCOUNTED)
BATCH = MarkovSampler(ENV, 3).sample_policy_batch(PROBS, 20)
ARRAYS = {name: getattr(ENV, name) for name in ("transition", "reward", "discounts",
                                                  "initial_distribution")}
LOG = {"states": np.array([0, 1]), "actions": np.array([0, 1]),
       "rewards": np.array([[1.0], [0.0]]), "behavior_probs": np.array([0.5, 0.5])}


def critic(**fields):
    """A 2 x 10-step critic for fishwood with default features."""
    return CriticState(**{"weights": np.zeros((2, 3)), "avg_reward": np.zeros(2), "step_size": 0.1,
                          "batch_size": 10, "n_iterations": 2, **fields})


def with_part(part, value):
    batch = list(BATCH)
    batch[part] = value
    return batch


def with_field(fields, name, value):
    return {**fields, name: value}


# (row id, a good value, index array?, error type, the call with the argument replaced)
ROWS = [
    ("CriticState.weights", np.zeros((2, 3)), False, ParameterError,
     lambda v: critic(weights=v)),
    ("CriticState.avg_reward", np.zeros(2), False, ParameterError,
     lambda v: critic(avg_reward=v)),
    ("td_errors.weights", np.zeros((2, 3)), False, ParameterError,
     lambda v: td_errors(ENV, FEATURES, v, BATCH, AVERAGE, np.zeros(2))),
    ("td_errors.mu", np.zeros(2), False, ParameterError,
     lambda v: td_errors(ENV, FEATURES, np.zeros((2, 3)), BATCH, AVERAGE, v)),
    *[(f"td_errors.batch[{part}]", BATCH[part], True, ParameterError,
       lambda v, part=part: td_errors(ENV, FEATURES, np.zeros((2, 3)), with_part(part, v),
                                      AVERAGE, np.zeros(2)))
      for part in range(3)],
    *[(f"run_critic.batch[{part}]", BATCH[part], True, ParameterError,
       lambda v, part=part: run_critic(ENV, with_part(part, v), critic(), FEATURES, AVERAGE))
      for part in range(3)],
    *[(f"{entry.__name__}.w", np.zeros(3), False, ParameterError,
       lambda v, entry=entry: entry(EVALUATION, FEATURES, v, 0))
      for entry in (expected_td_errors, expected_td_update, expected_td_gradient)],
    ("SimplexWeights.values", np.array([0.5, 0.5]), False, ParameterError, SimplexWeights),
    ("solve_min_norm.gradients", np.eye(3, 4), False, ParameterError, solve_min_norm),
    *[(f"TabularMomdp.{name}", good, False, ParameterError,
       lambda v, name=name: TabularMomdp(4, 2, 2, **with_field(ARRAYS, name, v)))
      for name, good in ARRAYS.items()],
    ("sample_policy_batch.action_probs", PROBS, False, ParameterError,
     lambda v: MarkovSampler(ENV, 0).sample_policy_batch(v, 5)),
    ("compute_stationary_distribution.P", EVALUATION.P, False, ParameterError,
     compute_stationary_distribution),
    ("build_fishwood.discount", np.array([0.9, 0.8]), False, ParameterError,
     lambda v: build_fishwood(0.3, 0.6, v)),
    *[(f"LoggedDataset.{name}", good, name in ("states", "actions"), DataError,
       lambda v, name=name: LoggedDataset(**with_field(LOG, name, v)))
      for name, good in LOG.items()],
    ("PolicyParams.theta", np.zeros(8), False, ParameterError, lambda v: PolicyParams(v, 4, 2)),
]


def misuses(good: np.ndarray, indices: bool) -> dict:
    """The misuse kinds of an argument whose good value is ``good``."""
    rows = good.tolist()
    if good.ndim == 1:
        ragged = [rows, rows[:-1]]
    else:
        ragged = [rows[0][:-1], *rows[1:]]
    kinds = {"str": good.astype(str), "bool": good.astype(bool), "None": None,
             "object": good.astype(object), "ragged": ragged, "shape": good[..., None]}
    if indices:
        kinds["float"] = good.astype(float)
    else:
        for name, bad in (("nan", np.nan), ("inf", np.inf)):
            kinds[name] = good.astype(float)
            kinds[name].flat[-1] = bad
    return kinds


CASES = [pytest.param(call, value, error, id=f"{row}-{kind}")
         for row, good, indices, error, call in ROWS
         for kind, value in misuses(good, indices).items()]


@pytest.mark.parametrize("call, good", [pytest.param(call, good, id=row)
                                        for row, good, _, _, call in ROWS])
def test_good_value_is_accepted(call, good):
    call(good)


@pytest.mark.parametrize("call, value, error", CASES)
def test_misuse_raises_its_documented_type(call, value, error):
    with pytest.raises(error) as e:
        call(value)
    assert e.value.exit_code == 2


# the cases that returned a number, or escaped as a bare numpy or Python
# error, before the one array check
S, A, NS = BATCH
REPORTED = [
    pytest.param(lambda: ncis_scores(LoggedDataset([0.9, 2.7], [0, 1], [[1.0], [0.0]], [0.5, 0.5]),
                                     POLICY), DataError, id="float-states-scored"),
    pytest.param(lambda: td_errors(ENV, FEATURES, np.zeros((2, 3)), (S > 1, A > 0, NS > 1),
                                   AVERAGE, np.zeros(2)), ParameterError, id="td_errors-bool-batch"),
    pytest.param(lambda: run_critic(ENV, (S > 1, A > 0, NS > 1), critic(), FEATURES, AVERAGE),
                 ParameterError, id="run_critic-bool-batch"),
    pytest.param(lambda: td_errors(ENV, FEATURES, np.zeros((2, 3)), (S * 1.0, A * 1.0, NS * 1.0),
                                   DISCOUNTED, np.zeros(2)), ParameterError, id="td_errors-float-batch"),
    pytest.param(lambda: run_critic(ENV, (S * 1.0, A * 1.0, NS * 1.0), critic(), FEATURES, DISCOUNTED),
                 ParameterError, id="run_critic-float-batch"),
    pytest.param(lambda: PolicyParams([True] * 8, 4, 2), ParameterError, id="bool-theta"),
    pytest.param(lambda: PolicyParams(["0.5"] * 8, 4, 2), ParameterError, id="str-theta"),
    pytest.param(lambda: critic(weights=[["0.5"] * 3] * 2), ParameterError, id="str-critic-weights"),
    pytest.param(lambda: SimplexWeights(["0.5", "0.5"]), ParameterError, id="str-simplex-weights"),
    pytest.param(lambda: solve_min_norm([["0.5", "1"], ["1", "0.5"]]), ParameterError,
                 id="str-gradients"),
    pytest.param(lambda: TabularMomdp(4, 2, 2, **with_field(ARRAYS, "reward",
                                                            ENV.reward.astype(str))),
                 ParameterError, id="str-reward"),
    pytest.param(lambda: MarkovSampler(ENV, 0).sample_policy_batch(PROBS.astype(str), 5),
                 ParameterError, id="str-action-probs"),
    pytest.param(lambda: build_fishwood(0.3, 0.6, "0.9"), ParameterError, id="str-discount"),
]


@pytest.mark.parametrize("call, error", REPORTED)
def test_reported_case_raises(call, error):
    with pytest.raises(error):
        call()


def test_lists_read_as_the_arrays_they_hold():
    # a list batch and a list kernel used to end in a bare AttributeError
    weights = np.arange(6.0).reshape(2, 3) / 10
    lists = [x.tolist() for x in BATCH]
    for setting in (AVERAGE, DISCOUNTED):
        for got, want in zip(td_errors(ENV, FEATURES, weights, lists, setting, np.ones(2)),
                             td_errors(ENV, FEATURES, weights, BATCH, setting, np.ones(2))):
            assert np.array_equal(got, want)
        got, want = (run_critic(ENV, batch, critic(weights=weights), FEATURES, setting)
                     for batch in (lists, BATCH))
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.avg_reward, want.avg_reward)
    kernel = [[0.5, 0.5], [0.5, 0.5]]
    assert np.array_equal(compute_stationary_distribution(kernel),
                          compute_stationary_distribution(np.array(kernel)))


"""The misuse table: every public entry rejects a wrong argument with its
documented ``MorlabError`` subclass (exit code 2), never with a silently wrong
number or a bare numpy or Python error.

One row per (callable, argument), crossed with the misuse kinds that apply
to the argument:
- an array (``errors.check_array``): an index array must hold integers, any
  other array finite numbers, inside its interval if it has one;
- a float (``errors.check_float``): a real number, not a bool and not an int
  too large for a float, in its interval;
- an integer (``errors.check_integer``): an int, not a bool, from its minimum;
- an object (a model, a policy, features, an evaluation, a config or a
  dataset): an instance of its type, never None.

Every public callable that takes an argument, and every module-only building
block that README.md lists, has a row, or an entry in ``EXEMPT`` with its
reason. Every call runs on fishwood (S = 4, A = 2, M = 2)
with default features (dim 3)."""

import inspect
import math
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import morlab
from morlab import (
    AVERAGE,
    DISCOUNTED,
    DataError,
    FeatureMap,
    LoggedDataset,
    MoacConfig,
    MomentumSchedule,
    ParameterError,
    PolicyEvaluation,
    PolicyParams,
    TabularMomdp,
    build_fishwood,
    build_resource_gathering,
    complete_feature_map,
    compute_stationary_distribution,
    compute_td_fixed_point,
    compute_zeta_approx,
    default_feature_map,
    estimate_gradient_lipschitz,
    exact_policy_gradient,
    expected_td_gradient,
    expected_td_update,
    generate_logged_data,
    ncis_scores,
    pareto_stationarity_gap,
    run_moac,
    solve_min_norm,
    theory_actor_step,
    theory_critic_step,
    uniform_policy,
)
from morlab.critic import CriticState, expected_td_errors, run_critic, td_errors
from morlab.driver import estimate_objective_gradients
from morlab.errors import check_array, check_float, check_integer
from morlab.mgda import SimplexWeights, momentum_update, uniform_weights
from morlab.momdp import MarkovSampler, value_functions

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
DATASET = LoggedDataset(**LOG)
FIXED_POINT = compute_td_fixed_point(EVALUATION, FEATURES)
LAM = SimplexWeights(np.array([0.5, 0.5]))
CONFIG = MoacConfig(DISCOUNTED, 1, 4, 0.1, MomentumSchedule("power", 1.0), 0.1, 1, 4)


def critic(**fields):
    """A 2 x 10-step critic for fishwood with default features."""
    return CriticState(**{"weights": np.zeros((2, 3)), "avg_reward": np.zeros(2), "step_size": 0.1,
                          "batch_size": 10, "n_iterations": 2, **fields})


def config(**fields):
    """A one-iteration fishwood config, ``fields`` replaced."""
    return MoacConfig(**{**vars(CONFIG), **fields})


def with_part(part, value):
    batch = list(BATCH)
    batch[part] = value
    return batch


def with_field(fields, name, value):
    return {**fields, name: value}


def gradients(weights=np.zeros((2, 3)), batch=BATCH, mu=np.zeros(2), env=ENV, features=FEATURES):
    """The actor's gradient estimates on the fishwood batch, one argument replaced."""
    return estimate_objective_gradients(env, POLICY, weights, batch, AVERAGE, features, mu, PROBS)


INF = np.inf
INDEX_RANGES = [(0, 4, "[)"), (0, 2, "[)"), (0, 4, "[)")]   # states, actions, next states
PROBABILITY, DISCOUNT = (0, 1, "[]"), (0, 1, "()")
# (row id, a good value, index array?, error type, the call with the argument
# replaced, and optionally the interval (low, high, ends) of its entries)
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
                                      AVERAGE, np.zeros(2)), INDEX_RANGES[part])
      for part in range(3)],
    *[(f"run_critic.batch[{part}]", BATCH[part], True, ParameterError,
       lambda v, part=part: run_critic(ENV, with_part(part, v), critic(), FEATURES, AVERAGE),
       INDEX_RANGES[part])
      for part in range(3)],
    ("estimate_objective_gradients.critic_weights", np.zeros((2, 3)), False, ParameterError,
     lambda v: gradients(weights=v)),
    ("estimate_objective_gradients.mu", np.zeros(2), False, ParameterError, lambda v: gradients(mu=v)),
    *[(f"estimate_objective_gradients.batch[{part}]", BATCH[part], True, ParameterError,
       lambda v, part=part: gradients(batch=with_part(part, v)), INDEX_RANGES[part])
      for part in range(3)],
    *[(f"{entry.__name__}.w", np.zeros(3), False, ParameterError,
       lambda v, entry=entry: entry(EVALUATION, FEATURES, v, 0))
      for entry in (expected_td_errors, expected_td_update, expected_td_gradient)],
    ("SimplexWeights.values", np.array([0.5, 0.5]), False, ParameterError, SimplexWeights),
    ("solve_min_norm.gradients", np.eye(3, 4), False, ParameterError, solve_min_norm),
    *[(f"TabularMomdp.{name}", good, False, ParameterError,
       lambda v, name=name: TabularMomdp(4, 2, 2, **with_field(ARRAYS, name, v)),
       DISCOUNT if name == "discounts" else PROBABILITY)   # rewards in [0, r_max], r_max = 1
      for name, good in ARRAYS.items()],
    ("sample_policy_batch.action_probs", PROBS, False, ParameterError,
     lambda v: MarkovSampler(ENV, 0).sample_policy_batch(v, 5), PROBABILITY),
    ("compute_stationary_distribution.P", EVALUATION.P, False, ParameterError,
     compute_stationary_distribution, (0, INF, "[)")),
    ("build_fishwood.discount", np.array([0.9, 0.8]), False, ParameterError,
     lambda v: build_fishwood(0.3, 0.6, v), DISCOUNT),
    *[(f"LoggedDataset.{name}", good, name in ("states", "actions"), DataError,
       lambda v, name=name: LoggedDataset(**with_field(LOG, name, v)),
       (0, 1, "(]") if name == "behavior_probs" else None)
      for name, good in LOG.items()],
    ("PolicyParams.theta", np.zeros(8), False, ParameterError, lambda v: PolicyParams(v, 4, 2)),
]


def misuses(good: np.ndarray, indices: bool, within: tuple | None = None) -> dict:
    """The misuse kinds of an argument whose good value is ``good``, its
    entries inside ``within``, a (low, high, ends), if given."""
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
    if within:   # the last entry on an open end, or just past a closed one
        low, high, ends = within
        for name, end, closed, outward in (("below", low, ends[0] == "[", -1),
                                           ("above", high, ends[1] == "]", 1)):
            past = end + outward if indices else np.nextafter(end, outward * INF)   # a step, or an ulp
            kinds[name] = good.copy()
            kinds[name].flat[-1] = past if closed else end
    return kinds


CASES = [pytest.param(call, value, error, id=f"{row}-{kind}")
         for row, good, indices, error, call, *within in ROWS
         for kind, value in misuses(good, indices, *within).items()]


@pytest.mark.parametrize("call, good", [pytest.param(call, good, id=row)
                                        for row, good, _, _, call, *_ in ROWS])
def test_good_value_is_accepted(call, good):
    call(good)


@pytest.mark.parametrize("call, value, error", CASES)
def test_misuse_raises_its_documented_type(call, value, error):
    with pytest.raises(error) as e:
        call(value)
    assert e.value.exit_code == 2


# (row id, a good value, low, high, ends, the call with the argument replaced):
# the argument is a real number, not a bool, from low to high, each end
# closed where ``ends`` has a bracket
FLOATS = [
    ("CriticState.step_size", 0.1, 0, INF, "()", lambda v: critic(step_size=v)),
    *[(f"MoacConfig.{name}", 0.1, 0, INF, "()", lambda v, name=name: config(**{name: v}))
      for name in ("actor_step_size", "critic_step_size")],
    ("theory_actor_step.lipschitz_estimate", 3.0, 0, INF, "(]", theory_actor_step),
    ("estimate_gradient_lipschitz.radius", 0.5, 0, INF, "()",
     lambda v: estimate_gradient_lipschitz(ENV, DISCOUNTED, 1, v)),
    ("MomentumSchedule.value[constant]", 0.5, 0, 1, "[]", lambda v: MomentumSchedule("constant", v)),
    ("MomentumSchedule.value[power]", 1.0, 0, INF, "[)", lambda v: MomentumSchedule("power", v)),
    ("momentum_update.eta_t", 0.5, 0, 1, "[]", lambda v: momentum_update(LAM, LAM, v)),
    ("TabularMomdp.r_max", 1.0, 0, INF, "()", lambda v: TabularMomdp(4, 2, 2, **ARRAYS, r_max=v)),
    ("build_fishwood.fish_proba", 0.3, 0, 1, "()", lambda v: build_fishwood(v, 0.6)),
    ("build_fishwood.wood_proba", 0.6, 0, 1, "()", lambda v: build_fishwood(0.3, v)),
    ("build_resource_gathering.attack_prob", 0.1, 0, 1, "()",
     lambda v: build_resource_gathering(0.9, v)),
    ("ncis_scores.cap", 10.0, 0, INF, "(]", lambda v: ncis_scores(DATASET, POLICY, v)),
]


def float_misuses(good: float, low: float, high: float, ends: str) -> dict:
    """The misuse kinds of a float argument in the interval from ``low`` to ``high``."""
    kinds = {"str": str(good), "bool": True, "None": None, "nan": np.nan, "huge-int": 10 ** 400,
             "unprintable-int": 10 ** 5000,   # past the 4,300 digits that repr allows
             "below": low if ends[0] == "(" else np.nextafter(low, -INF)}
    if high < INF:
        kinds["above"] = high if ends[1] == ")" else np.nextafter(high, INF)
    if high < INF or ends[1] == ")":
        kinds["inf"] = INF
    return kinds


# (row id, a good value, minimum, the call with the argument replaced)
INTEGERS = [
    ("MomentumSchedule.eta.t", 3, 1, lambda v: MomentumSchedule("power", 1.0).eta(v)),
    ("generate_logged_data.n", 5, 1, lambda v: generate_logged_data(ENV, POLICY, v, 0)),
    ("generate_logged_data.seed", 0, 0, lambda v: generate_logged_data(ENV, POLICY, 5, v)),
    ("FeatureMap.n_states", 4, 1, lambda v: FeatureMap(v, 1)),
    ("FeatureMap.dim", 3, 1, lambda v: FeatureMap(4, v)),
    ("default_feature_map.n_states", 4, 2, default_feature_map),   # dim n_states - 1 >= 1
    ("complete_feature_map.n_states", 4, 1, complete_feature_map),
    ("MarkovSampler.seed", 0, 0, lambda v: MarkovSampler(ENV, v)),
    ("sample_policy_batch.n", 5, 0, lambda v: MarkovSampler(ENV, 0).sample_policy_batch(PROBS, v)),
    ("uniform_weights.n", 2, 1, uniform_weights),
    ("CriticState.zeros.n_objectives", 2, 1, lambda v: CriticState.zeros(v, 3, 0.1, 1, 1)),
    ("CriticState.zeros.feature_dim", 3, 1, lambda v: CriticState.zeros(2, v, 0.1, 1, 1)),
]

# (row id, a good value, a value of a wrong type, the call with the argument
# replaced); the wrong value has the attributes a duck-typed read would try first
OBJECTS = [
    ("PolicyEvaluation.env", ENV, POLICY, lambda v: PolicyEvaluation(v, POLICY, AVERAGE)),
    ("PolicyEvaluation.policy", POLICY, ENV, lambda v: PolicyEvaluation(ENV, v, AVERAGE)),
    ("td_errors.env", ENV, EVALUATION,
     lambda v: td_errors(v, FEATURES, np.zeros((2, 3)), BATCH, AVERAGE, np.zeros(2))),
    ("td_errors.features", FEATURES, ENV,
     lambda v: td_errors(ENV, v, np.zeros((2, 3)), BATCH, AVERAGE, np.zeros(2))),
    ("run_critic.env", ENV, EVALUATION, lambda v: run_critic(v, BATCH, critic(), FEATURES, AVERAGE)),
    ("run_critic.features", FEATURES, ENV, lambda v: run_critic(ENV, BATCH, critic(), v, AVERAGE)),
    ("compute_td_fixed_point.evaluation", EVALUATION, ENV,
     lambda v: compute_td_fixed_point(v, FEATURES)),
    ("compute_td_fixed_point.features", FEATURES, ENV,
     lambda v: compute_td_fixed_point(EVALUATION, v)),
    ("expected_td_errors.features", FEATURES, ENV,
     lambda v: expected_td_errors(EVALUATION, v, np.zeros(3), 0)),
    ("compute_zeta_approx.features", FEATURES, ENV,
     lambda v: compute_zeta_approx(EVALUATION, FIXED_POINT, v)),
    ("exact_policy_gradient.evaluation", EVALUATION, ENV, exact_policy_gradient),
    ("pareto_stationarity_gap.evaluation", EVALUATION, ENV, pareto_stationarity_gap),
    ("run_moac.env", ENV, EVALUATION, lambda v: run_moac(v, CONFIG)),
    ("run_moac.config", CONFIG, vars(CONFIG), lambda v: run_moac(ENV, v)),
    ("ncis_scores.dataset", DATASET, LOG, lambda v: ncis_scores(v, POLICY)),
    ("ncis_scores.candidate", POLICY, ENV, lambda v: ncis_scores(DATASET, v)),
    ("uniform_policy.env", ENV, POLICY, uniform_policy),
    ("theory_critic_step.fixed_point", FIXED_POINT, EVALUATION, theory_critic_step),
    ("generate_logged_data.env", ENV, EVALUATION, lambda v: generate_logged_data(v, POLICY, 5, 0)),
    ("generate_logged_data.behavior", POLICY, ENV, lambda v: generate_logged_data(ENV, v, 5, 0)),
    ("estimate_gradient_lipschitz.env", ENV, POLICY,
     lambda v: estimate_gradient_lipschitz(v, DISCOUNTED, 1)),
    *[(f"{entry.__name__}.evaluation", EVALUATION, ENV,
       lambda v, entry=entry: entry(v, FEATURES, np.zeros(3), 0))
      for entry in (expected_td_errors, expected_td_update, expected_td_gradient)],
    ("compute_zeta_approx.evaluation", EVALUATION, ENV,
     lambda v: compute_zeta_approx(v, FIXED_POINT, FEATURES)),
    ("compute_zeta_approx.fixed_point", FIXED_POINT, EVALUATION,
     lambda v: compute_zeta_approx(EVALUATION, v, FEATURES)),
    ("MarkovSampler.env", ENV, EVALUATION, lambda v: MarkovSampler(v, 0)),
    ("momentum_update.prev", LAM, LAM.values, lambda v: momentum_update(v, LAM, 0.5)),
    ("momentum_update.qp_solution", LAM, LAM.values, lambda v: momentum_update(LAM, v, 0.5)),
    ("value_functions.env", ENV, POLICY, lambda v: value_functions(v, POLICY, AVERAGE)),
    ("value_functions.policy", POLICY, ENV, lambda v: value_functions(ENV, v, AVERAGE)),
    ("estimate_objective_gradients.env", ENV, EVALUATION, lambda v: gradients(env=v)),
    ("estimate_objective_gradients.features", FEATURES, ENV, lambda v: gradients(features=v)),
]

SCALAR_CASES = [
    *[pytest.param(call, value, id=f"{row}-{kind}")
      for row, good, low, high, ends, call in FLOATS
      for kind, value in float_misuses(good, low, high, ends).items()],
    *[pytest.param(call, value, id=f"{row}-{kind}")
      for row, good, minimum, call in INTEGERS
      for kind, value in {"str": str(good), "bool": True, "None": None, "float": float(good),
                          "below": minimum - 1, "unprintable-below": -10 ** 5000}.items()],
]


@pytest.mark.parametrize("call, good", [
    *[pytest.param(call, good, id=row) for row, good, *_, call in FLOATS + INTEGERS + OBJECTS],
    *[pytest.param(call, np.float64(good), id=f"{row}-numpy") for row, good, *_, call in FLOATS],
    *[pytest.param(call, np.int64(good), id=f"{row}-numpy") for row, good, _, call in INTEGERS],
])
def test_good_scalar_or_object_is_accepted(call, good):
    call(good)


@pytest.mark.parametrize("call, value", SCALAR_CASES)
def test_scalar_misuse_raises_parameter_error(call, value):
    with pytest.raises(ParameterError) as e:
        call(value)
    assert e.value.exit_code == 2
    # the message names the value; an int beyond the largest float, by its digit count
    huge = isinstance(value, int) and abs(value) > sys.float_info.max
    assert (f"int of {round(math.log10(abs(value))) + 1} digits" if huge else repr(value)) in str(e.value)


@pytest.mark.parametrize("call, value, kind, name", [
    pytest.param(call, value, type(good).__name__, row.rsplit(".", 1)[1], id=f"{row}-{kind}")
    for row, good, wrong, call in OBJECTS
    for kind, value in (("None", None), ("wrong-type", wrong))])
def test_object_misuse_names_argument_and_type(call, value, kind, name):
    with pytest.raises(ParameterError, match=f"{name} must be a {kind}") as e:
        call(value)
    assert e.value.exit_code == 2


@pytest.mark.parametrize("value", [1, 0.5, np.float32(0.5), np.float64(0.5), np.int64(1),
                                   np.uint8(1), 0, 2], ids=repr)
def test_check_float_takes_real_numbers_in_its_interval(value):
    if 0 < value <= 1:
        check_float("x", value, 0, 1, "(]")
    else:
        with pytest.raises(ParameterError, match=r"x must be positive and at most 1, got"):
            check_float("x", value, 0, 1, "(]")


@pytest.mark.parametrize("value", [True, np.True_, "0.5", None, 0.5 + 0j, [0.5], np.array(0.5),
                                   np.nan, -np.inf, pytest.param(10 ** 400, id="huge-int"),
                                   pytest.param(-10 ** 400, id="huge-negative-int")], ids=repr)
def test_check_float_coerces_nothing(value):
    with pytest.raises(ParameterError):
        check_float("x", value, -INF, INF, "()")


def test_check_float_takes_an_int_a_float_can_hold():
    check_float("x", 10 ** 308, -INF, INF, "()")
    check_float("x", -10 ** 308, -INF, INF, "()")


# callables that take an argument but need no row here, with the reason
EXEMPT = {
    **{name: "an exception type: its argument is a message"
       for name in ("ConfigError", "ConvergenceError", "DataError", "DivergenceError",
                    "ModelError", "MorlabError", "ParameterError")},
    "MetricsRecord": "a telemetry row that run_moac fills in; it checks nothing by design",
    "MoacResult": "the record run_moac returns; it checks nothing by design",
    **{name: "a path function: tests/test_cli.py feeds it bad files through the CLI"
       for name in ("load_env_json", "save_env_json", "load_logged_data", "save_logged_data",
                    "load_policy_json", "save_policy_json")},
}


# the building blocks that the package does not export and README.md lists
# as "module only"
MODULE_ONLY = {entry.__name__: entry for entry in (
    MarkovSampler, value_functions, td_errors, run_critic, CriticState, momentum_update,
    SimplexWeights, uniform_weights, estimate_objective_gradients)}


def test_module_only_names_are_those_readme_lists():
    names = set()
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines():
        if "module only:" in line:
            listed = line.split("module only:", 1)[1]
            while re.search(r"\([^()]*\)", listed):   # drop the notes in parentheses, inner first
                listed = re.sub(r"\([^()]*\)", "", listed)
            names.update(re.findall(r"`(\w+)`", listed))
    assert names == MODULE_ONLY.keys()


def test_every_public_callable_has_rows():
    row_ids = [row for row, *_ in ROWS + FLOATS + INTEGERS + OBJECTS]
    covered = {row.split(".")[0] for row in row_ids}
    public = {name for name, value in {**vars(morlab), **MODULE_ONLY}.items()
              if not name.startswith("_") and callable(value) and not isinstance(value, types.ModuleType)
              and inspect.signature(value).parameters}
    assert sorted(public - covered - EXEMPT.keys()) == []
    assert sorted(EXEMPT.keys() & covered) == []   # an exemption goes once its rows exist
    assert EXEMPT.keys() <= public


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
    # the cases that ended in a bare TypeError or AttributeError, or read a
    # bool as 1.0, before the one scalar check and the object checks
    *[pytest.param(call, ParameterError, id=case) for case, call in (
        ("str-fish_proba", lambda: build_fishwood("0.25", 0.65)),
        ("str-attack_prob", lambda: build_resource_gathering(0.9, "0.1")),
        ("str-r_max", lambda: TabularMomdp(4, 2, 2, **ARRAYS, r_max="1.0")),
        ("str-actor_step_size", lambda: config(actor_step_size="0.5")),
        ("str-critic-step-size", lambda: CriticState(np.zeros((2, 3)), np.zeros(2), "0.1", 1, 1)),
        ("str-eta_t", lambda: momentum_update(LAM, LAM, "0.5")),
        ("str-constant-momentum", lambda: MomentumSchedule("constant", "0.5")),
        ("str-cap", lambda: ncis_scores(DATASET, POLICY, cap="10")),
        ("str-lipschitz", lambda: theory_actor_step("3")),
        ("str-radius", lambda: estimate_gradient_lipschitz(ENV, DISCOUNTED, 2, "0.5")),
        ("None-cap", lambda: ncis_scores(DATASET, POLICY, cap=None)),
        ("None-eta_t", lambda: momentum_update(LAM, LAM, None)),
        ("None-power-exponent", lambda: MomentumSchedule("power", None)),
        ("bool-actor_step_size", lambda: config(actor_step_size=True)),
        ("bool-critic-step-size", lambda: CriticState(np.zeros((2, 3)), np.zeros(2), True, 1, 1)),
        ("bool-lipschitz", lambda: theory_actor_step(True)),
        ("list-features", lambda: config(features=["default"])),
        ("str-eta-t", lambda: MomentumSchedule("power", 1).eta("3")),
        ("None-policy", lambda: PolicyEvaluation(ENV, None, AVERAGE)),
        ("None-env", lambda: PolicyEvaluation(None, POLICY, AVERAGE)),
        ("None-fixed-point-features", lambda: compute_td_fixed_point(EVALUATION, None)),
        ("None-td_errors-env", lambda: td_errors(None, FEATURES, np.zeros((2, 3)), BATCH, AVERAGE,
                                                 np.zeros(2))),
        ("None-gradient-evaluation", lambda: exact_policy_gradient(None)),
        ("None-candidate", lambda: ncis_scores(DATASET, None)),
        ("None-run_moac-env", lambda: run_moac(None, CONFIG)),
    )],
    # open: the first returns [0.5, 0.5], the second ends in a ModelError. The
    # kernel's row sums go unchecked because PolicyEvaluation.d passes its own
    # P_pi, whose rows carry the model's row error plus rounding
    *[pytest.param(call, ParameterError, id=case, marks=pytest.mark.xfail(strict=True))
      for case, call in (
        ("rows-summing-to-1.2-and-0.8-kernel",
         lambda: compute_stationary_distribution([[0.6, 0.6], [0.4, 0.4]])),
        ("rows-summing-to-1.1-and-1-kernel",
         lambda: compute_stationary_distribution([[0.5, 0.6], [0.5, 0.5]])),
    )],
    # the cases that built a model or escaped as a bare Python error before
    # the one range contract and the module-only rows
    *[pytest.param(call, ParameterError, id=case) for case, call in (
        ("transition-entry-above-1", lambda: TabularMomdp(
            1, 1, 1, [[[1 + 5e-13]]], [[[0.0]]], [0.9], [1.0])),
        ("initial-entry-above-1", lambda: TabularMomdp(
            2, 1, 1, [[[0.0, 1.0]], [[1.0, 0.0]]], [[[0.0], [0.0]]], [0.9], [1 + 5e-13, 0.0])),
        ("unprintable-float", lambda: check_float("x", 10 ** 5000, 0, INF)),
        ("unprintable-integer", lambda: check_integer("seed", -10 ** 5000, 0)),
        ("None-sampler-env", lambda: MarkovSampler(None, 0)),
        ("None-momentum-prev", lambda: momentum_update(None, LAM, 0.5)),
        ("str-uniform-weights", lambda: uniform_weights("3")),
        ("zero-uniform-weights", lambda: uniform_weights(0)),
        ("str-critic-zeros", lambda: CriticState.zeros("2", 3, 0.1, 1, 1)),
        ("int-metadata", lambda: TabularMomdp(4, 2, 2, **ARRAYS, metadata=5)),
        ("list-metadata", lambda: TabularMomdp(4, 2, 2, **ARRAYS, metadata=[("kind", "fishwood")])),
    )],
]


@pytest.mark.parametrize("call, error", REPORTED)
def test_reported_case_raises(call, error):
    with pytest.raises(error) as e:
        call()
    assert e.value.exit_code == 2


def test_metadata_may_be_none_or_a_dict():
    # metadata=None is the default, so it stays accepted beside a dict
    assert TabularMomdp(4, 2, 2, **ARRAYS, metadata=None).metadata == {}
    kind = {"kind": "fishwood"}
    assert TabularMomdp(4, 2, 2, **ARRAYS, metadata=kind).metadata == kind


@pytest.mark.parametrize("within", [(0, 4, "[)"), (0, 1, "(]")], ids=str)
def test_an_empty_array_is_inside_any_interval(within):
    # a 0-step draw is legal, and min() of an empty array raises
    for dtype, integer in ((np.int64, True), (float, False)):
        assert check_array("x", np.zeros(0, dtype), (None,), integer=integer, within=within).size == 0


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


"""Multi-objective reinforcement-learning laboratory: tabular MOMDPs, a
mini-batch TD critic, a momentum-stabilized min-norm multi-gradient actor, and
exact-solution oracles that make the stochastic parts checkable."""

from .critic import (
    CriticState,
    TdFixedPoint,
    compute_td_fixed_point,
    compute_zeta_approx,
    expected_td_update,
    run_critic,
    td_errors,
    theory_critic_step,
)
from .driver import (
    GradientEstimate,
    MetricsRecord,
    MoacConfig,
    MoacResult,
    estimate_gradient_lipschitz,
    estimate_objective_gradients,
    expected_td_gradient,
    pareto_stationarity_gap,
    run_moac,
    theory_actor_step,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DivergenceError,
    ModelError,
    MorlabError,
    ParameterError,
)
from .mgda import (
    MomentumSchedule,
    SimplexWeights,
    duality_gap,
    momentum_update,
    solve_min_norm,
    uniform_weights,
)
from .momdp import (
    AVERAGE,
    DISCOUNTED,
    MarkovSampler,
    PolicyEvaluation,
    TabularMomdp,
    Transition,
    build_fishwood,
    build_resource_gathering,
    compute_exact_objective,
    compute_stationary_distribution,
    load_env_json,
    sample_step,
    save_env_json,
    value_functions,
)
from .opeval import (
    LoggedDataset,
    generate_logged_data,
    load_logged_data,
    ncis_score,
    ncis_scores,
    save_logged_data,
)
from .policy import (
    FeatureMap,
    PolicyParams,
    action_probabilities,
    complete_feature_map,
    default_feature_map,
    exact_policy_gradient,
    load_policy_json,
    save_policy_json,
    score_function,
    uniform_policy,
)

__version__ = "0.1.0"

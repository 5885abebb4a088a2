"""Multi-objective reinforcement-learning laboratory: tabular MOMDPs, a
mini-batch TD critic, a momentum-stabilized min-norm multi-gradient actor, and
exact-solution oracles that make the stochastic parts checkable.

The building blocks of a run (the sampler, the critic loop, the gradient
estimate, the simplex-weight helpers) live in their modules."""

from .critic import compute_td_fixed_point, compute_zeta_approx, expected_td_update, theory_critic_step
from .driver import (
    MetricsRecord,
    MoacConfig,
    MoacResult,
    estimate_gradient_lipschitz,
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
from .mgda import MomentumSchedule, solve_min_norm
from .momdp import (
    AVERAGE,
    DISCOUNTED,
    PolicyEvaluation,
    TabularMomdp,
    build_fishwood,
    build_resource_gathering,
    compute_stationary_distribution,
    load_env_json,
    save_env_json,
)
from .opeval import LoggedDataset, generate_logged_data, load_logged_data, ncis_scores, save_logged_data
from .policy import (
    FeatureMap,
    PolicyParams,
    complete_feature_map,
    default_feature_map,
    exact_policy_gradient,
    load_policy_json,
    save_policy_json,
    uniform_policy,
)

__version__ = "0.1.0"

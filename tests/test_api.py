"""The public surface: the exact set of top-level names, every function the
benchmark's span tracer wraps, and the benchmark's self-test, which builds
morlab configs and policies itself."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import morlab

PUBLIC_NAMES = {
    # critic
    "compute_td_fixed_point", "compute_zeta_approx", "expected_td_update", "theory_critic_step",
    # driver
    "MetricsRecord", "MoacConfig", "MoacResult", "estimate_gradient_lipschitz",
    "expected_td_gradient", "pareto_stationarity_gap", "run_moac", "theory_actor_step",
    # errors
    "ConfigError", "ConvergenceError", "DataError", "DivergenceError", "ModelError",
    "MorlabError", "ParameterError",
    # mgda
    "MomentumSchedule", "solve_min_norm",
    # momdp
    "AVERAGE", "DISCOUNTED", "PolicyEvaluation", "TabularMomdp", "build_fishwood",
    "build_resource_gathering", "compute_stationary_distribution",
    "load_env_json", "save_env_json",
    # opeval
    "LoggedDataset", "generate_logged_data", "load_logged_data", "ncis_scores",
    "save_logged_data",
    # policy
    "FeatureMap", "PolicyParams", "complete_feature_map", "default_feature_map",
    "exact_policy_gradient", "load_policy_json", "save_policy_json", "uniform_policy",
}


def test_top_level_names_are_pinned():
    names = {name for name, value in vars(morlab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES
    assert len(names) < 50


def test_error_types_carry_their_exit_codes():
    codes = {name: getattr(morlab, name).exit_code for name in PUBLIC_NAMES if name.endswith("Error")}
    assert codes == {"MorlabError": 2, "ConfigError": 2, "DataError": 2, "ParameterError": 2,
                     "ModelError": 2, "DivergenceError": 3, "ConvergenceError": 3}


def test_traced_targets_resolve():
    # read perfbench/spans.py as text: the tracer module itself is not imported
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    assert targets
    for span, module_name, attr_path in targets:
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr, None)
            assert obj is not None, f"{span}: {module_name}.{attr_path} is gone"
        assert callable(obj), span


def test_only_the_model_reads_the_dense_transition_tensor():
    # the model holds its law once, as the padded rows
    # ``TabularMomdp.transition_rows``, which every computation reads; the
    # dense (S, A, S) ``transition`` is rebuilt from them on request, and only
    # the JSON writer and pickle's constructor arguments ask for it
    writers = {"to_json_dict", "__reduce__"}
    readers = []
    for path in sorted(Path(morlab.__file__).resolve().parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "TabularMomdp"
                   for method in cls.body if getattr(method, "name", None) in writers
                   for node in ast.walk(method)}
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "transition"
                    and id(node) not in allowed]
    assert readers == []


def test_only_check_array_turns_an_argument_into_an_array():
    # errors.check_array is the one place where an array argument becomes an
    # array, so every entry rejects a string, bool, object or ragged array the
    # same way; ``np.asarray``, with or without a dtype, appears nowhere else
    # but in ``_json_floats``, which parses a JSON list into an object array
    allowed = {"check_array", "_json_floats"}
    calls = []
    for path in sorted(Path(morlab.__file__).resolve().parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name in allowed
                  for node in ast.walk(func)}
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asarray"
                  and id(node) not in inside]
    assert calls == []


def test_benchmark_selftest_passes():
    # the benchmark builds MoacConfig, ExperimentConfig and PolicyParams
    # itself; its self-test runs each check on a real output of this tree
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failure(s)"


_NO_SCIPY = """
import sys
import morlab, morlab.cli

def no_scipy(where):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{where}: {loaded}"

no_scipy("import")
for setting, actor_step in ((morlab.DISCOUNTED, 0.03), (morlab.AVERAGE, 0.5)):
    config = morlab.MoacConfig(setting=setting, actor_iterations=5, actor_batch_size=16,
                               actor_step_size=actor_step,
                               momentum=morlab.MomentumSchedule("power", 1.0),
                               critic_step_size=0.2, critic_iterations=2, critic_batch_size=10,
                               seed=7, oracle_diagnostics=True, oracle_every=1)
    result = morlab.run_moac(morlab.build_fishwood(0.3, 0.6), config)
    assert all(rec.pareto_gap is not None for rec in result.records)
    no_scipy(f"{setting} run")
ini, out = sys.argv[1:]
assert morlab.cli.main(["run", ini, "--out", out]) == 0
no_scipy("morlab run")
"""

# an average-setting experiment with the oracle on, run through the CLI
_AVERAGE_INI = """\
[experiment]
name = average
seeds = 2
oracle = true
oracle_every = 1

[environment]
kind = fishwood
fish_proba = 0.3
wood_proba = 0.6
discount = 0.9

[moac]
setting = average
iterations = 4
batch_size = 8
step_size = 0.5
momentum = power:1
base_seed = 100

[critic]
step_size = 0.2
iterations = 2
batch_size = 6
features = default
"""


def test_no_morlab_path_loads_scipy(tmp_path):
    # import, a discounted and an average oracle run, and `morlab run` of an
    # average config on one worker: no morlab code path imports scipy
    src = Path(morlab.__file__).resolve().parents[1]
    ini = tmp_path / "exp.ini"
    ini.write_text(_AVERAGE_INI)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(ini), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src), "MORLAB_WORKERS": "1"})
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_process_pool():
    # the pool is imported where a run starts one: importing the package and
    # its CLI loads neither it nor what it pulls in
    src = Path(morlab.__file__).resolve().parents[1]
    code = ("import sys\nimport morlab, morlab.cli\n"
            "pool = ('multiprocessing', 'concurrent', 'logging', 'socket', 'subprocess')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in pool))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

"""Experiment harness: INI config files, seeded multi-run execution with a
worker pool, CSV/JSONL metrics persistence, and deterministic summaries."""

from __future__ import annotations

import configparser
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .driver import MetricsRecord, MoacConfig, MoacResult, run_moac
from .errors import ConfigError, ConvergenceError, DivergenceError, ModelError
from .mgda import MomentumSchedule
from .momdp import TabularMomdp, build_fishwood, build_resource_gathering, load_env_json

WORKERS_ENV_VAR = "MORLAB_WORKERS"
DONE_SUFFIX = ".DONE"
_FLOAT_FMT = "%.17g"

_ENV_KINDS = ("fishwood", "resource_gathering", "file")

# section -> key -> (type tag, required, default); "output"/"path" stay strings
_SCHEMA = {
    "experiment": {
        "name": ("str", False, "experiment"),
        "seeds": ("int", True, None),
        "output": ("str", False, ""),
        "oracle": ("bool", False, False),
        "oracle_every": ("int", False, 10),
        "jsonl": ("bool", False, False),
    },
    "environment": {
        "kind": ("str", True, None),
        "fish_proba": ("float", False, 0.25),
        "wood_proba": ("float", False, 0.65),
        "discount": ("float", False, 0.9),
        "attack_prob": ("float", False, 0.1),
        "path": ("str", False, ""),
    },
    "moac": {
        "setting": ("str", True, None),
        "iterations": ("int", True, None),
        "batch_size": ("int", True, None),
        "step_size": ("float", True, None),
        "momentum": ("str", True, None),
        "base_seed": ("int", False, 0),
        "lipschitz": ("float", False, 10.0),
        "theory_compliant": ("bool", False, False),
    },
    "critic": {
        "step_size": ("float", True, None),
        "iterations": ("int", True, None),
        "batch_size": ("int", True, None),
        "features": ("str", False, "default"),
    },
}

_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": lambda s: {"true": True, "false": False}[s.lower()],
}


@dataclass
class ExperimentConfig:
    """Parsed experiment file; round-trips losslessly through to_ini/from_ini."""

    name: str
    seeds: int
    output: str
    oracle: bool
    oracle_every: int
    jsonl: bool
    env_kind: str
    env_params: dict = field(default_factory=dict)
    setting: str = "discounted"
    iterations: int = 1
    batch_size: int = 1
    step_size: float = 0.01
    momentum: str = "power:1"
    base_seed: int = 0
    lipschitz: float = 10.0
    theory_compliant: bool = False
    critic_step_size: float = 0.05
    critic_iterations: int = 1
    critic_batch_size: int = 1
    features: str = "default"

    @classmethod
    def from_ini(cls, path: str | Path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config syntax error: {exc}") from exc
        values: dict[str, dict] = {}
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
        for section, keys in _SCHEMA.items():
            if section not in parser and any(req for _, req, _ in keys.values()):
                raise ConfigError(f"missing required section [{section}]")
            raw = dict(parser[section]) if section in parser else {}
            for key in raw:
                if key not in keys:
                    raise ConfigError(f"[{section}] unknown key '{key}'")
            out = {}
            for key, (kind, required, default) in keys.items():
                if key in raw:
                    try:
                        out[key] = _PARSERS[kind](raw[key])
                    except (ValueError, KeyError) as exc:
                        raise ConfigError(f"[{section}] bad value for '{key}': {raw[key]!r}") from exc
                elif required:
                    raise ConfigError(f"[{section}] missing required key '{key}'")
                else:
                    out[key] = default
            values[section] = out
        env = values["environment"]
        kind = env["kind"]
        if kind not in _ENV_KINDS:
            raise ConfigError(f"[environment] kind must be one of {_ENV_KINDS}")
        env_params = {}
        if kind == "fishwood":
            env_params = {"fish_proba": env["fish_proba"], "wood_proba": env["wood_proba"],
                          "discount": env["discount"]}
        elif kind == "resource_gathering":
            env_params = {"discount": env["discount"], "attack_prob": env["attack_prob"]}
        else:
            if not env["path"]:
                raise ConfigError("[environment] kind 'file' needs a 'path'")
            env_params = {"path": env["path"]}
        exp = values["experiment"]
        moac = values["moac"]
        critic = values["critic"]
        MomentumSchedule.parse(moac["momentum"])  # fail early on bad schedules
        cfg = cls(
            name=exp["name"], seeds=exp["seeds"], output=exp["output"],
            oracle=exp["oracle"], oracle_every=exp["oracle_every"], jsonl=exp["jsonl"],
            env_kind=kind, env_params=env_params,
            setting=moac["setting"], iterations=moac["iterations"],
            batch_size=moac["batch_size"], step_size=moac["step_size"],
            momentum=moac["momentum"], base_seed=moac["base_seed"],
            lipschitz=moac["lipschitz"], theory_compliant=moac["theory_compliant"],
            critic_step_size=critic["step_size"], critic_iterations=critic["iterations"],
            critic_batch_size=critic["batch_size"], features=critic["features"],
        )
        if cfg.seeds < 1:
            raise ConfigError("[experiment] seeds must be >= 1")
        return cfg

    def to_ini(self, path: str | Path):
        parser = configparser.ConfigParser()
        parser["experiment"] = {
            "name": self.name,
            "seeds": str(self.seeds),
            "output": self.output,
            "oracle": str(self.oracle).lower(),
            "oracle_every": str(self.oracle_every),
            "jsonl": str(self.jsonl).lower(),
        }
        env_section = {"kind": self.env_kind}
        for key, val in self.env_params.items():
            env_section[key] = repr(val) if isinstance(val, float) else str(val)
        parser["environment"] = env_section
        parser["moac"] = {
            "setting": self.setting,
            "iterations": str(self.iterations),
            "batch_size": str(self.batch_size),
            "step_size": repr(self.step_size),
            "momentum": self.momentum,
            "base_seed": str(self.base_seed),
            "lipschitz": repr(self.lipschitz),
            "theory_compliant": str(self.theory_compliant).lower(),
        }
        parser["critic"] = {
            "step_size": repr(self.critic_step_size),
            "iterations": str(self.critic_iterations),
            "batch_size": str(self.critic_batch_size),
            "features": self.features,
        }
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)


def build_environment(cfg: ExperimentConfig) -> TabularMomdp:
    if cfg.env_kind == "fishwood":
        return build_fishwood(cfg.env_params["fish_proba"], cfg.env_params["wood_proba"],
                              discount=cfg.env_params["discount"])
    if cfg.env_kind == "resource_gathering":
        return build_resource_gathering(discount=cfg.env_params["discount"],
                                        attack_prob=cfg.env_params["attack_prob"])
    return load_env_json(cfg.env_params["path"])


def moac_config(cfg: ExperimentConfig, seed: int) -> MoacConfig:
    return MoacConfig(
        setting=cfg.setting,
        actor_iterations=cfg.iterations,
        actor_batch_size=cfg.batch_size,
        actor_step_size=cfg.step_size,
        momentum=MomentumSchedule.parse(cfg.momentum),
        critic_step_size=cfg.critic_step_size,
        critic_iterations=cfg.critic_iterations,
        critic_batch_size=cfg.critic_batch_size,
        seed=seed,
        oracle_diagnostics=cfg.oracle,
        oracle_every=cfg.oracle_every,
        theory_compliant=cfg.theory_compliant,
        lipschitz_estimate=cfg.lipschitz,
        features=cfg.features,
    )


def metrics_header(n_objectives: int, oracle: bool) -> list[str]:
    cols = ["t"]
    cols += [f"reward_mean_{i + 1}" for i in range(n_objectives)]
    cols += ["grad_norm_sq"]
    cols += [f"lambda_{i + 1}" for i in range(n_objectives)]
    cols += ["eta_t"]
    if oracle:
        cols += [f"critic_err_{i + 1}" for i in range(n_objectives)]
        cols += [f"j_exact_{i + 1}" for i in range(n_objectives)]
        cols += ["pareto_gap"]
    return cols


def _fmt(x) -> str:
    return _FLOAT_FMT % float(x)


def record_row(rec: MetricsRecord, oracle: bool) -> list[str]:
    row = [str(rec.t)]
    row += [_fmt(x) for x in rec.reward_mean]
    row += [_fmt(rec.grad_norm_sq)]
    row += [_fmt(x) for x in rec.lam]
    row += [_fmt(rec.eta)]
    if oracle:
        m = rec.reward_mean.shape[0]
        if rec.critic_err is None:
            row += [""] * (2 * m + 1)
        else:
            row += [_fmt(x) for x in rec.critic_err]
            row += [_fmt(x) for x in rec.j_exact]
            row += [_fmt(rec.pareto_gap)]
    return row


def write_metrics_csv(path: Path, result: MoacResult, n_objectives: int, oracle: bool):
    header = metrics_header(n_objectives, oracle)
    lines = [",".join(header)]
    for rec in result.records:
        lines.append(",".join(record_row(rec, oracle)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metrics_jsonl(path: Path, result: MoacResult, n_objectives: int, oracle: bool):
    header = metrics_header(n_objectives, oracle)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in result.records:
            row = record_row(rec, oracle)
            doc = {key: (None if val == "" else (int(val) if key == "t" else float(val)))
                   for key, val in zip(header, row)}
            fh.write(json.dumps(doc))
            fh.write("\n")


def run_seed(cfg: ExperimentConfig, seed: int, out_dir: Path) -> Path:
    """Run one seed and write its CSV (plus optional JSONL) and DONE marker."""
    env = build_environment(cfg)
    try:
        result = run_moac(env, moac_config(cfg, seed))
    except DivergenceError as exc:
        raise DivergenceError(f"seed {seed}: {exc}", iteration=exc.iteration, seed=seed) from exc
    except ModelError as exc:
        raise ModelError(f"seed {seed}: {exc}") from exc
    except ConvergenceError as exc:
        raise ConvergenceError(f"seed {seed}: {exc}", residual=exc.residual) from exc
    csv_path = out_dir / f"seed_{seed}.csv"
    write_metrics_csv(csv_path, result, env.n_objectives, cfg.oracle)
    if cfg.jsonl:
        write_metrics_jsonl(out_dir / f"seed_{seed}.jsonl", result, env.n_objectives, cfg.oracle)
    (out_dir / f"seed_{seed}{DONE_SUFFIX}").write_text("ok\n", encoding="utf-8")
    return csv_path


def _worker(args) -> str:
    cfg, seed, out_dir = args
    return str(run_seed(cfg, seed, Path(out_dir)))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   max_workers: int | None = None) -> Path:
    """Execute all seeds, write per-seed metrics plus summary.json, return the
    artifact directory."""
    out = Path(out_dir if out_dir else (cfg.output or cfg.name))
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_ini(out / "config.ini")
    seeds = [cfg.base_seed + k for k in range(cfg.seeds)]
    if max_workers is None:
        env_workers = os.environ.get(WORKERS_ENV_VAR)
        try:
            max_workers = int(env_workers) if env_workers else min(len(seeds), os.cpu_count() or 1)
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {env_workers!r}") from exc
    max_workers = max(1, min(max_workers, len(seeds)))
    if max_workers == 1:
        for seed in seeds:
            run_seed(cfg, seed, out)
    else:
        jobs = [(cfg, seed, str(out)) for seed in seeds]
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(_worker, jobs))
    summary = summarize(out)
    write_summary(out, summary)
    return out


def _moving_average(x: np.ndarray, window: int = 5) -> np.ndarray:
    if x.size < window:
        return x.copy()
    kernel = np.full(window, 1.0 / window)
    return np.convolve(x, kernel, mode="valid")


def _seed_of(path: Path) -> int:
    return int(path.stem.split("_")[1])


def load_metrics_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Returns (header, float matrix); empty cells become NaN."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append([float(cell) if cell else np.nan for cell in line.split(",")])
    return header, np.asarray(rows, dtype=float)


def summarize(run_dir: str | Path) -> dict:
    """Recompute per-metric statistics across completed seeds, deterministic in
    the directory contents; incomplete seeds (no DONE marker) are skipped.

    When the directory holds a ``config.ini``, only the seeds it names
    (``base_seed`` up to ``base_seed + seeds - 1``) count; other seed files,
    such as those left by an earlier run with more seeds, are reported with a
    warning and left in place."""
    run_dir = Path(run_dir)
    csv_paths = sorted(run_dir.glob("seed_*.csv"), key=_seed_of)
    config_path = run_dir / "config.ini"
    if config_path.exists():
        cfg = ExperimentConfig.from_ini(config_path)
        wanted = range(cfg.base_seed, cfg.base_seed + cfg.seeds)
        for path in csv_paths:
            if _seed_of(path) not in wanted:
                warnings.warn(f"ignoring {path.name}: config.ini names seeds "
                              f"{wanted.start}..{wanted.stop - 1}")
        csv_paths = [path for path in csv_paths if _seed_of(path) in wanted]
    complete = []
    for path in csv_paths:
        if (run_dir / f"{path.stem}{DONE_SUFFIX}").exists():
            complete.append(path)
        else:
            warnings.warn(f"skipping incomplete seed file {path.name}")
    if not complete:
        raise ConfigError(f"no completed runs in {run_dir}")
    header = None
    tables = []
    seeds = []
    for path in complete:
        cols, data = load_metrics_csv(path)
        if header is None:
            header = cols
        elif cols != header:
            raise ConfigError(f"metrics schema mismatch in {path.name}")
        tables.append(data)
        seeds.append(_seed_of(path))
    shape = tables[0].shape
    for path, tab in zip(complete, tables):
        if tab.shape != shape:
            raise ConfigError(f"metrics shape mismatch in {path.name}")
    stack = np.stack(tables)                      # (n_seeds, T, n_cols)
    t_axis = stack[0, :, 0].astype(int).tolist()
    stats = {}
    for j, col in enumerate(header):
        if col == "t":
            continue
        block = stack[:, :, j]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # all-NaN rows are legal
            mean = np.nanmean(block, axis=0)
            median = np.nanmedian(block, axis=0)
            q75 = np.nanpercentile(block, 75, axis=0)
            q25 = np.nanpercentile(block, 25, axis=0)
        stats[col] = {
            "mean": _jsonify(mean),
            "median": _jsonify(median),
            "iqr": _jsonify(q75 - q25),
        }
    trends = _trend_statistics(header, stack, seeds)
    return {
        "seeds": seeds,
        "t": t_axis,
        "columns": header,
        "stats": stats,
        "trends": trends,
    }


def _jsonify(arr: np.ndarray) -> list:
    return [None if np.isnan(x) else float(x) for x in arr]


def _trend_statistics(header: list[str], stack: np.ndarray, seeds: list[int]) -> dict:
    """Per-seed trend numbers used by acceptance-style checks: smoothed
    gradient-norm half-crossing iteration, first/last-window ratio, mean
    oracle gap, and first/last exact objective values when present."""
    g_idx = header.index("grad_norm_sq")
    t_col = stack[0, :, 0]
    horizon = stack.shape[1]
    window = max(1, horizon // 10)
    half_crossings = []
    window_ratios = []
    for k in range(stack.shape[0]):
        smooth = _moving_average(stack[k, :, g_idx], window=5)
        target = 0.5 * smooth[0]
        below = np.flatnonzero(smooth <= target)
        half_crossings.append(int(t_col[below[0]]) if below.size else None)
        first = float(np.mean(smooth[:window]))
        last = float(np.mean(smooth[-window:]))
        window_ratios.append(last / first if first > 0 else None)
    trends = {
        "grad_half_crossing": half_crossings,
        "grad_half_crossing_median": _median_or_none(half_crossings),
        "grad_window_ratio": window_ratios,
        "grad_window_ratio_median": _median_or_none(window_ratios),
    }
    if "pareto_gap" in header:
        p_idx = header.index("pareto_gap")
        gap_means = []
        for k in range(stack.shape[0]):
            col = stack[k, :, p_idx]
            col = col[~np.isnan(col)]
            gap_means.append(float(col.mean()) if col.size else None)
        trends["pareto_gap_mean"] = gap_means
        trends["pareto_gap_mean_median"] = _median_or_none(gap_means)
    j_cols = [c for c in header if c.startswith("j_exact_")]
    if j_cols:
        first_last = {}
        for col in j_cols:
            idx = header.index(col)
            firsts, lasts = [], []
            for k in range(stack.shape[0]):
                series = stack[k, :, idx]
                valid = np.flatnonzero(~np.isnan(series))
                if valid.size:
                    firsts.append(float(series[valid[0]]))
                    lasts.append(float(series[valid[-1]]))
            first_last[col] = {"first": firsts, "last": lasts}
        trends["j_exact_first_last"] = first_last
    return trends


def _median_or_none(values: list):
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.median(present))


def write_summary(run_dir: str | Path, summary: dict) -> Path:
    path = Path(run_dir) / "summary.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path

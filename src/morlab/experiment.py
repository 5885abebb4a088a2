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
from typing import Callable, NamedTuple

import numpy as np

from .driver import MetricsRecord, MoacConfig, MoacResult, run_moac
from .errors import ConfigError, MorlabError
from .mgda import MomentumSchedule
from .momdp import TabularMomdp, build_fishwood, build_resource_gathering, load_env_json

WORKERS_ENV_VAR = "MORLAB_WORKERS"
DONE_SUFFIX = ".DONE"
_FLOAT_FMT = "%.17g"

REQUIRED = object()   # default of a key that a config must give


def _parse_bool(text: str) -> bool:
    return {"true": True, "false": False}[text.lower()]


class Key(NamedTuple):
    """One INI key: where it lives, how it parses, what it sets and feeds."""

    section: str
    key: str
    parse: Callable[[str], object]
    default: object
    field: str                   # ExperimentConfig field; "env_params" holds [environment] values
    target: str | tuple | None   # MoacConfig field, or the environment kinds that take the key


# the one place an experiment key is defined; to_ini writes them in this order
KEYS = (
    Key("experiment", "name", str, "experiment", "name", None),
    Key("experiment", "seeds", int, REQUIRED, "seeds", None),
    Key("experiment", "output", str, "", "output", None),
    Key("experiment", "oracle", _parse_bool, False, "oracle", "oracle_diagnostics"),
    Key("experiment", "oracle_every", int, 10, "oracle_every", "oracle_every"),
    Key("experiment", "jsonl", _parse_bool, False, "jsonl", None),
    Key("environment", "kind", str, REQUIRED, "env_kind", None),
    Key("environment", "fish_proba", float, 0.25, "env_params", ("fishwood",)),
    Key("environment", "wood_proba", float, 0.65, "env_params", ("fishwood",)),
    Key("environment", "discount", float, 0.9, "env_params", ("fishwood", "resource_gathering")),
    Key("environment", "attack_prob", float, 0.1, "env_params", ("resource_gathering",)),
    Key("environment", "path", str, REQUIRED, "env_params", ("file",)),
    Key("moac", "setting", str, REQUIRED, "setting", "setting"),
    Key("moac", "iterations", int, REQUIRED, "iterations", "actor_iterations"),
    Key("moac", "batch_size", int, REQUIRED, "batch_size", "actor_batch_size"),
    Key("moac", "step_size", float, REQUIRED, "step_size", "actor_step_size"),
    Key("moac", "momentum", str, REQUIRED, "momentum", "momentum"),
    Key("moac", "base_seed", int, 0, "base_seed", None),
    Key("moac", "lipschitz", float, 10.0, "lipschitz", "lipschitz_estimate"),
    Key("moac", "theory_compliant", _parse_bool, False, "theory_compliant", "theory_compliant"),
    Key("critic", "step_size", float, REQUIRED, "critic_step_size", "critic_step_size"),
    Key("critic", "iterations", int, REQUIRED, "critic_iterations", "critic_iterations"),
    Key("critic", "batch_size", int, REQUIRED, "critic_batch_size", "critic_batch_size"),
    Key("critic", "features", str, "default", "features", "features"),
)
_KINDS = tuple(dict.fromkeys(kind for row in KEYS if isinstance(row.target, tuple)
                             for kind in row.target))


def _ini_parser() -> configparser.ConfigParser:
    # no interpolation: a '%' in a name or path is just a character
    return configparser.ConfigParser(interpolation=None)


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _read(parser: configparser.ConfigParser, row: Key):
    if parser.has_option(row.section, row.key):
        raw = parser.get(row.section, row.key)
        try:
            return row.parse(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"[{row.section}] bad value for '{row.key}': {raw!r}") from exc
    if row.default is not REQUIRED:
        return row.default
    if not parser.has_section(row.section):
        raise ConfigError(f"missing required section [{row.section}]")
    raise ConfigError(f"[{row.section}] missing required key '{row.key}'")


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
        parser = _ini_parser()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config syntax error: {exc}") from exc
        known = {(row.section, row.key) for row in KEYS}
        for section in parser.sections():
            if section not in {s for s, _ in known}:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser[section]:
                if (section, key) not in known:
                    raise ConfigError(f"[{section}] unknown key '{key}'")
        values = {"env_params": {}}
        for row in KEYS:
            if row.field != "env_params":
                values[row.field] = _read(parser, row)
            elif values["env_kind"] in row.target or parser.has_option(row.section, row.key):
                values["env_params"][row.key] = _read(parser, row)
        cfg = cls(**values)
        cfg.check()
        return cfg

    def check(self):
        """Reject an unknown environment kind, an [environment] key that the
        kind does not take, no seeds, or a bad momentum schedule; from_ini and
        run_experiment both call this, so a config built in code is checked too."""
        if self.env_kind not in _KINDS:
            raise ConfigError(f"[environment] kind must be one of {_KINDS}, got {self.env_kind!r}")
        for key in self.env_params:
            if not any(row.key == key and self.env_kind in row.target
                       for row in KEYS if row.field == "env_params"):
                raise ConfigError(f"[environment] key '{key}' does not apply to "
                                  f"kind '{self.env_kind}'")
        if self.seeds < 1:
            raise ConfigError("[experiment] seeds must be >= 1")
        MomentumSchedule.parse(self.momentum)  # fail early on bad schedules

    def to_ini(self, path: str | Path):
        parser = _ini_parser()
        for row in KEYS:
            if row.field != "env_params":
                value = getattr(self, row.field)
            elif row.key in self.env_params:
                value = self.env_params[row.key]
            else:
                continue
            if not parser.has_section(row.section):
                parser.add_section(row.section)
            parser[row.section][row.key] = _format(value)
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)


def build_environment(cfg: ExperimentConfig) -> TabularMomdp:
    builders = {"fishwood": build_fishwood, "resource_gathering": build_resource_gathering,
                "file": load_env_json}
    return builders[cfg.env_kind](**cfg.env_params)


def moac_config(cfg: ExperimentConfig, seed: int) -> MoacConfig:
    return MoacConfig(seed=seed, **{row.target: getattr(cfg, row.field)
                                    for row in KEYS if isinstance(row.target, str)})


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


def run_seed(cfg: ExperimentConfig, env: TabularMomdp, seed: int, out_dir: Path) -> Path:
    """Run one seed on ``env`` and write its CSV (plus optional JSONL) and DONE marker."""
    try:
        result = run_moac(env, moac_config(cfg, seed))
    except MorlabError as exc:
        raise exc.within(f"seed {seed}") from exc
    csv_path = out_dir / f"seed_{seed}.csv"
    write_metrics_csv(csv_path, result, env.n_objectives, cfg.oracle)
    if cfg.jsonl:
        write_metrics_jsonl(out_dir / f"seed_{seed}.jsonl", result, env.n_objectives, cfg.oracle)
    (out_dir / f"seed_{seed}{DONE_SUFFIX}").write_text("ok\n", encoding="utf-8")
    return csv_path


def _worker(args) -> str:
    cfg, env, seed, out_dir = args
    return str(run_seed(cfg, env, seed, Path(out_dir)))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   max_workers: int | None = None) -> Path:
    """Execute all seeds, write per-seed metrics plus summary.json, return the
    artifact directory."""
    cfg.check()
    # reject bad training values and a bad environment before out is touched
    moac_config(cfg, cfg.base_seed)
    env = build_environment(cfg)
    out = Path(out_dir if out_dir else (cfg.output or cfg.name))
    out.mkdir(parents=True, exist_ok=True)
    seeds = [cfg.base_seed + k for k in range(cfg.seeds)]
    # a run that fails must not leave an earlier run's results for these seeds
    for seed in seeds:
        for suffix in (".csv", ".jsonl", DONE_SUFFIX):
            (out / f"seed_{seed}{suffix}").unlink(missing_ok=True)
    (out / "summary.json").unlink(missing_ok=True)
    cfg.to_ini(out / "config.ini")
    if max_workers is None:
        env_workers = os.environ.get(WORKERS_ENV_VAR)
        try:
            max_workers = int(env_workers) if env_workers else min(len(seeds), os.cpu_count() or 1)
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {env_workers!r}") from exc
    max_workers = max(1, min(max_workers, len(seeds)))
    if max_workers == 1:
        for seed in seeds:
            run_seed(cfg, env, seed, out)
    else:
        jobs = [(cfg, env, seed, str(out)) for seed in seeds]
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

"""Experiment harness: INI config files, seeded multi-run execution with a
worker pool, CSV/JSONL metrics persistence, and deterministic summaries."""

from __future__ import annotations

import configparser
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .driver import MetricsRecord, MoacConfig, run_moac
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
    Key("critic", "step_size", float, REQUIRED, "critic_step_size", "critic_step_size"),
    Key("critic", "iterations", int, REQUIRED, "critic_iterations", "critic_iterations"),
    Key("critic", "batch_size", int, REQUIRED, "critic_batch_size", "critic_batch_size"),
    Key("critic", "features", str, "default", "features", "features"),
)
_KINDS = tuple(dict.fromkeys(kind for row in KEYS if isinstance(row.target, tuple)
                             for kind in row.target))
# keys that older config.ini files hold; from_ini warns about them and skips them
_DROPPED_KEYS = {("moac", "lipschitz"), ("moac", "theory_compliant")}


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
                if (section, key) in _DROPPED_KEYS:
                    warnings.warn(f"[{section}] ignoring key '{key}': it sets nothing")
                elif (section, key) not in known:
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


def record_row(rec: MetricsRecord, oracle: bool) -> list:
    """One metrics row in ``metrics_header`` order: t as an int, every other
    cell a float, None for the oracle cells of an iteration without oracle."""
    row = [rec.t, *rec.reward_mean.tolist(), float(rec.grad_norm_sq), *rec.lam.tolist(),
           float(rec.eta)]
    if oracle:
        if rec.critic_err is None:
            row += [None] * (2 * rec.reward_mean.shape[0] + 1)
        else:
            row += [*rec.critic_err.tolist(), *rec.j_exact.tolist(), float(rec.pareto_gap)]
    return row


def write_metrics_csv(path: Path, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for t, *cells in rows:
        lines.append(",".join([str(t)] + ["" if x is None else _FLOAT_FMT % x for x in cells]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metrics_jsonl(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(header, row))))
            fh.write("\n")


def run_seed(cfg: ExperimentConfig, env: TabularMomdp, seed: int, out_dir: Path) -> Path:
    """Run one seed on ``env`` and write its CSV (plus optional JSONL) and DONE marker."""
    try:
        result = run_moac(env, moac_config(cfg, seed))
    except MorlabError as exc:
        raise exc.within(f"seed {seed}") from exc
    header = metrics_header(env.n_objectives, cfg.oracle)
    rows = [record_row(rec, cfg.oracle) for rec in result.records]
    csv_path = out_dir / f"seed_{seed}.csv"
    write_metrics_csv(csv_path, header, rows)
    if cfg.jsonl:
        write_metrics_jsonl(out_dir / f"seed_{seed}.jsonl", header, rows)
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
    # reject bad training values, environment and worker count before out is touched
    moac_config(cfg, cfg.base_seed)
    env = build_environment(cfg)
    seeds = [cfg.base_seed + k for k in range(cfg.seeds)]
    if max_workers is None:
        env_workers = os.environ.get(WORKERS_ENV_VAR)
        try:
            max_workers = int(env_workers) if env_workers else min(len(seeds), os.cpu_count() or 1)
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {env_workers!r}") from exc
    if max_workers < 1:
        raise ConfigError(f"the worker count ({WORKERS_ENV_VAR}) must be >= 1, got {max_workers}")
    max_workers = min(max_workers, len(seeds))
    out = Path(out_dir if out_dir else (cfg.output or cfg.name))
    out.mkdir(parents=True, exist_ok=True)
    # a run that fails must not leave an earlier run's results for these seeds
    for seed in seeds:
        for suffix in (".csv", ".jsonl", DONE_SUFFIX):
            (out / f"seed_{seed}{suffix}").unlink(missing_ok=True)
    (out / "summary.json").unlink(missing_ok=True)
    cfg.to_ini(out / "config.ini")
    if max_workers == 1:
        for seed in seeds:
            run_seed(cfg, env, seed, out)
    else:
        from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing: only for a pool
        jobs = [(cfg, env, seed, str(out)) for seed in seeds]
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(_worker, jobs))
    summary = summarize(out)
    write_summary(out, summary)
    return out


def _seed_of(path: Path) -> int | None:
    """The seed of a file named as run_seed names it, ``seed_<k>.csv``; None otherwise."""
    match = re.fullmatch(r"seed_(0|[1-9][0-9]*)\.csv", path.name)
    return int(match[1]) if match else None


def _metrics_cell(cell: str) -> float:
    """One cell of a metrics CSV: empty is a missing value (NaN), anything else
    must be a finite number; ``write_metrics_csv`` writes no other cell."""
    if not cell:
        return np.nan
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {cell!r}")
    return value


def load_metrics_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Returns (header, float matrix); empty cells become NaN. A file that is
    not UTF-8, has no header, a cell that is not a finite number or a row that
    is not as wide as the header raises ConfigError."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path.name}: metrics file is not UTF-8 text") from exc
    if not lines:
        raise ConfigError(f"{path.name}: metrics file is empty")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path.name}: line {lineno} has {len(cells)} cells, "
                              f"the header has {len(header)}")
        try:
            rows.append([_metrics_cell(cell) for cell in cells])
        except ValueError as exc:
            raise ConfigError(f"{path.name}: line {lineno}: {exc}") from exc
    return header, np.array(rows, dtype=float).reshape(-1, len(header))


def summarize(run_dir: str | Path) -> dict:
    """Recompute per-metric statistics across completed seeds, deterministic in
    the directory contents; incomplete seeds (no DONE marker) are skipped.

    Seed files are named ``seed_<k>.csv`` as run_seed names them; with a
    ``config.ini``, only the seeds it names (``base_seed`` up to ``base_seed +
    seeds - 1``) count. Other ``seed_*.csv`` files, such as those left by an
    earlier run with more seeds, are reported with a warning and left in place.
    With a ``config.ini``, the header must also be ``metrics_header`` of its
    ``oracle`` flag, for as many objectives as the header has reward columns.

    The mean, median and IQR at t are null unless every counted seed logged
    the metric at t; the seeds of one ``morlab run`` share one oracle
    schedule, so there each metric is logged at t by all seeds or by none."""
    run_dir = Path(run_dir)
    config_path = run_dir / "config.ini"
    cfg = ExperimentConfig.from_ini(config_path) if config_path.exists() else None
    wanted = None if cfg is None else range(cfg.base_seed, cfg.base_seed + cfg.seeds)
    complete = {}
    for path in sorted(run_dir.glob("seed_*.csv")):
        seed = _seed_of(path)
        if seed is None:
            warnings.warn(f"ignoring {path.name}: seed files are named seed_<k>.csv")
        elif wanted is not None and seed not in wanted:
            warnings.warn(f"ignoring {path.name}: config.ini names seeds "
                          f"{wanted.start}..{wanted.stop - 1}")
        elif not (run_dir / f"seed_{seed}{DONE_SUFFIX}").exists():
            warnings.warn(f"skipping incomplete seed file {path.name}")
        else:
            complete[seed] = path
    if not complete:
        raise ConfigError(f"no completed runs in {run_dir}")
    seeds = sorted(complete)
    header, first = load_metrics_csv(complete[seeds[0]])
    if header[0] != "t" or not all(float(t).is_integer() for t in first[:, 0]):  # NaN fails
        raise ConfigError(f"{complete[seeds[0]].name}: the first column must be t, "
                          f"an integer in every row")
    m = sum(col.startswith("reward_mean_") for col in header)
    if cfg is not None and header != metrics_header(m, cfg.oracle):
        raise ConfigError(f"{complete[seeds[0]].name}: the columns are not those of {m} "
                          f"objectives with oracle = {_format(cfg.oracle)} (config.ini)")
    tables = [first]
    for seed in seeds[1:]:
        cols, data = load_metrics_csv(complete[seed])
        if cols != header:
            raise ConfigError(f"metrics schema mismatch in {complete[seed].name}")
        if not np.array_equal(data[:, 0], first[:, 0]):
            raise ConfigError(f"{complete[seed].name} is not logged at the iterations t "
                              f"of {complete[seeds[0]].name}")
        tables.append(data)
    stack = np.stack(tables)                      # (n_seeds, T, n_cols)
    # one percentile per call: np.percentile(stack, [75, 25]) partitions at the
    # kth of both and can move a signed zero into the 75th percentile
    iqr = np.percentile(stack, 75, axis=0) - np.percentile(stack, 25, axis=0)
    lanes = {"mean": stack.mean(axis=0), "median": np.median(stack, axis=0), "iqr": iqr}
    stats = {col: {name: _jsonify(values[:, j]) for name, values in lanes.items()}
             for j, col in enumerate(header) if col != "t"}
    return {
        "seeds": seeds,
        "t": stack[0, :, 0].astype(int).tolist(),
        "columns": header,
        "stats": stats,
    }


def _jsonify(arr: np.ndarray) -> list:
    return [None if x != x else x for x in arr.tolist()]   # x != x: NaN


def write_summary(run_dir: str | Path, summary: dict) -> Path:
    path = Path(run_dir) / "summary.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path

"""Experiment config parsing, the run/summarize pipeline, and CLI exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morlab
from morlab import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    ParameterError,
    TabularMomdp,
    build_fishwood,
    generate_logged_data,
    save_env_json,
    save_logged_data,
    save_policy_json,
    uniform_policy,
)
from morlab.cli import main
from morlab.experiment import (
    DONE_SUFFIX,
    ExperimentConfig,
    load_metrics_csv,
    metrics_header,
    run_experiment,
    summarize,
    write_summary,
)
from util import summary_stats_reference

BASE_CONFIG = """\
[experiment]
name = smoke
seeds = 2
oracle = false
oracle_every = 5

[environment]
kind = fishwood
fish_proba = 0.3
wood_proba = 0.6
discount = 0.9

[moac]
setting = discounted
iterations = 6
batch_size = 8
step_size = 0.05
momentum = power:1
base_seed = 100

[critic]
step_size = 0.2
iterations = 2
batch_size = 6
features = default
"""


# the [environment] body of BASE_CONFIG, for tests that switch the kind
FISHWOOD_ENV = "kind = fishwood\nfish_proba = 0.3\nwood_proba = 0.6\ndiscount = 0.9"


# a critic that diverges at its first actor iteration
DIVERGING_CONFIG = BASE_CONFIG.replace("step_size = 0.2", "step_size = 1e9").replace(
    "iterations = 2\nbatch_size = 6", "iterations = 80\nbatch_size = 6")

MISSING = object()   # a bad-input probe that names a file that does not exist
_FISHWOOD_DOC = build_fishwood(0.3, 0.6).to_json_dict()


def _fishwood_with_entry(key, index, value) -> str:
    """_FISHWOOD_DOC as JSON text with the entry at ``index`` of its ``key``
    array replaced by ``value``."""
    doc = json.loads(json.dumps(_FISHWOOD_DOC))
    *outer, last = index
    entries = doc[key]
    for i in outer:
        entries = entries[i]
    entries[last] = value
    return json.dumps(doc)


def _second_cell(text):
    """A seed-CSV corruption: ``text`` in the second cell of the second data row."""
    return lambda lines: lines[:2] + [re.sub(r",[^,]*", "," + text, lines[2], count=1)] + lines[3:]


def write_config(tmp_path: Path, text: str = BASE_CONFIG, name: str = "exp.ini") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_parse_and_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = ExperimentConfig.from_ini(path)
        assert cfg.seeds == 2 and cfg.env_kind == "fishwood"
        out = tmp_path / "copy.ini"
        cfg.to_ini(out)
        again = ExperimentConfig.from_ini(out)
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "\nwarp_speed = 9\n")
        with pytest.raises(ConfigError, match="warp_speed"):
            ExperimentConfig.from_ini(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "\n[plotting]\nstyle = dark\n")
        with pytest.raises(ConfigError, match="plotting"):
            ExperimentConfig.from_ini(path)

    def test_missing_required_key_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("iterations = 6\n", "")
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="iterations"):
            ExperimentConfig.from_ini(path)

    def test_bad_value_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("step_size = 0.05", "step_size = fast")
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="step_size"):
            ExperimentConfig.from_ini(path)

    def test_file_environment_needs_path(self, tmp_path):
        text = BASE_CONFIG.replace(FISHWOOD_ENV, "kind = file")
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="path"):
            ExperimentConfig.from_ini(path)


# config.ini as written for the criterion-9 config (tests/test_acceptance.py)
# before the config table existed, pinned byte for byte: defaults filled in,
# keys in table order, floats by repr (note the trailing blank after "output =")
CRITERION_9_CONFIG_INI = """\
[experiment]
name = determinism
seeds = 2
output = 
oracle = true
oracle_every = 3
jsonl = false

[environment]
kind = fishwood
fish_proba = 0.3
wood_proba = 0.6
discount = 0.9

[moac]
setting = discounted
iterations = 8
batch_size = 16
step_size = 0.05
momentum = power:1
base_seed = 7

[critic]
step_size = 0.2
iterations = 3
batch_size = 10
features = default

"""

# every key set away from its default; [environment] keys per kind below
ALL_KEYS_CONFIG = """\
[experiment]
name = all_keys
seeds = 3
output = elsewhere/out
oracle = true
oracle_every = 4
jsonl = true

[environment]
kind = {kind}
{env}
[moac]
setting = average
iterations = 5
batch_size = 7
step_size = 0.125
momentum = constant:0.25
base_seed = 11

[critic]
step_size = 0.15
iterations = 4
batch_size = 9
features = complete
"""

ALL_KEYS_ENV = {
    "fishwood": {"fish_proba": 0.35, "wood_proba": 0.55, "discount": 0.8},
    "resource_gathering": {"discount": 0.8, "attack_prob": 0.3},
    "file": {"path": "env_dir/env.json"},
}


class TestConfigTable:
    def test_criterion_9_config_ini_bytes(self, tmp_path):
        defaults = ("output", "jsonl")
        given = "".join(line for line in CRITERION_9_CONFIG_INI.splitlines(keepends=True)
                        if not line.startswith(defaults))
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, given))
        cfg.to_ini(tmp_path / "config.ini")
        assert (tmp_path / "config.ini").read_text() == CRITERION_9_CONFIG_INI

    @pytest.mark.parametrize("kind", sorted(ALL_KEYS_ENV))
    def test_every_key_non_default_round_trips(self, tmp_path, kind):
        from morlab.experiment import KEYS, build_environment, moac_config
        env_params = ALL_KEYS_ENV[kind]
        env_lines = "".join(f"{key} = {val}\n" for key, val in env_params.items())
        text = ALL_KEYS_CONFIG.format(kind=kind, env=env_lines)
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, text))
        expected = dict(
            name="all_keys", seeds=3, output="elsewhere/out", oracle=True, oracle_every=4,
            jsonl=True, env_kind=kind, env_params=env_params, setting="average", iterations=5,
            batch_size=7, step_size=0.125, momentum="constant:0.25", base_seed=11,
            critic_step_size=0.15, critic_iterations=4, critic_batch_size=9, features="complete",
        )
        assert cfg == ExperimentConfig(**expected)
        for row in KEYS:   # every value differs from its default
            if row.field != "env_params":
                assert getattr(cfg, row.field) != row.default, row.key
        cfg.to_ini(tmp_path / "a.ini")
        again = ExperimentConfig.from_ini(tmp_path / "a.ini")
        assert again == cfg
        again.to_ini(tmp_path / "b.ini")
        assert (tmp_path / "b.ini").read_bytes() == (tmp_path / "a.ini").read_bytes()
        config = moac_config(cfg, seed=21)
        assert (config.setting, config.actor_iterations, config.actor_batch_size) == ("average", 5, 7)
        assert (config.actor_step_size, str(config.momentum)) == (0.125, "constant:0.25")
        assert (config.critic_step_size, config.critic_iterations, config.critic_batch_size) == \
            (0.15, 4, 9)
        assert (config.seed, config.oracle_diagnostics, config.oracle_every) == (21, True, 4)
        assert config.features == "complete"
        if kind == "file":
            (tmp_path / "env_dir").mkdir()
            save_env_json(build_fishwood(0.4, 0.5), str(tmp_path / "env_dir" / "env.json"))
            cfg.env_params = {"path": str(tmp_path / "env_dir" / "env.json")}
            assert build_environment(cfg).metadata["fish_proba"] == 0.4
        else:
            env = build_environment(cfg)
            assert np.all(env.discounts == 0.8)
            for key in ("fish_proba", "wood_proba", "attack_prob"):
                if key in env_params:
                    assert env.metadata[key] == env_params[key]

    def test_table_covers_every_field(self):
        from morlab import MoacConfig
        from morlab.experiment import KEYS
        assert len(KEYS) == 22
        assert len({(row.section, row.key) for row in KEYS}) == 22
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {row.field for row in KEYS} == fields
        targets = {row.target for row in KEYS if isinstance(row.target, str)}
        assert targets | {"seed"} == {f.name for f in dataclasses.fields(MoacConfig)}

    def test_percent_signs_round_trip_and_run(self, tmp_path):
        env_path = tmp_path / "env_100%.json"
        save_env_json(build_fishwood(0.3, 0.6), str(env_path))
        out = tmp_path / "out_50%"
        text = BASE_CONFIG.replace("name = smoke", "name = run_50%\noutput = " + str(out))
        text = text.replace("seeds = 2", "seeds = 1")
        text = text.replace(FISHWOOD_ENV, f"kind = file\npath = {env_path}")
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, text))
        assert (cfg.name, cfg.output, cfg.env_params) == ("run_50%", str(out), {"path": str(env_path)})
        cfg.to_ini(tmp_path / "copy.ini")
        assert ExperimentConfig.from_ini(tmp_path / "copy.ini") == cfg
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        assert ExperimentConfig.from_ini(out / "config.ini") == cfg
        assert (out / "seed_100.csv").exists()

    @pytest.mark.parametrize("kind, env, key", [
        ("fishwood", "attack_prob = 0.7", "attack_prob"),
        ("fishwood", "path = x.json", "path"),
        ("resource_gathering", "fish_proba = 0.3", "fish_proba"),
        ("file", "path = x.json\ndiscount = 0.9", "discount"),
    ])
    def test_key_of_another_kind_rejected(self, tmp_path, capsys, kind, env, key):
        text = BASE_CONFIG.replace(FISHWOOD_ENV, f"kind = {kind}\n{env}")
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=f"'{key}'.*'{kind}'"):
            ExperimentConfig.from_ini(path)
        assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert key in err and kind in err

    def test_readme_example_parses_and_round_trips(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, block))
        assert cfg.name == "fishwood-momentum" and cfg.seeds == 20 and cfg.env_kind == "fishwood"
        assert cfg.features == "default" and cfg.momentum == "power:1"
        cfg.to_ini(tmp_path / "copy.ini")
        assert ExperimentConfig.from_ini(tmp_path / "copy.ini") == cfg


class TestRunExperiment:
    def test_single_iteration_single_seed(self, tmp_path):
        text = BASE_CONFIG.replace("seeds = 2", "seeds = 1").replace("iterations = 6", "iterations = 1")
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, text))
        out = run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        csv_lines = (out / "seed_100.csv").read_text().splitlines()
        assert len(csv_lines) == 2  # header + one data row
        assert (out / f"seed_100{DONE_SUFFIX}").exists()
        assert (out / "summary.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cfg = ExperimentConfig.from_ini(cfg_path)
        out1 = run_experiment(cfg, out_dir=tmp_path / "a", max_workers=1)
        cfg2 = ExperimentConfig.from_ini(cfg_path)
        out2 = run_experiment(cfg2, out_dir=tmp_path / "b", max_workers=2)
        for seed in (100, 101):
            b1 = (out1 / f"seed_{seed}.csv").read_bytes()
            b2 = (out2 / f"seed_{seed}.csv").read_bytes()
            assert b1 == b2

    def test_worker_pool_env_var(self, tmp_path, monkeypatch):
        from morlab.experiment import WORKERS_ENV_VAR
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        cfg = ExperimentConfig.from_ini(write_config(tmp_path))
        out = run_experiment(cfg, out_dir=tmp_path / "pooled")
        assert (out / "seed_100.csv").exists() and (out / "seed_101.csv").exists()

    def test_oracle_columns_and_jsonl(self, tmp_path):
        text = BASE_CONFIG.replace("oracle = false", "oracle = true\njsonl = true")
        text = text.replace("seeds = 2", "seeds = 1")
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, text))
        out = run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        header, data = load_metrics_csv(out / "seed_100.csv")
        assert header == metrics_header(2, oracle=True)
        gap_col = header.index("pareto_gap")
        present = ~np.isnan(data[:, gap_col])
        assert present[0] and present[-1] and present[4]  # t = 1, 5, and T = 6
        jsonl = (out / "seed_100.jsonl").read_text().splitlines()
        assert len(jsonl) == 6
        doc = json.loads(jsonl[1])
        assert doc["t"] == 2 and doc["pareto_gap"] is None

    def test_jsonl_lines_equal_csv_cells_read_back(self, tmp_path):
        # both files encode the same numbers: each JSONL line is the CSV row
        # read back (int t, float of every other cell, None for an empty one)
        text = BASE_CONFIG.replace("oracle = false", "oracle = true\njsonl = true")
        text = text.replace("oracle_every = 5", "oracle_every = 2")
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, text))
        out = run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        for seed in (100, 101):
            header, *rows = (out / f"seed_{seed}.csv").read_text().splitlines()
            header = header.split(",")
            expected = []
            for row in rows:
                cells = row.split(",")
                doc = {key: None if val == "" else (int(val) if key == "t" else float(val))
                       for key, val in zip(header, cells)}
                expected.append(json.dumps(doc) + "\n")
            assert any(None in json.loads(line).values() for line in expected)
            assert (out / f"seed_{seed}.jsonl").read_text() == "".join(expected)

    def test_summary_statistics_and_keys(self, tmp_path):
        cfg = ExperimentConfig.from_ini(write_config(tmp_path))
        out = run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"seeds", "t", "columns", "stats"}
        assert summary["seeds"] == [100, 101]
        assert summary["t"] == [1, 2, 3, 4, 5, 6]
        assert "grad_norm_sq" in summary["stats"]
        assert len(summary["stats"]["grad_norm_sq"]["median"]) == 6

    @pytest.mark.parametrize("env, setting", [
        (FISHWOOD_ENV, "discounted"),
        ("kind = resource_gathering", "average"),
    ])
    def test_stats_match_nan_aware_reference(self, tmp_path, env, setting):
        # seeds of one run log the oracle columns at the same t, so every lane
        # is full or empty and the plain statistics give the nan-aware bits
        text = BASE_CONFIG.replace("seeds = 2", "seeds = 5").replace(FISHWOOD_ENV, env)
        text = text.replace("setting = discounted", f"setting = {setting}")
        text = text.replace("oracle = false\noracle_every = 5",
                            "oracle = true\noracle_every = 2\njsonl = true")
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, text))
        out = run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stats"]["pareto_gap"]["mean"].count(None) == 2   # t = 2, 4
        reference = summary_stats_reference(out, summary["seeds"])
        assert (json.dumps(summarize(out)["stats"], sort_keys=True)
                == json.dumps(reference, sort_keys=True))

    def test_partly_logged_lane_is_null(self, tmp_path):
        # hand-built: only seed 0 logged pareto_gap; a statistic over it alone
        # would be labelled with all three seeds
        out = tmp_path / "byhand"
        out.mkdir()
        header = "t,reward_mean_1,grad_norm_sq,lambda_1,eta_t,pareto_gap"
        for seed, gap in ((0, "0.5"), (1, ""), (2, "")):
            (out / f"seed_{seed}.csv").write_text(f"{header}\n1,0.5,1,1,1,{gap}\n")
            (out / f"seed_{seed}{DONE_SUFFIX}").write_text("ok\n")
        stats = summarize(out)["stats"]["pareto_gap"]
        assert stats == {"mean": [None], "median": [None], "iqr": [None]}
        assert summary_stats_reference(out, [0, 1, 2])["pareto_gap"]["mean"] == [0.5]

    def test_summarize_idempotent_and_order_invariant(self, tmp_path):
        cfg = ExperimentConfig.from_ini(write_config(tmp_path))
        out = run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        first = (out / "summary.json").read_bytes()
        write_summary(out, summarize(out))
        assert (out / "summary.json").read_bytes() == first

    @pytest.mark.parametrize("line", ["lipschitz = 10.0", "theory_compliant = true",
                                      "theory_compliant = false"])
    def test_dropped_key_of_old_run_directories_is_skipped(self, tmp_path, capsys, line):
        # config.ini files written before the key was dropped still load, run
        # and summarize, each with one warning
        key = line.split()[0]
        warning = [f"[moac] ignoring key '{key}': it sets nothing"]
        out = tmp_path / "old"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 0
        summary = (out / "summary.json").read_bytes()
        ini = (out / "config.ini").read_text()
        assert key not in ini
        (out / "config.ini").write_text(ini.replace("base_seed = 100\n", f"base_seed = 100\n{line}\n"))
        with pytest.warns(UserWarning) as caught:
            old_cfg = ExperimentConfig.from_ini(out / "config.ini")
        assert [str(w.message) for w in caught] == warning
        assert old_cfg == ExperimentConfig.from_ini(write_config(tmp_path))
        old_cfg.to_ini(tmp_path / "again.ini")
        assert (tmp_path / "again.ini").read_text() == ini
        capsys.readouterr()
        with pytest.warns(UserWarning) as caught:
            assert main(["summarize", str(out)]) == 0
        assert [str(w.message) for w in caught] == warning
        assert (out / "summary.json").read_bytes() == summary
        rerun = tmp_path / "rerun"
        with pytest.warns(UserWarning) as caught:
            assert main(["run", str(out / "config.ini"), "--out", str(rerun)]) == 0
        assert [str(w.message) for w in caught] == warning
        assert (rerun / "config.ini").read_text() == ini
        assert sorted(p.name for p in rerun.iterdir()) == sorted(p.name for p in out.iterdir())
        for path in out.iterdir():
            if path.name != "config.ini":
                assert (rerun / path.name).read_bytes() == path.read_bytes(), path.name

    def test_incomplete_seed_skipped_with_warning(self, tmp_path):
        cfg = ExperimentConfig.from_ini(write_config(tmp_path))
        out = run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        (out / f"seed_101{DONE_SUFFIX}").unlink()
        with pytest.warns(UserWarning, match="seed_101"):
            summary = summarize(out)
        assert summary["seeds"] == [100]

    def test_rerun_with_fewer_seeds_ignores_stale_files(self, tmp_path):
        text = BASE_CONFIG.replace("seeds = 2", "seeds = 3")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "run"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        with pytest.warns(UserWarning) as record:
            assert main(["run", str(cfg_path), "--out", str(out), "--seeds", "1"]) == 0
        warned = " ".join(str(w.message) for w in record)
        assert "seed_101.csv" in warned and "seed_102.csv" in warned
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [100]
        for seed in (100, 101, 102):  # nothing is deleted
            assert (out / f"seed_{seed}.csv").exists()

    def test_failed_rerun_leaves_no_stale_results(self, tmp_path, capsys):
        out = tmp_path / "run"
        with_jsonl = BASE_CONFIG.replace("oracle = false", "oracle = false\njsonl = true")
        assert main(["run", str(write_config(tmp_path, with_jsonl)), "--out", str(out)]) == 0
        assert (out / "seed_100.jsonl").exists()
        diverging = BASE_CONFIG.replace("step_size = 0.2", "step_size = 1e9")
        diverging = diverging.replace("iterations = 2\nbatch_size = 6", "iterations = 80\nbatch_size = 6")
        path = write_config(tmp_path, diverging, name="b.ini")
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert "seed 100" in capsys.readouterr().err
        assert ExperimentConfig.from_ini(out / "config.ini").critic_step_size == 1e9
        for seed in (100, 101):
            for suffix in (".csv", ".jsonl", DONE_SUFFIX):
                assert not (out / f"seed_{seed}{suffix}").exists()
        assert not (out / "summary.json").exists()
        assert main(["summarize", str(out)]) == 2

    def test_bad_training_value_leaves_out_untouched(self, tmp_path):
        # checked before the earlier run's seed files, summary and config.ini go
        out = tmp_path / "run"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out), "--seeds", "1"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        bad = write_config(tmp_path, BASE_CONFIG.replace("step_size = 0.05", "step_size = inf"),
                           name="bad.ini")
        assert main(["run", str(bad), "--out", str(out), "--seeds", "1"]) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_bad_momentum_exponent_leaves_out_untouched(self, tmp_path, capsys):
        # 1.0 ** -nan == 1.0: a NaN exponent would pass the first actor
        # iteration and fail the second, after the earlier results were gone
        out = tmp_path / "run"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out), "--seeds", "1"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        bad = write_config(tmp_path, BASE_CONFIG.replace("power:1", "power:nan"), name="bad.ini")
        capsys.readouterr()
        assert main(["run", str(bad), "--out", str(out), "--seeds", "1"]) == 2
        assert "actor iteration" not in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_stray_seed_like_files_are_ignored_with_a_warning(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        for stem in ("seed_old", "seed_5000.bak", "seed_0100"):
            (out / f"{stem}.csv").write_bytes((out / "seed_100.csv").read_bytes())
            (out / f"{stem}{DONE_SUFFIX}").write_text("ok\n")
        expected = (out / "summary.json").read_bytes()
        for argv in (["summarize", str(out)], ["run", str(cfg_path), "--out", str(out)]):
            with pytest.warns(UserWarning) as record:
                assert main(argv) == 0
            warned = " ".join(str(w.message) for w in record)
            assert all(name in warned for name in ("seed_old.csv", "seed_5000.bak.csv",
                                                   "seed_0100.csv"))
            assert (out / "summary.json").read_bytes() == expected
            assert (out / "seed_old.csv").exists()

    def test_zero_padded_seed_is_not_counted_twice(self, tmp_path):
        # no config.ini: every well-named seed file counts, once
        out = tmp_path / "byhand"
        out.mkdir()
        for stem, g in (("seed_7", 1.0), ("seed_007", 3.0)):
            (out / f"{stem}.csv").write_text(f"t,grad_norm_sq\n1,{g}\n")
            (out / f"{stem}{DONE_SUFFIX}").write_text("ok\n")
        with pytest.warns(UserWarning, match="seed_007.csv"):
            summary = summarize(out)
        assert summary["seeds"] == [7]
        assert summary["stats"]["grad_norm_sq"]["mean"] == [1.0]

    def test_divergence_in_a_worker_keeps_type_message_and_iteration(self, tmp_path):
        cfg = ExperimentConfig.from_ini(write_config(tmp_path, DIVERGING_CONFIG))
        with pytest.raises(DivergenceError) as err:
            run_experiment(cfg, out_dir=tmp_path / "div", max_workers=2)
        assert type(err.value.__cause__).__name__ == "_RemoteTraceback"   # raised in a worker
        assert re.fullmatch(r"seed 100: actor iteration 1: critic weights diverged "
                            r"at inner critic iteration \d+", str(err.value))
        assert err.value.iteration == 1

    @pytest.mark.parametrize("change, message", [
        ({"env_kind": "forest"}, "kind must be one of"),
        ({"env_params": {"fish_proba": 0.3, "attack_prob": 0.1}}, "'attack_prob'.*'fishwood'"),
    ])
    def test_config_built_in_code_is_checked(self, tmp_path, change, message):
        # the check of from_ini, made before the out directory is touched and
        # before build_environment could fail with a KeyError or a TypeError
        cfg = dataclasses.replace(ExperimentConfig.from_ini(write_config(tmp_path)), **change)
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        assert not (tmp_path / "run").exists()

    def test_schema_mismatch_rejected(self, tmp_path):
        cfg = ExperimentConfig.from_ini(write_config(tmp_path))
        out = run_experiment(cfg, out_dir=tmp_path / "run", max_workers=1)
        csv_path = out / "seed_101.csv"
        lines = csv_path.read_text().splitlines()
        lines[0] = lines[0].replace("grad_norm_sq", "grad_norm")
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="schema"):
            summarize(out)

    @pytest.mark.parametrize("t_other", ["1\n2\n", "1\n2\n3\n", "5\n6\n"],
                             ids=["same", "longer", "shifted"])
    def test_seeds_at_other_iterations_rejected(self, tmp_path, t_other):
        # statistics at t must come from rows at t in every seed
        out = tmp_path / "byhand"
        out.mkdir()
        for seed, t_rows in ((0, "1\n2\n"), (1, t_other)):
            (out / f"seed_{seed}.csv").write_text("t\n" + t_rows)
            (out / f"seed_{seed}{DONE_SUFFIX}").write_text("ok\n")
        if t_other == "1\n2\n":
            assert summarize(out)["t"] == [1, 2]
        else:
            with pytest.raises(ConfigError, match="seed_1.csv.*iterations t.*seed_0.csv"):
                summarize(out)

    def test_median_of_three_final_values(self, tmp_path):
        # hand-built three-seed directory: medians computed per t
        out = tmp_path / "byhand"
        out.mkdir()
        header = "t,reward_mean_1,grad_norm_sq,lambda_1,eta_t"
        for seed, g in ((0, 1.0), (1, 2.0), (2, 3.0)):
            (out / f"seed_{seed}.csv").write_text(
                f"{header}\n1,0.5,{g},1,1\n"
            )
            (out / f"seed_{seed}{DONE_SUFFIX}").write_text("ok\n")
        summary = summarize(out)
        assert summary["stats"]["grad_norm_sq"]["median"] == [2.0]
        assert summary["stats"]["grad_norm_sq"]["mean"] == [2.0]
        assert summary["stats"]["grad_norm_sq"]["iqr"] == [1.0]


class TestCliCommands:
    def test_run_and_summarize_commands(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out_dir = tmp_path / "artifacts"
        code = main(["run", str(cfg_path), "--out", str(out_dir), "--seeds", "1"])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert Path(printed) == out_dir
        assert (out_dir / "seed_100.csv").exists()
        assert main(["summarize", str(out_dir)]) == 0

    @pytest.mark.parametrize("case, expected", [
        ("stray-seed", "ignoring seed_old.csv: seed files are named seed_<k>.csv"),
        ("incomplete-seed", "skipping incomplete seed file seed_101.csv"),
        ("lipschitz", "[moac] ignoring key 'lipschitz': it sets nothing"),
        ("theory_compliant = true", "[moac] ignoring key 'theory_compliant': it sets nothing"),
        ("theory_compliant = false", "[moac] ignoring key 'theory_compliant': it sets nothing"),
    ])
    def test_each_warning_prints_one_line(self, tmp_path, case, expected):
        # in a fresh interpreter, as a shell sees it: no source line of morlab's
        out = tmp_path / "run"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 0
        if case == "stray-seed":
            (out / "seed_old.csv").write_bytes((out / "seed_100.csv").read_bytes())
            (out / f"seed_old{DONE_SUFFIX}").write_text("ok\n")
        elif case == "incomplete-seed":
            (out / f"seed_101{DONE_SUFFIX}").unlink()
        else:
            ini = (out / "config.ini").read_text()
            line = "lipschitz = 10.0" if case == "lipschitz" else case
            (out / "config.ini").write_text(ini.replace("base_seed = 100\n", f"base_seed = 100\n{line}\n"))
        src = Path(morlab.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "morlab.cli", "summarize", str(out)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [f"warning: {expected}"]

    def test_run_takes_config_seeds_and_out(self, capsys):
        # a new flag of `morlab run` has to be a deliberate diff here
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert " ".join(usage.split()) == "usage: morlab run [-h] [--seeds SEEDS] [--out OUT] config"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG + "\nbogus = 1\n")
        assert main(["run", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_divergence_exits_3_naming_seed(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("step_size = 0.2", "step_size = 1e9")
        text = text.replace("iterations = 2\nbatch_size = 6", "iterations = 80\nbatch_size = 6")
        path = write_config(tmp_path, text)
        code = main(["run", str(path), "--out", str(tmp_path / "div"), "--seeds", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "seed 100" in err
        assert "actor iteration 1" in err and "inner critic iteration" in err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        from morlab import MoacConfig, MomentumSchedule, ParameterError
        with pytest.raises(ParameterError, match="seed"):
            MoacConfig("discounted", 1, 1, 0.1, MomentumSchedule("zero"), 0.1, 1, 1, seed=-1)
        path = write_config(tmp_path, BASE_CONFIG.replace("base_seed = 100", "base_seed = -1"))
        assert main(["run", str(path), "--out", str(tmp_path / "neg")]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("step_size = 0.05", "step_size = inf"),                  # [moac]
        ("step_size = 0.2", "step_size = inf"),                   # [critic]
    ])
    def test_non_finite_step_exits_2(self, tmp_path, capsys, old, new):
        # a bad config (exit 2), not a run that diverges at iteration 1 (exit 3)
        path = write_config(tmp_path, BASE_CONFIG.replace(old, new, 1))
        assert main(["run", str(path), "--out", str(tmp_path / "inf"), "--seeds", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["abc", "0", "-3"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        # checked before the earlier run's seed files, summary and config.ini go
        out = tmp_path / "w"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        monkeypatch.setenv("MORLAB_WORKERS", workers)
        capsys.readouterr()
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert "MORLAB_WORKERS" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("files, corrupt", [
        ("seed_*.csv",
         lambda lines: lines[:2] + [re.sub(r",[^,]*", ",abc", lines[2], count=1)] + lines[3:]),
        ("seed_*.csv", lambda lines: []),
        ("seed_*.csv", lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]),
        ("seed_*.csv", lambda lines: lines[:1] + [line + ",0" for line in lines[1:]]),
        ("seed_*.csv", lambda lines: [lines[0] + "\u00e9"] + lines[1:]),   # b"\xe9" in latin-1
        ("seed_*.csv", lambda lines: lines[:2] + [re.sub(r"^[^,]*", "2.5", lines[2])] + lines[3:]),
        ("seed_*.csv", lambda lines: lines[:2] + [re.sub(r"^[^,]*", "", lines[2])] + lines[3:]),
        ("seed_*.csv", lambda lines: [re.sub(r"^t,", "step,", lines[0])] + lines[1:]),
        ("seed_*.csv", lambda lines: [lines[0] + ",extra"] + [line + ",0" for line in lines[1:]]),
        ("config.ini", lambda lines: [line.replace("oracle = false", "oracle = true")
                                      for line in lines]),
        ("seed_*.csv", _second_cell("inf")),
        ("seed_*.csv", _second_cell("-Infinity")),
        ("seed_*.csv", _second_cell("1e999")),
        ("seed_*.csv", _second_cell("nan")),
    ], ids=["not-a-number", "empty", "ragged", "wider-than-header", "not-utf-8",
            "t-not-an-integer", "t-missing", "t-not-first", "column-not-in-config",
            "config-asks-for-oracle-columns", "inf", "minus-infinity", "overflow", "nan"])
    def test_malformed_seed_csv_exits_2(self, tmp_path, capsys, files, corrupt):
        # every seed alike, so no check that compares seeds catches it first
        out = tmp_path / "run"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 0
        for path in out.glob(files):
            lines = corrupt(path.read_text().splitlines())
            path.write_text("".join(line + "\n" for line in lines), encoding="latin-1")
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed_100.csv" in err

    def test_reducible_chain_under_oracle_exits_2(self, tmp_path, capsys):
        # every action keeps the state, so no policy has a unique stationary law
        env = TabularMomdp(2, 2, 1, np.stack([np.eye(2), np.eye(2)], axis=1),
                           np.ones((1, 2, 2)), np.array([0.9]), np.array([0.5, 0.5]))
        save_env_json(env, str(tmp_path / "env.json"))
        text = BASE_CONFIG.replace("oracle = false", "oracle = true")
        text = text.replace(FISHWOOD_ENV, f"kind = file\npath = {tmp_path / 'env.json'}")
        code = main(["run", str(write_config(tmp_path, text)), "--out", str(tmp_path / "r"),
                     "--seeds", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "reducible" in err and "seed 100" in err and "actor iteration 1" in err

    def test_qp_without_certificate_exits_3(self, tmp_path, capsys, monkeypatch):
        import morlab.driver

        def no_certificate(gradients):
            raise ConvergenceError("min-norm solver stopped without certificate", residual=1.0)

        monkeypatch.setattr(morlab.driver, "solve_min_norm", no_certificate)
        code = main(["run", str(write_config(tmp_path)), "--out", str(tmp_path / "q"),
                     "--seeds", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "certificate" in err and "seed 100" in err and "actor iteration 1" in err

    def test_parameter_error_mid_run_names_seed_and_iteration(self, tmp_path, capsys, monkeypatch):
        import morlab.driver

        real_solve = morlab.driver.solve_min_norm
        calls = []

        def overflows_third_call(gradients):
            calls.append(1)
            if len(calls) == 3:
                raise ParameterError("inner products of the gradients overflow")
            return real_solve(gradients)

        monkeypatch.setattr(morlab.driver, "solve_min_norm", overflows_third_call)
        code = main(["run", str(write_config(tmp_path)), "--out", str(tmp_path / "p"),
                     "--seeds", "1"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: seed 100: actor iteration 3: inner products of the gradients overflow\n"

    @pytest.mark.parametrize("command, target, content", [
        ("ncis", "policy", "theta = [0.5]"),
        ("ncis", "policy", '{"n_states": 2, "n_actions": 2}'),
        ("ncis", "policy", "[0.5, 0.5]"),
        ("ncis", "policy", json.dumps({"kind": "linear", "n_states": 4, "n_actions": 2,
                                       "theta": [0.0, 0.0],
                                       "state_features": [[1.0], [0.0], [0.0], [1.0]]})),
        ("ncis", "policy", json.dumps({"n_states": 4, "n_actions": "2", "theta": [0.0] * 8})),
        ("ncis", "policy", json.dumps({"n_states": 4, "n_actions": 2, "theta": ["0.0"] * 8})),
        ("ncis", "policy", json.dumps({"n_states": 4, "n_actions": 2,
                                       "theta": [True] + [0.0] * 7})),
        ("ncis", "dataset", None),
        ("ncis", "dataset", b"\xff\xfe{"),
        ("ncis", "dataset", '{"s": 0, "a": 0, "r": [NaN, 1.0], "pb": 0.5}\n'),
        ("ncis", "dataset", '{"s": 0, "a": 0, "r": [], "pb": 0.5}\n'),
        ("ncis", "dataset", '{"s": 0, "a": 0, "r": [1.0, 0.5], "pb": 0.5}\n' + "[" * 100_000 + "\n"),
        ("ncis", "policy", "[" * 100_000),
        ("run", "env", "n_states: 2"),
        ("run", "env", "[2, 2, 2]"),
        ("run", "env", None),
        ("run", "env", json.dumps({k: v for k, v in _FISHWOOD_DOC.items() if k != "n_objectives"})),
        ("run", "env", json.dumps({**_FISHWOOD_DOC, "n_states": 4.9})),
        ("run", "env", json.dumps({**_FISHWOOD_DOC, "r_max": "1.0"})),
        ("run", "env", json.dumps({**_FISHWOOD_DOC, "r_max": 10 ** 400})),
        ("run", "env", json.dumps({**_FISHWOOD_DOC, "r_max": float("inf")})),
        ("run", "env", json.dumps({**_FISHWOOD_DOC, "discounts": ["0.9", "0.9"]})),
        ("run", "env", _fishwood_with_entry("transition", (0, 0, 0), "0.7")),
        ("run", "env", _fishwood_with_entry("reward", (0, 3, 0), True)),
        ("run", "env", MISSING),
        ("run", "env", "[" * 100_000),
        ("run", "out", ""),
    ], ids=["policy-not-json", "policy-without-theta", "policy-list", "policy-linear",
            "policy-string-actions", "policy-string-theta", "policy-bool-theta",
            "dataset-directory", "dataset-not-utf8", "dataset-nan-reward",
            "dataset-empty-reward", "dataset-deep-nesting", "policy-deep-nesting",
            "env-not-json", "env-list", "env-directory",
            "env-without-n_objectives", "env-float-states", "env-string-r_max",
            "env-huge-int-r_max", "env-infinite-r_max", "env-string-discounts",
            "env-string-transition", "env-bool-reward", "env-missing", "env-deep-nesting",
            "out-is-a-file"])
    def test_bad_input_file_exits_2(self, tmp_path, capsys, command, target, content):
        # content None makes the file a directory
        bad = tmp_path / "bad"
        if content is None:
            bad.mkdir()
        elif isinstance(content, bytes):
            bad.write_bytes(content)
        elif content is not MISSING:
            bad.write_text(content)
        if command == "ncis":
            env = build_fishwood(0.4, 0.5)
            data, policy = tmp_path / "log.jsonl", tmp_path / "policy.json"
            save_logged_data(generate_logged_data(env, uniform_policy(env), n=20, seed=3), str(data))
            save_policy_json(uniform_policy(env), str(policy))
            argv = ["ncis", str(bad if target == "dataset" else data),
                    str(bad if target == "policy" else policy)]
        else:
            text = BASE_CONFIG.replace("seeds = 2", "seeds = 1")
            out = bad if target == "out" else tmp_path / "run"
            if target == "env":
                # an earlier run's results in --out must survive the bad run
                assert main(["run", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
                capsys.readouterr()
                text = text.replace(FISHWOOD_ENV, f"kind = file\npath = {bad}")
            argv = ["run", str(write_config(tmp_path, text)), "--out", str(out)]
        earlier = {p.name: p.read_bytes() for p in tmp_path.glob("run/*")}
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in tmp_path.glob("run/*")} == earlier

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--seeds", "0"), ("run", "--seeds", "x"),
        ("ncis", "--cap", "-1"), ("ncis", "--cap", "nan"), ("ncis", "--cap", "x"),
    ], ids=["seeds-0", "seeds-x", "cap-negative", "cap-nan", "cap-x"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        # argparse exits 2 itself on a value it cannot parse
        if command == "ncis":
            env = build_fishwood(0.4, 0.5)
            data, policy = tmp_path / "log.jsonl", tmp_path / "policy.json"
            save_logged_data(generate_logged_data(env, uniform_policy(env), n=20, seed=3), str(data))
            save_policy_json(uniform_policy(env), str(policy))
            argv = ["ncis", str(data), str(policy)]
        else:
            argv = ["run", str(write_config(tmp_path)), "--out", str(tmp_path / "run")]
        try:
            code = main(argv + [flag, value])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_ncis_command(self, tmp_path, capsys):
        env = build_fishwood(0.4, 0.5)
        behavior = uniform_policy(env)
        data = generate_logged_data(env, behavior, n=200, seed=3)
        data_path = tmp_path / "log.jsonl"
        save_logged_data(data, str(data_path))
        policy_path = tmp_path / "policy.json"
        save_policy_json(behavior, str(policy_path))
        code = main(["ncis", str(data_path), str(policy_path), "--cap", "10"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scores"] == pytest.approx(list(data.rewards.mean(axis=0)))

    def test_ncis_bad_dataset_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"s": 0}\n')
        policy_path = tmp_path / "policy.json"
        env = build_fishwood(0.4, 0.5)
        save_policy_json(uniform_policy(env), str(policy_path))
        assert main(["ncis", str(bad), str(policy_path)]) == 2

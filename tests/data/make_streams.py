"""The stream corpus: SHA-256 digests of small seeded runs, kept in
``streams.json`` beside this file and checked by ``tests/test_streams.py``.

For each config below the corpus holds the digest of every file ``morlab run``
writes (seed CSVs and JSONL, ``.DONE`` markers, ``summary.json`` and
``config.ini``) and of the raw bytes of each seed's ``run_moac`` result: the
sampled fields of the metrics records (``records_sampled``) and their exact
oracle fields (``records_oracle``) apart, the final and sampled theta,
``t_hat`` and ``lambda_initial``. It also holds the digest of one logged-data file: the
sampler's long draw in ``generate_logged_data``, whose states and actions
reach the file directly. It also records the Python and numpy versions the
digests were made with; floating-point results may differ under others. No
morlab code path loads scipy, so its version is not recorded.

A change that moves the seeded stream regenerates the file and says why:

    PYTHONPATH=src python tests/data/make_streams.py

Before it writes, the script compares the new corpus with the file and prints
one line per digest that moved (config, seed and part, or file), or "nothing
moved".
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("streams.json")


def _ini(env: str, moac: str, critic: str, experiment: str = "") -> str:
    return (f"[experiment]\nname = corpus\nseeds = 2\n{experiment}"
            f"[environment]\n{env}\n[moac]\n{moac}\nmomentum = power:1\nbase_seed = 7\n"
            f"[critic]\n{critic}\n")


# name -> (INI text, build_fishwood arguments of the model written to env.json,
# or None); a run reads env.json through a relative path, so its config.ini is
# the same in any working directory
CONFIGS = {
    # criterion 9's config (tests/test_acceptance.py)
    "criterion-9": (_ini("kind = fishwood\nfish_proba = 0.3\nwood_proba = 0.6\ndiscount = 0.9",
                         "setting = discounted\niterations = 8\nbatch_size = 16\nstep_size = 0.05",
                         "step_size = 0.2\niterations = 3\nbatch_size = 10\nfeatures = default",
                         "oracle = true\noracle_every = 3\n"), None),
    # the train-rg workload's shape, short T
    "train-rg": (_ini("kind = resource_gathering",
                      "setting = discounted\niterations = 6\nbatch_size = 128\nstep_size = 20.0",
                      "step_size = 0.3\niterations = 10\nbatch_size = 50",
                      "jsonl = true\n"), None),
    # the oracle-rg workload's shape: average setting, the oracle every iteration
    "oracle-rg": (_ini("kind = resource_gathering",
                       "setting = average\niterations = 25\nbatch_size = 32\nstep_size = 0.5",
                       "step_size = 0.3\niterations = 2\nbatch_size = 25",
                       "oracle = true\noracle_every = 1\n"), None),
    # two discounts, which an INI file cannot give fishwood: a kind = file model
    "fishwood-0.8-0.95": (_ini("kind = file\npath = env.json",
                               "setting = discounted\niterations = 10\nbatch_size = 16\n"
                               "step_size = 0.05",
                               "step_size = 0.2\niterations = 3\nbatch_size = 10",
                               "oracle = true\noracle_every = 2\n"),
                          dict(fish_proba=0.25, wood_proba=0.65, discount=(0.8, 0.95))),
    "fishwood-average": (_ini("kind = fishwood",
                              "setting = average\niterations = 10\nbatch_size = 16\nstep_size = 0.5",
                              "step_size = 0.2\niterations = 3\nbatch_size = 10",
                              "oracle = true\noracle_every = 3\n"), None),
    "complete-features": (_ini("kind = fishwood",
                               "setting = discounted\niterations = 10\nbatch_size = 16\n"
                               "step_size = 0.05",
                               "step_size = 0.2\niterations = 3\nbatch_size = 10\n"
                               "features = complete",
                               "oracle = true\noracle_every = 2\n"), None),
}


# the logged-data file: generate_logged_data on resource_gathering under the
# policy of N(0, 1) logits drawn with LOG_POLICY_SEED
LOG_POLICY_SEED, LOG_RECORDS, LOG_SEED = 18, 20_000, 2024


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_bytes(value) -> bytes:
    """Raw bytes of a result field, prefixed by its dtype and shape; None has
    its own marker."""
    if value is None:
        return b"None;"
    arr = np.asarray(value)
    return f"{arr.dtype.str}{arr.shape};".encode() + arr.tobytes()


# the MetricsRecord fields of the sampled stream and of the exact oracle, each
# digested on its own, so a change to the oracle alone moves only
# records_oracle
SAMPLED_FIELDS = ("t", "reward_mean", "grad_norm_sq", "lam", "eta")
ORACLE_FIELDS = ("critic_err", "j_exact", "pareto_gap")


def _records_digest(records, names) -> str:
    """Digest of the ``names`` fields of ``records``, field by field in step order."""
    return _sha(b"".join(_array_bytes(getattr(rec, name)) for rec in records for name in names))


def result_digests(result) -> dict:
    """Digests of one ``MoacResult``: the sampled and the oracle fields of the
    records, the two thetas, t_hat and lambda_initial."""
    from dataclasses import fields

    from morlab import MetricsRecord
    assert [f.name for f in fields(MetricsRecord)] == [*SAMPLED_FIELDS, *ORACLE_FIELDS]
    return {"records_sampled": _records_digest(result.records, SAMPLED_FIELDS),
            "records_oracle": _records_digest(result.records, ORACLE_FIELDS),
            "final_theta": _sha(_array_bytes(result.final_policy.theta)),
            "sampled_theta": _sha(_array_bytes(result.sampled_policy.theta)),
            "t_hat": _sha(_array_bytes(result.t_hat)),
            "lambda_initial": _sha(_array_bytes(result.lambda_initial))}


def config_digests(name: str, workdir: Path) -> dict:
    """Run config ``name`` in ``workdir`` (made the working directory for the
    call) and return {"files": {file: digest}, "run_moac": {seed: digests}}."""
    from morlab import build_fishwood, run_moac, save_env_json
    from morlab.experiment import ExperimentConfig, build_environment, moac_config, run_experiment

    text, fishwood = CONFIGS[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if fishwood is not None:
            save_env_json(build_fishwood(**fishwood), "env.json")
        Path("exp.ini").write_text(text, encoding="utf-8")
        cfg = ExperimentConfig.from_ini("exp.ini")
        out = run_experiment(cfg, out_dir="run", max_workers=1)
        files = {path.name: _sha(path.read_bytes()) for path in sorted(out.iterdir())}
        env = build_environment(cfg)
        seeds = range(cfg.base_seed, cfg.base_seed + cfg.seeds)
        results = {f"seed_{seed}": result_digests(run_moac(env, moac_config(cfg, seed)))
                   for seed in seeds}
    finally:
        os.chdir(cwd)
    return {"files": files, "run_moac": results}


def logged_data_digest(workdir: Path) -> str:
    """Digest of the ``save_logged_data`` bytes of the corpus log, written in
    ``workdir``."""
    from morlab import PolicyParams, build_resource_gathering, generate_logged_data, save_logged_data

    env = build_resource_gathering()
    S, A = env.n_states, env.n_actions
    policy = PolicyParams(np.random.default_rng(LOG_POLICY_SEED).normal(size=S * A), S, A)
    path = workdir / "log.jsonl"
    save_logged_data(generate_logged_data(env, policy, n=LOG_RECORDS, seed=LOG_SEED), str(path))
    return _sha(path.read_bytes())


def build_corpus() -> dict:
    configs = {}
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            configs[name] = config_digests(name, Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        logged_data = logged_data_digest(Path(tmp))
    return {"versions": versions(), "configs": configs, "logged_data": logged_data}


def _digests(corpus: dict) -> dict:
    """Every digest of a corpus, keyed by a tuple naming where it sits."""
    out = {("logged_data",): corpus.get("logged_data")}
    for name, digests in corpus.get("configs", {}).items():
        for file, digest in digests["files"].items():
            out[(name, "file", file)] = digest
        for seed, parts in digests["run_moac"].items():
            for part, digest in parts.items():
                out[(name, seed, part)] = digest
    return out


def moved(old: dict, new: dict) -> list[str]:
    """One line per digest that differs between two corpora, present in only
    one of them included, and one for the versions if they differ."""
    lines = [] if old.get("versions") == new.get("versions") else \
        [f"versions: {old.get('versions')} -> {new.get('versions')}"]
    a, b = _digests(old), _digests(new)
    return lines + [" ".join(key) for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def main():
    corpus = build_corpus()
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else {}
    print("\n".join(moved(old, corpus)) or "nothing moved")
    CORPUS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(CORPUS)


if __name__ == "__main__":
    main()

"""Self-test of the benchmark's checks: each accepts a real output and rejects
a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Prints one line per case and exits non-zero if a check accepts a corrupted
output or rejects a real one. Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import morlab  # noqa: E402
from morlab import experiment, opeval  # noqa: E402

WORK = HERE.parent / ".perfbench_runs" / "selftest"


def moac(setting: str, iterations: int, **extra):
    env = morlab.build_resource_gathering()
    config = morlab.MoacConfig(
        setting=setting, actor_iterations=iterations, actor_batch_size=32, actor_step_size=0.5,
        momentum=morlab.MomentumSchedule.parse("power:1"), critic_step_size=0.3,
        critic_iterations=2, critic_batch_size=25, seed=7, **extra)
    return env, morlab.run_moac(env, config)


def cases():
    env, train = moac("discounted", 30)
    yield "momentum: real run", lambda: checks.check_moac_records(train, 30, "train"), None

    def off_simplex():
        bad = copy.deepcopy(train)
        bad.records[9].lam[0] += 1e-9
        checks.check_moac_records(bad, 30, "train")
    yield "momentum: lambda off the simplex", None, off_simplex

    def jump():
        bad = copy.deepcopy(train)
        lam = bad.records[19].lam
        bad.records[19].lam = np.roll(lam, 1) if not np.allclose(lam, np.roll(lam, 1)) else np.eye(3)[0]
        checks.check_moac_records(bad, 30, "train")
    yield "momentum: step larger than 2 eta_t", None, jump

    def dropped_row():
        bad = copy.deepcopy(train)
        del bad.records[5]
        checks.check_moac_records(bad, 30, "train")
    yield "momentum: dropped record", None, dropped_row

    env, oracle = moac("average", 12, oracle_diagnostics=True, oracle_every=1)
    yield "oracle: real run", lambda: checks.check_oracle_at_t_hat(env, oracle, "oracle"), None

    def perturbed_j():
        bad = copy.deepcopy(oracle)
        bad.records[bad.t_hat - 1].j_exact[1] *= 1.0 + 1e-8
        checks.check_oracle_at_t_hat(env, bad, "oracle")
    yield "oracle: perturbed J", None, perturbed_j

    def perturbed_gap():
        bad = copy.deepcopy(oracle)
        bad.records[bad.t_hat - 1].pareto_gap *= 1.0 + 1e-3
        checks.check_oracle_at_t_hat(env, bad, "oracle")
    yield "oracle: perturbed Pareto gap", None, perturbed_gap

    def wrong_policy():
        bad = copy.deepcopy(oracle)
        logged = bad.records[bad.t_hat - 1].j_exact
        # point t_hat at an iteration whose policy differs from sampled_policy
        bad.t_hat = next(r.t for r in bad.records if not np.array_equal(r.j_exact, logged))
        checks.check_oracle_at_t_hat(env, bad, "oracle")
    yield "oracle: record of another iteration", None, wrong_policy

    run_dir = WORK / "sweep"
    cfg = experiment.ExperimentConfig(
        name="selftest", seeds=3, output="", oracle=True, oracle_every=5, jsonl=True,
        env_kind="fishwood", env_params={"fish_proba": 0.25, "wood_proba": 0.65, "discount": 0.9},
        iterations=20, batch_size=32, step_size=0.0333, base_seed=40,
        critic_step_size=0.2, critic_iterations=5, critic_batch_size=25)
    experiment.run_experiment(cfg, out_dir=run_dir, max_workers=1)
    seeds = [40, 41, 42]
    yield "sweep: real run", lambda: checks.check_run_dir(run_dir, seeds, 20, 2), None

    def corrupt_copy(edit):
        bad_dir = WORK / "sweep-bad"
        shutil.rmtree(bad_dir, ignore_errors=True)
        shutil.copytree(run_dir, bad_dir)
        edit(bad_dir)
        checks.check_run_dir(bad_dir, seeds, 20, 2)

    def edit_summary(fn):
        def edit(d):
            doc = json.loads((d / "summary.json").read_text())
            fn(doc)
            (d / "summary.json").write_text(json.dumps(doc))
        return edit

    yield "sweep: dropped seed in summary", None, lambda: corrupt_copy(
        edit_summary(lambda doc: doc["seeds"].pop()))
    yield "sweep: perturbed mean", None, lambda: corrupt_copy(
        edit_summary(lambda doc: doc["stats"]["grad_norm_sq"]["mean"].__setitem__(
            4, doc["stats"]["grad_norm_sq"]["mean"][4] * (1 + 1e-9))))
    yield "sweep: perturbed IQR", None, lambda: corrupt_copy(
        edit_summary(lambda doc: doc["stats"]["lambda_1"]["iqr"].__setitem__(
            10, doc["stats"]["lambda_1"]["iqr"][10] + 1e-6)))

    def bad_lambda(d):
        path = d / "seed_41.csv"
        lines = path.read_text().splitlines()
        cells = lines[8].split(",")
        col = lines[0].split(",").index("lambda_1")
        cells[col] = repr(float(cells[col]) + 1e-6)
        lines[8] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    yield "sweep: lambda row off the simplex", None, lambda: corrupt_copy(bad_lambda)

    def missing_seed(d):
        for suffix in (".csv", ".jsonl", ".DONE"):
            (d / f"seed_42{suffix}").unlink()
    yield "sweep: seed files missing", None, lambda: corrupt_copy(missing_seed)

    env = morlab.build_resource_gathering()
    rng = np.random.default_rng(3)
    S, A = env.n_states, env.n_actions
    thetas = [rng.normal(0.0, 1.0, S * A)]
    thetas.append(thetas[0] + rng.normal(0.0, 0.5, S * A))
    policies = [morlab.PolicyParams(th, S, A) for th in thetas]
    path = WORK / "logged.jsonl"
    opeval.save_logged_data(opeval.generate_logged_data(env, policies[0], 20_000, 5), str(path))
    loaded = opeval.load_logged_data(str(path))
    scores = [opeval.ncis_scores(loaded, p, cap=10.0) for p in policies]
    yield "offline: real scores", lambda: checks.check_offline_scores(
        env, path, thetas, scores, cap=10.0), None

    def last_digit():
        bad = [s.copy() for s in scores]
        bad[0][0] = np.nextafter(bad[0][0], 2.0)
        checks.check_offline_scores(env, path, thetas, bad, cap=10.0)
    yield "offline: behavior score off in the last digit", None, last_digit

    def candidate_off():
        bad = [s.copy() for s in scores]
        bad[1][0] *= 1.0 + 1e-9
        checks.check_offline_scores(env, path, thetas, bad, cap=10.0)
    yield "offline: candidate score off by 1e-9", None, candidate_off

    def far_from_exact():
        _, _, r, _ = checks.read_logged_jsonl(path)
        exact = checks.average_reward(env.transition, env.reward, thetas[0])
        shifted = exact.copy()
        shifted[0] += 0.02     # many standard errors at 20k records
        checks.check_within_sigma(r.mean(axis=0), r, shifted)
    yield "offline: behavior score far from the exact J", None, far_from_exact


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures = 0
    try:
        for name, accept, reject in cases():
            if accept is not None:
                try:
                    accept()
                    print(f"ok    {name}: accepted")
                except checks.CheckError as exc:
                    failures += 1
                    print(f"FAIL  {name}: rejected a real output: {exc}")
            else:
                try:
                    reject()
                    failures += 1
                    print(f"FAIL  {name}: corrupted output accepted")
                except checks.CheckError as exc:
                    print(f"ok    {name}: rejected ({exc})")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

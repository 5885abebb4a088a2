"""morlab benchmark: four workloads, end-to-end rates, and a traced per-layer run.

Run from the root of a checkout (no install needed, morlab is imported from
``src/``):

    python3 perfbench/run.py --workload train-rg --seed 1 --seconds 20 --trace 0

The load is a closed loop: one caller, each call waiting for the previous one.
The timed phase repeats whole rounds of the workload's fixed operations until
``--seconds`` of round time has passed. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import morlab; "
                "print(time.perf_counter() - t)")


class Workload:
    """One benchmark workload.

    ``setup`` builds the inputs; ``round`` runs the fixed operations of one
    round, keeps its outputs in ``self.outputs`` and returns ``(operations
    attempted, operations failed, units of work done)``; ``check`` verifies
    every kept output after the timed phase.
    """

    ops_per_round = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.outputs = []


class MoacWorkload(Workload):
    """``run_moac`` on resource_gathering, one seed per round."""

    config: dict = {}

    def setup(self):
        import morlab
        self.env = morlab.momdp.build_resource_gathering()
        self.iterations = self.config["actor_iterations"]
        self.momentum = morlab.mgda.MomentumSchedule.parse("power:1")

    def round(self, index: int):
        import morlab
        config = morlab.driver.MoacConfig(momentum=self.momentum, seed=1000 * self.seed + index,
                                          **self.config)
        result = morlab.driver.run_moac(self.env, config)
        self.outputs.append((config.seed, result))
        return 1, 0, self.iterations


class TrainRg(MoacWorkload):
    config = dict(setting="discounted", actor_iterations=300, actor_batch_size=128,
                  actor_step_size=20.0, critic_step_size=0.3, critic_iterations=10,
                  critic_batch_size=50)

    def check(self):
        for seed, result in self.outputs:
            checks.check_moac_records(result, self.iterations, f"train-rg seed {seed}")


class OracleRg(MoacWorkload):
    config = dict(setting="average", actor_iterations=50, actor_batch_size=32,
                  actor_step_size=0.5, critic_step_size=0.3, critic_iterations=2,
                  critic_batch_size=25, oracle_diagnostics=True, oracle_every=1)

    def check(self):
        for seed, result in self.outputs:
            where = f"oracle-rg seed {seed}"
            checks.check_moac_records(result, self.iterations, where)
            checks.check_oracle_at_t_hat(self.env, result, where)


class SweepFw(Workload):
    """``morlab run`` on a fishwood INI with many short seeds, fresh ``--out`` per round."""

    seeds = 8
    iterations = 100
    ops_per_round = seeds

    def setup(self):
        self.base_seed = 1000 * self.seed
        self.ini = self.workdir / "sweep-fw.ini"
        self.ini.write_text(
            "[experiment]\n"
            f"name = sweep-fw\nseeds = {self.seeds}\noracle = true\noracle_every = 10\njsonl = true\n"
            "[environment]\n"
            "kind = fishwood\nfish_proba = 0.25\nwood_proba = 0.65\ndiscount = 0.9\n"
            "[moac]\n"
            f"setting = discounted\niterations = {self.iterations}\nbatch_size = 64\n"
            f"step_size = 0.0333\nmomentum = power:1\nbase_seed = {self.base_seed}\n"
            "[critic]\n"
            "step_size = 0.2\niterations = 10\nbatch_size = 50\n",
            encoding="utf-8")
        os.environ["MORLAB_WORKERS"] = str(len(os.sched_getaffinity(0)))

    def round(self, index: int):
        import morlab
        out = self.workdir / f"sweep-{index}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = morlab.cli.main(["run", str(self.ini), "--out", str(out)])
        if code != 0:
            return self.seeds, self.seeds, 0
        self.outputs.append(out)
        return self.seeds, 0, self.seeds * self.iterations

    def check(self):
        seeds = [self.base_seed + k for k in range(self.seeds)]
        for out in self.outputs:
            checks.check_run_dir(out, seeds, self.iterations, n_objectives=2)


class OfflineRg(Workload):
    """Generate, save, load and score logged data on resource_gathering."""

    records = 50_000
    candidates = 4
    cap = 10.0
    ops_per_round = candidates

    def setup(self):
        import morlab
        self.env = morlab.momdp.build_resource_gathering()
        S, A = self.env.n_states, self.env.n_actions
        rng = np.random.default_rng(self.seed)
        behavior = rng.normal(0.0, 1.0, S * A)
        self.thetas = [behavior] + [behavior + rng.normal(0.0, 0.5, S * A)
                                    for _ in range(self.candidates - 1)]
        self.policies = [morlab.policy.PolicyParams(th, S, A) for th in self.thetas]
        self.data_seed = int(rng.integers(2**31))
        self.path = self.workdir / "offline-rg.jsonl"

    def round(self, index: int):
        from morlab import opeval
        data = opeval.generate_logged_data(self.env, self.policies[0], self.records, self.data_seed)
        opeval.save_logged_data(data, str(self.path))
        loaded = opeval.load_logged_data(str(self.path))
        scores = [opeval.ncis_scores(loaded, p, cap=self.cap) for p in self.policies]
        self.outputs.append(scores)
        self.jsonl_bytes = self.path.stat().st_size
        return self.candidates, 0, self.records

    def check(self):
        # every round has the same inputs, so every round must give the same scores
        first = self.outputs[0]
        for k, scores in enumerate(self.outputs[1:], start=2):
            if any(not np.array_equal(a, b) for a, b in zip(first, scores)):
                raise checks.CheckError(f"offline-rg round {k} scores differ from round 1")
        checks.check_offline_scores(self.env, self.path, self.thetas, self.outputs[-1], self.cap)


WORKLOADS = {"train-rg": TrainRg, "oracle-rg": OracleRg, "sweep-fw": SweepFw, "offline-rg": OfflineRg}


def import_morlab():
    """Import morlab from this checkout's ``src/``, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import morlab
        import morlab.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import morlab from {SRC}: {exc}")
    if Path(morlab.__file__).resolve().parent != SRC / "morlab":
        raise SystemExit(f"perfbench: morlab was imported from {morlab.__file__}, not from {SRC}")


def probe_import() -> float:
    """Seconds a fresh interpreter takes to import morlab from ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(cls, seed: int, workdir: Path, probe: "SpeedProbe") -> tuple[Workload, float]:
    """Set up ``SETUP_REPEATS`` times; return the last workload and the median
    of the rescaled set-up times.

    The first repeat's import is this process's own; the others import in a
    fresh interpreter, since a module is imported only once per process.
    """
    times = []
    workload = None
    for k in range(SETUP_REPEATS):
        first = len(probe.samples)
        imported = probe_import() if k else 0.0
        own, start = len(probe.samples), time.perf_counter()
        if k == 0:
            import_morlab()
        workload = cls(seed, workdir)
        workload.setup()
        took = time.perf_counter() - start - sum(wall for wall, _ in probe.samples[own:])
        times.append((imported + took) * probe.factor(first))
    return workload, statistics.median(times)


class SpeedProbe:
    """Samples how fast this process's CPU runs morlab-like code while a round runs.

    On a shared machine the same round can take 20-60% more wall time as
    neighbouring load comes and goes over tens of seconds. A 20 Hz interval
    timer interrupts the benchmark's own thread (never the pool workers: a
    forked child inherits no timer) and takes the CPU time of a fixed kernel
    of about 0.7 ms that mixes what morlab spends its time on: a chained walk
    of ``searchsorted`` calls over a 93 x 372 cumulative table, small dense
    solves, JSON round trips and plain Python arithmetic. It takes CPU time,
    so that a probe waiting for a core the pool workers hold does not count
    as a slow machine. A round's wall time, less the probes' own, is rescaled
    to the reference speed by ``PROBE_REFERENCE_S / median probe CPU time``
    over the round. The kernel is the benchmark's own code: a change to morlab
    does not change it.
    """

    INTERVAL_S = 0.05
    PROBE_REFERENCE_S = 700e-6   # about the kernel's CPU time on a 2-vCPU VM; sets the scale only

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (wall s, CPU s) per probe
        rng = np.random.default_rng(0)
        table = np.cumsum(rng.random((93, 372)), axis=1)
        self._table = table / table[:, -1:]
        self._uniforms = rng.random(40)
        self._matrix = rng.random((24, 24)) + 24.0 * np.eye(24)
        self._rhs = rng.random(24)

    def _kernel(self):
        s = 0
        for u in self._uniforms:
            s = int(np.searchsorted(self._table[s], u, side="right")) % 93
        for _ in range(3):
            np.linalg.solve(self._matrix, self._rhs)
        for _ in range(20):
            json.loads(json.dumps({"s": s, "a": 3, "r": [0.9, 0.0, 1.0], "pb": 0.123456789}))
        for i in range(500):
            s += i * i % 7
        return s

    def _handler(self, signum, frame):
        start, cpu = time.perf_counter(), time.thread_time()
        self._kernel()
        self.samples.append((time.perf_counter() - start, time.thread_time() - cpu))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, first: int) -> float:
        """Reference over measured speed, from the probes since sample ``first``."""
        probes = self.samples[first:] or self.samples
        if not probes:
            return 1.0
        return self.PROBE_REFERENCE_S / statistics.median(cpu for _, cpu in probes)

    def rescale(self, first: int, took: float) -> float:
        """Rescale ``took`` wall seconds of this process, spent since sample ``first``."""
        return (took - sum(wall for wall, _ in self.samples[first:])) * self.factor(first)


def run_rounds(workload: Workload, seconds: float, probe: "SpeedProbe", tracer=None):
    """Closed loop of whole rounds until ``seconds`` of round time have passed.

    With a tracer, rounds alternate untraced and traced, starting untraced.
    Returns per-round (rescaled seconds, work per rescaled second, traced)
    rows plus attempted/failed counts.
    """
    rows = []
    attempted = failed = 0
    elapsed = 0.0
    index = 0
    while elapsed < seconds or (tracer is not None and index < 2):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        first, start = len(probe.samples), time.perf_counter()
        try:
            ops, bad, work = workload.round(index)
        except Exception:  # a failing operation is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            ops, bad, work = workload.ops_per_round, workload.ops_per_round, 0
        took = time.perf_counter() - start
        scaled = probe.rescale(first, took)
        if traced:
            tracer.uninstall()
        attempted += ops
        failed += bad
        if bad == 0:
            rows.append((scaled, work / scaled, traced))
        elapsed += took
        index += 1
    return rows, attempted, failed


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def layer_metrics(tracer: spans.Tracer, rows, workload: Workload) -> dict:
    """Per-layer metrics per traced round, from the spans of the traced rounds."""
    traced = [r for r in rows if r[2]]
    untraced = [r for r in rows if not r[2]]
    n = max(len(traced), 1)
    by = spans.summarize_spans(tracer.spans)

    def calls(name):
        return by[name]["calls"] / n if name in by else 0.0

    def total(name):
        return by[name]["total_s"] / n if name in by else 0.0

    def self_s(name):
        return by[name]["self_s"] / n if name in by else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    sample_s = total(spans.SAMPLER)
    steps = tracer.sampled_steps / n
    workers = int(os.environ.get("MORLAB_WORKERS", "1"))
    pool_overhead = 0.0
    if "experiment.run_experiment" in by:
        pool_overhead = (total("experiment.run_experiment") - total("experiment.worker") / workers
                         - total("experiment.summarize") - total("experiment.write_summary"))
    out = {
        "momdp.sample_batch_s": (sample_s, "s"),
        "momdp.sample_batch_calls": (calls(spans.SAMPLER), "count"),
        "momdp.sampled_steps": (steps, "count"),
        "momdp.steps_per_s": (ratio(steps, sample_s), "1/s"),
        "momdp.batches_per_policy": (ratio(calls(spans.SAMPLER), len(tracer.policy_keys) / n), "count"),
        "momdp.stationary_s": (total("momdp.compute_stationary_distribution"), "s"),
        "momdp.stationary_calls": (calls("momdp.compute_stationary_distribution"), "count"),
        "momdp.stationary_per_oracle_step": (ratio(calls("momdp.compute_stationary_distribution"),
                                                   calls("critic.compute_td_fixed_point")), "count"),
        "momdp.value_functions_s": (total("momdp.value_functions"), "s"),
        "policy.exact_gradient_s": (total("policy.exact_policy_gradient"), "s"),
        "policy.exact_gradient_calls": (calls("policy.exact_policy_gradient"), "count"),
        "policy.probability_matrix_calls": (calls("policy.probability_matrix"), "count"),
        "policy.score_weighted_sum_s": (total("policy.score_weighted_sum"), "s"),
        "critic.run_critic_self_s": (self_s("critic.run_critic"), "s"),
        "critic.td_fixed_point_s": (total("critic.compute_td_fixed_point"), "s"),
        "critic.td_fixed_point_calls": (calls("critic.compute_td_fixed_point"), "count"),
        "mgda.solve_min_norm_s": (total("mgda.solve_min_norm"), "s"),
        "mgda.solve_min_norm_calls": (calls("mgda.solve_min_norm"), "count"),
        "driver.estimate_gradients_self_s": (self_s("driver.estimate_objective_gradients"), "s"),
        "driver.pareto_gap_s": (total("driver.pareto_stationarity_gap"), "s"),
        "driver.run_moac_self_s": (self_s("driver.run_moac"), "s"),
        "opeval.generate_s": (total("opeval.generate_logged_data"), "s"),
        "opeval.save_s": (total("opeval.save_logged_data"), "s"),
        "opeval.load_s": (total("opeval.load_logged_data"), "s"),
        "opeval.score_s": (total("opeval.ncis_scores"), "s"),
        "opeval.jsonl_bytes": (float(getattr(workload, "jsonl_bytes", 0)), "bytes"),
        "experiment.run_seed_s": (total("experiment.run_seed"), "s"),
        "experiment.write_csv_s": (total("experiment.write_metrics_csv"), "s"),
        "experiment.write_jsonl_s": (total("experiment.write_metrics_jsonl"), "s"),
        "experiment.summarize_s": (total("experiment.summarize"), "s"),
        "experiment.artifact_bytes": (float(getattr(workload, "artifact_bytes", 0)), "bytes"),
        "experiment.pool_overhead_s": (pool_overhead, "s"),
        "trace.overhead_share": (statistics.median(r[0] for r in traced)
                                 / statistics.median(r[0] for r in untraced) - 1.0
                                 if traced and untraced else 0.0, "share"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if not SRC.is_dir():
        print(f"perfbench: no morlab sources at {SRC}", file=sys.stderr)
        return 2
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = spans.Tracer(workdir) if args.trace else None
        with SpeedProbe() as probe:
            workload, setup_s = timed_setup(WORKLOADS[args.workload], args.seed, workdir, probe)
            rows, attempted, failed = run_rounds(workload, args.seconds, probe, tracer)
        peak = peak_rss_mb(include_children=args.workload == "sweep-fw")
        if tracer is not None:
            tracer.collect_children()
        if isinstance(workload, SweepFw) and workload.outputs:
            workload.artifact_bytes = sum(p.stat().st_size for p in workload.outputs[0].iterdir())
        correct = bool(rows)
        try:
            workload.check()
        except checks.CheckError as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct = False
        except Exception:  # an output the checks cannot even read is wrong too
            traceback.print_exc(file=sys.stderr)
            correct = False
        if tracer is not None:
            metrics = layer_metrics(tracer, rows, workload)
            tracer.write(RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "work_per_s": {"value": statistics.median(r[1] for r in rows) if rows else 0.0,
                               "unit": "1/s"},
                "peak_rss_mb": {"value": peak, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

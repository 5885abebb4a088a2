"""Span tracer for the traced benchmark run.

The tracer wraps morlab's public functions where their callers look them up:
every module namespace of the package that holds the function (for example
``compute_stationary_distribution`` as imported by ``critic``, ``policy`` and
``driver``), and the class for methods. Each call records one span
``(pid, id, parent, name, start, end)`` in memory; self time and counts are
derived from the spans afterwards. Nothing under ``src/`` is changed on disk.

Pool workers forked by ``morlab.experiment.run_experiment`` inherit the
wrappers. A worker keeps its own spans and writes them to ``child_dir`` each
time its outermost span ends; the parent merges those files after the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, defining module, attribute path); the name is "<layer>.<function>"
TARGETS = (
    ("momdp.sample_policy_batch", "morlab.momdp", "MarkovSampler.sample_policy_batch"),
    ("momdp.compute_stationary_distribution", "morlab.momdp", "compute_stationary_distribution"),
    ("momdp.value_functions", "morlab.momdp", "value_functions"),
    ("policy.exact_policy_gradient", "morlab.policy", "exact_policy_gradient"),
    ("policy.probability_matrix", "morlab.policy", "PolicyParams.probability_matrix"),
    ("policy.score_weighted_sum", "morlab.policy", "PolicyParams.score_weighted_sum"),
    ("critic.run_critic", "morlab.critic", "run_critic"),
    ("critic.compute_td_fixed_point", "morlab.critic", "compute_td_fixed_point"),
    ("mgda.solve_min_norm", "morlab.mgda", "solve_min_norm"),
    ("driver.run_moac", "morlab.driver", "run_moac"),
    ("driver.estimate_objective_gradients", "morlab.driver", "estimate_objective_gradients"),
    ("driver.pareto_stationarity_gap", "morlab.driver", "pareto_stationarity_gap"),
    ("opeval.generate_logged_data", "morlab.opeval", "generate_logged_data"),
    ("opeval.save_logged_data", "morlab.opeval", "save_logged_data"),
    ("opeval.load_logged_data", "morlab.opeval", "load_logged_data"),
    ("opeval.ncis_scores", "morlab.opeval", "ncis_scores"),
    ("experiment.run_experiment", "morlab.experiment", "run_experiment"),
    ("experiment.worker", "morlab.experiment", "_worker"),
    ("experiment.run_seed", "morlab.experiment", "run_seed"),
    ("experiment.write_metrics_csv", "morlab.experiment", "write_metrics_csv"),
    ("experiment.write_metrics_jsonl", "morlab.experiment", "write_metrics_jsonl"),
    ("experiment.summarize", "morlab.experiment", "summarize"),
    ("experiment.write_summary", "morlab.experiment", "write_summary"),
)

SAMPLER = "momdp.sample_policy_batch"
# each actor iteration starts with one critic call; batches drawn until the next
# one are drawn under that iteration's policy
ITERATION_START = "critic.run_critic"


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers."""

    def __init__(self, child_dir: Path):
        self.child_dir = Path(child_dir)
        self.parent_pid = os.getpid()
        self.owner_pid = self.parent_pid    # the process whose spans are held
        self.spans: list[tuple] = []     # (pid, id, parent, name, start, end)
        self.sampled_steps = 0
        self.policy_keys: set = set()    # (pid, outermost span, iteration, policy hash)
        self._iteration = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._child_flushes = 0

    # -- wrapping ---------------------------------------------------------
    def install(self):
        for name, module_name, attr_path in TARGETS:
            module = sys.modules[module_name]
            if "." in attr_path:
                cls_name, attr = attr_path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, attr_path)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "morlab" or mod_name.startswith("morlab.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        is_sampler = name == SAMPLER
        starts_iteration = name == ITERATION_START

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer.owner_pid:
                tracer._adopt_child(pid)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if starts_iteration:
                tracer._iteration += 1
            if is_sampler:
                tracer._note_batch(pid, stack[0] if stack else sid, *args, **kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((pid, sid, parent, name, start, end))
                if not stack and pid != tracer.parent_pid:
                    tracer._flush_child(pid)

        return traced

    def _note_batch(self, pid, root, sampler, action_probs, n):
        self.sampled_steps += int(n)
        self.policy_keys.add((pid, root, self._iteration, hash(action_probs.tobytes())))

    # -- forked pool workers ----------------------------------------------
    def _adopt_child(self, pid):
        # a forked worker starts with a copy of the parent's spans: drop them
        self.owner_pid = pid
        self.spans = []
        self.sampled_steps = 0
        self.policy_keys = set()
        self._stack = []

    def _flush_child(self, pid):
        self._child_flushes += 1
        path = self.child_dir / f"spans-{pid}-{self._child_flushes}.json"
        doc = {
            "spans": self.spans,
            "sampled_steps": self.sampled_steps,
            "policy_keys": [list(k) for k in self.policy_keys],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.spans = []
        self.sampled_steps = 0
        self.policy_keys = set()

    def collect_children(self):
        """Merge and delete the span files written by pool workers."""
        for path in sorted(self.child_dir.glob("spans-*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            self.spans.extend(tuple(s) for s in doc["spans"])
            self.sampled_steps += doc["sampled_steps"]
            self.policy_keys.update(tuple(k) for k in doc["policy_keys"])
            path.unlink()

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for pid, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"pid": pid, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


def summarize_spans(spans) -> dict:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct children;
    spans of one process nest without overlap, since each process runs one
    thread of morlab code.
    """
    child_time = defaultdict(float)
    for pid, _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[(pid, parent)] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for pid, sid, _, name, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time.get((pid, sid), 0.0)
    return out

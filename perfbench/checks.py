"""Correctness checks for the benchmark's outputs.

Every check recomputes its reference apart from the code it checks, or tests a
property the method must have; none compares against a stored output. Each
raises ``CheckError`` on a mismatch. The exact quantities are rebuilt here from
the environment tensors alone: a softmax of the logits, the chain kernel, and
the stationary law from the fundamental-matrix identity
``d^T (I - P + 1 1^T) = 1^T``, which is a different linear system from the one
``morlab.momdp`` solves.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An output of the program disagrees with its independent reference."""


# ---------------------------------------------------------------------------
# independent exact quantities
# ---------------------------------------------------------------------------

def softmax_policy(theta: np.ndarray, n_states: int, n_actions: int) -> np.ndarray:
    z = np.asarray(theta, dtype=float).reshape(n_states, n_actions)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def stationary_law(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    return np.linalg.solve((np.eye(n) - P + 1.0).T, np.ones(n))


def average_reward(transition: np.ndarray, reward: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(M,) stationary per-step reward of the tabular softmax policy ``theta``."""
    S, A, _ = transition.shape
    pi = softmax_policy(theta, S, A)
    P = np.einsum("sa,sax->sx", pi, transition)
    r = np.einsum("sa,msa->ms", pi, reward)
    return r @ stationary_law(P)


def finite_difference_gradients(fn, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """(M, dim) central differences of the vector function ``fn`` at ``theta``."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for k in range(theta.size):
        step = np.zeros_like(theta)
        step[k] = h
        cols.append((fn(theta + step) - fn(theta - step)) / (2.0 * h))
    return np.stack(cols, axis=1)


def min_norm_sq(gradients: np.ndarray) -> float:
    """min over the simplex of ||sum_i lam_i g_i||^2 by active-set enumeration.

    The optimum of this convex QP lies in the relative interior of some face of
    the simplex; on each face the equality-constrained KKT system is solved and
    infeasible candidates are dropped. Independent of the program's
    Frank-Wolfe and closed-form solvers.
    """
    G = gradients @ gradients.T
    M = G.shape[0]
    best = math.inf
    for size in range(1, M + 1):
        for face in itertools.combinations(range(M), size):
            idx = list(face)
            K = np.zeros((size + 1, size + 1))
            K[:size, :size] = 2.0 * G[np.ix_(idx, idx)]
            K[:size, size] = 1.0
            K[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            lam_face = sol[:size]
            if np.any(lam_face < -1e-12) or abs(lam_face.sum() - 1.0) > 1e-9:
                continue
            lam = np.zeros(M)
            lam[idx] = np.clip(lam_face, 0.0, None)
            lam /= lam.sum()
            best = min(best, float(lam @ G @ lam))
    return best


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_momentum(lams: np.ndarray, etas: np.ndarray, lam0: np.ndarray, where: str):
    """Every row: lam_t on the simplex and ||lam_t - lam_{t-1}||_1 <= 2 eta_t."""
    lams = np.asarray(lams, dtype=float)
    prev = np.asarray(lam0, dtype=float)
    for t, (lam, eta) in enumerate(zip(lams, etas), start=1):
        if not np.all(np.isfinite(lam)) or np.any(lam < 0.0) or abs(lam.sum() - 1.0) > 1e-12:
            raise CheckError(f"{where}: lambda at t={t} is off the simplex: {lam.tolist()}")
        step = float(np.abs(lam - prev).sum())
        if step > 2.0 * eta + 1e-12:
            raise CheckError(f"{where}: ||lam_t - lam_t-1||_1 = {step:.17g} > 2 eta_t = {2 * eta:.17g} at t={t}")
        prev = lam


def check_moac_records(result, iterations: int, where: str):
    """Record count, t_hat range and the momentum property on every row."""
    recs = result.records
    if [r.t for r in recs] != list(range(1, iterations + 1)):
        raise CheckError(f"{where}: records do not cover t = 1..{iterations}")
    if not 1 <= result.t_hat <= iterations:
        raise CheckError(f"{where}: t_hat {result.t_hat} outside 1..{iterations}")
    check_momentum([r.lam for r in recs], [r.eta for r in recs], result.lambda_initial, where)


def check_oracle_at_t_hat(env, result, where: str, fd_error: float = 1e-8):
    """j_exact and the Pareto gap logged at t_hat, recomputed for sampled_policy.

    The gap is rebuilt from finite-difference gradients of the stationary
    reward and the enumeration min-norm solve. A gradient error of norm e moves
    the min-norm value N by at most 2 e sqrt(N) + e^2; ``fd_error`` bounds e
    (about 25 times the 4e-10 measured on resource_gathering).
    """
    rec = result.records[result.t_hat - 1]
    theta = result.sampled_policy.theta
    fn = lambda th: average_reward(env.transition, env.reward, th)  # noqa: E731
    j_ref = fn(theta)
    if rec.j_exact is None or not np.allclose(rec.j_exact, j_ref, rtol=1e-10, atol=1e-13):
        raise CheckError(f"{where}: j_exact at t_hat={result.t_hat} is {list(map(float, rec.j_exact))}, "
                         f"expected {j_ref.tolist()}")
    gap_ref = min_norm_sq(finite_difference_gradients(fn, theta))
    tol = 1e-6 * gap_ref + 2.0 * fd_error * math.sqrt(gap_ref) + fd_error ** 2
    if rec.pareto_gap is None or abs(rec.pareto_gap - gap_ref) > tol:
        raise CheckError(f"{where}: pareto_gap at t_hat={result.t_hat} is {rec.pareto_gap!r}, "
                         f"expected {gap_ref!r} from finite differences")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(c) if c != "" else math.nan for c in row] for row in rows[1:]])
    return rows[0], data


def check_run_dir(run_dir: Path, seeds: list[int], iterations: int, n_objectives: int):
    """A ``morlab run`` directory: per-seed CSV/JSONL, momentum rows, summary.json."""
    run_dir = Path(run_dir)
    tables = []
    header = None
    for seed in seeds:
        for suffix in (".csv", ".jsonl", ".DONE"):
            if not (run_dir / f"seed_{seed}{suffix}").is_file():
                raise CheckError(f"{run_dir.name}: seed_{seed}{suffix} is missing")
        head, data = _read_csv(run_dir / f"seed_{seed}.csv")
        if header is None:
            header = head
        if head != header or data.shape != (iterations, len(header)):
            raise CheckError(f"{run_dir.name}: seed_{seed}.csv has shape {data.shape} / header {head}")
        col = {name: i for i, name in enumerate(header)}
        lam = data[:, [col[f"lambda_{i + 1}"] for i in range(n_objectives)]]
        check_momentum(lam, data[:, col["eta_t"]], np.full(n_objectives, 1.0 / n_objectives),
                       f"{run_dir.name}/seed_{seed}.csv")
        with open(run_dir / f"seed_{seed}.jsonl", encoding="utf-8") as fh:
            docs = [json.loads(line) for line in fh]
        as_rows = np.array([[math.nan if d[k] is None else d[k] for k in header] for d in docs])
        if not np.array_equal(as_rows, data, equal_nan=True):
            raise CheckError(f"{run_dir.name}: seed_{seed}.jsonl disagrees with seed_{seed}.csv")
        tables.append(data)
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["seeds"] != list(seeds):
        raise CheckError(f"{run_dir.name}: summary seeds {summary['seeds']} != requested {list(seeds)}")
    if summary["columns"] != header:
        raise CheckError(f"{run_dir.name}: summary columns differ from the CSV header")
    stack = np.stack(tables)
    for j, name in enumerate(header):
        if name == "t":
            continue
        got = summary["stats"][name]
        for t in range(iterations):
            vals = stack[:, t, j]
            vals = vals[~np.isnan(vals)]
            if vals.size:
                q25, q75 = np.percentile(vals, [25, 75])
                want = {"mean": float(np.mean(vals)), "median": float(np.median(vals)),
                        "iqr": float(q75 - q25)}
            else:
                want = {"mean": None, "median": None, "iqr": None}
            for stat, ref in want.items():
                val = got[stat][t]
                if (val is None) != (ref is None) or (
                        ref is not None and not math.isclose(val, ref, rel_tol=1e-12, abs_tol=1e-300)):
                    raise CheckError(f"{run_dir.name}: summary {name}.{stat}[t={t + 1}] = {val!r}, "
                                     f"recomputed {ref!r}")


def read_logged_jsonl(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(states, actions, rewards (n, M), behavior probabilities) parsed here."""
    states, actions, rewards, pbs = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            states.append(doc["s"])
            actions.append(doc["a"])
            rewards.append(doc["r"])
            pbs.append(doc["pb"])
    return (np.array(states), np.array(actions), np.array(rewards, dtype=float),
            np.array(pbs, dtype=float))


def check_offline_scores(env, jsonl_path: Path, thetas: list[np.ndarray], scores: list[np.ndarray],
                         cap: float, behavior_index: int = 0, n_sigma: float = 5.0,
                         n_batches: int = 50):
    """Capped self-normalized IS scores, recomputed from the JSON-lines log.

    The behavior policy's self-score must equal the plain reward mean exactly
    (every weight is 1), and must lie within ``n_sigma`` batch-means standard
    errors of the behavior policy's exact stationary reward.
    """
    s, a, r, pb = read_logged_jsonl(jsonl_path)
    S, A = env.n_states, env.n_actions
    for k, (theta, got) in enumerate(zip(thetas, scores)):
        ratio = softmax_policy(theta, S, A)[s, a] / pb
        w = np.minimum(cap, ratio)
        total = math.fsum(w)
        for i in range(r.shape[1]):
            ref = math.fsum(w * r[:, i]) / total
            if not math.isclose(got[i], ref, rel_tol=1e-12, abs_tol=0.0):
                raise CheckError(f"candidate {k}: score[{i}] = {got[i]!r}, recomputed {ref!r}")
    self_score = np.asarray(scores[behavior_index])
    plain = r.mean(axis=0)
    if not np.array_equal(self_score, plain):
        raise CheckError(f"behavior self-score {self_score.tolist()} != plain reward mean {plain.tolist()}")
    exact = average_reward(env.transition, env.reward, thetas[behavior_index])
    check_within_sigma(self_score, r, exact, n_sigma, n_batches)


def check_within_sigma(score: np.ndarray, rewards: np.ndarray, exact: np.ndarray,
                       n_sigma: float = 5.0, n_batches: int = 50):
    """``score`` within ``n_sigma`` standard errors of ``exact``, per objective.

    The rewards come from one chain, so the standard error is taken from the
    means of ``n_batches`` consecutive batches rather than from single records.
    """
    usable = (rewards.shape[0] // n_batches) * n_batches
    batch_means = rewards[:usable].reshape(n_batches, -1, rewards.shape[1]).mean(axis=1)
    sigma = batch_means.std(axis=0, ddof=1) / math.sqrt(n_batches)
    for i in range(rewards.shape[1]):
        if abs(score[i] - exact[i]) > n_sigma * sigma[i] + 1e-12:
            raise CheckError(f"behavior score[{i}] = {score[i]!r} is more than {n_sigma} sigma "
                             f"({sigma[i]:.3g}) from the exact J {exact[i]!r}")

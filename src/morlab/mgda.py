"""Min-norm element of the convex hull of gradient vectors (a quadratic
program over the probability simplex) and the momentum-mixed weight update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError

_CERT_TOL = 1e-10
_MAX_ITER = 100_000


@dataclass
class SimplexWeights:
    """Weight vector on the probability simplex."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ParameterError("simplex weights must be a non-empty vector")
        if np.any(v < -1e-12):
            raise ParameterError("simplex weights must be non-negative")
        v = np.clip(v, 0.0, None)
        if abs(v.sum() - 1.0) > 1e-10:
            raise ParameterError("simplex weights must sum to 1 within 1e-10")
        self.values = v

    def __len__(self):
        return self.values.size


@dataclass
class MomentumSchedule:
    """Momentum coefficient schedule eta_t for t >= 1.

    Kinds: ``zero`` (plain pre-specified weights), ``constant`` with value c in
    [0, 1], and ``power`` with eta_t = t^(-p), which starts at eta_1 = 1 so the
    very first QP solution becomes the initial weight vector.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "power"):
            raise ParameterError(f"unknown momentum schedule kind {self.kind!r}")
        if self.kind == "constant" and not 0.0 <= self.value <= 1.0:
            raise ParameterError("constant momentum coefficient must lie in [0, 1]")
        if self.kind == "power" and self.value < 0:
            raise ParameterError("power exponent must be non-negative")

    def eta(self, t: int) -> float:
        if t < 1:
            raise ParameterError("momentum schedule is defined for t >= 1")
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value
        return float(t) ** (-self.value)

    @classmethod
    def parse(cls, text: str) -> "MomentumSchedule":
        """Parse 'zero', 'constant:<c>', or 'power:<p>' (e.g. 'power:1')."""
        text = text.strip()
        if text == "zero":
            return cls("zero")
        for kind in ("constant", "power"):
            prefix = kind + ":"
            if text.startswith(prefix):
                try:
                    return cls(kind, float(text[len(prefix):]))
                except ValueError as exc:
                    raise ParameterError(f"bad momentum schedule value in {text!r}") from exc
        raise ParameterError(f"cannot parse momentum schedule {text!r}")

    def __str__(self):
        if self.kind == "zero":
            return "zero"
        return f"{self.kind}:{self.value:g}"


def _as_gradient_matrix(gradients) -> np.ndarray:
    W = np.asarray(gradients, dtype=float)
    if W.ndim == 1:
        W = W[None, :]
    if W.ndim != 2 or W.shape[0] < 1:
        raise ParameterError("gradients must form a non-empty (M, dim) stack")
    if not np.all(np.isfinite(W)):
        raise ParameterError("gradients must be finite")
    return W


def duality_gap(gradients, lam: np.ndarray) -> float:
    """Frank-Wolfe certificate max_i(<gbar, gbar> - <gbar, g_i>) at weights lam."""
    W = _as_gradient_matrix(gradients)
    gbar = lam @ W
    inner = W @ gbar
    return float(gbar @ gbar - inner.min())


def solve_min_norm(gradients, cert_tol: float = _CERT_TOL):
    """Minimize ||sum_i lam_i g_i||^2 over the probability simplex.

    Returns (SimplexWeights, min_norm_sq). M = 1 and M = 2 are solved in
    closed form; M >= 3 runs Frank-Wolfe with away steps and exact line search
    on the symmetrized Gram matrix until the duality gap drops below
    cert_tol * (1 + objective). Ties in the linear-minimization step break
    toward the smallest index, which makes the output deterministic.
    """
    W = _as_gradient_matrix(gradients)
    M = W.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        G = W[0] @ W[0] if M == 1 else W @ W.T
    if not np.all(np.isfinite(G)):
        raise ParameterError("inner products of the gradients overflow; rescale the gradients")
    if M == 1:
        return SimplexWeights(np.array([1.0])), float(G)
    G = 0.5 * (G + G.T)
    if M == 2:
        denom = G[0, 0] + G[1, 1] - 2.0 * G[0, 1]   # ||g1 - g2||^2
        if denom <= 0.0:
            t = 1.0
        else:
            t = min(max((G[1, 1] - G[0, 1]) / denom, 0.0), 1.0)
        lam = np.array([t, 1.0 - t])
        return SimplexWeights(lam), max(float(lam @ G @ lam), 0.0)  # squared norm; clamp FP dust

    lam = np.zeros(M)
    lam[int(np.argmin(np.diag(G)))] = 1.0
    gap = np.inf
    for _ in range(_MAX_ITER):
        grad = G @ lam                      # <gbar, g_i> for every i
        qval = float(lam @ grad)
        gap = qval - float(grad.min())
        if gap <= cert_tol * (1.0 + qval):
            break
        i_fw = int(np.argmin(grad))
        support = np.flatnonzero(lam > 0)
        j_aw = support[int(np.argmax(grad[support]))]
        fw_slope = qval - grad[i_fw]        # decrease rate of the toward step
        aw_slope = grad[j_aw] - qval        # decrease rate of the away step
        if fw_slope >= aw_slope or lam[j_aw] >= 1.0 - 1e-15:
            direction = -lam.copy()
            direction[i_fw] += 1.0
            t_max = 1.0
        else:
            direction = lam.copy()
            direction[j_aw] -= 1.0
            t_max = lam[j_aw] / (1.0 - lam[j_aw])
        curvature = float(direction @ G @ direction)
        slope = float(direction @ grad)
        if curvature <= 0.0:
            step = t_max
        else:
            step = min(max(-slope / curvature, 0.0), t_max)
        if step <= 0.0:
            break
        lam = lam + step * direction
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum()
    grad = G @ lam
    qval = float(lam @ grad)
    gap = qval - float(grad.min())
    if gap > cert_tol * (1.0 + qval):
        raise ConvergenceError(
            f"min-norm solver stopped without certificate (gap {gap:.3e})", residual=gap
        )
    return SimplexWeights(lam), max(qval, 0.0)


def momentum_update(prev: SimplexWeights, qp_solution: SimplexWeights, eta_t: float) -> SimplexWeights:
    """Convex mix lam_t = (1 - eta_t) lam_{t-1} + eta_t lam_hat."""
    if not 0.0 <= eta_t <= 1.0:
        raise ParameterError(f"momentum coefficient must lie in [0, 1], got {eta_t}")
    if len(prev) != len(qp_solution):
        raise ParameterError("weight vectors must have matching length")
    mixed = (1.0 - eta_t) * prev.values + eta_t * qp_solution.values
    return SimplexWeights(np.clip(mixed, 0.0, None))


def uniform_weights(n: int) -> SimplexWeights:
    return SimplexWeights(np.full(n, 1.0 / n))

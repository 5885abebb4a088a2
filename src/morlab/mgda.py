"""Min-norm element of the convex hull of gradient vectors (a quadratic
program over the probability simplex) and the momentum-mixed weight update."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ParameterError, check_array, check_float, check_integer, check_types

_CERT_TOL = 1e-10
_MAX_OBJECTIVES = 10   # 2^M - 1 faces are enumerated


@dataclass
class SimplexWeights:
    """Weight vector on the probability simplex."""

    values: np.ndarray

    def __post_init__(self):
        v = check_array("simplex weights", self.values, (None,))
        if v.size < 1:
            raise ParameterError("simplex weights must be a non-empty vector")
        if (v < -1e-12).any():
            raise ParameterError("simplex weights must be non-negative")
        v = np.maximum(v, 0.0)
        if not abs(v.sum() - 1.0) <= 1e-10:
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
        if self.kind == "constant":
            check_float("constant momentum coefficient", self.value, 0, 1, "[]")
        elif self.kind == "power":
            check_float("power exponent", self.value, 0, np.inf, "[)")
        elif self.kind != "zero":
            raise ParameterError(f"unknown momentum schedule kind {self.kind!r}")

    def eta(self, t: int) -> float:
        check_integer("t", t, 1)
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


@lru_cache(maxsize=None)
def _face_systems(M: int):
    """Face, face-pair and off-face masks, diagonal index and rhs, shared read-only."""
    faces = (np.arange(1, 2 ** M)[:, None] >> np.arange(M)) & 1 == 1
    pairs = faces[:, :, None] & faces[:, None, :]
    parts = (faces, pairs, ~faces, np.arange(M), np.eye(M + 1)[M:].T)
    for arr in parts:
        arr.flags.writeable = False
    return parts


def solve_min_norm(gradients):
    """Minimize ||sum_i lam_i g_i||^2 over the probability simplex, the
    gradients g_i the rows of the finite (M, dim) ``gradients``.

    Returns (SimplexWeights, min_norm_sq). M = 2 is solved in closed form.
    For M = 1 and 3 <= M <= 10 one batched LU solve covers the KKT systems
    [[G_FF, 1], [1^T, 0]] of all 2^M - 1 faces F of the simplex (M = 1 has
    the one face [[g^2, 1], [1, 0]]), on the Gram matrix divided by an exact
    power of two, so lam is bit for bit the same in any units. The feasible
    candidate of smallest duality gap must certify
    max_i(<gbar, gbar> - <gbar, g_i>) <= 1e-10 * max_i ||g_i||^2 at
    gbar = sum_i lam_i g_i, else ConvergenceError.
    """
    W = check_array("gradients", gradients, (None, None))
    M = W.shape[0]
    if not 1 <= M <= _MAX_OBJECTIVES:
        raise ParameterError(f"the min-norm QP takes at least 1 and at most {_MAX_OBJECTIVES} "
                             f"objectives, got {M}")
    with np.errstate(over="ignore", invalid="ignore"):
        G = W @ W.T
        G = 0.5 * (G + G.T)
    if not np.isfinite(G).all():
        raise ParameterError("inner products of the gradients overflow; rescale the gradients")
    if M == 2:
        denom = G[0, 0] + G[1, 1] - 2.0 * G[0, 1]   # ||g1 - g2||^2
        if denom <= 0.0:
            t = 1.0
        else:
            t = min(max((G[1, 1] - G[0, 1]) / denom, 0.0), 1.0)
        lam = np.array([t, 1.0 - t])
        return SimplexWeights(lam), max(float(lam @ G @ lam), 0.0)  # squared norm; clamp FP dust

    top = float(np.diag(G).max())                 # max_i ||g_i||^2
    Gs = np.ldexp(G, -np.frexp(top)[1])
    faces, pairs, off, diag, rhs = _face_systems(M)
    K = np.zeros((faces.shape[0], M + 1, M + 1))
    K[:, :M, :M] = Gs * pairs
    K[:, diag, diag] += off                       # identity rows pin lam_i = 0 off the face
    K[:, :M, M] = K[:, M, :M] = faces
    try:
        lam = np.linalg.solve(K, rhs)[:, :M, 0]
    except np.linalg.LinAlgError:                 # a face of affinely dependent gradients
        lam = np.stack([np.linalg.lstsq(k, rhs, rcond=None)[0][:M, 0] for k in K])
    feasible = (lam >= -1e-12).all(axis=1) & (np.abs(lam.sum(axis=1) - 1.0) <= 1e-9)
    lam = np.maximum(lam[feasible], 0.0)
    lam /= lam.sum(axis=1, keepdims=True)
    grads = lam @ Gs
    lam = lam[int(np.argmin(np.einsum("fi,fi->f", lam, grads) - grads.min(axis=1)))]
    grad = G @ lam
    qval = float(lam @ grad)
    gap = qval - float(grad.min())
    if gap > _CERT_TOL * top:
        raise ConvergenceError(f"min-norm solution failed its certificate (gap {gap:.3e})",
                               residual=gap)
    return SimplexWeights(lam), max(qval, 0.0)


def momentum_update(prev: SimplexWeights, qp_solution: SimplexWeights, eta_t: float) -> SimplexWeights:
    """Convex mix lam_t = (1 - eta_t) lam_{t-1} + eta_t lam_hat."""
    check_types(("prev", prev, SimplexWeights), ("qp_solution", qp_solution, SimplexWeights))
    check_float("momentum coefficient", eta_t, 0, 1, "[]")
    if len(prev) != len(qp_solution):
        raise ParameterError("weight vectors must have matching length")
    return SimplexWeights((1.0 - eta_t) * prev.values + eta_t * qp_solution.values)


def uniform_weights(n: int) -> SimplexWeights:
    check_integer("n", n, 1)
    return SimplexWeights(np.full(n, 1.0 / n))

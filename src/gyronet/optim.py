"""Optimizers: RMSProp for euclidean parameters and Riemannian SGD on the
Poincare ball for manifold parameters."""

from __future__ import annotations

import numpy as np

from .geometry import _all_finite, _norm, conformal_factor, exp_map_poincare, project_to_ball


RHO = 0.9  # RMSProp decay of the second-moment accumulator
EPS = 1e-8  # RMSProp denominator floor


class RmsProp:
    """RMSProp with a running second-moment accumulator per parameter."""

    def __init__(self, lr=1e-4):
        self.lr = lr
        self.acc: dict[str, np.ndarray] = {}

    def step(self, name, param, grad):
        grad = np.asarray(grad, dtype=float)
        if not _all_finite(grad):
            raise ValueError(f"non-finite gradient for parameter '{name}'")
        acc = self.acc.get(name)
        if acc is None:
            acc = np.zeros_like(grad)
        acc = RHO * acc + (1.0 - RHO) * grad * grad
        self.acc[name] = acc
        return param - self.lr * grad / np.sqrt(acc + EPS)

    def reset(self):
        """Warm restart: clear the accumulators."""
        self.acc.clear()


def rsgd_step_poincare(param, euclidean_grad, lr):
    """One Riemannian SGD step on the unit ball.

    The euclidean gradient is rescaled by the inverse metric factor 1/lambda^2
    and the step is taken along the exponential map; the result stays strictly
    inside the ball.  A non-finite gradient raises ``ValueError``, and so does
    a finite one whose step has a norm that overflows, which the map would
    turn into no step at all.
    """
    grad = np.asarray(euclidean_grad, dtype=float)
    if not _all_finite(grad):
        raise ValueError("non-finite gradient in rsgd_step_poincare")
    lam = conformal_factor(param)
    step = -lr * (grad / (lam * lam))
    if not _all_finite(_norm(step)):
        raise ValueError("non-finite step in rsgd_step_poincare")
    return project_to_ball(exp_map_poincare(param, step))


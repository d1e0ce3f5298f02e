"""Optimizers: RMSProp for euclidean parameters, Riemannian SGD on the
Poincare ball for manifold parameters, and the one-restart schedule."""

from __future__ import annotations

import numpy as np

from .geometry import conformal_factor, exp_map_poincare, project_to_ball


class RmsProp:
    """RMSProp with a running second-moment accumulator per parameter."""

    def __init__(self, lr=1e-4, rho=0.9, eps=1e-8):
        self.lr0 = lr
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.acc: dict[str, np.ndarray] = {}
        self.steps = 0

    def step(self, name, param, grad):
        grad = np.asarray(grad, dtype=float)
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite gradient for parameter '{name}'")
        acc = self.acc.get(name)
        if acc is None:
            acc = np.zeros_like(grad)
        acc = self.rho * acc + (1.0 - self.rho) * grad * grad
        self.acc[name] = acc
        self.steps += 1
        return param - self.lr * grad / np.sqrt(acc + self.eps)

    def reset(self):
        """Restart: clear accumulators and restore the initial learning rate."""
        self.acc.clear()
        self.lr = self.lr0


def rsgd_step_poincare(param, euclidean_grad, lr, c=1.0):
    """One Riemannian SGD step on the ball.

    The euclidean gradient is rescaled by the inverse metric factor 1/lambda^2
    and the step is taken along the exponential map; the result stays strictly
    inside the ball.
    """
    grad = np.asarray(euclidean_grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient in rsgd_step_poincare")
    lam = conformal_factor(param, c, keepdims=True)
    riem = grad / (lam * lam)
    return project_to_ball(exp_map_poincare(param, -lr * riem, c), c)


class RestartSchedule:
    """Single warm restart: at ``restart_epoch`` learning rates snap back to
    their initial values and accumulator state is cleared.  Parameters are
    untouched.
    """

    def __init__(self, restart_epoch):
        self.restart_epoch = restart_epoch

    def apply(self, epoch, optimizers):
        """Update optimizer state for ``epoch``; returns True on restart."""
        if epoch != self.restart_epoch:
            return False
        for opt in optimizers:
            opt.reset()
        return True

"""Differentiable Poincare-ball operations composed from diffcore primitives.

These mirror the pure numpy kernels in :mod:`gyronet.geometry` but operate on
:class:`~gyronet.diffcore.Tensor` values so that gradients flow through them.
Points live along the last axis; leading axes broadcast.
"""

from __future__ import annotations

from . import diffcore as dc
from .geometry import _TINY, EPS_BOUNDARY


def project(x, c=1.0):
    return dc.ball_project(x, c * (1.0 - EPS_BOUNDARY))


def mobius_add(x, y, c=1.0):
    c2 = c * c
    x2 = dc.tsum(x * x, axis=-1, keepdims=True)
    y2 = dc.tsum(y * y, axis=-1, keepdims=True)
    xy = dc.tsum(x * y, axis=-1, keepdims=True)
    num = (1.0 + 2.0 * xy / c2 + y2 / c2) * x + (1.0 - x2 / c2) * y
    den = 1.0 + 2.0 * xy / c2 + x2 * y2 / (c2 * c2)
    return project(num / den, c)


def conformal_factor(x, c=1.0):
    x2 = dc.tsum(x * x, axis=-1, keepdims=True)
    return 2.0 / (1.0 - x2 / (c * c))


def logmap0(y, c=1.0):
    """log_0: ball -> tangent space at the origin."""
    n = dc.norm(y)
    ns = dc.clip_min(n, _TINY)
    return c * dc.atanh(n / c) * (y / ns)


def expmap0(v, c=1.0):
    """exp_0: tangent space at the origin -> ball."""
    n = dc.norm(v)
    ns = dc.clip_min(n, _TINY)
    return project(c * dc.tanh(n / c) * (v / ns), c)


def mobius_matvec(x, weight, c=1.0):
    """Mobius matrix application; ``weight`` has shape (n_in, n_out)."""
    y = dc.matmul(x, weight)
    nx = dc.norm(x)
    ny = dc.norm(y)
    nxs = dc.clip_min(nx, _TINY)
    nys = dc.clip_min(ny, _TINY)
    out = c * dc.tanh((ny / nxs) * dc.atanh(nx / c)) * (y / nys)
    return project(out, c)


def lift_relu(x, c=1.0):
    """ReLU lifted onto the ball: exp_0(relu(log_0(x)))."""
    return expmap0(dc.relu(logmap0(x, c)), c)


def mlr_scores(x, a, p, c=1.0):
    """Hyperbolic multinomial logistic regression scores.

    ``x``: points of shape (..., n); ``a``: class normals (K, n);
    ``p``: class offsets in the ball (K, n).  Returns scores (..., K).
    """
    # insert a class axis before the coordinate axis
    xe = dc.reshape(x, x.shape[:-1] + (1, x.shape[-1]))
    w = mobius_add(-p, xe, c)  # (..., K, n)
    na = dc.clip_min(dc.norm(a), _TINY)  # (K, 1)
    lam_p = conformal_factor(p, c)  # (K, 1)
    inner = dc.tsum(w * a, axis=-1, keepdims=True)  # (..., K, 1)
    w2 = dc.tsum(w * w, axis=-1, keepdims=True)
    arg = (2.0 * inner) / (c * (1.0 - w2 / (c * c)) * na)
    scores = c * lam_p * na * dc.asinh(arg)  # (..., K, 1)
    return dc.reshape(scores, scores.shape[:-1])

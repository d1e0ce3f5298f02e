"""Differentiable Poincare-ball operations composed from diffcore primitives.

These operate on :class:`~gyronet.diffcore.Tensor` values so that gradients
flow through them.  Points live along the last axis; leading axes broadcast.
Mobius addition and the conformal factor are :mod:`gyronet.geometry`'s own
bodies, bound to the tape's last-axis sum and to :func:`project`, so each is
written once and gives the kernels' bits.  The other maps still have a tape
form of their own, which differs from ``geometry`` as follows:

- ``expmap0`` and ``logmap0``: ``geometry`` has no map at the origin; its
  ``exp_map_poincare`` and ``log_map_poincare`` at the origin add an
  ``np.where`` zero-row guard and a Mobius addition, and the log map holds the
  artanh argument below ``1 - _TINY``, for which the tape has no op;
- ``geometry`` computes ``(c tanh(t) v) / ||v||`` where the tape computes
  ``(c tanh(t) / ||v||) v``, which are different bits: the tape divides the
  per-row coefficient by the norm first and widens it to the row once;
- ``mobius_matvec`` takes its weight as (n_in, n_out), ``geometry`` takes
  ``M`` as (m, n) and computes ``x @ M.T``, with the artanh bound and the
  ``(nx > 0) & (ny > 0)`` mask;
- ``mlr_scores`` has no ``geometry`` kernel.
"""

from __future__ import annotations

from . import diffcore as dc
from .geometry import _TINY, EPS_BOUNDARY, _conformal_factor, _mobius_add


def _sum_last(a):
    return dc.tsum(a, axis=-1, keepdims=True)


def project(x, c=1.0):
    return dc.ball_project(x, c * (1.0 - EPS_BOUNDARY))


def mobius_add(x, y, c=1.0):
    return _mobius_add(x, y, c, _sum_last, project)


def logmap0(y, c=1.0):
    """log_0: ball -> tangent space at the origin."""
    n = dc.norm(y)
    ns = dc.clip_min(n, _TINY)
    return (c * dc.atanh(n / c) / ns) * y


def expmap0(v, c=1.0):
    """exp_0: tangent space at the origin -> ball."""
    n = dc.norm(v)
    ns = dc.clip_min(n, _TINY)
    return project((c * dc.tanh(n / c) / ns) * v, c)


def mobius_matvec(x, weight, c=1.0):
    """Mobius matrix application; ``weight`` has shape (n_in, n_out)."""
    y = dc.matmul(x, weight)
    nx = dc.norm(x)
    ny = dc.norm(y)
    nxs = dc.clip_min(nx, _TINY)
    nys = dc.clip_min(ny, _TINY)
    return project((c * dc.tanh((ny / nxs) * dc.atanh(nx / c)) / nys) * y, c)


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
    lam_p = _conformal_factor(p, c, _sum_last)  # (K, 1)
    inner = _sum_last(w * a)  # (..., K, 1)
    w2 = _sum_last(w * w)
    arg = (2.0 * inner) / (c * (1.0 - w2 / (c * c)) * na)
    scores = c * lam_p * na * dc.asinh(arg)  # (..., K, 1)
    return dc.reshape(scores, scores.shape[:-1])

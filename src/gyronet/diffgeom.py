"""Differentiable Poincare-ball operations composed from diffcore primitives.

These operate on :class:`~gyronet.diffcore.Tensor` values so that gradients
flow through them.  Points live along the last axis; leading axes broadcast.
Mobius addition and the conformal factor are :mod:`gyronet.geometry`'s own
bodies, bound to the tape's last-axis sum and to :func:`project`.  Every map
works on the unit ball, and the tape records its scalings by the radius,
``geometry._C`` = 1.0, as nodes.  Each has a fused array kernel in
``geometry``, with the same layout and formula, which evaluation runs
(``_expmap0``, ``_logmap0``, ``_matvec``, ``_mobius_add_rows`` and
``_mlr_scores``); they differ from these maps only as follows:

- a kernel takes its ball inputs' row norms from the kernel that made them,
  where the tape measures them again (but for an unclamped projection's),
  and folds the ball projection into its per-row coefficient, from which it
  also takes its output's row norms;
- the array Mobius addition makes its coefficients from the operands' norms
  and one inner product, and measures its output's norms only where its two
  terms cancel;
- ``geometry`` holds artanh's argument below ``1 - _TINY``, which projected
  inputs never reach, and the tape's ``atanh`` has no such bound;
- the array MLR makes ``w = (-p) (+) x`` only where its terms cancel;
  otherwise ``<w, a>`` comes from the coefficients and two matrix products.
"""

from __future__ import annotations

from . import diffcore as dc
from .geometry import _C, _TINY, EPS_BOUNDARY, _conformal_factor, _mobius_add


def _sum_last(a):
    return dc.tsum(a, axis=-1, keepdims=True)


def project(x):
    return dc.ball_project(x, 1.0 - EPS_BOUNDARY)


def mobius_add(x, y):
    return _mobius_add(x, y, _sum_last, project)


def logmap0(y):
    """log_0: ball -> tangent space at the origin."""
    n = dc.norm(y)
    ns = dc.clip_min(n, _TINY)
    return (_C * dc.atanh(n / _C) / ns) * y


def expmap0(v):
    """exp_0: tangent space at the origin -> ball."""
    n = dc.norm(v)
    ns = dc.clip_min(n, _TINY)
    return project((_C * dc.tanh(n / _C) / ns) * v)


def mobius_matvec(x, weight):
    """Mobius matrix application; ``weight`` has shape (n_in, n_out)."""
    y = dc.matmul(x, weight)
    nx = dc.norm(x)
    ny = dc.norm(y)
    nxs = dc.clip_min(nx, _TINY)
    nys = dc.clip_min(ny, _TINY)
    return project((_C * dc.tanh((ny / nxs) * dc.atanh(nx / _C)) / nys) * y)


def lift_relu(x):
    """ReLU lifted onto the ball: exp_0(relu(log_0(x)))."""
    return expmap0(dc.relu(logmap0(x)))


def mlr_scores(x, a, p):
    """Hyperbolic multinomial logistic regression scores.

    ``x``: points of shape (..., n); ``a``: class normals (K, n);
    ``p``: class offsets in the ball (K, n).  Returns scores (..., K).
    """
    # insert a class axis before the coordinate axis
    xe = dc.reshape(x, x.shape[:-1] + (1, x.shape[-1]))
    w = mobius_add(-p, xe)  # (..., K, n)
    na = dc.clip_min(dc.norm(a), _TINY)  # (K, 1)
    lam_p = _conformal_factor(p, _sum_last)  # (K, 1)
    inner = _sum_last(w * a)  # (..., K, 1)
    w2 = _sum_last(w * w)
    arg = (2.0 * inner) / (_C * (1.0 - w2 / (_C * _C)) * na)
    scores = _C * lam_p * na * dc.asinh(arg)  # (..., K, 1)
    return dc.reshape(scores, scores.shape[:-1])

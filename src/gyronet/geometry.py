"""Gyrovector operations on the Poincare ball and the hyperboloid model.

All functions are pure and operate on numpy arrays whose *last* axis holds the
point coordinates, so they broadcast over arbitrary leading batch axes.  A
Poincare point of dimension n is an array (..., n) with euclidean norm < 1,
the unit ball; a hyperboloid point is an array (..., n+1) in Minkowski
coordinates with <x, x>_L = -1 and positive last coordinate.

No map takes a radius.  ``_C``, the radius 1.0, scales only the bodies that
the tape shares, since the tape records each such scaling as a node.
"""

from __future__ import annotations

import math

import numpy as np

try:  # the kernel that np.einsum calls when its optimize is False, the default
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    c_einsum = np.einsum

# Any result whose norm reaches 1 - EPS_BOUNDARY is radially rescaled back
# onto that shell; prevents atanh overflow during training.
EPS_BOUNDARY = 1e-5
_TINY = 1e-15  # floor of a dividing norm; artanh's argument stays <= 1 - _TINY
_C = 1.0  # the ball's radius: scaling by it is exact, but the tape records it


def _magnitude(x):
    """A bound on every |entry| of the array ``x`` that is finite exactly when
    every entry is: the one finite scan of the tape, the skip-gram trainer and
    the optimizers.  It is the square root of the sum of squares, which one
    ``np.vdot`` gives for most arrays.  The largest |entry| decides when that
    sum is not finite (a NaN, an infinity, or finite entries of 1.4e154 or more,
    whose squares overflow) and for an ``x`` that is not C-contiguous, which
    ``np.vdot`` would copy; ``np.maximum`` carries a NaN through."""
    if x.flags.c_contiguous:
        m = math.sqrt(np.vdot(x, x))
        if m < math.inf:
            return m
    return float(np.maximum.reduce(np.abs(x), axis=None, initial=0.0))


def _all_finite(x):
    """Whether every entry of the array ``x`` is finite, by :func:`_magnitude`."""
    return _magnitude(x) < math.inf


def _sum_last(a):
    """Sum over the last axis, kept with length 1: the one last-axis sum of the
    ball and the tape.  ``np.add.reduce`` starts its inner loop once per row,
    where ``np.einsum`` runs one loop over all rows: on 36 000 entries in rows
    of 4 to 32 coordinates, einsum took 2.4 to 3.6 times less time (numpy 2.4,
    one Xeon core).  A row whose coordinates are adjacent in memory, as in
    every array the ball and the tape sum, gets the same bits whatever batch,
    memory offset or wider array it is a row of, and the same with numpy's
    AVX2 and AVX-512 dispatch turned off; a column-major array is summed in
    another order.  It raises no floating-point warning: NaN and infinities
    pass through as they do with ``np.add.reduce``.

    Both kernels call ``c_einsum``, the C function that ``np.einsum`` returns
    when ``optimize`` is False, so they give np.einsum's bits without its
    Python dispatch, which cost about 1.7 us a call on top of a 1.5 us kernel
    (numpy 2.4), some 300 calls per training step of the desk classifier on
    the ball.  Where numpy does not export it (1.x), they call ``np.einsum``."""
    return c_einsum("...i->...", a)[..., None]


def _inner(a, b):
    """Dot product of ``a`` and ``b`` over the last axis, kept with length 1,
    by ``c_einsum`` for the reasons ``_sum_last`` gives; leading axes
    broadcast.  No floating-point warning, as with ``_sum_last``."""
    return c_einsum("...i,...i->...", a, b)[..., None]


def _norm(x, keepdims=True):
    """Euclidean norm over the last axis, ``sqrt(_inner(x, x))``.  No
    floating-point warning: a square that overflows gives a norm of inf
    silently, so a caller that needs a finite result checks it."""
    n = np.sqrt(_inner(x, x))
    return n if keepdims else n[..., 0]


def _onto_shell(n, maxnorm):
    """The mask of the rows of norm ``n`` inside ``maxnorm``, and the factor
    per row that moves the others onto that shell: 1 inside, NaN for a NaN
    norm, and None when every row is inside."""
    inside = n < maxnorm
    if np.logical_and.reduce(inside, axis=None):
        return inside, None
    return inside, np.where(inside, 1.0, maxnorm / np.maximum(n, _TINY))


def _clamp(x, maxnorm):
    """Rows of norm ``maxnorm`` or more rescaled onto that shell, the mask of
    the rows inside it, and the norms ``_norm(x)`` of the input rows.  When
    every row is inside, the rows are ``x`` itself: ``x * 1.0`` would be the
    same bits."""
    n = _norm(x)
    inside, s = _onto_shell(n, maxnorm)
    return (x if s is None else x * s), inside, n


def _artanh(n):
    """artanh(n), with ``n`` held below 1 so that it stays finite."""
    return np.arctanh(np.minimum(n, 1.0 - _TINY))


def _tanh_along(t, v, nv, moved):
    """tanh(t) v / ||v|| where ``moved``, and the origin elsewhere; ``nv`` is ||v||."""
    return np.where(moved, np.tanh(t) * v / np.maximum(nv, _TINY), np.zeros_like(v))


def project_to_ball(x):
    """Clamp points radially so that ||x|| <= 1 - EPS_BOUNDARY.

    Returns its input itself when no row reaches that shell.
    """
    return _clamp(np.asarray(x, dtype=float), 1.0 - EPS_BOUNDARY)[0]


def _check_same_dim(x, y):
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}"
        )


def _mobius_add(x, y, sum_last, project):
    """x (+) y for arrays or tape tensors, given their kept-axis sum and ball projection."""
    c2 = _C * _C
    x2 = sum_last(x * x)
    y2 = sum_last(y * y)
    xy = sum_last(x * y)
    num = (1.0 + 2.0 * xy / c2 + y2 / c2) * x + (1.0 - x2 / c2) * y
    den = 1.0 + 2.0 * xy / c2 + x2 * y2 / (c2 * c2)
    return project(num / den)


def mobius_add(x, y):
    """Mobius addition x (+) y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_same_dim(x, y)
    return _mobius_add(x, y, _sum_last, project_to_ball)


def mobius_neg(x):
    """Gyro-inverse of x; plain coordinate negation."""
    return -np.asarray(x, dtype=float)


def gyration(a, b, v):
    """gyr[a,b]v = -(a+b) (+) (a (+) (b (+) v))."""
    return mobius_add(mobius_neg(mobius_add(a, b)), mobius_add(a, mobius_add(b, v)))


def mobius_scalar_mul(r, x):
    """Mobius scalar multiplication r (x) x.

    The zero vector is a fixed point for every r (the formula's x/||x||
    direction is handled explicitly).
    """
    x = np.asarray(x, dtype=float)
    n = _norm(x)
    out = _tanh_along(np.asarray(r, dtype=float) * _artanh(n), x, n, n > 0)
    return project_to_ball(out)


def _conformal_factor(x, sum_last):
    return 2.0 / (1.0 - sum_last(x * x) / (_C * _C))


def conformal_factor(x):
    """lambda_x = 2 / (1 - ||x||^2) over the kept last axis; 2 at the origin."""
    return _conformal_factor(np.asarray(x, dtype=float), _sum_last)


def exp_map_poincare(x, v):
    """Exponential map of tangent vector v at ball point x."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = _norm(v)
    lam = conformal_factor(x)
    return mobius_add(x, _tanh_along(lam * nv / 2.0, v, nv, nv > 0))


def log_map_poincare(x, y):
    """Logarithm map: tangent vector at x pointing toward y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = mobius_add(mobius_neg(x), y)
    nw = _norm(w)
    lam = conformal_factor(x)
    out = (2.0 / lam) * _artanh(nw) * w / np.maximum(nw, _TINY)
    return np.where(nw > 0, out, np.zeros_like(w))


def poincare_distance(x, y):
    """Geodesic distance 2 atanh(||(-x) (+) y||)."""
    w = mobius_add(mobius_neg(x), y)
    return 2.0 * _artanh(_norm(w, keepdims=False))


def transport_from_origin_poincare(x, v):
    """Parallel transport of a tangent vector at the origin to the point x."""
    lam = conformal_factor(x)
    return 2.0 / lam * np.asarray(v, dtype=float)


def bias_translate(x, b):
    """Bias translation exp_x(P_{0->x}(log_0(b))); agrees with mobius_add(x, b)."""
    origin = np.zeros_like(np.asarray(b, dtype=float))
    v0 = log_map_poincare(origin, b)
    vx = transport_from_origin_poincare(x, v0)
    return exp_map_poincare(x, vx)


# ---------------------------------------------------------------------------
# Fused kernels in the layouts of the classifier's tape maps
# ---------------------------------------------------------------------------
#
# Each point here lies in the unit ball and travels with the norms of its
# rows, ``(x, nx)`` with ``nx`` kept as ``_norm(x)`` keeps it: the kernel that
# makes a point knows them from its per-row coefficients, so no kernel
# measures its inputs again.  A kernel scales whole rows by one narrow
# coefficient, and folds the ball projection into that coefficient.  A row
# whose norm overflows gets a NaN norm (0 * inf), and so NaN coordinates,
# but in a projection, which clamps it as ``project_to_ball`` does.

def _shell(n):
    """The factor per row that moves the rows of norm ``n`` at or past the
    ball's shell onto it, None when every row is inside, and the norms after it."""
    maxnorm = 1.0 - EPS_BOUNDARY
    s = _onto_shell(n, maxnorm)[1]
    return (None, n) if s is None else (s, np.minimum(n, maxnorm))


def _project(x):
    """``(project_to_ball(x), its row norms)``.  A row whose norm overflows
    goes to zeros (NaN where an entry is infinite), whose norm it measures."""
    out, _, n = _clamp(x, 1.0 - EPS_BOUNDARY)
    if out is x:
        return out, n
    clamped = np.minimum(n, 1.0 - EPS_BOUNDARY)
    return out, (clamped if n.max() < math.inf else np.where(n < math.inf, clamped, _norm(out)))


def _scaled(v, k, n):
    """``(k v, its row norms)`` for rows ``v`` and coefficients ``k >= 0``
    whose products have norms ``n``, the rows past the shell moved onto it."""
    s, n = _shell(n)
    return (k if s is None else k * s) * v, n


def _expmap0(v):
    """exp_0 of the tangent rows ``v``: ``(tanh(||v||) / ||v||) v``."""
    n = _norm(v)
    k = np.tanh(n) / np.maximum(n, _TINY)
    return _scaled(v, k, k * n)


def _logmap0(y, ny):
    """log_0 of the ball rows ``y`` of norms ``ny``: ``(artanh(||y||) / ||y||) y``."""
    return (_artanh(ny) / np.maximum(ny, _TINY)) * y


def _matvec(x, nx, weight):
    """The Mobius matvec of the ball rows ``x`` of norms ``nx`` by ``weight``
    (n_in, n_out): ``y = x @ weight`` scaled by ``tanh(||y|| / ||x||
    artanh(||x||)) / ||y||``, which maps ``y = 0`` to the origin."""
    y = x @ weight
    ny = _norm(y)
    k = np.tanh(ny / np.maximum(nx, _TINY) * _artanh(nx)) / np.maximum(ny, _TINY)
    return _scaled(y, k, k * ny)


def mobius_matvec(x, weight):
    """Mobius matrix-vector multiplication of unit-ball points ``x`` (..., n_in)
    by ``weight`` (n_in, n_out); a point that ``weight`` maps to 0 maps to the origin."""
    x = np.asarray(x, dtype=float)
    return _matvec(x, _norm(x), np.asarray(weight, dtype=float))[0]


def _gyro_coefficients(x2, y2, xy):
    """``(a, b, n)`` such that ``a x + b y`` is x (+) y, projected, and ``n``
    its row norms, from ``||x||^2``, ``||y||^2`` and ``2 <x, y>``.  Where the
    two terms cancel, ``a x + b y`` is unprojected and ``n`` None, for the
    caller to measure: once ``a^2 x2 + b^2 y2`` passes 4 in a row, ``den`` is
    small against its own terms and keeps too few digits to give ``n``."""
    den = 1.0 + xy + x2 * y2
    a = (1.0 + xy + y2) / den
    b = (1.0 - x2) / den
    if not np.logical_and.reduce(a * a * x2 + b * b * y2 <= 4.0, axis=None):
        return a, b, None
    # 1 - ||x (+) y||^2 = (1 - x2)(1 - y2) / den, good to a few units of
    # 1e-16 of itself, which keeps the digits of a norm next to the shell
    s, n = _shell(np.sqrt(np.maximum(1.0 - b * (1.0 - y2), 0.0)))
    return (a, b, n) if s is None else (a * s, b * s, n)


def _mobius_add_rows(x, nx, y, ny):
    """``(x (+) y, its row norms)`` from the operands' row norms and one inner
    product; leading axes broadcast."""
    a, b, n = _gyro_coefficients(nx * nx, ny * ny, 2.0 * _inner(x, y))
    out = a * x
    out += b * y  # in place: one row-wide temporary, not two
    return (out, n) if n is not None else _project(out)


def _mlr_scores(x, nx, normals, offsets):
    """Hyperbolic multinomial logistic regression scores (..., K) of the ball
    rows ``x`` (..., n) of norms ``nx``, for class normals and offsets (K, n):
    ``lambda_p ||a|| asinh(2 <w, a> / ((1 - ||w||^2) ||a||))`` with ``w = (-p)
    (+) x``.  ``w`` is made only where its coefficients cancel; otherwise its
    inner products come from them and two matrix products."""
    na = np.maximum(_norm(normals, keepdims=False), _TINY)
    lam = _conformal_factor(offsets, _sum_last)[..., 0]
    a, b, n = _gyro_coefficients(_inner(offsets, offsets)[..., 0], nx * nx,
                                 -2.0 * (x @ offsets.T))
    if n is None:
        w, n = _project(a[..., None] * -offsets + b[..., None] * x[..., None, :])
        wa, n = _inner(w, normals)[..., 0], n[..., 0]
    else:
        wa = b * (x @ normals.T) - a * _inner(offsets, normals)[..., 0]
    return lam * na * np.arcsinh(2.0 * wa / ((1.0 - n * n) * na))


# ---------------------------------------------------------------------------
# Hyperboloid model
# ---------------------------------------------------------------------------

def lorentz_inner(u, v, keepdims=False):
    """Lorentzian inner product: spatial dot product minus the product of the
    last (time-like) coordinates."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise ValueError(f"length mismatch: {u.shape[-1]} vs {v.shape[-1]}")
    prod = u * v
    return np.add.reduce(prod[..., :-1], axis=-1, keepdims=keepdims) - (
        prod[..., -1:] if keepdims else prod[..., -1]
    )


def _lorentz_norm(v):
    """sqrt(<v, v>_L) with keepdims, 0 where rounding makes <v, v>_L negative."""
    return np.sqrt(np.maximum(lorentz_inner(v, v, keepdims=True), 0.0))


def hyperboloid_renormalize(x):
    """Recompute the time coordinate from the spatial ones so <x,x>_L = -1."""
    out = np.array(x, dtype=float)
    spatial = out[..., :-1]
    out[..., -1] = np.sqrt(1.0 + np.add.reduce(spatial * spatial, axis=-1))
    return out


def hyperboloid_origin(n):
    """The apex (0, ..., 0, 1) of the n-dimensional hyperboloid."""
    o = np.zeros(n + 1)
    o[-1] = 1.0
    return o


def hyperboloid_distance(u, v):
    """acosh(-<u,v>_L); the argument is clamped to >= 1 against fp drift."""
    arg = np.maximum(-lorentz_inner(u, v), 1.0)
    return np.arccosh(arg)


def tangent_project(x, v):
    """Lorentz-orthogonal projection of an ambient vector onto T_x H^n."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return v + lorentz_inner(x, v, keepdims=True) * x


def exp_map_hyperboloid(x, v):
    """Geodesic flow cosh(|v|_L) x + sinh(|v|_L) v/|v|_L for tangent v at x."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = _lorentz_norm(v)
    out = np.cosh(nv) * x + np.sinh(nv) * v / np.maximum(nv, _TINY)
    out = np.where(nv > 0, out, x)
    return hyperboloid_renormalize(out)


def log_map_hyperboloid(x, y):
    """Tangent vector at x whose geodesic reaches y; zero when x = y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = hyperboloid_distance(x, y)
    u = y + lorentz_inner(x, y, keepdims=True) * x
    nu = _lorentz_norm(u)
    out = d[..., None] * u / np.maximum(nu, _TINY)
    return np.where(nu > _TINY, out, np.zeros_like(out))


def hyperboloid_parallel_transport(x, y, w):
    """Parallel transport of tangent vector w from T_x H^n to T_y H^n.

    Splits w into its component along the connecting geodesic direction and
    the orthogonal remainder; only the former rotates.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    v = log_map_hyperboloid(x, y)
    nv = _lorentz_norm(v)
    vhat = v / np.maximum(nv, _TINY)
    wv = lorentz_inner(w, vhat, keepdims=True)
    transported = wv * (np.sinh(nv) * x + np.cosh(nv) * vhat) + (w - wv * vhat)
    return np.where(nv > _TINY, transported, w)


# ---------------------------------------------------------------------------
# Model conversions
# ---------------------------------------------------------------------------

def to_poincare(x):
    """Project a hyperboloid point into the unit ball: spatial / (time + 1).
    A point at distance d <= 30 from the origin, time coordinate t, comes
    back from to_hyperboloid within 2 e^d eps t per coordinate (eps =
    2.2e-16; 2e-7 t at d = 20, 5e-3 t at 30), as 1 - |y|^2 ~ 4 e^-d is known
    to about eps.  From about d = 36.5 some rows reach |y|^2 >= 1.0, which
    to_hyperboloid turns into inf, NaN or a lower-sheet row."""
    x = np.asarray(x, dtype=float)
    return x[..., :-1] / (x[..., -1:] + 1.0)


def to_hyperboloid(y):
    """Inverse projection of the ball into the hyperboloid, over 1 - ||y||^2,
    which makes it the exact inverse of to_poincare.  A ball row at distance
    d <= 30 from the origin comes back from to_poincare within 2 eps per coordinate."""
    y = np.asarray(y, dtype=float)
    y2 = np.sum(y * y, axis=-1, keepdims=True)
    num = np.concatenate([2.0 * y, 1.0 + y2], axis=-1)
    return num / (1.0 - y2)

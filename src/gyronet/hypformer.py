"""Transformer intent classifier in euclidean and Poincare-ball geometry.

The hyperbolic variant keeps every sequence element inside the ball: linear
maps become Mobius matrix applications, biases are gyro-added, attention runs
in the tangent space at the origin (log -> scaled dot product -> exp), heads
are merged by a left-associated gyro-sum, pooling and dropout act on tangent
coordinates, and classification uses hyperbolic multinomial logistic
regression.

The euclidean variant is the same network in flat space, the limit in which
Mobius addition becomes ``+``, Mobius matvec becomes matmul and log_0/exp_0
become the identity.  Every block takes the switch ``ball``, True by default,
and is the flat-space formula with ``ball=False``; the ball is the unit ball.
Only the classification head keeps one form per geometry.

Each block body is written once, over the binding of its operands: on tape
tensors each op records on their tape (training), and on numpy arrays it runs
numpy's and :mod:`gyronet.geometry`'s fused kernels with no tape (evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import diffcore as dc
from . import diffgeom as dg
from . import geometry
from .geometry import EPS_BOUNDARY

GEOMETRIES = ("euclidean", "poincare")


@dataclass
class TransformerConfig:
    """Classifier shape and geometry, stored as a bundle's config block.

    The ball is the unit ball.  The block keeps the radius line, at 1.0, that
    bundles have always held, so that they keep their bytes, and
    :meth:`from_dict` refuses any other radius.
    """

    geometry: str = "poincare"
    model_dim: int = 16
    num_layers: int = 2
    num_heads: int = 4
    head_dim: int = 4
    ffn_dim: int = 32
    num_classes: int = 8
    dropout: float = 0.0
    max_seq_len: int = 64
    pe_scale: float = 1.0
    use_residual: bool = False

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry '{self.geometry}'")
        for name in ("model_dim", "num_layers", "num_heads", "head_dim", "ffn_dim",
                     "num_classes", "max_seq_len"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if not math.isfinite(self.pe_scale):
            raise ValueError(f"pe_scale must be finite, got {self.pe_scale}")

    @property
    def proj_dim(self):
        # width of the concatenated heads
        return self.num_heads * self.head_dim

    def to_dict(self):
        """Config block of a model bundle: field name -> string, and the radius."""
        block = {f.name: _FORMAT.get(f.type, str)(getattr(self, f.name)) for f in fields(self)}
        return block | {"curvature": "1.0"}

    @classmethod
    def from_dict(cls, d):
        if float(d["curvature"]) != 1.0:
            raise ValueError(f"curvature must be 1.0, the unit ball, got {d['curvature']!r}")
        return cls(**{f.name: _PARSE[f.type](d[f.name]) for f in fields(cls)})


# field type (as annotated) -> string form in a bundle and back; a float is
# written in its shortest exact form, so the bundle scores the trained model
_FORMAT = {"float": lambda v: repr(float(v)), "bool": lambda v: "1" if v else "0"}


def _parse_bool(s):
    if s not in ("0", "1"):
        raise ValueError(f"a bool must be 0 or 1, got {s!r}")
    return s == "1"


_PARSE = {"str": str, "int": int, "float": float, "bool": _parse_bool}


def positional_encoding_matrix(length, d):
    """Sinusoidal encodings of positions 0 .. length-1, one row each: slots
    2k and 2k+1 hold the sin and cos of pos / 10000^(2k/d)."""
    # Python's float power: np.power rounds some denominators differently
    angles = np.arange(length)[:, None] / np.array([10000.0 ** (i / d) for i in range(0, d, 2)])
    pe = np.empty((length, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, :d // 2])
    return pe


def positions_on_the_shell(config: TransformerConfig):
    """How many of the ``max_seq_len`` positional encodings exp_0 puts on the
    ball's ``1 - EPS_BOUNDARY`` shell, where the projection clamps them, and
    the largest ``pe_scale`` of three significant digits that keeps them all
    inside.

    exp_0 maps a tangent vector of norm r to a point of norm tanh(r), which
    reaches the shell at r = artanh(1 - EPS_BOUNDARY).  When every encoding is
    the origin (one position at model dim 1), no scale moves one: the count is
    0 and the scale unbounded.
    """
    norms = np.linalg.norm(positional_encoding_matrix(config.max_seq_len, config.model_dim),
                           axis=-1)
    if not norms.any():
        return 0, math.inf
    reach = math.atanh(1.0 - EPS_BOUNDARY)
    limit = reach / float(norms.max())  # the scale at which the farthest encoding gets there
    step = 10.0 ** (math.floor(math.log10(limit)) - 2)
    return int(np.sum(abs(config.pe_scale) * norms >= reach)), (math.ceil(limit / step) - 1) * step


def param_shapes(config: TransformerConfig):
    """Name -> shape of every model parameter, in initialisation order."""
    n, pd, f, k = config.model_dim, config.proj_dim, config.ffn_dim, config.num_classes
    shapes = {}
    for i in range(config.num_layers):
        p = f"layer{i}."
        shapes.update({p + "wq": (n, pd), p + "wk": (n, pd), p + "wv": (n, pd),
                       p + "merge": (config.num_heads, config.head_dim, n),
                       p + "ffn_w1": (n, f), p + "ffn_w2": (f, n),
                       p + "ffn_b1": (f,), p + "ffn_b2": (n,)})
    shapes["unk"] = (n,)
    if config.geometry == "poincare":
        shapes.update(mlr_a=(k, n), mlr_p=(k, n))
    else:
        shapes.update(out_w=(n, k), out_b=(k,))
    return shapes


# parameters that are points on the ball in the poincare model
_BALL_POINTS = ("ffn_b1", "ffn_b2", "unk", "mlr_p")
# ball points and biases start at zero; every other parameter is a random matrix
_ZERO_INIT = _BALL_POINTS + ("out_b",)


def init_params(config: TransformerConfig, rng, gain=1.0):
    """Fresh parameter arrays.  Manifold-valued parameters (hyperbolic biases,
    MLR offsets, the UNK embedding point) start at the origin.

    Weight matrices use std = gain / sqrt(fan_out) (the last axis): for
    ``y = x @ W`` this keeps ||y|| close to ||x||, which matters on the ball
    where a shrinking norm chain collapses every point toward the origin.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.rpartition(".")[2] in _ZERO_INIT:
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, gain / math.sqrt(shape[-1]), shape)
    return params


def manifold_param_names(config: TransformerConfig):
    """Parameters that live on the ball and take Riemannian SGD updates."""
    if config.geometry != "poincare":
        return set()
    return {name for name in param_shapes(config) if name.rpartition(".")[2] in _BALL_POINTS}


# ---------------------------------------------------------------------------
# Bindings: each block body is written once, over the ops of its operands
# ---------------------------------------------------------------------------

class _Point:
    """A ball point on arrays: its coordinates ``value`` and their row norms
    ``norms``, which the kernel that made it knew, so that the next kernel
    does not measure them again.  Indexing it gives coordinates, as a tensor
    slice does."""

    __slots__ = ("value", "norms")

    def __init__(self, value, norms):
        self.value = value
        self.norms = norms

    def __getitem__(self, key):
        return self.value[key]


def _rows(x):
    """``(coordinates, row norms)`` of a ball point, measured for a parameter."""
    return (x.value, x.norms) if isinstance(x, _Point) else (x, geometry._norm(x))


# on tape tensors: diffcore's ops and diffgeom's at its default radius, looked
# up at each call, so that a wrapper installed on one of them sees every call
_TAPE = SimpleNamespace(
    constant=lambda like, value: like.tape.constant(value),
    matmul=lambda a, b: dc.matmul(a, b), swap_last=dc.swap_last, softmax=dc.softmax,
    relu=dc.relu, exp=dc.exp, log=dc.log, tmax=dc.tmax, tsum=dc.tsum,
    project=lambda x: dg.project(x),
    mobius_add=lambda x, y: dg.mobius_add(x, y),
    mobius_matvec=lambda x, w: dg.mobius_matvec(x, w),
    logmap0=lambda x: dg.logmap0(x),
    expmap0=lambda v: dg.expmap0(v),
    mlr_scores=lambda x, a, p: dg.mlr_scores(x, a, p))

# on numpy arrays: the same forwards as the tape's flat ops, and geometry's
# fused kernels on ball points that carry their row norms
_ARRAYS = SimpleNamespace(
    constant=lambda like, value: value,
    matmul=np.matmul, swap_last=lambda a: a.swapaxes(-1, -2), softmax=dc._softmax,
    relu=lambda a: np.maximum(a, 0.0), exp=np.exp, log=np.log,
    tmax=lambda a, axis=None, keepdims=False: np.maximum.reduce(a, axis=axis, keepdims=keepdims),
    tsum=dc._sum,
    project=lambda x: _Point(*geometry._project(x)),
    mobius_add=lambda x, y: _Point(*geometry._mobius_add_rows(*_rows(x), *_rows(y))),
    mobius_matvec=lambda x, w: _Point(*geometry._matvec(*_rows(x), w)),
    logmap0=lambda x: geometry._logmap0(*_rows(x)),
    expmap0=lambda v: _Point(*geometry._expmap0(v)),
    mlr_scores=lambda x, a, p: geometry._mlr_scores(*_rows(x), a, p))


def _ops(x):
    """The binding of the value ``x``: the tape's for a tensor, else the arrays'."""
    return _TAPE if isinstance(x, dc.Tensor) else _ARRAYS


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _add(x, y, ball):
    return _ops(x).mobius_add(x, y) if ball else x + y


def _matvec(x, w, ball):
    return _ops(x).mobius_matvec(x, w) if ball else _ops(x).matmul(x, w)


def _log0(x, ball):
    return _ops(x).logmap0(x) if ball else x


def _exp0(v, ball):
    return _ops(v).expmap0(v) if ball else v


def _project(x, ball):
    return _ops(x).project(x) if ball else x


def attach_positions(x, pe, ball=True):
    """Add positional information: x (+) exp_0(PE), which is x + PE in flat
    space.  ``pe`` is a constant."""
    return _add(x, _exp0(pe, ball), ball)


def scaled_dot_attention(q, k, v, mask_bias):
    """softmax(q k^T / sqrt(d_k) + mask) v on tangent/euclidean coordinates."""
    d_k = q.shape[-1]
    if d_k == 0:
        raise ValueError("attention requires d_k > 0")
    ops = _ops(q)
    logits = ops.matmul(q, ops.swap_last(k)) * (1.0 / math.sqrt(d_k))
    if mask_bias is not None:
        logits = logits + mask_bias
    weights = ops.softmax(logits)
    return ops.matmul(weights, v)


def hyperbolic_attention(q, k, v, mask_bias, ball=True):
    """Tangent-space attention between ball points: log -> attend -> exp,
    which is :func:`scaled_dot_attention` in flat space."""
    return _exp0(scaled_dot_attention(_log0(q, ball), _log0(k, ball), _log0(v, ball),
                                      mask_bias), ball)


def split_heads(y, num_heads, head_dim, ball=True):
    """Slice a concatenated projection into per-head blocks.

    For ball points each block is re-clamped into its own ball (a coordinate
    slice can only shrink the norm, so this is a no-op except at the shell).
    """
    return [_project(y[..., i * head_dim:(i + 1) * head_dim], ball) for i in range(num_heads)]


def merge_heads(heads, merge_w, ball=True):
    """Project each head back to model width and combine.

    The per-head results are gyro-added left-associated in ascending head
    order; the order is part of the contract because gyro-addition is not
    associative.  In flat space this is a plain sum.
    """
    parts = [_matvec(h, w_i, ball) for h, w_i in zip(heads, merge_w)]
    out = parts[0]
    for p in parts[1:]:
        out = _add(out, p, ball)
    return out


def hyperbolic_ffn(x, w1, b1, w2, b2, ball=True):
    """Two-layer feed-forward on the ball with a lifted ReLU in between."""
    h = _add(_matvec(x, w1, ball), b1, ball)
    h = _exp0(_ops(x).relu(_log0(h, ball)), ball)
    return _add(_matvec(h, w2, ball), b2, ball)


def euclidean_ffn(x, w1, b1, w2, b2):
    """Flat-space reference of :func:`hyperbolic_ffn`."""
    return dc.matmul(dc.relu(dc.matmul(x, w1) + b1), w2) + b2


def tangent_dropout(x, rate, rng, training, ball=True):
    """Inverted dropout on tangent coordinates at the origin (raw
    coordinates in flat space); identity in eval mode."""
    if not training or rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(float) / (1.0 - rate)
    mask = _ops(x).constant(x, keep)
    return _exp0(_log0(x, ball) * mask, ball)


def pooled_representation(x, mask_keep, ball=True):
    """Coordinate-wise max over unmasked positions, taken in the tangent
    space at the origin.  ``mask_keep``: constant (..., L, 1), 1 for real
    positions."""
    t = _log0(x, ball)
    neg = (1.0 - mask_keep) * (-1e30)
    return _exp0(_ops(t).tmax(t + neg, axis=-2, keepdims=False), ball)


def classifier_forward(params, points, mask, config: TransformerConfig, rng=None,
                       training=False):
    """Run the full classifier.

    ``points``: sequence points (B, L, n), first clamped into the ball on the
    ball; ``params``: dict of parameters; ``mask``: numpy array (B, L) with 1
    for real tokens; ``rng`` draws dropout masks when ``training``.  Returns
    the class scores (B, K); apply :func:`dc.softmax` for probabilities.
    Tensors on a tape record there; numpy arrays run through
    :mod:`gyronet.geometry`'s fused kernels and record nothing.
    """
    mask = np.asarray(mask, dtype=float)
    if not np.all(mask.sum(axis=-1) >= 1):
        raise ValueError("every sequence needs at least one unmasked position")
    ball = config.geometry == "poincare"
    ops, length = _ops(points), points.shape[-2]
    # a point made by adding coordinates (UNK substitution) may leave the ball
    points = _project(points, ball)
    pe = config.pe_scale * positional_encoding_matrix(length, config.model_dim)
    pe = ops.constant(points, pe)
    mask_bias = ops.constant(points, (-1e9) * (1.0 - mask)[..., None, :])  # (B, 1, L)
    mask_keep = ops.constant(points, mask[..., None])  # (B, L, 1)

    x = attach_positions(points, pe, ball)
    for i in range(config.num_layers):
        p = f"layer{i}."
        # backward sums gradients in recording order, so this order (all three
        # projections before any split) is part of what fixes the trained bits
        q, k, v = [_matvec(x, params[p + t], ball) for t in ("wq", "wk", "wv")]
        heads = [split_heads(t, config.num_heads, config.head_dim, ball) for t in (q, k, v)]
        outs = [hyperbolic_attention(qi, ki, vi, mask_bias, ball) for qi, ki, vi in zip(*heads)]
        # on arrays nothing else holds these, so the merge, where an
        # evaluation forward's memory peaks, runs without them
        del q, k, v, heads
        merged = merge_heads(outs, [params[p + "merge"][j] for j in range(config.num_heads)],
                             ball)
        if config.use_residual:
            merged = _add(x, merged, ball)
        merged = tangent_dropout(merged, config.dropout, rng, training, ball)
        ffn = [merged] + [params[p + t] for t in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")]
        ff = hyperbolic_ffn(*ffn, ball)
        if config.use_residual:
            ff = _add(merged, ff, ball)
        x = tangent_dropout(ff, config.dropout, rng, training, ball)

    pooled = pooled_representation(x, mask_keep, ball)
    if ball:
        return _ops(pooled).mlr_scores(pooled, params["mlr_a"], params["mlr_p"])
    return ops.matmul(pooled, params["out_w"]) + params["out_b"]


def embed_sequences(base_points, unk_mask, unk_param):
    """Combine frozen embedding points with the trainable UNK point.

    ``base_points``: numpy (B, L, n) with zeros at UNK slots; ``unk_mask``:
    numpy (B, L, 1) flags; ``unk_param``: the UNK parameter, of shape (n,),
    a tensor, on whose tape the result is, or an array.
    """
    ops = _ops(unk_param)
    base = ops.constant(unk_param, base_points)
    flags = ops.constant(unk_param, np.asarray(unk_mask, dtype=float))
    return base + flags * unk_param


def cross_entropy(scores, labels):
    """Mean negative log-likelihood of integer labels under softmaxed scores."""
    ops = _ops(scores)
    b, k = scores.shape
    onehot = np.zeros((b, k))
    onehot[np.arange(b), np.asarray(labels, dtype=int)] = 1.0
    m = ops.tmax(scores, axis=-1, keepdims=True)
    lse = m + ops.log(ops.tsum(ops.exp(scores - m), axis=-1, keepdims=True))
    logp = scores - lse
    picked = ops.tsum(ops.constant(scores, onehot) * logp)
    return -picked * (1.0 / b)

"""Training and evaluation harness for the transformer intent classifier.

Hyperboloid embedding files are converted into the Poincare ball on load;
euclidean embedding files feed the euclidean model.  Matrices (and MLR
normals) are updated with RMSProp; ball-valued parameters (hyperbolic biases,
MLR offsets, the UNK point) are updated with Riemannian SGD on the ball.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .embed import read_embeddings
from .geometry import EPS_BOUNDARY, _all_finite, project_to_ball, to_poincare
from .hypformer import (
    TransformerConfig,
    classifier_forward,
    cross_entropy,
    embed_sequences,
    init_params,
    manifold_param_names,
)
from .optim import RmsProp, rsgd_step_poincare

# an evaluation forward pads at most EVAL_BATCH_SIZE * max_seq_len positions,
# as many as this many utterances of the longest encodable length
EVAL_BATCH_SIZE = 32

log = logging.getLogger("gyronet")


@dataclass
class TrainSettings:
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    lr: float = 0.001  # RMSProp rate for euclidean parameters
    manifold_lr: float = 0.05  # Riemannian SGD rate for ball parameters
    restart_epoch: int = -1  # negative: the epoch midpoint


class TokenMap:
    """Token -> embedding-point lookup with a trainable UNK fallback.

    ``encode`` turns a batch of utterances into the classifier's padded
    inputs with one gather: each slot's row id, or -1 at UNK and pad slots,
    indexes ``points`` with one row of +0.0 appended, which the -1 slots
    take.
    """

    def __init__(self, tokens, points):
        self.token_to_row = {t: i for i, t in enumerate(tokens)}
        self.points = np.asarray(points, dtype=float)
        self.dim = self.points.shape[1]
        self._rows = np.concatenate([self.points, np.zeros((1, self.dim))])

    def encode(self, utterances, max_len):
        """``(points, unk, mask)`` of shapes (B, L, n), (B, L, 1) and (B, L)
        for B utterances cut to ``max_len`` code points and padded to the
        longest, L, at least 1.  UNK and pad slots hold +0.0 points; ``unk``
        flags the UNK slots and ``mask`` the slots of characters."""
        cut = [u[:max_len] for u in utterances]
        lengths = np.array([len(u) for u in cut], dtype=np.intp)
        mask = np.arange(max(lengths.max(initial=0), 1)) < lengths[:, None]
        ids = np.full(mask.shape, -1, dtype=np.intp)
        get = self.token_to_row.get
        ids[mask] = np.fromiter((get(ch, -1) for u in cut for ch in u), np.intp, mask.sum())
        unk = (ids < 0) & mask
        return self._rows[ids], unk[..., None].astype(float), mask.astype(float)


def load_embedding_points(path, classifier_geometry):
    """Load an embedding file and adapt it to the classifier geometry.

    The classifier looks up one row per character, so a token that is not one
    character, which no character matches, and a repeated token, whose earlier
    rows no character reaches, raise ``ValueError("<path>:<line>: ...")``.
    Ball rows that reach the ``1 - EPS_BOUNDARY`` shell are moved onto it, and
    a warning names how many moved and the largest distance from the origin
    among them."""
    tokens, matrix, geometry = read_embeddings(path)
    first = {}
    for i, token in enumerate(tokens):
        if len(token) != 1:
            raise ValueError(f"{path}:{i + 2}: token {token!r} is not one character")
        if first.setdefault(token, i) != i:
            raise ValueError(f"{path}:{i + 2}: token {token!r} repeats line {first[token] + 2}")
    if classifier_geometry == "poincare":
        if geometry == "hyperboloid":
            ball = to_poincare(matrix)
        elif geometry == "poincare":
            ball = matrix
        else:
            raise ValueError(
                f"{path}: euclidean embeddings cannot feed the hyperbolic classifier; "
                "train hyperboloid embeddings or use --geometry euclidean"
            )
        points = project_to_ball(ball)
        moved = (points != ball).any(axis=-1) if points is not ball else ()
        if np.any(moved):
            with np.errstate(all="ignore"):  # a ball row of norm 1 or more lies at inf
                far = (np.arccosh(matrix[moved, -1]) if geometry == "hyperboloid" else
                       2.0 * np.arctanh(np.minimum(np.linalg.norm(ball[moved], axis=-1), 1.0)))
            log.warning("%s: moved %d of %d rows onto the ball's 1 - %g shell; the farthest "
                        "lay %.6g from the origin", path, np.count_nonzero(moved), len(ball),
                        EPS_BOUNDARY, far.max())
        matrix = points
    elif classifier_geometry == "euclidean":
        if geometry != "euclidean":
            raise ValueError(
                f"{path}: {geometry} embeddings cannot feed the euclidean classifier"
            )
    else:
        raise ValueError(f"unknown classifier geometry '{classifier_geometry}'")
    return TokenMap(tokens, matrix)


def _batches(indices, batch_size):
    for i in range(0, len(indices), batch_size):
        yield indices[i:i + batch_size]


def _length_chunks(records, indices, max_len):
    """The indices sorted by (encoded length, index) and cut into chunks whose
    padded size, the last row's length times the rows, stays within
    ``EVAL_BATCH_SIZE * max_len`` positions."""
    budget = EVAL_BATCH_SIZE * max_len
    chunk = []
    for length, i in sorted((min(len(records[i][0]), max_len), i) for i in indices):
        if length * (len(chunk) + 1) > budget:
            yield chunk
            chunk = []
        chunk.append(i)
    yield chunk


def _forward_batch(params_np, points_np, unk_np, mask, labels, config,
                   rng=None, training=False):
    """Classifier scores and loss recorded on a new tape."""
    tape = dc.Tape()
    tensors = {name: tape.leaf(value, requires_grad=True)
               for name, value in params_np.items()}
    pts = embed_sequences(points_np, unk_np, tensors["unk"])
    scores = classifier_forward(tensors, pts, mask, config, rng=rng, training=training)
    loss = cross_entropy(scores, labels) if labels is not None else None
    return tape, tensors, scores, loss


class NonFiniteScores(ValueError):
    """An evaluation forward whose scores or cross-entropy are not finite."""


class Divergence(ValueError):
    """A training step that failed: its tape met a value that is not finite,
    or the update a gradient that is not."""


def _score_batch(params, points_np, unk_np, mask, labels, config):
    """Classifier scores and mean cross-entropy of one batch, on arrays: the
    same block bodies as ``_forward_batch``, through :mod:`gyronet.geometry`'s
    fused kernels, with no tape.  Where a value overflows, numpy warns of
    nothing; scores or a cross-entropy that are not finite raise
    :class:`NonFiniteScores`."""
    with np.errstate(all="ignore"):
        pts = embed_sequences(points_np, unk_np, params["unk"])
        scores = classifier_forward(params, pts, mask, config)
        loss = float(cross_entropy(scores, labels))
    if not (_all_finite(scores) and math.isfinite(loss)):
        raise NonFiniteScores(f"non-finite class scores or cross-entropy on a batch of "
                              f"{len(labels)} utterances")
    return scores, loss


def _update(params, grads, opt, manifold, lr):
    """Each parameter's update from its gradient in ``grads``, in place in
    ``params``: RMSProp in ``sorted(params)`` order, then one Riemannian step
    per row width, on the rows of every ball parameter of that width stacked
    in that order and split back.  Each kernel of the step works row by row,
    so a row gets the bits a step of its own parameter would give."""
    widths = {}
    for name in sorted(params):
        if name in manifold:
            widths.setdefault(params[name].shape[-1], []).append(name)
        else:
            params[name] = opt.step(name, params[name], grads[name])
    for width, names in widths.items():
        stacked = rsgd_step_poincare(
            np.concatenate([params[name].reshape(-1, width) for name in names]),
            np.concatenate([grads[name].reshape(-1, width) for name in names]), lr)
        start = 0
        for name in names:
            p = params[name]
            params[name] = stacked[start:start + p.size // width].reshape(p.shape)
            start += p.size // width


def _train_step(params, opt, manifold, dataset, batch, token_map, config, settings, rng):
    """One training step on the record indices ``batch``: forward, backward,
    then the update of every parameter by ``_update``, in place in
    ``params``.  Returns the batch's mean loss as a float and its count of
    correct predictions.  The step's tape, leaf tensors, scores and gradients
    are freed when it returns, before the next step records its tape."""
    records = dataset.records
    points_np, unk_np, mask = token_map.encode([records[i][0] for i in batch],
                                               config.max_seq_len)
    labels = np.array([dataset.label_to_id[records[i][1]] for i in batch])
    tape, tensors, scores, loss = _forward_batch(
        params, points_np, unk_np, mask, labels, config, rng=rng, training=True)
    grads = dc.backward(tape, loss)
    _update(params, {name: grads[t] for name, t in tensors.items()}, opt, manifold,
            settings.manifold_lr)
    return float(loss.value), int(np.sum(np.argmax(scores.value, axis=-1) == labels))


def train_classifier(dataset, token_map, config: TransformerConfig,
                     settings: TrainSettings, log_fn=None):
    """Train on the dataset's training split; returns (params, history).

    ``history`` is a list of per-epoch dicts with the mean train loss and
    train accuracy.  Deterministic for fixed seeds.  A step that fails raises
    :class:`Divergence`, which names its epoch and step.  Each step runs in
    ``_train_step``, so training holds one step's tape at a time: about
    87 MB after the forward, peaking at about 96 MB, at the ``hyp-c2v-100``
    presets (dim 100) with batches of 16 utterances of 64 characters.
    """
    rng = np.random.default_rng(settings.seed)
    params = init_params(config, rng)
    manifold = manifold_param_names(config)
    opt = RmsProp(lr=settings.lr)
    restart_epoch = settings.restart_epoch
    if restart_epoch < 0:
        restart_epoch = settings.epochs // 2
    train_idx = np.array(dataset.train_indices)
    history = []
    for epoch in range(settings.epochs):
        if epoch == restart_epoch:
            # single warm restart: RMSProp state is cleared, parameters kept
            opt.reset()
            if log_fn:
                log_fn(f"epoch {epoch} restart lr {opt.lr:g}")
        order = train_idx.copy()
        rng.shuffle(order)
        loss_sum = 0.0
        correct = 0
        for step, batch in enumerate(_batches(order.tolist(), settings.batch_size)):
            try:
                loss, hits = _train_step(params, opt, manifold, dataset, batch, token_map,
                                         config, settings, rng)
            except (dc.TapeError, ValueError) as exc:
                kind = "value" if isinstance(exc, dc.TapeError) else "update"
                raise Divergence(f"divergence (non-finite {kind}) at epoch {epoch} "
                                 f"step {step}: {exc}") from None
            loss_sum += loss * len(batch)
            correct += hits
        entry = {
            "epoch": epoch,
            "train_loss": loss_sum / len(order),
            "train_accuracy": correct / len(order),
        }
        history.append(entry)
        if log_fn:
            log_fn(f"epoch {epoch} loss {entry['train_loss']:.6f} "
                   f"acc {entry['train_accuracy']:.4f}")
    return params, history


def evaluate_classifier(dataset, indices, token_map, params, config):
    """Accuracy and mean cross-entropy over the given record indices.

    The indices are sorted by encoded length and scored in chunks of at most
    ``EVAL_BATCH_SIZE * max_seq_len`` padded positions, each padded only to
    its own longest row, by ``_score_batch``.  The chunks, and so the
    metrics, depend only on the index set, not on its order.  An empty
    ``indices`` raises ``ValueError``, and scores that are not finite
    :class:`NonFiniteScores`.
    """
    indices = list(indices)
    if not indices:
        raise ValueError("evaluate_classifier needs at least one record index")
    records = dataset.records
    label_to_id = dataset.label_to_id
    total, correct, ce_sum = 0, 0, 0.0
    for batch in _length_chunks(records, indices, config.max_seq_len):
        points_np, unk_np, mask = token_map.encode([records[i][0] for i in batch],
                                                   config.max_seq_len)
        labels = np.array([label_to_id[records[i][1]] for i in batch])
        scores, loss = _score_batch(params, points_np, unk_np, mask, labels, config)
        ce_sum += loss * len(batch)
        correct += int(np.sum(np.argmax(scores, axis=-1) == labels))
        total += len(batch)
    return {
        "accuracy": correct / total,
        "cross_entropy": ce_sum / total,
    }

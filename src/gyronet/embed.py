"""Skip-gram with negative sampling, in euclidean space and on the hyperboloid.

The hyperboloid variant scores a (center, context) pair with the Lorentzian
inner product plus an additive shift theta and is trained with Riemannian SGD:
explicit Minkowski gradients are projected onto tangent spaces and steps are
taken along the exponential map, so every embedding row stays on the manifold.
Training is minibatch SGD over blocks of consecutive pairs: every pair of a
block is scored and differentiated at the rows as they were when the block
began, each row sums its gradients in pair order, and the rows the block
touched make one Riemannian step through one batched exponential map.  The
sums need no sort: a pair's repeated samples are found by comparing its
sampled ids with each other, and rows are found through an id-to-row table
that each training run allocates once.
Negatives come from the seeded Generator in capped chunks of the same stream,
so the pairs equal those of one draw per negative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .data import read_utf8_lines
from .geometry import (_all_finite, exp_map_hyperboloid, hyperboloid_origin, lorentz_inner,
                       tangent_project)

GEOMETRIES = ("euclidean", "hyperboloid")
# Geometries an embedding file may carry: the trained ones, and ball
# coordinates written by ``convert``.
FILE_GEOMETRIES = GEOMETRIES + ("poincare",)
# Most negatives that generate_pairs draws from the Generator in one call.
NEGATIVE_CHUNK = 4096
# Most sampled rows (each pair's context and negatives) in one training
# block: a block holds BLOCK_ROWS // (m + 1) consecutive pairs, at least one.
# A row that recurs in a block takes the sum of its gradients in one step,
# and larger blocks diverged where per-pair steps did not.
BLOCK_ROWS = 48
# Most code points or ids of a corpus worked on at a time: build_vocab sorts
# and encode searches one slice of code points, and generate_pairs turns one
# slice of ids into Python ints.
CORPUS_SLICE = 1 << 14


def code_points(tokens):
    """A corpus as one uint32 array of code points.  ``tokens`` is a str, an
    iterable of one-character strings, or a uint32 code-point array, which
    comes back as it is; any other token, such as "ab", raises ValueError."""
    if isinstance(tokens, np.ndarray) and tokens.dtype == np.uint32:
        return tokens
    if isinstance(tokens, str):
        return np.frombuffer(tokens.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return np.fromiter(map(_code_point, tokens), dtype=np.uint32)


def _code_point(token):
    if isinstance(token, str) and len(token) == 1:
        return ord(token)
    raise ValueError(f"a corpus token is one character, got {token!r}")


class Vocabulary:
    """One-character tokens in code-point order, with a unigram^0.75
    negative-sampling distribution.  A token's id is its position in that
    order; tokens out of it raise ValueError."""

    def __init__(self, id_to_token, counts):
        self.id_to_token = list(id_to_token)
        # the vocabulary's code points, sorted since a token's id is its rank:
        # a table the size of the vocabulary, whatever its largest code point
        self._points = code_points(self.id_to_token)
        late = np.flatnonzero(self._points[1:] <= self._points[:-1])
        if len(late):
            raise ValueError(f"token {self.id_to_token[late[0] + 1]!r} is out of order: tokens "
                             f"must be in strictly ascending code-point order")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        self.counts = np.asarray(counts, dtype=float)
        weights = self.counts ** 0.75
        self.sampling_probs = weights / weights.sum()
        # the sum falls short of 1.0 by up to a few dozen ulps in about half
        # of all vocabularies; a draw past it would search past the last id
        self._cum = np.cumsum(self.sampling_probs)
        self._cum[-1:] = 1.0

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens):
        """The ids of a corpus's characters as one int32 array; characters
        outside the vocabulary are dropped."""
        points = code_points(tokens)
        ids, n = np.empty(len(points), dtype=np.int32), 0
        last = len(self._points) - 1
        for lo in range(0, len(points), CORPUS_SLICE):
            # searched once per distinct code point, which is faster than per position
            distinct, back = np.unique(points[lo:lo + CORPUS_SLICE], return_inverse=True)
            at = np.minimum(self._points.searchsorted(distinct), last)
            part = np.where(self._points[at] == distinct, at, -1)[back]
            part = part[part >= 0]
            ids[n:n + len(part)] = part
            n += len(part)
        return ids[:n]

    def sample_negatives(self, m, rng):
        return np.searchsorted(self._cum, rng.random(m)).tolist()


def build_vocab(tokens, min_count=1):
    """The characters that a corpus holds at least ``min_count`` times, in
    code-point order, which is ``sorted`` order for one-character strings."""
    points = code_points(tokens)
    # the distinct code points so far, sorted, and their counts (exact in
    # float64 up to 2**53)
    seen, counts = np.empty(0, dtype=np.uint32), np.empty(0)
    for lo in range(0, len(points), CORPUS_SLICE):
        part, part_counts = np.unique(points[lo:lo + CORPUS_SLICE], return_counts=True)
        seen, at = np.unique(np.concatenate([seen, part]), return_inverse=True)
        counts = np.bincount(at, np.concatenate([counts, part_counts]))
    kept = counts >= max(min_count, 1)
    if not kept.any():
        raise ValueError("empty vocabulary after min_count filtering")
    return Vocabulary(map(chr, seen[kept].tolist()), counts[kept])


@dataclass
class TrainingPair:
    center: int
    context: int
    negatives: list[int]


def generate_pairs(ids, mu, m, vocab, rng):
    """Yield one TrainingPair per (position, in-window offset).

    Negatives are drawn i.i.d. from the unigram^0.75 table and resampled
    (up to 10 tries) when they collide with the positive context token.  They
    come from ``rng`` in chunks of at most NEGATIVE_CHUNK values, and a chunk
    never holds more values than the pass is certain to consume, so the pairs
    and the Generator's final state equal those of one draw per negative.
    """
    if mu < 1:
        raise ValueError("window radius mu must be >= 1")
    ids = np.asarray(ids)
    n = len(ids)
    span = min(mu, max(n - 1, 0))
    # m for each pair still to be yielded; offset d <= span gives 2 * (n - d) pairs
    regular = m * span * (2 * n - span - 1)
    drawn, at = [], 0  # drawn[at:] came from rng but is not handed out yet

    def draw(certain):
        # never more values than the rest of the pass is certain to consume
        return vocab.sample_negatives(min(NEGATIVE_CHUNK, certain), rng)

    for lo in range(0, n, CORPUS_SLICE):
        # the ids of positions lo - mu .. lo + CORPUS_SLICE + mu - 1, clipped
        # to the corpus, so a window clipped here is clipped in the corpus
        base = max(lo - mu, 0)
        window = ids[base:lo + CORPUS_SLICE + mu].tolist()
        for k in range(lo - base, min(lo + CORPUS_SLICE, n) - base):
            center = window[k]
            for pos in range(max(k - mu, 0), min(k + mu + 1, len(window))):
                if pos == k:
                    continue
                context = window[pos]
                negs = drawn[at:at + m]
                at += len(negs)
                while len(negs) < m:
                    drawn = draw(regular - len(negs))
                    at = min(m - len(negs), len(drawn))
                    negs += drawn[:at]
                regular -= m
                if context in negs:
                    for i in range(m):
                        tries = 0
                        while negs[i] == context and tries < 10:
                            if at == len(drawn):
                                drawn, at = draw(regular + 1), 0  # this resample, then later pairs
                            negs[i] = drawn[at]
                            at += 1
                            tries += 1
                yield TrainingPair(center, context, negs)


@dataclass
class EmbeddingMatrices:
    A: np.ndarray  # center representations, one row per token
    B: np.ndarray  # context representations
    geometry: str


def init_embeddings(vocab_size, dim, geometry, rng):
    if geometry == "euclidean":
        a = (rng.random((vocab_size, dim)) - 0.5) / dim
        b = (rng.random((vocab_size, dim)) - 0.5) / dim
    elif geometry == "hyperboloid":
        a = _random_hyperboloid_rows(vocab_size, dim, rng)
        b = _random_hyperboloid_rows(vocab_size, dim, rng)
    else:
        raise ValueError(f"unknown geometry '{geometry}'")
    return EmbeddingMatrices(a, b, geometry)


def _random_hyperboloid_rows(count, dim, rng):
    # gaussian tangent vectors at the apex, pushed through the exponential map
    tangents = np.concatenate(
        [rng.normal(0.0, 0.01, (count, dim)), np.zeros((count, 1))], axis=-1
    )
    return exp_map_hyperboloid(hyperboloid_origin(dim), tangents)


@functools.lru_cache(maxsize=4)
def _time_signs(cols):
    """(1, ..., 1, -1) of ``cols`` coordinates, which turns a dot product into
    the Lorentzian one.  Made once per width, and read-only, as every logit
    shares it."""
    signs = np.ones(cols)
    signs[-1] = -1.0
    signs.flags.writeable = False
    return signs


def _sample_logits(a, rows, geometry, theta):
    """Center rows' logits against their sampled rows, one matrix-vector
    product per center: one center (n,) against (k, n) gives (k,), and a
    block's centers (p, n) against (p, k, n) give (p, k), with the same bits
    per center.  On the hyperboloid, <a, b>_L + theta: the center's time
    coordinate negated, then theta added in place; in flat space, a.b."""
    if geometry == "hyperboloid":
        a = a * _time_signs(a.shape[-1])
    out = np.matmul(rows, a[..., None])[..., 0]
    if geometry == "hyperboloid":
        out += theta
    return out


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _residuals(logits):
    """y - sigma(z) over the last axis, y = 1 in slot 0 only.  0.0 - s keeps
    the signed zeros where sigma underflows; + 1.0 then is exactly 1.0 - s."""
    out = 0.0 - _sigmoid(logits)
    out[..., 0] += 1.0
    return out


def _pair_logits(pair, E, theta):
    rows = E.B.take([pair.context, *pair.negatives], axis=0)
    return _sample_logits(E.A[pair.center], rows, E.geometry, theta), rows


def pair_log_likelihood(pair, E, theta=1.0):
    """Sum of log sigma((-1)^(1-y) * logit) over the positive and negatives."""
    logits, _ = _pair_logits(pair, E, theta)
    if not _all_finite(logits):
        raise ValueError("non-finite logit in pair_log_likelihood")
    # log sigma(s*z) = -log(1 + exp(-s*z)), computed stably; s = +1 only for
    # the positive.  Negation is exact, and 0.0 - sum keeps the +0.0 that a
    # sum of negated zero terms gives.
    logits[0] = -logits[0]
    return 0.0 - float(np.add.reduce(np.logaddexp(0.0, logits, out=logits)))


def _sgns_gradients(pair, E, theta):
    """Gradients of the pair log-likelihood w.r.t. the center row of A and the
    sampled rows of B; repeated sample tokens accumulate."""
    logits, rows = _pair_logits(pair, E, theta)
    coeff = _residuals(logits)  # (m+1,)
    grad_a = coeff @ rows
    grads_b: dict[int, np.ndarray] = {}
    for wid, term in zip([pair.context, *pair.negatives], coeff[:, None] * E.A[pair.center]):
        if wid in grads_b:
            grads_b[wid] = grads_b[wid] + term
        else:
            grads_b[wid] = term
    return grad_a, grads_b


def minkowski_gradients(pair, E, theta=1.0):
    """Minkowski gradients of the pair log-likelihood (hyperboloid geometry).

    Returns (grad for the center row of A, {token id: grad for that row of B}).
    Repeated sample tokens accumulate, matching the multiplicity factor of the
    closed-form expression.  The Lorentzian structure already accounts for the
    time-coordinate sign relative to plain euclidean partials.
    """
    if E.geometry != "hyperboloid":
        raise ValueError("minkowski_gradients requires hyperboloid geometry")
    return _sgns_gradients(pair, E, theta)


def euclidean_gradients(pair, E):
    """Euclidean analogue: gradients of the plain dot-product log-likelihood."""
    return _sgns_gradients(pair, E, 0.0)


def rsgd_step_hyperboloid(param, ambient_grad, eta):
    """exp_param(-eta * proj_param(grad)); the exponential map renormalizes
    the result onto the hyperboloid.  A non-finite gradient, or a finite one
    whose step overflows to a non-finite result, raises ``ValueError``, also
    where numpy is set to raise on overflow."""
    grad = np.asarray(ambient_grad, dtype=float)
    if not _all_finite(grad):
        raise ValueError("non-finite gradient in rsgd_step_hyperboloid")
    try:
        out = exp_map_hyperboloid(param, -eta * tangent_project(param, grad))
    except FloatingPointError:
        # the check below refuses an overflow; an np.errstate on every call
        # would cost about 2% of skip-gram training
        with np.errstate(over="ignore", invalid="ignore"):
            out = exp_map_hyperboloid(param, -eta * tangent_project(param, grad))
    if not _all_finite(out):
        raise ValueError("non-finite step in rsgd_step_hyperboloid")
    return out


@dataclass
class SkipgramConfig:
    geometry: str = "hyperboloid"
    dim: int = 10
    mu: int = 5
    m: int = 5
    theta: float = 1.0
    lr: float = 0.05
    epochs: int = 10
    seed: int = 0
    min_count: int = 1

    def __post_init__(self):
        """Refuse settings that would train nothing or fail deep in the loop."""
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry '{self.geometry}'")
        for name, low in (("dim", 1), ("mu", 1), ("m", 0), ("epochs", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"skip-gram {name} must be >= {low}, got {value}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"skip-gram lr must be finite and > 0, got {self.lr}")
        if not np.isfinite(self.theta):
            raise ValueError(f"skip-gram theta must be finite, got {self.theta}")


def _block_gradients(block, E, theta, table):
    """The rows a block of pairs touches and their summed gradients.

    Returns (ids of the center rows of A, ids of the sampled rows of B, one
    gradient per row, A's rows first), each id once and in no set order.
    Every pair's gradients are taken at the current rows, with the values of
    the per-pair gradient functions, and each row sums them in pair order.

    Nothing is sorted.  A pair's repeated samples are summed first, in slot
    order, into the first of their slots, found by comparing the pair's
    sampled ids with each other.  ``table`` is scratch space of
    ``len(E.A) + len(E.B)`` integers that the caller allocates once; it maps
    each id to its gradient row, so no work or allocation here grows with
    the vocabulary.
    """
    p = len(block)
    ids = [pair.center for pair in block]
    for pair in block:
        ids.append(pair.context)
        ids += pair.negatives
    ids = np.array(ids, dtype=np.intp)
    k = len(ids) // p - 1
    centers, samples = ids[:p], ids[p:].reshape(p, k)
    a = E.A.take(centers, axis=0)
    rows = E.B.take(samples, axis=0)
    coeff = _residuals(_sample_logits(a, rows, E.geometry, theta))
    cols = a.shape[1]
    slot_bins, shift, at, columns = _block_index(p, k, cols, len(E.A))
    first = (samples[:, :, None] == samples[:, None, :]).argmax(axis=2)
    per_slot = _sum_rows(first[..., None] * cols + slot_bins, coeff[..., None] * a[:, None, :],
                         p * k)
    # B's ids follow A's in one id space.  Of an id's repeated writes the
    # table keeps one, whichever it is, and that position is the id's row.
    # A slot left empty above adds +0.0, which changes no sum that starts at
    # +0.0, and each row takes its terms in pair order.
    keys = ids + shift
    table[keys] = at
    row = table.take(keys)
    grads = _sum_rows(row[:, None] * cols + columns,
                      np.concatenate([np.matmul(coeff[:, None, :], rows)[:, 0], per_slot]),
                      len(ids))
    kept = row == at
    return centers[kept[:p]], ids[p:][kept[p:]], grads[kept]


@functools.lru_cache(maxsize=4)
def _block_index(p, k, cols, shift):
    """The constant arrays of a block of ``p`` pairs of ``k`` samples each,
    on rows of ``cols`` coordinates, for an A of ``shift`` rows: the (slot,
    column) bins of each pair's first slot, the id-space shift of each of the
    block's ``p + p * k`` rows, their positions, and the column numbers.
    Every block of a run but its last has one shape, so they are made once;
    they are read-only, as every block shares them."""
    columns = np.arange(cols)
    arrays = ((k * cols) * np.arange(p)[:, None, None] + columns,
              np.repeat([0, shift], [p, p * k]), np.arange(p + p * k), columns)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _sum_rows(bins, values, count):
    """``count`` rows, each the sum of the rows of ``values`` whose (row,
    column) bins, ``row * cols + column``, fall in it.  The sums and bits of
    ``np.add.at`` on zeros, in one ``np.bincount``, which adds each bin's
    terms to +0.0 in input order."""
    cols = values.shape[-1]
    return np.bincount(bins.ravel(), values.ravel(), count * cols).reshape(count, cols)


def train_skipgram(tokens, config: SkipgramConfig, log_fn=None):
    """Train skip-gram embeddings by minibatch SGD; deterministic for a fixed seed.

    ``tokens`` is a corpus in a form that :func:`code_points` takes; it is read
    once, into one array of code points and then one of ids.

    The pairs of ``generate_pairs`` are taken in blocks of
    ``max(1, BLOCK_ROWS // (m + 1))`` consecutive pairs (the last block of an
    epoch may be shorter), so no more than one block of pairs is held at a
    time.  Every pair of a block is scored and differentiated at the rows as
    they were when the block began; each row's gradients are summed in pair
    order and the block makes one Riemannian step on all the rows it touched.
    The id-to-row table of ``_block_gradients`` is allocated once per call.

    Returns (EmbeddingMatrices, Vocabulary, per-epoch mean NLL history).
    A non-finite logit, or a hyperboloid step to a non-finite row, raises
    ``ValueError`` naming the epoch and step (the count of pairs scored), and
    a non-finite embedding row after an epoch raises one naming the epoch.
    """
    points = code_points(tokens)
    del tokens  # a caller that passes its corpus on frees it here
    vocab = build_vocab(points, min_count=config.min_count)
    ids = vocab.encode(points)  # never empty: each kept character occurs
    del points  # training reads the ids alone
    rng = np.random.default_rng(config.seed)
    E = init_embeddings(len(vocab), config.dim, config.geometry, rng)
    history = []
    hyperboloid = config.geometry == "hyperboloid"
    block_pairs = max(1, BLOCK_ROWS // (config.m + 1))
    table = np.empty(len(E.A) + len(E.B), dtype=np.intp)
    # a diverging run overflows in exp/cosh/sinh before a check below fires;
    # the checks name the epoch, so numpy's warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss_sum = 0.0
            step = 0
            pairs = generate_pairs(ids, config.mu, config.m, vocab, rng)
            while block := list(islice(pairs, block_pairs)):
                for pair in block:
                    try:
                        loss_sum -= pair_log_likelihood(pair, E, config.theta)
                    except ValueError as exc:  # its only check; a finite logit gives a finite loss
                        raise ValueError(f"divergence (non-finite loss) at epoch {epoch} "
                                         f"step {step}: {exc}") from None
                    step += 1
                a_ids, b_ids, grads = _block_gradients(block, E, config.theta, table)
                # A and B are separate matrices and each stacked row is distinct,
                # so one step on the stacked rows equals one step per row
                rows = np.concatenate([E.A.take(a_ids, axis=0), E.B.take(b_ids, axis=0)])
                if hyperboloid:
                    try:
                        new = rsgd_step_hyperboloid(rows, -grads, config.lr)
                    except ValueError as exc:  # a step that overflows
                        raise ValueError(f"divergence (non-finite step) at epoch {epoch} "
                                         f"step {step}: {exc}") from None
                else:
                    new = rows + config.lr * grads
                E.A[a_ids] = new[:len(a_ids)]
                E.B[b_ids] = new[len(a_ids):]
            # a row that overflows after its last logit check would otherwise
            # reach the output file
            if not (_all_finite(E.A) and _all_finite(E.B)):
                raise ValueError(f"divergence (non-finite embedding) at epoch {epoch}")
            mean = loss_sum / max(step, 1)
            history.append(mean)
            if log_fn is not None:
                log_fn(f"epoch {epoch} loss {mean:.6f}")
    return E, vocab, history


# ---------------------------------------------------------------------------
# Embedding text format
# ---------------------------------------------------------------------------

def write_embeddings(path, tokens, matrix, geometry):
    """Text format: header "<vocab_size> <dim> <geometry>", then one row per
    token with 9-significant-digit coordinates.  A token that holds a line
    end (``\\n`` or ``\\r``), which would split its row, raises ``ValueError``."""
    for i, token in enumerate(tokens):
        if "\n" in token or "\r" in token:
            raise ValueError(f"{path}: the token of row {i}, {token!r}, holds a line end")
    matrix = np.asarray(matrix, dtype=float)
    dim = matrix.shape[1] - 1 if geometry == "hyperboloid" else matrix.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {dim} {geometry}\n")
        for token, row in zip(tokens, matrix):
            coords = " ".join(f"{v:.9g}" for v in row)
            fh.write(f"{token} {coords}\n")


def read_embeddings(path):
    """Inverse of :func:`write_embeddings`; returns (tokens, matrix, geometry).

    Lines are read by :func:`gyronet.data.read_utf8_lines`, so a leading BOM
    is dropped and ``\\n``, ``\\r\\n`` and ``\\r`` all end a line.  Invalid
    UTF-8 anywhere in the file, a malformed header, a short or unparsable row,
    a non-finite coordinate and a non-empty line past the declared rows raise
    ``ValueError("<path>:<line>: ...")``.

    So does a ``hyperboloid`` row x = (s, t), with time coordinate t, off the
    hyperboloid: one where |<x, x>_L + 1| > 1e-7 t^2.  The file holds each
    coordinate to 9 significant digits, so within a relative 5e-9 of the point
    that was written, which moves <x, x>_L by at most 1e-8 (|s|^2 + t^2) =
    1e-8 (2 t^2 - 1) < 2e-8 t^2; the bound allows five times that, and grows
    with t^2 so that rows far from the origin still load.  A row whose t^2
    overflows, |t| >= 1.3e154, is tested with every term divided by t^2, as
    |(|s| / t)^2 - 1 + 1 / t^2| > 1e-7.  A row of the lower sheet, t < 0, is
    refused as well: ``to_poincare`` would send it to a non-finite point or to
    the far side of the ball.
    """
    lines = read_utf8_lines(path)
    header = next(lines, (1, ""))[1].split()
    try:
        size, dim, geometry = int(header[0]), int(header[1]), header[2]
        ok = len(header) == 3 and size >= 0 and dim >= 1 and geometry in FILE_GEOMETRIES
    except (IndexError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{path}:1: malformed embedding header, expected "
                         f"'<size> <dim> <{'|'.join(FILE_GEOMETRIES)}>'")
    cols = dim + 1 if geometry == "hyperboloid" else dim
    tokens, rows = [], []
    for i in range(size):
        lineno, line = next(lines, (i + 2, ""))
        if not line:
            raise ValueError(f"{path}:{lineno}: truncated at row {i}")
        fields = line.split(" ")
        if len(fields) <= cols:
            raise ValueError(f"{path}:{lineno}: expected a token and {cols} coordinates, "
                             f"got {len(fields)} fields")
        tokens.append(" ".join(fields[:-cols]))
        try:
            rows.append(list(map(float, fields[-cols:])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    for lineno, line in lines:
        if line:
            raise ValueError(f"{path}:{lineno}: more rows than the {size} the header declares")
    matrix = np.array(rows, dtype=float).reshape(size, cols)
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{int(np.argmax(bad)) + 2}: non-finite coordinate")
    if geometry == "hyperboloid":
        t = matrix[:, -1]
        with np.errstate(over="ignore", invalid="ignore"):
            inner = lorentz_inner(matrix, matrix)
            t2 = t * t
            off = np.abs(inner + 1.0) > 1e-7 * t2
            huge = np.isinf(t2)
            scaled = matrix[huge, :-1] / t[huge, None]
            off[huge] = np.abs(np.sum(scaled * scaled, axis=-1) - 1.0 + 1.0 / t2[huge]) > 1e-7
        bad = off | (t < 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            if off[i]:
                value = f": <x, x>_L = {inner[i]:.9g}, not -1" if np.isfinite(inner[i]) else ""
                raise ValueError(f"{path}:{i + 2}: row is not on the hyperboloid{value}")
            raise ValueError(f"{path}:{i + 2}: row is on the lower sheet "
                             f"(time coordinate {t[i]:.9g})")
    return tokens, matrix, geometry

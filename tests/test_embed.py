"""Tests for skip-gram embeddings: vocabulary, pair generation, the
hyperboloid loss with its explicit Minkowski gradients, Riemannian SGD, and
the embedding text format."""

import codecs
import functools
import json
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skipgram_split
from gradcheck import check_gradient
from gyronet import data, embed, train
from gyronet.checks import random_ball_points
from gyronet.geometry import hyperboloid_origin, lorentz_inner, to_hyperboloid


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

def test_build_vocab_counts():
    vocab = embed.build_vocab(["a", "b", "a"], min_count=1)
    assert vocab.token_to_id.keys() == {"a", "b"}
    assert vocab.counts[vocab.token_to_id["a"]] == 2
    assert vocab.counts[vocab.token_to_id["b"]] == 1


def test_build_vocab_min_count():
    vocab = embed.build_vocab(["a", "b", "a"], min_count=2)
    assert vocab.id_to_token == ["a"]
    with pytest.raises(ValueError):
        embed.build_vocab(["a"], min_count=5)


@pytest.mark.parametrize("tokens, late", [("ba", "'a'"), ("abb", "'b'"), ("a\U0010ffffb", "'b'")])
def test_vocabulary_refuses_tokens_out_of_code_point_order(tokens, late):
    with pytest.raises(ValueError, match=f"^token {late} is out of order"):
        embed.Vocabulary(tokens, np.ones(len(tokens)))
    assert embed.Vocabulary("a\U0010ffff", [1.0, 2.0]).encode("\U0010ffffa").tolist() == [1, 0]


def _dict_vocab(tokens, other, min_count):
    """The dict-based build_vocab and encode of earlier versions, the oracle of
    the code-point path: (tokens in sorted order, their counts, the ids of
    ``other``), or None for an empty vocabulary."""
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    kept = sorted(t for t, n in counts.items() if n >= min_count)
    t2i = {t: i for i, t in enumerate(kept)}
    return (kept, [counts[t] for t in kept], [t2i[t] for t in other if t in t2i]) if kept else None


# ASCII, Latin-1, whitespace (a space, a tab, a line end, an ideographic
# space), CJK, the last BMP character and characters beyond the BMP
CORPUS_CHARS = st.sampled_from(list("ab é\t\n\u3000一丁龥\uffff") + ["\U00020000", "\U0010ffff"])


@settings(max_examples=150, deadline=None, database=None)
@given(st.text(CORPUS_CHARS, max_size=60), st.text(CORPUS_CHARS, max_size=30),
       st.integers(1, 4), st.sampled_from([1, 3, None]))
@example("aab\U00020000", "ab", 3, None)  # every character below min_count
def test_build_vocab_and_encode_equal_the_dict_oracle(corpus, other, min_count, piece):
    ref = _dict_vocab(corpus, other, min_count)
    with pytest.MonkeyPatch.context() as mp:
        if piece is not None:  # slices of 1 or 3 code points cut the corpus anywhere
            mp.setattr(embed, "CORPUS_SLICE", piece)
        for tokens in (corpus, list(corpus), iter(corpus)):
            if ref is None:
                with pytest.raises(ValueError, match="empty vocabulary"):
                    embed.build_vocab(tokens, min_count=min_count)
                continue
            vocab = embed.build_vocab(tokens, min_count=min_count)
            ids = vocab.encode(other)
            assert (vocab.id_to_token, vocab.counts.tolist(), ids.tolist()) == ref
            assert ids.dtype == np.int32


@pytest.mark.parametrize("tokens", [["a", "bc"], ["a", ""], ["a", 7], [b"a"]],
                         ids=["long", "empty", "int", "bytes"])
def test_corpus_tokens_are_single_characters(tokens):
    bad = tokens[-1]
    for call in (embed.build_vocab, embed.build_vocab("a").encode, embed.code_points):
        with pytest.raises(ValueError, match=f"one character, got {re.escape(repr(bad))}"):
            call(iter(tokens))


def test_corpus_to_ids_peaks_under_12_bytes_per_character():
    # 10**6 Zipf-weighted CJK characters, as one str like ingest_corpus returns;
    # epochs=0 runs just the corpus-to-ids step of training
    n = 10**6
    rng = np.random.default_rng(16)
    weights = 1.0 / np.arange(1, 3001)
    points = 0x4E00 + rng.choice(3000, size=n, p=weights / weights.sum())
    text = points.astype("<u4").tobytes().decode("utf-32-le")
    config = embed.SkipgramConfig(dim=1, epochs=0)
    tracemalloc.start()
    try:
        _, vocab, _ = embed.train_skipgram(text, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vocab) == len(np.unique(points))
    assert peak <= 12 * n, f"{peak / n:.1f} B/char"


def test_file_to_ids_peaks_under_9_5_bytes_per_character(tmp_path):
    # the same kind of corpus in 80-character lines, read and handed to
    # training as train-embeddings does, so training frees the str
    n = 10**6
    rng = np.random.default_rng(16)
    weights = 1.0 / np.arange(1, 3001)
    points = 0x4E00 + rng.choice(3000, size=n, p=weights / weights.sum())
    text = points.astype("<u4").tobytes().decode("utf-32-le")
    path = tmp_path / "corpus.txt"
    path.write_text("".join(text[i:i + 80] + "\n" for i in range(0, n, 80)), encoding="utf-8")
    del text
    config = embed.SkipgramConfig(dim=1, epochs=0)
    tracemalloc.start()
    try:
        _, vocab, _ = embed.train_skipgram(data.ingest_corpus(path), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vocab) == len(np.unique(points))
    assert peak <= 9.5 * n, f"{peak / n:.2f} B/char"


def test_spaced_file_to_ids_peaks_under_9_5_bytes_per_character(tmp_path):
    # the same characters with a space after every 4, in lines of 80 of them:
    # dropping whitespace must not make one str per word of the whole file
    n = 10**6
    rng = np.random.default_rng(16)
    weights = 1.0 / np.arange(1, 3001)
    points = 0x4E00 + rng.choice(3000, size=n, p=weights / weights.sum())
    text = points.astype("<u4").tobytes().decode("utf-32-le")
    spaced = " ".join(text[i:i + 4] for i in range(0, n, 4))
    path = tmp_path / "corpus.txt"
    path.write_text("".join(spaced[i:i + 100] + "\n" for i in range(0, len(spaced), 100)),
                    encoding="utf-8")
    del spaced
    config = embed.SkipgramConfig(dim=1, epochs=0)
    tracemalloc.start()
    try:
        corpus = data.ingest_corpus(path)
        _, ingest_peak = tracemalloc.get_traced_memory()
        assert corpus == text
        del corpus
        tracemalloc.reset_peak()
        _, vocab, _ = embed.train_skipgram(data.ingest_corpus(path), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vocab) == len(np.unique(points))
    assert ingest_peak <= 9.5 * n, f"ingest_corpus: {ingest_peak / n:.2f} B/char"
    assert peak <= 9.5 * n, f"file to ids: {peak / n:.2f} B/char"


def test_one_line_spaced_file_to_ids_peaks_under_9_5_bytes_per_character(tmp_path):
    # the same spaced characters with no line end at all: one line of the
    # whole file, whose whitespace must go without one str per word
    n = 10**6
    rng = np.random.default_rng(16)
    weights = 1.0 / np.arange(1, 3001)
    points = 0x4E00 + rng.choice(3000, size=n, p=weights / weights.sum())
    text = points.astype("<u4").tobytes().decode("utf-32-le")
    path = tmp_path / "corpus.txt"
    path.write_text(" ".join(text[i:i + 4] for i in range(0, n, 4)), encoding="utf-8")
    config = embed.SkipgramConfig(dim=1, epochs=0)
    tracemalloc.start()
    try:
        corpus = data.ingest_corpus(path)
        _, ingest_peak = tracemalloc.get_traced_memory()
        assert corpus == text
        del corpus
        tracemalloc.reset_peak()
        _, vocab, _ = embed.train_skipgram(data.ingest_corpus(path), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vocab) == len(np.unique(points))
    assert ingest_peak <= 9.5 * n, f"ingest_corpus: {ingest_peak / n:.2f} B/char"
    assert peak <= 9.5 * n, f"file to ids: {peak / n:.2f} B/char"


def test_vocabulary_tables_do_not_grow_with_the_largest_code_point():
    # two characters, one the last code point: a table indexed by code point
    # would hold 1.1 million entries
    embed.build_vocab("ab").encode("abc")  # numpy's lazy set-up is not the tables' cost
    tracemalloc.start()
    try:
        vocab = embed.build_vocab("a\U0010ffff")
        ids = vocab.encode("\U0010ffffab\U0010fffe")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vocab.id_to_token == ["a", "\U0010ffff"] and ids.tolist() == [1, 0]
    assert peak < 1 << 20, f"{peak / 2**20:.1f} MB"


def test_sampling_distribution_is_the_unigram_to_the_three_quarters():
    vocab = embed.build_vocab(["a"] * 3 + ["b"])
    np.testing.assert_allclose(
        vocab.sampling_probs[[vocab.token_to_id["a"], vocab.token_to_id["b"]]],
        [3 ** 0.75 / (3 ** 0.75 + 1), 1 / (3 ** 0.75 + 1)])
    assert abs(vocab.sampling_probs.sum() - 1.0) < 1e-12


class _LastDraw:
    """A Generator stand-in whose every draw is the largest float below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_negative_sampling_stays_inside_the_vocabulary():
    vocab = embed.Vocabulary([chr(0x61 + i) for i in range(10)], np.arange(1.0, 11.0))
    summed = np.cumsum(vocab.sampling_probs)
    assert summed[-1] < np.nextafter(1.0, 0.0)  # 0.9999999999999998: short of the draw
    assert vocab.sample_negatives(2, _LastDraw()) == [9, 9]
    E = embed.init_embeddings(len(vocab), 3, "hyperboloid", np.random.default_rng(0))
    for pair in embed.generate_pairs(np.arange(10), 1, 2, vocab, _LastDraw()):
        assert pair.negatives == [9, 9]
        assert np.isfinite(embed.pair_log_likelihood(pair, E))
    # a draw below the sum takes the id it took before
    draws = np.random.default_rng(3).random(1000)
    assert (vocab.sample_negatives(1000, np.random.default_rng(3))
            == np.searchsorted(summed, draws).tolist())


# ---------------------------------------------------------------------------
# Pair generation
# ---------------------------------------------------------------------------

def _pair_keys(pairs):
    return [(p.center, p.context) for p in pairs]


def test_generate_pairs_enumeration():
    vocab = embed.build_vocab(["x", "y", "z"])
    ids = vocab.encode(["x", "y", "z"])
    x, y, z = ids
    pairs = list(embed.generate_pairs(ids, 1, 1, vocab, np.random.default_rng(0)))
    assert _pair_keys(pairs) == [(x, y), (y, x), (y, z), (z, y)]


def test_generate_pairs_window_clipped():
    vocab = embed.build_vocab(["x", "y"])
    ids = vocab.encode(["x", "y"])
    pairs = list(embed.generate_pairs(ids, 10, 1, vocab, np.random.default_rng(0)))
    assert _pair_keys(pairs) == [(ids[0], ids[1]), (ids[1], ids[0])]
    with pytest.raises(ValueError):
        list(embed.generate_pairs(ids, 0, 1, vocab, np.random.default_rng(0)))


def test_generate_pairs_deterministic():
    tokens = list("abcabcbbca")
    vocab = embed.build_vocab(tokens)
    ids = vocab.encode(tokens)
    run1 = list(embed.generate_pairs(ids, 2, 3, vocab, np.random.default_rng(7)))
    run2 = list(embed.generate_pairs(ids, 2, 3, vocab, np.random.default_rng(7)))
    assert [(p.center, p.context, p.negatives) for p in run1] == \
           [(p.center, p.context, p.negatives) for p in run2]


def _per_draw_pairs(ids, mu, m, vocab, rng):
    """The sampler with one Generator call per pair and per resample: the
    oracle for generate_pairs' chunked draws."""
    n = len(ids)
    for k in range(n):
        for j in range(-mu, mu + 1):
            if j == 0:
                continue
            pos = k + j
            if pos < 0 or pos >= n:
                continue
            context = ids[pos]
            negs = vocab.sample_negatives(m, rng)
            for i in range(m):
                tries = 0
                while negs[i] == context and tries < 10:
                    negs[i] = vocab.sample_negatives(1, rng)[0]
                    tries += 1
            yield ids[k], context, negs


@pytest.mark.parametrize("piece", [1, 2, 5])
def test_generate_pairs_is_the_same_for_every_slice_length(monkeypatch, piece):
    # windows that cross a slice boundary, and slices shorter than a window
    tokens = list("abcabcbbcaxyzzyx" * 3)
    vocab = embed.build_vocab(tokens)
    ids = vocab.encode(tokens)
    want = [(p.center, p.context, p.negatives)
            for p in embed.generate_pairs(ids, 3, 2, vocab, np.random.default_rng(5))]
    monkeypatch.setattr(embed, "CORPUS_SLICE", piece)
    for corpus in (ids, ids.tolist()):
        got = [(p.center, p.context, p.negatives)
               for p in embed.generate_pairs(corpus, 3, 2, vocab, np.random.default_rng(5))]
        assert got == want
        assert all(type(p[0]) is int and type(p[1]) is int for p in got)


@pytest.mark.parametrize("chunk", [1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3",
                                                        "default"])
def test_generate_pairs_equals_per_draw_sampler(monkeypatch, chunk):
    # chunks of 1-3 refill mid-pair and mid-resample; a 1-token vocabulary
    # makes every negative collide until its 10 tries run out
    if chunk is not None:
        monkeypatch.setattr(embed, "NEGATIVE_CHUNK", chunk)
    gen = np.random.default_rng(2024)
    for _ in range(120):
        alphabet = [chr(0x61 + i) for i in range(int(gen.integers(1, 6)))]
        weights = gen.random(len(alphabet)) ** 3 + 0.01
        corpus = gen.choice(alphabet, size=int(gen.integers(0, 41)), p=weights / weights.sum())
        vocab = embed.build_vocab(alphabet + corpus.tolist())
        ids = vocab.encode(corpus.tolist())
        mu, m, seed = int(gen.integers(1, 4)), int(gen.integers(0, 6)), int(gen.integers(1000))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [(p.center, p.context, p.negatives)
               for p in embed.generate_pairs(ids, mu, m, vocab, rng)]
        assert got == list(_per_draw_pairs(ids, mu, m, vocab, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# Logits and log-likelihood
# ---------------------------------------------------------------------------

def test_hyperboloid_logit_values():
    o = hyperboloid_origin(2)
    assert embed._sample_logits(o, o[None], "hyperboloid", 0.0).tolist() == [-1.0]
    assert embed._sample_logits(o, o[None], "hyperboloid", 1.0).tolist() == [0.0]
    p = np.array([np.sinh(1.0), 0.0, np.cosh(1.0)])
    np.testing.assert_allclose(embed._sample_logits(p, o[None], "hyperboloid", 0.0),
                               [-np.cosh(1.0)])


@st.composite
def _logit_blocks(draw):
    """A block of centers (p, n+1) and their rows (p, k, n+1) on the
    hyperboloid, each row at the origin, near it or far out (time coordinate
    up to about 1e6), in a random direction; and a shift."""
    n = draw(st.integers(1, 12))
    p, k = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radii = draw(st.lists(st.sampled_from([0.0, 1e-8, 1e-3, 0.5, 3.0, 8.0, 14.5]),
                          min_size=p * (k + 1), max_size=p * (k + 1)))
    radii = np.array(radii)[:, None] * rng.uniform(0.5, 1.0, (p * (k + 1), 1))
    directions = rng.normal(size=(p * (k + 1), n))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    points = np.concatenate([np.sinh(radii) * directions, np.cosh(radii)], axis=-1)
    theta = draw(st.sampled_from([0.0, 1.0, -0.5, 40.0]))
    return points[:p], points[p:].reshape(p, k, n + 1), theta


@settings(max_examples=200, deadline=None, database=None)
@given(_logit_blocks())
def test_hyperboloid_logit_gives_a_center_the_same_bits_in_either_layout(block):
    # per-pair and block logits are one product, so a block's loss can be
    # summed from the logits its gradients already take; flat space reads
    # the same rows as plain coordinates
    centers, rows, theta = block
    for geometry in embed.GEOMETRIES:
        logits = embed._sample_logits(centers, rows, geometry, theta)
        assert logits.shape == rows.shape[:2]
        for a, its_rows, expected in zip(centers, rows, logits):
            one = embed._sample_logits(a, its_rows.copy(), geometry, theta)
            assert one.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(_logit_blocks())
def test_hyperboloid_logit_agrees_with_lorentz_inner(block):
    # each side sums n + 2 products (theta the last) in its own order, so
    # each is within (n + 2) u of the sum of their magnitudes (u = eps / 2)
    centers, rows, theta = block
    n = centers.shape[-1] - 1
    expected = lorentz_inner(centers[:, None, :], rows) + theta
    bound = (n + 2) * np.finfo(float).eps * (
        np.abs(centers[:, None, :] * rows).sum(axis=-1) + abs(theta))
    logits = embed._sample_logits(centers, rows, "hyperboloid", theta)
    assert (np.abs(logits - expected) <= bound).all()
    for a, its_rows, want, tol in zip(centers, rows, expected, bound):
        logits = embed._sample_logits(a, its_rows, "hyperboloid", theta)
        assert (np.abs(logits - want) <= tol).all()


def test_pair_log_likelihood_all_zero_logits():
    # euclidean with a zero center row: every logit is 0
    E = embed.EmbeddingMatrices(np.zeros((2, 3)), np.ones((2, 3)), "euclidean")
    pair = embed.TrainingPair(0, 1, [0, 1, 0])
    np.testing.assert_allclose(embed.pair_log_likelihood(pair, E),
                               4.0 * np.log(0.5))


def test_pair_log_likelihood_matches_direct_formula():
    rng = np.random.default_rng(3)
    E = embed.init_embeddings(3, 2, "euclidean", rng)
    pair = embed.TrainingPair(0, 2, [1])

    def sigma(z):
        return 1.0 / (1.0 + np.exp(-z))

    direct = np.log(sigma(E.A[0] @ E.B[2])) + np.log(sigma(-(E.A[0] @ E.B[1])))
    np.testing.assert_allclose(embed.pair_log_likelihood(pair, E), direct, atol=1e-12)


def test_pair_log_likelihood_hyperboloid_matches_direct():
    rng = np.random.default_rng(4)
    E = embed.init_embeddings(3, 2, "hyperboloid", rng)
    pair = embed.TrainingPair(1, 0, [2, 2])

    def sigma(z):
        return 1.0 / (1.0 + np.exp(-z))

    theta = 0.7
    direct = np.log(sigma(lorentz_inner(E.A[1], E.B[0]) + theta))
    direct += 2 * np.log(sigma(-(lorentz_inner(E.A[1], E.B[2]) + theta)))
    np.testing.assert_allclose(embed.pair_log_likelihood(pair, E, theta), direct,
                               atol=1e-12)


def _spread_hyperboloid_rows():
    """Rows of A and B at distance up to 16 on H^2: some logits fall below
    -710, where exp overflows and sigma is exactly 0."""
    def point(r, phi):
        return np.array([np.sinh(r) * np.cos(phi), np.sinh(r) * np.sin(phi), np.cosh(r)])
    A = np.array([point(8.0, 0.0), point(0.3, 1.0), point(1.0, 2.0)])
    B = np.array([point(8.0, np.pi), point(0.2, 0.5), point(2.0, -1.0)])
    return embed.EmbeddingMatrices(A, B, "hyperboloid")


def _logits_then(pair, E, theta):
    rows = E.B[[pair.context] + list(pair.negatives)]
    if E.geometry == "hyperboloid":
        return lorentz_inner(E.A[pair.center], rows) + theta, rows
    return rows @ E.A[pair.center], rows


def _loss_then(pair, E, theta):
    """The log-likelihood as an earlier version wrote it."""
    logits, _ = _logits_then(pair, E, theta)
    signs = np.full(len(logits), -1.0)
    signs[0] = 1.0
    return float(np.sum(-np.logaddexp(0.0, -signs * logits)))


def _gradients_then(pair, E, theta):
    """The gradients as an earlier version wrote them."""
    logits, rows = _logits_then(pair, E, theta)
    ys = np.zeros(len(logits))
    ys[0] = 1.0
    coeff = ys - 1.0 / (1.0 + np.exp(-logits))
    grads_b = {}
    center_row = E.A[pair.center]
    for wid, ci in zip([pair.context] + list(pair.negatives), coeff):
        if wid in grads_b:
            grads_b[wid] = grads_b[wid] + ci * center_row
        else:
            grads_b[wid] = ci * center_row
    return coeff @ rows, grads_b


def _same_bytes(grads, expected):
    (ga, gbs), (ea, ebs) = grads, expected
    assert ga.tobytes() == ea.tobytes()
    assert list(gbs) == list(ebs)
    assert all(gbs[w].tobytes() == ebs[w].tobytes() for w in ebs)


@pytest.mark.parametrize("pair", [
    # a repeated negative, and the context drawn again as a negative
    embed.TrainingPair(1, 2, [1, 1, 2]),
    # logit -cosh(16) + theta for the positive
    embed.TrainingPair(0, 0, [1, 0, 2, 0]),
    # sigma(z) = 0 for both negatives; in flat space every loss term is 0
    embed.TrainingPair(0, 1, [0, 0]),
    embed.TrainingPair(2, 1, []),
], ids=["repeats", "far-positive", "far-negatives", "m0"])
def test_loss_and_gradients_keep_their_bytes(pair):
    E = _spread_hyperboloid_rows()
    assert _logits_then(embed.TrainingPair(0, 0, []), E, 1.0)[0][0] < -710
    flat = embed.EmbeddingMatrices(E.A[:, :2] * 100.0, E.B[:, :2] * 100.0, "euclidean")
    with np.errstate(over="ignore"):
        for theta in (1.0, -0.5):
            loss = embed.pair_log_likelihood(pair, E, theta)
            assert np.float64(loss).tobytes() == np.float64(_loss_then(pair, E, theta)).tobytes()
            _same_bytes(embed.minkowski_gradients(pair, E, theta),
                        _gradients_then(pair, E, theta))
        loss = embed.pair_log_likelihood(pair, flat, 0.0)
        assert np.float64(loss).tobytes() == np.float64(_loss_then(pair, flat, 0.0)).tobytes()
        _same_bytes(embed.euclidean_gradients(pair, flat), _gradients_then(pair, flat, 0.0))


# ---------------------------------------------------------------------------
# Minkowski gradients
# ---------------------------------------------------------------------------

def _flip_last(g):
    out = np.array(g, dtype=float)
    out[..., -1] *= -1.0
    return out


def test_minkowski_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    E = embed.init_embeddings(6, 3, "hyperboloid", rng)
    # move rows away from the apex so the test is not at a special point
    E.A = to_hyperboloid(random_ball_points(rng, 6, 3, radius=0.5))
    E.B = to_hyperboloid(random_ball_points(rng, 6, 3, radius=0.5))
    pair = embed.TrainingPair(0, 1, [2, 3, 1])
    grad_a, grads_b = embed.minkowski_gradients(pair, E, theta=1.0)

    def ll_of_a(row):
        E2 = embed.EmbeddingMatrices(E.A.copy(), E.B, "hyperboloid")
        E2.A[0] = row
        return embed.pair_log_likelihood(pair, E2, 1.0)

    # the Minkowski gradient is the euclidean (coordinate) gradient with the
    # time-coordinate sign flipped
    report = check_gradient(ll_of_a, E.A[0], _flip_last(grad_a))
    assert report.passed, report

    for wid, gb in grads_b.items():
        def ll_of_b(row, wid=wid):
            E2 = embed.EmbeddingMatrices(E.A, E.B.copy(), "hyperboloid")
            E2.B[wid] = row
            return embed.pair_log_likelihood(pair, E2, 1.0)
        report = check_gradient(ll_of_b, E.B[wid], _flip_last(gb))
        assert report.passed, report


def test_minkowski_gradients_stationary_point():
    # if sigma(logit) == y for every sample the gradient vanishes; build that
    # limit approximately with strongly separated rows
    rng = np.random.default_rng(6)
    E = embed.init_embeddings(2, 2, "hyperboloid", rng)
    pair = embed.TrainingPair(0, 0, [1])
    far = to_hyperboloid(np.array([0.99, 0.0]))
    E.A[0] = hyperboloid_origin(2)
    E.B[0] = hyperboloid_origin(2)   # positive logit 0+theta with theta large
    E.B[1] = far                     # negative logit strongly negative
    ga, _ = embed.minkowski_gradients(pair, E, theta=40.0)
    assert np.abs(ga).max() < 1e-6


def test_minkowski_gradients_multiplicity():
    rng = np.random.default_rng(7)
    E = embed.init_embeddings(4, 3, "hyperboloid", rng)
    pair = embed.TrainingPair(0, 1, [2, 2])
    _, grads_b = embed.minkowski_gradients(pair, E)
    single = embed.TrainingPair(0, 1, [2])
    _, grads_single = embed.minkowski_gradients(single, E)
    np.testing.assert_allclose(grads_b[2], 2.0 * grads_single[2], atol=1e-12)


def test_minkowski_gradients_require_hyperboloid():
    E = embed.EmbeddingMatrices(np.zeros((2, 2)), np.zeros((2, 2)), "euclidean")
    with pytest.raises(ValueError):
        embed.minkowski_gradients(embed.TrainingPair(0, 1, []), E)


# NaN, +-inf, and finite values whose squares overflow
_HUGE_OR_NON_FINITE = [np.nan, np.inf, -np.inf, 1.4e154, -1.5e154, 1e200]


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(embed.GEOMETRIES), st.integers(0, 4), st.data())
def test_pair_log_likelihood_refuses_exactly_the_non_finite_logits(geometry, m, draw):
    logits = np.array(draw.draw(st.lists(st.floats(-40.0, 40.0), min_size=m + 1,
                                         max_size=m + 1)))
    for at, special in draw.draw(st.lists(st.tuples(st.integers(0, m),
                                                    st.sampled_from(_HUGE_OR_NON_FINITE)),
                                          max_size=3)):
        logits[at] = special
    # A's row is the apex, or the first unit vector, so each logit is one
    # coordinate of its B row (theta 0)
    if geometry == "hyperboloid":
        E = embed.EmbeddingMatrices(hyperboloid_origin(2)[None], np.zeros((m + 1, 3)),
                                    geometry)
        E.B[:, -1] = -logits
    else:
        E = embed.EmbeddingMatrices(np.eye(1, 3), np.zeros((m + 1, 3)), geometry)
        E.B[:, 0] = logits
    pair = embed.TrainingPair(0, 0, list(range(1, m + 1)))
    finite = bool(np.isfinite(logits).all())
    # exp(-|z|) underflows in the loss of a huge finite logit, after the check
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        if finite:
            expected = -np.logaddexp(0.0, -logits[0]) - np.logaddexp(0.0, logits[1:]).sum()
            assert embed.pair_log_likelihood(pair, E, 0.0) == pytest.approx(expected, rel=1e-12)
        else:
            with pytest.raises(ValueError) as info:
                embed.pair_log_likelihood(pair, E, 0.0)
            assert str(info.value) == "non-finite logit in pair_log_likelihood"


@st.composite
def _gradients(draw):
    """Gradients of shape (3,) or (k, 3), possibly a non-contiguous view,
    with NaN, +-inf or entries whose squares overflow at drawn positions."""
    shape = draw(st.sampled_from([(3,), (1, 3), (4, 3)]))
    size = int(np.prod(shape))
    flat = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    for at, special in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                               st.sampled_from(_HUGE_OR_NON_FINITE
                                                               + [np.finfo(float).max])),
                                     max_size=3)):
        flat[at] = special
    grad = flat.reshape(shape)
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided":
        wide = np.zeros(shape[:-1] + (6,))
        wide[..., ::2] = grad
        grad = wide[..., ::2]
    elif layout == "transposed" and grad.ndim > 1:
        grad = np.ascontiguousarray(grad.T).T
    return grad


@settings(max_examples=200, deadline=None, database=None)
@given(_gradients())
def test_rsgd_step_refuses_exactly_the_non_finite_gradients(grad):
    finite = bool(np.isfinite(grad).all())
    param = np.tile(hyperboloid_origin(2), grad.shape[:-1] + (1,))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert bool(embed._all_finite(grad)) == finite
        if not finite:
            with pytest.raises(ValueError) as info:
                embed.rsgd_step_hyperboloid(param, grad, 0.05)
            assert str(info.value) == "non-finite gradient in rsgd_step_hyperboloid"
    if finite:
        # a huge finite step overflows in the exponential map, after the
        # gradient check; the step check refuses it, without a numpy signal
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            try:
                out = embed.rsgd_step_hyperboloid(param, grad, 0.05)
            except ValueError as exc:
                assert str(exc) == "non-finite step in rsgd_step_hyperboloid"
            else:
                assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# Riemannian SGD on the hyperboloid
# ---------------------------------------------------------------------------

def test_rsgd_step_zero_gradient():
    p = to_hyperboloid(np.array([0.3, 0.2]))
    np.testing.assert_allclose(embed.rsgd_step_hyperboloid(p, np.zeros(3), 0.1), p,
                               atol=1e-12)


def test_rsgd_step_stays_on_hyperboloid():
    rng = np.random.default_rng(8)
    p = to_hyperboloid(random_ball_points(rng, 50, 3, radius=0.6))
    grads = rng.normal(size=(50, 4))
    for row, g in zip(p, grads):
        new = embed.rsgd_step_hyperboloid(row, g, 0.05)
        assert abs(lorentz_inner(new, new) + 1.0) < 1e-9
    with pytest.raises(ValueError):
        embed.rsgd_step_hyperboloid(p[0], np.array([np.nan, 0, 0, 0]), 0.05)


@pytest.mark.parametrize("grad", [[1e200, 0.0, 0.0], [0.0, 1e5, 0.0]],
                         ids=["squares-overflow", "cosh-overflows"])
def test_rsgd_step_refuses_a_step_that_overflows(grad):
    # a finite gradient passes the gradient check; its step does not
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            embed.rsgd_step_hyperboloid(hyperboloid_origin(2), np.array(grad), 0.05)
    assert str(info.value) == "non-finite step in rsgd_step_hyperboloid"


def test_rsgd_step_leaves_an_underflow_to_numpy():
    # only an overflow is the step check's to refuse; numpy set to raise on
    # underflow still raises its own error
    grad = np.array([1e-300, 0.0, 0.0])
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="underflow"):
        embed.rsgd_step_hyperboloid(hyperboloid_origin(2), grad, 0.05)
    with np.errstate(all="raise", under="ignore"):
        assert np.isfinite(embed.rsgd_step_hyperboloid(hyperboloid_origin(2), grad, 0.05)).all()


def test_train_skipgram_names_the_pair_that_reads_a_non_finite_row(monkeypatch):
    # a step that leaves every row non-finite: the next pair's logit check
    # stops the run, naming that pair
    step = embed.rsgd_step_hyperboloid

    def poisoned(*args):
        return step(*args) * np.inf

    monkeypatch.setattr(embed, "rsgd_step_hyperboloid", poisoned)
    cfg = embed.SkipgramConfig(dim=2, mu=1, m=2, epochs=1)
    block_pairs = embed.BLOCK_ROWS // (cfg.m + 1)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as info:
        embed.train_skipgram("ab" * 40, cfg)
    assert str(info.value) == (f"divergence (non-finite loss) at epoch 0 step {block_pairs}: "
                               "non-finite logit in pair_log_likelihood")


def test_rsgd_step_descends_pair_loss():
    rng = np.random.default_rng(9)
    E = embed.init_embeddings(4, 3, "hyperboloid", rng)
    E.A = to_hyperboloid(random_ball_points(rng, 4, 3, radius=0.4))
    E.B = to_hyperboloid(random_ball_points(rng, 4, 3, radius=0.4))
    pair = embed.TrainingPair(0, 1, [2, 3])
    before = -embed.pair_log_likelihood(pair, E)
    ga, gbs = embed.minkowski_gradients(pair, E)
    E.A[0] = embed.rsgd_step_hyperboloid(E.A[0], -ga, 0.01)
    for wid, gb in gbs.items():
        E.B[wid] = embed.rsgd_step_hyperboloid(E.B[wid], -gb, 0.01)
    after = -embed.pair_log_likelihood(pair, E)
    assert after < before


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_train_skipgram_toy_hyperboloid():
    tokens = list("abab" * 60)
    cfg = embed.SkipgramConfig(geometry="hyperboloid", dim=2, mu=1, m=1,
                               epochs=50, lr=0.05, seed=1)
    E, vocab, history = embed.train_skipgram(tokens, cfg)
    # positive pair grows confident
    a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
    logit = embed._sample_logits(E.A[a], E.B[[b]], "hyperboloid", cfg.theta)[0]
    assert 1.0 / (1.0 + np.exp(-logit)) > 0.49
    assert history[-1] < history[0]
    # carrier invariant holds for every row after training
    np.testing.assert_allclose(lorentz_inner(E.A, E.A), -1.0, atol=1e-6)
    np.testing.assert_allclose(lorentz_inner(E.B, E.B), -1.0, atol=1e-6)


def test_train_skipgram_toy_euclidean():
    tokens = list("abab" * 60)
    cfg = embed.SkipgramConfig(geometry="euclidean", dim=2, mu=1, m=1,
                               epochs=50, lr=0.05, seed=1)
    E, vocab, history = embed.train_skipgram(tokens, cfg)
    a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
    assert E.A[a] @ E.B[b] > 1.0  # positive logit grows
    assert history[-1] < history[0]


def test_train_skipgram_deterministic():
    tokens = list("hello world" * 10)
    cfg = embed.SkipgramConfig(geometry="hyperboloid", dim=3, mu=2, m=2,
                               epochs=2, seed=42)
    E1, _, h1 = embed.train_skipgram(tokens, cfg)
    E2, _, h2 = embed.train_skipgram(tokens, cfg)
    assert np.array_equal(E1.A, E2.A)
    assert np.array_equal(E1.B, E2.B)
    assert h1 == h2


@pytest.mark.parametrize("geometry", embed.GEOMETRIES)
def test_train_skipgram_reads_a_str_a_list_and_a_generator_alike(geometry):
    text = "游泳池\U00020000游泳 池游" * 4
    cfg = embed.SkipgramConfig(geometry=geometry, dim=3, mu=2, m=2, epochs=2, seed=3)
    runs = [embed.train_skipgram(tokens, cfg)
            for tokens in (text, list(text), (ch for ch in text))]
    for E, vocab, history in runs[1:]:
        assert vocab.id_to_token == runs[0][1].id_to_token
        assert history == runs[0][2]
        assert E.A.tobytes() == runs[0][0].A.tobytes()
        assert E.B.tobytes() == runs[0][0].B.tobytes()


def test_train_skipgram_empty_vocab():
    with pytest.raises(ValueError):
        embed.train_skipgram([], embed.SkipgramConfig())


def test_train_skipgram_early_loss_monotone():
    rng = np.random.default_rng(10)
    tokens = [chr(0x4E00 + int(i)) for i in rng.integers(0, 12, size=600)]
    cfg = embed.SkipgramConfig(geometry="hyperboloid", dim=5, mu=2, m=2,
                               epochs=5, seed=0)
    _, _, history = embed.train_skipgram(tokens, cfg)
    upticks = sum(1 for prev, cur in zip(history, history[1:]) if cur > prev * 1.01)
    assert upticks <= 1


def _per_row_reference(tokens, cfg):
    """The trainer with one update per row: the oracle for the batched step."""
    vocab = embed.build_vocab(tokens, min_count=cfg.min_count)
    ids = vocab.encode(tokens)
    rng = np.random.default_rng(cfg.seed)
    E = embed.init_embeddings(len(vocab), cfg.dim, cfg.geometry, rng)
    history = []
    for _ in range(cfg.epochs):
        losses = []
        for pair in embed.generate_pairs(ids, cfg.mu, cfg.m, vocab, rng):
            losses.append(-embed.pair_log_likelihood(pair, E, cfg.theta))
            if cfg.geometry == "hyperboloid":
                ga, gbs = embed.minkowski_gradients(pair, E, cfg.theta)
                E.A[pair.center] = embed.rsgd_step_hyperboloid(E.A[pair.center], -ga, cfg.lr)
                for wid, gb in gbs.items():
                    E.B[wid] = embed.rsgd_step_hyperboloid(E.B[wid], -gb, cfg.lr)
            else:
                ga, gbs = embed.euclidean_gradients(pair, E)
                E.A[pair.center] = E.A[pair.center] + cfg.lr * ga
                for wid, gb in gbs.items():
                    E.B[wid] = E.B[wid] + cfg.lr * gb
        history.append(sum(losses) / max(len(losses), 1))
    return E, history


@pytest.mark.parametrize("geometry", embed.GEOMETRIES)
@pytest.mark.parametrize("tokens, mu, m", [
    (list("abcacbbacab" * 4), 1, 5),  # 3 tokens: negatives repeat and hit the context
    (list("hello world, hello hyperboloid"), 2, 0),
    (list("the quick brown fox jumps over the lazy dog"), 3, 2),
], ids=["3-token-vocab-m5", "m0", "mu3"])
def test_train_skipgram_equals_per_row_reference(monkeypatch, geometry, tokens, mu, m):
    monkeypatch.setattr(embed, "BLOCK_ROWS", 1)  # one pair per block is per-pair SGD
    cfg = embed.SkipgramConfig(geometry=geometry, dim=10, mu=mu, m=m, epochs=2, lr=0.1,
                               seed=5)
    E, _, history = embed.train_skipgram(tokens, cfg)
    ref, ref_history = _per_row_reference(tokens, cfg)
    assert np.array_equal(E.A, ref.A)
    assert np.array_equal(E.B, ref.B)
    assert history == ref_history


def _per_block_reference(tokens, cfg, block_pairs):
    """The minibatch trainer written with the per-pair functions: every pair of
    a block is scored and differentiated at the block-start rows, each row's
    gradients are summed in pair order, and each row makes one step."""
    vocab = embed.build_vocab(tokens, min_count=cfg.min_count)
    ids = vocab.encode(tokens)
    rng = np.random.default_rng(cfg.seed)
    E = embed.init_embeddings(len(vocab), cfg.dim, cfg.geometry, rng)
    history = []
    for _ in range(cfg.epochs):
        losses = []
        pairs = list(embed.generate_pairs(ids, cfg.mu, cfg.m, vocab, rng))
        for start in range(0, len(pairs), block_pairs):
            at_start = embed.EmbeddingMatrices(E.A.copy(), E.B.copy(), E.geometry)
            sums_a, sums_b = {}, {}
            for pair in pairs[start:start + block_pairs]:
                losses.append(-embed.pair_log_likelihood(pair, at_start, cfg.theta))
                if cfg.geometry == "hyperboloid":
                    ga, gbs = embed.minkowski_gradients(pair, at_start, cfg.theta)
                else:
                    ga, gbs = embed.euclidean_gradients(pair, at_start)
                for sums, wid, g in [(sums_a, pair.center, ga),
                                     *((sums_b, w, gb) for w, gb in gbs.items())]:
                    sums[wid] = sums[wid] + g if wid in sums else g
            for matrix, sums in ((E.A, sums_a), (E.B, sums_b)):
                for wid, g in sums.items():
                    if cfg.geometry == "hyperboloid":
                        matrix[wid] = embed.rsgd_step_hyperboloid(matrix[wid], -g, cfg.lr)
                    else:
                        matrix[wid] = matrix[wid] + cfg.lr * g
        history.append(sum(losses) / max(len(losses), 1))
    return E, history


@pytest.mark.parametrize("geometry", embed.GEOMETRIES)
@pytest.mark.parametrize("block_rows", [None, 28], ids=["default-cap", "cap7"])
def test_train_skipgram_equals_per_block_reference(monkeypatch, geometry, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(embed, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(12)
    tokens = [chr(0x61 + int(i)) for i in rng.integers(0, 9, size=120)]
    cfg = embed.SkipgramConfig(geometry=geometry, dim=6, mu=2, m=3, epochs=2, lr=0.05,
                               seed=3)
    block_pairs = embed.BLOCK_ROWS // (cfg.m + 1)
    assert (4 * 120 - 6) % block_pairs != 0  # the last block of each epoch is short
    E, _, history = embed.train_skipgram(tokens, cfg)
    ref, ref_history = _per_block_reference(tokens, cfg, block_pairs)
    assert np.array_equal(E.A, ref.A)
    assert np.array_equal(E.B, ref.B)
    assert history == ref_history


@pytest.mark.parametrize("geometry", embed.GEOMETRIES)
def test_train_skipgram_holds_at_most_one_block_of_pairs(monkeypatch, geometry):
    # the pairs in memory do not grow with the corpus
    generate, score = embed.generate_pairs, embed.pair_log_likelihood
    seen = {"yielded": 0, "scored": 0, "held": 0}

    def counting_pairs(*args):
        for pair in generate(*args):
            seen["yielded"] += 1
            seen["held"] = max(seen["held"], seen["yielded"] - seen["scored"])
            yield pair

    def counting_score(*args):
        seen["scored"] += 1
        return score(*args)

    monkeypatch.setattr(embed, "generate_pairs", counting_pairs)
    monkeypatch.setattr(embed, "pair_log_likelihood", counting_score)
    rng = np.random.default_rng(13)
    for size in (100, 1000):
        seen.update(yielded=0, scored=0, held=0)
        tokens = [chr(0x4E00 + int(i)) for i in rng.integers(0, 40, size=size)]
        cfg = embed.SkipgramConfig(geometry=geometry, dim=4, mu=2, m=2, epochs=2)
        embed.train_skipgram(tokens, cfg)
        assert seen["scored"] == seen["yielded"] == 2 * (4 * size - 6)
        assert seen["held"] == embed.BLOCK_ROWS // (cfg.m + 1)


def _unique_block_gradients(block, E, theta):
    """The block gradients summed through np.unique sorts: the oracle for the
    sort-free sums.  Rows come sorted by id."""
    centers = np.array([pair.center for pair in block])
    samples = np.array([[pair.context, *pair.negatives] for pair in block])
    a = E.A[centers]
    rows = E.B[samples]
    if E.geometry == "hyperboloid":
        logits = embed._sample_logits(a, rows, "hyperboloid", theta)
    else:
        logits = np.matmul(rows, a[:, :, None])[..., 0]
    coeff = 0.0 - embed._sigmoid(logits)
    coeff[:, 0] += 1.0
    cols = a.shape[1]
    a_ids, a_at = np.unique(centers, return_inverse=True)
    b_ids, b_at = np.unique(samples, return_inverse=True)
    # a pair's repeated samples are summed first, as in the per-pair
    # gradient; slots are ordered by pair, then by row
    slots, slot_at = np.unique(b_at.reshape(samples.shape)
                               + len(b_ids) * np.arange(len(block))[:, None],
                               return_inverse=True)
    per_pair = np.zeros((len(slots), cols))
    np.add.at(per_pair, slot_at.ravel(), (coeff[..., None] * a[:, None, :]).reshape(-1, cols))
    grads = np.zeros((len(a_ids) + len(b_ids), cols))
    np.add.at(grads, a_at, np.matmul(coeff[:, None, :], rows)[:, 0])
    np.add.at(grads, len(a_ids) + slots % len(b_ids), per_pair)
    return a_ids, b_ids, grads


_ORACLE_VOCAB = 5000


@functools.cache
def _oracle_setup():
    """Spread rows of both geometries over a 5000-token vocabulary, and one
    id-to-row table that every example reuses, stale entries and all."""
    rng = np.random.default_rng(15)
    matrices = {
        "hyperboloid": embed.EmbeddingMatrices(
            *(to_hyperboloid(random_ball_points(rng, _ORACLE_VOCAB, 4)) for _ in "AB"),
            "hyperboloid"),
        "euclidean": embed.EmbeddingMatrices(
            *(rng.normal(size=(_ORACLE_VOCAB, 4)) for _ in "AB"), "euclidean"),
    }
    # A's row 0 is the origin, the apex on the hyperboloid: its zero
    # coordinates make -0.0 terms, which sums that start at +0.0 turn to +0.0
    matrices["hyperboloid"].A[0] = hyperboloid_origin(4)
    matrices["euclidean"].A[0] = 0.0
    return matrices, np.empty(2 * _ORACLE_VOCAB, dtype=np.intp)


@st.composite
def _blocks(draw):
    # a small pool of ids makes repeats inside a pair and across pairs common
    pool = draw(st.lists(st.integers(0, _ORACLE_VOCAB - 1), min_size=1, max_size=8))
    ids = st.sampled_from(pool)
    m = draw(st.integers(0, 5))
    pairs = st.builds(embed.TrainingPair, ids, ids, st.lists(ids, min_size=m, max_size=m))
    return draw(st.lists(pairs, min_size=1, max_size=20))


def _gradients_by_row(a_ids, b_ids, grads):
    keys = [("A", int(i)) for i in a_ids] + [("B", int(i)) for i in b_ids]
    by_row = dict(zip(keys, (g.tobytes() for g in grads)))
    assert len(by_row) == len(keys) == len(grads)  # each row once
    return by_row


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(embed.GEOMETRIES), _blocks(), st.sampled_from([1.0, -0.5]))
@example("hyperboloid", [embed.TrainingPair(4999, 4999, [])], 1.0)
@example("euclidean", [embed.TrainingPair(7, 3, [3, 3, 7]), embed.TrainingPair(3, 3, [7, 3, 3])],
         1.0)
@example("hyperboloid", [embed.TrainingPair(0, 3, [5, 5]), embed.TrainingPair(0, 5, [0, 3])],
         1.0)  # -0.0 terms from A's row 0, alone and repeated in their slots
@example("euclidean", [embed.TrainingPair(0, 2, [9, 9]), embed.TrainingPair(0, 2, [4, 9])], -0.5)
@example("hyperboloid", [embed.TrainingPair(7, 7, [7, 7])] * 3, 1.0)  # every slot one id
@example("euclidean", [embed.TrainingPair(0, 0, [0, 0, 0])] * 2, 1.0)
def test_block_gradients_equal_unique_oracle(geometry, block, theta):
    matrices, table = _oracle_setup()
    E = matrices[geometry]
    assert (_gradients_by_row(*embed._block_gradients(block, E, theta, table))
            == _gradients_by_row(*_unique_block_gradients(block, E, theta)))


@pytest.mark.parametrize("geometry", embed.GEOMETRIES)
def test_block_gradients_allocate_nothing_vocabulary_sized(geometry):
    vocab = 100_000
    rng = np.random.default_rng(16)
    E = embed.init_embeddings(vocab, 4, geometry, rng)
    table = np.empty(2 * vocab, dtype=np.intp)  # 1.6 MB, allocated once by the trainer
    samples = rng.integers(0, vocab, size=(16, 3))
    samples[0, 0] = vocab - 1
    block = [embed.TrainingPair(int(c), int(s[0]), s[1:].tolist())
             for c, s in zip(rng.integers(0, vocab, size=16), samples)]
    embed._block_gradients(block, E, 1.0, table)
    tracemalloc.start()
    try:
        embed._block_gradients(block, E, 1.0, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_skipgram_split_harness_reports_each_geometry(capsys):
    functions = {name: getattr(embed, name) for name in
                 ["pair_log_likelihood", "_block_gradients", "rsgd_step_hyperboloid",
                  "generate_pairs"]}
    report = skipgram_split.main(["--runs", "1", "--chars", "60"])
    assert json.loads(capsys.readouterr().out) == report
    parts = {"pair_us", "loss_us", "pairs_us", "block_gradients_us", "rest_us"}
    assert set(report) == set(embed.GEOMETRIES)
    assert set(report["hyperboloid"]) == parts | {"pairs", "step_us"}
    assert set(report["euclidean"]) == parts | {"pairs"}
    for geometry in embed.GEOMETRIES:
        # two epochs of window 1 over 60 characters
        assert report[geometry]["pairs"] == 2 * 2 * 59
        assert all(report[geometry][key] > 0 for key in parts - {"rest_us"})
    # the timers are gone once it has measured
    assert all(getattr(embed, name) is fn for name, fn in functions.items())


# ---------------------------------------------------------------------------
# Embedding text format
# ---------------------------------------------------------------------------

def test_embedding_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    E = embed.init_embeddings(5, 4, "hyperboloid", rng)
    tokens = ["a", "b", "游", "d", "e"]
    path = tmp_path / "emb.txt"
    embed.write_embeddings(path, tokens, E.A, "hyperboloid")
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "5 4 hyperboloid"
    tokens2, matrix, geometry = embed.read_embeddings(path)
    assert tokens2 == tokens
    assert geometry == "hyperboloid"
    assert matrix.shape == (5, 5)  # dim + 1 columns
    np.testing.assert_allclose(matrix, E.A, rtol=1e-8)


def test_embedding_file_euclidean_round_trip(tmp_path):
    matrix = np.array([[0.125, -3.0], [1e-7, 42.0]])
    path = tmp_path / "emb.txt"
    embed.write_embeddings(path, ["x", "y"], matrix, "euclidean")
    tokens, back, geometry = embed.read_embeddings(path)
    assert (tokens, geometry) == (["x", "y"], "euclidean")
    np.testing.assert_array_equal(back, matrix)  # exact at 9 significant digits
    # a byte order mark, CRLF and CR line ends read like the file as written
    blob = path.read_bytes()
    for variant in (codecs.BOM_UTF8 + blob, blob.replace(b"\n", b"\r\n"),
                    blob.replace(b"\n", b"\r")):
        path.write_bytes(variant)
        tokens, again, geometry = embed.read_embeddings(path)
        assert (tokens, geometry) == (["x", "y"], "euclidean")
        np.testing.assert_array_equal(again, matrix)


def test_embedding_file_blank_lines_after_the_rows_are_read(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("1 2 euclidean\nx 0.1 0.2\n\n\n", encoding="utf-8")
    assert embed.read_embeddings(path)[0] == ["x"]


def test_embedding_file_truncated(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2 euclidean\nx 0.1 0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="truncated"):
        embed.read_embeddings(path)


@pytest.mark.parametrize("text, line, reason", [
    ("2 2 euclidean\nx 0.1 0.2\n丁 0.3\n", 3, "expected a token and 2 coordinates"),
    ("2 2 euclidean\nx 0.1 0.2\ny nan 0.3\n", 3, "non-finite coordinate"),
    ("1 1 hyperboloid\nx inf 1.0\n", 2, "non-finite coordinate"),
    ("1 2 euclidean\nx 0.1 zero\n", 2, "could not convert"),
    ("1 two euclidean\nx 0.1 0.2\n", 1, "malformed embedding header"),
    ("1 2 sphere\nx 0.1 0.2\n", 1, "malformed embedding header"),
    ("99999999999 2 euclidean\nx 0.1 0.2\n", 3, "truncated at row 1"),  # no allocation first
    ("1 2 euclidean\nx 0.1 0.2\ny 0.3 0.4\n", 3, "more rows than the 1 the header declares"),
    ("0 2 euclidean\n\n\nx 0.1 0.2\n", 4, "more rows than the 0 the header declares"),
])
def test_embedding_file_malformed_names_line(tmp_path, text, line, reason):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"emb\.txt:{line}: {reason}"):
        embed.read_embeddings(path)


def test_embedding_file_refuses_hyperboloid_rows_off_the_hyperboloid(tmp_path):
    path = tmp_path / "emb.txt"
    # the origin, then a row with <x, x>_L = 0.25 + 0.04 - 0.09 = 0.2
    path.write_text("2 2 hyperboloid\no 0 0 1\na 0.5 0.2 0.3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"emb\.txt:3: row is not on the hyperboloid: "
                                         r"<x, x>_L = 0\.2, not -1"):
        embed.read_embeddings(path)
    # points far from the origin load, which 9 significant digits hold only to
    # a relative 5e-9, and so do points near it and the origin itself
    far = np.array([[3e6, -4e6, 0.0], [1e-3, 2e-3, 0.0], [0.0, 0.0, 0.0]])
    far[:, -1] = np.sqrt(1.0 + np.sum(far[:, :-1] ** 2, axis=-1))
    embed.write_embeddings(path, ["u", "v", "w"], far, "hyperboloid")
    tokens, matrix, geometry = embed.read_embeddings(path)
    assert (tokens, geometry) == (["u", "v", "w"], "hyperboloid")
    np.testing.assert_allclose(matrix, far, rtol=5e-9)


def test_embedding_file_refuses_hyperboloid_rows_of_the_lower_sheet(tmp_path, caplog):
    # rows on the lower sheet, t < 0: to_poincare would send the first to
    # [nan, nan] and the second to the far side of the ball
    path = tmp_path / "emb.txt"
    path.write_text("3 2 hyperboloid\no 0 0 1\na 0 0 -1\nb 0.5 0 -1.118033989\n",
                    encoding="utf-8")
    refusal = rf"^{re.escape(str(path))}:3: row is on the lower sheet \(time coordinate -1\)$"
    with pytest.raises(ValueError, match=refusal):
        embed.read_embeddings(path)
    with caplog.at_level(logging.WARNING, logger="gyronet"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=refusal):
            train.load_embedding_points(path, "poincare")
    assert not caplog.records
    # the first refused row names its line, whichever check refuses it
    path.write_text("3 2 hyperboloid\no 0 0 1\nb 0.5 0 -1.118033989\nc 0.5 0.2 0.3\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"emb\.txt:3: row is on the lower sheet "
                                         r"\(time coordinate -1\.11803399\)$"):
        embed.read_embeddings(path)
    path.write_text("3 2 hyperboloid\no 0 0 1\nc 0.5 0.2 0.3\na 0 0 -1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"emb\.txt:3: row is not on the hyperboloid"):
        embed.read_embeddings(path)


@pytest.mark.parametrize("row", ["a 0 0 1e200", "b 1e180 1e180 1e200"])
def test_embedding_file_refuses_far_rows_off_the_hyperboloid(tmp_path, row):
    # t^2 overflows to inf, so the unscaled test, inf > 1e-7 inf, would pass them
    path = tmp_path / "emb.txt"
    path.write_text(f"2 2 hyperboloid\no 0 0 1\n{row}\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: row is not on the "
                                             r"hyperboloid$"):
            embed.read_embeddings(path)


def test_embedding_file_loads_far_rows_on_the_hyperboloid(tmp_path, caplog):
    # |s| = t = 1e200 to float64 precision: (s / t)^2 - 1 + 1 / t^2 rounds to 0
    path = tmp_path / "emb.txt"
    path.write_text("2 2 hyperboloid\no 0 0 1\nc 6e199 -8e199 1e200\n", encoding="utf-8")
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="gyronet"):
        warnings.simplefilter("error")
        tokens, matrix, geometry = embed.read_embeddings(path)
        token_map = train.load_embedding_points(path, "poincare")
    assert (tokens, geometry) == (["o", "c"], "hyperboloid")
    np.testing.assert_array_equal(matrix[1], [6e199, -8e199, 1e200])
    # the far row goes onto the ball's shell, along its direction
    np.testing.assert_allclose(token_map.points[1], np.array([0.6, -0.8]) * (1 - 1e-5),
                               rtol=1e-12)
    assert len(caplog.records) == 1 and "moved 1 of 2 rows" in caplog.records[0].getMessage()


def test_embedding_file_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"1 2 euclidean\n\xff 0.1 0.2\n")
    with pytest.raises(ValueError, match=r"emb\.txt:2: not valid UTF-8"):
        embed.read_embeddings(path)
    # after the declared rows as well
    path.write_bytes(b"1 2 euclidean\nx 0.1 0.2\n\xff\n")
    with pytest.raises(ValueError, match=r"emb\.txt:3: not valid UTF-8"):
        embed.read_embeddings(path)


@pytest.mark.parametrize("geometry", ["euclidean", "hyperboloid"])
def test_embedding_file_corrupted_bytes(tmp_path, geometry):
    rng = np.random.default_rng(6)
    E = embed.init_embeddings(3, 2, geometry, rng)
    path = tmp_path / "emb.txt"
    embed.write_embeddings(path, ["a", "丁", "z"], E.A, geometry)
    blob = path.read_bytes()
    corrupted = tmp_path / "corrupted.txt"
    refused = 0
    for i in range(len(blob)):  # every byte, with fixed and seeded replacements
        for byte in (0x00, 0xFF, 0x20, 0x0A, 0x2D, 0x2E, 0x39, 0x65, 0xE4,
                     int(rng.integers(256))):
            corrupted.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
            try:
                tokens, matrix, _ = embed.read_embeddings(corrupted)
            except ValueError as exc:
                assert str(corrupted) in str(exc), (i, byte, exc)
                refused += 1
            else:
                assert matrix.shape[0] == len(tokens) and np.isfinite(matrix).all(), (i, byte)
    assert refused > 0

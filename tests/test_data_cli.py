"""Tests for corpus/dataset plumbing and the batch CLI."""

import codecs
import ctypes
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gyronet import bundle, cli, data, embed, train
from gyronet.geometry import lorentz_inner


# ---------------------------------------------------------------------------
# Corpus ingestion
# ---------------------------------------------------------------------------

def test_ingest_corpus_characters(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("游泳", encoding="utf-8")
    assert data.ingest_corpus(path) == "游泳"


def test_ingest_corpus_whitespace_and_keep(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"a b\nc\td\r\ne\r")
    assert list(data.ingest_corpus(path)) == ["a", "b", "c", "d", "e"]
    # line ends go even when whitespace is kept: a "\n" token has no embedding row
    assert list(data.ingest_corpus(path, keep_whitespace=True)) == list("a bc\tde")


def test_ingest_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        list(data.ingest_corpus(path))


def test_ingest_corpus_bom_stripped(tmp_path):
    plain = tmp_path / "plain.txt"
    bom = tmp_path / "bom.txt"
    plain.write_text("héllo", encoding="utf-8")
    bom.write_text("héllo", encoding="utf-8-sig")
    assert list(data.ingest_corpus(bom)) == list(data.ingest_corpus(plain))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_ingest_corpus_invalid_utf8_names_line(tmp_path, newline):
    path = tmp_path / "bad.txt"
    refusal = rf"^{re.escape(str(path))}:2: not valid UTF-8$"
    path.write_bytes(b"ab" + newline + b"ok\xff\xfe" + newline)
    with pytest.raises(ValueError, match=refusal):
        data.ingest_corpus(path)
    # a bad sequence that starts one byte before 8 KiB or 64 KiB and ends after it
    for size in (1 << 13, 1 << 16):
        head = b"a" + newline
        head += b"b" * (size - 1 - len(head))
        path.write_bytes(head + b"\xe6\xb8\xff")
        with pytest.raises(ValueError, match=refusal):
            data.ingest_corpus(path)


# the bytes that Python's text mode decodes at a time: behind a prefix of
# _CHUNK_SIZE - k bytes, a file's k-th byte is the last one its first decode sees
with open(__file__, encoding="utf-8") as _fh:
    _CHUNK_SIZE = _fh._CHUNK_SIZE


# every character that str.isspace() accepts, and others: ASCII, CJK, one
# beyond the BMP, a BOM (dropped at the start of a file, kept elsewhere) and
# "\r\n", one line end
_SPACES = [chr(i) for i in range(0x110000) if chr(i).isspace()]
_CORPUS_PIECES = _SPACES + ["a", "\u6e38", "\U0001f600", "\ufeff", "\r\n"]


def test_ingest_corpus_deletes_exactly_the_characters_isspace_accepts():
    assert sorted(data._NO_WHITESPACE) == [ord(c) for c in _SPACES]
    assert set(data._NO_WHITESPACE.values()) == {None}


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(_CORPUS_PIECES), max_size=30), st.integers(1, 7))
@example(["\ufeff", " ", "a", "\r\n", "\u3000", "\ufeff"], 1)
@example(_SPACES + ["a"], 3)  # every whitespace character at once
def test_ingest_corpus_equals_split_and_join_of_the_whole_text(tmp_path_factory, pieces, offset):
    path = tmp_path_factory.getbasetemp() / "spaced-corpus.txt"
    # as drawn, and behind a prefix that puts the pieces on the decode boundary
    for prefix in ("", "x" * (_CHUNK_SIZE - offset)):
        text = prefix + "".join(pieces)
        path.write_bytes(text.encode("utf-8"))
        text = text.removeprefix("\ufeff")
        no_line_ends = text.replace("\r\n", "\n").replace("\r", "\n").replace("\n", "")
        for keep, expected in ((False, "".join(text.split())), (True, no_line_ends)):
            if expected:
                assert data.ingest_corpus(path, keep_whitespace=keep) == expected
            else:
                with pytest.raises(ValueError, match="empty corpus"):
                    data.ingest_corpus(path, keep_whitespace=keep)


def _whole_file_lines(path):
    """The reader that decoded the whole file at once: the oracle for the
    decoding in chunks."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
    text = text.removeprefix("\ufeff")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return enumerate(lines, start=1)


def _lines_or_refusal(read, path):
    try:
        return list(read(path))
    except ValueError as exc:
        return str(exc)


# characters of one to four bytes, every line end, the BOM, and invalid
# bytes: a stray continuation byte, 0xff, a cut 3-byte character, a
# surrogate and a code point past U+10FFFF
_FILE_PIECES = [b"a", b" ", "\u00e9".encode(), "\u6e38".encode(), "\U0001f600".encode(), b"\n",
                b"\r", b"\r\n", codecs.BOM_UTF8, b"\x80", b"\xff", "\u6e38".encode()[:2],
                b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(st.sampled_from(_FILE_PIECES), max_size=24), st.integers(1, 7))
@example([codecs.BOM_UTF8, b"a\r", b"\n", b"b"], 1)  # the BOM cut by the decode boundary
@example([codecs.BOM_UTF8, b"a\r", b"\n", b"b"], 5)  # and a "\r\n" cut by it
@example([b"a\r", b"\n\xff"], 2)  # a refusal just after a cut "\r\n"
@example([b"a\n", "\u6e38".encode()[:2], b"\n"], 3)  # a cut character that never ends
def test_read_utf8_lines_in_chunks_equals_the_whole_file_reader(tmp_path_factory, pieces,
                                                               offset):
    path = tmp_path_factory.getbasetemp() / "chunked-lines.txt"
    # as drawn, and behind a prefix that puts the pieces on the decode boundary
    for prefix in (b"", b"x" * (_CHUNK_SIZE - offset)):
        path.write_bytes(prefix + b"".join(pieces))
        assert _lines_or_refusal(data.read_utf8_lines, path) == \
            _lines_or_refusal(_whole_file_lines, path)


def test_a_refusal_streams_the_file_to_its_bad_line(tmp_path):
    # 10**6 CJK characters in 80-character lines, an invalid byte on the last:
    # finding its line must not hold the whole file's bytes
    n = 10**6
    points = 0x4E00 + np.random.default_rng(16).integers(0, 3000, size=n)
    text = points.astype("<u4").tobytes().decode("utf-32-le")
    path = tmp_path / "corpus.txt"
    path.write_bytes("".join(text[i:i + 80] + "\n" for i in range(0, n, 80)).encode()[:-1]
                     + b"\xff\n")
    del text
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:12500: not valid UTF-8$"):
            data.read_utf8_lines(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n, f"{peak / n:.2f} B/char"


# ---------------------------------------------------------------------------
# Intent datasets
# ---------------------------------------------------------------------------

def test_load_intent_dataset_split_sizes(tmp_path):
    path = tmp_path / "d.tsv"
    rows = [f"utt{i}\tlabel{i % 4}" for i in range(100)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    ds = data.load_intent_dataset(path, holdout_fraction=0.15, seed=0)
    assert len(ds.records) == 100
    assert abs(len(ds.train_indices) - 85) <= 1
    assert abs(len(ds.heldout_indices) - 15) <= 1
    assert sorted(ds.train_indices + ds.heldout_indices) == list(range(100))


def test_load_intent_dataset_duplicates_retained(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("same\ta\nsame\ta\nother\tb\n", encoding="utf-8")
    ds = data.load_intent_dataset(path, holdout_fraction=0.0)
    assert len(ds.records) == 3


def test_load_intent_dataset_malformed_line(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("fine\ta\nbroken-line\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        data.load_intent_dataset(path)


def test_load_intent_dataset_refuses_empty_utterance(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("fine\ta\n\tb\nalso fine\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: empty utterance$"):
        data.load_intent_dataset(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_load_intent_dataset_invalid_utf8_names_line(tmp_path, newline):
    path = tmp_path / "d.tsv"
    lines = ["丁一\ta", "七万\tb", "丈三\ta"]
    path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
    records = [tuple(line.split("\t")) for line in lines]
    assert data.load_intent_dataset(path, holdout_fraction=0.0).records == records
    # a byte order mark is not part of the first utterance
    bom = tmp_path / "bom.tsv"
    bom.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert data.load_intent_dataset(bom, holdout_fraction=0.0).records == records
    # replace the second byte of the last line's first character
    blob = bytearray(path.read_bytes())
    blob[blob.rindex("丈".encode()) + 1] = 0x41
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: not valid UTF-8$"):
        data.load_intent_dataset(path)


def test_load_intent_dataset_corrupted_bytes(tmp_path):
    path = tmp_path / "d.tsv"
    ds = data.generate_synthetic_intents(3, 3, 24, seed=2, composites=1, noise_len=2)
    data.save_intent_dataset(path, ds.records)
    blob = path.read_bytes()
    rng = np.random.default_rng(8)
    corrupted = tmp_path / "corrupted.tsv"
    refused = 0
    for i in range(len(blob)):  # every byte, with fixed and seeded replacements
        for byte in (0x00, 0xFF, 0x20, 0x09, 0x0A, 0x0D, 0xE4, int(rng.integers(256))):
            corrupted.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
            try:
                loaded = data.load_intent_dataset(corrupted)
            except ValueError as exc:
                assert str(corrupted) in str(exc), (i, byte, exc)
                refused += 1
            else:
                assert all(label for _, label in loaded.records), (i, byte)
    assert refused > 0


def test_split_deterministic(tmp_path):
    path = tmp_path / "d.tsv"
    rows = [f"utt{i}\tlabel{i % 3}" for i in range(60)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    a = data.load_intent_dataset(path, 0.2, seed=5)
    b = data.load_intent_dataset(path, 0.2, seed=5)
    assert a.train_indices == b.train_indices
    assert a.heldout_indices == b.heldout_indices
    c = data.load_intent_dataset(path, 0.2, seed=6)
    assert a.heldout_indices != c.heldout_indices


@pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5, float("nan")])
def test_holdout_fraction_out_of_range(fraction):
    records = [(f"utt{i}", f"label{i % 3}") for i in range(12)]
    with pytest.raises(ValueError, match="holdout fraction") as exc:
        data.make_dataset(records, fraction)
    assert str(fraction) in str(exc.value)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def test_generator_deterministic():
    a = data.generate_synthetic_intents(6, 10, 40, seed=3)
    b = data.generate_synthetic_intents(6, 10, 40, seed=3)
    assert a.records == b.records
    assert a.train_indices == b.train_indices


def test_generator_shape_and_labels():
    ds = data.generate_synthetic_intents(8, 12, 48, seed=0, composites=2)
    assert len(ds.records) == 8 * 12
    assert len(ds.label_to_id) == 8
    composite_labels = [lab for lab in ds.label_to_id if "+" in lab]
    assert len(composite_labels) == 2


def test_generator_composites_contain_parent_signatures():
    ds = data.generate_synthetic_intents(6, 15, 48, seed=1, composites=2, noise_len=2)
    by_label = {}
    for utt, lab in ds.records:
        by_label.setdefault(lab, []).append(utt)
    for lab in ds.label_to_id:
        if "+" not in lab:
            continue
        left, right = lab.split("+")
        # signature chars of a base class appear in all of its utterances
        sig_left = set.intersection(*(set(u) for u in by_label[left]))
        sig_right = set.intersection(*(set(u) for u in by_label[right]))
        assert sig_left and sig_right
        for utt in by_label[lab]:
            assert sig_left <= set(utt) and sig_right <= set(utt)


def test_generator_separable_two_classes():
    ds = data.generate_synthetic_intents(2, 10, 30, seed=2, composites=0, noise_len=0)
    by_label = {}
    for utt, lab in ds.records:
        by_label.setdefault(lab, []).append(set(utt))
    sigs = {lab: set.intersection(*sets) for lab, sets in by_label.items()}
    labels = list(sigs)
    assert sigs[labels[0]].isdisjoint(sigs[labels[1]])


def test_generator_validation_errors():
    with pytest.raises(ValueError):
        data.generate_synthetic_intents(1, 5, 30, seed=0)
    with pytest.raises(ValueError):
        data.generate_synthetic_intents(4, 5, 30, seed=0, composites=4)
    with pytest.raises(ValueError):
        data.generate_synthetic_intents(8, 5, 10, seed=0, composites=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"per_class": 0}, "per_class must be >= 1, got 0"),
    ({"noise_len": -1}, "noise_len must be >= 0, got -1"),
    # U+4E00 + 35328 is the first surrogate, which UTF-8 cannot encode
    ({"vocab_size": 35329}, "vocab_size must be <= 35328, got 35329"),
])
def test_generator_refuses_empty_or_negative_sizes(kwargs, message):
    with pytest.raises(ValueError) as info:
        data.generate_synthetic_intents(**{"num_classes": 4, "per_class": 5, "vocab_size": 30,
                                           "seed": 0, "composites": 1, **kwargs})
    assert str(info.value) == message
    assert len(data.generate_synthetic_intents(4, 1, 30, seed=0, composites=1,
                                              noise_len=0).records) == 4


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_gen_data_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    base = ["gen-data", "--classes", "4", "--per-class", "5",
            "--vocab-size", "30", "--composites", "1", "--seed", "9"]
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--out", str(out2)]) == 0
    assert _sha(out1) == _sha(out2)
    ds = data.load_intent_dataset(out1)
    assert len(ds.records) == 20


@pytest.mark.parametrize("flag, value, message", [
    ("--per-class", "0", "--per-class must be >= 1, got 0"),
    ("--noise-len", "-1", "--noise-len must be >= 0, got -1"),
    ("--classes", "1", "--classes must be >= 2, got 1"),
    ("--vocab-size", "40000", "--vocab-size must be <= 35328, got 40000"),
    ("--vocab-size", "5", "--vocab-size 5 too small for 3 disjoint signatures"),
])
def test_cli_gen_data_refuses_empty_or_negative_sizes(tmp_path, capsys, flag, value, message):
    out = tmp_path / "d.tsv"
    code = cli.main(["gen-data", "--classes", "4", "--composites", "1", "--vocab-size", "30",
                     flag, value, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"gyronet gen-data: error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("classes, composites, message", [
    ("3", "3", "--composites 3 with --classes 3 leaves fewer than two base classes to mix"),
    ("3", "2", "--composites 2 with --classes 3 leaves fewer than two base classes to mix"),
    ("4", "2", "--composites 2 with --classes 4 leaves 2 base classes, too few to pair into "
               "2 composite classes"),
], ids=["no-base-class", "one-base-class", "too-few-pairs"])
def test_cli_gen_data_refuses_composites_the_classes_cannot_make(tmp_path, capsys, classes,
                                                                 composites, message):
    out = tmp_path / "d.tsv"
    code = cli.main(["gen-data", "--classes", classes, "--composites", composites,
                     "--vocab-size", "30", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"gyronet gen-data: error: {message}"]
    assert not out.exists()


def test_cli_train_embeddings_and_convert(tmp_path, caplog):
    corpus = tmp_path / "corpus.txt"
    rng = np.random.default_rng(0)
    corpus.write_text("".join(chr(0x4E00 + int(i)) for i in rng.integers(0, 12, 400)),
                      encoding="utf-8")
    emb = tmp_path / "emb.txt"
    argv = ["train-embeddings", "--corpus", str(corpus), "--dim", "3",
            "--epochs", "2", "--window", "1", "--negatives", "2",
            "--seed", "1", "--out", str(emb)]
    with caplog.at_level(logging.INFO, logger="gyronet"):
        assert cli.main(argv) == 0
    epoch_lines = [r.message for r in caplog.records if r.message.startswith("epoch")]
    assert len(epoch_lines) == 2
    for line in epoch_lines:
        fields = line.split()
        assert fields[0] == "epoch" and fields[2] == "loss"
        float(fields[3])  # parseable

    tokens, matrix, geometry = embed.read_embeddings(emb)
    assert geometry == "hyperboloid"
    assert matrix.shape[1] == 4  # dim + 1 columns
    np.testing.assert_allclose(lorentz_inner(matrix, matrix), -1.0, atol=1e-6)

    # determinism of the output file
    emb2 = tmp_path / "emb2.txt"
    assert cli.main(argv[:-1] + [str(emb2)]) == 0
    assert _sha(emb) == _sha(emb2)

    # convert round trip preserves tokens and coordinates
    ball = tmp_path / "ball.txt"
    back = tmp_path / "back.txt"
    assert cli.main(["convert", "--in", str(emb), "--out", str(ball)]) == 0
    assert cli.main(["convert", "--in", str(ball), "--out", str(back)]) == 0
    tokens_b, matrix_b, geometry_b = embed.read_embeddings(ball)
    assert geometry_b == "poincare" and tokens_b == tokens
    tokens_r, matrix_r, geometry_r = embed.read_embeddings(back)
    assert geometry_r == "hyperboloid" and tokens_r == tokens
    np.testing.assert_allclose(matrix_r, matrix, atol=1e-9)


def test_rows_moved_onto_the_shell_are_reported(tmp_path, caplog):
    # a hyperboloid row 20 from the origin and ball rows of norm 1 - 1e-6 and
    # 1.5 reach the 1 - 1e-5 shell; rows at the origin and at 0.5 do not
    files = {name: tmp_path / f"{name}.txt" for name in ("hyp", "ball", "past", "inside")}
    far = [np.sinh(20.0), 0.0, np.cosh(20.0)]
    embed.write_embeddings(files["hyp"], ["a", "b"], np.array([[0.0, 0.0, 1.0], far]),
                           "hyperboloid")
    for name, rows in (("ball", [[1 - 1e-6, 0.0], [0.0, 0.5]]), ("past", [[0.0, -1.5]]),
                       ("inside", [[0.5, 0.0]])):
        embed.write_embeddings(files[name], list("ab")[:len(rows)], np.array(rows), "poincare")
    shell = "onto the ball's 1 - 1e-05 shell; the farthest lay"
    near = 2 * np.arctanh(1 - 1e-6)  # 2 artanh of the norm
    expected = {"hyp": f"moved 1 of 2 rows {shell} 20 from the origin",
                "ball": f"moved 1 of 2 rows {shell} {near:.6g} from the origin",
                "past": f"moved 1 of 1 rows {shell} inf from the origin"}
    for name, path in files.items():
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="gyronet"):
            points = train.load_embedding_points(path, "poincare").points
        assert np.linalg.norm(points, axis=-1).max() <= 1 - 1e-5 + 1e-15
        logged = [f"{path}: {expected[name]}"] if name in expected else []
        assert [r.getMessage() for r in caplog.records] == logged
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="gyronet"):
        assert cli.main(["convert", "--in", str(files["hyp"]),
                         "--out", str(tmp_path / "out.txt")]) == 0
    assert caplog.records[-1].getMessage().endswith(
        ", 1 of 2 ball rows at or past the 1 - 1e-05 shell")


@pytest.mark.parametrize("tokens, refusal", [
    (["ab", "c", "c"], "2: token 'ab' is not one character"),
    (["a", "", "c"], "3: token '' is not one character"),
    (["c", "a", "c"], "4: token 'c' repeats line 2"),
])
def test_loader_refuses_tokens_that_no_character_reaches(tmp_path, tokens, refusal):
    # each would leave a row unused: "abc" would encode as UNK, UNK and the last "c"
    path = tmp_path / "emb.txt"
    embed.write_embeddings(path, tokens, np.full((3, 2), 0.1), "poincare")
    assert embed.read_embeddings(path)[0] == tokens
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{refusal}$"):
        train.load_embedding_points(path, "poincare")


def test_loader_takes_the_space_token_of_keep_whitespace(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("ab cd\nef gh\n" * 20, encoding="utf-8")
    emb = tmp_path / "e.txt"
    assert cli.main(["train-embeddings", "--corpus", str(corpus), "--keep-whitespace",
                     "--dim", "3", "--epochs", "1", "--window", "1", "--negatives", "2",
                     "--out", str(emb)]) == 0
    token_map = train.load_embedding_points(emb, "poincare")
    assert " " in token_map.token_to_row
    _, unk, mask = token_map.encode(["ab cd"], 8)
    assert mask.sum() == 5 and not unk.any()


def test_cli_convert_rejects_euclidean(tmp_path, capsys):
    path = tmp_path / "e.txt"
    embed.write_embeddings(path, ["x"], np.array([[0.1, 0.2]]), "euclidean")
    code = cli.main(["convert", "--in", str(path), "--out", str(tmp_path / "o.txt")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, reason", [
    ("1 2 poincare\na 0.6 0.8\n", 2, "a ball row of norm >= 1, not a point"),
    # a far row whose ball row is exactly the unit vector
    ("2 2 hyperboloid\na 0 0 1\nb 1e17 0 1e17\n", 3, "a ball row of norm >= 1, not a point"),
    # its ball row 1 - 1e-10 is written with 9 digits, as 1
    ("1 2 hyperboloid\na 0 1e10 1e10\n", 2, "a ball row of norm >= 1, not a point"),
    # its ball row would be non-finite; the reader refuses it first
    ("1 1 hyperboloid\na 0 -1\n", 2, "row is on the lower sheet (time coordinate -1)"),
], ids=["poincare-on-the-sphere", "hyperboloid-far", "hyperboloid-written-as-1",
        "hyperboloid-lower-sheet"])
def test_cli_convert_refuses_rows_that_are_not_points(tmp_path, capsys, text, line, reason):
    path = tmp_path / "in.txt"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["convert", "--in", str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.endswith(
        f"gyronet convert: error: {path}:{line}: {reason}\n")
    assert not out.exists()


def test_cli_geometry_check(capsys):
    assert cli.main(["geometry-check"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[1] for line in out.strip().splitlines()]
    assert len(names) == len(set(names)) == 5
    assert all("PASS" in line for line in out.strip().splitlines())


@pytest.fixture
def fresh_allocator_policy():
    """Lets one test's ``cli.main`` set the allocator policy again."""
    cli._keep_freed_pages.cache_clear()
    yield
    cli._keep_freed_pages.cache_clear()


@pytest.mark.parametrize("answer, expected", [
    (1, [(cli._M_MMAP_THRESHOLD, 32 << 20), (cli._M_TRIM_THRESHOLD, 64 << 20)]),
    (0, [(cli._M_MMAP_THRESHOLD, 32 << 20)]),  # refused: the trim threshold is left alone
])
def test_cli_sets_the_allocator_policy_once_per_process(monkeypatch, capsys,
                                                        fresh_allocator_policy, answer, expected):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return answer

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    assert cli.main(["geometry-check"]) == 0
    assert calls == expected
    assert cli.main(["geometry-check"]) == 0
    assert calls == expected


def test_cli_runs_where_the_c_library_has_no_mallopt(monkeypatch, capsys,
                                                     fresh_allocator_policy):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    assert cli.main(["geometry-check"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# After one cli.main, each steady-state forward of one evaluation chunk
# (tests/tape_memory.py's eval size) prints its minor page faults.
_EVAL_FAULTS = """
import resource
import tape_memory
from gyronet import cli, train
assert cli.main(["geometry-check"]) == 0
for geometry in ("poincare", "euclidean"):
    cfg, params, points, unk, mask, labels = tape_memory.step_inputs(geometry, "eval")
    faults = []
    for _ in range(6):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train._score_batch(params, points, unk, mask, labels, cfg)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(geometry, *faults[2:])
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_cli_process_keeps_the_pages_an_evaluation_forward_frees():
    # glibc's own policy hands a chunk's pages back after each forward, so the
    # next one faults them in again: about 1200 (ball) and 600 (flat) per forward
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _EVAL_FAULTS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = {line.split()[0]: [int(n) for n in line.split()[1:]]
              for line in done.stdout.splitlines() if not line.startswith("suite ")}
    assert set(faults) == {"poincare", "euclidean"}
    for geometry, counts in faults.items():
        assert max(counts) <= 50, (geometry, counts)


def test_cli_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classes=3\nper-class=4\nvocab-size=30\ncomposites=1\nseed=2\n", encoding="utf-8")
    out = tmp_path / "d.tsv"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    ds = data.load_intent_dataset(out)
    assert len(ds.records) == 12 and len(ds.label_to_id) == 3
    # explicit flags win over the config file
    out2 = tmp_path / "d2.tsv"
    assert cli.main(["gen-data", "--config", str(cfg), "--classes", "4",
                     "--out", str(out2)]) == 0
    assert len(data.load_intent_dataset(out2).label_to_id) == 4
    # a byte order mark is not part of the first key
    cfg.write_bytes(codecs.BOM_UTF8 + cfg.read_bytes())
    out3 = tmp_path / "d3.tsv"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out3)]) == 0
    assert out3.read_bytes() == out.read_bytes()


def test_cli_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classez=3\n", encoding="utf-8")
    code = cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_cli_config_file_refuses_nested_config(tmp_path, capsys):
    other = tmp_path / "other.cfg"
    other.write_text("classes=3\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=2\nconfig={other}\n", encoding="utf-8")
    out = tmp_path / "d.tsv"
    code = cli.main(["gen-data", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"gyronet gen-data: error: {cfg}:2: a config file cannot name another " \
           "config file\n" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_config_file_refuses_invalid_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# settings\r\nseed=2\r\nclasses=\xff3\r\n")
    out = tmp_path / "d.tsv"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"gyronet gen-data: error: {cfg}:3: not valid UTF-8\n" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_config_file_flag_values(tmp_path):
    parser = cli._classifier_parser("gyronet train-classifier")
    required = ["--embeddings", "e.txt", "--data", "d.tsv", "--out", "m.bin"]
    cfg = tmp_path / "run.cfg"
    for raw, expected in (("0", False), ("false", False), ("1", True), ("true", True)):
        cfg.write_text(f"residual={raw}\n", encoding="utf-8")
        args = cli._parse_with_config(parser, ["--config", str(cfg)] + required)
        assert args.residual is expected
    # the command-line flag wins over the config file
    cfg.write_text("residual=0\n", encoding="utf-8")
    args = cli._parse_with_config(parser, ["--config", str(cfg), "--residual"] + required)
    assert args.residual is True


@pytest.mark.parametrize("command, line, message", [
    ("train-classifier", "residual=yes",
     "bad value for 'residual': 'yes' is not one of 1, 0, true, false"),
    ("evaluate", "split=nope",
     "bad value for 'split': 'nope' is not one of heldout, train, all"),
    ("train-classifier", "preset=bogus",
     "bad value for 'preset': 'bogus' is not one of " + ", ".join(sorted(cli.PRESETS))),
], ids=["flag", "split", "preset"])
def test_cli_config_file_refuses_bad_values(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# settings\n{line}\n", encoding="utf-8")
    target = "--model" if command == "evaluate" else "--out"
    code = cli.main([command, "--config", str(cfg), "--embeddings", str(tmp_path / "e.txt"),
                     "--data", str(tmp_path / "d.tsv"), target, str(tmp_path / "m.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"gyronet {command}: error: {cfg}:2: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (["--lr", "nan"], "--lr must be finite and > 0, got nan"),
    (["--lr", "0"], "--lr must be finite and > 0, got 0.0"),
    (["--lr", "inf"], "--lr must be finite and > 0, got inf"),
    (["--theta", "nan"], "--theta must be finite, got nan"),
    (["--dim", "0"], "--dim must be >= 1, got 0"),
    (["--window", "0"], "--window must be >= 1, got 0"),
    (["--negatives", "-1"], "--negatives must be >= 0, got -1"),
    (["--epochs", "-1"], "--epochs must be >= 0, got -1"),
    (["--min-count", "0"], "--min-count must be >= 1, got 0"),
], ids=["lr-nan", "lr-zero", "lr-inf", "theta-nan", "dim", "window", "negatives", "epochs",
        "min-count"])
def test_cli_train_embeddings_refuses_settings_that_train_nothing(tmp_path, capsys, flags,
                                                                  message):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abcabcbbca" * 5, encoding="utf-8")
    emb = tmp_path / "emb.txt"
    code = cli.main(["train-embeddings", "--corpus", str(corpus), "--epochs", "1",
                     "--out", str(emb)] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert f"gyronet train-embeddings: error: {message}\n" in err
    assert "Traceback" not in err
    assert not emb.exists()


@pytest.mark.parametrize("flags, message", [
    (["--heads", "0"], "--heads must be >= 1, got 0"),
    (["--layers", "0"], "--layers must be >= 1, got 0"),
    (["--batch-size", "0"], "--batch-size must be >= 1, got 0"),
    (["--max-seq-len", "0"], "--max-seq-len must be >= 1, got 0"),
    (["--epochs", "-1"], "--epochs must be >= 0, got -1"),
    (["--ffn-dim", "-2"], "--ffn-dim must be >= 0, got -2"),
    (["--head-dim", "-1"], "--head-dim must be >= 0, got -1"),
    (["--lr", "nan"], "--lr must be finite and > 0, got nan"),
    (["--lr", "0"], "--lr must be finite and > 0, got 0.0"),
    (["--manifold-lr", "inf"], "--manifold-lr must be finite and > 0, got inf"),
    (["--dropout", "1"], "--dropout must lie in [0, 1), got 1.0"),
    (["--holdout", "-0.1"], "--holdout must lie in [0, 1), got -0.1"),
    (["--pe-scale", "nan"], "--pe-scale must be finite, got nan"),
    (["--epochs", "2", "--restart-epoch", "5"],
     "--restart-epoch must be < --epochs (2) or the restart never comes, got 5"),
    (["--epochs", "3", "--restart-epoch", "3"],
     "--restart-epoch must be < --epochs (3) or the restart never comes, got 3"),
], ids=["heads", "layers", "batch-size", "max-seq-len", "epochs", "ffn-dim", "head-dim",
        "lr-nan", "lr-zero", "manifold-lr-inf", "dropout", "holdout", "pe-scale",
        "restart-epoch-past-epochs", "restart-epoch-at-epochs"])
def test_cli_train_classifier_refuses_bad_settings_before_loading(tmp_path, capsys, flags,
                                                                  message):
    # neither input exists: a check that ran after loading would report that instead
    model = tmp_path / "m.bin"
    code = cli.main(["train-classifier", "--embeddings", str(tmp_path / "missing-emb.txt"),
                     "--data", str(tmp_path / "missing.tsv"), "--out", str(model)] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert f"gyronet train-classifier: error: {message}\n" in err
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen-data", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["gen-data", "--composites", "-1"], "--composites must be >= 0, got -1"),
    (["train-embeddings", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["train-embeddings", "--window", "0"], "--window must be >= 1, got 0"),
    (["train-embeddings", "--min-count", "-3"], "--min-count must be >= 1, got -3"),
    (["train-classifier", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["train-classifier", "--restart-epoch", "-5"], "--restart-epoch must be >= -1, got -5"),
    (["evaluate", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["evaluate", "--holdout", "1.5"], "--holdout must lie in [0, 1), got 1.5"),
    (["geometry-check", "--seed", "-1"], "--seed must be >= 0, got -1"),
], ids=["gen-data-seed", "gen-data-composites", "train-embeddings-seed",
        "train-embeddings-window", "train-embeddings-min-count", "train-classifier-seed",
        "train-classifier-restart-epoch", "evaluate-seed", "evaluate-holdout",
        "geometry-check-seed"])
def test_cli_refuses_out_of_bounds_flags_before_reading_inputs(tmp_path, capsys, argv,
                                                                message):
    # no input exists: a check that ran after loading would report that instead
    out = tmp_path / "out"
    inputs = {"gen-data": ["--classes", "4", "--vocab-size", "30", "--out", str(out)],
              "train-embeddings": ["--corpus", str(tmp_path / "missing.txt"),
                                   "--out", str(out)],
              "train-classifier": ["--embeddings", str(tmp_path / "missing-emb.txt"),
                                   "--data", str(tmp_path / "missing.tsv"), "--out", str(out)],
              "evaluate": ["--model", str(tmp_path / "missing.bin"),
                           "--embeddings", str(tmp_path / "missing-emb.txt"),
                           "--data", str(tmp_path / "missing.tsv"),
                           "--metrics-out", str(out)],
              "geometry-check": []}[argv[0]]
    assert cli.main(argv + inputs) == 1
    captured = capsys.readouterr()
    assert f"gyronet {argv[0]}: error: {message}\n" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_generator_refuses_negative_composites():
    with pytest.raises(ValueError, match=r"^composites must be >= 0, got -1$"):
        data.generate_synthetic_intents(4, 5, 30, seed=0, composites=-1)


def test_cli_train_embeddings_keep_whitespace_round_trips(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"ab cd\r\nef gh\r\n" * 20)
    emb = tmp_path / "e.txt"
    assert cli.main(["train-embeddings", "--corpus", str(corpus), "--keep-whitespace",
                     "--dim", "3", "--epochs", "1", "--window", "1", "--negatives", "2",
                     "--out", str(emb)]) == 0
    tokens, matrix, _ = embed.read_embeddings(emb)
    assert sorted(tokens) == sorted(" abcdefgh")
    assert matrix.shape == (9, 4)
    for token in ("\n", "a\rb"):  # each line end would split the row
        with pytest.raises(ValueError, match="row 1"):
            embed.write_embeddings(tmp_path / "bad.txt", ["a", token], np.zeros((2, 2)),
                                   "euclidean")
        assert not (tmp_path / "bad.txt").exists()


def test_cli_train_classifier_zero_head_and_ffn_dims_are_derived(tmp_path):
    dataset, chars = _tiny_dataset(tmp_path)
    emb = tmp_path / "emb.txt"
    embed.write_embeddings(emb, chars, np.full((len(chars), 4), 0.1), "euclidean")
    model = tmp_path / "m.bin"
    assert cli.main(["train-classifier", "--geometry", "euclidean", "--embeddings", str(emb),
                     "--data", str(dataset), "--epochs", "0", "--layers", "1", "--heads", "2",
                     "--head-dim", "0", "--ffn-dim", "0", "--out", str(model)]) == 0
    meta = bundle.load_bundle(model)[1]
    assert (meta["head_dim"], meta["ffn_dim"]) == ("2", "8")


def test_cli_train_embeddings_divergence_names_epoch_and_step(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a" * 20 + "b" * 20 + "cccc", encoding="utf-8")
    emb = tmp_path / "emb.txt"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train-embeddings", "--corpus", str(corpus), "--dim", "10",
                         "--window", "1", "--negatives", "5", "--lr", "0.3", "--epochs", "2",
                         "--seed", "5", "--out", str(emb)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("gyronet train-embeddings: error: divergence (non-finite step) at epoch 0 step 32: "
            "non-finite step in rsgd_step_hyperboloid\n") in err
    assert "Traceback" not in err
    assert not emb.exists()


def test_cli_train_embeddings_divergence_prints_no_numpy_warnings(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a" * 20 + "b" * 20 + "cccc", encoding="utf-8")
    emb = tmp_path / "emb.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["train-embeddings", "--corpus", str(corpus), "--dim", "10",
                         "--window", "1", "--negatives", "5", "--lr", "0.3", "--epochs", "2",
                         "--seed", "5", "--out", str(emb)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.endswith("gyronet train-embeddings: error: divergence (non-finite step) at "
                        "epoch 0 step 32: non-finite step in rsgd_step_hyperboloid\n")
    assert "Warning" not in err
    assert not emb.exists()


def test_cli_train_embeddings_refuses_row_that_overflows_on_the_last_step(
        tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abcabd" * 3, encoding="utf-8")
    argv = ["train-embeddings", "--corpus", str(corpus), "--dim", "3", "--window", "1",
            "--negatives", "1", "--epochs", "1", "--out", str(tmp_path / "emb.txt")]
    step = embed.rsgd_step_hyperboloid
    calls = []

    def counting(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(embed, "rsgd_step_hyperboloid", counting)
    assert cli.main(argv) == 0
    last = len(calls)

    def overflow_on_last_step(*args):
        calls.append(None)
        rows = step(*args)
        if len(calls) == 2 * last:  # no logit check reads the rows again
            rows[0] = np.inf
        return rows

    monkeypatch.setattr(embed, "rsgd_step_hyperboloid", overflow_on_last_step)
    emb = tmp_path / "emb2.txt"
    assert cli.main(argv[:-1] + [str(emb)]) == 1
    assert capsys.readouterr().err.endswith(
        "gyronet train-embeddings: error: divergence (non-finite embedding) at epoch 0\n")
    assert not emb.exists()


def test_cli_classifier_train_evaluate_round_trip(tmp_path):
    # tiny end-to-end: gen-data -> train-embeddings -> train-classifier -> evaluate
    dataset = tmp_path / "d.tsv"
    assert cli.main(["gen-data", "--classes", "3", "--per-class", "8",
                     "--vocab-size", "30", "--composites", "1", "--seed", "4",
                     "--out", str(dataset)]) == 0
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(u for u, _ in data.load_intent_dataset(dataset).records),
                      encoding="utf-8")
    emb = tmp_path / "emb.txt"
    assert cli.main(["train-embeddings", "--corpus", str(corpus), "--dim", "6",
                     "--epochs", "1", "--window", "1", "--negatives", "2",
                     "--out", str(emb)]) == 0
    model = tmp_path / "model.bin"
    # a pe_scale that 6 significant digits would round to 1 must reach evaluate
    argv = ["train-classifier", "--embeddings", str(emb), "--data", str(dataset),
            "--epochs", "2", "--layers", "1", "--heads", "2", "--seed", "0",
            "--pe-scale", "1.0000001", "--out", str(model)]
    assert cli.main(argv) == 0
    metrics = json.loads((tmp_path / "model.bin.metrics.json").read_text())
    assert set(metrics) == {"accuracy", "cross_entropy", "epochs", "geometry",
                            "dims", "seed"}
    assert metrics["geometry"] == "poincare" and metrics["dims"] == 6

    # training is deterministic: byte-identical bundle on re-run
    model2 = tmp_path / "model2.bin"
    assert cli.main(argv[:-1] + [str(model2)]) == 0
    assert _sha(model) == _sha(model2)

    out_metrics = tmp_path / "eval.json"
    assert cli.main(["evaluate", "--model", str(model), "--embeddings", str(emb),
                     "--data", str(dataset), "--metrics-out", str(out_metrics)]) == 0
    report = json.loads(out_metrics.read_text())
    assert report == metrics


def test_cli_evaluate_label_mismatch(tmp_path, capsys):
    dataset = tmp_path / "d.tsv"
    assert cli.main(["gen-data", "--classes", "3", "--per-class", "6",
                     "--vocab-size", "30", "--composites", "1", "--seed", "4",
                     "--out", str(dataset)]) == 0
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(u for u, _ in data.load_intent_dataset(dataset).records),
                      encoding="utf-8")
    emb = tmp_path / "emb.txt"
    assert cli.main(["train-embeddings", "--corpus", str(corpus), "--dim", "4",
                     "--epochs", "1", "--window", "1", "--negatives", "1",
                     "--out", str(emb)]) == 0
    model = tmp_path / "model.bin"
    assert cli.main(["train-classifier", "--embeddings", str(emb), "--data", str(dataset),
                     "--epochs", "1", "--layers", "1", "--heads", "2",
                     "--out", str(model)]) == 0
    other = tmp_path / "other.tsv"
    assert cli.main(["gen-data", "--classes", "4", "--per-class", "6",
                     "--vocab-size", "30", "--composites", "1", "--seed", "5",
                     "--out", str(other)]) == 0
    code = cli.main(["evaluate", "--model", str(model), "--embeddings", str(emb),
                     "--data", str(other)])
    assert code == 1
    assert "labels" in capsys.readouterr().err


@pytest.mark.parametrize("classifier, stored, message", [
    ("poincare", "euclidean", "euclidean embeddings cannot feed the hyperbolic classifier; "
     "train hyperboloid embeddings or use --geometry euclidean"),
    ("euclidean", "hyperboloid", "hyperboloid embeddings cannot feed the euclidean classifier"),
], ids=["euclidean-into-poincare", "hyperboloid-into-euclidean"])
def test_cli_train_classifier_refuses_embeddings_of_another_geometry(tmp_path, capsys,
                                                                     classifier, stored,
                                                                     message):
    dataset, chars = _tiny_dataset(tmp_path)
    emb = tmp_path / "emb.txt"
    rows = embed.init_embeddings(len(chars), 4, stored, np.random.default_rng(0)).A
    embed.write_embeddings(emb, chars, rows, stored)
    model = tmp_path / "m.bin"
    code = cli.main(["train-classifier", "--geometry", classifier, "--embeddings", str(emb),
                     "--data", str(dataset), "--out", str(model)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"gyronet train-classifier: error: {emb}: {message}\n" in err
    assert "Traceback" not in err
    assert not model.exists()


def test_cli_preset_dim_must_match_embeddings(tmp_path, capsys):
    dataset = tmp_path / "d.tsv"
    assert cli.main(["gen-data", "--classes", "3", "--per-class", "6",
                     "--vocab-size", "30", "--composites", "1", "--seed", "4",
                     "--out", str(dataset)]) == 0
    chars = sorted({ch for u, _ in data.load_intent_dataset(dataset).records for ch in u})
    rng = np.random.default_rng(0)
    for dim in (8, 128):
        embed.write_embeddings(tmp_path / f"e{dim}.txt", chars,
                               rng.normal(0.0, 0.1, (len(chars), dim)), "euclidean")
    base = ["train-classifier", "--data", str(dataset), "--preset", "eucl-c2v-128",
            "--epochs", "1", "--layers", "1"]
    code = cli.main(base + ["--embeddings", str(tmp_path / "e8.txt"),
                            "--out", str(tmp_path / "m8.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert "'eucl-c2v-128' needs dim 128" in err and "has dim 8" in err
    assert not (tmp_path / "m8.bin").exists()
    assert cli.main(base + ["--embeddings", str(tmp_path / "e128.txt"),
                            "--out", str(tmp_path / "m128.bin")]) == 0
    metrics = json.loads((tmp_path / "m128.bin.metrics.json").read_text())
    assert metrics["dims"] == 128 and metrics["geometry"] == "euclidean"


def _tiny_dataset(tmp_path):
    dataset = tmp_path / "d.tsv"
    assert cli.main(["gen-data", "--classes", "3", "--per-class", "6",
                     "--vocab-size", "30", "--composites", "1", "--seed", "4",
                     "--out", str(dataset)]) == 0
    chars = sorted({ch for u, _ in data.load_intent_dataset(dataset).records for ch in u})
    return dataset, chars


def test_cli_diverging_run_reports_tape_error(tmp_path, capsys):
    # finite but huge coordinates overflow in the first projection
    dataset, chars = _tiny_dataset(tmp_path)
    emb = tmp_path / "huge.txt"
    model = tmp_path / "m.bin"
    embed.write_embeddings(emb, chars, np.full((len(chars), 4), 1e200), "euclidean")
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train-classifier", "--geometry", "euclidean", "--embeddings", str(emb),
                         "--data", str(dataset), "--epochs", "1", "--layers", "1",
                         "--heads", "2", "--out", str(model)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.endswith(f"gyronet train-classifier: error: the model trained for {model}: "
                        f"divergence (non-finite value) at epoch 0 step 0: "
                        f"non-finite value at node 29 (op matmul)\n")
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("geometry, spoiled, cause", [
    ("euclidean", "all", "non-finite gradient for parameter 'layer0.ffn_b1'"),
    ("poincare", "ball", "non-finite gradient in rsgd_step_poincare")], ids=["rmsprop", "rsgd"])
def test_cli_diverging_update_names_the_run_epoch_and_step(tmp_path, capsys, monkeypatch,
                                                           geometry, spoiled, cause):
    # gradients that are not finite at epoch 1 step 1 reach RMSProp, or with
    # only the ball parameters' spoiled, the Riemannian step
    dataset, emb, code, _ = _tiny_model(tmp_path, geometry)
    assert code == 0
    steps = -(-len(data.load_intent_dataset(dataset, 0.15, 0).train_indices) // 4)
    update, calls = train._update, []

    def spoiled_at_epoch_1_step_1(params, grads, opt, manifold, lr):
        calls.append(None)
        if len(calls) == steps + 2:
            grads = {name: g * np.nan if spoiled == "all" or name in manifold else g
                     for name, g in grads.items()}
        return update(params, grads, opt, manifold, lr)

    monkeypatch.setattr(train, "_update", spoiled_at_epoch_1_step_1)
    model = tmp_path / "diverged.bin"
    assert cli.main(["train-classifier", "--geometry", geometry, "--embeddings", str(emb),
                     "--data", str(dataset), "--epochs", "2", "--layers", "1", "--heads", "2",
                     "--batch-size", "4", "--out", str(model)]) == 1
    assert capsys.readouterr().err.endswith(
        f"gyronet train-classifier: error: the model trained for {model}: divergence "
        f"(non-finite update) at epoch 1 step 1: {cause}\n")
    assert not model.exists()


def _tiny_model(tmp_path, geometry, *flags):
    """(dataset, embeddings, train-classifier's exit code, model) of a tiny run."""
    dataset, chars = _tiny_dataset(tmp_path)
    emb = tmp_path / "e.txt"
    kind = "hyperboloid" if geometry == "poincare" else "euclidean"
    rows = embed.init_embeddings(len(chars), 4, kind, np.random.default_rng(0)).A
    embed.write_embeddings(emb, chars, rows, kind)
    model = tmp_path / "model.bin"
    code = cli.main(["train-classifier", "--geometry", geometry, "--embeddings", str(emb),
                     "--data", str(dataset), "--epochs", "1", "--layers", "1",
                     "--heads", "2", "--out", str(model), *flags])
    return dataset, emb, code, model


@pytest.mark.parametrize("geometry", ["poincare", "euclidean"])
def test_cli_evaluate_refuses_a_bundle_whose_scores_overflow(tmp_path, capsys, geometry):
    # wq and wk entries of 1e200: a query's norm overflows on the ball (its
    # row is then NaN, not the origin), the attention logits in flat space
    dataset, emb, code, model = _tiny_model(tmp_path, geometry)
    assert code == 0
    kind, meta, params = bundle.load_bundle(model)
    huge = {name: np.full_like(params[name], 1e200) for name in ("layer0.wq", "layer0.wk")}
    bad = tmp_path / "bad.bin"
    bundle.save_bundle(bad, kind, meta, params | huge)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning is printed
        code = cli.main(["evaluate", "--model", str(bad), "--embeddings", str(emb),
                         "--data", str(dataset), "--split", "all"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"gyronet evaluate: error: {bad}: non-finite class scores or cross-entropy on a "
        f"batch of 18 utterances"]
    assert captured.out == ""


@pytest.mark.parametrize("geometry", ["poincare", "euclidean"])
def test_cli_train_classifier_refuses_held_out_scores_that_overflow(tmp_path, capsys, geometry):
    # no epoch, so no tape: the held-out pass is the first forward, and
    # positions scaled by 1e300 overflow it
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dataset, emb, code, model = _tiny_model(tmp_path, geometry, "--epochs", "0",
                                                "--pe-scale", "1e300")
    assert code == 1 and not model.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"gyronet train-classifier: error: the model trained for {model}: "
                      "non-finite class scores or cross-entropy on a batch of 3 utterances"]


def test_cli_non_finite_embedding_names_file_and_line(tmp_path, capsys):
    dataset, chars = _tiny_dataset(tmp_path)
    emb = tmp_path / "nan.txt"
    matrix = np.full((len(chars), 4), 0.1)
    matrix[2, 1] = np.nan
    embed.write_embeddings(emb, chars, matrix, "euclidean")
    code = cli.main(["train-classifier", "--geometry", "euclidean", "--embeddings", str(emb),
                     "--data", str(dataset), "--epochs", "1", "--layers", "1",
                     "--heads", "2", "--out", str(tmp_path / "m.bin")])
    assert code == 1
    assert f"error: {emb}:4: non-finite coordinate" in capsys.readouterr().err


def test_train_classifier_warns_when_positional_encodings_reach_the_shell(tmp_path, caplog):
    # a sinusoidal encoding row has norm sqrt(d / 2): 7.07 at dim 100, whose
    # exp_0 at scale 1 lies past the 1 - 1e-5 shell, and 2.83 at dim 16
    dataset, chars = _tiny_dataset(tmp_path)
    warned = {}
    for dim, scale in ((100, "1"), (100, "0.863"), (16, "1")):
        emb = tmp_path / f"b{dim}.txt"
        embed.write_embeddings(emb, chars, np.random.default_rng(0).normal(0, 0.01,
                                                                            (len(chars), dim)),
                               "poincare")
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="gyronet"):
            assert cli.main(["train-classifier", "--embeddings", str(emb), "--data",
                             str(dataset), "--epochs", "1", "--layers", "1", "--heads", "2",
                             "--pe-scale", scale, "--out", str(tmp_path / "m.bin")]) == 0
        warned[dim, scale] = [r.getMessage() for r in caplog.records
                              if r.levelno == logging.WARNING]
    assert warned == {
        (100, "1"): ["exp_0 puts 64 of 64 positional encodings on the ball's 1 - 1e-05 shell "
                     "at --pe-scale 1; --pe-scale 0.863 keeps them all inside"],
        (100, "0.863"): [], (16, "1"): []}


def test_train_classifier_runs_when_every_positional_encoding_is_the_origin(tmp_path, caplog):
    # at dim 1 the one encoding of --max-seq-len 1 is sin(0) = 0
    dataset, chars = _tiny_dataset(tmp_path)
    emb = tmp_path / "b1.txt"
    embed.write_embeddings(emb, chars, np.linspace(-0.5, 0.5, len(chars))[:, None], "poincare")
    with caplog.at_level(logging.WARNING, logger="gyronet"):
        assert cli.main(["train-classifier", "--embeddings", str(emb), "--data", str(dataset),
                         "--epochs", "1", "--layers", "1", "--heads", "1",
                         "--max-seq-len", "1", "--out", str(tmp_path / "m.bin")]) == 0
    assert not caplog.records


def _tiny_euclidean_model(tmp_path):
    """(dataset, dim-4 embeddings, one-layer two-head euclidean model) paths."""
    dataset, chars = _tiny_dataset(tmp_path)
    emb = tmp_path / "e.txt"
    embed.write_embeddings(emb, chars, np.random.default_rng(0).normal(0, 0.1, (len(chars), 4)),
                           "euclidean")
    model = tmp_path / "model.bin"
    assert cli.main(["train-classifier", "--geometry", "euclidean", "--embeddings", str(emb),
                     "--data", str(dataset), "--epochs", "1", "--layers", "1",
                     "--heads", "2", "--out", str(model)]) == 0
    return dataset, emb, model


def test_cli_evaluate_refuses_bundle_without_config_key(tmp_path, capsys):
    dataset, emb, model = _tiny_euclidean_model(tmp_path)
    model.write_bytes(model.read_bytes().replace(b"\nmodel_dim=", b"\nmodel_dix="))
    code = cli.main(["evaluate", "--model", str(model), "--embeddings", str(emb),
                     "--data", str(dataset)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {model}: config block lacks key 'model_dim'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    (b"\nout_w 2 4 3\n", b"\nout_x 2 4 3\n", "block 'out_w' is missing; unexpected block 'out_x'"),
    (b"\nout_w 2 4 3\n", b"\nout_w 2 3 4\n",
     "block 'out_w' has shape (3, 4), the config needs (4, 3)"),
    (b"\nnum_layers=1\n", b"\nnum_layers=2\n", "block 'layer1.ffn_b1' is missing"),
    (b"\nnum_layers=1\n", b"\nnum_layers=12\n", "12 layers, but only 11 parameter blocks"),
    (b"\nnum_classes=3\n", b"\nnum_classes=4\n", "3 labels for 4 classes"),
    (b"\nepochs=1\n", b"\nepochs=x\n", "bad config block: invalid literal for int()"),
], ids=["renamed-block", "reshaped-block", "missing-layer", "layers-beyond-blocks",
        "labels-vs-classes", "epochs"])
def test_cli_evaluate_checks_bundle_against_its_config(tmp_path, capsys, old, new, message):
    dataset, emb, model = _tiny_euclidean_model(tmp_path)
    blob = model.read_bytes()
    assert blob.count(old) == 1
    model.write_bytes(blob.replace(old, new))
    code = cli.main(["evaluate", "--model", str(model), "--embeddings", str(emb),
                     "--data", str(dataset)])
    assert code == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("gyronet evaluate: error:")]
    assert len(errors) == 1 and errors[0].startswith(f"gyronet evaluate: error: {model}: ")
    assert message in errors[0]
    assert "Traceback" not in err


def test_cli_evaluate_refuses_embeddings_of_another_dim(tmp_path, capsys):
    dataset, emb, model = _tiny_euclidean_model(tmp_path)
    tokens, _, _ = embed.read_embeddings(emb)
    wide = tmp_path / "wide.txt"
    embed.write_embeddings(wide, tokens, np.full((len(tokens), 6), 0.1), "euclidean")
    code = cli.main(["evaluate", "--model", str(model), "--embeddings", str(wide),
                     "--data", str(dataset)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"gyronet evaluate: error: {model} has model dim 4, but {wide} has dim 6\n" in err
    assert "Traceback" not in err


def test_cli_evaluate_label_mismatch_names_both_files(tmp_path, capsys):
    _, emb, model = _tiny_euclidean_model(tmp_path)
    other = tmp_path / "other.tsv"
    assert cli.main(["gen-data", "--classes", "4", "--per-class", "6",
                     "--vocab-size", "30", "--composites", "1", "--seed", "5",
                     "--out", str(other)]) == 0
    code = cli.main(["evaluate", "--model", str(model), "--embeddings", str(emb),
                     "--data", str(other)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"gyronet evaluate: error: the labels of {other} do not match those of the " \
           f"model {model}\n" in err
    assert "Traceback" not in err


def test_cli_evaluate_refuses_empty_split(tmp_path, capsys):
    dataset, emb, model = _tiny_euclidean_model(tmp_path)
    capsys.readouterr()
    code = cli.main(["evaluate", "--model", str(model), "--embeddings", str(emb),
                     "--data", str(dataset), "--holdout", "0", "--split", "heldout"])
    assert code == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert errors == [f"gyronet evaluate: error: the heldout split of {dataset} is empty "
                      "at --holdout 0.0"]
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def tiny_poincare_model(tmp_path_factory):
    """(dataset, hyperboloid embeddings, one-layer poincare model) paths."""
    tmp_path = tmp_path_factory.mktemp("poincare")
    dataset, chars = _tiny_dataset(tmp_path)
    emb = tmp_path / "h.txt"
    rows = embed.init_embeddings(len(chars), 4, "hyperboloid", np.random.default_rng(0)).A
    embed.write_embeddings(emb, chars, rows, "hyperboloid")
    model = tmp_path / "model.bin"
    assert cli.main(["train-classifier", "--geometry", "poincare", "--embeddings", str(emb),
                     "--data", str(dataset), "--epochs", "1", "--layers", "1",
                     "--heads", "2", "--out", str(model)]) == 0
    return dataset, emb, model


@pytest.mark.parametrize("key, value, message", [
    ("curvature", "-1", "curvature must be 1.0, the unit ball, got '-1'"),
    ("curvature", "0", "curvature must be 1.0, the unit ball, got '0'"),
    ("curvature", "nan", "curvature must be 1.0, the unit ball, got 'nan'"),
    ("curvature", "0.5", "curvature must be 1.0, the unit ball, got '0.5'"),
    ("max_seq_len", "0", "max_seq_len must be >= 1, got 0"),
    ("model_dim", "0", "model_dim must be >= 1, got 0"),
    ("num_heads", "0", "num_heads must be >= 1, got 0"),
    ("head_dim", "0", "head_dim must be >= 1, got 0"),
    ("ffn_dim", "-1", "ffn_dim must be >= 1, got -1"),
    ("num_classes", "0", "num_classes must be >= 1, got 0"),
    ("pe_scale", "inf", "pe_scale must be finite, got inf"),
    ("use_residual", "true", "a bool must be 0 or 1, got 'true'"),
    ("use_residual", "2", "a bool must be 0 or 1, got '2'"),
])
def test_cli_evaluate_refuses_bad_config_values(tiny_poincare_model, tmp_path, capsys, key,
                                                value, message):
    dataset, emb, model = tiny_poincare_model
    geometry, meta, params = bundle.load_bundle(model)
    bad = tmp_path / "bad.bin"
    bundle.save_bundle(bad, geometry, {**meta, key: value}, params)
    capsys.readouterr()
    code = cli.main(["evaluate", "--model", str(bad), "--embeddings", str(emb),
                     "--data", str(dataset)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"gyronet evaluate: error: {bad}: bad config block: {message}"]


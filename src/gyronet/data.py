"""Corpus and intent-dataset plumbing: character ingestion, TSV intent
datasets with stratified splits, and a synthetic intent generator whose
composite classes induce a small label hierarchy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# str.translate's table that deletes exactly the characters str.isspace() accepts
_NO_WHITESPACE = dict.fromkeys(map(ord, "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
                                   "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
                                   "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"))


def ingest_corpus(path, keep_whitespace=False):
    """The characters of a UTF-8 file as one ``str``, read by
    :func:`read_utf8_lines`.

    Line ends always go; other whitespace characters go unless
    ``keep_whitespace``.  Invalid UTF-8 raises ``"<path>:<line>: not valid
    UTF-8"`` and an empty result (after filtering) ``"<path>: empty corpus"``.
    """
    lines = (line for _, line in read_utf8_lines(path))
    if not keep_whitespace:
        # one copy of each line, however long, and no str per word
        lines = (line.translate(_NO_WHITESPACE) for line in lines)
    text = "".join(lines)
    if not text:
        raise ValueError(f"{path}: empty corpus")
    return text


@dataclass
class IntentDataset:
    records: list  # (utterance, label) pairs
    label_to_id: dict
    train_indices: list
    heldout_indices: list

    @property
    def id_to_label(self):
        inv = [None] * len(self.label_to_id)
        for label, i in self.label_to_id.items():
            inv[i] = label
        return inv


def _stratified_split(records, holdout_fraction, seed):
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[int]] = {}
    for i, (_, label) in enumerate(records):
        by_label.setdefault(label, []).append(i)
    train, heldout = [], []
    for label in sorted(by_label):
        idx = np.array(by_label[label])
        rng.shuffle(idx)
        n_hold = int(round(holdout_fraction * len(idx)))
        n_hold = min(n_hold, len(idx) - 1)  # never empty the training side
        heldout.extend(idx[:n_hold].tolist())
        train.extend(idx[n_hold:].tolist())
    train.sort()
    heldout.sort()
    return train, heldout


def make_dataset(records, holdout_fraction=0.15, seed=0):
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError(f"holdout fraction must lie in [0, 1), got {holdout_fraction}")
    labels = sorted({label for _, label in records})
    for _, label in records:
        if not label:
            raise ValueError("empty intent label")
    label_to_id = {label: i for i, label in enumerate(labels)}
    train, heldout = _stratified_split(records, holdout_fraction, seed)
    return IntentDataset(records, label_to_id, train, heldout)


def read_utf8_lines(path):
    """Iterate (line number from 1, line) over a UTF-8 file, the one decoder of
    every text input.  A leading BOM is dropped, and each line comes without
    its end, which is ``\\n``, ``\\r\\n`` or ``\\r``: Python's text mode
    decodes the file 8 KiB at a time.  A file that is not valid UTF-8 raises
    ``ValueError("<path>:<line>: not valid UTF-8")`` before any line is read.
    Its line is found by a second pass of the same reader, which keeps each
    invalid byte as a lone surrogate and streams the lines to the first that
    holds one, so the file's bytes are never held whole."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [line.removesuffix("\n") for line in fh]
    except UnicodeDecodeError:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
        raise  # the file changed between the two passes
    return enumerate(lines, start=1)


def load_intent_dataset(path, holdout_fraction=0.15, seed=0):
    """TSV file, two columns: utterance TAB label; deterministic split.

    Lines are read by :func:`read_utf8_lines`.  Invalid UTF-8, malformed
    lines and empty utterances raise ``ValueError("<path>:<line>: ...")``.
    """
    records = []
    for lineno, line in read_utf8_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1]:
            raise ValueError(f"{path}:{lineno}: malformed line (expected 'utterance<TAB>label')")
        if not parts[0]:
            raise ValueError(f"{path}:{lineno}: empty utterance")
        records.append((parts[0], parts[1]))
    if not records:
        raise ValueError(f"{path}: no records")
    return make_dataset(records, holdout_fraction, seed)


def save_intent_dataset(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for utterance, label in records:
            fh.write(f"{utterance}\t{label}\n")


# the synthetic characters run from U+4E00 up to the surrogates at U+D800
MAX_VOCAB_SIZE = 0xD800 - 0x4E00


def generate_synthetic_intents(num_classes, per_class, vocab_size, seed,
                               composites=2, noise_len=3,
                               holdout_fraction=0.15):
    """Desk-scale synthetic intent dataset.

    Each base class owns 2-4 disjoint signature characters; an utterance is a
    shuffled bag of its class signature plus random noise characters.
    ``composites`` of the classes are labelled "a+b" and mix the signatures of
    two base classes, giving the label set a hierarchical flavour.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if noise_len < 0:
        raise ValueError(f"noise_len must be >= 0, got {noise_len}")
    if composites < 0:
        raise ValueError(f"composites must be >= 0, got {composites}")
    if vocab_size > MAX_VOCAB_SIZE:
        raise ValueError(f"vocab_size must be <= {MAX_VOCAB_SIZE}, got {vocab_size}")
    num_base = num_classes - composites
    if composites > 0 and num_base < 2:
        raise ValueError(f"composites {composites} with num_classes {num_classes} leaves "
                         f"fewer than two base classes to mix")
    if composites > num_base * (num_base - 1) // 2:
        raise ValueError(f"composites {composites} with num_classes {num_classes} leaves "
                         f"{num_base} base classes, too few to pair into {composites} "
                         f"composite classes")
    rng = np.random.default_rng(seed)
    pool = [chr(0x4E00 + i) for i in range(vocab_size)]
    sig_sizes = rng.integers(2, 5, size=num_base)
    total_sig = int(sig_sizes.sum())
    if total_sig + max(4, noise_len) > vocab_size:
        raise ValueError(
            f"vocab_size {vocab_size} too small for {num_base} disjoint signatures"
        )
    order = rng.permutation(vocab_size)
    cursor = 0
    signatures = []
    for size in sig_sizes:
        signatures.append([pool[j] for j in order[cursor:cursor + size]])
        cursor += size
    noise_pool = [pool[j] for j in order[cursor:]]

    classes = [(f"intent_{i}", signatures[i]) for i in range(num_base)]
    used_pairs = set()
    while len(classes) < num_classes:
        a, b = rng.choice(num_base, size=2, replace=False)
        pair = (int(min(a, b)), int(max(a, b)))
        if pair in used_pairs:
            continue
        used_pairs.add(pair)
        a, b = pair
        classes.append((f"intent_{a}+intent_{b}", signatures[a] + signatures[b]))

    records = []
    for label, signature in classes:
        for _ in range(per_class):
            noise = rng.choice(len(noise_pool), size=noise_len)
            chars = signature + [noise_pool[i] for i in noise]
            perm = rng.permutation(len(chars))
            records.append(("".join(chars[i] for i in perm), label))
    return make_dataset(records, holdout_fraction, seed)

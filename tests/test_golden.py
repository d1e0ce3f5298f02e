"""Same-bits ledger: the ``train-embeddings`` outputs of one fixed corpus keep
the sha256 digests recorded in ``golden_hashes.json``.

The corpus covers what a corpus meets on its way to ids: CJK characters of
Zipf-like frequency, characters beyond the BMP, characters rarer than
``--min-count 3``, spaces, tabs and line ends.  Each output is trained in both
geometries with ``--min-count 1``, ``--min-count 3`` and ``--keep-whitespace``.

The digests depend on numpy's random streams and float kernels, so on another
numpy version the test skips and names both versions.  A change that is meant
to move the bits regenerates the ledger with

    PYTHONPATH=src python tests/test_golden.py

and says why the digests moved.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gyronet import cli

LEDGER = Path(__file__).with_name("golden_hashes.json")
TRAIN = ["--dim", "4", "--epochs", "2", "--window", "2", "--negatives", "3", "--seed", "0"]
VARIANTS = {"min-count-1": ["--min-count", "1"], "min-count-3": ["--min-count", "3"],
            "keep-whitespace": ["--keep-whitespace"]}
RUNS = {f"{geometry}-{variant}": ["--geometry", geometry, *flags]
        for geometry in ("euclidean", "hyperboloid") for variant, flags in VARIANTS.items()}


def corpus_text():
    """About 600 characters from 24 symbols, then a tail of rare ones."""
    symbols = ([chr(0x4E00 + 7 * i) for i in range(16)]
               + ["\U00020000", "\U0001F600", " ", "\t", "\n", "　", "！", "é"])
    weights = [1.0 / (k + 1) for k in range(len(symbols))]
    text = "".join(random.Random(16).choices(symbols, weights=weights, k=600))
    return text + "\U00020001龥龥 \U0001F600\n"


def digests(workdir):
    """{run name: sha256 of its embedding file}, trained in ``workdir``."""
    corpus = Path(workdir) / "corpus.txt"
    corpus.write_text(corpus_text(), encoding="utf-8", newline="")
    out = {}
    for name, flags in RUNS.items():
        path = Path(workdir) / f"{name}.txt"
        argv = ["train-embeddings", "--corpus", str(corpus), *TRAIN, *flags, "--out", str(path)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"train-embeddings failed for {name}")
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_train_embeddings_outputs_keep_their_digests(tmp_path):
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    if ledger["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {ledger['numpy']}, "
                    f"this run has numpy {np.__version__}")
    got = digests(tmp_path)
    assert got.keys() == ledger["sha256"].keys()
    moved = [name for name, digest in ledger["sha256"].items() if got[name] != digest]
    assert not moved, f"sha256 moved for: {', '.join(moved)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        ledger = {"numpy": np.__version__, "sha256": digests(workdir)}
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER} ({len(ledger['sha256'])} digests)", file=sys.stderr)

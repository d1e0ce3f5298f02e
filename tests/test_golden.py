"""Same-bits ledger: the outputs of two fixed runs keep the sha256 digests
recorded in ``golden_hashes.json``.

``train-embeddings``: one fixed corpus covers what a corpus meets on its way
to ids: CJK characters of Zipf-like frequency, characters beyond the BMP,
characters rarer than ``--min-count 3``, spaces, tabs and line ends.  Each
output is trained in both geometries with ``--min-count 1``, ``--min-count 3``
and ``--keep-whitespace``.

``pipeline``: one small run of every data-making command, ``gen-data``,
``train-embeddings`` in both geometries, ``convert``, ``train-classifier`` in
both geometries and once more with ``--residual --dropout 0.2`` (bundle and
metrics JSON of each), and ``evaluate --split all``.

The digests depend on numpy's random streams and float kernels and on the BLAS
behind them, so on another numpy or BLAS the tests skip and name both stacks.
A change that is meant to move the bits regenerates the ledger with

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

from gyronet import cli, data

LEDGER = Path(__file__).with_name("golden_hashes.json")
TRAIN = ["--dim", "4", "--epochs", "2", "--window", "2", "--negatives", "3", "--seed", "0"]
VARIANTS = {"min-count-1": ["--min-count", "1"], "min-count-3": ["--min-count", "3"],
            "keep-whitespace": ["--keep-whitespace"]}
RUNS = {f"{geometry}-{variant}": ["--geometry", geometry, *flags]
        for geometry in ("euclidean", "hyperboloid") for variant, flags in VARIANTS.items()}

GEN_DATA = ["--classes", "4", "--per-class", "8", "--vocab-size", "30", "--composites", "1",
            "--noise-len", "2", "--seed", "3"]
CLASSIFY = ["--epochs", "2", "--layers", "1", "--heads", "2", "--batch-size", "8",
            "--holdout", "0.25", "--seed", "1"]
# name -> (classifier geometry, embedding file, extra flags); the residual run
# reads the ball file that convert writes, the others the file they trained
CLASSIFIERS = {
    "poincare": ("poincare", "emb-hyperboloid.txt", []),
    "euclidean": ("euclidean", "emb-euclidean.txt", []),
    "poincare-residual-dropout": ("poincare", "emb-poincare.txt",
                                  ["--residual", "--dropout", "0.2"]),
}


def stack():
    """The numpy version and the BLAS (name and version) that numpy was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def corpus_text():
    """About 600 characters from 24 symbols, then a tail of rare ones."""
    symbols = ([chr(0x4E00 + 7 * i) for i in range(16)]
               + ["\U00020000", "\U0001F600", " ", "\t", "\n", "　", "！", "é"])
    weights = [1.0 / (k + 1) for k in range(len(symbols))]
    text = "".join(random.Random(16).choices(symbols, weights=weights, k=600))
    return text + "\U00020001龥龥 \U0001F600\n"


def _run(*argv):
    argv = [str(arg) for arg in argv]
    if cli.main(argv) != 0:
        raise RuntimeError(f"gyronet {' '.join(argv)} failed")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(workdir):
    """{run name: sha256 of its embedding file}, trained in ``workdir``."""
    corpus = Path(workdir) / "corpus.txt"
    corpus.write_text(corpus_text(), encoding="utf-8", newline="")
    out = {}
    for name, flags in RUNS.items():
        path = Path(workdir) / f"{name}.txt"
        _run("train-embeddings", "--corpus", corpus, *TRAIN, *flags, "--out", path)
        out[name] = _sha256(path)
    return out


def pipeline_digests(workdir):
    """{output file name: sha256} of the pipeline, run in ``workdir``."""
    w = Path(workdir)
    _run("gen-data", *GEN_DATA, "--out", w / "data.txt")
    utterances = [u for u, _ in data.load_intent_dataset(w / "data.txt").records]
    (w / "corpus.txt").write_text("\n".join(utterances) + "\n", encoding="utf-8")
    for geometry in ("hyperboloid", "euclidean"):
        _run("train-embeddings", "--corpus", w / "corpus.txt", "--geometry", geometry, *TRAIN,
             "--out", w / f"emb-{geometry}.txt")
    _run("convert", "--in", w / "emb-hyperboloid.txt", "--out", w / "emb-poincare.txt")
    for name, (geometry, embeddings, flags) in CLASSIFIERS.items():
        _run("train-classifier", "--geometry", geometry, "--embeddings", w / embeddings,
             "--data", w / "data.txt", *CLASSIFY, *flags, "--out", w / f"{name}.bin",
             "--metrics-out", w / f"{name}.metrics.json")
    _run("evaluate", "--model", w / "poincare.bin", "--embeddings", w / "emb-hyperboloid.txt",
         "--data", w / "data.txt", "--holdout", "0.25", "--seed", "1", "--split", "all",
         "--metrics-out", w / "evaluate-all.metrics.json")
    outputs = ["data.txt", "emb-hyperboloid.txt", "emb-euclidean.txt", "emb-poincare.txt",
               *(f"{name}{suffix}" for name in CLASSIFIERS for suffix in (".bin", ".metrics.json")),
               "evaluate-all.metrics.json"]
    return {name: _sha256(w / name) for name in outputs}


SECTIONS = {"train-embeddings": digests, "pipeline": pipeline_digests}


def _check(section, workdir):
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    here = stack()
    recorded = {key: ledger.get(key) for key in here}
    if recorded != here:
        pytest.skip(f"digests recorded with {recorded}, this run has {here}")
    expected = ledger[section]
    got = SECTIONS[section](workdir)
    assert got.keys() == expected.keys()
    moved = [name for name, digest in expected.items() if got[name] != digest]
    assert not moved, f"sha256 moved for: {', '.join(moved)}"


def test_train_embeddings_outputs_keep_their_digests(tmp_path):
    _check("train-embeddings", tmp_path)


def test_pipeline_outputs_keep_their_digests(tmp_path):
    _check("pipeline", tmp_path)


if __name__ == "__main__":
    ledger = dict(stack())
    for section, make in SECTIONS.items():
        with tempfile.TemporaryDirectory() as workdir:
            ledger[section] = make(workdir)
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER} ({sum(len(ledger[s]) for s in SECTIONS)} digests)", file=sys.stderr)

"""The benchmark's workloads: inputs made from a seed, and one round of CLI
commands called in-process through ``gyronet.cli.main``.

Every round of a workload does the same work on the same files, so its
outputs must hash the same round after round.  Output checks are counted in
:class:`Run`; a command that exits non-zero aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gyronet import cli

# CLI --seed for every training command.  Only the input files depend on the
# workload seed.
PROGRAM_SEED = 0
# The speed of a shared host drifts by tens of percent over seconds to
# minutes, and process CPU time drifts with it.  Timed commands are therefore
# bracketed by a fixed calibration loop, and their rates are scaled to a
# machine on which that loop takes CALIBRATION_S seconds.  Keep both fixed.
CALIBRATION_S = 0.1
_EPOCH_LOSS = re.compile(r"^epoch (\d+) loss (\S+)")


@dataclass(frozen=True)
class Sizes:
    """Work per round and per set-up; the same on every commit."""

    corpus_chars: int = 1500
    corpus_symbols: int = 24
    skipgram_dim: int = 10
    skipgram_epochs: int = 2
    window: int = 1
    negatives: int = 2
    classes: int = 8
    per_class: int = 63
    noise_len: int = 3
    embed_dim: int = 16
    embed_epochs: int = 1
    classifier_epochs: int = 1
    holdout: float = 0.15
    setup_reps: int = 3


class CommandFailed(RuntimeError):
    pass


def calibrate():
    """Seconds taken by a fixed mix of interpreter and small-array work, the
    same kind of work as gyronet's."""
    t0 = time.perf_counter()
    x = 0
    for i in range(800_000):
        x += i
    a = np.ones(10)
    for _ in range(16_000):
        a = a * 1.0000001 + 0.0
    return time.perf_counter() - t0


@dataclass
class Command:
    seconds: float  # wall time
    scale: float  # calibration time / CALIBRATION_S around the command; 1 if not calibrated
    log: list

    def rate(self, work):
        """Work per second, scaled to the reference machine speed."""
        return work / self.seconds * self.scale


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class Run:
    """Work directory, CLI invocation, output checks and output hashes."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, set] = {}
        self.tracer = None
        self.calibrating = False  # bracket each command with calibrate()
        self._capture = _Capture()
        self._logger = logging.getLogger("gyronet")
        self._saved_logger = (self._logger.level, self._logger.propagate)
        self._logger.addHandler(self._capture)
        # epoch losses are read from INFO lines; keep them off stderr
        self._logger.setLevel(logging.INFO)
        self._logger.propagate = False

    def close(self):
        self._logger.removeHandler(self._capture)
        self._logger.level, self._logger.propagate = self._saved_logger

    def path(self, name):
        return str(self.workdir / name)

    def cli(self, *argv):
        argv = [str(a) for a in argv]
        self._capture.messages = []
        self.attempted += 1
        before = calibrate() if self.calibrating else CALIBRATION_S
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        # the reports that commands print would mix with the benchmark's own output
        with contextlib.redirect_stdout(io.StringIO()), span:
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # report the command as failed, with its cause
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if rc != 0:
            self.failures.append(f"gyronet {' '.join(argv)}: exit {rc}")
            raise CommandFailed(self.failures[-1])
        after = calibrate() if self.calibrating else CALIBRATION_S
        return Command(seconds, (before + after) / (2 * CALIBRATION_S), self._capture.messages)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def record_hash(self, path):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.hashes.setdefault(Path(path).name, set()).add(digest)

    def check_hashes(self):
        for name, digests in sorted(self.hashes.items()):
            self.check(len(digests) == 1, f"{name}: {len(digests)} different contents across runs")

    def check_losses(self, command, epochs, what):
        losses = epoch_losses(command.log)
        self.check(len(losses) == epochs, f"{what}: {len(losses)} epoch losses, expected {epochs}")
        self.check(all(math.isfinite(x) for x in losses), f"{what}: non-finite loss {losses}")
        return losses[-1] if losses else math.nan

    def check_embeddings(self, path, geometry, rows):
        tokens, matrix = read_embedding_file(path)
        self.check(len(tokens) == rows, f"{path}: {len(tokens)} rows, expected {rows}")
        self.check(bool(np.all(np.isfinite(matrix))), f"{path}: non-finite coordinates")
        if geometry == "hyperboloid":
            drift = np.abs(np.sum(matrix[:, :-1] ** 2, axis=1) - matrix[:, -1] ** 2 + 1.0)
            worst = float(drift.max(initial=0.0))
            self.check(worst < 1e-6, f"{path}: max |<x,x>_L + 1| = {worst:.3e} >= 1e-6")


def epoch_losses(log_lines):
    return [float(m.group(2)) for m in map(_EPOCH_LOSS.match, log_lines) if m]


def read_embedding_file(path):
    """Parse the embedding text format independently of gyronet."""
    with open(path, encoding="utf-8") as fh:
        size, dim, geometry = fh.readline().split()
        cols = int(dim) + (geometry == "hyperboloid")
        lines = [line.rstrip("\n").split(" ") for line in fh]
    tokens = [" ".join(f[:-cols]) for f in lines]
    matrix = np.array([[float(v) for v in f[-cols:]] for f in lines]).reshape(len(lines), cols)
    return tokens, matrix


def skipgram_pairs(n, window):
    """(center, context) pairs of one epoch over ``n`` tokens: each offset
    j in 1..window pairs n - j positions in each direction."""
    return sum(2 * max(n - j, 0) for j in range(1, window + 1))


def train_split_size(labels, holdout):
    """Training rows of the stratified split: per label, round(holdout * n)
    rows are held out, but never all of them."""
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return sum(n - min(int(round(holdout * n)), n - 1) for n in counts.values())


class Skipgram:
    """train-embeddings in both geometries on a Zipf-weighted character corpus."""

    name = "skipgram"
    aliases = {
        "primary_per_s": ("embed_pairs_per_s.hyperboloid", "pairs/s"),
        "primary_loss": ("embed_final_loss.hyperboloid", "nats"),
        "secondary_per_s": ("embed_pairs_per_s.euclidean", "pairs/s"),
        "secondary_loss": ("embed_final_loss.euclidean", "nats"),
    }

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.pairs = skipgram_pairs(sizes.corpus_chars, sizes.window) * sizes.skipgram_epochs
        self.round_pairs = 2 * self.pairs

    def setup(self, run: Run, seed):
        s = self.sizes
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, s.corpus_symbols + 1)
        symbols = rng.choice(s.corpus_symbols, size=s.corpus_chars, p=weights / weights.sum())
        text = "".join(chr(0x4E00 + int(i)) for i in symbols)
        self.vocab = len(set(text))
        self.corpus = run.path("corpus.txt")
        Path(self.corpus).write_text(text, encoding="utf-8")
        run.record_hash(self.corpus)

    def round(self, run: Run):
        s = self.sizes
        result = {}
        for geometry, role in (("hyperboloid", "primary"), ("euclidean", "secondary")):
            out = run.path(f"emb-{geometry}.txt")
            cmd = run.cli("train-embeddings", "--corpus", self.corpus, "--geometry", geometry,
                          "--dim", s.skipgram_dim, "--epochs", s.skipgram_epochs,
                          "--window", s.window, "--negatives", s.negatives,
                          "--seed", PROGRAM_SEED, "--out", out)
            result[f"{role}_loss"] = run.check_losses(cmd, s.skipgram_epochs, out)
            result[f"{role}_per_s"] = cmd.rate(self.pairs)
            result[f"raw_{role}_per_s"] = self.pairs / cmd.seconds
            run.check_embeddings(out, geometry, self.vocab)
            run.record_hash(out)
        return result

    def final_checks(self, run: Run):
        pass


class Classify:
    """train-classifier then evaluate --split all on the synthetic K=8 set."""

    aliases = {
        "primary_per_s": ("train_utt_per_s", "utt/s"),
        "primary_loss": ("train_final_loss", "nats"),
        "secondary_per_s": ("eval_utt_per_s", "utt/s"),
        "secondary_loss": ("eval_cross_entropy", "nats"),
        "heldout_accuracy": ("heldout_accuracy", "fraction"),
    }
    round_pairs = 0

    def __init__(self, geometry, sizes: Sizes):
        self.geometry = geometry
        self.embed_geometry = "hyperboloid" if geometry == "poincare" else "euclidean"
        self.name = f"classify-{geometry}"
        self.sizes = sizes

    def setup(self, run: Run, seed):
        s = self.sizes
        self.data = run.path("data.tsv")
        run.cli("gen-data", "--classes", s.classes, "--per-class", s.per_class,
                "--noise-len", s.noise_len, "--seed", seed, "--out", self.data)
        with open(self.data, encoding="utf-8") as fh:
            records = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
        self.total_utts = len(records)
        self.train_utts = train_split_size([label for _, label in records], s.holdout)
        corpus = "".join(utterance for utterance, _ in records)
        corpus_path = run.path("corpus.txt")
        Path(corpus_path).write_text(corpus, encoding="utf-8")
        self.embeddings = run.path(f"emb-{self.embed_geometry}.txt")
        cmd = run.cli("train-embeddings", "--corpus", corpus_path,
                      "--geometry", self.embed_geometry, "--dim", s.embed_dim,
                      "--epochs", s.embed_epochs, "--window", s.window,
                      "--negatives", s.negatives, "--seed", PROGRAM_SEED,
                      "--out", self.embeddings)
        run.check_losses(cmd, s.embed_epochs, self.embeddings)
        run.check_embeddings(self.embeddings, self.embed_geometry, len(set(corpus)))
        for path in (self.data, self.embeddings):
            run.record_hash(path)

    def _common(self):
        return ("--embeddings", self.embeddings, "--data", self.data,
                "--holdout", self.sizes.holdout, "--seed", PROGRAM_SEED)

    def round(self, run: Run):
        s = self.sizes
        self.model = run.path("model.bin")
        self.metrics = run.path("train-metrics.json")
        cmd = run.cli("train-classifier", "--geometry", self.geometry, *self._common(),
                      "--epochs", s.classifier_epochs, "--out", self.model,
                      "--metrics-out", self.metrics)
        loss = run.check_losses(cmd, s.classifier_epochs, self.model)
        report = self._read_report(run, self.metrics)
        eval_path = run.path("eval-all.json")
        ev = run.cli("evaluate", "--model", self.model, *self._common(),
                     "--split", "all", "--metrics-out", eval_path)
        evaluation = self._read_report(run, eval_path)
        for path in (self.model, self.metrics, eval_path):
            run.record_hash(path)
        train_work = self.train_utts * s.classifier_epochs
        return {
            "primary_per_s": cmd.rate(train_work),
            "raw_primary_per_s": train_work / cmd.seconds,
            "primary_loss": loss,
            "secondary_per_s": ev.rate(self.total_utts),
            "raw_secondary_per_s": self.total_utts / ev.seconds,
            "secondary_loss": evaluation["cross_entropy"],
            "heldout_accuracy": report["accuracy"],
        }

    def _read_report(self, run, path):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        run.check(math.isfinite(report["cross_entropy"]),
                  f"{path}: non-finite cross-entropy {report['cross_entropy']}")
        run.check(0.0 <= report["accuracy"] <= 1.0, f"{path}: accuracy {report['accuracy']}")
        return report

    def final_checks(self, run: Run):
        """evaluate --split heldout must reproduce train-classifier's accuracy."""
        path = run.path("eval-heldout.json")
        run.cli("evaluate", "--model", self.model, *self._common(),
                "--split", "heldout", "--metrics-out", path)
        with open(path, encoding="utf-8") as fh:
            heldout = json.load(fh)["accuracy"]
        with open(self.metrics, encoding="utf-8") as fh:
            trained = json.load(fh)["accuracy"]
        run.check(heldout == trained,
                  f"evaluate --split heldout accuracy {heldout} != train-classifier {trained}")


def make_workload(name, sizes: Sizes = Sizes()):
    if name == "skipgram":
        return Skipgram(sizes)
    if name in ("classify-poincare", "classify-euclidean"):
        return Classify(name.split("-", 1)[1], sizes)
    raise ValueError(f"unknown workload '{name}'")

"""Tests of the benchmark itself: tape-node counts, the pair-count formula,
and that tracing changes no output and leaves no wrapper behind."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402

from gyronet import diffcore, embed, optim, train  # noqa: E402

SMALL = workloads.Sizes(corpus_chars=300, skipgram_epochs=1, per_class=6, setup_reps=1)


def _measure(name, tmp_path, trace, sizes=SMALL):
    workdir = tmp_path / f"{name}-{trace}"
    workdir.mkdir()
    run = workloads.Run(workdir)
    try:
        metrics, _ = bench_run.measure(run, name, 3, 0.0, trace, 0.0, sizes)
    finally:
        run.close()
    assert run.failures == []
    return run, metrics


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench")
    return {(name, trace): _measure(name, tmp_path, trace)
            for name in bench_run.WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("name", bench_run.WORKLOADS)
def test_traced_outputs_are_byte_identical(measured, name):
    untraced, _ = measured[(name, 0)]
    traced, _ = measured[(name, 1)]
    assert untraced.hashes == traced.hashes
    assert all(len(digests) == 1 for digests in traced.hashes.values())


def test_tracer_restores_every_wrapped_attribute():
    owners = list(bench_tracer.MODULES) + [diffcore.Tape, optim.RmsProp, train.TokenMap]
    before = {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}
    tr = bench_tracer.Tracer()
    with tr.installed():
        assert diffcore.Tape.record is not before[(diffcore.Tape, "record")]
        assert train.rsgd_step_poincare is not before[(train, "rsgd_step_poincare")]
        assert embed.exp_map_hyperboloid is not before[(embed, "exp_map_hyperboloid")]
    after = {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("noise_len", [3, 9])
def test_nodes_per_step_pinned_whatever_the_sequence_length(tmp_path, noise_len):
    sizes = workloads.Sizes(corpus_chars=300, per_class=6, setup_reps=1, noise_len=noise_len)
    _, poincare = _measure("classify-poincare", tmp_path, 1, sizes)
    _, euclidean = _measure("classify-euclidean", tmp_path, 1, sizes)
    assert poincare["diffcore.nodes_per_step"] == 1251
    assert euclidean["diffcore.nodes_per_step"] == 166
    assert poincare["diffcore.nodes.ball_project"] == 67
    assert poincare["diffcore.nodes.norm"] == 76
    assert poincare["diffcore.nodes.leaf"] == 278
    assert euclidean["diffcore.nodes.matmul"] == 35
    for metrics, total in ((poincare, 1251), (euclidean, 166)):
        per_op = sum(metrics[f"diffcore.nodes.{op}"] for op in bench_tracer.OPS)
        assert per_op + metrics["diffcore.nodes.other"] == total


def test_bypass_counts_are_zero(measured):
    _, skipgram = measured[("skipgram", 1)]
    _, euclidean = measured[("classify-euclidean", 1)]
    _, poincare = measured[("classify-poincare", 1)]
    for name, value in skipgram.items():
        if name.startswith(("diffcore.", "hypformer.", "diffgeom.")):
            assert value == 0, name
    for name, value in euclidean.items():
        if name.startswith("diffgeom."):
            assert value == 0, name
    assert euclidean["optim.rsgd_calls"] == 0
    assert poincare["optim.rsgd_calls"] > 0
    assert poincare["diffgeom.mobius_add.calls"] > 0
    assert skipgram["embed.pairs"] == 2 * workloads.skipgram_pairs(SMALL.corpus_chars,
                                                                    SMALL.window)
    assert skipgram["embed.loss_calls"] == skipgram["embed.pairs"]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40])
@pytest.mark.parametrize("window", [1, 2, 5])
def test_pair_count_matches_generate_pairs(n, window):
    tokens = [chr(0x4E00 + i % 4) for i in range(max(n, 1))]
    vocab = embed.build_vocab(tokens)
    ids = vocab.encode(tokens)[:n]
    brute = sum(1 for _ in embed.generate_pairs(ids, window, 2, vocab,
                                               np.random.default_rng(0)))
    assert workloads.skipgram_pairs(n, window) == brute


def test_benchmark_json_names_every_emitted_metric(measured):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench_run.END_TO_END.items())
    layer_names = bench_run.per_layer_names()
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == bench_run.unit_of(m["name"]) for m in spec["per_layer"])
    for (_, trace), (_, metrics) in measured.items():
        expected = layer_names if trace else bench_run.END_TO_END
        assert set(metrics) == set(expected)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "skipgram",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_command_is_counted(tmp_path):
    run = workloads.Run(tmp_path)
    try:
        with pytest.raises(workloads.CommandFailed):
            run.cli("evaluate", "--model", tmp_path / "missing.bin",
                    "--embeddings", tmp_path / "missing.txt", "--data", tmp_path / "missing.tsv")
    finally:
        run.close()
    assert (run.attempted, len(run.failures)) == (1, 1)

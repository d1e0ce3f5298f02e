"""Acceptance suite.

One test per acceptance criterion, each printing a one-line verdict with its
measured error/accuracy and runtime.  Criteria 7 and 8 share one pair of
end-to-end training runs through a session fixture.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from gradcheck import check_gradient
from gyronet import checks, cli, data, embed
from gyronet import diffcore as dc
from gyronet import geometry as geo
from gyronet import hypformer as hf
from gyronet import train
from gyronet.checks import random_ball_points


def _verdict(num, name, detail):
    print(f"[criterion {num:02d}] {name}: {detail} PASS")


# ---------------------------------------------------------------------------
# 1. Gyrovector axiom suite
# ---------------------------------------------------------------------------

def test_01_gyrovector_axioms():
    t0 = time.monotonic()
    result = checks.gyro_axioms_suite(seed=0)
    elapsed = time.monotonic() - t0
    assert result.passed, f"max error {result.max_error:.3e}"
    assert elapsed < 5.0
    _verdict(1, "gyrovector axioms (1e4 triples)",
             f"max_err {result.max_error:.2e} < 1e-8 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. exp/log round trips + bias identity
# ---------------------------------------------------------------------------

def test_02_exp_log_round_trips():
    t0 = time.monotonic()
    result = checks.exp_log_suite(seed=1)
    elapsed = time.monotonic() - t0
    assert result.passed, f"max error {result.max_error:.3e}"
    assert elapsed < 5.0
    _verdict(2, "exp/log round trips + bias_translate == mobius_add",
             f"max_err {result.max_error:.2e} < 1e-8 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Model isometry
# ---------------------------------------------------------------------------

def test_03_model_isometry():
    t0 = time.monotonic()
    result = checks.isometry_suite(seed=2)
    rng = np.random.default_rng(3)
    y = random_ball_points(rng, 1000, 3, radius=0.9)
    drift = np.abs(geo.to_poincare(geo.to_hyperboloid(y)) - y).max()
    elapsed = time.monotonic() - t0
    assert result.passed, f"max error {result.max_error:.3e}"
    assert drift < 1e-9
    assert elapsed < 5.0
    _verdict(3, "hyperboloid/ball isometry",
             f"distance_err {result.max_error:.2e} < 1e-6, "
             f"round_trip {drift:.2e} < 1e-9 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Explicit Minkowski gradients vs finite differences
# ---------------------------------------------------------------------------

def _flip_last(g):
    out = np.array(g, dtype=float)
    out[..., -1] *= -1.0
    return out


def test_04_minkowski_gradient_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    worst = 0.0
    worst_invariant = 0.0
    for trial in range(50):
        vocab_size = int(rng.integers(4, 9))
        dim = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        theta = float(rng.uniform(0.0, 2.0))
        E = embed.init_embeddings(vocab_size, dim, "hyperboloid", rng)
        E.A = geo.to_hyperboloid(random_ball_points(rng, vocab_size, dim, radius=0.6))
        E.B = geo.to_hyperboloid(random_ball_points(rng, vocab_size, dim, radius=0.6))
        ids = rng.integers(0, vocab_size, size=m + 2)
        pair = embed.TrainingPair(int(ids[0]), int(ids[1]), [int(i) for i in ids[2:]])
        grad_a, grads_b = embed.minkowski_gradients(pair, E, theta)

        def ll_a(row):
            E2 = embed.EmbeddingMatrices(E.A.copy(), E.B, "hyperboloid")
            E2.A[pair.center] = row
            return embed.pair_log_likelihood(pair, E2, theta)

        report = check_gradient(ll_a, E.A[pair.center], _flip_last(grad_a))
        worst = max(worst, report.max_rel_err)
        for wid, gb in grads_b.items():
            def ll_b(row, wid=wid):
                E2 = embed.EmbeddingMatrices(E.A, E.B.copy(), "hyperboloid")
                E2.B[wid] = row
                return embed.pair_log_likelihood(pair, E2, theta)
            report = check_gradient(ll_b, E.B[wid], _flip_last(gb))
            worst = max(worst, report.max_rel_err)
        # Riemannian SGD preserves the carrier invariant
        new = embed.rsgd_step_hyperboloid(E.A[pair.center], -grad_a, 0.05)
        worst_invariant = max(worst_invariant,
                              abs(float(geo.lorentz_inner(new, new)) + 1.0))
    elapsed = time.monotonic() - t0
    assert worst < 1e-4
    assert worst_invariant < 1e-9
    assert elapsed < 30.0
    _verdict(4, "Minkowski gradients vs finite differences (50 configs)",
             f"rel_err {worst:.2e} < 1e-4, invariant drift "
             f"{worst_invariant:.2e} < 1e-9 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Full-model gradient check
# ---------------------------------------------------------------------------

def _full_model_gradcheck(seed):
    cfg = hf.TransformerConfig(geometry="poincare", model_dim=8, num_layers=1,
                               num_heads=2, head_dim=4, ffn_dim=8,
                               num_classes=3, max_seq_len=4)
    rng = np.random.default_rng(seed)
    params_np = hf.init_params(cfg, rng, gain=0.3)
    # move manifold parameters off the origin: at exactly zero bias the lifted
    # ReLU can sit on its kink, where finite differences are meaningless
    for name in sorted(hf.manifold_param_names(cfg) | {"unk"}):
        params_np[name] = params_np[name] + rng.normal(
            0.0, 0.02, params_np[name].shape)
    pts = random_ball_points(rng, 3, 8, radius=0.3).reshape(1, 3, 8)
    labels = np.array([seed % 3])

    def record(params):
        tape = dc.Tape()
        tensors = {k: tape.leaf(v, requires_grad=True) for k, v in params.items()}
        scores = hf.classifier_forward(tensors, tape.constant(pts),
                                       np.ones((1, 3)), cfg)
        return tape, tensors, hf.cross_entropy(scores, labels)

    tape, tensors, loss = record(params_np)
    grads = dc.backward(tape, loss)
    worst = 0.0
    for name in sorted(params_np):
        def fn(arr, name=name):  # finite differences read only the loss value
            return float(record({**params_np, name: arr})[2].value)

        report = check_gradient(fn, params_np[name].copy(), grads[tensors[name]])
        worst = max(worst, report.max_rel_err)
    return worst


def test_05_full_model_gradient_check():
    t0 = time.monotonic()
    worst = max(_full_model_gradcheck(seed) for seed in range(10))
    elapsed = time.monotonic() - t0
    assert worst < 1e-4
    assert elapsed < 120.0
    _verdict(5, "full classifier gradients vs finite differences (10 settings)",
             f"rel_err {worst:.2e} < 1e-4 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Skip-gram desk run
# ---------------------------------------------------------------------------

def test_06_skipgram_desk_run():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    # Zipf-weighted character soup, > 1e4 characters
    weights = 1.0 / np.arange(1, 25)
    weights /= weights.sum()
    symbols = rng.choice(24, size=10_500, p=weights)
    tokens = [chr(0x4E00 + int(i)) for i in symbols]
    cfg = embed.SkipgramConfig(geometry="hyperboloid", dim=10, mu=1, m=2,
                               epochs=10, lr=0.05, seed=0)
    E, _, history = embed.train_skipgram(tokens, cfg)
    elapsed = time.monotonic() - t0
    assert len(history) == 10
    for prev, cur in zip(history, history[1:]):
        assert cur <= prev * 1.01, f"loss uptick {prev:.4f} -> {cur:.4f}"
    np.testing.assert_allclose(geo.lorentz_inner(E.A, E.A), -1.0, atol=1e-6)
    assert elapsed < 180.0
    _verdict(6, "skip-gram desk run (1e4 chars, d=10 hyperboloid, 10 epochs)",
             f"loss {history[0]:.4f} -> {history[-1]:.4f} monotone within 1% "
             f"in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7/8. End-to-end classification and the informational Table-1 comparison
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def end_to_end_runs(tmp_path_factory):
    """Train the hyperbolic model and the euclidean baseline under the
    identical harness on the synthetic K=8 dataset (~400 train / ~100 held
    out); returns per-geometry metrics."""
    root = tmp_path_factory.mktemp("endtoend")
    dataset = data.generate_synthetic_intents(8, 63, 48, seed=1, composites=2,
                                              holdout_fraction=0.2)
    corpus = [ch for utt, _ in dataset.records for ch in utt]
    results = {}
    for geometry, emb_geometry in (("poincare", "hyperboloid"),
                                   ("euclidean", "euclidean")):
        t0 = time.monotonic()
        emb_cfg = embed.SkipgramConfig(geometry=emb_geometry, dim=16, mu=1, m=2,
                                       epochs=2, seed=0)
        E, vocab, _ = embed.train_skipgram(corpus, emb_cfg)
        emb_path = root / f"emb-{emb_geometry}.txt"
        embed.write_embeddings(emb_path, vocab.id_to_token, E.A, emb_geometry)
        token_map = train.load_embedding_points(emb_path, geometry)
        config = hf.TransformerConfig(geometry=geometry, model_dim=16,
                                      num_layers=2, num_heads=4, head_dim=4,
                                      ffn_dim=32, num_classes=8)
        settings = train.TrainSettings(epochs=30, batch_size=16, seed=0,
                                       lr=0.001, manifold_lr=0.05)
        params, history = train.train_classifier(dataset, token_map, config, settings)
        train_metrics = train.evaluate_classifier(
            dataset, dataset.train_indices, token_map, params, config)
        heldout_metrics = train.evaluate_classifier(
            dataset, dataset.heldout_indices, token_map, params, config)
        results[geometry] = {
            "train_accuracy": train_metrics["accuracy"],
            "heldout_accuracy": heldout_metrics["accuracy"],
            "heldout_cross_entropy": heldout_metrics["cross_entropy"],
            "epochs": settings.epochs,
            "seconds": time.monotonic() - t0,
            "train_size": len(dataset.train_indices),
            "heldout_size": len(dataset.heldout_indices),
        }
    return results


def test_07_end_to_end_classification(end_to_end_runs):
    hyp = end_to_end_runs["poincare"]
    eucl = end_to_end_runs["euclidean"]
    assert 380 <= hyp["train_size"] <= 420
    assert 80 <= hyp["heldout_size"] <= 120
    assert hyp["epochs"] <= 100
    assert hyp["train_accuracy"] >= 0.95
    assert hyp["heldout_accuracy"] >= 0.90
    assert hyp["seconds"] < 600.0
    # the baseline must complete under the identical harness and report both
    # Table-1 metrics
    assert eucl["seconds"] < 600.0
    assert 0.0 <= eucl["heldout_accuracy"] <= 1.0
    assert np.isfinite(eucl["heldout_cross_entropy"])
    _verdict(7, "end-to-end classification (K=8, dim 16, N=2, 4 heads)",
             f"hyperbolic train {hyp['train_accuracy']:.3f} >= 0.95, "
             f"heldout {hyp['heldout_accuracy']:.3f} >= 0.90 "
             f"({hyp['epochs']} epochs, {hyp['seconds']:.0f}s); "
             f"euclidean baseline completed ({eucl['seconds']:.0f}s)")


def test_08_table1_not_reproducible_informational(end_to_end_runs):
    """The paper's Table 1 (94.0-96.9% over 16,332 proprietary utterances,
    125 intents) cannot be reproduced at desk scale; the relative ordering is
    reported informationally on the synthetic dataset and is not a gate."""
    hyp = end_to_end_runs["poincare"]
    eucl = end_to_end_runs["euclidean"]
    ordering = ("hyperbolic >= euclidean"
                if hyp["heldout_accuracy"] >= eucl["heldout_accuracy"]
                else "euclidean > hyperbolic")
    print("[criterion 08] Table 1 comparison is informational only "
          "(proprietary dataset, not reproducible at desk scale):")
    for name, run in (("hyperbolic", hyp), ("euclidean", eucl)):
        print(f"    {name:10s} heldout accuracy {run['heldout_accuracy']:.3f}  "
              f"cross-entropy {run['heldout_cross_entropy']:.4f}")
    print(f"    relative ordering on synthetic data: {ordering} (not a gate)")
    _verdict(8, "Table-1 non-reproducibility report", "reported informationally,")


# ---------------------------------------------------------------------------
# 9. Determinism of every command
# ---------------------------------------------------------------------------

def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_09_cli_determinism(tmp_path):
    t0 = time.monotonic()
    outputs = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        dataset = d / "data.tsv"
        assert cli.main(["gen-data", "--classes", "4", "--per-class", "8",
                         "--vocab-size", "32", "--composites", "1",
                         "--seed", "11", "--out", str(dataset)]) == 0
        corpus = d / "corpus.txt"
        corpus.write_text(
            "".join(u for u, _ in data.load_intent_dataset(dataset).records),
            encoding="utf-8")
        emb = d / "emb.txt"
        assert cli.main(["train-embeddings", "--corpus", str(corpus),
                         "--dim", "6", "--epochs", "2", "--window", "1",
                         "--negatives", "2", "--seed", "11", "--out", str(emb)]) == 0
        conv = d / "conv.txt"
        assert cli.main(["convert", "--in", str(emb), "--out", str(conv)]) == 0
        model = d / "model.bin"
        assert cli.main(["train-classifier", "--embeddings", str(emb),
                         "--data", str(dataset), "--epochs", "2",
                         "--layers", "1", "--heads", "2", "--seed", "11",
                         "--out", str(model)]) == 0
        evaluation = d / "eval.json"
        assert cli.main(["evaluate", "--model", str(model),
                         "--embeddings", str(emb), "--data", str(dataset),
                         "--seed", "11", "--metrics-out", str(evaluation)]) == 0
        outputs[tag] = {p.name: _sha(p) for p in
                        (dataset, emb, conv, model, d / "model.bin.metrics.json",
                         evaluation)}
    elapsed = time.monotonic() - t0
    assert outputs["one"] == outputs["two"]
    assert elapsed < 60.0
    _verdict(9, "determinism (byte-identical outputs for every command)",
             f"{len(outputs['one'])} artifacts hash-identical in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. Mutation sentinel for the conversion denominator
# ---------------------------------------------------------------------------

def test_10_mutation_sentinel_conversion_denominator(monkeypatch):
    def broken_to_hyperboloid(y):
        # the (1 - ||y||) denominator as printed, instead of (1 - ||y||^2)
        y = np.asarray(y, dtype=float)
        y2 = np.sum(y * y, axis=-1, keepdims=True)
        num = np.concatenate([2.0 * y, 1.0 + y2], axis=-1)
        return num / (1.0 - np.sqrt(y2))

    healthy = checks.isometry_suite(seed=2)
    assert healthy.passed
    monkeypatch.setattr(geo, "to_hyperboloid", broken_to_hyperboloid)
    mutated = checks.isometry_suite(seed=2)
    assert not mutated.passed, "isometry suite failed to catch the typo mutation"
    _verdict(10, "mutation sentinel (printed conversion denominator)",
             f"mutant max_err {mutated.max_error:.2e} rejected,")


# ---------------------------------------------------------------------------
# Mutation sentinels for the transport and scalar suites, at their fixed sizes
# ---------------------------------------------------------------------------

def test_transport_suite_catches_swapped_cosh_and_sinh(monkeypatch):
    def broken_transport(x, y, w):
        # the geodesic's cosh and sinh swapped in the component that rotates
        v = geo.log_map_hyperboloid(x, y)
        nv = geo._lorentz_norm(v)
        vhat = v / np.maximum(nv, 1e-15)
        wv = geo.lorentz_inner(w, vhat, keepdims=True)
        return wv * (np.cosh(nv) * x + np.sinh(nv) * vhat) + (w - wv * vhat)

    assert checks.transport_suite().passed
    monkeypatch.setattr(geo, "hyperboloid_parallel_transport", broken_transport)
    mutated = checks.transport_suite()
    assert not mutated.passed, "transport suite failed to catch the swapped cosh and sinh"


def test_scalar_distributivity_suite_catches_a_missing_artanh(monkeypatch):
    def broken_scalar_mul(r, x):
        # tanh(r ||x||) for tanh(r artanh ||x||)
        x = np.asarray(x, dtype=float)
        n = np.linalg.norm(x, axis=-1, keepdims=True)
        return geo.project_to_ball(np.tanh(r * n) * x / np.maximum(n, 1e-15))

    assert checks.scalar_distributivity_suite().passed
    monkeypatch.setattr(geo, "mobius_scalar_mul", broken_scalar_mul)
    mutated = checks.scalar_distributivity_suite()
    assert not mutated.passed, "scalar suite failed to catch the missing artanh"

"""Tests for RMSProp, Poincare Riemannian SGD, and the classifier's warm restart."""

import warnings

import numpy as np
import pytest

from gyronet import data, train
from gyronet import geometry as geo
from gyronet import hypformer as hf
from gyronet.optim import EPS, RHO, RmsProp, rsgd_step_poincare


def test_rmsprop_zero_gradient():
    opt = RmsProp(lr=0.01)
    param = np.array([1.0, -2.0])
    opt.step("p", param, np.array([1.0, 1.0]))  # seed the accumulator
    acc_before = opt.acc["p"].copy()
    new = opt.step("p", param, np.zeros(2))
    np.testing.assert_array_equal(new, param)
    assert np.all(opt.acc["p"] < acc_before)  # accumulator decays


def test_rmsprop_first_step_value():
    lr = 0.01
    g = np.array([0.5, -2.0])
    opt = RmsProp(lr=lr)
    new = opt.step("p", np.zeros(2), g)
    expect = -lr * g / np.sqrt((1.0 - RHO) * g * g + EPS)
    np.testing.assert_allclose(new, expect, atol=1e-12)


def test_rmsprop_adaptive_damping():
    g = np.array([0.5])
    first = RmsProp(lr=0.01).step("p", np.zeros(1), g)
    doubled = RmsProp(lr=0.01).step("p", np.zeros(1), 2.0 * g)
    assert abs(doubled[0]) < 2.0 * abs(first[0])


def test_rmsprop_deterministic():
    runs = []
    for _ in range(2):
        opt = RmsProp(lr=0.01)
        param = np.array([1.0, 2.0])
        for g in ([0.1, -0.2], [0.3, 0.0], [0.05, 0.05]):
            param = opt.step("p", param, np.array(g))
        runs.append(param)
    np.testing.assert_array_equal(runs[0], runs[1])


def test_rmsprop_rejects_non_finite():
    opt = RmsProp()
    with pytest.raises(ValueError):
        opt.step("p", np.zeros(1), np.array([np.nan]))


@pytest.mark.parametrize("param", [np.zeros(3), np.array([0.3, 0.1, 0.0])],
                         ids=["origin", "interior"])
@pytest.mark.parametrize("grad", [[1e200, 0.0, 0.0], [1e160, 1e160, 0.0]])
def test_rsgd_poincare_refuses_a_step_whose_norm_overflows(param, grad):
    # the step is finite, its norm is not: the map would make it no step at all
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            rsgd_step_poincare(param, np.array(grad), 0.05)
    assert str(info.value) == "non-finite step in rsgd_step_poincare"


def test_rsgd_poincare_zero_grad():
    p = np.array([0.3, -0.1])
    np.testing.assert_allclose(rsgd_step_poincare(p, np.zeros(2), 0.05), p, atol=1e-12)


def test_rsgd_poincare_origin_metric_factor():
    g = np.array([0.4, 0.0])
    lr = 0.1
    out = rsgd_step_poincare(np.zeros(2), g, lr)
    expect = geo.exp_map_poincare(np.zeros(2), -lr * g / 4.0)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_rsgd_poincare_descends_distance_objective():
    target = np.array([0.5, 0.2])
    x = np.array([-0.3, 0.4])
    for _ in range(200):
        # euclidean gradient of d(x, target)^2 via finite differences
        g = np.zeros(2)
        h = 1e-6
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            g[i] = (geo.poincare_distance(xp, target) ** 2
                    - geo.poincare_distance(xm, target) ** 2) / (2 * h)
        before = geo.poincare_distance(x, target)
        x = rsgd_step_poincare(x, g, 0.05)
        assert geo.poincare_distance(x, target) <= before + 1e-12
    assert geo.poincare_distance(x, target) < 0.01


def test_rsgd_poincare_stays_in_ball():
    rng = np.random.default_rng(0)
    x = np.array([0.9, 0.0])
    for _ in range(50):
        x = rsgd_step_poincare(x, rng.normal(size=2) * 10.0, 0.5)
        assert np.linalg.norm(x) <= 1.0 - geo.EPS_BOUNDARY + 1e-12
    with pytest.raises(ValueError):
        rsgd_step_poincare(x, np.array([np.inf, 0.0]), 0.1)


def _train_logging_restarts(monkeypatch, epochs, restart_epoch):
    """Train a tiny euclidean classifier; returns (log lines, one entry per
    reset: whether it emptied accumulators that earlier steps had filled)."""
    dataset = data.generate_synthetic_intents(3, 4, 30, seed=0, composites=0, noise_len=1)
    chars = sorted({ch for utterance, _ in dataset.records for ch in utterance})
    token_map = train.TokenMap(chars, np.random.default_rng(0).normal(0, 0.1, (len(chars), 4)))
    config = hf.TransformerConfig(geometry="euclidean", model_dim=4, num_layers=1,
                                  num_heads=2, head_dim=2, ffn_dim=4, num_classes=3)
    resets = []

    class SpyRmsProp(RmsProp):
        def reset(self):
            filled = bool(self.acc)
            super().reset()
            resets.append(filled and not self.acc)

    monkeypatch.setattr(train, "RmsProp", SpyRmsProp)
    log = []
    settings = train.TrainSettings(epochs=epochs, batch_size=8, restart_epoch=restart_epoch)
    train.train_classifier(dataset, token_map, config, settings, log_fn=log.append)
    return log, resets


def test_restart_schedule_no_op_away_from_restart(monkeypatch):
    # an explicit restart epoch, then the default: the epoch midpoint
    for epochs, restart_epoch, expected in ((4, 1, 1), (5, -1, 2)):
        log, resets = _train_logging_restarts(monkeypatch, epochs, restart_epoch)
        assert len(resets) == 1
        line = f"epoch {expected} restart lr 0.001"
        assert [entry for entry in log if "restart" in entry] == [line]
        # the restart comes before the first batch of its epoch
        at = log.index(line)
        assert log[at - 1].startswith(f"epoch {expected - 1} loss ")
        assert log[at + 1].startswith(f"epoch {expected} loss ")


def test_restart_schedule_resets_state(monkeypatch):
    for epochs, restart_epoch in ((4, 1), (5, -1)):
        _, resets = _train_logging_restarts(monkeypatch, epochs, restart_epoch)
        # the one reset empties accumulators that earlier steps had filled
        assert resets == [True]


# ---------------------------------------------------------------------------
# The classifier's update: one Riemannian step per row width
# ---------------------------------------------------------------------------

_WIDTHS = {"desk": dict(model_dim=16, num_heads=4, head_dim=4, ffn_dim=32),
           "paper": dict(model_dim=100, num_heads=4, head_dim=25, ffn_dim=200)}


def _update_case(size, seed=0):
    """(config, parameters, gradients by name): ball parameters inside the
    ball, some rows near its shell and one at the origin, and gradients large
    enough that some steps reach the shell."""
    cfg = hf.TransformerConfig(geometry="poincare", num_layers=2, **_WIDTHS[size])
    rng = np.random.default_rng(seed)
    params = hf.init_params(cfg, rng)
    for name in hf.manifold_param_names(cfg):
        rows = rng.normal(size=params[name].shape)
        radius = rng.choice([0.0, 0.5, 1.0 - 2e-5], size=rows.shape[:-1] + (1,))
        params[name] = rows * radius / np.linalg.norm(rows, axis=-1, keepdims=True)
    grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3) for name, p in
             params.items()}
    return cfg, params, grads


def _reference_update(params, grads, opt, manifold, lr):
    """Each parameter's own step, in sorted order, as training first did it."""
    for name in sorted(params):
        if name in manifold:
            params[name] = rsgd_step_poincare(params[name], grads[name], lr)
        else:
            params[name] = opt.step(name, params[name], grads[name])


@pytest.mark.parametrize("size, widths", [("desk", [16, 32]), ("paper", [100, 200])])
def test_one_riemannian_step_per_row_width_equals_a_step_per_parameter(monkeypatch, size,
                                                                       widths):
    cfg, params, grads = _update_case(size)
    manifold = hf.manifold_param_names(cfg)
    calls = []

    def counted(param, grad, lr):
        calls.append(param.shape)
        return rsgd_step_poincare(param, grad, lr)

    results = []
    for update in (train._update, _reference_update):
        got = dict(params)
        opt = RmsProp(lr=0.001)
        for _ in range(2):  # the second step starts from the first's (split) rows
            with monkeypatch.context() as m:
                m.setattr(train, "rsgd_step_poincare", counted)
                update(got, grads, opt, manifold, 0.05)
        results.append(got)
    grouped, reference = results
    assert grouped.keys() == reference.keys() == params.keys()
    for name in params:
        assert grouped[name].shape == params[name].shape, name
        assert grouped[name].tobytes() == reference[name].tobytes(), name
    # two calls per grouped update
    rows = sum(params[name].size // widths[0] for name in manifold
               if params[name].shape[-1] == widths[0])
    assert sorted(calls[:2]) == sorted([(rows, widths[0]), (2, widths[1])])
    assert calls[2:] == calls[:2]
    assert rows == 2 + 1 + cfg.num_classes  # ffn_b2 of each layer, unk and mlr_p


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_gradient_of_any_ball_parameter_stops_the_update(bad):
    cfg, params, grads = _update_case("desk")
    for name in sorted(hf.manifold_param_names(cfg)):
        broken = dict(grads)
        broken[name] = grads[name].copy()
        broken[name].flat[-1] = bad
        with pytest.raises(ValueError) as info:
            train._update(dict(params), broken, RmsProp(), hf.manifold_param_names(cfg), 0.05)
        assert str(info.value) == "non-finite gradient in rsgd_step_poincare", name


def test_a_training_step_equals_one_with_a_step_per_parameter(monkeypatch):
    # the whole _train_step, with its grouped update and with the reference
    dataset = data.generate_synthetic_intents(3, 4, 30, seed=0, composites=0, noise_len=1)
    chars = sorted({ch for utterance, _ in dataset.records for ch in utterance})
    points = geo.project_to_ball(np.random.default_rng(0).normal(0, 0.3, (len(chars), 16)))
    token_map = train.TokenMap(chars, points)
    config = hf.TransformerConfig(geometry="poincare", num_classes=3, **_WIDTHS["desk"])
    settings = train.TrainSettings(manifold_lr=0.5)
    batch = list(dataset.train_indices[:8])
    results = []
    for reference in (False, True):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(train, "_update", _reference_update)
            params = hf.init_params(config, np.random.default_rng(1))
            opt, rng = RmsProp(lr=settings.lr), np.random.default_rng(2)
            manifold = hf.manifold_param_names(config)
            for _ in range(3):
                loss, _ = train._train_step(params, opt, manifold, dataset, batch, token_map,
                                            config, settings, rng)
            results.append((loss, {name: p.tobytes() for name, p in params.items()}))
    assert results[0] == results[1]
    assert any(results[0][1][name] != np.zeros(16).tobytes() for name in ("unk", "layer0.ffn_b2"))

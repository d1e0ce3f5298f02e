"""Tests for RMSProp, Poincare Riemannian SGD, and the restart schedule."""

import numpy as np
import pytest

from gyronet import geometry as geo
from gyronet.optim import RestartSchedule, RmsProp, rsgd_step_poincare


def test_rmsprop_zero_gradient():
    opt = RmsProp(lr=0.01)
    param = np.array([1.0, -2.0])
    opt.step("p", param, np.array([1.0, 1.0]))  # seed the accumulator
    acc_before = opt.acc["p"].copy()
    new = opt.step("p", param, np.zeros(2))
    np.testing.assert_array_equal(new, param)
    assert np.all(opt.acc["p"] < acc_before)  # accumulator decays


def test_rmsprop_first_step_value():
    lr, rho, eps = 0.01, 0.9, 1e-8
    g = np.array([0.5, -2.0])
    opt = RmsProp(lr=lr, rho=rho, eps=eps)
    new = opt.step("p", np.zeros(2), g)
    expect = -lr * g / np.sqrt((1.0 - rho) * g * g + eps)
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


def test_restart_schedule_no_op_away_from_restart():
    opt = RmsProp(lr=0.01)
    opt.step("p", np.zeros(1), np.ones(1))
    opt.lr = 0.005
    schedule = RestartSchedule(restart_epoch=5)
    assert not schedule.apply(3, [opt])
    assert opt.lr == 0.005 and "p" in opt.acc


def test_restart_schedule_resets_state():
    opt = RmsProp(lr=0.01)
    opt.step("p", np.zeros(1), np.ones(1))
    opt.lr = 0.001
    schedule = RestartSchedule(restart_epoch=5)
    assert schedule.apply(5, [opt])
    assert opt.lr == 0.01
    assert not opt.acc


"""Unit tests for the pure geometry kernels: frozen hand-computed values,
algebraic identities, and model-conversion consistency."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyronet import geometry as geo
from gyronet.checks import random_ball_points
from gyronet.embed import rsgd_step_hyperboloid


# ---------------------------------------------------------------------------
# Last-axis kernels
# ---------------------------------------------------------------------------

def _kernel_cases():
    """(name, a, b) operands of the two last-axis kernels, ``b`` of the same
    shape as ``a`` or broadcasting against it."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6, 16))
    heads = x[..., 4:8]  # one head's coordinates, as split_heads slices them
    return [
        ("contiguous", x, rng.normal(size=x.shape)),
        ("strided", heads, x[..., 8:12]),
        ("broadcast", rng.normal(size=(4, 6, 1, 16)), rng.normal(size=(3, 16))),
        ("broadcast-view", np.broadcast_to(x[:1], x.shape), x),
        ("0-row", np.empty((0, 16)), np.empty((0, 16))),
        ("0-d leading axes", rng.normal(size=16), rng.normal(size=16)),
    ]


@pytest.mark.parametrize("name, a, b", _kernel_cases(), ids=[c[0] for c in _kernel_cases()])
def test_last_axis_kernels_give_np_einsum_bits(name, a, b):
    # the kernels call einsum's C function, without np.einsum's dispatch
    pairs = [(geo._sum_last(a), np.einsum("...i->...", a)[..., None]),
             (geo._inner(a, b), np.einsum("...i,...i->...", a, b)[..., None])]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


# ---------------------------------------------------------------------------
# Mobius addition / negation / gyration
# ---------------------------------------------------------------------------

def test_mobius_add_left_identity():
    x = np.array([0.3, 0.4])
    np.testing.assert_allclose(geo.mobius_add(np.zeros(2), x), x, atol=1e-15)


def test_mobius_add_left_inverse():
    x = np.array([0.3, 0.4])
    np.testing.assert_allclose(geo.mobius_add(x, geo.mobius_neg(x)), 0.0, atol=1e-15)


def test_mobius_add_collinear_value():
    # tanh(2 atanh 0.5) = 0.8
    out = geo.mobius_add(np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    np.testing.assert_allclose(out, [0.8, 0.0], atol=1e-12)


def test_mobius_add_dimension_mismatch():
    with pytest.raises(ValueError):
        geo.mobius_add(np.zeros(2), np.zeros(3))


def test_mobius_neg():
    np.testing.assert_array_equal(geo.mobius_neg(np.zeros(2)), np.zeros(2))
    np.testing.assert_array_equal(geo.mobius_neg(np.array([0.3, -0.4])), [-0.3, 0.4])


def test_mobius_add_noncommutative_witness():
    a = np.array([0.5, 0.1])
    b = np.array([-0.2, 0.6])
    diff = np.linalg.norm(geo.mobius_add(a, b) - geo.mobius_add(b, a))
    assert diff > 1e-3


def test_gyration_identity_argument():
    rng = np.random.default_rng(1)
    b = random_ball_points(rng, 5, 3)
    v = random_ball_points(rng, 5, 3)
    np.testing.assert_allclose(geo.gyration(np.zeros(3), b, v), v, atol=1e-12)


def test_gyration_norm_preserving():
    rng = np.random.default_rng(2)
    a, b, v = (random_ball_points(rng, 200, 3) for _ in range(3))
    gyr = geo.gyration(a, b, v)
    np.testing.assert_allclose(np.linalg.norm(gyr, axis=-1),
                               np.linalg.norm(v, axis=-1), atol=1e-9)


def test_gyroassociativity_specific():
    a = np.array([0.1, 0.2])
    b = np.array([-0.3, 0.1])
    v = np.array([0.2, 0.2])
    lhs = geo.mobius_add(a, geo.mobius_add(b, v))
    rhs = geo.mobius_add(geo.mobius_add(a, b), geo.gyration(a, b, v))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# Scalar multiplication / conformal factor
# ---------------------------------------------------------------------------

def test_scalar_mul_identity_and_zero():
    x = np.array([0.3, 0.4])
    np.testing.assert_allclose(geo.mobius_scalar_mul(1.0, x), x, atol=1e-12)
    np.testing.assert_array_equal(geo.mobius_scalar_mul(3.0, np.zeros(2)), np.zeros(2))


def test_scalar_mul_two_matches_add():
    x = np.array([0.5, 0.0])
    np.testing.assert_allclose(geo.mobius_scalar_mul(2.0, x), [0.8, 0.0], atol=1e-12)
    np.testing.assert_allclose(geo.mobius_scalar_mul(2.0, x),
                               geo.mobius_add(x, x), atol=1e-12)


def test_scalar_mul_integer_distributivity():
    rng = np.random.default_rng(3)
    p = random_ball_points(rng, 50, 3, radius=0.5)
    acc = p.copy()
    for n in range(2, 6):
        acc = geo.mobius_add(acc, p)
        np.testing.assert_allclose(geo.mobius_scalar_mul(n, p), acc, atol=1e-7)


def test_conformal_factor_values():
    assert geo.conformal_factor(np.zeros(2)) == 2.0
    np.testing.assert_allclose(geo.conformal_factor(np.array([0.6, 0.0])), 3.125)


# ---------------------------------------------------------------------------
# exp / log / distance / transport on the ball
# ---------------------------------------------------------------------------

def test_exp_map_poincare_values():
    x = np.array([0.3, -0.2])
    np.testing.assert_allclose(geo.exp_map_poincare(x, np.zeros(2)), x, atol=1e-15)
    out = geo.exp_map_poincare(np.zeros(2), np.array([np.arctanh(0.5), 0.0]))
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-12)


def test_log_map_poincare_values():
    x = np.array([0.3, -0.2])
    np.testing.assert_allclose(geo.log_map_poincare(x, x), 0.0, atol=1e-12)
    out = geo.log_map_poincare(np.zeros(2), np.array([0.5, 0.0]))
    np.testing.assert_allclose(out, [np.arctanh(0.5), 0.0], atol=1e-12)


def test_exp_log_round_trip_random():
    rng = np.random.default_rng(4)
    x = random_ball_points(rng, 1000, 3, radius=0.8)
    v = rng.normal(size=(1000, 3))
    v *= 2.0 * rng.random((1000, 1)) / np.linalg.norm(v, axis=-1, keepdims=True)
    y = geo.exp_map_poincare(x, v)
    np.testing.assert_allclose(geo.log_map_poincare(x, y), v, atol=1e-8)


def test_poincare_distance_values():
    x = np.array([0.3, 0.1])
    assert geo.poincare_distance(x, x) == 0.0
    np.testing.assert_allclose(
        geo.poincare_distance(np.zeros(2), np.array([0.6, 0.0])),
        2.0 * np.arctanh(0.6), atol=1e-12)


def test_poincare_distance_symmetry():
    rng = np.random.default_rng(5)
    x = random_ball_points(rng, 200, 3)
    y = random_ball_points(rng, 200, 3)
    np.testing.assert_allclose(geo.poincare_distance(x, y),
                               geo.poincare_distance(y, x), atol=1e-12)


def test_distance_along_exp_geodesic():
    # d(0, exp_0(v)) = 2||v|| at the origin where lambda = 2
    v = np.array([0.4, 0.3])
    d = geo.poincare_distance(np.zeros(2), geo.exp_map_poincare(np.zeros(2), v))
    np.testing.assert_allclose(d, 2.0 * np.linalg.norm(v), atol=1e-10)


def test_transport_from_origin():
    v = np.array([1.0, 0.0])
    np.testing.assert_allclose(geo.transport_from_origin_poincare(np.zeros(2), v), v)
    out = geo.transport_from_origin_poincare(np.array([0.6, 0.0]), v)
    np.testing.assert_allclose(out, [0.64, 0.0], atol=1e-12)


def test_transport_preserves_metric_norm():
    rng = np.random.default_rng(6)
    x = random_ball_points(rng, 100, 3)
    v = rng.normal(size=(100, 3))
    moved = geo.transport_from_origin_poincare(x, v)
    lam = geo.conformal_factor(x)[..., 0]
    np.testing.assert_allclose(lam * np.linalg.norm(moved, axis=-1),
                               2.0 * np.linalg.norm(v, axis=-1), atol=1e-12)


# ---------------------------------------------------------------------------
# Matvec, bias translation, lifted maps
# ---------------------------------------------------------------------------

def test_mobius_matvec_values():
    x = np.array([0.5, 0.0])
    np.testing.assert_allclose(geo.mobius_matvec(x, np.eye(2).T), x, atol=1e-12)
    np.testing.assert_array_equal(geo.mobius_matvec(np.zeros(2), np.eye(2).T), np.zeros(2))
    out = geo.mobius_matvec(x, (2.0 * np.eye(2)).T)
    np.testing.assert_allclose(out, [0.8, 0.0], atol=1e-12)
    M = np.array([[0.5, -1.0, 2.0], [0.25, 0.0, -1.5]])  # (m, n) = (2, 3): x @ M.T
    np.testing.assert_allclose(geo.mobius_matvec([0.1, 0.2, -0.3], M.T),
                               _old_mobius_matvec(M, np.array([0.1, 0.2, -0.3])), atol=1e-15)


def test_mobius_matvec_zero_image():
    M = np.array([[1.0, -1.0], [1.0, -1.0]])
    out = geo.mobius_matvec(np.array([0.3, 0.3]), M.T)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_bias_translate_matches_mobius_add():
    x = np.array([0.5, 0.0])
    np.testing.assert_allclose(geo.bias_translate(x, np.zeros(2)), x, atol=1e-12)
    np.testing.assert_allclose(geo.bias_translate(np.zeros(2), x), x, atol=1e-12)
    np.testing.assert_allclose(geo.bias_translate(x, x), [0.8, 0.0], atol=1e-8)
    rng = np.random.default_rng(7)
    a = random_ball_points(rng, 100, 3)
    b = random_ball_points(rng, 100, 3)
    np.testing.assert_allclose(geo.bias_translate(a, b), geo.mobius_add(a, b), atol=1e-8)


# ---------------------------------------------------------------------------
# Hyperboloid model
# ---------------------------------------------------------------------------

def test_lorentz_inner_values():
    o = np.array([0.0, 0.0, 1.0])
    assert geo.lorentz_inner(o, o) == -1.0
    assert geo.lorentz_inner(np.array([1.0, 2, 3]), np.array([4.0, 5, 6])) == -4.0
    with pytest.raises(ValueError):
        geo.lorentz_inner(np.zeros(3), np.zeros(4))


def test_lorentz_inner_bilinear():
    rng = np.random.default_rng(8)
    u, w, v = rng.normal(size=(3, 20, 4))
    np.testing.assert_allclose(geo.lorentz_inner(u + w, v),
                               geo.lorentz_inner(u, v) + geo.lorentz_inner(w, v),
                               atol=1e-12)


def test_hyperboloid_distance_values():
    o = geo.hyperboloid_origin(2)
    assert geo.hyperboloid_distance(o, o) == 0.0
    p = np.array([np.sinh(1.0), 0.0, np.cosh(1.0)])
    np.testing.assert_allclose(geo.hyperboloid_distance(o, p), 1.0, atol=1e-12)


def test_tangent_project():
    o = geo.hyperboloid_origin(2)
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(geo.tangent_project(o, v), [1.0, 2.0, 0.0])
    # idempotent and tangent
    rng = np.random.default_rng(9)
    x = geo.to_hyperboloid(random_ball_points(rng, 50, 3, radius=0.7))
    w = geo.tangent_project(x, rng.normal(size=(50, 4)))
    np.testing.assert_allclose(geo.tangent_project(x, w), w, atol=1e-12)
    np.testing.assert_allclose(geo.lorentz_inner(x, w), 0.0, atol=1e-12)


def test_exp_map_hyperboloid_values():
    o = geo.hyperboloid_origin(2)
    np.testing.assert_allclose(geo.exp_map_hyperboloid(o, np.zeros(3)), o, atol=1e-15)
    out = geo.exp_map_hyperboloid(o, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, [np.sinh(1.0), 0.0, np.cosh(1.0)], atol=1e-12)


def test_exp_map_hyperboloid_geodesic_length():
    rng = np.random.default_rng(10)
    x = geo.to_hyperboloid(random_ball_points(rng, 100, 3, radius=0.7))
    v = geo.tangent_project(x, rng.normal(size=(100, 4)))
    nv = np.sqrt(geo.lorentz_inner(v, v))
    np.testing.assert_allclose(geo.hyperboloid_distance(x, geo.exp_map_hyperboloid(x, v)),
                               nv, atol=1e-8)


def test_hyperboloid_log_exp_round_trip():
    rng = np.random.default_rng(11)
    x = geo.to_hyperboloid(random_ball_points(rng, 200, 3, radius=0.8))
    y = geo.to_hyperboloid(random_ball_points(rng, 200, 3, radius=0.8))
    v = geo.log_map_hyperboloid(x, y)
    np.testing.assert_allclose(geo.exp_map_hyperboloid(x, v), y, atol=1e-8)


def test_hyperboloid_parallel_transport():
    rng = np.random.default_rng(12)
    x = geo.to_hyperboloid(random_ball_points(rng, 100, 3, radius=0.7))
    y = geo.to_hyperboloid(random_ball_points(rng, 100, 3, radius=0.7))
    w = geo.tangent_project(x, rng.normal(size=(100, 4)))
    out = geo.hyperboloid_parallel_transport(x, y, w)
    # transport to the same point is the identity
    np.testing.assert_allclose(geo.hyperboloid_parallel_transport(x, x, w), w, atol=1e-12)
    # tangency at y and Lorentzian norm preservation
    np.testing.assert_allclose(geo.lorentz_inner(y, out), 0.0, atol=1e-8)
    np.testing.assert_allclose(geo.lorentz_inner(out, out),
                               geo.lorentz_inner(w, w), atol=1e-8)


@pytest.mark.parametrize("dim", [3, 10, 17])
def test_hyperboloid_kernels_batch_exactly(dim):
    # the skip-gram trainer steps a pair's rows as one stacked batch: every
    # kernel on a (k, n+1) batch must give the per-row results bit for bit
    rng = np.random.default_rng(13)
    x = geo.to_hyperboloid(random_ball_points(rng, 6, dim, radius=0.8))
    g = rng.normal(size=(6, dim + 1))
    g[2] = 0.0   # zero gradient: the nv == 0 branch of the exponential map
    g[4] *= 40.0  # a long step
    v = geo.tangent_project(x, -0.05 * g)
    batched = {
        "lorentz_inner": geo.lorentz_inner(x, g),
        "tangent_project": geo.tangent_project(x, g),
        "exp_map_hyperboloid": geo.exp_map_hyperboloid(x, v),
        "rsgd_step_hyperboloid": rsgd_step_hyperboloid(x, g, 0.05),
    }
    per_row = {
        "lorentz_inner": [geo.lorentz_inner(r, h) for r, h in zip(x, g)],
        "tangent_project": [geo.tangent_project(r, h) for r, h in zip(x, g)],
        "exp_map_hyperboloid": [geo.exp_map_hyperboloid(r, w) for r, w in zip(x, v)],
        "rsgd_step_hyperboloid": [rsgd_step_hyperboloid(r, h, 0.05) for r, h in zip(x, g)],
    }
    for name, value in batched.items():
        assert np.array_equal(value, np.array(per_row[name])), name
    np.testing.assert_array_equal(batched["rsgd_step_hyperboloid"][2],
                                  geo.hyperboloid_renormalize(x[2]))
    assert geo.hyperboloid_distance(x[4], batched["rsgd_step_hyperboloid"][4]) > 1.0
    g[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite gradient"):
        rsgd_step_hyperboloid(x, g, 0.05)


# ---------------------------------------------------------------------------
# Model conversions
# ---------------------------------------------------------------------------

def test_to_poincare_values():
    np.testing.assert_allclose(geo.to_poincare(np.array([0.0, 0.0, 1.0])), [0.0, 0.0])
    p = np.array([np.sinh(1.0), 0.0, np.cosh(1.0)])
    np.testing.assert_allclose(geo.to_poincare(p), [np.tanh(0.5), 0.0], atol=1e-12)


def test_to_hyperboloid_values():
    np.testing.assert_allclose(geo.to_hyperboloid(np.zeros(2)), [0.0, 0.0, 1.0])
    out = geo.to_hyperboloid(np.array([np.tanh(0.5), 0.0]))
    np.testing.assert_allclose(out, [np.sinh(1.0), 0.0, np.cosh(1.0)], atol=1e-12)


def test_conversion_round_trip_and_invariant():
    rng = np.random.default_rng(13)
    y = random_ball_points(rng, 1000, 3, radius=0.9)
    h = geo.to_hyperboloid(y)
    np.testing.assert_allclose(geo.lorentz_inner(h, h), -1.0, atol=1e-9)
    np.testing.assert_allclose(geo.to_poincare(h), y, atol=1e-10)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_conversion_round_trips_hold_up_to_distance_30(n, seed):
    # the horizon that to_poincare and to_hyperboloid state: a hyperboloid
    # row at distance d <= 30 comes back within a relative 2 e^d eps of its
    # time coordinate, and a ball row within 2 eps
    rng = np.random.default_rng(seed)
    d = np.concatenate([[0.0, 30.0], rng.uniform(0.0, 30.0, 62)])[:, None]
    u = rng.normal(size=(64, n))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    x = np.concatenate([np.sinh(d) * u, np.cosh(d)], axis=-1)
    eps = np.finfo(float).eps
    back = geo.to_hyperboloid(geo.to_poincare(x))
    assert (np.abs(back - x) <= 2.0 * np.exp(d) * eps * x[:, -1:]).all()
    y = np.tanh(d / 2.0) * u
    assert (np.abs(geo.to_poincare(geo.to_hyperboloid(y)) - y) <= 2.0 * eps).all()


def test_conversion_isometry():
    rng = np.random.default_rng(14)
    u = geo.to_hyperboloid(random_ball_points(rng, 500, 3, radius=0.85))
    v = geo.to_hyperboloid(random_ball_points(rng, 500, 3, radius=0.85))
    np.testing.assert_allclose(
        geo.hyperboloid_distance(u, v),
        geo.poincare_distance(geo.to_poincare(u), geo.to_poincare(v)),
        atol=1e-6)


# ---------------------------------------------------------------------------
# Purity / clamping
# ---------------------------------------------------------------------------

def test_operations_are_pure():
    rng = np.random.default_rng(15)
    a = random_ball_points(rng, 10, 3)
    b = random_ball_points(rng, 10, 3)
    first = geo.mobius_add(a, b)
    second = geo.mobius_add(a, b)
    assert np.array_equal(first, second)


def test_project_to_ball_clamps():
    far = np.array([2.0, 0.0])
    out = geo.project_to_ball(far)
    np.testing.assert_allclose(np.linalg.norm(out), 1.0 - geo.EPS_BOUNDARY)
    near = np.array([0.5, 0.0])
    assert geo.project_to_ball(near) is near  # no row reaches the shell: no copy


@pytest.mark.parametrize("keepdims", [True, False])
def test_norm_is_bitwise_the_einsum_formula(keepdims):
    rng = np.random.default_rng(16)
    cases = [rng.normal(size=(50, 3)), rng.normal(size=(7, 4, 16)), np.zeros((5, 3)),
             np.zeros((0, 4)), np.zeros((3, 0)), rng.normal(size=6),
             rng.normal(size=(20, 8)) * 1e-200, rng.normal(size=(20, 8)) * 1e150,
             np.concatenate([rng.normal(size=(4, 3)), np.zeros((2, 3))])]
    for x in cases:
        got = geo._norm(x, keepdims=keepdims)
        want = np.sqrt(np.einsum("...i,...i->...", x, x))
        if keepdims:
            want = want[..., None]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the norm np.linalg.norm computes, up to the order of the additions
        with np.errstate(over="ignore"):
            linalg = np.linalg.norm(x, axis=-1, keepdims=keepdims)
        np.testing.assert_allclose(got, linalg, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# The kernels that share geometry's private guards, against their formulas as
# each kernel wrote them out in full before, bit for bit
# ---------------------------------------------------------------------------

def _old_project_to_ball(x):
    x = np.asarray(x, dtype=float)
    maxnorm = 1.0 - geo.EPS_BOUNDARY
    n = geo._norm(x)
    factor = np.where(n >= maxnorm, maxnorm / np.maximum(n, 1e-15), 1.0)
    return x * factor


def _old_mobius_add(x, y):
    x2 = np.einsum("...i->...", x * x)[..., None]
    y2 = np.einsum("...i->...", y * y)[..., None]
    xy = np.einsum("...i->...", x * y)[..., None]
    num = (1.0 + 2.0 * xy + y2) * x + (1.0 - x2) * y
    den = 1.0 + 2.0 * xy + x2 * y2
    return _old_project_to_ball(num / den)


def _old_mobius_scalar_mul(r, x):
    n = geo._norm(x)
    safe = np.maximum(n, 1e-15)
    scaled = np.tanh(np.asarray(r, dtype=float) * np.arctanh(np.minimum(n, 1.0 - 1e-15)))
    out = np.where(n > 0, scaled * x / safe, np.zeros_like(x))
    return _old_project_to_ball(out)


def _old_exp_map_poincare(x, v):
    nv = geo._norm(v)
    safe = np.maximum(nv, 1e-15)
    lam = geo.conformal_factor(x)
    second = np.tanh(lam * nv / 2.0) * v / safe
    second = np.where(nv > 0, second, np.zeros_like(v))
    return _old_mobius_add(x, second)


def _old_log_map_poincare(x, y):
    w = _old_mobius_add(-x, y)
    nw = geo._norm(w)
    safe = np.maximum(nw, 1e-15)
    lam = geo.conformal_factor(x)
    out = (2.0 / lam) * np.arctanh(np.minimum(nw, 1.0 - 1e-15)) * w / safe
    return np.where(nw > 0, out, np.zeros_like(w))


def _old_poincare_distance(x, y):
    w = _old_mobius_add(-x, y)
    n = geo._norm(w, keepdims=False)
    return 2.0 * np.arctanh(np.minimum(n, 1.0 - 1e-15))


def _old_mobius_matvec(M, x):
    y = x @ M.T
    nx = geo._norm(x)
    ny = geo._norm(y)
    safe_x = np.maximum(nx, 1e-15)
    safe_y = np.maximum(ny, 1e-15)
    out = np.tanh(ny / safe_x * np.arctanh(np.minimum(nx, 1.0 - 1e-15))) * y / safe_y
    out = np.where((nx > 0) & (ny > 0), out, np.zeros_like(y))
    return _old_project_to_ball(out)


def _old_exp_map_hyperboloid(x, v):
    sq = geo.lorentz_inner(v, v, keepdims=True)
    nv = np.sqrt(np.maximum(sq, 0.0))
    safe = np.maximum(nv, 1e-15)
    out = np.cosh(nv) * x + np.sinh(nv) * v / safe
    out = np.where(nv > 0, out, x)
    return geo.hyperboloid_renormalize(out)


def _old_log_map_hyperboloid(x, y):
    d = geo.hyperboloid_distance(x, y)
    u = y + geo.lorentz_inner(x, y, keepdims=True) * x
    nu = np.sqrt(np.maximum(geo.lorentz_inner(u, u, keepdims=True), 0.0))
    safe = np.maximum(nu, 1e-15)
    out = d[..., None] * u / safe
    return np.where(nu > 1e-15, out, np.zeros_like(out))


def _old_hyperboloid_parallel_transport(x, y, w):
    v = _old_log_map_hyperboloid(x, y)
    nv = np.sqrt(np.maximum(geo.lorentz_inner(v, v, keepdims=True), 0.0))
    if np.all(nv <= 1e-15):
        return w.copy()
    vhat = v / np.maximum(nv, 1e-15)
    wv = geo.lorentz_inner(w, vhat, keepdims=True)
    transported = wv * (np.sinh(nv) * x + np.cosh(nv) * vhat) + (w - wv * vhat)
    return np.where(nv > 1e-15, transported, w)


_DIM = 3
_SHELL = 1.0 - geo.EPS_BOUNDARY
_ROW_KINDS = {
    "origin": st.sampled_from([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]]),
    "inside": st.lists(st.floats(-0.5, 0.5, allow_subnormal=False),
                       min_size=_DIM, max_size=_DIM),
    # a signed axis vector of norm exactly _SHELL, which the clamp takes as reaching the shell
    "shell": st.tuples(st.integers(0, _DIM - 1), st.sampled_from([1.0, -1.0])).map(
        lambda a: [a[1] * _SHELL if i == a[0] else 0.0 for i in range(_DIM)]),
    "past": st.lists(st.floats(-3.0, 3.0), min_size=_DIM, max_size=_DIM).filter(  # norm >= 1
        lambda r: sum(t * t for t in r) >= 1.0),
    # subnormal coordinates, and coordinates whose squares underflow
    "subnormal": st.lists(st.sampled_from([0.0, 5e-324, -5e-324, 2.2e-310, -1e-160, 3e-170]),
                          min_size=_DIM, max_size=_DIM),
}


def _rows(*kinds):
    row = st.one_of(*(_ROW_KINDS[k] for k in kinds))
    return st.lists(row, min_size=1, max_size=6).map(np.array)


def _same_bits(got, want):
    return np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == want.tobytes()


_ALL_KINDS = tuple(_ROW_KINDS)
_IN_BALL = ("origin", "inside", "subnormal")  # base points where the maps are defined


@settings(max_examples=300, deadline=None, database=None)
@given(_rows(*_ALL_KINDS), _rows(*_IN_BALL), st.floats(-3.0, 3.0))
def test_poincare_kernels_equal_their_full_formulas_bit_for_bit(anywhere, base, r):
    n = min(len(base), len(anywhere))
    x, v = base[:n], anywhere[:n]
    with np.errstate(all="ignore"):
        assert _same_bits(geo.project_to_ball(anywhere), _old_project_to_ball(anywhere))
        assert _same_bits(geo.mobius_scalar_mul(r, anywhere), _old_mobius_scalar_mul(r, anywhere))
        assert _same_bits(geo.exp_map_poincare(x, v), _old_exp_map_poincare(x, v))
        assert _same_bits(geo.log_map_poincare(x, v), _old_log_map_poincare(x, v))
        assert _same_bits(geo.poincare_distance(x, v), _old_poincare_distance(x, v))


@settings(max_examples=300, deadline=None, database=None)
@given(_rows(*_IN_BALL), _rows(*_IN_BALL), _rows(*_ALL_KINDS), st.booleans())
def test_hyperboloid_kernels_equal_their_full_formulas_bit_for_bit(xs, ys, ws, same):
    with np.errstate(all="ignore"):
        n = min(len(xs), len(ys), len(ws))
        x = geo.to_hyperboloid(xs[:n])
        y = x.copy() if same else geo.to_hyperboloid(ys[:n])
        raw = np.concatenate([ws[:n], ws[:n, :1]], axis=-1)  # one ambient vector per row
        v = geo.tangent_project(x, raw)
        for tangent in (v, np.zeros_like(v), np.where(np.arange(n)[:, None] % 2, v, 0.0)):
            assert _same_bits(geo.exp_map_hyperboloid(x, tangent),
                              _old_exp_map_hyperboloid(x, tangent))
        assert _same_bits(geo.log_map_hyperboloid(x, y), _old_log_map_hyperboloid(x, y))
        # same=True transports along zero vectors only: the all-zero case
        for w in (v, raw):
            assert _same_bits(geo.hyperboloid_parallel_transport(x, y, w),
                              _old_hyperboloid_parallel_transport(x, y, w))


# ---------------------------------------------------------------------------
# The last-axis kernels: a row's bits do not depend on where it is summed
# ---------------------------------------------------------------------------

_KERNELS = {"sum": lambda a: geo._sum_last(a)[..., 0],
            "norm": lambda a: geo._norm(a, keepdims=False)}
_U = 2.0 ** -53  # unit roundoff of float64


def _spread_rows(seed, m, n):
    """m rows of n coordinates whose magnitudes span 12 decades, so that the
    order of the additions shows in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(m, n))


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 40), st.data())
def test_a_rows_kernel_bits_do_not_depend_on_where_it_is_summed(seed, m, n, data):
    batch = _spread_rows(seed, m, n)
    i = data.draw(st.integers(0, m - 1))
    offset = data.draw(st.integers(0, 7))  # in 8-byte steps, across a 64-byte line
    buffer = np.empty(offset + n)
    shifted = buffer[offset:]
    shifted[...] = batch[i]
    wider = np.zeros((m, n + data.draw(st.integers(1, 5))))
    wider[:, :n] = batch
    big = np.tile(batch, (777 // m + 1, 1))
    for name, kernel in _KERNELS.items():
        alone = kernel(batch[i])
        assert np.shape(alone) == ()
        want = alone.tobytes()
        for got in (kernel(batch)[i], kernel(batch[i:i + 1])[0], kernel(shifted),
                    kernel(wider[:, :n])[i], kernel(big)[i], kernel(big.reshape(-1, m, n))[1, i]):
            assert got.tobytes() == want, name


_FEATURES_OFF = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"  # numpy's AVX2 and AVX-512 targets
_PRINT_KERNEL_BYTES = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from gyronet import geometry as geo
print(" ".join(f for f in sys.argv[1].split() if __cpu_features__.get(f, True)))
for n in (1, 2, 3, 4, 7, 8, 9, 16, 17, 32, 33, 100):
    rng = np.random.default_rng(n)  # ldexp scales exactly, where np.power is dispatched
    rows = np.ldexp(rng.normal(size=(40, n)), rng.integers(-60, 60, size=(40, n)))
    print(geo._sum_last(rows).tobytes().hex(), geo._norm(rows).tobytes().hex())
"""


def _kernel_bytes(features_off):
    """A subprocess's features left on of ``features_off`` (unknown ones
    count as on), and the kernels' bytes on fixed rows."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(geo.__file__).resolve().parents[1])
    if features_off:
        env["NPY_DISABLE_CPU_FEATURES"] = features_off
    return subprocess.run([sys.executable, "-c", _PRINT_KERNEL_BYTES, features_off], env=env,
                          capture_output=True, text=True, timeout=120)


def test_kernel_bits_do_not_depend_on_numpys_simd_dispatch():
    plain, reduced = _kernel_bytes(""), _kernel_bytes(_FEATURES_OFF)
    assert plain.returncode == 0, plain.stderr
    if reduced.returncode != 0:
        reason = (reduced.stderr.strip().splitlines() or [f"exit {reduced.returncode}"])[-1]
        pytest.skip(f"numpy refused NPY_DISABLE_CPU_FEATURES={_FEATURES_OFF!r}: {reason}")
    still_on, _, got = reduced.stdout.partition("\n")
    if still_on:
        pytest.skip(f"numpy did not turn off {still_on}")
    assert got == plain.stdout.partition("\n")[2] and got.count("\n") == 12


def _result_class(s):
    return np.select([np.isnan(s), s == np.inf, s == -np.inf], ["nan", "+inf", "-inf"], "finite")


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                                          2.2e-310, -1e-310, 1.5, -2.0]),
                         min_size=5, max_size=5), min_size=1, max_size=6).map(np.array))
def test_special_rows_give_the_result_class_of_add_reduce(rows):
    with np.errstate(all="ignore"):
        sums, norms = np.add.reduce(rows, axis=-1), np.sqrt(np.add.reduce(rows * rows, axis=-1))
    with np.errstate(all="raise"):  # the kernels raise no floating-point warning
        got_sums, got_norms = _KERNELS["sum"](rows), _KERNELS["norm"](rows)
    assert (_result_class(got_sums) == _result_class(sums)).all()
    assert (_result_class(got_norms) == _result_class(norms)).all()
    # rows of zeros and subnormals only add exactly: the same values
    tiny = (np.abs(rows) < 1e-300).all(axis=-1)
    np.testing.assert_array_equal(got_sums[tiny], sums[tiny])
    np.testing.assert_array_equal(got_norms[tiny], norms[tiny])


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k roundings."""
    return k * _U / (1.0 - k * _U)


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 100))
def test_kernel_error_stays_within_the_bound_add_reduce_meets(seed, n):
    rows = _spread_rows(seed, 8, n)
    squares = rows * rows
    with np.errstate(all="raise"):
        sums = {"einsum": _KERNELS["sum"](rows), "add.reduce": np.add.reduce(rows, axis=-1)}
        norms = {"einsum": _KERNELS["norm"](rows),
                 "add.reduce": np.sqrt(np.add.reduce(squares, axis=-1))}
    for r in range(len(rows)):
        exact = math.fsum(rows[r])
        # recursive or blocked, n - 1 additions err by at most gamma_(n-1) sum |x|,
        # and the float nearest the exact sum is half an ulp from it
        bound = _gamma(n - 1) * math.fsum(np.abs(rows[r])) + math.ulp(exact) / 2
        exact_norm = math.sqrt(math.fsum(squares[r]))
        # n roundings of the squares and the sums, halved by the square root, and the root's own
        norm_bound = (_gamma(n + 1) / 2 + 2 * _U) * exact_norm
        for name in sums:
            assert abs(sums[name][r] - exact) <= bound, (name, r)
            assert abs(norms[name][r] - exact_norm) <= norm_bound, (name, r)

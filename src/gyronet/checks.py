"""Self-check suites for the geometry kernels.

Each suite runs a seeded random sweep of one family of identities and reports
its worst absolute error.  The CLI ``geometry-check`` command runs all of them
and exits nonzero if any tolerance is exceeded.  The suites read the geometry
functions through the module object, so a faulty kernel (swapped in for
mutation testing) is picked up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry


@dataclass
class SuiteResult:
    name: str
    max_error: float
    tol: float

    @property
    def passed(self):
        return self.max_error < self.tol


def random_ball_points(rng, count, dim, radius=0.9):
    """``count`` points of the ``dim``-ball: uniform directions, norms uniform
    in [0, radius)."""
    direction = rng.normal(size=(count, dim))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    return direction * (radius * rng.random((count, 1)))


def gyro_axioms_suite(seed=0, trials=10_000, dim=3, tol=1e-8):
    """Left identity, left inverse, gyroassociativity, gyration isometry."""
    rng = np.random.default_rng(seed)
    a = random_ball_points(rng, trials, dim)
    b = random_ball_points(rng, trials, dim)
    v = random_ball_points(rng, trials, dim)
    zero = np.zeros_like(a)
    worst = 0.0
    worst = max(worst, float(np.abs(geometry.mobius_add(zero, a) - a).max()))
    worst = max(worst, float(np.abs(geometry.mobius_add(geometry.mobius_neg(a), a)).max()))
    lhs = geometry.mobius_add(a, geometry.mobius_add(b, v))
    rhs = geometry.mobius_add(geometry.mobius_add(a, b), geometry.gyration(a, b, v))
    worst = max(worst, float(np.abs(lhs - rhs).max()))
    gyr = geometry.gyration(a, b, v)
    worst = max(worst, float(np.abs(
        np.linalg.norm(gyr, axis=-1) - np.linalg.norm(v, axis=-1)).max()))
    return SuiteResult("gyrovector-axioms", worst, tol)


def exp_log_suite(seed=1, trials=1000, dim=3, tol=1e-8):
    """exp/log round trips on both models and bias-translation consistency."""
    rng = np.random.default_rng(seed)
    x = random_ball_points(rng, trials, dim, radius=0.8)
    y = random_ball_points(rng, trials, dim, radius=0.8)
    worst = 0.0
    v = geometry.log_map_poincare(x, y)
    worst = max(worst, float(np.abs(geometry.exp_map_poincare(x, v) - y).max()))
    hx = geometry.to_hyperboloid(x)
    hy = geometry.to_hyperboloid(y)
    hv = geometry.log_map_hyperboloid(hx, hy)
    worst = max(worst, float(np.abs(geometry.exp_map_hyperboloid(hx, hv) - hy).max()))
    worst = max(worst, float(np.abs(
        geometry.bias_translate(x, y) - geometry.mobius_add(x, y)).max()))
    return SuiteResult("exp-log-round-trip", worst, tol)


def isometry_suite(seed=2, trials=1000, dim=3, tol=1e-6):
    """Ball <-> hyperboloid conversion preserves distances and round trips."""
    rng = np.random.default_rng(seed)
    x = random_ball_points(rng, trials, dim, radius=0.85)
    y = random_ball_points(rng, trials, dim, radius=0.85)
    hx = geometry.to_hyperboloid(x)
    hy = geometry.to_hyperboloid(y)
    worst = float(np.abs(
        geometry.hyperboloid_distance(hx, hy) - geometry.poincare_distance(x, y)).max())
    worst = max(worst, float(np.abs(geometry.to_poincare(hx) - x).max()))
    return SuiteResult("model-isometry", worst, tol)


def transport_suite(seed=3, trials=1000, dim=3, tol=1e-8):
    """Parallel transport preserves the relevant norms and tangency."""
    rng = np.random.default_rng(seed)
    x = random_ball_points(rng, trials, dim, radius=0.8)
    v0 = rng.normal(size=(trials, dim))
    moved = geometry.transport_from_origin_poincare(x, v0)
    lam = geometry.conformal_factor(x)
    worst = float(np.abs(lam * np.linalg.norm(moved, axis=-1, keepdims=True)
                         - 2.0 * np.linalg.norm(v0, axis=-1, keepdims=True)).max())
    hx = geometry.to_hyperboloid(random_ball_points(rng, trials, dim, radius=0.7))
    hy = geometry.to_hyperboloid(random_ball_points(rng, trials, dim, radius=0.7))
    w = geometry.tangent_project(hx, rng.normal(size=(trials, dim + 1)))
    out = geometry.hyperboloid_parallel_transport(hx, hy, w)
    worst = max(worst, float(np.abs(geometry.lorentz_inner(hy, out)).max()))
    worst = max(worst, float(np.abs(
        geometry.lorentz_inner(out, out) - geometry.lorentz_inner(w, w)).max()))
    return SuiteResult("parallel-transport", worst, tol)


def scalar_distributivity_suite(seed=4, trials=500, dim=3, tol=1e-7):
    """n (x) p equals the n-fold left-associated gyro-sum of p, n <= 5."""
    rng = np.random.default_rng(seed)
    p = random_ball_points(rng, trials, dim, radius=0.5)
    worst = 0.0
    acc = p.copy()
    for n in range(2, 6):
        acc = geometry.mobius_add(acc, p)
        worst = max(worst, float(np.abs(geometry.mobius_scalar_mul(n, p) - acc).max()))
    return SuiteResult("scalar-distributivity", worst, tol)


ALL_SUITES = (
    gyro_axioms_suite,
    exp_log_suite,
    isometry_suite,
    transport_suite,
    scalar_distributivity_suite,
)


def run_all(seed_offset=0):
    return [suite(seed=i + seed_offset) for i, suite in enumerate(ALL_SUITES)]

"""Finite-difference gradient checking, the oracle of the tests' analytic
gradients: tape VJPs, the Minkowski skip-gram gradients and the classifier's
end-to-end gradient."""

import numpy as np

from gyronet.diffcore import TapeError


class GradCheckReport:
    def __init__(self, max_rel_err, numeric, analytic, tol):
        self.max_rel_err = float(max_rel_err)
        self.numeric = numeric
        self.analytic = analytic
        self.tol = tol
        self.passed = self.max_rel_err <= tol

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"GradCheckReport({status}, max_rel_err={self.max_rel_err:.3e}, tol={self.tol:.1e})"


def numeric_gradient(fn, point, h=1e-5):
    """Central-difference gradient of a scalar function of an array."""
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    flat = grad.ravel()
    pflat = point.ravel()
    for i in range(pflat.size):
        orig = pflat[i]
        pflat[i] = orig + h
        fp = float(fn(point))
        pflat[i] = orig - h
        fm = float(fn(point))
        pflat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise TapeError(f"non-finite function value during finite differences at index {i}")
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def check_gradient(fn, point, analytic, h=1e-5, tol=1e-4):
    """Compare an analytic gradient against central finite differences.

    The error is measured at the level of the whole gradient vector:
    ||analytic - numeric||_inf / max(||analytic||_inf, ||numeric||_inf, 1e-8).
    """
    numeric = numeric_gradient(fn, point, h=h)
    analytic = np.asarray(analytic, dtype=float)
    scale = max(np.max(np.abs(analytic), initial=0.0),
                np.max(np.abs(numeric), initial=0.0), 1e-8)
    err = np.max(np.abs(analytic - numeric), initial=0.0) / scale
    return GradCheckReport(err, numeric, analytic, tol)

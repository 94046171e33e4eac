"""Tests for the NNLS solver and the parametric/hybrid baselines."""

import itertools
import math

import numpy as np
import pytest

from jobcast.baselines import (ErnestModel, bell_fit, bell_predict,
                               ernest_features, ernest_fit, ernest_predict,
                               nnls)
from jobcast.errors import DataError


def projected_gradient_nnls(a, b, iters=20000):
    """Independent reference solver: FISTA with projection and restart."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ata = a.T @ a
    atb = a.T @ b
    lam = float(np.linalg.eigvalsh(ata).max())
    n = a.shape[1]
    if lam == 0.0:
        return np.zeros(n)
    x = np.zeros(n)
    yk = x.copy()
    t = 1.0
    prev_obj = math.inf
    for _ in range(iters):
        x_new = np.maximum(yk - (ata @ yk - atb) / lam, 0.0)
        obj = objective(a, b, x_new)
        if obj > prev_obj:  # restart the momentum
            yk = x_new
            t = 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            yk = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        prev_obj = obj
        x = x_new
    return x


def enumerated_nnls(a, b):
    """Exact reference solver for a few columns: least squares on every
    support, keeping the best nonnegative solution.

    Some optimum has linearly independent support columns, and on such a
    support it is the least-squares solution, so searching all 2**n
    supports finds it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[1]
    best, best_obj = np.zeros(n), objective(a, b, np.zeros(n))
    for support in itertools.product((False, True), repeat=n):
        cols = np.flatnonzero(support)
        if not cols.size:
            continue
        x = np.zeros(n)
        x[cols], *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        obj = objective(a, b, x)
        if x.min() >= 0.0 and obj < best_obj:
            best, best_obj = x, obj
    return best


def objective(a, b, x):
    r = a @ x - b
    return float(r @ r)


def kkt_holds(a, b, x, tol=1e-6):
    """Stationarity: gradient ~0 on the support, >= 0 off it; x >= 0."""
    g = a.T @ (a @ x - b)
    scale = max(1.0, float(np.max(np.abs(a.T @ b))))
    if np.any(x < 0):
        return False
    on = x > 1e-12
    if np.any(np.abs(g[on]) > tol * scale):
        return False
    return not np.any(g[~on] < -tol * scale)


class TestNnls:
    def test_recovers_exact_nonnegative_solution(self):
        xs = np.array([2, 4, 6, 8, 10, 12])
        a = np.stack([ernest_features(x) for x in xs])
        truth = np.array([1.0, 2.0, 0.0, 3.0])
        theta = nnls(a, a @ truth)
        np.testing.assert_allclose(theta, truth, atol=1e-6)

    def test_zero_rhs_gives_zero(self):
        a = np.stack([ernest_features(x) for x in (2, 4, 6)])
        np.testing.assert_array_equal(nnls(a, np.zeros(3)), np.zeros(4))

    def test_negative_true_coefficient_clamped(self):
        """Data generated with a negative coefficient still yields a
        nonnegative solution whose objective matches the reference."""
        xs = np.array([2, 4, 6, 8, 10, 12])
        a = np.stack([ernest_features(x) for x in xs])
        b = a @ np.array([5.0, -3.0, 1.0, 0.5])
        theta = nnls(a, b)
        assert np.all(theta >= 0)
        ref = projected_gradient_nnls(a, b)
        assert objective(a, b, theta) <= objective(a, b, ref) + 1e-6
        assert kkt_holds(a, b, theta)

    def test_oracle_equivalence_random_instances(self):
        """On random instances the active-set objective matches the
        projected-gradient reference within 1e-6 and satisfies KKT."""
        rng = np.random.default_rng(123)
        for _ in range(60):
            k = int(rng.integers(4, 12))
            a = rng.normal(size=(k, 4))
            b = rng.normal(size=k) * 5
            theta = nnls(a, b)
            assert np.all(theta >= 0)
            ref = projected_gradient_nnls(a, b, iters=5000)
            scale = max(1.0, objective(a, b, np.zeros(4)))
            assert objective(a, b, theta) <= objective(a, b, ref) + 1e-6 * scale
            assert kkt_holds(a, b, theta)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nnls(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            nnls(np.array([[np.inf, 1.0]]), np.ones(1))


class TestErnest:
    def test_features(self):
        np.testing.assert_allclose(ernest_features(1), [1.0, 1.0, 0.0, 1.0])
        np.testing.assert_allclose(ernest_features(4),
                                   [1.0, 0.25, math.log(4), 4.0])
        with pytest.raises(DataError):
            ernest_features(0)

    def test_predict_closed_form(self):
        model = ErnestModel((1.0, 2.0, 0.0, 3.0))
        assert ernest_predict(model, 1) == pytest.approx(6.0)
        assert ernest_predict(model, 2) == pytest.approx(1 + 1 + 0 + 6)
        assert ernest_predict(ErnestModel((0, 0, 0, 1.0)), 7) == pytest.approx(7.0)

    def test_monotone_in_each_coefficient(self):
        base = (1.0, 1.0, 1.0, 1.0)
        for x in (1, 3, 10):
            for i in range(4):
                bumped = list(base)
                bumped[i] += 0.5
                assert ernest_predict(ErnestModel(tuple(bumped)), x) >= \
                    ernest_predict(ErnestModel(base), x)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ErnestModel((1.0, -0.1, 0.0, 0.0))


class TestBell:
    LINE = [(1, 12.0), (2, 14.0), (3, 16.0), (4, 18.0), (5, 20.0)]
    DIP_RISE = [(2, 300.0), (4, 150.0), (6, 80.0), (8, 260.0), (10, 700.0)]

    def test_line_is_near_exact(self):
        model = bell_fit(self.LINE)
        for x, y in self.LINE:
            assert bell_predict(model, x) == pytest.approx(y, abs=1e-6)
        assert bell_predict(model, 2.5) == pytest.approx(15.0, abs=1e-6)

    def test_non_parametric_curve_selects_interpolant(self):
        """A runtime curve that dips then rises steeply defeats the
        parametric form, so leave-one-out picks the interpolant."""
        model = bell_fit(self.DIP_RISE)
        assert model.chosen == "nonparametric"

    def test_exact_at_training_points_when_nonparametric(self):
        model = bell_fit(self.DIP_RISE)
        for x, y in self.DIP_RISE:
            assert bell_predict(model, x) == y

    def test_outside_range_falls_back_to_parametric(self):
        model = bell_fit(self.DIP_RISE)
        assert model.chosen == "nonparametric"
        outside = bell_predict(model, 14)
        assert outside == pytest.approx(
            ernest_predict(model.parametric, 14))

    def test_medians_absorb_repetitions(self):
        pts = self.DIP_RISE + [(6, 90.0), (6, 70.0)]
        model = bell_fit(pts)
        assert model.medians[model.grid.index(6.0)] == 80.0

    def test_two_points_rejected(self):
        with pytest.raises(DataError):
            bell_fit([(2, 10.0), (4, 12.0)])

    def test_three_repeated_scale_outs_rejected(self):
        with pytest.raises(DataError):
            bell_fit([(2, 10.0), (2, 11.0), (4, 12.0)])

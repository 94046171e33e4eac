"""Parametric and hybrid scale-out baselines.

The parametric model expresses runtime as
``t(x) = a + b/x + c*log(x) + d*x`` with nonnegative coefficients fitted by
an active-set nonnegative least squares solver. The hybrid baseline fits
both that model and a piecewise-linear interpolant over per-scale-out
median runtimes, then picks whichever wins leave-one-out cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingError

# Bound on the dual (KKT) residual, relative to max |A^T b|, that stops nnls.
NNLS_TOLERANCE = 1e-10
# nnls gives up after this many outer (and as many inner) iterations per column.
NNLS_ITERATIONS_PER_COLUMN = 30


def nnls(a, b) -> np.ndarray:
    """Lawson-Hanson active-set solve of ``min ||Ax - b||`` s.t. ``x >= 0``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("nnls inputs must be finite")
    n = a.shape[1]
    max_iter = NNLS_ITERATIONS_PER_COLUMN * n
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    scale = max(1.0, float(np.max(np.abs(a.T @ b))))

    inner_budget = max_iter
    for _ in range(max_iter):
        w = a.T @ (b - a @ x)
        active = ~passive
        if not active.any() or np.max(w[active]) <= NNLS_TOLERANCE * scale:
            return x
        passive[np.flatnonzero(active)[np.argmax(w[active])]] = True
        while True:
            s = np.zeros(n)
            cols = np.flatnonzero(passive)
            s[cols], *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if s[cols].min() > 0.0:
                x = s
                break
            inner_budget -= 1
            if inner_budget < 0:
                raise TrainingError(
                    f"nnls failed to converge within {max_iter} iterations")
            blocking = passive & (s <= 0.0)
            ratio = x[blocking] / (x[blocking] - s[blocking])
            alpha = ratio.min()
            x = x + alpha * (s - x)
            passive &= x > NNLS_TOLERANCE * max(1.0, float(np.max(np.abs(x))))
            x[~passive] = 0.0
    raise TrainingError(f"nnls failed to converge within {max_iter} iterations")


def ernest_features(x) -> np.ndarray:
    """Design-row ``[1, 1/x, log x, x]`` for one scale-out."""
    if x < 1:
        raise DataError(f"scale-out must be >= 1, got {x}")
    return np.array([1.0, 1.0 / x, math.log(x), float(x)])


@dataclass(frozen=True)
class ErnestModel:
    theta: tuple[float, float, float, float]

    def __post_init__(self):
        if any(t < 0 for t in self.theta):
            raise ValueError("coefficients must be nonnegative")


def ernest_fit(points) -> ErnestModel:
    """Fit the parametric model on ``(scale_out, runtime)`` pairs; every
    point enters the fit, repeated scale-outs included."""
    pts = list(points)
    if not pts:
        raise DataError("parametric fit needs at least one point")
    a = np.stack([ernest_features(x) for x, _ in pts])
    b = np.array([r for _, r in pts], dtype=np.float64)
    return ErnestModel(tuple(nnls(a, b)))


def ernest_predict(model: ErnestModel, x) -> float:
    return float(np.dot(model.theta, ernest_features(x)))


@dataclass(frozen=True)
class BellModel:
    """Hybrid of the parametric fit and a median interpolant."""

    parametric: ErnestModel
    grid: tuple[float, ...]  # sorted distinct scale-outs
    medians: tuple[float, ...]
    chosen: str  # "parametric" | "nonparametric"


def _interp_predict(grid, medians, x) -> float:
    return float(np.interp(x, grid, medians))


def _loo_error(points, fit, predict) -> float:
    total = 0.0
    for i in range(len(points)):
        rest = points[:i] + points[i + 1 :]
        model = fit(rest)
        total += abs(predict(model, points[i][0]) - points[i][1])
    return total


def _median(values) -> float:
    """The median of a nonempty list as ``np.median`` gives it: the middle
    value, or the mean of the two middle values (``np.median`` would import
    ``numpy.ma`` on its first call)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def bell_fit(points) -> BellModel:
    """Fit both members and choose by leave-one-out absolute error.

    Requires at least three points with pairwise-distinct scale-outs for
    the internal cross-validation.
    """
    pts = [(int(x), float(r)) for x, r in points]
    distinct = sorted({x for x, _ in pts})
    if len(distinct) < 3:
        raise DataError(
            f"hybrid baseline needs >= 3 points with distinct scale-outs, got {len(distinct)}"
        )

    def med_pairs(ps):
        xs = sorted({x for x, _ in ps})
        return xs, [_median([r for q, r in ps if q == x]) for x in xs]

    def predict_np(model, x):
        xs, ms = model
        return _interp_predict(xs, ms, x)

    err_par = _loo_error(pts, ernest_fit, ernest_predict)
    err_np = _loo_error(pts, med_pairs, predict_np)
    chosen = "nonparametric" if err_np < err_par else "parametric"
    grid, medians = med_pairs(pts)
    return BellModel(ernest_fit(pts), tuple(float(x) for x in grid),
                     tuple(medians), chosen)


def bell_predict(model: BellModel, x) -> float:
    """Predict with the selected member; the interpolant only covers the
    training range, so outside it the parametric member takes over."""
    if model.chosen == "nonparametric" and model.grid[0] <= x <= model.grid[-1]:
        return _interp_predict(model.grid, model.medians, x)
    return ernest_predict(model.parametric, x)

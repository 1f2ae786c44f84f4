"""Location/scale estimation and the standardized influence matrix.

Every statistic downstream of this module is a function of the matrix
Z with entries Z[t, j] = yhat[t] * xhat[t, j], where yhat and xhat are
the response and predictors standardized by location/scale estimates
computed once on the full sample. Two estimator modes are supported:
plain moments and median/MAD.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

# Normal-consistency factor for the MAD: 1/Phi^{-1}(3/4).
MAD_SCALE_FACTOR = 1.4826

# Bytes per column block of the robust standardization (131 columns at
# n = 1000). Blocks of 1-4 MB timed alike; full-width ones were about 20%
# slower at n = 1000, and would double the peak.
_BLOCK_BYTES = 1 << 20


class DegenerateColumnError(ValueError):
    """A column (or the response) has zero scale under the chosen estimator.

    ``column`` is the zero-based predictor column index, or None when the
    response itself is degenerate.
    """

    def __init__(self, column: int | None):
        self.column = column
        what = "response" if column is None else f"predictor column {column}"
        super().__init__(f"zero scale estimate for {what}; cannot standardize")


class EstimatorMode(Enum):
    SAMPLE = "sample"
    ROBUST = "robust"


@dataclass(frozen=True)
class Dataset:
    """A response vector and a dense predictor matrix, one row per observation."""

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be a vector with one entry per row of X")
        if X.shape[0] < 4:
            raise ValueError("need at least 4 observations")
        if X.shape[1] < 1:
            raise ValueError("need at least one predictor")
        if not (np.isfinite(y).all() and np.isfinite(X).all()):
            raise ValueError("data contains NaN or Inf")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class InfluenceMatrix:
    """Standardized influence matrix and the estimates that produced it.

    Z[t, j] = yhat[t] * (X[t, j] - mu_x[j]) / sigma_x[j], with
    yhat[t] = (y[t] - mu_y) / sigma_y. The mean of Z rows over an index
    set S equals the marginal-correlation estimate based on S (under the
    fixed full-sample standardization).

    Every subset statistic depends on Z only through p and the n x n
    Gram matrix K = Z Z^T (``gram``), formed on first use and kept: 8n^2
    bytes, taken once per sample. Z must not change after that.
    """

    Z: np.ndarray
    yhat: np.ndarray
    mu_y: float
    sigma_y: float
    mu_x: np.ndarray
    sigma_x: np.ndarray
    mode: EstimatorMode

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        return self.Z @ self.Z.T


# ---------------------------------------------------------------------------
# location / scale
# ---------------------------------------------------------------------------


def _select_medians(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.median`` of each contiguous row of ``rows`` into ``out``; reorders ``rows``.

    ``np.median`` partitions at two or three pivots (both middles, and -1
    for its NaN check), which takes NumPy's generic multi-pivot path; one
    pivot at h = n // 2 takes the SIMD selection path instead, about 3x
    faster. For even n the lower middle is the largest value left of h.
    The middle element or pair is then averaged by ``np.mean``, the
    reduction ``np.median`` ends with, so the bits are the same, signed
    zeros included. Callers guarantee finite values.
    """
    n = rows.shape[1]
    h = n // 2
    rows.partition(h, axis=1)
    if n % 2 == 0:
        rows[:, h - 1] = rows[:, :h].max(axis=1)
    return np.mean(rows[:, (n - 1) // 2 : h + 1], axis=1, out=out)


def _finite_vector(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError(f"{what} of an empty vector")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} requires finite values")
    return v.reshape(1, -1)


def median(v: np.ndarray) -> float:
    """Sample median; midpoint of the two central order statistics for even length."""
    rows = _finite_vector(v, "median").copy()
    return float(_select_medians(rows, np.empty(1))[0])


def mad_scale(v: np.ndarray) -> float:
    """Median absolute deviation times 1.4826.

    The factor makes the estimate consistent for the standard deviation
    under normality. A constant vector yields 0; callers that need a
    positive scale must reject that themselves.
    """
    rows = _finite_vector(v, "mad_scale")
    deviations = np.abs(rows - median(rows))
    return MAD_SCALE_FACTOR * float(_select_medians(deviations, np.empty(1))[0])


def _location_scale(v: np.ndarray, mode: EstimatorMode) -> tuple[float, float]:
    if mode is EstimatorMode.ROBUST:
        return median(v), mad_scale(v)
    return float(np.mean(v)), float(np.std(v, ddof=1))


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def standardize(d: Dataset, mode: EstimatorMode = EstimatorMode.ROBUST) -> InfluenceMatrix:
    """Build the influence matrix from raw data.

    Parameters
    ----------
    d : Dataset
    mode : EstimatorMode
        ROBUST uses median location and 1.4826*MAD scale; SAMPLE uses the
        mean and the (n-1)-denominator standard deviation.

    Returns
    -------
    InfluenceMatrix

    Raises
    ------
    DegenerateColumnError
        If the response or any predictor column has zero scale.
    """
    mu_y, sigma_y = _location_scale(d.y, mode)
    if sigma_y <= 0.0:
        raise DegenerateColumnError(None)

    # Z is built in one n-by-p buffer: centre, scale, then weight by yhat.
    if mode is EstimatorMode.ROBUST:
        # One column block at a time: copied transposed so that each column
        # is a contiguous row, selected for mu_x, then refilled with |Z| for
        # the MAD. Peak memory is Z plus one block.
        n, p = d.X.shape
        width = max(1, _BLOCK_BYTES // (8 * n))
        block = np.empty((min(width, p), n))
        Z, mu_x, sigma_x = np.empty((n, p)), np.empty(p), np.empty(p)
        for j in range(0, p, width):
            cols = slice(j, j + width)
            rows = block[: min(width, p - j)]
            np.copyto(rows, d.X[:, cols].T)
            _select_medians(rows, mu_x[cols])
            np.subtract(d.X[:, cols], mu_x[cols], out=Z[:, cols])
            np.abs(Z[:, cols].T, out=rows)
            _select_medians(rows, sigma_x[cols])
        sigma_x *= MAD_SCALE_FACTOR
    else:
        mu_x = np.mean(d.X, axis=0)
        sigma_x = np.std(d.X, axis=0, ddof=1)
        Z = d.X - mu_x
    bad = np.flatnonzero(sigma_x <= 0.0)
    if bad.size:
        raise DegenerateColumnError(int(bad[0]))

    yhat = (d.y - mu_y) / sigma_y
    Z /= sigma_x
    Z *= yhat[:, None]
    return InfluenceMatrix(
        Z=Z,
        yhat=yhat,
        mu_y=mu_y,
        sigma_y=sigma_y,
        mu_x=np.asarray(mu_x, dtype=np.float64),
        sigma_x=np.asarray(sigma_x, dtype=np.float64),
        mode=mode,
    )

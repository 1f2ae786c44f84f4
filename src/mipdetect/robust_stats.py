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


def _location_scale(A: np.ndarray, mode: EstimatorMode):
    """(A minus its column locations, the locations, the scales) of the n x q matrix A.

    SAMPLE reduces the whole matrix along axis 0: the mean, then the
    (n-1)-denominator standard deviation, and only then allocates the
    centred copy, which can reuse the memory of np.std's temporaries.
    ROBUST takes the median and 1.4826 * MAD over 1 MB column blocks, each
    copied transposed so that its columns are contiguous rows, selected
    for the median, then refilled with the absolute deviations. Its peak
    memory is the centred copy plus one block.
    """
    if mode is EstimatorMode.SAMPLE:
        mu, sigma = np.mean(A, axis=0), np.std(A, axis=0, ddof=1)
        return A - mu, mu, sigma
    n, q = A.shape
    width = max(1, _BLOCK_BYTES // (8 * n))
    block = np.empty((min(width, q), n))
    out, mu, sigma = np.empty((n, q)), np.empty(q), np.empty(q)
    for j in range(0, q, width):
        cols = slice(j, j + width)
        rows = block[: min(width, q - j)]
        np.copyto(rows, A[:, cols].T)
        _select_medians(rows, mu[cols])
        np.subtract(A[:, cols], mu[cols], out=out[:, cols])
        np.abs(out[:, cols].T, out=rows)
        _select_medians(rows, sigma[cols])
    sigma *= MAD_SCALE_FACTOR
    return out, mu, sigma


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def standardize(d: Dataset, mode: EstimatorMode = EstimatorMode.ROBUST) -> InfluenceMatrix:
    """Build the influence matrix from raw data.

    The response and each predictor column get one (location, scale) from
    ``_location_scale``, the response first. Z is centred, scaled, then
    weighted by yhat in one n-by-p buffer.

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
    centred_y, (mu_y,), (sigma_y,) = _location_scale(d.y[:, None], mode)
    if sigma_y <= 0.0:
        raise DegenerateColumnError(None)
    Z, mu_x, sigma_x = _location_scale(d.X, mode)
    bad = np.flatnonzero(sigma_x <= 0.0)
    if bad.size:
        raise DegenerateColumnError(int(bad[0]))
    yhat = centred_y[:, 0] / sigma_y
    Z /= sigma_x
    Z *= yhat[:, None]
    return InfluenceMatrix(
        Z=Z,
        yhat=yhat,
        mu_y=float(mu_y),
        sigma_y=float(sigma_y),
        mu_x=mu_x,
        sigma_x=sigma_x,
        mode=mode,
    )

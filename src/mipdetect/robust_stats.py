"""Location/scale estimation and the standardized influence matrix.

Every statistic downstream of this module is a function of the matrix
Z with entries Z[t, j] = yhat[t] * xhat[t, j], where yhat and xhat are
the response and predictors standardized by location/scale estimates
computed once on the full sample. Two estimator modes are supported:
plain moments and median/MAD.

The large dense work runs in fixed panels on one OpenBLAS thread each
(``_one_blas_thread``), spread over the usable CPUs by ``_spread``: the
robust location/scale's column blocks, the row panels that build Z and
the 256-row panels of K = Z Z^T. A panel's bits therefore never depend
on how many threads run, and no OpenBLAS worker is woken to spin after a
product. Work of a single panel (K at n <= 256) stays one call on the
caller's BLAS threads.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

# Normal-consistency factor for the MAD: 1/Phi^{-1}(3/4).
MAD_SCALE_FACTOR = 1.4826

# Bytes of the robust scale's column blocks, and of Z's row panels, shared
# by the workers: 131 columns or 65 rows each at n = 1000, p = 2000 on 2
# CPUs. Column blocks of 1-4 MB timed alike on one worker; full-width ones
# were about 20% slower at n = 1000, and would double the peak. Half-size
# blocks on 2 CPUs cost 3 ms of wall and 6 ms of CPU per standardize there.
_BLOCK_BYTES = 1 << 21

# Rows per panel of K = Z Z^T: n <= 256 is one product, as a single call.
_GRAM_PANEL = 256


class _OneBlasThread:
    """OpenBLAS on one thread inside ``with``; a no-op without NumPy's bundled OpenBLAS symbols.

    The count is process-wide: entries nest across threads and the last exit restores it.
    """

    lock, depth, saved, calls = threading.Lock(), 0, 0, None

    def symbols(self) -> tuple:
        """The (get, set) thread-count calls, looked up on first use; () where missing."""
        if self.calls is None:
            libs = Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*.so")
            try:
                lib = ctypes.CDLL(str(next(libs)))
                self.calls = (lib.scipy_openblas_get_num_threads64_,
                              lib.scipy_openblas_set_num_threads64_)
            except (StopIteration, OSError, AttributeError):
                self.calls = ()
        return self.calls

    def __enter__(self):
        with self.lock:
            if self.depth == 0 and self.symbols():
                self.saved = self.calls[0]()
                self.calls[1](1)
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            if self.depth == 0 and self.calls:
                self.calls[1](self.saved)


_one_blas_thread = _OneBlasThread()


def _workers() -> int:
    """Threads ``_spread`` runs on: the usable CPUs, or 1 where nothing can be pinned."""
    return len(os.sched_getaffinity(0)) if _one_blas_thread.symbols() else 1


def _spread(fn, tasks) -> None:
    """Run ``fn(task)`` for every task, inside the pin, on min(#tasks, usable CPUs) threads.

    The caller is one of the threads, and each thread takes the next task
    until none is left. The first exception a task raises stops the others
    taking tasks and is raised here once every thread has finished. Tasks
    must write disjoint outputs. A single task runs inline on the caller
    without the pin, as one call on the caller's BLAS threads; so do all
    tasks without the OpenBLAS symbols, where nothing can be pinned.
    """
    tasks = list(tasks)
    if len(tasks) < 2 or not _one_blas_thread.symbols():
        for task in tasks:
            fn(task)
        return
    pending, lock, errors = iter(tasks), threading.Lock(), []
    done = object()

    def work():
        while True:
            with lock:
                task = done if errors else next(pending, done)
            if task is done:
                return
            try:
                fn(task)
            except BaseException as e:
                with lock:
                    errors.append(e)
                return

    with _one_blas_thread:
        threads = [threading.Thread(target=work) for _ in range(min(len(tasks), _workers()) - 1)]
        for t in threads:
            t.start()
        work()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


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
        """K = Z Z^T from fixed 256-row panels: syrk on the diagonal, one product to its right.

        Each product is written into K in place and the right-hand block is
        mirrored below the diagonal, so K is exactly symmetric. Past n = 256
        every panel runs on one OpenBLAS thread (``_spread``) and K's bits do
        not follow the thread count; up to it K is one call on the caller's
        BLAS threads, as before.
        """
        Z, n, b = self.Z, self.n, _GRAM_PANEL
        K = np.empty((n, n))

        def panel(i):
            rows, right = slice(i, i + b), slice(i + b, n)
            np.matmul(Z[rows], Z[rows].T, out=K[rows, rows])
            np.matmul(Z[rows], Z[right].T, out=K[rows, right])
            K[right, rows] = K[rows, right].T

        _spread(panel, range(0, n, b))
        return K


# ---------------------------------------------------------------------------
# location / scale
# ---------------------------------------------------------------------------


def _select_medians(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.median`` of each contiguous row of ``rows`` into ``out``; reorders ``rows``.

    ``np.median`` partitions at two or three pivots (both middles, and -1
    for its NaN check), which takes NumPy's generic multi-pivot path; one
    pivot at h = n // 2 takes the SIMD selection path instead, about 3x
    faster. For even n the lower middle is the largest value left of h.
    The middle element or pair (copied out: each row keeps its values) is
    averaged by ``np.mean``, the reduction ``np.median`` ends with, so the
    bits are the same, signed zeros included. Callers guarantee finite values.
    """
    n = rows.shape[1]
    h = n // 2
    rows.partition(h, axis=1)
    mid = rows[:, h : h + 1] if n % 2 else np.stack((rows[:, :h].max(axis=1), rows[:, h]), axis=1)
    return np.mean(mid, axis=1, out=out)


def _location_scale(A: np.ndarray, mode: EstimatorMode):
    """(The column locations, the column scales) of the n x q matrix A.

    SAMPLE reduces the whole matrix along axis 0: the mean, then the
    (n-1)-denominator standard deviation. ROBUST takes the median and
    1.4826 * MAD over column blocks spread over the CPUs (``_spread``),
    each block copied transposed so that its columns are contiguous rows,
    selected for the median, then centred and made absolute in place for
    the MAD, which does not depend on the order the selection left. The
    blocks share 2 MB among the CPUs; medians are exact, so the bits do not
    depend on the block width.
    """
    if mode is EstimatorMode.SAMPLE:
        return np.mean(A, axis=0), np.std(A, axis=0, ddof=1)
    n, q = A.shape
    width = max(1, _BLOCK_BYTES // (8 * n * _workers()))
    mu, sigma = np.empty(q), np.empty(q)

    def block(j):
        cols = slice(j, j + width)
        rows = A[:, cols].T.copy()
        _select_medians(rows, mu[cols])
        rows -= mu[cols, None]
        np.abs(rows, out=rows)
        _select_medians(rows, sigma[cols])

    _spread(block, range(0, q, width))
    sigma *= MAD_SCALE_FACTOR
    return mu, sigma


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def standardize(d: Dataset, mode: EstimatorMode = EstimatorMode.ROBUST) -> InfluenceMatrix:
    """Build the influence matrix from raw data.

    The response and each predictor column get one (location, scale) from
    ``_location_scale``, the response first. Z is centred, scaled, then
    weighted by yhat, in row panels that share 2 MB (``_spread``).

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
    (mu_y,), (sigma_y,) = _location_scale(d.y[:, None], mode)
    if sigma_y <= 0.0:
        raise DegenerateColumnError(None)
    mu_x, sigma_x = _location_scale(d.X, mode)
    bad = np.flatnonzero(sigma_x <= 0.0)
    if bad.size:
        raise DegenerateColumnError(int(bad[0]))
    yhat, Z = (d.y - mu_y) / sigma_y, np.empty(d.X.shape)
    height = max(1, _BLOCK_BYTES // (8 * d.p * _workers()))

    def panel(i):
        rows = slice(i, i + height)
        np.subtract(d.X[rows], mu_x, out=Z[rows])
        Z[rows] /= sigma_x
        Z[rows] *= yhat[rows, None]

    _spread(panel, range(0, d.n, height))
    return InfluenceMatrix(
        Z=Z,
        yhat=yhat,
        mu_y=float(mu_y),
        sigma_y=float(sigma_y),
        mu_x=mu_x,
        sigma_x=sigma_x,
        mode=mode,
    )

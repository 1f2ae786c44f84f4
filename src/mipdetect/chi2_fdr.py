"""Chi-square(1) tail probabilities and Benjamini-Hochberg selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# p-values are clamped to [P_EPS, 1] before any log transform so reports
# never contain -inf; log10(P_EPS) = -300.
P_EPS = 1e-300


@dataclass(frozen=True)
class PValueSet:
    """A vector of p-values aligned with observation indices."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("p-values must form a vector")
        if np.isnan(v).any() or (v < 0).any() or (v > 1).any():
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class BhResult:
    """Outcome of the step-up procedure.

    ``rejected`` holds the positions (into the input vector) of all
    p-values at or below ``threshold``; ``threshold`` is None when
    nothing was rejected.
    """

    rejected: np.ndarray
    threshold: float | None
    alpha0: float


def chi2_1_sf_vec(t: np.ndarray) -> np.ndarray:
    """P(chi2(1) > t) = erfc(sqrt(t/2)) for a nonnegative array of statistics."""
    t = np.asarray(t, dtype=np.float64)
    if not np.isfinite(t).all() or (t < 0).any():
        raise ValueError("statistics must be finite and nonnegative")
    return np.array([math.erfc(math.sqrt(0.5 * x)) for x in t.ravel()]).reshape(t.shape)


def bh_select(p, alpha0: float) -> BhResult:
    """Benjamini-Hochberg step-up selection at FDR level alpha0.

    Accepts a PValueSet or a plain vector. The threshold is the largest
    order statistic p_(k) with p_(k) <= k * alpha0 / n; everything at or
    below it is rejected (ties are rejected together).
    """
    if not (0.0 < alpha0 < 1.0):
        raise ValueError("alpha0 must be in (0, 1)")
    values = p.values if isinstance(p, PValueSet) else PValueSet(np.asarray(p)).values
    n = values.shape[0]
    if n == 0:
        return BhResult(rejected=np.empty(0, dtype=np.intp), threshold=None, alpha0=alpha0)
    order = np.sort(values)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    ok = order <= ranks * (alpha0 / n)
    if not ok.any():
        return BhResult(rejected=np.empty(0, dtype=np.intp), threshold=None, alpha0=alpha0)
    threshold = float(order[np.flatnonzero(ok)[-1]])
    rejected = np.flatnonzero(values <= threshold).astype(np.intp)
    return BhResult(rejected=rejected, threshold=threshold, alpha0=alpha0)


def clamp_pvalues(p: np.ndarray) -> np.ndarray:
    """Clamp p-values into [P_EPS, 1] for safe log transforms."""
    return np.clip(np.asarray(p, dtype=np.float64), P_EPS, 1.0)


def log10_pvalues(p: np.ndarray) -> np.ndarray:
    """log10 of clamped p-values; never below -300."""
    return np.log10(clamp_pvalues(p))

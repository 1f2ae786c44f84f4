"""Leave-one-out influence measure and its single-pass detector.

The statistic for observation k is n^2 * D_k where D_k is the mean
squared change in the marginal-correlation estimates when k is removed
(standardization held fixed). Under the null it is asymptotically
chi-square(1), so detection is BH selection on the tail probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chi2_fdr import PValueSet, bh_select, chi2_1_sf_vec
from .mip import DetectionReport, report_records
from .robust_stats import InfluenceMatrix
from .subsample import _scores


@dataclass(frozen=True)
class HimScores:
    statistics: np.ndarray
    pvalues: PValueSet


def him_scores(Z: InfluenceMatrix) -> HimScores:
    """Leave-one-out statistics for all observations in one pass.

    n^2 * D_k = p^{-1} || Z_k - mean of the other rows ||^2: the other
    n - 1 rows are one more subset, scored like the sweep's from c =
    colsum(Z), R = Z c and the squared row norms K_kk, in O(np) total and
    without forming the Gram matrix.
    """
    n = Z.n
    if n < 3:
        raise ValueError("need at least 3 observations")
    c = Z.Z.sum(axis=0)
    R = Z.Z @ c
    K_kk = np.einsum("ij,ij->i", Z.Z, Z.Z)
    stats = _scores(c @ c - 2.0 * R + K_kk, R - K_kk, K_kk, n - 1, Z.p)
    return HimScores(statistics=stats, pvalues=PValueSet(chi2_1_sf_vec(stats)))


def him_detect(Z: InfluenceMatrix, alpha0: float = 0.05) -> DetectionReport:
    """BH selection at alpha0 over the leave-one-out p-values."""
    scores = him_scores(Z)
    records = report_records(
        Z.n, bh_select(scores.pvalues, alpha0).rejected,
        p_value=scores.pvalues.values, statistic=scores.statistics,
    )
    config = {"alpha0": alpha0, "estimator": Z.mode.value}
    return DetectionReport(method="him", records=records, config=config, rounds_used=1)

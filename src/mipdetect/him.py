"""Leave-one-out influence measure and its single-pass detector.

The statistic for observation k is n^2 * D_k where D_k is the mean
squared change in the marginal-correlation estimates when k is removed
(standardization held fixed). Under the null it is asymptotically
chi-square(1), so detection is BH selection on the tail probabilities.
"""

from __future__ import annotations

import numpy as np

from .chi2_fdr import bh_select, chi2_1_sf_vec
from .mip import DetectionReport, report_records
from .robust_stats import InfluenceMatrix
from .subsample import _scores


def him_scores(Z: InfluenceMatrix) -> np.ndarray:
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
    return _scores(c @ c - 2.0 * R + K_kk, R - K_kk, K_kk, n - 1, Z.p)


def him_detect(Z: InfluenceMatrix, alpha0: float = 0.05) -> DetectionReport:
    """BH selection at alpha0 over the leave-one-out p-values."""
    stats = him_scores(Z)
    pvals = chi2_1_sf_vec(stats)
    records = report_records(
        Z.n, bh_select(pvals, alpha0).rejected, p_value=pvals, statistic=stats
    )
    config = {"alpha0": alpha0, "estimator": Z.mode.value}
    return DetectionReport(method="him", records=records, config=config, rounds_used=1)

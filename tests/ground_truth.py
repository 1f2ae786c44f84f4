"""Ground-truth diagnostics of the group statistic, for the tests only.

Both need quantities a detector never has (the planted rows, a drawn
plan), so they live next to the tests that check the paper's
decomposition arguments rather than in the package.
"""

import numpy as np

from mipdetect.subsample import SubsetPlan


def point_energy(Z, k: int) -> float:
    """Standalone signal of observation k: p^{-1} || Z_k ||^2."""
    if not (0 <= k < Z.n):
        raise ValueError("target index out of range")
    row = Z.Z[k]
    return float(np.mean(row * row))


def oracle_decomposition(
    Z, truth, k: int, plan: SubsetPlan
) -> tuple[float, float, float, float]:
    """(E_k, F_min, F_max, J_max) of the group-statistic decomposition.

    Splits each subset into its influential part O_r and clean part B_r:
    F terms are the extremes over r of p^{-1} || sum over O_r of Z_t /
    (n_sub - 1) ||^2 (the joint pull of the influential members), J_max
    the largest p^{-1} || mean over B_r ||^2. Requires ground truth, so
    this is a simulation diagnostic only.
    """
    truth_mask = np.zeros(Z.n, dtype=bool)
    truth_mask[np.asarray(truth, dtype=np.int64)] = True
    divisor = plan.n_sub - 1
    f_vals = np.empty(plan.m)
    j_vals = np.empty(plan.m)
    for r in range(plan.m):
        sub = plan.subsets[r]
        inf_rows = sub[truth_mask[sub]]
        clean_rows = sub[~truth_mask[sub]]
        if inf_rows.size:
            w_inf = Z.Z[inf_rows].sum(axis=0) / divisor
            f_vals[r] = np.mean(w_inf * w_inf)
        else:
            f_vals[r] = 0.0
        if clean_rows.size:
            b_mean = Z.Z[clean_rows].mean(axis=0)
            j_vals[r] = np.mean(b_mean * b_mean)
        else:
            j_vals[r] = 0.0
    return (
        point_energy(Z, k),
        float(f_vals.min()),
        float(f_vals.max()),
        float(j_vals.max()),
    )

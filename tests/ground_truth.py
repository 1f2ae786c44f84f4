"""Ground truth and oracles for the tests only.

The group-statistic diagnostics need quantities a detector never has
(the planted rows, drawn subsets), so they live next to the tests that
check the paper's decomposition arguments rather than in the package.
The rest are direct, slow recomputations that the package's fast paths
are checked against, and which no product path calls.
"""

import math

import numpy as np

from mipdetect.robust_stats import MAD_SCALE_FACTOR
from mipdetect.simbench import _SIGMA, ConvergenceError
from mipdetect.subsample import _stream_key


def robust_location_scale(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Z before scaling, mu_x, sigma_x) of robust standardization by np.median.

    Whole-matrix np.median calls, whose bytes the package's block-wise
    median selection must reproduce.
    """
    mu_x = np.median(X, axis=0)
    centered = X - mu_x
    sigma_x = MAD_SCALE_FACTOR * np.median(np.abs(centered), axis=0)
    return centered, mu_x, sigma_x


def marginal_correlation(Z, S) -> np.ndarray:
    """Marginal-correlation estimate based on the observations in S.

    Component j is the mean of Z[t, j] over t in S. With S = all rows and
    sample-mode standardization this is the usual vector of sample
    correlations between the response and each predictor.
    """
    idx = np.asarray(S, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("marginal_correlation over an empty index set")
    if idx.min() < 0 or idx.max() >= Z.n:
        raise ValueError("index out of range")
    return Z.Z[idx].mean(axis=0)


def him_statistic(Z, k: int) -> float:
    """n^2 * D_k of the leave-one-out measure for a single observation."""
    n = Z.n
    if n < 3:
        raise ValueError("need at least 3 observations")
    if not (0 <= k < n):
        raise ValueError("observation index out of range")
    colsum = Z.Z.sum(axis=0)
    a = (n * Z.Z[k] - colsum) / (n - 1)
    return float(np.mean(a * a))


def chi2_1_sf(t: float) -> float:
    """Survival function of chi-square with one degree of freedom.

    P(chi2(1) > t) = erfc(sqrt(t/2)), one statistic at a time: the scalar
    reference for the package's ``chi2_1_sf_vec``.
    """
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("statistic must be finite and nonnegative")
    return math.erfc(math.sqrt(0.5 * t))


def chi2_1_quantile(level: float) -> float:
    """Quantile of chi-square(1): the t with P(chi2(1) <= t) = level.

    Solved by bisection on the survival function; the returned point has
    |sf(t) - (1 - level)| <= 1e-12 or brackets it to machine width.
    """
    level = float(level)
    if not (0.0 < level < 1.0):
        raise ValueError("level must be strictly inside (0, 1)")
    target = 1.0 - level
    lo, hi = 0.0, 1.0
    while chi2_1_sf(hi) > target:
        hi *= 2.0
        if hi > 1e8:  # sf underflows long before this
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if chi2_1_sf(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def draw_positions(seed: int, keys, round_id: int, m: int, width: int, s: int) -> np.ndarray:
    """(len(keys) * m, s) positions in range(width), one unsorted subset per row.

    The per-row draw the package's indicator rows must reproduce: row r
    of key k holds ``np.argpartition``'s s smallest of ``width`` uniforms
    from a Philox generator built afresh on stream (seed, k, round_id, r),
    with every key range-checked row by row.
    """
    rows = []
    for k in keys:
        for r in range(m):
            key = _stream_key(seed, int(k), round_id, r)
            gen = np.random.Generator(np.random.Philox(key=key))
            rows.append(gen.random(width))
    u = np.array(rows).reshape(len(rows), width)
    return np.argpartition(u, s - 1, axis=1)[:, :s]


def indicator_rows(cols: np.ndarray, width: int, skip=None) -> np.ndarray:
    """0/1 matrix with a one at (row, cols[row, j]) for every j.

    With ``skip`` (one target position per block of equal size), ``cols``
    are positions among the other width - 1 columns and move past the
    block's target first.
    """
    cols = np.array(cols)
    if skip is not None:
        cols += cols >= np.repeat(skip, len(cols) // len(skip))[:, None]
    W = np.zeros((cols.shape[0], width))
    W[np.arange(cols.shape[0])[:, None], cols] = 1.0
    return W


def group_statistic(Z, A_r, k: int, n_sub: int) -> float:
    """Group-deletion statistic n_sub^2 * D_{r,k} for one subset.

    Computed directly as p^{-1} || colsum(A_r)/(n_sub-1) - Z_k ||^2, which
    is algebraically identical to comparing the marginal-correlation
    estimates with and without the target; the package's sweeps score
    the same quantity from inner products.
    """
    idx = np.asarray(A_r, dtype=np.int64)
    if n_sub < 2 or idx.size != n_sub - 1:
        raise ValueError("subset must have n_sub - 1 indices")
    if np.unique(idx).size != idx.size:
        raise ValueError("subset indices must be distinct")
    if (idx == k).any():
        raise ValueError("subset must not contain the target")
    if not (0 <= k < Z.n):
        raise ValueError("target index out of range")
    diff = Z.Z[idx].sum(axis=0) / (n_sub - 1) - Z.Z[k]
    return float(np.mean(diff * diff))


def point_energy(Z, k: int) -> float:
    """Standalone signal of observation k: p^{-1} || Z_k ||^2."""
    if not (0 <= k < Z.n):
        raise ValueError("target index out of range")
    row = Z.Z[k]
    return float(np.mean(row * row))


def oracle_decomposition(
    Z, truth, k: int, subsets: np.ndarray
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
    m, divisor = subsets.shape
    f_vals = np.empty(m)
    j_vals = np.empty(m)
    for r, sub in enumerate(subsets):
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


def lasso_path_by_solve(X, y, lambdas) -> np.ndarray:
    """The lasso homotopy with a fresh solve of X_A^T X_A at every step.

    The same join and drop rules as the package's path, which keeps an
    updated inverse instead: each step solves (X_A^T X_A) [u, d] =
    [X_A^T y, n s] afresh, and joins stop once |A| reaches
    rank(X), found by an SVD.
    """
    n, p = X.shape
    out = np.zeros((len(lambdas), p))
    active: list[int] = []
    s = u = d = np.zeros(0)
    rank = np.linalg.matrix_rank(X)
    g = 0
    for _ in range(8 * (n + p)):
        XA = X[:, active]
        if active:
            try:
                u, d = np.linalg.solve(XA.T @ XA, np.column_stack((XA.T @ y, n * s))).T
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError("singular active set on the lasso path") from exc
        e, a = np.vstack((y - XA @ u, XA @ d)) @ X / n
        den = 1.0 - _SIGMA * a
        with np.errstate(divide="ignore", invalid="ignore"):
            drop = np.where(s * d < 0, u / d, -math.inf)
            join = np.where(den > 1e-9, _SIGMA * e / den, -math.inf)
        join[:, active if len(active) < rank else slice(None)] = -math.inf
        cand = np.concatenate((drop, join.ravel()))
        k = int(np.argmax(cand))
        nxt = max(float(cand[k]), 0.0)
        while g < len(lambdas) and lambdas[g] >= nxt:
            beta = u - lambdas[g] * d
            out[g, active] = np.where(beta * s > 0, beta, 0.0)
            g += 1
        if g == len(lambdas):
            return out
        if k < len(active):
            del active[k]
            s = np.delete(s, k)
        else:
            row, j = divmod(k - len(active), p)
            active.append(j)
            s = np.append(s, _SIGMA[row])
    raise ConvergenceError("lasso path did not reach the end of the grid")

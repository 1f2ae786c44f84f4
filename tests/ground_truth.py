"""Ground truth and oracles for the tests only.

The group-statistic diagnostics need quantities a detector never has
(the planted rows, drawn subsets), so they live next to the tests that
check the paper's decomposition arguments rather than in the package.
The rest are direct, slow recomputations that the package's fast paths
are checked against, and which no product path calls.
"""

import contextlib
import hashlib
import math

import numpy as np

from mipdetect.cli import CliError, _header_names
from mipdetect.robust_stats import MAD_SCALE_FACTOR, EstimatorMode, InfluenceMatrix, _one_blas_thread
from mipdetect.simbench import _SIGMA, ConvergenceError
from mipdetect.subsample import (
    _POOL_PANEL,
    _SHARED_KEY_SLOT,
    _indicators,
    _stream_key,
    _uniforms,
    subset_ids,
)


# Exact negation and power-of-two scaling leave every product in Z Z^T, and so
# every bit of a report, unchanged.
TRANSFORMS = {
    "negated_response": lambda y, X: (-y, X),
    "every_third_column_negated": lambda y, X: (y, X * np.resize([1.0, 1.0, -1.0], X.shape[1])),
    "power_of_two_scales": lambda y, X: (0.5 * y, 4.0 * X),
}

# A shift and a column permutation change the products' roundoff, so only the
# flagged set is expected to stay the same, on a fixed draw.
FLAG_EQUAL_TRANSFORMS = {
    "shifted_predictors": lambda y, X: (y, X + 3.0),
    "permuted_columns": lambda y, X: (y, X[:, np.random.default_rng(5).permutation(X.shape[1])]),
}


def influence_from(Z) -> InfluenceMatrix:
    """Wrap a raw matrix as standardized data; only the products of its rows matter."""
    Z = np.asarray(Z, dtype=np.float64)
    n, p = Z.shape
    return InfluenceMatrix(
        Z=Z,
        yhat=np.ones(n),
        mu_y=0.0,
        sigma_y=1.0,
        mu_x=np.zeros(p),
        sigma_x=np.ones(p),
        mode=EstimatorMode.SAMPLE,
    )


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


def gathered_pool_extremes(Z, active, m: int, n_sub: int, seed: int, round_id: int):
    """(t_min, t_max, served) of a shared-pool sweep, scored by gathering each target's rows.

    The pool is the sweep's own draw and its product with K_U is taken in
    the same fixed ``_POOL_PANEL``-row products (one OpenBLAS thread each
    past one panel), so the bits can match. Then ``np.nonzero`` lists each
    served target's first m pooled rows that exclude it, and the statistic
    of every such (row, target) pair is gathered from the whole product
    before its extremes are taken. Entries of unserved targets are NaN.
    """
    av = np.unique(active)
    n_U, s, M = av.size, n_sub - 1, subset_ids(m, True)
    K = Z.gram[np.ix_(av, av)]
    member = _indicators(_uniforms(seed, [_SHARED_KEY_SLOT], round_id, M, n_U), s)
    avail = member == 0.0
    rank = np.cumsum(avail, axis=0)
    served = rank[-1] >= m
    rows = np.nonzero((avail & (rank <= m))[:, served].T)[1].reshape(-1, m)
    with _one_blas_thread if M > _POOL_PANEL else contextlib.nullcontext():
        R = np.vstack([member[lo:lo + _POOL_PANEL] @ K for lo in range(0, M, _POOL_PANEL)])
    q = np.einsum("ij,ij->i", R, member)
    r, k = rows.ravel(), np.repeat(np.flatnonzero(served), m)
    stats = np.maximum((q[r] / s - 2.0 * R[r, k]) / s + K.diagonal()[k], 0.0) / Z.p
    stats = stats.reshape(rows.shape)
    t_min, t_max = np.full(n_U, np.nan), np.full(n_U, np.nan)
    t_min[served], t_max[served] = stats.min(axis=1), stats.max(axis=1)
    return t_min, t_max, served


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


def _parse_cells(raw: bytes, path: str, delimiter: str, header_mode: str):
    """(matrix, header names or None, sha256) of ``raw``, parsing one cell at a time with float().

    Accepts and rejects exactly what the CLI contract does, and names the
    first problem by its position (CliError(2)).
    """
    digest = hashlib.sha256(raw).hexdigest()

    try:
        lines = [
            line
            for line in raw.decode("utf-8").removeprefix("\ufeff").splitlines()
            if line.strip() != ""
        ]
    except UnicodeDecodeError as e:
        raise CliError(2, f"{path}: invalid UTF-8 at byte {e.start + 1}") from None
    if not lines:
        raise CliError(2, "input has no rows")

    first = lines[0].split(delimiter)
    names = _header_names(first, header_mode)
    body = lines[1:] if names is not None else lines
    if not body:
        raise CliError(2, "input has a header but no data rows")

    width = len(first)
    if width < 2:
        raise CliError(2, "need a response column and at least one predictor; "
                          f"the first row has one column when split on {delimiter!r}")
    data = np.empty((len(body), width))
    offset = 2 if names is not None else 1
    for i, row in enumerate(line.split(delimiter) for line in body):  # one row's cells at a time
        if len(row) != width:
            raise CliError(
                2, f"row {i + offset}: expected {width} columns, found {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise CliError(
                    2,
                    f"row {i + offset}, column {j + 1}: "
                    f"could not parse {cell!r} as a number",
                ) from None
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), data.shape)
        cell = body[i].split(delimiter)[j]
        raise CliError(2, f"row {i + offset}, column {j + 1}: non-finite value {cell!r}")
    return data, names, digest

"""Simulation scenarios, detection/fit metrics, a lasso solver, and the
experiment runner behind the benchmark tables.

Two contamination mechanisms are generated on top of a common AR(0.4)
Gaussian design: clustered near-duplicates of the most extreme response
(known to mask each other under leave-one-out diagnostics) and
mean-shifted rows with sign-flipped responses (known to swamp clean
observations). Ground-truth labels ride along so detector output can be
scored.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .him import him_detect
from .mip import MipConfig, max_detect, min_multiround_detect, mip_detect
from .robust_stats import Dataset, standardize
from .subsample import _one_blas_thread

log = logging.getLogger(__name__)

AR_COEFF = 0.4
# variance 0.5 for the contamination noise
INF_NOISE_SD = math.sqrt(0.5)

KNOWN_METHODS = ("MIP", "HIM", "MaxOnly", "MinMultiRound", "Full")


class ScenarioKind(Enum):
    NULL = "null"
    EXAMPLE1 = "example1"
    EXAMPLE2 = "example2"


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    mu: float = 0.0
    n: int = 100
    p: int = 1000
    n_inf: int = 10
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", ScenarioKind(self.kind))
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.n_inf < 0 or self.n_inf >= self.n / 2:
            raise ValueError("n_inf must be below n/2")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and nonnegative")


@dataclass(frozen=True)
class LabeledDataset:
    data: Dataset
    truth: np.ndarray
    beta_true: np.ndarray


@dataclass
class MetricRow:
    method: str
    mu: float
    tpr_inf: float
    fpr_inf: float
    f1: float
    err: float
    tpr_vs: float
    fpr_vs: float
    reps: int


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# sparse signals used by the masking and swamping scenarios; the null
# scenario reuses the first so its draws double as their clean base
_BETA_HEAD_MASKING = (0.4, 0.5, 0.5, 0.6, 0.4)
_BETA_HEAD_SWAMPING = (0.2, 0.4, 0.5, 0.3, 0.2)


def _beta_from_head(head, p: int) -> np.ndarray:
    if p < len(head):
        raise ValueError(f"need p >= {len(head)}")
    beta = np.zeros(p)
    beta[: len(head)] = head
    return beta


def gen_base(n: int, p: int, beta: np.ndarray, seed) -> Dataset:
    """Gaussian design with AR(0.4) cross-column correlation, unit noise.

    Columns follow X[:, j] = 0.4 X[:, j-1] + sqrt(0.84) xi so each has
    unit variance and corr(X_j, X_{j+1}) = 0.4. ``seed`` may be an int,
    a SeedSequence, or a Generator.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (p,):
        raise ValueError("beta must have length p")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    noise = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = noise[:, 0]
    carry = math.sqrt(1.0 - AR_COEFF**2)
    for j in range(1, p):
        X[:, j] = AR_COEFF * X[:, j - 1] + carry * noise[:, j]
    y = X @ beta + rng.standard_normal(n)
    return Dataset(y=y, X=X)


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    base_ss, inf_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(base_ss), np.random.default_rng(inf_ss)


def gen_example1(spec: ScenarioSpec) -> LabeledDataset:
    """Masking scenario: near-duplicates of the most extreme response.

    The first n_inf rows are rebuilt from the row i0 with the largest
    |y|: row i (1-based) copies X[i0] plus a bump of i/p on 10 random
    coordinates, and its response sits mu beyond y[i0], pushed away from
    the bulk (the shift carries the sign of y[i0], so an extreme
    negative anchor moves further negative). The cluster of lookalikes
    hides each member from leave-one-out checks.
    """
    if spec.p < 10:
        raise ValueError("need p >= 10 for the coordinate bumps")
    beta = _beta_from_head(_BETA_HEAD_MASKING, spec.p)
    rng_base, rng_inf = _streams(spec.seed)
    base = gen_base(spec.n, spec.p, beta, rng_base)
    X = base.X.copy()
    y = base.y.copy()
    i0 = int(np.argmax(np.abs(base.y)))
    outward = spec.mu if base.y[i0] >= 0 else -spec.mu
    for i in range(1, spec.n_inf + 1):
        row = i - 1
        bump_cols = rng_inf.choice(spec.p, size=10, replace=False)
        X[row] = base.X[i0]
        X[row, bump_cols] += i / spec.p
        eps = INF_NOISE_SD * rng_inf.standard_normal()
        y[row] = base.y[i0] + outward + eps * (i / spec.p)
    return LabeledDataset(
        data=Dataset(y=y, X=X),
        truth=np.arange(spec.n_inf, dtype=np.int64),
        beta_true=beta,
    )


def gen_example2(spec: ScenarioSpec) -> LabeledDataset:
    """Swamping scenario: mean-shifted rows with sign-flipped responses.

    Influential rows are N(nu, I) with nu = 0.5 mu on the last tenth of
    the coordinates, and their responses use a perturbed coefficient
    vector (the last 20 entries get j * 0.005 mu added) behind one
    random sign shared by the whole replicate. The coherent shifted
    cluster drags the reference statistics toward itself, making clean
    points look influential; independent per-row signs would cancel in
    the column means and produce no swamping at all.
    """
    if spec.p < 20:
        raise ValueError("need p >= 20 for the coefficient perturbation")
    beta = _beta_from_head(_BETA_HEAD_SWAMPING, spec.p)
    beta_tilted = beta.copy()
    beta_tilted[-20:] += np.arange(1, 21) * 0.005 * spec.mu
    shift_width = max(1, int(round(0.1 * spec.p)))
    nu = np.zeros(spec.p)
    nu[spec.p - shift_width:] = 0.5 * spec.mu

    rng_base, rng_inf = _streams(spec.seed)
    base = gen_base(spec.n, spec.p, beta, rng_base)
    X = base.X.copy()
    y = base.y.copy()
    sign = 1.0 if rng_inf.random() < 0.5 else -1.0
    for row in range(spec.n_inf):
        xi = nu + rng_inf.standard_normal(spec.p)
        eps = INF_NOISE_SD * rng_inf.standard_normal()
        X[row] = xi
        y[row] = sign * (beta_tilted @ xi + eps)
    return LabeledDataset(
        data=Dataset(y=y, X=X),
        truth=np.arange(spec.n_inf, dtype=np.int64),
        beta_true=beta,
    )


def gen_scenario(spec: ScenarioSpec) -> LabeledDataset:
    """Generate any scenario kind; the null kind has an empty truth set."""
    if spec.kind is ScenarioKind.EXAMPLE1:
        return gen_example1(spec)
    if spec.kind is ScenarioKind.EXAMPLE2:
        return gen_example2(spec)
    beta = _beta_from_head(_BETA_HEAD_MASKING, spec.p)
    rng_base, _ = _streams(spec.seed)
    base = gen_base(spec.n, spec.p, beta, rng_base)
    return LabeledDataset(
        data=base, truth=np.empty(0, dtype=np.int64), beta_true=beta
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def detection_metrics(flags, truth, n: int) -> tuple[float, float, float, float]:
    """(tpr, fpr, fnr, f1) of a flag set against ground truth."""
    truth_set = set(np.asarray(truth, dtype=np.int64).tolist())
    if not truth_set:
        raise ValueError("truth set must be non-empty; score null runs directly")
    flag_set = set(np.asarray(flags, dtype=np.int64).tolist())
    tpr = len(flag_set & truth_set) / len(truth_set)
    fpr = len(flag_set - truth_set) / (n - len(truth_set))
    fnr = 1.0 - tpr
    f1 = 2.0 * tpr / (2.0 * tpr + fpr + fnr) if tpr > 0 else 0.0
    return tpr, fpr, fnr, f1


def fit_metrics(beta_hat: np.ndarray, beta_true: np.ndarray) -> tuple[float, float, float]:
    """(err, tpr_vs, fpr_vs): coefficient error and support recovery rates."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta_true = np.asarray(beta_true, dtype=np.float64)
    if beta_hat.shape != beta_true.shape:
        raise ValueError("coefficient vectors differ in length")
    err = float(np.linalg.norm(beta_hat - beta_true))
    supp_true = np.flatnonzero(beta_true)
    if supp_true.size == 0:
        raise ValueError("true support is empty; tpr_vs undefined")
    supp_hat = np.flatnonzero(beta_hat)
    tpr_vs = np.isin(supp_true, supp_hat).sum() / supp_true.size
    off = beta_true.size - supp_true.size
    fpr_vs = (~np.isin(supp_hat, supp_true)).sum() / off if off else 0.0
    return err, float(tpr_vs), float(fpr_vs)


# ---------------------------------------------------------------------------
# lasso
# ---------------------------------------------------------------------------


class ConvergenceError(RuntimeError):
    """A lasso path failed its optimality (KKT) certificate."""


_KKT_TOL = 1e-7
_SIGMA = np.array([[1.0], [-1.0]])  # the two signs a joining variable can take


def _lasso_path(X, y, lambdas):
    """Exact lasso solutions at a non-increasing penalty grid, by homotopy.

    The minimizer of 0.5 n^{-1} ||y - X beta||^2 + lam ||beta||_1 is
    piecewise linear in lam (Osborne, Presnell and Turlach 2000; Efron et
    al. 2004). On an active set A with signs s it is beta_A = u - lam d,
    where (X_A^T X_A) [u, d] = [X_A^T y, n s], and the correlations
    X^T r / n = e + lam a come from the residuals of u and d. Walking down
    from lam = inf, each piece ends where an inactive correlation reaches
    +-lam (it joins) or an active coefficient reaches zero (it drops).
    Only moves toward an event count (a gap closing by under 1e-9 per
    unit of lam marks a column collinear with A), and an event overshot
    by roundoff fires at once. Once |A| reaches rank(X), inactive
    correlations stay a fixed fraction of lam, so joins wait for a drop.
    """
    n, p = X.shape
    out = np.zeros((len(lambdas), p))
    active: list[int] = []
    s = u = d = np.zeros(0)
    rank = np.linalg.matrix_rank(X)
    g = 0  # next grid penalty to read off
    for _ in range(8 * (n + p)):  # a healthy path takes about min(n, p) steps
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
            # a coefficient is zero or carries its sign; the rest is roundoff
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


def _certified_path(X, y, lambdas):
    """_lasso_path, with the KKT conditions checked at every point.

    The correlations c = X^T r / n must have |c_j| <= lam off the support
    and c_j = lam sign(beta_j) on it.
    """
    path = _lasso_path(X, y, lambdas)
    corr = (y - path @ X.T) @ X / X.shape[0]
    lam = np.asarray(lambdas)[:, None]
    gap = np.where(path != 0, np.abs(corr - lam * np.sign(path)), np.abs(corr) - lam)
    worst = float(gap.max(initial=0.0))
    if not worst <= _KKT_TOL:
        raise ConvergenceError(f"lasso path violates KKT by {worst:.3g}")
    return path


def default_lambda_grid(X: np.ndarray, y: np.ndarray, count: int = 50) -> np.ndarray:
    """50 log-spaced penalties from lambda_max down to lambda_max / 1000."""
    lam_max = float(np.abs(X.T @ y).max()) / X.shape[0] or 1.0  # 1.0 when X^T y = 0
    return np.geomspace(lam_max, 1e-3 * lam_max, count)


def lasso_fit(d: Dataset, lambdas=None, n_folds: int = 5):
    """Lasso solution with the penalty chosen by cross-validation.

    Minimizes 0.5 n^{-1} ||y - X beta||^2 + lambda ||beta||_1 exactly by
    following its piecewise-linear path down from lambda_max (the
    homotopy of _lasso_path). With an explicit single-penalty ``lambdas``
    the CV step is skipped. Folds are the deterministic interleaving
    i mod n_folds. Every path point used must pass the KKT conditions to
    1e-7, or ConvergenceError is raised. OpenBLAS runs on one thread.

    Returns (beta_hat, support).
    """
    X, y = d.X, d.y
    grid = default_lambda_grid(X, y) if lambdas is None else np.atleast_1d(
        np.asarray(lambdas, dtype=np.float64))
    if (np.diff(grid) > 0).any() or (grid <= 0).any():
        raise ValueError("penalty grid must be positive and non-increasing")
    cv_mse = np.zeros(grid.size)
    with _one_blas_thread:
        if grid.size > 1:
            fold_id = np.arange(X.shape[0]) % n_folds
            for f in range(n_folds):
                tr = fold_id != f
                path = _certified_path(X[tr], y[tr], grid)
                cv_mse += ((path @ X[~tr].T - y[~tr]) ** 2).mean(axis=1)
        best = int(np.argmin(cv_mse))  # ties: largest penalty wins
        beta = _certified_path(X, y, grid[best : best + 1])[0]
    return beta, np.flatnonzero(beta)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def _rep_seeds(spec_seed: int, rep: int) -> tuple[int, int]:
    state = np.random.SeedSequence((spec_seed, rep)).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def _clean_rows(n: int, flags: np.ndarray) -> np.ndarray:
    keep = np.ones(n, dtype=bool)
    keep[flags] = False
    return np.flatnonzero(keep)


def run_experiment(
    specs,
    methods,
    reps: int,
    cfg: MipConfig = MipConfig(),
    with_fit: bool = False,
) -> list[MetricRow]:
    """Mean metrics per (scenario, method) over repeated draws.

    Each rep derives its own data and detector seeds from the scenario
    seed, so re-running reproduces every row. Lasso-based fit metrics are
    computed when "Full" is among the methods (or with_fit=True); the
    detection methods then refit on the rows they kept. Reps that raise
    are counted out and logged, never silently averaged.
    """
    if reps < 1:
        raise ValueError("need at least one rep")
    methods = list(methods)
    if not methods:
        raise ValueError("need at least one method")
    for name in methods:
        if name not in KNOWN_METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {', '.join(KNOWN_METHODS)}")
    with_fit = with_fit or "Full" in methods

    specs = list(specs)
    acc = {(spec_idx, name): [] for spec_idx in range(len(specs)) for name in methods}

    for spec_idx, spec in enumerate(specs):
        for rep in range(reps):
            data_seed, det_seed = _rep_seeds(spec.seed, rep)
            labeled = gen_scenario(replace(spec, seed=data_seed))
            rep_cfg = replace(cfg, seed=det_seed)
            z_cache: dict = {}  # one standardization shared across methods
            for name in methods:
                try:
                    row = _run_one(labeled, name, rep_cfg, with_fit, z_cache)
                except Exception as e:
                    log.warning("rep %d of %s failed for %s: %s", rep, spec.kind.value, name, e)
                    continue
                acc[(spec_idx, name)].append(row)

    out: list[MetricRow] = []
    for spec_idx, spec in enumerate(specs):
        for name in methods:
            rows = acc[(spec_idx, name)]
            out.append(_aggregate(rows, name, spec))
    return out


def _run_one(labeled: LabeledDataset, name: str, cfg: MipConfig, with_fit: bool, z_cache: dict):
    d = labeled.data
    n = d.n
    if name == "Full":
        flags = np.empty(0, dtype=np.int64)
    elif name == "MIP":
        flags = mip_detect(d, cfg).flagged()
    else:
        if "Z" not in z_cache:
            z_cache["Z"] = standardize(d, cfg.estimator)
        Z = z_cache["Z"]
        if name == "HIM":
            flags = him_detect(Z, cfg.alpha0).flagged()
        elif name == "MaxOnly":
            flags = max_detect(Z, cfg).flagged()
        else:
            flags = min_multiround_detect(Z, cfg).flagged()

    row: dict = {}
    if name == "Full":
        row.update(tpr=math.nan, fpr=math.nan, f1=math.nan)
    elif labeled.truth.size:
        tpr, fpr, _, f1 = detection_metrics(flags, labeled.truth, n)
        row.update(tpr=tpr, fpr=fpr, f1=f1)
    else:
        row.update(tpr=math.nan, fpr=flags.size / n, f1=math.nan)

    kept = _clean_rows(n, flags) if with_fit else None
    if with_fit and kept.size >= 4:
        sub = Dataset(y=d.y[kept], X=d.X[kept])
        beta_hat, _ = lasso_fit(sub)
        err, tpr_vs, fpr_vs = fit_metrics(beta_hat, labeled.beta_true)
        row.update(err=err, tpr_vs=tpr_vs, fpr_vs=fpr_vs)
    else:
        # a detector that flags nearly everything leaves nothing to refit;
        # keep its detection metrics and report the fit columns as missing
        row.update(err=math.nan, tpr_vs=math.nan, fpr_vs=math.nan)
    return row


def _aggregate(rows: list[dict], name: str, spec: ScenarioSpec) -> MetricRow:
    def mean(key: str) -> float:
        vals = [r[key] for r in rows]
        if not vals or all(math.isnan(v) for v in vals):
            return math.nan
        return float(np.nanmean(vals))

    return MetricRow(
        method=name,
        mu=spec.mu,
        tpr_inf=mean("tpr"),
        fpr_inf=mean("fpr"),
        f1=mean("f1"),
        err=mean("err"),
        tpr_vs=mean("tpr_vs"),
        fpr_vs=mean("fpr_vs"),
        reps=len(rows),
    )


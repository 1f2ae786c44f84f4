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

import functools
import logging
import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .mip import (MipConfig, _integers, first_sweep, him_detect, max_detect, min_max_checking,
                  min_multiround_detect)
from .mip import mip_detect  # unused here: the traced benchmark wraps it by name
from .robust_stats import Dataset, standardize
from .subsample import _one_blas_thread

log = logging.getLogger(__name__)

AR_COEFF = 0.4
# variance 0.5 for the contamination noise
INF_NOISE_SD = math.sqrt(0.5)


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
        _integers(self, "n", "p", "n_inf", "seed")
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        # only the contaminated examples plant rows
        if self.kind is not ScenarioKind.NULL and not 0 <= self.n_inf < self.n / 2:
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
    fit_reps: int  # reps whose refit err is in the fit columns' means


RESULT_COLUMNS = tuple(f.name for f in fields(MetricRow))  # results.csv's header


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
    X = rng.standard_normal((n, p))  # column j holds its noise until step j
    carry = math.sqrt(1.0 - AR_COEFF**2)
    for j in range(1, p):
        X[:, j] = AR_COEFF * X[:, j - 1] + carry * X[:, j]
    y = X @ beta + rng.standard_normal(n)
    return Dataset(y=y, X=X)


def _base_draw(spec: ScenarioSpec, head) -> tuple[np.ndarray, Dataset, np.random.Generator]:
    """(beta, clean base draw, contamination stream) of a scenario.

    The scenario seed splits into two streams: the first draws the base
    design and response, the second whatever rows the scenario plants.
    """
    beta = _beta_from_head(head, spec.p)
    base_ss, inf_ss = np.random.SeedSequence(spec.seed).spawn(2)
    return beta, gen_base(spec.n, spec.p, beta, base_ss), np.random.default_rng(inf_ss)


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
    beta, base, rng_inf = _base_draw(spec, _BETA_HEAD_MASKING)
    # copies: the anchor row i0 may be one of the rows overwritten below
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
    beta, base, rng_inf = _base_draw(spec, _BETA_HEAD_SWAMPING)
    beta_tilted = beta.copy()
    beta_tilted[-20:] += np.arange(1, 21) * 0.005 * spec.mu
    shift_width = max(1, int(round(0.1 * spec.p)))
    nu = np.zeros(spec.p)
    nu[spec.p - shift_width:] = 0.5 * spec.mu
    sign = 1.0 if rng_inf.random() < 0.5 else -1.0
    for row in range(spec.n_inf):
        xi = nu + rng_inf.standard_normal(spec.p)
        eps = INF_NOISE_SD * rng_inf.standard_normal()
        base.X[row] = xi
        base.y[row] = sign * (beta_tilted @ xi + eps)
    return LabeledDataset(
        data=base,
        truth=np.arange(spec.n_inf, dtype=np.int64),
        beta_true=beta,
    )


def gen_scenario(spec: ScenarioSpec) -> LabeledDataset:
    """Generate any scenario kind; the null kind has an empty truth set."""
    if spec.kind is ScenarioKind.EXAMPLE1:
        return gen_example1(spec)
    if spec.kind is ScenarioKind.EXAMPLE2:
        return gen_example2(spec)
    beta, base, _ = _base_draw(spec, _BETA_HEAD_MASKING)
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
    # boolean masks, not np.isin: it goes through np.unique, which imports numpy.ma
    supp_true, supp_hat = beta_true != 0.0, beta_hat != 0.0
    size = np.count_nonzero(supp_true)
    if size == 0:
        raise ValueError("true support is empty; tpr_vs undefined")
    tpr_vs = np.count_nonzero(supp_true & supp_hat) / size
    off = beta_true.size - size
    fpr_vs = np.count_nonzero(supp_hat & ~supp_true) / off if off else 0.0
    return err, float(tpr_vs), float(fpr_vs)


# ---------------------------------------------------------------------------
# lasso
# ---------------------------------------------------------------------------


class ConvergenceError(RuntimeError):
    """A lasso path failed its optimality (KKT) certificate."""


_KKT_TOL = 1e-7
_FOLDS = 5  # cross-validation folds of lasso_fit
_SIGMA = np.array([[1.0], [-1.0]])  # the two signs a joining variable can take


def _lasso_path(X, y, lambdas):
    """Exact lasso solutions at a non-increasing penalty grid, by homotopy.

    The minimizer of 0.5 n^{-1} ||y - X beta||^2 + lam ||beta||_1 is
    piecewise linear in lam (Osborne, Presnell and Turlach 2000; Efron et
    al. 2004). On an active set A with signs s it is beta_A = u - lam d,
    where [u, d] = H [X_A^T y, n s], refined once, for H = (X_A^T X_A)^{-1};
    the correlations X^T r / n = e + lam a come from the residuals of u, d.
    Walking down from lam = inf, each piece ends where an inactive
    correlation reaches +-lam (it joins; H grows by a Schur complement block)
    or an active coefficient reaches zero (it drops; H takes a rank-one
    downdate). Only moves toward an event count (a gap closing by under 1e-9
    per unit of lam marks a column collinear with A), and an event overshot
    by roundoff fires at once. A column with pivot (squared distance from
    span(X_A)) <= 1e-9 ||x_j||^2 does not join: joins wait for a drop, as
    they must once |A| reaches rank(X).
    """
    n, p = X.shape
    out = np.zeros((len(lambdas), p))
    cap = min(n, p)  # rank(X) bounds |A|
    H = np.empty((cap, cap))  # (X_A^T X_A)^{-1} in its leading m x m block
    rhs = np.empty((cap, 2))  # [X_A^T y, n s]: the signs s, scaled by n > 0
    XA = np.empty((cap, n))  # the active columns, one per row
    active = np.empty(cap, dtype=np.intp)
    Xty, sq = y @ X, np.einsum("ij,ij->j", X, X)
    m, full = 0, False  # |A|, and whether joins wait for a drop
    g = 0  # next grid penalty to read off
    for _ in range(8 * (n + p)):  # a healthy path takes about min(n, p) steps
        ud = H[:m, :m] @ rhs[:m]
        u, d = (ud + H[:m, :m] @ (rhs[:m] - XA[:m] @ (ud.T @ XA[:m]).T)).T  # refined once
        e, a = np.vstack((y - u @ XA[:m], d @ XA[:m])) @ X / n
        den = 1.0 - _SIGMA * a
        with np.errstate(divide="ignore", invalid="ignore"):
            drop = np.where(rhs[:m, 1] * d < 0, u / d, -math.inf)
            join = np.where(den > 1e-9, _SIGMA * e / den, -math.inf)
        join[:, slice(None) if full else active[:m]] = -math.inf
        cand = np.concatenate((drop, join.ravel()))
        k = int(np.argmax(cand))
        nxt = max(float(cand[k]), 0.0)
        while g < len(lambdas) and lambdas[g] >= nxt:
            beta = u - lambdas[g] * d
            # a coefficient is zero or carries its sign; the rest is roundoff
            out[g, active[:m]] = np.where(beta * rhs[:m, 1] > 0, beta, 0.0)
            g += 1
        if g == len(lambdas):
            return out
        if k < m:  # drop slot k: swap it with the last slot, then downdate that away
            m -= 1
            for buf in (active, rhs, XA, H, H.T):
                buf[[k, m]] = buf[[m, k]]
            H[:m, :m] -= np.outer(H[:m, m], H[m, :m] / H[m, m])
            full = False
        else:  # x_j joins with sign _SIGMA[row], unless it lies in span(X_A)
            row, j = divmod(k - m, p)
            c = XA[:m] @ X[:, j]
            v = H[:m, :m] @ c
            pivot = sq[j] - c @ v
            full = m == cap or pivot <= 1e-9 * sq[j]
            if not full:
                H[:m, :m] += np.outer(v, v / pivot)
                H[m, :m] = H[:m, m] = -v / pivot
                H[m, m] = 1.0 / pivot
                active[m], rhs[m], XA[m] = j, (Xty[j], n * _SIGMA[row, 0]), X[:, j]
                m += 1
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


def lasso_fit(d: Dataset) -> np.ndarray:
    """Lasso coefficients with the penalty chosen by cross-validation.

    Minimizes 0.5 n^{-1} ||y - X beta||^2 + lambda ||beta||_1 exactly by
    following its piecewise-linear path down from lambda_max (the
    homotopy of _lasso_path), over default_lambda_grid. Folds are the
    deterministic interleaving i mod _FOLDS, so fewer rows than folds
    raise ValueError. Every path point used must pass the KKT conditions
    to 1e-7, or ConvergenceError is raised. OpenBLAS runs on one thread.
    """
    X, y = d.X, d.y
    if X.shape[0] < _FOLDS:
        raise ValueError(f"lasso_fit needs at least {_FOLDS} rows, one per fold")
    grid = default_lambda_grid(X, y)
    cv_mse = np.zeros(grid.size)
    fold_id = np.arange(X.shape[0]) % _FOLDS
    with _one_blas_thread:
        for f in range(_FOLDS):
            tr = fold_id != f
            path = _certified_path(X[tr], y[tr], grid)
            cv_mse += ((path @ X[~tr].T - y[~tr]) ** 2).mean(axis=1)
        best = int(np.argmin(cv_mse))  # ties: largest penalty wins
        return _certified_path(X, y, grid[best : best + 1])[0]


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def _rep_seeds(spec_seed: int, rep: int) -> tuple[int, int]:
    state = np.random.SeedSequence((spec_seed, rep)).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


# name -> that method's flags on one rep, from (rep config, Z, first); Z()
# and first() build the rep's standardized data and first sweep on first
# use. Each entry looks its detector up when called, so a detector replaced
# on this module is the one that runs.
METHODS = {
    "MIP": lambda cfg, Z, first: min_max_checking(Z(), cfg, first()).flagged(),
    "HIM": lambda cfg, Z, first: him_detect(Z(), cfg.alpha0).flagged(),
    "MaxOnly": lambda cfg, Z, first: max_detect(Z(), cfg, first()).flagged(),
    "MinMultiRound": lambda cfg, Z, first: min_multiround_detect(Z(), cfg, first()).flagged(),
    "Full": lambda cfg, Z, first: np.empty(0, dtype=np.int64),
}


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
    computed when "Full" is among the methods (or with_fit=True), from one
    refit per distinct set of kept rows in a rep. Reps that raise are
    counted out and logged, never silently averaged.
    """
    if reps < 1:
        raise ValueError("need at least one rep")
    methods = list(methods)
    if not methods:
        raise ValueError("need at least one method")
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {', '.join(METHODS)}")
        if methods.count(name) > 1:
            raise ValueError(f"method {name!r} is listed more than once")
    with_fit = with_fit or "Full" in methods

    out: list[MetricRow] = []
    for spec in specs:
        rows: dict[str, list[dict]] = {name: [] for name in methods}
        for rep in range(reps):
            data_seed, det_seed = _rep_seeds(spec.seed, rep)
            labeled = gen_scenario(replace(spec, seed=data_seed))
            rep_cfg = replace(cfg, seed=det_seed)
            # built on first use and shared by the methods that read them
            Z = functools.cache(functools.partial(standardize, labeled.data, rep_cfg.estimator))
            first = functools.cache(lambda: first_sweep(Z(), rep_cfg))
            fits: dict[bytes, np.ndarray] = {}  # lasso_fit's beta by kept rows
            for name in methods:
                try:
                    flags = METHODS[name](rep_cfg, Z, first)
                    rows[name].append(_score(labeled, name, flags, fits if with_fit else None))
                except Exception as e:
                    log.warning("rep %d of %s failed for %s: %s", rep, spec.kind.value, name, e)
        out.extend(_aggregate(rows[name], name, spec) for name in methods)
    return out


def _score(labeled: LabeledDataset, name: str, flags: np.ndarray, fits: dict | None) -> dict:
    """One method's metrics on one rep, keyed by MetricRow field; fits=None skips the refit."""
    d = labeled.data
    n = d.n
    if name == "Full":
        row = dict(tpr_inf=math.nan, fpr_inf=math.nan, f1=math.nan)
    elif labeled.truth.size:
        tpr, fpr, _, f1 = detection_metrics(flags, labeled.truth, n)
        row = dict(tpr_inf=tpr, fpr_inf=fpr, f1=f1)
    else:
        row = dict(tpr_inf=math.nan, fpr_inf=flags.size / n, f1=math.nan)

    row.update(err=math.nan, tpr_vs=math.nan, fpr_vs=math.nan)  # missing unless refit below
    kept = np.delete(np.arange(n), flags)
    if fits is not None and kept.size >= _FOLDS:
        key = kept.tobytes()
        if key not in fits:  # a refit that raises is not stored
            fits[key] = lasso_fit(Dataset(y=d.y[kept], X=d.X[kept]))
        err, tpr_vs, fpr_vs = fit_metrics(fits[key], labeled.beta_true)
        row.update(err=err, tpr_vs=tpr_vs, fpr_vs=fpr_vs)
    return row


def _aggregate(rows: list[dict], name: str, spec: ScenarioSpec) -> MetricRow:
    def mean(key: str) -> float:
        vals = [r[key] for r in rows]
        if not vals or all(math.isnan(v) for v in vals):
            return math.nan
        return float(np.nanmean(vals))

    fits = sum(not math.isnan(r["err"]) for r in rows)
    fixed = dict(method=name, mu=spec.mu, reps=len(rows), fit_reps=fits)
    return MetricRow(**fixed, **{f.name: mean(f.name) for f in fields(MetricRow) if f.name not in fixed})

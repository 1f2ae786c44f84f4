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
from .subsample import SubsetPlan, group_statistic, point_energy

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
        if self.n < 4 or self.p < 1:
            raise ValueError("scenario dimensions too small")
        if self.n_inf < 0 or self.n_inf >= self.n / 2:
            raise ValueError("n_inf must be below n/2")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")


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
    """Coordinate descent failed to converge within the sweep budget."""


LASSO_TOL = 1e-7
LASSO_MAX_SWEEPS = 100_000
# one part in 1e12 of slack absorbs roundoff in the monotonicity check
_OBJ_SLACK = 1e-12


def _objective(r: np.ndarray, beta: np.ndarray, lam: float, n: int) -> float:
    return 0.5 * float(r @ r) / n + lam * float(np.abs(beta).sum())


def _soft(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


_ACCEL_AFTER = 4  # support sweeps at one penalty between exact-jump attempts
_JUMP_ITERS = 50


def _try_jump(X, y, lam, beta, r, active, obj, n):
    """Exact stationarity solve on the current support.

    Coordinate descent crawls when the support nears saturation, so once
    the support has had a few sweeps to settle we solve the restricted
    stationarity system directly. A solution that flips signs is walked
    back to the first zero crossing, the crossing coordinates are dropped,
    and the reduced system is re-solved; each such move still lowers the
    objective. Coordinates never re-enter here, the caller's stationarity
    screen re-admits any dropped too eagerly. The candidate is kept only
    if it is finite and does not increase the objective; convergence is
    still certified by the screen afterwards. Returns the new objective,
    or None when the jump is rejected.
    """
    if active.size == 0 or active.size > n:
        return None
    idx = active.copy()
    cur = beta[idx].copy()
    s = np.sign(cur)
    for _ in range(_JUMP_ITERS):
        XA = X[:, idx]
        try:
            b = np.linalg.solve(XA.T @ XA, XA.T @ y - n * lam * s)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(b).all():
            return None
        flipped = b * s <= 0.0
        if not flipped.any():
            cur = b
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cross = cur / (cur - b)
        t = float(t_cross[flipped].min())
        if not 0.0 <= t <= 1.0:
            return None
        cur = cur + t * (b - cur)
        keep = ~(flipped & (t_cross <= t + 1e-15))
        if not keep.any():
            return None
        idx, cur, s = idx[keep], cur[keep], s[keep]
    else:
        return None
    r_new = y - X[:, idx] @ cur
    obj_new = 0.5 * float(r_new @ r_new) / n + lam * float(np.abs(cur).sum())
    if obj_new > obj + _OBJ_SLACK * max(1.0, abs(obj)):
        return None
    beta[active] = 0.0
    beta[idx] = cur
    r[:] = r_new
    return obj_new


def _cd_single(X, y, lam, beta, r, col_sq, trace=None):
    """Coordinate descent at one penalty, warm-started; returns sweep count.

    ``r`` is maintained as y - X beta and updated in place along with
    ``beta``. Convergence is checked with a vectorized stationarity pass:
    the solve is done once no single-coordinate move from the current
    point reaches LASSO_TOL. Until then, sweeps run over the coordinates
    that still want to move, alternating with passes over the current
    support; long support runs periodically attempt the exact jump of
    _try_jump. The objective must not increase across sweeps; a violation
    beyond roundoff slack aborts. The sweep budget is per penalty.
    """
    n, p = X.shape
    obj = _objective(r, beta, lam, n)
    if trace is not None:
        trace.append(obj)

    def sweep(index_set) -> float:
        nonlocal obj, r
        max_delta = 0.0
        for j in index_set:
            cj = col_sq[j]
            if cj <= 0.0:
                continue
            bj = beta[j]
            zj = (X[:, j] @ r) / n + cj * bj
            bn = _soft(zj, lam) / cj
            d = bn - bj
            if d != 0.0:
                r -= d * X[:, j]
                beta[j] = bn
                if abs(d) > max_delta:
                    max_delta = abs(d)
        new_obj = _objective(r, beta, lam, n)
        if new_obj > obj + _OBJ_SLACK * max(1.0, abs(obj)):
            raise ConvergenceError("objective increased across a sweep")
        obj = new_obj
        if trace is not None:
            trace.append(obj)
        return max_delta

    def proposals() -> np.ndarray:
        # single-coordinate moves available from the current point
        z = (X.T @ r) / n + col_sq * beta
        shrunk = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        safe = np.where(col_sq > 0.0, col_sq, 1.0)
        return np.where(col_sq > 0.0, shrunk / safe - beta, 0.0)

    def spend() -> None:
        nonlocal sweeps
        sweeps += 1
        if sweeps > LASSO_MAX_SWEEPS:
            raise ConvergenceError("sweep budget exhausted")

    sweeps = 0
    while True:
        eligible = np.flatnonzero(np.abs(proposals()) >= LASSO_TOL)
        if eligible.size == 0:
            return sweeps
        delta = sweep(eligible)
        spend()
        inner = 0
        while delta >= LASSO_TOL:
            active = np.flatnonzero(beta)
            if active.size == 0:
                break
            inner += 1
            if inner == 1 or inner % _ACCEL_AFTER == 0:
                jumped = _try_jump(X, y, lam, beta, r, active, obj, n)
                if jumped is not None:
                    obj = jumped
                    if trace is not None:
                        trace.append(obj)
                    spend()
            delta = sweep(active)
            spend()


def _lasso_path(X, y, lambdas, traces=None):
    """Solutions along a descending penalty grid, warm-started.

    ``traces`` collects one objective-per-sweep list per penalty when a
    list is supplied.
    """
    n, p = X.shape
    col_sq = np.einsum("ij,ij->j", X, X) / n
    beta = np.zeros(p)
    r = y.astype(np.float64).copy()
    out = np.empty((len(lambdas), p))
    for i, lam in enumerate(lambdas):
        r[:] = y - X @ beta  # shed drift from incremental updates
        trace = [] if traces is not None else None
        _cd_single(X, y, lam, beta, r, col_sq, trace)
        if traces is not None:
            traces.append(trace)
        out[i] = beta
    return out


def default_lambda_grid(X: np.ndarray, y: np.ndarray, count: int = 50) -> np.ndarray:
    """50 log-spaced penalties from lambda_max down to lambda_max / 1000."""
    n = X.shape[0]
    lam_max = float(np.abs(X.T @ y).max()) / n
    if lam_max <= 0:
        lam_max = 1.0
    return np.geomspace(lam_max, 1e-3 * lam_max, count)


def lasso_fit(d: Dataset, lambdas=None, n_folds: int = 5):
    """Lasso solution with the penalty chosen by cross-validation.

    Minimizes 0.5 n^{-1} ||y - X beta||^2 + lambda ||beta||_1 by cyclic
    coordinate descent with soft-thresholding. With an explicit
    single-penalty ``lambdas`` the CV step is skipped. Folds are the
    deterministic interleaving i mod n_folds.

    Returns (beta_hat, support).
    """
    X, y = d.X, d.y
    XF = np.asfortranarray(X)
    grid = (
        np.asarray(lambdas, dtype=np.float64)
        if lambdas is not None
        else default_lambda_grid(X, y)
    )
    if grid.ndim == 0:
        grid = grid[None]
    if (np.diff(grid) > 0).any():
        raise ValueError("penalty grid must be non-increasing")

    if grid.size > 1:
        n = X.shape[0]
        fold_id = np.arange(n) % n_folds
        cv_mse = np.zeros(grid.size)
        for f in range(n_folds):
            tr = fold_id != f
            te = ~tr
            path = _lasso_path(np.asfortranarray(X[tr]), y[tr], grid)
            pred = path @ X[te].T
            cv_mse += ((pred - y[te]) ** 2).mean(axis=1)
        best = int(np.argmin(cv_mse))  # ties: largest penalty wins
        # warm-start down the grid; the endpoint solution is the same
        beta = _lasso_path(XF, y, grid[: best + 1])[-1]
    else:
        beta = _lasso_path(XF, y, np.asarray([float(grid[0])]))[0]
    return beta, np.flatnonzero(beta)


# ---------------------------------------------------------------------------
# decomposition diagnostics (simulation only)
# ---------------------------------------------------------------------------


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
    with_fit: bool | None = None,
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
    for name in methods:
        if name not in KNOWN_METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {KNOWN_METHODS}")
    if with_fit is None:
        with_fit = "Full" in methods

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
                except Exception:
                    log.warning(
                        "rep %d of %s failed for %s",
                        rep, spec.kind.value, name, exc_info=True,
                    )
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


RESULT_COLUMNS = ("method", "mu", "tpr_inf", "fpr_inf", "f1", "err", "tpr_vs", "fpr_vs", "reps")


def _fmt(v) -> str:
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(v)
    return str(v)


def results_to_csv(rows: list[MetricRow]) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.method, r.mu, r.tpr_inf, r.fpr_inf, r.f1,
                    r.err, r.tpr_vs, r.fpr_vs, r.reps,
                )
            )
        )
    return "\n".join(lines) + "\n"

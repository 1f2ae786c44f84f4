import math

import numpy as np
import pytest

from mipdetect import (
    Dataset,
    EstimatorMode,
    MipConfig,
    ScenarioKind,
    ScenarioSpec,
    gen_scenario,
    him_detect,
    run_experiment,
    standardize,
)
from mipdetect.cli import results_to_csv
from mipdetect.simbench import (
    RESULT_COLUMNS,
    ConvergenceError,
    MetricRow,
    _beta_from_head,
    _BETA_HEAD_MASKING,
    _BETA_HEAD_SWAMPING,
    _certified_path,
    _lasso_path,
    default_lambda_grid,
    detection_metrics,
    fit_metrics,
    gen_base,
    gen_example1,
    gen_example2,
    lasso_fit,
)
from mipdetect.subsample import draw_subsets, subset_size

from ground_truth import chi2_1_quantile, group_statistic, lasso_path_by_solve, oracle_decomposition

import mipdetect.mip
import mipdetect.simbench as simbench


def regen_base(spec: ScenarioSpec, head) -> Dataset:
    """The base draw a scenario was built on: the first of two streams spawned from its seed."""
    base_ss, _ = np.random.SeedSequence(spec.seed).spawn(2)
    return gen_base(spec.n, spec.p, _beta_from_head(head, spec.p), np.random.default_rng(base_ss))


# ---------------------------------------------------------------------------
# scenario specs and base generator
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(kind=ScenarioKind.NULL, n=3, p=10)
    with pytest.raises(ValueError):
        ScenarioSpec(kind=ScenarioKind.NULL, n=20, p=0)
    with pytest.raises(ValueError):
        ScenarioSpec(kind=ScenarioKind.EXAMPLE1, n=20, p=50, n_inf=10)
    with pytest.raises(ValueError):
        ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=-1.0)
    assert ScenarioSpec(kind=ScenarioKind.EXAMPLE1, n=21, p=50, n_inf=10).n_inf == 10


def test_base_design_moments():
    n, p = 60_000, 6
    d = gen_base(n, p, np.zeros(p), seed=0)
    for j in range(p - 1):
        c = np.corrcoef(d.X[:, j], d.X[:, j + 1])[0, 1]
        assert abs(c - 0.4) <= 0.02
    for j in range(p):
        assert abs(d.X[:, j].var() - 1.0) <= 0.02
        assert abs(np.corrcoef(d.y, d.X[:, j])[0, 1]) <= 0.05


def test_base_rejects_wrong_beta_length():
    with pytest.raises(ValueError):
        gen_base(10, 5, np.zeros(4), seed=0)


def test_generators_are_deterministic():
    for kind in ScenarioKind:
        spec = ScenarioSpec(kind=kind, mu=5.0, n=40, p=60, n_inf=5, seed=9)
        a = gen_scenario(spec)
        b = gen_scenario(spec)
        assert np.array_equal(a.data.X, b.data.X)
        assert np.array_equal(a.data.y, b.data.y)
        assert np.array_equal(a.truth, b.truth)


def test_null_scenario_has_empty_truth():
    lab = gen_scenario(ScenarioSpec(kind=ScenarioKind.NULL, n=30, p=40, seed=1))
    assert lab.truth.size == 0
    base = regen_base(
        ScenarioSpec(kind=ScenarioKind.NULL, n=30, p=40, seed=1), _BETA_HEAD_MASKING
    )
    assert np.array_equal(lab.data.X, base.X)
    assert np.array_equal(lab.data.y, base.y)


# ---------------------------------------------------------------------------
# masking scenario
# ---------------------------------------------------------------------------


def test_masking_rows_are_near_copies_at_mu_zero():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=0.0, n=50, p=200, n_inf=8, seed=2)
    lab = gen_example1(spec)
    base = regen_base(spec, _BETA_HEAD_MASKING)
    i0 = int(np.argmax(np.abs(base.y)))
    for i in range(1, 9):
        row = i - 1
        diff = lab.data.X[row] - base.X[i0]
        bumped = np.flatnonzero(diff)
        assert bumped.size == 10
        assert np.allclose(diff[bumped], i / 200)
        assert abs(lab.data.y[row] - base.y[i0]) <= 0.5


def test_masking_rows_move_outward():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=80, p=500, n_inf=10, seed=3)
    lab = gen_example1(spec)
    base = regen_base(spec, _BETA_HEAD_MASKING)
    i0 = int(np.argmax(np.abs(base.y)))
    for i in range(10):
        assert abs(lab.data.y[i]) > abs(base.y[i0])
        assert abs(lab.data.y[i] - base.y[i0]) <= 6.0 + 0.1


def test_masking_leaves_tail_rows_untouched():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=80, p=500, n_inf=10, seed=3)
    lab = gen_example1(spec)
    base = regen_base(spec, _BETA_HEAD_MASKING)
    assert np.array_equal(lab.data.X[10:], base.X[10:])
    assert np.array_equal(lab.data.y[10:], base.y[10:])
    assert lab.truth.tolist() == list(range(10))
    assert np.array_equal(lab.beta_true, _beta_from_head(_BETA_HEAD_MASKING, 500))


def test_masking_needs_ten_columns():
    with pytest.raises(ValueError):
        gen_example1(ScenarioSpec(kind=ScenarioKind.EXAMPLE1, n=30, p=9, n_inf=3))


# ---------------------------------------------------------------------------
# swamping scenario
# ---------------------------------------------------------------------------


def test_swamping_at_mu_zero_keeps_signal_untilted():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=0.0, n=60, p=200, n_inf=10, seed=4)
    lab = gen_example2(spec)
    shifted = lab.data.X[:10, -20:]
    assert abs(float(shifted.mean())) <= 0.1
    base = regen_base(spec, _BETA_HEAD_SWAMPING)
    assert np.array_equal(lab.data.X[10:], base.X[10:])
    assert np.array_equal(lab.data.y[10:], base.y[10:])


def test_swamping_shifts_last_tenth_of_coordinates():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=6.0, n=100, p=1000, n_inf=10, seed=4)
    lab = gen_example2(spec)
    block = lab.data.X[:10, -100:]
    assert abs(float(block.mean()) - 3.0) <= 0.15
    unshifted = lab.data.X[:10, :-100]
    assert abs(float(unshifted.mean())) <= 0.15


def test_swamping_uses_one_sign_per_replicate():
    products = {}
    for seed in (0, 1):
        spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=8.0, n=50, p=100, n_inf=8, seed=seed)
        lab = gen_example2(spec)
        tilted = lab.beta_true.copy()
        tilted[-20:] += np.arange(1, 21) * 0.005 * 8.0
        per_row = {
            float(np.sign(lab.data.y[i]) * np.sign(tilted @ lab.data.X[i]))
            for i in range(8)
        }
        assert len(per_row) == 1
        products[seed] = per_row.pop()
    assert set(products.values()) == {1.0, -1.0}


def test_swamping_needs_twenty_columns():
    with pytest.raises(ValueError):
        gen_example2(ScenarioSpec(kind=ScenarioKind.EXAMPLE2, n=30, p=19, n_inf=3))


def test_leave_one_out_collapses_under_swamping():
    fprs = []
    for seed in range(3):
        spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=9.0, n=100, p=1000, n_inf=10, seed=seed)
        lab = gen_scenario(spec)
        Z = standardize(lab.data, EstimatorMode.ROBUST)
        flags = set(him_detect(Z, 0.05).flagged().tolist())
        fprs.append(len(flags - set(lab.truth.tolist())) / 90)
    assert float(np.mean(fprs)) >= 0.9


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_detection_metrics_trivial_cases():
    truth = [2, 5, 7]
    assert detection_metrics(truth, truth, 10) == (1.0, 0.0, 0.0, 1.0)
    assert detection_metrics([], truth, 10) == (0.0, 0.0, 1.0, 0.0)
    complement = [i for i in range(10) if i not in truth]
    assert detection_metrics(complement, truth, 10) == (0.0, 1.0, 1.0, 0.0)


def test_detection_metrics_against_set_arithmetic():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        truth = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        flags = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        tpr, fpr, fnr, f1 = detection_metrics(flags, truth, n)
        ts, fs = set(truth.tolist()), set(flags.tolist())
        assert tpr == len(ts & fs) / len(ts)
        assert fpr == len(fs - ts) / (n - len(ts))
        assert fnr == 1.0 - tpr
        expect_f1 = 2 * tpr / (2 * tpr + fpr + fnr) if tpr > 0 else 0.0
        assert f1 == expect_f1
        assert 0.0 <= tpr <= 1.0 and 0.0 <= fpr <= 1.0 and 0.0 <= f1 <= 1.0


def test_detection_metrics_requires_truth():
    with pytest.raises(ValueError):
        detection_metrics([1], [], 10)


def test_fit_metrics_trivial_cases():
    beta = np.array([0.0, 1.0, -2.0, 0.0])
    assert fit_metrics(beta, beta) == (0.0, 1.0, 0.0)
    err, tpr_vs, fpr_vs = fit_metrics(np.zeros(4), beta)
    assert err == pytest.approx(float(np.linalg.norm(beta)))
    assert (tpr_vs, fpr_vs) == (0.0, 0.0)


def test_fit_metrics_against_set_arithmetic():
    rng = np.random.default_rng(8)
    for _ in range(30):
        p = int(rng.integers(3, 20))
        beta_true = rng.standard_normal(p) * (rng.random(p) < 0.5)
        if not beta_true.any():
            beta_true[0] = 1.0
        beta_hat = rng.standard_normal(p) * (rng.random(p) < 0.5)
        err, tpr_vs, fpr_vs = fit_metrics(beta_hat, beta_true)
        st = set(np.flatnonzero(beta_true).tolist())
        sh = set(np.flatnonzero(beta_hat).tolist())
        assert err == pytest.approx(float(np.linalg.norm(beta_hat - beta_true)))
        assert tpr_vs == len(st & sh) / len(st)
        off = p - len(st)
        assert fpr_vs == (len(sh - st) / off if off else 0.0)


def test_fit_metrics_validation():
    with pytest.raises(ValueError):
        fit_metrics(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        fit_metrics(np.ones(3), np.zeros(3))


# ---------------------------------------------------------------------------
# lasso
# ---------------------------------------------------------------------------


def lasso_toy(seed=42, n=60, p=12):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = Q * np.sqrt(n)
    beta = np.zeros(p)
    beta[:3] = (0.8, -0.5, 0.15)
    y = X @ beta + 0.3 * rng.standard_normal(n)
    return Dataset(y=y, X=X)


def test_lasso_full_shrinkage_at_lambda_max():
    d = lasso_toy()
    lam_max = float(np.abs(d.X.T @ d.y).max()) / d.n
    beta = _certified_path(d.X, d.y, [lam_max])[0]
    assert np.all(beta == 0.0)


def test_lasso_orthonormal_soft_threshold():
    d = lasso_toy()
    beta = _certified_path(d.X, d.y, [0.1])[0]
    z = d.X.T @ d.y / d.n
    oracle = np.sign(z) * np.maximum(np.abs(z) - 0.1, 0.0)
    assert np.max(np.abs(beta - oracle)) <= 1e-6


def kkt_gap(X, y, path, lambdas):
    """Largest lasso KKT violation over a path, one row per penalty.

    With c = X^T r / n: |c_j| <= lam off the support, c_j = lam sign(beta_j)
    on it.
    """
    corr = (y - path @ X.T) @ X / X.shape[0]
    lam = np.asarray(lambdas)[:, None]
    gap = np.where(path != 0, np.abs(corr - lam * np.sign(path)), np.abs(corr) - lam)
    return float(gap.max())


def matches_oracle(X, y, grid) -> np.ndarray:
    """_lasso_path, checked against the solve-per-step homotopy of the tests.

    Coefficients agree to 1e-9 and so do supports, apart from coefficients
    below 1e-12 on either side.
    """
    path, oracle = _lasso_path(X, y, grid), lasso_path_by_solve(X, y, grid)
    assert np.abs(path - oracle).max() <= 1e-9
    sizable = np.maximum(np.abs(path), np.abs(oracle)) >= 1e-12
    assert np.array_equal((path != 0)[sizable], (oracle != 0)[sizable])
    return path


def test_lasso_path_meets_kkt_at_every_grid_point():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=6.0, n=50, p=80, n_inf=6, seed=0)
    d = gen_scenario(spec).data
    grid = default_lambda_grid(d.X, d.y, count=10)
    path = _lasso_path(d.X, d.y, grid)
    assert path.shape == (10, 80)
    assert np.all(path[0] == 0.0)
    assert np.count_nonzero(path[-1]) > 0
    assert kkt_gap(d.X, d.y, path, grid) <= 1e-7


def test_lasso_path_meets_kkt_on_random_designs():
    # many small paths: roundoff puts lambda_max's last bit on either side
    # of the first join, which the path must absorb without a wrong sign
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(8, 40)), int(rng.integers(5, 80))
        X = rng.standard_normal((n, p))
        y = X[:, :3] @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(n)
        grid = default_lambda_grid(X, y)
        assert kkt_gap(X, y, matches_oracle(X, y, grid), grid) <= 1e-7


def test_lasso_path_stays_exact_once_the_support_fills_the_rows():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=6.0, n=30, p=90, n_inf=4, seed=2)
    d = gen_scenario(spec).data
    grid = default_lambda_grid(d.X, d.y)
    path = _lasso_path(d.X, d.y, grid)
    support = np.count_nonzero(path, axis=1)
    assert support.max() == d.n
    assert np.argmax(support == d.n) < grid.size - 1  # saturated before the grid ends
    assert kkt_gap(d.X, d.y, path, grid) <= 1e-7


@pytest.mark.parametrize("twin", ["row", "column"])
def test_lasso_path_stays_exact_with_a_duplicated_row_or_column(twin):
    # a repeated row caps the support at rank(X) = n - 1; a negated twin of
    # the leading column keeps an equal |correlation| and must never join
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 30))
    if twin == "row":
        X[1] = X[0]
    else:
        X[:, 1] = -X[:, 0]
    for _ in range(10):
        y = X[:, 0] + rng.standard_normal(12)
        grid = np.append(default_lambda_grid(X, y), 0.0)  # down to the lambda -> 0 limit
        path = matches_oracle(X, y, grid)
        assert kkt_gap(X, y, path, grid) <= 1e-7


def test_lasso_path_matches_the_oracle_on_the_swamping_refit():
    # the Full refit of the swamping run's rep 0 (n=100, p=1000): its five
    # fold paths and the full-data path, which fills the rows
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=8.0, seed=simbench._rep_seeds(0, 0)[0])
    d = gen_scenario(spec).data
    grid = default_lambda_grid(d.X, d.y)
    fold_id = np.arange(d.n) % simbench._FOLDS
    for rows in [fold_id != f for f in range(simbench._FOLDS)] + [slice(None)]:
        X, y = d.X[rows], d.y[rows]
        assert kkt_gap(X, y, matches_oracle(X, y, grid), grid) <= 1e-7


def test_lasso_fit_runs_no_dense_factorization(monkeypatch):
    # the path keeps an updated inverse: no per-step solve, no rank SVD
    def banned(*args, **kwargs):
        raise AssertionError("dense factorization on the lasso path")

    for name in ("solve", "matrix_rank", "svd"):
        monkeypatch.setattr(np.linalg, name, banned)
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=6.0, n=30, p=90, n_inf=4, seed=2)
    assert np.count_nonzero(lasso_fit(gen_scenario(spec).data)) > 0


def test_lasso_fit_needs_a_row_per_fold():
    # four rows leave the fifth fold empty, whose error would be NaN at every penalty
    rng = np.random.default_rng(0)
    d = Dataset(y=rng.standard_normal(4), X=rng.standard_normal((4, 6)))
    with pytest.raises(ValueError, match="at least 5 rows"):
        lasso_fit(d)


def test_lasso_with_uncorrelated_response_is_zero_everywhere(monkeypatch):
    # y lives on rows where X is zero, so X^T y = 0 exactly and lambda_max = 0
    rng = np.random.default_rng(3)
    X = np.zeros((12, 5))
    X[6:] = rng.standard_normal((6, 5))
    y = np.zeros(12)
    y[:6] = rng.standard_normal(6)

    def no_join(*args, **kwargs):
        raise AssertionError("no variable should ever join")

    # every join grows the inverse Gram matrix by an outer product
    monkeypatch.setattr(np, "outer", no_join)
    grid = default_lambda_grid(X, y)
    assert np.all(_lasso_path(X, y, grid) == 0.0)
    assert np.all(lasso_fit(Dataset(y=y, X=X)) == 0.0)


def test_lasso_fit_rejects_a_path_that_fails_kkt(monkeypatch):
    exact = simbench._lasso_path

    def nudged(X, y, lambdas):
        path = exact(X, y, lambdas)
        path[-1, 0] += 1e-3
        return path

    monkeypatch.setattr(simbench, "_lasso_path", nudged)
    d = lasso_toy()
    with pytest.raises(ConvergenceError):
        _certified_path(d.X, d.y, [0.01])
    with pytest.raises(ConvergenceError):
        lasso_fit(d)


def test_lasso_cv_is_deterministic():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=4.0, n=40, p=60, n_inf=5, seed=1)
    d = gen_scenario(spec).data
    assert lasso_fit(d).tobytes() == lasso_fit(d).tobytes()


def test_default_lambda_grid_shape():
    d = lasso_toy()
    grid = default_lambda_grid(d.X, d.y)
    assert grid.size == 50
    assert grid[0] == pytest.approx(float(np.abs(d.X.T @ d.y).max()) / d.n)
    assert grid[-1] == pytest.approx(grid[0] * 1e-3)
    assert np.all(np.diff(grid) < 0)


# ---------------------------------------------------------------------------
# decomposition diagnostics
# ---------------------------------------------------------------------------


def test_decomposition_without_influentials_is_all_background():
    rng = np.random.default_rng(13)
    d = Dataset(y=rng.standard_normal(20), X=rng.standard_normal((20, 6)))
    Z = standardize(d, EstimatorMode.SAMPLE)
    subsets = draw_subsets(np.arange(20), 3, 15, 8, seed=0)
    E_k, f_min, f_max, j_max = oracle_decomposition(Z, np.empty(0, dtype=np.int64), 3, subsets)
    assert f_min == 0.0 and f_max == 0.0
    assert E_k > 0.0 and j_max > 0.0


def test_decomposition_replays_group_statistic():
    rng = np.random.default_rng(14)
    d = Dataset(y=rng.standard_normal(24), X=rng.standard_normal((24, 7)))
    Z = standardize(d, EstimatorMode.SAMPLE)
    truth = np.array([1, 4, 9])
    truth_mask = np.zeros(24, dtype=bool)
    truth_mask[truth] = True
    k = 5
    subsets = draw_subsets(np.arange(24), k, 30, 10, seed=3)
    divisor = subsets.shape[1]
    for sub in subsets:
        w_inf = Z.Z[sub[truth_mask[sub]]].sum(axis=0) / divisor
        w_non = Z.Z[sub[~truth_mask[sub]]].sum(axis=0) / divisor
        combined = float(np.mean((w_inf + w_non - Z.Z[k]) ** 2))
        direct = group_statistic(Z, sub, k, divisor + 1)
        assert abs(combined - direct) <= 1e-10 * max(1.0, abs(direct))


def test_unmasking_condition_holds_for_planted_rows(ex1_mu7_bundle):
    threshold = math.sqrt(chi2_1_quantile(0.95))
    n_sub = subset_size(100, 0.5)
    held = total = 0
    for rep in ex1_mu7_bundle[:3]:
        Z = rep["Z"]
        truth = rep["labeled"].truth
        for k in truth.tolist():
            subsets = draw_subsets(np.arange(100), k, 100, n_sub, seed=0)
            E_k, f_min, _, _ = oracle_decomposition(Z, truth, k, subsets)
            total += 1
            if math.sqrt(E_k) > threshold + math.sqrt(f_min):
                held += 1
    assert held / total >= 0.9


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def test_run_experiment_single_rep_reproducible():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=60, p=150, n_inf=6, seed=7)
    cfg = MipConfig(m=30, seed=0)
    a = run_experiment([spec], ["MIP"], 1, cfg)
    b = run_experiment([spec], ["MIP"], 1, cfg)
    assert results_to_csv(a) == results_to_csv(b)
    assert a[0].reps == 1
    assert a[0].method == "MIP"
    assert a[0].mu == 6.0


def test_run_experiment_rejects_a_repeated_method():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=30, p=40, n_inf=2, seed=0)
    with pytest.raises(ValueError, match="method 'HIM' is listed more than once"):
        run_experiment([spec], ["HIM", "MIP", "HIM"], 1)


def test_only_the_contaminated_examples_bound_n_inf():
    # the null scenario plants no rows, so the default n_inf = 10 must not stop n = 20
    assert ScenarioSpec(kind=ScenarioKind.NULL, n=20, p=30).n_inf == 10
    for kind in (ScenarioKind.EXAMPLE1, ScenarioKind.EXAMPLE2):
        for n_inf in (10, -1):
            with pytest.raises(ValueError, match="n_inf must be below n/2"):
                ScenarioSpec(kind=kind, n=20, p=30, n_inf=n_inf)


def test_run_experiment_validates_inputs():
    spec = ScenarioSpec(kind=ScenarioKind.NULL, n=40, p=50, seed=0)
    with pytest.raises(ValueError):
        run_experiment([spec], ["Bogus"], 1)
    with pytest.raises(ValueError):
        run_experiment([spec], ["MIP"], 0)


@pytest.mark.parametrize(
    "broken, methods, failing",
    [
        ("him_detect", ["MIP", "HIM"], ["HIM"]),
        # the method table looks each detector up when a rep runs
        ("min_max_checking", ["MIP", "HIM"], ["MIP"]),
        ("max_detect", ["MIP", "MaxOnly", "MinMultiRound"], ["MaxOnly"]),
        ("min_multiround_detect", ["MIP", "MaxOnly", "MinMultiRound"], ["MinMultiRound"]),
        # every method that reads the rep's Z is counted out; Full still runs
        ("standardize", ["MIP", "HIM", "MaxOnly", "MinMultiRound", "Full"],
         ["MIP", "HIM", "MaxOnly", "MinMultiRound"]),
        # a refit that raises is not stored, so methods sharing a kept set each fail
        ("lasso_fit", ["MIP", "HIM", "Full"], ["MIP", "HIM", "Full"]),
    ],
    ids=["him_detect", "min_max_checking", "max_detect", "min_multiround_detect", "standardize",
         "lasso_fit"],
)
def test_run_experiment_counts_out_failing_reps(monkeypatch, caplog, broken, methods, failing):
    def explode(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(simbench, broken, explode)
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=60, p=150, n_inf=6, seed=7)
    with caplog.at_level("WARNING", logger="mipdetect.simbench"):
        rows = run_experiment([spec], methods, 2, MipConfig(m=30, seed=0))
    by_method = {r.method: r for r in rows}
    assert {name: r.reps for name, r in by_method.items()} == {
        name: 0 if name in failing else 2 for name in methods
    }
    assert all(math.isnan(by_method[name].tpr_inf) for name in failing)
    assert all(
        not math.isnan(by_method[name].tpr_inf)
        for name in methods if name not in failing and name != "Full"
    )
    logged = [r.getMessage().split(":")[0] for r in caplog.records]
    assert logged == [
        f"rep {rep} of example1 failed for {name}" for rep in (0, 1) for name in failing
    ]


def test_run_experiment_sweeps_the_first_working_set_once_per_rep(sweep_calls, monkeypatch):
    standardized = []
    exact = simbench.standardize

    def counting(d, mode):
        standardized.append(d.n)
        return exact(d, mode)

    monkeypatch.setattr(simbench, "standardize", counting)
    monkeypatch.setattr(mipdetect.mip, "standardize", counting)
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=60, p=150, n_inf=6, seed=7)
    methods = ["MIP", "HIM", "MaxOnly", "MinMultiRound"]
    rows = run_experiment([spec], methods, 2, MipConfig(m=30, seed=0))
    assert [r.reps for r in rows] == [2] * 4
    full = np.arange(60, dtype=np.int64).tobytes()
    first = [count for (_, round_id, active), count in sweep_calls.items()
             if round_id == 0 and active == full]
    assert first == [1, 1]  # one per rep, each on its own detector seed
    assert standardized == [60, 60]  # and one standardization per rep


def test_run_experiment_refits_each_kept_set_once(monkeypatch):
    # rep 0 of the swamping run: MIP and HIM keep the same 90 rows
    fitted = []
    exact = simbench.lasso_fit

    def counting(d):
        fitted.append(d.n)
        return exact(d)

    monkeypatch.setattr(simbench, "lasso_fit", counting)
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=8.0, seed=0)
    rows = run_experiment([spec], ["MIP", "HIM", "Full"], 1, with_fit=True)
    assert fitted == [90, 100]
    alone = [run_experiment([spec], [name], 1, with_fit=True)[0] for name in ("MIP", "HIM", "Full")]
    assert results_to_csv(rows) == results_to_csv(alone)


@pytest.mark.parametrize("kept", [4, 5])
def test_refit_needs_a_row_per_fold(monkeypatch, kept):
    # fewer kept rows than lasso folds: the fit columns are missing, the detection ones stay
    monkeypatch.setitem(simbench.METHODS, "HIM", lambda cfg, Z, first: np.arange(kept, 30))
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=30, p=40, n_inf=2, seed=0)
    (row,) = run_experiment([spec], ["HIM"], 1, with_fit=True)
    assert (row.reps, row.tpr_inf, row.fpr_inf) == (1, 0.0, (30 - kept) / 28)
    assert math.isnan(row.err) == (kept < simbench._FOLDS)
    assert row.fit_reps == (kept >= simbench._FOLDS)


def test_null_runs_score_flag_rate_as_fpr():
    spec = ScenarioSpec(kind=ScenarioKind.NULL, n=60, p=100, seed=11)
    rows = run_experiment([spec], ["HIM"], 2, MipConfig(m=20, seed=0))
    row = rows[0]
    assert math.isnan(row.tpr_inf)
    assert 0.0 <= row.fpr_inf <= 1.0


def test_detection_power_grows_with_signal(ex1_trend_rows):
    tprs = [ex1_trend_rows[("MIP", mu)].tpr_inf for mu in (4.0, 5.0, 6.0, 7.0)]
    for lo, hi in zip(tprs, tprs[1:]):
        assert hi >= lo
    assert tprs[-1] >= 0.95


def test_results_count_the_reps_their_fit_columns_average(swamping_csv_rows):
    # HIM keeps fewer rows than lasso folds on 15 of the 20 swamping reps
    counts = {name: (row["reps"], row["fit_reps"]) for name, row in swamping_csv_rows.items()}
    assert counts == {"MIP": (20, 20), "HIM": (20, 5), "Full": (20, 20)}


def test_false_positives_controlled_across_swamping_grid(ex2_grid_rows, swamping_csv_rows):
    for mu in (6.0, 10.0):
        assert ex2_grid_rows[("MIP", mu)].fpr_inf <= 0.05
    assert swamping_csv_rows["MIP"]["fpr_inf"] <= 0.05


def test_metric_rows_are_rates(masking_rows):
    for row in masking_rows.values():
        assert 0.0 <= row.tpr_inf <= 1.0
        assert 0.0 <= row.fpr_inf <= 1.0
        assert 0.0 <= row.f1 <= 1.0
        assert row.reps == 20


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------


def sample_rows():
    nan = math.nan
    return [
        MetricRow(
            method="MIP", mu=6.0, tpr_inf=0.95, fpr_inf=1 / 3, f1=0.9193548387096774,
            err=0.2694, tpr_vs=1.0, fpr_vs=0.01, reps=20, fit_reps=20,
        ),
        MetricRow(
            method="Full", mu=6.0, tpr_inf=nan, fpr_inf=nan, f1=nan,
            err=1.072, tpr_vs=0.8, fpr_vs=0.05, reps=20, fit_reps=19,
        ),
    ]


def test_results_csv_round_trip():
    rows = sample_rows()
    text = results_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 3
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        assert cells[0] == row.method
        for cell, value in zip(cells[1:-2], (row.mu, row.tpr_inf, row.fpr_inf, row.f1, row.err, row.tpr_vs, row.fpr_vs)):
            if math.isnan(value):
                assert cell == ""
            else:
                assert float(cell) == value
        assert (int(cells[-2]), int(cells[-1])) == (row.reps, row.fit_reps)
    # Full rows carry fit metrics but no detection rates
    full_line = lines[2].split(",")
    assert full_line[2] == ""
    assert full_line[5] != ""

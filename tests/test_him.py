import numpy as np
import pytest

from mipdetect import (
    Dataset,
    EstimatorMode,
    HimScores,
    him_detect,
    him_scores,
    standardize,
)
from mipdetect.robust_stats import InfluenceMatrix

from ground_truth import chi2_1_sf, him_statistic, marginal_correlation


def influence_from(Z: np.ndarray) -> InfluenceMatrix:
    """Wrap a raw matrix; only the products matter to these statistics."""
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


def test_identical_rows_score_zero_everywhere():
    Z = influence_from(np.tile([0.3, -1.2, 0.7], (4, 1)))
    for k in range(4):
        assert him_statistic(Z, k) == 0.0


def test_hand_case_single_column():
    # rows (0, 0, 3): dropping the last leaves mean 0, so the squared
    # gap at k=2 is (3 - 0)^2
    Z = influence_from(np.array([[0.0], [0.0], [3.0]]))
    assert him_statistic(Z, 2) == 9.0


def test_closed_form_matches_leave_one_out_recomputation():
    rng = np.random.default_rng(5)
    Z = influence_from(rng.standard_normal((15, 8)))
    n, p = 15, 8
    everyone = np.arange(n)
    rho = marginal_correlation(Z, everyone)
    for k in range(n):
        rho_k = marginal_correlation(Z, np.delete(everyone, k))
        direct = n * n * float(np.sum((rho - rho_k) ** 2)) / p
        got = him_statistic(Z, k)
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))


def test_one_pass_scores_match_the_per_row_statistic():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((40, 300))
    y = X[:, 0] + rng.standard_normal(40)
    y[:4] += 12.0  # a few rows far from the rest
    for Z in (
        standardize(Dataset(y=y, X=X), EstimatorMode.ROBUST),
        standardize(Dataset(y=y, X=X), EstimatorMode.SAMPLE),
        influence_from(rng.standard_normal((7, 3)) + 5.0),
    ):
        got = him_scores(Z).statistics
        for k in range(Z.n):
            want = him_statistic(Z, k)
            assert abs(got[k] - want) <= 1e-10 * abs(want), (k, got[k], want)


def test_adding_a_common_row_offset_changes_nothing():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((12, 5))
    shift = rng.standard_normal(5)
    a = him_scores(influence_from(base)).statistics
    b = him_scores(influence_from(base + shift)).statistics
    assert np.max(np.abs(a - b)) <= 1e-12


def test_statistic_ignores_the_order_of_the_other_rows():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((10, 4))
    k = 3
    want = him_statistic(influence_from(base), k)
    perm = np.r_[np.array([6, 0, 9, 8, 1, 2]), k, np.array([4, 5, 7])]
    shuffled = base[perm]
    got = him_statistic(influence_from(shuffled), int(np.where(perm == k)[0][0]))
    assert abs(got - want) <= 1e-12


def test_target_index_is_validated():
    Z = influence_from(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        him_statistic(Z, 5)
    with pytest.raises(ValueError):
        him_statistic(Z, -1)


def test_at_least_three_rows_are_required():
    with pytest.raises(ValueError):
        him_scores(influence_from(np.zeros((2, 3))))


def test_scores_carry_matching_pvalues():
    rng = np.random.default_rng(8)
    scores = him_scores(influence_from(rng.standard_normal((9, 6))))
    assert isinstance(scores, HimScores)
    assert np.all(scores.statistics >= 0)
    for s, p in zip(scores.statistics, scores.pvalues.values):
        assert p == chi2_1_sf(float(s))


def test_detector_report_shape():
    rng = np.random.default_rng(9)
    d = Dataset(y=rng.standard_normal(25), X=rng.standard_normal((25, 10)))
    Z = standardize(d, EstimatorMode.ROBUST)
    report = him_detect(Z, 0.05)
    assert report.method == "him"
    assert report.rounds_used == 1
    assert report.n == 25
    assert report.config["alpha0"] == 0.05
    assert report.config["estimator"] == "robust"
    scores = him_scores(Z)
    rec = report.records
    assert np.array_equal(rec.statistic, scores.statistics)
    assert np.array_equal(rec.p_value, scores.pvalues.values)
    assert ((rec.p_value >= 0.0) & (rec.p_value <= 1.0)).all()


def test_clean_gaussian_data_is_almost_never_flagged(null_bundle):
    fracs = [f.size / null_bundle["n"] for f in null_bundle["him_flags"]]
    assert np.mean(fracs) <= 0.02


def test_swamping_scenario_drives_the_false_positive_rate_past_half(swamping_csv_rows):
    # the whole point of the benchmark: leave-one-out checks implode
    # when a coherent cluster drags the reference statistics
    assert swamping_csv_rows["HIM"]["fpr_inf"] >= 0.5

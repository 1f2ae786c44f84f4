import tracemalloc

import numpy as np
import pytest

from mipdetect import Dataset, DegenerateColumnError, EstimatorMode, standardize
from mipdetect.robust_stats import (
    _BLOCK_BYTES,
    MAD_SCALE_FACTOR,
    _location_scale,
    _select_medians,
    _workers,
)

from ground_truth import marginal_correlation, robust_location_scale


def random_dataset(rng, n, p):
    return Dataset(y=rng.standard_normal(n), X=rng.standard_normal((n, p)))


# ---------------------------------------------------------------------------
# location / scale
# ---------------------------------------------------------------------------


def robust_estimates(v):
    """(median, 1.4826 * MAD) of one vector, through standardize's location/scale routine."""
    (mu,), (sigma,) = _location_scale(np.array(v, dtype=np.float64)[:, None], EstimatorMode.ROBUST)
    return mu, sigma


def test_median_odd_length_is_the_middle_order_statistic():
    assert robust_estimates([1.0, 2.0, 3.0])[0] == 2.0
    assert robust_estimates([3.0, 1.0, 2.0])[0] == 2.0  # order must not matter


def test_median_even_length_is_the_midpoint():
    assert robust_estimates([1.0, 2.0, 3.0, 4.0])[0] == 2.5


def test_median_matches_full_sort_oracle_on_uniform_draws():
    rng = np.random.default_rng(7)
    v = rng.uniform(size=1000)
    s = np.sort(v)
    oracle = 0.5 * (s[499] + s[500])  # even length: midpoint of the central pair
    assert robust_estimates(v)[0] == oracle


def test_mad_scale_of_a_constant_vector_is_zero():
    assert robust_estimates([5.0, 5.0, 5.0])[1] == 0.0


def test_mad_scale_hand_value():
    # deviations from the median 2 are (1, 0, 1), their median is 1
    assert robust_estimates([1.0, 2.0, 3.0])[1] == MAD_SCALE_FACTOR
    assert MAD_SCALE_FACTOR == 1.4826


def test_mad_scale_is_consistent_for_the_normal_sd():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(100_000)
    assert abs(robust_estimates(v)[1] - 1.0) <= 0.02


def test_location_scale_estimates_ignore_ordering():
    rng = np.random.default_rng(12)
    v = rng.standard_normal(101)
    q = rng.permutation(v)
    assert robust_estimates(v) == robust_estimates(q)


@pytest.mark.parametrize("p", [1, 7])
def test_sample_standardize_matches_numpy_moments_byte_for_byte(p):
    # the response against 1-D reductions, X against axis-0 ones
    rng = np.random.default_rng(13 + p)
    y = rng.standard_normal(257) * 1e3 + 7.0
    X = rng.standard_normal((257, p)) * np.geomspace(1e-6, 1e6, p) - 3.0
    got = standardize(Dataset(y=y, X=X), EstimatorMode.SAMPLE)
    mu_y, sigma_y = np.mean(y), np.std(y, ddof=1)
    mu_x, sigma_x = np.mean(X, axis=0), np.std(X, axis=0, ddof=1)
    yhat = (y - mu_y) / sigma_y
    assert np.float64(got.mu_y).tobytes() == mu_y.tobytes()
    assert np.float64(got.sigma_y).tobytes() == sigma_y.tobytes()
    assert got.mu_x.tobytes() == mu_x.tobytes()
    assert got.sigma_x.tobytes() == sigma_x.tobytes()
    assert got.yhat.tobytes() == yhat.tobytes()
    assert got.Z.tobytes() == ((X - mu_x) / sigma_x * yhat[:, None]).tobytes()


# ---------------------------------------------------------------------------
# dataset validation
# ---------------------------------------------------------------------------


def test_dataset_requires_at_least_four_observations():
    with pytest.raises(ValueError):
        Dataset(y=np.zeros(3), X=np.zeros((3, 2)))


def test_dataset_requires_at_least_one_predictor():
    with pytest.raises(ValueError):
        Dataset(y=np.zeros(5), X=np.zeros((5, 0)))


def test_dataset_rejects_non_finite_entries():
    y = np.ones(4)
    X = np.ones((4, 2))
    bad_y = y.copy()
    bad_y[2] = np.nan
    with pytest.raises(ValueError):
        Dataset(y=bad_y, X=X)
    bad_X = X.copy()
    bad_X[1, 0] = np.inf
    with pytest.raises(ValueError):
        Dataset(y=y, X=bad_X)


def test_dataset_rejects_length_mismatch_and_is_frozen():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Dataset(y=rng.standard_normal(5), X=rng.standard_normal((4, 2)))
    d = random_dataset(rng, 6, 3)
    with pytest.raises(AttributeError):
        d.y = np.zeros(6)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def test_sample_standardization_of_a_two_level_column():
    # y and x alternate in lockstep, so every product of standardized
    # values is the same positive number
    y = np.array([-1.0, 1.0, -1.0, 1.0])
    X = y[:, None].copy()
    Z = standardize(Dataset(y=y, X=X), EstimatorMode.SAMPLE)
    sd = np.std(y, ddof=1)
    assert np.allclose(Z.yhat, y / sd)
    assert np.all(Z.Z > 0)
    assert np.allclose(Z.Z, Z.Z[0, 0])


def test_sample_standardization_is_the_identity_on_pre_standardized_data():
    # columns built so the sample mean is exactly 0.0 and the ddof=1
    # sd exactly 1.0 in floating point
    col = np.array([1.5, -0.5, -0.5, -0.5])
    X = np.column_stack([col, col[::-1].copy()])
    y = np.array([-0.5, 1.5, -0.5, -0.5])
    Z = standardize(Dataset(y=y, X=X), EstimatorMode.SAMPLE)
    assert np.array_equal(Z.yhat, y)
    assert np.array_equal(Z.Z, y[:, None] * X)
    assert Z.mu_y == 0.0 and Z.sigma_y == 1.0
    assert np.all(Z.mu_x == 0.0) and np.all(Z.sigma_x == 1.0)


@pytest.mark.parametrize("mode", [EstimatorMode.SAMPLE, EstimatorMode.ROBUST])
def test_influence_entries_match_elementwise_recomputation(mode):
    rng = np.random.default_rng(21)
    d = random_dataset(rng, 20, 5)
    Z = standardize(d, mode)
    direct = np.empty((20, 5))
    for t in range(20):
        for j in range(5):
            direct[t, j] = (
                (d.y[t] - Z.mu_y) * (d.X[t, j] - Z.mu_x[j]) / (Z.sigma_y * Z.sigma_x[j])
            )
    assert np.max(np.abs(Z.Z - direct)) <= 1e-12


@pytest.mark.parametrize("mode", [EstimatorMode.SAMPLE, EstimatorMode.ROBUST])
def test_column_means_of_z_equal_marginal_correlations(mode):
    rng = np.random.default_rng(22)
    d = random_dataset(rng, 20, 5)
    Z = standardize(d, mode)
    direct = Z.Z.mean(axis=0)
    # recompute straight from the raw data with the stored estimates
    yhat = (d.y - Z.mu_y) / Z.sigma_y
    xhat = (d.X - Z.mu_x) / Z.sigma_x
    rho = (yhat[:, None] * xhat).mean(axis=0)
    assert np.max(np.abs(direct - rho)) <= 1e-12


@pytest.mark.parametrize("mode", [EstimatorMode.SAMPLE, EstimatorMode.ROBUST])
def test_standardization_is_invariant_to_affine_response_rescaling(mode):
    rng = np.random.default_rng(23)
    d = random_dataset(rng, 30, 4)
    moved = Dataset(y=3.7 * d.y - 11.0, X=d.X)
    Z0 = standardize(d, mode)
    Z1 = standardize(moved, mode)
    assert np.max(np.abs(Z0.Z - Z1.Z)) <= 1e-10
    assert np.max(np.abs(Z0.yhat - Z1.yhat)) <= 1e-10


def test_constant_predictor_column_is_a_hard_error():
    rng = np.random.default_rng(24)
    d = random_dataset(rng, 10, 3)
    X = d.X.copy()
    X[:, 1] = 2.5
    with pytest.raises(DegenerateColumnError) as err:
        standardize(Dataset(y=d.y, X=X), EstimatorMode.SAMPLE)
    assert err.value.column == 1


def test_constant_response_reports_no_column_index():
    rng = np.random.default_rng(25)
    d = random_dataset(rng, 10, 3)
    with pytest.raises(DegenerateColumnError) as err:
        standardize(Dataset(y=np.full(10, 3.0), X=d.X), EstimatorMode.SAMPLE)
    assert err.value.column is None


def test_majority_constant_column_breaks_only_the_robust_mode():
    # mad of (0,0,0,0,0,0,4,9) is 0 while the sample sd is positive
    rng = np.random.default_rng(26)
    d = random_dataset(rng, 8, 2)
    X = d.X.copy()
    X[:, 0] = [0, 0, 0, 0, 0, 0, 4, 9]
    d2 = Dataset(y=d.y, X=X)
    with pytest.raises(DegenerateColumnError):
        standardize(d2, EstimatorMode.ROBUST)
    standardize(d2, EstimatorMode.SAMPLE)


def _column_draw(rng, kind, n, p):
    """An n-by-p matrix of one kind, redrawn column by column until no MAD is 0."""
    X = np.empty((n, p))
    todo = np.arange(p)
    while todo.size:
        if kind == "normal":
            X[:, todo] = rng.standard_normal((n, todo.size))
        elif kind == "ties":
            X[:, todo] = rng.integers(-3, 4, (n, todo.size))
        else:
            # the middle order statistics are zeros of both signs
            k = max(2, n // 3)
            neg = (n - k) // 2
            for j in todo:
                zeros = np.where(rng.random(k) < 0.5, -0.0, 0.0)
                zeros[:2] = (-0.0, 0.0)
                col = np.concatenate([-rng.integers(1, 4, neg), zeros, rng.integers(1, 4, n - k - neg)])
                X[:, j] = rng.permutation(col)
        todo = todo[robust_location_scale(X[:, todo])[2] == 0.0]
    return X


def _block_width(n):
    return _BLOCK_BYTES // (8 * n * _workers())


@pytest.mark.parametrize("kind", ["normal", "ties", "signed_zeros"])
@pytest.mark.parametrize(
    "n, p",
    [(4, 1), (5, 3), (6, 7), (7, 1), (30, 40), (101, 9), (513, 3), (1000, 2)]
    + [(n, _block_width(n) + dp) for n in (100, 101) for dp in (-1, 0, 1)]
    + [(n, 3 * _block_width(n) + 5) for n in (257, 1000)],
)
def test_robust_standardize_matches_the_np_median_oracle_byte_for_byte(kind, n, p):
    rng = np.random.default_rng(n * 1000 + p)
    X = _column_draw(rng, kind, n, p)
    y = _column_draw(rng, kind, n, 1)[:, 0]
    got = standardize(Dataset(y=y, X=X), EstimatorMode.ROBUST)

    centered_y, mu_y, sigma_y = robust_location_scale(y[:, None])
    centered, mu_x, sigma_x = robust_location_scale(X)
    want = centered / sigma_x * (centered_y / sigma_y)
    if kind == "signed_zeros":
        assert np.signbit(X[X == 0.0]).any() and not np.signbit(X[X == 0.0]).all()
    assert got.Z.tobytes() == want.tobytes()
    assert got.mu_x.tobytes() == mu_x.tobytes()
    assert got.sigma_x.tobytes() == sigma_x.tobytes()
    assert np.float64(got.mu_y).tobytes() == mu_y.tobytes()
    assert np.float64(got.sigma_y).tobytes() == sigma_y.tobytes()
    for j in range(min(p, 5)):
        v = X[:, j].copy()
        _, mu, sigma = robust_location_scale(v[:, None])
        got_mu, got_sigma = robust_estimates(v)
        assert got_mu.tobytes() == mu.tobytes()
        assert got_sigma.tobytes() == sigma.tobytes()
        assert v.tobytes() == X[:, j].tobytes()  # the input is not reordered


@pytest.mark.parametrize("n", [4, 5, 100, 101])
def test_select_medians_only_reorders_each_row(n):
    # the MAD is selected from the same rows after the median's selection, so every
    # value of a row must survive it. NumPy's SIMD selection may flip a zero's sign,
    # which the absolute deviations drop: those the MAD reads are kept bit for bit.
    rng = np.random.default_rng(60 + n)
    rows = rng.standard_normal((7, n))
    rows[:, : n // 2 : 2] = np.resize([-0.0, 0.0], rows[:, : n // 2 : 2].shape)
    rows = rng.permuted(rows, axis=1)
    assert np.signbit(rows[rows == 0.0]).any() and not np.signbit(rows[rows == 0.0]).all()
    before = rows.copy()
    out = np.empty(7)
    _select_medians(rows, out)
    assert np.array_equal(np.sort(rows, axis=1), np.sort(before, axis=1))
    deviations = [np.sort(np.abs(r - out[:, None]), axis=1) for r in (rows, before)]
    assert deviations[0].tobytes() == deviations[1].tobytes()
    assert out.tobytes() == np.median(before, axis=1).tobytes()


def test_robust_standardize_peaks_at_z_plus_one_block():
    rng = np.random.default_rng(41)
    d = random_dataset(rng, 1000, 2000)
    tracemalloc.start()
    try:
        Z = standardize(d, EstimatorMode.ROBUST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= Z.Z.nbytes + 4_000_000, (peak, Z.Z.nbytes)


@pytest.mark.parametrize("n", [255, 256, 257, 1000])
def test_gram_panels_match_the_direct_product_and_are_exactly_symmetric(n):
    # K is built from 256-row panels: syrk on the diagonal, mirrored products above it
    Z = standardize(random_dataset(np.random.default_rng(n), n, 300), EstimatorMode.ROBUST)
    K, direct = Z.gram, Z.Z @ Z.Z.T
    assert np.max(np.abs(K - direct)) <= 1e-10 * np.max(np.abs(direct))
    assert np.array_equal(K, K.T)


# ---------------------------------------------------------------------------
# marginal correlations over index sets
# ---------------------------------------------------------------------------


def test_singleton_marginal_correlation_is_that_row_of_z():
    rng = np.random.default_rng(31)
    Z = standardize(random_dataset(rng, 9, 4), EstimatorMode.SAMPLE)
    assert np.array_equal(marginal_correlation(Z, np.array([5])), Z.Z[5])


def test_full_set_marginal_correlation_on_pre_standardized_data():
    col = np.array([1.5, -0.5, -0.5, -0.5])
    X = np.column_stack([col, np.roll(col, 1)])
    y = np.array([-0.5, -0.5, 1.5, -0.5])
    Z = standardize(Dataset(y=y, X=X), EstimatorMode.SAMPLE)
    rho = marginal_correlation(Z, np.arange(4))
    assert np.max(np.abs(rho - (y[:, None] * X).mean(axis=0))) <= 1e-15


def test_marginal_correlation_matches_fixed_estimate_recomputation():
    rng = np.random.default_rng(32)
    d = random_dataset(rng, 15, 6)
    Z = standardize(d, EstimatorMode.ROBUST)
    S = np.array([0, 2, 3, 6, 9, 11, 14])
    yhat = (d.y - Z.mu_y) / Z.sigma_y
    xhat = (d.X - Z.mu_x) / Z.sigma_x
    direct = (yhat[S, None] * xhat[S]).mean(axis=0)
    assert np.max(np.abs(marginal_correlation(Z, S) - direct)) <= 1e-12


def test_marginal_correlation_rejects_empty_and_out_of_range_sets():
    rng = np.random.default_rng(33)
    Z = standardize(random_dataset(rng, 8, 3), EstimatorMode.SAMPLE)
    with pytest.raises(ValueError):
        marginal_correlation(Z, np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        marginal_correlation(Z, np.array([0, 8]))
    with pytest.raises(ValueError):
        marginal_correlation(Z, np.array([-1]))

import numpy as np
import pytest

from mipdetect import (
    Dataset,
    EstimatorMode,
    MipConfig,
    draw_subsets,
    group_statistic,
    marginal_correlation,
    min_max_statistics,
    min_max_sweep,
    standardize,
    subset_size,
)
from mipdetect.chi2_fdr import chi2_1_sf
from mipdetect.robust_stats import InfluenceMatrix
from mipdetect.subsample import MinMaxStats, _stream_key, point_energy


def influence_from(Z: np.ndarray) -> InfluenceMatrix:
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


def ks_statistic(sample: np.ndarray, above: float = 0.0) -> float:
    """Kolmogorov-Smirnov distance to the chi2(1) distribution.

    With `above` set, the supremum is taken only over sample points
    larger than that cutoff (the empirical CDF still uses all points).
    """
    x = np.sort(sample)
    n = x.size
    cdf = 1.0 - np.array([chi2_1_sf(float(v)) for v in x])
    steps = np.arange(1, n + 1) / n
    keep = x > above
    lo = steps[keep] - cdf[keep]
    hi = cdf[keep] - (steps[keep] - 1.0 / n)
    return float(max(np.max(lo), np.max(hi)))


# ---------------------------------------------------------------------------
# subset sizes and plans
# ---------------------------------------------------------------------------


def test_subset_size_formula():
    assert subset_size(100, 0.5) == 51
    assert subset_size(99, 0.5) == 50
    assert subset_size(10, 0.3) == 4


def test_subset_size_validates_inputs():
    with pytest.raises(ValueError):
        subset_size(100, 0.0)
    with pytest.raises(ValueError):
        subset_size(100, 1.0)
    with pytest.raises(ValueError):
        subset_size(1, 0.5)


def test_forced_subset_when_only_one_choice_exists():
    active = np.arange(8)
    plan = draw_subsets(active, k=3, m=5, n_sub=8, seed=0)
    expected = np.array([0, 1, 2, 4, 5, 6, 7])
    for r in range(5):
        assert np.array_equal(plan.subsets[r], expected)


def test_plans_are_deterministic_and_round_scoped():
    active = np.arange(30)
    a = draw_subsets(active, k=7, m=20, n_sub=12, seed=99, round_id=2)
    b = draw_subsets(active, k=7, m=20, n_sub=12, seed=99, round_id=2)
    c = draw_subsets(active, k=7, m=20, n_sub=12, seed=99, round_id=3)
    assert np.array_equal(a.subsets, b.subsets)
    assert not np.array_equal(a.subsets, c.subsets)


def test_plan_rows_are_sorted_distinct_and_exclude_the_target():
    active = np.arange(5, 45)  # non-contiguous ids must survive intact
    plan = draw_subsets(active, k=11, m=50, n_sub=10, seed=1)
    assert plan.m == 50 and plan.n_sub == 10
    for row in plan.subsets:
        assert np.all(np.diff(row) > 0)
        assert 11 not in row
        assert np.isin(row, active).all()


def test_plan_validation():
    active = np.arange(10)
    with pytest.raises(ValueError):
        draw_subsets(active, k=77, m=5, n_sub=4, seed=0)  # target not active
    with pytest.raises(ValueError):
        draw_subsets(active, k=2, m=0, n_sub=4, seed=0)
    with pytest.raises(ValueError):
        draw_subsets(active, k=2, m=5, n_sub=11, seed=0)  # larger than eligible


def test_subset_membership_is_uniform():
    active = np.arange(20)
    plan = draw_subsets(active, k=19, m=10_000, n_sub=11, seed=123)
    counts = np.bincount(plan.subsets.ravel(), minlength=20)[:19]
    freq = counts / 10_000
    assert np.max(np.abs(freq - 10 / 19)) <= 0.02


def test_stream_keys_reject_out_of_range_components():
    with pytest.raises(ValueError):
        _stream_key(0, 1 << 24, 0, 0)
    with pytest.raises(ValueError):
        _stream_key(0, 1, 1 << 20, 0)
    with pytest.raises(ValueError):
        _stream_key(0, 1, 0, 1 << 20)
    assert _stream_key(7, 1, 0, 0) == _stream_key(7, 1, 0, 0)


# ---------------------------------------------------------------------------
# group statistic
# ---------------------------------------------------------------------------


def test_group_statistic_is_zero_on_perfect_agreement():
    Z = influence_from(np.array([[1.0, 2.0], [3.0, 0.0], [2.0, 1.0]]))
    # rows 0 and 1 average exactly to row 2
    assert group_statistic(Z, np.array([0, 1]), k=2, n_sub=3) == 0.0


def test_group_statistic_hand_case():
    Z = influence_from(np.array([[1.0], [1.0], [4.0]]))
    assert group_statistic(Z, np.array([0, 1]), k=2, n_sub=3) == 9.0


def test_group_statistic_matches_two_set_recomputation():
    rng = np.random.default_rng(17)
    Z = influence_from(rng.standard_normal((30, 12)))
    for trial in range(25):
        n_sub = int(rng.integers(3, 16))
        rows = rng.choice(30, size=n_sub, replace=False)
        k, A = int(rows[0]), np.sort(rows[1:])
        got = group_statistic(Z, A, k=k, n_sub=n_sub)
        rho_with = marginal_correlation(Z, np.sort(rows))
        rho_without = marginal_correlation(Z, A)
        direct = n_sub * n_sub * float(np.mean((rho_with - rho_without) ** 2))
        assert abs(got - direct) <= 1e-10 * max(1.0, direct)


def test_group_statistic_validates_membership_and_size():
    Z = influence_from(np.random.default_rng(0).standard_normal((8, 3)))
    with pytest.raises(ValueError):
        group_statistic(Z, np.array([0, 1, 2]), k=1, n_sub=4)  # target inside
    with pytest.raises(ValueError):
        group_statistic(Z, np.array([0, 1, 2]), k=5, n_sub=5)  # size mismatch
    with pytest.raises(ValueError):
        group_statistic(Z, np.array([0, 1, 1]), k=5, n_sub=4)  # repeated row


# ---------------------------------------------------------------------------
# point energy
# ---------------------------------------------------------------------------


def test_point_energy_trivial_rows():
    Z = influence_from(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]))
    assert point_energy(Z, 0) == 0.0
    assert point_energy(Z, 1) == 1.0


def test_point_energy_factorizes_through_the_standardization():
    rng = np.random.default_rng(19)
    d = Dataset(y=rng.standard_normal(14), X=rng.standard_normal((14, 7)))
    Z = standardize(d, EstimatorMode.ROBUST)
    xhat = (d.X - Z.mu_x) / Z.sigma_x
    for k in range(14):
        direct = float(np.mean(Z.Z[k] ** 2))
        factored = Z.yhat[k] ** 2 * float(np.mean(xhat[k] ** 2))
        assert abs(point_energy(Z, k) - direct) <= 1e-12 * max(1.0, direct)
        assert abs(factored - direct) <= 1e-12 * max(1.0, direct)


def test_point_energy_validates_the_index():
    Z = influence_from(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        point_energy(Z, 4)


# ---------------------------------------------------------------------------
# min/max statistics
# ---------------------------------------------------------------------------


def test_single_subset_collapses_min_and_max():
    rng = np.random.default_rng(20)
    Z = influence_from(rng.standard_normal((12, 5)))
    stats = min_max_statistics(Z, np.arange(12), k=3, cfg=MipConfig(m=1, seed=9))
    assert stats.t_min == stats.t_max


def test_identical_rows_give_degenerate_extremes():
    Z = influence_from(np.tile([0.5, -0.25, 1.0], (10, 1)))
    stats = min_max_statistics(Z, np.arange(10), k=2, cfg=MipConfig(m=8, seed=0))
    assert stats.t_min == 0.0
    assert stats.t_max == 0.0


def test_min_max_statistics_replay_the_drawn_plan():
    rng = np.random.default_rng(21)
    Z = influence_from(rng.standard_normal((25, 9)))
    cfg = MipConfig(m=50, k_sub=0.4, seed=31)
    active = np.arange(25)
    n_sub = subset_size(25, cfg.k_sub)
    for k in (0, 7, 24):
        stats = min_max_statistics(Z, active, k=k, cfg=cfg)
        plan = draw_subsets(active, k=k, m=cfg.m, n_sub=n_sub, seed=cfg.seed, round_id=0)
        vals = [group_statistic(Z, A, k=k, n_sub=n_sub) for A in plan.subsets]
        assert abs(stats.t_min - min(vals)) <= 1e-10 * max(1.0, min(vals))
        assert abs(stats.t_max - max(vals)) <= 1e-10 * max(1.0, max(vals))
        assert 0.0 <= stats.t_min <= stats.t_max


def test_extremes_are_monotone_in_the_subset_count():
    rng = np.random.default_rng(22)
    Z = influence_from(rng.standard_normal((30, 6)))
    active = np.arange(30)
    lo = min_max_statistics(Z, active, k=5, cfg=MipConfig(m=20, seed=3))
    hi = min_max_statistics(Z, active, k=5, cfg=MipConfig(m=60, seed=3))
    assert hi.t_min <= lo.t_min
    assert hi.t_max >= lo.t_max


def test_per_subset_retention_matches_the_extremes():
    rng = np.random.default_rng(23)
    Z = influence_from(rng.standard_normal((16, 4)))
    stats = min_max_statistics(
        Z, np.arange(16), k=1, cfg=MipConfig(m=12, seed=8), keep_per_subset=True
    )
    assert stats.per_subset.shape == (12,)
    assert stats.t_min == float(stats.per_subset.min())
    assert stats.t_max == float(stats.per_subset.max())


def test_min_max_stats_ordering_is_enforced():
    with pytest.raises(ValueError):
        MinMaxStats(t_min=2.0, t_max=1.0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_is_bitwise_invariant_to_thread_count():
    rng = np.random.default_rng(24)
    Z = influence_from(rng.standard_normal((40, 15)))
    active = np.arange(40)
    for shared in (False, True):
        one = min_max_sweep(Z, active, 30, 21, seed=77, round_id=0, threads=1, shared=shared)
        three = min_max_sweep(Z, active, 30, 21, seed=77, round_id=0, threads=3, shared=shared)
        assert np.array_equal(one[0], three[0])
        assert np.array_equal(one[1], three[1])


def test_sweep_honors_an_explicit_target_list():
    rng = np.random.default_rng(25)
    Z = influence_from(rng.standard_normal((20, 5)))
    active = np.arange(20)
    targets = np.array([2, 9, 17], dtype=np.int64)
    for shared in (False, True):
        full = min_max_sweep(Z, active, 15, 11, seed=5, round_id=0, shared=shared)
        part = min_max_sweep(Z, active, 15, 11, seed=5, round_id=0, targets=targets, shared=shared)
        for pos, t in enumerate(targets):
            assert part[0][pos] == full[0][t]
            assert part[1][pos] == full[1][t]


def test_shared_subset_pool_is_deterministic():
    rng = np.random.default_rng(26)
    Z = influence_from(rng.standard_normal((30, 8)))
    active = np.arange(30)
    a = min_max_sweep(Z, active, 20, 11, seed=9, round_id=0, shared=True)
    b = min_max_sweep(Z, active, 20, 11, seed=9, round_id=0, shared=True)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.all(a[0] <= a[1])


def test_shared_pool_falls_back_to_private_draws_when_starved():
    # subsets of 5 out of 6 rows: a pooled draw excludes any given
    # target only one time in six, far fewer than m, so every target
    # must fall back to its private stream and match the unshared sweep
    rng = np.random.default_rng(27)
    Z = influence_from(rng.standard_normal((6, 4)))
    active = np.arange(6)
    shared = min_max_sweep(Z, active, 40, 6, seed=13, round_id=0, shared=True)
    plain = min_max_sweep(Z, active, 40, 6, seed=13, round_id=0, shared=False)
    assert np.array_equal(shared[0], plain[0])
    assert np.array_equal(shared[1], plain[1])


def test_null_sweep_statistics_calibrate_to_chi_square(null_bundle):
    # pooled over 10 clean replicates: both extremes should sit close
    # to their common chi2(1) limit. The reference-subset mean adds a
    # noise floor near 1/(k_sub*n) = 0.02 that empties the lowest tail
    # at this n, so the distance check skips the region below 0.1 and
    # the tail is pinned by the exceedance band instead.
    for pool in (null_bundle["t_min"], null_bundle["t_max"]):
        exceed = float(np.mean(pool > 3.8415))
        assert 0.02 <= exceed <= 0.08
        assert ks_statistic(pool, above=0.1) <= 0.08

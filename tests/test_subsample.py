import threading
import tracemalloc

import numpy as np
import pytest

from mipdetect import (
    Dataset,
    EstimatorMode,
    lasso_fit,
    min_max_sweep,
    standardize,
    subset_size,
)
from mipdetect.chi2_fdr import chi2_1_sf_vec
from mipdetect.robust_stats import InfluenceMatrix
from mipdetect import simbench, subsample
from mipdetect.subsample import (
    _SHARED_KEY_SLOT,
    _SHARED_OVERDRAW,
    _indicators,
    _stream_key,
    _uniforms,
    draw_subsets,
)

from ground_truth import (
    chi2_1_sf,
    draw_positions,
    group_statistic,
    indicator_rows,
    marginal_correlation,
    point_energy,
)


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
    subsets = draw_subsets(active, k=3, m=5, n_sub=8, seed=0)
    expected = np.array([0, 1, 2, 4, 5, 6, 7])
    for r in range(5):
        assert np.array_equal(subsets[r], expected)


def test_plans_are_deterministic_and_round_scoped():
    active = np.arange(30)
    a = draw_subsets(active, k=7, m=20, n_sub=12, seed=99, round_id=2)
    b = draw_subsets(active, k=7, m=20, n_sub=12, seed=99, round_id=2)
    c = draw_subsets(active, k=7, m=20, n_sub=12, seed=99, round_id=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_plan_rows_are_sorted_distinct_and_exclude_the_target():
    active = np.arange(5, 45)  # non-contiguous ids must survive intact
    subsets = draw_subsets(active, k=11, m=50, n_sub=10, seed=1)
    assert subsets.shape == (50, 9)
    for row in subsets:
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
    subsets = draw_subsets(active, k=19, m=10_000, n_sub=11, seed=123)
    counts = np.bincount(subsets.ravel(), minlength=20)[:19]
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


@pytest.mark.parametrize("kwargs", [{"m": 2**20 + 1, "round_id": 0}, {"m": 2**20, "round_id": 2**20}])
def test_draw_subsets_checks_key_ranges_before_allocating(kwargs):
    # a buffer for 2**20 rows of 3 uniforms would take 25 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="does not fit the stream key layout"):
            draw_subsets(np.arange(4), k=0, n_sub=2, seed=0, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# indicator rows against the per-row draw
# ---------------------------------------------------------------------------

SEEDS = [0, 2**63 + 11, 2**64 - 1]


def draw_rows(seed, keys, round_id, m, width, s, skip=None):
    """Indicator rows as the sweeps draw them: private rows with ``skip``, pool rows without."""
    return _indicators(_uniforms(seed, keys, round_id, m, width, 0 if skip is None else 1), s, skip)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("s, m", [(12, 9), (1, 4), (30, 3), (7, 1)])
def test_private_rows_match_the_per_row_oracle(seed, s, m):
    n_U = 31
    skip = np.array([0, 15, 30])  # the target column first, in the middle and last
    got = draw_rows(seed, skip, 4, m, n_U - 1, s, skip=skip)
    want = indicator_rows(draw_positions(seed, skip, 4, m, n_U - 1, s), n_U, skip)
    assert np.array_equal(got, want)
    assert (got[np.arange(len(got)), np.repeat(skip, m)] == 0.0).all()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("s, m", [(10, 25), (1, 6), (30, 2), (17, 1)])
def test_pool_rows_match_the_per_row_oracle(seed, s, m):
    got = draw_rows(seed, [_SHARED_KEY_SLOT], 2, m, 30, s)
    want = indicator_rows(draw_positions(seed, [_SHARED_KEY_SLOT], 2, m, 30, s), 30)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k, m, n_sub", [(3, 20, 8), (21, 6, 2), (39, 4, 19), (15, 1, 10)])
def test_draw_subsets_match_the_per_row_oracle(seed, k, m, n_sub):
    active = np.arange(3, 40, 2)  # 19 ids, so n_sub = 19 forces the whole eligible set
    eligible = active[active != k]
    want = eligible[np.sort(draw_positions(seed, [k], 5, m, eligible.size, n_sub - 1), axis=1)]
    assert np.array_equal(draw_subsets(active, k, m, n_sub, seed, round_id=5), want)


def test_selection_ties_at_the_cut_take_argpartitions_pick():
    u = np.array([
        [0.5, 0.1, 0.5, 0.9, 0.5, 0.2],  # three uniforms tie at the cut
        [0.3, 0.3, 0.3, 0.3, 0.3, 0.3],  # all tie
        [0.6, 0.2, 0.4, 0.4, 0.1, 0.8],  # two tie at the cut
        [0.6, 0.2, 0.3, 0.4, 0.1, 0.8],  # no tie
    ])
    s = 3
    pick = np.argpartition(u, s - 1, axis=1)[:, :s]
    assert np.array_equal(_indicators(u.copy(), s), indicator_rows(pick, 6))
    skip = np.array([0, 2, 5, 6])
    got = _indicators(np.c_[u, np.full(4, np.nan)], s, skip=skip)
    assert np.array_equal(got, indicator_rows(pick, 7, skip))


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


def one_target(Z, n_active, k, m, seed, k_sub=0.5):
    """(T_min, T_max) of target k over rows 0..n_active-1, round 0."""
    t_min, t_max = min_max_sweep(
        Z, np.arange(n_active), m, subset_size(n_active, k_sub), seed, 0, targets=[k]
    )
    return float(t_min[0]), float(t_max[0])


def test_single_subset_collapses_min_and_max():
    rng = np.random.default_rng(20)
    Z = influence_from(rng.standard_normal((12, 5)))
    t_min, t_max = one_target(Z, 12, k=3, m=1, seed=9)
    assert t_min == t_max


def test_identical_rows_give_degenerate_extremes():
    Z = influence_from(np.tile([0.5, -0.25, 1.0], (10, 1)))
    assert one_target(Z, 10, k=2, m=8, seed=0) == (0.0, 0.0)


def test_min_max_statistics_replay_the_drawn_plan():
    rng = np.random.default_rng(21)
    Z = influence_from(rng.standard_normal((25, 9)))
    m, k_sub, seed = 50, 0.4, 31
    active = np.arange(25)
    n_sub = subset_size(25, k_sub)
    for k in (0, 7, 24):
        t_min, t_max = one_target(Z, 25, k=k, m=m, seed=seed, k_sub=k_sub)
        subsets = draw_subsets(active, k=k, m=m, n_sub=n_sub, seed=seed, round_id=0)
        vals = [group_statistic(Z, A, k=k, n_sub=n_sub) for A in subsets]
        assert abs(t_min - min(vals)) <= 1e-10 * max(1.0, min(vals))
        assert abs(t_max - max(vals)) <= 1e-10 * max(1.0, max(vals))
        assert 0.0 <= t_min <= t_max


def test_extremes_are_monotone_in_the_subset_count():
    rng = np.random.default_rng(22)
    Z = influence_from(rng.standard_normal((30, 6)))
    lo = one_target(Z, 30, k=5, m=20, seed=3)
    hi = one_target(Z, 30, k=5, m=60, seed=3)
    assert hi[0] <= lo[0]
    assert hi[1] >= lo[1]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_over_many_blocks_draws_each_target_once(monkeypatch):
    rng = np.random.default_rng(29)
    Z = influence_from(rng.standard_normal((210, 12)))
    active = np.arange(3, 210)  # n_U = 207; with m = 50 a block holds 48 targets
    m, n_sub = 50, subset_size(207, 0.5)
    drawn = []
    uniforms = subsample._uniforms

    def spy(seed, keys, *args, **kwargs):
        drawn.append(len(keys))
        return uniforms(seed, keys, *args, **kwargs)

    monkeypatch.setattr(subsample, "_uniforms", spy)
    runs = [min_max_sweep(Z, active, m, n_sub, seed=41, round_id=1) for _ in range(2)]
    assert np.array_equal(runs[1][0], runs[0][0])
    assert np.array_equal(runs[1][1], runs[0][1])
    assert drawn == [48, 48, 48, 48, 15] * 2
    targets = np.array([209, 3, 100, 57, 150, 4], dtype=np.int64)
    part = min_max_sweep(Z, active, m, n_sub, seed=41, round_id=1, targets=targets)
    pos = targets - 3
    assert np.array_equal(part[0], runs[0][0][pos])
    assert np.array_equal(part[1], runs[0][1][pos])


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


def test_shared_pool_statistics_replay_the_first_usable_pooled_subsets():
    rng = np.random.default_rng(28)
    Z = influence_from(rng.standard_normal((30, 40)))
    m, n_sub, seed, round_id = 12, 11, 4, 2
    active = np.arange(30)
    t_min, t_max = min_max_sweep(Z, active, m, n_sub, seed, round_id, shared=True)
    M = int(np.ceil(_SHARED_OVERDRAW * m))
    pool = [np.flatnonzero(row) for row in draw_rows(seed, [_SHARED_KEY_SLOT], round_id, M, 30, n_sub - 1)]
    served = 0
    for k in range(30):
        usable = [row for row in pool if k not in row]
        if len(usable) < m:
            continue
        served += 1
        vals = [group_statistic(Z, np.sort(A), k=k, n_sub=n_sub) for A in usable[:m]]
        assert abs(t_min[k] - min(vals)) <= 1e-10 * max(1.0, min(vals))
        assert abs(t_max[k] - max(vals)) <= 1e-10 * max(1.0, max(vals))
    assert served >= 20


def test_identical_non_dyadic_rows_never_give_negative_statistics():
    # every subset mean equals the target row, so each statistic is 0 up
    # to round-off in the inner-product form, which must not go negative
    Z = influence_from(np.tile([0.1, -0.7, 1.0 / 3.0, 2.3, -1.9, 0.37], (60, 1)))
    for shared in (False, True):
        t_min, t_max = min_max_sweep(Z, np.arange(60), 40, 31, seed=3, round_id=0, shared=shared)
        assert (t_min >= 0.0).all() and (t_max >= t_min).all()
        assert np.all(chi2_1_sf_vec(t_min) <= 1.0)
        assert t_max.max() <= 1e-12


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


# ---------------------------------------------------------------------------
# one OpenBLAS thread for the small products
# ---------------------------------------------------------------------------

def bundled_openblas():
    """The pin's (get, set) thread-count calls, found by entering it once; None without."""
    with subsample._one_blas_thread:
        pass
    return subsample._one_blas_thread.calls or None


blas = bundled_openblas()
needs_openblas = pytest.mark.skipif(blas is None, reason="NumPy's bundled OpenBLAS symbols are absent")


@pytest.fixture
def two_blas_threads():
    """The caller's OpenBLAS count set to 2 (the pin must move it), restored afterwards."""
    get, put = blas
    before = get()
    put(2)
    try:
        yield get, put
    finally:
        put(before)


def pinned_products(threads_on_entry=None):
    """Private T_min/T_max bytes at n=200, m=100 (the largest pinned block); lasso_fit's beta."""
    rng = np.random.default_rng(47)
    Z = influence_from(rng.standard_normal((200, 40)))
    X = rng.standard_normal((60, 200))
    data = Dataset(X=X, y=X[:, :4].sum(axis=1) + rng.standard_normal(60))
    if threads_on_entry is not None:
        blas[1](threads_on_entry)
    targets = np.array([0, 117, 199], dtype=np.int64)
    t_min, t_max = min_max_sweep(Z, np.arange(200), 100, 101, seed=13, round_id=2, targets=targets)
    return t_min.tobytes() + t_max.tobytes(), lasso_fit(data)[0].tobytes()


@needs_openblas
def test_pinned_products_do_not_depend_on_the_callers_blas_threads(two_blas_threads):
    get, _ = two_blas_threads
    assert pinned_products(threads_on_entry=1) == pinned_products(threads_on_entry=2)
    assert get() == 2


@needs_openblas
def test_blas_pin_is_a_no_op_without_the_openblas_symbols(two_blas_threads, monkeypatch):
    get, _ = two_blas_threads
    want = pinned_products()
    monkeypatch.setattr(subsample._one_blas_thread, "calls", ())
    with subsample._one_blas_thread:
        assert get() == 2
    assert pinned_products(threads_on_entry=1) == want


@needs_openblas
@pytest.mark.parametrize("n, m, pinned", [(200, 100, True), (201, 100, False), (400, 25, True)])
def test_private_blocks_pin_blas_only_for_small_products(
    two_blas_threads, monkeypatch, n, m, pinned
):
    # one thread pays up to m * n_U^2 = 4e6 multiply-adds per product; bigger ones keep the caller's
    get, _ = two_blas_threads
    seen = []
    scores = subsample._subset_scores

    def spy(*args):
        seen.append(get())
        return scores(*args)

    monkeypatch.setattr(subsample, "_subset_scores", spy)
    Z = influence_from(np.random.default_rng(50).standard_normal((n, 5)))
    min_max_sweep(Z, np.arange(n), m, n // 2 + 1, seed=3, round_id=0, targets=[1, n - 2])
    assert seen == [1 if pinned else 2]
    assert get() == 2


@needs_openblas
def test_blas_pin_nests_across_threads_and_restores_after_a_raise(two_blas_threads, monkeypatch):
    # a lasso refit and a private sweep overlap inside the pin; the sweep raises first
    get, _ = two_blas_threads
    both_inside = threading.Barrier(2, timeout=30)
    in_lasso, in_sweep = [], []
    certified = simbench._certified_path

    def lasso_step(*args):
        if not in_lasso:
            both_inside.wait()
            both_inside.wait()  # the sweep has left the pin by now
        in_lasso.append(get())
        return certified(*args)

    def failing_scores(*args):
        in_sweep.append(get())
        both_inside.wait()
        raise RuntimeError("scoring failed")

    def sweep():
        Z = influence_from(np.random.default_rng(48).standard_normal((30, 5)))
        with pytest.raises(RuntimeError, match="scoring failed"):
            min_max_sweep(Z, np.arange(30), 10, 16, seed=1, round_id=0)
        both_inside.wait()

    monkeypatch.setattr(simbench, "_certified_path", lasso_step)
    monkeypatch.setattr(subsample, "_subset_scores", failing_scores)
    rng = np.random.default_rng(49)
    X = rng.standard_normal((40, 30))
    data = Dataset(X=X, y=X[:, 0] + rng.standard_normal(40))
    fit = threading.Thread(target=lasso_fit, args=(data,))
    worker = threading.Thread(target=sweep)
    fit.start()
    worker.start()
    fit.join(timeout=60)
    worker.join(timeout=60)
    assert not fit.is_alive() and not worker.is_alive()
    assert in_lasso == [1] * 6 and in_sweep == [1]  # 5 CV paths and the final one; one block
    assert get() == 2
    assert subsample._one_blas_thread.depth == 0

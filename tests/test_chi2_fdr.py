import math

import mpmath
import numpy as np
import pytest

from mipdetect import PValueSet, bh_select, chi2_1_sf_vec
from mipdetect.chi2_fdr import clamp_pvalues, log10_pvalues

from ground_truth import chi2_1_quantile, chi2_1_sf


def chi2_1_cdf_quadrature(t: float, nodes: int = 80) -> float:
    """P(chi2(1) <= t) by Gauss-Legendre quadrature.

    The substitution x = u^2 removes the density's singularity at zero:
    the integrand becomes 2 exp(-u^2/2) / sqrt(2 pi) on [0, sqrt(t)],
    which the quadrature nails to machine precision.
    """
    if t == 0.0:
        return 0.0
    u, w = np.polynomial.legendre.leggauss(nodes)
    hi = math.sqrt(t)
    x = 0.5 * hi * (u + 1.0)
    f = 2.0 * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(0.5 * hi * (w @ f))


def bh_oracle(p: np.ndarray, alpha0: float):
    """Step-up rule by brute force over every candidate cut point."""
    n = p.size
    order = np.sort(p)
    cuts = [k for k in range(1, n + 1) if order[k - 1] <= k * alpha0 / n]
    if not cuts:
        return set(), None
    thr = order[max(cuts) - 1]
    return set(np.flatnonzero(p <= thr).tolist()), thr


# ---------------------------------------------------------------------------
# survival function
# ---------------------------------------------------------------------------


def test_sf_at_zero_is_total_mass():
    assert chi2_1_sf(0.0) == 1.0


def test_sf_at_the_nominal_critical_value():
    t = 3.841458821
    assert abs(chi2_1_sf(t) - 0.05) <= 1e-6
    assert abs(chi2_1_sf(t) - (1.0 - chi2_1_cdf_quadrature(t))) <= 1e-12


def test_sf_at_one_matches_two_sided_normal_tail():
    mpmath.mp.dps = 50
    oracle = float(2 * (1 - mpmath.ncdf(1)))
    assert abs(chi2_1_sf(1.0) - 0.3173105) <= 1e-6
    assert abs(chi2_1_sf(1.0) - oracle) <= 1e-12


def test_sf_matches_high_precision_erfc_over_the_working_range():
    mpmath.mp.dps = 50
    for t in [1e-8, 0.01, 0.5, 1.0, 2.0, 3.8415, 10.0, 40.0, 120.0, 200.0]:
        oracle = float(mpmath.erfc(mpmath.sqrt(t / 2)))
        assert abs(chi2_1_sf(t) - oracle) <= 1e-12 * oracle


def test_sf_plus_quadrature_cdf_is_one():
    for t in np.linspace(0.0, 30.0, 40):
        assert abs(chi2_1_sf(float(t)) + chi2_1_cdf_quadrature(float(t)) - 1.0) <= 1e-12


def test_sf_is_strictly_decreasing():
    grid = np.linspace(0.0, 50.0, 200)
    vals = [chi2_1_sf(float(t)) for t in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sf_rejects_negative_and_non_finite_arguments():
    for bad in (-1e-9, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            chi2_1_sf(bad)
    with pytest.raises(ValueError):
        chi2_1_sf_vec(np.array([1.0, -0.5]))


def test_vectorized_sf_matches_the_scalar():
    t = np.linspace(0.0, 20.0, 33)
    v = chi2_1_sf_vec(t)
    for i, ti in enumerate(t):
        assert v[i] == chi2_1_sf(float(ti))


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------


def test_quantile_hand_values():
    assert abs(chi2_1_quantile(0.95) - 3.8414588) <= 1e-5
    assert abs(chi2_1_quantile(0.5) - 0.4549364) <= 1e-5


def test_quantile_round_trips_through_the_sf():
    for q in np.arange(0.01, 1.0, 0.01):
        assert abs(chi2_1_sf(chi2_1_quantile(float(q))) - (1.0 - q)) <= 1e-9


def test_quantile_rejects_degenerate_levels():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            chi2_1_quantile(bad)


# ---------------------------------------------------------------------------
# Benjamini-Hochberg selection
# ---------------------------------------------------------------------------


def test_bh_rejects_nothing_on_flat_pvalues():
    res = bh_select(np.array([1.0, 1.0, 1.0]), 0.05)
    assert res.rejected.size == 0
    assert res.threshold is None


def test_bh_hand_case():
    # sorted: 0.001 <= 1*0.05/4, but 0.04 > 2*0.05/4, so only the
    # smallest survives the step-up scan
    res = bh_select(np.array([0.001, 0.2, 0.9, 0.04]), 0.05)
    assert res.rejected.tolist() == [0]
    assert res.threshold == 0.001


def test_bh_rejects_everything_under_uniform_strong_signal():
    p = np.full(7, 0.05 / 7)
    res = bh_select(p, 0.05)
    assert sorted(res.rejected.tolist()) == list(range(7))


def test_bh_ties_share_the_rank_decision():
    res = bh_select(np.array([0.01, 0.01, 0.9]), 0.05)
    assert sorted(res.rejected.tolist()) == [0, 1]


def test_bh_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(42)
    for trial in range(500):
        n = int(rng.integers(1, 51))
        p = rng.uniform(size=n)
        style = trial % 4
        if style == 1:
            p = np.round(p, 1)  # heavy ties
        elif style == 2:
            p = p * 0.1  # dense rejections
        elif style == 3:
            p[: n // 2] = p[0]  # one shared value
        alpha0 = float(rng.uniform(0.01, 0.3))
        got = bh_select(p, alpha0)
        want, thr = bh_oracle(p, alpha0)
        assert set(got.rejected.tolist()) == want
        if thr is None:
            assert got.threshold is None
        else:
            assert got.threshold == thr


def test_lowering_one_pvalue_never_shrinks_the_rejected_set():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        p = rng.uniform(size=n)
        before = set(bh_select(p, 0.1).rejected.tolist())
        i = int(rng.integers(n))
        q = p.copy()
        q[i] = p[i] * rng.uniform()
        after = set(bh_select(q, 0.1).rejected.tolist())
        assert after >= before - {i}
        assert (set(np.flatnonzero(q <= (bh_select(q, 0.1).threshold or -1)).tolist()) == after)


def test_bh_threshold_defines_the_rejected_set():
    rng = np.random.default_rng(44)
    p = rng.uniform(size=30) * 0.2
    res = bh_select(p, 0.2)
    assert res.alpha0 == 0.2
    assert set(res.rejected.tolist()) == set(np.flatnonzero(p <= res.threshold).tolist())


def test_bh_validates_alpha0_and_pvalues():
    with pytest.raises(ValueError):
        bh_select(np.array([0.5]), 0.0)
    with pytest.raises(ValueError):
        bh_select(np.array([0.5]), 1.0)
    with pytest.raises(ValueError):
        bh_select(np.array([0.5, np.nan]), 0.05)
    with pytest.raises(ValueError):
        bh_select(np.array([0.5, 1.2]), 0.05)


def test_pvalue_set_validates_the_unit_interval():
    PValueSet(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        PValueSet(np.array([-0.1]))
    with pytest.raises(ValueError):
        PValueSet(np.array([np.nan]))


# ---------------------------------------------------------------------------
# clamping
# ---------------------------------------------------------------------------


def test_clamp_keeps_pvalues_loggable():
    out = clamp_pvalues(np.array([0.0, 1e-320, 0.3, 1.0]))
    assert out.min() >= 1e-300
    assert out.max() <= 1.0


def test_log10_of_p_equal_one_is_zero():
    assert log10_pvalues(np.array([1.0]))[0] == 0.0


def test_log10_floor_is_minus_three_hundred():
    assert log10_pvalues(np.array([0.0]))[0] == -300.0

"""Release gate: one test per headline guarantee, at its stated tolerance.

Every test here pins a user-visible promise end to end, from exact
algebraic identities through the desk-scale benchmark numbers to CLI
determinism. The simulation-backed checks read the shared session
fixtures so each expensive experiment runs once for the whole suite.
"""

import math
import time

import numpy as np

from mipdetect import (
    Dataset,
    EstimatorMode,
    ScenarioKind,
    ScenarioSpec,
    checking_step,
    gen_scenario,
    standardize,
)
from mipdetect.chi2_fdr import bh_select
from mipdetect.cli import main as cli_main
from mipdetect.simbench import _lasso_path, default_lambda_grid
from mipdetect.subsample import draw_subsets, subset_size

from ground_truth import (
    chi2_1_sf,
    group_statistic,
    him_statistic,
    oracle_decomposition,
    point_energy,
)

CHI2_95 = 3.8415  # 0.95 quantile of chi-square(1)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-12)


def test_acceptance_01_exact_statistic_identities():
    """Incremental statistics match direct mean-difference recomputation.

    200 random (Z, subset, target) instances: the group statistic, the
    leave-one-out statistic, and the checking statistic each agree with
    recomputing the marginal-correlation estimates from scratch to a
    relative error of 1e-10, all inside a 5 second budget.
    """
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(6, 41))
        p = int(rng.integers(2, 21))
        d = Dataset(y=rng.standard_normal(n), X=rng.standard_normal((n, p)))
        Z = standardize(d, EstimatorMode.SAMPLE)
        M = Z.Z

        k = int(rng.integers(n))
        n_sub = int(rng.integers(2, n + 1))
        others = np.delete(np.arange(n), k)
        A = np.sort(rng.choice(others, size=n_sub - 1, replace=False))
        with_k = M[np.append(A, k)].mean(axis=0)
        without_k = M[A].mean(axis=0)
        direct = n_sub**2 * float(np.mean((with_k - without_k) ** 2))
        assert rel_err(group_statistic(Z, A, k, n_sub), direct) <= 1e-10

        k2 = int(rng.integers(n))
        loo = M[np.delete(np.arange(n), k2)].mean(axis=0)
        direct = n**2 * float(np.mean((M.mean(axis=0) - loo) ** 2))
        assert rel_err(him_statistic(Z, k2), direct) <= 1e-10

        clean = np.sort(rng.choice(n, size=int(rng.integers(2, n)), replace=False))
        report = checking_step(Z, clean, alpha0=0.05)
        ref = M[clean].mean(axis=0)
        n_c = clean.size + 1
        for i in np.setdiff1d(np.arange(n), report.clean_set):
            aug = M[np.append(clean, i)].mean(axis=0)
            direct = n_c**2 * float(np.mean((aug - ref) ** 2))
            assert rel_err(report.records.checking_stat[i], direct) <= 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_acceptance_02_null_calibration(null_bundle):
    """On clean data the pooled sweep statistics behave like chi-square(1).

    Ten n=100, p=500 null datasets, m=100: the pooled T_min and T_max
    samples both put 0.05 +- 0.03 of their mass above the 0.95 quantile
    and sit within KS distance 0.08 of the chi-square(1) curve.

    The exceedance clause passes (0.064 and 0.067 measured). The KS
    clause is expected to fail at this sample size: each group statistic
    carries an additive noise floor of roughly 1/(k_sub*n) = 0.02 from
    the reference-subset mean, so the sample has almost no mass below
    0.02 where chi-square(1) concentrates 12% of its probability. That
    alone contributes about 0.10-0.13 of KS distance (0.0895 and 0.1336
    measured for T_min and T_max) while the fit above x=0.1 is good
    (0.036-0.053). The gap shrinks like 1/n and would need n around 500
    to clear 0.08. See the README note on known gaps.
    """
    measured = []
    for stats in (null_bundle["t_min"], null_bundle["t_max"]):
        exceed = float(np.mean(stats > CHI2_95))

        x = np.sort(stats)
        cdf = np.array([math.erf(math.sqrt(0.5 * v)) for v in x])
        grid = np.arange(1, x.size + 1) / x.size
        ks = max(float(np.max(grid - cdf)), float(np.max(cdf - (grid - 1.0 / x.size))))
        measured += [exceed, ks]

    exceed_min, ks_min, exceed_max, ks_max = measured
    assert (
        0.02 <= exceed_min <= 0.08
        and ks_min <= 0.08
        and 0.02 <= exceed_max <= 0.08
        and ks_max <= 0.08
    ), (
        f"T_min: exceedance {exceed_min:.4f}, KS {ks_min:.4f}; "
        f"T_max: exceedance {exceed_max:.4f}, KS {ks_max:.4f} "
        "(bounds: exceedance in [0.02, 0.08], KS <= 0.08)"
    )


def test_acceptance_03_masking_recovery(masking_rows):
    """Masked clusters are recovered with controlled false positives.

    Example 1 at mu=6, 20 reps, m=100: detection TPR at least 0.95 with
    FPR at most 0.02. The closing bound documents the intended contrast
    with the leave-one-out baseline, whose power should mostly collapse
    under masking; at this desk scale the baseline keeps more of its
    power than the bound allows (0.95 measured with NumPy 2.4.6), so that
    final assertion is expected to fail until the contrast is retuned.
    See the README note on known gaps.
    """
    mip = masking_rows[("MIP", 6.0)]
    him = masking_rows[("HIM", 6.0)]
    assert mip.reps == 20 and him.reps == 20
    assert mip.tpr_inf >= 0.95
    assert mip.fpr_inf <= 0.02
    assert him.tpr_inf <= 0.65


def test_acceptance_04_swamping_resistance(swamping_csv_rows):
    """Swamping does not inflate the detector's false positive rate.

    Example 2 at mu=8, 20 reps, via the CLI: detection TPR within 0.05
    of 1.0 with FPR at most 0.01, while the leave-one-out baseline
    swamps at least half of the clean rows.
    """
    mip = swamping_csv_rows["MIP"]
    him = swamping_csv_rows["HIM"]
    assert mip["reps"] == 20 and him["reps"] == 20
    assert abs(mip["tpr_inf"] - 1.0) <= 0.05
    assert mip["fpr_inf"] <= 0.01
    assert him["fpr_inf"] >= 0.5


def test_acceptance_05_downstream_fit_improves(swamping_csv_rows):
    """Cleaning the flagged rows at least halves the coefficient error.

    Same 20-rep run: the mean lasso estimation error after dropping the
    detector's flags is at most half the error of fitting on all rows.
    """
    err_clean = swamping_csv_rows["MIP"]["err"]
    err_full = swamping_csv_rows["Full"]["err"]
    assert math.isfinite(err_clean) and math.isfinite(err_full)
    assert err_clean <= 0.5 * err_full


def test_acceptance_06_subset_count_insensitivity(masking_rows, masking_rows_m300):
    """Tripling the subset count barely moves detection power.

    Example 1 at mu=6 over the same 20 draws: |TPR(m=100) - TPR(m=300)|
    stays within 0.1.
    """
    tpr_100 = masking_rows[("MIP", 6.0)].tpr_inf
    tpr_300 = masking_rows_m300[("MIP", 6.0)].tpr_inf
    assert abs(tpr_100 - tpr_300) <= 0.1


def test_acceptance_07_multiround_min_fpr_bound(minmulti_rows):
    """The multi-round Min detector keeps its FDR-style FPR bound.

    Over 20 Example 2 reps at mu in {6, 8}, its mean FPR stays below
    alpha0/(1 - alpha0) plus a 0.03 Monte-Carlo allowance.
    """
    bound = 0.05 / 0.95 + 0.03
    for mu in (6.0, 8.0):
        row = minmulti_rows[("MinMultiRound", mu)]
        assert row.reps == 20
        assert row.fpr_inf <= bound


def test_acceptance_08_cli_determinism(tmp_path):
    """Detection outputs are byte-stable across repeats."""
    lab = gen_scenario(
        ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=60, p=150, n_inf=6, seed=5)
    )
    csv = tmp_path / "data.csv"
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(lab.data.X.shape[1])])
    lines = [header] + [
        ",".join([repr(float(lab.data.y[i]))] + [repr(float(v)) for v in lab.data.X[i]])
        for i in range(lab.data.y.size)
    ]
    csv.write_text("\n".join(lines) + "\n")

    blobs = []
    for tag in "abcd":
        report = tmp_path / f"{tag}.json"
        flags = tmp_path / f"{tag}.csv"
        code = cli_main(
            ["detect", str(csv), "--m", "40", "--seed", "0",
             "--report", str(report), "--flags", str(flags)]
        )
        assert code == 0
        blobs.append((report.read_bytes(), flags.read_bytes()))
    assert all(b == blobs[0] for b in blobs[1:])


def test_acceptance_09_property_suites():
    """Numerical workhorses hold against independent oracles.

    Covers Benjamini-Hochberg against a brute-force step-up, the
    chi-square(1) tail against quadrature, the KKT optimality conditions
    of the lasso path at every grid penalty, and the subset-decomposition
    envelope bound
    F_min <= F_max <= R_inf^2 * max point energy on labeled data.
    """
    # BH versus brute force on 500 mixed vectors (ties, tiny values, empty-ish)
    rng = np.random.default_rng(909)
    alphas = (0.01, 0.05, 0.1, 0.2)
    for i in range(500):
        size = int(rng.integers(1, 61))
        u = rng.random(size)
        style = i % 4
        if style == 1:
            u = np.round(u, 1)
        elif style == 2:
            u = u * 1e-5
        elif style == 3:
            u[: size // 2] *= 1e-4
        alpha = alphas[int(rng.integers(len(alphas)))]
        got = set(bh_select(u, alpha).rejected.tolist())

        order = np.sort(u)
        want: set = set()
        for k in range(size, 0, -1):
            if order[k - 1] <= k * alpha / size:
                want = set(np.flatnonzero(u <= order[k - 1]).tolist())
                break
        assert got == want

    # chi-square(1) tail versus Simpson quadrature of the normal density:
    # sf(x) = sqrt(2/pi) * integral of exp(-s^2/2) over [sqrt(x), inf)
    grid = np.linspace(0.0, 40.0, 200)
    nodes = 16001
    lo = np.sqrt(grid)
    s = lo[:, None] + (45.0 - lo)[:, None] * np.linspace(0.0, 1.0, nodes)[None, :]
    f = np.exp(-0.5 * s * s)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (45.0 - lo) / (nodes - 1)
    integral = (f * w).sum(axis=1) * h / 3.0
    oracle = math.sqrt(2.0 / math.pi) * integral
    for x, want in zip(grid, oracle):
        assert abs(chi2_1_sf(float(x)) - want) <= 1e-9

    # lasso KKT certificate at every penalty: with c = X^T r / n,
    # |c_j| <= lambda off the support and c_j = lambda sign(beta_j) on it
    d = gen_scenario(
        ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=5.0, n=40, p=60, n_inf=5, seed=2)
    ).data
    lambdas = default_lambda_grid(d.X, d.y, count=8)
    path = _lasso_path(d.X, d.y, lambdas)
    assert path.shape == (8, 60)
    corr = (d.y - path @ d.X.T) @ d.X / d.n
    lam = lambdas[:, None]
    on_support = np.abs(corr - lam * np.sign(path))
    assert np.all(np.where(path != 0, on_support, np.abs(corr) - lam) <= 1e-7)

    # decomposition envelope: the joint pull of influential subset members
    # never exceeds what their count and strongest row allow
    rng = np.random.default_rng(910)
    for i in range(100):
        kind = ScenarioKind.EXAMPLE1 if i % 2 == 0 else ScenarioKind.EXAMPLE2
        n = 2 * int(rng.integers(12, 25))
        n_inf = int(rng.integers(1, n // 2))
        spec = ScenarioSpec(
            kind=kind,
            mu=float(rng.uniform(2.0, 9.0)),
            n=n,
            p=int(rng.integers(24, 60)),
            n_inf=n_inf,
            seed=5000 + i,
        )
        lab = gen_scenario(spec)
        Z = standardize(lab.data, EstimatorMode.ROBUST)
        k = int(rng.integers(n))
        subsets = draw_subsets(np.arange(n), k, 20, subset_size(n, 0.5), seed=i)
        _, f_min, f_max, _ = oracle_decomposition(Z, lab.truth, k, subsets)
        r_inf = n_inf / (n * 0.5)
        max_energy = max(point_energy(Z, int(t)) for t in lab.truth)
        assert f_min <= f_max
        assert f_max <= r_inf**2 * max_energy * (1.0 + 1e-9)

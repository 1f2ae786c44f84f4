import contextlib
import dataclasses
import hashlib
import importlib.util
import inspect
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mipdetect import (
    Dataset,
    DegenerateShrinkageError,
    EstimatorMode,
    MipConfig,
    ScenarioKind,
    ScenarioSpec,
    checking_statistics_all,
    checking_step,
    gen_scenario,
    him_detect,
    him_scores,
    max_detect,
    min_max_clean_set,
    min_multiround_detect,
    mip_detect,
    standardize,
)
from mipdetect.chi2_fdr import bh_select, chi2_1_sf_vec
from mipdetect.robust_stats import InfluenceMatrix
from mipdetect.subsample import min_max_sweep, subset_size

from ground_truth import marginal_correlation


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


def small_contaminated():
    """60x150 Example 1 draw whose six planted rows the pipeline nails."""
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=60, p=150, n_inf=6, seed=5)
    return gen_scenario(spec)


def assert_partition(cs, n: int):
    """clean plus every removed index accounts for each observation once."""
    pieces = [cs.clean] + [idx for _, _, idx in cs.removed]
    combined = np.concatenate(pieces) if pieces else np.array([], dtype=np.int64)
    assert np.array_equal(np.sort(combined), np.arange(n))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = MipConfig()
    assert cfg.m == 100
    assert cfg.k_sub == 0.5
    assert cfg.alpha == cfg.alpha0 == 0.05
    assert cfg.c == 0.5
    assert cfg.l0 is None
    assert cfg.max_rounds == 20
    assert cfg.estimator is EstimatorMode.ROBUST
    assert cfg.shared_subsets is False


def test_config_is_frozen():
    cfg = MipConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.m = 7


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": 0},
        {"k_sub": 0.0},
        {"k_sub": 1.0},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"alpha0": 0.0},
        {"alpha0": 1.0},
        {"c": 0.0},
        {"c": 1.2},
        {"l0": 0},
        {"max_rounds": 0},
        {"seed": -1},
        {"seed": 2**64},
    ],
)
def test_config_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        MipConfig(**kwargs)


def test_config_accepts_c_equal_one():
    assert MipConfig(c=1.0).c == 1.0


def test_resolve_l0():
    cfg = MipConfig()
    assert cfg.resolve_l0(100) == 5
    assert cfg.resolve_l0(10) == 1
    assert cfg.resolve_l0(1000) == 50
    assert MipConfig(l0=7).resolve_l0(100) == 7


def test_echo_excludes_scheduling():
    cfg = MipConfig(m=42)
    echo = cfg.echo()
    assert len(echo) == 10
    assert echo["m"] == 42
    assert echo["estimator"] == "robust"


# ---------------------------------------------------------------------------
# clean-set estimation
# ---------------------------------------------------------------------------


def test_clean_set_raises_when_working_set_too_small():
    # with c = 1 the stop test fails for good once round 1's Max-Step
    # rejects anything, so the l0 fallback strips two rows per quiet round
    rng = np.random.default_rng(14)
    X = rng.standard_normal((12, 6))
    y = rng.standard_normal(12)
    y[:2] += 30.0
    Z = standardize(Dataset(y=y, X=X), EstimatorMode.SAMPLE)
    cfg = MipConfig(m=8, c=1.0, l0=2, max_rounds=10, seed=1)
    capped = min_max_clean_set(Z, dataclasses.replace(cfg, max_rounds=4))
    assert [(rd, step, idx.size) for rd, step, idx in capped.removed] == [
        (1, "min", 2), (2, "min", 2), (3, "min", 2),
    ]
    with pytest.raises(DegenerateShrinkageError, match="working set of 4"):
        min_max_clean_set(Z, cfg)


def test_clean_set_reports_iteration_cap():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=40, p=100, n_inf=5, seed=5)
    Z = standardize(gen_scenario(spec).data, EstimatorMode.ROBUST)
    cs = min_max_clean_set(Z, MipConfig(m=30, c=0.99, max_rounds=2, seed=0))
    assert cs.hit_iteration_cap
    assert cs.rounds_used == 2
    assert_partition(cs, 40)


def test_empty_min_step_falls_back_to_l0_removals():
    """A quiet BH round with a failed stop test still removes l0 points."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((30, 12))
    y = rng.standard_normal(30)
    y[0] += 50.0
    Z = standardize(Dataset(y=y, X=X), EstimatorMode.SAMPLE)
    cs = min_max_clean_set(Z, MipConfig(m=20, c=1.0, l0=1, max_rounds=3, seed=2))

    assert cs.hit_iteration_cap
    assert cs.rounds_used == 3
    trail = [(rd, step, idx.tolist()) for rd, step, idx in cs.removed]
    assert trail == [(1, "min", [0]), (2, "min", [27])]
    assert_partition(cs, 30)

    # replaying round 2 shows BH selected nothing there, so the recorded
    # removal can only be the fallback, and it took the smallest p-value
    S = np.arange(1, 30, dtype=np.int64)
    t_min, _ = min_max_sweep(Z, S, 20, subset_size(S.size, 0.5), 2, 2)
    p_min = chi2_1_sf_vec(t_min)
    assert bh_select(p_min, 0.05).rejected.size == 0
    assert S[int(np.argmin(p_min))] == 27


def test_clean_set_partition_and_threshold():
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    cfg = MipConfig(m=50, seed=0)
    cs = min_max_clean_set(Z, cfg)
    assert_partition(cs, 60)
    assert not cs.hit_iteration_cap
    assert cs.clean.size >= cfg.c * 60 - 1e-9
    assert cs.first_t_min.shape == (60,)
    assert cs.first_t_max.shape == (60,)


def test_clean_set_deterministic():
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    a = min_max_clean_set(Z, MipConfig(m=50, seed=0))
    b = min_max_clean_set(Z, MipConfig(m=50, seed=0))
    assert np.array_equal(a.clean, b.clean)
    assert len(a.removed) == len(b.removed)
    for (rd1, st1, i1), (rd2, st2, i2) in zip(a.removed, b.removed):
        assert (rd1, st1) == (rd2, st2)
        assert np.array_equal(i1, i2)


def test_clean_set_excludes_planted_rows(ex1_mu6_cleansets):
    hits = sum(
        1
        for cs, truth in ex1_mu6_cleansets
        if np.intersect1d(cs.clean, truth).size == 0
    )
    assert hits >= 19


def test_clean_set_partition_on_simulated_runs(ex1_mu6_cleansets):
    for cs, _ in ex1_mu6_cleansets:
        assert_partition(cs, 100)
        if not cs.hit_iteration_cap:
            assert cs.clean.size >= 50


def test_clean_set_usually_stops_within_two_rounds(ex1_mu6_cleansets, ex2_mu8_bundle):
    rounds = [cs.rounds_used for cs, _ in ex1_mu6_cleansets]
    rounds += [rep["mip"].rounds_used for rep in ex2_mu8_bundle]
    frac = sum(1 for r in rounds if r <= 2) / len(rounds)
    assert frac >= 0.75


def test_clean_set_retains_null_data(null_bundle):
    sizes = null_bundle["clean_sizes"]
    assert all(s >= 50 for s in sizes)
    assert float(np.mean(sizes)) >= 85.0


# ---------------------------------------------------------------------------
# checking step
# ---------------------------------------------------------------------------


def test_checking_statistic_zero_at_clean_mean():
    Z = influence_from([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0], [5.0, -1.0]])
    rec = checking_step(Z, [0, 1], alpha0=0.05).records
    assert rec.checking_stat[2] == 0.0
    assert rec.p_value[2] == 1.0
    assert not rec.influential[2]


def test_checking_statistic_matches_two_set_recomputation():
    rng = np.random.default_rng(12)
    d = Dataset(y=rng.standard_normal(15), X=rng.standard_normal((15, 8)))
    Z = standardize(d, EstimatorMode.SAMPLE)
    clean = np.arange(10)
    report = checking_step(Z, clean)
    n_c = clean.size + 1
    rho_clean = marginal_correlation(Z, clean)
    for i in range(10, 15):
        rho_aug = marginal_correlation(Z, np.append(clean, i))
        oracle = n_c**2 * float(np.sum((rho_aug - rho_clean) ** 2)) / Z.p
        got = report.records.checking_stat[i]
        assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle))

    # clean members are tested against the clean set without themselves
    everywhere = checking_statistics_all(Z, clean)
    for i in range(15):
        ref = clean[clean != i]
        rho_ref = marginal_correlation(Z, ref)
        rho_aug = marginal_correlation(Z, np.append(ref, i))
        oracle = (ref.size + 1) ** 2 * float(np.sum((rho_aug - rho_ref) ** 2)) / Z.p
        assert abs(everywhere[i] - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_checking_validates_clean_set():
    Z = influence_from(np.eye(5))
    with pytest.raises(ValueError):
        checking_step(Z, [])
    with pytest.raises(ValueError):
        checking_step(Z, [0, 5])
    with pytest.raises(ValueError):
        checking_step(Z, [-1])


def test_checking_with_no_suspects_flags_nothing():
    Z = influence_from(np.arange(20.0).reshape(5, 4))
    report = checking_step(Z, np.arange(5))
    assert report.flagged().size == 0
    assert report.clean_set.tolist() == list(range(5))
    assert np.isnan(report.records.checking_stat).all()


def test_checking_against_whole_sample_recovers_leave_one_out():
    rng = np.random.default_rng(12)
    d = Dataset(y=rng.standard_normal(15), X=rng.standard_normal((15, 8)))
    Z = standardize(d, EstimatorMode.SAMPLE)
    loo = him_scores(Z).statistics

    everywhere = checking_statistics_all(Z, np.arange(15))
    assert np.max(np.abs(everywhere - loo)) <= 1e-12

    for i in range(15):
        rest = np.delete(np.arange(15), i)
        stat = checking_step(Z, rest).records.checking_stat[i]
        assert abs(stat - loo[i]) <= 1e-12


def test_checking_statistics_all_needs_two_clean_rows():
    Z = influence_from(np.eye(4))
    with pytest.raises(ValueError):
        checking_statistics_all(Z, [2])


def test_checking_flags_all_planted_with_rare_false_alarms(ex2_mu8_bundle):
    false_total = 0
    clean_total = 0
    for rep in ex2_mu8_bundle:
        truth = set(rep["labeled"].truth.tolist())
        flags = set(rep["mip"].flagged().tolist())
        assert truth <= flags
        false_total += len(flags - truth)
        clean_total += 100 - len(truth)
    assert false_total <= 0.01 * clean_total


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_pipeline_end_to_end_flags_exact_rows():
    lab = small_contaminated()
    cfg = MipConfig(m=50, seed=0)
    report = mip_detect(lab.data, cfg)

    assert report.method == "mip"
    assert report.flagged().tolist() == [0, 1, 2, 3, 4, 5]
    assert report.rounds_used == 1
    assert not report.hit_iteration_cap
    assert report.config == cfg.echo()
    rec = report.records
    assert report.n == 60
    assert np.isfinite(rec.t_min).all() and np.isfinite(rec.t_max).all()
    assert not np.isin(report.flagged(), report.clean_set).any()
    tested = ~np.isnan(rec.p_value)
    assert ((rec.p_value[tested] >= 0.0) & (rec.p_value[tested] <= 1.0)).all()


def test_pipeline_deterministic_across_runs():
    lab = small_contaminated()
    base = mip_detect(lab.data, MipConfig(m=50, seed=0))
    again = mip_detect(lab.data, MipConfig(m=50, seed=0))
    assert np.array_equal(base.flagged(), again.flagged())
    assert np.array_equal(base.clean_set, again.clean_set)
    assert base.records.tobytes() == again.records.tobytes()


def test_shared_subsets_recover_planted_rows():
    lab = small_contaminated()
    report = mip_detect(lab.data, MipConfig(m=50, seed=0, shared_subsets=True))
    assert report.flagged().tolist() == [0, 1, 2, 3, 4, 5]


def test_pipeline_masking_benchmark(ex1_mu7_bundle):
    tprs, fprs = [], []
    for rep in ex1_mu7_bundle:
        truth = set(rep["labeled"].truth.tolist())
        flags = set(rep["mip"].flagged().tolist())
        tprs.append(len(flags & truth) / len(truth))
        fprs.append(len(flags - truth) / (100 - len(truth)))
    assert float(np.mean(tprs)) >= 0.95
    assert float(np.mean(fprs)) <= 0.02


def test_pipeline_strong_swamping_benchmark(ex2_grid_rows):
    row = ex2_grid_rows[("MIP", 10.0)]
    assert row.tpr_inf >= 0.99
    assert row.fpr_inf <= 0.01


def test_pipeline_null_flag_rate(null_bundle):
    frac = float(np.mean([f.size / 100 for f in null_bundle["mip_flags"]]))
    assert frac <= 0.08


# ---------------------------------------------------------------------------
# single-statistic detectors
# ---------------------------------------------------------------------------


def test_max_detector_report_shape():
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    cfg = MipConfig(m=50, seed=0)
    report = max_detect(Z, cfg)
    assert report.method == "max"
    assert report.rounds_used == 1
    assert report.config == cfg.echo()
    rec = report.records
    assert np.array_equal(rec.statistic, rec.t_max)
    assert ((rec.p_value >= 0.0) & (rec.p_value <= 1.0)).all()


def test_max_detector_flags_all_planted_under_strong_signal(ex1_mu7_bundle):
    covered = sum(
        1
        for rep in ex1_mu7_bundle
        if set(rep["labeled"].truth.tolist()) <= set(rep["max"].flagged().tolist())
    )
    assert covered >= 18


def test_max_detector_null_flag_rate(null_bundle):
    frac = float(np.mean([f.size / 100 for f in null_bundle["max_flags"]]))
    assert frac <= 0.08


def test_max_flags_cover_min_flags_under_swamping(ex2_mu8_bundle):
    for seed, rep in enumerate(ex2_mu8_bundle[:2]):
        cfg = MipConfig(m=100, seed=seed)
        fmax = set(max_detect(rep["Z"], cfg).flagged().tolist())
        fmin = set(min_multiround_detect(rep["Z"], cfg).flagged().tolist())
        assert fmin <= fmax
        assert len(fmax) > len(fmin)


def test_min_multiround_report_and_cap():
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    report = min_multiround_detect(Z, MipConfig(m=50, seed=0, max_rounds=1))
    assert report.method == "min"
    assert report.hit_iteration_cap
    assert report.rounds_used == 1
    assert report.flagged().tolist() == [0, 1, 2, 3, 4, 5]


def test_min_multiround_deterministic():
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    a = min_multiround_detect(Z, MipConfig(m=50, seed=0))
    b = min_multiround_detect(Z, MipConfig(m=50, seed=0))
    assert np.array_equal(a.flagged(), b.flagged())
    assert a.rounds_used == b.rounds_used


def test_min_multiround_quiet_on_null(null_bundle):
    flags = null_bundle["min_flags"]
    empty = sum(1 for f in flags if f.size == 0)
    assert empty >= 7
    assert float(np.mean([f.size / 100 for f in flags])) <= 0.05


def test_min_multiround_resists_swamping(minmulti_rows):
    row = minmulti_rows[("MinMultiRound", 8.0)]
    assert row.tpr_inf >= 0.99
    assert row.fpr_inf <= 0.01


def test_min_multiround_false_positive_bound(minmulti_rows):
    bound = 0.05 / 0.95 + 0.03
    for mu in (6.0, 8.0):
        assert minmulti_rows[("MinMultiRound", mu)].fpr_inf <= bound


# ---------------------------------------------------------------------------
# report table
# ---------------------------------------------------------------------------

FLOAT_FIELDS = ("p_value", "statistic", "t_min", "t_max", "checking_stat")

# producer -> (report, fields it never fills); p_value, statistic and
# checking_stat are also missing on the clean set when there is one
PRODUCERS = {
    "checking": (lambda d, Z, cfg: checking_step(Z, np.arange(6, 60)), {"t_min", "t_max"}),
    "mip": (lambda d, Z, cfg: mip_detect(d, cfg), set()),
    "max": (lambda d, Z, cfg: max_detect(Z, cfg), {"checking_stat"}),
    "min": (lambda d, Z, cfg: min_multiround_detect(Z, cfg), {"checking_stat"}),
    "him": (lambda d, Z, cfg: him_detect(Z, cfg.alpha0), {"t_min", "t_max", "checking_stat"}),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_every_producer_fills_one_column_per_field(name):
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    produce, never = PRODUCERS[name]
    report = produce(lab.data, Z, MipConfig(m=50, seed=0))
    rec = report.records

    assert rec.dtype.names == ("influential",) + FLOAT_FIELDS
    assert all(rec[f].shape == (60,) for f in rec.dtype.names)
    assert np.array_equal(report.flagged(), np.flatnonzero(rec.influential))
    assert report.flagged().tolist() == [0, 1, 2, 3, 4, 5]

    clean = np.zeros(60, dtype=bool)
    if report.clean_set is not None:
        clean[report.clean_set] = True
    for f in FLOAT_FIELDS:
        if f in never:
            expect = np.ones(60, dtype=bool)
        elif f in ("p_value", "statistic", "checking_stat"):
            expect = clean
        else:
            expect = np.zeros(60, dtype=bool)
        assert np.array_equal(np.isnan(rec[f]), expect), f


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py as a module, with perfbench/ importable as its siblings see it."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_benchmark_verdict_reads_a_shared_pool_report(monkeypatch):
    # perfbench/run.py's verdict walks report.records row by row; a report
    # change that breaks it would fail every in-process benchmark op
    run = load_perfbench("run", monkeypatch)

    report = mip_detect(small_contaminated().data, MipConfig(m=50, seed=0, shared_subsets=True))
    got = run.verdict(report)
    assert got["flagged"] == (report.flagged() + 1).tolist()
    assert got["clean_set"] == (report.clean_set + 1).tolist()
    rec = report.records
    values = np.column_stack((rec.t_min, rec.t_max, rec.checking_stat, rec.p_value))
    assert got["values_sha256"] == hashlib.sha256(values.tobytes()).hexdigest()


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the traced benchmark wraps these module attributes by name and reads
    # the sweep's arguments by position; a rename would break --trace 1
    layers = load_perfbench("layers", monkeypatch)
    for module, attr, _, _ in layers.TARGETS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)

    class Tracer:
        def span(self, name, **notes):
            return contextlib.nullcontext()

    Z = standardize(small_contaminated().data)
    for shared in (False, True):
        args = (Z, np.arange(Z.n), 20, subset_size(Z.n, 0.5), 7, 0)
        kwargs = {"targets": None, "shared": shared}
        bound = inspect.signature(min_max_sweep).bind(*args, **kwargs)
        assert list(bound.arguments)[:6] == ["Z", "active", "m", "n_sub", "seed", "round_id"]
        probe = layers.SweepProbe()
        note = probe.note(args, kwargs, min_max_sweep(*args, **kwargs))
        assert note["targets"] == Z.n and note["gflop"] > 0
        # only a private sweep is replayed, through draw_subsets
        assert (probe.args is None) == shared
        probe.run(Tracer())


def test_shared_detect_memory_is_z_plus_two_gram_blocks():
    """Beyond Z, a shared-pool detect holds K = Z Z^T, one block of it and small buffers."""
    rng = np.random.default_rng(9)
    n, p = 1000, 5000
    X = rng.standard_normal((n, p))
    X[:20] += 3.0
    y = rng.standard_normal(n)
    y[:20] += 8.0
    d = Dataset(y=y, X=X)
    tracemalloc.start()
    try:
        report = mip_detect(d, MipConfig(shared_subsets=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.flagged().size > 0
    bound = X.nbytes + 2 * 8 * n * n + 16_000_000
    assert peak <= bound, (peak, bound)

import contextlib
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
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
    first_sweep,
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
from mipdetect.subsample import _KEY_R_BITS, _stream_key, min_max_sweep, subset_size

from ground_truth import FLAG_EQUAL_TRANSFORMS, TRANSFORMS, influence_from, marginal_correlation


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


def test_config_bounds_m_by_the_subset_ids_the_stream_key_holds():
    top = 1 << _KEY_R_BITS
    _stream_key(0, 0, 0, top - 1)  # the last subset id that fits
    with pytest.raises(ValueError, match="subset id does not fit"):
        _stream_key(0, 0, 0, top)
    # private targets draw subset ids 0..m-1; the pool draws ceil(2.5 m)
    assert MipConfig(m=top).m == top
    assert MipConfig(m=419_430, shared_subsets=True).m == 419_430  # 1048575 ids
    for kwargs, ids in (({"m": top + 1}, top + 1), ({"m": 419_431, "shared_subsets": True}, 1_048_578)):
        with pytest.raises(ValueError, match=f"m = {kwargs['m']} needs {ids} subset ids"):
            MipConfig(**kwargs)
        # the sweep counts its subset ids the same way before it draws any
        with pytest.raises(ValueError, match=f"m = {kwargs['m']} needs {ids} subset ids"):
            min_max_sweep(influence_from(np.eye(4)), np.arange(4), kwargs["m"], 2, 0, 0,
                          shared=kwargs.get("shared_subsets", False))


def test_integer_fields_become_plain_ints():
    # a NumPy integer would reach report.json's config echo, which json cannot write
    cfg = MipConfig(m=np.int32(20), l0=np.int64(2), max_rounds=np.uint8(5), seed=np.uint64(2**63 + 1))
    assert [(type(v), v) for v in (cfg.m, cfg.l0, cfg.max_rounds, cfg.seed)] == [
        (int, 20), (int, 2), (int, 5), (int, 2**63 + 1)
    ]
    assert json.loads(json.dumps(cfg.echo()))["seed"] == 2**63 + 1
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, n=np.int64(30), p=np.int16(40),
                        n_inf=np.int8(2), seed=np.uint64(7))
    assert [(type(v), v) for v in (spec.n, spec.p, spec.n_inf, spec.seed)] == [
        (int, 30), (int, 40), (int, 2), (int, 7)
    ]
    # a float is refused, not truncated on use or echoed as given
    for kwargs in ({"seed": 1.5}, {"m": 20.5}, {"l0": 2.0}, {"max_rounds": "3"}):
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be an integer"):
            MipConfig(**kwargs)
    for kwargs in ({"n": 100.5}, {"p": 50.0}, {"n_inf": 1.0}, {"seed": 0.5}):
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be an integer"):
            ScenarioSpec(kind=ScenarioKind.EXAMPLE1, **kwargs)


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
    capped_cfg = dataclasses.replace(cfg, max_rounds=4)
    capped = min_max_clean_set(Z, capped_cfg, first_sweep(Z, capped_cfg))
    assert [(rd, step, idx.size) for rd, step, idx in capped.removed] == [
        (1, "min", 2), (2, "min", 2), (3, "min", 2),
    ]
    with pytest.raises(DegenerateShrinkageError, match="working set of 4"):
        min_max_clean_set(Z, cfg, first_sweep(Z, cfg))


def test_clean_set_reports_iteration_cap():
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=40, p=100, n_inf=5, seed=5)
    Z = standardize(gen_scenario(spec).data, EstimatorMode.ROBUST)
    cfg = MipConfig(m=30, c=0.99, max_rounds=2, seed=0)
    cs = min_max_clean_set(Z, cfg, first_sweep(Z, cfg))
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
    cfg = MipConfig(m=20, c=1.0, l0=1, max_rounds=3, seed=2)
    cs = min_max_clean_set(Z, cfg, first_sweep(Z, cfg))

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
    first = first_sweep(Z, cfg)
    cs = min_max_clean_set(Z, cfg, first)
    assert_partition(cs, 60)
    assert not cs.hit_iteration_cap
    assert cs.clean.size >= cfg.c * 60 - 1e-9
    assert [t.shape for t in first] == [(60,), (60,)]


def test_clean_set_deterministic():
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    cfg = MipConfig(m=50, seed=0)
    a = min_max_clean_set(Z, cfg, first_sweep(Z, cfg))
    b = min_max_clean_set(Z, cfg, first_sweep(Z, cfg))
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


@pytest.mark.parametrize("clean", [np.arange(5), np.arange(3)], ids=["no_suspects", "suspects"])
def test_checking_validates_alpha0_whatever_the_clean_set(clean):
    with pytest.raises(ValueError, match="alpha0 must be in"):
        checking_step(influence_from(np.arange(20.0).reshape(5, 4)), clean, alpha0=5.0)


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
    loo = him_scores(Z)

    # the leave-one-out statistic is this one, run by the same code
    assert np.array_equal(checking_statistics_all(Z, np.arange(15)), loo)

    for i in range(15):
        rest = np.delete(np.arange(15), i)
        stat = checking_step(Z, rest).records.checking_stat[i]
        assert abs(stat - loo[i]) <= 1e-12


def test_checking_statistics_all_needs_two_clean_rows():
    Z = influence_from(np.eye(4))
    with pytest.raises(ValueError):
        checking_statistics_all(Z, [2])


@pytest.mark.parametrize("clean", [[-1, 3], [3, 5]])
@pytest.mark.parametrize("check", [checking_step, checking_statistics_all])
def test_checking_rejects_a_clean_index_outside_the_sample(check, clean):
    # -1 must not wrap around to row n - 1, nor n fail as a bare IndexError
    with pytest.raises(ValueError, match="clean set index out of range"):
        check(influence_from(np.eye(5)), clean)


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
    report = max_detect(Z, cfg, first_sweep(Z, cfg))
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
        first = first_sweep(rep["Z"], cfg)
        fmax = set(max_detect(rep["Z"], cfg, first).flagged().tolist())
        fmin = set(min_multiround_detect(rep["Z"], cfg, first).flagged().tolist())
        assert fmin <= fmax
        assert len(fmax) > len(fmin)


def test_min_multiround_report_and_cap():
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    cfg = MipConfig(m=50, seed=0, max_rounds=1)
    report = min_multiround_detect(Z, cfg, first_sweep(Z, cfg))
    assert report.method == "min"
    assert report.hit_iteration_cap
    assert report.rounds_used == 1
    assert report.flagged().tolist() == [0, 1, 2, 3, 4, 5]


def test_min_multiround_deterministic():
    lab = small_contaminated()
    Z = standardize(lab.data, EstimatorMode.ROBUST)
    cfg = MipConfig(m=50, seed=0)
    a = min_multiround_detect(Z, cfg, first_sweep(Z, cfg))
    b = min_multiround_detect(Z, cfg, first_sweep(Z, cfg))
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
# invariances
# ---------------------------------------------------------------------------

INVARIANT_DETECTORS = {
    "mip": lambda d: mip_detect(d, MipConfig(m=30, seed=2)),
    "mip_shared": lambda d: mip_detect(d, MipConfig(m=30, seed=2, shared_subsets=True)),
    "him": lambda d: him_detect(standardize(d)),
}


@pytest.fixture(scope="module")
def invariance_base():
    """An Example 2 draw and each detector's records on it."""
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=8.0, n=60, p=200, n_inf=6, seed=3)
    d = gen_scenario(spec).data
    return d, {name: detect(d).records for name, detect in INVARIANT_DETECTORS.items()}


@pytest.mark.parametrize("detector", sorted(INVARIANT_DETECTORS))
@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_report_bytes_survive_sign_flips_and_power_of_two_scales(
    invariance_base, transform, detector
):
    d, want = invariance_base
    y, X = TRANSFORMS[transform](d.y, d.X)
    got = INVARIANT_DETECTORS[detector](Dataset(y=y, X=X)).records
    assert want[detector].influential.any()
    assert got.tobytes() == want[detector].tobytes()


@pytest.mark.parametrize("detector", sorted(INVARIANT_DETECTORS))
@pytest.mark.parametrize("transform", sorted(FLAG_EQUAL_TRANSFORMS))
def test_flags_survive_a_shift_and_a_column_permutation(invariance_base, transform, detector):
    # HIM flags all 60 rows of this draw, so its case shows only that no
    # row drops out, a weak check; the draw is kept as the byte tests have it
    d, want = invariance_base
    y, X = FLAG_EQUAL_TRANSFORMS[transform](d.y, d.X)
    got = INVARIANT_DETECTORS[detector](Dataset(y=y, X=X)).records
    assert want[detector].influential.any()
    assert np.array_equal(got.influential, want[detector].influential)


# ---------------------------------------------------------------------------
# report table
# ---------------------------------------------------------------------------

FLOAT_FIELDS = ("p_value", "statistic", "t_min", "t_max", "checking_stat")

# producer -> (report, fields it never fills); p_value, statistic and
# checking_stat are also missing on the clean set when there is one
PRODUCERS = {
    "checking": (lambda d, Z, cfg: checking_step(Z, np.arange(6, 60)), {"t_min", "t_max"}),
    "mip": (lambda d, Z, cfg: mip_detect(d, cfg), set()),
    "max": (lambda d, Z, cfg: max_detect(Z, cfg, first_sweep(Z, cfg)), {"checking_stat"}),
    "min": (lambda d, Z, cfg: min_multiround_detect(Z, cfg, first_sweep(Z, cfg)), {"checking_stat"}),
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
        kwargs = {"shared": shared}
        bound = inspect.signature(min_max_sweep).bind(*args, **kwargs)
        assert list(bound.arguments)[:6] == ["Z", "active", "m", "n_sub", "seed", "round_id"]
        probe = layers.SweepProbe()
        note = probe.note(args, kwargs, min_max_sweep(*args, **kwargs))
        assert note["targets"] == Z.n and note["gflop"] > 0
        # only a private sweep is replayed, through draw_subsets
        assert (probe.args is None) == shared
        probe.run(Tracer())


def test_benchmark_setup_reproduces_the_pinned_inputs(monkeypatch, tmp_path):
    # the benchmark's set-up imports src/ names and regenerates its inputs;
    # a rename or an input drift would fail every op of the workload
    run = load_perfbench("run", monkeypatch)
    for name in ("simulate-fit", "detect-desk"):
        wl = run.WORKLOADS[name]
        monkeypatch.setattr(wl, "dir", tmp_path / name)
        (got,) = wl.prepare([0], run.load_reference(name))  # SetupError on a hash mismatch
        assert got["id"] == 0


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


SHARED_DETECT_DIGEST = """
import hashlib, os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from mipdetect import Dataset, MipConfig, mip_detect
rng = np.random.default_rng(0)
X, y = rng.standard_normal((1000, 2000)), rng.standard_normal(1000)
X[:10] += 3.0
y[:10] += 8.0
report = mip_detect(Dataset(y=y, X=X), MipConfig(shared_subsets=True))
assert report.flagged().size >= 10
print(hashlib.sha256(report.records.tobytes() + report.clean_set.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_shared_detect_bits_do_not_follow_blas_threads_or_cpus():
    # K, the pool's products and standardize run in fixed panels on one OpenBLAS thread each
    digests = {}
    for setting in ("1", "2", "one-cpu"):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
        if setting != "one-cpu":
            env["OPENBLAS_NUM_THREADS"] = setting
        proc = subprocess.run([sys.executable, "-c", SHARED_DETECT_DIGEST, setting],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests[setting] = proc.stdout.strip()
    assert len(set(digests.values())) == 1, digests

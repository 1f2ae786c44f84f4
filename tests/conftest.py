"""Shared fixtures.

The session-scoped fixtures below carry the expensive simulation runs
(tens of detector fits each); every test that needs one of those runs
reads from here so the suite pays for each experiment exactly once.
Seeds are fixed per fixture and never shared between fixtures.
"""

import numpy as np
import pytest

from mipdetect import (
    EstimatorMode,
    MipConfig,
    ScenarioKind,
    ScenarioSpec,
    gen_scenario,
    him_detect,
    max_detect,
    min_max_clean_set,
    min_multiround_detect,
    mip_detect,
    run_experiment,
    standardize,
)
from mipdetect.cli import main as cli_main
from mipdetect.subsample import min_max_sweep, subset_size


def rows_by_method(rows):
    out = {}
    for r in rows:
        out[(r.method, r.mu)] = r
    return out


def parse_results_csv(text: str):
    """results.csv back into dicts, floats restored exactly (repr round-trip)."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        row = {}
        for key, cell in zip(header, line.split(",")):
            if key == "method":
                row[key] = cell
            elif cell == "":
                row[key] = float("nan")
            elif key == "reps":
                row[key] = int(cell)
            else:
                row[key] = float(cell)
        out.append(row)
    return out


@pytest.fixture(scope="session")
def masking_rows():
    """Example 1 at mu=6, m=100: MIP and the leave-one-out baseline, 20 reps."""
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=100, p=1000, n_inf=10, seed=0)
    rows = run_experiment([spec], ["MIP", "HIM"], 20, MipConfig(m=100, seed=0))
    return rows_by_method(rows)


@pytest.fixture(scope="session")
def masking_rows_m300():
    """Same draws as masking_rows but m=300, isolating the subset count."""
    spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=100, p=1000, n_inf=10, seed=0)
    rows = run_experiment([spec], ["MIP"], 20, MipConfig(m=300, seed=0))
    return rows_by_method(rows)


@pytest.fixture(scope="session")
def swamping_csv_rows(tmp_path_factory):
    """Example 2 at mu=8 through the CLI: 20 reps with lasso refits.

    One run feeds the swamping, downstream-fit, and CLI-level checks;
    the CSV is parsed back with exact float round-trips.
    """
    out = tmp_path_factory.mktemp("swamp") / "results.csv"
    code = cli_main(
        [
            "simulate", "--example", "2", "--mu-grid", "8",
            "--methods", "MIP,HIM,Full", "--with-fit",
            "--reps", "20", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 0
    rows = parse_results_csv(out.read_text())
    return {row["method"]: row for row in rows}


@pytest.fixture(scope="session")
def minmulti_rows():
    """Multi-round Min detector on Example 2 at mu in {6, 8}, 20 reps each."""
    specs = [
        ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=mu, n=100, p=1000, n_inf=10, seed=0)
        for mu in (6.0, 8.0)
    ]
    rows = run_experiment(specs, ["MinMultiRound"], 20, MipConfig(m=100, seed=0))
    return rows_by_method(rows)


@pytest.fixture(scope="session")
def null_bundle():
    """Ten clean n=100, p=500 datasets: pooled sweep statistics and detector flags."""
    t_min_pool, t_max_pool = [], []
    mip_flags, him_flags, max_flags, min_flags, clean_sizes = [], [], [], [], []
    for rep in range(10):
        spec = ScenarioSpec(
            kind=ScenarioKind.NULL, mu=0.0, n=100, p=500, n_inf=10, seed=1000 + rep
        )
        labeled = gen_scenario(spec)
        Z = standardize(labeled.data, EstimatorMode.ROBUST)
        cfg = MipConfig(m=100, seed=rep)
        n_sub = subset_size(Z.n, cfg.k_sub)
        t_min, t_max = min_max_sweep(Z, np.arange(Z.n), cfg.m, n_sub, cfg.seed, 0)
        t_min_pool.append(t_min)
        t_max_pool.append(t_max)
        report = mip_detect(labeled.data, cfg)
        mip_flags.append(report.flagged())
        clean_sizes.append(report.clean_set.size)
        him_flags.append(him_detect(Z, cfg.alpha0).flagged())
        max_flags.append(max_detect(Z, cfg).flagged())
        min_flags.append(min_multiround_detect(Z, cfg).flagged())
    return {
        "n": 100,
        "t_min": np.concatenate(t_min_pool),
        "t_max": np.concatenate(t_max_pool),
        "mip_flags": mip_flags,
        "him_flags": him_flags,
        "max_flags": max_flags,
        "min_flags": min_flags,
        "clean_sizes": clean_sizes,
    }


@pytest.fixture(scope="session")
def ex1_mu7_bundle():
    """Twenty Example 1 draws at mu=7 with full-pipeline and Max-only reports."""
    reps = []
    for rep in range(20):
        spec = ScenarioSpec(
            kind=ScenarioKind.EXAMPLE1, mu=7.0, n=100, p=1000, n_inf=10, seed=2000 + rep
        )
        labeled = gen_scenario(spec)
        Z = standardize(labeled.data, EstimatorMode.ROBUST)
        cfg = MipConfig(m=100, seed=rep)
        reps.append(
            {
                "labeled": labeled,
                "Z": Z,
                "mip": mip_detect(labeled.data, cfg),
                "max": max_detect(Z, cfg),
            }
        )
    return reps


@pytest.fixture(scope="session")
def ex1_mu6_cleansets():
    """Twenty Example 1 clean-set runs at mu=6 (defaults)."""
    out = []
    for rep in range(20):
        spec = ScenarioSpec(
            kind=ScenarioKind.EXAMPLE1, mu=6.0, n=100, p=1000, n_inf=10, seed=3000 + rep
        )
        labeled = gen_scenario(spec)
        Z = standardize(labeled.data, EstimatorMode.ROBUST)
        cs = min_max_clean_set(Z, MipConfig(m=100, seed=rep))
        out.append((cs, labeled.truth))
    return out


@pytest.fixture(scope="session")
def ex2_mu8_bundle():
    """Ten Example 2 draws at mu=8 with full-pipeline reports and Z kept."""
    reps = []
    for rep in range(10):
        spec = ScenarioSpec(
            kind=ScenarioKind.EXAMPLE2, mu=8.0, n=100, p=1000, n_inf=10, seed=4000 + rep
        )
        labeled = gen_scenario(spec)
        Z = standardize(labeled.data, EstimatorMode.ROBUST)
        cfg = MipConfig(m=100, seed=rep)
        reps.append(
            {
                "labeled": labeled,
                "Z": Z,
                "mip": mip_detect(labeled.data, cfg),
            }
        )
    return reps


@pytest.fixture(scope="session")
def ex1_trend_rows():
    """MIP on the Example 1 signal grid mu in {4,...,7}, 10 reps per point."""
    specs = [
        ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=mu, n=100, p=1000, n_inf=10, seed=0)
        for mu in (4.0, 5.0, 6.0, 7.0)
    ]
    rows = run_experiment(specs, ["MIP"], 10, MipConfig(m=100, seed=0))
    return rows_by_method(rows)


@pytest.fixture(scope="session")
def ex2_grid_rows():
    """MIP on Example 2 at mu in {6, 10}, 10 reps per point."""
    specs = [
        ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=mu, n=100, p=1000, n_inf=10, seed=0)
        for mu in (6.0, 10.0)
    ]
    rows = run_experiment(specs, ["MIP"], 10, MipConfig(m=100, seed=0))
    return rows_by_method(rows)

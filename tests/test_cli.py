"""Command-line interface: ingestion, output schemas, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mipdetect import __version__
from mipdetect.chi2_fdr import chi2_1_sf_vec, log10_pvalues
from mipdetect import cli
from mipdetect import mip as mip_module
from mipdetect.cli import _add_mip_opts, _cell, build_parser, load_dataset, main
from mipdetect.mip import (
    MipConfig,
    checking_statistics_all,
    first_sweep,
    him_detect,
    max_detect,
    min_multiround_detect,
    mip_detect,
)
from mipdetect.robust_stats import Dataset, EstimatorMode, standardize
from mipdetect.simbench import METHODS, ScenarioKind, ScenarioSpec, gen_scenario

from ground_truth import FLAG_EQUAL_TRANSFORMS, TRANSFORMS, _parse_cells

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_csv(path, y, X, delimiter=",", header=True, response_last=False):
    """Serialize a dataset the way the CLI expects it back.

    repr() keeps every float bit-exact through the round trip, so CLI
    runs on exports are directly comparable to library runs on arrays.
    """
    p = X.shape[1]
    names = [f"x{j + 1}" for j in range(p)]
    cols = names + ["y"] if response_last else ["y"] + names
    lines = [delimiter.join(cols)] if header else []
    for i in range(len(y)):
        vals = [repr(float(v)) for v in X[i]]
        row = vals + [repr(float(y[i]))] if response_last else [repr(float(y[i]))] + vals
        lines.append(delimiter.join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def flagged_indices(flags_path):
    _, rows = read_rows(flags_path)
    return [int(r[0]) for r in rows if r[-1] == "true"]


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    lab = gen_scenario(
        ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=6.0, n=60, p=150, n_inf=6, seed=5)
    )
    path = tmp_path_factory.mktemp("cli") / "small.csv"
    write_csv(path, lab.data.y, lab.data.X)
    return path, lab


def test_cell_formatting():
    assert _cell(None) == ""
    assert _cell(True) == "true"
    assert _cell(False) == "false"
    assert _cell(float("nan")) == ""
    assert _cell(1.5) == "1.5"
    assert _cell(7) == "7"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"mipdetect {__version__}"


def _declared_console_script(name):
    """The `module:function` target that pyproject.toml declares for `name`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


# The start-up contract: both CLI entry points set OPENBLAS_THREAD_TIMEOUT
# before NumPy loads, a value the user set wins, and a library import
# changes no environment variable. Each check runs a fresh interpreter,
# since NumPy is already loaded in this one.
BLAS_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"

# a sitecustomize that reports the variable when NumPy is first looked up
NUMPY_IMPORT_PROBE = f"""
import os, sys

class _Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print("numpy loads with {BLAS_TIMEOUT}=" + os.environ.get("{BLAS_TIMEOUT}", "unset"),
                  file=sys.stderr)
        return None

sys.meta_path.insert(0, _Probe())
"""


def run_python(args, cwd=None, probe=False, timeout_value=None):
    """Run ``python ARGS`` on this checkout's src/, with the variable unset or at ``timeout_value``.

    ``probe`` puts NUMPY_IMPORT_PROBE on the path as a sitecustomize in ``cwd``.
    """
    env = dict(os.environ)
    env.pop(BLAS_TIMEOUT, None)
    if timeout_value is not None:
        env[BLAS_TIMEOUT] = timeout_value
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    if probe:
        (cwd / "sitecustomize.py").write_text(NUMPY_IMPORT_PROBE)
        paths.insert(0, str(cwd))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def console_script_args():
    """``python`` arguments that run the declared `mipdetect` target as its installed wrapper does."""
    module, func = _declared_console_script("mipdetect").split(":")
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


def test_console_script_is_installed():
    # Run the declared entry point the way an installer's generated wrapper
    # does, in a fresh interpreter, so the check covers this checkout's
    # [project.scripts] target rather than whatever `mipdetect` is on PATH.
    proc = run_python([*console_script_args(), "--version"])
    assert proc.stdout.strip() == f"mipdetect {__version__}"


def test_package_import_loads_no_numpy_and_every_name_resolves():
    run_python(["-c", (
        "import sys, mipdetect\n"
        "assert 'numpy' not in sys.modules, 'import mipdetect loaded NumPy'\n"
        "assert set(mipdetect.__all__) <= set(dir(mipdetect))\n"
        "for name in mipdetect.__all__:\n"
        "    getattr(mipdetect, name)\n"
        "from mipdetect import MipConfig, lasso_fit, mip_detect\n"
        "import mipdetect.mip\n"
        "assert mip_detect is mipdetect.mip.mip_detect\n"
        "assert not hasattr(mipdetect, 'no_such_name')\n"
    )])


@pytest.mark.parametrize("entry", ["python_m", "console_script"])
@pytest.mark.parametrize("user_value", [None, "28"], ids=["unset", "user_28"])
def test_cli_sets_the_blas_timeout_before_numpy_loads(tmp_path, entry, user_value):
    args = ["-m", "mipdetect.cli"] if entry == "python_m" else console_script_args()
    proc = run_python([*args, "--version"], tmp_path, probe=True, timeout_value=user_value)
    want = user_value or "4"
    assert proc.stderr.splitlines() == [f"numpy loads with {BLAS_TIMEOUT}={want}"]
    assert proc.stdout.strip() == f"mipdetect {__version__}"


def test_library_imports_change_no_environment():
    run_python(["-c", (
        "import os\n"
        "before = dict(os.environ)\n"
        "import mipdetect, mipdetect.cli\n"
        "mipdetect.mip_detect\n"
        "assert dict(os.environ) == before, set(os.environ.items()) ^ set(before.items())\n"
    )])


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
def test_detect_leaves_numpy_ma_unimported(tmp_path, small_csv, shared):
    # np.unique, and the set routines built on it, import numpy.ma: 7 ms and 1.3 MB per process
    csv, _ = small_csv
    run_python(["-c", (
        "import json, sys\n"
        "from mipdetect.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'detect imported numpy.ma'\n"
        "assert json.load(open('r.json'))['removed'][0]['step'] == 'min'  # a shrunken sweep ran\n"
    ), "detect", str(csv), "--report", "r.json", "--flags", "f.csv", *["--shared-subsets"] * shared],
        tmp_path)


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
def test_detect_never_loads_simbench(tmp_path, small_csv, shared):
    # the simulation harness and its imports cost about 16 ms per process; only simulate needs them
    csv, _ = small_csv
    run_python(["-c", (
        "import sys\n"
        "from mipdetect.cli import build_parser, main\n"
        "build_parser().format_help()\n"
        "assert main(sys.argv[1:]) == 0\n"
        "assert 'mipdetect.simbench' not in sys.modules, 'detect loaded mipdetect.simbench'\n"
    ), "detect", str(csv), "--report", "r.json", "--flags", "f.csv", *["--shared-subsets"] * shared],
        tmp_path)


def test_simulate_with_fit_leaves_numpy_ma_unimported(tmp_path):
    # the fit metrics compare supports by boolean masks; np.isin's np.unique imports numpy.ma
    run_python(["-c", (
        "import sys\n"
        "from mipdetect.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'simulate imported numpy.ma'\n"
    ), "simulate", "--example", "2", "--mu-grid", "8", "--methods", "Full", "--with-fit",
        "--reps", "1", "--seed", "0", "--out", "s.csv"], tmp_path)


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
def test_detect_bytes_do_not_depend_on_the_blas_timeout(tmp_path, shared):
    lab = gen_scenario(ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=8.0, n=100, p=400, seed=0))
    write_csv(tmp_path / "in.csv", lab.data.y, lab.data.X)
    outputs = []
    for value in (None, "28"):  # the CLI's 4, and OpenBLAS's own default
        tag = value or "unset"
        args = ["-m", "mipdetect.cli", "detect", "in.csv", "--m", "20",
                "--report", f"{tag}.json", "--flags", f"{tag}.csv"]
        run_python(args + ["--shared-subsets"] * shared, tmp_path, timeout_value=value)
        outputs.append([(tmp_path / f"{tag}.{ext}").read_bytes() for ext in ("json", "csv")])
    assert outputs[0] == outputs[1]


def test_detect_report_schema(tmp_path, small_csv):
    csv, lab = small_csv
    report_path = tmp_path / "report.json"
    flags_path = tmp_path / "flags.csv"
    code, _ = run_cli(
        ["detect", csv, "--m", 40, "--seed", 3, "--report", report_path, "--flags", flags_path]
    )
    assert code == 0

    raw = report_path.read_text()
    payload = json.loads(raw)
    # canonical serialization: sorted keys, two-space indent, no NaN tokens
    assert raw == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert "NaN" not in raw

    assert payload["schema_version"] == 2
    assert payload["method"] == "mip"
    assert payload["n"] == 60
    assert payload["rounds_used"] >= 1
    assert payload["hit_iteration_cap"] is False

    manifest = payload["manifest"]
    assert manifest["tool"] == "mipdetect"
    assert manifest["version"] == __version__
    assert manifest["seed"] == 3
    assert manifest["input_sha256"] == hashlib.sha256(csv.read_bytes()).hexdigest()
    assert manifest["config"]["m"] == 40

    clean = payload["clean_set"]
    assert clean is not None and all(1 <= i <= 60 for i in clean)
    obs = payload["observations"]
    assert [o["index"] for o in obs] == list(range(1, 61))
    for o in obs:
        assert set(o) == {
            "index", "influential", "p_value", "statistic",
            "t_min", "t_max", "checking_stat", "clean_member",
        }
        assert isinstance(o["influential"], bool)
    flagged = {o["index"] for o in obs if o["influential"]}
    assert flagged == set(flagged_indices(flags_path))
    # flagged rows sit outside the reported clean set
    assert flagged.isdisjoint(clean)

    # the removal trail partitions the rows outside the clean set
    trail = payload["removed"]
    assert trail and all(set(e) == {"round", "step", "indices"} for e in trail)
    assert all(e["step"] in ("min", "max") and e["round"] >= 1 for e in trail)
    removed = [i for e in trail for i in e["indices"]]
    assert len(removed) == len(set(removed))
    assert set(removed) == set(range(1, 61)) - set(clean)


def test_detect_flags_csv_schema(tmp_path, small_csv):
    csv, _ = small_csv
    report_path = tmp_path / "r.json"
    flags_path = tmp_path / "flags.csv"
    code, _ = run_cli(
        ["detect", csv, "--m", 40, "--report", report_path, "--flags", flags_path]
    )
    assert code == 0
    header, rows = read_rows(flags_path)
    assert header == ["index", "t_min", "t_max", "checking_stat", "p_value", "influential"]
    assert [int(r[0]) for r in rows] == list(range(1, 61))

    obs = json.loads(report_path.read_text())["observations"]
    for r, o in zip(rows, obs):
        for cell in r[1:3]:  # the sweep statistics exist for every row
            assert repr(float(cell)) == cell
        # checking columns are filled only for rows the checking step examined
        assert (r[3] == "") == (r[4] == "") == bool(o["clean_member"])
        if r[4]:
            assert repr(float(r[3])) == r[3]
            assert 0.0 <= float(r[4]) <= 1.0
        assert r[5] in ("true", "false")
        if r[5] == "true":
            assert r[4] != ""


def test_detect_recovers_planted_rows(tmp_path):
    lab = gen_scenario(
        ScenarioSpec(kind=ScenarioKind.EXAMPLE1, mu=7.0, n=100, p=1000, n_inf=10, seed=2000)
    )
    csv = tmp_path / "ex1.csv"
    write_csv(csv, lab.data.y, lab.data.X)
    flags_path = tmp_path / "flags.csv"
    code, _ = run_cli(
        ["detect", csv, "--seed", 0, "--report", tmp_path / "r.json", "--flags", flags_path]
    )
    assert code == 0
    assert flagged_indices(flags_path) == list(range(1, 11))


def test_detect_outputs_do_not_depend_on_threads(tmp_path, small_csv, monkeypatch):
    csv, _ = small_csv

    def detect(label, *extra):
        report_path = tmp_path / f"{label}.json"
        flags_path = tmp_path / f"{label}.csv"
        code, err = run_cli(
            ["detect", csv, "--m", 40, "--seed", 0,
             "--report", report_path, "--flags", flags_path, *extra]
        )
        assert code == 0
        return (report_path.read_bytes(), flags_path.read_bytes()), err

    blobs = [detect(label)[0] for label in ("a", "b")]
    assert blobs[1] == blobs[0]

    # the old knobs configure nothing: MIP_THREADS is not read, --threads only warns
    monkeypatch.setenv("MIP_THREADS", "lots")
    assert detect("env")[0] == blobs[0]
    blob, err = detect("flag", "--threads", 0)
    assert blob == blobs[0]
    assert "--threads is ignored" in err


def test_detect_on_clean_data_flags_few(tmp_path):
    lab = gen_scenario(ScenarioSpec(kind=ScenarioKind.NULL, n=100, p=300, seed=3))
    csv = tmp_path / "null.csv"
    write_csv(csv, lab.data.y, lab.data.X)
    flags_path = tmp_path / "flags.csv"
    code, _ = run_cli(
        ["detect", csv, "--m", 50, "--seed", 0,
         "--report", tmp_path / "r.json", "--flags", flags_path]
    )
    assert code == 0
    assert len(flagged_indices(flags_path)) / 100 <= 0.08


def test_him_matches_library_bit_for_bit(tmp_path, small_csv):
    csv, lab = small_csv
    report_path = tmp_path / "report.json"
    flags_path = tmp_path / "flags.csv"
    code, _ = run_cli(
        ["him", csv, "--report", report_path, "--flags", flags_path]
    )
    assert code == 0

    Z = standardize(Dataset(y=lab.data.y, X=lab.data.X), EstimatorMode.ROBUST)
    rec = him_detect(Z, 0.05).records
    header, rows = read_rows(flags_path)
    assert header == ["index", "him_stat", "p_value", "influential"]
    assert [r[1] for r in rows] == [repr(v) for v in rec.statistic.tolist()]
    assert [r[2] for r in rows] == [repr(v) for v in rec.p_value.tolist()]
    assert [r[3] == "true" for r in rows] == rec.influential.tolist()

    payload = json.loads(report_path.read_text())
    assert payload["method"] == "him"
    assert payload["manifest"]["seed"] is None  # HIM draws nothing
    assert "seed" not in payload["manifest"]["config"]


def test_him_takes_only_the_options_it_reads(tmp_path, small_csv):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["him"]._actions if a.dest != "help"}
    assert dests == {
        "input", "delimiter", "header", "response_col",
        "alpha0", "estimator", "report", "flags",
    }

    csv, _ = small_csv
    outs = lambda tag: ["--report", tmp_path / f"{tag}.json", "--flags", tmp_path / f"{tag}.csv"]
    for option in ("--m", "--seed", "--alpha"):  # --alpha is not taken as short for --alpha0
        with pytest.raises(SystemExit) as exc:
            run_cli(["him", csv, option, 0.5, *outs("m")])
        assert exc.value.code == 2


def test_detect_matches_library_bit_for_bit(tmp_path, small_csv):
    csv, lab = small_csv
    report_path = tmp_path / "report.json"
    flags_path = tmp_path / "flags.csv"
    code, _ = run_cli(
        ["detect", csv, "--m", 40, "--seed", 3, "--report", report_path, "--flags", flags_path]
    )
    assert code == 0

    ref = mip_detect(Dataset(y=lab.data.y, X=lab.data.X), MipConfig(m=40, seed=3))
    rec = ref.records
    header, rows = read_rows(flags_path)
    obs = json.loads(report_path.read_text())["observations"]
    for name in ("t_min", "t_max", "checking_stat", "p_value", "statistic"):
        col = rec[name].tolist()
        # empty cell / null exactly where the library column is NaN
        assert [o[name] for o in obs] == [None if np.isnan(v) else v for v in col], name
        if name in header:
            cells = [r[header.index(name)] for r in rows]
            assert cells == ["" if np.isnan(v) else repr(v) for v in col], name
    flags = rec.influential.tolist()
    assert [r[-1] == "true" for r in rows] == flags
    assert [o["influential"] for o in obs] == flags
    assert [o["clean_member"] for o in obs] == np.isin(np.arange(60), ref.clean_set).tolist()


def swamping_csv(tmp_path):
    """An n=60, p=200 Example 2 draw as (dataset, CSV path)."""
    lab = gen_scenario(
        ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=8.0, n=60, p=200, n_inf=6, seed=0)
    )
    csv = tmp_path / "ex2.csv"
    write_csv(csv, lab.data.y, lab.data.X)
    return lab.data, csv


def test_plot_data_schema_and_flag_nesting(tmp_path):
    _, csv = swamping_csv(tmp_path)
    out = tmp_path / "pvalues.csv"
    code, _ = run_cli(["plot-data", csv, "--m", 50, "--seed", 0, "--out", out])
    assert code == 0

    header, rows = read_rows(out)
    assert header == [
        "index", "log10_p_max", "log10_p_min", "log10_p_checking",
        "influential_mip", "influential_max", "influential_min",
    ]
    assert [int(r[0]) for r in rows] == list(range(1, 61))
    for r in rows:
        for cell in r[1:4]:
            assert float(cell) <= 0.0
        for cell in r[4:]:
            assert cell in ("true", "false")

    mip_set = {int(r[0]) for r in rows if r[4] == "true"}
    max_set = {int(r[0]) for r in rows if r[5] == "true"}
    min_set = {int(r[0]) for r in rows if r[6] == "true"}
    assert mip_set == set(range(1, 7))
    # swamping drags the Max statistic over many clean rows; the Min round
    # stays on the planted cluster, so its flag set nests inside Max's
    assert min_set <= max_set
    assert len(max_set) > len(min_set)


def test_plot_data_columns_are_the_library_detectors(tmp_path):
    data, csv = swamping_csv(tmp_path)
    out = tmp_path / "pvalues.csv"
    assert run_cli(["plot-data", csv, "--m", 50, "--seed", 0, "--out", out])[0] == 0

    cfg = MipConfig(m=50, seed=0)
    Z = standardize(data, cfg.estimator)
    first = first_sweep(Z, cfg)
    mip = mip_detect(data, cfg)
    max_rec = max_detect(Z, cfg, first).records
    min_rec = min_multiround_detect(Z, cfg, first).records
    want = (
        log10_pvalues(max_rec.p_value),
        log10_pvalues(min_rec.p_value),
        log10_pvalues(chi2_1_sf_vec(checking_statistics_all(Z, mip.clean_set))),
        mip.records.influential,
        max_rec.influential,
        min_rec.influential,
    )
    _, rows = read_rows(out)
    for j, column in enumerate(want, start=1):
        assert [r[j] for r in rows] == [_cell(v) for v in column.tolist()], j


def test_plot_data_scores_each_row_against_the_clean_set_once(tmp_path, monkeypatch):
    # the suspects' checking statistics come from the checking step, the members' from one call
    _, csv = swamping_csv(tmp_path)
    scored = []
    stats = mip_module._checking_stats

    def spy(Z, clean, rows):
        scored.extend(rows.tolist())
        return stats(Z, clean, rows)

    monkeypatch.setattr(mip_module, "_checking_stats", spy)
    assert run_cli(["plot-data", csv, "--m", 50, "--seed", 0, "--out", tmp_path / "p.csv"])[0] == 0
    assert sorted(scored) == list(range(60))


def test_plot_data_sweeps_the_first_working_set_once(tmp_path, sweep_calls):
    _, csv = swamping_csv(tmp_path)
    assert run_cli(["plot-data", csv, "--m", 50, "--seed", 0, "--out", tmp_path / "p.csv"])[0] == 0
    assert sweep_calls[(0, 0, np.arange(60, dtype=np.int64).tobytes())] == 1


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--example", "1", "--mu-grid", "6", "--reps", 1, "--seed", 7,
            "--n", 40, "--p", 80, "--n-inf", 5, "--m", 30, "--methods", "MIP,HIM"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(args + ["--out", first])[0] == 0
    assert run_cli(args + ["--out", second])[0] == 0
    assert first.read_bytes() == second.read_bytes()
    header, rows = read_rows(first)
    assert header == ["method", "mu", "tpr_inf", "fpr_inf", "f1", "err", "tpr_vs", "fpr_vs", "reps",
                      "fit_reps"]
    assert [r[0] for r in rows] == ["MIP", "HIM"]


def test_simulate_null_controls_flag_rate(tmp_path):
    out = tmp_path / "null.csv"
    code, _ = run_cli(
        ["simulate", "--example", "null", "--reps", 3, "--n", 60, "--p", 150,
         "--m", 50, "--methods", "MIP,HIM,MaxOnly,MinMultiRound", "--seed", 1, "--out", out]
    )
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 4
    for r in rows:
        assert r[2] == ""  # TPR undefined without planted rows
        assert float(r[3]) <= 0.08


def test_simulate_names_each_failed_rep_in_one_line(tmp_path):
    # a fresh interpreter, so that stderr gets what logging prints without a handler
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "s.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mipdetect.cli", "simulate", "--example", "1", "--n", "6",
         "--p", "20", "--n-inf", "2", "--reps", "2", "--methods", "MIP,MaxOnly",
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    failures = [line for line in proc.stderr.splitlines() if " failed for " in line]
    assert [line.split(":")[0] for line in failures] == [
        "rep 0 of example1 failed for MIP", "rep 1 of example1 failed for MIP"
    ]
    assert all("cannot support subsets of size" in line for line in failures)
    header, rows = read_rows(out)
    assert [(r[0], r[header.index("reps")]) for r in rows] == [("MIP", "0"), ("MaxOnly", "2")]


def test_simulate_help_names_every_method(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name in METHODS:
        assert name in text


def test_wall_line_covers_the_whole_command(tmp_path, small_csv, monkeypatch):
    parse = cli.load_dataset

    def slow_parse(*args, **kwargs):
        time.sleep(0.25)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "load_dataset", slow_parse)
    csv, _ = small_csv
    outs = ["--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    code, err = run_cli(["detect", csv, "--m", 20, *outs])
    assert code == 0, err
    (wall,) = re.findall(r"^detect: (\d+\.\d\d)s wall$", err, re.M)
    assert float(wall) >= 0.25

    code, err = run_cli(["detect", tmp_path / "missing.csv", *outs])
    assert code == 2
    assert not re.search(r"\d+\.\d\ds wall$", err, re.M)


def test_simulate_swamping_benchmark(swamping_csv_rows):
    mip = swamping_csv_rows["MIP"]
    him = swamping_csv_rows["HIM"]
    assert mip["fpr_inf"] <= 0.02
    assert him["fpr_inf"] >= 0.5


def test_parse_errors_carry_positions(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1,x2\n1,2,3\n4,oops,6\n7,8,9\n1,1,1\n")
    code, err = run_cli(
        ["detect", bad, "--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    )
    assert code == 2
    assert "row 3, column 2" in err and "'oops'" in err
    assert "Error" not in err and "Traceback" not in err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("y,x1,x2\n1,2,3\n4,5\n6,7,8\n9,9,9\n")
    code, err = run_cli(
        ["detect", ragged, "--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    )
    assert code == 2
    assert "row 3: expected 3 columns, found 2" in err
    assert "Error" not in err and "Traceback" not in err


def test_unusable_inputs_exit_2(tmp_path):
    ok = tmp_path / "ok.csv"
    ok.write_text("y,x1,x2\n1,2,3\n4,5,6\n7,8,9\n1,2,1\n")
    outs = ["--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]

    cases = [
        (["detect", tmp_path / "missing.csv", *outs], "cannot read"),
        (["detect", write_text(tmp_path, "one.csv", "y\n1\n2\n3\n4\n"), *outs],
         "need a response column and at least one predictor"),
        (["detect", write_text(tmp_path, "tabs.csv", "y\tx1\n1\t2\n3\t4\n5\t6\n7\t9\n"), *outs],
         "split on ','"),
        (["detect", write_text(tmp_path, "short.csv", "y,x1\n1,2\n3,4\n5,6\n"), *outs],
         "need at least 4 observations"),
        (["detect", write_text(tmp_path, "hdr.csv", "y,x1\n"), *outs],
         "header but no data rows"),
        (["detect", write_text(tmp_path, "empty.csv", "\n\n"), *outs], "no rows"),
        (["detect", write_bytes(tmp_path, "cell.csv", b"y,x1,x2\n1,2,3\n4,\xff5,6\n7,8,9\n1,2,1\n"), *outs],
         "invalid UTF-8 at byte 17"),
        (["detect", write_bytes(tmp_path, "bomcell.csv", b"\xef\xbb\xbfy,x1,x2\n1,2,3\n4,\xff5,6\n7,8,9\n1,2,1\n"), *outs],
         "invalid UTF-8 at byte 20"),
        (["detect", write_bytes(tmp_path, "head.csv", b"y,x\xe91,x2\n1,2,3\n4,5,6\n7,8,9\n1,2,1\n"), *outs],
         "invalid UTF-8 at byte 4"),
        # '#' starts no comment: the last cell of row 3 is bad, not 2
        (["detect", write_text(tmp_path, "hash.csv", "y,x1\n1,2\n4,2#x\n7,8\n1,1\n"), *outs],
         "row 3, column 2: could not parse '2#x'"),
        # a form feed ends the line; U+001F is not a space to float()
        (["detect", write_text(tmp_path, "ff.csv", "y,x1,x2\n1,2,3\n4,5\x0c,6\n7,8,9\n1,2,1\n"), *outs],
         "row 3: expected 3 columns, found 2"),
        (["detect", write_text(tmp_path, "us.csv", "y,x1,x2\n1,2,3\n4,5\x1f,6\n7,8,9\n1,2,1\n"), *outs],
         "row 3, column 2: could not parse '5\\x1f' as a number"),
        (["detect", write_text(tmp_path, "wide.csv", "y,x1\n1,2,3\n4,5,6\n7,8,9\n1,2,1\n"), *outs],
         "row 2: expected 2 columns, found 3"),
        (["detect", write_text(tmp_path, "nan.csv", "y,x1,x2\n1,2,3\n4,nan,6\n7,8,9\n1,2,1\n"), *outs],
         "row 3, column 2: non-finite value 'nan'"),
        (["detect", write_text(tmp_path, "inf.csv", "y,x1,x2\n1,2,3\n4,5,6\n7,8,-inf\n1,2,1\n"), *outs],
         "row 4, column 3: non-finite value '-inf'"),
        # an overflowing literal parses to inf; the first bad cell in row-major order wins
        (["detect", write_text(tmp_path, "big.csv", "1,2,3\n4,5,1e400\n7,nan,9\n1,2,1\n5,5,5\n"), *outs],
         "row 2, column 3: non-finite value '1e400'"),
        (["detect", ok, "--response-col", "z", *outs], "neither a header name nor a position"),
        (["detect", ok, "--response-col", "9", *outs], "out of range 1..3"),
        (["detect", ok, "--delimiter", "", *outs], "--delimiter must be a non-empty string"),
        (["detect", ok, "--alpha", 1.5, *outs], "alpha and alpha0"),
        (["detect", ok, "--seed", 2**64, *outs], "seed must be an integer in [0, 2**64)"),
        (["him", ok, "--alpha0", 1.0, *outs], "alpha0 must be in (0, 1)"),
        (["simulate", "--example", "1", "--methods", "MIP,Bogus",
          "--out", tmp_path / "s.csv"], "unknown method 'Bogus'"),
        (["simulate", "--example", "1", "--methods", ",",
          "--out", tmp_path / "s.csv"], "need at least one method"),
        *(
            (["simulate", "--example", "1", "--mu-grid", mu, "--out", tmp_path / "s.csv"],
             "mu must be finite and nonnegative")
            for mu in ("nan", "inf", "1e400")
        ),
        (["simulate", "--example", "1", "--mu-grid", "0,foo", "--out", tmp_path / "s.csv"],
         "--mu-grid: 'foo' is not a number"),
        (["simulate", "--example", "1", "--n", 3, "--out", tmp_path / "s.csv"], "n must be at least 4"),
        (["simulate", "--example", "1", "--p", 0, "--out", tmp_path / "s.csv"], "p must be at least 1"),
    ]
    for argv, fragment in cases:
        code, err = run_cli(argv)
        assert code == 2, argv
        assert fragment in err, (argv, err)
        assert "Error" not in err and "Traceback" not in err, err
    assert not (tmp_path / "s.csv").exists()  # no header-only table either


def test_bad_run_settings_exit_2_before_the_input_is_read(tmp_path):
    missing = tmp_path / "missing.csv"  # never opened: the settings fail first
    outs = ["--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    out = ["--out", tmp_path / "s.csv"]
    small = ["--n", 30, "--p", 40, "--n-inf", 2, "--reps", 1]
    cases = [
        (["detect", missing, "--m", 2**20 + 1, *outs], "m = 1048577 needs 1048577 subset ids"),
        (["detect", missing, "--m", 500_000, "--shared-subsets", *outs],
         "m = 500000 needs 1250000 subset ids"),
        (["plot-data", missing, "--m", 2**20 + 1, *out], "m = 1048577 needs"),
        (["him", missing, "--alpha0", 2, *outs], "alpha0 must be in (0, 1)"),
        (["simulate", "--example", "1", *small, "--m", 2**20 + 1, *out], "m = 1048577 needs"),
        (["simulate", "--example", "1", *small, "--methods", "HIM,HIM", *out],
         "method 'HIM' is listed more than once"),
    ]
    for argv, fragment in cases:
        code, err = run_cli(argv)
        assert code == 2, (argv, err)
        assert fragment in err, (argv, err)
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "r.json").exists()


def test_simulate_null_runs_under_the_default_n_inf(tmp_path):
    out = tmp_path / "null.csv"
    code, err = run_cli(["simulate", "--example", "null", "--n", 20, "--p", 30, "--reps", 1,
                         "--methods", "HIM", "--out", out])
    assert code == 0, err
    header, rows = read_rows(out)
    assert [(r[0], r[header.index("reps")]) for r in rows] == [("HIM", "1")]


def test_too_small_working_sets_have_documented_exit_codes(tmp_path):
    rng = np.random.default_rng(14)
    X = rng.standard_normal((12, 6))
    y = rng.standard_normal(12)
    y[:2] += 30.0
    shrink = tmp_path / "shrink.csv"
    write_csv(shrink, y, X)
    four = tmp_path / "four.csv"
    write_csv(four, y[:4], X[:4])
    outs = ["--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    # (argv, exit code, message fragment)
    cases = [
        (["detect", four, *outs], 2,
         "n = 4 observations is below the workable minimum of 5 for k_sub = 0.5"),
        (["detect", shrink, "--ksub", 0.1, *outs], 2,
         "n = 12 observations is below the workable minimum of 20 for k_sub = 0.1"),
        (["plot-data", four, "--out", tmp_path / "p.csv"], 2, "workable minimum of 5"),
        # with c = 1 the l0 fallback strips two rows per quiet round
        (["detect", shrink, "--c", 1.0, "--l0", 2, "--m", 8, "--estimator", "sample", *outs], 4,
         "round 5: working set of 4 cannot support subsets of size 3"),
    ]
    for argv, want, fragment in cases:
        code, err = run_cli(argv)
        assert code == want, (argv, err)
        assert fragment in err, (argv, err)
        assert "Error" not in err and "Traceback" not in err, err


def test_degenerate_column_exits_3(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 5))
    X[:, 2] = 7.0
    y = rng.standard_normal(20)
    outs = ["--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    # predictor 3 is CSV column 4 after a leading response, column 3 before a trailing one
    for response_last, rcol, where in ((False, 1, "column 4"), (True, 6, "column 3")):
        csv = tmp_path / f"degen-{rcol}.csv"
        write_csv(csv, y, X, response_last=response_last)
        for argv in (
            ["detect", csv, "--m", 10, *outs],
            ["him", csv, *outs],
            ["plot-data", csv, "--m", 10, "--out", tmp_path / "p.csv"],
        ):
            code, err = run_cli(argv + ["--response-col", rcol])
            assert code == 3, argv
            assert f"predictor in CSV {where}; cannot standardize" in err, (argv, err)

    csv = tmp_path / "flat-y.csv"
    write_csv(csv, np.full(20, 2.0), X[:, :2], response_last=True)
    code, err = run_cli(["detect", csv, "--response-col", 3, *outs])
    assert code == 3
    assert "response in CSV column 3" in err


def test_csv_dialects_agree(tmp_path, small_csv):
    _, lab = small_csv
    y, X = lab.data.y, lab.data.X
    outs = lambda tag: ["--report", tmp_path / f"{tag}.json", "--flags", tmp_path / f"{tag}.csv"]

    semi = tmp_path / "semi.csv"
    write_csv(semi, y, X, delimiter=";")
    nohdr = tmp_path / "nohdr.csv"
    write_csv(nohdr, y, X, header=False)  # numeric first row, auto-detected as data
    byname = tmp_path / "byname.csv"
    write_csv(byname, y, X, response_last=True)
    bypos = tmp_path / "bypos.csv"
    write_csv(bypos, y, X, response_last=True)
    # a byte-order mark before a numeric first row must not turn it into a header
    plain = nohdr.read_bytes()
    bom = write_bytes(tmp_path, "bom.csv", b"\xef\xbb\xbf" + plain)
    bom_crlf = write_bytes(tmp_path, "bomcrlf.csv", b"\xef\xbb\xbf" + plain.replace(b"\n", b"\r\n"))
    trailing = write_bytes(tmp_path, "trailing.csv", plain + b"\n\n  \n")
    # line breaks that np.loadtxt does not split on, and a whitespace-only line,
    # are read as str.splitlines reads them
    *head, rest = plain.split(b"\n", 3)
    blank = write_bytes(tmp_path, "blank.csv", b"\n".join(head) + b"\n \t \n" + rest)
    cr = write_bytes(tmp_path, "cr.csv", plain.replace(b"\n", b"\r"))
    breaks = write_bytes(
        tmp_path, "breaks.csv", b"\xe2\x80\xa8".join(head) + b"\x0b" + rest.replace(b"\n", b"\xc2\x85", 1)
    )

    runs = [
        ("semi", semi, ";", "1"),
        ("nohdr", nohdr, ",", "1"),
        ("byname", byname, ",", "y"),
        ("bypos", bypos, ",", str(X.shape[1] + 1)),
        ("bom", bom, ",", "1"),
        ("bomcrlf", bom_crlf, ",", "1"),
        ("trailing", trailing, ",", "1"),
        ("blank", blank, ",", "1"),
        ("cr", cr, ",", "1"),
        ("breaks", breaks, ",", "1"),
    ]
    flag_sets = []
    for tag, path, delimiter, response in runs:
        d, _, _ = load_dataset(str(path), delimiter, "auto", response)
        assert d.y.tobytes() == y.tobytes() and d.X.tobytes() == X.tobytes(), tag
        argv = ["detect", path, "--delimiter", delimiter, "--response-col", response]
        code, _ = run_cli(argv + ["--m", 40, "--seed", 0] + outs(tag))
        assert code == 0
        flag_sets.append(flagged_indices(tmp_path / f"{tag}.csv"))
    assert all(f == flag_sets[0] for f in flag_sets[1:])
    assert flag_sets[0] == [1, 2, 3, 4, 5, 6]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_piped_input_is_parsed_like_a_file(tmp_path):
    text = b"y,x1\n1,2\n \n3,1_0\n5,6\n7,9\n"  # a blank line, and a 1_0 its batch re-reads
    want_d, want_digest, _ = load_dataset(str(write_bytes(tmp_path, "p.csv", text)), ",", "auto", "1")
    r, w = os.pipe()
    os.write(w, text)
    os.close(w)
    try:
        d, digest, _ = load_dataset(f"/dev/fd/{r}", ",", "auto", "1")
    finally:
        os.close(r)
    assert digest == want_digest
    assert d.y.tobytes() == want_d.y.tobytes() and d.X.tobytes() == want_d.X.tobytes()


# What a parse-agreement mutation inserts: Unicode and control spaces, line
# breaks that only str.splitlines splits on, a BOM, digit separators, foreign
# digits, a delimiter or line break (ragged rows) and non-finite words.
CSV_INSERTS = [
    " ", "\t", "\u00a0", "\u2003", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
    "\u2028", "\x0b", "\x0c", "\r", "\ufeff", "_", "1_0", "\u0663", "\uff17", "\u096a",
    "nan", "-inf", "1e999", ",", "\n", "e", "-", ".",
]


def mutated_csv(rng) -> str:
    """A small numeric CSV, maybe with a header, with one or two CSV_INSERTS or deletions."""
    rows, cols = int(rng.integers(1, 6)), int(rng.integers(2, 5))
    values = np.round(rng.standard_normal((rows, cols)) * 10.0, int(rng.integers(0, 4)))
    fmt = ("{!r}", "{:g}", "{:.2e}")[int(rng.integers(3))]
    lines = [",".join(fmt.format(float(v)) for v in row) for row in values]
    if rng.random() < 0.5:
        lines.insert(0, ",".join(f"x{j}" for j in range(cols)))
    text = "\n".join(lines) + "\n" * int(rng.integers(2))
    for _ in range(int(rng.integers(1, 3))):
        at = int(rng.integers(len(text) + 1))
        if rng.random() < 0.2:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + CSV_INSERTS[int(rng.integers(len(CSV_INSERTS)))] + text[at:]
    return text


def parse_outcome(parse):
    """(matrix shape and bytes, names, digest) of a parse, or the message of its CliError."""
    try:
        data, names, digest = parse()
    except cli.CliError as e:
        return e.message
    return data.shape, data.tobytes(), names, digest


@pytest.mark.parametrize(
    "batch_chars, block_bytes",
    # 8-character batches put a problem of each kind in another batch than the
    # next; 5-byte blocks split characters, CR LF pairs and the BOM
    [(cli._BATCH_CHARS, cli._BLOCK_BYTES), (8, 5)],
    ids=["default_batches", "tiny_batches"],
)
def test_parse_agrees_with_the_reference_parser(monkeypatch, batch_chars, block_bytes):
    monkeypatch.setattr(cli, "_BATCH_CHARS", batch_chars)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(27)
    parsed = 0
    for _ in range(3000):
        raw = mutated_csv(rng).encode("utf-8")
        if rng.random() < 0.05:  # a byte that is never valid UTF-8
            at = int(rng.integers(len(raw) + 1))
            raw = raw[:at] + b"\xff" + raw[at:]
        for mode in ("auto", "yes", "no"):
            got = parse_outcome(lambda: cli._parse(io.BytesIO(raw), "m.csv", ",", mode))
            assert got == parse_outcome(lambda: _parse_cells(raw, "m.csv", ",", mode)), (raw, mode)
            parsed += not isinstance(got, str)
    assert 900 <= parsed <= 8100  # enough mutants parse, and enough fail, to mean something


@pytest.mark.parametrize("delimiter", ["::", ", "])
@pytest.mark.parametrize(
    "batch_chars, block_bytes",
    [(cli._BATCH_CHARS, cli._BLOCK_BYTES), (8, 5)],
    ids=["default_batches", "tiny_batches"],
)
def test_parse_agrees_with_the_reference_parser_on_long_delimiters(
    monkeypatch, batch_chars, block_bytes, delimiter
):
    # np.loadtxt reads these batches through a one-character stand-in for the
    # delimiter; a lone piece of the delimiter must stay inside its cell
    monkeypatch.setattr(cli, "_BATCH_CHARS", batch_chars)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(29)
    parsed = 0
    for _ in range(2000):
        text = mutated_csv(rng).replace(",", delimiter)
        if rng.random() < 0.3:
            at = int(rng.integers(len(text) + 1))
            text = text[:at] + delimiter[int(rng.integers(len(delimiter)))] + text[at:]
        raw = text.encode("utf-8")
        for mode in ("auto", "yes", "no"):
            got = parse_outcome(lambda: cli._parse(io.BytesIO(raw), "m.csv", delimiter, mode))
            want = parse_outcome(lambda: _parse_cells(raw, "m.csv", delimiter, mode))
            assert got == want, (raw, mode)
            parsed += not isinstance(got, str)
    assert 600 <= parsed <= 5400
    # and the stand-in does the reading: no batch of a clean table is re-read cell by cell
    rows = [delimiter.join(f"{v!r}" for v in row) for row in rng.standard_normal((40, 5)).tolist()]
    monkeypatch.setattr(cli, "float", lambda cell: pytest.fail(f"cell {cell!r} re-read"), raising=False)
    data, _, _ = cli._parse(io.BytesIO("\n".join(rows).encode()), "m.csv", delimiter, "no")
    assert data.shape == (40, 5)


@pytest.mark.parametrize(
    "raw",
    [
        b"\xef\xbb\xbfy,x\xe2\x82\xac\r\n1,2\r\n3,4\r\n",  # BOM, a 3-byte character, CR LF
        b"y,x1\n1,\xe2\x82\xff\n3,4\n",  # a broken 3-byte character
        b"y,x1\n1,2\n3,4\xe2\x82",  # a character cut off by the end of the input
    ],
    ids=["bom_crlf", "broken_character", "cut_character"],
)
def test_parse_reads_alike_at_every_block_size(monkeypatch, raw):
    want = parse_outcome(lambda: _parse_cells(raw, "m.csv", ",", "auto"))
    for block_bytes in range(1, len(raw) + 1):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        assert parse_outcome(lambda: cli._parse(io.BytesIO(raw), "m.csv", ",", "auto")) == want


@pytest.fixture(scope="module")
def big_table():
    """A 400 x 1001 matrix and its CSV lines, about 8 MB of text."""
    data = np.random.default_rng(3).standard_normal((400, 1001))
    return data, [",".join(map(repr, row)) for row in data.tolist()]


@pytest.mark.parametrize("case", ["lf", "crlf", "cr", "1_0", "pipe", "pipe_1_0"])
def test_ingestion_memory_is_bounded(tmp_path, big_table, case):
    """Parsing holds about twice the matrix plus a batch of text, never the file."""
    data, rows = big_table[0].copy(), list(big_table[1])
    if case.endswith("1_0"):  # a cell only float() reads: its batch is read again cell by cell
        cells = rows[200].split(",")
        cells[5], data[200, 5] = "1_0", 10.0
        rows[200] = ",".join(cells)
    eol = {"crlf": "\r\n", "cr": "\r"}.get(case, "\n")
    raw = (eol.join(rows) + eol).encode()
    assert len(raw) > 7_500_000
    pipe = case.startswith("pipe")
    if pipe:
        if not os.path.isdir("/dev/fd"):
            pytest.skip("needs /dev/fd")
        r, w = os.pipe()

        def feed():
            view = memoryview(raw)
            while view:
                view = view[os.write(w, view) :]
            os.close(w)

        writer = threading.Thread(target=feed)
        path = f"/dev/fd/{r}"
    else:
        path = write_bytes(tmp_path, "big.csv", raw)
    tracemalloc.start()
    try:
        if pipe:
            writer.start()
        d, _, _ = load_dataset(str(path), ",", "auto", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if pipe:
            writer.join()
            os.close(r)
    assert d.X.tobytes() == data[:, 1:].tobytes()
    assert peak <= 3 * data.nbytes + 4_000_000, (peak, data.nbytes)


# Under FLAG_EQUAL_TRANSFORMS only detect's flagged set stays the same; under
# TRANSFORMS its flags.csv, and its report.json but for the input digest, do.
@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detect_outputs_keep_their_invariances(tmp_path, seed, shared):
    d = gen_scenario(ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=8.0, n=60, p=200, n_inf=6, seed=seed)).data

    def detect(tag, y, X):
        """(report.json without its input digest, flags.csv) of detect on a CSV of (y, X)."""
        path, report, flags = (tmp_path / f"{tag}{ext}" for ext in (".csv", ".json", ".flags.csv"))
        write_csv(path, y, X)
        argv = ["detect", path, "--m", 20, "--report", report, "--flags", flags]
        code, err = run_cli(argv + ["--shared-subsets"] * shared)
        assert code == 0, err
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return report.read_text().replace(digest, ""), flags.read_bytes()

    want_report, want_flags = detect("base", d.y, d.X)
    want = flagged_indices(tmp_path / "base.flags.csv")
    assert want
    for name, transform in TRANSFORMS.items():
        assert detect(name, *transform(d.y, d.X)) == (want_report, want_flags), name
    for name, transform in FLAG_EQUAL_TRANSFORMS.items():
        detect(name, *transform(d.y, d.X))
        assert flagged_indices(tmp_path / f"{name}.flags.csv") == want, name


def test_very_large_p(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((8, 100_000)).round(3)
    y = rng.standard_normal(8).round(3)
    path = tmp_path / "widest.csv"
    write_csv(path, y, X)
    d, _, _ = load_dataset(str(path), ",", "auto", "1")
    assert np.column_stack([d.y, d.X]).tobytes() == np.column_stack([y, X]).tobytes()
    code, err = run_cli(
        ["detect", path, "--m", 10, "--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    )
    assert code == 0, err
    assert "Traceback" not in err


def documented_mip_options():
    """The actions of _add_mip_opts that --help shows; the ignored --threads is hidden."""
    parser = argparse.ArgumentParser()
    _add_mip_opts(parser)
    return [a for a in parser._actions if a.dest != "help" and a.help != argparse.SUPPRESS]


def test_every_mip_option_is_a_config_field_and_echoed():
    dests = {a.dest for a in documented_mip_options()}
    fields = {f.name for f in dataclasses.fields(MipConfig)}
    echoed = set(MipConfig().echo())
    assert fields == echoed == dests


def test_readme_lists_exactly_the_mip_options():
    text = " ".join((REPO_ROOT / "README.md").read_text(encoding="utf-8").split())
    start = text.index("take one option per `MipConfig` field:")
    sentence = text[start : text.index(".", start)]
    named = re.findall(r"`(--[a-z0-9-]+)`", sentence)
    assert len(named) == len(set(named))
    assert set(named) == {s for a in documented_mip_options() for s in a.option_strings}


def test_readme_library_example_runs():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(code, "README.md (Library use)", "exec"), namespace)
    # the three contaminated responses are flagged, and the prints go through
    assert namespace["report"].flagged().tolist() == [0, 1, 2]
    assert printed.getvalue().startswith("[0 1 2]\n")

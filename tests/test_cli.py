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
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mipdetect import __version__
from mipdetect.cli import _add_mip_opts, _cell, build_parser, load_dataset, main
from mipdetect.him import him_detect
from mipdetect.mip import MipConfig, mip_detect
from mipdetect.robust_stats import Dataset, EstimatorMode, standardize
from mipdetect.simbench import ScenarioKind, ScenarioSpec, gen_scenario

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


def test_console_script_is_installed():
    # Run the declared entry point the way an installer's generated wrapper
    # does, in a fresh interpreter, so the check covers this checkout's
    # [project.scripts] target rather than whatever `mipdetect` is on PATH.
    module, func = _declared_console_script("mipdetect").split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"mipdetect {__version__}"


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
        ["him", csv, "--seed", 9, "--report", report_path, "--flags", flags_path]
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
    assert payload["manifest"]["seed"] == 9


def test_him_takes_only_the_options_it_reads(tmp_path, small_csv):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["him"]._actions if a.dest != "help"}
    assert dests == {
        "input", "delimiter", "header", "response_col",
        "alpha0", "estimator", "seed", "report", "flags",
    }

    csv, _ = small_csv
    outs = lambda tag: ["--report", tmp_path / f"{tag}.json", "--flags", tmp_path / f"{tag}.csv"]
    for option in ("--m", "--alpha"):  # --alpha is not taken as short for --alpha0
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


def test_plot_data_schema_and_flag_nesting(tmp_path):
    lab = gen_scenario(
        ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=8.0, n=60, p=200, n_inf=6, seed=0)
    )
    csv = tmp_path / "ex2.csv"
    write_csv(csv, lab.data.y, lab.data.X)
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


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--example", "1", "--mu-grid", "6", "--reps", 1, "--seed", 7,
            "--n", 40, "--p", 80, "--n-inf", 5, "--m", 30, "--methods", "MIP,HIM"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(args + ["--out", first])[0] == 0
    assert run_cli(args + ["--out", second])[0] == 0
    assert first.read_bytes() == second.read_bytes()
    header, rows = read_rows(first)
    assert header == ["method", "mu", "tpr_inf", "fpr_inf", "f1", "err", "tpr_vs", "fpr_vs", "reps"]
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
    _, rows = read_rows(out)
    assert [(r[0], r[-1]) for r in rows] == [("MIP", "0"), ("MaxOnly", "2")]


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
        (["him", ok, "--seed", -1, *outs], "seed must be an integer in [0, 2**64)"),
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
    text = b"y,x1\n1,2\n \n3,1_0\n5,6\n7,9\n"  # the blank line and 1_0 need the rescan
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


def test_ingestion_memory_is_bounded(tmp_path):
    """Parsing holds about the matrix plus a few blocks of text, not the file."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((400, 1001))
    path = tmp_path / "big.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in data.tolist()))
    assert path.stat().st_size > 7_500_000
    tracemalloc.start()
    try:
        d, _, _ = load_dataset(str(path), ",", "auto", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.X.tobytes() == data[:, 1:].tobytes()
    assert peak <= 3 * data.nbytes + 4_000_000, (peak, data.nbytes)


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

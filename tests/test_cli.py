"""Command-line interface: ingestion, output schemas, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mipdetect import __version__
from mipdetect.cli import _cell, main
from mipdetect.him import him_detect
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

    assert payload["schema_version"] == 1
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
    monkeypatch.delenv("MIP_THREADS", raising=False)
    csv, _ = small_csv
    blobs = []
    for label, extra in (
        ("t1", ["--threads", 1]),
        ("t1b", ["--threads", 1]),
        ("t2", ["--threads", 2]),
        ("t2b", ["--threads", 2]),
    ):
        report_path = tmp_path / f"{label}.json"
        flags_path = tmp_path / f"{label}.csv"
        code, _ = run_cli(
            ["detect", csv, "--m", 40, "--seed", 0,
             "--report", report_path, "--flags", flags_path] + extra
        )
        assert code == 0
        blobs.append((report_path.read_bytes(), flags_path.read_bytes()))
    assert all(b == blobs[0] for b in blobs[1:])

    monkeypatch.setenv("MIP_THREADS", "2")
    report_path = tmp_path / "env.json"
    flags_path = tmp_path / "env.csv"
    code, _ = run_cli(
        ["detect", csv, "--m", 40, "--seed", 0,
         "--report", report_path, "--flags", flags_path]
    )
    assert code == 0
    assert (report_path.read_bytes(), flags_path.read_bytes()) == blobs[0]


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
    ref = him_detect(Z, 0.05)
    header, rows = read_rows(flags_path)
    assert header == ["index", "him_stat", "p_value", "influential"]
    for i, r in enumerate(rows):
        assert float(r[1]) == ref.records[i].statistic
        assert float(r[2]) == ref.records[i].p_value
        assert (r[3] == "true") == ref.records[i].influential

    payload = json.loads(report_path.read_text())
    assert payload["method"] == "him"
    assert payload["manifest"]["seed"] == 9


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

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("y,x1,x2\n1,2,3\n4,5\n6,7,8\n9,9,9\n")
    code, err = run_cli(
        ["detect", ragged, "--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    )
    assert code == 2
    assert "row 3: expected 3 columns, found 2" in err


def test_unusable_inputs_exit_2(tmp_path, monkeypatch):
    monkeypatch.delenv("MIP_THREADS", raising=False)
    ok = tmp_path / "ok.csv"
    ok.write_text("y,x1,x2\n1,2,3\n4,5,6\n7,8,9\n1,2,1\n")
    outs = ["--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]

    cases = [
        (["detect", tmp_path / "missing.csv", *outs], "cannot read"),
        (["detect", write_text(tmp_path, "one.csv", "y\n1\n2\n3\n4\n"), *outs],
         "need a response column and at least one predictor"),
        (["detect", write_text(tmp_path, "short.csv", "y,x1\n1,2\n3,4\n5,6\n"), *outs],
         "need at least 4 observations"),
        (["detect", write_text(tmp_path, "hdr.csv", "y,x1\n"), *outs],
         "header but no data rows"),
        (["detect", write_text(tmp_path, "empty.csv", "\n\n"), *outs], "no rows"),
        (["detect", write_bytes(tmp_path, "cell.csv", b"y,x1,x2\n1,2,3\n4,\xff5,6\n7,8,9\n1,2,1\n"), *outs],
         "invalid UTF-8 at byte 17"),
        (["detect", write_bytes(tmp_path, "head.csv", b"y,x\xe91,x2\n1,2,3\n4,5,6\n7,8,9\n1,2,1\n"), *outs],
         "invalid UTF-8 at byte 4"),
        (["detect", ok, "--response-col", "z", *outs], "neither a header name nor a position"),
        (["detect", ok, "--response-col", "9", *outs], "out of range 1..3"),
        (["detect", ok, "--threads", 0, *outs], "thread count must be at least 1"),
        (["detect", ok, "--alpha", 1.5, *outs], "alpha and alpha0"),
        (["simulate", "--example", "1", "--methods", "MIP,Bogus",
          "--out", tmp_path / "s.csv"], "unknown method 'Bogus'"),
    ]
    for argv, fragment in cases:
        code, err = run_cli(argv)
        assert code == 2, argv
        assert fragment in err, (argv, err)

    monkeypatch.setenv("MIP_THREADS", "lots")
    code, err = run_cli(["detect", ok, *outs])
    assert code == 2
    assert "MIP_THREADS" in err


def test_degenerate_column_exits_3(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 5))
    X[:, 2] = 7.0
    csv = tmp_path / "degen.csv"
    write_csv(csv, rng.standard_normal(20), X)
    outs = ["--report", tmp_path / "r.json", "--flags", tmp_path / "f.csv"]
    code, err = run_cli(["detect", csv, "--m", 10, *outs])
    assert code == 3
    assert "cannot standardize" in err
    code, _ = run_cli(["him", csv, *outs])
    assert code == 3


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

    runs = [
        ("semi", ["detect", semi, "--delimiter", ";"]),
        ("nohdr", ["detect", nohdr]),
        ("byname", ["detect", byname, "--response-col", "y"]),
        ("bypos", ["detect", bypos, "--response-col", X.shape[1] + 1]),
    ]
    flag_sets = []
    for tag, argv in runs:
        code, _ = run_cli(argv + ["--m", 40, "--seed", 0] + outs(tag))
        assert code == 0
        flag_sets.append(flagged_indices(tmp_path / f"{tag}.csv"))
    assert all(f == flag_sets[0] for f in flag_sets[1:])
    assert flag_sets[0] == [1, 2, 3, 4, 5, 6]

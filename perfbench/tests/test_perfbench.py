"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import pytest

import layers
import run
import spans


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0, "notes": {}}


def test_self_time_subtracts_the_union_of_child_spans():
    recs = [
        _span("op", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a, as spans from two threads can
        _span("c", 2.0, 3.0, parent=1),
        _span("d", 9.5, 11.0, parent=0),  # runs past its parent: only 0.5 s is covered
    ]
    assert spans.self_times(recs) == pytest.approx([10 - 5 - 0.5, 2.0, 3.0, 1.0, 1.5])


def test_tracer_nests_spans_and_marks_exceptions(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", lambda: 1)
    failing = tracer.wrap("failing", boom)
    with tracer.span("outer"):
        inner()
        with pytest.raises(ValueError):
            failing()
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("failing", 0)]
    assert spans.self_times(tracer.spans) == [5.0 - 1.0 - 1.0, 1.0, 1.0]
    assert [bool(s["notes"].get("raised")) for s in tracer.spans] == [False, False, True]


def test_op_metrics_splits_startup_layers_and_unattributed_time():
    recs = [
        _span("op", 0.0, 1.0),
        _span("cli.main", 0.2, 0.95, parent=0),
        _span("cli.load_dataset", 0.21, 0.31, parent=1),
        _span("mip.mip_detect", 0.32, 0.92, parent=1),
        _span("subsample.min_max_sweep", 0.33, 0.83, parent=3),
        _span("probe.draw_subsets", 1.1, 1.3),
    ]
    recs[2]["notes"]["bytes"] = 2_000_000
    m = layers.op_metrics(recs, subprocess_op=True)
    assert m["op_wall_s"] == pytest.approx(1.0)
    assert m["cli.startup_s"] == pytest.approx(0.25)
    assert m["cli.load_dataset.mb_per_s"] == pytest.approx(20.0)
    assert m["subsample.min_max_sweep.s"] == pytest.approx(0.5)
    assert m["subsample.draw_subsets.s"] == pytest.approx(0.2)
    # cli.main self (0.75 - 0.1 - 0.6) plus mip_detect self (0.6 - 0.5)
    assert m["unattributed_s"] == pytest.approx(0.15)


@pytest.mark.parametrize(
    "n_ops, q", [(1, None), (19, None), (20, 50), (25, 60), (100, 90), (1000, 99), (5000, 99)]
)
def test_tail_percentile_keeps_ten_ops_beyond_it(n_ops, q):
    assert run.tail_percentile(n_ops) == q
    if q is not None:
        walls = list(range(n_ops))
        beyond = [w for w in walls if w > run.nearest_rank(walls, q)]
        assert len(beyond) >= 10


@pytest.fixture
def detect_outputs(tmp_path):
    import mipdetect.cli

    wl = run.CliDetect("t", 1)
    wl.dir = wl.out = tmp_path
    csv_path = tmp_path / "in.csv"
    run.write_csv(csv_path, run.generate("example2", 0, mu=8.0, n=40, p=60, n_inf=4))
    report, flags = tmp_path / "report.json", tmp_path / "flags.csv"
    code = mipdetect.cli.main(["detect", str(csv_path), "--report", str(report),
                               "--flags", str(flags), "--m", "20", "--threads", "1"])
    assert code == 0
    entry = wl.record({"sha256": run.sha256_file(csv_path)})
    return report, flags, entry


def test_output_check_accepts_the_recorded_outputs(detect_outputs):
    report, flags, entry = detect_outputs
    assert run.check_detect(report, flags, entry) == (None, [])


def test_output_check_rejects_a_tampered_verdict_in_flags_csv(detect_outputs):
    report, flags, entry = detect_outputs
    lines = flags.read_text().splitlines()
    last = lines[-1].rsplit(",", 1)
    lines[-1] = last[0] + "," + ("false" if last[1] == "true" else "true")
    flags.write_text("\n".join(lines) + "\n")
    failure, _ = run.check_detect(report, flags, entry)
    assert failure is not None and "flags.csv" in failure


def test_output_check_reports_byte_drift_without_failing(detect_outputs):
    report, flags, entry = detect_outputs
    flags.write_text(flags.read_text() + "\n")  # same verdict, other bytes
    failure, drift = run.check_detect(report, flags, entry)
    assert failure is None
    assert len(drift) == 1 and drift[0].startswith("flags.csv sha256")

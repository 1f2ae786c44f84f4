"""mipdetect benchmark: four closed-loop workloads, output checks, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload detect-desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

One client runs one op at a time; the next op starts when the previous one
has finished and its output has been checked. Workloads:

- detect-desk: ``python -m mipdetect.cli detect`` per op on Example 2
  (mu=8) CSVs at n=100, p=1000. Start-up, CSV parse and private sweeps.
- detect-wide: the same command on Example 1 (masking, mu=6, 20
  influential) CSVs at n=200, p=5000, about 20 MB each. CSV parse and the
  indicator GEMM of the sweep.
- detect-shared: in-process ``mip_detect(data, MipConfig(shared_subsets=True))``
  on Example 2 (mu=8, 30 influential) at n=1000, p=2000. Pooled draws and
  GEMM; no process start, no CSV.
- simulate-fit: ``python -m mipdetect.cli simulate --example 2 --mu-grid 8
  --methods MIP,HIM,Full --with-fit --reps 1 --seed 0`` per op: rep 0 of
  the test suite's swamping fixture, dominated by the lasso refit.

Each workload has a small fixed input set, generated by ``gen_scenario``
at scenario seeds 0, 1, ... and pinned by SHA-256 in reference.json; every
run visits all of it, and ``--seed`` sets the order. A run that drew its
inputs afresh would mix input-dependent cost into the run-to-run spread:
shared-pool detect costs differ by 15% between inputs, and one simulate
rep takes 20 to 60 s depending on its seed, so simulate-fit has one input,
rep 0 at seed 0.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of paired traced and
untraced ops (see layers.py). Every op's output is compared with
reference.json; digest drift of the byte-stable outputs is reported on
its own line without failing the op.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 3
OP_TIMEOUT_S = 150
# relative tolerance on the MIP row's lasso coefficient error
FIT_ERR_RTOL = 1e-3

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_cpu_s": "s",
              "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The benchmark cannot run as specified: missing program, reference or pinned input."""


def now() -> float:
    return time.perf_counter()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    input_id: int
    wall: float
    rss_mb: float
    cpu_s: float
    failure: str | None = None
    drift: list = field(default_factory=list)
    spans: list | None = None  # traced ops only, indices local to the op
    fit_err: float | None = None


def _child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_process(args: list, stderr_path: Path):
    """Run ``python ARGS`` from the repository root and wait for it.

    Returns (start, end, exit code, peak RSS in MB, CPU seconds of all its
    threads). The child is killed after OP_TIMEOUT_S.
    """
    with open(stderr_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / 1024.0, cpu_seconds(usage)


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _stderr_tail(path: Path) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return text[-1] if text else ""


def merge_child_spans(tracer, op_id, start, end, child_spans) -> list:
    """Add an op's root span and its child process spans to ``tracer``.

    The root runs from process launch to exit, less the probe, which runs
    after ``cli.main`` has returned. Returns the op's spans with parents
    re-indexed from 0.
    """
    probe_s = sum(s["end"] - s["start"] for s in child_spans if s["name"] == "probe.draw_subsets")
    first = len(tracer.spans)
    tracer.spans.append({"name": "op", "start": start, "end": end - probe_s,
                         "parent": None, "op": op_id, "notes": {}})
    for rec in child_spans:
        rec = dict(rec, op=op_id)
        if rec["parent"] is not None:
            rec["parent"] += first + 1
        elif rec["name"] != "probe.draw_subsets":
            rec["parent"] = first
        tracer.spans.append(rec)
    return local_spans(tracer.spans, first)


def local_spans(spans, first) -> list:
    return [dict(s, parent=None if s["parent"] is None else s["parent"] - first)
            for s in spans[first:]]


class CliWorkload:
    """Workloads whose op is one mipdetect CLI process."""

    subprocess_op = True

    def __init__(self, name: str):
        self.name = name
        self.dir = WORK / name
        self.out = self.dir / "out"

    def cli_args(self, inp) -> list:
        raise NotImplementedError

    def check(self, entry) -> tuple:
        raise NotImplementedError

    def warmup(self, inp) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        run_process(["-m", "mipdetect.cli", *self.warmup_args(inp)], self.dir / "stderr.txt")

    def warmup_args(self, inp) -> list:
        return self.cli_args(inp)

    def op(self, inp, entry, tracer=None, op_id=0) -> Op:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        err_path = self.dir / "stderr.txt"
        spans_path = self.dir / "spans.json"
        if tracer is None:
            args = ["-m", "mipdetect.cli", *self.cli_args(inp)]
        else:
            spans_path.unlink(missing_ok=True)
            args = [str(BENCH / "launch.py"), str(spans_path), *self.cli_args(inp)]
        start, end, code, rss, cpu = run_process(args, err_path)
        op = Op(inp["id"], end - start, rss, cpu)
        if tracer is not None and spans_path.exists():
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            op.spans = merge_child_spans(tracer, op_id, start, end, child)
            op.wall = op.spans[0]["end"] - op.spans[0]["start"]
        if code != 0:
            op.failure = f"exit code {code}: {_stderr_tail(err_path)}"
        elif entry is not None:
            op.failure, op.drift, op.fit_err = self.check(entry)
        return op


def generate(kind: str, seed: int, **sizes):
    """The dataset of one scenario at one scenario seed."""
    from mipdetect.simbench import ScenarioKind, ScenarioSpec, gen_scenario

    return gen_scenario(ScenarioSpec(kind=ScenarioKind(kind), seed=seed, **sizes)).data


class CliDetect(CliWorkload):
    def __init__(self, name, n_inputs, **spec):
        super().__init__(name)
        self.spec, self.n_inputs = spec, n_inputs

    def prepare(self, order, ref) -> list:
        """Generate and write the inputs in ``order``; fail on a pinned hash mismatch."""
        self.dir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for i in order:
            path = self.dir / f"input-{i}.csv"
            write_csv(path, generate(seed=i, **self.spec))
            digest = sha256_file(path)
            if ref is not None:
                pinned = ref["inputs"][i]["input_sha256"]
                if digest != pinned:
                    raise SetupError(f"{self.name} input {i}: sha256 {digest} != pinned {pinned}")
            inputs.append({"id": i, "path": path, "sha256": digest})
        return inputs

    def cli_args(self, inp) -> list:
        return ["detect", str(inp["path"]),
                "--report", str(self.out / "report.json"), "--flags", str(self.out / "flags.csv")]

    def check(self, entry):
        return check_detect(self.out / "report.json", self.out / "flags.csv", entry) + (None,)

    def record(self, inp) -> dict:
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        return {"input_sha256": inp["sha256"],
                "flagged": flags_csv_verdict(self.out / "flags.csv"),
                "clean_set": report["clean_set"],
                "report_sha256": sha256_file(self.out / "report.json"),
                "flags_sha256": sha256_file(self.out / "flags.csv")}


def write_csv(path, data) -> None:
    """Response first, then predictors; repr() is the shortest round-trip float text."""
    import numpy as np

    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in np.column_stack([data.y, data.X]).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def flags_csv_verdict(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [int(r["index"]) for r in csv.DictReader(fh) if r["influential"] == "true"]


def check_detect(report_path, flags_path, entry):
    """(failure or None, digest drift notes) of one detect op against its reference."""
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        flagged = flags_csv_verdict(flags_path)
        clean = report["clean_set"]
        in_report = [o["index"] for o in report["observations"] if o["influential"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {type(e).__name__}: {e}", []
    if flagged != entry["flagged"]:
        return f"flags.csv flags {flagged}, reference {entry['flagged']}", []
    if in_report != flagged:
        return "report.json and flags.csv disagree on the flagged set", []
    if clean != entry["clean_set"]:
        return "clean set differs from the reference", []
    drift = [f"{Path(p).name} sha256 {sha256_file(p)} != reference {entry[k]}"
             for p, k in ((report_path, "report_sha256"), (flags_path, "flags_sha256"))
             if sha256_file(p) != entry[k]]
    return None, drift


class SimulateFit(CliWorkload):
    ARGS = ["simulate", "--example", "2", "--mu-grid", "8", "--reps", "1", "--seed", "0"]
    DETECTION_COLUMNS = ("method", "mu", "tpr_inf", "fpr_inf", "f1", "reps")
    n_inputs = 1

    def prepare(self, order, ref) -> list:
        """Pin rep 0's dataset, built as ``cmd_simulate`` and ``run_experiment`` build it."""
        from dataclasses import replace

        import numpy as np
        from mipdetect.cli import build_parser
        from mipdetect.simbench import ScenarioKind, ScenarioSpec, _rep_seeds, gen_scenario

        self.dir.mkdir(parents=True, exist_ok=True)
        args = build_parser().parse_args(self.cli_args(None))
        (mu,) = args.mu_grid
        spec = ScenarioSpec(kind=ScenarioKind.EXAMPLE2, mu=float(mu), n=args.n, p=args.p,
                            n_inf=args.n_inf, seed=args.seed)
        d = gen_scenario(replace(spec, seed=_rep_seeds(spec.seed, 0)[0])).data
        digest = hashlib.sha256(np.column_stack([d.y, d.X]).tobytes()).hexdigest()
        if ref is not None and digest != ref["inputs"][0]["input_sha256"]:
            raise SetupError(f"{self.name}: rep 0 input sha256 {digest} != pinned "
                             f"{ref['inputs'][0]['input_sha256']}")
        return [{"id": 0, "sha256": digest}]

    def cli_args(self, inp) -> list:
        return [*self.ARGS, "--methods", "MIP,HIM,Full", "--with-fit",
                "--out", str(self.out / "results.csv")]

    def warmup_args(self, inp) -> list:
        # imports and the detectors without the 20 s refit
        return [*self.ARGS, "--methods", "MIP,HIM", "--out", str(self.out / "warmup.csv")]

    def _read(self):
        with open(self.out / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        detection = [[r[c] for c in self.DETECTION_COLUMNS] for r in rows]
        fit_err = float(next(r["err"] for r in rows if r["method"] == "MIP"))
        return detection, fit_err

    def check(self, entry):
        try:
            detection, fit_err = self._read()
        except (OSError, ValueError, KeyError, StopIteration) as e:
            return f"unreadable results.csv: {type(e).__name__}: {e}", [], None
        if detection != entry["detection"]:
            return "detection columns of results.csv differ from the reference", [], fit_err
        if not abs(fit_err - entry["fit_err"]) <= FIT_ERR_RTOL * entry["fit_err"]:
            return f"fit_err {fit_err!r} differs from reference {entry['fit_err']!r}", [], fit_err
        digest = sha256_file(self.out / "results.csv")
        drift = [] if digest == entry["results_sha256"] else [
            f"results.csv sha256 {digest} != reference {entry['results_sha256']}"]
        return None, drift, fit_err

    def record(self, inp) -> dict:
        detection, fit_err = self._read()
        return {"input_sha256": inp["sha256"], "detection": detection, "fit_err": fit_err,
                "results_sha256": sha256_file(self.out / "results.csv")}


class SharedDetect:
    """In-process library calls on the shared subset pool."""

    subprocess_op = False

    def __init__(self, name, n_inputs, **spec):
        self.name, self.spec, self.n_inputs = name, spec, n_inputs
        self.dir = WORK / name

    def prepare(self, order, ref) -> list:
        import numpy as np

        inputs = []
        for i in order:
            d = generate(seed=i, **self.spec)
            digest = hashlib.sha256(np.column_stack([d.y, d.X]).tobytes()).hexdigest()
            if ref is not None and digest != ref["inputs"][i]["input_sha256"]:
                raise SetupError(f"{self.name} input {i}: sha256 {digest} != pinned "
                                 f"{ref['inputs'][i]['input_sha256']}")
            inputs.append({"id": i, "data": d, "sha256": digest})
        return inputs

    def _detect(self, inp):
        import mipdetect.mip as mip

        return mip.mip_detect(inp["data"], mip.MipConfig(shared_subsets=True))

    def warmup(self, inp) -> None:
        # The imports a CLI op's warm-up pays, timed in a fresh process:
        # this process imported mipdetect before set-up began.
        self.dir.mkdir(parents=True, exist_ok=True)
        err_path = self.dir / "stderr.txt"
        code = run_process(["-c", "import mipdetect"], err_path)[2]
        if code != 0:
            raise SetupError(f"{self.name}: import mipdetect exited {code}: "
                             f"{_stderr_tail(err_path)}")
        self._detect(inp)

    def op(self, inp, entry, tracer=None, op_id=0) -> Op:
        from layers import SweepProbe

        probe = SweepProbe()
        if tracer is not None:
            tracer.op_id = op_id
            tracer.install(probe.targets())
        first = len(tracer.spans) if tracer is not None else 0
        cpu0 = cpu_seconds(resource.getrusage(resource.RUSAGE_SELF))
        start = now()
        report = failure = None
        try:
            if tracer is None:
                report = self._detect(inp)
            else:
                with tracer.span("op"):
                    report = self._detect(inp)
        except Exception as e:  # a failed op is counted, not fatal
            failure = f"{type(e).__name__}: {e}"
        finally:
            wall = now() - start
            if tracer is not None:
                tracer.uninstall()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        op = Op(inp["id"], wall, usage.ru_maxrss / 1024.0, cpu_seconds(usage) - cpu0)
        if tracer is not None:
            probe.run(tracer)
            op.spans = local_spans(tracer.spans, first)
            op.wall = op.spans[0]["end"] - op.spans[0]["start"]
        if failure is None:
            failure, op.drift = check_report(report, entry)
        op.failure = failure
        return op

    def record(self, inp, report) -> dict:
        return {"input_sha256": inp["sha256"], **verdict(report)}


def verdict(report) -> dict:
    """1-based flagged indices and clean set, and a digest of the per-row values."""
    import numpy as np

    def num(v):
        return math.nan if v is None else v

    values = np.array([[num(r.t_min), num(r.t_max), num(r.checking_stat), num(r.p_value)]
                       for r in report.records])
    return {"flagged": [int(i) + 1 for i in report.flagged()],
            "clean_set": [int(i) + 1 for i in report.clean_set],
            "values_sha256": hashlib.sha256(values.tobytes()).hexdigest()}


def check_report(report, entry):
    got = verdict(report)
    if got["flagged"] != entry["flagged"]:
        return f"flagged {got['flagged']}, reference {entry['flagged']}", []
    if got["clean_set"] != entry["clean_set"]:
        return "clean set differs from the reference", []
    if got["values_sha256"] != entry["values_sha256"]:
        return None, [f"report values sha256 {got['values_sha256']} != reference "
                      f"{entry['values_sha256']}"]
    return None, []


WORKLOADS = {
    "detect-desk": CliDetect("detect-desk", 4, kind="example2", mu=8.0, n=100, p=1000, n_inf=10),
    "detect-wide": CliDetect("detect-wide", 2, kind="example1", mu=6.0, n=200, p=5000, n_inf=20),
    "detect-shared": SharedDetect("detect-shared", 2, kind="example2", mu=8.0, n=1000, p=2000,
                                  n_inf=30),
    "simulate-fit": SimulateFit("simulate-fit"),
}


def input_order(wl, seed: int) -> list:
    import numpy as np

    return [int(i) for i in np.random.default_rng(seed).permutation(wl.n_inputs)]


# ---------------------------------------------------------------------------
# run record and summaries
# ---------------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # the CLI's default: MIP_THREADS, else every core
        "cli_threads": int(os.environ.get("MIP_THREADS") or os.cpu_count() or 1),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def tail_percentile(n_ops: int):
    """Highest whole percentile from p50 up with at least ten ops above it, or None."""
    for q in range(99, 49, -1):
        if n_ops - math.ceil(q / 100 * n_ops) >= 10:
            return q
    return None


def nearest_rank(values, q: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def result_line(ops, metrics: dict, units: dict) -> dict:
    failed = sum(op.failure is not None for op in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def report_ops(name, ops) -> None:
    seen = set()
    for op in ops:
        if op.failure is not None:
            print(f"{name} op failed on input {op.input_id}: {op.failure}")
        for note in op.drift:
            if (op.input_id, note) not in seen:
                seen.add((op.input_id, note))
                print(f"{name} digest drift on input {op.input_id}: {note}")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def load_reference(name):
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    except (OSError, ValueError, KeyError) as e:
        raise SetupError(f"no reference for {name} in {REFERENCE}: {e}") from e


def timed_run(wl, seed: int, seconds: float) -> dict:
    ref = load_reference(wl.name)
    order = input_order(wl, seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        inputs = wl.prepare(order, ref)
        wl.warmup(inputs[0])
        setups.append(now() - t0)

    ops, passes = [], []
    start = now()
    while not passes or now() - start < seconds:
        t0 = now()
        for inp in inputs:
            ops.append(wl.op(inp, ref["inputs"][inp["id"]]))
        passes.append(now() - t0)
    timed_s = now() - start

    walls = [op.wall for op in ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes),
        "op_p50_s": statistics.median(walls),
        "op_cpu_s": statistics.median(op.cpu_s for op in ops),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
    }
    report_ops(wl.name, ops)
    for k, v in metrics.items():
        print(f"{wl.name} {k} = {v:.6g} {END_TO_END[k]}")
    q = tail_percentile(len(ops))
    print(f"{wl.name} op_tail_s = " + (f"{nearest_rank(walls, q):.6g} s (p{q} of {len(ops)} ops)"
                                       if q else f"n/a ({len(ops)} ops; p50 needs 20)"))
    failed = sum(op.failure is not None for op in ops)
    print(f"{wl.name} fail_frac = {failed / len(ops):.6g} ({failed}/{len(ops)} ops)")
    fit = [op.fit_err for op in ops if op.fit_err is not None]
    if fit:
        print(f"{wl.name} fit_err = {statistics.median(fit)!r} (MIP row err)")
    print(f"{wl.name} timed phase = {timed_s:.6g} s, {len(passes)} passes over inputs {order}")
    save(wl.name, seed, 0, {"metrics": metrics, "setups": setups, "passes": passes,
                            "ops": [vars(op) for op in ops]})
    return result_line(ops, metrics, END_TO_END)


def traced_run(wl, seed: int, seconds: float) -> dict:
    """Paired untraced and traced ops on the same input, alternating which goes first."""
    import layers
    from spans import Tracer

    ref = load_reference(wl.name)
    inputs = wl.prepare(input_order(wl, seed), ref)
    wl.warmup(inputs[0])
    tracer = Tracer()
    ops, per_op, overheads = [], [], []
    start = now()
    while not overheads or now() - start < seconds:
        inp = inputs[len(overheads) % len(inputs)]
        entry = ref["inputs"][inp["id"]]
        order = (False, True) if len(overheads) % 2 == 0 else (True, False)
        pair = {}
        for traced in order:
            op = wl.op(inp, entry, tracer if traced else None, op_id=len(ops))
            ops.append(op)
            pair[traced] = op
        if pair[True].spans:
            per_op.append(layers.op_metrics(pair[True].spans, wl.subprocess_op))
        overheads.append(pair[True].wall - pair[False].wall)

    report_ops(wl.name, ops)
    if not per_op:
        raise SetupError(f"{wl.name}: no traced op produced spans")
    metrics = layers.median_metrics(per_op, overheads)
    for k, v in metrics.items():
        print(f"{wl.name} {k} = {v:.6g} {layers.PER_LAYER[k]}")
    wall = statistics.median(m["op_wall_s"] for m in per_op)
    print(f"{wl.name} traced op wall = {wall:.6g} s over {len(per_op)} traced ops; "
          f"unattributed share {metrics['unattributed_s'] / wall:.3%}")
    save(wl.name, seed, 1, {
        "metrics": metrics, "per_op": per_op, "overheads": overheads,
        "calls": Counter(s["name"] for s in tracer.spans),
        "exceptions": Counter(s["name"] for s in tracer.spans if s["notes"].get("raised")),
        "spans": tracer.spans})
    return result_line(ops, metrics, layers.PER_LAYER)


def save(name, seed, trace, payload) -> None:
    """Write a run's record, ops and (traced) spans under perfbench/_work."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"run-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"run_record": run_record(), **payload}, default=str),
                    encoding="utf-8")


def record_references() -> None:
    """Run every input once and store its hash and outputs as the reference."""
    ref = {}
    for name, wl in WORKLOADS.items():
        entries = []
        for i in range(wl.n_inputs):
            inp = wl.prepare([i], None)[0]
            if isinstance(wl, SharedDetect):
                entries.append(wl.record(inp, wl._detect(inp)))
            else:
                failure = wl.op(inp, None).failure
                if failure is not None:
                    raise SetupError(f"{name} input {i}: {failure}")
                entries.append(wl.record(inp))
            print(f"recorded {name} input {i}", flush=True)
        ref[name] = {"inputs": entries}
    # one line per input keeps diffs of re-recorded references readable
    REFERENCE.write_text("{\n" + ",\n".join(
        f' "{name}": {{"inputs": [\n  ' + ",\n  ".join(json.dumps(e) for e in v["inputs"]) + "\n ]}"
        for name, v in ref.items()) + "\n}\n", encoding="utf-8")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; prints every metric and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args(argv)

    if not (SRC / "mipdetect" / "cli.py").is_file():
        print(f"error: {SRC / 'mipdetect'} not found; run from a mipdetect checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all" and not args.record:
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    import mipdetect

    if Path(mipdetect.__file__).resolve().parent != SRC / "mipdetect":
        print(f"error: imported mipdetect from {mipdetect.__file__}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record_references()
            return 0
        print("run-record " + json.dumps(run_record()), flush=True)
        wl = WORKLOADS[args.workload]
        run = traced_run if args.trace else timed_run
        result = run(wl, args.seed, args.seconds)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Which mipdetect functions the traced run wraps, and the per-layer metrics.

Wrapping happens on module attributes, at the names the callers look
up: ``mip_detect`` reaches ``min_max_sweep`` through ``mipdetect.mip``,
so that is the attribute replaced. The program itself is not changed.
"""

from __future__ import annotations

import math
import os
import statistics

import numpy as np

from spans import self_times


def _sweep_note(args, kwargs, result):
    Z, active, m = args[0], args[1], args[2]
    n_u = int(np.unique(np.asarray(active)).size)
    targets = kwargs.get("targets")
    nt = n_u if targets is None else int(np.asarray(targets).size)
    p = int(Z.Z.shape[1])
    if kwargs.get("shared"):
        from mipdetect.subsample import _SHARED_OVERDRAW

        gemm = 2.0 * math.ceil(_SHARED_OVERDRAW * m) * n_u * p
    else:
        gemm = 2.0 * nt * m * n_u * p
    return {"targets": nt, "gflop": (gemm + 3.0 * nt * m * p) / 1e9}


def _load_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _clean_set_note(args, kwargs, result):
    return {"rounds": int(result.rounds_used)}


# (module, attribute, span name, note)
TARGETS = [
    ("mipdetect.cli", "load_dataset", "cli.load_dataset", _load_note),
    ("mipdetect.cli", "write_detect_outputs", "cli.write_outputs", None),
    ("mipdetect.cli", "mip_detect", "mip.mip_detect", None),
    ("mipdetect.cli", "run_experiment", "simbench.run_experiment", None),
    ("mipdetect.simbench", "mip_detect", "mip.mip_detect", None),
    ("mipdetect.simbench", "him_detect", "him.him_detect", None),
    ("mipdetect.simbench", "lasso_fit", "simbench.lasso_fit", None),
    ("mipdetect.simbench", "gen_scenario", "simbench.gen_scenario", None),
    ("mipdetect.simbench", "standardize", "robust_stats.standardize", None),
    ("mipdetect.mip", "mip_detect", "mip.mip_detect", None),
    ("mipdetect.mip", "standardize", "robust_stats.standardize", None),
    ("mipdetect.mip", "min_max_clean_set", "mip.min_max_clean_set", _clean_set_note),
    ("mipdetect.mip", "checking_step", "mip.checking_step", None),
    ("mipdetect.mip", "min_max_sweep", "subsample.min_max_sweep", _sweep_note),
    ("mipdetect.mip", "chi2_1_sf_vec", "chi2_fdr.chi2_1_sf_vec", None),
    ("mipdetect.mip", "bh_select", "chi2_fdr.bh_select", None),
    ("mipdetect.subsample", "draw_subsets", "subsample.draw_subsets", None),
]

# Spans that only contain layers; their self time is unattributed.
CONTAINERS = {"cli.main", "mip.mip_detect", "simbench.run_experiment"}

PROBE = "probe.draw_subsets"
ROOT = "op"

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.load_dataset.s": "s",
    "cli.load_dataset.mb_per_s": "MB/s",
    "cli.write_outputs.s": "s",
    "robust_stats.standardize.s": "s",
    "subsample.min_max_sweep.s": "s",
    "subsample.min_max_sweep.calls": "count",
    "subsample.targets": "count",
    "subsample.draw_subsets.s": "s",
    "subsample.kernel_gflop": "GFLOP",
    "chi2_fdr.s": "s",
    "mip.min_max_clean_set.self_s": "s",
    "mip.checking_step.s": "s",
    "mip.rounds": "count",
    "him.him_detect.s": "s",
    "simbench.lasso_fit.s": "s",
    "simbench.lasso_fit.calls": "count",
    "simbench.gen_scenario.s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
    "trace.exceptions": "count",
}


class SweepProbe:
    """Remembers the first private sweep of an op so its draws can be timed afterwards.

    The probe calls ``draw_subsets`` for every target of that sweep's
    working set with the sweep's own (seed, round, m, n_sub), which are the
    keys the private sweep draws from. Shared-pool sweeps call
    ``draw_subsets`` themselves, only for targets the pool cannot serve,
    and those calls are traced in the op instead.
    """

    def __init__(self):
        self.args = None

    def note(self, args, kwargs, result):
        if self.args is None and not kwargs.get("shared"):
            self.args = (np.unique(np.asarray(args[1])), args[2], args[3], args[4], args[5])
        return _sweep_note(args, kwargs, result)

    def targets(self):
        return [
            (mod, attr, name, self.note if note is _sweep_note else note)
            for mod, attr, name, note in TARGETS
        ]

    def run(self, tracer) -> None:
        if self.args is None:
            return
        from mipdetect.subsample import draw_subsets

        active, m, n_sub, seed, round_id = self.args
        self.args = None
        with tracer.span(PROBE, targets=int(active.size)):
            for k in active.tolist():
                draw_subsets(active, k, m, n_sub, seed, round_id)


def op_metrics(spans, subprocess_op: bool) -> dict:
    """Per-layer metrics of one op from its spans.

    ``spans`` holds exactly one ``op`` root span, the spans below it and
    any probe spans; parents are indices into ``spans``.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    notes: dict[str, float] = {}
    exceptions = 0
    for rec, own in zip(spans, selfs):
        name = rec["name"]
        total[name] = total.get(name, 0.0) + (rec["end"] - rec["start"])
        self_s[name] = self_s.get(name, 0.0) + own
        exceptions += bool(rec["notes"].get("raised"))
        for key in ("bytes", "targets", "gflop", "rounds"):
            if key in rec["notes"] and name != PROBE:
                notes[key] = notes.get(key, 0) + rec["notes"][key]
    calls = {}
    for rec in spans:
        calls[rec["name"]] = calls.get(rec["name"], 0) + 1

    load_s = total.get("cli.load_dataset", 0.0)
    root_self = self_s.get(ROOT, 0.0)
    unattributed = sum(self_s.get(name, 0.0) for name in CONTAINERS)
    if not subprocess_op:
        unattributed += root_self
    return {
        "op_wall_s": total[ROOT],
        "cli.startup_s": root_self if subprocess_op else 0.0,
        "cli.load_dataset.s": load_s,
        "cli.load_dataset.mb_per_s": notes.get("bytes", 0) / 1e6 / load_s if load_s else 0.0,
        "cli.write_outputs.s": total.get("cli.write_outputs", 0.0),
        "robust_stats.standardize.s": total.get("robust_stats.standardize", 0.0),
        "subsample.min_max_sweep.s": total.get("subsample.min_max_sweep", 0.0),
        "subsample.min_max_sweep.calls": calls.get("subsample.min_max_sweep", 0),
        "subsample.targets": notes.get("targets", 0),
        "subsample.draw_subsets.s": total.get(PROBE, 0.0) + total.get("subsample.draw_subsets", 0.0),
        "subsample.kernel_gflop": notes.get("gflop", 0.0),
        "chi2_fdr.s": total.get("chi2_fdr.chi2_1_sf_vec", 0.0) + total.get("chi2_fdr.bh_select", 0.0),
        "mip.min_max_clean_set.self_s": self_s.get("mip.min_max_clean_set", 0.0),
        "mip.checking_step.s": total.get("mip.checking_step", 0.0),
        "mip.rounds": notes.get("rounds", 0),
        "him.him_detect.s": total.get("him.him_detect", 0.0),
        "simbench.lasso_fit.s": total.get("simbench.lasso_fit", 0.0),
        "simbench.lasso_fit.calls": calls.get("simbench.lasso_fit", 0),
        "simbench.gen_scenario.s": total.get("simbench.gen_scenario", 0.0),
        "unattributed_s": unattributed,
        "trace.exceptions": exceptions,
    }


def median_metrics(per_op: list[dict], overheads: list[float]) -> dict:
    """Per-op medians of every per-layer metric, plus the tracing overhead."""
    out = {name: statistics.median(m[name] for m in per_op)
           for name in PER_LAYER if name != "trace_overhead_s"}
    out["trace_overhead_s"] = statistics.median(overheads)
    return out


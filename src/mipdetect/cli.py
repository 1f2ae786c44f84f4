"""Command-line interface: CSV in, detection reports and benchmark tables out.

Exit codes: 0 success, 2 unusable input (CSV parse problems, bad flag
combinations), 3 degenerate column (zero scale), 1 anything else.
Observation indices in all outputs are 1-based. Outputs are
deterministic functions of (input bytes, flags, seed); wall time goes to
stderr only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .chi2_fdr import bh_select, chi2_1_sf_vec, log10_pvalues
from .him import him_detect
from .mip import (
    DetectionReport,
    MinStepMode,
    MipConfig,
    checking_statistics_all,
    min_multiround_detect,
    mip_detect,
)
from .robust_stats import Dataset, DegenerateColumnError, EstimatorMode, standardize
from .simbench import (
    KNOWN_METHODS,
    ScenarioKind,
    ScenarioSpec,
    results_to_csv,
    run_experiment,
)

SCHEMA_VERSION = 1


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_dataset(path: str, delimiter: str, header_mode: str, response_col: str):
    """Parse a rectangular numeric CSV into a Dataset.

    Returns (dataset, sha256-of-input-bytes). Parse problems raise
    CliError(2) with row/column positions (1-based, header included), or
    the 1-based byte offset of the first byte that is not valid UTF-8.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CliError(2, f"cannot read {path}: {e}") from e
    digest = hashlib.sha256(raw).hexdigest()

    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise CliError(2, f"{path}: invalid UTF-8 at byte {e.start + 1}") from None
    rows = [line.split(delimiter) for line in lines if line.strip() != ""]
    if not rows:
        raise CliError(2, "input has no rows")

    if header_mode == "yes":
        has_header = True
    elif header_mode == "no":
        has_header = False
    else:
        has_header = not all(_is_number(c) for c in rows[0])
    names = [c.strip() for c in rows[0]] if has_header else None
    body = rows[1:] if has_header else rows
    if not body:
        raise CliError(2, "input has a header but no data rows")

    width = len(rows[0])
    if width < 2:
        raise CliError(2, "need a response column and at least one predictor")
    data = np.empty((len(body), width))
    offset = 2 if has_header else 1
    for i, row in enumerate(body):
        if len(row) != width:
            raise CliError(
                2, f"row {i + offset}: expected {width} columns, found {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise CliError(
                    2,
                    f"row {i + offset}, column {j + 1}: "
                    f"could not parse {cell.strip()!r} as a number",
                ) from None

    if names and response_col in names:
        rcol = names.index(response_col)
    else:
        try:
            rcol = int(response_col) - 1
        except ValueError:
            raise CliError(
                2, f"response column {response_col!r} is neither a header name nor a position"
            ) from None
        if not 0 <= rcol < width:
            raise CliError(2, f"response column {response_col} out of range 1..{width}")

    y = data[:, rcol]
    X = np.delete(data, rcol, axis=1)
    try:
        return Dataset(y=y, X=X), digest
    except ValueError as e:
        raise CliError(2, str(e)) from e


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(v)
    return str(v)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv_text(header: tuple, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _manifest(cfg_echo: dict, digest: str, seed: int) -> dict:
    return {
        "tool": "mipdetect",
        "version": __version__,
        "input_sha256": digest,
        "seed": seed,
        "config": cfg_echo,
    }


def _report_json(report: DetectionReport, digest: str) -> str:
    obs = []
    for r in report.records:
        obs.append(
            {
                "index": r.index + 1,
                "influential": r.influential,
                "p_value": r.p_value,
                "statistic": r.statistic,
                "t_min": r.t_min,
                "t_max": r.t_max,
                "checking_stat": r.checking_stat,
                "clean_member": r.clean_member,
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "method": report.method,
        "manifest": _manifest(report.config, digest, report.config.get("seed", 0)),
        "n": report.n,
        "clean_set": None
        if report.clean_set is None
        else [int(i) + 1 for i in report.clean_set],
        "rounds_used": report.rounds_used,
        "hit_iteration_cap": report.hit_iteration_cap,
        "observations": obs,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_detect_outputs(report: DetectionReport, digest: str, report_path: str, flags_path: str):
    _write_text(report_path, _report_json(report, digest))
    rows = [
        (r.index + 1, r.t_min, r.t_max, r.checking_stat, r.p_value, r.influential)
        for r in report.records
    ]
    _write_text(
        flags_path,
        _csv_text(("index", "t_min", "t_max", "checking_stat", "p_value", "influential"), rows),
    )


def write_him_outputs(report: DetectionReport, digest: str, report_path: str, flags_path: str):
    _write_text(report_path, _report_json(report, digest))
    rows = [
        (r.index + 1, r.statistic, r.p_value, r.influential) for r in report.records
    ]
    _write_text(
        flags_path,
        _csv_text(("index", "him_stat", "p_value", "influential"), rows),
    )


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_csv_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("input", help="CSV file with the response and predictors")
    sp.add_argument("--delimiter", default=",", help="field delimiter (default ',')")
    sp.add_argument(
        "--header",
        choices=("auto", "yes", "no"),
        default="auto",
        help="whether the first row is a header (default: auto-detect)",
    )
    sp.add_argument(
        "--response-col",
        default="1",
        help="response column as a 1-based position or header name (default 1)",
    )


def _add_mip_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m", type=int, default=100, help="subsets per target (default 100)")
    sp.add_argument("--ksub", type=float, default=0.5, help="subset fraction (default 0.5)")
    sp.add_argument("--alpha", type=float, default=0.05, help="per-round Min/Max level")
    sp.add_argument("--alpha0", type=float, default=0.05, help="FDR level of the checking step")
    sp.add_argument("--c", type=float, default=0.5, help="clean-set fraction threshold")
    sp.add_argument("--l0", type=int, default=None, help="fallback removal count per round")
    sp.add_argument("--max-rounds", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--estimator", choices=("robust", "sample"), default="robust")
    sp.add_argument("--min-step", choices=("bh", "topk"), default="bh")
    sp.add_argument("--shared-subsets", action="store_true")
    sp.add_argument("--restandardize-clean", action="store_true")
    sp.add_argument("--fixed-n-sub", action="store_true")
    sp.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: MIP_THREADS or all cores); never changes results",
    )


def _resolve_threads(args) -> int:
    if args.threads is not None:
        n = args.threads
    else:
        env = os.environ.get("MIP_THREADS", "").strip()
        if env:
            try:
                n = int(env)
            except ValueError:
                raise CliError(2, f"MIP_THREADS={env!r} is not an integer") from None
        else:
            n = os.cpu_count() or 1
    if n < 1:
        raise CliError(2, "thread count must be at least 1")
    return n


def _config(args) -> MipConfig:
    try:
        return MipConfig(
            m=args.m,
            k_sub=args.ksub,
            alpha=args.alpha,
            alpha0=args.alpha0,
            c=args.c,
            l0=args.l0,
            max_rounds=args.max_rounds,
            seed=args.seed,
            estimator=EstimatorMode(args.estimator),
            min_step_mode=MinStepMode(args.min_step),
            shared_subsets=args.shared_subsets,
            restandardize_clean=args.restandardize_clean,
            fixed_n_sub=args.fixed_n_sub,
            threads=_resolve_threads(args),
        )
    except ValueError as e:
        raise CliError(2, str(e)) from e


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_detect(args) -> int:
    d, digest = load_dataset(args.input, args.delimiter, args.header, args.response_col)
    cfg = _config(args)
    t0 = time.perf_counter()
    try:
        report = mip_detect(d, cfg)
    except DegenerateColumnError as e:
        raise CliError(3, str(e)) from e
    write_detect_outputs(report, digest, args.report, args.flags)
    print(f"detect: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return 0


def cmd_him(args) -> int:
    d, digest = load_dataset(args.input, args.delimiter, args.header, args.response_col)
    cfg = _config(args)
    t0 = time.perf_counter()
    try:
        Z = standardize(d, cfg.estimator)
    except DegenerateColumnError as e:
        raise CliError(3, str(e)) from e
    report = him_detect(Z, cfg.alpha0)
    report.config = dict(report.config, seed=cfg.seed)
    write_him_outputs(report, digest, args.report, args.flags)
    print(f"him: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return 0


def cmd_plot_data(args) -> int:
    d, digest = load_dataset(args.input, args.delimiter, args.header, args.response_col)
    cfg = _config(args)
    t0 = time.perf_counter()
    try:
        Z = standardize(d, cfg.estimator)
        mip_report = mip_detect(d, cfg)
    except DegenerateColumnError as e:
        raise CliError(3, str(e)) from e

    t_min = np.array([r.t_min for r in mip_report.records])
    t_max = np.array([r.t_max for r in mip_report.records])
    p_min = chi2_1_sf_vec(t_min)
    p_max = chi2_1_sf_vec(t_max)
    max_hits = set(bh_select(p_max, cfg.alpha0).rejected.tolist())
    min_hits = set(min_multiround_detect(Z, cfg).flagged().tolist())

    clean = mip_report.clean_set
    Zc = (
        standardize(d, cfg.estimator, estimate_rows=clean)
        if cfg.restandardize_clean
        else Z
    )
    p_check = chi2_1_sf_vec(checking_statistics_all(Zc, clean))

    lp_max = log10_pvalues(p_max)
    lp_min = log10_pvalues(p_min)
    lp_check = log10_pvalues(p_check)
    rows = [
        (
            i + 1,
            float(lp_max[i]),
            float(lp_min[i]),
            float(lp_check[i]),
            mip_report.records[i].influential,
            i in max_hits,
            i in min_hits,
        )
        for i in range(d.n)
    ]
    _write_text(
        args.out,
        _csv_text(
            (
                "index",
                "log10_p_max",
                "log10_p_min",
                "log10_p_checking",
                "influential_mip",
                "influential_max",
                "influential_min",
            ),
            rows,
        ),
    )
    print(f"plot-data: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    kinds = {"1": ScenarioKind.EXAMPLE1, "2": ScenarioKind.EXAMPLE2, "null": ScenarioKind.NULL}
    kind = kinds[args.example]
    grid: list[float] = []
    for token in args.mu_grid:
        for piece in str(token).split(","):
            if piece.strip():
                grid.append(float(piece))
    if not grid:
        grid = [0.0]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for name in methods:
        if name not in KNOWN_METHODS:
            raise CliError(2, f"unknown method {name!r}; choose from {', '.join(KNOWN_METHODS)}")
    cfg = _config(args)
    try:
        specs = [
            ScenarioSpec(kind=kind, mu=mu, n=args.n, p=args.p, n_inf=args.n_inf, seed=args.seed)
            for mu in grid
        ]
    except ValueError as e:
        raise CliError(2, str(e)) from e

    t0 = time.perf_counter()
    rows = run_experiment(
        specs, methods, args.reps, cfg, with_fit=True if args.with_fit else None
    )
    _write_text(args.out, results_to_csv(rows))
    print(f"simulate: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipdetect",
        description="Influential-observation detection for high-dimensional regression",
    )
    parser.add_argument("--version", action="version", version=f"mipdetect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("detect", help="run the full detector on a CSV dataset")
    _add_csv_opts(sp)
    _add_mip_opts(sp)
    sp.add_argument("--report", default="report.json", help="JSON report path")
    sp.add_argument("--flags", default="flags.csv", help="per-observation CSV path")
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("him", help="run the leave-one-out baseline detector")
    _add_csv_opts(sp)
    _add_mip_opts(sp)
    sp.add_argument("--report", default="report.json")
    sp.add_argument("--flags", default="flags.csv")
    sp.set_defaults(func=cmd_him)

    sp = sub.add_parser(
        "plot-data", help="emit per-observation log p-values for external plotting"
    )
    _add_csv_opts(sp)
    _add_mip_opts(sp)
    sp.add_argument("--out", default="pvalues.csv")
    sp.set_defaults(func=cmd_plot_data)

    sp = sub.add_parser("simulate", help="reproduce the benchmark experiments")
    sp.add_argument("--example", choices=("1", "2", "null"), required=True)
    sp.add_argument("--mu-grid", nargs="+", default=["0"], help="signal strengths")
    sp.add_argument("--reps", type=int, default=20)
    sp.add_argument("--methods", default="MIP,HIM")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--p", type=int, default=1000)
    sp.add_argument("--n-inf", type=int, default=10)
    sp.add_argument("--out", default="results.csv")
    sp.add_argument(
        "--with-fit",
        action="store_true",
        help="always compute lasso fit metrics (implied when methods include Full)",
    )
    _add_mip_opts(sp)
    sp.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return e.code
    except DegenerateColumnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # keep the exit status meaningful for scripts
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

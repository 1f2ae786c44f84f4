"""Command-line interface: CSV in, detection reports and benchmark tables out.

Exit codes: 0 success, 2 unusable input (CSV parse problems, bad flag
combinations), 3 degenerate column (zero scale), 4 working set shrank
mid-run below a workable subset size, 1 anything else.
Observation indices in all outputs are 1-based. Outputs are
deterministic functions of (input bytes, flags, seed); wall time goes to
stderr only.
"""

from __future__ import annotations

if __name__ == "__main__":  # python -m mipdetect.cli: set the BLAS default before NumPy loads
    from . import _quiet_blas_workers

    _quiet_blas_workers()

import argparse
import dataclasses
import codecs
import hashlib
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .chi2_fdr import chi2_1_sf_vec, log10_pvalues
from .mip import (
    DegenerateShrinkageError,
    DetectionReport,
    MipConfig,
    checking_statistics_all,
    first_sweep,
    him_detect,
    max_detect,
    min_max_checking,
    min_multiround_detect,
    mip_detect,
)
from .robust_stats import Dataset, DegenerateColumnError, EstimatorMode, standardize

SCHEMA_VERSION = 2


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


_BLOCK_BYTES = 1 << 16  # bytes read, hashed and decoded at a time
_BATCH_CHARS = 1 << 20  # characters of lines handed to one np.loadtxt call
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' line breaks besides "\n"
_BULK_REFUSES = "\x1f"  # np.loadtxt strips it around a number like a space; float() refuses it
_STAND_IN = "\x1e"  # a line break to str.splitlines, so in no line; np.loadtxt splits on it like ","


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _header_names(first: list[str], header_mode: str) -> list[str] | None:
    """The column names in the first row's cells, or None if that row is data."""
    if header_mode not in ("yes", "no"):
        header_mode = "no" if all(_is_number(c) for c in first) else "yes"
    return [c.strip() for c in first] if header_mode == "yes" else None


def _lines(fh, path: str, sha256):
    """The non-blank lines of binary stream ``fh``, split where str.splitlines splits.

    A leading byte-order mark is dropped. Each block read goes to ``sha256``
    and a strict UTF-8 decoder; only the piece after its last line break is
    carried on. A CR LF pair split across blocks leaves a blank line, dropped.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    read, parts, bom, block = 0, [], True, None  # parts: the pieces of the line not yet ended
    while block != b"":  # an empty read is the end of the input
        block = fh.read(_BLOCK_BYTES)
        sha256.update(block)
        try:
            chunk = decoder.decode(block, final=not block)
        except UnicodeDecodeError as e:  # e.start counts from the decoder's pending bytes
            at = read - len(decoder.getstate()[0]) + e.start + 1
            raise CliError(2, f"{path}: invalid UTF-8 at byte {at}") from None
        read += len(block)
        if bom and chunk:
            chunk, bom = chunk.removeprefix("\ufeff"), False
        if not block:  # the end of the input ends the last line
            lines = ["".join(parts)]
        elif any(c in chunk for c in _BREAKS):
            text = "".join([*parts, chunk])
            lines = text.splitlines()
            parts = [] if text[-1:] in "\n" + _BREAKS else [lines.pop()]
        else:
            *lines, tail = chunk.split("\n")
            if lines:
                lines[0] = "".join([*parts, lines[0]])
                parts = []
            parts.append(tail)
        yield from (line for line in lines if line and not line.isspace())


def _batches(lines):
    """Lists of consecutive ``lines`` of about _BATCH_CHARS characters each."""
    batch, chars = [], 0
    for line in lines:
        batch.append(line)
        chars += len(line)
        if chars >= _BATCH_CHARS:
            yield batch
            batch, chars = [], 0
    if batch:
        yield batch


def _read_batch(batch: list[str], delimiter: str, width: int, row: int):
    """(matrix, message naming its first non-finite cell or None) of lines from CSV row ``row`` on.

    np.loadtxt reads the batch; one it refuses, or reads with another width,
    a non-finite cell or a cell float() may read differently, is read again
    cell by cell with float(), whose first bad row or cell raises CliError(2).
    np.loadtxt takes one-character delimiters only, so a longer one is
    replaced by _STAND_IN first; that cuts where str.split cuts as long as
    _STAND_IN is in neither the lines nor the delimiter.
    """
    if not any(_BULK_REFUSES in line for line in batch):
        bulk, sep = batch, delimiter
        if len(delimiter) > 1 and _STAND_IN not in delimiter:
            if not any(_STAND_IN in line for line in batch):
                bulk, sep = [line.replace(delimiter, _STAND_IN) for line in batch], _STAND_IN
        try:
            data = np.loadtxt(bulk, delimiter=sep, comments=None, ndmin=2, dtype=np.float64)
            if data.shape[1] == width and np.isfinite(data).all():
                return data, None
        except (ValueError, TypeError):  # a cell, a row or a delimiter np.loadtxt refuses
            pass
    data, non_finite = np.empty((len(batch), width)), None
    for i, line in enumerate(batch):
        cells = line.split(delimiter)
        if len(cells) != width:
            raise CliError(2, f"row {row + i}: expected {width} columns, found {len(cells)}")
        for j, cell in enumerate(cells):
            try:
                data[i, j] = value = float(cell)
            except ValueError:
                raise CliError(2, f"row {row + i}, column {j + 1}: "
                                  f"could not parse {cell!r} as a number") from None
            if not (non_finite or math.isfinite(value)):
                non_finite = f"row {row + i}, column {j + 1}: non-finite value {cell!r}"
    return data, non_finite


def _parse(fh, path: str, delimiter: str, header_mode: str):
    """(matrix, header names or None, sha256) of binary stream ``fh``, read in one pass.

    Problems raise CliError(2) in this order: invalid UTF-8 anywhere, then
    the first structural or cell problem in file order, then the first
    non-finite cell.
    """
    sha256 = hashlib.sha256()
    lines = _lines(fh, path, sha256)
    try:
        first = next(lines, None)
        if first is None:
            raise CliError(2, "input has no rows")
        cells = first.split(delimiter)
        names = _header_names(cells, header_mode)
        if names is not None:
            first = next(lines, None)
            if first is None:
                raise CliError(2, "input has a header but no data rows")
        if len(cells) < 2:
            raise CliError(2, "need a response column and at least one predictor; "
                              f"the first row has one column when split on {delimiter!r}")
        blocks, non_finite, row = [], None, 2 if names is not None else 1
        for batch in _batches(itertools.chain([first], lines)):
            data, bad = _read_batch(batch, delimiter, len(cells), row)
            blocks.append(data)
            non_finite = non_finite or bad
            row += len(batch)
        if non_finite:
            raise CliError(2, non_finite)
    except CliError:
        for _ in lines:  # invalid UTF-8 anywhere in the input is reported first
            pass
        raise
    return np.concatenate(blocks), names, sha256.hexdigest()


def load_dataset(path: str, delimiter: str, header_mode: str, response_col: str):
    """Parse a rectangular numeric CSV into a Dataset.

    Returns (dataset, sha256-of-input-bytes, zero-based CSV column of the
    response). A leading UTF-8 byte-order mark is skipped, lines end where
    str.splitlines ends them, and blank lines are skipped. Parse problems
    and non-finite cells (nan, inf, or a value that overflows) raise
    CliError(2) with 1-based row/column positions (header included), or the
    1-based byte offset of the first byte that is not valid UTF-8. A table
    with fewer than 4 rows raises ValueError from Dataset, which also exits 2.
    The input, a pipe included, is read once as a stream by ``_parse``; it
    holds about twice the matrix and a megabyte batch of lines, never the file.
    """
    if not delimiter:
        raise CliError(2, "--delimiter must be a non-empty string")
    try:
        with open(path, "rb") as fh:
            data, names, digest = _parse(fh, path, delimiter, header_mode)
    except OSError as e:
        raise CliError(2, f"cannot read {path}: {e}") from e
    width = data.shape[1]
    if names and response_col in names:
        rcol = names.index(response_col)
    else:
        try:
            rcol = int(response_col) - 1
        except ValueError:
            raise CliError(2, f"response column {response_col!r} "
                              "is neither a header name nor a position") from None
        if not 0 <= rcol < width:
            raise CliError(2, f"response column {response_col} out of range 1..{width}")
    return Dataset(y=data[:, rcol].copy(), X=np.delete(data, rcol, axis=1)), digest, rcol


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


def _manifest(cfg_echo: dict, digest: str) -> dict:
    return {
        "tool": "mipdetect",
        "version": __version__,
        "input_sha256": digest,
        "seed": cfg_echo.get("seed"),  # None for HIM, which draws nothing
        "config": cfg_echo,
    }


def _nullable(values: np.ndarray) -> list:
    return [None if math.isnan(v) else v for v in values.tolist()]


def _report_json(report: DetectionReport, digest: str) -> str:
    columns = {name: _nullable(report.records[name]) for name in report.records.dtype.names}
    columns["index"] = range(1, report.n + 1)
    if report.clean_set is None:
        columns["clean_member"] = [None] * report.n
    else:
        columns["clean_member"] = np.isin(np.arange(report.n), report.clean_set).tolist()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "method": report.method,
        "manifest": _manifest(report.config, digest),
        "n": report.n,
        "clean_set": None
        if report.clean_set is None
        else [int(i) + 1 for i in report.clean_set],
        "rounds_used": report.rounds_used,
        "removed": None
        if report.removed is None
        else [
            {"round": rd, "step": step, "indices": [int(i) + 1 for i in idx]}
            for rd, step, idx in report.removed
        ],
        "hit_iteration_cap": report.hit_iteration_cap,
        "observations": [dict(zip(columns, row)) for row in zip(*columns.values())],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _flags_csv(report: DetectionReport, header: tuple, fields: tuple) -> str:
    """1-based index, then one record field per column; NaN cells are empty."""
    columns = (report.records[name].tolist() for name in fields)
    return _csv_text(("index", *header), zip(range(1, report.n + 1), *columns))


def write_detect_outputs(report: DetectionReport, digest: str, report_path: str, flags_path: str):
    _write_text(report_path, _report_json(report, digest))
    fields = ("t_min", "t_max", "checking_stat", "p_value", "influential")
    _write_text(flags_path, _flags_csv(report, fields, fields))


def write_him_outputs(report: DetectionReport, digest: str, report_path: str, flags_path: str):
    _write_text(report_path, _report_json(report, digest))
    _write_text(
        flags_path,
        _flags_csv(
            report, ("him_stat", "p_value", "influential"), ("statistic", "p_value", "influential")
        ),
    )


def run_experiment(*args, **kwargs):
    """``simbench.run_experiment``, imported on first call: only simulate loads simbench."""
    from .simbench import run_experiment
    return run_experiment(*args, **kwargs)


def results_to_csv(rows: list) -> str:
    """The results.csv text of ``simbench.MetricRow`` rows."""
    from .simbench import RESULT_COLUMNS
    return _csv_text(RESULT_COLUMNS, (dataclasses.astuple(r) for r in rows))


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


def _add_report_opts(sp: argparse.ArgumentParser) -> None:
    """The options a detection report carries, HIM's included."""
    sp.add_argument("--alpha0", type=float, default=0.05, help="FDR level of the checking step")
    sp.add_argument("--estimator", choices=("robust", "sample"), default="robust")


def _add_mip_opts(sp: argparse.ArgumentParser) -> None:
    """One option per MipConfig field, each dest named after its field."""
    _add_report_opts(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--m", type=int, default=100, help="subsets per target (default 100)")
    sp.add_argument(
        "--ksub", dest="k_sub", type=float, default=0.5, help="subset fraction (default 0.5)"
    )
    sp.add_argument("--alpha", type=float, default=0.05, help="per-round Min/Max level")
    sp.add_argument("--c", type=float, default=0.5, help="clean-set fraction threshold")
    sp.add_argument("--l0", type=int, default=None, help="fallback removal count per round")
    sp.add_argument("--max-rounds", type=int, default=20)
    sp.add_argument("--shared-subsets", action="store_true")
    # parsed so that scripts passing it still run; the sweep has no thread count to set
    sp.add_argument("--threads", help=argparse.SUPPRESS)


def _config(args) -> MipConfig:
    if args.threads is not None:
        print("warning: --threads is ignored; it sets nothing", file=sys.stderr)
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(MipConfig)}
    values.update(estimator=EstimatorMode(args.estimator))
    return MipConfig(**values)


def _column_error(e: DegenerateColumnError, rcol: int) -> CliError:
    """Exit 3, naming the zero-scale column by its 1-based CSV position."""
    if e.column is None:
        what, col = "response", rcol
    else:
        what, col = "predictor", e.column + (e.column >= rcol)
    return CliError(
        3, f"zero scale estimate for {what} in CSV column {col + 1}; cannot standardize"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_detect(args) -> int:
    cfg = _config(args)
    d, digest, rcol = load_dataset(args.input, args.delimiter, args.header, args.response_col)
    try:
        report = mip_detect(d, cfg)
    except DegenerateColumnError as e:
        raise _column_error(e, rcol) from e
    write_detect_outputs(report, digest, args.report, args.flags)
    return 0


def _load_standardized(args):
    """(standardized CSV data, input sha256); a zero-scale column exits 3 by its CSV position."""
    d, digest, rcol = load_dataset(args.input, args.delimiter, args.header, args.response_col)
    try:
        return standardize(d, EstimatorMode(args.estimator)), digest
    except DegenerateColumnError as e:
        raise _column_error(e, rcol) from e


def cmd_him(args) -> int:
    if not 0.0 < args.alpha0 < 1.0:
        raise ValueError("alpha0 must be in (0, 1)")
    Z, digest = _load_standardized(args)
    write_him_outputs(him_detect(Z, args.alpha0), digest, args.report, args.flags)
    return 0


def cmd_plot_data(args) -> int:
    cfg = _config(args)
    Z, _ = _load_standardized(args)
    first = first_sweep(Z, cfg)
    mip_report = min_max_checking(Z, cfg, first)
    max_rec = max_detect(Z, cfg, first).records
    min_rec = min_multiround_detect(Z, cfg, first).records
    # the suspects were scored by the checking step; only the clean members are left
    clean = mip_report.clean_set
    p_check = mip_report.records.p_value.copy()
    p_check[clean] = chi2_1_sf_vec(checking_statistics_all(Z, clean, rows=clean))

    columns = (
        log10_pvalues(max_rec.p_value),
        log10_pvalues(min_rec.p_value),
        log10_pvalues(p_check),
        mip_report.records.influential,
        max_rec.influential,
        min_rec.influential,
    )
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
            zip(range(1, Z.n + 1), *(c.tolist() for c in columns)),
        ),
    )
    return 0


def cmd_simulate(args) -> int:
    from .simbench import ScenarioKind, ScenarioSpec
    kinds = {"1": ScenarioKind.EXAMPLE1, "2": ScenarioKind.EXAMPLE2, "null": ScenarioKind.NULL}
    kind = kinds[args.example]
    grid: list[float] = []
    for piece in ",".join(args.mu_grid).split(","):
        if piece.strip():
            try:
                grid.append(float(piece))
            except ValueError:
                raise CliError(2, f"--mu-grid: {piece.strip()!r} is not a number") from None
    if not grid:
        grid = [0.0]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    cfg = _config(args)
    specs = [
        ScenarioSpec(kind=kind, mu=mu, n=args.n, p=args.p, n_inf=args.n_inf, seed=args.seed)
        for mu in grid
    ]
    rows = run_experiment(specs, methods, args.reps, cfg, with_fit=args.with_fit)
    _write_text(args.out, results_to_csv(rows))
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

    # no abbreviations: detect's --alpha would silently set him's --alpha0
    sp = sub.add_parser("him", help="run the leave-one-out baseline detector", allow_abbrev=False)
    _add_csv_opts(sp)
    _add_report_opts(sp)
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
    sp.add_argument(
        "--methods", default="MIP,HIM",
        help="comma-separated, from MIP,HIM,MaxOnly,MinMultiRound,Full",
    )
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
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except CliError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return e.code
    except DegenerateColumnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except DegenerateShrinkageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # keep the exit status meaningful for scripts
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(f"{args.command}: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: CSV in, detection reports and benchmark tables out.

Exit codes: 0 success, 2 unusable input (CSV parse problems, bad flag
combinations), 3 degenerate column (zero scale), 4 working set shrank
mid-run below a workable subset size, 1 anything else.
Observation indices in all outputs are 1-based. Outputs are
deterministic functions of (input bytes, flags, seed); wall time goes to
stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .chi2_fdr import bh_select, chi2_1_sf_vec, log10_pvalues
from .him import him_detect
from .mip import (
    DegenerateShrinkageError,
    DetectionReport,
    MipConfig,
    checking_statistics_all,
    checking_step,
    min_max_clean_set,
    min_multiround_detect,
    mip_detect,
)
from .robust_stats import Dataset, DegenerateColumnError, EstimatorMode, standardize
from .simbench import MetricRow, ScenarioKind, ScenarioSpec, run_experiment

SCHEMA_VERSION = 2


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


# Characters that end a line for str.splitlines, and so for the per-cell
# parser, but not for universal newlines, plus U+001F, which np.loadtxt strips
# around a number as if it were a space while float() refuses it.
_BULK_REFUSES = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


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


class _HashingReader(io.RawIOBase):
    """Binary reads from ``fh`` that feed every byte read to a SHA-256."""

    def __init__(self, fh):
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self.fh.readinto(buf)
        self.sha256.update(memoryview(buf)[:n])
        return n


def _nonblank_lines(text):
    """The lines of ``text`` that are not blank; raises on a line that needs the rescan."""
    for line in text:
        if line.isspace():
            continue
        if any(c in line for c in _BULK_REFUSES):
            raise ValueError("a line the per-cell parser must split")
        yield line


def _parse_bulk(fh, delimiter: str, header_mode: str):
    """(matrix, header names or None, sha256) of binary stream ``fh`` in one np.loadtxt pass.

    Raises on anything the per-cell parser must decide: unreadable or
    invalid input, a row of another width, a non-finite cell.
    """
    raw = _HashingReader(fh)
    text = io.TextIOWrapper(io.BufferedReader(raw, 1 << 16), encoding="utf-8-sig")
    lines = _nonblank_lines(text)
    first = next(lines)
    cells = first.removesuffix("\n").split(delimiter)
    names = _header_names(cells, header_mode)
    if names is not None:
        first = next(lines)
    data = np.loadtxt(
        itertools.chain([first], lines), delimiter=delimiter, comments=None, ndmin=2, dtype=np.float64
    )
    if len(cells) < 2 or data.shape[1] != len(cells) or not np.isfinite(data).all():
        raise ValueError("a table the per-cell parser must check")
    return data, names, raw.sha256.hexdigest()


def _parse_cells(raw: bytes, path: str, delimiter: str, header_mode: str):
    """(matrix, header names or None, sha256) of ``raw``, parsing one cell at a time with float().

    Accepts and rejects exactly what the CLI contract does, and names the
    first problem by its position (CliError(2)).
    """
    digest = hashlib.sha256(raw).hexdigest()

    try:
        lines = [
            line
            for line in raw.decode("utf-8").removeprefix("\ufeff").splitlines()
            if line.strip() != ""
        ]
    except UnicodeDecodeError as e:
        raise CliError(2, f"{path}: invalid UTF-8 at byte {e.start + 1}") from None
    if not lines:
        raise CliError(2, "input has no rows")

    first = lines[0].split(delimiter)
    names = _header_names(first, header_mode)
    body = lines[1:] if names is not None else lines
    if not body:
        raise CliError(2, "input has a header but no data rows")

    width = len(first)
    if width < 2:
        raise CliError(2, "need a response column and at least one predictor; "
                          f"the first row has one column when split on {delimiter!r}")
    data = np.empty((len(body), width))
    offset = 2 if names is not None else 1
    for i, row in enumerate(line.split(delimiter) for line in body):  # one row's cells at a time
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
                    f"could not parse {cell!r} as a number",
                ) from None
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), data.shape)
        cell = body[i].split(delimiter)[j]
        raise CliError(2, f"row {i + offset}, column {j + 1}: non-finite value {cell!r}")
    return data, names, digest


def load_dataset(path: str, delimiter: str, header_mode: str, response_col: str):
    """Parse a rectangular numeric CSV into a Dataset.

    Returns (dataset, sha256-of-input-bytes, zero-based CSV column of the
    response). A leading UTF-8 byte-order mark is skipped. Parse problems
    and non-finite cells (nan, inf, or a value that overflows) raise
    CliError(2) with row/column positions (1-based, header included;
    the first such cell in row-major order), or the 1-based byte offset
    of the first byte that is not valid UTF-8. A table with fewer than 4
    rows raises ValueError from Dataset, which also exits 2.

    The file is read once as a stream: each block of bytes goes to the
    SHA-256 as it is read, is decoded as strict UTF-8, and the rows after
    the first non-blank line (which settles ``header_mode="auto"``) are
    parsed by one np.loadtxt call straight into the final matrix. Ingestion
    then holds about the matrix plus a few blocks of text, not the file.
    If that bulk parse raises, or meets a line break or cell it would read
    differently from float(), the file is parsed again one cell at a time;
    that rescan alone accepts or rejects such input and reports the
    position of its first problem. A pipe, which cannot be read twice, is
    read into memory first.
    """
    if not delimiter:
        raise CliError(2, "--delimiter must be a non-empty string")
    try:
        with open(path, "rb", buffering=0) as fh:
            # a pipe cannot be read twice, so its bytes are kept for the rescan
            src = fh if fh.seekable() else io.BytesIO(fh.read())
            try:
                data, names, digest = _parse_bulk(src, delimiter, header_mode)
            except Exception:  # the rescan decides every input the bulk parse does not take
                src.seek(0)
                data, names, digest = _parse_cells(src.read(), path, delimiter, header_mode)
    except OSError as e:
        raise CliError(2, f"cannot read {path}: {e}") from e

    n, width = data.shape
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

    # Take y out, then shift the columns right of it one place left, a block
    # of rows at a time so that the overlapping copy stays small; X views
    # the first width - 1 columns of the parsed matrix.
    y = data[:, rcol].copy()
    step = max(1, (1 << 20) // data[0].nbytes)
    for start in range(0, n, step):
        block = data[start : start + step]
        block[:, rcol:-1] = block[:, rcol + 1 :]
    return Dataset(y=y, X=data[:, :-1]), digest, rcol


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
        "manifest": _manifest(report.config, digest, report.config.get("seed", 0)),
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


RESULT_COLUMNS = tuple(f.name for f in dataclasses.fields(MetricRow))


def results_to_csv(rows: list[MetricRow]) -> str:
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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--estimator", choices=("robust", "sample"), default="robust")


def _add_mip_opts(sp: argparse.ArgumentParser) -> None:
    """One option per MipConfig field, each dest named after its field."""
    _add_report_opts(sp)
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
    d, digest, rcol = load_dataset(args.input, args.delimiter, args.header, args.response_col)
    cfg = _config(args)
    t0 = time.perf_counter()
    try:
        report = mip_detect(d, cfg)
    except DegenerateColumnError as e:
        raise _column_error(e, rcol) from e
    write_detect_outputs(report, digest, args.report, args.flags)
    print(f"detect: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return 0


def _load_standardized(args):
    """(standardized CSV data, input sha256); a zero-scale column exits 3 by its CSV position."""
    d, digest, rcol = load_dataset(args.input, args.delimiter, args.header, args.response_col)
    try:
        return standardize(d, EstimatorMode(args.estimator)), digest
    except DegenerateColumnError as e:
        raise _column_error(e, rcol) from e


def cmd_him(args) -> int:
    if not 0 <= args.seed < 2**64:  # HIM draws nothing, but its manifest names a usable seed
        raise ValueError("seed must be an integer in [0, 2**64)")
    t0 = time.perf_counter()
    Z, digest = _load_standardized(args)
    report = him_detect(Z, args.alpha0)
    report.config = dict(report.config, seed=args.seed)
    write_him_outputs(report, digest, args.report, args.flags)
    print(f"him: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return 0


def cmd_plot_data(args) -> int:
    t0 = time.perf_counter()
    Z, _ = _load_standardized(args)
    cfg = _config(args)
    cs = min_max_clean_set(Z, cfg)
    mip_report = checking_step(Z, cs.clean, cfg.alpha0)

    p_min = chi2_1_sf_vec(cs.first_t_min)
    p_max = chi2_1_sf_vec(cs.first_t_max)
    max_flags = np.zeros(Z.n, dtype=bool)
    max_flags[bh_select(p_max, cfg.alpha0).rejected] = True
    min_flags = min_multiround_detect(Z, cfg).records.influential
    p_check = chi2_1_sf_vec(checking_statistics_all(Z, cs.clean))

    columns = (
        log10_pvalues(p_max),
        log10_pvalues(p_min),
        log10_pvalues(p_check),
        mip_report.records.influential,
        max_flags,
        min_flags,
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
    print(f"plot-data: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
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

    t0 = time.perf_counter()
    rows = run_experiment(specs, methods, args.reps, cfg, with_fit=args.with_fit)
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
    except DegenerateShrinkageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # keep the exit status meaningful for scripts
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

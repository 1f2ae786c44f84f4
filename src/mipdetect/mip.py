"""The Min-Max-Checking detector and its single-statistic relatives.

The pipeline estimates a clean subset by alternating a Min-Step (remove
observations whose T_min rejects) with a Max-Step (tentatively set aside
observations whose T_max rejects) until enough of the sample survives,
then tests every suspect against the clean set with a chi-square(1)
checking statistic under BH selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .chi2_fdr import bh_select, chi2_1_sf_vec
from .robust_stats import Dataset, EstimatorMode, InfluenceMatrix, standardize
from .subsample import _scores, min_max_sweep, subset_size


class DegenerateShrinkageError(RuntimeError):
    """The working set shrank too far to keep subsampling."""


@dataclass(frozen=True)
class MipConfig:
    """All tunables of the detection pipeline.

    ``l0`` is the fallback removal count for a Min-Step whose selection
    comes back empty while the stop test keeps failing; None resolves to
    max(1, ceil(0.05 n)). There is no thread count: a sweep scores its
    private blocks in turn on the caller.
    """

    m: int = 100
    k_sub: float = 0.5
    alpha: float = 0.05
    alpha0: float = 0.05
    c: float = 0.5
    l0: int | None = None
    max_rounds: int = 20
    seed: int = 0
    estimator: EstimatorMode = EstimatorMode.ROBUST
    shared_subsets: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0.0 < self.k_sub < 1.0:
            raise ValueError("k_sub must be in (0, 1)")
        if not 0.0 < self.alpha < 1.0 or not 0.0 < self.alpha0 < 1.0:
            raise ValueError("alpha and alpha0 must be in (0, 1)")
        if not 0.0 < self.c <= 1.0:
            raise ValueError("c must be in (0, 1]")
        if self.l0 is not None and self.l0 < 1:
            raise ValueError("l0 must be at least 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if not 0 <= self.seed < 2**64:
            # the subset streams key on the seed's low 64 bits
            raise ValueError("seed must be an integer in [0, 2**64)")

    def resolve_l0(self, n: int) -> int:
        return self.l0 if self.l0 is not None else max(1, math.ceil(0.05 * n))

    def echo(self) -> dict:
        """Stable config dictionary for run reports."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return dict(values, estimator=self.estimator.value)


# One row per observation. ``statistic`` is whatever statistic drove the
# method's decision (the checking statistic for the full pipeline, the
# leave-one-out statistic for the baseline, T_max or T_min for the
# single-statistic detectors); a value a method does not produce is NaN.
REPORT_DTYPE = np.dtype(
    [("influential", np.bool_)]
    + [(name, np.float64) for name in ("p_value", "statistic", "t_min", "t_max", "checking_stat")]
)


def report_records(n: int, flagged=(), **columns) -> np.recarray:
    """n report rows: ``flagged`` rows influential, ``columns`` filled, the rest NaN."""
    records = np.recarray(n, dtype=REPORT_DTYPE)
    records.fill((False,) + (math.nan,) * (len(REPORT_DTYPE) - 1))
    records.influential[np.asarray(flagged, dtype=np.int64)] = True
    for name, values in columns.items():
        records[name] = values
    return records


@dataclass
class DetectionReport:
    method: str
    records: np.recarray  # REPORT_DTYPE, row i is observation i
    config: dict = field(default_factory=dict)
    clean_set: np.ndarray | None = None
    rounds_used: int | None = None
    hit_iteration_cap: bool = False
    removed: list | None = None  # the clean-set trail, for mip only

    @property
    def n(self) -> int:
        return len(self.records)

    def flagged(self) -> np.ndarray:
        return np.flatnonzero(self.records.influential)


@dataclass
class CleanSetResult:
    """Outcome of the Min-Max alternation.

    ``removed`` is the ordered trail of (round, step, indices): every
    Min-Step removal plus, once the stop test passes, the surviving
    Max-Step rejections. ``clean`` and the union of all removed indices
    partition the sample. First-pass T statistics (full data) ride along
    for reporting.
    """

    clean: np.ndarray
    removed: list
    rounds_used: int
    hit_iteration_cap: bool
    first_t_min: np.ndarray
    first_t_max: np.ndarray


def _is_workable(n_active: int, n_sub: int) -> bool:
    return n_sub >= 3 and n_active >= n_sub + 2


def _sweep(Z: InfluenceMatrix, active, cfg: MipConfig, round_id: int, round_no: int):
    """(t_min, t_max) over ``active`` at cfg's subset size, stream round ``round_id``."""
    n_U, n_sub = active.size, subset_size(active.size, cfg.k_sub)
    if not _is_workable(n_U, n_sub):
        raise DegenerateShrinkageError(
            f"round {round_no}: working set of {n_U} cannot support subsets of size {n_sub}"
        )
    return min_max_sweep(Z, active, cfg.m, n_sub, cfg.seed, round_id, shared=cfg.shared_subsets)


def _check_sample_size(n: int, k_sub: float) -> None:
    """Reject a sample whose first working set cannot support subsets at k_sub.

    Workable means k_sub * n >= 2 and (1 - k_sub) * n > 2 (n_sub >= 3 and
    n >= n_sub + 2); workability only improves with n, so the smallest
    workable n is found by stepping up from just below that bound.
    """
    if _is_workable(n, subset_size(n, k_sub)):
        return
    need = max(n, int(max(2.0 / k_sub, 2.0 / (1.0 - k_sub))) - 2)
    while not _is_workable(need, subset_size(need, k_sub)):
        need += 1
    raise ValueError(
        f"n = {n} observations is below the workable minimum of {need} for k_sub = {k_sub}"
    )


def min_max_clean_set(Z: InfluenceMatrix, cfg: MipConfig) -> CleanSetResult:
    """Alternate Min and Max steps until a large enough clean set remains.

    Each round: T_min over the working set, BH at cfg.alpha decides
    removals; then T_max over the survivors and BH picks a tentative
    rejection set. If removing it would keep at least c*n of the ORIGINAL
    sample, that remainder is the clean set. A Min-Step that selects
    nothing while the stop test fails falls back to removing the l0
    smallest p-values.
    """
    n = Z.n
    S = np.arange(n, dtype=np.int64)
    removed: list = []
    sweep_no = 0
    first_t_min = first_t_max = None
    l0 = cfg.resolve_l0(n)
    # tiny slack so c*n (inexact for some c) compares as intended
    stop_at = cfg.c * n - 1e-9

    _check_sample_size(n, cfg.k_sub)
    for round_no in range(1, cfg.max_rounds + 1):
        t_min, t_max = _sweep(Z, S, cfg, sweep_no, round_no)
        sweep_no += 1
        if first_t_min is None:
            first_t_min, first_t_max = t_min, t_max
        p_min = chi2_1_sf_vec(t_min)
        hits = np.sort(bh_select(p_min, cfg.alpha).rejected)
        min_step_empty = hits.size == 0

        if hits.size:
            removed.append((round_no, "min", S[hits].copy()))
            S = np.delete(S, hits)
            _, t_max2 = _sweep(Z, S, cfg, sweep_no, round_no)
            sweep_no += 1
        else:
            # working set unchanged: the same draws carry the Max-Step
            t_max2 = t_max

        max_hits = np.sort(bh_select(chi2_1_sf_vec(t_max2), cfg.alpha).rejected)
        candidate = np.delete(S, max_hits)
        stop = candidate.size >= stop_at
        if stop or round_no == cfg.max_rounds:
            if max_hits.size:
                removed.append((round_no, "max", S[max_hits].copy()))
            return CleanSetResult(
                clean=candidate,
                removed=removed,
                rounds_used=round_no,
                hit_iteration_cap=not stop,
                first_t_min=first_t_min,
                first_t_max=first_t_max,
            )

        if min_step_empty:
            take = min(l0, S.size - 1)
            fallback = np.sort(np.argsort(p_min, kind="stable")[:take])
            removed.append((round_no, "min", S[fallback].copy()))
            S = np.delete(S, fallback)

    raise AssertionError("unreachable: loop returns at the iteration cap")


# ---------------------------------------------------------------------------
# checking step
# ---------------------------------------------------------------------------


def _checking_stats(Z: InfluenceMatrix, clean: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Checking statistic of each of ``rows`` against the clean set without that row.

    The clean set is one more subset, scored from the Gram matrix like
    the sweep's: with R = K 1_c, a row outside it has q = <R, 1_c> and
    g = R_i over s = |c|; a member leaves itself out, so its q loses
    2 R_i - K_ii, its g loses K_ii and its s is |c| - 1.
    """
    K = Z.gram
    w = np.zeros(Z.n)
    w[clean] = 1.0
    R = K @ w
    K_ii = K.diagonal()[rows]
    inside = w[rows]
    q = R @ w - inside * (2.0 * R[rows] - K_ii)
    return _scores(q, R[rows] - inside * K_ii, K_ii, clean.size - inside, Z.p)


def checking_step(Z: InfluenceMatrix, S_c, alpha0: float = 0.05) -> DetectionReport:
    """Test every observation outside the clean set against it.

    The statistic for suspect i is n_c^2 * D_i = p^{-1} || Z_i - mean over
    the clean set ||^2 with n_c = |S_c| + 1; chi-square(1) p-values go
    through BH at alpha0. An empty suspect set reports no influentials.
    """
    clean = np.unique(np.asarray(S_c, dtype=np.int64))
    if clean.size == 0:
        raise ValueError("clean set must be non-empty")
    if clean[0] < 0 or clean[-1] >= Z.n:
        raise ValueError("clean set index out of range")
    suspects = np.setdiff1d(np.arange(Z.n, dtype=np.int64), clean)

    records = report_records(Z.n)
    if suspects.size:
        stats = _checking_stats(Z, clean, suspects)
        pvals = chi2_1_sf_vec(stats)
        records.influential[suspects[bh_select(pvals, alpha0).rejected]] = True
        records.checking_stat[suspects] = stats
        records.statistic[suspects] = stats
        records.p_value[suspects] = pvals
    return DetectionReport(method="checking", records=records, clean_set=clean)


def checking_statistics_all(Z: InfluenceMatrix, S_c) -> np.ndarray:
    """Checking statistic for every observation, clean members included.

    Members of the clean set are tested against the clean set minus
    themselves (reference size |S_c| - 1), outsiders against the full
    clean set; used for figure-style p-value exports.
    """
    clean = np.unique(np.asarray(S_c, dtype=np.int64))
    if clean.size < 2:
        raise ValueError("need at least two clean observations")
    return _checking_stats(Z, clean, np.arange(Z.n))


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def mip_detect(d: Dataset, cfg: MipConfig = MipConfig()) -> DetectionReport:
    """Full pipeline: standardize, estimate a clean set, check suspects."""
    Z = standardize(d, cfg.estimator)
    cs = min_max_clean_set(Z, cfg)
    report = checking_step(Z, cs.clean, cfg.alpha0)

    report.method = "mip"
    report.config = cfg.echo()
    report.rounds_used = cs.rounds_used
    report.hit_iteration_cap = cs.hit_iteration_cap
    report.removed = cs.removed
    report.records.t_min = cs.first_t_min
    report.records.t_max = cs.first_t_max
    return report


def max_detect(Z: InfluenceMatrix, cfg: MipConfig = MipConfig()) -> DetectionReport:
    """Single-pass detector on T_max with BH at alpha0."""
    _check_sample_size(Z.n, cfg.k_sub)
    t_min, t_max = _sweep(Z, np.arange(Z.n), cfg, 0, 1)
    pvals = chi2_1_sf_vec(t_max)
    records = report_records(
        Z.n, bh_select(pvals, cfg.alpha0).rejected,
        p_value=pvals, statistic=t_max, t_min=t_min, t_max=t_max,
    )
    return DetectionReport(method="max", records=records, config=cfg.echo(), rounds_used=1)


def min_multiround_detect(Z: InfluenceMatrix, cfg: MipConfig = MipConfig()) -> DetectionReport:
    """Repeated T_min rounds, removing BH rejections until a round is quiet.

    The union of removals across rounds is the influential set; the
    expected false positive rate is bounded by alpha0 / (1 - alpha0).
    """
    n = Z.n
    U = np.arange(n, dtype=np.int64)
    flagged: list[int] = []
    first_t_min = first_t_max = first_p = None

    _check_sample_size(n, cfg.k_sub)
    for round_no in range(1, cfg.max_rounds + 1):
        t_min, t_max = _sweep(Z, U, cfg, round_no - 1, round_no)
        pvals = chi2_1_sf_vec(t_min)
        if first_t_min is None:
            first_t_min, first_t_max, first_p = t_min, t_max, pvals
        hits = np.sort(bh_select(pvals, cfg.alpha0).rejected)
        if hits.size == 0:
            break
        flagged.extend(U[hits].tolist())
        U = np.delete(U, hits)

    records = report_records(
        n, flagged, p_value=first_p, statistic=first_t_min, t_min=first_t_min, t_max=first_t_max
    )
    return DetectionReport(
        method="min",
        records=records,
        config=cfg.echo(),
        rounds_used=round_no,
        hit_iteration_cap=hits.size > 0,  # the last round still rejected
    )

"""Random group deletion: subset plans and the min/max subset statistics.

For a target observation k and a subset A_r of the other active
observations, the group statistic is

    n_sub^2 * D_{r,k} = p^{-1} * || mean_{t in A_r} Z_t - Z_k ||^2

where |A_r| = n_sub - 1. T_min and T_max for k are the extremes of that
statistic over m independently drawn subsets; under the null both are
asymptotically chi-square(1).

One draw: every subset comes from a counter-based Philox stream keyed by
(master seed, target, round, subset id), so any plan can be regenerated
in isolation and results never depend on evaluation order or worker
count. Each stream yields one uniform per eligible observation and the
subset is the n_sub - 1 smallest keys, which is a uniform
without-replacement sample. ``_draw`` is the only place that happens.

Two column-sum sources: the private mode draws m subsets per target
from the target's own streams and sums them with one indicator-matrix
product per block of targets; the shared mode draws one pool from a
reserved target slot, sums it once, and gives each target the first m
pooled subsets that exclude it (a target the pool cannot serve uses its
private sums).

One kernel: ``_group_stats`` turns either source's sums into the
statistics.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .robust_stats import InfluenceMatrix

_KEY_K_BITS = 24
_KEY_ROUND_BITS = 20
_KEY_R_BITS = 20
# target slot reserved for pooled draws in shared-subsets mode
_SHARED_KEY_SLOT = (1 << _KEY_K_BITS) - 1

# pooled draws per working set in shared-subsets mode, relative to m;
# roughly half of them exclude any given target when k_sub = 1/2
_SHARED_OVERDRAW = 2.5


def _stream_key(seed: int, k: int, round_id: int, r: int) -> int:
    """Pack (seed, target, round, subset id) into one 128-bit Philox key."""
    if not 0 <= k <= _SHARED_KEY_SLOT:
        raise ValueError("target index does not fit the stream key layout")
    if not 0 <= round_id < (1 << _KEY_ROUND_BITS):
        raise ValueError("round id does not fit the stream key layout")
    if not 0 <= r < (1 << _KEY_R_BITS):
        raise ValueError("subset id does not fit the stream key layout")
    low = (k << (_KEY_ROUND_BITS + _KEY_R_BITS)) | (round_id << _KEY_R_BITS) | r
    return ((int(seed) & 0xFFFFFFFFFFFFFFFF) << 64) | low


def _uniform_rows(seed: int, keys, round_id: int, m: int, width: int) -> np.ndarray:
    """One row of uniforms per (target key, subset id), each from its own stream.

    Rows are ordered key-major. A Philox stream is fixed by its key alone,
    so one bit generator per call is re-keyed for every row instead of
    building a new one; it is local to the call because sweep blocks run
    on a thread pool.
    """
    bg = np.random.Philox(0)
    gen = np.random.Generator(bg)
    state = bg.state
    # every row starts a fresh stream: empty output buffer, no cached half-word
    state["buffer_pos"] = 4
    state["has_uint32"] = 0
    u = np.empty((len(keys) * m, width))
    row = 0
    for k in keys:
        for r in range(m):
            key = _stream_key(seed, int(k), round_id, r)
            state["state"] = {"counter": [0, 0, 0, 0], "key": [key & 0xFFFFFFFFFFFFFFFF, key >> 64]}
            bg.state = state
            gen.random(out=u[row])
            row += 1
    return u


def _draw(seed: int, keys, round_id: int, m: int, width: int, s: int) -> np.ndarray:
    """(len(keys) * m, s) positions in range(width), one unsorted subset per row."""
    u = _uniform_rows(seed, keys, round_id, m, width)
    return np.argpartition(u, s - 1, axis=1)[:, :s]


def _indicator(cols: np.ndarray, width: int) -> np.ndarray:
    """0/1 matrix with a one at (row, cols[row, j]) for every j."""
    W = np.zeros((cols.shape[0], width))
    W[np.arange(cols.shape[0])[:, None], cols] = 1.0
    return W


def subset_size(n_active: int, k_sub: float) -> int:
    """Subset size n_sub = floor(k_sub * n_active) + 1."""
    if not 0.0 < k_sub < 1.0:
        raise ValueError("k_sub must be in (0, 1)")
    if n_active < 2:
        raise ValueError("need at least two active observations")
    return int(math.floor(k_sub * n_active)) + 1


# ---------------------------------------------------------------------------
# subset plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetPlan:
    """m random subsets for one target observation.

    ``subsets`` is an (m, n_sub - 1) array of global row indices, each row
    sorted, none containing the target. The plan is a pure function of
    (active set, target, m, n_sub, master_seed, round_id).
    """

    k: int
    subsets: np.ndarray
    master_seed: int
    round_id: int

    @property
    def m(self) -> int:
        return self.subsets.shape[0]

    @property
    def n_sub(self) -> int:
        return self.subsets.shape[1] + 1


def draw_subsets(active, k: int, m: int, n_sub: int, seed: int, round_id: int = 0) -> SubsetPlan:
    """Draw m uniform without-replacement subsets of active minus {k}.

    Each subset has n_sub - 1 distinct indices; subsets are independent
    across r (replacement across draws). Deterministic given
    (seed, k, round_id).
    """
    av = np.unique(np.asarray(active, dtype=np.int64))
    pos = int(np.searchsorted(av, k))
    if pos >= av.size or av[pos] != k:
        raise ValueError("target must belong to the active set")
    eligible = np.delete(av, pos)
    if m < 1:
        raise ValueError("need at least one subset")
    s = n_sub - 1
    if not 1 <= s <= eligible.size:
        raise ValueError(
            f"subset size {s} impossible with {eligible.size} eligible observations"
        )
    pick = np.sort(_draw(seed, [k], round_id, m, eligible.size, s), axis=1)
    return SubsetPlan(
        k=int(k), subsets=eligible[pick], master_seed=int(seed), round_id=int(round_id)
    )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def group_statistic(Z: InfluenceMatrix, A_r, k: int, n_sub: int) -> float:
    """Group-deletion statistic n_sub^2 * D_{r,k} for one subset.

    Computed in the incremental form p^{-1} || colsum(A_r)/(n_sub-1) - Z_k ||^2,
    which is algebraically identical to comparing the marginal-correlation
    estimates with and without the target.
    """
    idx = np.asarray(A_r, dtype=np.int64)
    if n_sub < 2 or idx.size != n_sub - 1:
        raise ValueError("subset must have n_sub - 1 indices")
    if np.unique(idx).size != idx.size:
        raise ValueError("subset indices must be distinct")
    if (idx == k).any():
        raise ValueError("subset must not contain the target")
    if not (0 <= k < Z.n):
        raise ValueError("target index out of range")
    diff = Z.Z[idx].sum(axis=0) / (n_sub - 1) - Z.Z[k]
    return float(np.mean(diff * diff))


def _chunk_targets(m: int, p: int) -> int:
    # bounds the (targets*m, p) work buffer near 32 MB
    return max(1, min(64, 4_000_000 // max(1, m * p)))


def _private_sums(Zu, av, positions, m, s, seed, round_id) -> np.ndarray:
    """(len(positions) * m, p) column sums of each target's own m subsets."""
    pick = _draw(seed, av[positions], round_id, m, Zu.shape[0] - 1, s)
    # eligible position q maps to working-set position q + (q >= target)
    tpos = np.repeat(positions, m)
    return _indicator(pick + (pick >= tpos[:, None]), Zu.shape[0]) @ Zu


def _group_stats(sums: np.ndarray, Zk: np.ndarray, s: int) -> np.ndarray:
    """(nk, m) group statistics from (nk * m, p) subset sums and (nk, p) target rows.

    Works in place on ``sums`` and uses the squared-difference form
    directly (no cross-term expansion), so near-zero values keep full
    precision.
    """
    nk, p = Zk.shape
    group = sums.reshape(nk, -1, p)
    group *= 1.0 / s
    group -= Zk[:, None, :]
    stats = np.einsum("abj,abj->ab", group, group)
    stats /= p
    return stats


def min_max_sweep(
    Z: InfluenceMatrix,
    active,
    m: int,
    n_sub: int,
    seed: int,
    round_id: int,
    *,
    targets=None,
    threads: int | None = None,
    shared: bool = False,
):
    """T_min and T_max for every target in one pass over a working set.

    Returns (t_min, t_max) aligned with the sorted active set (or with
    ``targets`` when given).
    Output is a pure function of the arguments: thread count and chunking
    never change a bit. Private sweeps run in blocks of targets, on
    ``threads`` workers; shared sweeps serve one target at a time.
    """
    av = np.unique(np.asarray(active, dtype=np.int64))
    n_U = av.size
    s = n_sub - 1
    if not 1 <= s <= n_U - 1:
        raise ValueError("subset size out of range for this working set")
    Zu = np.ascontiguousarray(Z.Z[av])

    if targets is None:
        positions = np.arange(n_U)
    else:
        positions = np.searchsorted(av, np.asarray(targets, dtype=np.int64))
        if (positions >= n_U).any() or (av[positions] != targets).any():
            raise ValueError("targets must belong to the active set")

    nt = positions.size
    t_min = np.empty(nt)
    t_max = np.empty(nt)

    def emit(lo, hi, sums):
        stats = _group_stats(sums, Zu[positions[lo:hi]], s)
        t_min[lo:hi] = stats.min(axis=1)
        t_max[lo:hi] = stats.max(axis=1)

    def private_block(lo, hi):
        emit(lo, hi, _private_sums(Zu, av, positions[lo:hi], m, s, seed, round_id))

    if shared:
        M = int(math.ceil(_SHARED_OVERDRAW * m))
        member = _indicator(_draw(seed, [_SHARED_KEY_SLOT], round_id, M, n_U, s), n_U)
        pooled = member @ Zu
        for j in range(nt):
            usable = np.flatnonzero(member[:, positions[j]] == 0.0)
            if usable.size >= m:
                emit(j, j + 1, pooled[usable[:m]])
            else:
                private_block(j, j + 1)
        return t_min, t_max

    chunk = _chunk_targets(m, Zu.shape[1])
    blocks = [(lo, min(lo + chunk, nt)) for lo in range(0, nt, chunk)]
    if threads and threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: private_block(*b), blocks))
    else:
        for b in blocks:
            private_block(*b)
    return t_min, t_max

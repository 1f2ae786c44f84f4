"""Random group deletion: subset plans and the min/max subset statistics.

For a target observation k and a subset A_r of the other active
observations, the group statistic is

    n_sub^2 * D_{r,k} = p^{-1} * || mean_{t in A_r} Z_t - Z_k ||^2

where |A_r| = s = n_sub - 1. T_min and T_max for k are the extremes of
that statistic over m independently drawn subsets; under the null both
are asymptotically chi-square(1).

One draw: every subset comes from a counter-based Philox stream keyed by
(master seed, target, round, subset id), so any plan can be regenerated
in isolation and results never depend on evaluation order or worker
count. Each stream yields one uniform per eligible observation and the
subset is the s smallest keys, which is a uniform without-replacement
sample. ``_draw`` is the only place that happens.

One kernel: with q the squared norm of a subset's column sum and g its
inner product with Z_k, the statistic is p^{-1} (q/s^2 - 2g/s + K_kk) with
K = Z_U Z_U^T, so a subset costs O(n_U), not O(p), once inner products
exist (``_scores``). Private draws take q = <R_r, W_r> and g = R[r, k]
from R = W @ K over their indicator rows W. The shared pool, drawn once
from a reserved target slot, takes C = member @ Z_U, G = C @ Z_U^T and
q = ||C_r||^2 in a few BLAS calls; each target scores the first m pooled
subsets that exclude it, or its private draws if the pool has too few.
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


def _draw(seed: int, keys, round_id: int, m: int, width: int, s: int) -> np.ndarray:
    """(len(keys) * m, s) positions in range(width), one unsorted subset per row.

    Row r of key k holds the s smallest of ``width`` uniforms from stream
    (seed, k, round_id, r); rows are ordered key-major. A Philox stream is
    fixed by its key alone, so one bit generator per call is re-keyed for
    every row instead of building a new one; it is local to the call
    because sweep blocks run on a thread pool.
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


def _chunk_targets(m: int, n_U: int) -> int:
    # each of a worker's (targets*m, n_U) buffers (uniforms, partition indices,
    # shifted picks, W, R) stays near 4 MB
    return max(1, min(64, 500_000 // max(1, m * n_U)))


def _scores(q: np.ndarray, g: np.ndarray, K_kk, s: int, p: int) -> np.ndarray:
    """p^{-1} (q/s^2 - 2g/s + K_kk): a squared norm, so round-off below 0 is clamped."""
    stats = (q / s - 2.0 * g) / s + K_kk
    np.maximum(stats, 0.0, out=stats)
    stats /= p
    return stats


def _private_stats(K, av, positions, m, s, seed, round_id, p) -> np.ndarray:
    """(len(positions), m) statistics of each target's own m subsets."""
    nt, n_U = positions.size, K.shape[0]
    pick = _draw(seed, av[positions], round_id, m, n_U - 1, s)
    # eligible position q maps to working-set position q + (q >= target)
    tpos = np.repeat(positions, m)
    pick += pick >= tpos[:, None]
    W = _indicator(pick, n_U)
    # one product per target, so a target's bits never depend on its block
    R = (W.reshape(nt, m, n_U) @ K).reshape(nt * m, n_U)
    q = np.einsum("ij,ij->i", R, W)
    return _scores(q, R[np.arange(nt * m), tpos], K.diagonal()[tpos], s, p).reshape(nt, m)


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
    never change a bit. Private draws are scored in blocks of targets, on
    ``threads`` workers; the shared pool is scored on the calling thread.
    """
    av = np.unique(np.asarray(active, dtype=np.int64))
    n_U = av.size
    s = n_sub - 1
    if not 1 <= s <= n_U - 1:
        raise ValueError("subset size out of range for this working set")
    Zu = np.ascontiguousarray(Z.Z[av])
    p = Zu.shape[1]

    if targets is None:
        positions = np.arange(n_U)
    else:
        positions = np.searchsorted(av, np.asarray(targets, dtype=np.int64))
        if (positions >= n_U).any() or (av[positions] != targets).any():
            raise ValueError("targets must belong to the active set")

    nt = positions.size
    t_min, t_max = np.empty(nt), np.empty(nt)

    def emit(idx, stats):
        t_min[idx] = stats.min(axis=1)
        t_max[idx] = stats.max(axis=1)

    private = np.arange(nt)
    if shared:
        M = int(math.ceil(_SHARED_OVERDRAW * m))
        member = _indicator(_draw(seed, [_SHARED_KEY_SLOT], round_id, M, n_U, s), n_U)
        avail = member[:, positions] == 0.0
        C = member @ Zu
        del member  # free each pooled buffer once its products are taken
        q = np.einsum("ij,ij->i", C, C)
        G = C @ Zu.T
        del C
        # rank each target's usable (excluding) pooled rows; serve those with m
        rank = np.cumsum(avail, axis=0)
        served = rank[-1] >= m
        rows = np.nonzero((avail & (rank <= m))[:, served].T)[1].reshape(-1, m)
        ps = positions[served][:, None]
        K_kk = np.einsum("ij,ij->i", Zu, Zu)[ps]
        emit(np.flatnonzero(served), _scores(q[rows], G[rows, ps], K_kk, s, p))
        private = np.flatnonzero(~served)
    K = Zu @ Zu.T if private.size else None

    def private_block(idx):
        emit(idx, _private_stats(K, av, positions[idx], m, s, seed, round_id, p))

    chunk = _chunk_targets(m, n_U)
    blocks = [private[lo:lo + chunk] for lo in range(0, private.size, chunk)]
    if threads and threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(private_block, blocks))
    else:
        for b in blocks:
            private_block(b)
    return t_min, t_max

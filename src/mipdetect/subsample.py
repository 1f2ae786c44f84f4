"""Random group deletion: subset draws and the min/max subset statistics.

For a target observation k and a subset A_r of the other active
observations, the group statistic is

    n_sub^2 * D_{r,k} = p^{-1} * || mean_{t in A_r} Z_t - Z_k ||^2

where |A_r| = s = n_sub - 1. T_min and T_max for k are the extremes of
that statistic over m independently drawn subsets; under the null both
are asymptotically chi-square(1).

One draw: every subset comes from a counter-based Philox stream keyed by
(master seed, target, round, subset id), so any subset can be regenerated
in isolation and results never depend on evaluation order or worker
count. Each stream yields one uniform per eligible observation and the
subset is the s smallest keys, which is a uniform without-replacement
sample. ``_uniforms`` draws keys and ``_indicators`` selects subsets.

One kernel: with q the squared norm of a subset's column sum and g its
inner product with Z_k, the statistic is p^{-1} (q/s^2 - 2g/s + K_kk) with
K = Z Z^T, so a subset costs O(n_U), not O(p), once K exists (``_scores``).
K is formed once per sample (``InfluenceMatrix.gram``) and a sweep takes
the working set's block K_U of it. Private draws and the shared pool both
score 0/1 indicator rows W against K_U (``_subset_scores``): R = W @ K_U,
q = <R_r, W_r> and g = R[r, k]. They differ only in where the rows come
from: m streams of the target's own, or one pool drawn from a reserved
target slot, of which each target scores the first m subsets that exclude
it, or its private draws if the pool has too few. Private blocks are drawn
and scored one after another on the caller, small ones on one OpenBLAS
thread; K and the pool keep the caller's threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from pathlib import Path

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


class _OneBlasThread:
    """OpenBLAS on one thread inside ``with``; a no-op without NumPy's bundled OpenBLAS symbols.

    The count is process-wide: entries nest across threads and the last exit restores it.
    """

    lock, depth, saved, calls = threading.Lock(), 0, 0, None

    def __enter__(self):
        with self.lock:
            if self.calls is None:
                libs = Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*.so")
                try:
                    lib = ctypes.CDLL(str(next(libs)))
                    self.calls = (lib.scipy_openblas_get_num_threads64_,
                                  lib.scipy_openblas_set_num_threads64_)
                except (StopIteration, OSError, AttributeError):
                    self.calls = ()
            if self.depth == 0 and self.calls:
                self.saved = self.calls[0]()
                self.calls[1](1)
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            if self.depth == 0 and self.calls:
                self.calls[1](self.saved)


_one_blas_thread = _OneBlasThread()


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


def _uniforms(seed: int, keys, round_id: int, m: int, width: int, spare: int = 0) -> np.ndarray:
    """(len(keys) * m, width + spare) buffer of uniforms, key-major, spare columns unset.

    Row r of key k opens with ``width`` uniforms of stream (seed, k, round_id, r). One bit
    generator is re-keyed per row through a dict of plain lists, which the setter reads fastest.
    """
    # subset ids run 0..m-1, so the last one's key range-checks every row of k
    lows = [_stream_key(seed, int(k), round_id, m - 1) % (1 << 64) - (m - 1) for k in keys]
    bg = np.random.Philox(0)
    gen = np.random.Generator(bg)
    key = [0, int(seed) % (1 << 64)]
    # every row starts a fresh stream: zero counter, empty buffer, no cached half-word
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    u = np.empty((len(keys) * m, width + spare))
    rows = iter(u[:, :width])
    for low in lows:
        for r in range(m):
            key[0] = low + r
            bg.state = state
            gen.random(out=next(rows))
    return u


def _indicators(u: np.ndarray, s: int, skip=None) -> np.ndarray:
    """Overwrite u with 0/1 rows marking each row's s smallest uniforms.

    Those are at or below the s-th smallest (one partition pivot), or argpartition's pick if
    tied there. With ``skip``, a target position per block of rows, u's last column is spare
    and each block's marks move right past its target, whose column gets 0.
    """
    x = u if skip is None else u[:, :-1]
    sel = x <= np.partition(x, s - 1, axis=1)[:, s - 1 : s]
    tied = np.flatnonzero(np.count_nonzero(sel, axis=1) != s)
    sel[tied] = False
    sel[tied[:, None], np.argpartition(x[tied], s - 1, axis=1)[:, :s]] = True
    if skip is None:
        u[...] = sel
        return u
    t = np.repeat(skip, len(u) // len(skip))
    cols = np.arange(x.shape[1])
    np.copyto(u[:, :-1], sel, where=cols < t[:, None])
    np.copyto(u[:, 1:], sel, where=cols >= t[:, None])
    u[np.arange(len(u)), t] = 0.0
    return u


def subset_size(n_active: int, k_sub: float) -> int:
    """Subset size n_sub = floor(k_sub * n_active) + 1."""
    if not 0.0 < k_sub < 1.0:
        raise ValueError("k_sub must be in (0, 1)")
    if n_active < 2:
        raise ValueError("need at least two active observations")
    return int(math.floor(k_sub * n_active)) + 1


def draw_subsets(active, k: int, m: int, n_sub: int, seed: int, round_id: int = 0) -> np.ndarray:
    """Draw m uniform without-replacement subsets of active minus {k}.

    Returns an (m, n_sub - 1) array of global row indices, each row
    sorted, none containing k; subsets are independent across rows
    (replacement across draws). Deterministic given (seed, k, round_id).
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
        raise ValueError(f"subset size {s} impossible with {eligible.size} eligible observations")
    W = _indicators(_uniforms(seed, [k], round_id, m, eligible.size), s)
    return eligible[np.nonzero(W)[1].reshape(m, s)]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def _scores(q: np.ndarray, g: np.ndarray, K_kk, s: int, p: int) -> np.ndarray:
    """p^{-1} (q/s^2 - 2g/s + K_kk): a squared norm, so round-off below 0 is clamped."""
    stats = (q / s - 2.0 * g) / s + K_kk
    np.maximum(stats, 0.0, out=stats)
    stats /= p
    return stats


def _subset_scores(W, K, batch, rows, targets, s, p) -> np.ndarray:
    """Statistics of the indicator rows ``W[rows[i]]`` against target position ``targets[i]``.

    R = W @ K is taken ``batch`` rows per product, so that a row's bits
    never depend on the block it is scored in. The result has the shape
    of ``rows``.
    """
    R = (W.reshape(-1, batch, W.shape[1]) @ K).reshape(W.shape)
    q = np.einsum("ij,ij->i", R, W)
    r, k = rows.ravel(), np.repeat(targets, rows.shape[1])
    return _scores(q[r], R[r, k], K.diagonal()[k], s, p).reshape(rows.shape)


def min_max_sweep(
    Z: InfluenceMatrix,
    active,
    m: int,
    n_sub: int,
    seed: int,
    round_id: int,
    *,
    targets=None,
    shared: bool = False,
):
    """T_min and T_max for every target in one pass over a working set.

    Returns (t_min, t_max) aligned with the sorted active set (or with
    ``targets`` when given).
    Output is a pure function of the arguments: how targets are split into
    blocks never changes a bit. Private blocks are drawn and scored in turn
    on the caller, those with m * n_U^2 <= 4e6 on one OpenBLAS thread where
    NumPy bundles it; at large n, other blocks, the pool and K may take bits
    from OPENBLAS_NUM_THREADS.
    """
    av = np.unique(np.asarray(active, dtype=np.int64))
    n_U = av.size
    s = n_sub - 1
    if not 1 <= s <= n_U - 1:
        raise ValueError("subset size out of range for this working set")
    K = Z.gram if av[0] == 0 and av[-1] == n_U - 1 == Z.n - 1 else Z.gram[np.ix_(av, av)]

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
        member = _indicators(_uniforms(seed, [_SHARED_KEY_SLOT], round_id, M, n_U), s)
        # rank each target's usable (excluding) pooled rows; serve those with m
        avail = member[:, positions] == 0.0
        rank = np.cumsum(avail, axis=0)
        served = rank[-1] >= m
        rows = np.nonzero((avail & (rank <= m))[:, served].T)[1].reshape(-1, m)
        stats = _subset_scores(member, K, M, rows, positions[served], s, Z.p)
        emit(np.flatnonzero(served), stats)
        private = np.flatnonzero(~served)

    # one BLAS thread pays on small products only: from n_U = 300 (m = 100) it costs wall time
    pin = _one_blas_thread if m * n_U * n_U <= 4_000_000 else contextlib.nullcontext()

    # a block's (targets*m, n_U) buffers (uniforms then W, their partition, R) stay near 4 MB
    chunk = max(1, min(64, 500_000 // max(1, m * n_U)))
    for lo in range(0, private.size, chunk):
        idx = private[lo:lo + chunk]
        tpos = positions[idx]
        u = _uniforms(seed, av[tpos], round_id, m, n_U - 1, 1)
        rows = np.arange(idx.size * m).reshape(-1, m)
        with pin:
            emit(idx, _subset_scores(_indicators(u, s, skip=tpos), K, m, rows, tpos, s, Z.p))
    return t_min, t_max

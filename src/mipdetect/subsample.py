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
the working set's block K_U of it, then scores every observation of the
set. Private draws and the shared pool both score 0/1 indicator rows W
against K_U: R = W @ K_U, q = <R_r, W_r> and g = R[r, k]. They differ in
where the rows come from: m streams of the target's own, or one pool of
ceil(2.5 m) subsets drawn from a reserved target slot, of which each
target scores the first m that exclude it, or its private draws if the
pool has too few. ``subset_ids`` is where a sweep's subset-id count is
checked against the key's 20-bit field. The pool is scored in fixed
128-row panels (``_pool_extremes``), each on one OpenBLAS thread, spread
over the CPUs like K's panels: a panel forms its rows of R, scores them
in place and keeps each target's extremes over its usable rows, so no
bit follows the BLAS thread count (a pool of one panel is one call on
the caller's BLAS threads). Private blocks hold m consecutive rows per
target (``_subset_extremes``), drawn and scored one after another on the
caller, in three buffers of about 1 MB (``_BLOCK_FLOATS``) allocated
once per sweep, small ones on one OpenBLAS thread; larger ones keep the
caller's BLAS threads, and at large n their bits may follow the thread
count.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .robust_stats import InfluenceMatrix, _one_blas_thread, _spread

_KEY_K_BITS = 24
_KEY_ROUND_BITS = 20
_KEY_R_BITS = 20
# target slot reserved for pooled draws in shared-subsets mode
_SHARED_KEY_SLOT = (1 << _KEY_K_BITS) - 1

# pooled draws per working set in shared-subsets mode, relative to m;
# roughly half of them exclude any given target when k_sub = 1/2
_SHARED_OVERDRAW = 2.5

# rows of the pool per product; the products are spread over the CPUs on one BLAS thread each
_POOL_PANEL = 128

# float64 per private-block buffer (uniforms then W, their partition, R), about 1 MB;
# a block holds as many targets as fit, and at least one. Blocks of one target took
# the first sweep at n = 100, p = 1000 from 39 to 47 ms.
_BLOCK_FLOATS = 125_000


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


def _uniforms(seed: int, keys, round_id: int, m: int, width: int, spare: int = 0,
              out=None) -> np.ndarray:
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
    u = np.empty((len(keys) * m, width + spare)) if out is None else out
    rows = iter(u[:, :width])
    for low in lows:
        for r in range(m):
            key[0] = low + r
            bg.state = state
            gen.random(out=next(rows))
    return u


def _indicators(u: np.ndarray, s: int, skip=None, scratch=None) -> np.ndarray:
    """Overwrite u with 0/1 rows marking each row's s smallest uniforms.

    Those are at or below the s-th smallest (one partition pivot, found in a copy of the
    uniforms: ``scratch`` if given), or argpartition's pick if tied there. With ``skip``, a
    target position per block of rows, u's last column is spare and each block's marks move
    right past its target, whose column gets 0.
    """
    x = u if skip is None else u[:, :-1]
    part = np.empty(x.shape) if scratch is None else scratch
    np.copyto(part, x)
    part.partition(s - 1, axis=1)
    sel = x <= part[:, s - 1 : s]
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


def _distinct(a) -> np.ndarray:
    """``np.unique`` of an int64 array by sort and adjacent compare; np.unique imports numpy.ma."""
    a = np.sort(np.asarray(a, dtype=np.int64), axis=None)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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
    av = _distinct(active)
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


def _scores(q: np.ndarray, g: np.ndarray, K_kk, s: int, p: int, out=None) -> np.ndarray:
    """p^{-1} (q/s^2 - 2g/s + K_kk): a squared norm, so round-off below 0 is clamped."""
    stats = np.subtract(q / s, np.multiply(2.0, g, out=out), out=out)
    stats /= s
    stats += K_kk
    np.maximum(stats, 0.0, out=stats)
    stats /= p
    return stats


def _subset_extremes(W, R, K, targets, s, p) -> np.ndarray:
    """Rows T_min, T_max of a private block: target ``targets[i]`` scores rows i*m..(i+1)*m-1.

    R is W @ K in products of m rows, so a row's bits never depend on its block.
    """
    q = np.einsum("ij,ij->i", R, W).reshape(targets.size, -1)
    g = R.reshape(targets.size, -1, R.shape[1])[np.arange(targets.size), :, targets]
    stats = _scores(q, g, K.diagonal()[targets, None], s, p, out=g)
    return np.stack((stats.min(axis=1), stats.max(axis=1)))


def _pool_extremes(member, usable, K, s, p) -> np.ndarray:
    """Rows T_min, T_max of each column over the pooled rows that ``usable`` marks.

    Each fixed ``_POOL_PANEL``-row panel, spread over the CPUs (``_spread``), forms its
    rows of R = member @ K, scores them in place and keeps each column's extremes over
    its usable rows; extremes are exact, so no bit depends on the panels.
    """
    lows = range(0, len(member), _POOL_PANEL)
    R, ext = np.empty(member.shape), np.empty((len(lows), 2, member.shape[1]))
    gate = np.copysign(np.inf, usable - 0.5)  # min with it sends the unusable to -inf

    def panel(i):
        rows = slice(lows[i], lows[i] + _POOL_PANEL)
        W, stats, g = member[rows], R[rows], gate[rows]
        np.matmul(W, K, out=stats)
        _scores(np.einsum("ij,ij->i", stats, W)[:, None], stats, K.diagonal(), s, p, out=stats)
        np.minimum(stats, g, out=stats).max(axis=0, out=ext[i, 1])
        np.maximum(stats, np.negative(g, out=g), out=stats).min(axis=0, out=ext[i, 0])

    _spread(panel, range(len(lows)))
    return np.stack((ext[:, 0].min(axis=0), ext[:, 1].max(axis=0)))


def subset_ids(m: int, shared: bool) -> int:
    """A sweep's subset ids per stream, m or the pool's; ValueError past the key's field."""
    ids = math.ceil(_SHARED_OVERDRAW * m) if shared else m
    if ids > 1 << _KEY_R_BITS:
        raise ValueError(f"m = {m} needs {ids} subset ids per stream; "
                         f"the stream key holds {1 << _KEY_R_BITS}")
    return ids


def min_max_sweep(
    Z: InfluenceMatrix,
    active,
    m: int,
    n_sub: int,
    seed: int,
    round_id: int,
    *,
    shared: bool = False,
):
    """T_min and T_max of every observation of a working set, in one pass.

    Returns (t_min, t_max) aligned with the sorted active set.
    Output is a pure function of the arguments: how targets are split into
    blocks never changes a bit. Private blocks are drawn and scored in turn
    on the caller, in three buffers of about 1 MB (one target's m rows if
    larger) allocated once per sweep and reused by every block, on one OpenBLAS
    thread where NumPy bundles it if m * n_U^2 <= 4e6; larger private blocks
    may take bits from OPENBLAS_NUM_THREADS. K and the pool do only where
    they are a single panel (n <= 256, M <= 128), one call as before.
    """
    av = _distinct(active)
    n_U = av.size
    s = n_sub - 1
    if not 1 <= s <= n_U - 1:
        raise ValueError("subset size out of range for this working set")
    M = subset_ids(m, shared)
    K = Z.gram if av[0] == 0 and av[-1] == n_U - 1 == Z.n - 1 else Z.gram.take(av, 0).take(av, 1)
    t = np.empty((2, n_U))  # T_min, T_max
    private = np.arange(n_U)
    if shared:
        member = _indicators(_uniforms(seed, [_SHARED_KEY_SLOT], round_id, M, n_U), s)
        # each target scores the first m pooled rows that exclude it, if there are m
        rank = np.cumsum(member == 0.0, axis=0, dtype=np.int32)
        served = rank[-1] >= m
        private = np.flatnonzero(~served)
        t[:, served] = _pool_extremes(member, (member == 0.0) & (rank <= m), K, s, Z.p)[:, served]

    # one BLAS thread pays on small products only: from n_U = 300 (m = 100) it costs wall time
    pin = _one_blas_thread if m * n_U * n_U <= 4_000_000 else contextlib.nullcontext()

    if not private.size:
        return t[0], t[1]
    chunk = min(private.size, max(1, _BLOCK_FLOATS // (m * n_U)))
    u, R = np.empty((chunk * m, n_U)), np.empty((chunk * m, n_U))
    part = np.empty((chunk * m, n_U - 1))
    for lo in range(0, private.size, chunk):
        idx = private[lo:lo + chunk]
        h = idx.size * m
        _uniforms(seed, av[idx], round_id, m, n_U - 1, 1, out=u[:h])
        W = _indicators(u[:h], s, skip=idx, scratch=part[:h])
        with pin:
            # m rows per product whatever the block holds, so a row's bits do not depend on it
            np.matmul(W.reshape(-1, m, n_U), K, out=R[:h].reshape(-1, m, n_U))
            t[:, idx] = _subset_extremes(W, R[:h], K, idx, s, Z.p)
    return t[0], t[1]

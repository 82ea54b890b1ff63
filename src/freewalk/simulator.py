"""Batch walk sampling, retrospective exit-time detection, renewal decomposition.

Sampling is driven by counter-based Philox streams keyed by
``(master_seed, stream_id)``: every walk owns its stream and consumes exactly
one uniform per step through cumulative-probability inversion, so results do
not depend on chunking, scheduling or worker count.  The batch kernel inverts
through the sorted distinct thresholds of all states at once: the count of
thresholds ``<= u``, the cell of ``u``, fixes every comparison with ``u``, so
a flat table indexed by the state's row offset (which the stack holds) plus
the cell gives the same move as inversion on the state's own row.

Exit times are detected retrospectively.  Writing ``c_t`` for the common
prefix length of consecutive states, the level-k candidate exit time is the
first ``m`` with ``||X_m|| = k`` and ``min(c_m, ..., c_{N-1}) >= k``; it is
confirmed only when it falls a buffer ``B`` before the horizon.  A confirmed
level-k word is by construction a prefix of every later state, so the final
stack of a batch walk carries all renewal words.  The candidate itself is
the last step that wrote stack depth ``k``: the batch kernel records that
time per depth next to the stack, and the batch decomposition reads every
exit time off the final write times without storing intermediate states.
The word-level reference in ``tests/reference_walk.py`` materializes every
state, computes the same times from whole words, and is what the batch path
is tested against; the hitting-frequency Monte Carlo there drives the same
step kernel, :func:`_step`, to cross-check the exit probabilities.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import POP, PUSH, CompiledKernel, WalkConfig, compile_kernel
from .genfun import GenFunContext

DEFAULT_BUFFER = 500
CHUNK_SIZE = 256  # walks stepped together in one chunk

# stream purposes keep seed spaces of different experiment roles disjoint;
# 1 and 5 are unused, 2 drives the hitting-frequency reference of the tests
# (``tests/reference_walk.py``), and the others keep their numbers so that
# no stream moves
PURPOSE_MAIN = 0
PURPOSE_GRID = 3
PURPOSE_POOL = 4

_MASK64 = (1 << 64) - 1


def stream_id(purpose: int, index: int) -> int:
    return (purpose << 32) | index


def stream_uniforms(
    master_seed: int, stream: int, n: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The uniform variates of one walk stream (Philox, 128-bit key)."""
    key = ((master_seed & _MASK64) << 64) | (stream & _MASK64)
    gen = np.random.Generator(np.random.Philox(key=key))
    if out is None:
        return gen.random(n)
    gen.random(out=out)
    return out


# -- batch simulation ----------------------------------------------------------


@dataclass
class BatchWalks:
    """Compact result of many walks: final stacks and per-depth write times.

    ``wtime[m, k]`` is the last step that wrote depth ``k`` of walk ``m``,
    which for ``k <= sp[m]`` is the level-k exit time; both arrays are zero
    above ``sp`` and have ``max(sp) + 1`` columns.
    """

    master_seed: int
    streams: np.ndarray
    n: int
    config_digest: str
    stacks: np.ndarray  # (M, max(sp) + 1) letter codes; column 0 is a root sentinel
    wtime: np.ndarray  # (M, max(sp) + 1) int32 step that last wrote each depth
    sp: np.ndarray  # (M,) final stack depth = ||X_n||

    @property
    def n_walks(self) -> int:
        return len(self.streams)

    def final_codes(self, m: int) -> np.ndarray:
        return self.stacks[m, 1 : int(self.sp[m]) + 1]


def default_workers() -> int:
    """Worker count from ``FREEWALK_WORKERS``, clamped to the core count."""
    try:
        requested = int(os.environ.get("FREEWALK_WORKERS", "1"))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


class _StepTables(NamedTuple):
    grid: np.ndarray  # sorted distinct thresholds of ``kernel.cum``
    up: np.ndarray  # write offset above the current depth: 1 for a push, else 0
    dsp: np.ndarray  # depth change: +1 push, 0 replace, -1 pop
    let: np.ndarray  # new letter as a row offset, ``code * (len(grid) + 1)`` (0 for a pop)


def _step_tables(kernel: CompiledKernel) -> _StepTables:
    """Flat step tables indexed by a row offset plus a cell ``g`` in ``0 .. len(grid)``.

    The cell of ``u`` (:func:`_cells`) fixes every comparison with ``u`` for
    all states at once.  Each cell is filled by inversion on ``cum[state]`` at
    its lowest point, hence a lookup picks the same move as inversion does.
    Every row ends at exactly 1, so the last cell, ``u >= grid[-1] >= 1``, is
    never reached by uniforms in ``[0, 1)``.  Tables and cells cost
    O(len(grid)) per state and per uniform; shipped configs have four.
    """
    cum = kernel.cum
    grid = np.unique(cum)
    lowest = np.concatenate(([-np.inf], grid))
    j = (lowest[None, :, None] < cum[:, None, :]).argmax(axis=2)
    states = np.arange(len(cum))[:, None]
    act = kernel.act[states, j].ravel()
    return _StepTables(
        grid=grid,
        up=(act == PUSH).astype(np.intp),
        dsp=(act == PUSH).astype(np.intp) - (act == POP),
        let=kernel.let[states, j].ravel().astype(np.intp) * len(lowest),
    )


def _cells(grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Grid cells of uniforms in ``[0, 1)``: the count of thresholds ``<= u``.

    Branch-free, unlike a binary search; ``grid[-1] >= 1`` is never reached.
    """
    g = np.zeros(u.shape, dtype=np.min_scalar_type(len(grid)))
    for c in grid[:-1]:
        g += u >= c
    return g


def _step(tables: _StepTables, sf, wf, pos, g, t) -> None:
    """Advance every walk by one step, in place, from its grid cell ``g``.

    ``sf`` and ``wf`` are flat views of the stack of row offsets and of the
    write times, and ``pos`` holds each walk's flat index of its current
    depth.  The new letter and the time ``t + 1`` go to depth ``max(old sp,
    new sp)``: for a push that is the new top, for a replace the current
    one, and a pop writes one cell above its new top, which nothing reads
    before a push overwrites it.
    """
    o = sf[pos] + g
    w = pos + tables.up[o]
    sf[w] = tables.let[o]
    wf[w] = t + 1
    pos += tables.dsp[o]


_FIRST_DEPTH = 64  # also the steps between two checks of the stack depth


def _simulate_chunk(tables, n, master_seed, streams):
    """Step one chunk of walks; arrays grow with the running maximum depth."""
    m = len(streams)
    u = np.empty((m, n))
    for i in range(m):
        stream_uniforms(master_seed, int(streams[i]), n, out=u[i])
    g = _cells(tables.grid, u)
    del u
    cap = min(n, _FIRST_DEPTH) + 1
    stack = np.zeros((m, cap), dtype=np.intp)
    wtime = np.zeros((m, cap), dtype=np.int32)  # n < 2**31: a chunk holds (m, n) cells
    sp = np.zeros(m, dtype=np.intp)
    for t0 in range(0, n, _FIRST_DEPTH):
        # depth rises by at most one per step, so the segment fits above the top
        if cap <= n and int(sp.max()) + _FIRST_DEPTH >= cap:
            cap = min(2 * cap, n + 1)
            stack = np.pad(stack, ((0, 0), (0, cap - stack.shape[1])))
            wtime = np.pad(wtime, ((0, 0), (0, cap - wtime.shape[1])))
        sf, wf = stack.reshape(-1), wtime.reshape(-1)
        base = np.arange(m) * cap
        pos = base + sp
        for t in range(t0, min(n, t0 + _FIRST_DEPTH)):
            _step(tables, sf, wf, pos, g[:, t], t)
        sp = pos - base
    width = int(sp.max()) + 1
    # a pop's last write lies above the final depth; correctness, not only
    # tidiness, needs these cells zeroed
    dead = np.arange(width) > sp[:, None]
    codes = np.where(dead, 0, stack[:, :width] // (len(tables.grid) + 1))
    return codes.astype(np.int16), np.where(dead, 0, wtime[:, :width]), sp


def _simulate_span(
    cfg: WalkConfig, n: int, master_seed: int, streams: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    tables = _step_tables(compile_kernel(cfg))
    return [
        _simulate_chunk(tables, n, master_seed, streams[lo : lo + CHUNK_SIZE])
        for lo in range(0, len(streams), CHUNK_SIZE)
    ]


def _join_chunks(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack chunk results, zero-padded to the widest final depth."""
    sp = np.concatenate([p[2] for p in parts] + [np.zeros(0, dtype=np.int64)])
    width = int(sp.max(initial=0)) + 1
    stacks = np.zeros((len(sp), width), dtype=np.int16)
    wtime = np.zeros((len(sp), width), dtype=np.int32)
    lo = 0
    for stack_c, wtime_c, sp_c in parts:
        hi = lo + len(sp_c)
        stacks[lo:hi, : stack_c.shape[1]] = stack_c
        wtime[lo:hi, : wtime_c.shape[1]] = wtime_c
        lo = hi
    return stacks, wtime, sp


def simulate_batch(
    cfg: WalkConfig,
    n: int,
    master_seed: int,
    streams: Sequence[int],
    workers: Optional[int] = None,
) -> BatchWalks:
    """Simulate one walk per stream, vectorized across walks.

    Identical to the word-level reference walk of ``tests/reference_walk.py``
    run per stream: both consume the same uniforms and compare them with the
    same thresholds.  With ``workers`` above 1 (default from
    ``FREEWALK_WORKERS``) stream spans run in separate processes; per-stream
    keying makes the result independent of worker count and scheduling, and
    results are assembled in stream order.  Walks are stepped in chunks of
    ``CHUNK_SIZE``, which changes no result either.
    """
    streams = np.asarray(list(streams), dtype=np.uint64)
    M = len(streams)
    if workers is None:
        workers = default_workers()
    workers = max(1, min(workers, M))
    parts = None
    if workers > 1:
        spans = np.array_split(np.arange(M), workers)
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_simulate_span, cfg, n, master_seed, streams[span])
                    for span in spans
                    if len(span)
                ]
                parts = [chunk for f in futures for chunk in f.result()]
        except OSError:
            parts = None  # process pools unavailable; fall back to serial
    if parts is None:
        parts = _simulate_span(cfg, n, master_seed, streams)
    stacks, wtime, sp = _join_chunks(parts)
    return BatchWalks(
        master_seed=master_seed,
        streams=streams,
        n=n,
        config_digest=cfg.digest(),
        stacks=stacks,
        wtime=wtime,
        sp=sp,
    )


@dataclass
class WalkStatsArrays:
    """Endpoint statistics of a batch: word length, graph distance, letter distance."""

    n: int
    length: np.ndarray
    dist: np.ndarray
    dl: np.ndarray


def letter_dl_table(kernel: CompiledKernel, ctx: GenFunContext) -> np.ndarray:
    table = np.zeros(kernel.n_letters + 1)
    for code in range(1, kernel.n_letters + 1):
        i, v = kernel.letter_of_code[code]
        table[code] = ctx.letter_dl(i, v)
    return table


def batch_walk_stats(
    batch: BatchWalks, kernel: CompiledKernel, ctx: GenFunContext
) -> WalkStatsArrays:
    dl_tab = letter_dl_table(kernel, ctx)
    M = batch.n_walks
    dist = np.zeros(M)
    dl = np.zeros(M)
    ldist = kernel.letter_distance
    for m in range(M):
        codes = batch.final_codes(m)
        dist[m] = ldist[codes].sum()
        dl[m] = dl_tab[codes].sum()
    return WalkStatsArrays(
        n=batch.n, length=batch.sp.astype(float), dist=dist, dl=dl
    )


@dataclass
class BlockPool:
    """Flat arrays of renewal blocks pooled over many walks.

    Block-level arrays are aligned; ``walk`` holds the walk row index and
    ``index`` the 1-based block index within its walk.  Per-walk arrays
    (``tau``, ``t0_time``, ``t0_dist``, ``n_blocks``, ``censored``) have one
    entry per simulated walk, including walks that produced no block.
    """

    config_digest: str
    buffer: int
    n: int
    walk: np.ndarray
    index: np.ndarray
    delta_t: np.ndarray
    d_dist: np.ndarray
    d_ent: np.ndarray
    w_first: np.ndarray
    w_second: np.ndarray
    d_at: np.ndarray
    tau: np.ndarray
    t0_time: np.ndarray
    t0_dist: np.ndarray
    n_blocks: np.ndarray
    censored: np.ndarray

    @property
    def n_walks(self) -> int:
        return len(self.tau)

    @property
    def size(self) -> int:
        return len(self.delta_t)

    def walk_sums(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.walk, weights=values, minlength=self.n_walks)


def batch_decompose(
    batch: BatchWalks,
    kernel: CompiledKernel,
    ctx: GenFunContext,
    buffer: int = DEFAULT_BUFFER,
) -> BlockPool:
    """Renewal-decompose every walk of a batch into a flat block pool.

    The level-k exit time is the write time of depth ``k``; write times
    increase with ``k``, so the exits confirmed a buffer before the horizon
    are the levels ``1 .. sp - censored``.  Renewal levels are ``tau, tau + 2,
    ...`` among them, and blocks whose endpoints are not both confirmed are
    dropped entirely.  Appended pairs and renewal-word distances are read off
    the final stack, which is sound because every confirmed renewal word is
    a prefix of the final word.
    """
    n, sp = batch.n, batch.sp
    stack, wtime = batch.stacks, batch.wtime
    M, width = stack.shape
    fac = kernel.factor_of_code
    ldist = kernel.letter_distance
    dl_tab = letter_dl_table(kernel, ctx)

    # depths 1 .. width - 1; ``live`` marks those at or below the final depth
    live = np.arange(1, width) <= sp[:, None]
    f = fac[stack]
    if not np.all((f[:, 1:] != f[:, :-1]) | ~live):
        raise AssertionError("final-stack letters do not alternate factors")
    if not np.all((wtime[:, 1:] > wtime[:, :-1]) | ~live):
        raise AssertionError("exit times do not increase with the level")
    censored = ((wtime[:, 1:] > n - buffer) & live).sum(axis=1)
    confirmed = sp - censored

    tau = np.zeros(M, dtype=np.int8)
    if width > 1:
        tau[sp > 0] = np.where(f[sp > 0, 1] == 1, 1, 2)
    has = (tau > 0) & (confirmed >= tau)
    t0_time = np.full(M, -1, dtype=np.int64)
    t0_dist = np.full(M, np.nan)
    walks, tau_h = np.nonzero(has)[0], tau[has]
    t0_time[has] = wtime[walks, tau_h]
    t0_dist[has] = ldist[stack[walks, tau_h]] + np.where(
        tau_h == 2, ldist[stack[walks, tau_h - 1]], 0.0
    )

    n_blocks = np.where(has, (confirmed - tau) // 2, 0)
    walk = np.repeat(np.arange(M), n_blocks)
    first_block = np.cumsum(n_blocks) - n_blocks
    index = np.arange(len(walk)) - first_block[walk] + 1
    level = tau[walk] + 2 * index
    first = stack[walk, level - 1]
    second = stack[walk, level]
    if not (np.all(fac[first] == 2) and np.all(fac[second] == 1)):
        raise AssertionError("appended pair does not match (factor2, factor1)")
    d_dist = ldist[first] + ldist[second]
    # letter distances are integers, so these float sums are exact
    cum_dist = np.cumsum(d_dist)
    before = (cum_dist - d_dist)[first_block[walk]]
    return BlockPool(
        config_digest=batch.config_digest,
        buffer=buffer,
        n=n,
        walk=walk,
        index=index,
        delta_t=(wtime[walk, level] - wtime[walk, level - 2]).astype(np.int64),
        d_dist=d_dist,
        d_ent=dl_tab[first] + dl_tab[second],
        w_first=first,
        w_second=second,
        d_at=t0_dist[walk] + (cum_dist - before),
        tau=tau,
        t0_time=t0_time,
        t0_dist=t0_dist,
        n_blocks=n_blocks,
        censored=censored,
    )


def simulate_pool(
    cfg: WalkConfig,
    ctx: GenFunContext,
    n: int,
    n_walks: int,
    master_seed: int,
    buffer: int = DEFAULT_BUFFER,
    purpose: int = PURPOSE_POOL,
) -> tuple[BlockPool, WalkStatsArrays]:
    """Simulate, decompose and summarize a pool of independent walks."""
    kernel = compile_kernel(cfg)
    streams = [stream_id(purpose, i) for i in range(n_walks)]
    batch = simulate_batch(cfg, n, master_seed, streams)
    pool = batch_decompose(batch, kernel, ctx, buffer)
    stats = batch_walk_stats(batch, kernel, ctx)
    return pool, stats


def pool_to_csv_rows(pool: BlockPool, kernel: CompiledKernel) -> dict[str, np.ndarray]:
    """The block CSV as columns for :func:`freewalk.cli.emit_csv`.

    Five pool arrays as they are, plus ``pair``: the appended letters' vertex
    names, one gather on a table indexed by (first code, second code).
    """
    names = [v for _, v in kernel.letter_of_code]
    pair_names = np.array([[a + b for b in names] for a in names])
    return {
        "trajectory_id": pool.walk,
        "k": pool.index,
        "delta_t": pool.delta_t,
        "d_dist": pool.d_dist,
        "d_ent": pool.d_ent,
        "pair": pair_names[pool.w_first, pool.w_second],
    }

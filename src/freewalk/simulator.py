"""Trajectory sampling, retrospective exit-time detection, renewal decomposition.

Sampling is driven by counter-based Philox streams keyed by
``(master_seed, stream_id)``: every walk owns its stream and consumes exactly
one uniform per step through cumulative-probability inversion, so scalar and
vectorized simulation produce bit-identical walks and results do not depend
on scheduling or worker count.  The batch kernel inverts through the sorted
distinct thresholds of all states at once: the number of thresholds ``<= u``
fixes every comparison with ``u``, so a flat table indexed by the state and
that count gives the same move as inversion on the state's own row.

Exit times are detected retrospectively.  Writing ``c_t`` for the common
prefix length of consecutive states, the level-k candidate exit time is the
first ``m`` with ``||X_m|| = k`` and ``min(c_m, ..., c_{N-1}) >= k``; it is
confirmed only when it falls a buffer ``B`` before the horizon.  A confirmed
level-k word is by construction a prefix of every later state, so the final
stack of a batch walk carries all renewal words.  The candidate itself is
the last step that wrote stack depth ``k``: the batch kernel records that
time per depth next to the stack, and the batch decomposition reads every
exit time off the final write times without storing intermediate states.
The word-level path (:func:`sample_trajectory`, :func:`detect_exit_times`,
:func:`renewal_decompose`) computes the same times from whole words and is
the reference the batch path is tested against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    POP,
    PUSH,
    REPLACE,
    CompiledKernel,
    FreewalkError,
    Word,
    WalkConfig,
    common_prefix_length,
    compile_kernel,
    concat,
    graph_distance,
    in_cone,
)
from .genfun import GenFunContext, dL_word

DEFAULT_BUFFER = 500

# stream purposes keep seed spaces of different experiment roles disjoint;
# 1 is unused, and the others keep their numbers so that no stream moves
PURPOSE_MAIN = 0
PURPOSE_HIT_MC = 2
PURPOSE_GRID = 3
PURPOSE_POOL = 4
PURPOSE_DIAG = 5

_MASK64 = (1 << 64) - 1


class NoConfirmedExit(FreewalkError):
    """No exit time could be confirmed within the censored horizon."""


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


@dataclass
class Trajectory:
    """A fully materialized walk ``X_0 .. X_n`` (desk scale only).

    Large experiments use :func:`simulate_batch`, which keeps only the final
    stack and the time each of its depths was last written; this object
    exists for tests, diagnostics and the word-level decomposition path,
    which is the independent reference for the batch path.
    """

    seed: int
    stream: int
    cfg: WalkConfig
    states: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.states) - 1

    @property
    def config_digest(self) -> str:
        return self.cfg.digest()

    @property
    def lengths(self) -> list[int]:
        return [len(w) for w in self.states]


def sample_trajectory(
    cfg: WalkConfig, n: int, seed: int, stream: int = 0
) -> Trajectory:
    """Sample ``n`` steps from the one-step law; bit-reproducible per seed."""
    kernel = compile_kernel(cfg)
    u = stream_uniforms(seed, stream, n)
    cum, act, let = kernel.cum, kernel.act, kernel.let
    codes: list[int] = []
    state = 0
    states = [Word()]
    for t in range(n):
        x = u[t]
        row = cum[state]
        j = 0
        while x >= row[j]:
            j += 1
        a = act[state, j]
        if a == PUSH:
            state = int(let[state, j])
            codes.append(state)
        elif a == REPLACE:
            state = int(let[state, j])
            codes[-1] = state
        else:
            codes.pop()
            state = codes[-1] if codes else 0
        states.append(kernel.decode(codes))
    return Trajectory(seed=seed, stream=stream, cfg=cfg, states=tuple(states))


class ExitTime(NamedTuple):
    k: int
    time: int
    confirmed: bool


def _exit_candidates(lengths: np.ndarray, cps: np.ndarray) -> list[tuple[int, int]]:
    """Candidate exit times ``(k, e_k)`` for ``k = 1 .. ||X_N||`` from profiles.

    ``lengths`` has ``N + 1`` entries and ``cps`` the ``N`` common prefix
    lengths of consecutive states.  Candidates exist for every level up to
    the final length because the last visit to each level is stable.
    """
    n = len(cps)
    final_len = int(lengths[-1])
    if final_len == 0:
        return []
    if n == 0:
        return []
    suffix_min = np.minimum.accumulate(cps[::-1])[::-1]
    stable = np.nonzero(lengths[:-1] <= suffix_min)[0]
    out: list[tuple[int, int]] = []
    next_k = 1
    for m in stable:
        if lengths[m] == next_k:
            out.append((next_k, int(m)))
            next_k += 1
    if next_k == final_len:
        out.append((next_k, n))
        next_k += 1
    if next_k != final_len + 1:
        raise AssertionError(
            f"exit detection inconsistency: found {next_k - 1} of {final_len} levels"
        )
    return out


def detect_exit_times(traj: Trajectory, buffer: int = DEFAULT_BUFFER) -> list[ExitTime]:
    """All candidate exit times with confirmation flags.

    A candidate is confirmed when it falls at least ``buffer`` steps before
    the horizon, so that a later cone exit would almost surely have been
    observed.  Guarantees on candidates: the state just before a candidate
    lies outside the candidate's cone, and candidate cones are nested.
    """
    states = traj.states
    lengths = np.array([len(w) for w in states], dtype=np.int64)
    cps = np.array(
        [common_prefix_length(states[t], states[t + 1]) for t in range(len(states) - 1)],
        dtype=np.int64,
    )
    horizon = len(states) - 1
    cutoff = horizon - buffer
    out = []
    for k, m in _exit_candidates(lengths, cps):
        if m >= 1 and not cps[m - 1] < k:
            raise AssertionError(f"candidate e_{k}={m} entered its cone from inside")
        out.append(ExitTime(k=k, time=m, confirmed=m <= cutoff))
    return out


@dataclass(frozen=True)
class Block:
    """One renewal block: increment, reward increments, and the appended pair."""

    index: int
    delta_t: int
    d_dist: int
    d_block: int
    d_ent: float
    word: Word


@dataclass
class RenewalSample:
    """Renewal decomposition of one trajectory.

    ``renewal_times[j]`` is the confirmed time ``T_j`` (the exit time at
    level ``2 j + tau``), ``renewal_distances[j]`` the graph distance of the
    corresponding word from the root; blocks pair consecutive confirmed
    renewal times.
    """

    tau: int
    exit_times: list[ExitTime]
    renewal_times: list[int]
    renewal_distances: list[int]
    blocks: list[Block]
    buffer: int
    censored_count: int
    config_digest: str = ""


def renewal_decompose(
    traj: Trajectory, ctx: GenFunContext, buffer: int = DEFAULT_BUFFER
) -> RenewalSample:
    """Decompose a trajectory at its confirmed renewal times.

    Every structural identity is asserted on the way: alternation and
    nesting of the exit words, the two-letter appended pattern, the level
    identity ``||X_{T_j}|| = 2 j + tau``, and the exact telescoping of graph
    distances along renewal words.  Distances here are recomputed from whole
    words, independently of the incremental bookkeeping used by the batch
    path.
    """
    cfg_digest = traj.config_digest
    exits = detect_exit_times(traj, buffer)
    confirmed = [e for e in exits if e.confirmed]
    if not confirmed:
        raise NoConfirmedExit(
            f"no confirmed exit with horizon {len(traj)} and buffer {buffer}"
        )
    states = traj.states
    for prev, cur in zip(confirmed, confirmed[1:]):
        if not in_cone(states[cur.time], states[prev.time]):
            raise AssertionError("exit cones are not nested")
        if (states[cur.time].letters[-1][0]) == (states[prev.time].letters[-1][0]):
            raise AssertionError("exit word factors do not alternate")
    first_factor = states[confirmed[0].time].letters[-1][0]
    tau = 1 if first_factor == 1 else 2

    by_level = {e.k: e for e in confirmed}
    renewal_times: list[int] = []
    renewal_words: list[Word] = []
    k = tau
    while k in by_level:
        e = by_level[k]
        w = states[e.time]
        if len(w) != k or w.letters[-1][0] != 1:
            raise AssertionError("renewal word has wrong level or factor")
        renewal_times.append(e.time)
        renewal_words.append(w)
        k += 2
    if not renewal_times:
        raise NoConfirmedExit(f"no confirmed renewal time (tau = {tau})")

    blocks: list[Block] = []
    for j in range(1, len(renewal_times)):
        prev_w, cur_w = renewal_words[j - 1], renewal_words[j]
        pair = Word(cur_w.letters[-2:])
        if concat(prev_w, pair) != cur_w:
            raise AssertionError("renewal words do not extend by the appended pair")
        if pair.letters[0][0] != 2 or pair.letters[1][0] != 1:
            raise AssertionError("appended pair does not match (factor2, factor1)")
        blocks.append(
            Block(
                index=j,
                delta_t=renewal_times[j] - renewal_times[j - 1],
                d_dist=graph_distance(pair, traj.cfg),
                d_block=2,
                d_ent=dL_word(pair, ctx),
                word=pair,
            )
        )
    distances = [graph_distance(w, traj.cfg) for w in renewal_words]
    for j in range(1, len(distances)):
        if distances[j] != distances[0] + sum(b.d_dist for b in blocks[:j]):
            raise AssertionError("graph distance does not telescope along renewals")
    return RenewalSample(
        tau=tau,
        exit_times=exits,
        renewal_times=renewal_times,
        renewal_distances=distances,
        blocks=blocks,
        buffer=buffer,
        censored_count=sum(1 for e in exits if not e.confirmed),
        config_digest=cfg_digest,
    )


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
    # state -> ``state * (len(grid) + 1)``, the first flat index of its row; a
    # gather rather than a product, which int16 states could overflow
    row: np.ndarray
    up: np.ndarray  # write offset above the current depth: 1 for a push, else 0
    dsp: np.ndarray  # depth change: +1 push, 0 replace, -1 pop
    let: np.ndarray  # new letter code (0 for a pop)


def _step_tables(kernel: CompiledKernel) -> _StepTables:
    """Flat step tables indexed by ``row[state] + g`` for ``g`` in ``0 .. len(grid)``.

    ``g = searchsorted(grid, u, side="right")`` counts the thresholds ``<= u``,
    so it fixes every comparison ``u < cum[state, j]`` for all states at once.
    Each cell is filled by inversion on ``cum[state]`` at the cell's lowest
    point, hence a lookup picks the same move as inversion does.  Every row
    ends at exactly 1, so the last cell, ``u >= grid[-1] >= 1``, is never
    reached by uniforms in ``[0, 1)``.
    """
    cum = kernel.cum
    grid = np.unique(cum)
    lowest = np.concatenate(([-np.inf], grid))
    j = (lowest[None, :, None] < cum[:, None, :]).argmax(axis=2)
    states = np.arange(len(cum))[:, None]
    act = kernel.act[states, j].ravel()
    return _StepTables(
        grid=grid,
        row=np.arange(len(cum)) * len(lowest),
        up=(act == PUSH).astype(np.int64),
        dsp=(act == PUSH).astype(np.int64) - (act == POP),
        let=kernel.let[states, j].ravel(),
    )


def _step(tables: _StepTables, sf, wf, pos, g, t) -> None:
    """Advance every walk by one step, in place, from its grid cell ``g``.

    ``sf`` and ``wf`` are flat views of the stack and write-time arrays and
    ``pos`` holds each walk's flat index of its current depth.  The new
    letter and the time ``t + 1`` go to depth ``max(old sp, new sp)``: for a
    push that is the new top, for a replace the current one, and a pop
    writes one cell above its new top, which nothing reads before a push
    overwrites it.
    """
    o = tables.row[sf[pos]] + g
    w = pos + tables.up[o]
    sf[w] = tables.let[o]
    wf[w] = t + 1
    pos += tables.dsp[o]


_FIRST_DEPTH = 64
_SLICE = 512  # steps whose grid cells are computed at once


def _simulate_chunk(tables, n, master_seed, streams):
    """Step one chunk of walks; arrays grow with the running maximum depth."""
    m = len(streams)
    u = np.empty((m, n))
    for i in range(m):
        stream_uniforms(master_seed, int(streams[i]), n, out=u[i])
    cap = min(n, _FIRST_DEPTH) + 1
    stack = np.zeros((m, cap), dtype=np.int16)
    wtime = np.zeros((m, cap), dtype=np.int32)  # n < 2**31: a chunk holds (m, n) uniforms
    sf, wf = stack.reshape(-1), wtime.reshape(-1)
    base = np.arange(m) * cap
    pos = base.copy()
    t = 0
    while t < n:
        sp = pos - base
        # depth rises by at most one per step, so ``room`` steps cannot overflow
        room = cap - 1 - int(sp.max())
        if room < min(n - t, cap // 2):
            cap = min(2 * cap, n + 1)
            stack = np.pad(stack, ((0, 0), (0, cap - stack.shape[1])))
            wtime = np.pad(wtime, ((0, 0), (0, cap - wtime.shape[1])))
            sf, wf = stack.reshape(-1), wtime.reshape(-1)
            base = np.arange(m) * cap
            pos = base + sp
            continue
        stop = min(n, t + room, t + _SLICE)
        g = np.searchsorted(tables.grid, u[:, t:stop].T, side="right")
        for s in range(t, stop):
            _step(tables, sf, wf, pos, g[s - t], s)
        t = stop
    sp = pos - base
    width = int(sp.max()) + 1
    # a pop's last write lies above the final depth; correctness, not only
    # tidiness, needs these cells zeroed
    dead = np.arange(width) > sp[:, None]
    return np.where(dead, 0, stack[:, :width]), np.where(dead, 0, wtime[:, :width]), sp


def _simulate_span(
    cfg: WalkConfig,
    n: int,
    master_seed: int,
    streams: np.ndarray,
    chunk_size: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    tables = _step_tables(compile_kernel(cfg))
    return [
        _simulate_chunk(tables, n, master_seed, streams[lo : lo + chunk_size])
        for lo in range(0, len(streams), chunk_size)
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
    chunk_size: int = 256,
    workers: Optional[int] = None,
) -> BatchWalks:
    """Simulate one walk per stream, vectorized across walks.

    Identical to running :func:`sample_trajectory` per stream: both consume
    the same uniforms and compare them with the same thresholds.  With ``workers``
    above 1 (default from ``FREEWALK_WORKERS``) stream spans run in separate
    processes; per-stream keying makes the result independent of worker
    count and scheduling, and results are assembled in stream order.
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
                    pool.submit(
                        _simulate_span, cfg, n, master_seed, streams[span], chunk_size
                    )
                    for span in spans
                    if len(span)
                ]
                parts = [chunk for f in futures for chunk in f.result()]
        except OSError:
            parts = None  # process pools unavailable; fall back to serial
    if parts is None:
        parts = _simulate_span(cfg, n, master_seed, streams, chunk_size)
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
    batch: BatchWalks, kernel: CompiledKernel, ctx: Optional[GenFunContext] = None
) -> WalkStatsArrays:
    dl_tab = letter_dl_table(kernel, ctx) if ctx is not None else None
    M = batch.n_walks
    dist = np.zeros(M)
    dl = np.full(M, np.nan)
    ldist = kernel.letter_distance
    for m in range(M):
        codes = batch.final_codes(m)
        dist[m] = ldist[codes].sum()
        if dl_tab is not None:
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

    def blocks_of_walk(self, m: int) -> np.ndarray:
        """Block positions of walk ``m``; ``walk`` is sorted."""
        lo, hi = np.searchsorted(self.walk, (m, m + 1))
        return np.arange(lo, hi)


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


def hit_probability_mc(
    cfg: WalkConfig,
    factor: int,
    n_walks: int,
    master_seed: int,
    horizon: int = 200,
    escape_length: int = 40,
    chunk_size: int = 1024,
) -> tuple[float, float]:
    """Monte Carlo frequency of ever visiting a one-letter word of ``factor``.

    Walks are stopped early once their word grows beyond ``escape_length``
    (the return probability from there is geometrically negligible) or at
    the horizon; both truncations bias the frequency down by far less than a
    standard error at desk scale.  Returns ``(frequency, standard_error)``.
    """
    kernel = compile_kernel(cfg)
    tables = _step_tables(kernel)
    fac = kernel.factor_of_code
    cols = escape_length + 2
    hits = 0
    for lo in range(0, n_walks, chunk_size):
        m = min(chunk_size, n_walks - lo)
        u = np.empty((m, horizon))
        for i in range(m):
            stream_uniforms(
                master_seed, stream_id(PURPOSE_HIT_MC, lo + i), horizon, out=u[i]
            )
        g = np.searchsorted(tables.grid, u, side="right")
        sf = np.zeros(m * cols, dtype=np.int16)
        wf = np.zeros(m * cols, dtype=np.int32)
        # running walks only: finished ones leave ``alive``, their rows go stale
        alive = np.arange(m)
        base = alive * cols
        pos = base.copy()
        for t in range(horizon):
            if not len(alive):
                break
            _step(tables, sf, wf, pos, g[alive, t], t)
            sp = pos - base
            hit = (sp == 1) & (fac[sf[pos]] == factor)
            hits += int(hit.sum())
            keep = ~hit & (sp < escape_length)
            if not keep.all():
                alive, base, pos = alive[keep], base[keep], pos[keep]
    freq = hits / n_walks
    se = float(np.sqrt(max(freq * (1 - freq), 1e-12) / n_walks))
    return freq, se

"""Batch walk sampling, retrospective exit-time detection, renewal decomposition.

Sampling is driven by counter-based Philox streams keyed by
``(master_seed, stream_id)``: every walk owns its stream and consumes exactly
one uniform per step through cumulative-probability inversion, so results do
not depend on scheduling or worker count.  The step kernel, compiled from
``step_kernel.c`` on first use, steps every walk of a span in one call and
draws each walk's uniforms itself, by Philox4x64-10 exactly as numpy's
Philox does (numpy's is the tests' reference); spans run on threads, since
the call releases the interpreter lock.  The kernel inverts through the
sorted distinct thresholds of all states at once: the count of thresholds
``<= u``, the cell of ``u``, fixes every comparison with ``u``, so a flat
table indexed by the state's row offset (which the stack holds) plus the
cell gives the same move as inversion on the state's own row.

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
is tested against, next to the numpy step loop and numpy's Philox that the
compiled kernel is compared with bit for bit.

The kernel counts the letters of each final word off its stack, and the
endpoint statistics, sums of one reward per letter
(:func:`freewalk.genfun.letter_rewards`), are read off those counts.  A batch
simulated with its runs also keeps each walk as the kernel leaves it, for the
renewal decomposition: its depths ``0 .. sp`` as one run of int16 letter
codes and one of int32 write times, walk after walk, with depth 0 holding the
root's code and time 0.  Every reader indexes the runs through the walks'
start offsets; no padded copy is made.  A batch simulated without runs holds
the final depths and the letter counts alone, which is all the CLT suite
reads.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import POP, PUSH, CompiledKernel, InvalidConfig, WalkConfig, compile_kernel
from .genfun import STATISTICS, GenFunContext, letter_rewards

DEFAULT_BUFFER = 500

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


# -- batch simulation ----------------------------------------------------------


@dataclass
class BatchWalks:
    """The final depths and letter counts of many walks and, when simulated
    with them, their final stacks and per-depth write times as runs.

    ``counts[m, c]`` is how many of depths ``1 .. sp[m]`` of walk ``m`` hold
    letter code ``c``.  ``codes`` and ``wtime`` hold each walk's depths
    ``0 .. sp[m]`` as one contiguous run, walk after walk, as the kernel
    writes them; run ``m`` starts at ``start[m]``.  ``wtime[start[m] + k]``
    is the last step that wrote depth ``k`` of walk ``m``, which for
    ``k >= 1`` is the level-k exit time; depth 0 holds the root's code 0 and
    time 0.  A batch simulated with ``runs=False`` holds no runs: ``codes``,
    ``wtime`` and ``start`` are ``None``.
    """

    n: int
    sp: np.ndarray  # (M,) final stack depth = ||X_n||
    codes: Optional[np.ndarray]  # (sum(sp + 1),) int16 letter codes, or None
    wtime: Optional[np.ndarray]  # (sum(sp + 1),) int32 step that last wrote each depth, or None
    counts: np.ndarray  # (M, n_letters + 1) int32 letter counts of each final word
    start: Optional[np.ndarray] = field(init=False, repr=False)  # (M,) offset of each run

    def __post_init__(self) -> None:
        self.start = None if self.codes is None else np.cumsum(self.sp + 1) - (self.sp + 1)

    @property
    def n_walks(self) -> int:
        return len(self.sp)


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


def _check_widths(n_letters: int, n_cells: int) -> None:
    """Refuse a kernel whose letter codes overflow int16 or whose row
    offsets, below ``(n_letters + 1) * n_cells``, overflow int32."""
    int16, int32 = np.iinfo(np.int16).max, np.iinfo(np.int32).max
    if n_letters > int16 or (n_letters + 1) * n_cells > int32:
        raise InvalidConfig(
            f"{n_letters} letters and {n_cells} grid cells exceed the step tables' "
            "int16 letter codes or int32 row offsets"
        )


def _step_tables(kernel: CompiledKernel) -> _StepTables:
    """Flat step tables indexed by a row offset plus a cell ``g`` in ``0 .. len(grid)``.

    The cell of ``u``, the count of thresholds ``<= u``, fixes every
    comparison with ``u`` for all states at once.  Each cell is filled by
    inversion on ``cum[state]`` at its lowest point, hence a lookup picks the
    same move as inversion does.  Every row ends at exactly 1, so the last
    cell, ``u >= grid[-1] >= 1``, is never reached by uniforms in ``[0, 1)``.
    Tables and cells cost O(len(grid)) per state and per uniform; shipped
    configs have four.
    """
    cum = kernel.cum
    grid = np.unique(cum)
    lowest = np.concatenate(([-np.inf], grid))
    _check_widths(kernel.n_letters, len(lowest))
    j = (lowest[None, :, None] < cum[:, None, :]).argmax(axis=2)
    states = np.arange(len(cum))[:, None]
    act = kernel.act[states, j].ravel()
    push = (act == PUSH).astype(np.int32)
    return _StepTables(
        grid=grid,
        up=push,
        dsp=push - (act == POP),
        let=kernel.let[states, j].ravel().astype(np.int32) * len(lowest),
    )


# -- the compiled step kernel ----------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("step_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")


def _compile_command() -> list[str]:
    """The interpreter's own C compiler with fixed flags; no ``-ffast-math``,
    which would break the IEEE comparisons, and no ``-march``."""
    import sysconfig

    return [*(sysconfig.get_config_var("CC") or "cc").split(), "-O2", "-shared", "-fPIC"]


def _library_path(source: bytes, command: list[str]) -> Path:
    """The cached build of ``source`` by ``command``, keyed by both like a ``.pyc``."""
    key = hashlib.sha256(b"\0".join([source, *(a.encode() for a in command)]))
    return _CACHE_DIR / f"step_kernel.{key.hexdigest()[:16]}.so"


def _build(command: list[str], target: Path) -> Path:
    """Compile the kernel to ``target`` and return where it went.

    The build is written to a temporary file and moved into place, so
    concurrent processes never load a partial one.  Where the cache cannot
    be written, it goes to a private directory removed at exit.
    """
    import subprocess

    try:
        target.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    except OSError:
        private = tempfile.mkdtemp(prefix="freewalk-")
        atexit.register(shutil.rmtree, private, ignore_errors=True)
        target = Path(private) / target.name
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=private)
    os.close(fd)
    argv = [*command, "-o", tmp, str(_KERNEL_SOURCE)]
    try:
        subprocess.run(argv, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        Path(tmp).unlink(missing_ok=True)  # compilers may remove a failed output
        detail = e.stderr if isinstance(e, subprocess.CalledProcessError) else e
        raise RuntimeError(f"cannot build the step kernel: {' '.join(argv)}\n{detail}") from e
    os.replace(tmp, target)
    return target


@functools.cache
def _step_library() -> ctypes.CDLL:
    """The compiled kernel, built on the first call of a process unless
    cached; it also holds ``join_rows``, the row join of ``cli.emit_csv``."""
    command = _compile_command()
    path = _library_path(_KERNEL_SOURCE.read_bytes(), command)
    if not path.exists():
        path = _build(command, path)
    lib = ctypes.CDLL(str(path))
    ptr, i32, i64, u64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64, ctypes.c_uint64
    lib.fill_uniforms.argtypes = [u64, u64, i64, ptr]
    lib.fill_uniforms.restype = None
    lib.step_span.argtypes = [ptr, i64, u64, i64, ptr, i64, ptr, ptr, ptr, i32, ptr, ptr, ptr]
    lib.step_span.argtypes += [ptr, i64, i64, ptr, ptr, i64, i64]
    lib.step_span.restype = i64
    lib.join_rows.argtypes = [i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.join_rows.restype = i64
    return lib


def stream_uniforms(master_seed: int, stream: int, n: int) -> np.ndarray:
    """The uniform variates of one walk stream (Philox, 128-bit key), as the
    step kernel draws them."""
    out = np.empty(n)
    _step_library().fill_uniforms(master_seed & _MASK64, stream & _MASK64, n, out.ctypes.data)
    return out


# entries of a span's first run buffers; later sizes follow the walks' mean depth
_FIRST_RUN_ENTRIES = 1 << 16


def _simulate_span(
    lib: ctypes.CDLL, tables: _StepTables, n: int, master_seed: int, runs: bool,
    streams: np.ndarray, sp: np.ndarray, counts: np.ndarray,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """A span's stacks of letter codes and write times up to each final
    depth, concatenated walk by walk, or ``None`` without ``runs``; the final
    depths go to ``sp`` and the letter counts to the zeroed ``counts``.

    Without runs, one kernel call steps and counts every walk.  With them,
    each call steps walks until one would not fit the run buffers and
    returns that walk unwritten.  The buffers then grow in place, to the
    entries the mean depth so far predicts for all walks plus a sixteenth,
    and the next call resumes from it; at the end they shrink in place to
    the runs.
    """
    M = len(streams)
    # the kernel's stack of row offsets and its write times, shared by the
    # walks: a walk reads only depth 0 and the depths it pushed to itself
    stack = np.zeros(n + 1, dtype=np.int32)
    stack_time = np.zeros(n + 1, dtype=np.int32)
    args = (
        streams.ctypes.data, M, master_seed & _MASK64, n,
        tables.grid.ctypes.data, len(tables.grid) - 1,
        tables.up.ctypes.data, tables.dsp.ctypes.data, tables.let.ctypes.data,
        len(tables.grid) + 1,
        stack.ctypes.data, stack_time.ctypes.data, sp.ctypes.data,
        counts.ctypes.data, counts.shape[1],
    )
    if not runs:
        lib.step_span(*args, 0, None, None, 0, 0)
        return None
    codes = np.empty(min(_FIRST_RUN_ENTRIES, M * (n + 1)), dtype=np.int16)
    wtime = np.empty(len(codes), dtype=np.int32)
    m = filled = 0
    while True:
        m = lib.step_span(*args, m, codes.ctypes.data, wtime.ctypes.data, filled, len(codes))
        filled = int((sp[:m] + 1).sum())
        if m == M:
            break
        size = max(filled + n + 1, filled * M // max(m, 1) * 17 // 16)
        codes.resize(size, refcheck=False)  # no view of either buffer exists
        wtime.resize(size, refcheck=False)
    codes.resize(filled, refcheck=False)
    wtime.resize(filled, refcheck=False)
    return codes, wtime


def simulate_batch(
    cfg: WalkConfig,
    n: int,
    master_seed: int,
    streams: Sequence[int],
    workers: Optional[int] = None,
    runs: bool = True,
) -> BatchWalks:
    """Simulate one walk per stream in the compiled kernel.

    Identical to the word-level reference walk of ``tests/reference_walk.py``
    run per stream: both consume the same uniforms and compare them with the
    same thresholds.  With ``workers`` above 1 (default from
    ``FREEWALK_WORKERS``) stream spans run on that many threads, since the
    kernel call releases the interpreter lock; per-stream keying makes the
    result independent of worker count and scheduling, and results are
    assembled in stream order: each span writes its own rows of the final
    depths and letter counts, the first span's runs grow in place and the
    others' are copied in.  With ``runs=False`` the batch holds no runs
    (see :class:`BatchWalks`), and no span allocates any.
    """
    if not 0 <= n < 2**31:
        raise InvalidConfig(f"n = {n} steps lie outside 0 .. 2**31 - 1, the int32 write times")
    streams = np.asarray(list(streams), dtype=np.uint64)
    M = len(streams)
    if workers is None:
        workers = default_workers()
    workers = max(1, min(workers, M))
    kernel = compile_kernel(cfg)
    sp = np.empty(M, dtype=np.int64)
    counts = np.zeros((M, kernel.n_letters + 1), dtype=np.int32)
    # the library is loaded here, before any thread may build it
    span = functools.partial(
        _simulate_span, _step_library(), _step_tables(kernel), n, master_seed, runs
    )
    spans = [np.array_split(a, workers) for a in (streams, sp, counts)]
    if workers == 1:
        parts = list(map(span, *spans))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(span, *spans))
    if not runs:
        return BatchWalks(n=n, sp=sp, codes=None, wtime=None, counts=counts)
    (codes, wtime), rest = parts[0], parts[1:]
    filled = len(codes)
    codes.resize(filled + sum(len(c) for c, _ in rest), refcheck=False)
    wtime.resize(len(codes), refcheck=False)
    if rest:
        np.concatenate([c for c, _ in rest], out=codes[filled:])
        np.concatenate([w for _, w in rest], out=wtime[filled:])
    return BatchWalks(n=n, sp=sp, codes=codes, wtime=wtime, counts=counts)


@dataclass
class WalkStatsArrays:
    """Endpoint statistics of a batch: ``values[k, m]`` is statistic
    ``STATISTICS[k]`` of walk ``m`` (graph distance, word length, letter
    distance), each the sum of its :func:`freewalk.genfun.letter_rewards`
    row over the letters of the final word."""

    n: int
    values: np.ndarray  # (len(STATISTICS), M)


def batch_walk_stats(
    batch: BatchWalks, kernel: CompiledKernel, ctx: GenFunContext
) -> WalkStatsArrays:
    """Each walk's letter counts times the reward of each letter, summed over
    the letters: an elementwise product and a sum in numpy's own order, not
    a BLAS product, whose order of additions may depend on the machine."""
    per_letter = letter_rewards(kernel, ctx)[:, None, :] * batch.counts
    return WalkStatsArrays(n=batch.n, values=per_letter.sum(axis=2))


@dataclass
class BlockPool:
    """Flat arrays of renewal blocks pooled over many walks.

    Block-level arrays are aligned; ``walk`` holds the walk row index and
    ``index`` the 1-based block index within its walk.  Per-walk arrays
    (``tau``, ``t0_time``, ``t0_dist``, ``n_blocks``, ``censored``) have one
    entry per simulated walk, including walks that produced no block.

    A block adds to each statistic the rewards of its appended pair of
    letter codes ``(w_first, w_second)``, read off the pool's
    ``letter_rewards`` table by :meth:`reward` through the pair's one
    :attr:`pair_code`; no per-statistic array is stored.  ``d_dist`` and
    ``d_ent`` are two of those rows.  The estimators read the blocks only
    through :attr:`walk_summary`, each walk's sums, built once per pool.
    """

    walk: np.ndarray
    index: np.ndarray
    delta_t: np.ndarray
    w_first: np.ndarray
    w_second: np.ndarray
    d_at: np.ndarray
    tau: np.ndarray
    t0_time: np.ndarray
    t0_dist: np.ndarray
    n_blocks: np.ndarray
    censored: np.ndarray
    letter_rewards: np.ndarray  # (len(STATISTICS), codes), as genfun.letter_rewards

    @property
    def n_walks(self) -> int:
        return len(self.tau)

    @property
    def size(self) -> int:
        return len(self.delta_t)

    @functools.cached_property
    def pair_code(self) -> np.ndarray:
        """Each block's appended pair as one code, ``w_first * codes +
        w_second``, in the narrowest signed type that holds ``codes**2``
        (signed, so that the int16 ``w_second`` adds in place)."""
        codes = self.letter_rewards.shape[1]
        pair = self.w_first.astype(np.min_scalar_type(-codes * codes))
        pair *= codes
        pair += self.w_second
        return pair

    def pair_rewards(self, k: int) -> np.ndarray:
        """The reward to statistic ``STATISTICS[k]`` of each pair code: the
        (first, second) table of the two letters' rewards summed, flat."""
        row = self.letter_rewards[k]
        return np.add.outer(row, row).ravel()

    def reward(self, k: int) -> np.ndarray:
        """Each block's reward to statistic ``STATISTICS[k]``: one gather on
        :meth:`pair_rewards` by the block's pair code."""
        return np.take(self.pair_rewards(k), self.pair_code)

    @property
    def d_dist(self) -> np.ndarray:
        return self.reward(STATISTICS.index("dist"))

    @property
    def d_ent(self) -> np.ndarray:
        return self.reward(STATISTICS.index("entropy"))

    @functools.cached_property
    def walk_summary(self) -> np.ndarray:
        """``(len(STATISTICS), walks, 6)``: for each statistic, each walk's
        ``Σr, Σr·Δt, Σr², ΣΔt, ΣΔt²`` and block count, every sum a
        ``np.bincount`` over ``walk``, so O(blocks) whatever the factor size."""
        sums = functools.partial(np.bincount, self.walk, minlength=self.n_walks)
        dt = self.delta_t.astype(float)
        out = np.empty((len(STATISTICS), self.n_walks, 6))
        out[..., 3:] = np.column_stack([sums(dt), sums(dt * dt), self.n_blocks])
        for k in range(len(STATISTICS)):
            r = self.reward(k)
            out[k, :, :3] = np.column_stack([sums(r), sums(r * dt), sums(r * r)])
        return out


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
    a prefix of the final word.  A batch simulated without runs is refused
    with a ``ValueError``.
    """
    if batch.codes is None:
        raise ValueError(
            "batch_decompose needs the walks' runs, and this batch was simulated "
            "with runs=False, which keeps only the final depths and letter counts"
        )
    n, sp, start = batch.n, batch.sp, batch.start
    codes, wtime = batch.codes, batch.wtime
    M = batch.n_walks
    fac = kernel.factor_of_code
    rewards = letter_rewards(kernel, ctx)
    ldist = rewards[STATISTICS.index("dist")]

    # ``live`` marks every entry but a walk's depth 0; each is checked
    # against the entry before it, the depth below in the same run
    live = np.ones(len(codes), dtype=bool)
    live[start] = False
    f = fac[codes]
    if not np.all((f[1:] != f[:-1]) | ~live[1:]):
        raise AssertionError("final-stack letters do not alternate factors")
    if not np.all((wtime[1:] > wtime[:-1]) | ~live[1:]):
        raise AssertionError("exit times do not increase with the level")
    late = np.flatnonzero((wtime > n - buffer) & live)
    censored = np.bincount(np.searchsorted(start, late, side="right") - 1, minlength=M)
    confirmed = sp - censored

    tau = np.zeros(M, dtype=np.int8)
    nonempty = sp > 0
    tau[nonempty] = np.where(f[start[nonempty] + 1] == 1, 1, 2)
    has = (tau > 0) & (confirmed >= tau)
    t0_time = np.full(M, -1, dtype=np.int64)
    t0_dist = np.full(M, np.nan)
    tau_h = tau[has]
    t0_at = start[has] + tau_h
    t0_time[has] = wtime[t0_at]
    t0_dist[has] = ldist[codes[t0_at]] + np.where(tau_h == 2, ldist[codes[t0_at - 1]], 0.0)

    n_blocks = np.where(has, (confirmed - tau) // 2, 0)
    # block-length arrays are built in place, one temporary at a time, and
    # no per-entry array outlives its use: the pool's own arrays, not their
    # intermediates, set the peak
    del live, f, late
    walk = np.repeat(np.arange(M), n_blocks)
    first_block = np.cumsum(n_blocks) - n_blocks
    index = np.arange(1, len(walk) + 1)
    index -= first_block[walk]
    at = start[walk]  # the entry of each block's end level
    at += tau[walk]
    at += index
    at += index
    second = codes[at]
    delta_t = wtime[at].astype(np.int64)
    at -= 1
    first = codes[at]
    at -= 1
    delta_t -= wtime[at]
    del at
    if not (np.all(fac[first] == 2) and np.all(fac[second] == 1)):
        raise AssertionError("appended pair does not match (factor2, factor1)")
    # letter distances are integers, so these float sums are exact in any
    # order: each block's distance is its walk's t0_dist plus the running sum
    # of the walk's block rewards
    d_at = ldist[first]
    d_at += ldist[second]
    np.cumsum(d_at, out=d_at)
    before = np.zeros(M)
    later = first_block > 0
    before[later] = d_at[first_block[later] - 1]
    d_at += (t0_dist - before)[walk]
    return BlockPool(
        walk=walk,
        index=index,
        delta_t=delta_t,
        w_first=first,
        w_second=second,
        d_at=d_at,
        tau=tau,
        t0_time=t0_time,
        t0_dist=t0_dist,
        n_blocks=n_blocks,
        censored=censored,
        letter_rewards=rewards,
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


def pool_to_csv_rows(pool: BlockPool, kernel: CompiledKernel) -> dict:
    """The block CSV as columns for :func:`freewalk.cli.emit_csv`.

    Three pool arrays as they are, and the blocks' ``d_dist`` and ``d_ent``
    rewards and ``pair``, the appended letters' vertex names, as indexed
    columns ``(values, codes)``: a table with one entry per pair code and
    the pool's :attr:`~BlockPool.pair_code`, so no per-block copy is made.
    """
    names = [v for _, v in kernel.letter_of_code]
    pair_names = np.array([a + b for a in names for b in names])
    pair = pool.pair_code
    return {
        "trajectory_id": pool.walk,
        "k": pool.index,
        "delta_t": pool.delta_t,
        "d_dist": (pool.pair_rewards(STATISTICS.index("dist")), pair),
        "d_ent": (pool.pair_rewards(STATISTICS.index("entropy")), pair),
        "pair": (pair_names, pair),
    }

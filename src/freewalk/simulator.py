"""Batch walk sampling, retrospective exit-time detection, renewal decomposition.

Sampling is driven by counter-based Philox streams keyed by
``(master_seed, stream_id)``: every walk owns its stream and consumes exactly
one uniform per step through cumulative-probability inversion, so no result
depends on the order in which walks are stepped.  The step kernel, compiled
from ``step_kernel.c`` on first use, steps a batch on the calling thread,
in one call unless its run buffers must grow, two walks at a time in
lockstep, and draws each walk's uniforms itself, by Philox4x64-10 exactly
as numpy's Philox does (numpy's is the tests' reference).  The kernel
inverts through the sorted distinct thresholds of all states at once: the
count of thresholds ``<= u``, the cell of ``u``, fixes every comparison with
``u``, so a flat table indexed by the state's row offset (which the stack
holds) plus the cell gives the same move as inversion on the state's own
row.

Exit times are detected retrospectively.  Writing ``c_t`` for the common
prefix length of consecutive states, the level-k candidate exit time is the
first ``m`` with ``||X_m|| = k`` and ``min(c_m, ..., c_{N-1}) >= k``; it is
confirmed only when it falls a buffer ``B`` before the horizon.  A confirmed
level-k word is by construction a prefix of every later state, so the final
stack of a batch walk carries all renewal words.  The candidate itself is
the last step that wrote stack depth ``k``: the batch kernel records that
time per depth next to the stack, and the batch decomposition reads every
exit time off the final write times without storing intermediate states.
The decomposition is compiled into the kernel's library too: one pass over
the runs checks them and reads each walk's renewal start, block count and
censored exits, a second writes the blocks, and one more sums each walk's
blocks for the estimators (:attr:`BlockPool.walk_summary`).  The word-level
reference in ``tests/reference_walk.py`` materializes every state, computes
the same times from whole words, and is what the batch path is tested
against, next to the numpy step loop, numpy's Philox, the numpy
decomposition and the ``np.bincount`` summary, which the compiled passes
match bit for bit.

The kernel counts the letters of each final word off its stack, and the
endpoint statistics, sums of one reward per letter
(:func:`freewalk.genfun.letter_rewards`), are read off those counts.  A batch
simulated with its runs also keeps each walk as the kernel leaves it, for the
renewal decomposition: its depths ``0 .. sp`` as one run of int16 letter
codes and one of int32 write times, walk after walk, with depth 0 holding the
root's code and time 0.  Walk ``m``'s run starts after the runs before it,
at ``sum(sp[:m] + 1)``; no padded copy is made.  A batch simulated without
runs holds the final depths and the letter counts alone, which is all the
CLT suite reads.

Every array passed to the library goes through a typed pointer
(``np.ctypeslib.ndpointer``) of the dtype its C parameter declares, writeable
exactly where that parameter is not ``const``, so ctypes refuses a wrong
dtype, a non-contiguous array or a read-only output before any C code runs.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass
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
    writes them; run ``m`` starts at ``s = sum(sp[:m] + 1)``.  ``wtime[s + k]``
    is the last step that wrote depth ``k`` of walk ``m``, which for
    ``k >= 1`` is the level-k exit time; depth 0 holds the root's code 0 and
    time 0.  A batch simulated with ``runs=False`` holds no runs: ``codes``
    and ``wtime`` are ``None``.
    """

    n: int
    sp: np.ndarray  # (M,) final stack depth = ||X_n||
    codes: Optional[np.ndarray]  # (sum(sp + 1),) int16 letter codes, or None
    wtime: Optional[np.ndarray]  # (sum(sp + 1),) int32 step that last wrote each depth, or None
    counts: np.ndarray  # (M, n_letters + 1) int32 letter counts of each final word

    @property
    def n_walks(self) -> int:
        return len(self.sp)


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
    # the distinct thresholds, as ``np.unique(cum)`` gives them, without the
    # import of ``numpy.ma`` that it makes on numpy 2.4 (8-16 ms a command)
    ordered = np.sort(cum, axis=None)
    grid = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
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


# no ``-ffast-math``, which would break the IEEE comparisons, no
# ``-ffp-contract``, which may fuse a product into a sum, and no ``-march``
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _compile_command() -> list[str]:
    """The interpreter's own C compiler with the fixed flags."""
    import sysconfig

    return [*(sysconfig.get_config_var("CC") or "cc").split(), *_FLAGS]


def _library_path(source: bytes, flags: Sequence[str]) -> Path:
    """The cached build of ``source`` with ``flags``, keyed by both like a
    ``.pyc``; the compiler is looked up only when a build is needed."""
    key = hashlib.sha256(b"\0".join([source, *(a.encode() for a in flags)]))
    return _CACHE_DIR / f"step_kernel.{key.hexdigest()[:16]}.so"


def _build(target: Path) -> Path:
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
    argv = [*_compile_command(), "-o", tmp, str(_KERNEL_SOURCE)]
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
    cached; it also holds the renewal decomposition, the pools' per-walk
    sums and ``join_rows``, the row join of ``cli.emit_csv``."""
    path = _library_path(_KERNEL_SOURCE.read_bytes(), _FLAGS)
    if not path.exists():
        path = _build(path)
    lib = ctypes.CDLL(str(path))
    i32, i64, u64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double
    # arrays by their C element type, ``in_`` for ``const`` ones, ``out_``
    # for written ones, which must be writeable; ``in_ptr`` is a table of addresses
    in_u64, in_f64, in_i8, in_i16, in_i32, in_i64, in_u8, in_ptr = (
        np.ctypeslib.ndpointer(t, flags="C")
        for t in (np.uint64, np.float64, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uintp)
    )
    out_f64, out_i8, out_i16, out_i32, out_i64, out_u8 = (
        np.ctypeslib.ndpointer(t, flags="C,W")
        for t in (np.float64, np.int8, np.int16, np.int32, np.int64, np.uint8)
    )
    lib.fill_uniforms.argtypes = [u64, u64, i64, out_f64]
    lib.fill_uniforms.restype = None
    lib.step_span.argtypes = [in_u64, i64, u64, i64, in_f64, i64, in_i32, in_i32, in_i32, i32]
    lib.step_span.argtypes += [out_i64, out_i32, i64, i64, out_i16, out_i32, i64, i64]
    lib.step_span.restype = i64
    lib.decompose_walks.argtypes = [i64, in_i64, in_i16, in_i32, in_i8, i64, in_f64, i64, f64]
    lib.decompose_walks.argtypes += [out_i8, out_i64, out_f64, out_i64, out_i64]
    lib.decompose_walks.restype = i64
    lib.decompose_blocks.argtypes = [i64, in_i64, in_i16, in_i32, in_i8, in_i64]
    lib.decompose_blocks.argtypes += [out_i64, out_i64, out_i64, out_i16, out_i16]
    lib.decompose_blocks.restype = None
    lib.walk_summary.argtypes = [i64, in_i64, in_i64, in_i16, in_i16, i64, in_f64, i64, i64]
    lib.walk_summary.argtypes += [in_i64, out_f64]
    lib.walk_summary.restype = i64
    lib.join_rows.argtypes = [i64, i64, i64, in_ptr, in_i64, in_i64, in_i64, in_u8, out_u8]
    lib.join_rows.restype = i64
    return lib


def stream_uniforms(master_seed: int, stream: int, n: int) -> np.ndarray:
    """The uniform variates of one walk stream (Philox, 128-bit key), as the
    step kernel draws them."""
    out = np.empty(n)
    _step_library().fill_uniforms(master_seed & _MASK64, stream & _MASK64, n, out)
    return out


# entries of the first run buffers; later sizes follow the walks' mean depth
_FIRST_RUN_ENTRIES = 1 << 16


def simulate_batch(
    cfg: WalkConfig,
    n: int,
    master_seed: int,
    streams: Sequence[int],
    runs: bool = True,
) -> BatchWalks:
    """Simulate one walk per stream in the compiled kernel.

    Identical to the word-level reference walk of ``tests/reference_walk.py``
    run per stream: both consume the same uniforms and compare them with the
    same thresholds.  Without runs (see :class:`BatchWalks`), one kernel
    call, given run buffers of capacity 0, steps and counts every walk.  With
    them, each call steps walks until one would not fit the run buffers and
    returns that walk unwritten.  The buffers then grow in place, to the
    entries the mean depth so far predicts for all walks plus a sixteenth,
    and the next call resumes from it; at the end they shrink in place to
    the runs.  A kernel that cannot allocate its stacks raises
    ``MemoryError``.
    """
    if not 0 <= n < 2**31:
        raise InvalidConfig(f"n = {n} steps lie outside 0 .. 2**31 - 1, the int32 write times")
    streams = np.asarray(list(streams), dtype=np.uint64)
    M = len(streams)
    kernel = compile_kernel(cfg)
    tables = _step_tables(kernel)
    sp = np.empty(M, dtype=np.int64)
    counts = np.zeros((M, kernel.n_letters + 1), dtype=np.int32)
    args = (
        streams, M, master_seed & _MASK64, n, tables.grid, len(tables.grid) - 1,
        tables.up, tables.dsp, tables.let, len(tables.grid) + 1, sp, counts, counts.shape[1],
    )
    size = min(_FIRST_RUN_ENTRIES, M * (n + 1)) if runs else 0
    codes = np.empty(size, dtype=np.int16)
    wtime = np.empty(size, dtype=np.int32)
    step_span = _step_library().step_span
    m = filled = 0
    while (m := step_span(*args, m, codes, wtime, filled, len(codes))) < M:
        if m < 0:
            raise MemoryError(f"cannot allocate the step kernel's stacks of {n + 1} entries")
        filled = int((sp[:m] + 1).sum())
        size = max(filled + n + 1, filled * M // max(m, 1) * 17 // 16)
        codes.resize(size, refcheck=False)  # no view of either buffer exists
        wtime.resize(size, refcheck=False)
    if not runs:
        return BatchWalks(n=n, sp=sp, codes=None, wtime=None, counts=counts)
    filled = int((sp + 1).sum())
    codes.resize(filled, refcheck=False)
    wtime.resize(filled, refcheck=False)
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
    ``d_ent`` are two of those rows, and :attr:`d_at` is derived from them.
    The estimators read the blocks only through :attr:`walk_summary`, each
    walk's sums, built once per pool.
    """

    walk: np.ndarray
    index: np.ndarray
    delta_t: np.ndarray
    w_first: np.ndarray
    w_second: np.ndarray
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
    def d_at(self) -> np.ndarray:
        """Each block's renewal word's graph distance from the root: its
        walk's ``t0_dist`` plus the ``d_dist`` of its blocks up to this one.
        Letter distances are integers, so these sums are exact in any order."""
        before = np.cumsum(self.n_blocks) - self.n_blocks  # the blocks of earlier walks
        total = np.concatenate(([0.0], np.cumsum(self.d_dist)))
        return total[1:] + (self.t0_dist - total[before])[self.walk]

    @functools.cached_property
    def walk_summary(self) -> np.ndarray:
        """``(len(STATISTICS), walks, 6)``: for each statistic, each walk's
        ``Σr, Σr·Δt, Σr², ΣΔt, ΣΔt²`` and block count, summed in block order
        by one compiled pass over the blocks, so O(blocks) whatever the
        factor size and bit for bit ``np.bincount`` over ``walk``."""
        rewards = self.letter_rewards
        walk, first, second, count = self.walk, self.w_first, self.w_second, self.n_blocks
        if not len(walk) == len(first) == len(second) == self.size or len(count) != self.n_walks:
            raise ValueError("the pool's block or walk arrays differ in length")
        out = np.empty((len(rewards), self.n_walks, 6))
        if _step_library().walk_summary(
            self.size, walk, self.delta_t, first, second, len(rewards), rewards,
            rewards.shape[1], self.n_walks, count, out,
        ):
            raise IndexError("a block's walk or letter code lies outside the pool")
        return out


# the decomposition's errors by their codes in ``step_kernel.c``
_DECOMPOSE_ERRORS = {
    -1: "final-stack codes lie outside the letter table: the root's 0 at depth 0, "
    "a letter's 1 .. L above it",
    -2: "final-stack letters do not alternate factors",
    -3: "exit times do not increase with the level",
}


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
    a prefix of the final word.  Two compiled passes over the runs do it
    (``step_kernel.c``): the first checks the runs and writes the per-walk
    arrays, raising an ``AssertionError`` that names a failed check, and the
    second writes the blocks.  A batch simulated without runs is refused with
    a ``ValueError``.
    """
    if batch.codes is None:
        raise ValueError(
            "batch_decompose needs the walks' runs, and this batch was simulated "
            "with runs=False, which keeps only the final depths and letter counts"
        )
    M, sp, codes, wtime = batch.n_walks, batch.sp, batch.codes, batch.wtime
    if not len(codes) == len(wtime) == M + int(sp.sum()):
        raise ValueError("the batch's runs do not hold depths 0 .. sp of every walk")
    fac = kernel.factor_of_code
    rewards = letter_rewards(kernel, ctx)
    lib = _step_library()
    runs = (M, sp, codes, wtime)

    tau = np.empty(M, dtype=np.int8)
    t0_time = np.empty(M, dtype=np.int64)
    t0_dist = np.empty(M)
    n_blocks = np.empty(M, dtype=np.int64)
    censored = np.empty(M, dtype=np.int64)
    # walks without a confirmed renewal level get numpy's own nan, whose
    # bits differ from the 0.0 / 0.0 of C
    total = lib.decompose_walks(
        *runs, fac, len(fac), rewards[STATISTICS.index("dist")], batch.n - buffer, np.nan,
        tau, t0_time, t0_dist, n_blocks, censored,
    )
    if total < 0:
        raise AssertionError(_DECOMPOSE_ERRORS[total])
    walk, index, delta_t = (np.empty(total, dtype=np.int64) for _ in range(3))
    first, second = (np.empty(total, dtype=np.int16) for _ in range(2))
    lib.decompose_blocks(*runs, tau, n_blocks, walk, index, delta_t, first, second)
    return BlockPool(
        walk=walk,
        index=index,
        delta_t=delta_t,
        w_first=first,
        w_second=second,
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

"""Word-level reference walk: sampling, exit-time detection, renewal decomposition.

The library keeps only each batch walk's final stack and the step that last
wrote each depth (:func:`freewalk.simulator.simulate_batch`,
:func:`freewalk.simulator.batch_decompose`).  This module materializes every
state ``X_0 .. X_n`` instead, finds the exit times from the common prefix
lengths of consecutive states, and recomputes renewal distances from whole
words.  It consumes the same Philox uniforms, drawn by numpy's Philox
(``philox_uniforms``) where the compiled kernel draws its own, with the same
thresholds, so it reproduces the batch walks bit for bit and is the
independent reference the batch path is tested against.

The word algebra the decomposition checks itself with (``concat``,
``in_cone``), the whole-word distances (``graph_distance``, ``dL_word``) and
a batch walk's final word and its letter counts (``final_codes``,
``letter_counts``) are references of the tests too, and so is the numpy
step loop over the library's step tables: ``numpy_batch`` steps many walks
together with it, and the compiled kernel of ``simulate_batch`` must match
it bit for bit, while the hitting-frequency Monte Carlo drives it to
cross-check the exit probabilities.  Likewise ``numpy_decompose`` and
``bincount_walk_summary`` are the whole-array numpy passes that the compiled
decomposition and per-walk sums must match bit for bit, and ``numpy_d_at``
sums each renewal word's letter distances off the runs, the reference of
``BlockPool.d_at``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from freewalk.core import (
    PUSH,
    REPLACE,
    FreewalkError,
    IncompatibleLetters,
    Word,
    WalkConfig,
    compile_kernel,
)
from freewalk.genfun import STATISTICS, GenFunContext, letter_rewards
from freewalk.simulator import _MASK64, DEFAULT_BUFFER, BlockPool, _step_tables, stream_id


class NoConfirmedExit(FreewalkError):
    """No exit time could be confirmed within the censored horizon."""


def philox_uniforms(master_seed: int, stream: int, n: int, out=None) -> np.ndarray:
    """numpy's Philox with the 128-bit key ``(master_seed << 64) | stream``, each
    masked to 64 bits: the reference of the uniforms the step kernel draws."""
    key = ((master_seed & _MASK64) << 64) | (stream & _MASK64)
    gen = np.random.Generator(np.random.Philox(key=key))
    if out is None:
        return gen.random(n)
    gen.random(out=out)
    return out


# -- words -----------------------------------------------------------------------


def concat(u: Word, v: Word) -> Word:
    """Partial composition ``u.v``.

    Defined when either word is empty or the last letter of ``u`` and the
    first letter of ``v`` lie in different factors; concatenating with the
    root is the identity.
    """
    if not u.letters:
        return v
    if not v.letters:
        return u
    if u.letters[-1][0] == v.letters[0][0]:
        raise IncompatibleLetters(
            f"cannot concatenate: both boundary letters lie in factor {u.letters[-1][0]}"
        )
    return Word(u.letters + v.letters)


def in_cone(w: Word, u: Word) -> bool:
    """True iff ``u`` is a prefix of ``w`` (so ``w`` lies in the cone at ``u``)."""
    return w.letters[: len(u.letters)] == u.letters


def graph_distance(u: Word, cfg: WalkConfig) -> int:
    """Distance ``d(o, u)`` in the transition graph of the walk.

    Each letter contributes the oriented BFS distance from its factor root,
    so for compatible words ``d(x, x.w) = d(o, w)``.
    """
    kernel = compile_kernel(cfg)
    return int(sum(kernel.letter_distance[c] for c in kernel.encode(u)))


def dL_word(w: Word, ctx: GenFunContext) -> float:
    """Letter-distance ``-log L(o, w | 1)``, additive over the letters of ``w``.

    Every path from the root to ``w`` locks in the letters in order, so the
    last-exit function factorizes into one factor value per letter.
    """
    return sum(ctx.letter_dl(i, v) for i, v in w.letters)


def run_starts(batch) -> np.ndarray:
    """The offset of each walk's run in a ``BatchWalks``: the runs, of
    ``sp + 1`` entries each, lie walk after walk."""
    return np.cumsum(batch.sp + 1) - (batch.sp + 1)


def final_codes(batch, m: int) -> np.ndarray:
    """The letter codes of walk ``m``'s final word in a ``BatchWalks``: depths
    ``1 .. sp[m]`` of its run."""
    lo = int(run_starts(batch)[m]) + 1
    return batch.codes[lo : lo + int(batch.sp[m])]


def letter_counts(w: Word, cfg: WalkConfig) -> np.ndarray:
    """How often each letter code occurs in ``w``, as a row of ``BatchWalks.counts``."""
    kernel = compile_kernel(cfg)
    codes = np.array(kernel.encode(w), dtype=np.intp)
    return np.bincount(codes, minlength=kernel.n_letters + 1)


def common_prefix_length(u: Word, v: Word) -> int:
    n = 0
    for a, b in zip(u.letters, v.letters):
        if a != b:
            break
        n += 1
    return n


@dataclass
class Trajectory:
    """A fully materialized walk ``X_0 .. X_n`` (desk scale only)."""

    cfg: WalkConfig
    states: tuple[Word, ...]


def sample_trajectory(
    cfg: WalkConfig, n: int, seed: int, stream: int = 0
) -> Trajectory:
    """Sample ``n`` steps from the one-step law; bit-reproducible per seed."""
    kernel = compile_kernel(cfg)
    u = philox_uniforms(seed, stream, n)
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
    return Trajectory(cfg=cfg, states=tuple(states))


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
    lengths = np.array([len(w.letters) for w in states], dtype=np.int64)
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
    renewal_times: list[int]
    renewal_distances: list[int]
    blocks: list[Block]


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
    exits = detect_exit_times(traj, buffer)
    confirmed = [e for e in exits if e.confirmed]
    if not confirmed:
        raise NoConfirmedExit(
            f"no confirmed exit with horizon {len(traj.states) - 1} and buffer {buffer}"
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
        if len(w.letters) != k or w.letters[-1][0] != 1:
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
        renewal_times=renewal_times,
        renewal_distances=distances,
        blocks=blocks,
    )


# -- the numpy step loop -----------------------------------------------------------


def _cells(grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Grid cells of uniforms in ``[0, 1)``: the count of thresholds ``<= u``.

    Branch-free, unlike a binary search; ``grid[-1] >= 1`` is never reached.
    """
    g = np.zeros(u.shape, dtype=np.min_scalar_type(len(grid)))
    for c in grid[:-1]:
        g += u >= c
    return g


def _step(tables, sf, wf, pos, g, t) -> None:
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


def numpy_batch(
    cfg: WalkConfig, n: int, master_seed: int, streams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(codes, wtime, sp)`` of ``simulate_batch``: each walk's depths
    ``0 .. sp`` as runs, walk after walk, from all walks stepped together by
    :func:`_step` on ``(M, n + 1)`` arrays (desk scale only)."""
    tables = _step_tables(compile_kernel(cfg))
    m = len(streams)
    u = np.empty((m, n))
    for i, stream in enumerate(streams):
        philox_uniforms(master_seed, int(stream), n, out=u[i])
    g = _cells(tables.grid, u)
    stack = np.zeros((m, n + 1), dtype=np.intp)
    wtime = np.zeros((m, n + 1), dtype=np.int32)
    sf, wf = stack.reshape(-1), wtime.reshape(-1)
    base = np.arange(m) * (n + 1)
    pos = base.copy()
    for t in range(n):
        _step(tables, sf, wf, pos, g[:, t], t)
    sp = pos - base
    # a pop's last write lies above the final depth
    keep = (np.arange(n + 1) <= sp[:, None]).ravel()
    codes = sf[keep] // (len(tables.grid) + 1)
    return codes.astype(np.int16), wf[keep], sp


# -- the numpy decomposition and per-walk sums ------------------------------------


def numpy_decompose(batch, kernel, ctx: GenFunContext, buffer: int = DEFAULT_BUFFER) -> BlockPool:
    """``batch_decompose`` in whole-array numpy passes over the runs: the
    reference its compiled passes must match array for array, bit for bit."""
    n, sp, start = batch.n, batch.sp, run_starts(batch)
    codes, wtime = batch.codes, batch.wtime
    M = batch.n_walks
    fac = kernel.factor_of_code
    rewards = letter_rewards(kernel, ctx)
    ldist = rewards[STATISTICS.index("dist")]

    # ``live`` marks every entry but a walk's depth 0; each is checked
    # against the entry before it, the depth below in the same run
    live = np.ones(len(codes), dtype=bool)
    live[start] = False
    if not np.all(np.where(live, (codes >= 1) & (codes < len(fac)), codes == 0)):
        raise AssertionError(
            "final-stack codes lie outside the letter table: the root's 0 at depth 0, "
            "a letter's 1 .. L above it"
        )
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
    walk = np.repeat(np.arange(M), n_blocks)
    first_block = np.cumsum(n_blocks) - n_blocks
    index = np.arange(1, len(walk) + 1) - first_block[walk]
    at = start[walk] + tau[walk] + 2 * index  # the entry of each block's end level
    second = codes[at]
    first = codes[at - 1]
    delta_t = wtime[at].astype(np.int64) - wtime[at - 2]
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


def numpy_d_at(batch, kernel, ctx: GenFunContext, pool: BlockPool) -> np.ndarray:
    """Each block's renewal word's graph distance, the letter distances of
    depths ``1 .. tau + 2j`` of its walk's run summed, read off the runs of
    the batch the pool came from, not telescoped over the blocks.  They are
    integers, so the running sums along the runs are exact."""
    ldist = letter_rewards(kernel, ctx)[STATISTICS.index("dist")]
    along = np.cumsum(ldist[batch.codes])  # depth 0 adds the root's 0
    start = run_starts(batch)[pool.walk]
    return along[start + pool.tau[pool.walk] + 2 * pool.index] - along[start]


def bincount_walk_summary(pool: BlockPool) -> np.ndarray:
    """``BlockPool.walk_summary`` by one ``np.bincount`` over ``walk`` per sum:
    the reference of its compiled pass."""
    sums = partial(np.bincount, pool.walk, minlength=pool.n_walks)
    dt = pool.delta_t.astype(float)
    out = np.empty((len(STATISTICS), pool.n_walks, 6))
    out[..., 3:] = np.column_stack([sums(dt), sums(dt * dt), pool.n_blocks])
    for k in range(len(STATISTICS)):
        r = pool.reward(k)
        out[k, :, :3] = np.column_stack([sums(r), sums(r * dt), sums(r * r)])
    return out


# -- hitting frequency -------------------------------------------------------------

PURPOSE_HIT_MC = 2  # the stream purpose of the walks below, disjoint from the library's
HIT_HORIZON = 200
HIT_ESCAPE_LENGTH = 40
_HIT_CHUNK = 1024


def hit_probability_mc(
    cfg: WalkConfig, factor: int, n_walks: int, master_seed: int
) -> tuple[float, float]:
    """Monte Carlo frequency of ever visiting a one-letter word of ``factor``.

    Walks are stopped early once their word grows beyond ``HIT_ESCAPE_LENGTH``
    (the return probability from there is geometrically negligible) or at
    ``HIT_HORIZON`` steps; both truncations bias the frequency down by far
    less than a standard error at desk scale.  Returns
    ``(frequency, standard_error)``.
    """
    kernel = compile_kernel(cfg)
    tables = _step_tables(kernel)
    fac = np.repeat(kernel.factor_of_code, len(tables.grid) + 1)  # by row offset
    cols = HIT_ESCAPE_LENGTH + 2
    hits = 0
    for lo in range(0, n_walks, _HIT_CHUNK):
        m = min(_HIT_CHUNK, n_walks - lo)
        u = np.empty((m, HIT_HORIZON))
        for i in range(m):
            philox_uniforms(
                master_seed, stream_id(PURPOSE_HIT_MC, lo + i), HIT_HORIZON, out=u[i]
            )
        g = _cells(tables.grid, u)
        sf = np.zeros(m * cols, dtype=np.intp)
        wf = np.zeros(m * cols, dtype=np.int32)
        # running walks only: finished ones leave ``alive``, their rows go stale
        alive = np.arange(m)
        base = alive * cols
        pos = base.copy()
        for t in range(HIT_HORIZON):
            if not len(alive):
                break
            _step(tables, sf, wf, pos, g[alive, t], t)
            sp = pos - base
            hit = (sp == 1) & (fac[sf[pos]] == factor)
            hits += int(hit.sum())
            keep = ~hit & (sp < HIT_ESCAPE_LENGTH)
            if not keep.all():
                alive, base, pos = alive[keep], base[keep], pos[keep]
    freq = hits / n_walks
    se = float(np.sqrt(max(freq * (1 - freq), 1e-12) / n_walks))
    return freq, se

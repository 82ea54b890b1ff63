"""Sampling determinism, exit-time detection, and renewal decomposition tests."""

import ctypes
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instance_uneven, instance_wide, make_pool
from reference_walk import (
    PURPOSE_HIT_MC,
    ExitTime,
    NoConfirmedExit,
    Trajectory,
    _cells,
    detect_exit_times,
    final_codes,
    graph_distance,
    hit_probability_mc,
    in_cone,
    bincount_walk_summary,
    letter_counts,
    numpy_batch,
    numpy_d_at,
    numpy_decompose,
    philox_uniforms,
    renewal_decompose,
    run_starts,
    sample_trajectory,
)

from freewalk import estimators, simulator
from freewalk.core import (
    POP,
    PUSH,
    InvalidConfig,
    Word,
    compile_kernel,
    step_distribution,
)
from freewalk.genfun import STATISTICS, build_context
from freewalk.instances import instance_k3_k3, instance_path_k3
from freewalk.simulator import (
    DEFAULT_BUFFER,
    PURPOSE_GRID,
    PURPOSE_MAIN,
    PURPOSE_POOL,
    BatchWalks,
    batch_decompose,
    batch_walk_stats,
    default_workers,
    simulate_batch,
    stream_id,
    stream_uniforms,
)
from freewalk.simulator import _check_widths, _step_tables

O = Word()
WA = Word(((1, "a"),))
WC = Word(((2, "c"),))
WAC = Word(((1, "a"), (2, "c")))
WACA = Word(((1, "a"), (2, "c"), (1, "a")))
WCA = Word(((2, "c"), (1, "a")))


def hand_trajectory(cfg, words):
    return Trajectory(cfg=cfg, states=tuple(words))


@pytest.fixture(scope="module")
def instance_c():
    return instance_uneven()


@pytest.fixture(scope="module")
def ctx_c(instance_c):
    return build_context(instance_c)


class TestSampling:
    def test_zero_steps(self, instance_a):
        traj = sample_trajectory(instance_a, 0, 1)
        assert traj.states == (O,)

    def test_determinism(self, instance_a):
        a = sample_trajectory(instance_a, 200, 7)
        b = sample_trajectory(instance_a, 200, 7)
        assert a.states == b.states
        c = sample_trajectory(instance_a, 200, 8)
        assert a.states != c.states

    def test_streams_differ(self, instance_a):
        a = sample_trajectory(instance_a, 100, 7, stream=0)
        b = sample_trajectory(instance_a, 100, 7, stream=1)
        assert a.states != b.states

    def test_trajectory_invariants(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b):
            traj = sample_trajectory(cfg, 300, 5)
            assert traj.states[0] == O
            for x, y in zip(traj.states, traj.states[1:]):
                assert abs(len(y.letters) - len(x.letters)) <= 1
                assert dict(step_distribution(x, cfg)).get(y, 0.0) > 0.0

    def test_one_step_frequencies_from_root(self, instance_a):
        """Empirical transition frequencies out of o match the exact law."""
        counts: dict[Word, int] = {}
        visits = 0
        for s in range(800):
            traj = sample_trajectory(instance_a, 40, 3, stream=s)
            for x, y in zip(traj.states, traj.states[1:]):
                if x == O:
                    visits += 1
                    counts[y] = counts.get(y, 0) + 1
        exact = dict(step_distribution(O, instance_a))
        assert visits > 500
        for target, p in exact.items():
            freq = counts.get(target, 0) / visits
            se = math.sqrt(p * (1 - p) / visits)
            assert abs(freq - p) <= 4 * se

    def test_batch_equals_scalar(self, instance_a, instance_b, instance_c):
        # walks of 250 steps, walks that never leave the root, and no walks
        for cfg in (instance_a, instance_b, instance_c):
            kernel = compile_kernel(cfg)
            for n, M in ((250, 5), (0, 3), (250, 0)):
                streams = [stream_id(4, i) for i in range(M)]
                batch = simulate_batch(cfg, n, 99, streams)
                assert batch.counts.shape == (M, kernel.n_letters + 1)
                assert batch.counts.dtype == np.int32
                for i, s in enumerate(streams):
                    final = sample_trajectory(cfg, n, 99, stream=s).states[-1]
                    assert kernel.encode(final) == tuple(int(c) for c in final_codes(batch, i))
                    assert np.array_equal(batch.counts[i], letter_counts(final, cfg))

    def test_uniform_stream_reproducible(self):
        a = stream_uniforms(5, 9, 16)
        b = stream_uniforms(5, 9, 16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, stream_uniforms(5, 10, 16))

    # partial and whole blocks of four outputs; seeds masked to 64 bits from
    # below zero and above 2**63 and 2**64; streams with each purpose's high bits
    @pytest.mark.parametrize("seed", [-1, 2**63 + 5, 2**64 + 3])
    @pytest.mark.parametrize("purpose", [PURPOSE_MAIN, PURPOSE_HIT_MC, PURPOSE_GRID, PURPOSE_POOL])
    def test_kernel_uniforms_equal_numpy_philox(self, seed, purpose):
        for n in (0, 1, 3, 4, 5, 4001):
            for index in (0, 7, 2**32 - 1):
                stream = stream_id(purpose, index)
                u = stream_uniforms(seed, stream, n)
                assert u.dtype == np.float64
                assert u.tobytes() == philox_uniforms(seed, stream, n).tobytes()

    # 2**18 + 7 draws: block counters past 16 bits, and a partial last block
    @pytest.mark.parametrize("seed", [-1, 2**64 + 3])
    def test_kernel_uniforms_past_a_16_bit_counter(self, seed):
        n = 2**18 + 7
        stream = stream_id(PURPOSE_POOL, 2**32 - 1)
        assert stream_uniforms(seed, stream, n).tobytes() == philox_uniforms(seed, stream, n).tobytes()

    def test_worker_count_clamped_to_cores(self, monkeypatch):
        cores = os.cpu_count() or 1
        monkeypatch.setenv("FREEWALK_WORKERS", str(cores + 1000))
        assert default_workers() == cores
        monkeypatch.setenv("FREEWALK_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("FREEWALK_WORKERS", "many")
        assert default_workers() == 1

    def test_worker_count_does_not_change_results(self, instance_a):
        streams = [stream_id(4, i) for i in range(9)]
        serial = simulate_batch(instance_a, 200, 5, streams, workers=1)
        parallel = simulate_batch(instance_a, 200, 5, streams, workers=3)
        assert np.array_equal(serial.sp, parallel.sp)
        assert np.array_equal(serial.codes, parallel.codes)
        assert np.array_equal(serial.wtime, parallel.wtime)
        assert np.array_equal(serial.counts, parallel.counts)


class TestExitDetection:
    def test_monotone_growth(self, instance_a):
        traj = hand_trajectory(instance_a, [O, WA, WAC, WACA])
        assert detect_exit_times(traj, 0) == [
            ExitTime(1, 1, True),
            ExitTime(2, 2, True),
            ExitTime(3, 3, True),
        ]

    def test_invalidated_visit(self, instance_a):
        traj = hand_trajectory(instance_a, [O, WA, O, WC, WCA])
        assert detect_exit_times(traj, 0) == [
            ExitTime(1, 3, True),
            ExitTime(2, 4, True),
        ]

    def test_buffer_censors(self, instance_a):
        traj = hand_trajectory(instance_a, [O, WA, O, WC, WCA])
        exits = detect_exit_times(traj, 2)
        assert [e.confirmed for e in exits] == [False, False]
        assert [e.time for e in exits] == [3, 4]

    def test_state_before_exit_outside_cone(self, instance_a):
        for s in range(6):
            traj = sample_trajectory(instance_a, 300, 21, stream=s)
            for e in detect_exit_times(traj, 0):
                if e.time >= 1:
                    assert not in_cone(traj.states[e.time - 1], traj.states[e.time])

    def test_nesting(self, instance_a):
        traj = sample_trajectory(instance_a, 400, 23)
        exits = detect_exit_times(traj, 0)
        for a, b in zip(exits, exits[1:]):
            assert a.time < b.time
            assert in_cone(traj.states[b.time], traj.states[a.time])

    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_censoring_monotonicity(self, n_extra, seed):
        from freewalk.instances import instance_k3_k3

        cfg = instance_k3_k3()
        traj = sample_trajectory(cfg, 40 + n_extra, seed)
        previous = None
        for buffer in (0, 3, 10, 25):
            confirmed = {
                e.k: e.time for e in detect_exit_times(traj, buffer) if e.confirmed
            }
            if previous is not None:
                assert set(confirmed) <= set(previous)
                for k, t in confirmed.items():
                    assert previous[k] == t
            previous = confirmed


class TestRenewalDecompose:
    def test_detour_then_lock_in(self, instance_a, ctx_a):
        traj = hand_trajectory(instance_a, [O, WA, O, WC, WCA])
        sample = renewal_decompose(traj, ctx_a, 0)
        assert sample.tau == 2
        assert sample.renewal_times == [4]
        assert sample.blocks == []

    def test_no_confirmed_exit(self, instance_a, ctx_a):
        traj = hand_trajectory(instance_a, [O, WA, O, WC, WCA])
        with pytest.raises(NoConfirmedExit):
            renewal_decompose(traj, ctx_a, 10)

    def test_block_structure(self, instance_a, ctx_a):
        traj = sample_trajectory(instance_a, 1500, 31)
        sample = renewal_decompose(traj, ctx_a, 200)
        assert sample.blocks, "expected at least one complete block"
        for j, block in enumerate(sample.blocks, start=1):
            assert block.index == j
            assert block.delta_t >= 2
            assert block.d_block == 2
            assert block.d_dist <= block.delta_t
            assert len(block.word.letters) == 2
            assert block.word.letters[0][0] == 2 and block.word.letters[1][0] == 1
        # level identity: the word at T_j has exactly 2j + tau letters
        for j, t in enumerate(sample.renewal_times):
            assert len(traj.states[t].letters) == 2 * j + sample.tau

    # on K3xK3 every block has d_dist == 2; PathxK3 makes the distances differ,
    # and the uneven rows of ``c`` give a ten-threshold step grid
    @pytest.mark.parametrize("buffer", [0, 100])
    @pytest.mark.parametrize("label", ["a", "b", "c"])
    def test_batch_matches_trajectory_path(self, label, buffer, request):
        cfg = request.getfixturevalue(f"instance_{label}")
        ctx = request.getfixturevalue(f"ctx_{label}")
        kernel = compile_kernel(cfg)
        streams = [stream_id(4, i) for i in range(4)]
        batch = simulate_batch(cfg, 800, 55, streams)
        pool = batch_decompose(batch, kernel, ctx, buffer)
        for i, s in enumerate(streams):
            traj = sample_trajectory(cfg, 800, 55, stream=s)
            sample = renewal_decompose(traj, ctx, buffer)
            idx = np.flatnonzero(pool.walk == i)
            assert pool.tau[i] == sample.tau
            assert pool.t0_time[i] == sample.renewal_times[0]
            assert list(pool.delta_t[idx]) == [b.delta_t for b in sample.blocks]
            assert list(pool.d_dist[idx]) == [b.d_dist for b in sample.blocks]
            assert np.allclose(pool.d_ent[idx], [b.d_ent for b in sample.blocks])
            assert np.all(pool.reward(STATISTICS.index("block"))[idx] == 2.0)
            assert list(pool.d_at[idx]) == sample.renewal_distances[1:]

    def test_rewards_from_one_pair_code(self, pool_b):
        """Each reward is the sum of its two letters' rewards, bit for bit, on
        a decomposed pool and on one of 201 letter codes, whose pair codes
        overflow int16."""
        wide = make_pool([[(3, j % 4, j / 7) for j in range(120)], [(2, 1, 0.5)] * 80])
        codes = wide.letter_rewards.shape[1]
        assert codes * codes > np.iinfo(np.int16).max
        expect = wide.w_first.astype(np.int64) * codes + wide.w_second
        assert wide.pair_code.dtype == np.int32 and list(wide.pair_code) == list(expect)
        for pool in (pool_b[0], wide):
            for k, row in enumerate(pool.letter_rewards):
                expect = np.take(row, pool.w_first) + np.take(row, pool.w_second)
                assert np.array_equal(pool.reward(k).view(np.int64), expect.view(np.int64))

    @pytest.mark.parametrize("n", [0, 1, 5, 60, 300])
    def test_write_times_are_exit_times(self, instance_b, ctx_b, n):
        kernel = compile_kernel(instance_b)
        streams = [stream_id(4, i) for i in range(12)]
        batch = simulate_batch(instance_b, n, 17, streams, workers=1)
        pool = batch_decompose(batch, kernel, ctx_b, 20)
        for i, s in enumerate(streams):
            exits = detect_exit_times(sample_trajectory(instance_b, n, 17, s), 20)
            lo, sp = int(run_starts(batch)[i]), int(batch.sp[i])
            assert [e.time for e in exits] == list(batch.wtime[lo + 1 : lo + sp + 1])
            assert pool.censored[i] == sum(not e.confirmed for e in exits)

    def test_pool_invariants(self, pool_a):
        pool, _ = pool_a
        assert pool.size > 1000
        assert np.all(pool.delta_t >= 2)
        assert np.all(pool.d_dist <= pool.delta_t)
        # telescoping of graph distances along renewal words, exactly
        for m in range(0, pool.n_walks, 37):
            idx = np.flatnonzero(pool.walk == m)
            if len(idx) == 0:
                continue
            expect = pool.t0_dist[m] + np.cumsum(pool.d_dist[idx])
            assert np.array_equal(pool.d_at[idx], expect)


class TestWalkStats:
    # on K3xK3 every endpoint has dist == length; on PathxK3 they differ
    # the letter distance, summed per letter code, against an exactly rounded
    # sum over the word's letters
    @pytest.mark.parametrize("label", ["a", "b"])
    def test_lengths_match_final_words(self, label, request):
        cfg = request.getfixturevalue(f"instance_{label}")
        ctx = request.getfixturevalue(f"ctx_{label}")
        kernel = compile_kernel(cfg)
        batch = simulate_batch(cfg, 200, 77, [stream_id(4, i) for i in range(3)])
        stats = dict(zip(STATISTICS, batch_walk_stats(batch, kernel, ctx).values))
        for i in range(3):
            traj = sample_trajectory(cfg, 200, 77, stream=stream_id(4, i))
            final = traj.states[-1]
            assert stats["block"][i] == len(final.letters)
            assert stats["dist"][i] == graph_distance(final, cfg)
            dl = math.fsum(ctx.letter_dl(f, v) for f, v in final.letters)
            assert abs(stats["entropy"][i] - dl) <= 1e-13 * abs(dl)


class TestHitProbability:
    def test_matches_exit_probability(self, instance_a, ctx_a):
        freq, se = hit_probability_mc(instance_a, 1, 20_000, 5)
        assert abs(freq - ctx_a.xi1) <= 3 * se


    # frequencies of the kernel before the step tables, factor 1 / factor 2
    @pytest.mark.parametrize(
        "make, alpha, expected",
        [
            (instance_k3_k3, 0.5, (0.6627, 0.66785)),
            (instance_path_k3, 0.5, (0.64555, 0.62975)),
            (instance_k3_k3, 0.02, (0.3684, 0.9834)),
        ],
    )
    def test_bit_exact(self, make, alpha, expected):
        cfg = make(alpha)
        assert tuple(hit_probability_mc(cfg, f, 20_000, 5)[0] for f in (1, 2)) == expected


class TestStepTables:
    @pytest.mark.parametrize("make", [instance_k3_k3, instance_path_k3, instance_uneven])
    @pytest.mark.parametrize("alpha", [0.02, 0.3, 0.5, 0.98])
    def test_lookup_equals_inversion(self, make, alpha):
        kernel = compile_kernel(make(alpha))
        tables = _step_tables(kernel)
        grid = tables.grid
        u = np.concatenate(
            [
                [0.0, 1 - 2**-53],
                grid,
                np.nextafter(grid, 0),
                np.nextafter(grid, 1),
                np.random.default_rng(0).random(10_000),
            ]
        )
        u = u[u < 1]  # the uniforms of a stream lie in [0, 1)
        g = _cells(grid, u).astype(np.intp)
        assert np.array_equal(g, np.searchsorted(grid, u, side="right"))
        assert g.max() < len(grid)  # the cell of u >= 1 is never reached
        row = len(grid) + 1
        for state in range(len(kernel.cum)):
            j = (u[:, None] < kernel.cum[state]).argmax(axis=1)
            act = kernel.act[state, j]
            o = state * row + g
            assert np.array_equal(tables.let[o], kernel.let[state, j] * row)
            assert np.array_equal(tables.up[o], act == PUSH)
            assert np.array_equal(tables.dsp[o], (act == PUSH).astype(int) - (act == POP))

    @pytest.mark.parametrize(
        "make", [instance_k3_k3, instance_path_k3, instance_uneven, instance_wide]
    )
    def test_grid_is_numpys_unique(self, make):
        for alpha in (0.02, 0.5, 0.98):
            kernel = compile_kernel(make(alpha))
            assert _step_tables(kernel).grid.tobytes() == np.unique(kernel.cum).tobytes()
        # -0.0 and 0.0 merge into the one that sorts first, as in np.unique
        for cum in ([[-0.0, 0.5, 1.0], [0.0, 1.0, 1.0]], [[0.0, 0.5, 1.0], [-0.0, 1.0, 1.0]]):
            zeros = np.zeros((2, 3), dtype=np.int64)
            kernel = SimpleNamespace(n_letters=1, cum=np.array(cum), act=zeros, let=zeros)
            assert _step_tables(kernel).grid.tobytes() == np.unique(kernel.cum).tobytes()

    def test_simulating_commands_import_no_numpy_ma(self, tmp_path):
        """numpy 2.4's ``np.unique`` imports ``numpy.ma``, 8-16 ms of a
        command; the step tables find their grid without it."""
        out = str(tmp_path)
        code = (
            "import sys\n"
            "from freewalk.cli import main\n"
            f"main(['clt', '--stat', 'dist', '--n', '200', '--M', '20', '--out', {out!r}])\n"
            "main(['simulate', '--config', 'PathxK3', '--n', '1000', '--M', '10',\n"
            f"      '--out', {out!r}])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(simulator.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert {"clt_summary.json", "simulate_summary.json"} <= {p.name for p in tmp_path.iterdir()}
        assert done.stdout.strip().splitlines()[-1] == "False"

    def test_uneven_rows_give_a_wide_grid(self):
        assert len(_step_tables(compile_kernel(instance_uneven())).grid) >= 8

    # 300 thresholds overflow a byte: the count widens its accumulator
    @pytest.mark.parametrize("size", [1, 4, 300])
    def test_cells_equal_binary_search(self, size):
        rng = np.random.default_rng(size)
        grid = np.append(np.sort(rng.random(size - 1)), 1.0)
        u = np.concatenate([[0.0, 1 - 2**-53], grid[:-1], rng.random(5_000)])
        assert np.array_equal(_cells(grid, u), np.searchsorted(grid, u, side="right"))

    def test_wide_grid_passes_a_byte(self):
        grid = _step_tables(compile_kernel(instance_wide())).grid
        assert len(grid) > 255 and _cells(grid, grid).dtype == np.uint16

    def test_integer_widths_are_guarded_at_both_bounds(self):
        _check_widths(32767, 4)  # int16 letter codes
        with pytest.raises(InvalidConfig):
            _check_widths(32768, 4)
        _check_widths(32767, 65535)  # int32 row offsets: 32768 * 65535 < 2**31
        with pytest.raises(InvalidConfig):
            _check_widths(32767, 65536)  # 32768 * 65536 = 2**31
        # the tables are refused before they are built
        kernel = SimpleNamespace(n_letters=32768, cum=np.ones((1, 1)))
        with pytest.raises(InvalidConfig):
            _step_tables(kernel)


class TestCompiledKernel:
    # empty and one-step walks up to walks hundreds of letters deep, spans of
    # no walk, one and nine (three threads with three workers); the wide
    # grid's cells pass a byte, where the numpy count widens to uint16
    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    @pytest.mark.parametrize(
        "make", [instance_k3_k3, instance_path_k3, instance_uneven, instance_wide]
    )
    def test_equals_the_numpy_step_loop(self, make, alpha):
        cfg = make(alpha)
        for n in (0, 1, 64, 65, 600):
            for M in (0, 1, 9):
                streams = [stream_id(4, i) for i in range(M)]
                codes, wtime, sp = numpy_batch(cfg, n, 5, streams)
                for workers in (1, 3):
                    batch = simulate_batch(cfg, n, 5, streams, workers=workers)
                    assert np.array_equal(batch.sp, sp)
                    assert batch.codes.dtype == codes.dtype
                    assert batch.wtime.dtype == wtime.dtype
                    assert np.array_equal(batch.codes, codes)
                    assert np.array_equal(batch.wtime, wtime)


class TestCountsOnly:
    # no walks, walks that never leave the root, short walks, and runs that
    # outgrow the first buffer of every span: 450 walks of 2,000 steps are
    # over 65,536 entries a span at three workers on each shape.  The runs
    # path returns a walk that does not fit unwritten and uncounted; the
    # counts-only path never skips one
    @pytest.mark.parametrize(
        "make", [instance_k3_k3, instance_path_k3, instance_uneven, instance_wide]
    )
    def test_equals_a_runs_batch(self, make, monkeypatch):
        cfg = make()
        step_span = simulator._step_library().step_span
        capacities = []

        def recorded(*args):
            capacities.append(args[19])  # the run buffers' capacity, 0 without runs
            return step_span(*args)

        monkeypatch.setattr(simulator, "_step_library", lambda: SimpleNamespace(step_span=recorded))
        for n, M in ((300, 0), (0, 5), (64, 9), (2000, 450)):
            streams = [stream_id(PURPOSE_MAIN, i) for i in range(M)]
            for workers in (1, 2, 3):
                spans = max(1, min(workers, M))
                capacities.clear()
                runs = simulate_batch(cfg, n, 5, streams, workers=workers)
                resumes = len(capacities) - spans
                assert M == 0 or 0 not in capacities  # no walks need no buffer
                capacities.clear()
                bare = simulate_batch(cfg, n, 5, streams, workers=workers, runs=False)
                assert capacities == [0] * spans  # one call a span, no run buffer
                assert bare.codes is None and bare.wtime is None
                assert bare.sp.dtype == runs.sp.dtype and bare.counts.dtype == runs.counts.dtype
                assert np.array_equal(bare.sp, runs.sp)
                assert np.array_equal(bare.counts, runs.counts)
                assert bare.n_walks == runs.n_walks == M
                if n == 2000:
                    assert resumes >= spans, (workers, resumes)


class TestBatchLayout:
    def test_simulate_batch_holds_its_runs_once(self, instance_a):
        """Peak traced memory stays near the runs' own 6 bytes per entry."""
        streams = [stream_id(4, i) for i in range(200)]
        simulate_batch(instance_a, 10, 1, streams[:2], workers=1)  # kernel and tables built
        tracemalloc.start()
        try:
            batch = simulate_batch(instance_a, 2000, 1, streams, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        run_bytes = 6 * int((batch.sp + 1).sum())
        assert batch.codes.nbytes + batch.wtime.nbytes == run_bytes
        assert peak < 1.5 * run_bytes, peak / run_bytes

    def test_batch_decompose_peaks_near_its_pool(self, instance_b, kernel_b, ctx_b):
        """Peak traced memory stays at the pool's own arrays: 1.0008x on this
        shape, against 1.24x for the numpy passes' in-place temporaries and
        2.3x when each block array was built from temporaries."""
        streams = [stream_id(4, i) for i in range(200)]
        batch = simulate_batch(instance_b, 4000, 1, streams, workers=1)
        batch_decompose(batch, kernel_b, ctx_b)  # letter table and context caches built
        tracemalloc.start()
        try:
            pool = batch_decompose(batch, kernel_b, ctx_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pool_bytes = sum(getattr(pool, f.name).nbytes for f in dataclasses.fields(pool))
        assert pool.size > 90_000
        assert peak < 1.02 * pool_bytes, peak / pool_bytes

    def test_walk_summary_peaks_near_its_output(self, pool_b):
        """Building the summary holds its ``(3, walks, 6)`` sums and little
        else: 1.04x of them, against 114x when every sum was a bincount over
        block-length temporaries."""
        pool = dataclasses.replace(pool_b[0])  # a copy without a summary
        pool.walk_summary  # the library loaded
        pool = dataclasses.replace(pool)
        tracemalloc.start()
        try:
            summary = pool.walk_summary
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.size > 90_000
        assert peak < 1.5 * summary.nbytes, peak / summary.nbytes

    def test_outgrown_buffers_resume_to_the_same_runs(self, instance_a, monkeypatch):
        """Spans from a one-entry first buffer resume several times and give
        the runs of default-sized buffers and of the numpy step loop."""
        streams = [stream_id(4, i) for i in range(40)]
        whole = simulate_batch(instance_a, 600, 5, streams, workers=1)
        codes, wtime, sp = numpy_batch(instance_a, 600, 5, streams)
        step_span = simulator._step_library().step_span
        starts = []

        def counted(*args):
            starts.append(args[15])  # the walk the call resumes from
            return step_span(*args)

        monkeypatch.setattr(simulator, "_FIRST_RUN_ENTRIES", 1)
        monkeypatch.setattr(simulator, "_step_library", lambda: SimpleNamespace(step_span=counted))
        for workers in (1, 3):
            starts.clear()
            shrunk = simulate_batch(instance_a, 600, 5, streams, workers=workers)
            for batch in (shrunk, whole):
                assert np.array_equal(batch.sp, sp)
                assert np.array_equal(batch.codes, codes)
                assert np.array_equal(batch.wtime, wtime)
            # a walk returned unwritten is counted once, when it is written
            assert np.array_equal(shrunk.counts, whole.counts)
            if workers == 1:
                assert len(starts) >= 3 and starts == sorted(starts), starts  # two resumes

    # the kernel steps walks m and m + 1 together and writes them in walk
    # order, so either may not fit: lane 0 refuses at an even index, lane 1
    # at an odd one.  An odd M leaves the last walk of a span alone in lane 0
    @pytest.mark.parametrize("M", [40, 41])
    def test_both_lanes_refuse_and_resume(self, instance_a, M, monkeypatch):
        streams = [stream_id(4, i) for i in range(M)]
        codes, wtime, sp = numpy_batch(instance_a, 600, 5, streams)
        walk = np.repeat(np.arange(M), sp + 1)
        live = codes != 0  # the letters above each walk's depth 0
        step_span = simulator._step_library().step_span
        refused = []

        def recorded(*args):
            m = step_span(*args)
            if m < args[1]:  # not every walk of the span was written
                refused.append(m)
            return m

        monkeypatch.setattr(simulator, "_FIRST_RUN_ENTRIES", 1)
        monkeypatch.setattr(simulator, "_step_library", lambda: SimpleNamespace(step_span=recorded))
        for workers in (1, 3):
            refused.clear()
            batch = simulate_batch(instance_a, 600, 5, streams, workers=workers)
            assert np.array_equal(batch.sp, sp)
            assert np.array_equal(batch.codes, codes)
            assert np.array_equal(batch.wtime, wtime)
            counts = np.zeros_like(batch.counts)
            np.add.at(counts, (walk[live], codes[live]), 1)
            assert np.array_equal(batch.counts, counts)
            assert {m % 2 for m in refused} == {0, 1}, refused

    # no walks at all, and walks that never leave the root (one entry each)
    @pytest.mark.parametrize("n, M", [(300, 0), (0, 5)])
    def test_empty_batches_against_the_word_level_walks(self, n, M, request):
        for label in ("a", "b", "c"):
            cfg = request.getfixturevalue(f"instance_{label}")
            ctx = request.getfixturevalue(f"ctx_{label}")
            kernel = compile_kernel(cfg)
            streams = [stream_id(4, i) for i in range(M)]
            batch = simulate_batch(cfg, n, 17, streams, workers=1)
            assert len(batch.codes) == len(batch.wtime) == M + int(batch.sp.sum())
            assert batch.counts.shape == (M, kernel.n_letters + 1)
            pool = batch_decompose(batch, kernel, ctx, 20)
            stats = batch_walk_stats(batch, kernel, ctx)
            per_walk = (pool.tau, pool.t0_time, pool.t0_dist, pool.n_blocks, pool.censored)
            assert [len(a) for a in (*per_walk, *stats.values)] == [M] * 8
            assert pool.size == 0
            blocks = ("walk", "index", "delta_t", "d_dist", "d_ent", "w_first", "w_second", "d_at")
            for name in blocks:
                assert len(getattr(pool, name)) == 0, name
            for i, s in enumerate(streams):
                traj = sample_trajectory(cfg, n, 17, s)
                assert len(traj.states[-1].letters) == 0
                assert np.all(stats.values[:, i] == 0)
                assert np.array_equal(batch.counts[i], letter_counts(traj.states[-1], cfg))
                assert pool.censored[i] == len(detect_exit_times(traj, 20)) == 0
                with pytest.raises(NoConfirmedExit):
                    renewal_decompose(traj, ctx, 20)
                assert pool.tau[i] == 0 and pool.t0_time[i] == -1 and np.isnan(pool.t0_dist[i])

    def test_a_batch_without_runs_is_refused(self, instance_a, ctx_a):
        batch = simulate_batch(instance_a, 400, 3, [stream_id(4, i) for i in range(6)], runs=False)
        with pytest.raises(ValueError, match="needs the walks' runs.*runs=False"):
            batch_decompose(batch, compile_kernel(instance_a), ctx_a)

    # each check compares a depth with the one below it in its own run, or
    # an appended pair with its factors, in the compiled and the numpy passes
    def test_corrupt_runs_are_refused(self, instance_b, kernel_b, ctx_b):
        batch, at = _first_block_letter(instance_b, kernel_b, ctx_b)
        codes = batch.codes.copy()
        codes[at] = codes[at - 1]
        message = "final-stack letters do not alternate factors"
        _assert_refused(batch, codes, batch.wtime, kernel_b, ctx_b, message)

    def test_exits_that_do_not_increase_are_refused(self, instance_b, kernel_b, ctx_b):
        batch, at = _first_block_letter(instance_b, kernel_b, ctx_b)
        wtime = batch.wtime.copy()
        wtime[at] = wtime[at - 1]
        message = "exit times do not increase with the level"
        _assert_refused(batch, batch.codes, wtime, kernel_b, ctx_b, message)

    def test_a_pair_outside_its_factors_is_refused(self, instance_b, kernel_b, ctx_b):
        """The root's code, factor 0, as a block's first letter still
        alternates with the factor-1 letters around it; the code check
        refuses it, so no appended pair can lie outside factors (2, 1)."""
        batch, at = _first_block_letter(instance_b, kernel_b, ctx_b)
        codes = batch.codes.copy()
        codes[at] = 0
        _assert_refused(batch, codes, batch.wtime, kernel_b, ctx_b, _CODE_MESSAGE)

    def test_a_root_code_at_the_renewal_start_is_refused(self, instance_b, kernel_b, ctx_b):
        """With tau = 2 the renewal start lies in factor 1 between two
        factor-2 letters, so the root's code there alternates with both, and
        no block's pair reads it; it would move the walk's ``t0_dist``."""
        batch = simulate_batch(instance_b, 400, 3, [stream_id(4, i) for i in range(6)])
        pool = batch_decompose(batch, kernel_b, ctx_b, 20)
        m = int(np.flatnonzero((pool.tau == 2) & (pool.n_blocks > 0))[0])
        codes = batch.codes.copy()
        codes[run_starts(batch)[m] + 2] = 0
        _assert_refused(batch, codes, batch.wtime, kernel_b, ctx_b, _CODE_MESSAGE)

    def test_a_letter_code_at_depth_0_is_refused(self, instance_b, kernel_b, ctx_b):
        batch = simulate_batch(instance_b, 400, 3, [stream_id(4, i) for i in range(6)])
        codes = batch.codes.copy()
        codes[run_starts(batch)[1]] = 1
        _assert_refused(batch, codes, batch.wtime, kernel_b, ctx_b, _CODE_MESSAGE)

    def test_a_code_outside_the_letter_table_is_refused(self, instance_b, kernel_b, ctx_b):
        batch = simulate_batch(instance_b, 400, 3, [stream_id(4, i) for i in range(6)])
        for code in (-1, kernel_b.n_letters + 1):
            codes = batch.codes.copy()
            codes[-1] = code
            bad = BatchWalks(batch.n, batch.sp, codes, batch.wtime, batch.counts)
            with pytest.raises(AssertionError, match="outside the letter table"):
                batch_decompose(bad, kernel_b, ctx_b)

    def test_runs_of_another_length_are_refused(self, instance_b, kernel_b, ctx_b):
        batch = simulate_batch(instance_b, 400, 3, [stream_id(4, i) for i in range(6)])
        short = BatchWalks(batch.n, batch.sp, batch.codes[:-1], batch.wtime[:-1], batch.counts)
        with pytest.raises(ValueError, match="depths 0 .. sp of every walk"):
            batch_decompose(short, kernel_b, ctx_b)


_CODE_MESSAGE = (
    "final-stack codes lie outside the letter table: the root's 0 at depth 0, "
    "a letter's 1 .. L above it"
)


def _first_block_letter(cfg, kernel, ctx) -> tuple[BatchWalks, int]:
    """A batch with its runs, and the entry of one walk's first appended letter."""
    batch = simulate_batch(cfg, 400, 3, [stream_id(4, i) for i in range(6)])
    pool = batch_decompose(batch, kernel, ctx, 20)
    m = int(np.flatnonzero(pool.n_blocks > 0)[1])
    return batch, int(run_starts(batch)[m]) + int(pool.tau[m]) + 1


def _assert_refused(batch, codes, wtime, kernel, ctx, message: str) -> None:
    """Both decompositions raise exactly ``message`` on the corrupted runs."""
    bad = BatchWalks(batch.n, batch.sp, codes, wtime, batch.counts)
    for decompose in (batch_decompose, numpy_decompose):
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            decompose(bad, kernel, ctx, 20)


def _assert_same_bits(got: np.ndarray, expect: np.ndarray, name: str) -> None:
    assert (got.dtype, got.shape) == (expect.dtype, expect.shape), name
    assert got.tobytes() == expect.tobytes(), name


def _assert_matches_numpy(pool, batch, kernel, ctx, buffer) -> None:
    """The compiled pool and its summary against the numpy passes: every
    array in dtype, shape and bytes, nan bits included; and the derived
    ``d_at``, of the pool and of its truncations, against the renewal words'
    distances summed off the runs."""
    ref = numpy_decompose(batch, kernel, ctx, buffer)
    for f in dataclasses.fields(pool):
        _assert_same_bits(getattr(pool, f.name), getattr(ref, f.name), f.name)
    _assert_same_bits(pool.walk_summary, bincount_walk_summary(ref), "walk_summary")
    truncated = [estimators.truncate_pool(pool, j) for j in (None, 3)] if pool.size else []
    for p in (pool, *truncated):
        _assert_same_bits(p.d_at, numpy_d_at(batch, kernel, ctx, p), "d_at")


class TestCompiledDecomposition:
    # every shape; no walks, walks that never leave the root, walks of a few
    # steps that often end back at depth 0, and long ones; no buffer, the
    # default, and a buffer at or past the horizon, which confirms no exit
    # and leaves every t0_dist nan
    @pytest.mark.parametrize(
        "make", [instance_k3_k3, instance_path_k3, instance_uneven, instance_wide]
    )
    def test_equals_the_numpy_passes(self, make):
        cfg = make()
        kernel, ctx = compile_kernel(cfg), build_context(cfg)
        for n, M in ((300, 0), (0, 5), (2, 40), (2000, 60)):
            batch = simulate_batch(cfg, n, 9, [stream_id(4, i) for i in range(M)], workers=1)
            if n == 2:
                assert np.any(batch.sp == 0) and np.any(batch.sp > 0)
            for buffer in (0, DEFAULT_BUFFER, n, n + 1):
                pool = batch_decompose(batch, kernel, ctx, buffer)
                _assert_matches_numpy(pool, batch, kernel, ctx, buffer)
                if buffer >= n:
                    assert pool.size == 0 and np.all(np.isnan(pool.t0_dist))

    def test_two_workers_give_the_same_pool(self, instance_b, kernel_b, ctx_b, monkeypatch):
        monkeypatch.setenv("FREEWALK_WORKERS", "2")
        streams = [stream_id(4, i) for i in range(30)]
        batch = simulate_batch(instance_b, 3000, 9, streams)
        single = simulate_batch(instance_b, 3000, 9, streams, workers=1)
        one = batch_decompose(single, kernel_b, ctx_b)
        pool = batch_decompose(batch, kernel_b, ctx_b)
        assert pool.size > 0
        _assert_matches_numpy(pool, batch, kernel_b, ctx_b, DEFAULT_BUFFER)
        for f in dataclasses.fields(pool):
            _assert_same_bits(getattr(pool, f.name), getattr(one, f.name), f.name)

    def test_summaries_of_synthetic_and_truncated_pools(self, pool_b):
        """``make_pool`` builds the int16 letter codes of a decomposed pool;
        int64 codes are refused before the compiled pass runs."""
        synthetic = make_pool([[(3, j % 4, j / 7) for j in range(120)], [(2, 1, 0.5)] * 80, []])
        assert synthetic.w_first.dtype == synthetic.w_second.dtype == pool_b[0].w_first.dtype
        assert synthetic.w_first.dtype == np.int16
        for pool in (synthetic, pool_b[0]):
            for p in (pool, estimators.truncate_pool(pool), estimators.truncate_pool(pool, 3)):
                _assert_same_bits(p.walk_summary, bincount_walk_summary(p), "walk_summary")
        wide = dataclasses.replace(synthetic, w_first=synthetic.w_first.astype(np.int64))
        with pytest.raises(ctypes.ArgumentError, match="array must have data type int16"):
            wide.walk_summary
        outside = dataclasses.replace(synthetic, w_second=synthetic.w_second + 1000)
        with pytest.raises(IndexError, match="outside the pool"):
            outside.walk_summary


class TestTypedBoundary:
    """Every array reaches the library through a typed pointer, so ctypes
    refuses an array its C function would misread, before any C code runs."""

    def test_a_wrong_dtype_is_refused(self, instance_b, kernel_b, ctx_b):
        """Int64 letter codes, and int64 write times with all else right,
        where the blocks stay as they were."""
        batch = simulate_batch(instance_b, 400, 3, [stream_id(4, i) for i in range(6)])
        wide = BatchWalks(batch.n, batch.sp, batch.codes.astype(np.int64), batch.wtime, batch.counts)
        with pytest.raises(ctypes.ArgumentError, match="must have data type int16"):
            batch_decompose(wide, kernel_b, ctx_b)
        depth, codes = np.array([4]), np.array([0, 1, 4, 1, 4], dtype=np.int16)
        tau, n_blocks = np.array([1], dtype=np.int8), np.array([1])
        blocks = [np.full(1, -7), np.full(1, -7), np.full(1, -7)]
        blocks += [np.full(1, -7, dtype=np.int16), np.full(1, -7, dtype=np.int16)]
        with pytest.raises(ctypes.ArgumentError, match="must have data type int32"):
            simulator._step_library().decompose_blocks(
                1, depth, codes, np.arange(5, dtype=np.int64), tau, n_blocks, *blocks
            )
        assert all(list(b) == [-7] for b in blocks)

    def test_a_non_contiguous_view_is_refused(self, pool_b):
        pool = pool_b[0]
        strided = dataclasses.replace(pool, walk=np.repeat(pool.walk, 2)[::2])
        assert np.array_equal(strided.walk, pool.walk) and not strided.walk.flags.c_contiguous
        with pytest.raises(ctypes.ArgumentError, match="C_CONTIGUOUS"):
            strided.walk_summary

    def test_a_read_only_output_is_refused(self):
        out = np.zeros(8)
        out.flags.writeable = False
        with pytest.raises(ctypes.ArgumentError, match="WRITEABLE"):
            simulator._step_library().fill_uniforms(1, 2, len(out), out)
        assert not out.any()


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache for one test; the next load after it reads the
    package's own cache again."""
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(simulator, "_CACHE_DIR", cache)
    simulator._step_library.cache_clear()
    yield cache
    simulator._step_library.cache_clear()


class TestKernelBuild:
    def test_a_second_load_runs_no_compiler(self, kernel_cache, monkeypatch):
        simulator._step_library()
        built = sorted(kernel_cache.iterdir())
        assert [p.suffix for p in built] == [".so"]  # no temporary file is left

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        simulator._step_library.cache_clear()  # as in a fresh process
        batch = simulate_batch(instance_k3_k3(), 300, 7, [stream_id(4, i) for i in range(16)])
        codes = np.concatenate([final_codes(batch, m) for m in range(batch.n_walks)])
        assert _digest(codes) == GOLDEN_FINAL_CODES["a"]
        assert sorted(kernel_cache.iterdir()) == built

    def test_a_failing_compiler_names_its_command_and_stderr(self, kernel_cache, monkeypatch):
        failing = [sys.executable, "-c", "import sys; sys.exit('unknown flag -Oops')"]
        monkeypatch.setattr(simulator, "_compile_command", lambda: failing)
        with pytest.raises(RuntimeError) as raised:
            simulator._step_library()
        assert " ".join(failing) in str(raised.value)
        assert "unknown flag -Oops" in str(raised.value)
        assert not any(kernel_cache.iterdir())

    def test_editing_the_source_changes_the_key(self):
        source = simulator._KERNEL_SOURCE.read_bytes()
        flags = simulator._FLAGS
        path = simulator._library_path(source, flags)
        assert path.parent == simulator._CACHE_DIR
        assert simulator._library_path(source + b"\n", flags) != path
        assert simulator._library_path(source, [*flags, "-g"]) != path
        assert simulator._compile_command()[-len(flags) :] == list(flags)

    def test_a_cached_build_loads_without_looking_up_the_compiler(self):
        """A fresh process that finds its build imports no ``sysconfig``,
        which only the compiler's lookup needs."""
        simulator._step_library()  # the build cached
        code = (
            "import sys\n"
            "from freewalk import simulator\n"
            "simulator._step_library().fill_uniforms\n"
            "print('sysconfig' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(simulator.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_the_kernel_compiles_without_warnings(self):
        flags = ["-Wall", "-Wextra", "-Wconversion", "-Werror", "-fsyntax-only"]
        argv = [*simulator._compile_command(), *flags, str(simulator._KERNEL_SOURCE)]
        done = subprocess.run(argv, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_an_unwritable_cache_builds_in_a_private_directory(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(simulator, "_CACHE_DIR", blocker / "__pycache__")
        simulator._step_library.cache_clear()
        try:
            lib = simulator._step_library()
        finally:
            simulator._step_library.cache_clear()
        assert Path(lib._name).parent.name.startswith("freewalk-")


class TestCensoringBias:
    def test_bias_shrinks_with_horizon(self, instance_a, ctx_a):
        """Dropping blocks that straddle the cutoff undersamples long blocks.

        The resulting downward bias in the pooled increment mean decays with
        the usable window; the mean increment is exactly 8 here, so the decay
        is directly measurable.
        """
        from freewalk.simulator import simulate_pool

        small, _ = simulate_pool(instance_a, ctx_a, 1000, 2000, 777)
        big, _ = simulate_pool(instance_a, ctx_a, 6400, 120, 777)
        dev_small = small.delta_t.mean() - 8.0
        dev_big = big.delta_t.mean() - 8.0
        se_small = small.delta_t.std() / math.sqrt(small.size)
        assert dev_small < -3 * se_small  # the short-window bias is visible
        assert abs(dev_big) < abs(dev_small) / 2  # and decays with the window


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest()[:16]


# sha256 prefixes of the arrays the action-log simulator produced; the
# write-time kernel and its vectorized decomposition must reproduce them.
# d_ent was re-captured when the fixed point became exact to rounding (Newton
# from 0): its letter values moved by at most 5.7e-12 relative.
GOLDEN_POOLS = {
    "pool_a": {
        "walk": "a5b45c639b4aa916",
        "index": "20f339544379a306",
        "delta_t": "f4777ef2850f0299",
        "d_dist": "e656ad964ab90469",
        "d_ent": "738e3495c58d0157",
        "w_first": "4bbf202988d2d8e9",
        "w_second": "dddcf92033a5bb4f",
        "d_at": "b3d1c3914bab82ba",
        "tau": "4a5b14d68be383b7",
        "t0_time": "286a75244df8fa96",
        "t0_dist": "13174117146ecd87",
        "n_blocks": "2ab7b9b92616309c",
        "censored": "b65f36ed8ce210ef",
    },
    "pool_b": {
        "walk": "e76c7602afc5e40c",
        "index": "16da40773bd46497",
        "delta_t": "ca2bd155819dd16f",
        "d_dist": "17c8b8951684b6c7",
        "d_ent": "4e0865f0a4e28b7c",
        "w_first": "90153624db109711",
        "w_second": "f1e3b305bb4b7258",
        "d_at": "fc029d4036025e31",
        "tau": "42a4234d4a202e11",
        "t0_time": "4eef8595ed39d561",
        "t0_dist": "90fd59207ebd4d79",
        "n_blocks": "829e9f0ff798d78f",
        "censored": "81286c035fd8c9a5",
    },
}
GOLDEN_FINAL_CODES = {"a": "bd9dab5f35bd2d25", "b": "72e8889f2c46335d"}


class TestGolden:
    @pytest.mark.parametrize("name", ["pool_a", "pool_b"])
    def test_pool_arrays(self, name, request):
        pool, _ = request.getfixturevalue(name)
        got = {field: _digest(getattr(pool, field)) for field in GOLDEN_POOLS[name]}
        assert got == GOLDEN_POOLS[name]

    @pytest.mark.parametrize("label", ["a", "b"])
    def test_final_codes(self, label, request):
        cfg = request.getfixturevalue(f"instance_{label}")
        batch = simulate_batch(cfg, 300, 7, [stream_id(4, i) for i in range(16)])
        codes = np.concatenate([final_codes(batch, m) for m in range(batch.n_walks)])
        assert _digest(codes) == GOLDEN_FINAL_CODES[label]

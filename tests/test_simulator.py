"""Sampling determinism, exit-time detection, and renewal decomposition tests."""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewalk.core import POP, PUSH, Word, compile_kernel, in_cone, step_distribution
from freewalk.instances import instance_k3_k3, instance_path_k3
from freewalk.simulator import (
    ExitTime,
    NoConfirmedExit,
    Trajectory,
    batch_decompose,
    batch_walk_stats,
    default_workers,
    detect_exit_times,
    hit_probability_mc,
    renewal_decompose,
    sample_trajectory,
    simulate_batch,
    stream_id,
    stream_uniforms,
)
from freewalk.simulator import _step_tables

O = Word()
WA = Word(((1, "a"),))
WC = Word(((2, "c"),))
WAC = Word(((1, "a"), (2, "c")))
WACA = Word(((1, "a"), (2, "c"), (1, "a")))
WCA = Word(((2, "c"), (1, "a")))


def hand_trajectory(cfg, words):
    return Trajectory(seed=0, stream=0, cfg=cfg, states=tuple(words))


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
                assert abs(len(y) - len(x)) <= 1
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

    def test_batch_equals_scalar(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b):
            kernel = compile_kernel(cfg)
            streams = [stream_id(4, i) for i in range(5)]
            batch = simulate_batch(cfg, 250, 99, streams)
            for i, s in enumerate(streams):
                traj = sample_trajectory(cfg, 250, 99, stream=s)
                assert kernel.encode(traj.states[-1]) == tuple(
                    int(c) for c in batch.final_codes(i)
                )

    def test_uniform_stream_reproducible(self):
        a = stream_uniforms(5, 9, 16)
        b = stream_uniforms(5, 9, 16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, stream_uniforms(5, 10, 16))

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
        assert np.array_equal(serial.stacks, parallel.stacks)
        assert np.array_equal(serial.wtime, parallel.wtime)


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
            assert len(block.word) == 2
            assert block.word.letters[0][0] == 2 and block.word.letters[1][0] == 1
        # level identity: the word at T_j has exactly 2j + tau letters
        for j, t in enumerate(sample.renewal_times):
            assert len(traj.states[t]) == 2 * j + sample.tau

    def test_batch_matches_trajectory_path(self, instance_a, ctx_a):
        kernel = compile_kernel(instance_a)
        streams = [stream_id(4, i) for i in range(4)]
        batch = simulate_batch(instance_a, 800, 55, streams)
        pool = batch_decompose(batch, kernel, ctx_a, 100)
        for i, s in enumerate(streams):
            traj = sample_trajectory(instance_a, 800, 55, stream=s)
            sample = renewal_decompose(traj, ctx_a, 100)
            idx = pool.blocks_of_walk(i)
            assert pool.tau[i] == sample.tau
            assert pool.t0_time[i] == sample.renewal_times[0]
            assert list(pool.delta_t[idx]) == [b.delta_t for b in sample.blocks]
            assert list(pool.d_dist[idx]) == [b.d_dist for b in sample.blocks]
            assert np.allclose(pool.d_ent[idx], [b.d_ent for b in sample.blocks])
            assert list(pool.d_at[idx]) == sample.renewal_distances[1:]

    @pytest.mark.parametrize("n", [0, 1, 5, 60, 300])
    def test_write_times_are_exit_times(self, instance_b, ctx_b, n):
        kernel = compile_kernel(instance_b)
        streams = [stream_id(4, i) for i in range(12)]
        batch = simulate_batch(instance_b, n, 17, streams, chunk_size=5)
        pool = batch_decompose(batch, kernel, ctx_b, 20)
        for i, s in enumerate(streams):
            exits = detect_exit_times(sample_trajectory(instance_b, n, 17, s), 20)
            sp = int(batch.sp[i])
            assert [e.time for e in exits] == list(batch.wtime[i, 1 : sp + 1])
            assert pool.censored[i] == sum(not e.confirmed for e in exits)
            assert not batch.stacks[i, sp + 1 :].any()
            assert not batch.wtime[i, sp + 1 :].any()

    def test_blocks_of_walk_matches_mask(self, pool_b):
        pool, _ = pool_b
        for m in range(pool.n_walks + 1):
            assert np.array_equal(pool.blocks_of_walk(m), np.nonzero(pool.walk == m)[0])

    def test_pool_invariants(self, pool_a):
        pool, _ = pool_a
        assert pool.size > 1000
        assert np.all(pool.delta_t >= 2)
        assert np.all(pool.d_dist <= pool.delta_t)
        # telescoping of graph distances along renewal words, exactly
        for m in range(0, pool.n_walks, 37):
            idx = pool.blocks_of_walk(m)
            if len(idx) == 0:
                continue
            expect = pool.t0_dist[m] + np.cumsum(pool.d_dist[idx])
            assert np.array_equal(pool.d_at[idx], expect)


class TestWalkStats:
    def test_lengths_match_final_words(self, instance_a, ctx_a):
        kernel = compile_kernel(instance_a)
        batch = simulate_batch(instance_a, 200, 77, [stream_id(4, i) for i in range(3)])
        stats = batch_walk_stats(batch, kernel, ctx_a)
        for i in range(3):
            traj = sample_trajectory(instance_a, 200, 77, stream=stream_id(4, i))
            final = traj.states[-1]
            assert stats.length[i] == len(final)
            from freewalk.core import graph_distance
            from freewalk.genfun import dL_word

            assert stats.dist[i] == graph_distance(final, instance_a)
            assert math.isclose(stats.dl[i], dL_word(final, ctx_a))


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
    @pytest.mark.parametrize("make", [instance_k3_k3, instance_path_k3])
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
        g = np.searchsorted(grid, u, side="right")
        assert g.max() < len(grid)  # the cell of u >= 1 is never reached
        for state in range(len(kernel.cum)):
            j = (u[:, None] < kernel.cum[state]).argmax(axis=1)
            act = kernel.act[state, j]
            o = tables.row[state] + g
            assert np.array_equal(tables.let[o], kernel.let[state, j])
            assert np.array_equal(tables.up[o], act == PUSH)
            assert np.array_equal(tables.dsp[o], (act == PUSH).astype(int) - (act == POP))


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
        codes = np.concatenate([batch.final_codes(m) for m in range(batch.n_walks)])
        assert _digest(codes) == GOLDEN_FINAL_CODES[label]

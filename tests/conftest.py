"""Shared fixtures: instances, contexts, and session-scoped Monte Carlo pools."""

from __future__ import annotations

import numpy as np
import pytest

from freewalk.core import FactorSpec, WalkConfig, Word, compile_kernel
from freewalk.genfun import build_context, renewal_increment_law
from freewalk.instances import instance_k3_k3, instance_path_k3
from freewalk.simulator import BlockPool, simulate_pool

POOL_SEED_A = 101
POOL_SEED_B = 102


@pytest.fixture(scope="session")
def instance_a():
    return instance_k3_k3()


@pytest.fixture(scope="session")
def instance_b():
    return instance_path_k3()


@pytest.fixture(scope="session")
def kernel_a(instance_a):
    return compile_kernel(instance_a)


@pytest.fixture(scope="session")
def kernel_b(instance_b):
    return compile_kernel(instance_b)


@pytest.fixture(scope="session")
def ctx_a(instance_a):
    return build_context(instance_a)


@pytest.fixture(scope="session")
def ctx_b(instance_b):
    return build_context(instance_b)


@pytest.fixture(scope="session")
def law_a(instance_a):
    return renewal_increment_law(instance_a)


@pytest.fixture(scope="session")
def law_b(instance_b):
    return renewal_increment_law(instance_b)


# long per-walk windows keep the censoring bias (which decays with the
# usable horizon) well below one standard error of the pooled estimates
POOL_N = 6400
POOL_WALKS = 120


@pytest.fixture(scope="session")
def pool_a(instance_a, ctx_a):
    pool, stats = simulate_pool(instance_a, ctx_a, POOL_N, POOL_WALKS, POOL_SEED_A)
    return pool, stats


@pytest.fixture(scope="session")
def pool_b(instance_b, ctx_b):
    pool, stats = simulate_pool(instance_b, ctx_b, POOL_N, POOL_WALKS, POOL_SEED_B)
    return pool, stats


def word(*letters) -> Word:
    """Shorthand: word(('a', 1), ('c', 2)) or word(1, 'a', 2, 'c')."""
    if letters and isinstance(letters[0], tuple):
        return Word(tuple((f, v) for v, f in letters))
    pairs = tuple(zip(letters[0::2], letters[1::2]))
    return Word(tuple((int(f), str(v)) for f, v in pairs))


def make_pool(walks: list[list[tuple]]) -> BlockPool:
    """Synthetic block pool from per-walk ``(delta_t, d_dist, d_ent)`` triples.

    Block ``j`` appends the letter codes ``j + 1`` and 0 of a table whose
    column ``j + 1`` holds its ``d_dist``, 1 and ``d_ent``, and column 0 the
    second letter's 0, 1 and 0, so each block adds 2 to the word length.
    """
    walk_idx, block_idx, dts, dds, des = [], [], [], [], []
    t0s, taus, nbs = [], [], []
    for w, blocks in enumerate(walks):
        t0s.append(2 + w % 9)  # spread so tail fits have a usable range
        taus.append(1)
        nbs.append(len(blocks))
        for j, blk in enumerate(blocks, start=1):
            dt, dd, de = blk
            walk_idx.append(w)
            block_idx.append(j)
            dts.append(dt)
            dds.append(dd)
            des.append(de)
    m = len(walks)
    k = len(dts)
    return BlockPool(
        walk=np.array(walk_idx, dtype=np.int64),
        index=np.array(block_idx, dtype=np.int64),
        delta_t=np.array(dts, dtype=np.int64),
        w_first=np.arange(1, k + 1, dtype=np.int16),
        w_second=np.zeros(k, dtype=np.int16),
        tau=np.array(taus, dtype=np.int8),
        t0_time=np.array(t0s, dtype=np.int64),
        t0_dist=np.ones(m),
        n_blocks=np.array(nbs, dtype=np.int64),
        censored=np.zeros(m, dtype=np.int64),
        letter_rewards=np.array([[0.0, *dds], [1.0] * (k + 1), [0.0, *des]]),
    )


def instance_uneven(alpha: float = 0.4) -> WalkConfig:
    """Non-uniform factor rows: ten distinct thresholds in the step grid."""
    return WalkConfig(
        factor1=FactorSpec(
            1,
            ("o1", "a", "b", "e"),
            "o1",
            (
                (0.0, 0.5, 0.3, 0.2),
                (0.6, 0.0, 0.4, 0.0),
                (0.1, 0.2, 0.0, 0.7),
                (0.5, 0.0, 0.5, 0.0),
            ),
        ),
        factor2=FactorSpec(
            2, ("o2", "c", "d"), "o2", ((0.0, 0.7, 0.3), (0.4, 0.0, 0.6), (0.8, 0.2, 0.0))
        ),
        alpha=alpha,
        name="uneven",
    )


def instance_wide(alpha: float = 0.37) -> WalkConfig:
    """Random weights on two 14-vertex factors: 354 distinct thresholds at
    alpha 0.37, more than a byte counts."""
    rng = np.random.default_rng(300)

    def factor(i: int) -> FactorSpec:
        w = rng.integers(1, 10, size=(14, 14)).astype(float)
        np.fill_diagonal(w, 0)
        names = (f"o{i}", *(f"v{i}_{j}" for j in range(1, 14)))
        return FactorSpec(i, names, f"o{i}", tuple(map(tuple, w / w.sum(axis=1, keepdims=True))))

    return WalkConfig(factor1=factor(1), factor2=factor(2), alpha=alpha, name="wide")

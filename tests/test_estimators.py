"""Estimator arithmetic, KS machinery, diagnostics, and negative controls."""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from statistics import NormalDist

from conftest import instance_uneven, instance_wide, make_pool
from reference_walk import dL_word

from freewalk import estimators, simulator
from freewalk.cli import emit_json
from freewalk.core import InvalidConfig, WalkConfig, Word, step_distribution
from freewalk.estimators import (
    N_BOOT,
    RATE_NAMES,
    Z95,
    DegenerateSample,
    EmptyPool,
    InsufficientBlocks,
    MissingEpsilon0,
    bootstrap_sigma_se,
    estimate_rates,
    estimate_sigmas,
    iid_diagnostics,
    kolmogorov_sf,
    normality_test,
    run_clt_suite,
    smoothness_probe,
    tail_diagnostic,
    truncate_pool,
    two_sample_ks,
)
from freewalk.genfun import STATISTICS, build_context
from freewalk.instances import instance_k3_k3
from freewalk.oracle import enum_green_series
from freewalk.simulator import BlockPool, WalkStatsArrays, simulate_batch, simulate_pool


def stats_of(n, values):
    arr = np.asarray(values, dtype=float)
    return WalkStatsArrays(n=n, values=np.stack([arr] * len(STATISTICS)))


class TestRateArithmetic:
    def test_ratio_example(self):
        pool = make_pool([[(5, 3, 1.0)], [(5, 3, 1.0)]])
        stats = stats_of(10, [3.0, 3.0])
        rates = estimate_rates(pool, stats)
        assert math.isclose(rates.lambda_renewal.value, 0.6)
        assert math.isclose(rates.ell_renewal.value, 0.4)
        assert math.isclose(rates.lambda_direct.value, 0.3)

    def test_empty_pool(self):
        pool = make_pool([[], []])
        with pytest.raises(EmptyPool):
            estimate_rates(pool, stats_of(10, [1.0, 1.0]))

    def test_one_walk_has_no_interval(self):
        pool = make_pool([[(5, 3, 1.0), (4, 2, 1.0)]])
        with pytest.raises(InsufficientBlocks, match="got 1"):
            estimate_rates(pool, stats_of(10, [5.0]))


class TestTruncatePool:
    def test_keeps_the_least_yield(self):
        walks = [[(2, 2.0, 1.0)] * 3, [(4, 2.0, 1.5)] * 5, [], [(6, 2.0, 0.5)] * 4]
        pool = make_pool(walks)
        cut = truncate_pool(pool)
        assert cut.size == 9
        assert cut.n_blocks.tolist() == [3, 3, 0, 3]
        assert cut.index.max() == 3
        assert cut.walk.tolist() == [0, 0, 0, 1, 1, 1, 3, 3, 3]
        assert cut.delta_t.tolist() == [2] * 3 + [4] * 3 + [6] * 3
        assert np.array_equal(cut.tau, pool.tau)

    def test_explicit_count(self):
        pool = make_pool([[(2, 2.0, 1.0)] * 3, [(4, 2.0, 1.5)] * 5])
        cut = truncate_pool(pool, max_index=4)
        assert cut.n_blocks.tolist() == [3, 4]
        assert cut.size == 7

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            truncate_pool(make_pool([[], []]))

    def test_block_counts_are_the_walks_blocks(self, pool_b):
        """``n_blocks`` counts each walk's blocks, as the bootstrap reads it."""
        pool = pool_b[0]
        middle = int(np.median(pool.n_blocks))  # above the yield of half the walks
        for p in (pool, truncate_pool(pool), truncate_pool(pool, max_index=middle)):
            assert np.array_equal(p.n_blocks, np.bincount(p.walk, minlength=p.n_walks))


class TestSigmaArithmetic:
    def test_degenerate_flagged(self):
        pool = make_pool([[(5, 3, 1.0)], [(5, 3, 1.0)]])
        sig = estimate_sigmas(pool)
        assert sig.lambda_sq == 0.0
        assert sig.degenerate[0]

    def test_constant_pools_are_degenerate_through_roundoff(self):
        """Blocks of one reward and one increment: the expanded sums cancel
        to a few ulps on either side of zero, and every statistic is flagged."""
        for dt in range(1, 60):
            for reward in range(1, 8):
                sig = estimate_sigmas(make_pool([[(dt, reward, 1.0)]] * 2))
                assert all(sig.degenerate), (dt, reward, sig)

    def test_two_block_example(self):
        pool = make_pool([[(5, 3, 1.0)], [(7, 3, 1.0)]])
        sig = estimate_sigmas(pool)
        assert math.isclose(sig.lambda_sq, 0.25 / 6.0)
        assert not sig.degenerate[0]

    def test_bootstrap_se_reproducible(self, pool_a):
        pool, _ = pool_a
        a = bootstrap_sigma_se(pool, "ell", seed=3)
        b = bootstrap_sigma_se(pool, "ell", seed=3)
        assert a == b and a > 0


# -- the block-level reference: each estimate formed from per-block arrays, as
# the estimators did before they read the pool's per-walk summary


def _reference_walk_sums(pool, values):
    return np.bincount(pool.walk, weights=values, minlength=pool.n_walks)


def _reference_ratio(pool, rewards):
    total_t = float(pool.delta_t.sum())
    r = float(rewards.sum()) / total_t
    resid = _reference_walk_sums(pool, rewards) - r * _reference_walk_sums(
        pool, pool.delta_t.astype(float)
    )
    w = len(resid)
    var = float((resid**2).sum()) * w / (w - 1) / total_t**2
    return r, Z95 * math.sqrt(max(var, 0.0))


def _reference_sigma_sq(pool, rewards):
    dt = pool.delta_t.astype(float)
    rate = float(rewards.sum()) / float(dt.sum())
    return float(((rewards - dt * rate) ** 2).mean()) / float(dt.mean())


def _reference_bootstrap_se(pool, rewards, seed):
    dt = pool.delta_t.astype(float)
    agg = np.stack(
        [
            _reference_walk_sums(pool, rewards),
            _reference_walk_sums(pool, rewards * dt),
            _reference_walk_sums(pool, rewards**2),
            _reference_walk_sums(pool, dt),
            _reference_walk_sums(pool, dt**2),
            pool.n_blocks,
        ],
        axis=1,
    )
    w = pool.n_walks
    idx = np.random.Generator(np.random.Philox(key=seed)).integers(0, w, size=(N_BOOT, w))
    s_d, s_dt, s_d2, s_t, s_t2, s_k = agg[idx].sum(axis=1).T
    ok = (s_t > 0) & (s_k > 1)
    r = s_d[ok] / s_t[ok]
    mean_sq = (s_d2[ok] - 2 * r * s_dt[ok] + r**2 * s_t2[ok]) / s_k[ok]
    return float((mean_sq / (s_t[ok] / s_k[ok])).std(ddof=1))


def _bits(x):
    return np.float64(x).view(np.int64)


@pytest.fixture(scope="module")
def pool_uneven():
    cfg = instance_uneven()
    return simulate_pool(cfg, build_context(cfg), 3000, 80, 5)


@pytest.fixture(scope="module")
def pool_wide():
    """13 x 13 = 169 possible pairs of appended letters."""
    cfg = instance_wide()
    return simulate_pool(cfg, build_context(cfg), 3000, 80, 5)


REFERENCE_POOLS = [
    (name, cut)
    for name in ("pool_a", "pool_b", "pool_uneven", "pool_wide")
    for cut in (False, True)
]


class TestAgainstBlockLevelReference:
    """The per-walk summary gives every estimate of the block-level formulas:
    within 1e-13 relative, and bit for bit where the rewards are integers
    (``lambda`` and ``ell``) or no block is read (``*_direct``)."""

    @pytest.fixture(params=REFERENCE_POOLS, ids=lambda p: p[0] + ("-cut" if p[1] else ""))
    def case(self, request):
        name, cut = request.param
        pool, stats = request.getfixturevalue(name)
        return (truncate_pool(pool) if cut else pool), stats

    def test_rates(self, case):
        pool, stats = case
        rates = estimate_rates(pool, stats)
        for k, name in enumerate(RATE_NAMES):
            got = getattr(rates, f"{name}_renewal")
            ref = _reference_ratio(pool, pool.reward(k))
            if name == "h":
                assert got == pytest.approx(ref, rel=1e-13, abs=0), name
            else:
                assert list(map(_bits, got)) == list(map(_bits, ref)), name
            values = stats.values[k] / float(stats.n)
            se = float(values.std(ddof=1)) / math.sqrt(len(values))
            direct = getattr(rates, f"{name}_direct")
            assert list(map(_bits, direct)) == list(map(_bits, (values.mean(), Z95 * se)))

    def test_sigmas(self, case):
        pool, _ = case
        sig = estimate_sigmas(pool)
        for k, name in enumerate(RATE_NAMES):
            ref = _reference_sigma_sq(pool, pool.reward(k))
            assert getattr(sig, f"{name}_sq") == pytest.approx(ref, rel=1e-13, abs=0), name
        assert sig.degenerate == (False, False, False)

    def test_bootstrap(self, case):
        pool, _ = case
        for k, name in enumerate(RATE_NAMES):
            ref = _reference_bootstrap_se(pool, pool.reward(k), seed=3)
            assert bootstrap_sigma_se(pool, name, seed=3) == pytest.approx(ref, rel=1e-13, abs=0)


class TestOneSummaryPerPool:
    def test_every_estimate_reads_one_summary(self, pool_a, monkeypatch):
        """Rates, variances and the three bootstrap errors read the blocks
        through one compiled pass per pool, and no per-block reward array;
        a truncated pool makes its own pass."""
        walk_summary = simulator._step_library().walk_summary
        sizes = []

        def counted(*args):
            sizes.append(args[0])  # the blocks the pass sums
            return walk_summary(*args)

        def no_reward(pool, k):
            raise AssertionError("a per-block reward array was built")

        monkeypatch.setattr(
            simulator, "_step_library", lambda: SimpleNamespace(walk_summary=counted)
        )
        monkeypatch.setattr(BlockPool, "reward", no_reward)
        pool, stats = replace(pool_a[0]), pool_a[1]  # a copy without a summary
        for p in (pool, truncate_pool(pool)):
            estimate_rates(p, stats)
            estimate_sigmas(p)
            for name in RATE_NAMES:
                bootstrap_sigma_se(p, name, seed=3)
            assert sizes == [p.size]
            assert np.all(p.walk_summary[:, :, 5] == p.n_blocks)
            sizes.clear()


class TestNormalityTest:
    def test_exact_quantiles(self):
        m = 500
        q = [NormalDist().inv_cdf((i - 0.5) / m) for i in range(1, m + 1)]
        ks, p = normality_test(q)
        assert ks <= 1.0 / m + 1e-6
        assert p > 0.99

    def test_constant_sample(self):
        with pytest.raises(DegenerateSample):
            normality_test([1.0] * 50)

    def test_too_few(self):
        with pytest.raises(DegenerateSample):
            normality_test([0.1, 0.2])

    def test_gross_shift(self):
        m = 200
        q = [NormalDist().inv_cdf((i - 0.5) / m) + 10.0 for i in range(1, m + 1)]
        ks, p = normality_test(q)
        assert ks > 0.99
        assert p < 1e-6

    def test_kolmogorov_sf_reference_values(self):
        # classical critical points of the asymptotic Kolmogorov law
        assert math.isclose(kolmogorov_sf(1.3581), 0.05, abs_tol=2e-3)
        assert math.isclose(kolmogorov_sf(1.2238), 0.10, abs_tol=2e-3)
        assert math.isclose(kolmogorov_sf(1.6276), 0.01, abs_tol=1e-3)

    def test_kolmogorov_sf_branch_continuity(self):
        # the two theta-series branches meet at the switch point
        assert math.isclose(
            kolmogorov_sf(1.18 - 1e-9), kolmogorov_sf(1.18 + 1e-9), abs_tol=1e-7
        )
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(8.0) < 1e-30


class TestTwoSampleKs:
    def test_same_distribution(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        a = rng.normal(size=400)
        b = rng.normal(size=400)
        _, p = two_sample_ks(a, b)
        assert p > 0.01

    def test_shifted(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        a = rng.normal(size=400)
        _, p = two_sample_ks(a, a + 1.0)
        assert p < 1e-6


def geometric_pool(seed=5, walks=400, blocks=15):
    rng = np.random.Generator(np.random.Philox(key=seed))
    data = []
    for _ in range(walks):
        dts = 2 + rng.geometric(0.5, size=blocks)
        dds = 2.0 + rng.integers(0, 2, size=blocks)
        data.append([(int(t), float(d), 1.0) for t, d in zip(dts, dds)])
    return make_pool(data)


def ar1_pool(seed=5, walks=400, blocks=15, coef=0.5):
    rng = np.random.Generator(np.random.Philox(key=seed))
    data = []
    for _ in range(walks):
        z = 0.0
        row = []
        for _ in range(blocks):
            z = coef * z + rng.normal()
            dt = 2 + int(math.floor(abs(z) * 3))
            row.append((dt, 2.0 + (dt % 2), 1.0))
        data.append(row)
    return make_pool(data)


class TestIidDiagnostics:
    def test_iid_input_passes(self):
        diag = iid_diagnostics(geometric_pool())
        assert diag.ks_pvalue > 0.01
        assert abs(diag.lag_corr_dt[1]) < diag.corr_threshold[1]
        assert abs(diag.lag_corr_dd[1]) < diag.corr_threshold[1]

    def test_ar1_negative_control(self):
        diag = iid_diagnostics(ar1_pool())
        assert abs(diag.lag_corr_dt[1]) > diag.corr_threshold[1]

    def test_insufficient_blocks(self):
        with pytest.raises(InsufficientBlocks):
            iid_diagnostics(make_pool([[(5, 3, 1.0)] * 3] * 5))


def heavy_tail_pool(seed=9, walks=400, blocks=15):
    rng = np.random.Generator(np.random.Philox(key=seed))
    data = []
    for _ in range(walks):
        u = rng.random(blocks)
        dts = 2 + np.ceil(u ** (-1.0 / 1.5)).astype(int)  # survival ~ t^(-1.5)
        data.append([(int(t), 2.0, 1.0) for t in dts])
    return make_pool(data)


class TestTailDiagnostic:
    def test_geometric_slope(self):
        diag = tail_diagnostic(geometric_pool(walks=600))
        assert diag.dt_slope < 0
        expected = math.log(0.5)
        assert abs(diag.dt_slope - expected) / abs(expected) < 0.10
        assert diag.mgf_stable

    def test_heavy_tail_negative_control(self):
        diag = tail_diagnostic(heavy_tail_pool())
        assert (not diag.mgf_stable) or diag.dt_slope_drift > 0.25

    def test_insufficient(self):
        with pytest.raises(InsufficientBlocks):
            tail_diagnostic(make_pool([[(5, 3, 1.0)] * 5] * 10))

    def test_flat_survival_is_flagged(self, tmp_path):
        # two increment values: P[dT > t] = 1/2 on the whole fit range
        pool = make_pool([[(2, 2.0, 1.0), (50, 2.0, 1.0)] * 10 for _ in range(12)])
        diag = tail_diagnostic(pool)
        assert diag.dt_slope == 0.0 and diag.dt_slope_flat
        assert diag.dt_slope_half == 0.0
        assert math.isinf(diag.dt_slope_drift)
        emit_json(diag, tmp_path / "tail.json")
        doc = json.loads((tmp_path / "tail.json").read_text())
        assert doc["dt_slope_flat"] is True and doc["dt_slope_drift"] is None
        assert not tail_diagnostic(geometric_pool(walks=20)).dt_slope_flat


class TestCltExperiment:
    def test_pre_asymptotic_warning(self, instance_a):
        report = run_clt_suite(instance_a, 1, 50, 3, statistics=("block",))["block"]
        assert "pre-asymptotic" in report.warnings
        assert report.ks_stat is None and report.ks_pvalue is None

    def test_entropy_requires_epsilon0(self, instance_a):
        bare = WalkConfig(
            factor1=instance_a.factor1,
            factor2=instance_a.factor2,
            alpha=instance_a.alpha,
            loop_witness=instance_a.loop_witness,
        )
        with pytest.raises(MissingEpsilon0):
            run_clt_suite(bare, 500, 50, 3, statistics=("entropy",))["entropy"]

    def test_block_raw_values_are_integers_in_range(self, instance_a):
        report = run_clt_suite(instance_a, 400, 60, 3, statistics=("block",))["block"]
        raw = report.standardized_samples * report.sigma_estimate * math.sqrt(
            400
        ) + 400 * report.rate_estimate
        assert np.allclose(raw, np.round(raw), atol=1e-6)
        assert np.all(raw >= 0) and np.all(raw <= 400)

    def test_deterministic(self, instance_a):
        a = run_clt_suite(instance_a, 300, 40, 11, statistics=("dist",))["dist"]
        b = run_clt_suite(instance_a, 300, 40, 11, statistics=("dist",))["dist"]
        assert np.array_equal(a.standardized_samples, b.standardized_samples)

    def test_suite_simulates_its_walks_without_runs(self, instance_a, monkeypatch):
        """The statistics are read off letter counts, so the suite's batch
        holds no runs (15 MB on the headline clt)."""
        batches = []

        def spy(*args, **kwargs):
            batches.append(simulate_batch(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(estimators, "simulate_batch", spy)
        run_clt_suite(instance_a, 300, 40, 11)
        [batch] = batches
        assert batch.codes is None and batch.wtime is None
        assert batch.n_walks == 40


class TestSmoothness:
    def test_constant_family_zero_differences(self, instance_a):
        family = [(float(i), instance_a) for i in range(4)]
        report = smoothness_probe(family, 600, 40, 17, buffer=150)
        for col, d2s in report.second_differences.items():
            assert all(d == 0.0 for d in d2s), col
        assert not report.flagged

    def test_factor_swap_symmetry(self):
        lo = instance_k3_k3(alpha=0.35)
        hi = instance_k3_k3(alpha=0.65)
        family = [(0.35, lo), (0.65, hi)]
        report = smoothness_probe(family, 1200, 120, 19, buffer=300)
        for col in ("lambda", "ell", "h"):
            a, b = report.values[col]
            sa, sb = report.ses[col]
            assert abs(a - b) <= 2 * 1.96 * (sa + sb) + 1e-12, col

    def test_invalid_grid_point(self, instance_a):
        bad = WalkConfig(
            factor1=instance_a.factor1, factor2=instance_a.factor2, alpha=1.0
        )
        with pytest.raises(InvalidConfig, match=r"^grid point 1\.0: alpha_range: alpha must"):
            smoothness_probe([(1.0, bad)], 200, 10, 1)


class TestPlugInIdentity:
    def test_block_speed_times_mean_increment_is_two(self, pool_a, pool_b):
        for pool, stats in (pool_a, pool_b):
            rates = estimate_rates(pool, stats)
            product = rates.ell_renewal.value * pool.delta_t.mean()
            assert abs(product - 2.0) < 1e-12


class TestCltOnAsymmetricInstance:
    def test_three_statistics_decouple_and_pass(self):
        """On the path factor the three raw statistics are genuinely distinct."""
        from freewalk.instances import instance_path_k3

        suite = run_clt_suite(instance_path_k3(), 3000, 600, 31)
        rates = {s: r.rate_estimate for s, r in suite.items()}
        assert rates["dist"] > rates["block"] > rates["entropy"]
        for r in suite.values():
            assert r.ks_stat <= 0.06


class TestCltConstantsOfTheSuite:
    def test_rate_and_sigma_are_the_renewal_formulas(
        self, instance_a, instance_b, ctx_a, ctx_b, law_a, law_b
    ):
        """The constants clt standardizes with are criterion 10's formulas."""
        for cfg, ctx, law in ((instance_a, ctx_a, law_a), (instance_b, ctx_b, law_b)):
            f1 = cfg.factor1.distances_from_root()
            f2 = cfg.factor2.distances_from_root()
            dist_of = lambda pair: float(f2[pair[0]] + f1[pair[1]])
            dl_of = lambda pair: ctx.letter_dl(2, pair[0]) + ctx.letter_dl(1, pair[1])
            exact = {
                "dist": (law.rate(dist_of), law.sigma_sq(dist_of)),
                "block": (law.block_speed(), law.sigma_sq(lambda _: 2.0)),
                "entropy": (law.rate(dl_of), law.sigma_sq(dl_of)),
            }
            suite = run_clt_suite(cfg, 200, 20, 5)
            for stat, (rate, sigma_sq) in exact.items():
                r = suite[stat]
                assert abs(r.rate_estimate - rate) <= 1e-12 * rate, (cfg.name, stat)
                sigma = math.sqrt(sigma_sq)
                assert abs(r.sigma_estimate - sigma) <= 1e-12 * sigma, (cfg.name, stat)


def _entropy_gap_law(cfg, ctx, n):
    """The whole law ``pi_n`` of ``X_n`` from ``o``, and each word's gap
    ``-log pi_n(w) - d_L(o, w)``, over the support found by BFS."""
    support = {Word()}
    for _ in range(n):
        support = {w for x in support for w, p in step_distribution(x, cfg) if p > 0}
    words = sorted(support, key=lambda w: w.letters)
    pi = np.array([s.coeffs[n] for s in enum_green_series(Word(), words, n, cfg)])
    gaps = -np.log(pi) - np.array([dL_word(w, ctx) for w in words])
    return pi, gaps


class TestExactEntropyGap:
    """The letter distance ``d_L(o, X_n)`` that ``clt`` standardizes as its
    entropy statistic, against the paper's ``-log pi_n(X_n)``, exactly at small
    n: the gap's moments over the whole law of ``X_n``."""

    @pytest.mark.parametrize(
        "shape, words, mean, variance",
        [
            ("instance_a", 1021, 2.6166549166, 0.2424702186),
            ("instance_b", 373, 2.5556958641, 0.2605587651),
        ],
    )
    def test_moments_at_order_eight(self, shape, words, mean, variance, request):
        cfg = request.getfixturevalue(shape)
        ctx = request.getfixturevalue("ctx_" + shape[-1])
        pi, gaps = _entropy_gap_law(cfg, ctx, 8)
        assert len(pi) == words
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.all(np.isfinite(gaps))
        got = float(pi @ gaps)
        assert abs(got - mean) <= 1e-9
        assert abs(float(pi @ (gaps - got) ** 2) - variance) <= 1e-9

    @pytest.mark.parametrize("shape", ["instance_a", "instance_b"])
    def test_mean_grows_from_order_eight_to_twelve(self, shape, request):
        cfg = request.getfixturevalue(shape)
        ctx = request.getfixturevalue("ctx_" + shape[-1])
        (pi8, gaps8), (pi12, gaps12) = (_entropy_gap_law(cfg, ctx, n) for n in (8, 12))
        assert pi12 @ gaps12 > pi8 @ gaps8

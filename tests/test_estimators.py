"""Estimator arithmetic, KS machinery, diagnostics, and negative controls."""

import json
import math

import numpy as np
import pytest
from statistics import NormalDist

from conftest import make_pool

from freewalk.cli import emit_json
from freewalk.core import WalkConfig
from freewalk.estimators import (
    DegenerateSample,
    EmptyPool,
    InsufficientBlocks,
    MissingEpsilon0,
    bootstrap_sigma_se,
    entropy_proxy_gap,
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
from freewalk.instances import instance_k3_k3
from freewalk.simulator import WalkStatsArrays


def stats_of(n, values):
    arr = np.asarray(values, dtype=float)
    return WalkStatsArrays(n=n, length=arr, dist=arr, dl=arr)


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


class TestSigmaArithmetic:
    def test_degenerate_flagged(self):
        pool = make_pool([[(5, 3, 1.0)], [(5, 3, 1.0)]])
        sig = estimate_sigmas(pool)
        assert sig.lambda_sq == 0.0
        assert sig.degenerate[0]

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
        emit_json(diag.to_json_dict(), tmp_path / "tail.json")
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
        from freewalk.estimators import InvalidGridPoint

        bad = WalkConfig(
            factor1=instance_a.factor1, factor2=instance_a.factor2, alpha=1.0
        )
        with pytest.raises(InvalidGridPoint):
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
                "block": (law.block_speed(), law.sigma_block_sq()),
                "entropy": (law.rate(dl_of), law.sigma_sq(dl_of)),
            }
            suite = run_clt_suite(cfg, 200, 20, 5)
            for stat, (rate, sigma_sq) in exact.items():
                r = suite[stat]
                assert abs(r.rate_estimate - rate) <= 1e-12 * rate, (cfg.name, stat)
                sigma = math.sqrt(sigma_sq)
                assert abs(r.sigma_estimate - sigma) <= 1e-12 * sigma, (cfg.name, stat)


class TestEntropyProxyGap:
    def test_runs_and_is_deterministic(self, instance_a, ctx_a):
        gaps = entropy_proxy_gap(instance_a, ctx_a, 8, 25, 7)
        again = entropy_proxy_gap(instance_a, ctx_a, 8, 25, 7)
        assert gaps == again
        assert all(math.isfinite(g) for _, _, g in gaps)
        assert all(mlp > 0 for mlp, _, _ in gaps)

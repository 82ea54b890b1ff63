"""Resolvent evaluations, the first-passage fixed point, and the increment law."""

import math

import numpy as np
import pytest

from freewalk.core import Word
from freewalk.genfun import (
    NoConvergence,
    SingularSolve,
    _solve_xi_array,
    build_context,
    clt_constants,
    dL_word,
    factor_L,
    factor_green,
    radius_diagnostic,
    renewal_increment_gf,
    renewal_increment_law,
    solve_xi,
)
from freewalk.instances import instance_k3_k3, instance_path_k3
from freewalk.oracle import (
    enum_L_series,
    enum_xi_series,
    exact_renewal_increment_dist,
)

O = Word()
CA = Word(((2, "c"), (1, "a")))

XI_A = 2.0 / 3.0  # minimal root of the symmetric K3xK3 system, by hand
RADIUS_A = (8.0 * math.sqrt(2.0) - 4.0) / 7.0  # branch point of the same system


def _one_step(z, cfg, R1, R2):
    """One application of the first-passage system, written out per factor.

    Returns the new ``(R_1, R_2)`` and ``(xi_1, xi_2)`` solved from the
    ``xi`` equations, which are linear in ``xi`` once ``R`` is given.
    """
    f1, f2 = cfg.factor1, cfg.factor2
    a1, a2 = cfg.alphas
    p1, p2 = f1.matrix(), f2.matrix()
    nr1 = [f1.index(v) for v in f1.nonroot]
    nr2 = [f2.index(v) for v in f2.nonroot]
    r1, r2 = f1.root_index, f2.root_index
    s1 = R1 @ p1[r1, nr1]
    s2 = R2 @ p2[r2, nr2]
    new1 = a1 * z * (p1[nr1, r1] + p1[np.ix_(nr1, nr1)] @ R1) + a2 * z * s2 * R1
    new2 = a2 * z * (p2[nr2, r2] + p2[np.ix_(nr2, nr2)] @ R2) + a1 * z * s1 * R2
    return new1, new2, a1 * z / (1 - a2 * z * s2), a2 * z / (1 - a1 * z * s1)


def _monotone_reference(z, cfg, tol=1e-13, max_iter=100_000):
    """The fixed point by plain iteration from 0, kept as an independent route."""
    R1 = np.zeros(len(cfg.factor1.nonroot), dtype=complex)
    R2 = np.zeros(len(cfg.factor2.nonroot), dtype=complex)
    for _ in range(max_iter):
        new1, new2, xi1, xi2 = _one_step(z, cfg, R1, R2)
        moved = max(np.max(np.abs(new1 - R1)), np.max(np.abs(new2 - R2)))
        R1, R2 = new1, new2
        if moved < tol:
            return R1, R2, xi1, xi2
    raise AssertionError(f"reference iteration did not settle at z = {z}")


def _within_ulps(value, exact, ulps=4):
    return abs(value - exact) <= ulps * math.ulp(exact)


class TestFactorGreen:
    def test_identity_at_zero(self, instance_a):
        assert factor_green(instance_a, 1, "o1", "o1", 0.0) == 1.0
        assert factor_green(instance_a, 1, "o1", "a", 0.0) == 0.0

    def test_k3_closed_form(self, instance_a):
        # eigendecomposition of the uniform K3 row gives
        # G(o,o|t) = (1/3)/(1-t) + (2/3)/(1+t/2)
        assert math.isclose(factor_green(instance_a, 1, "o1", "o1", 0.5), 1.2)
        assert math.isclose(factor_green(instance_a, 1, "o1", "a", 0.5), 0.4)

    def test_resolvent_identity(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b):
            for i in (1, 2):
                f = cfg.factor(i)
                p = f.matrix()
                for t in (0.0, 0.25, 0.5):
                    g = np.array(
                        [
                            [factor_green(cfg, i, x, y, t) for y in f.vertices]
                            for x in f.vertices
                        ]
                    )
                    assert np.allclose(g, np.eye(f.size) + t * p @ g, atol=1e-10)

    def test_singular_at_one(self, instance_a):
        with pytest.raises(SingularSolve):
            factor_green(instance_a, 1, "o1", "o1", 1.0)

    def test_resolvent_matches_series_enumeration(self, instance_a, instance_b):
        """Dual route: linear solve vs taboo-free path enumeration."""
        from freewalk.oracle import factor_green_series

        t = 0.4
        for cfg in (instance_a, instance_b):
            for i in (1, 2):
                f = cfg.factor(i)
                for x in f.vertices:
                    for y in f.vertices:
                        series = factor_green_series(i, x, y, 40, cfg)
                        partial = float(series.eval(t))
                        solved = factor_green(cfg, i, x, y, t)
                        assert abs(solved - partial) < t**41 / (1 - t) + 1e-12


class TestFactorL:
    def test_self_is_one(self, instance_a):
        for t in (0.0, 0.3, 0.7):
            assert math.isclose(factor_L(instance_a, 1, "a", "a", t), 1.0)

    def test_k3_value(self, instance_a):
        assert math.isclose(factor_L(instance_a, 1, "o1", "a", 0.5), 1.0 / 3.0)

    def test_zero_at_origin(self, instance_a):
        assert factor_L(instance_a, 1, "o1", "a", 0.0) == 0.0


class TestSolveXi:
    def test_zero_at_zero(self, instance_a):
        sol = solve_xi(0.0, instance_a)
        assert sol.xi1 == 0.0 and sol.xi2 == 0.0
        assert all(v == 0.0 for v in sol.returns.values())

    def test_symmetric_instance(self, instance_a):
        sol = solve_xi(1.0, instance_a)
        assert math.isclose(sol.xi1.real, sol.xi2.real, rel_tol=1e-10)
        assert math.isclose(sol.xi1.real, XI_A, abs_tol=1e-9)
        assert all(
            math.isclose(v.real, 0.5, abs_tol=1e-9) for v in sol.returns.values()
        )

    def test_minimality_against_enumeration(self, instance_a, instance_b):
        """Partial sums approach the fixed point from below, geometrically."""
        for cfg in (instance_a, instance_b):
            sol = solve_xi(1.0, cfg)
            partials = enum_xi_series(1, 14, cfg).partial_sums()
            gaps = [sol.xi1.real - p for p in partials[1:]]
            assert all(g > 0 for g in gaps)
            ratios = [b / a for a, b in zip(gaps[7:], gaps[8:])]
            assert all(r < 1.0 for r in ratios)

    def test_return_table_against_absorbing_enumeration(
        self, instance_a, instance_b
    ):
        """The fixed point's return values match first-passage enumeration.

        Mass absorbed at the root, step by step, gives partial sums that
        increase to the minimal solution from below.
        """
        from freewalk.core import compile_kernel

        for cfg in (instance_a, instance_b):
            kernel = compile_kernel(cfg)
            sol = solve_xi(1.0, cfg)
            for (j, v), value in sol.returns.items():
                start = kernel.encode(Word(((j, v),)))
                dist = {start: 1.0}
                absorbed = 0.0
                previous = 0.0
                for _ in range(16):
                    new: dict = {}
                    for w, p in dist.items():
                        for w2, q in kernel.successors(w):
                            if w2 == ():
                                absorbed += p * q
                            else:
                                new[w2] = new.get(w2, 0.0) + p * q
                    dist = new
                    # absorption can pause on parity, never regress or overshoot
                    assert previous <= absorbed <= value.real + 1e-12
                    previous = absorbed
                assert 0.0 < value.real - absorbed < 0.25  # tail arrives late

    def test_divergence_beyond_radius(self, instance_a):
        with pytest.raises(NoConvergence):
            solve_xi(1.2, instance_a, max_iter=100_000)
        sol = solve_xi(1.2, instance_a, max_iter=100_000, raise_on_divergence=False)
        assert not sol.converged

    def test_converges_just_inside_radius(self, instance_a):
        sol = solve_xi(RADIUS_A - 5e-3, instance_a, max_iter=400_000)
        assert sol.converged

    def test_closed_forms_at_one(self):
        """K3xK3 at alpha 1/2 and 1/10 solve by hand to rationals."""
        sol = solve_xi(1.0, instance_k3_k3(0.5))
        assert _within_ulps(sol.xi1, 2 / 3) and _within_ulps(sol.xi2, 2 / 3)
        assert all(_within_ulps(v, 0.5) for v in sol.returns.values())
        sol = solve_xi(1.0, instance_k3_k3(0.1))
        assert _within_ulps(sol.xi1, 22 / 49) and _within_ulps(sol.xi2, 38 / 41)

    @pytest.mark.parametrize(
        "make, alpha",
        [(instance_k3_k3, a) for a in (0.02, 0.1, 0.5, 0.9)]
        + [(instance_path_k3, a) for a in (0.1, 0.5, 0.9)],
    )
    def test_fixed_point_residual(self, make, alpha):
        cfg = make(alpha)
        sol = solve_xi(1.0, cfg)
        R1 = np.array([sol.returns[(1, v)] for v in cfg.factor1.nonroot])
        R2 = np.array([sol.returns[(2, v)] for v in cfg.factor2.nonroot])
        new1, new2, xi1, xi2 = _one_step(1.0, cfg, R1, R2)
        assert np.max(np.abs(new1 - R1)) < 1e-14
        assert np.max(np.abs(new2 - R2)) < 1e-14
        assert abs(xi1 - sol.xi1) < 1e-14 and abs(xi2 - sol.xi2) < 1e-14

    @pytest.mark.parametrize("z", [1.18, 1.2])
    def test_spurious_root_beyond_radius_rejected(self, z):
        """Newton reaches a root with negative xi_1 here unless guarded."""
        sol = solve_xi(z, instance_k3_k3(0.1), raise_on_divergence=False)
        assert sol.converged is False

    def test_fft_circle_against_monotone_reference(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b, instance_k3_k3(0.1)):
            for k in range(9):
                z = complex(np.exp(2j * np.pi * k / 16))
                sol = solve_xi(z, cfg)
                R1, R2, xi1, xi2 = _monotone_reference(z, cfg)
                got1 = [sol.returns[(1, v)] for v in cfg.factor1.nonroot]
                got2 = [sol.returns[(2, v)] for v in cfg.factor2.nonroot]
                assert np.max(np.abs(np.array(got1) - R1)) < 1e-10
                assert np.max(np.abs(np.array(got2) - R2)) < 1e-10
                assert abs(sol.xi1 - xi1) < 1e-10 and abs(sol.xi2 - xi2) < 1e-10

    def test_singular_newton_system_is_not_converged(self, instance_a):
        """At z = 4 the first Newton matrix ``I - z A`` is exactly singular."""
        sol = solve_xi(4.0, instance_a, raise_on_divergence=False)
        assert not sol.converged and sol.iterations == 1
        report = radius_diagnostic(instance_a, grid=[1.0, 4.0])
        assert report.converged_at == [1.0]

    def test_circle_beyond_radius_not_converged(self, instance_a):
        """Points whose modulus is past the radius fail, those inside pass."""
        circle = np.exp(2j * np.pi * np.arange(8) / 8)
        assert not _solve_xi_array(1.2 * circle, instance_a).converged.any()
        assert _solve_xi_array(0.9 * RADIUS_A * circle, instance_a).converged.all()


class TestContext:
    def test_invariants(self, ctx_a, ctx_b):
        for ctx in (ctx_a, ctx_b):
            assert 0.0 < ctx.xi1 < 1.0 and 0.0 < ctx.xi2 < 1.0
            assert 0.0 < ctx.cone_stay[0] < 1.0 and 0.0 < ctx.cone_stay[1] < 1.0
            bound = 1.0 / (ctx.cone_stay[0] * ctx.cone_stay[1])
            assert all(0.0 < L <= bound for L in ctx.letter_L.values())
            assert ctx.cl_constant > 0.0

    def test_cl_constant_instance_a(self, ctx_a):
        assert math.isclose(ctx_a.cl_constant, math.log(9.0), abs_tol=1e-8)

    def test_consistency_with_cached_xi(self, ctx_a):
        assert math.isclose(
            ctx_a.cl_constant,
            -math.log((1 - ctx_a.xi1) * (1 - ctx_a.xi2)),
        )


class TestLetterDistance:
    def test_root_is_zero(self, ctx_a):
        assert dL_word(O, ctx_a) == 0.0

    def test_two_letter_value(self, ctx_a):
        # both letters sit at factor value 1/2 on the symmetric instance
        assert math.isclose(dL_word(CA, ctx_a), 2.0 * math.log(2.0), abs_tol=1e-9)

    def test_additivity(self, ctx_a, ctx_b):
        from freewalk.core import concat

        u = Word(((2, "c"),))
        v = Word(((1, "a"), (2, "d")))
        assert math.isclose(
            dL_word(concat(u, v), ctx_a), dL_word(u, ctx_a) + dL_word(v, ctx_a)
        )

    def test_pair_bounds(self, instance_a, ctx_a):
        eps = instance_a.epsilon0
        for y in ("c", "d"):
            for x in ("a", "b"):
                w = Word(((2, y), (1, x)))
                val = dL_word(w, ctx_a)
                assert abs(val) <= max(-math.log(eps) * 2.0, ctx_a.cl_constant) + 1e-12

    def test_matches_truncated_series_at_one(self, instance_a, ctx_a):
        """The series partial sums under-approximate exp(-dL) and close the gap."""
        series = enum_L_series(O, CA, 14, instance_a)
        partials = [float(p) for p in series.partial_sums()]
        limit = math.exp(-dL_word(CA, ctx_a))
        assert all(p <= limit + 1e-12 for p in partials)
        gap_then = limit - partials[10]
        gap_now = limit - partials[14]
        assert 0 < gap_now < gap_then
        # geometric continuation narrows the remaining gap substantially
        # (it cannot close it: the true tail decays slower than the last ratio)
        ratio = (partials[14] - partials[13]) / (partials[13] - partials[12])
        extrapolated = partials[14] + (partials[14] - partials[13]) * ratio / (1 - ratio)
        assert abs(extrapolated - limit) < gap_now
        assert abs(extrapolated - limit) / limit < 5e-2


class TestRadiusDiagnostic:
    def test_instance_a(self, instance_a):
        report = radius_diagnostic(instance_a, grid=[1.0, 1.02, 1.04, 1.06, 1.1])
        assert report.plausible
        assert report.largest_converging >= 1.02
        assert report.largest_converging < RADIUS_A
        values = [v for _, v in report.spectral_proxy]
        assert values[-1] < 1.0

    def test_always_converges_at_one(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b):
            report = radius_diagnostic(cfg, grid=[1.0])
            assert report.converged_at == [1.0]

    def test_refused_for_invalid_config(self, instance_a):
        from freewalk.core import InvalidConfig, WalkConfig

        bad = WalkConfig(
            factor1=instance_a.factor1, factor2=instance_a.factor2, alpha=1.5
        )
        with pytest.raises(InvalidConfig):
            radius_diagnostic(bad, grid=[1.0])


class TestRenewalIncrementLaw:
    def test_gf_is_one_at_one(self, instance_a, instance_b):
        assert math.isclose(renewal_increment_gf(1.0, instance_a).real, 1.0, abs_tol=1e-9)
        assert math.isclose(renewal_increment_gf(1.0, instance_b).real, 1.0, abs_tol=1e-9)

    def test_mean_increment_instance_a(self, law_a):
        # block speed is exactly 1/4 on K3xK3 (push 1/2, pop 1/4 at every
        # non-root word), so the mean increment is exactly 8
        assert math.isclose(law_a.mean(), 8.0, abs_tol=1e-7)
        assert math.isclose(law_a.block_speed(), 0.25, abs_tol=1e-8)

    def test_law_is_complete(self, law_a, law_b):
        assert abs(law_a.unassigned) < 1e-9
        assert abs(law_b.unassigned) < 1e-9

    def test_matches_enumeration(self, instance_a, instance_b, law_a, law_b):
        for cfg, law in ((instance_a, law_a), (instance_b, law_b)):
            table = exact_renewal_increment_dist(12, cfg)
            dp = np.array(table.delta_t_probs)
            assert np.max(np.abs(dp - law.delta_t_probs[:13])) < 1e-12
            for pair in law.pairs:
                dp_pair = table.pair_probs[pair]
                assert np.max(np.abs(dp_pair - law.pair_probs[pair][:13])) < 1e-12

    def test_moments_match_gf_derivatives(self, instance_a, law_a):
        """Dual route: law moments vs numerical derivatives of the gf.

        Step sizes balance truncation against cancellation: the third and
        fourth derivatives of the gf are large (heavy geometric tail).
        """
        f = lambda z: renewal_increment_gf(z, instance_a).real
        h1 = 1e-5
        d1 = (f(1 + h1) - f(1 - h1)) / (2 * h1)
        h2 = 1e-3
        d2 = (f(1 + h2) - 2 * f(1.0) + f(1 - h2)) / (h2 * h2)
        assert math.isclose(law_a.mean(), d1, rel_tol=1e-5)
        var_from_gf = d2 + d1 - d1 * d1
        assert math.isclose(law_a.variance(), var_from_gf, rel_tol=1e-3)

    def test_complex_step_mean(self, instance_a, law_a):
        """``F'(1)`` by complex step equals the law's mean, and 8 exactly."""
        h = 1e-8
        slope = renewal_increment_gf(1.0 + 1j * h, instance_a).imag / h
        assert abs(slope - law_a.mean()) < 1e-9
        assert abs(slope - 8.0) < 1e-10

    def test_sigma_block_formula(self, law_a):
        # E[(2 - increment * speed)^2] / E[increment] with speed = 2/mean
        m, v = law_a.mean(), law_a.variance()
        assert math.isclose(law_a.sigma_block_sq(), 4.0 * v / m**3, rel_tol=1e-10)

    @pytest.mark.parametrize("make", [instance_k3_k3, instance_path_k3])
    def test_mean_is_complex_step_slope(self, make):
        """No coefficient is cut: the whole geometric tail enters the mean."""
        cfg = make()
        h = 1e-8
        slope = renewal_increment_gf(1.0 + 1j * h, cfg).imag / h
        assert abs(renewal_increment_law(cfg).mean() - slope) <= 1e-12 * slope


class TestCltConstants:
    def test_block_rate_is_one_quarter(self, instance_a, ctx_a, law_a):
        constants = clt_constants(law_a, instance_a, ctx_a)
        assert abs(constants["block"].rate - 0.25) < 1e-13

    def test_truncated_law_is_refused(self):
        cfg = instance_k3_k3(0.02)
        law = renewal_increment_law(cfg)
        assert law.unassigned > 1e-4
        with pytest.raises(NoConvergence, match="unassigned"):
            clt_constants(law, cfg, build_context(cfg))

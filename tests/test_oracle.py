"""Series arithmetic and exact enumeration tests.

Identity checks at small order live here; the full coefficientwise suite at
orders 10 (rational) and 14 (float) runs in the acceptance module.
"""

import hashlib
import json
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from conftest import instance_uneven, instance_wide
from reference_series import (
    ComposeNeedsZeroConstant,
    compose,
    factor_green_series,
    factor_L_series,
)

from freewalk.cli import main
from freewalk.core import Word, compile_kernel
from freewalk import oracle
from freewalk.instances import instance_k3_k3, instance_path_k3
from freewalk.oracle import (
    WORD_BUDGET,
    OrderTooLarge,
    TruncatedSeries,
    WordIndex,
    _Walk,
    enum_green_series,
    enum_L_series,
    enum_xi_series,
    exact_renewal_increment_dist,
    max_coeff_gap,
    predicted_words,
    return_probability_proxy,
    series_combine,
)

O = Word()
A1 = Word(((1, "a"),))
C2 = Word(((2, "c"),))
CA = Word(((2, "c"), (1, "a")))


class TestSeriesCombine:
    def test_multiply_identity(self):
        ones = TruncatedSeries((1, 1, 1, 1))
        unit = TruncatedSeries((1, 0, 0, 0))
        assert series_combine(ones, unit).coeffs == (1, 1, 1, 1)

    def test_multiply_binomial(self):
        s = TruncatedSeries((1, 1, 0))
        assert series_combine(s, s).coeffs == (1, 2, 1)

    def test_compose_with_z_is_identity(self):
        ident = TruncatedSeries((0, 1, 0, 0))
        b = TruncatedSeries((0, 2, 5, 7))
        assert compose(ident, b).coeffs == (0, 2, 5, 7)

    def test_compose_needs_zero_constant(self):
        a = TruncatedSeries((1, 1))
        b = TruncatedSeries((1, 1))
        with pytest.raises(ComposeNeedsZeroConstant):
            compose(a, b)

    def test_exact_rational_compose(self):
        a = TruncatedSeries((Fraction(1), Fraction(1, 2), Fraction(1, 3)))
        b = TruncatedSeries((Fraction(0), Fraction(1, 5), Fraction(1, 7)))
        out = compose(a, b)
        # 1 + b/2 + b^2/3 truncated at order 2
        assert out.coeffs == (
            Fraction(1),
            Fraction(1, 10),
            Fraction(1, 14) + Fraction(1, 75),
        )


class TestGreenSeries:
    def test_constant_coefficient(self, instance_a):
        s = enum_green_series(O, O, 4, instance_a, exact=True)
        assert s.coeffs[0] == 1
        assert s.coeffs[1] == 0  # zero diagonals force a move

    def test_two_step_return(self, instance_a):
        s = enum_green_series(O, O, 4, instance_a, exact=True)
        assert s.coeffs[2] == Fraction(1, 4)

    def test_order_cap(self, instance_a):
        with pytest.raises(OrderTooLarge):
            enum_green_series(O, O, 15, instance_a)

    def test_probability_range(self, instance_b):
        s = enum_green_series(O, C2, 10, instance_b)
        assert all(0.0 <= c <= 1.0 for c in s.coeffs)


class TestFirstPassage:
    def test_L_self_is_unit(self, instance_a):
        s = enum_L_series(A1, A1, 6, instance_a, exact=True)
        assert s.coeffs == (1,) + (0,) * 6

    def test_xi_first_coefficient(self, instance_a):
        s = enum_xi_series(1, 6, instance_a, exact=True)
        assert s.coeffs[1] == Fraction(1, 2)  # alpha_1 times a stochastic row

    def test_xi_partial_sums_strictly_below_one(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b):
            s = enum_xi_series(1, 14, cfg)
            partials = list(accumulate(s.coeffs))
            assert all(p < 1.0 for p in partials)
            assert partials[-1] > partials[2]  # increasing in the order


def _oracle_check_words(cfg):
    """The word set of ``oracle-check``: o and every one-letter word."""
    return [O] + [Word(((i, v),)) for i in (1, 2) for v in cfg.factor(i).nonroot]


class TestOneWalkPerSource:
    @pytest.mark.parametrize("shape", ["instance_a", "instance_b"])
    @pytest.mark.parametrize("exact, order", [(False, 14), (True, 10)])
    @pytest.mark.parametrize("enum", [enum_green_series, enum_L_series])
    def test_per_source_equals_per_pair(self, shape, exact, order, enum, request):
        cfg = request.getfixturevalue(shape)
        words = _oracle_check_words(cfg)
        for x in words:
            per_source = enum(x, words, order, cfg, exact=exact)
            per_pair = tuple(enum(x, y, order, cfg, exact=exact) for y in words)
            assert per_source == per_pair, x

    @pytest.mark.parametrize("shape", ["instance_a", "instance_b"])
    def test_L_at_the_source_is_unit(self, shape, request):
        cfg = request.getfixturevalue(shape)
        words = _oracle_check_words(cfg)
        for i, x in enumerate(words):
            last_exit = enum_L_series(x, words, 10, cfg, exact=True)
            assert last_exit[i].coeffs == (1,) + (0,) * 10

    def test_out_of_reach_target_reads_zero(self, instance_a):
        for exact in (False, True):
            green = enum_green_series(O, [CA, O, A1], 1, instance_a, exact=exact)
            assert [s.coeffs for s in green] == [(0, 0), (1, 0), (0, Fraction(1, 4))]
            assert enum_L_series(O, [CA], 1, instance_a, exact=exact)[0].coeffs == (0, 0)

    def test_a_word_gives_one_series_and_a_sequence_a_tuple(self, instance_a):
        single = enum_green_series(O, A1, 4, instance_a)
        assert isinstance(single, TruncatedSeries)
        assert enum_green_series(O, (A1,), 4, instance_a) == (single,)
        assert enum_green_series(O, [], 4, instance_a) == ()


class TestMaxCoeffGap:
    def test_rational_gap_below_one_ulp_is_flagged(self):
        a = TruncatedSeries((Fraction(1), Fraction(1, 3), Fraction(0)))
        b = TruncatedSeries((Fraction(1), Fraction(1, 3) + Fraction(1, 3**80), Fraction(0)))
        assert float(a.coeffs[1]) == float(b.coeffs[1])  # a float comparison cannot see it
        assert max_coeff_gap(a, b) == Fraction(1, 3**80)
        assert max_coeff_gap(a, b) > 0.0
        assert max_coeff_gap(a, a) == 0

    def test_float_gap(self):
        a = TruncatedSeries((1.0, 0.5))
        assert max_coeff_gap(a, TruncatedSeries((1.0, 0.25))) == 0.25


class TestIdentitiesSmallOrder:
    def test_green_equals_green_times_L(self, instance_a):
        n = 8
        gxx = enum_green_series(O, O, n, instance_a, exact=True)
        for y in (A1, C2, CA):
            gxy = enum_green_series(O, y, n, instance_a, exact=True)
            lxy = enum_L_series(O, y, n, instance_a, exact=True)
            assert gxy.coeffs == series_combine(gxx, lxy).coeffs

    def test_L_multiplicative_through_cut_point(self, instance_a):
        n = 8
        lhs = enum_L_series(O, CA, n, instance_a, exact=True)
        l1 = enum_L_series(O, C2, n, instance_a, exact=True)
        l2 = enum_L_series(C2, CA, n, instance_a, exact=True)
        assert lhs.coeffs == series_combine(l1, l2).coeffs

    def test_free_product_L_composes_factor_L_with_xi(self, instance_b):
        n = 8
        for y_name in ("m", "e"):
            lhs = enum_L_series(
                O, Word(((1, y_name),)), n, instance_b, exact=True
            )
            factor = factor_L_series(1, "o1", y_name, n, instance_b, exact=True)
            xi = enum_xi_series(1, n, instance_b, exact=True)
            rhs = compose(factor, xi)
            assert lhs.coeffs == rhs.coeffs


class TestRenewalIncrement:
    def test_no_single_step_increment(self, instance_a):
        table = exact_renewal_increment_dist(6, instance_a, exact=True)
        assert table.delta_t_probs[1] == 0.0

    def test_two_step_increment_is_quarter(self, instance_a):
        table = exact_renewal_increment_dist(6, instance_a, exact=True)
        assert table.delta_t_probs[2] == 0.25

    def test_mass_increases_and_stays_subprobability(self, instance_a):
        t6 = exact_renewal_increment_dist(6, instance_a)
        t10 = exact_renewal_increment_dist(10, instance_a)
        assert 0.0 < 1 - t6.unassigned < 1 - t10.unassigned < 1.0
        assert t10.unassigned > 0.0

    def test_pair_marginal_symmetry(self, instance_a):
        table = exact_renewal_increment_dist(8, instance_a)
        marg = {pair: probs.sum() for pair, probs in table.pair_probs.items()}
        values = sorted(marg.values())
        # all four appended pairs are exchangeable on the symmetric instance
        assert max(values) - min(values) < 1e-12

    def test_order_cap(self, instance_a):
        with pytest.raises(OrderTooLarge):
            exact_renewal_increment_dist(15, instance_a)


class TestMgfConsistency:
    def test_truncated_law_matches_empirical_mgf(self, instance_a, pool_a):
        """The truncated increment law reproduces sampled moments of z^dT.

        At z = 0.5 the truncation tail is geometrically negligible; at z = 1
        both sides reduce to total mass.
        """
        import numpy as np

        pool, _ = pool_a
        table = exact_renewal_increment_dist(14, instance_a)
        probs = table.delta_t_probs
        n_max = len(probs) - 1
        for z in (0.5, 1.0):
            truncated = sum(p * z**n for n, p in enumerate(probs))
            exact = truncated + table.unassigned * z ** (n_max + 1)
            samples = z ** pool.delta_t.astype(float)
            emp = float(samples.mean())
            se = float(samples.std(ddof=1)) / np.sqrt(pool.size)
            slack = table.unassigned * z ** (n_max + 1)  # tail bracket width
            assert abs(emp - truncated) <= 3 * se + slack, (z, emp, truncated)


class TestSpectralProxy:
    def test_nondecreasing_and_below_one(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b):
            proxy = return_probability_proxy(cfg, 14)
            values = [v for _, v in proxy]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] < 1.0


class TestFactorSeries:
    def test_factor_green_matches_known_k3_values(self, instance_a):
        # K3 return probabilities: p^(n)(o,o) = 1/3 + (2/3)(-1/2)^n
        s = factor_green_series(1, "o1", "o1", 8, instance_a, exact=True)
        for n in range(9):
            expected = Fraction(1, 3) + Fraction(2, 3) * Fraction(-1, 2) ** n
            assert s.coeffs[n] == expected

    def test_factor_L_taboo(self, instance_a):
        s = factor_L_series(1, "o1", "o1", 6, instance_a, exact=True)
        assert s.coeffs == (1,) + (0,) * 6


class TestPins:
    """Outputs of the dict-based enumeration that preceded the array engine.

    Captured before the engine changed; any difference is a regression.  At
    alpha = 0.3 the exact denominators exceed int64, so the Fraction pins are
    the coverage of the Python-int numerators.
    """

    ORACLE_CHECK = {
        ("K3xK3", "--float"): {
            "oracle_check_xi_series.csv": "722a8a6de25df0a5b1fd2aa556ce73c297c098bdf4c32b9497723a6b96645906",
            "oracle_check_increment_table.csv": "afb69cd0186972ebaf46a38b9acc24b24e0e1ed99a13baae86793d45d89f55ee",
            "oracle_check_summary.json": "b0e99d5632d290e33196ffb9e102a817c0fa9a8a6e98f532635293d71131bb26",
        },
        ("PathxK3",): {
            "oracle_check_xi_series.csv": "97225250489b9784e88433adde048dc3e97e4bc0a9942a925748a4e0f4097480",
            "oracle_check_increment_table.csv": "3c1b1030e75973e1a63d1f79883f2aafe06a7c88b1d9513da54fa140e300fc1b",
            "oracle_check_summary.json": "57b61e033eb0e80cd6b54a2e47ce8ad11ee42fd70a0d17bfe602296a608a5fc9",
        },
    }

    @pytest.mark.parametrize("invocation", sorted(ORACLE_CHECK))
    def test_oracle_check_artifacts(self, invocation, tmp_path, capsys):
        config, *flags = invocation
        argv = ["oracle-check", "--config", config, "--order", "14", *flags]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        for name, digest in self.ORACLE_CHECK[invocation].items():
            blob = (tmp_path / name).read_bytes()
            if name.endswith(".json"):
                doc = json.loads(blob)
                del doc["manifest"]  # holds the output directory
                blob = json.dumps(doc, sort_keys=True).encode()
            assert hashlib.sha256(blob).hexdigest() == digest, name

    @staticmethod
    def _digest(series) -> str:
        text = ",".join(f"{c.numerator}/{c.denominator}" for c in series.coeffs)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_exact_series_beyond_int64(self):
        cfg = instance_k3_k3(0.3)
        green = enum_green_series(O, O, 8, cfg, exact=True)
        assert green.coeffs[2] == Fraction(
            94110380560943752208267126725673, 324518553658426726783156020576256
        )
        assert self._digest(green) == (
            "95a87e1f06aadbc8d14d0d8c51544278c9dfb135e06afe919b12c4f03d189df2"
        )
        assert self._digest(enum_L_series(O, A1, 8, cfg, exact=True)) == (
            "af0f66ea579ea2a54db17a4656295310523fcb5bca2d83b13e9d73246c3a1c7d"
        )
        assert self._digest(enum_xi_series(1, 8, cfg, exact=True)) == (
            "951174977901b4f357d5cc462cd98d9af5cf8ecb03b88e62ce058392949ef49c"
        )
        table = exact_renewal_increment_dist(8, cfg, exact=True)
        assert table.delta_t_probs.tolist() == [
            0, 0, 0.21, 0.105, 0.102375, 0.076125,
            0.0646918125, 0.05274084375, 0.04457090859375,
        ]


def _decode(index, node: int) -> tuple[int, ...]:
    codes = []
    while node:
        codes.append(int(index.letter[node]))
        node = int(index.parent[node])
    return tuple(reversed(codes))


class TestWordIndex:
    """The index's step law against the scalar successor law."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("shape", ["instance_a", "instance_b"])
    def test_support_equals_successor_bfs(self, shape, exact, request):
        cfg = request.getfixturevalue(shape)
        kernel = compile_kernel(cfg)
        one = [Word(((i, v),)) for i in (1, 2) for v in cfg.factor(i).nonroot]
        two = Word(((2, cfg.factor2.nonroot[0]), (1, cfg.factor1.nonroot[-1])))
        for x in [O, *one, two]:
            for N in (0, 1, 9):
                walk = _Walk(kernel, kernel.encode(x), N, exact)
                level = {kernel.encode(x)}
                for t in range(N + 1):
                    if t:
                        walk.step()
                        level = {w for u in level for w, p in kernel.successors(u) if p > 0}
                    support = {_decode(walk.index, n) for n in np.flatnonzero(walk.mass)}
                    assert support == level, (x, N, t)

    def test_nodes_are_distinct_words(self, instance_b):
        walk = _Walk(compile_kernel(instance_b), (), 8, exact=False)
        words = [_decode(walk.index, n) for n in range(walk.size)]
        assert len(set(words)) == len(words)
        assert all(walk.find(w) == n for n, w in enumerate(words))


class TestWordBudget:
    @pytest.mark.parametrize("make", [instance_k3_k3, instance_path_k3, instance_uneven])
    def test_prediction_equals_the_index(self, make):
        kernel = compile_kernel(make())
        index = WordIndex(kernel).grow(12)
        assert [predicted_words(kernel, d) for d in range(13)] == index.end

    def test_the_shipped_orders_fit(self):
        """``oracle-check --order 14`` walks from one-letter words, at letter
        distance 1 on K3xK3 and up to 2 on PathxK3."""
        assert predicted_words(compile_kernel(instance_k3_k3()), 15) == 131_069
        assert predicted_words(compile_kernel(instance_path_k3()), 16) == 36_061
        assert 131_069 < WORD_BUDGET

    def test_wide_factors_exit_4_before_any_index_is_built(self, tmp_path, monkeypatch):
        """The 14-vertex factors reach 1.8e9 words at order 8, which numpy
        refused as a 27 GiB array; the budget refuses them before building."""
        config = tmp_path / "wide.json"
        config.write_text(json.dumps(instance_wide().to_json_dict()))

        def no_index(kernel):
            raise AssertionError("a word index was built")

        monkeypatch.setattr(oracle, "word_index", no_index)
        argv = ["oracle-check", "--config", str(config), "--order", "8", "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 2**22, peak
        assert predicted_words(compile_kernel(instance_wide()), 8) == 1_767_416_561
        with pytest.raises(OrderTooLarge, match="1767416561 words"):
            enum_green_series(O, O, 8, instance_wide())

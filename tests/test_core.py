"""Word algebra, configuration validation, kernel, and distance tests.

The word algebra and the distances are the references of ``reference_walk``."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_walk import concat, graph_distance, in_cone

from freewalk.core import (
    FactorSpec,
    IncompatibleLetters,
    InvalidConfig,
    WalkConfig,
    Word,
    compile_kernel,
    step_distribution,
    validate_config,
)
from freewalk.instances import instance_k3_k3

O = Word()
A1 = Word(((1, "a"),))
B1 = Word(((1, "b"),))
C2 = Word(((2, "c"),))
AC = Word(((1, "a"), (2, "c")))
ACA = Word(((1, "a"), (2, "c"), (1, "a")))


def two_vertex_factor(factor_id, names):
    return FactorSpec(
        factor_id=factor_id,
        vertices=names,
        root=names[0],
        transition=((0.0, 1.0), (1.0, 0.0)),
    )


class TestValidation:
    def test_instance_a_passes(self, instance_a):
        report = validate_config(instance_a)
        assert report.ok, report.failures()

    def test_two_by_two_rejected(self):
        cfg = WalkConfig(
            factor1=two_vertex_factor(1, ("o1", "a")),
            factor2=two_vertex_factor(2, ("o2", "c")),
            alpha=0.5,
        )
        report = validate_config(cfg)
        assert not report.ok
        assert any("recurrent" in name for name, _ in report.failures())

    def test_nonzero_diagonal_rejected(self):
        bad = FactorSpec(
            factor_id=1,
            vertices=("o1", "a", "b"),
            root="o1",
            transition=((0.5, 0.25, 0.25), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)),
        )
        cfg = WalkConfig(
            factor1=bad, factor2=instance_k3_k3().factor2, alpha=0.5
        )
        report = validate_config(cfg)
        failures = dict(report.failures())
        assert "factor1.zero_diagonal" in failures
        assert "diagonal must be zero" in failures["factor1.zero_diagonal"]

    def test_alpha_range(self):
        cfg = instance_k3_k3()
        bad = WalkConfig(factor1=cfg.factor1, factor2=cfg.factor2, alpha=1.0)
        report = validate_config(bad)
        assert any("alpha" in name for name, _ in report.failures())

    def test_epsilon0_floor_violation(self):
        cfg = instance_k3_k3()
        bad = WalkConfig(
            factor1=cfg.factor1, factor2=cfg.factor2, alpha=0.5, epsilon0=0.3
        )
        report = validate_config(bad)
        assert any("epsilon0" in name for name, _ in report.failures())

    def test_epsilon0_floor_names_the_smallest_entry(self):
        # alpha-weighted entries 0.05 and 0.1 in factor 1, 0.45 in factor 2
        cfg = replace(instance_k3_k3(0.1), epsilon0=0.5)
        detail = dict(validate_config(cfg).failures())["epsilon0_floor"]
        assert detail == "kernel entry 0.05 below epsilon0 = 0.5"

    def test_explicit_loop_witness_verified(self, instance_a):
        assert validate_config(instance_a).ok
        from freewalk.core import LoopWitness

        bad = WalkConfig(
            factor1=instance_a.factor1,
            factor2=instance_a.factor2,
            alpha=0.5,
            loop_witness=LoopWitness(1, "a", 0),
        )
        assert not validate_config(bad).ok

    def test_parameter_binding_mismatch(self, instance_a):
        from freewalk.core import ParameterBinding

        bad = WalkConfig(
            factor1=instance_a.factor1,
            factor2=instance_a.factor2,
            alpha=0.5,
            parameters=(0.3,),
            bindings=tuple(
                ParameterBinding(f, s, t, 0)
                for f, fac in ((1, instance_a.factor1), (2, instance_a.factor2))
                for s in fac.vertices
                for t in fac.vertices
                if s != t
            ),
        )
        report = validate_config(bad)
        assert any(name == "parameters" for name, _ in report.failures())


class TestWordOps:
    def test_concat_examples(self):
        assert concat(A1, C2) == AC
        assert len(concat(A1, C2).letters) == 2
        assert concat(A1, O) == A1
        assert concat(O, A1) == A1
        with pytest.raises(IncompatibleLetters):
            concat(A1, B1)

    def test_in_cone_examples(self):
        assert in_cone(ACA, AC)
        assert not in_cone(A1, AC)
        assert in_cone(ACA, O) and in_cone(O, O)

    def test_alternation_enforced(self):
        with pytest.raises(IncompatibleLetters):
            Word(((1, "a"), (1, "b")))


@st.composite
def words(draw):
    length = draw(st.integers(min_value=0, max_value=6))
    first = draw(st.sampled_from([1, 2]))
    letters = []
    for i in range(length):
        fac = first if i % 2 == 0 else 3 - first
        v = draw(st.sampled_from(["a", "b"] if fac == 1 else ["c", "d"]))
        letters.append((fac, v))
    return Word(tuple(letters))


class TestWordProperties:
    @given(words(), words())
    @settings(max_examples=200, deadline=None)
    def test_concat_length_and_cone(self, u, v):
        if u.letters and v.letters and u.letters[-1][0] == v.letters[0][0]:
            with pytest.raises(IncompatibleLetters):
                concat(u, v)
            return
        w = concat(u, v)
        assert len(w.letters) == len(u.letters) + len(v.letters)
        assert in_cone(w, u)

    @given(words(), words())
    @settings(max_examples=200, deadline=None)
    def test_cone_is_prefix_order(self, u, v):
        if in_cone(u, v) and in_cone(v, u):
            assert u == v


def _reachable_words(cfg, depth):
    frontier = {O}
    seen = {O}
    for _ in range(depth):
        new = set()
        for w in frontier:
            for w2, _ in step_distribution(w, cfg):
                if w2 not in seen:
                    new.add(w2)
        seen |= new
        frontier = new
    return seen


class TestKernel:
    def test_step_distribution_at_root(self, instance_a):
        dist = dict(step_distribution(O, instance_a))
        assert len(dist) == 4
        assert all(abs(p - 0.25) < 1e-15 for p in dist.values())

    def test_step_distribution_at_letter(self, instance_a):
        dist = {w: p for w, p in step_distribution(A1, instance_a)}
        expected = {
            O: 0.25,
            B1: 0.25,
            Word(((1, "a"), (2, "c"))): 0.25,
            Word(((1, "a"), (2, "d"))): 0.25,
        }
        assert dist == expected

    def test_masses_sum_to_one_up_to_length_six(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b):
            for w in _reachable_words(cfg, 6):
                total = sum(p for _, p in step_distribution(w, cfg))
                assert abs(total - 1.0) <= 1e-12

    def test_invalid_config_raises(self):
        cfg = instance_k3_k3()
        bad = WalkConfig(factor1=cfg.factor1, factor2=cfg.factor2, alpha=1.5)
        with pytest.raises(InvalidConfig):
            compile_kernel(bad)

    def test_cone_shift_length_three_paths(self, instance_a):
        """Step-probability products inside a cone match the shifted products.

        For x ending in factor 2, paths from o whose states never start with
        a factor-2 letter lift into the cone at x with identical products.
        """
        x = AC  # delta(x) = 2

        def paths(start, n):
            if n == 0:
                return [([start], 1.0)]
            out = []
            for nxt, p in step_distribution(start, instance_a):
                if nxt.letters and nxt.letters[0][0] == 2:
                    continue
                for tail, q in paths(nxt, n - 1):
                    out.append(([start] + tail, p * q))
            return out

        enumerated = paths(O, 3)
        assert len(enumerated) > 5
        for path, prob in enumerated:
            lifted_prob = 1.0
            cur = x
            for w in path[1:]:
                target = concat(x, w)
                lifted_prob *= dict(step_distribution(cur, instance_a))[target]
                cur = target
            assert math.isclose(lifted_prob, prob, rel_tol=1e-12)


class TestGraphDistance:
    def test_examples(self, instance_a, instance_b):
        assert graph_distance(AC, instance_a) == 2
        assert graph_distance(Word(((1, "e"),)), instance_b) == 2
        assert graph_distance(O, instance_a) == 0

    def test_distance_at_least_length(self, instance_a, instance_b):
        for cfg in (instance_a, instance_b):
            for w in _reachable_words(cfg, 5):
                assert graph_distance(w, cfg) >= len(w.letters)

    def test_bfs_cross_check(self, instance_b):
        """Letterwise distance equals BFS distance on the transition graph."""
        import collections

        dist = {O: 0}
        queue = collections.deque([O])
        while queue:
            w = queue.popleft()
            if dist[w] >= 6:
                continue
            for w2, p in step_distribution(w, instance_b):
                if p > 0 and w2 not in dist:
                    dist[w2] = dist[w] + 1
                    queue.append(w2)
        assert len(dist) > 20
        for w, d in dist.items():
            assert graph_distance(w, instance_b) == d


class TestConfig:
    def test_digest_stable_and_distinct(self, instance_a, instance_b):
        assert instance_a.digest() == instance_k3_k3().digest()
        assert instance_a.digest() != instance_b.digest()

    def test_alphas(self, instance_a):
        assert instance_a.alphas == (0.5, 0.5)

"""Exact truncated power series for the free-product walk, by path enumeration.

Each series pushes the walk's law forward over :class:`WordIndex`, one array
index per kernel of every word within the graph distance from which the
walk can still return to a word it reads.  A step is one scatter along the
index's successor table, ``np.add.at`` of float weights, or in exact mode of
integer numerators over ``D**t`` (``D`` is the lcm of the move denominators;
int64 while ``D**max(N, 1) < 2**63``, Python ints beyond), so ``Fraction``
appears only in the returned coefficients.  One walk from a source yields
the series at every target it is asked for, read off the same mass vector
after each step.
The last-exit (taboo at the source), first-visit (absorbing) and renewal
(arrival-recording) series are masks on that one step.  The one operation
on series is the Cauchy product :func:`series_combine`, which the identity
``G(x, y) = G(x, x) L(x, y)`` of ``oracle-check`` needs; the series of a bare
factor chain and series substitution, which only the identity suite uses,
live in ``tests/reference_series.py``.  These series are the independent
ground truth against which the linear-solve evaluations in
:mod:`freewalk.genfun` and the Monte Carlo estimators are validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .core import (
    PUSH,
    REPLACE,
    CompiledKernel,
    FreewalkError,
    Word,
    WalkConfig,
    compile_kernel,
)
from .genfun import RenewalLaw, renewal_pairs

DEFAULT_ORDER_CAP = 14

# the words one walk's index may hold: about 1,000x the 2,045 of
# ``oracle-check --order 14`` on K3xK3, the largest shipped use.  Measured at
# 5- and 14-vertex factors, a word costs 190-340 bytes of peak memory, so the
# budget holds an index below about 0.7 GB
WORD_BUDGET = 1 << 21

Number = float | Fraction


class OrderTooLarge(FreewalkError):
    """Requested truncation order exceeds the enumeration cap ``DEFAULT_ORDER_CAP``,
    or its walk would index more than ``WORD_BUDGET`` words."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series coefficients ``c_0 .. c_N`` (rational or float)."""

    coeffs: tuple[Number, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def series_combine(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The Cauchy product of ``a`` and ``b`` in exact coefficient arithmetic,
    truncated at the smaller order."""
    order = min(a.order, b.order)
    out = [a.coeffs[0] * 0] * (order + 1)
    for i, ca in enumerate(a.coeffs[: order + 1]):
        if ca == 0:
            continue
        for j in range(order + 1 - i):
            out[i + j] += ca * b.coeffs[j]
    return TruncatedSeries(tuple(out))


def max_coeff_gap(a: TruncatedSeries, b: TruncatedSeries) -> Number:
    """The largest ``|a_n - b_n|``: a ``Fraction``, exact, on rational series,
    so any two different rational coefficients give a positive gap."""
    return max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs))


def _check_order(n: int) -> None:
    if n > DEFAULT_ORDER_CAP:
        raise OrderTooLarge(f"order {n} exceeds the enumeration cap {DEFAULT_ORDER_CAP}")


def predicted_words(kernel: CompiledKernel, depth: int) -> int:
    """``WordIndex.end[depth]``, the words within graph distance ``depth``,
    before any is built.

    A word at distance ``d`` whose last letter lies in factor ``f`` is a
    letter of ``f`` at some distance ``k`` after the root (``k = d``) or after
    a word at distance ``d - k`` ending in the other factor, so
    ``count[d][f] = sum_k letters(f, k) * count[d - k][other]``.
    """
    fac, dist = kernel.factor_of_code[1:], kernel.letter_distance[1:].astype(np.int64)
    letters = {f: list(enumerate(np.bincount(dist[fac == f]).tolist())) for f in (1, 2)}
    count = {1: [0] * (depth + 1), 2: [0] * (depth + 1)}  # Python ints: no overflow
    words = 1
    for d in range(1, depth + 1):
        for f, other in ((1, 2), (2, 1)):
            count[f][d] = sum(
                n * (1 if k == d else count[other][d - k]) for k, n in letters[f] if 0 < k <= d
            )
        words += count[1][d] + count[2][d]
    return words


# -- the word index and the step ----------------------------------------------


class WordIndex:
    """Every word within graph distance ``depth`` of the root, as arrays.

    Level ``d`` holds the words ``w`` with ``d(o, w) = d`` (the word length
    when every non-root vertex neighbours its factor root, as in K3xK3);
    ``end[d]`` counts the words at distance ``<= d``, and node 0 is ``o``.
    Node ``n`` is the word ``parent[n]`` followed by the letter code
    ``letter[n]``, which is also its sampling state; ``child[n, c]`` is the
    word ``n`` followed by ``c`` (-1 until indexed).  The children a word gets
    through letters at one distance are contiguous, in code order.

    ``succ[n, j]`` is the word reached by move ``j`` of
    ``kernel.moves[letter[n]]`` (push: a child; replace: the parent's child;
    pop: the parent), with weight ``prob[letter[n], j]``, or
    ``numerator[letter[n], j] / denominator``; padded slots point at the
    parent with weight 0.  Rows exist for the words below the deepest level.
    A move changes ``d(o, .)`` by at most one, so ``t`` steps from a word at
    distance ``d0`` stay in the prefix ``end[d0 + t]``, and a walk that reads
    only words near ``o`` grows the index only to the distance from which
    those words can still be reached (:func:`_plan`).
    """

    def __init__(self, kernel: CompiledKernel):
        fac = kernel.factor_of_code
        self.follows = fac[:, None] != fac[None, :]  # [s, c]: c may follow state s
        self.distance = kernel.letter_distance.astype(np.int64)
        self.act, self.move_letter = kernel.act, kernel.let.astype(np.int64)
        moves = [(s, j, mv) for s, row in enumerate(kernel.moves) for j, mv in enumerate(row)]
        self.denominator = lcm(*(mv.exact_prob.denominator for _, _, mv in moves))
        self.prob = np.zeros(kernel.cum.shape)
        self.numerator = np.zeros(kernel.cum.shape, dtype=object)
        for s, j, mv in moves:
            self.prob[s, j] = mv.prob
            self.numerator[s, j] = int(mv.exact_prob * self.denominator)

        self.parent = np.zeros(1, dtype=np.int64)
        self.letter = np.zeros(1, dtype=np.int64)
        self.child = np.full((1, len(fac)), -1, dtype=np.int64)
        self.succ = np.zeros((0, kernel.cum.shape[1]), dtype=np.int64)
        self.end = [1]

    def level(self, d: int) -> np.ndarray:
        """The nodes at distance exactly ``d``."""
        return np.arange(self.end[d - 1] if d else 0, self.end[d])

    def grow(self, depth: int) -> "WordIndex":
        """Append levels until the index holds every word at distance ``<= depth``."""
        while len(self.end) <= depth:
            self._add_level()
        return self

    def _add_level(self) -> None:
        new = len(self.end)
        size = self.end[-1]
        for k in range(1, min(new, int(self.distance.max())) + 1):
            src = self.level(new - k)
            codes = np.flatnonzero(self.distance == k)
            p, c = np.nonzero(self.follows[self.letter[src][:, None], codes])
            self.child[src[p], codes[c]] = size + np.arange(len(p))
            self.parent = np.concatenate([self.parent, src[p]])
            self.letter = np.concatenate([self.letter, codes[c]])
            size += len(p)
        self.child = np.pad(self.child, ((0, size - len(self.child)), (0, 0)), constant_values=-1)
        self.end.append(size)

        # every move target of the level below the new one is now indexed
        node = self.level(new - 1)[:, None]
        state, parent = self.letter[node[:, 0]], self.parent[node]
        act, letter = self.act[state], self.move_letter[state]
        push, swap = self.child[node, letter], self.child[parent, letter]
        rows = np.where(act == PUSH, push, np.where(act == REPLACE, swap, parent))
        self.succ = np.concatenate([self.succ, rows])


@lru_cache(maxsize=32)  # one index per kernel, as many as compile_kernel keeps
def word_index(kernel: CompiledKernel) -> WordIndex:
    """The kernel's word index, built on first use; callers grow it."""
    return WordIndex(kernel)


def _distance(kernel: CompiledKernel, codes: tuple[int, ...]) -> int:
    """The graph distance ``d(o, w)`` of the word with letter codes ``codes``."""
    return int(sum(kernel.letter_distance[c] for c in codes))


def _reach(kernel: CompiledKernel, words: Sequence[tuple[int, ...]]) -> int:
    """The farthest distance of ``words`` (letter codes); 0 when there are none."""
    return max((_distance(kernel, w) for w in words), default=0)


def _farthest_letter(kernel: CompiledKernel, i: int) -> int:
    """The farthest one-letter factor-``i`` word."""
    return int(kernel.letter_distance[kernel.factor_of_code == i].max())


def _plan(kernel: CompiledKernel, d0: int, N: int, reach: int) -> tuple[list[int], int]:
    """``live(t)`` for ``t = 0..N`` and the index depth of a walk of order
    ``N`` from distance ``d0`` that reads no node beyond distance ``reach``.

    A move changes ``d(o, .)`` by at most one, so at time ``t`` the walk has
    mass only within ``d0 + t``, and a node beyond ``reach + N - t`` can no
    longer reach a read node by time ``N``: ``live(t)`` is the smaller bound.
    The index holds the source and one level past the farthest pushed node.
    Raises :class:`OrderTooLarge` when that index would pass ``WORD_BUDGET``.
    """
    live = [min(d0 + t, reach + N - t) for t in range(N + 1)]
    depth = max([d0, *(d + 1 for d in live[:N])])
    words = predicted_words(kernel, depth)
    if words > WORD_BUDGET:
        raise OrderTooLarge(
            f"order {N} from distance {d0} reaches {words} words, "
            f"above the enumeration budget of {WORD_BUDGET}"
        )
    return live, depth


class _Walk:
    """The law of the walk from one source word over the index, at time ``t``.

    ``mass[n]`` is the probability of node ``n``: a float, or in exact mode an
    integer numerator over ``denominator ** t`` (int64 while every weight
    and every ``N``-step numerator fits, Python ints beyond).  ``weight[n]``
    is the row of move weights of node ``n``, gathered once per walk from
    the index's per-state table.  ``reach`` is the farthest distance
    ``d(o, .)`` of a node the caller reads, so only the nodes within
    ``live[t]`` (see :func:`_plan`) are exact; the rest read 0.
    :meth:`step` pushes the mass of the prefix ``end[live[t]]`` along
    ``succ`` with one scatter, in node order, so the exact nodes sum the
    same terms in the same order as a walk with ``reach >= d0 + N``, which
    prunes nothing.  The taboo and absorbing variants zero nodes of
    ``mass`` between steps.  :meth:`series` reads any number of target
    nodes off the one mass vector, so one walk from a source serves every
    target.
    """

    def __init__(
        self, kernel: CompiledKernel, codes: tuple[int, ...], N: int, exact: bool, reach: int
    ):
        self.d0 = _distance(kernel, codes)
        self.live, self.depth = _plan(kernel, self.d0, N, reach)
        self.index = ix = word_index(kernel).grow(self.depth)
        self.exact = exact
        self.size = ix.end[self.depth]
        self.rows = ix.end[self.depth - 1] if N else 0
        if not exact:
            table = ix.prob
        elif ix.denominator ** max(N, 1) < 2**63:  # weights <= D, numerators <= D**t
            table = ix.numerator.astype(np.int64)
        else:
            table = ix.numerator
        self.weight = table[ix.letter[: self.rows]]
        self.mass = np.zeros(self.size, dtype=self.weight.dtype)
        self.mass[self.find(codes)] = 1
        self.t = 0

    def step(self) -> None:
        end, live = self.index.end, self.live[self.t]
        m, k = end[live], end[live + 1]
        moved = self.mass[:m, None] * self.weight[:m]
        self.mass[:k] = self.scatter(self.index.succ[:m], moved, k)
        self.mass[end[self.live[self.t + 1]] :] = 0  # no longer live
        self.t += 1

    def scatter(self, targets: np.ndarray, moved: np.ndarray, size: int) -> np.ndarray:
        """Sum ``moved`` into ``size`` bins by ``targets``, in input order."""
        out = np.zeros(size, dtype=moved.dtype)
        np.add.at(out, targets.ravel(), moved.ravel())
        return out

    def find(self, codes: tuple[int, ...]) -> Optional[int]:
        """The node of a word, or None when the walk cannot reach it."""
        if sum(self.index.distance[c] for c in codes) > self.depth:
            return None
        n = 0
        for c in codes:
            n = self.index.child[n, c]
        return int(n)

    def one_letter_nodes(self, kernel: CompiledKernel, i: int) -> np.ndarray:
        """The nodes of the one-letter factor-``i`` words within reach."""
        ix = self.index
        one_letter = ix.parent[: self.size] == 0
        return np.flatnonzero(one_letter & (kernel.factor_of_code[ix.letter[: self.size]] == i))

    def value(self, v) -> Number:
        """A mass entry at the current time, as a float or a Fraction."""
        if self.exact:
            return Fraction(int(v), self.index.denominator**self.t)
        return float(v)

    def series(
        self, targets: list[Optional[int]], N: int, taboo: list[int]
    ) -> tuple[TruncatedSeries, ...]:
        """One series per target: its mass at times 0..N, zeroing ``taboo``
        after each step."""
        rows = [self.read(targets)]
        for _ in range(N):
            self.step()
            self.mass[taboo] = 0
            rows.append(self.read(targets))
        return tuple(TruncatedSeries(coeffs) for coeffs in zip(*rows))

    def read(self, targets: list[Optional[int]]) -> list[Number]:
        """Each target's mass at the current time; None (out of reach) reads 0."""
        return [self.value(0 if n is None else self.mass[n]) for n in targets]


def _source_series(
    x: Word,
    y: Word | Sequence[Word],
    N: int,
    cfg: WalkConfig,
    exact: bool,
    taboo: bool,
) -> TruncatedSeries | tuple[TruncatedSeries, ...]:
    """The series from ``x`` at ``y`` (a word, or each of a sequence of words)
    from one walk, with ``x`` deleted after time 0 when ``taboo``."""
    _check_order(N)
    kernel = compile_kernel(cfg)
    src = kernel.encode(x)
    targets = [kernel.encode(w) for w in ([y] if isinstance(y, Word) else y)]
    walk = _Walk(kernel, src, N, exact, _reach(kernel, targets))
    series = walk.series(
        [walk.find(w) for w in targets],
        N,
        taboo=[walk.find(src)] if taboo else [],
    )
    return series[0] if isinstance(y, Word) else series


def enum_green_series(
    x: Word,
    y: Word | Sequence[Word],
    N: int,
    cfg: WalkConfig,
    exact: bool = False,
) -> TruncatedSeries | tuple[TruncatedSeries, ...]:
    """Coefficient ``n`` is the n-step transition probability from ``x`` to ``y``.

    For a sequence of targets ``y`` the result is a tuple of series, one per
    target, all read off one walk from ``x``.
    """
    return _source_series(x, y, N, cfg, exact, taboo=False)


def enum_L_series(
    x: Word,
    y: Word | Sequence[Word],
    N: int,
    cfg: WalkConfig,
    exact: bool = False,
) -> TruncatedSeries | tuple[TruncatedSeries, ...]:
    """Last-exit series: paths from ``x`` to ``y`` avoiding ``x`` after time 0.

    Coefficient ``n`` is ``P_x[X_n = y, X_m != x for 1 <= m <= n]``; in
    particular the series for ``y = x`` is identically ``(1, 0, 0, ...)``.
    A sequence of targets gives a tuple of series from one walk, as in
    :func:`enum_green_series`.
    """
    return _source_series(x, y, N, cfg, exact, taboo=True)


def enum_xi_series(
    i: int,
    N: int,
    cfg: WalkConfig,
    exact: bool = False,
) -> TruncatedSeries:
    """First-visit series of the set of one-letter factor-``i`` words, from o."""
    _check_order(N)
    kernel = compile_kernel(cfg)
    walk = _Walk(kernel, (), N, exact, _farthest_letter(kernel, i))
    absorb = walk.one_letter_nodes(kernel, i)
    coeffs = [walk.value(0)]
    for _ in range(N):
        walk.step()
        coeffs.append(walk.value(walk.mass[absorb].sum()))
        walk.mass[absorb] = 0
    return TruncatedSeries(tuple(coeffs))


# -- renewal increment law -----------------------------------------------------


def _two_letter_reach(kernel: CompiledKernel) -> int:
    """The farthest word of at most two letters, which the renewal walk reads."""
    return _farthest_letter(kernel, 1) + _farthest_letter(kernel, 2)


def exact_renewal_increment_dist(
    n_max: int,
    cfg: WalkConfig,
    exact: bool = False,
) -> RenewalLaw:
    """Joint law of (increment, appended pair) by taboo enumeration.

    The increment between consecutive renewal points equals ``n`` with the
    walk appending the two-letter word ``y1 x1`` exactly when a path from o
    avoids one-letter factor-1 words before time ``n`` and arrives at
    ``y1 x1`` at time ``n`` from outside its cone.  Arrivals from outside the
    cone are the appends from ``y1`` and the sibling moves from ``y1 x'``, so
    they are the moves out of words of at most two letters; pop moves from
    inside the cone are excluded.  Increments up to ``n_max`` are assigned
    (exact coefficients rounded to float); the truncation tail is the law's
    ``unassigned`` mass.
    """
    _check_order(n_max)
    kernel = compile_kernel(cfg)
    walk = _Walk(kernel, (), n_max, exact, _two_letter_reach(kernel))
    taboo = walk.one_letter_nodes(kernel, 1)
    pairs = renewal_pairs(cfg)
    pair_of = np.full(walk.size, -1)
    for j, (y, x) in enumerate(pairs):
        node = walk.find(kernel.encode(Word(((2, y), (1, x)))))
        if node is not None:
            pair_of[node] = j
    parent = walk.index.parent
    short = np.flatnonzero(parent[parent[: walk.rows]] == 0)  # at most two letters
    hit = pair_of[walk.index.succ[short]]
    arrive = hit >= 0

    probs = np.zeros((len(pairs), n_max + 1))
    for t in range(1, n_max + 1):
        moved = walk.mass[short, None] * walk.weight[short]
        walk.step()
        walk.mass[taboo] = 0
        arrivals = walk.scatter(hit[arrive], moved[arrive], len(pairs))
        probs[:, t] = [float(walk.value(a)) for a in arrivals]
    return RenewalLaw(pair_probs=dict(zip(pairs, probs)))


def check_word_budget(words: Sequence[Word], N: int, cfg: WalkConfig) -> None:
    """Refuse, before any walk builds its index, an identity suite over
    ``words`` at order ``N`` whose walks would pass ``WORD_BUDGET``.

    The suite is that of ``oracle-check``: the green and last-exit walk from
    each word to all of them, both xi series and the renewal law.  Raises
    :class:`OrderTooLarge`.
    """
    _check_order(N)
    kernel = compile_kernel(cfg)
    codes = [kernel.encode(w) for w in words]
    reach = _reach(kernel, codes)
    walks = [(_distance(kernel, x), reach) for x in codes]
    walks += [(0, _farthest_letter(kernel, 1)), (0, _farthest_letter(kernel, 2))]
    for d0, walk_reach in [*walks, (0, _two_letter_reach(kernel))]:
        _plan(kernel, d0, N, walk_reach)


def return_probability_proxy(
    cfg: WalkConfig, N: int = DEFAULT_ORDER_CAP
) -> list[tuple[int, float]]:
    """Spectral-radius proxy ``p^(2n)(o, o) ** (1 / 2n)`` on even orders.

    No command runs it; the benchmark's span table (``perfbench/spans.py``)
    wraps it by name.
    """
    series = enum_green_series(Word(), Word(), N, cfg, exact=False)
    out = []
    for n in range(1, N // 2 + 1):
        p = float(series.coeffs[2 * n])
        if p > 0:
            out.append((2 * n, p ** (1.0 / (2 * n))))
    return out


def series_to_rows(series: TruncatedSeries, label: str) -> dict[str, np.ndarray]:
    """The CSV form: each coefficient by index, as a float.

    Provenance ``exact`` marks an enumerated coefficient, as against the
    ``tail-bound`` row of :meth:`freewalk.genfun.RenewalLaw.to_rows`, not
    rational arithmetic: ``oracle-check`` enumerates this series in float
    with or without ``--float``.
    """
    k = len(series.coeffs)
    return {
        "index": np.arange(k),
        "value": np.array(series.coeffs, dtype=float),
        "provenance": np.full(k, "exact"),
        "series": np.full(k, label),
    }

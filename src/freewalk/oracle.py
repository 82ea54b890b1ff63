"""Exact truncated power series for the free-product walk, by path enumeration.

Each series pushes the walk's law forward over :class:`WordIndex`, one array
index per kernel of every word within the graph distance the truncation
order can reach.  A step is one scatter along the index's successor table:
``np.bincount`` in float mode, ``np.add.at`` on integer numerators over
``D**t`` in exact mode (``D`` is the lcm of the move denominators; int64
while ``D**N < 2**63``, Python ints beyond), so ``Fraction`` appears only in
the returned coefficients.  One walk from a source yields the series at
every target it is asked for, read off the same mass vector after each step.
The last-exit (taboo at the source), first-visit (absorbing) and renewal
(arrival-recording) series are masks on that one step.  These series are the
independent ground truth against which the linear-solve evaluations in
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

Number = float | Fraction


class OrderTooLarge(FreewalkError):
    """Requested truncation order exceeds the configured enumeration cap."""


class ComposeNeedsZeroConstant(FreewalkError):
    """Series substitution requires the inner series to vanish at 0."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series coefficients ``c_0 .. c_N`` (rational or float)."""

    coeffs: tuple[Number, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Number:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs[: order + 1])

    def partial_sums(self) -> tuple[Number, ...]:
        out = []
        acc: Number = 0
        for c in self.coeffs:
            acc = acc + c
            out.append(acc)
        return tuple(out)

    def eval(self, z: Number) -> Number:
        acc: Number = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def as_float(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(float(c) for c in self.coeffs))


def series_combine(
    a: TruncatedSeries, b: TruncatedSeries, mode: str
) -> TruncatedSeries:
    """Exact coefficient arithmetic, truncated at the smaller order.

    ``add`` and ``multiply`` are the usual Cauchy operations; ``compose``
    substitutes ``b`` into ``a`` and requires ``b(0) = 0`` so that the result
    is determined by finitely many coefficients.
    """
    order = min(a.order, b.order)
    zero = a.coeffs[0] * 0
    if mode == "add":
        return TruncatedSeries(
            tuple(a.coeffs[n] + b.coeffs[n] for n in range(order + 1))
        )
    if mode == "multiply":
        out = [zero] * (order + 1)
        for i, ca in enumerate(a.coeffs[: order + 1]):
            if ca == 0:
                continue
            for j in range(order + 1 - i):
                out[i + j] += ca * b.coeffs[j]
        return TruncatedSeries(tuple(out))
    if mode == "compose":
        if b.coeffs[0] != 0:
            raise ComposeNeedsZeroConstant(
                f"inner series has constant term {b.coeffs[0]}"
            )
        # Horner in the truncated coefficient ring
        result = [zero] * (order + 1)
        result[0] = a.coeffs[min(a.order, order)] + zero
        acc = TruncatedSeries(tuple(result))
        for k in range(min(a.order, order) - 1, -1, -1):
            acc = series_combine(acc, b.truncate(order), "multiply")
            coeffs = list(acc.coeffs)
            coeffs[0] += a.coeffs[k]
            acc = TruncatedSeries(tuple(coeffs))
        return acc
    raise ValueError(f"unknown mode {mode!r}")


def max_coeff_gap(a: TruncatedSeries, b: TruncatedSeries) -> Number:
    """The largest ``|a_n - b_n|``: a ``Fraction``, exact, on rational series,
    so any two different rational coefficients give a positive gap."""
    return max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs))


def _check_order(n: int, cap: int) -> None:
    if n > cap:
        raise OrderTooLarge(f"order {n} exceeds cap {cap}; raise the cap explicitly")


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
    pop: the parent), with weight ``succ_prob[n, j]`` (``prob`` or
    ``numerator / denominator`` per state); padded slots point at the parent
    with weight 0.  Rows exist for
    the words below the deepest level.  A move changes ``d(o, .)`` by at most
    one, so ``t`` steps from a word at distance ``d0`` stay in the prefix
    ``end[d0 + t]``.
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
        self.succ_prob = np.zeros((0, kernel.cum.shape[1]))
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
        self.succ_prob = np.concatenate([self.succ_prob, self.prob[state]])


@lru_cache(maxsize=32)  # one index per kernel, as many as compile_kernel keeps
def word_index(kernel: CompiledKernel) -> WordIndex:
    """The kernel's word index, built on first use; callers grow it."""
    return WordIndex(kernel)


class _Walk:
    """The law of the walk from one source word over the index, at time ``t``.

    ``mass[n]`` is the probability of node ``n``: a float, or in exact mode an
    integer numerator over ``denominator ** t`` (int64 while the ``N``-step
    denominator fits, Python ints beyond).  :meth:`step` pushes the mass of
    the prefix ``end[d0 + t]`` along ``succ`` with one scatter; the taboo and
    absorbing variants zero nodes of ``mass`` between steps.  :meth:`series`
    reads any number of target nodes off the one mass vector, so one walk
    from a source serves every target.
    """

    def __init__(self, kernel: CompiledKernel, codes: tuple[int, ...], N: int, exact: bool):
        self.d0 = int(sum(kernel.letter_distance[c] for c in codes))
        self.depth = self.d0 + N
        self.index = ix = word_index(kernel).grow(self.depth)
        self.exact = exact
        self.size = ix.end[self.depth]
        self.rows = ix.end[self.depth - 1] if N else 0
        if not exact:
            self.weight = ix.succ_prob
        elif ix.denominator**N < 2**63:
            self.weight = ix.numerator.astype(np.int64)[ix.letter[: self.rows]]
        else:
            self.weight = ix.numerator[ix.letter[: self.rows]]
        self.mass = np.zeros(self.size, dtype=self.weight.dtype)
        self.mass[self.find(codes)] = 1
        self.t = 0

    def step(self) -> None:
        m, k = self.index.end[self.d0 + self.t : self.d0 + self.t + 2]
        moved = self.mass[:m, None] * self.weight[:m]
        # the mass has not reached end[d0 + t + 1] and beyond: those stay zero
        self.mass[:k] = self.scatter(self.index.succ[:m], moved, k)
        self.t += 1

    def scatter(self, targets: np.ndarray, moved: np.ndarray, size: int) -> np.ndarray:
        """Sum ``moved`` into ``size`` bins by ``targets``."""
        if not self.exact:
            return np.bincount(targets.ravel(), moved.ravel(), minlength=size)
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
    cap: int,
    taboo: bool,
) -> TruncatedSeries | tuple[TruncatedSeries, ...]:
    """The series from ``x`` at ``y`` (a word, or each of a sequence of words)
    from one walk, with ``x`` deleted after time 0 when ``taboo``."""
    _check_order(N, cap)
    kernel = compile_kernel(cfg)
    src = kernel.encode(x)
    walk = _Walk(kernel, src, N, exact)
    targets = [y] if isinstance(y, Word) else y
    series = walk.series(
        [walk.find(kernel.encode(w)) for w in targets],
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
    cap: int = DEFAULT_ORDER_CAP,
) -> TruncatedSeries | tuple[TruncatedSeries, ...]:
    """Coefficient ``n`` is the n-step transition probability from ``x`` to ``y``.

    For a sequence of targets ``y`` the result is a tuple of series, one per
    target, all read off one walk from ``x``.
    """
    return _source_series(x, y, N, cfg, exact, cap, taboo=False)


def enum_L_series(
    x: Word,
    y: Word | Sequence[Word],
    N: int,
    cfg: WalkConfig,
    exact: bool = False,
    cap: int = DEFAULT_ORDER_CAP,
) -> TruncatedSeries | tuple[TruncatedSeries, ...]:
    """Last-exit series: paths from ``x`` to ``y`` avoiding ``x`` after time 0.

    Coefficient ``n`` is ``P_x[X_n = y, X_m != x for 1 <= m <= n]``; in
    particular the series for ``y = x`` is identically ``(1, 0, 0, ...)``.
    A sequence of targets gives a tuple of series from one walk, as in
    :func:`enum_green_series`.
    """
    return _source_series(x, y, N, cfg, exact, cap, taboo=True)


def enum_xi_series(
    i: int,
    N: int,
    cfg: WalkConfig,
    exact: bool = False,
    cap: int = DEFAULT_ORDER_CAP,
) -> TruncatedSeries:
    """First-visit series of the set of one-letter factor-``i`` words, from o."""
    _check_order(N, cap)
    kernel = compile_kernel(cfg)
    walk = _Walk(kernel, (), N, exact)
    absorb = walk.one_letter_nodes(kernel, i)
    coeffs = [walk.value(0)]
    for _ in range(N):
        walk.step()
        coeffs.append(walk.value(walk.mass[absorb].sum()))
        walk.mass[absorb] = 0
    return TruncatedSeries(tuple(coeffs))


def occupation_probabilities(
    cfg: WalkConfig, n: int, endpoints: list[tuple[int, ...]]
) -> list[float]:
    """``P_o[X_n = w]`` for each word ``w`` given as letter codes (float mode)."""
    walk = _Walk(compile_kernel(cfg), (), n, exact=False)
    series = walk.series([walk.find(codes) for codes in endpoints], n, taboo=[])
    return [s[n] for s in series]


# -- factor-level series (dense DP on one factor graph) -----------------------


def _factor_series(
    i: int, x: str, y: str, N: int, cfg: WalkConfig, exact: bool, taboo: bool
) -> TruncatedSeries:
    """n-step series of the bare factor chain ``P_i`` from ``x`` at ``y``,
    with ``x`` deleted after time 0 when ``taboo``."""
    f = cfg.factor(i)
    size = f.size
    one = Fraction(1) if exact else 1.0
    zero = one * 0
    if exact:
        mat = [[Fraction(p) for p in row] for row in f.transition]
    else:
        mat = [list(row) for row in f.transition]
    src = f.index(x)
    tgt = f.index(y)
    vec = [zero] * size
    vec[src] = one
    coeffs = [vec[tgt]]
    for _ in range(N):
        vec = [
            sum(vec[k] * mat[k][j] for k in range(size) if vec[k] != 0)
            for j in range(size)
        ]
        vec = [v + zero for v in vec]
        if taboo:
            vec[src] = zero
        coeffs.append(vec[tgt])
    return TruncatedSeries(tuple(coeffs))


def factor_green_series(
    i: int, x: str, y: str, N: int, cfg: WalkConfig, exact: bool = False
) -> TruncatedSeries:
    """n-step series of the bare factor chain ``P_i`` (no alpha weighting)."""
    return _factor_series(i, x, y, N, cfg, exact, taboo=False)


def factor_L_series(
    i: int, x: str, y: str, N: int, cfg: WalkConfig, exact: bool = False
) -> TruncatedSeries:
    """Last-exit series of the bare factor chain (taboo at ``x`` after time 0)."""
    return _factor_series(i, x, y, N, cfg, exact, taboo=True)


# -- renewal increment law -----------------------------------------------------


def exact_renewal_increment_dist(
    n_max: int,
    cfg: WalkConfig,
    exact: bool = False,
    cap: int = DEFAULT_ORDER_CAP,
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
    _check_order(n_max, cap)
    kernel = compile_kernel(cfg)
    walk = _Walk(kernel, (), n_max, exact)
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
    return RenewalLaw(pair_probs=dict(zip(pairs, probs)), config_digest=cfg.digest())


def return_probability_proxy(
    cfg: WalkConfig, N: int = DEFAULT_ORDER_CAP, cap: int = DEFAULT_ORDER_CAP
) -> list[tuple[int, float]]:
    """Spectral-radius proxy ``p^(2n)(o, o) ** (1 / 2n)`` on even orders."""
    series = enum_green_series(Word(), Word(), N, cfg, exact=False, cap=cap)
    out = []
    for n in range(1, N // 2 + 1):
        p = float(series[2 * n])
        if p > 0:
            out.append((2 * n, p ** (1.0 / (2 * n))))
    return out


def series_to_rows(series: TruncatedSeries, label: str) -> dict[str, list]:
    k = len(series.coeffs)
    return {
        "index": list(range(k)),
        "value": [float(c) for c in series.coeffs],
        "provenance": ["exact"] * k,
        "series": [label] * k,
    }

"""Reference series for the identity suite: bare factor chains and substitution.

The identity ``L(x, y | z) = L_i(x, y | xi_i(z))`` between words of one
factor compares the free-product enumeration of :mod:`freewalk.oracle`
with the series of the factor chain ``P_i`` alone, substituted with the
first-visit series ``xi_i``.  Neither the factor series nor the
substitution is needed by a command, so both live here, next to the tests
that use them.
"""

from __future__ import annotations

from fractions import Fraction

from freewalk.core import WalkConfig
from freewalk.oracle import TruncatedSeries, series_combine


class ComposeNeedsZeroConstant(ValueError):
    """Series substitution requires the inner series to vanish at 0."""


def compose(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """``a(b(z))`` truncated at the smaller order, by Horner's rule in the
    truncated coefficient ring; ``b(0) = 0`` makes finitely many coefficients
    of ``a`` determine the result."""
    if b.coeffs[0] != 0:
        raise ComposeNeedsZeroConstant(f"inner series has constant term {b.coeffs[0]}")
    order = min(a.order, b.order)
    zero = a.coeffs[0] * 0
    acc = TruncatedSeries((a.coeffs[order] + zero,) + (zero,) * order)
    for k in range(order - 1, -1, -1):
        coeffs = list(series_combine(acc, b).coeffs)
        coeffs[0] += a.coeffs[k]
        acc = TruncatedSeries(tuple(coeffs))
    return acc


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

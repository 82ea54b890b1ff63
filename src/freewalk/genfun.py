"""Generating-function evaluations: factor resolvents, the cone exit-probability
fixed point, the letter-distance function, and the renewal-increment law.

Factor Green functions are resolvent solves ``(I - t P_i)^{-1}``; the
free-product first-passage quantities are the least nonnegative solution of
a one-step polynomial system, obtained by Newton's method from zero, batched
over an array of evaluation points.  The same system, solved on a complex
circle and inverted by FFT, yields the full law of the renewal increment far
beyond the reach of path enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import FreewalkError, Word, WalkConfig, compile_kernel

XI_TOL = 1e-12
XI_MAX_ITER = 10**6
MONOTONE_SLACK = 1e-12  # rounding allowed in a step that must not decrease
UNASSIGNED_TOL = 1e-9  # increment-law mass the CLT constants may leave out


class SingularSolve(FreewalkError):
    """The resolvent matrix is numerically singular at the requested point."""


class NoConvergence(FreewalkError):
    """The first-passage fixed point failed to converge (z beyond the radius)."""


class NonpositiveL(FreewalkError):
    """A cached last-exit value is nonpositive, signalling numeric failure."""


def factor_green(cfg: WalkConfig, i: int, x: str, y: str, t: complex) -> complex:
    """Entry ``(x, y)`` of ``(I - t P_i)^{-1}``, the factor Green function.

    For real ``0 <= t < 1/spectral_radius(P_i)`` this is the power series
    ``sum_n p_i^(n)(x, y) t^n``.
    """
    f = cfg.factor(i)
    mat = np.eye(f.size, dtype=complex) - t * f.matrix().astype(complex)
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError as e:
        raise SingularSolve(f"I - t P_{i} singular at t = {t}") from e
    if not np.all(np.isfinite(inv)) or np.linalg.cond(mat) > 1e12:
        raise SingularSolve(f"I - t P_{i} ill-conditioned at t = {t}")
    val = inv[f.index(x), f.index(y)]
    return val.real if abs(val.imag) < 1e-14 else val


def factor_L(cfg: WalkConfig, i: int, x: str, y: str, t: complex) -> complex:
    """Factor last-exit function ``G_i(x, y | t) / G_i(x, x | t)``."""
    return factor_green(cfg, i, x, y, t) / factor_green(cfg, i, x, x, t)


@dataclass
class XiSolution:
    """Minimal nonnegative solution of the one-step first-passage system.

    ``returns[(j, v)]`` is the generating function, at the evaluation point,
    of the first passage from the one-letter word ``v`` (factor ``j``) to the
    root; ``xi[i]`` the generating function of the first visit to the set of
    one-letter factor-``i`` words from the root.
    """

    z: complex
    xi1: complex
    xi2: complex
    returns: dict[tuple[int, str], complex]
    iterations: int
    converged: bool
    residual: float

    def xi(self, i: int) -> complex:
        return self.xi1 if i == 1 else self.xi2


class _FixedPoint(NamedTuple):
    """Per-point results of :func:`_solve_xi_array`, indexed like its ``zs``."""

    xi1: np.ndarray
    xi2: np.ndarray
    returns: np.ndarray  # R_1 on the first columns, then R_2
    iterations: np.ndarray
    converged: np.ndarray
    residual: np.ndarray


def _solve_xi_array(
    zs: np.ndarray, cfg: WalkConfig, tol: float = XI_TOL, max_iter: int = XI_MAX_ITER
) -> _FixedPoint:
    """Least fixed point of the first-passage system at every point of ``zs``.

    The system of :func:`solve_xi` reads ``R = Phi(R) = z [c + A R + (C^T R) * R]``
    in ``R = (R_1, R_2)``, ``*`` entrywise.  Newton's method from 0 solves
    ``(I - Phi'(R)) step = Phi(R) - R`` for all points still active at once;
    each point stops once ``max|step| < tol``.  For ``z >= 0`` the system is
    monotone and Newton increases to the least fixed point (Etessami &
    Yannakakis 2009), so a decreasing step, or a singular or non-finite
    solve, marks a point past the radius, where Newton would land on a
    spurious root.  Other points must be dominated by the solution at ``|z|``
    (nonnegative coefficients): ``|R(z)| <= R(|z|) + tol``, and likewise
    ``xi``, which follows in closed form: ``xi_1 = a_1 z / (1 - a_2 z s_2)``,
    ``s_2 = sum_y p_2(o_2, y) R_2(y)``.
    """
    compile_kernel(cfg)  # reject configurations that fail validation
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    f1, f2 = cfg.factor1, cfg.factor2
    a1, a2 = cfg.alphas
    nr1 = [f1.index(v) for v in f1.nonroot]
    nr2 = [f2.index(v) for v in f2.nonroot]
    n1, n = len(nr1), len(nr1) + len(nr2)
    p1, p2 = f1.matrix(), f2.matrix()
    w1, w2 = p1[f1.root_index, nr1], p2[f2.root_index, nr2]
    c = np.concatenate([a1 * p1[nr1, f1.root_index], a2 * p2[nr2, f2.root_index]])
    A = np.zeros((n, n))
    A[:n1, :n1] = a1 * p1[np.ix_(nr1, nr1)]
    A[n1:, n1:] = a2 * p2[np.ix_(nr2, nr2)]
    C = np.zeros((n, n))  # couples R_j to the other factor's root row
    C[n1:, :n1] = a2 * w2[:, None]
    C[:n1, n1:] = a1 * w1[:, None]
    eye = np.eye(n)

    R = np.zeros((len(zs), n), dtype=complex)
    iterations = np.zeros(len(zs), dtype=int)
    converged = np.zeros(len(zs), dtype=bool)
    residual = np.full(len(zs), math.inf)
    monotone = (zs.imag == 0) & (zs.real >= 0)
    active = np.flatnonzero(monotone)
    off_axis = np.flatnonzero(~monotone)
    if off_axis.size:  # solve at |z| first: a point past the radius is not tried
        moduli, of_point = np.unique(np.abs(zs[off_axis]), return_inverse=True)
        ref = _solve_xi_array(moduli, cfg, tol, max_iter)
        bound = np.column_stack([ref.returns, ref.xi1, ref.xi2])[of_point].real + tol
        active = np.concatenate([active, off_axis[ref.converged[of_point]]])
    for it in range(1, max_iter + 1):
        if not active.size:
            break
        z = zs[active, None]
        Ra = R[active]
        coupling = Ra @ C
        lhs = eye - z[:, :, None] * (A + coupling[:, :, None] * eye + Ra[:, :, None] * C.T)
        step = _batched_solve(lhs, z * (c + Ra @ A.T + coupling * Ra) - Ra)
        size = np.max(np.abs(step), axis=1, initial=0.0)
        failed = ~np.isfinite(size) | (
            monotone[active] & np.any(step.real < -MONOTONE_SLACK, axis=1)
        )
        R[active] = np.where(failed[:, None], Ra, Ra + step)
        iterations[active] = it
        residual[active] = size
        done = ~failed & (size < tol)
        converged[active[done]] = True
        active = active[~(failed | done)]

    with np.errstate(divide="ignore", invalid="ignore"):
        xi1 = a1 * zs / (1.0 - a2 * zs * (R[:, n1:] @ w2))
        xi2 = a2 * zs / (1.0 - a1 * zs * (R[:, :n1] @ w1))
    if off_axis.size:
        value = np.abs(np.column_stack([R, xi1, xi2])[off_axis])
        converged[off_axis] &= np.all(value <= bound, axis=1)
    return _FixedPoint(xi1, xi2, R, iterations, converged, residual)


def _batched_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``lhs[k] x[k] = rhs[k]`` for every k; a singular system gives nan."""
    try:
        return np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for k in range(len(rhs)):
            try:
                out[k] = np.linalg.solve(lhs[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return out


def solve_xi(
    z: complex,
    cfg: WalkConfig,
    tol: float = XI_TOL,
    max_iter: int = XI_MAX_ITER,
    raise_on_divergence: bool = True,
) -> XiSolution:
    """Solve the first-passage system at ``z`` by Newton's method from 0.

    One step from the one-letter word ``v`` of factor ``j`` either moves
    inside factor ``j`` (reaching the root directly or another one-letter
    word), or appends a letter ``y`` of the other factor, after which the
    walk must first undo ``y`` and then still reach the root:

        R_j(v) = a_j z [p_j(v, o_j) + sum_w p_j(v, w) R_j(w)]
                 + a_j' z sum_y p_j'(o_j', y) R_j'(y) R_j(v)
        xi_1   = a_1 z + a_2 z sum_y p_2(o_2, y) R_2(y) xi_1

    and symmetrically for ``xi_2``.  The least nonnegative solution is the
    probabilistic one for ``z <= 1``; :func:`_solve_xi_array` finds it and
    recognises a point beyond the radius of convergence, which is reported,
    not raised, when requested.  ``iterations`` counts Newton steps and
    ``residual`` is the size of the last one.
    """
    fp = _solve_xi_array(np.array([z]), cfg, tol, max_iter)
    converged = bool(fp.converged[0])
    if not converged and raise_on_divergence:
        raise NoConvergence(
            f"first-passage fixed point not reached at z = {z} "
            f"(last step {fp.residual[0]:.3e} after {fp.iterations[0]} iterations)"
        )
    f1, f2 = cfg.factor1, cfg.factor2
    labels = [(1, v) for v in f1.nonroot] + [(2, v) for v in f2.nonroot]
    return XiSolution(
        z=z,
        xi1=_realify(fp.xi1[0]),
        xi2=_realify(fp.xi2[0]),
        returns={key: _realify(r) for key, r in zip(labels, fp.returns[0])},
        iterations=int(fp.iterations[0]),
        converged=converged,
        residual=float(fp.residual[0]),
    )


def _realify(v: complex) -> complex:
    return v.real if abs(v.imag) < 1e-14 else v


@dataclass(frozen=True)
class GenFunContext:
    """Cached generating-function values at z = 1 for one configuration.

    ``letter_L[(i, v)]`` is the last-exit value of the one-letter word ``v``
    seen from the root, i.e. the factor value at the cone exit probability:
    ``L_i(o_i, v | xi_i)``.  ``cl_constant`` is the uniform upper bound
    ``-log((1 - xi_1)(1 - xi_2))`` for the letter-distance of appended pairs.
    """

    config_digest: str
    xi1: float
    xi2: float
    cone_stay: tuple[float, float]
    letter_L: dict[tuple[int, str], float]
    cl_constant: float

    def xi(self, i: int) -> float:
        return self.xi1 if i == 1 else self.xi2

    def letter_dl(self, i: int, v: str) -> float:
        L = self.letter_L[(i, v)]
        if L <= 0:
            raise NonpositiveL(f"cached L for letter ({i}, {v}) is {L}")
        return -math.log(L)

    def to_json_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "xi": [self.xi1, self.xi2],
            "cone_stay": list(self.cone_stay),
            "letter_L": {f"{i}:{v}": L for (i, v), L in sorted(self.letter_L.items())},
            "cl_constant": self.cl_constant,
        }


def build_context(cfg: WalkConfig, tol: float = XI_TOL) -> GenFunContext:
    """Solve the fixed point at z = 1 and cache the per-letter L values."""
    sol = solve_xi(1.0, cfg, tol=tol)
    xi1, xi2 = float(sol.xi1.real), float(sol.xi2.real)
    if not (0.0 < xi1 < 1.0 and 0.0 < xi2 < 1.0):
        raise NoConvergence(f"xi out of (0,1): xi1 = {xi1}, xi2 = {xi2}")
    bound = 1.0 / ((1.0 - xi1) * (1.0 - xi2))
    letter_L: dict[tuple[int, str], float] = {}
    for i, xi in ((1, xi1), (2, xi2)):
        f = cfg.factor(i)
        for v in f.nonroot:
            L = float(factor_L(cfg, i, f.root, v, xi).real)
            if not (0.0 < L <= bound + 1e-9):
                raise NonpositiveL(
                    f"L_{i}(o, {v} | xi_{i}) = {L} outside (0, {bound}]"
                )
            letter_L[(i, v)] = L
    return GenFunContext(
        config_digest=cfg.digest(),
        xi1=xi1,
        xi2=xi2,
        cone_stay=(1.0 - xi1, 1.0 - xi2),
        letter_L=letter_L,
        cl_constant=-math.log((1.0 - xi1) * (1.0 - xi2)),
    )


def dL_word(w: Word, ctx: GenFunContext) -> float:
    """Letter-distance ``-log L(o, w | 1)``, additive over the letters of ``w``.

    Every path from the root to ``w`` locks in the letters in order, so the
    last-exit function factorizes into one factor value per letter.
    """
    return sum(ctx.letter_dl(i, v) for i, v in w.letters)


@dataclass
class RadiusReport:
    """Numeric plausibility probe for the strictly-larger-than-1 radius."""

    grid: list[float]
    converged_at: list[float]
    largest_converging: Optional[float]
    xi_at_largest: Optional[tuple[float, float]]
    spectral_proxy: list[tuple[int, float]]
    plausible: bool

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid,
            "converged_at": self.converged_at,
            "largest_converging": self.largest_converging,
            "xi_at_largest": list(self.xi_at_largest) if self.xi_at_largest else None,
            "spectral_proxy": [[n, v] for n, v in self.spectral_proxy],
            "plausible": self.plausible,
        }


def radius_diagnostic(
    cfg: WalkConfig, grid: Optional[list[float]] = None, proxy_order: int = 14
) -> RadiusReport:
    """Probe whether the Green function radius exceeds 1.

    Reports the largest grid point where the fixed point still converges with
    both exit probabilities below 1, together with the even-order return
    probability proxy; the standing assumption is declared plausible iff
    convergence holds strictly beyond 1.  A heuristic diagnostic, not a
    certificate.
    """
    from .oracle import return_probability_proxy

    if grid is None:
        grid = [round(1.0 + 0.02 * k, 2) for k in range(11)]
    fp = _solve_xi_array(np.array(grid), cfg)
    inside = fp.converged & (np.abs(fp.xi1) < 1.0) & (np.abs(fp.xi2) < 1.0)
    converged_at = [z for z, ok in zip(grid, inside) if ok]
    largest = max(converged_at, default=None)
    xi_at_largest = None
    if largest is not None:
        k = grid.index(largest)
        xi_at_largest = (float(fp.xi1[k].real), float(fp.xi2[k].real))
    proxy = return_probability_proxy(cfg, proxy_order)
    plausible = largest is not None and largest > 1.0
    return RadiusReport(
        grid=grid,
        converged_at=converged_at,
        largest_converging=largest,
        xi_at_largest=xi_at_largest,
        spectral_proxy=proxy,
        plausible=plausible,
    )


# -- renewal increment generating function -------------------------------------


def renewal_pairs(cfg: WalkConfig) -> tuple[tuple[str, str], ...]:
    """The appended pairs ``(y, x)``, a factor-2 then a factor-1 letter, sorted."""
    return tuple(sorted((y, x) for y in cfg.factor2.nonroot for x in cfg.factor1.nonroot))


def _factor_L_row_grid(
    cfg: WalkConfig, i: int, ts: np.ndarray
) -> dict[str, np.ndarray]:
    """``L_i(o_i, v | t)`` for every non-root ``v``, batched over ``ts``."""
    f = cfg.factor(i)
    mats = np.eye(f.size, dtype=complex)[None, :, :] - ts[:, None, None] * f.matrix()
    inv = np.linalg.inv(mats)
    root = f.root_index
    return {
        v: inv[:, root, f.index(v)] / inv[:, root, root] for v in f.nonroot
    }


def _pair_gf_grid(zs: np.ndarray, cfg: WalkConfig) -> dict[tuple[str, str], np.ndarray]:
    """Generating function of (increment, appended pair) at every point of ``zs``.

    Paths contributing to the increment law avoid one-letter factor-1 words
    and enter the two-letter cone at the last step, either by appending the
    factor-1 letter or by a sibling move; decomposing at the last root visit
    and the last visit to the factor-2 letter expresses everything through
    the fixed point and the factor last-exit functions:

        F_{y,x}(z) = xi_1(z) * L_2(o_2, y | xi_2(z))
                     * [ p_1(o_1, x) + sum_{x'} L_1(o_1, x' | xi_1(z)) p_1(x', x) ]

    One array per pair of :func:`renewal_pairs`, indexed like ``zs``; a
    point where the fixed point is not reached raises :class:`NoConvergence`.
    """
    fp = _solve_xi_array(zs, cfg)
    if not fp.converged.all():
        raise NoConvergence(
            f"first-passage fixed point not reached at {np.sum(~fp.converged)} "
            f"of {len(fp.converged)} points"
        )
    f1 = cfg.factor1
    L1 = _factor_L_row_grid(cfg, 1, fp.xi1)
    L2 = _factor_L_row_grid(cfg, 2, fp.xi2)
    out: dict[tuple[str, str], np.ndarray] = {}
    for y, x in renewal_pairs(cfg):
        arrivals = f1.transition[f1.root_index][f1.index(x)] + sum(
            L1[xp] * f1.transition[f1.index(xp)][f1.index(x)] for xp in f1.nonroot
        )
        out[(y, x)] = fp.xi1 * L2[y] * arrivals
    return out


def renewal_increment_gf(z: complex, cfg: WalkConfig) -> complex:
    """The increment generating function ``F(z)``; equals 1 at z = 1."""
    return sum(_pair_gf_grid(np.array([z]), cfg).values())[0]


@dataclass
class RenewalLaw:
    """Joint law of (increment, appended pair), from FFT inversion or enumeration.

    ``pair_probs[pair][n]`` is the probability of increment ``n`` with
    appended pair ``pair``, one float64 array per pair of
    :func:`renewal_pairs`.  ``unassigned`` is the mass outside the arrays:
    the tail beyond the enumeration order, or what an FFT too short for the
    tail leaves out (5e-11 on K3xK3 at alpha 0.1 at the default sizes).
    :func:`clt_constants` refuses a law leaving out more than
    ``UNASSIGNED_TOL``.
    """

    pair_probs: dict[tuple[str, str], np.ndarray]
    config_digest: str

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.pair_probs)

    @property
    def delta_t_probs(self) -> np.ndarray:
        return sum(self.pair_probs.values())

    @property
    def unassigned(self) -> float:
        return 1.0 - float(self.delta_t_probs.sum())

    def moment(self, power: int = 1) -> float:
        p = self.delta_t_probs
        n = np.arange(len(p), dtype=float)
        return float((n**power * p).sum())

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        m = self.mean()
        return self.moment(2) - m * m

    def block_speed(self) -> float:
        return 2.0 / self.mean()

    def rate(self, reward_of_pair: Callable[[tuple[str, str]], float]) -> float:
        total = sum(
            reward_of_pair(pair) * float(probs.sum())
            for pair, probs in self.pair_probs.items()
        )
        return total / self.mean()

    def sigma_sq(self, reward_of_pair: Callable[[tuple[str, str]], float]) -> float:
        """Renewal variance ``E[(reward - increment * rate)^2] / E[increment]``."""
        rate = self.rate(reward_of_pair)
        acc = 0.0
        for pair, probs in self.pair_probs.items():
            r = reward_of_pair(pair)
            n = np.arange(len(probs), dtype=float)
            acc += float((((r - n * rate) ** 2) * probs).sum())
        return acc / self.mean()

    def sigma_block_sq(self) -> float:
        return self.sigma_sq(lambda _pair: 2.0)

    def to_rows(self) -> dict[str, list]:
        """The CSV form: the nonzero cells by increment, then pair, marked
        ``exact``; then the pair ``*`` with the unassigned mass."""
        grid = np.column_stack(list(self.pair_probs.values()))
        n, j = np.nonzero(grid)
        names = ["".join(pair) for pair in self.pair_probs]
        return {
            "n": n.tolist() + [len(grid) - 1],
            "pair": [names[k] for k in j.tolist()] + ["*"],
            "probability": grid[n, j].tolist() + [self.unassigned],
            "provenance": ["exact"] * len(n) + ["tail-bound"],
        }


def renewal_increment_law(
    cfg: WalkConfig, fft_size: int = 2048, n_terms: int = 1200
) -> RenewalLaw:
    """Invert the increment generating function on the unit circle.

    The coefficients decay geometrically (the radius exceeds 1), so with a
    transform length well beyond the effective support the aliasing error
    is far below double precision; the first ``n_terms`` are kept, and the
    mass beyond them is the law's ``unassigned``.
    """
    half = fft_size // 2
    zs = np.exp(2j * np.pi * np.arange(half + 1) / fft_size)
    n_terms = min(n_terms, fft_size)
    out: dict[tuple[str, str], np.ndarray] = {}
    for pair, upper in _pair_gf_grid(zs, cfg).items():
        full = np.empty(fft_size, dtype=complex)
        full[: half + 1] = upper
        full[half + 1 :] = np.conj(upper[1:half][::-1])
        out[pair] = (np.fft.fft(full).real / fft_size)[:n_terms]
    return RenewalLaw(pair_probs=out, config_digest=cfg.digest())


class CltConstant(NamedTuple):
    """Centering rate and renewal variance of one CLT statistic."""

    rate: float
    sigma_sq: float


def clt_constants(
    law: RenewalLaw, cfg: WalkConfig, ctx: GenFunContext
) -> dict[str, CltConstant]:
    """Exact rate and sigma^2 of each CLT statistic, from the increment law.

    Each statistic adds one reward per renewal block, a function of the
    appended pair ``(y, x)``: the graph distance ``f_2(y) + f_1(x)``
    ("dist"), the two letters of the block ("block"), and the letter
    distance ``-log L_2(o_2, y | xi_2) - log L_1(o_1, x | xi_1)`` ("entropy").
    A law leaving more than ``UNASSIGNED_TOL`` of its mass out (an FFT too
    short for the tail) raises :class:`NoConvergence` rather than give
    constants of a truncated law.
    """
    if law.unassigned > UNASSIGNED_TOL:
        raise NoConvergence(
            f"increment law leaves {law.unassigned:.3g} of its mass unassigned "
            f"(tolerance {UNASSIGNED_TOL:g})"
        )
    d1 = cfg.factor1.distances_from_root()
    d2 = cfg.factor2.distances_from_root()
    rewards = {
        "dist": lambda pair: float(d2[pair[0]] + d1[pair[1]]),
        "block": lambda _pair: 2.0,
        "entropy": lambda pair: ctx.letter_dl(2, pair[0]) + ctx.letter_dl(1, pair[1]),
    }
    return {
        stat: CltConstant(law.rate(reward), law.sigma_sq(reward))
        for stat, reward in rewards.items()
    }

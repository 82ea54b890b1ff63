"""Rate and variance estimation, CLT experiments, and distributional diagnostics.

Renewal estimates are ratio estimators over pooled blocks (reward mean over
increment mean); direct estimates average the endpoint statistic over walks.
Confidence intervals use the normal approximation over independent walks,
with the delta method for ratios and a walk-level bootstrap for the plug-in
variances.  The normality test is a one-sample Kolmogorov-Smirnov statistic
against the standard normal with the asymptotic p-value series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import FreewalkError, InvalidConfig, WalkConfig, compile_kernel
from .genfun import STATISTICS, build_context, clt_constants, renewal_increment_law
from .simulator import (
    DEFAULT_BUFFER,
    BlockPool,
    PURPOSE_GRID,
    PURPOSE_MAIN,
    WalkStatsArrays,
    batch_walk_stats,
    simulate_batch,
    simulate_pool,
    stream_id,
)

Z95 = 1.959963984540054
PRE_ASYMPTOTIC_N = 100
MIN_KS_WALKS = 20  # fewer standardized samples get no KS test
N_BOOT = 200  # walk resamples per bootstrap standard error
IID_FIRST_INDEX = 1  # block indices whose increments iid_diagnostics compares
IID_LATER_INDEX = 5
IID_MAX_LAG = 2
TAIL_FIT_QUANTILE = 0.9  # upper end of the log-survival fit range
DEFAULT_MGF_BASE = 1.05  # base of tail_diagnostic's moment check and of diagnostics --mgf-base
FLAG_FACTOR = 5.0  # second differences beyond this many noise scales are flagged
# the summaries' name of each statistic, in ``STATISTICS`` order: its rate
# fields ``<name>_renewal`` and ``<name>_direct``, its variance ``<name>_sq``
RATE_NAMES = ("lambda", "ell", "h")


class EmptyPool(FreewalkError):
    """The block pool holds no blocks."""


class MissingEpsilon0(FreewalkError):
    """The entropy statistic requires a uniformity floor in the configuration."""


class DegenerateSample(FreewalkError):
    """A sample without variation cannot be tested for normality."""


class InsufficientBlocks(FreewalkError):
    """Not enough blocks, block indices or walks for the requested estimate."""


class Estimate(NamedTuple):
    value: float
    half_width: float  # half of the 95% normal CI


def _ratio_estimate(sums: np.ndarray) -> Estimate:
    """Pooled ratio ``ΣR / ΣΔt`` with a walk-level delta CI, from per-walk sums."""
    sums_d, sums_t = sums[:, 0], sums[:, 3]
    total_t = float(sums_t.sum())
    r = float(sums_d.sum()) / total_t
    resid = sums_d - r * sums_t
    w = len(resid)
    var = float((resid**2).sum()) * w / (w - 1) / total_t**2
    return Estimate(r, Z95 * math.sqrt(max(var, 0.0)))


def _mean_estimate(values: np.ndarray) -> Estimate:
    m = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(len(values))
    return Estimate(m, Z95 * se)


@dataclass
class RateEstimates:
    """Renewal and direct estimates of the three rates, with 95% CIs."""

    lambda_renewal: Estimate
    lambda_direct: Estimate
    ell_renewal: Estimate
    ell_direct: Estimate
    h_renewal: Estimate
    h_direct: Estimate


def truncate_pool(pool: BlockPool, max_index: Optional[int] = None) -> BlockPool:
    """Restrict every walk to its first ``max_index`` blocks.

    Completed-block pools undersample long blocks near the horizon cutoff
    (the straddling block is dropped, and it is size-biased).  Taking a fixed
    number of leading blocks per walk removes that inspection bias: the
    retained blocks form a plain i.i.d. sample.  The default count is the
    minimum yield over walks, so no walk is selected away.
    """
    counts = pool.n_blocks[pool.n_blocks > 0]
    if len(counts) == 0:
        raise EmptyPool("no blocks in pool")
    j = int(counts.min()) if max_index is None else int(max_index)
    keep = pool.index <= j
    return replace(
        pool,
        walk=pool.walk[keep],
        index=pool.index[keep],
        delta_t=pool.delta_t[keep],
        w_first=pool.w_first[keep],
        w_second=pool.w_second[keep],
        n_blocks=np.minimum(pool.n_blocks, j),
    )


def estimate_rates(pool: BlockPool, stats: WalkStatsArrays) -> RateEstimates:
    """Rates from the renewal formulas and from endpoint averages.

    Renewal estimates are reward-over-increment ratios of the pool's per-walk
    sums (:attr:`BlockPool.walk_summary`); direct estimates average
    ``statistic / n`` over walks.  The CIs spread over walks, so a pool of
    one walk raises :class:`InsufficientBlocks` rather than claim a zero
    width.
    """
    if pool.size == 0:
        raise EmptyPool("no blocks in pool")
    if pool.n_walks < 2:
        raise InsufficientBlocks(
            f"rate CIs need at least 2 walks, got {pool.n_walks}"
        )
    n = float(stats.n)
    fields = {}
    for k, name in enumerate(RATE_NAMES):
        fields[f"{name}_renewal"] = _ratio_estimate(pool.walk_summary[k])
        fields[f"{name}_direct"] = _mean_estimate(stats.values[k] / n)
    return RateEstimates(**fields)


@dataclass
class SigmaEstimates:
    """Plug-in renewal variances for the three statistics."""

    lambda_sq: float
    ell_sq: float
    h_sq: float
    degenerate: tuple[bool, bool, bool]

    def to_json_dict(self) -> dict:
        doc = {f"sigma_{name}_sq": getattr(self, f"{name}_sq") for name in RATE_NAMES}
        return {**doc, "degenerate": list(self.degenerate)}


def _plug_in_sigma_sq(sums: np.ndarray) -> np.ndarray:
    """``mean((R - Δt * rate)^2) / mean(Δt)`` from the six sums of
    :attr:`BlockPool.walk_summary` along the last axis, expanded in them."""
    s_d, s_dt, s_d2, s_t, s_t2, s_k = np.moveaxis(sums, -1, 0)
    r = s_d / s_t
    mean_sq = (s_d2 - 2 * r * s_dt + r**2 * s_t2) / s_k
    return mean_sq / (s_t / s_k)


def estimate_sigmas(pool: BlockPool) -> SigmaEstimates:
    """Plug-in ``mean((reward - increment * rate)^2) / mean(increment)``.

    An estimate within ``8 eps ΣR² / ΣΔt`` of zero, the roundoff of the
    terms the expanded sums cancel, is flagged as degenerate, not raised:
    the return-loop assumption guarantees positive variance, so it signals
    a configuration violating it (or a constant synthetic pool).
    """
    if pool.size < 2:
        raise EmptyPool("need at least 2 blocks for a variance estimate")
    totals = pool.walk_summary.sum(axis=1)
    sq = _plug_in_sigma_sq(totals)
    zero = sq <= 8 * np.finfo(float).eps * totals[:, 2] / totals[:, 3]
    values = {f"{name}_sq": float(v) for name, v in zip(RATE_NAMES, sq)}
    return SigmaEstimates(**values, degenerate=tuple(map(bool, zero)))


def bootstrap_sigma_se(pool: BlockPool, which: str, seed: int = 0) -> float:
    """Walk-resampling standard error of the plug-in variance of the
    statistic named ``which``, one of ``RATE_NAMES``, from its walks' sums."""
    agg = pool.walk_summary[RATE_NAMES.index(which)]
    w = pool.n_walks
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.integers(0, w, size=(N_BOOT, w))
    sums = agg[idx].sum(axis=1)  # (N_BOOT, 6)
    ok = (sums[:, 3] > 0) & (sums[:, 5] > 1)
    return float(_plug_in_sigma_sq(sums[ok]).std(ddof=1))


# -- Kolmogorov-Smirnov --------------------------------------------------------


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def kolmogorov_sf(t: float) -> float:
    """Asymptotic survival function of the Kolmogorov statistic."""
    if t <= 0:
        return 1.0
    if t < 1.18:
        # dual theta series, accurate for small t
        a = math.pi**2 / (8.0 * t * t)
        cdf = (
            math.sqrt(2.0 * math.pi)
            / t
            * sum(math.exp(-((2 * k - 1) ** 2) * a) for k in range(1, 6))
        )
        return min(max(1.0 - cdf, 0.0), 1.0)
    s = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * t * t)
        s += term
        if abs(term) < 1e-16:
            break
    return min(max(s, 0.0), 1.0)


def normality_test(samples: Sequence[float]) -> tuple[float, float]:
    """One-sample KS distance to the standard normal, with asymptotic p-value."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    if m < MIN_KS_WALKS:
        raise DegenerateSample(f"need at least {MIN_KS_WALKS} samples, got {m}")
    if x[0] == x[-1]:
        raise DegenerateSample("constant sample")
    cdf = _std_normal_cdf(x)
    grid = np.arange(1, m + 1) / m
    d = float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / m)))))
    return d, kolmogorov_sf(math.sqrt(m) * d)


def two_sample_ks(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample KS statistic with the asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    na, nb = len(a), len(b)
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / na
    fb = np.searchsorted(b, allv, side="right") / nb
    d = float(np.max(np.abs(fa - fb)))
    eff = math.sqrt(na * nb / (na + nb))
    return d, kolmogorov_sf(eff * d)


# -- CLT experiments -----------------------------------------------------------

@dataclass
class CltReport:
    """Standardized endpoint samples of one statistic plus the test result.

    ``rate_estimate`` and ``sigma_estimate`` hold the exact constants the
    samples were standardized with (:func:`freewalk.genfun.clt_constants`),
    not estimates; the field names are kept for readers of the summary.
    """

    statistic: str
    n: int
    M: int
    rate_estimate: float
    sigma_estimate: float
    standardized_samples: np.ndarray = field(metadata={"csv": True})
    ks_stat: Optional[float]
    ks_pvalue: Optional[float]
    sample_mean: float
    sample_var: float
    warnings: list[str]
    master_seed: int
    config_digest: str

    def samples_to_rows(self) -> dict[str, np.ndarray]:
        m = len(self.standardized_samples)
        return {
            "statistic": np.full(m, self.statistic),
            "walk": np.arange(m),
            "standardized": self.standardized_samples,
        }


def run_clt_suite(
    cfg: WalkConfig,
    n: int,
    M: int,
    master_seed: int,
    statistics: Sequence[str] = STATISTICS,
) -> dict[str, CltReport]:
    """Sample M walks of length n and standardize each requested statistic.

    Each statistic is centered at ``n * rate`` and scaled by
    ``sqrt(n) * sigma``, with the exact constants of
    :func:`freewalk.genfun.clt_constants` taken from the renewal increment
    law; no walk is spent on estimating them.  All requested statistics
    share the same walks, which is deterministic given the seed; the batch
    is simulated without runs, since only its letter counts are read.  With
    no walks or fewer than ``MIN_KS_WALKS`` the KS test is skipped and each
    report's warnings say "no walks" or "too few walks".
    """
    if "entropy" in statistics and cfg.epsilon0 is None:
        raise MissingEpsilon0(
            "the entropy statistic requires a uniformity floor epsilon0"
        )
    kernel = compile_kernel(cfg)
    ctx = build_context(cfg)
    constants = clt_constants(renewal_increment_law(cfg), cfg, ctx)

    streams = [stream_id(PURPOSE_MAIN, i) for i in range(M)]
    batch = simulate_batch(cfg, n, master_seed, streams, runs=False)
    raws = dict(zip(STATISTICS, batch_walk_stats(batch, kernel, ctx).values))

    out: dict[str, CltReport] = {}
    for statistic in statistics:
        raw = raws[statistic]
        rate, sigma_sq = constants[statistic]
        sigma = math.sqrt(sigma_sq) if sigma_sq > 0 else float("nan")
        warnings = ["no walks"] if M == 0 else ["too few walks"] if M < MIN_KS_WALKS else []
        if not (sigma > 0):
            warnings.append("degenerate-sigma")
        std = (raw - n * rate) / (sigma * math.sqrt(n))
        ks = pv = None
        if n < PRE_ASYMPTOTIC_N:
            warnings.append("pre-asymptotic")
        elif M >= MIN_KS_WALKS and sigma > 0:
            ks, pv = normality_test(std)
        out[statistic] = CltReport(
            statistic=statistic,
            n=n,
            M=M,
            rate_estimate=rate,
            sigma_estimate=sigma,
            standardized_samples=std,
            ks_stat=ks,
            ks_pvalue=pv,
            sample_mean=float(std.mean()) if M else float("nan"),
            sample_var=float(std.var(ddof=1)) if M > 1 else float("nan"),
            warnings=warnings,
            master_seed=master_seed,
            config_digest=cfg.digest(),
        )
    return out


# -- i.i.d. / tail diagnostics ---------------------------------------------------


@dataclass
class IidDiagnostics:
    """Cross-index KS and within-walk lag correlations of the block pool."""

    ks_stat: float
    ks_pvalue: float
    indices: tuple[int, int]  # the two block indices compared
    sample_sizes: tuple[int, int]  # increments at each of them
    lag_corr_dt: dict[int, Optional[float]]
    lag_corr_dd: dict[int, Optional[float]]
    n_pairs: dict[int, int]
    corr_threshold: dict[int, float]


def _lagged_pairs(pool: BlockPool, values: np.ndarray, lag: int):
    same_walk = pool.walk[lag:] == pool.walk[:-lag]
    consecutive = pool.index[lag:] == pool.index[:-lag] + lag
    mask = same_walk & consecutive
    return values[:-lag][mask], values[lag:][mask]


def _pearson(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    if len(x) < 3 or x.std() == 0 or y.std() == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def iid_diagnostics(pool: BlockPool) -> IidDiagnostics:
    """Detect departures from the i.i.d. block structure.

    Compares the increment distribution at an early and a late block index
    (``IID_FIRST_INDEX``, ``IID_LATER_INDEX``) across walks (one block per
    walk per index preserves independence) and reports within-walk lag
    correlations of the increments and the distance rewards up to
    ``IID_MAX_LAG``.
    """
    dt = pool.delta_t.astype(float)
    first = dt[pool.index == IID_FIRST_INDEX]
    later = dt[pool.index == IID_LATER_INDEX]
    if len(first) < 20 or len(later) < 20:
        raise InsufficientBlocks(
            f"need >= 20 walks with blocks at indices {IID_FIRST_INDEX} "
            f"and {IID_LATER_INDEX}"
        )
    ks, pv = two_sample_ks(first, later)
    lag_dt: dict[int, Optional[float]] = {}
    lag_dd: dict[int, Optional[float]] = {}
    n_pairs: dict[int, int] = {}
    thresholds: dict[int, float] = {}
    for lag in range(1, IID_MAX_LAG + 1):
        x, y = _lagged_pairs(pool, dt, lag)
        lag_dt[lag] = _pearson(x, y)
        xd, yd = _lagged_pairs(pool, pool.d_dist, lag)
        lag_dd[lag] = _pearson(xd, yd)
        n_pairs[lag] = len(x)
        thresholds[lag] = 3.0 / math.sqrt(max(len(x), 1))
    return IidDiagnostics(
        ks_stat=ks,
        ks_pvalue=pv,
        indices=(IID_FIRST_INDEX, IID_LATER_INDEX),
        sample_sizes=(len(first), len(later)),
        lag_corr_dt=lag_dt,
        lag_corr_dd=lag_dd,
        n_pairs=n_pairs,
        corr_threshold=thresholds,
    )


@dataclass
class TailDiagnostics:
    """Exponential-tail fits for the increment and the first renewal time."""

    dt_slope: float
    dt_r2: float
    dt_slope_half: float
    dt_slope_drift: float
    dt_slope_flat: bool  # slope 0, so the relative drift is undefined (null)
    mgf_base: float
    mgf_halves: tuple[float, float]
    mgf_rel_diff: float
    mgf_stable: bool
    t0_slope: float
    t0_r2: float
    fit_range: tuple[int, int]


def _ls_line(ts: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """LS ``(slope, intercept)``; a constant ``ys`` gives exactly 0, not roundoff."""
    if np.all(ys == ys[0]):
        return 0.0, float(ys[0])
    slope, intercept = np.polyfit(ts, ys, 1)
    return float(slope), float(intercept)


def _log_survival_fit(values: np.ndarray):
    """LS fit of log P[X > t] over integer t up to the ``TAIL_FIT_QUANTILE``."""
    t_lo = int(values.min())
    t_hi = int(np.quantile(values, TAIL_FIT_QUANTILE))
    ts = np.arange(t_lo, t_hi)
    if len(ts) < 3:
        raise InsufficientBlocks("tail fit range too short")
    surv = np.array([(values > t).mean() for t in ts])
    keep = surv > 0
    ts, surv = ts[keep], surv[keep]
    if len(ts) < 3:
        raise InsufficientBlocks("tail fit range too short after pruning")
    logs = np.log(surv)
    slope, intercept = _ls_line(ts, logs)
    pred = slope * ts + intercept
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, float(r2), (int(ts[0]), int(ts[-1])), ts, logs


def tail_diagnostic(pool: BlockPool, mgf_base: float = DEFAULT_MGF_BASE) -> TailDiagnostics:
    """Fit the log survival of the increment and probe moment stability.

    The fitted slope must be strictly negative for exponential tails; the
    empirical ``E[base^increment]`` on walk half-samples agreeing within 10%
    is the stability check that heavy-tailed inputs fail.
    """
    if pool.size < 200:
        raise InsufficientBlocks(f"need >= 200 blocks, got {pool.size}")
    dt = pool.delta_t.astype(float)
    slope, r2, rng, ts, logs = _log_survival_fit(dt)
    half_n = max(3, len(ts) // 2)
    slope_half, _ = _ls_line(ts[:half_n], logs[:half_n])
    drift = abs(slope_half - slope) / abs(slope) if slope != 0 else math.inf

    half_walk = pool.n_walks // 2
    first = dt[pool.walk < half_walk]
    second = dt[pool.walk >= half_walk]
    m1 = float(np.mean(mgf_base**first)) if len(first) else math.nan
    m2 = float(np.mean(mgf_base**second)) if len(second) else math.nan
    rel = abs(m1 - m2) / ((m1 + m2) / 2.0)

    t0 = pool.t0_time[pool.t0_time >= 0].astype(float)
    t0_slope, t0_r2, _, _, _ = _log_survival_fit(t0)
    return TailDiagnostics(
        dt_slope=slope,
        dt_r2=r2,
        dt_slope_half=slope_half,
        dt_slope_drift=drift,
        dt_slope_flat=slope == 0,
        mgf_base=mgf_base,
        mgf_halves=(m1, m2),
        mgf_rel_diff=rel,
        mgf_stable=rel <= 0.10,
        t0_slope=t0_slope,
        t0_r2=t0_r2,
        fit_range=rng,
    )


@dataclass
class DiagnosticsReport:
    iid: IidDiagnostics
    tail: TailDiagnostics


# -- smoothness probe ------------------------------------------------------------

SMOOTHNESS_COLUMNS = (*RATE_NAMES, *(f"sigma_{name}_sq" for name in RATE_NAMES))


@dataclass
class SmoothnessReport:
    """Estimates over a parameter grid with finite-difference discontinuity flags."""

    params: list[float]
    values: dict[str, list[float]]
    ses: dict[str, list[float]]
    second_differences: dict[str, list[float]]
    flags: list[tuple[str, int]]

    @property
    def flagged(self) -> bool:
        return bool(self.flags)

    def to_rows(self) -> dict[str, np.ndarray]:
        table = {"param": np.array(self.params, dtype=float)}
        for col in SMOOTHNESS_COLUMNS:
            table[col] = np.array(self.values[col], dtype=float)
            table[col + "_se"] = np.array(self.ses[col], dtype=float)
        return table


def smoothness_probe(
    family: Sequence[tuple[float, WalkConfig]],
    n: int,
    M: int,
    master_seed: int,
    buffer: int = DEFAULT_BUFFER,
) -> SmoothnessReport:
    """Estimate rates and variances on a parameter grid with common random numbers.

    Every grid point reuses the same streams, so differences along the grid
    are strongly positively correlated and second differences are sensitive
    to genuine kinks.  A column flags position ``i`` when its second
    difference exceeds ``FLAG_FACTOR`` times the local noise scale (the
    independent-sum bound, conservative under common random numbers).
    Every grid point's kernel is compiled, which validates its config,
    before the first walk; a failure raises ``InvalidConfig`` naming the
    point.
    """
    for param, cfg in family:
        try:
            compile_kernel(cfg)
        except InvalidConfig as e:
            raise InvalidConfig(f"grid point {param}: {e}") from e
    values: dict[str, list[float]] = {c: [] for c in SMOOTHNESS_COLUMNS}
    ses: dict[str, list[float]] = {c: [] for c in SMOOTHNESS_COLUMNS}
    params: list[float] = []
    for param, cfg in family:
        ctx = build_context(cfg)
        pool, stats = simulate_pool(
            cfg, ctx, n, M, master_seed, buffer, purpose=PURPOSE_GRID
        )
        rates = estimate_rates(pool, stats)
        sigmas = estimate_sigmas(pool)
        params.append(param)
        for name in RATE_NAMES:
            est = getattr(rates, f"{name}_renewal")
            values[name].append(est.value)
            ses[name].append(est.half_width / Z95)
            values[f"sigma_{name}_sq"].append(getattr(sigmas, f"{name}_sq"))
            ses[f"sigma_{name}_sq"].append(bootstrap_sigma_se(pool, name, seed=master_seed))
    second: dict[str, list[float]] = {c: [] for c in SMOOTHNESS_COLUMNS}
    flags: list[tuple[str, int]] = []
    for col in SMOOTHNESS_COLUMNS:
        v = values[col]
        s = ses[col]
        for i in range(1, len(v) - 1):
            d2 = v[i - 1] - 2 * v[i] + v[i + 1]
            second[col].append(d2)
            noise = math.sqrt(s[i - 1] ** 2 + 4 * s[i] ** 2 + s[i + 1] ** 2)
            if abs(d2) > FLAG_FACTOR * max(noise, 1e-15):
                flags.append((col, i))
    return SmoothnessReport(
        params=params,
        values=values,
        ses=ses,
        second_differences=second,
        flags=flags,
    )

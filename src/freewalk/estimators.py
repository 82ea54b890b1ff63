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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import FreewalkError, WalkConfig, compile_kernel, validate_config
from .genfun import (
    GenFunContext,
    build_context,
    clt_constants,
    renewal_increment_law,
)
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


class EmptyPool(FreewalkError):
    """The block pool holds no blocks."""


class MissingEpsilon0(FreewalkError):
    """The entropy statistic requires a uniformity floor in the configuration."""


class DegenerateSample(FreewalkError):
    """A sample without variation cannot be tested for normality."""


class InsufficientBlocks(FreewalkError):
    """Not enough blocks, block indices or walks for the requested estimate."""


class InvalidGridPoint(FreewalkError):
    """A parameter-grid configuration failed validation."""


@dataclass(frozen=True)
class Estimate:
    value: float
    half_width: float  # half of the 95% normal CI

    def __iter__(self):
        yield self.value
        yield self.half_width


def _ratio_estimate(pool: BlockPool, rewards: np.ndarray) -> Estimate:
    """Pooled ratio mean(reward)/mean(increment) with a walk-level delta CI."""
    total_t = float(pool.delta_t.sum())
    total_d = float(rewards.sum())
    r = total_d / total_t
    sums_d = pool.walk_sums(rewards)
    sums_t = pool.walk_sums(pool.delta_t.astype(float))
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

    def to_json_dict(self) -> dict:
        return {
            name: [est.value, est.half_width]
            for name, est in self.__dict__.items()
        }


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
    return BlockPool(
        config_digest=pool.config_digest,
        buffer=pool.buffer,
        n=pool.n,
        walk=pool.walk[keep],
        index=pool.index[keep],
        delta_t=pool.delta_t[keep],
        d_dist=pool.d_dist[keep],
        d_ent=pool.d_ent[keep],
        w_first=pool.w_first[keep],
        w_second=pool.w_second[keep],
        d_at=pool.d_at[keep],
        tau=pool.tau,
        t0_time=pool.t0_time,
        t0_dist=pool.t0_dist,
        n_blocks=np.minimum(pool.n_blocks, j),
        censored=pool.censored,
    )


def estimate_rates(pool: BlockPool, stats: WalkStatsArrays) -> RateEstimates:
    """Rates from the renewal formulas and from endpoint averages.

    Renewal estimates are reward-over-increment ratios (the block-length
    reward is identically 2, so its rate is ``2 / mean(increment)``); direct
    estimates average ``statistic / n`` over walks.  The CIs spread over
    walks, so a pool of one walk raises :class:`InsufficientBlocks` rather
    than claim a zero width.
    """
    if pool.size == 0:
        raise EmptyPool("no blocks in pool")
    if pool.n_walks < 2:
        raise InsufficientBlocks(
            f"rate CIs need at least 2 walks, got {pool.n_walks}"
        )
    n = float(stats.n)
    return RateEstimates(
        lambda_renewal=_ratio_estimate(pool, pool.d_dist),
        lambda_direct=_mean_estimate(stats.dist / n),
        ell_renewal=_ratio_estimate(pool, np.full(pool.size, 2.0)),
        ell_direct=_mean_estimate(stats.length / n),
        h_renewal=_ratio_estimate(pool, pool.d_ent),
        h_direct=_mean_estimate(stats.dl / n),
    )


@dataclass
class SigmaEstimates:
    """Plug-in renewal variances for the three statistics."""

    lambda_sq: float
    ell_sq: float
    h_sq: float
    degenerate: tuple[bool, bool, bool]

    def values(self) -> tuple[float, float, float]:
        return (self.lambda_sq, self.ell_sq, self.h_sq)

    def to_json_dict(self) -> dict:
        return {
            "sigma_lambda_sq": self.lambda_sq,
            "sigma_ell_sq": self.ell_sq,
            "sigma_h_sq": self.h_sq,
            "degenerate": list(self.degenerate),
        }


def _plug_in_sigma_sq(delta_t: np.ndarray, rewards: np.ndarray) -> float:
    rate = float(rewards.sum()) / float(delta_t.sum())
    dev = rewards - delta_t * rate
    return float((dev**2).mean()) / float(delta_t.mean())


def estimate_sigmas(pool: BlockPool) -> SigmaEstimates:
    """Plug-in ``mean((reward - increment * rate)^2) / mean(increment)``.

    A zero estimate is flagged as degenerate rather than raised: strictly
    positive variance is guaranteed by the return-loop assumption, so a zero
    signals a configuration violating it (or a constant synthetic pool).
    """
    if pool.size < 2:
        raise EmptyPool("need at least 2 blocks for a variance estimate")
    dt = pool.delta_t.astype(float)
    values = (
        _plug_in_sigma_sq(dt, pool.d_dist),
        _plug_in_sigma_sq(dt, np.full(pool.size, 2.0)),
        _plug_in_sigma_sq(dt, pool.d_ent),
    )
    return SigmaEstimates(
        lambda_sq=values[0],
        ell_sq=values[1],
        h_sq=values[2],
        degenerate=tuple(v == 0.0 for v in values),
    )


def bootstrap_sigma_se(
    pool: BlockPool, which: str, n_boot: int = 200, seed: int = 0
) -> float:
    """Walk-resampling standard error of a plug-in variance estimate."""
    rewards = {
        "lambda": pool.d_dist,
        "ell": np.full(pool.size, 2.0),
        "h": pool.d_ent,
    }[which]
    dt = pool.delta_t.astype(float)
    w = pool.n_walks
    agg = np.stack(
        [
            pool.walk_sums(rewards),
            pool.walk_sums(rewards * dt),
            pool.walk_sums(rewards**2),
            pool.walk_sums(dt),
            pool.walk_sums(dt**2),
            pool.walk_sums(np.ones(pool.size)),
        ],
        axis=1,
    )
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.integers(0, w, size=(n_boot, w))
    sums = agg[idx].sum(axis=1)  # (n_boot, 6)
    s_d, s_dt, s_d2, s_t, s_t2, s_k = sums.T
    ok = (s_t > 0) & (s_k > 1)
    r = s_d[ok] / s_t[ok]
    mean_sq = (s_d2[ok] - 2 * r * s_dt[ok] + r**2 * s_t2[ok]) / s_k[ok]
    sig = mean_sq / (s_t[ok] / s_k[ok])
    return float(sig.std(ddof=1))


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

STATISTICS = ("dist", "block", "entropy")


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
    standardized_samples: np.ndarray
    ks_stat: Optional[float]
    ks_pvalue: Optional[float]
    sample_mean: float
    sample_var: float
    warnings: list[str]
    master_seed: int
    config_digest: str

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "n": self.n,
            "M": self.M,
            "rate_estimate": self.rate_estimate,
            "sigma_estimate": self.sigma_estimate,
            "ks_stat": self.ks_stat,
            "ks_pvalue": self.ks_pvalue,
            "sample_mean": self.sample_mean,
            "sample_var": self.sample_var,
            "warnings": self.warnings,
            "master_seed": self.master_seed,
            "config_digest": self.config_digest,
        }

    def samples_to_rows(self) -> dict[str, Sequence]:
        m = len(self.standardized_samples)
        return {
            "statistic": [self.statistic] * m,
            "walk": np.arange(m),
            "standardized": self.standardized_samples,
        }


def _raw_statistic(stats: WalkStatsArrays, statistic: str) -> np.ndarray:
    if statistic == "dist":
        return stats.dist
    if statistic == "block":
        return stats.length
    if statistic == "entropy":
        return stats.dl
    raise ValueError(f"unknown statistic {statistic!r}")


def run_clt_suite(
    cfg: WalkConfig,
    n: int,
    M: int,
    master_seed: int,
    statistics: Sequence[str] = STATISTICS,
    ctx: Optional[GenFunContext] = None,
) -> dict[str, CltReport]:
    """Sample M walks of length n and standardize each requested statistic.

    Each statistic is centered at ``n * rate`` and scaled by
    ``sqrt(n) * sigma``, with the exact constants of
    :func:`freewalk.genfun.clt_constants` taken from the renewal increment
    law; no walk is spent on estimating them.  All requested statistics
    share the same walks, which is deterministic given the seed.  With no
    walks or fewer than ``MIN_KS_WALKS`` the KS test is skipped and each
    report's warnings say "no walks" or "too few walks".
    """
    if "entropy" in statistics and cfg.epsilon0 is None:
        raise MissingEpsilon0(
            "the entropy statistic requires a uniformity floor epsilon0"
        )
    kernel = compile_kernel(cfg)
    if ctx is None:
        ctx = build_context(cfg)
    constants = clt_constants(renewal_increment_law(cfg), cfg, ctx)

    streams = [stream_id(PURPOSE_MAIN, i) for i in range(M)]
    batch = simulate_batch(cfg, n, master_seed, streams)
    stats = batch_walk_stats(batch, kernel, ctx)

    out: dict[str, CltReport] = {}
    for statistic in statistics:
        raw = _raw_statistic(stats, statistic)
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
    first_index: int
    later_index: int
    n_first: int
    n_later: int
    lag_corr_dt: dict[int, Optional[float]]
    lag_corr_dd: dict[int, Optional[float]]
    n_pairs: dict[int, int]
    corr_threshold: dict[int, float]

    def to_json_dict(self) -> dict:
        return {
            "ks_stat": self.ks_stat,
            "ks_pvalue": self.ks_pvalue,
            "indices": [self.first_index, self.later_index],
            "sample_sizes": [self.n_first, self.n_later],
            "lag_corr_dt": {str(k): v for k, v in self.lag_corr_dt.items()},
            "lag_corr_dd": {str(k): v for k, v in self.lag_corr_dd.items()},
            "n_pairs": {str(k): v for k, v in self.n_pairs.items()},
            "corr_threshold": {str(k): v for k, v in self.corr_threshold.items()},
        }


def _lagged_pairs(pool: BlockPool, values: np.ndarray, lag: int):
    same_walk = pool.walk[lag:] == pool.walk[:-lag]
    consecutive = pool.index[lag:] == pool.index[:-lag] + lag
    mask = same_walk & consecutive
    return values[:-lag][mask], values[lag:][mask]


def _pearson(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    if len(x) < 3 or x.std() == 0 or y.std() == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def iid_diagnostics(
    pool: BlockPool, first_index: int = 1, later_index: int = 5, max_lag: int = 2
) -> IidDiagnostics:
    """Detect departures from the i.i.d. block structure.

    Compares the increment distribution at an early and a late block index
    across walks (one block per walk per index preserves independence) and
    reports within-walk lag correlations of the increments and the distance
    rewards.
    """
    first = pool.delta_t[pool.index == first_index].astype(float)
    later = pool.delta_t[pool.index == later_index].astype(float)
    if len(first) < 20 or len(later) < 20:
        raise InsufficientBlocks(
            f"need >= 20 walks with blocks at indices {first_index} and {later_index}"
        )
    ks, pv = two_sample_ks(first, later)
    lag_dt: dict[int, Optional[float]] = {}
    lag_dd: dict[int, Optional[float]] = {}
    n_pairs: dict[int, int] = {}
    thresholds: dict[int, float] = {}
    for lag in range(1, max_lag + 1):
        x, y = _lagged_pairs(pool, pool.delta_t.astype(float), lag)
        lag_dt[lag] = _pearson(x, y)
        xd, yd = _lagged_pairs(pool, pool.d_dist, lag)
        lag_dd[lag] = _pearson(xd, yd)
        n_pairs[lag] = len(x)
        thresholds[lag] = 3.0 / math.sqrt(max(len(x), 1))
    return IidDiagnostics(
        ks_stat=ks,
        ks_pvalue=pv,
        first_index=first_index,
        later_index=later_index,
        n_first=len(first),
        n_later=len(later),
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

    def to_json_dict(self) -> dict:
        return {
            "dt_slope": self.dt_slope,
            "dt_r2": self.dt_r2,
            "dt_slope_half": self.dt_slope_half,
            "dt_slope_drift": self.dt_slope_drift,
            "dt_slope_flat": self.dt_slope_flat,
            "mgf_base": self.mgf_base,
            "mgf_halves": list(self.mgf_halves),
            "mgf_rel_diff": self.mgf_rel_diff,
            "mgf_stable": self.mgf_stable,
            "t0_slope": self.t0_slope,
            "t0_r2": self.t0_r2,
            "fit_range": list(self.fit_range),
        }


def _ls_line(ts: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """LS ``(slope, intercept)``; a constant ``ys`` gives exactly 0, not roundoff."""
    if np.all(ys == ys[0]):
        return 0.0, float(ys[0])
    slope, intercept = np.polyfit(ts, ys, 1)
    return float(slope), float(intercept)


def _log_survival_fit(values: np.ndarray, upper_quantile: float = 0.9):
    """LS fit of log P[X > t] over integer t up to the given quantile."""
    t_lo = int(values.min())
    t_hi = int(np.quantile(values, upper_quantile))
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


def tail_diagnostic(pool: BlockPool, mgf_base: float = 1.05) -> TailDiagnostics:
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

    def to_json_dict(self) -> dict:
        return {"iid": self.iid.to_json_dict(), "tail": self.tail.to_json_dict()}


# -- smoothness probe ------------------------------------------------------------

SMOOTHNESS_COLUMNS = (
    "lambda",
    "ell",
    "h",
    "sigma_lambda_sq",
    "sigma_ell_sq",
    "sigma_h_sq",
)


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

    def to_rows(self) -> dict[str, list]:
        table = {"param": self.params}
        for col in SMOOTHNESS_COLUMNS:
            table[col] = self.values[col]
            table[col + "_se"] = self.ses[col]
        return table

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "values": self.values,
            "ses": self.ses,
            "second_differences": self.second_differences,
            "flags": [[c, i] for c, i in self.flags],
        }


def smoothness_probe(
    family: Sequence[tuple[float, WalkConfig]],
    n: int,
    M: int,
    master_seed: int,
    buffer: int = DEFAULT_BUFFER,
    flag_factor: float = 5.0,
) -> SmoothnessReport:
    """Estimate rates and variances on a parameter grid with common random numbers.

    Every grid point reuses the same streams, so differences along the grid
    are strongly positively correlated and second differences are sensitive
    to genuine kinks.  A column flags position ``i`` when its second
    difference exceeds ``flag_factor`` times the local noise scale (the
    independent-sum bound, conservative under common random numbers).
    """
    values: dict[str, list[float]] = {c: [] for c in SMOOTHNESS_COLUMNS}
    ses: dict[str, list[float]] = {c: [] for c in SMOOTHNESS_COLUMNS}
    params: list[float] = []
    for param, cfg in family:
        report = validate_config(cfg)
        if not report.ok:
            raise InvalidGridPoint(
                f"grid point {param}: " + "; ".join(n for n, _ in report.failures())
            )
        ctx = build_context(cfg)
        pool, stats = simulate_pool(
            cfg, ctx, n, M, master_seed, buffer, purpose=PURPOSE_GRID
        )
        rates = estimate_rates(pool, stats)
        sigmas = estimate_sigmas(pool)
        params.append(param)
        for col, est in (
            ("lambda", rates.lambda_renewal),
            ("ell", rates.ell_renewal),
            ("h", rates.h_renewal),
        ):
            values[col].append(est.value)
            ses[col].append(est.half_width / Z95)
        for col, val, which in (
            ("sigma_lambda_sq", sigmas.lambda_sq, "lambda"),
            ("sigma_ell_sq", sigmas.ell_sq, "ell"),
            ("sigma_h_sq", sigmas.h_sq, "h"),
        ):
            values[col].append(val)
            ses[col].append(bootstrap_sigma_se(pool, which, seed=master_seed))
    second: dict[str, list[float]] = {c: [] for c in SMOOTHNESS_COLUMNS}
    flags: list[tuple[str, int]] = []
    for col in SMOOTHNESS_COLUMNS:
        v = values[col]
        s = ses[col]
        for i in range(1, len(v) - 1):
            d2 = v[i - 1] - 2 * v[i] + v[i + 1]
            second[col].append(d2)
            noise = math.sqrt(s[i - 1] ** 2 + 4 * s[i] ** 2 + s[i + 1] ** 2)
            if abs(d2) > flag_factor * max(noise, 1e-15):
                flags.append((col, i))
    return SmoothnessReport(
        params=params,
        values=values,
        ses=ses,
        second_differences=second,
        flags=flags,
    )


# -- small-n exact-entropy gap ----------------------------------------------------


def entropy_proxy_gap(
    cfg: WalkConfig,
    ctx: GenFunContext,
    n: int,
    M: int,
    master_seed: int,
) -> list[tuple[float, float, float]]:
    """Per-walk ``(-log pi_n(X_n), d_L(o, X_n), gap)`` at enumeration scale.

    The exact occupation law ``pi_n`` comes from the enumeration oracle, so
    ``n`` is limited by the enumeration cap; this quantifies, without any
    asymptotic claim, how far the letter-distance proxy sits from the exact
    occupation statistic whose growth rate defines the entropy.
    """
    from .oracle import occupation_probabilities
    from .simulator import PURPOSE_DIAG, letter_dl_table

    kernel = compile_kernel(cfg)
    streams = [stream_id(PURPOSE_DIAG, i) for i in range(M)]
    batch = simulate_batch(cfg, n, master_seed, streams)
    endpoints = [tuple(int(c) for c in batch.final_codes(m)) for m in range(M)]
    probs = occupation_probabilities(cfg, n, endpoints)
    dl_tab = letter_dl_table(kernel, ctx)
    out = []
    for codes, p in zip(endpoints, probs):
        if p <= 0:
            raise AssertionError("realized endpoint carries zero exact probability")
        mlp = -math.log(p)
        dl = float(dl_tab[np.array(codes, dtype=np.int64)].sum()) if codes else 0.0
        out.append((mlp, dl, mlp - dl))
    return out

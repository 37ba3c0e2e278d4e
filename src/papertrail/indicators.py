"""Single-researcher indicators and papermilling-signal flags.

Computes the full indicator block for one researcher: correlation between
the annual publication and citation series, the citation lag maximizing
that correlation, the h-index, the integrity index (h divided by total
publications), per-year publication statistics, highly-cited-paper counts
against per-year thresholds, and a set of behavioral flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    AllDegenerateError,
    HExceedsPublicationsError,
    LengthMismatchError,
    TooShortError,
    ZeroPublicationsError,
)
from .ingest import PublicationRecord, ResearcherProfile
from .series import AnnualSeries, build_series

# Minimum citation counts for a paper to rank in the top 1% of its
# publication year (mathematics).  Years outside this table never qualify.
DEFAULT_HCP_THRESHOLDS = MappingProxyType({
    2015: 92,
    2016: 81,
    2017: 77,
    2018: 74,
    2019: 64,
    2020: 56,
    2021: 42,
    2022: 30,
    2023: 19,
    2024: 9,
    2025: 3,
})

DEFAULT_MAX_LAG = 10

# ZeroLag fires (with HighCorrelation) when the best lag is at most this
ZERO_LAG_MAX = 0


class SignalKind(str, Enum):
    HIGH_CORRELATION = "HighCorrelation"
    ZERO_LAG = "ZeroLag"
    LOW_INTEGRITY = "LowIntegrity"
    EXCESSIVE_ANNUAL_OUTPUT = "ExcessiveAnnualOutput"
    MONOTONE_GROWTH = "MonotoneGrowth"


@dataclass(frozen=True)
class Signal:
    kind: SignalKind
    detail: str


@dataclass(frozen=True)
class Region:
    """Flag-region bounds: r strictly above r_min AND I strictly below i_max."""

    r_min: float = 0.5
    i_max: float = 0.3

    def __post_init__(self) -> None:
        if not -1.0 < self.r_min < 1.0:
            raise ValueError(f"r_min must lie in (-1, 1), got {self.r_min}")
        if not 0.0 < self.i_max < 1.0:
            raise ValueError(f"i_max must lie in (0, 1), got {self.i_max}")


@dataclass(frozen=True)
class AnalysisConfig:
    """Thresholds for the behavioral flags plus the knobs used by analyze_profile.

    Flags use strict inequalities on r and I; loosening any threshold can
    only add signals of the corresponding kind, never remove them.  Values
    outside their range raise ValueError.
    """

    r_min: float = Region.r_min
    i_max: float = Region.i_max
    pubs_per_year_limit: int = 30
    growth_window: int = 5
    max_lag: int = DEFAULT_MAX_LAG
    prefer_reported_h: bool = False

    def __post_init__(self) -> None:
        Region(self.r_min, self.i_max)  # raises on an out-of-range r_min or i_max
        if self.pubs_per_year_limit < 1:
            raise ValueError(f"pubs_per_year_limit must be >= 1, got {self.pubs_per_year_limit}")
        if self.growth_window < 0:
            raise ValueError(f"growth_window must be >= 0, got {self.growth_window}")
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")

    @property
    def region(self) -> Region:
        return Region(self.r_min, self.i_max)


@dataclass(frozen=True)
class IndicatorSet:
    """All single-researcher indicators, with the annual series they came from.

    ``r`` and ``lag`` are None when undefined (too-short or constant
    series; lag is only estimated when the correlation is strong).
    """

    r: float | None
    lag: int | None
    h: int
    i_index: float
    total_pubs: int
    total_cites: int
    max_pubs_year: int
    min_pubs_year: int
    avg_pubs_year: float
    avg_cites_per_paper: float
    start_year: int
    hcp_count: int
    series: AnnualSeries
    flags: tuple[Signal, ...] = ()
    warnings: tuple[str, ...] = ()


class LagResult(NamedTuple):
    lag: int
    r_at_lag: float


class YearlyStats(NamedTuple):
    max_pubs: int
    min_pubs: int
    avg_pubs: float


def round_half_up(value: float, ndigits: int = 2) -> float:
    """Round for display with ties away from zero (0.085 -> 0.09)."""
    q = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson product-moment correlation; None when either side is constant."""
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise TooShortError("correlation needs at least 2 paired values")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    return sxy / math.sqrt(sxx * syy)


def best_lag(series: AnnualSeries, max_lag: int = DEFAULT_MAX_LAG) -> LagResult:
    """Find the citation delay maximizing corr(pubs[t], cites[t+d]).

    Scans d = 0..max_lag over the overlapping year pairs; ties go to the
    smallest d, lags with undefined correlation are skipped.  Raises
    TooShortError when any candidate lag would leave fewer than 3 pairs,
    AllDegenerateError when every lag is undefined.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    n = len(series.pubs)
    if n < max_lag + 3:
        raise TooShortError(
            f"series of {n} years cannot support lags up to {max_lag} "
            "(each lag needs at least 3 overlapping pairs)"
        )
    best: LagResult | None = None
    for d in range(max_lag + 1):
        r = pearson(series.pubs[: n - d], series.cites[d:])
        if r is None:
            continue
        if best is None or r > best.r_at_lag:
            best = LagResult(d, r)
    if best is None:
        raise AllDegenerateError("correlation undefined at every candidate lag")
    return best


def h_index(records: Sequence[PublicationRecord]) -> int:
    """Largest h such that at least h records have total_citations >= h."""
    totals = sorted((rec.total_citations for rec in records), reverse=True)
    h = 0
    for i, cites in enumerate(totals):
        if cites >= i + 1:
            h = i + 1
        else:
            break
    return h


def i_index(h: int, total_pubs: int) -> float:
    """Integrity index: the exact quotient h / total publications."""
    if total_pubs < 1:
        raise ZeroPublicationsError("integrity index needs at least one publication")
    if not 0 <= h <= total_pubs:
        raise HExceedsPublicationsError(f"h={h} outside 0..{total_pubs}")
    return h / total_pubs


def hcp_count(
    records: Sequence[PublicationRecord],
    thresholds: Mapping[int, int] = DEFAULT_HCP_THRESHOLDS,
) -> int:
    """Count records meeting the highly-cited threshold for their year."""
    count = 0
    for rec in records:
        needed = thresholds.get(rec.pub_year)
        if needed is not None and rec.total_citations >= needed:
            count += 1
    return count


def yearly_stats(series: AnnualSeries) -> YearlyStats:
    """Max/min/mean publications per year over the whole series span."""
    pubs = series.pubs
    return YearlyStats(max(pubs), min(pubs), math.fsum(pubs) / len(pubs))


def flag_profile(ind: IndicatorSet, config: AnalysisConfig = AnalysisConfig()) -> list[Signal]:
    """Evaluate the behavioral signals for an indicator set.

    HighCorrelation and LowIntegrity use strict inequalities; ZeroLag only
    fires together with HighCorrelation; MonotoneGrowth looks at the
    trailing ``growth_window`` years of the publication counts.
    """
    series = ind.series
    signals: list[Signal] = []

    high_corr = ind.r is not None and ind.r > config.r_min
    if high_corr:
        signals.append(Signal(
            SignalKind.HIGH_CORRELATION,
            f"publications/citations correlation {ind.r:.4f} exceeds {config.r_min}",
        ))
        if ind.lag is not None and ind.lag <= ZERO_LAG_MAX:
            signals.append(Signal(
                SignalKind.ZERO_LAG,
                f"citations track publications with lag {ind.lag} year(s) "
                f"(<= {ZERO_LAG_MAX}) despite strong correlation",
            ))

    if ind.i_index < config.i_max:
        signals.append(Signal(
            SignalKind.LOW_INTEGRITY,
            f"integrity index {ind.i_index:.4f} below {config.i_max}",
        ))

    if ind.max_pubs_year >= config.pubs_per_year_limit:
        signals.append(Signal(
            SignalKind.EXCESSIVE_ANNUAL_OUTPUT,
            f"{ind.max_pubs_year} papers in a single year "
            f"(limit {config.pubs_per_year_limit})",
        ))

    window = series.pubs[-config.growth_window:] if config.growth_window > 0 else ()
    if len(window) >= 2:
        non_decreasing = all(b >= a for a, b in zip(window, window[1:]))
        strict_rise = any(b > a for a, b in zip(window, window[1:]))
        career_mean = math.fsum(series.pubs) / len(series.pubs)
        if non_decreasing and strict_rise and window[-1] > career_mean:
            signals.append(Signal(
                SignalKind.MONOTONE_GROWTH,
                f"publication counts non-decreasing over the last {len(window)} "
                f"years, ending at {window[-1]} (career mean {career_mean:.2f})",
            ))

    return signals


def analyze_profile(
    profile: ResearcherProfile,
    config: AnalysisConfig = AnalysisConfig(),
) -> IndicatorSet:
    """Compute the full indicator set for one researcher.

    The lag is estimated only when the correlation exceeds ``config.r_min``
    (a delay is meaningless for weakly coupled series).  When
    ``config.prefer_reported_h`` is set and the profile carries a reported
    h-index, that value is used, with a warning when it disagrees with the
    value computed from the records.
    """
    series = build_series(profile)
    notes: list[str] = []

    first_pub_year = min(rec.pub_year for rec in profile.records)
    if series.start_year < first_pub_year:
        notes.append(
            f"citations recorded before the first publication year "
            f"({series.start_year} < {first_pub_year}); series range extended downward"
        )

    r: float | None = None
    if len(series) >= 2:
        r = pearson(series.pubs, series.cites)

    lag: int | None = None
    if r is not None and r > config.r_min:
        effective_max_lag = min(config.max_lag, len(series) - 3)
        if effective_max_lag >= 0:  # lag 0 is r itself, so some lag is defined
            lag = best_lag(series, effective_max_lag).lag

    total_pubs = len(profile.records)
    computed_h = h_index(profile.records)
    h = computed_h
    if config.prefer_reported_h and profile.reported_h is not None:
        if 0 <= profile.reported_h <= total_pubs:
            if profile.reported_h != computed_h:
                notes.append(
                    f"reported h-index {profile.reported_h} differs from the value "
                    f"computed from records ({computed_h}); using the reported one"
                )
            h = profile.reported_h
        else:
            notes.append(
                f"reported h-index {profile.reported_h} is impossible for "
                f"{total_pubs} records; using the computed value {computed_h}"
            )

    stats = yearly_stats(series)
    total_cites = sum(rec.total_citations for rec in profile.records)

    ind = IndicatorSet(
        r=r,
        lag=lag,
        h=h,
        i_index=i_index(h, total_pubs),
        total_pubs=total_pubs,
        total_cites=total_cites,
        max_pubs_year=stats.max_pubs,
        min_pubs_year=stats.min_pubs,
        avg_pubs_year=stats.avg_pubs,
        avg_cites_per_paper=total_cites / total_pubs,
        start_year=series.start_year,
        hcp_count=hcp_count(profile.records),
        series=series,
        warnings=tuple(notes),
    )
    return replace(ind, flags=tuple(flag_profile(ind, config)))

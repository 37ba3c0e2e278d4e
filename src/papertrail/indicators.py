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
from enum import Enum
from itertools import count, repeat
from operator import ge, gt, le, lt, mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import DEFAULT_MAX_LAG, AnalysisConfig
from .errors import (
    AllDegenerateError,
    HExceedsPublicationsError,
    LengthMismatchError,
    TooShortError,
    ZeroPublicationsError,
)
from .ingest import PublicationRecord, ResearcherProfile, _citation_totals
from .series import AnnualSeries, _series

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
    from decimal import ROUND_HALF_UP, Decimal  # only charts round for display

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
    dx = list(map(sub, x, repeat(mx)))
    dy = list(map(sub, y, repeat(my)))
    sxx = math.fsum(map(mul, dx, dx))
    syy = math.fsum(map(mul, dy, dy))
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum(map(mul, dx, dy))
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


def _h_index(totals: Iterable[int]) -> int:
    """Largest h such that at least h of ``totals`` are >= h."""
    # in descending order a total stays >= its rank up to rank h and falls below it after
    return sum(map(ge, sorted(totals, reverse=True), count(1)))


def h_index(records: Sequence[PublicationRecord]) -> int:
    """Largest h such that at least h records have total_citations >= h."""
    return _h_index(rec.total_citations for rec in records)


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
    return _hcp_count([rec.pub_year for rec in records], [rec.total_citations for rec in records],
                      thresholds)


def _hcp_count(pub_years: list[int], totals: list[int], thresholds: Mapping[int, int]) -> int:
    """The number of ``totals`` meeting the highly-cited threshold for their publication year."""
    return sum(1 for year, total in zip(pub_years, totals)
               if (needed := thresholds.get(year)) is not None and total >= needed)


def yearly_stats(series: AnnualSeries) -> YearlyStats:
    """Max/min/mean publications per year over the whole series span."""
    pubs = series.pubs
    return YearlyStats(max(pubs), min(pubs), math.fsum(pubs) / len(pubs))


def flag_profile(ind: IndicatorSet, config: AnalysisConfig = AnalysisConfig()) -> list[Signal]:
    """Evaluate the behavioral signals for an indicator set: each rule fires when it applies and
    ``op(value, threshold)`` holds.  ZeroLag only fires together with HighCorrelation;
    MonotoneGrowth looks at the trailing ``growth_window`` years of the publication counts.
    """
    window = ind.series.pubs[-config.growth_window:] if config.growth_window > 0 else ()
    steps = tuple(zip(window, window[1:]))
    high_corr = ind.r is not None and ind.r > config.r_min
    rules = (  # kind, applies, value, op, threshold, detail
        (SignalKind.HIGH_CORRELATION, ind.r is not None, ind.r, gt, config.r_min,
         "publications/citations correlation {value:.4f} exceeds {threshold}"),
        (SignalKind.ZERO_LAG, high_corr and ind.lag is not None, ind.lag, le, ZERO_LAG_MAX,
         "citations track publications with lag {value} year(s) (<= {threshold}) "
         "despite strong correlation"),
        (SignalKind.LOW_INTEGRITY, True, ind.i_index, lt, config.i_max,
         "integrity index {value:.4f} below {threshold}"),
        (SignalKind.EXCESSIVE_ANNUAL_OUTPUT, True, ind.max_pubs_year, ge,
         config.pubs_per_year_limit, "{value} papers in a single year (limit {threshold})"),
        (SignalKind.MONOTONE_GROWTH,
         steps and all(b >= a for a, b in steps) and any(b > a for a, b in steps),
         ind.series.pubs[-1], gt, ind.avg_pubs_year,  # the window ends at the last year
         "publication counts non-decreasing over the last {window} years, "
         "ending at {value} (career mean {threshold:.2f})"),
    )
    return [Signal(kind, detail.format(value=value, threshold=threshold, window=len(window)))
            for kind, applies, value, op, threshold, detail in rules
            if applies and op(value, threshold)]


def _indicators(pub_years: list[int], totals: list[int], window: range, column_sums: list[int],
                reported_h: int | None, config: AnalysisConfig
                ) -> tuple[AnnualSeries, float | None, int, float, YearlyStats, list[str]]:
    """The series, r, h, I, yearly stats and notes of ``analyze_profile``, from the columns of
    a researcher's records: publication years, totals, and citations summed per year of ``window``.
    """
    series = _series(pub_years, window, column_sums)
    notes: list[str] = []
    first_pub_year = min(pub_years)
    if series.start_year < first_pub_year:
        notes.append(f"citations recorded before the first publication year ({series.start_year} "
                     f"< {first_pub_year}); series range extended downward")

    r = pearson(series.pubs, series.cites) if len(series) >= 2 else None
    total_pubs = len(pub_years)
    h = computed_h = _h_index(totals)
    if config.prefer_reported_h and reported_h is not None:
        if 0 <= reported_h <= total_pubs:
            if reported_h != computed_h:
                notes.append(f"reported h-index {reported_h} differs from the value computed "
                             f"from records ({computed_h}); using the reported one")
            h = reported_h
        else:
            notes.append(f"reported h-index {reported_h} is impossible for {total_pubs} records; "
                         f"using the computed value {computed_h}")
    return series, r, h, i_index(h, total_pubs), yearly_stats(series), notes


def _analyze_columns(pub_years: list[int], totals: list[int], window: range, column_sums: list[int],
                     reported_h: int | None, config: AnalysisConfig) -> IndicatorSet:
    """The indicator set of ``analyze_profile``, from the columns of ``_indicators``."""
    series, r, h, i, stats, notes = _indicators(pub_years, totals, window, column_sums,
                                                reported_h, config)
    lag: int | None = None
    if r is not None and r > config.r_min:
        effective_max_lag = min(config.max_lag, len(series) - 3)
        if effective_max_lag >= 0:  # lag 0 is r itself, so some lag is defined
            lag = best_lag(series, effective_max_lag).lag

    total_cites = sum(totals)
    ind = IndicatorSet(
        r=r,
        lag=lag,
        h=h,
        i_index=i,
        total_pubs=len(pub_years),
        total_cites=total_cites,
        max_pubs_year=stats.max_pubs,
        min_pubs_year=stats.min_pubs,
        avg_pubs_year=stats.avg_pubs,
        avg_cites_per_paper=total_cites / len(pub_years),
        start_year=series.start_year,
        hcp_count=_hcp_count(pub_years, totals, DEFAULT_HCP_THRESHOLDS),
        series=series,
        warnings=tuple(notes),
    )
    return replace(ind, flags=tuple(flag_profile(ind, config)))


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
    records = profile.records
    return _analyze_columns([rec.pub_year for rec in records], [rec.total_citations for rec in records],
                            *_citation_totals(records), profile.reported_h, config)

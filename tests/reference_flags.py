"""Reference oracle for ``papertrail.indicators.flag_profile``.

This is the version with one hand-written block per signal that the table of
rules replaced, kept verbatim so tests can check that the table emits the
same signals with the same details.
"""

from __future__ import annotations

from papertrail.indicators import (
    ZERO_LAG_MAX,
    AnalysisConfig,
    IndicatorSet,
    Signal,
    SignalKind,
)


def flag_profile(ind: IndicatorSet, config: AnalysisConfig = AnalysisConfig()) -> list[Signal]:
    """Evaluate the behavioral signals for an indicator set.

    HighCorrelation and LowIntegrity use strict inequalities; ZeroLag only
    fires together with HighCorrelation; MonotoneGrowth looks at the
    trailing ``growth_window`` years of the publication counts.
    """
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

    window = ind.series.pubs[-config.growth_window:] if config.growth_window > 0 else ()
    if len(window) >= 2:
        non_decreasing = all(b >= a for a, b in zip(window, window[1:]))
        strict_rise = any(b > a for a, b in zip(window, window[1:]))
        if non_decreasing and strict_rise and window[-1] > ind.avg_pubs_year:
            signals.append(Signal(
                SignalKind.MONOTONE_GROWTH,
                f"publication counts non-decreasing over the last {len(window)} "
                f"years, ending at {window[-1]} (career mean {ind.avg_pubs_year:.2f})",
            ))

    return signals

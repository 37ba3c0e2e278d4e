"""Aligned annual publication/citation time series for one researcher."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EmptyProfileError
from .ingest import ResearcherProfile


@dataclass(frozen=True)
class AnnualSeries:
    """Per-year publication and citation counts over a contiguous year range."""

    start_year: int
    pubs: tuple[int, ...]
    cites: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.pubs) != len(self.cites):
            raise ValueError("pubs and cites must have the same length")
        if not self.pubs:
            raise ValueError("series must cover at least one year")

    def __len__(self) -> int:
        return len(self.pubs)

    @property
    def end_year(self) -> int:
        return self.start_year + len(self.pubs) - 1

    @property
    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)


def build_series(profile: ResearcherProfile) -> AnnualSeries:
    """Aggregate a profile into aligned per-year counts.

    The range starts at the earliest publication year and ends at the latest
    of: the latest publication year, the latest cited year.  Citations
    recorded *before* the first publication year (possible in malformed
    exports) extend the range downward instead of being dropped; callers can
    detect this via start_year < min pub_year.
    """
    if not profile.records:
        raise EmptyProfileError("cannot build a series from a profile with no records")

    pubs = Counter(rec.pub_year for rec in profile.records)
    # one walk over the cited cells; a plain dict adds faster than a Counter
    cites: dict[int, int] = {}
    for rec in profile.records:
        for year, count in rec.citations_by_year.items():
            cites[year] = cites.get(year, 0) + count
    years = pubs.keys() | cites.keys()
    span = range(min(years), max(years) + 1)
    return AnnualSeries(start_year=span.start, pubs=tuple(pubs[y] for y in span),
                        cites=tuple(cites.get(y, 0) for y in span))

"""Aligned annual publication/citation time series for one researcher."""

from __future__ import annotations

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

    first = min(rec.pub_year for rec in profile.records)
    last = max(rec.pub_year for rec in profile.records)
    for rec in profile.records:
        by_year = rec.citations_by_year
        if by_year:
            first = min(first, min(by_year))
            last = max(last, max(by_year))

    n = last - first + 1
    pubs = [0] * n
    cites = [0] * n
    for rec in profile.records:
        pubs[rec.pub_year - first] += 1
        for year, count in rec.citations_by_year.items():
            cites[year - first] += count
    return AnnualSeries(start_year=first, pubs=tuple(pubs), cites=tuple(cites))


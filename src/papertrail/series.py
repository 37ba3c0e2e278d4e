"""Aligned annual publication/citation time series for one researcher."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress

from .ingest import ResearcherProfile, _citation_totals


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


def _series(pub_years: list[int], window: range, column_sums: list[int]) -> AnnualSeries:
    """The series of records published in ``pub_years`` and cited ``column_sums`` times in
    the years of ``window``."""
    pubs = Counter(pub_years)
    cites = dict(compress(zip(window, column_sums), column_sums))  # kept where nonzero
    years = pubs.keys() | cites.keys()
    span = range(min(years), max(years) + 1)
    # a tuple made from a list is allocated at its final length, so it reuses a freed tuple of
    # that length; tuple(generator) starts at 10 items and grows, so each result would add one to
    # CPython's free list for its length (up to 2,000 tuples each) until a full garbage
    # collection, which reading a report into columns makes too little garbage to trigger
    return AnnualSeries(start_year=span.start, pubs=tuple([pubs[y] for y in span]),
                        cites=tuple([cites.get(y, 0) for y in span]))


def build_series(profile: ResearcherProfile) -> AnnualSeries:
    """Aggregate a profile into aligned per-year counts.

    The range starts at the earliest publication year and ends at the latest
    of: the latest publication year, the latest cited year.  Citations
    recorded *before* the first publication year (possible in malformed
    exports) extend the range downward instead of being dropped; callers can
    detect this via start_year < min pub_year.  Raises EmptyProfileError if there are no records.
    """
    return _series([rec.pub_year for rec in profile.records], *_citation_totals(profile.records))

"""Reference oracle for ``papertrail.ingest.parse_report``.

This is the cell-by-cell record parser that the one-step count conversion
in ``parse_report`` replaced, kept so tests can check that the fast path
returns the same profiles and raises the same errors.  The helpers that
did not change (decoding, row splitting) are shared with the package.  The
header's year columns are parsed as before the package bounded them to
MIN_YEAR..MAX_YEAR; that bound is the one difference the tests allow.
A count (a total, a year cell or the h-index) above MAX_COUNT is refused
with the package's message, as README documents the bound.
"""

from __future__ import annotations

from papertrail.errors import EmptyProfileError, MalformedHeaderError, MalformedRowError
from papertrail.ingest import (
    _HEADER_PREFIX,
    MAX_COUNT,
    MAX_YEAR,
    META_H_INDEX,
    META_ID,
    META_RESEARCHER,
    MIN_YEAR,
    PublicationRecord,
    ReportFormat,
    ResearcherProfile,
    _decode,
    _lines,
    _split,
)


def _parse_year_columns(cells: list[str]) -> list[int]:
    years: list[int] = []
    for cell in cells:
        try:
            years.append(int(cell.strip()))
        except ValueError:
            raise MalformedHeaderError(f"year column {cell!r} is not an integer") from None
    for prev, cur in zip(years, years[1:]):
        if cur != prev + 1:
            raise MalformedHeaderError(
                f"year columns must be contiguous ascending; found {prev} followed by {cur}"
            )
    return years


def _parse_count(cell: str, what: str, row_no: int, error=MalformedRowError) -> int:
    try:
        value = int(cell.strip())
    except ValueError:
        raise error(f"row {row_no}: {what} {cell!r} is not an integer") from None
    if value < 0:
        raise error(f"row {row_no}: {what} must be non-negative, got {value}")
    if value > MAX_COUNT:
        raise error(f"row {row_no}: {what} is above {MAX_COUNT} ({len(str(value))} digits)")
    return value


def parse_report(
    data: bytes,
    fmt: ReportFormat = ReportFormat.TSV,
    default_name: str = "unknown",
    parse_year_columns=_parse_year_columns,
) -> ResearcherProfile:
    """Parse a canonical citation report into a ResearcherProfile.

    ``default_name`` (typically the source file stem) is used when the file
    carries no ``# researcher`` metadata line.  Record order is preserved.
    ``parse_year_columns`` parses the header's year cells; a test may pass
    one that stops the parse at the header.

    Raises EncodingError, MalformedHeaderError, MalformedRowError or
    EmptyProfileError; any byte input lands in exactly one of those or in
    a valid profile.
    """
    text = _decode(data)
    name: str | None = None
    source_id: str | None = None
    reported_h: int | None = None
    year_cols: list[int] | None = None
    records: list[PublicationRecord] = []
    parse_warnings: list[str] = []

    for row_no, cells in enumerate(map(_split, _lines(text, fmt)), start=1):
        if not cells or (len(cells) == 1 and cells[0] == ""):
            continue  # blank line

        if year_cols is None:
            key = cells[0]
            if key == _HEADER_PREFIX[0]:
                if tuple(cells[:3]) != _HEADER_PREFIX:
                    raise MalformedHeaderError(
                        f"row {row_no}: header must start with {', '.join(_HEADER_PREFIX)}"
                    )
                year_cols = parse_year_columns(cells[3:])
                continue
            if key == META_RESEARCHER or key == META_ID or key == META_H_INDEX:
                if len(cells) != 2:
                    raise MalformedHeaderError(
                        f"row {row_no}: metadata line {key!r} must have exactly one value"
                    )
                if key == META_RESEARCHER:
                    name = cells[1]
                elif key == META_ID:
                    source_id = cells[1]
                else:
                    reported_h = _parse_count(cells[1], "h-index", row_no, MalformedHeaderError)
                continue
            raise MalformedHeaderError(
                f"row {row_no}: expected metadata or header row, got {key!r}"
            )

        # record row
        expected = 3 + len(year_cols)
        if len(cells) != expected:
            raise MalformedRowError(
                f"row {row_no}: expected {expected} columns, got {len(cells)}"
            )
        title = cells[0]
        try:
            pub_year = int(cells[1].strip())
        except ValueError:
            raise MalformedRowError(
                f"row {row_no}: publication year {cells[1]!r} is not an integer"
            ) from None
        if not MIN_YEAR <= pub_year <= MAX_YEAR:
            raise MalformedRowError(
                f"row {row_no}: publication year {pub_year} outside {MIN_YEAR}..{MAX_YEAR}"
            )
        total = _parse_count(cells[2], "total citations", row_no)
        by_year: dict[int, int] = {}
        for year, cell in zip(year_cols, cells[3:]):
            count = _parse_count(cell, f"citation count for {year}", row_no)
            if count > 0:
                by_year[year] = count
        record = PublicationRecord(
            title=title, pub_year=pub_year, total_citations=total, citations_by_year=by_year
        )
        if record.window_sum != total:
            parse_warnings.append(
                f"record {len(records) + 1} ({title!r}): year columns sum to "
                f"{record.window_sum} but total citations is {total}; "
                "keeping the declared total as authoritative"
            )
        records.append(record)

    if year_cols is None:
        raise MalformedHeaderError("no header row found")
    if not records:
        raise EmptyProfileError("report contains no publication records")

    final_name = name if name else default_name
    if not final_name:
        final_name = "unknown"
    return ResearcherProfile(
        name=final_name,
        source_id=source_id,
        reported_h=reported_h,
        records=records,
        warnings=parse_warnings,
    )

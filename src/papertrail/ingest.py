"""Parsing and serialization of canonical citation-report files.

The canonical format is a text table, one row per indexed publication,
preceded by optional ``# key<sep>value`` metadata rows and a mandatory
header row.  Tab-separated is the primary flavor; a comma-separated
variant with RFC-4180 quoting is accepted and produced as well.

Layout (TSV shown; CSV is identical with comma delimiter + quoting)::

    # researcher<TAB><name>            (optional)
    # id<TAB><identifier>              (optional)
    # h-index<TAB><integer>            (optional)
    Title<TAB>Publication Year<TAB>Total Citations<TAB><Y1>...<TAB><Yk>
    <title><TAB><year><TAB><int><TAB><int>...<TAB><int>

Year columns Y1..Yk must be contiguous ascending calendar years within
MIN_YEAR..MAX_YEAR (1900..2100), so every cited year lies there too.  The
declared total-citations value is kept as authoritative even when it
disagrees with the sum of the year columns (the per-year window of a
real export does not necessarily cover a paper's whole citation
history); such rows are flagged with a warning instead of rejected.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import (
    EmptyProfileError,
    EncodingError,
    MalformedHeaderError,
    MalformedRowError,
    PapertrailError,
)

MIN_YEAR = 1900
MAX_YEAR = 2100
# largest count a cell or record may carry; it keeps the analysis's sums and squares finite floats
MAX_COUNT = 10**12
# an error names a longer cell by its length, and a number of more digits by its digit count,
# also one that int() refuses for its length (over 4,300 digits on Python 3.11, and 3.10.7 on)
_ECHO_LIMIT = 40

META_RESEARCHER = "# researcher"
META_ID = "# id"
META_H_INDEX = "# h-index"

_HEADER_PREFIX = ("Title", "Publication Year", "Total Citations")

# the decimal integers int() reads; each part ends where the next begins, so matching is linear
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def _require_int(value: object, what: str) -> None:
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {type(value).__name__}")


class ReportFormat(str, Enum):
    TSV = "tsv"
    CSV = "csv"


@dataclass
class PublicationRecord:
    """One indexed paper: publication year, totals, per-year citations.

    ``citations_by_year`` is stored in canonical form: zero-count years
    are dropped, so two records compare equal regardless of how many
    explicit zeros their source files carried.
    """

    title: str
    pub_year: int
    total_citations: int
    citations_by_year: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_int(self.pub_year, "publication year")
        _require_int(self.total_citations, "total citations")
        if not MIN_YEAR <= self.pub_year <= MAX_YEAR:
            raise ValueError(f"publication year {self.pub_year} outside {MIN_YEAR}..{MAX_YEAR}")
        if self.total_citations < 0:
            raise ValueError("total citations must be non-negative")
        if self.total_citations > MAX_COUNT:
            raise ValueError(f"total citations must be at most {MAX_COUNT}")
        for year, count in self.citations_by_year.items():
            _require_int(year, "cited year")
            _require_int(count, f"citation count for year {year}")
            if not MIN_YEAR <= year <= MAX_YEAR:
                raise ValueError(f"cited year {year} outside {MIN_YEAR}..{MAX_YEAR}")
            if count < 0:
                raise ValueError(f"negative citation count for year {year}")
            if count > MAX_COUNT:
                raise ValueError(f"citation count for year {year} must be at most {MAX_COUNT}")
        self.citations_by_year = {year: count for year, count in self.citations_by_year.items() if count}

    @classmethod
    def _from_row(cls, title: str, pub_year: int, total_citations: int,
                  years: Iterable[int], counts: Iterable[int]) -> PublicationRecord:
        """Build a record from already validated row fields, without ``__post_init__``.

        The caller guarantees what ``__post_init__`` would check: every field
        is an int, the year lies in MIN_YEAR..MAX_YEAR, the total and ``counts``
        lie in 0..MAX_COUNT, and ``years`` lie in MIN_YEAR..MAX_YEAR.  The
        zero counts are dropped here, as ``__post_init__`` drops them.
        """
        record = cls.__new__(cls)
        record.title = title
        record.pub_year = pub_year
        record.total_citations = total_citations
        record.citations_by_year = {year: count for year, count in zip(years, counts) if count}
        return record

    @property
    def window_sum(self) -> int:
        """Sum of the per-year citation columns (may differ from the total)."""
        return sum(self.citations_by_year.values())


@dataclass
class ResearcherProfile:
    """A named collection of publication records plus optional reported numbers."""

    name: str
    source_id: str | None = None
    reported_h: int | None = None
    records: list[PublicationRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _decode(data: bytes) -> str:
    try:
        # utf-8-sig: tolerate the BOM spreadsheet converters like to prepend
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"input is not valid UTF-8: {exc}") from None


def _rows(text: str, fmt: ReportFormat) -> list[list[str]]:
    if fmt is ReportFormat.TSV:
        # tolerate CRLF endings without letting \r leak into the last cell
        return [line.rstrip("\r").split("\t") for line in text.split("\n")]
    try:
        return list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise MalformedRowError(f"CSV structure error: {exc}") from None


def _int(cell: str, what: str, error: type[PapertrailError], most: int) -> int:
    """Read ``cell`` as ``int(cell.strip())``, or raise ``error`` naming ``what`` and its bound ``most``."""
    text = cell.strip()
    try:
        digits = str(abs(int(text)))
    except ValueError:
        if not _INTEGER.fullmatch(text):
            shown = repr(cell) if len(cell) <= _ECHO_LIMIT else f"({len(cell)} characters)"
            raise error(f"{what} {shown} is not an integer") from None
        digits = text.lstrip("+-0_").replace("_", "") or "0"  # int() refused the length
    negative = text[0] == "-"
    if len(digits) > _ECHO_LIMIT:
        raise error(f"{what} is {'negative' if negative else f'above {most}'} ({len(digits)} digits)")
    return -int(digits) if negative else int(digits)


def _parse_year_columns(cells: list[str]) -> list[int]:
    years = [_int(cell, "year column", MalformedHeaderError, MAX_YEAR) for cell in cells]
    for prev, cur in zip(years, years[1:]):
        if cur != prev + 1:
            raise MalformedHeaderError(
                f"year columns must be contiguous ascending; found {prev} followed by {cur}"
            )
    # every cited year then lies in the range, which bounds the annual series
    if years and not (MIN_YEAR <= years[0] and years[-1] <= MAX_YEAR):
        raise MalformedHeaderError(
            f"year columns {years[0]}..{years[-1]} outside {MIN_YEAR}..{MAX_YEAR}"
        )
    return years


def _parse_count(cell: str, what: str, row_no: int) -> int:
    value = _int(cell, f"row {row_no}: {what}", MalformedRowError, MAX_COUNT)
    if value < 0:
        raise MalformedRowError(f"row {row_no}: {what} must be non-negative, got {value}")
    if value > MAX_COUNT:
        raise MalformedRowError(f"row {row_no}: {what} is above {MAX_COUNT} ({len(str(value))} digits)")
    return value


def _parse_row(cells: list[str], year_cols: list[int], row_no: int) -> list[int]:
    """Convert a record row's cells one by one, raising for the first bad one in column order."""
    pub_year = _int(cells[1], f"row {row_no}: publication year", MalformedRowError, MAX_YEAR)
    if not MIN_YEAR <= pub_year <= MAX_YEAR:
        raise MalformedRowError(f"row {row_no}: publication year {pub_year} outside {MIN_YEAR}..{MAX_YEAR}")
    whats = ["total citations", *(f"citation count for {year}" for year in year_cols)]
    return [pub_year, *(_parse_count(cell, what, row_no) for what, cell in zip(whats, cells[2:]))]


def parse_report(
    data: bytes,
    fmt: ReportFormat = ReportFormat.TSV,
    default_name: str = "unknown",
) -> ResearcherProfile:
    """Parse a canonical citation report into a ResearcherProfile.

    ``default_name`` (typically the source file stem) is used when the file
    carries no ``# researcher`` metadata line.  Record order is preserved.
    Count cells (the total and the year columns) and ``# h-index`` lie in 0..MAX_COUNT.

    Raises EncodingError, MalformedHeaderError, MalformedRowError or
    EmptyProfileError; any byte input lands in exactly one of those or in
    a valid profile.
    """
    text = _decode(data)
    name: str | None = None
    source_id: str | None = None
    reported_h: int | None = None
    rows = ((row_no, cells) for row_no, cells in enumerate(_rows(text, fmt), start=1)
            if cells not in ([], [""]))  # skip blank lines

    for row_no, cells in rows:
        key = cells[0]
        if key == _HEADER_PREFIX[0]:
            if tuple(cells[:3]) != _HEADER_PREFIX:
                raise MalformedHeaderError(
                    f"row {row_no}: header must start with {', '.join(_HEADER_PREFIX)}"
                )
            year_cols = _parse_year_columns(cells[3:])
            break
        if key not in (META_RESEARCHER, META_ID, META_H_INDEX):
            raise MalformedHeaderError(
                f"row {row_no}: expected metadata or header row, got {key!r}"
            )
        if len(cells) != 2:
            raise MalformedHeaderError(
                f"row {row_no}: metadata line {key!r} must have exactly one value"
            )
        if key == META_RESEARCHER:
            name = cells[1]
        elif key == META_ID:
            source_id = cells[1]
        else:
            reported_h = _int(cells[1], f"row {row_no}: h-index", MalformedHeaderError, MAX_COUNT)
            if reported_h < 0:
                raise MalformedHeaderError(f"row {row_no}: h-index must be non-negative")
            if reported_h > MAX_COUNT:
                raise MalformedHeaderError(
                    f"row {row_no}: h-index is above {MAX_COUNT} ({len(str(reported_h))} digits)"
                )
    else:
        raise MalformedHeaderError("no header row found")

    records: list[PublicationRecord] = []
    parse_warnings: list[str] = []
    expected = 3 + len(year_cols)
    for row_no, cells in rows:
        if len(cells) != expected:
            raise MalformedRowError(
                f"row {row_no}: expected {expected} columns, got {len(cells)}"
            )
        title = cells[0]
        # one step and one bound test for the common row (with no negative cell, a sum within
        # MAX_COUNT bounds every count); a row failing either goes cell by cell, which raises for
        # the first bad cell or accepts cells such as "\x1c7" that str.strip() cleans
        try:
            values = list(map(int, cells[1:]))
        except ValueError:
            values = []
        if not (values and MIN_YEAR <= values[0] <= MAX_YEAR and 0 <= min(values) and sum(values) <= MAX_COUNT):
            values = _parse_row(cells, year_cols, row_no)
        pub_year, total, counts = values[0], values[1], values[2:]
        window_sum = sum(counts)
        if window_sum != total:
            parse_warnings.append(
                f"record {len(records) + 1} ({title!r}): year columns sum to "
                f"{window_sum} but total citations is {total}; "
                "keeping the declared total as authoritative"
            )
        records.append(PublicationRecord._from_row(title, pub_year, total, year_cols, counts))

    if not records:
        raise EmptyProfileError("report contains no publication records")

    return ResearcherProfile(
        name=name or default_name or "unknown",
        source_id=source_id,
        reported_h=reported_h,
        records=records,
        warnings=parse_warnings,
    )


# TSV has no quoting; the csv writer leaves a lone CR unquoted, and Python 3.10's reader refuses NUL
_UNSAFE = {ReportFormat.TSV: re.compile(r"[\t\r\n]"), ReportFormat.CSV: re.compile(r"[\r\0]")}


def _field(value: str, fmt: ReportFormat, what: str) -> str:
    """``value`` as written, or ValueError if ``parse_report`` would not read it back."""
    unsafe = _UNSAFE[fmt].search(value)
    if unsafe:
        raise ValueError(f"{what} holds {unsafe[0]!r}, which the {fmt.name} flavor cannot carry")
    if fmt is ReportFormat.CSV and len(value) > csv.field_size_limit():
        raise ValueError(f"{what} is longer than the CSV field limit ({csv.field_size_limit()})")
    return value


def serialize_report(profile: ResearcherProfile, fmt: ReportFormat = ReportFormat.TSV) -> bytes:
    """Render a profile back into canonical bytes.

    The year-column window is the smallest contiguous range covering every
    cited year across all records (empty when nothing was ever cited).
    ``parse_report(serialize_report(p))`` reproduces ``p`` in every field
    except ``warnings``.  A profile it would not reproduce raises ValueError
    naming the field: no records, an empty name, a reported h-index outside
    0..MAX_COUNT, or a title, name or id that the flavor cannot carry.
    """
    if not profile.records:
        raise ValueError("profile has no records; parse_report rejects a report without any")
    if not profile.name:
        raise ValueError("researcher name is empty; parse_report would read the file's name")
    if profile.reported_h is not None and not 0 <= profile.reported_h <= MAX_COUNT:
        raise ValueError(f"reported h-index must lie in 0..{MAX_COUNT}")
    cited = set().union(*(rec.citations_by_year for rec in profile.records))
    year_cols = range(min(cited), max(cited) + 1) if cited else range(0)

    # each row becomes its line at once; the per-row cell strings do not outlive it
    buffer = io.StringIO()
    if fmt is ReportFormat.TSV:
        def write_row(row: list[str]) -> None:
            buffer.write("\t".join(row))
            buffer.write("\n")
    else:
        write_row = csv.writer(buffer, lineterminator="\n").writerow

    write_row([META_RESEARCHER, _field(profile.name, fmt, "researcher name")])
    if profile.source_id is not None:
        write_row([META_ID, _field(profile.source_id, fmt, "researcher id")])
    if profile.reported_h is not None:
        write_row([META_H_INDEX, str(profile.reported_h)])
    write_row([*_HEADER_PREFIX, *map(str, year_cols)])
    # a record row is a template of zero cells with only its cited years filled in
    template = ["", "", ""] + ["0"] * len(year_cols)
    offset = 3 - year_cols.start
    for rec in profile.records:
        row = template.copy()
        row[0] = _field(rec.title, fmt, "record title")
        row[1] = str(rec.pub_year)
        row[2] = str(rec.total_citations)
        for year, count in rec.citations_by_year.items():
            row[year + offset] = str(count)
        write_row(row)
    return buffer.getvalue().encode("utf-8")

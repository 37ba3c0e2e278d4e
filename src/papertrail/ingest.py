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
from itertools import chain, compress, count, islice, repeat
from operator import add, attrgetter, ne
from typing import Iterable, Iterator, Mapping, Sequence

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
# a message names a longer cell or title by its length, and a number of more digits by its digit
# count, also one that int() refuses for its length (over 4,300 digits on Python 3.11, and 3.10.7 on)
_ECHO_LIMIT = 40

META_RESEARCHER = "# researcher"
META_ID = "# id"
META_H_INDEX = "# h-index"

_HEADER_PREFIX = ("Title", "Publication Year", "Total Citations")

# the year window of a record that cites nothing, or of a header without year columns
_NO_YEARS = range(MIN_YEAR, MIN_YEAR)

# the value of each cell text "0".."255" and of each year, read without int(): an import-time
# constant, never changed.  Its values are shared objects (CPython caches the ints to 256), so
# a report's count matrix holds no int object of its own for such cells.
_CELL = {str(n): n for n in chain(range(256), range(MIN_YEAR, MAX_YEAR + 1))}
# its mirror for writing: the text of each count 0..255, an import-time constant as well
_TEXT = tuple(map(str, range(256)))

# the decimal integers int() reads; each part ends where the next begins, so matching is linear
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def _require_int(value: object, what: str) -> None:
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {type(value).__name__}")


class ReportFormat(str, Enum):
    TSV = "tsv"
    CSV = "csv"


class PublicationRecord:
    """One indexed paper: publication year, totals, per-year citations.

    An immutable value: setting or deleting an attribute raises
    AttributeError.  The per-year counts are held as a tuple over the
    record's cited span, from its first to its last cited year (empty if it
    cites nothing); every constructor trims them to that span.
    ``citations_by_year`` is derived from them on each access, in canonical
    form: a new dict in year order with the zero-count years dropped, so two
    records compare equal regardless of how many explicit zeros their source
    files carried.
    """

    __slots__ = ("title", "pub_year", "total_citations", "_years", "_counts")

    def __init__(self, title: str, pub_year: int, total_citations: int,
                 citations_by_year: Mapping[int, int] | None = None) -> None:
        by_year = citations_by_year or {}
        _require_int(pub_year, "publication year")
        _require_int(total_citations, "total citations")
        if not MIN_YEAR <= pub_year <= MAX_YEAR:
            raise ValueError(f"publication year {pub_year} outside {MIN_YEAR}..{MAX_YEAR}")
        if total_citations < 0:
            raise ValueError("total citations must be non-negative")
        if total_citations > MAX_COUNT:
            raise ValueError(f"total citations must be at most {MAX_COUNT}")
        for year, count in by_year.items():
            _require_int(year, "cited year")
            _require_int(count, f"citation count for year {year}")
            if not MIN_YEAR <= year <= MAX_YEAR:
                raise ValueError(f"cited year {year} outside {MIN_YEAR}..{MAX_YEAR}")
            if count < 0:
                raise ValueError(f"negative citation count for year {year}")
            if count > MAX_COUNT:
                raise ValueError(f"citation count for year {year} must be at most {MAX_COUNT}")
        years = range(min(by_year), max(by_year) + 1) if by_year else _NO_YEARS
        _fill(self, title, pub_year, total_citations, years.start,
              [by_year.get(year, 0) for year in years])

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"PublicationRecord is immutable; cannot change {name!r}")

    __delattr__ = __setattr__  # called as (self, name)

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild the record through __init__, as it cannot be filled in place
        return PublicationRecord, (self.title, self.pub_year, self.total_citations,
                                   self.citations_by_year)

    @property
    def citations_by_year(self) -> dict[int, int]:
        """Citations per cited year, in year order, without zero-count years; a new dict on each access."""
        return dict(compress(zip(self._years, self._counts), self._counts))

    @property
    def window_sum(self) -> int:
        """Sum of the per-year citation columns (may differ from the total)."""
        return sum(self._counts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.title, self.pub_year, self.total_citations, self.citations_by_year)
                == (other.title, other.pub_year, other.total_citations, other.citations_by_year))

    def __repr__(self) -> str:
        return (f"PublicationRecord(title={self.title!r}, pub_year={self.pub_year!r}, "
                f"total_citations={self.total_citations!r}, "
                f"citations_by_year={self.citations_by_year!r})")


def _trim(start: int, counts: Sequence[int]) -> tuple[range, Sequence[int]]:
    """The span from the first to the last nonzero of ``counts``, one per year from ``start`` on,
    and the counts over it; ``_NO_YEARS`` and no counts if none is nonzero."""
    lo, hi = 0, len(counts)
    while lo < hi and not counts[lo]:
        lo += 1
    while hi > lo and not counts[hi - 1]:
        hi -= 1
    return range(start + lo, start + hi) if lo < hi else _NO_YEARS, counts[lo:hi]


def _fill(record: PublicationRecord, title: str, pub_year: int, total_citations: int,
          start: int, counts: Sequence[int]) -> PublicationRecord:
    """Set the fields of the new ``record``, whose ``counts`` run from year ``start`` on, trimmed to
    its cited span; returns it."""
    years, counts = _trim(start, counts)
    for name, value in zip(PublicationRecord.__slots__,
                           (title, pub_year, total_citations, years, tuple(counts))):
        object.__setattr__(record, name, value)
    return record


def _record(title: str, pub_year: int, total_citations: int, years: range,
            counts: Sequence[int]) -> PublicationRecord:
    """The record of a row with one count per year of ``years``, which the caller (``parse_report``
    or ``synth``) has checked as ``__init__`` checks its fields: ints, each within its bounds."""
    return _fill(PublicationRecord.__new__(PublicationRecord), title, pub_year, total_citations,
                 years.start, counts)


def _citation_totals(records: list[PublicationRecord]) -> tuple[range, list[int]]:
    """The window MIN_YEAR..MAX_YEAR and the citations of ``records`` in each of its years;
    raises EmptyProfileError for no records."""
    if not records:
        raise EmptyProfileError("cannot build a series from a profile with no records")
    window = range(MIN_YEAR, MAX_YEAR + 1)
    totals = [0] * len(window)
    for rec in records:
        start = rec._years.start - MIN_YEAR
        end = start + len(rec._years)
        totals[start:end] = map(add, totals[start:end], rec._counts)
    return window, totals


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


def _lines(text: str, fmt: ReportFormat) -> list[str] | list[list[str]]:
    """The report's lines: a TSV line as its text without the carriage returns that end it (a
    CRLF ending's), a CSV line as its cells.  A blank line, which every reader skips, is the
    one kind of false line: "" in TSV, [] in CSV (for a line with no cell or one empty cell)."""
    if fmt is ReportFormat.TSV:
        lines = text.split("\n")
        # a plain LF report has no carriage return, and its lines are kept as split
        return list(map(str.rstrip, lines, repeat("\r"))) if "\r" in text else lines
    try:
        lines = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise MalformedRowError(f"CSV structure error: {exc}") from None
    return [line if line != [""] else [] for line in lines] if [""] in lines else lines


def _split(line: str | list[str]) -> list[str]:
    """The cells of one of ``_lines``."""
    return line.split("\t") if isinstance(line, str) else line


def _numbered(lines: Iterable[str] | Iterable[list[str]], start: int) -> Iterator[tuple[int, list[str]]]:
    """The cells of each nonblank one of ``_lines``, with its row number; the first line is row ``start``."""
    return ((row_no, _split(line)) for row_no, line in enumerate(lines, start) if line)


def _echo(cell: str, limit: int = _ECHO_LIMIT) -> str:
    """``cell`` as a message shows it: quoted, or named by its length if the quotes would hold
    more than ``limit`` characters (an escape such as ``\\x1c`` counts as its four)."""
    shown = repr(cell)
    return shown if len(shown) <= limit + 2 else f"({len(cell)} characters)"


def _int(cell: str, what: str, error: type[PapertrailError], most: int) -> int:
    """Read ``cell`` as ``int(cell.strip())``, or raise ``error`` naming ``what`` and its bound ``most``."""
    text = cell.strip()
    try:
        digits = str(abs(int(text)))
    except ValueError:
        if not _INTEGER.fullmatch(text):
            raise error(f"{what} {_echo(cell)} is not an integer") from None
        digits = text.lstrip("+-0_").replace("_", "") or "0"  # int() refused the length
    negative = text[0] == "-"
    if len(digits) > _ECHO_LIMIT:
        raise error(f"{what} is {'negative' if negative else f'above {most}'} ({len(digits)} digits)")
    return -int(digits) if negative else int(digits)


def _parse_year_columns(cells: list[str]) -> range:
    try:
        years = list(map(_CELL.__getitem__, cells))  # each year MIN_YEAR..MAX_YEAR is a key
    except KeyError:
        years = [_int(cell, "year column", MalformedHeaderError, MAX_YEAR) for cell in cells]
    for prev, cur in zip(years, years[1:]):
        if cur != prev + 1:
            raise MalformedHeaderError(
                f"year columns must be contiguous ascending; found {prev} followed by {cur}"
            )
    if not years:
        return _NO_YEARS
    # every cited year then lies in the range, which bounds the annual series
    if not (MIN_YEAR <= years[0] and years[-1] <= MAX_YEAR):
        raise MalformedHeaderError(
            f"year columns {years[0]}..{years[-1]} outside {MIN_YEAR}..{MAX_YEAR}"
        )
    return range(years[0], years[-1] + 1)


def _parse_count(cell: str, what: str, row_no: int) -> int:
    value = _int(cell, f"row {row_no}: {what}", MalformedRowError, MAX_COUNT)
    if value < 0:
        raise MalformedRowError(f"row {row_no}: {what} must be non-negative, got {value}")
    if value > MAX_COUNT:
        raise MalformedRowError(f"row {row_no}: {what} is above {MAX_COUNT} ({len(str(value))} digits)")
    return value


def _parse_row(cells: list[str], year_cols: range, row_no: int) -> list[int]:
    """Convert a record row's cells one by one, raising for the first bad one in column order."""
    pub_year = _int(cells[1], f"row {row_no}: publication year", MalformedRowError, MAX_YEAR)
    if not MIN_YEAR <= pub_year <= MAX_YEAR:
        raise MalformedRowError(f"row {row_no}: publication year {pub_year} outside {MIN_YEAR}..{MAX_YEAR}")
    whats = ["total citations", *(f"citation count for {year}" for year in year_cols)]
    return [pub_year, *(_parse_count(cell, what, row_no) for what, cell in zip(whats, cells[2:]))]


def _read_block(lines: list[str] | list[list[str]], fmt: ReportFormat,
                columns: int) -> tuple[list[str], list[int], int] | None:
    """The titles and the numeric cells, row by row, of the clean rows that open a record block,
    and the index in ``lines`` of the first line left to ``_read_rows``; or None to leave it all.

    ``lines`` follow the header, which has ``columns`` cells.  They are read
    in one pass: one split, one tab count per line, one conversion of every
    numeric cell and one bound test per kind of cell; blank lines, the false
    ones, are skipped as ``_numbered`` skips them.  The pass stops at the
    first line with a wrong cell count or a cell that ``int()`` refuses.
    ``_read_rows`` reads the rest: it raises for the first bad row, or
    accepts what only ``str.strip()`` cleans, such as "\x1c7".  The index is
    ``len(lines)`` if the pass reads every line.  It is None if the pass
    keeps no row, or if a kept publication year lies outside MIN_YEAR..MAX_YEAR
    or a kept count outside 0..MAX_COUNT.
    """
    rows = list(filter(None, lines))  # blank lines
    if fmt is ReportFormat.TSV:
        widths, width = list(map(str.count, rows, repeat("\t"))), columns - 1
    else:
        widths, width = list(map(len, rows)), columns
    kept = widths.count(width)
    if kept != len(rows):  # the rows before the first line with a wrong cell count
        kept = list(map(ne, widths, repeat(width))).index(True)
    if not kept:
        return None
    block = rows[:kept]
    cells = "\t".join(block).split("\t") if fmt is ReportFormat.TSV else list(chain.from_iterable(block))
    titles = cells[0::columns]
    del cells[0::columns]
    values: list[int] = []
    try:
        values.extend(map(_CELL.__getitem__, cells))  # all within 0..MAX_COUNT
    except KeyError:
        looked_up = len(values)
        try:
            values.extend(map(int, islice(cells, looked_up, None)))
        except ValueError:  # extend kept the cells before the first one int() refuses
            kept = len(values) // (columns - 1)
            if not kept:
                return None
            del titles[kept:]
            del values[kept * (columns - 1):]
        read = values[looked_up:]
        if read and not (0 <= min(read) and max(read) <= MAX_COUNT):
            return None
    pub_years = values[0::columns - 1]
    if not (MIN_YEAR <= min(pub_years) and max(pub_years) <= MAX_YEAR):
        return None
    if kept == len(rows):
        return titles, values, len(lines)
    # the index in ``lines`` of the first row not kept, blank lines counted
    return titles, values, next(islice(compress(count(), lines), kept, None))


def _read_rows(rows: Iterator[tuple[int, list[str]]], year_cols: range) -> tuple[list[str], list[int]]:
    """The titles and the numeric cells, row by row, of numbered record rows read one at a time.

    Raises MalformedRowError for the first row with a wrong column count or a bad cell.
    """
    titles: list[str] = []
    values: list[int] = []
    expected = 3 + len(year_cols)
    for row_no, cells in rows:
        if len(cells) != expected:
            raise MalformedRowError(
                f"row {row_no}: expected {expected} columns, got {len(cells)}"
            )
        # _read_block leaves the rows from the first one it cannot read on, so most rows here are
        # clean: one step and one bound test for such a row (with no negative cell, a sum within
        # MAX_COUNT bounds every count); a row failing either goes cell by cell, which raises for
        # the first bad cell or accepts cells such as "\x1c7" that str.strip() cleans
        try:
            row = list(map(int, cells[1:]))
        except ValueError:
            row = []
        if not (row and MIN_YEAR <= row[0] <= MAX_YEAR and 0 <= min(row) and sum(row) <= MAX_COUNT):
            row = _parse_row(cells, year_cols, row_no)
        titles.append(cells[0])
        values += row
    return titles, values


def _mismatch_warnings(titles: list[str], totals: list[int], rows: Iterable[Sequence[int]]) -> list[str]:
    """A warning for each record whose row of year counts in ``rows`` does not sum to its total."""
    window_sums = list(map(sum, rows))
    return [f"record {i + 1} ({_echo(titles[i])}): year columns sum to {window_sums[i]} but total "
            f"citations is {totals[i]}; keeping the declared total as authoritative"
            for i in compress(range(len(titles)), map(ne, window_sums, totals))]


def _read_report(data: bytes, fmt: ReportFormat, default_name: str) -> tuple[
        str, str | None, int | None, list[str], list[int], list[int], range, list[int],
        Iterator[tuple[int, ...]]]:
    """A report as columns: name, id, reported h-index, titles, publication years, totals,
    year window, the citations in each year of the window, and a lazy, read-once iterator of
    each record's counts over the window (one empty row each if there are no year columns).

    Raises what ``parse_report`` raises, for the same bytes.
    """
    text = _decode(data)
    name: str | None = None
    source_id: str | None = None
    reported_h: int | None = None
    lines = _lines(text, fmt)
    rows = _numbered(lines, 1)

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
                f"row {row_no}: expected metadata or header row, got {_echo(key)}"
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

    # the lines after the header (row_no counts from 1): the clean rows that open them in one
    # pass, and the rows from the first other one on one by one
    block = lines[row_no:]
    titles, values, rest = _read_block(block, fmt, 3 + len(year_cols)) or ([], [], 0)
    if rest < len(block):
        more_titles, more_values = _read_rows(_numbered(block[rest:], row_no + rest + 1), year_cols)
        titles += more_titles
        values += more_values
    if not titles:
        raise EmptyProfileError("report contains no publication records")

    # ``values`` holds each row's publication year, total and counts; taking out the first two
    # columns leaves the count matrix, one row per record
    width = len(year_cols)
    pub_years, totals = values[0::width + 2], values[1::width + 2]
    del values[0::width + 2]
    del values[0::width + 1]
    column_sums = [sum(values[column::width]) for column in range(width)]
    rows = zip(*[iter(values)] * width) if width else repeat((), len(titles))
    return (name or default_name or "unknown", source_id, reported_h, titles, pub_years, totals,
            year_cols, column_sums, rows)


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
    name, source_id, reported_h, titles, pub_years, totals, years, _, rows = _read_report(
        data, fmt, default_name)
    records = list(map(_record, titles, pub_years, totals, repeat(years), rows))
    return ResearcherProfile(name, source_id, reported_h, records,
                             _mismatch_warnings(titles, totals, map(attrgetter("_counts"), records)))


# TSV has no quoting; the csv writer leaves a lone CR unquoted, and Python 3.10's reader refuses NUL;
# neither flavor carries a surrogate, which UTF-8 cannot encode
_UNSAFE = {ReportFormat.TSV: re.compile(r"[\t\r\n\ud800-\udfff]"),
           ReportFormat.CSV: re.compile(r"[\r\0\ud800-\udfff]")}


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

    The year-column window is the union of the records' cited spans: the
    smallest contiguous range covering every cited year across all records
    (empty when nothing was ever cited), which each record row fills with
    zeros outside its span.  ``parse_report(serialize_report(p))`` reproduces
    ``p`` in every field except ``warnings``.  A profile it would not reproduce raises
    ValueError naming the field: no records, an empty name, a reported
    h-index outside 0..MAX_COUNT, or a title, name or id that the flavor
    cannot carry (a surrogate in any flavor).
    """
    records = profile.records
    if not records:
        raise ValueError("profile has no records; parse_report rejects a report without any")
    if not profile.name:
        raise ValueError("researcher name is empty; parse_report would read the file's name")
    if profile.reported_h is not None and not 0 <= profile.reported_h <= MAX_COUNT:
        raise ValueError(f"reported h-index must lie in 0..{MAX_COUNT}")
    _field(profile.name, fmt, "researcher name")
    if profile.source_id is not None:
        _field(profile.source_id, fmt, "researcher id")
    for rec in records:
        _field(rec.title, fmt, "record title")
    return _write_report(fmt, profile.name, profile.source_id, profile.reported_h, list(map(
        attrgetter("title", "pub_year", "total_citations", "_years", "_counts"), records)))


def _write_report(fmt: ReportFormat, name: str, source_id: str | None, reported_h: int | None,
                  rows: list[tuple[str, int, int, range, Sequence[int]]]) -> bytes:
    """A report's bytes: the metadata, a header over the year window and one line per row.

    A row is ``(title, pub_year, total, years, counts)``, with one count for
    each year of ``years``.  The window is the union of the rows' nonempty
    ``years``, the smallest range holding each; it is empty if every row's is.
    The caller guarantees what ``serialize_report`` checks: every text is one
    the flavor can carry.
    """
    spans = [row[3] for row in rows if row[3]]
    window = range(min(s.start for s in spans), max(s.stop for s in spans)) if spans else _NO_YEARS
    # the text is encoded as it is written, into a buffer whose bytes getvalue() hands over uncopied
    data = io.BytesIO()
    buffer = io.TextIOWrapper(data, encoding="utf-8", newline="\n")
    if fmt is ReportFormat.TSV:
        def write_row(row: list[str]) -> None:
            buffer.write("\t".join(row))
            buffer.write("\n")
    else:
        write_row = csv.writer(buffer, lineterminator="\n").writerow

    write_row([META_RESEARCHER, name])
    if source_id is not None:
        write_row([META_ID, source_id])
    if reported_h is not None:
        write_row([META_H_INDEX, str(reported_h)])
    write_row([*_HEADER_PREFIX, *map(str, window)])
    # a row is its cells within the window between two runs of zero cells, cut from one string of
    # TSV zeros or one list of CSV ones; each row becomes its line at once
    lo, hi = window.start, window.stop
    tsv = fmt is ReportFormat.TSV
    zeros = "\t0" * (hi - lo) if tsv else ["0"] * (hi - lo)
    step = 2 if tsv else 1  # the length of one zero cell in ``zeros``
    write, text = buffer.write, _TEXT.__getitem__
    for title, pub_year, total, years, counts in rows:
        start, stop = (years.start, years.stop) if years else (hi, hi)  # no years: all zeros
        try:
            texts = list(map(text, counts))
        except IndexError:  # a count above 255
            texts = list(map(str, counts))
        before, after = zeros[:step * (start - lo)], zeros[step * (stop - lo):]
        if tsv:
            cited = "\t" + "\t".join(texts) if texts else ""
            write(f"{title}\t{pub_year}\t{total}{before}{cited}{after}\n")
        else:
            write_row([title, str(pub_year), str(total), *before, *texts, *after])
    buffer.flush()
    return data.getvalue()

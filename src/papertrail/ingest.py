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

import io
import re
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import add, attrgetter, itemgetter, ne
from typing import BinaryIO, Callable, Iterable, Mapping, NoReturn, Sequence

from .config import _ECHO_LIMIT, _check_range, _check_type
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

META_RESEARCHER = "# researcher"
META_ID = "# id"
META_H_INDEX = "# h-index"

_HEADER_PREFIX = ("Title", "Publication Year", "Total Citations")

# the year window of a record that cites nothing, or of a header without year columns
_NO_YEARS = range(MIN_YEAR, MIN_YEAR)

# the value of each cell text "0".."255" and of each year, read without int(): an import-time
# constant, never changed.  Its values are shared objects (CPython caches the ints to 256), so
# looking such a cell up makes no int object.
_CELL = {str(n): n for n in chain(range(256), range(MIN_YEAR, MAX_YEAR + 1))}
# its mirror for writing: the text of each count 0..255, an import-time constant as well.  A dict,
# as its bound ``__getitem__`` is a builtin method, faster to call than a tuple's method-wrapper
_TEXT = {n: str(n) for n in range(256)}
# the most numeric cells _read_chunk looks up in one itemgetter call, which holds two tuples of
# them: _read_report reads the record block in chunks of as many whole rows as fit
_BULK_CELLS = 65_536

# the decimal integers int() reads; each part ends where the next begins, so matching is linear.
# Like _UNSAFE, a pattern string: ``re`` compiles it on first use, not at import
_INTEGER = r"[+-]?\d+(?:_\d+)*"
_LONG = 10**_ECHO_LIMIT  # the least magnitude of over _ECHO_LIMIT digits: a message counts them


class ReportFormat(str, Enum):
    TSV = "tsv"
    CSV = "csv"


class PublicationRecord:
    """One indexed paper: publication year, totals, per-year citations.

    An immutable value: setting or deleting an attribute raises
    AttributeError.  The per-year counts are held as a tuple over the
    record's cited span, from its first to its last cited year (empty if it
    cites nothing); every constructor trims them to that span, so two records
    compare equal by their stored fields regardless of how many explicit
    zeros their source files carried.  ``citations_by_year`` is derived from
    them on each access: a new dict in year order with the zero-count years
    dropped.
    """

    __slots__ = ("title", "pub_year", "total_citations", "_years", "_counts")

    def __init__(self, title: str, pub_year: int, total_citations: int,
                 citations_by_year: Mapping[int, int] | None = None) -> None:
        by_year = citations_by_year or {}
        _check_type(title, "str", "title")
        _check_type(pub_year, "int", "publication year")
        _check_type(total_citations, "int", "total citations")
        _check_range(pub_year, MIN_YEAR, MAX_YEAR, "publication year")
        _check_range(total_citations, 0, MAX_COUNT, "total citations")
        for year, count in by_year.items():
            _check_type(year, "int", "cited year")
            _check_range(year, MIN_YEAR, MAX_YEAR, "cited year")
            what = f"citation count for year {year}"
            _check_type(count, "int", what)
            _check_range(count, 0, MAX_COUNT, what)
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
        return ((self.title, self.pub_year, self.total_citations, self._years, self._counts)
                == (other.title, other.pub_year, other.total_citations, other._years, other._counts))

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
    import csv

    try:
        lines = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise MalformedRowError(f"CSV structure error: {exc}") from None
    return [line if line != [""] else [] for line in lines] if [""] in lines else lines


def _split(line: str | list[str]) -> list[str]:
    """The cells of one of ``_lines``."""
    return line.split("\t") if isinstance(line, str) else line


def _echo(cell: str, limit: int = _ECHO_LIMIT) -> str:
    """``cell`` as a message shows it: quoted, or named by its length if the quotes would hold
    more than ``limit`` characters (an escape such as ``\\x1c`` counts as its four)."""
    shown = repr(cell)
    return shown if len(shown) <= limit + 2 else f"({len(cell)} characters)"


def _int(cell: str, what: str, error: type[PapertrailError], most: int, row_no: int | None = None) -> int:
    """Read ``cell`` as ``int(cell.strip())``, or raise ``error`` naming ``what``, row ``row_no`` and bound ``most``."""
    text = cell.strip()
    try:  # an accepted cell is converted once; digits are counted, and messages built, only to raise
        if -_LONG < (value := int(text)) < _LONG:
            return value
        digits = str(abs(value))
    except ValueError:
        if not re.fullmatch(_INTEGER, text):
            raise error(f"{'' if row_no is None else f'row {row_no}: '}{what} {_echo(cell)} is not an integer") from None
        digits = text.lstrip("+-0_").replace("_", "") or "0"  # int() refused the length
    negative = text[0] == "-"
    if len(digits) > _ECHO_LIMIT:
        raise error(f"{'' if row_no is None else f'row {row_no}: '}{what} is "
                    f"{'negative' if negative else f'above {most}'} ({len(digits)} digits)")
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


def _parse_count(cell: str, what: str, row_no: int, error: type[PapertrailError]) -> int:
    """Read ``cell`` as a count in 0..MAX_COUNT, or raise ``error`` naming ``what`` on row ``row_no``."""
    value = _int(cell, what, error, MAX_COUNT, row_no)
    if 0 <= value <= MAX_COUNT:
        return value
    if value < 0:
        raise error(f"row {row_no}: {what} must be non-negative, got {value}")
    raise error(f"row {row_no}: {what} is above {MAX_COUNT} ({len(str(value))} digits)")


def _read_chunk(lines: list[str] | list[list[str]], fmt: ReportFormat, year_cols: range,
                first_row: int) -> tuple[list[str], Sequence[int]]:
    """The titles and the numeric cells, row by row, of the record rows in ``lines``, a chunk of
    at most ``_BULK_CELLS`` numeric cells whose first line is row ``first_row``, under a header
    with the year columns ``year_cols``.

    The chunk is read in one pass: one split, one tab count per line, one
    ``itemgetter`` lookup of every numeric cell in ``_CELL`` and one bound
    test per kind of cell; blank lines, the false ones, are skipped.  At a
    cell the table lacks, the chunk is looked up cell by cell up to that
    cell, and ``int()`` converts the rest.  A cell that ``int()`` refuses is
    read by ``_int``, which also takes what only ``str.strip()`` cleans, such
    as "\x1c7", and ``int()`` goes on from the next cell.  So the pass keeps
    exactly the rows that the row rules accept: the first line with a wrong
    cell count, a cell that ``_int`` refuses, or a publication year outside
    MIN_YEAR..MAX_YEAR or a count outside 0..MAX_COUNT has a fault, and
    ``_row_error`` raises it.
    """
    rows = list(filter(None, lines))  # blank lines
    if not rows:
        return [], ()
    numeric = len(year_cols) + 2  # a row's publication year, its total and one count per year
    if fmt is ReportFormat.TSV:
        widths, width = list(map(str.count, rows, repeat("\t"))), numeric
    else:
        widths, width = list(map(len, rows)), numeric + 1
    kept = widths.count(width)
    if kept != len(rows):  # the rows before the first line with a wrong cell count
        kept = list(map(ne, widths, repeat(width))).index(True)
    cells = "\t".join(rows[:kept]).split("\t") if fmt is ReportFormat.TSV else list(chain.from_iterable(rows[:kept]))
    titles = cells[0::numeric + 1]
    del cells[0::numeric + 1]
    try:  # each row has two or more numeric cells, so the call returns a tuple; no cell: no row kept
        values = itemgetter(*cells)(_CELL) if cells else ()  # all within 0..MAX_COUNT
    except KeyError:  # a cell the table lacks: cell by cell up to that cell, int() for the rest
        values = []
        with suppress(KeyError):
            values.extend(map(_CELL.__getitem__, cells))
        looked_up = len(values)
        rest = islice(cells, looked_up, None)
        with suppress(MalformedRowError):  # _int refuses the cell: the pass keeps the rows before it
            while len(values) < len(cells):
                try:  # extend keeps the cells before the first one int() refuses
                    values.extend(map(int, rest))
                except ValueError:  # ``rest`` has passed that cell
                    values.append(_int(cells[len(values)], "cell", MalformedRowError, MAX_COUNT))
        kept = len(values) // numeric
        read = values[looked_up:kept * numeric]
        if read and not (0 <= min(read) and max(read) <= MAX_COUNT):  # keep the rows before the first
            kept = (looked_up + next(i for i, v in enumerate(read) if not 0 <= v <= MAX_COUNT)) // numeric
    pub_years = values[:kept * numeric:numeric]
    if pub_years and not (MIN_YEAR <= min(pub_years) and max(pub_years) <= MAX_YEAR):
        kept = next(i for i, year in enumerate(pub_years) if not MIN_YEAR <= year <= MAX_YEAR)
    if kept < len(rows):  # the row's index in ``lines``, blank lines counted, gives its number
        row_no, row = first_row + next(islice(compress(count(), lines), kept, None)), _split(rows[kept])
        # the error's traceback holds this frame while the caller handles it (cohort then reads the
        # next report): the chunk's cells are freed first, which keeps cohort's peak RSS as it was
        del cells, titles, values
        _row_error(row_no, row, year_cols)
    return titles, values


def _row_error(row_no: int, cells: list[str], year_cols: range) -> NoReturn:
    """Raise MalformedRowError for the first fault of row ``row_no``, read cell by cell: a wrong
    cell count, a publication year or count that ``_int`` refuses, a publication year outside
    MIN_YEAR..MAX_YEAR or a count outside 0..MAX_COUNT.  ``_read_chunk`` calls it only for a row
    it does not keep, which has a fault."""
    expected = 3 + len(year_cols)
    if len(cells) != expected:
        raise MalformedRowError(f"row {row_no}: expected {expected} columns, got {len(cells)}")
    pub_year = _int(cells[1], "publication year", MalformedRowError, MAX_YEAR, row_no)
    if not MIN_YEAR <= pub_year <= MAX_YEAR:
        raise MalformedRowError(f"row {row_no}: publication year {pub_year} outside {MIN_YEAR}..{MAX_YEAR}")
    _parse_count(cells[2], "total citations", row_no, MalformedRowError)
    for year, cell in zip(year_cols, cells[3:]):
        _parse_count(cell, f"citation count for {year}", row_no, MalformedRowError)
    raise AssertionError(f"row {row_no} has no fault")


def _mismatch_warnings(titles: list[str], totals: list[int], window_sums: list[int]) -> list[str]:
    """A warning for each record whose entry of ``window_sums``, the sum of its year counts,
    differs from its total."""
    return [f"record {i + 1} ({_echo(titles[i])}): year columns sum to {window_sums[i]} but total "
            f"citations is {totals[i]}; keeping the declared total as authoritative"
            for i in compress(range(len(titles)), map(ne, window_sums, totals))]


def _read_report(data: bytes, fmt: ReportFormat, default_name: str,
                 per_row: Callable[[tuple[int, ...]], object] | None = None) -> tuple[
        str, str | None, int | None, list[str], list[int], list[int], range, list[int],
        list | None]:
    """A report as columns: name, id, reported h-index, titles, publication years, totals,
    year window, the citations in each year of the window, and ``per_row`` of each record's
    counts over the window as a tuple (empty without year columns), or None without ``per_row``.

    The lines after the header are read in chunks of at most ``_BULK_CELLS`` numeric cells, each
    by ``_read_chunk``, which reads each row once and raises for the first one with a fault; the
    chunk's columns, sums and ``per_row`` values are kept before the next chunk is split.  So only
    one chunk's cells are held at once; ``cohort`` passes no ``per_row``, ``analyze`` passes ``sum``.

    Raises what ``parse_report`` raises, for the same bytes.
    """
    name: str | None = None
    source_id: str | None = None
    reported_h: int | None = None
    lines = _lines(_decode(data), fmt)  # the decoded text is freed once split
    rows = ((row_no, _split(line)) for row_no, line in enumerate(lines, 1) if line)  # nonblank

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
            reported_h = _parse_count(cells[1], "h-index", row_no, MalformedHeaderError)
    else:
        raise MalformedHeaderError("no header row found")

    # a row's numeric cells are its publication year, its total and one count per year column
    numeric = len(year_cols) + 2
    step = _BULK_CELLS // numeric  # the lines of a chunk
    titles: list[str] = []
    pub_years: list[int] = []
    totals: list[int] = []
    column_sums = [0] * len(year_cols)
    per_rows = [] if per_row else None
    # lines[start] is row start + 1, so the first chunk starts on the line after the header
    for start in range(row_no, len(lines), step):
        chunk_titles, values = _read_chunk(lines[start:start + step], fmt, year_cols, start + 1)
        # ``values`` holds each row's numeric cells, row after row
        titles += chunk_titles
        pub_years += values[0::numeric]
        totals += values[1::numeric]
        column_sums = [total + sum(values[column::numeric])
                       for column, total in enumerate(column_sums, 2)]
        if per_rows is not None:
            per_rows += [per_row(row[2:]) for row in zip(*[iter(values)] * numeric)]
    if not titles:
        raise EmptyProfileError("report contains no publication records")
    return (name or default_name or "unknown", source_id, reported_h, titles, pub_years, totals,
            year_cols, column_sums, per_rows)


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
        data, fmt, default_name, tuple)
    records = list(map(_record, titles, pub_years, totals, repeat(years), rows))
    return ResearcherProfile(name, source_id, reported_h, records,
                             _mismatch_warnings(titles, totals, list(map(sum, rows))))


# TSV has no quoting; the csv writer leaves a lone CR unquoted, and Python 3.10's reader refuses NUL;
# neither flavor carries a surrogate, which UTF-8 cannot encode
_UNSAFE = {ReportFormat.TSV: r"[\t\r\n\ud800-\udfff]",
           ReportFormat.CSV: r"[\r\0\ud800-\udfff]"}


def _check_fields(fmt: ReportFormat, fields: Iterable[tuple[str, str]]) -> None:
    """Raise ValueError naming ``what`` for the first ``(what, value)`` of ``fields`` that
    ``parse_report`` would not read back in ``fmt``; the flavor's pattern is compiled, and the
    CSV field limit read, once for them all."""
    search, limit = re.compile(_UNSAFE[fmt]).search, None
    if fmt is ReportFormat.CSV:
        import csv

        limit = csv.field_size_limit()
    for what, value in fields:
        _check_type(value, "str", what)
        unsafe = search(value)
        if unsafe:
            raise ValueError(f"{what} holds {unsafe[0]!r}, which the {fmt.name} flavor cannot carry")
        if limit is not None and len(value) > limit:
            raise ValueError(f"{what} is longer than the CSV field limit ({limit})")


def serialize_report(profile: ResearcherProfile, fmt: ReportFormat = ReportFormat.TSV) -> bytes:
    """Render a profile back into canonical bytes.

    The year-column window is the union of the records' cited spans: the smallest contiguous range
    covering every cited year across all records (empty when nothing was ever cited), which it works
    out and hands to ``_write_report``; each record row fills it with zeros outside its span.
    ``parse_report(serialize_report(p))`` reproduces ``p`` in every field except ``warnings``.  A
    profile it would not reproduce raises ValueError naming the field: no records, an empty name, a
    title, name or id that is not a str, a reported h-index that is not an int or lies outside
    0..MAX_COUNT, or a title, name or id that the flavor cannot carry (a surrogate in any flavor).
    """
    records = profile.records
    if not records:
        raise ValueError("profile has no records; parse_report rejects a report without any")
    if profile.name == "":
        raise ValueError("researcher name is empty; parse_report would read the file's name")
    if profile.reported_h is not None:
        _check_type(profile.reported_h, "int", "reported h-index")
        _check_range(profile.reported_h, 0, MAX_COUNT, "reported h-index")
    named = [("researcher name", profile.name),
             ("researcher id", "" if profile.source_id is None else profile.source_id)]
    _check_fields(fmt, chain(named, zip(repeat("record title"), map(attrgetter("title"), records))))
    spans = [years for years in map(attrgetter("_years"), records) if years]
    window = range(min(s.start for s in spans), max(s.stop for s in spans)) if spans else _NO_YEARS
    data = io.BytesIO()  # getvalue() hands its bytes over uncopied
    # one _cells call renders every record's cells, with no Python call per record
    fields = [map(attrgetter(name), records) for name in ("title", "pub_year", "total_citations", "_years")]
    rows = zip(*fields, _cells(list(map(attrgetter("_counts"), records))))
    _write_report(fmt, profile.name, profile.source_id, profile.reported_h, window, rows, data)
    return data.getvalue()


def _cells(rows: list[Sequence[int]]) -> list[list[str]]:
    """The cell texts of each of ``rows``, sequences of counts in 0..MAX_COUNT: each count's text
    from ``_TEXT``, or by ``str()`` in a row that holds a count above 255."""
    # lists, not tuples: a tuple built from ``map`` is resized to its length, so it never comes from
    # CPython's per-size tuple free lists, yet goes onto them when freed, and they would fill
    text = _TEXT.__getitem__
    try:
        return list(map(list, map(map, repeat(text), rows)))
    except KeyError:  # some row holds a count above 255
        return [list(map(str if max(row, default=0) > 255 else text, row)) for row in rows]


def _write_report(fmt: ReportFormat, name: str, source_id: str | None, reported_h: int | None, window: range,
                  rows: Iterable[tuple[str, int, int, range, Sequence[str]]], out: BinaryIO) -> None:
    """Write a report into the binary stream ``out``: the metadata, a header over the year ``window``
    and one line per row, each encoded as it is rendered.

    A row is ``(title, pub_year, total, years, cells)``, with one cell for each year of ``years``: the
    text of its count, as ``_cells`` renders it.  ``rows`` is iterated once, and no row is kept.  The
    caller guarantees that ``window`` is the union of the rows' nonempty ``years`` (``_NO_YEARS`` if
    there is none), and what ``serialize_report`` checks: every text is one the flavor can carry.
    """
    buffer = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    if fmt is ReportFormat.TSV:
        def write_row(row: list[str]) -> None:
            buffer.write("\t".join(row))
            buffer.write("\n")
    else:
        import csv

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
    write = buffer.write
    for title, pub_year, total, years, cells in rows:
        start, stop = (years.start, years.stop) if years else (hi, hi)  # no years: all zeros
        before, after = zeros[:step * (start - lo)], zeros[step * (stop - lo):]
        if tsv:
            cited = "\t" + "\t".join(cells) if cells else ""
            write(f"{title}\t{pub_year}\t{total}{before}{cited}{after}\n")
        else:
            write_row([title, str(pub_year), str(total), *before, *cells, *after])
    # detach flushes the wrapper and leaves ``out`` to its owner: collected while attached, the
    # wrapper would flush (and close) ``out`` again, and a failed write would raise twice
    buffer.detach()

"""Where the one-pass read of a record block hands over to the row-by-row path.

``_read_block`` keeps the clean rows that open a record block and leaves
``_read_rows`` only the rows from the first one it cannot vouch for: a line
with a wrong cell count or a cell that ``int()`` refuses.  A kept row that
fails a bound test leaves it the whole block.  Whatever the split, the
outcome must equal the row-by-row path's.  The header's year cells are read
through the lookup table first; the outcome must equal reading each through
``_int``.
"""

import pytest

from papertrail import ingest
from papertrail.errors import MalformedHeaderError
from papertrail.ingest import MAX_COUNT, MAX_YEAR, MIN_YEAR, ReportFormat, parse_report

from test_ingest_differential import BLOCK_CELLS, outcome, report, row_by_row, split_report

HEADER = ["Title", "Publication Year", "Total Citations", "2010", "2011"]
# the second row's 300 sends the block pass from the lookup table to int()
RECORDS = [["first", "2010", "3", "1", "2"],
           ["second", "2011", "300", "0", "255"],
           ["third", "2011", "1", "0", "1"],
           ["fourth", "2010", "4", "2", "2"],
           ["fifth", "2011", "2", "1", "1"]]
POSITIONS = {"first": 0, "middle": 2, "last": 4}
# a cell in the publication-year column and one in the last year column, a short and a long row
CHANGES = {
    **{f"year-{cell!r}": (1, cell) for cell in BLOCK_CELLS},
    **{f"count-{cell!r}": (4, cell) for cell in BLOCK_CELLS},
    "short": (None, "short"),
    "long": (None, "long"),
}


def changed(row: list[str], column: int | None, cell: str) -> list[str]:
    if column is not None:
        return [*row[:column], cell, *row[column + 1:]]
    return row[:-1] if cell == "short" else [*row, "0"]


def vouched(row: list[str]) -> str:
    """What the block pass makes of ``row``: "clean", "bound" (int() reads each numeric cell but
    one lies past its bound) or "refused" (a wrong cell count, or a cell int() refuses)."""
    if len(row) != len(HEADER):
        return "refused"
    try:
        values = [int(cell) for cell in row[1:]]
    except ValueError:
        return "refused"
    if MIN_YEAR <= values[0] <= MAX_YEAR and all(0 <= v <= MAX_COUNT for v in values):
        return "clean"
    return "bound"


def handoff_case(position: str, change: str, fmt: ReportFormat, ending: bytes):
    """The report with the changed row at ``position``, two blank lines before it; the row
    number of that row, of the first record, and what the block pass makes of the row."""
    bad = POSITIONS[position]
    row = changed(RECORDS[bad], *CHANGES[change])
    rows = [["# researcher", "R"], HEADER, *RECORDS[:bad], [], [], row, *RECORDS[bad + 1:]]
    data = report(rows, fmt).replace(b"\n", ending)
    return data, rows.index(row) + 1, rows.index(RECORDS[0] if bad else row) + 1, vouched(row)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("fmt", list(ReportFormat))
@pytest.mark.parametrize("change", list(CHANGES))
@pytest.mark.parametrize("position", list(POSITIONS))
def test_handoff_agrees_with_the_row_by_row_path(position, change, fmt, ending, monkeypatch):
    data, bad_row, first_row, kind = handoff_case(position, change, fmt, ending)
    expected = row_by_row(data, fmt)
    handed = []
    read_rows = ingest._read_rows

    def spy(rows, year_cols):
        rows = list(rows)
        handed.append([row_no for row_no, _ in rows])
        return read_rows(iter(rows), year_cols)
    monkeypatch.setattr(ingest, "_read_rows", spy)
    assert outcome(parse_report, data, fmt) == expected

    # the numbers of the nonblank rows; _read_rows gets those from the changed row or the first record on
    numbered = [n for n, cells in enumerate(split_report(data, fmt), 1)
                if cells not in ([], [""], ["\r"])]
    rows_on = [n for n in numbered if n >= bad_row]
    if kind == "refused" or (fmt is ReportFormat.TSV and ending == b"\r\n"):
        # a blank CRLF line in TSV is a lone "\r", which the block pass takes for a short row
        assert handed == [rows_on]
    elif kind == "bound":  # the whole block
        assert handed == [[n for n in numbered if n >= first_row]]
    else:
        assert handed == []


def int_only_year_columns(cells: list[str]) -> range:
    """The header's year window as read before the lookup table: every cell through ``_int``."""
    years = [ingest._int(cell, "year column", MalformedHeaderError, MAX_YEAR) for cell in cells]
    for prev, cur in zip(years, years[1:]):
        if cur != prev + 1:
            raise MalformedHeaderError(
                f"year columns must be contiguous ascending; found {prev} followed by {cur}"
            )
    if not years:
        return ingest._NO_YEARS
    if not (MIN_YEAR <= years[0] and years[-1] <= MAX_YEAR):
        raise MalformedHeaderError(
            f"year columns {years[0]}..{years[-1]} outside {MIN_YEAR}..{MAX_YEAR}"
        )
    return range(years[0], years[-1] + 1)


def header_outcome(parse, cells: list[str]):
    try:
        return parse(cells)
    except MalformedHeaderError as exc:
        return str(exc)


YEAR_CELLS = [" 2001", "2001 ", "+2001", "02001", "2_001", "٢٠٠١", "5", "1899", "2101", "x", ""]


@pytest.mark.parametrize("cells", [
    *([cell] for cell in YEAR_CELLS),
    *(["2000", cell, "2002"] for cell in YEAR_CELLS),
    *([cell, "2002"] for cell in YEAR_CELLS),
    *(["2000", cell] for cell in YEAR_CELLS),
    [], ["1900"], ["2100"], ["2000", "2001", "2002"], ["1900", "1901"], ["2099", "2100"],
    ["2000", "2002"], ["2002", "2001"], ["2000", "2001", "2001"], ["5", "6"], ["255", "256"],
], ids=repr)
def test_year_columns_match_the_int_only_reader(cells):
    expected = header_outcome(int_only_year_columns, cells)
    assert header_outcome(ingest._parse_year_columns, cells) == expected

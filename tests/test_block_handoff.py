"""Where the one-pass read of a chunk of a record block hands over to the row-by-row path.

``_read_report`` reads the record block in chunks of at most ``_BULK_CELLS``
numeric cells.  ``_read_chunk`` keeps the clean rows that open a chunk and
leaves ``_read_rows`` only the rows from the first one it cannot vouch for to
the end of the chunk: a line with a wrong cell count or a cell that ``int()``
refuses.  A kept row that fails a bound test leaves it the whole chunk.
Whatever the split, the outcome must equal the row-by-row path's, also in a
block of more numeric cells than one chunk holds.  The header's year cells are read
through the lookup table first; the outcome must equal reading each through
``_int``.
"""

import pytest

from papertrail import ingest
from papertrail.errors import MalformedHeaderError
from papertrail.ingest import MAX_COUNT, MAX_YEAR, MIN_YEAR, ReportFormat, parse_report

from test_ingest_differential import (
    BLOCK_CELLS,
    BULK_ROWS,
    WIDE_HEADER,
    WIDE_RECORDS,
    assert_same_outcome,
    outcome,
    report,
    row_by_row,
    split_report,
)

HEADER = ["Title", "Publication Year", "Total Citations", "2010", "2011"]
# the second row's 300 sends the block pass from the lookup table to int()
RECORDS = [["first", "2010", "3", "1", "2"],
           ["second", "2011", "300", "0", "255"],
           ["third", "2011", "1", "0", "1"],
           ["fourth", "2010", "4", "2", "2"],
           ["fifth", "2011", "2", "1", "1"]]
# the changed row's block: the header, the records and the index of the row changed
POSITIONS = {
    "first": (HEADER, RECORDS, 0),
    "middle": (HEADER, RECORDS, 2),
    "last": (HEADER, RECORDS, 4),
    # a header without year columns over one record: two numeric cells, the fewest a row has
    "no-years": (HEADER[:3], [RECORDS[0][:3]], 0),
    # every cell of the wide records lies in the lookup table, so a changed cell is the one miss;
    # a block of as many cells as one itemgetter call looks up, and one of a row more
    "at-bulk-cap-first": (WIDE_HEADER, WIDE_RECORDS[:BULK_ROWS], 0),
    "at-bulk-cap-last": (WIDE_HEADER, WIDE_RECORDS[:BULK_ROWS], BULK_ROWS - 1),
    "past-bulk-cap-first": (WIDE_HEADER, WIDE_RECORDS, 0),
    "past-bulk-cap-last": (WIDE_HEADER, WIDE_RECORDS, BULK_ROWS),
}
# a cell in the publication-year column and one in the last column, a short and a long row
CHANGES = {
    **{f"year-{cell!r}": (1, cell) for cell in BLOCK_CELLS},
    **{f"count-{cell!r}": (-1, cell) for cell in BLOCK_CELLS},
    "short": (None, "short"),
    "long": (None, "long"),
}


def changed(row: list[str], column: int | None, cell: str) -> list[str]:
    if column is not None:
        row = row.copy()
        row[column] = cell
        return row
    return row[:-1] if cell == "short" else [*row, "0"]


def vouched(row: list[str], header: list[str]) -> str:
    """What the block pass makes of ``row``: "clean", "bound" (int() reads each numeric cell but
    one lies past its bound) or "refused" (a wrong cell count, or a cell int() refuses)."""
    if len(row) != len(header):
        return "refused"
    try:
        values = [int(cell) for cell in row[1:]]
    except ValueError:
        return "refused"
    if MIN_YEAR <= values[0] <= MAX_YEAR and all(0 <= v <= MAX_COUNT for v in values):
        return "clean"
    return "bound"


def chunk_of(row_no: int, header_row: int, columns: int) -> range:
    """The row numbers of the chunk that holds row ``row_no`` of the record block after the
    header at row ``header_row``, which has ``columns`` cells."""
    lines = ingest._BULK_CELLS // (columns - 1)
    start = header_row + 1 + (row_no - header_row - 1) // lines * lines
    return range(start, start + lines)


def handoff_case(position: str, change: str, fmt: ReportFormat, ending: bytes, blank: list[str]):
    """The report with the changed row at ``position``, two ``blank`` lines before it; the row
    number of that row, the row numbers of its chunk, and what the block pass makes of the row."""
    header, records, bad = POSITIONS[position]
    row = changed(records[bad], *CHANGES[change])
    rows = [["# researcher", "R"], header, *records[:bad], blank, blank, row, *records[bad + 1:]]
    data = report(rows, fmt).replace(b"\n", ending)
    bad_row = rows.index(row) + 1
    return data, bad_row, chunk_of(bad_row, 2, len(header)), vouched(row, header)


# a blank line: an empty one, or in CSV one whose one cell is empty (written as "")
BLANKS = {"tsv": (ReportFormat.TSV, []), "csv": (ReportFormat.CSV, []),
          "csv-quoted-blank": (ReportFormat.CSV, [""])}
ENDINGS = {"lf": b"\n", "crlf": b"\r\n"}


def cases(positions, changes, blanks=BLANKS, endings=ENDINGS):
    return [pytest.param(position, change, *BLANKS[blank], ENDINGS[ending],
                         id=f"{position}-{change}-{blank}-{ending}")
            for ending in endings for blank in blanks for position in positions for change in changes]


# every change in the small blocks; in the wide ones, a table miss read by int(), a cell int()
# refuses, a publication year past its bound and a short row, in the first and the last row
@pytest.mark.parametrize("position, change, fmt, blank, ending", [
    *cases(["first", "middle", "last", "no-years"], CHANGES),
    *cases(["at-bulk-cap-first", "at-bulk-cap-last", "past-bulk-cap-first", "past-bulk-cap-last"],
           ["count-'256'", "count-'x'", "year-'2101'", "short"], ["tsv", "csv"], ["lf"]),
])
def test_handoff_agrees_with_the_row_by_row_path(position, change, fmt, blank, ending, monkeypatch):
    data, bad_row, chunk, kind = handoff_case(position, change, fmt, ending, blank)
    expected = row_by_row(data, fmt)
    handed = []
    read_rows = ingest._read_rows

    def spy(rows, year_cols):
        rows = list(rows)
        handed.append([row_no for row_no, _ in rows])
        return read_rows(iter(rows), year_cols)
    monkeypatch.setattr(ingest, "_read_rows", spy)
    assert outcome(parse_report, data, fmt) == expected

    # the numbers of the nonblank rows of the changed row's chunk; _read_rows gets those from the
    # changed row on, or all of them
    numbered = [n for n, cells in enumerate(split_report(data, fmt), 1)
                if n in chunk and cells not in ([], [""], ["\r"])]
    if kind == "refused":  # a blank line of any kind, CRLF TSV's lone "\r" too, is skipped
        assert handed == [[n for n in numbered if n >= bad_row]]
    elif kind == "bound":  # the whole chunk
        assert handed == [numbered]
    else:
        assert handed == []


# the lines of a chunk of wide records, and a record block of two chunks: one full, one of two lines
CHUNK_LINES = ingest._BULK_CELLS // (len(WIDE_HEADER) - 1)
EDGE_RECORDS = [[f"e{i}", "2000", "1", *("1" if year == i % 126 else "0" for year in range(126))]
                for i in range(CHUNK_LINES + 2)]
# the line of the block the change lands on, and the lines made blank before it
EDGES = {
    "first-of-chunk": (0, ()),
    "last-of-chunk": (CHUNK_LINES - 1, ()),
    "first-of-next-chunk": (CHUNK_LINES, ()),
    "after-blanks-across-the-edge": (CHUNK_LINES + 1, (CHUNK_LINES - 1, CHUNK_LINES)),
}
# the changes made in the wide blocks above: a table miss read by int(), a cell int() refuses, a
# publication year past its bound and a short row; and, after the blank lines, none
WIDE_CHANGES = ["count-'256'", "count-'x'", "year-'2101'", "short"]
EDGE_CASES = [(edge, change) for edge, (_, blanks) in EDGES.items()
              for change in (WIDE_CHANGES + [None] if blanks else WIDE_CHANGES)]


@pytest.mark.parametrize("ending", ENDINGS.values(), ids=ENDINGS)
@pytest.mark.parametrize("fmt", list(ReportFormat), ids=lambda fmt: fmt.value)
@pytest.mark.parametrize("edge, change", EDGE_CASES, ids=[f"{e}-{c or 'clean'}" for e, c in EDGE_CASES])
def test_chunk_edges_agree_with_the_row_by_row_path_and_the_reference(edge, change, fmt, ending):
    line, blanks = EDGES[edge]
    block = [record.copy() for record in EDGE_RECORDS]
    if change is not None:
        block[line] = changed(block[line], *CHANGES[change])
    for blank in blanks:
        block[blank] = []
    data = report([["# researcher", "R"], WIDE_HEADER, *block], fmt).replace(b"\n", ending)
    assert outcome(parse_report, data, fmt) == row_by_row(data, fmt) == assert_same_outcome(data, fmt)


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

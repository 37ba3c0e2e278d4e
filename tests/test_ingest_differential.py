"""Differential tests: ``parse_report`` against the cell-by-cell reference parser.

Every input must give the same outcome from both: equal profiles (name, id,
reported h, records with their per-year dicts in order, warnings), or the
same exception type with the same message.  Two differences are intended:
when the header the reference accepts has year columns outside
MIN_YEAR..MAX_YEAR, ``parse_report`` rejects that header instead; and where
the reference echoes a cell or a warning's title longer than the echo bound,
``parse_report`` names it by its length, or a number by its digit count.

``parse_report`` reads the clean rows of each chunk of a record block in one
pass and the others row by row; the two paths must also agree with each
other on every input.
"""

import ast
import csv
import io
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from papertrail import ingest
from papertrail.errors import MalformedHeaderError, MalformedRowError, PapertrailError
from papertrail.ingest import (
    _ECHO_LIMIT,
    MAX_COUNT,
    MAX_YEAR,
    MIN_YEAR,
    ReportFormat,
    parse_report,
    serialize_report,
)

from papertrail.synth import conscientious_spec, generate, papermill_spec

from conftest import TWO_RECORD_TSV, random_profile
from reference_ingest import _parse_year_columns as reference_year_columns
from reference_ingest import parse_report as reference_parse_report

# count cells at the edges of what int() and str.strip() accept
TRICKY_CELLS = [" 7 ", "+7", "1_000", "٣", "-0", "-3", "x", "",
                "\x1c7", "\x1d7", "\x1e7", "\x1f7"]


def outcome(parse, data: bytes, fmt: ReportFormat):
    try:
        profile = parse(data, fmt, default_name="stem")
    except PapertrailError as exc:
        return ("error", type(exc), str(exc))
    records = [
        (r.title, r.pub_year, r.total_citations, list(r.citations_by_year.items()))
        for r in profile.records
    ]
    return ("profile", profile.name, profile.source_id, profile.reported_h, records,
            profile.warnings)


class HeaderReached(Exception):
    """Stops the reference parser at the header it accepts, carrying its year columns."""


def stop_at_header(cells: list[str]) -> list[int]:
    raise HeaderReached(reference_year_columns(cells))


def accepted_year_columns(data: bytes, fmt: ReportFormat) -> list[int] | None:
    """The year columns of the header the reference accepts, or None if it stops before."""
    try:
        reference_parse_report(data, fmt, parse_year_columns=stop_at_header)
    except HeaderReached as reached:
        return reached.args[0]
    except PapertrailError:
        return None
    raise AssertionError("the reference parsed a report without reaching a header")


# "<what> <repr of the cell> is not an integer"; <what> holds no quote, so matching is linear
NOT_AN_INTEGER = re.compile(r"([^'\"]*) (['\"].*) is not an integer", re.DOTALL)
# "row <n>: expected metadata or header row, got <repr of the cell>"
NOT_A_HEADER = re.compile(r"(row \d+: expected metadata or header row, got )(.*)", re.DOTALL)
# "record <n> (<repr of the title>): year columns sum to ..."; the tail holds digits only
MISMATCH = re.compile(r"(record \d+ \()(.*)(\): year columns sum to \d+ but total citations "
                      r"is \d+; keeping the declared total as authoritative)", re.DOTALL)


def shown(echo: str) -> str:
    """A repr the reference shows, as the package shows it: as is, or by its length if longer."""
    return echo if len(echo) <= _ECHO_LIMIT + 2 else f"({len(ast.literal_eval(echo))} characters)"


def echo_bounded(expected):
    """The reference's outcome with a cell or title over the echo bound named as the package names it.

    The reference echoes every cell it cannot read and every title in a
    mismatch warning, however long.  The package names a longer cell or title
    by its length, and a number that int() refuses for its length by its sign
    or the column's bound and its digit count.
    """
    if expected[0] == "profile":
        warnings = [match[1] + shown(match[2]) + match[3] if (match := MISMATCH.fullmatch(w)) else w
                    for w in expected[5]]
        return (*expected[:5], warnings)
    if match := NOT_A_HEADER.fullmatch(expected[2]):
        return (*expected[:2], match[1] + shown(match[2]))
    match = NOT_AN_INTEGER.fullmatch(expected[2])
    if match is None or len(match[2]) <= _ECHO_LIMIT + 2:
        return expected
    what, text = match[1], ast.literal_eval(match[2]).strip()
    if not re.fullmatch(r"[+-]?\d+", text):
        return (*expected[:2], f"{what} {shown(match[2])} is not an integer")
    most = MAX_YEAR if what.endswith(("year column", "publication year")) else MAX_COUNT
    side = "negative" if text[0] == "-" else f"above {most}"
    return (*expected[:2], f"{what} is {side} ({len(text.lstrip('+-0'))} digits)")


def assert_same_outcome(data: bytes, fmt: ReportFormat):
    actual = outcome(parse_report, data, fmt)
    years = accepted_year_columns(data, fmt)
    if years and not (MIN_YEAR <= years[0] and years[-1] <= MAX_YEAR):
        expected = ("error", MalformedHeaderError,
                    f"year columns {years[0]}..{years[-1]} outside {MIN_YEAR}..{MAX_YEAR}")
    else:
        expected = echo_bounded(outcome(reference_parse_report, data, fmt))
    assert actual == expected
    return expected


def criterion_8_cases(rng: random.Random, n: int):
    """The random, mutated and shuffled reports of acceptance criterion 8."""
    header = b"Title\tPublication Year\tTotal Citations\t2010\t2011\n"
    valid = b"# researcher\tA\n" + header + b"p\t2010\t3\t1\t2\n"
    for case in range(n):
        kind = case % 3
        if kind == 0:
            data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 120)))
        elif kind == 1:
            mutated = bytearray(valid)
            for _ in range(rng.randint(1, 8)):
                pos = rng.randrange(len(mutated))
                mutated[pos] = rng.randrange(256)
            data = bytes(mutated)
        else:
            pieces = [header if rng.random() < 0.7 else b"",
                      b"p\t2010\t3\t1\t2\n" * rng.randint(0, 3),
                      bytes(rng.randrange(32, 127) for _ in range(rng.randint(0, 40)))]
            rng.shuffle(pieces)
            data = b"".join(pieces)
        yield data, ReportFormat.TSV if case % 2 else ReportFormat.CSV


@pytest.mark.parametrize("seed", [808, 1, 2])
def test_criterion_8_fuzz_corpus(seed):
    kinds = set()
    for data, fmt in criterion_8_cases(random.Random(seed), 10_000):
        kinds.add(assert_same_outcome(data, fmt)[0])
    assert kinds == {"profile", "error"}


def report(rows: list[list[str]], fmt: ReportFormat) -> bytes:
    if fmt is ReportFormat.TSV:
        return ("\n".join("\t".join(row) for row in rows) + "\n").encode("utf-8")
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode("utf-8")


def split_report(data: bytes, fmt: ReportFormat) -> list[list[str]]:
    text = data.decode("utf-8")
    if fmt is ReportFormat.TSV:
        return [line.split("\t") for line in text.split("\n")]
    return list(csv.reader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("fmt", list(ReportFormat))
@pytest.mark.parametrize("column", [2, 4], ids=["total", "year"])
@pytest.mark.parametrize("cell", TRICKY_CELLS, ids=repr)
def test_tricky_count_cell(cell, column, fmt):
    rows = [
        ["Title", "Publication Year", "Total Citations", "2010", "2011", "2012"],
        ["first", "2010", "5", "2", "2", "1"],
        ["second", "2011", "7", "0", "3", "4"],
    ]
    rows[2][column] = cell
    assert_same_outcome(report(rows, fmt), fmt)


@pytest.mark.parametrize("fmt", list(ReportFormat))
@pytest.mark.parametrize("cell", ["\x1c7", "\x1d7", "\x1e7", "\x1f7"], ids=repr)
def test_cell_that_only_strip_cleans_is_accepted(cell, fmt):
    # int() rejects these separators but str.strip() removes them, so the
    # one-step conversion fails on a row the cell-by-cell parser accepts
    rows = [["Title", "Publication Year", "Total Citations", "2010", "2011"],
            ["p", "2010", cell, "3", cell]]
    profile = parse_report(report(rows, fmt), fmt)
    assert profile.records[0].total_citations == 7
    assert profile.records[0].citations_by_year == {2010: 3, 2011: 7}
    assert len(profile.warnings) == 1 and "sum to 10" in profile.warnings[0]


def test_first_bad_cell_is_named():
    rows = [["Title", "Publication Year", "Total Citations", "2010", "2011", "2012"],
            ["p", "2010", "1", "-2", "x", "-1"]]
    result = assert_same_outcome(report(rows, ReportFormat.TSV), ReportFormat.TSV)
    assert result[2] == "row 2: citation count for 2010 must be non-negative, got -2"


cell_text = st.one_of(
    st.sampled_from(TRICKY_CELLS),
    st.integers(-5, 10 ** 6).map(str),
    st.text(max_size=6),
)


@st.composite
def mutated_reports(draw):
    """A serialized random profile, with up to three cells replaced."""
    fmt = draw(st.sampled_from(list(ReportFormat)))
    profile = random_profile(draw(st.randoms(use_true_random=False)))
    rows = split_report(serialize_report(profile, fmt), fmt)
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(rows) - 1))
        if rows[row]:
            rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(cell_text)
    return report(rows, fmt), fmt


# a single year column replaced by a year the reference takes and the package refuses
FAR_YEAR_COLUMN = (b"Title\tPublication Year\tTotal Citations\t3000000\nA\t2000\t1\t1\n",
                   ReportFormat.TSV)


@settings(max_examples=400, deadline=None)
@given(mutated_reports())
@example(FAR_YEAR_COLUMN)
def test_well_formed_and_mutated_reports(case):
    assert_same_outcome(*case)


@pytest.mark.parametrize("fmt", list(ReportFormat))
@pytest.mark.parametrize("years", [["3000000"], ["2100", "2101"], ["1898", "1899"]])
def test_out_of_range_year_columns_are_the_one_difference(years, fmt):
    rows = [["Title", "Publication Year", "Total Citations", *years],
            ["p", "2000", "0", *["0"] * len(years)]]
    data = report(rows, fmt)
    assert outcome(reference_parse_report, data, fmt)[0] == "profile"
    result = assert_same_outcome(data, fmt)
    assert result[:2] == ("error", MalformedHeaderError)


# cells the reference echoes in full: text just over the bound, long text, and
# numbers that int() refuses for their length (over 4,300 digits)
LONG_CELLS = ["x" * (_ECHO_LIMIT + 1), " x" * 2500, "9" * 5000, "-" + "9" * 5000, "+0" + "1" * 4400]


@pytest.mark.parametrize("fmt", list(ReportFormat))
@pytest.mark.parametrize("row,column", [(0, 0), (0, 1), (1, 3), (2, 1), (2, 2), (2, 4)],
                         ids=["first-cell", "h-index", "year-column", "publication-year", "total",
                              "year-cell"])
@pytest.mark.parametrize("cell", LONG_CELLS, ids=["41-characters", "5000-characters", "5000-digits",
                                                  "negative", "signed-4400-digits"])
def test_cell_over_the_echo_bound_is_the_other_difference(cell, row, column, fmt):
    rows = [["# h-index", "3"],
            ["Title", "Publication Year", "Total Citations", "2010", "2011"],
            ["p", "2010", "3", "1", "2"]]
    rows[row][column] = cell
    result = assert_same_outcome(report(rows, fmt), fmt)
    assert result[0] == "error" and len(result[2]) < 200


def row_by_row(data: bytes, fmt: ReportFormat):
    """The outcome of ``parse_report`` with the one-pass read of each chunk turned off: every
    chunk goes to ``_read_rows`` whole, and each call gets lists of its own."""
    with mock.patch.object(ingest, "_read_chunk", side_effect=lambda *args: ([], [], 0)):
        return outcome(parse_report, data, fmt)


def assert_paths_agree(data: bytes, fmt: ReportFormat):
    assert outcome(parse_report, data, fmt) == row_by_row(data, fmt)


# cells at the edges of the block pass: what only str.strip() cleans, what int() reads
# but the lookup table does not, and counts past the table and past MAX_COUNT
BLOCK_CELLS = ["\x1c7", "+5", "1_0", "05", "٣", " 7", "-0", "255", "256", "1899", "2101",
               str(MAX_COUNT), str(MAX_COUNT + 1), "-1", "x", "", "\r"]


@st.composite
def block_reports(draw):
    """A serialized random profile with cells replaced, rows cut short or lengthened,
    blank lines inserted, and possibly CRLF endings."""
    fmt = draw(st.sampled_from(list(ReportFormat)))
    profile = random_profile(draw(st.randoms(use_true_random=False)))
    rows = split_report(serialize_report(profile, fmt), fmt)[:-1]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        change = draw(st.sampled_from(["cell", "short", "long", "blank"]))
        if change == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif change == "long":
            row.append(draw(st.sampled_from(BLOCK_CELLS)))
        elif row and change == "short":
            row.pop()
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BLOCK_CELLS) | cell_text)
    data = report(rows, fmt)
    return data.replace(b"\n", b"\r\n") if draw(st.booleans()) else data, fmt


@settings(max_examples=300, deadline=None)
@given(block_reports())
def test_block_pass_agrees_with_the_row_by_row_path(case):
    assert_paths_agree(*case)


BLOCK_ROWS = [["# researcher", "R"],
              ["Title", "Publication Year", "Total Citations", "2010", "2011"],
              ["first", "2010", "3", "1", "2"],
              ["second", "2011", "300", "0", "255"],
              ["third", "2011", "1", "0", "1"]]
# 126 year columns, 128 numeric cells a row, and one row more than the block pass looks up in one
# itemgetter call; every cell lies in the lookup table
WIDE_HEADER = [*BLOCK_ROWS[1][:3], *map(str, range(1901, 2027))]
BULK_ROWS = ingest._BULK_CELLS // (len(WIDE_HEADER) - 1)
WIDE_RECORDS = [[f"p{i}", "2000", "1", *("1" if year == i % 126 else "0" for year in range(126))]
                for i in range(BULK_ROWS + 1)]


def wide_block(rows: int, row: int, column: int, cell: str):
    """The change to a report of the first ``rows`` wide records with ``cell`` at ``row`` and
    ``column``."""
    def change(report_rows):
        records = [record.copy() for record in WIDE_RECORDS[:rows]]
        records[row][column] = cell
        return [report_rows[0], WIDE_HEADER, *records]
    return change


@pytest.mark.parametrize("fmt", list(ReportFormat))
@pytest.mark.parametrize("change", [
    lambda rows: rows[:3] + [[]] + rows[3:] + [[]],
    lambda rows: rows[:4] + [["short", "2011", "1", "1"]] + rows[4:],
    lambda rows: rows[:4] + [["long", "2011", "1", "1", "0", "0"]] + rows[4:],
    lambda rows: rows[:4] + [["sum", "2011", str(MAX_COUNT), str(MAX_COUNT), "0"]] + rows[4:],
    lambda rows: rows[:4] + [["above", "2011", "256", "1899", "2101"]] + rows[4:],
    lambda rows: rows[:4] + [["table", "2100", "2100", "1900", "200"]] + rows[4:],
    *(lambda rows, cell=cell: rows[:4] + [["tricky", "2011", cell, "0", cell]] + rows[4:]
      for cell in ["\x1c7", "+5", "1_0", "05", "٣"]),
    lambda rows: [rows[0], rows[1][:3], ["only", "2011", "3"]],
    lambda rows: [rows[0], rows[1][:3], ["only", "2011", "300"]],
    lambda rows: rows[:2] + [["first", "2010", "256", "1", "2"]] + rows[3:],
    lambda rows: rows[:-1] + [["third", "2011", "1", "0", "256"]],
    wide_block(BULK_ROWS, 0, 2, "256"),
    wide_block(BULK_ROWS, BULK_ROWS - 1, -1, "256"),
    wide_block(BULK_ROWS + 1, 0, 2, "256"),
    wide_block(BULK_ROWS + 1, BULK_ROWS, 1, "02000"),
    wide_block(BULK_ROWS + 1, BULK_ROWS, -1, "256"),
], ids=["blank-lines", "short-row", "long-row", "sum-over-max-count", "above-the-table",
        "table-edges", "x1c7", "plus", "underscore", "leading-zero", "arabic-indic",
        "no-year-columns", "no-year-columns-above-the-table", "above-the-table-first-cell",
        "above-the-table-last-cell", "at-the-bulk-cap-miss-first", "at-the-bulk-cap-miss-last",
        "past-the-bulk-cap-miss-first", "past-the-bulk-cap-miss-past-it",
        "past-the-bulk-cap-miss-last"])
@pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_block_pass_edge_cases(change, ending, fmt):
    data = report(change([row.copy() for row in BLOCK_ROWS]), fmt).replace(b"\n", ending)
    assert_paths_agree(data, fmt)
    assert_same_outcome(data, fmt)


def well_formed_reports(fmt: ReportFormat):
    """Reports whose counts lie in the lookup table, and reports with counts past it."""
    yield "two-record", report(split_report(TWO_RECORD_TSV, ReportFormat.TSV)[:-1], fmt)
    for seed in range(3):
        yield f"random-{seed}", serialize_report(random_profile(random.Random(seed)), fmt)
        yield f"papermill-{seed}", serialize_report(generate(papermill_spec(seed)), fmt)
        yield f"conscientious-{seed}", serialize_report(generate(conscientious_spec(seed)), fmt)


def with_bad_last_cell(data: bytes, fmt: ReportFormat) -> tuple[bytes, str]:
    """``data`` with the last cell of its last row replaced by "x", and the error that names it."""
    sep = b"," if fmt is ReportFormat.CSV else b"\t"
    bad = data.rstrip(b"\n").rpartition(sep)[0] + sep + b"x\n"
    header = next(row for row in split_report(data, fmt) if row[0] == "Title")
    what = f"citation count for {header[-1]}" if len(header) > 3 else "total citations"
    last_row = bad.count(b"\n")
    return bad, f"row {last_row}: {what} 'x' is not an integer"


@pytest.mark.parametrize("fmt", list(ReportFormat))
def test_well_formed_reports_take_the_block_pass(fmt):
    for label, data in well_formed_reports(fmt):
        expected = row_by_row(data, fmt)
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError(label)):
            assert outcome(parse_report, data, fmt) == expected
        bad, message = with_bad_last_cell(data, fmt)
        with pytest.raises(MalformedRowError) as exc:
            parse_report(bad, fmt)
        assert str(exc.value) == message

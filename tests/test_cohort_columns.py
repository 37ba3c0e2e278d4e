"""A cohort point comes from a report's columns, equal to the single-profile pipeline's.

``cohort`` reads each report with ``ingest._read_report`` and computes a
point with ``indicators._indicators``; it builds no record, profile or
indicator set.  The point must equal ``point_from_indicators(label,
analyze_profile(parse_report(data, fmt), config))`` with every float equal
bit for bit, and a report that does not parse must give the same error.
The column sums and per-row values that ``_read_report`` returns must agree
with each other and with ``parse_report``'s records.  No timing bound is asserted.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papertrail import cli, cohort, indicators, ingest
from papertrail.cohort import point_from_indicators
from papertrail.errors import PapertrailError
from papertrail.indicators import AnalysisConfig, analyze_profile
from papertrail.ingest import ReportFormat, parse_report

from test_golden import write_corpus


def report(rows, years=range(2010, 2014), fmt=ReportFormat.TSV, h=None, newline="\n"):
    """A report's bytes: metadata, header and one row per ``(title, pub_year, total, counts)``."""
    lines = [["# researcher", "R. Searcher"], *([["# h-index", str(h)]] if h is not None else []),
             ["Title", "Publication Year", "Total Citations", *map(str, years)]]
    lines += [[title, str(year), str(total), *map(str, counts)] for title, year, total, counts in rows]
    if fmt is ReportFormat.TSV:
        return "".join("\t".join(line) + newline for line in lines).encode("utf-8")
    out = io.StringIO()
    csv.writer(out, lineterminator=newline).writerows(lines)
    return out.getvalue().encode("utf-8")


def bits(point):
    """A point's fields with every float as its exact hex spelling."""
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(point))


def assert_same_point(data: bytes, fmt: ReportFormat, config: AnalysisConfig) -> None:
    expected = point_from_indicators("L", analyze_profile(parse_report(data, fmt), config))
    assert bits(cohort._point_from_report("L", data, fmt, config)) == bits(expected)


GROWING = [(f"p{k}", 2010 + k % 4, 3 * k, [k, 0, 2 * k, 1]) for k in range(9)]
CSV = {"fmt": ReportFormat.CSV}
# each report's rows and the other arguments of ``report``
EXPLICIT = {
    "tsv": (GROWING, {}),
    "csv": ([("a, \"quoted\"", *row[1:]) for row in GROWING], CSV),
    "crlf": (GROWING, {"newline": "\r\n"}),
    "csv-crlf": (GROWING, {**CSV, "newline": "\r\n"}),
    "mismatching-totals": ([(t, y, total + 5, c) for t, y, total, c in GROWING], {}),
    "cited-before-first-publication": ([("a", 2012, 9, [4, 3, 2, 0]), ("b", 2013, 1, [1, 0, 0, 0])],
                                       {}),
    "no-year-columns": ([("a", 2011, 4, []), ("b", 2015, 0, [])], {"years": range(0)}),
    "one-year": ([("a", 2011, 4, []), ("b", 2011, 2, [])], {"years": range(0)}),
    "constant": ([(f"p{y}", y, 2, [1, 1, 1, 1]) for y in range(2010, 2014)], {}),
}


@pytest.mark.parametrize("name", EXPLICIT)
@pytest.mark.parametrize("prefer", [False, True])
@pytest.mark.parametrize("h", [None, 1, 10**6])  # absent, possible and impossible
def test_explicit_reports_give_the_same_point(name, prefer, h):
    rows, kwargs = EXPLICIT[name]
    data = report(rows, h=h, **kwargs)
    fmt = kwargs.get("fmt", ReportFormat.TSV)
    assert parse_report(data, fmt).reported_h == h
    assert_same_point(data, fmt, AnalysisConfig(prefer_reported_h=prefer))


@st.composite
def reports(draw):
    """A TSV or CSV report, LF or CRLF, of 1-8 records over 0-6 year columns.

    Publication years may lie before, inside or after the year columns,
    totals may disagree with the counts, and a reported h-index may be
    absent, possible or impossible.
    """
    fmt = draw(st.sampled_from(ReportFormat))
    first = draw(st.integers(1990, 2020))
    years = range(first, first + draw(st.integers(0, 6)))
    rows = []
    for k in range(draw(st.integers(1, 8))):
        counts = draw(st.lists(st.integers(0, 40), min_size=len(years), max_size=len(years)))
        total = draw(st.just(sum(counts)) | st.integers(0, 300))
        rows.append((f"p{k}", draw(st.integers(first - 3, first + len(years) + 2)), total, counts))
    h = draw(st.none() | st.integers(0, len(rows)) | st.integers(len(rows) + 1, 10**6))
    return report(rows, years, fmt, h, draw(st.sampled_from(["\n", "\r\n"]))), fmt


@settings(max_examples=300, deadline=None)
@given(case=reports(), prefer=st.booleans(), r_min=st.sampled_from([-0.5, 0.5]))
def test_any_report_gives_the_same_point(case, prefer, r_min):
    data, fmt = case
    assert_same_point(data, fmt, AnalysisConfig(r_min=r_min, prefer_reported_h=prefer))


def assert_columns_match_the_records(data: bytes, fmt: ReportFormat) -> None:
    *columns, window, column_sums, read = ingest._read_report(data, fmt, "", tuple)
    assert column_sums == [sum(column) for column in zip(*read)] and len(column_sums) == len(window)
    records = parse_report(data, fmt).records
    assert read == [tuple(rec.citations_by_year.get(year, 0) for year in window) for rec in records]
    # each row's sum instead, or nothing per row; the other columns are the same
    assert ingest._read_report(data, fmt, "", sum) == (*columns, window, column_sums,
                                                       list(map(sum, read)))
    assert ingest._read_report(data, fmt, "") == (*columns, window, column_sums, None)


@pytest.mark.parametrize("name", EXPLICIT)
def test_explicit_reports_give_column_sums_and_rows_of_the_records(name):
    rows, kwargs = EXPLICIT[name]
    assert_columns_match_the_records(report(rows, **kwargs), kwargs.get("fmt", ReportFormat.TSV))


@settings(max_examples=200, deadline=None)
@given(case=reports())
def test_any_report_gives_column_sums_and_rows_of_the_records(case):
    assert_columns_match_the_records(*case)


def test_report_without_year_columns_gives_one_empty_row_per_record():
    rows, kwargs = EXPLICIT["no-year-columns"]
    *_, window, column_sums, read = ingest._read_report(report(rows, **kwargs), ReportFormat.TSV, "",
                                                        tuple)
    assert (len(window), column_sums, read) == (0, [], [(), ()])


BAD = {
    "bad-cell": report([("a", 2011, 3, [1, "2.5", 0, 0])]),
    "short-row": report([("a", 2011, 3, [1, 2])]),
    "bad-header": report(GROWING).replace(b"Total Citations", b"Totals"),
    "empty": report([]),
    "not-utf8": report(GROWING).replace(b"p1", b"p\xff"),
}


@pytest.mark.parametrize("name", BAD)
def test_a_bad_report_gives_the_same_error(name, tmp_path, capsys):
    with pytest.raises(PapertrailError) as parsed:
        parse_report(BAD[name])
    with pytest.raises(type(parsed.value)) as read:
        cohort._point_from_report("L", BAD[name], ReportFormat.TSV, AnalysisConfig())
    assert str(read.value) == str(parsed.value)

    (tmp_path / "bad.tsv").write_bytes(BAD[name])
    (tmp_path / "good.tsv").write_bytes(report(GROWING))
    (tmp_path / "m.tsv").write_text("BAD\tbad.tsv\nGOOD\tgood.tsv\n", encoding="utf-8")
    assert cli.main(["cohort", str(tmp_path / "m.tsv"), "--json", str(tmp_path / "c.json")]) == 0
    (diagnostic,) = json.loads((tmp_path / "c.json").read_text())["diagnostics"]
    assert diagnostic["error"] == str(parsed.value)
    assert capsys.readouterr().err == f"warning: skipped BAD: {parsed.value}\n"


def test_cohort_makes_no_record_and_skips_what_its_document_omits(tmp_path, records_made,
                                                                 call_counter):
    write_corpus(tmp_path)
    (tmp_path / "mismatch.tsv").write_bytes(report(*EXPLICIT["mismatching-totals"][:1]))
    with open(tmp_path / "cohort.manifest", "a", encoding="utf-8") as manifest:
        manifest.write("MISMATCH\tmismatch.tsv\n")
    calls, count = call_counter
    for name in ("best_lag", "_hcp_count", "flag_profile"):
        count(indicators, name)
    count(cli, "_mismatch_warnings")
    records_made.clear()  # the corpus's records

    assert cli.main(["cohort", str(tmp_path / "cohort.manifest"),
                     "--json", str(tmp_path / "cohort.json")]) == 0
    assert len(json.loads((tmp_path / "cohort.json").read_text())["points"]) == 14
    assert calls == {} and records_made == []

    # analyze on the same reports still gives the lag, the HCP count, the flags and the warnings
    documents = {}
    for name in ("pm0", "mismatch"):
        out = tmp_path / f"{name}.json"
        assert cli.main(["analyze", str(tmp_path / f"{name}.tsv"), "--json", str(out)]) == 0
        documents[name] = json.loads(out.read_text())
    indicator_values = documents["pm0"]["indicators"]
    assert indicator_values["lag_years"] == 0 and indicator_values["hcp_count"] > 0
    assert indicator_values["flags"] and documents["mismatch"]["warnings"]
    assert calls.keys() == {"best_lag", "_hcp_count", "flag_profile", "_mismatch_warnings"}
    assert records_made == []


def test_cohort_never_reads_a_row_and_analyze_still_warns(tmp_path, monkeypatch):
    # _read_report computes a value per row only for a per-row function; cohort passes none
    names = write_corpus(tmp_path)
    (tmp_path / "mismatch.tsv").write_bytes(report(*EXPLICIT["mismatching-totals"][:1]))
    with open(tmp_path / "cohort.manifest", "a", encoding="utf-8") as manifest:
        manifest.write("MISMATCH\tmismatch.tsv\n")
    returned, per_rows, read = [], [], []
    read_report = ingest._read_report

    def spy(data, fmt, default_name, per_row=None):
        *columns, rows = read_report(data, fmt, default_name, per_row)
        returned.append(data)
        per_rows.append(per_row)
        read.extend(rows or ())
        return (*columns, rows)
    monkeypatch.setattr(cohort, "_read_report", spy)
    monkeypatch.setattr(cli, "_read_report", spy)

    assert cli.main(["cohort", str(tmp_path / "cohort.manifest"),
                     "--json", str(tmp_path / "cohort.json")]) == 0
    assert len(returned) == len(json.loads((tmp_path / "cohort.json").read_text())["points"]) == 14
    assert per_rows == [None] * 14 and read == []

    # analyze reads every row of the same reports, and warns as parse_report does
    warned = 0
    for name in [*names, "mismatch"]:
        data, out = (tmp_path / f"{name}.tsv").read_bytes(), tmp_path / f"{name}.json"
        if cli.main(["analyze", str(tmp_path / f"{name}.tsv"), "--json", str(out)]) == 0:
            warnings = json.loads(out.read_text())["warnings"]
            assert warnings == parse_report(data, default_name=name).warnings
            warned += bool(warnings)
    assert per_rows[14:] == [sum] * len(returned[14:])
    assert read == [rec.window_sum for data in returned[14:] for rec in parse_report(data).records]
    assert warned == 1

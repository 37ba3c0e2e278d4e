"""``analyze`` from a report's columns equals the library's record pipeline.

``analyze`` reads each report with ``ingest._read_report`` and computes the
indicator set with ``indicators._analyze_columns``; it builds no record or
profile.  Its JSON document (without ``generated_at``) must equal
``build_report(parse_report(data, fmt), analyze_profile(profile, config))``
with every float equal bit for bit, its chart must equal ``profile_chart``
of that indicator set byte for byte, and a report that does not parse must
give the same error.  Its read keeps each record's window sum, never the
report's count matrix, which a memory bound pins.  No timing bound is asserted.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papertrail import cli, ingest
from papertrail.errors import PapertrailError
from papertrail.indicators import AnalysisConfig, analyze_profile
from papertrail.ingest import ReportFormat, parse_report, serialize_report
from papertrail.render import ChartStyle, profile_chart
from papertrail.synth import generate

from test_cohort_columns import BAD, EXPLICIT, report, reports
from test_golden import write_corpus
from test_synth_differential import WIDE_SPEC, traced_peak


def flags(config: AnalysisConfig) -> list[str]:
    """The command-line flags that give ``config`` (all others at their defaults)."""
    return [f"--r-min={config.r_min!r}", "--prefer-reported-h" if config.prefer_reported_h
            else "--no-prefer-reported-h"]


def library_outputs(data: bytes, fmt: ReportFormat, stem: str,
                    config: AnalysisConfig) -> tuple[dict, str]:
    """The document (without ``generated_at``) and chart of the record pipeline."""
    profile = parse_report(data, fmt, default_name=stem)
    ind = analyze_profile(profile, config)
    document = json.loads(cli._json_text(cli.build_report(profile, ind)))
    del document["generated_at"]
    style = ChartStyle(title=f"Times cited and publications over time: {profile.name}")
    return document, profile_chart(ind.series, ind, style)


def assert_same_outputs(directory, data: bytes, fmt: ReportFormat, config: AnalysisConfig) -> None:
    path = directory / f"r.{fmt.value}"
    path.write_bytes(data)
    out_json, out_svg = directory / "r.json", directory / "r.svg"
    assert cli.main(["analyze", str(path), "--json", str(out_json), "--svg", str(out_svg),
                     *flags(config)]) == 0
    document = json.loads(out_json.read_text(encoding="utf-8"))
    del document["generated_at"]
    expected_document, expected_svg = library_outputs(data, fmt, "r", config)
    # json reads back every float of the document exactly as it was written
    assert document == expected_document
    assert out_svg.read_text(encoding="utf-8") == expected_svg


NO_NAME = report(*EXPLICIT["tsv"][:1]).replace(b"# researcher\tR. Searcher\n", b"")


@pytest.mark.parametrize("name", [*EXPLICIT, "no-researcher-line"])
@pytest.mark.parametrize("prefer", [False, True])
@pytest.mark.parametrize("h", [None, 1, 10**6])  # absent, possible and impossible
def test_explicit_reports_give_the_same_outputs(name, prefer, h, tmp_path):
    if name == "no-researcher-line":
        data, fmt = NO_NAME, ReportFormat.TSV
        if h is not None:
            data = data.replace(b"Title\t", f"# h-index\t{h}\nTitle\t".encode(), 1)
    else:
        rows, kwargs = EXPLICIT[name]
        data, fmt = report(rows, h=h, **kwargs), kwargs.get("fmt", ReportFormat.TSV)
    assert parse_report(data, fmt).reported_h == h
    assert_same_outputs(tmp_path, data, fmt, AnalysisConfig(prefer_reported_h=prefer))


@settings(max_examples=200, deadline=None)
@given(case=reports(), prefer=st.booleans(), r_min=st.sampled_from([-0.5, 0.5]))
def test_any_report_gives_the_same_outputs(case, prefer, r_min, tmp_path_factory):
    data, fmt = case
    assert_same_outputs(tmp_path_factory.mktemp("analyze"), data, fmt,
                        AnalysisConfig(r_min=r_min, prefer_reported_h=prefer))


@pytest.mark.parametrize("name", BAD)
def test_a_bad_report_gives_the_same_error(name, tmp_path, capsys):
    with pytest.raises(PapertrailError) as parsed:
        parse_report(BAD[name])
    path = tmp_path / "bad.tsv"
    path.write_bytes(BAD[name])
    assert cli.main(["analyze", str(path), "--json", str(tmp_path / "r.json"),
                     "--svg", str(tmp_path / "r.svg")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {parsed.value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv"]


def test_no_command_makes_a_record(tmp_path, records_made):
    # no timing bound: analyze, cohort and synth compute from columns and rows
    names = write_corpus(tmp_path)
    (tmp_path / "mismatch.tsv").write_bytes(report(*EXPLICIT["mismatching-totals"][:1]))
    records_made.clear()  # the corpus's records
    documents = {}
    for name in [*names, "mismatch"]:
        out = tmp_path / f"{name}.json"
        code = cli.main(["analyze", str(tmp_path / f"{name}.tsv"), "--json", str(out),
                         "--svg", str(tmp_path / f"{name}.svg")])
        assert code == (1 if name == "badcell" else 0)
        documents[name] = json.loads(out.read_text()) if code == 0 else None
    assert documents["mismatch"]["warnings"] and documents["pm0"]["indicators"]["flags"]
    assert cli.main(["cohort", str(tmp_path / "cohort.manifest"), "--json",
                     str(tmp_path / "cohort.json"), "--svg-dir", str(tmp_path / "charts")]) == 0
    for archetype in ("papermill", "conscientious"):
        for suffix in ("tsv", "csv"):
            assert cli.main(["synth", "--archetype", archetype,
                             "-o", str(tmp_path / f"s.{suffix}")]) == 0
    assert records_made == []


def test_reading_a_wide_report_holds_one_chunk_of_its_cells():
    # analyze's read of the 2.2 MB wide report: holding a matrix of its 925k counts peaked at
    # about 11 times its bytes, its lines, one chunk of at most _BULK_CELLS cells and the row
    # sums at about 3
    data = serialize_report(generate(WIDE_SPEC))
    columns, peak = traced_peak(lambda: ingest._read_report(data, ReportFormat.TSV, "", sum))
    assert peak <= 5 * len(data)
    # the sums of every chunk, each over its own rows
    records = parse_report(data).records
    cited = Counter()
    for record in records:
        cited.update(record.citations_by_year)
    *_, window, column_sums, window_sums = columns
    assert column_sums == [cited[year] for year in window]
    assert window_sums == [record.window_sum for record in records]

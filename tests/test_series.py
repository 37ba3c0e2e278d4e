import random
from collections import Counter

import pytest

from papertrail.errors import EmptyProfileError
from papertrail.ingest import (
    PublicationRecord,
    ReportFormat,
    ResearcherProfile,
    parse_report,
    serialize_report,
)
from papertrail.series import AnnualSeries, build_series
from papertrail.synth import conscientious_spec, generate, papermill_spec

from conftest import random_profile, tsv


def profile_with(records):
    return ResearcherProfile(name="n", records=records)


class TestBuildSeries:
    def test_counting_with_gap_years(self):
        records = [
            PublicationRecord("a", 2010, 1, {2010: 1}),
            PublicationRecord("b", 2010, 1, {2011: 1}),
            PublicationRecord("c", 2012, 2, {2012: 1, 2013: 1}),
        ]
        s = build_series(profile_with(records))
        assert s.start_year == 2010
        assert s.pubs == (2, 0, 1, 0)
        assert s.cites == (1, 1, 1, 1)

    def test_single_record(self):
        s = build_series(profile_with([PublicationRecord("a", 2020, 3, {2020: 1, 2021: 2})]))
        assert s.start_year == 2020
        assert s.pubs == (1, 0)
        assert s.cites == (1, 2)

    def test_cites_equal_columnwise_sum_oracle(self):
        rng = random.Random(42)
        for _ in range(50):
            profile = random_profile(rng)
            s = build_series(profile)
            # independent per-year counts and sums over records
            expected = {}
            expected_pubs = {}
            for rec in profile.records:
                expected_pubs[rec.pub_year] = expected_pubs.get(rec.pub_year, 0) + 1
                for year, count in rec.citations_by_year.items():
                    expected[year] = expected.get(year, 0) + count
            for i, year in enumerate(s.years):
                assert s.cites[i] == expected.get(year, 0)
                assert s.pubs[i] == expected_pubs.get(year, 0)
            all_years = set(expected_pubs) | set(expected)
            assert (s.start_year, s.end_year) == (min(all_years), max(all_years))
            assert sum(s.pubs) == len(profile.records)
            assert sum(s.cites) == sum(r.window_sum for r in profile.records)

    def test_citations_before_first_pub_year_extend_downward(self):
        s = build_series(profile_with([PublicationRecord("a", 2010, 2, {2008: 1, 2010: 1})]))
        assert s.start_year == 2008
        assert s.cites == (1, 0, 1)
        assert s.pubs == (0, 0, 1)

    def test_empty_profile_rejected(self):
        with pytest.raises(EmptyProfileError):
            build_series(ResearcherProfile(name="n", records=[]))

    def test_deterministic(self):
        rng = random.Random(7)
        profile = random_profile(rng)
        assert build_series(profile) == build_series(profile)


@pytest.mark.parametrize("pubs,cites,message", [
    ((1, 2), (1,), "pubs and cites must have the same length"),
    ((), (), "series must cover at least one year"),
])
def test_series_rejects_invalid_shapes(pubs, cites, message):
    with pytest.raises(ValueError, match=message):
        AnnualSeries(2000, pubs, cites)



def walked_series(records) -> AnnualSeries:
    """The series by one walk over each record's per-year dict, without build_series's per-year
    totals."""
    pubs = Counter(rec.pub_year for rec in records)
    cites: dict[int, int] = {}
    for rec in records:
        for year, count in rec.citations_by_year.items():
            cites[year] = cites.get(year, 0) + count
    years = pubs.keys() | cites.keys()
    span = range(min(years), max(years) + 1)
    return AnnualSeries(span.start, tuple(pubs[y] for y in span), tuple(cites.get(y, 0) for y in span))


def record_lists(seed: int):
    """Parsed, generated, hand-built and mixed record lists, each with a label."""
    rng = random.Random(seed)
    built = random_profile(rng).records
    fmt = ReportFormat.CSV if seed % 2 else ReportFormat.TSV
    spec = papermill_spec(seed) if seed % 2 else conscientious_spec(seed)
    parsed = parse_report(serialize_report(profile_with(built), fmt), fmt).records
    generated = generate(spec).records
    parsed_generated = parse_report(serialize_report(profile_with(generated))).records
    yield "parsed", parsed
    yield "parsed-synth", parsed_generated
    yield "synth", generated
    yield "built", built
    yield "mixed", parsed_generated[:5] + built
    yield "two-reports", parsed + parsed_generated
    if len(parsed) > 1:
        yield "reordered", parsed[::-1]
        yield "subset", parsed[1:]
    yield "repeated", parsed * 2


@pytest.mark.parametrize("seed", range(12))
def test_column_sums_match_the_record_walk(seed):
    for label, records in record_lists(seed):
        assert build_series(profile_with(records)) == walked_series(records), label


@pytest.mark.parametrize("fmt", list(ReportFormat))
def test_column_sums_extend_the_range_before_the_first_publication(fmt):
    report = tsv("Title\tPublication Year\tTotal Citations\t2006\t2007\t2008\t2009\t2010\t2011",
                 "a\t2010\t3\t0\t1\t0\t0\t2\t0",
                 "b\t2011\t1\t0\t0\t0\t0\t0\t0")
    if fmt is ReportFormat.CSV:
        report = report.replace(b"\t", b",")
    records = parse_report(report, fmt).records
    s = build_series(profile_with(records))
    assert (s.start_year, s.pubs, s.cites) == (2007, (0, 0, 0, 1, 1), (1, 0, 0, 2, 0))
    assert s == walked_series(records)


def test_column_sums_of_a_report_without_year_columns():
    records = parse_report(tsv("Title\tPublication Year\tTotal Citations", "a\t2010\t3", "b\t2012\t0")).records
    assert build_series(profile_with(records)) == walked_series(records) == AnnualSeries(2010, (1, 0, 1), (0, 0, 0))

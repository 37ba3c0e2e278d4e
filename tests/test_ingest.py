import csv
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papertrail import ingest
from papertrail.errors import (
    EmptyProfileError,
    EncodingError,
    MalformedHeaderError,
    MalformedRowError,
    PapertrailError,
)
from papertrail.ingest import (
    _ECHO_LIMIT,
    MAX_COUNT,
    PublicationRecord,
    ReportFormat,
    ResearcherProfile,
    parse_report,
    serialize_report,
)

from conftest import profiles_equal_modulo_warnings, random_profile, tsv


class TestParse:
    def test_two_records_consistent_totals(self, two_record_tsv):
        profile = parse_report(two_record_tsv)
        assert len(profile.records) == 2
        assert profile.warnings == []
        first = profile.records[0]
        assert (first.title, first.pub_year, first.total_citations) == ("First paper", 2010, 5)
        assert first.citations_by_year == {2010: 2, 2011: 2, 2012: 1}
        assert profile.records[1].citations_by_year == {2011: 1, 2012: 2}

    def test_total_row_sum_mismatch_warns_but_keeps_record(self):
        data = tsv(
            "Title\tPublication Year\tTotal Citations\t2010\t2011\t2012",
            "First paper\t2010\t7\t2\t2\t1",
            "Second paper\t2011\t3\t0\t1\t2",
        )
        profile = parse_report(data)
        assert len(profile.records) == 2
        assert len(profile.warnings) == 1
        assert "7" in profile.warnings[0]
        # the declared total stays authoritative
        assert profile.records[0].total_citations == 7

    @pytest.mark.parametrize("title,shown", [
        ("t" * _ECHO_LIMIT, repr("t" * _ECHO_LIMIT)),
        ("t" * 5000, "(5000 characters)"),
        # each "\x01" shows as four characters, so eleven of them quote 44
        ("\x01" * 11, "(11 characters)"),
    ], ids=["at-the-bound", "5000-characters", "escaped"])
    def test_mismatch_warning_names_a_long_title_by_its_length(self, title, shown):
        lines = ["Title\tPublication Year\tTotal Citations\t2010", "ok\t2010\t1\t1", f"{title}\t2010\t2\t1"]
        profile = parse_report(tsv(*lines))
        assert profile.records[1].title == title
        assert profile.warnings == [f"record 2 ({shown}): year columns sum to 1 but total citations "
                                    "is 2; keeping the declared total as authoritative"]

    def test_header_but_no_records(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t2010\t2011")
        with pytest.raises(EmptyProfileError):
            parse_report(data)

    def test_metadata_lines(self):
        data = tsv(
            "# researcher\tJane Q. Scholar",
            "# id\tWOS-1234",
            "# h-index\t41",
            "Title\tPublication Year\tTotal Citations\t2015",
            "Only paper\t2015\t9\t9",
        )
        profile = parse_report(data)
        assert profile.name == "Jane Q. Scholar"
        assert profile.source_id == "WOS-1234"
        assert profile.reported_h == 41
        assert len(profile.records) == 1

    def test_name_defaults_to_caller_supplied_stem(self, two_record_tsv):
        profile = parse_report(two_record_tsv, default_name="r2_export")
        assert profile.name == "r2_export"

    def test_empty_default_name_gives_unknown(self, two_record_tsv):
        assert parse_report(two_record_tsv, default_name="").name == "unknown"

    def test_order_preserved(self):
        lines = ["Title\tPublication Year\tTotal Citations"]
        for k in range(20):
            lines.append(f"p{k}\t{2000 + k % 5}\t0")
        profile = parse_report(tsv(*lines))
        assert [rec.title for rec in profile.records] == [f"p{k}" for k in range(20)]

    def test_csv_variant_with_quoting(self):
        data = (
            '# researcher,"Last, First"\n'
            "Title,Publication Year,Total Citations,2020,2021\n"
            '"A title, with a comma",2020,3,1,2\n'
        ).encode()
        profile = parse_report(data, ReportFormat.CSV)
        assert profile.name == "Last, First"
        assert profile.records[0].title == "A title, with a comma"
        assert profile.records[0].citations_by_year == {2020: 1, 2021: 2}

    def test_zero_year_columns_is_valid(self):
        data = tsv(
            "Title\tPublication Year\tTotal Citations",
            "Uncited but counted\t2019\t12",
        )
        profile = parse_report(data)
        assert profile.records[0].citations_by_year == {}
        assert profile.records[0].total_citations == 12
        assert len(profile.warnings) == 1  # 12 != 0 window sum

    def test_bom_tolerated(self, two_record_tsv):
        assert len(parse_report(b"\xef\xbb\xbf" + two_record_tsv).records) == 2


class TestParseErrors:
    def test_non_contiguous_year_columns(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t2010\t2012", "x\t2010\t0\t0\t0")
        with pytest.raises(MalformedHeaderError):
            parse_report(data)

    def test_descending_year_columns(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t2012\t2011", "x\t2010\t0\t0\t0")
        with pytest.raises(MalformedHeaderError):
            parse_report(data)

    def test_wrong_column_count(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t2010", "x\t2010\t0\t0\t99")
        with pytest.raises(MalformedRowError):
            parse_report(data)

    def test_non_integer_count(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t2010", "x\t2010\tmany\t0")
        with pytest.raises(MalformedRowError):
            parse_report(data)

    def test_negative_count(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t2010", "x\t2010\t-3\t0")
        with pytest.raises(MalformedRowError):
            parse_report(data)

    @pytest.mark.parametrize("cells,message", [
        ([str(MAX_COUNT + 1), "0", "0"], "row 2: total citations is above 1000000000000 (13 digits)"),
        (["1", "0", "9" * 4000], "row 2: citation count for 2011 is above 1000000000000 (4000 digits)"),
        (["-1", "9" * 30, "0"], "row 2: total citations must be non-negative, got -1"),
        (["9" * 30, "-1", "0"], "row 2: total citations is above 1000000000000 (30 digits)"),
    ])
    def test_count_above_max_count_names_the_cell_without_echoing_it(self, cells, message):
        data = tsv("Title\tPublication Year\tTotal Citations\t2010\t2011", "\t".join(["x", "2010", *cells]))
        with pytest.raises(MalformedRowError) as exc:
            parse_report(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("cell,named_as", [
        ("9" * 5000, "is above {most} (5000 digits)"),  # int() refuses it for its length
        ("-" + "9" * 5000, "is negative (5000 digits)"),
        ("9" * 4000, "is above {most} (4000 digits)"),  # int() takes it
        ("x" * 5000, "(5000 characters) is not an integer"),
        ("9_" * 4999 + "9", "is above {most} (5000 digits)"),  # int() reads "_" between digits
    ], ids=["5000-digits", "negative", "4000-digits", "5000-characters", "5000-digits-grouped"])
    @pytest.mark.parametrize("lines,error,what,most", [
        (["Title\tPublication Year\tTotal Citations\t{}", "x\t2010\t1\t1"],
         MalformedHeaderError, "year column", 2100),
        (["# h-index\t{}", "Title\tPublication Year\tTotal Citations", "x\t2010\t1"],
         MalformedHeaderError, "row 1: h-index", MAX_COUNT),
        (["Title\tPublication Year\tTotal Citations\t2010", "x\t{}\t1\t1"],
         MalformedRowError, "row 2: publication year", 2100),
        (["Title\tPublication Year\tTotal Citations\t2010", "x\t2010\t{}\t1"],
         MalformedRowError, "row 2: total citations", MAX_COUNT),
        (["Title\tPublication Year\tTotal Citations\t2010\t2011", "x\t2010\t1\t1\t{}"],
         MalformedRowError, "row 2: citation count for 2011", MAX_COUNT),
    ], ids=["year-column", "h-index", "publication-year", "total", "year-cell"])
    def test_cell_over_the_echo_bound_is_named_by_its_size(self, lines, error, what, most,
                                                           cell, named_as):
        with pytest.raises(error) as exc:
            parse_report(tsv(*(line.format(cell) for line in lines)))
        message = str(exc.value)
        # a short message that names the row and the column, on every Python
        assert len(message) < 200
        assert message == f"{what} {named_as.format(most=most)}"

    def test_zero_padding_over_the_int_limit_reads_as_the_number(self):
        padding = "0" * 5000
        data = tsv("Title\tPublication Year\tTotal Citations\t2010", f"x\t{padding}2010\t{padding}7\t7")
        record = parse_report(data).records[0]
        assert (record.pub_year, record.total_citations, record.citations_by_year) == (2010, 7, {2010: 7})

    def test_counts_at_max_count_are_accepted_even_when_their_sum_is_above(self):
        top = str(MAX_COUNT)
        data = tsv("Title\tPublication Year\tTotal Citations\t2010\t2011", f"x\t2010\t{top}\t{top}\t{top}")
        profile = parse_report(data)
        assert profile.records[0].citations_by_year == {2010: MAX_COUNT, 2011: MAX_COUNT}
        assert len(profile.warnings) == 1

    def test_unparseable_year(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t2010", "x\tMMX\t0\t0")
        with pytest.raises(MalformedRowError):
            parse_report(data)

    def test_year_out_of_range(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t2010", "x\t1850\t0\t0")
        with pytest.raises(MalformedRowError):
            parse_report(data)

    @pytest.mark.parametrize("years", [["3000000"], ["2100", "2101"], ["1899", "1900"], ["-3"]])
    def test_contiguous_year_columns_out_of_range(self, years):
        data = tsv("\t".join(["Title", "Publication Year", "Total Citations", *years]),
                   "\t".join(["x", "2000", "0", *["0"] * len(years)]))
        with pytest.raises(MalformedHeaderError,
                           match=rf"^year columns {years[0]}\.\.{years[-1]} outside 1900\.\.2100$"):
            parse_report(data)

    def test_year_columns_at_the_range_edges(self):
        for year in ("1900", "2100"):
            data = tsv(f"Title\tPublication Year\tTotal Citations\t{year}", f"x\t{year}\t1\t1")
            assert parse_report(data).records[0].citations_by_year == {int(year): 1}

    def test_non_contiguous_out_of_range_keeps_the_contiguity_message(self):
        data = tsv("Title\tPublication Year\tTotal Citations\t1\t3000000", "x\t2000\t0\t0\t0")
        with pytest.raises(MalformedHeaderError, match="contiguous ascending; found 1 followed"):
            parse_report(data)

    def test_unknown_metadata_key(self):
        data = tsv("# orcid\t0000", "Title\tPublication Year\tTotal Citations")
        with pytest.raises(MalformedHeaderError):
            parse_report(data)

    def test_bad_reported_h(self):
        data = tsv("# h-index\tforty", "Title\tPublication Year\tTotal Citations")
        with pytest.raises(MalformedHeaderError):
            parse_report(data)
        negative = tsv("# h-index\t-1", "Title\tPublication Year\tTotal Citations")
        with pytest.raises(MalformedHeaderError) as exc:
            parse_report(negative)
        assert str(exc.value) == "row 1: h-index must be non-negative, got -1"

    def test_reported_h_bounded_like_the_count_cells(self):
        header = "Title\tPublication Year\tTotal Citations"
        assert parse_report(tsv(f"# h-index\t{MAX_COUNT}", header, "x\t2010\t1")).reported_h == MAX_COUNT
        with pytest.raises(MalformedHeaderError) as exc:
            parse_report(tsv(f"# h-index\t{MAX_COUNT + 1}", header, "x\t2010\t1"))
        assert str(exc.value) == "row 1: h-index is above 1000000000000 (13 digits)"

    def test_garbage_before_header(self):
        with pytest.raises(MalformedHeaderError):
            parse_report(tsv("just some text"))

    @pytest.mark.parametrize("cell,shown", [
        ("c" * _ECHO_LIMIT, repr("c" * _ECHO_LIMIT)),
        ("c" * 5000, "(5000 characters)"),
    ], ids=["at-the-bound", "5000-characters"])
    def test_cell_before_the_header_is_echoed_within_the_bound(self, cell, shown):
        with pytest.raises(MalformedHeaderError) as exc:
            parse_report(tsv(cell, "Title\tPublication Year\tTotal Citations"))
        assert str(exc.value) == f"row 1: expected metadata or header row, got {shown}"

    def test_missing_header_entirely(self):
        with pytest.raises(MalformedHeaderError):
            parse_report(b"")

    def test_not_utf8(self):
        with pytest.raises(EncodingError):
            parse_report(b"Title\xff\xfe\t2010")


@pytest.mark.parametrize("year", [1899, 2101, 3_000_000])
def test_record_rejects_cited_year_out_of_range(year):
    with pytest.raises(ValueError, match=f"^cited year must lie in 1900\\.\\.2100, got {year}$"):
        PublicationRecord("p", 2000, 1, {year: 1})


@pytest.mark.parametrize("pub_year,total,by_year,message", [
    (1899, 1, {}, "publication year must lie in 1900..2100, got 1899"),
    (2101, 1, {}, "publication year must lie in 1900..2100, got 2101"),
    (2000, -1, {}, "total citations must lie in 0..1000000000000, got -1"),
    (2000, 1, {2001: -1}, "citation count for year 2001 must lie in 0..1000000000000, got -1"),
    (2010.0, 1, {}, "publication year must be int, got float"),
    ("2010", 1, {}, "publication year must be int, got str"),
    (2000, 2.5, {}, "total citations must be int, got float"),
    (2000, True, {}, "total citations must be int, got bool"),
    (2000, MAX_COUNT + 1, {}, "total citations must lie in 0..1000000000000, got 1000000000001"),
    (2000, 1, {2010.9: 1}, "cited year must be int, got float"),
    (2000, 1, {"2011": 2}, "cited year must be int, got str"),
    (2000, 1, {2001: 1.7}, "citation count for year 2001 must be int, got float"),
    (2000, 1, {2001: MAX_COUNT + 1},
     "citation count for year 2001 must lie in 0..1000000000000, got 1000000000001"),
])
def test_record_rejects_invalid_fields(pub_year, total, by_year, message):
    with pytest.raises(ValueError, match=message):
        PublicationRecord("p", pub_year, total, by_year)


@pytest.mark.parametrize("title", [5, b"p", None], ids=["int", "bytes", "none"])
def test_record_rejects_a_title_that_is_not_a_str(title):
    with pytest.raises(ValueError, match=f"^title must be str, got {type(title).__name__}$"):
        PublicationRecord(title, 2000, 1)


def test_record_accepts_counts_at_max_count():
    record = PublicationRecord("p", 2000, MAX_COUNT, {2000: MAX_COUNT, 2001: MAX_COUNT})
    assert record.citations_by_year == {2000: MAX_COUNT, 2001: MAX_COUNT}


def test_record_is_unequal_to_what_is_not_a_record():
    rec = PublicationRecord("p", 2000, 1, {2000: 1})
    for other in (object(), None, (rec.title, rec.pub_year, rec.total_citations, rec.citations_by_year)):
        assert rec != other and other != rec
        assert rec.__eq__(other) is NotImplemented


def test_every_constructor_trims_the_counts_to_the_cited_span():
    # generate's records are checked in test_synth_differential
    data = tsv("Title\tPublication Year\tTotal Citations\t2008\t2009\t2010\t2011\t2012",
               "a\t2010\t4\t0\t3\t0\t1\t0",
               "b\t2010\t0\t0\t0\t0\t0\t0")
    parsed, parsed_empty = parse_report(data).records
    built = PublicationRecord("a", 2010, 4, {2012: 0, 2009: 3, 2008: 0, 2011: 1})
    built_empty = PublicationRecord("b", 2010, 0, {2011: 0})
    for rec in (parsed, built):
        assert (rec._years, rec._counts) == (range(2009, 2012), (3, 0, 1))
    for rec in (parsed_empty, built_empty):
        assert (len(rec._years), rec._counts) == (0, ())
    assert (parsed, parsed_empty) == (built, built_empty)


class TestSerialize:
    def test_round_trip_identity(self, two_record_tsv):
        profile = parse_report(two_record_tsv)
        again = parse_report(serialize_report(profile))
        assert profiles_equal_modulo_warnings(profile, again)

    def test_round_trip_preserves_bytes_of_records(self, two_record_tsv):
        profile = parse_report(two_record_tsv)
        once = serialize_report(profile)
        twice = serialize_report(parse_report(once))
        assert once == twice

    def test_empty_title_round_trips(self):
        profile = ResearcherProfile(
            name="n",
            records=[PublicationRecord("", 2018, 2, {2018: 2})],
        )
        again = parse_report(serialize_report(profile))
        assert again.records[0].title == ""
        assert profiles_equal_modulo_warnings(profile, again)

    def test_tab_in_title_raises(self):
        profile = ResearcherProfile(
            name="n",
            records=[PublicationRecord("bad\ttitle", 2018, 1, {2018: 1})],
        )
        with pytest.raises(ValueError) as exc:
            serialize_report(profile, ReportFormat.TSV)
        assert str(exc.value) == "record title holds '\\t', which the TSV flavor cannot carry"

    @pytest.mark.parametrize("fmt,char", [
        (ReportFormat.TSV, "\n"), (ReportFormat.TSV, "\r"), (ReportFormat.CSV, "\r"),
        (ReportFormat.CSV, "\0"),  # Python 3.10's csv reader refuses NUL
    ])
    def test_field_the_flavor_cannot_carry_raises(self, fmt, char):
        profile = ResearcherProfile(name="n", records=[PublicationRecord(f"a{char}b", 2018, 1, {2018: 1})])
        with pytest.raises(ValueError) as exc:
            serialize_report(profile, fmt)
        assert str(exc.value) == f"record title holds {char!r}, which the {fmt.name} flavor cannot carry"

    @pytest.mark.parametrize("fmt", list(ReportFormat))
    @pytest.mark.parametrize("field,what", [("title", "record title"),
                                            ("name", "researcher name"),
                                            ("source_id", "researcher id")])
    @pytest.mark.parametrize("text,char", [("a\ud800b", "\ud800"), ("\udfff", "\udfff"),
                                           ("x\ud83d\ude00", "\ud83d")],
                             ids=["high", "low", "pair"])
    def test_surrogate_raises_naming_the_field(self, fmt, field, what, text, char):
        # UTF-8 cannot encode a surrogate, alone or paired, so no flavor can carry one
        values = {"title": "t", "name": "n", "source_id": "i", field: text}
        profile = ResearcherProfile(name=values["name"], source_id=values["source_id"],
                                    records=[PublicationRecord(values["title"], 2018, 1, {2018: 1})])
        with pytest.raises(ValueError) as exc:
            serialize_report(profile, fmt)
        assert str(exc.value) == f"{what} holds {char!r}, which the {fmt.name} flavor cannot carry"

    @pytest.mark.parametrize("fmt", list(ReportFormat))
    @pytest.mark.parametrize("changes,message", [
        ({"name": ""}, "researcher name is empty"),
        ({"reported_h": -1}, "reported h-index must lie in 0..1000000000000, got -1"),
        ({"reported_h": MAX_COUNT + 1}, "reported h-index must lie in 0..1000000000000, got 1000000000001"),
        ({"records": []}, "profile has no records"),
        ({"name": 5}, "researcher name must be str, got int"),
        ({"name": None}, "researcher name must be str, got NoneType"),
        ({"source_id": 5}, "researcher id must be str, got int"),
        ({"reported_h": True}, "reported h-index must be int, got bool"),
        ({"reported_h": 2.0}, "reported h-index must be int, got float"),
        # a record whose title is not a str, made past the constructor, which refuses it
        ({"records": [ingest._record(5, 2018, 1, range(2018, 2019), (1,))]},
         "record title must be str, got int"),
    ], ids=["empty-name", "negative-h", "h-above-max-count", "no-records", "name-an-int",
            "name-none", "id-an-int", "h-a-bool", "h-a-float", "title-an-int"])
    def test_profile_that_would_not_read_back_raises(self, changes, message, fmt):
        # parse_report would read each of these back as another profile, or as none
        fields = {"name": "n", "records": [PublicationRecord("t", 2018, 1, {2018: 1})], **changes}
        with pytest.raises(ValueError, match=f"^{message}"):
            serialize_report(ResearcherProfile(**fields), fmt)

    @pytest.mark.parametrize("fmt", list(ReportFormat))
    def test_reported_h_at_max_count_round_trips(self, fmt):
        profile = ResearcherProfile(name="n", reported_h=MAX_COUNT,
                                    records=[PublicationRecord("t", 2018, 1, {2018: 1})])
        assert parse_report(serialize_report(profile, fmt), fmt).reported_h == MAX_COUNT

    def test_csv_keeps_tabs_and_commas_exactly(self):
        profile = ResearcherProfile(
            name="Comma, Name",
            records=[PublicationRecord('has "quotes", commas', 2018, 1, {2018: 1})],
        )
        again = parse_report(serialize_report(profile, ReportFormat.CSV), ReportFormat.CSV)
        assert profiles_equal_modulo_warnings(profile, again)

    def test_csv_field_at_the_limit_round_trips(self):
        limit = csv.field_size_limit()
        profile = ResearcherProfile(
            name="n" * limit, source_id="i" * limit,
            records=[PublicationRecord("t" * limit, 2018, 1, {2018: 1})],
        )
        again = parse_report(serialize_report(profile, ReportFormat.CSV), ReportFormat.CSV)
        assert profiles_equal_modulo_warnings(profile, again)

    @pytest.mark.parametrize("field,what", [("title", "record title"),
                                            ("name", "researcher name"),
                                            ("source_id", "researcher id")])
    def test_csv_field_over_the_limit_raises(self, field, what):
        values = {"title": "t", "name": "n", "source_id": "i"}
        values[field] *= csv.field_size_limit() + 1
        profile = ResearcherProfile(
            name=values["name"], source_id=values["source_id"],
            records=[PublicationRecord(values["title"], 2018, 1, {2018: 1})],
        )
        with pytest.raises(ValueError, match=f"^{what} is longer than the CSV field limit"):
            serialize_report(profile, ReportFormat.CSV)

    def test_tsv_field_over_the_csv_limit_round_trips(self):
        long = "t" * (csv.field_size_limit() + 1)
        profile = ResearcherProfile(name=long, records=[PublicationRecord(long, 2018, 1, {2018: 1})])
        again = parse_report(serialize_report(profile, ReportFormat.TSV), ReportFormat.TSV)
        assert profiles_equal_modulo_warnings(profile, again)

    def test_window_covers_all_cited_years(self):
        profile = ResearcherProfile(
            name="n",
            records=[
                PublicationRecord("a", 2000, 1, {2003: 1}),
                PublicationRecord("b", 2001, 2, {2001: 1, 2006: 1}),
            ],
        )
        text = serialize_report(profile).decode()
        header = [l for l in text.splitlines() if l.startswith("Title")][0]
        assert header.split("\t")[3:] == [str(y) for y in range(2001, 2007)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 63))
    def test_round_trip_random_profiles(self, seed):
        rng = random.Random(seed)
        profile = random_profile(rng)
        for fmt in ReportFormat:
            again = parse_report(serialize_report(profile, fmt), fmt)
            assert profiles_equal_modulo_warnings(profile, again)


# field text with the characters TSV cannot carry, CR, a lone surrogate (no flavor carries one, and
# st.characters() alone draws one too rarely to reach the title check) and any other code point
field_text = st.text(st.sampled_from("\t\r\n,\"\udc80") | st.characters(), max_size=8)


@st.composite
def write_rule_profiles(draw):
    records = []
    for _ in range(draw(st.integers(0, 3))):
        pub_year = draw(st.integers(2000, 2010))
        by_year = draw(st.dictionaries(st.integers(pub_year, pub_year + 3), st.integers(0, 5), max_size=3))
        records.append(PublicationRecord(draw(field_text), pub_year, sum(by_year.values()), by_year))
    return ResearcherProfile(
        name=draw(field_text),
        source_id=draw(st.none() | field_text),
        reported_h=draw(st.none() | st.integers(-2, MAX_COUNT + 2)),
        records=records,
    )


@settings(max_examples=400, deadline=None)
@given(write_rule_profiles(), st.sampled_from(list(ReportFormat)))
def test_serialize_writes_only_what_parse_reads_back(profile, fmt):
    try:
        data = serialize_report(profile, fmt)
    except ValueError as exc:
        assert not isinstance(exc, UnicodeError)  # raised by the checks, not by the encoder
        return
    assert profiles_equal_modulo_warnings(parse_report(data, fmt, default_name=""), profile)


class TestTotality:
    """Any byte input must land in a profile or a declared error."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash(self, data):
        try:
            profile = parse_report(data)
            assert profile.records
        except PapertrailError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300), st.sampled_from(list(ReportFormat)))
    def test_mutated_documents_never_crash(self, noise, fmt):
        base = bytearray(
            b"# researcher\tA\nTitle\tPublication Year\tTotal Citations\t2010\t2011\n"
            b"p\t2010\t3\t1\t2\n"
        )
        base.extend(noise)
        try:
            parse_report(bytes(base), fmt)
        except PapertrailError:
            pass

"""Differential tests: the fast write path against the reference ``generate`` and ``serialize_report``.

``generate`` must give the same records as the reference, and
``serialize_report`` the same bytes in both formats.  The one intended
difference: where the reference sanitizes a field with a warning, writes a
file that does not read back as the profile, or writes a CR in a CSV field,
``serialize_report`` raises ValueError instead.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papertrail import ingest
from papertrail.errors import PapertrailError
from papertrail.ingest import (
    MAX_COUNT,
    PublicationRecord,
    ReportFormat,
    ResearcherProfile,
    parse_report,
    serialize_report,
)
from papertrail.synth import _enforce_peak, conscientious_spec, generate, papermill_spec

from conftest import profiles_equal_modulo_warnings
import reference_synth

# the synth-write benchmark profile: 11,703 records over 76 year columns
WIDE_SPEC = conscientious_spec(1, n_years=60, peak_rate=400, start_year=1960)


def assert_same_output(spec):
    profile = generate(spec)
    assert profile == reference_synth.generate(spec)
    for fmt in ReportFormat:
        assert serialize_report(profile, fmt) == reference_synth.serialize_report(profile, fmt)


@pytest.mark.parametrize("make_spec", [conscientious_spec, papermill_spec])
def test_generate_and_serialize_match_reference(make_spec):
    for seed in range(50):
        assert_same_output(make_spec(seed))


def test_wide_profile_matches_reference():
    assert_same_output(WIDE_SPEC)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.data())
def test_enforce_peak_matches_reference(counts, data):
    # small bins make ties between rivals, and with the peak, common
    peak = data.draw(st.integers(0, len(counts) - 1))
    assert _enforce_peak(list(counts), peak) == reference_synth._enforce_peak(list(counts), peak)


# titles and names with every character the TSV flavor sanitizes or CSV quotes
text = st.text(alphabet="ab Z9é\t\n\r,\";", max_size=10)


@st.composite
def profiles(draw):
    uncited = draw(st.booleans())
    records = []
    for _ in range(draw(st.integers(0, 6))):
        pub_year = draw(st.integers(1950, 2030))
        # cited years may precede the publication year, and counts may be zero
        by_year = {} if uncited else draw(st.dictionaries(
            st.integers(pub_year - 5, pub_year + 20), st.integers(0, 500), max_size=6
        ))
        total = sum(by_year.values()) + draw(st.integers(0, 30))
        records.append(PublicationRecord(draw(text), pub_year, total, by_year))
    return ResearcherProfile(
        name=draw(text),
        source_id=draw(st.none() | text),
        reported_h=draw(st.none() | st.integers(0, 100)),
        records=records,
    )


def reads_back(data: bytes, profile: ResearcherProfile, fmt: ReportFormat) -> bool:
    try:
        return profiles_equal_modulo_warnings(parse_report(data, fmt, default_name=""), profile)
    except PapertrailError:
        return False


@settings(max_examples=400, deadline=None)
@given(profiles(), st.sampled_from(list(ReportFormat)))
def test_serialize_matches_reference(profile, fmt):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = reference_synth.serialize_report(profile, fmt)
    try:
        data = serialize_report(profile, fmt)
    except ValueError:
        # a CR in a CSV field reads back only where the csv writer happens to quote the field
        cr_in_csv = fmt is ReportFormat.CSV and any(
            "\r" in field for field in [profile.name, profile.source_id or "",
                                        *(rec.title for rec in profile.records)])
        assert caught or cr_in_csv or not reads_back(expected, profile, fmt)
    else:
        assert data == expected
        assert not caught


@pytest.mark.parametrize("fmt", list(ReportFormat))
def test_profile_without_cited_years(fmt):
    profile = ResearcherProfile(
        name="n", source_id="id", reported_h=0,
        records=[PublicationRecord("t", 2001, 4), PublicationRecord("u", 2003, 0)],
    )
    data = serialize_report(profile, fmt)
    assert data == reference_synth.serialize_report(profile, fmt)
    assert data.decode().splitlines()[3] in ("Title\tPublication Year\tTotal Citations",
                                             "Title,Publication Year,Total Citations")


# what serialize_report must write like the reference: rows of parsed matrices (whose edge
# columns may hold zeros), synth rows, hand-built records, and counts around the _TEXT table
COUNTS = [0, 0, 0, 1, 7, 255, 256, 1000, MAX_COUNT]


def assert_writes_like_reference(records):
    profile = ResearcherProfile(name="n", source_id="id", records=records)
    for fmt in ReportFormat:
        assert serialize_report(profile, fmt) == reference_synth.serialize_report(profile, fmt)


def parsed_records(rng: random.Random, n_records: int) -> list[PublicationRecord]:
    """The records of a parsed report over a random window, with edge cells often zero."""
    start = rng.randint(1950, 2020)
    years = range(start, start + rng.randint(0, 12))
    lines = ["Title\tPublication Year\tTotal Citations" + "".join(f"\t{y}" for y in years)]
    for n in range(n_records):
        cells = [rng.choice(COUNTS) for _ in years]
        lines.append(f"p{n}\t{rng.randint(1950, 2030)}\t{rng.choice(COUNTS)}"
                     + "".join(f"\t{c}" for c in cells))
    return parse_report("\n".join(lines).encode()).records


def built_record(rng: random.Random, n: int) -> PublicationRecord:
    pub_year = rng.randint(1950, 2030)
    cited = rng.sample(range(1940, 2040), rng.randint(0, 5))
    by_year = {year: rng.choice(COUNTS) for year in cited}
    return PublicationRecord(f"b{n}", pub_year, rng.choice(COUNTS), by_year)


@pytest.mark.parametrize("seed", range(150))
def test_serialize_mixed_records_matches_reference(seed):
    rng = random.Random(seed)
    synth = generate(papermill_spec(seed, cites_per_paper=rng.choice([1e-9, 3.0, 500.0]))).records
    pool = [*parsed_records(rng, rng.randint(1, 6)), *parsed_records(rng, rng.randint(1, 6)),
            *rng.sample(synth, 4), *(built_record(rng, n) for n in range(rng.randint(0, 4)))]
    # whole reports, subsets in another order, and mixtures
    assert_writes_like_reference(parsed_records(rng, rng.randint(1, 6)))
    assert_writes_like_reference(rng.sample(pool, rng.randint(1, len(pool))))


@pytest.mark.parametrize("cells", [[0, 0, 3, 0, 5, 0, 0], [0, 4], [4, 0], [0, 0], [9], []])
def test_one_record_report_with_zero_edge_columns(cells):
    # the record owns its whole matrix, yet its row is not trimmed to its cited years
    years = range(2000, 2000 + len(cells))
    report = ("Title\tPublication Year\tTotal Citations" + "".join(f"\t{y}" for y in years)
              + f"\nonly\t2001\t{sum(cells)}" + "".join(f"\t{c}" for c in cells) + "\n")
    records = parse_report(report.encode()).records
    assert_writes_like_reference(records)
    header = serialize_report(ResearcherProfile(name="n", records=records)).decode().split("\n")[1]
    cited = [year for year, count in zip(years, cells) if count]
    window = range(cited[0], cited[-1] + 1) if cited else range(0)
    assert header.split("\t")[3:] == list(map(str, window))


def test_counts_around_the_text_table():
    records = [PublicationRecord(f"c{count}", 2000, count, {2000: count, 2003: 1})
               for count in (254, 255, 256, 10**6, MAX_COUNT)]
    assert_writes_like_reference(records)
    assert_writes_like_reference(parse_report(serialize_report(
        ResearcherProfile(name="n", records=records))).records)


@pytest.mark.parametrize("make_spec", [conscientious_spec, papermill_spec])
def test_rows_of_a_synth_profile_citing_almost_nothing(make_spec):
    for seed in range(3):
        profile = generate(make_spec(seed, cites_per_paper=1e-9))
        assert_writes_like_reference(profile.records)
        assert_writes_like_reference(profile.records[::-1] + parsed_records(random.Random(seed), 3))


@pytest.mark.parametrize("spec", [conscientious_spec(0, cites_per_paper=1e-9),
                                  papermill_spec(0, cites_per_paper=1e-9), WIDE_SPEC,
                                  *(make(seed) for seed in range(5)
                                    for make in (conscientious_spec, papermill_spec))])
def test_synth_rows_are_trimmed_and_written_without_column_sums(spec, monkeypatch):
    # no timing bound: a synth row runs from its first to its last cited year, so the window
    # is the union of the rows as they are, and the writer needs no per-year totals
    profile = generate(spec)
    for rec in profile.records:
        cells = rec._cells()
        assert cells == [] and not rec._years or cells[0] and cells[-1]
        assert rec._span() is rec._years

    def refuse(records):
        raise AssertionError("serialize_report summed the columns")

    monkeypatch.setattr(ingest, "_citation_totals", refuse)
    for fmt in ReportFormat:
        assert serialize_report(profile, fmt) == reference_synth.serialize_report(profile, fmt)

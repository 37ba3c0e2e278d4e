"""Differential tests: the fast write path against the reference ``generate`` and ``serialize_report``.

``generate`` must give the same records as the reference, and
``serialize_report`` the same bytes in both formats.  The one intended
difference: where the reference sanitizes a field with a warning, writes a
file that does not read back as the profile, or writes a CR in a CSV field,
``serialize_report`` raises ValueError instead.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papertrail.errors import PapertrailError
from papertrail.ingest import (
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

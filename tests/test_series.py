import random

import pytest

from papertrail.errors import EmptyProfileError
from papertrail.ingest import PublicationRecord, ResearcherProfile
from papertrail.series import AnnualSeries, build_series

from conftest import random_profile


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


import math
import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papertrail.errors import (
    AllDegenerateError,
    HExceedsPublicationsError,
    LengthMismatchError,
    TooShortError,
    ZeroPublicationsError,
)
from papertrail.indicators import (
    DEFAULT_HCP_THRESHOLDS,
    AnalysisConfig,
    IndicatorSet,
    Signal,
    SignalKind,
    _h_index,
    analyze_profile,
    best_lag,
    flag_profile,
    h_index,
    hcp_count,
    i_index,
    pearson,
    round_half_up,
    yearly_stats,
)
from papertrail.ingest import PublicationRecord, ResearcherProfile
from papertrail.series import AnnualSeries, build_series

from conftest import make_profile
from reference_flags import flag_profile as reference_flag_profile
from reference_indicators import _h_index as reference_h_index
from reference_indicators import pearson as reference_pearson

# independently computed with exact rationals: r = sqrt(1152/1265)
PEARSON_ORACLE_1248 = 0.9542913269850529


def records_with_totals(totals):
    return [PublicationRecord(f"p{i}", 2020, t, {2020: t} if t else {}) for i, t in enumerate(totals)]


class TestPearson:
    def test_exact_positive_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_exact_negative_linearity(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_zero_variance_is_undefined(self):
        assert pearson([4, 4, 4], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [7, 7, 7]) is None

    def test_textbook_formula_oracle(self):
        assert pearson([1, 2, 4, 8], [0, 1, 1, 6]) == pytest.approx(
            PEARSON_ORACLE_1248, abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(TooShortError):
            pearson([1], [2])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 1000), min_size=2, max_size=40),
        st.data(),
    )
    def test_properties(self, x, data):
        y = data.draw(st.lists(st.integers(0, 1000), min_size=len(x), max_size=len(x)))
        r = pearson(x, y)
        if r is None:
            return
        assert abs(r) <= 1 + 1e-12
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)
        a = data.draw(st.floats(0.01, 100.0, allow_nan=False))
        b = data.draw(st.floats(-1000.0, 1000.0, allow_nan=False))
        assert pearson([a * v + b for v in x], y) == pytest.approx(r, abs=1e-12)


# int series as the indicators see them: random counts, one count repeated, or a few counts tied
int_series = st.one_of(
    st.lists(st.integers(0, 10**6), min_size=2, max_size=60),
    st.builds(lambda value, n: [value] * n, st.integers(0, 10**6), st.integers(2, 60)),
    st.lists(st.sampled_from([0, 1, 7, 255]), min_size=2, max_size=60),
)


class TestMatchesReference:
    """``pearson`` and ``_h_index`` against the comprehension versions they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(int_series, st.data())
    def test_pearson_is_bit_identical(self, x, data):
        y = data.draw(st.one_of(
            st.lists(st.integers(0, 10**6), min_size=len(x), max_size=len(x)),
            st.just(x), st.just(x[::-1]), st.just([x[0]] * len(x))))
        expected = reference_pearson(x, y)
        r = pearson(x, y)
        assert (r if r is None else r.hex()) == (expected if expected is None else expected.hex())

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.lists(st.integers(0, 10**6), max_size=200), int_series))
    def test_h_index_is_equal(self, totals):
        assert _h_index(totals) == reference_h_index(totals)


class TestBestLag:
    def test_pulse_at_lag_two(self):
        series = AnnualSeries(2000, (0, 10, 0, 0, 0, 0), (0, 0, 0, 10, 0, 0))
        assert best_lag(series, 3) == (2, pytest.approx(1.0))

    def test_identical_series_lag_zero(self):
        series = AnnualSeries(2000, (1, 5, 2, 8, 3, 9), (1, 5, 2, 8, 3, 9))
        lag, r = best_lag(series, 3)
        assert lag == 0
        assert r == pytest.approx(1.0)

    def test_constant_cites_all_degenerate(self):
        series = AnnualSeries(2000, (1, 5, 2, 8, 3, 9), (4, 4, 4, 4, 4, 4))
        with pytest.raises(AllDegenerateError):
            best_lag(series, 3)

    def test_too_short_for_max_lag(self):
        series = AnnualSeries(2000, (1, 2, 3, 4), (1, 2, 3, 4))
        with pytest.raises(TooShortError):
            best_lag(series, 2)

    def test_negative_max_lag_rejected(self):
        series = AnnualSeries(2000, (1, 2, 3, 4), (1, 2, 3, 4))
        with pytest.raises(ValueError, match="^max_lag must be at least 0, got -1$"):
            best_lag(series, -1)

    def test_tie_breaks_to_smallest_lag(self):
        # constant-by-shift series: every lag correlates identically
        series = AnnualSeries(2000, (1, 2) * 5, (1, 2) * 5)
        assert best_lag(series, 4).lag == 0

    def test_matches_exhaustive_scan_oracle(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(8, 30)
            max_lag = rng.randint(0, min(10, n - 3))
            pubs = tuple(rng.randint(0, 20) for _ in range(n))
            cites = tuple(rng.randint(0, 50) for _ in range(n))
            series = AnnualSeries(2000, pubs, cites)
            oracle_best = None
            for d in range(max_lag + 1):
                try:
                    r = statistics.correlation(pubs[: n - d], cites[d:])
                except statistics.StatisticsError:
                    continue
                if oracle_best is None or r > oracle_best[1] + 1e-12:
                    oracle_best = (d, r)
            if oracle_best is None:
                with pytest.raises(AllDegenerateError):
                    best_lag(series, max_lag)
                continue
            got = best_lag(series, max_lag)
            assert got.lag == oracle_best[0]
            assert got.r_at_lag == pytest.approx(oracle_best[1], abs=1e-9)


class TestHIndex:
    def test_empty(self):
        assert h_index([]) == 0

    def test_known_values(self):
        assert h_index(records_with_totals([10, 8, 5, 4, 3])) == 4
        assert h_index(records_with_totals([0, 0, 0])) == 0
        assert h_index(records_with_totals([3, 3, 3])) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 500), max_size=200))
    def test_matches_definition_by_enumeration(self, totals):
        records = records_with_totals(totals)
        brute = 0
        for h in range(len(totals) + 1):
            if sum(1 for t in totals if t >= h) >= h:
                brute = h
        assert h_index(records) == brute
        assert 0 <= h_index(records) <= len(totals)


class TestIIndex:
    def test_paper_values(self):
        assert i_index(32, 64) == 0.5
        assert i_index(34, 384) == pytest.approx(34 / 384, abs=1e-12)
        assert round_half_up(i_index(34, 384), 2) == 0.09
        assert round_half_up(i_index(86, 196), 2) == 0.44

    def test_zero_h(self):
        assert i_index(0, 10) == 0.0

    def test_errors(self):
        with pytest.raises(ZeroPublicationsError):
            i_index(0, 0)
        with pytest.raises(HExceedsPublicationsError):
            i_index(11, 10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 500), st.data())
    def test_strictly_decreasing_in_p(self, h, data):
        p1 = data.draw(st.integers(h, 1000))
        p2 = data.draw(st.integers(p1 + 1, 2000))
        if h >= 1:
            assert i_index(h, p2) < i_index(h, p1)
        assert 0.0 <= i_index(h, p1) <= 1.0


class TestHcpCount:
    def test_threshold_boundaries_paper_values(self):
        assert hcp_count(records_with_year_total(2022, 30)) == 1
        assert hcp_count(records_with_year_total(2022, 29)) == 0
        assert hcp_count(records_with_year_total(2025, 3)) == 1

    def test_year_outside_table_never_counts(self):
        assert hcp_count(records_with_year_total(1999, 10000)) == 0

    def test_custom_table(self):
        recs = records_with_year_total(1999, 10)
        assert hcp_count(recs, {1999: 10}) == 1
        assert hcp_count(recs, {1999: 11}) == 0

    def test_monotone_in_citations(self):
        rng = random.Random(5)
        for _ in range(50):
            year = rng.choice(list(DEFAULT_HCP_THRESHOLDS))
            totals = [rng.randint(0, 120) for _ in range(10)]
            recs = [PublicationRecord("p", year, t, {}) for t in totals]
            before = hcp_count(recs)
            bumped = [PublicationRecord("p", year, t + rng.randint(0, 40), {}) for t in totals]
            assert hcp_count(bumped) >= before


def records_with_year_total(year, total):
    return [PublicationRecord("p", year, total, {})]


class TestYearlyStats:
    def test_mixed(self):
        s = AnnualSeries(2010, (2, 0, 1, 0), (0, 0, 0, 0))
        assert yearly_stats(s) == (2, 0, 0.75)

    def test_single_year(self):
        s = AnnualSeries(2010, (5,), (0,))
        assert yearly_stats(s) == (5, 5, 5.0)

    def test_matches_direct_recomputation(self):
        rng = random.Random(11)
        pubs = tuple(rng.randint(0, 40) for _ in range(17))
        s = AnnualSeries(2000, pubs, tuple(0 for _ in pubs))
        stats = yearly_stats(s)
        assert stats.max_pubs == max(pubs)
        assert stats.min_pubs == min(pubs)
        assert stats.avg_pubs == pytest.approx(sum(pubs) / len(pubs), abs=1e-12)


DECLINING_SERIES = AnnualSeries(2000, (5, 9, 7, 4, 3, 2, 1, 1), (1, 2, 3, 4, 5, 6, 7, 8))


def indicator_set(r=None, lag=None, h=10, i=0.5, max_pubs=5, total_pubs=20,
                  series=DECLINING_SERIES):
    return IndicatorSet(
        r=r, lag=lag, h=h, i_index=i, total_pubs=total_pubs, total_cites=100,
        max_pubs_year=max_pubs, min_pubs_year=0, avg_pubs_year=2.0,
        avg_cites_per_paper=5.0, start_year=2000, hcp_count=0, series=series,
    )


class TestFlagProfile:
    def test_papermill_style_values(self):
        ind = indicator_set(r=0.94, lag=0, i=0.08, max_pubs=45)
        kinds = {s.kind for s in flag_profile(ind)}
        assert kinds == {
            SignalKind.HIGH_CORRELATION,
            SignalKind.ZERO_LAG,
            SignalKind.LOW_INTEGRITY,
            SignalKind.EXCESSIVE_ANNUAL_OUTPUT,
        }

    def test_conscientious_style_values(self):
        ind = indicator_set(r=-0.23, lag=None, i=0.44, max_pubs=19)
        assert flag_profile(ind) == []

    def test_strict_boundary_checks(self):
        ind = indicator_set(r=0.51, lag=None, i=0.29, max_pubs=3)
        kinds = {s.kind for s in flag_profile(ind)}
        assert kinds == {SignalKind.HIGH_CORRELATION, SignalKind.LOW_INTEGRITY}

    def test_boundaries_are_exclusive(self):
        ind = indicator_set(r=0.5, lag=0, i=0.3, max_pubs=29)
        assert flag_profile(ind) == []

    def test_zero_lag_requires_high_correlation(self):
        ind = indicator_set(r=0.2, lag=0, i=0.5)
        assert flag_profile(ind) == []

    def test_monotone_growth(self):
        series = AnnualSeries(2000, (1, 1, 1, 2, 3, 4, 5, 6), (0,) * 8)
        ind = indicator_set(i=0.9, max_pubs=6, series=series)
        kinds = {s.kind for s in flag_profile(ind)}
        assert kinds == {SignalKind.MONOTONE_GROWTH}

    def test_monotone_growth_needs_a_strict_increase(self):
        series = AnnualSeries(2000, (1, 1, 6, 6, 6, 6, 6, 6), (0,) * 8)
        ind = indicator_set(i=0.9, max_pubs=6, series=series)
        assert flag_profile(ind) == []

    @pytest.mark.parametrize("ind,config,details", [
        (indicator_set(r=0.94, lag=0, i=0.08, max_pubs=45), AnalysisConfig(), [
            (SignalKind.HIGH_CORRELATION, "publications/citations correlation 0.9400 exceeds 0.5"),
            (SignalKind.ZERO_LAG,
             "citations track publications with lag 0 year(s) (<= 0) despite strong correlation"),
            (SignalKind.LOW_INTEGRITY, "integrity index 0.0800 below 0.3"),
            (SignalKind.EXCESSIVE_ANNUAL_OUTPUT, "45 papers in a single year (limit 30)"),
        ]),
        (indicator_set(r=0.123456, lag=2, i=0.29999, max_pubs=7),
         AnalysisConfig(r_min=0, i_max=0.3, pubs_per_year_limit=7), [
            (SignalKind.HIGH_CORRELATION, "publications/citations correlation 0.1235 exceeds 0"),
            (SignalKind.LOW_INTEGRITY, "integrity index 0.3000 below 0.3"),
            (SignalKind.EXCESSIVE_ANNUAL_OUTPUT, "7 papers in a single year (limit 7)"),
        ]),
        (indicator_set(i=0.9, max_pubs=6, series=AnnualSeries(2000, (1, 1, 1, 2, 3, 4, 5, 6),
                                                              (0,) * 8)),
         AnalysisConfig(growth_window=3), [
            (SignalKind.MONOTONE_GROWTH, "publication counts non-decreasing over the last 3 "
                                         "years, ending at 6 (career mean 2.00)"),
        ]),
    ], ids=["papermill", "loose-thresholds", "monotone-growth"])
    def test_details(self, ind, config, details):
        assert flag_profile(ind, config) == [Signal(kind, detail) for kind, detail in details]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        pubs = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
        r = data.draw(st.none() | st.floats(-1, 1))
        lag = data.draw(st.none() | st.integers(0, 3))
        i = data.draw(st.floats(0, 1))
        max_pubs = data.draw(st.integers(0, 40))
        avg_pubs = data.draw(st.floats(0, 40) | st.sampled_from(pubs))
        ind = replace(indicator_set(r=r, lag=lag, i=i, max_pubs=max_pubs,
                                    series=AnnualSeries(2000, tuple(pubs), (0,) * len(pubs))),
                      avg_pubs_year=avg_pubs)
        # each threshold is drawn at random or equal to its value, so both sides of each bound run
        config = AnalysisConfig(
            r_min=data.draw(st.floats(-1, 1, exclude_min=True, exclude_max=True)
                            | st.sampled_from([0, r if r is not None and abs(r) < 1 else 0.5])),
            i_max=data.draw(st.floats(0, 1, exclude_min=True, exclude_max=True)
                            | st.sampled_from([i if 0 < i < 1 else 0.3])),
            pubs_per_year_limit=data.draw(st.integers(1, 41) | st.just(max(max_pubs, 1))),
            growth_window=data.draw(st.integers(0, 13)),
        )
        assert flag_profile(ind, config) == reference_flag_profile(ind, config)

    def test_loosening_thresholds_never_removes_signals(self):
        rng = random.Random(99)
        for _ in range(50):
            ind = indicator_set(
                r=rng.uniform(-1, 1), lag=rng.choice([None, 0, 1, 3]),
                i=rng.uniform(0, 1), max_pubs=rng.randint(0, 60),
            )
            tight = AnalysisConfig()
            loose = AnalysisConfig(
                r_min=tight.r_min - 0.2, i_max=tight.i_max + 0.2,
                pubs_per_year_limit=tight.pubs_per_year_limit - 10,
            )
            tight_kinds = {s.kind for s in flag_profile(ind, tight)}
            loose_kinds = {s.kind for s in flag_profile(ind, loose)}
            assert tight_kinds <= loose_kinds


class TestAnalyzeProfile:
    def test_single_record_profile(self):
        profile = make_profile({2020: [1]})
        ind = analyze_profile(profile)
        assert ind.h == 1
        assert ind.i_index == 1.0
        assert ind.r is None  # one-year series: too short
        assert ind.lag is None
        assert ind.flags == ()
        assert ind.start_year == 2020

    def test_composition_fields(self):
        profile = make_profile({2010: [4, 0], 2011: [9], 2014: [2]})
        ind = analyze_profile(profile)
        assert ind.total_pubs == 4
        assert ind.total_cites == 15
        assert ind.avg_cites_per_paper == pytest.approx(15 / 4)
        assert ind.max_pubs_year == 2
        assert ind.min_pubs_year == 0
        assert ind.avg_pubs_year == pytest.approx(4 / 5)
        assert ind.i_index == ind.h / ind.total_pubs

    def test_lag_only_reported_when_correlation_strong(self):
        # every paper cited once in its own year -> cites == pubs, r = 1, lag 0
        profile = make_profile({2000 + i: [1] * c for i, c in enumerate([1, 2, 5, 9, 14, 2, 3])})
        ind = analyze_profile(profile)
        assert ind.r == pytest.approx(1.0)
        assert ind.lag == 0

    def test_lag_suppressed_when_correlation_weak(self):
        # anti-synchronous: many pubs in years with few citations
        records = []
        pubs_per_year = [6, 5, 4, 3, 2, 1]
        for i, n in enumerate(pubs_per_year):
            for k in range(n):
                records.append(PublicationRecord(f"p{i}-{k}", 2000 + i, 1, {2005: 1}))
        ind = analyze_profile(ResearcherProfile(name="n", records=records))
        assert ind.r is not None and ind.r < 0.5
        assert ind.lag is None

    def test_reported_h_preferred_with_warning(self):
        profile = make_profile({2010: [5, 5, 5]}, reported_h=2)
        default = analyze_profile(profile)
        assert default.h == 3  # computed from records
        preferred = analyze_profile(profile, AnalysisConfig(prefer_reported_h=True))
        assert preferred.h == 2
        assert any("reported h-index" in w for w in preferred.warnings)

    def test_impossible_reported_h_falls_back(self):
        profile = make_profile({2010: [5, 5, 5]}, reported_h=7)
        ind = analyze_profile(profile, AnalysisConfig(prefer_reported_h=True))
        assert ind.h == 3
        assert any("impossible" in w for w in ind.warnings)

    def test_never_cited_profile(self):
        profile = make_profile({2010: [0, 0], 2011: [0]})
        ind = analyze_profile(profile)
        assert ind.r is None and ind.lag is None
        assert ind.h == 0 and ind.i_index == 0.0
        assert ind.total_cites == 0 and ind.avg_cites_per_paper == 0.0
        assert ind.hcp_count == 0
        assert SignalKind.LOW_INTEGRITY in {s.kind for s in ind.flags}

    def test_series_is_the_one_the_indicators_came_from(self):
        profile = make_profile({2010: [4, 0], 2011: [9], 2014: [2]})
        ind = analyze_profile(profile)
        assert ind.series == build_series(profile)
        assert ind.start_year == ind.series.start_year
        assert ind.max_pubs_year == max(ind.series.pubs)

    def test_downward_extension_warns(self):
        profile = ResearcherProfile(
            name="n", records=[PublicationRecord("a", 2010, 2, {2008: 1, 2010: 1})]
        )
        ind = analyze_profile(profile)
        assert ind.start_year == 2008
        assert any("extended downward" in w for w in ind.warnings)


class TestAnalysisConfig:
    @pytest.mark.parametrize("kwargs", [
        {"r_min": math.nan}, {"r_min": math.inf}, {"r_min": 1.0}, {"r_min": -1.0},
        {"i_max": 0.0}, {"i_max": 1.5}, {"i_max": math.nan}, {"max_lag": -1},
        {"growth_window": -2}, {"pubs_per_year_limit": 0},
        # a value of the wrong type
        {"prefer_reported_h": "no"}, {"prefer_reported_h": 1}, {"max_lag": 2.5},
        {"growth_window": 2.5}, {"pubs_per_year_limit": True}, {"r_min": "0.5"},
        {"r_min": True}, {"i_max": None},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            AnalysisConfig(**kwargs)

    def test_a_threshold_may_be_an_int(self):
        assert AnalysisConfig(r_min=0).region.r_min == 0


class TestRoundHalfUp:
    def test_half_goes_up(self):
        assert round_half_up(0.125, 2) == 0.13
        assert round_half_up(0.085, 2) == 0.09

    def test_paper_display_values(self):
        assert round_half_up(34 / 384, 2) == 0.09
        assert round_half_up(86 / 196, 2) == 0.44
        assert round_half_up(0.5, 2) == 0.5

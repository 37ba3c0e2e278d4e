import dataclasses
import math
import random
import tracemalloc
import warnings

import pytest

from papertrail.cohort import (
    CohortPoint,
    LinearFit,
    PowerLawFit,
    Region,
    RegionClass,
    classify_region,
    cohort_summary,
    fit_linear,
    fit_power_law,
    parse_manifest,
)
from papertrail.errors import DegenerateAbscissaError, EmptyCohortError, TooFewPointsError
from papertrail.indicators import pearson

# frozen oracle: closed-form normal equations on {(1,1),(2,2),(3,2)}
OLS_ORACLE = {"slope": 0.5, "intercept": 2 / 3, "r_squared": 0.75}


def point(label="x", r=0.0, i=0.5, p=10, m=3, avg=1.0):
    return CohortPoint(label=label, r=r, i_index=i, total_pubs=p, max_pubs_year=m, avg_pubs_year=avg)


@pytest.mark.parametrize("i,p,message", [
    (-0.1, 10, r"i_index must lie in 0\.\.1, got -0\.1"),
    (1.5, 10, r"i_index must lie in 0\.\.1, got 1\.5"),
    (0.5, 0, r"total_pubs must lie in 1\.\.1000000000000, got 0"),
])
def test_point_rejects_invalid_coordinates(i, p, message):
    with pytest.raises(ValueError, match=message):
        point(i=i, p=p)


REFUSED_POINTS = [
    ("label", 5, "label must be str, got int"),
    ("r", True, "r must be float, got bool"),
    ("r", "0.5", "r must be float, got str"),
    ("r", math.nan, r"r must lie in -1\.000000001\.\.1\.000000001, got nan"),
    ("r", -math.inf, r"r must lie in -1\.000000001\.\.1\.000000001, got -inf"),
    ("r", 10**400, r"r must lie in -1\.000000001\.\.1\.000000001, got \(401 digits\)"),
    ("r", 5.0, r"r must lie in -1\.000000001\.\.1\.000000001, got 5\.0"),
    ("r", -1.5, r"r must lie in -1\.000000001\.\.1\.000000001, got -1\.5"),
    ("i_index", math.nan, r"i_index must lie in 0\.\.1, got nan"),
    ("total_pubs", True, "total_pubs must be int, got bool"),
    ("total_pubs", 10.0, "total_pubs must be int, got float"),
    ("total_pubs", 10**400, r"total_pubs must lie in 1\.\.1000000000000, got \(401 digits\)"),
    ("max_pubs_year", 2.5, "max_pubs_year must be int, got float"),
    ("max_pubs_year", -1, r"max_pubs_year must lie in 0\.\.1000000000000, got -1"),
    ("max_pubs_year", 10**12 + 1, r"max_pubs_year must lie in 0\.\.1000000000000, got 1000000000001"),
    ("avg_pubs_year", "x", "avg_pubs_year must be float, got str"),
    ("avg_pubs_year", None, "avg_pubs_year must be float, got NoneType"),
    ("avg_pubs_year", math.nan, r"avg_pubs_year must lie in 0\.\.1000000000000, got nan"),
    ("avg_pubs_year", 1e13, r"avg_pubs_year must lie in 0\.\.1000000000000, got 10000000000000\.0"),
]


@pytest.mark.parametrize("field,value,message", REFUSED_POINTS,
                         ids=[f"{field}-{k}" for k, (field, _, _) in enumerate(REFUSED_POINTS)])
def test_point_follows_the_one_type_rule_and_bounds_its_counts(field, value, message):
    # a point refused here would otherwise reach cohort_summary, the fits or the charts and fail
    # there with a TypeError or an OverflowError
    coordinates = {"label": "x", "r": 0.0, "i_index": 0.5, "total_pubs": 10, "max_pubs_year": 3,
                   "avg_pubs_year": 1.0}
    with pytest.raises(ValueError, match=f"^{message}$"):
        CohortPoint(**{**coordinates, field: value})


def test_point_takes_its_bounds_a_missing_r_and_an_int_for_a_float():
    assert point(r=None).r is None
    assert point(r=1, avg=0).r == 1
    assert point(r=-1 - 1e-9).r == -1 - 1e-9 and point(r=1 + 1e-9).r == 1 + 1e-9
    point(p=1, m=0, avg=0.0)
    point(p=10**12, m=10**12, avg=1e12)


def test_point_takes_every_r_pearson_gives():
    # pearson passes 1 by one ulp in about 3% of proportional series, so the bound on r has a slack
    rng = random.Random(11)
    overshoots = 0
    for _ in range(4000):
        xs = [rng.randint(0, 10 ** rng.randint(1, 12)) for _ in range(rng.randint(3, 60))]
        r = pearson(xs, [x * rng.choice([3, -7, 0.001, 123.456]) for x in xs])
        if r is not None:
            overshoots += abs(r) > 1
            assert point(r=r).r == r
    assert overshoots > 0


def test_checking_a_point_leaves_no_memory_behind():
    # CPython 3.11 builds the tuple of dataclasses.fields at one size and shrinks it, and parks
    # each one freed on a free list that no later call takes from; a cohort checks a point per
    # report, so the type check must not go through it
    point()
    tracemalloc.start()
    try:
        points = [point(p=p) for p in range(1, 1001)]
        left = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, dataclasses.__file__)])
    finally:
        tracemalloc.stop()
    assert len(points) == 1000 and left.statistics("filename") == []


class TestClassifyRegion:
    def test_papermill_style_point_inside(self):
        assert classify_region(point(r=0.94, i=0.08)) is RegionClass.INSIDE

    def test_conscientious_style_point_outside(self):
        assert classify_region(point(r=-0.23, i=0.44)) is RegionClass.OUTSIDE

    def test_boundaries_are_strict(self):
        assert classify_region(point(r=0.5, i=0.2)) is RegionClass.OUTSIDE
        assert classify_region(point(r=0.7, i=0.3)) is RegionClass.OUTSIDE
        assert classify_region(point(r=0.5000001, i=0.2999999)) is RegionClass.INSIDE

    def test_undefined_r_unclassifiable(self):
        assert classify_region(point(r=None)) is RegionClass.UNCLASSIFIABLE

    def test_custom_region(self):
        region = Region(r_min=0.0, i_max=0.9)
        assert classify_region(point(r=0.1, i=0.5), region) is RegionClass.INSIDE

    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region(r_min=1.5)
        with pytest.raises(ValueError):
            Region(i_max=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"r_min": "0.5"}, {"r_min": False}, {"r_min": None}, {"i_max": "0.3"}, {"i_max": True},
        {"i_max": [0.3]},
    ])
    def test_region_refuses_a_bound_of_the_wrong_type(self, kwargs):
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be float, got "):
            Region(**kwargs)

    def test_a_region_bound_may_be_an_int(self):
        assert Region(r_min=0, i_max=0.25) == Region(r_min=0.0, i_max=0.25)


class TestCohortSummary:
    def test_one_in_one_out(self):
        pts = [point("in", r=0.9, i=0.1, p=400, m=40, avg=20.0),
               point("out", r=-0.2, i=0.5, p=100, m=10, avg=5.0)]
        s = cohort_summary(pts)
        assert s.inside_fraction == 0.5
        assert s.inside.total_pubs == 400
        assert s.outside.max_pubs_year == 10
        assert s.n_unclassifiable == 0

    def test_all_unclassifiable(self):
        pts = [point(r=None), point(r=None)]
        s = cohort_summary(pts)
        assert s.inside_fraction == 0.0
        assert s.inside is None and s.outside is None
        assert s.n_unclassifiable == 2

    def test_empty_cohort(self):
        with pytest.raises(EmptyCohortError):
            cohort_summary([])

    def test_mean_is_exactly_rounded(self):
        # before Python 3.12, builtin sum of ten 0.1s is 0.9999999999999999
        s = cohort_summary([point(r=0.9, i=0.1, avg=0.1) for _ in range(10)])
        assert s.n_inside == 10
        assert s.inside.avg_pubs_year == 0.1

    def test_matches_group_by_oracle_on_random_cohorts(self):
        rng = random.Random(314)
        for trial in range(20):
            pts = []
            for k in range(rng.randint(1, 1000 if trial == 0 else 120)):
                r = None if rng.random() < 0.1 else rng.uniform(-1, 1)
                pts.append(point(
                    label=f"p{k}", r=r, i=rng.uniform(0, 1),
                    p=rng.randint(1, 900), m=rng.randint(0, 90),
                    avg=rng.uniform(0, 40),
                ))
            s = cohort_summary(pts)
            inside = [p for p in pts if p.r is not None and p.r > 0.5 and p.i_index < 0.3]
            outside = [p for p in pts if p.r is not None
                       and not (p.r > 0.5 and p.i_index < 0.3)]
            assert s.n_inside == len(inside)
            assert s.n_outside == len(outside)
            assert s.n_unclassifiable == len(pts) - len(inside) - len(outside)
            if inside or outside:
                assert s.inside_fraction == len(inside) / (len(inside) + len(outside))
            if inside:
                assert s.inside.total_pubs == sum(p.total_pubs for p in inside) / len(inside)
                assert s.inside.avg_pubs_year == math.fsum(p.avg_pubs_year for p in inside) / len(inside)
            if outside:
                assert s.outside.max_pubs_year == sum(p.max_pubs_year for p in outside) / len(outside)


class TestPowerLawFit:
    def test_exact_recovery_from_noiseless_data(self):
        pts = [(p, 2.0 * p ** -0.5) for p in (10, 20, 40, 80)]
        fit = fit_power_law(pts)
        assert fit.a == pytest.approx(2.0, rel=1e-9)
        assert fit.b == pytest.approx(-0.5, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 4

    def test_two_points_interpolate_exactly(self):
        fit = fit_power_law([(2, 0.8), (50, 0.1)])
        assert fit.r_squared == 1.0
        for p, i in [(2, 0.8), (50, 0.1)]:
            assert fit.a * p ** fit.b == pytest.approx(i, rel=1e-9)

    def test_zero_i_points_excluded_with_warning(self):
        # the exclusion is returned as n_points; the CLI prints the warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_power_law([(10, 0.5), (20, 0.25), (30, 0.0)])
        assert fit.n_points == 2

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit_power_law([(10, 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooFewPointsError):
                fit_power_law([(10, 0.5), (20, 0.0)])

    def test_degenerate_abscissa(self):
        with pytest.raises(DegenerateAbscissaError):
            fit_power_law([(10, 0.5), (10, 0.25)])

    @pytest.mark.parametrize("points", [[(100, 1.0), (101, 1 / 101)], [(101, 1.0), (100, 1 / 100)]],
                             ids=["a-overflows", "a-is-zero"])
    def test_a_that_is_not_a_positive_finite_float_is_degenerate(self, points):
        # one paper apart, the slope is about -463 and ln a about +-2136
        with pytest.raises(DegenerateAbscissaError, match=r"^power-law fit has no positive finite a = exp\("):
            fit_power_law(points)

    def test_scale_covariance(self):
        rng = random.Random(8)
        pts = [(rng.randint(2, 500), rng.uniform(0.01, 1.0)) for _ in range(40)]
        base = fit_power_law(pts)
        c = 3.7
        scaled = fit_power_law([(p, c * i) for p, i in pts])
        assert scaled.a == pytest.approx(c * base.a, rel=1e-9)
        assert scaled.b == pytest.approx(base.b, rel=1e-9)

    # Published reference fit for one real 82-researcher cohort: a=1.7524,
    # b=-0.5956. That data set is not distributed, so the value is not
    # reproducible here; the fit contract is exercised via exact recovery.


class TestLinearFit:
    def test_exact_recovery_from_noiseless_data(self):
        pts = [(p, 2 * p + 1) for p in range(1, 30)]
        fit = fit_linear(pts)
        assert fit.slope == pytest.approx(2.0, rel=1e-9)
        assert fit.intercept == pytest.approx(1.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_normal_equation_oracle(self):
        fit = fit_linear([(1, 1), (2, 2), (3, 2)])
        assert fit.slope == pytest.approx(OLS_ORACLE["slope"], abs=1e-12)
        assert fit.intercept == pytest.approx(OLS_ORACLE["intercept"], abs=1e-12)
        assert fit.r_squared == pytest.approx(OLS_ORACLE["r_squared"], abs=1e-12)
        assert fit.n_points == 3

    def test_errors(self):
        with pytest.raises(TooFewPointsError):
            fit_linear([(1, 1)])
        with pytest.raises(DegenerateAbscissaError):
            fit_linear([(5, 1), (5, 2), (5, 3)])

    def test_constant_ordinate_is_perfect_flat_fit(self):
        fit = fit_linear([(1, 4), (2, 4), (3, 4)])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0


class TestParseManifest:
    def test_entries_and_comments(self):
        entries, problems = parse_manifest(
            "# cohort of two\n\nalice\talice.tsv\nbob\tdata/bob.csv\n"
        )
        assert entries == [("alice", "alice.tsv"), ("bob", "data/bob.csv")]
        assert problems == []

    def test_malformed_lines_become_problems(self):
        entries, problems = parse_manifest("good\tx.tsv\nno-tab-here\n\tmissing-label\n")
        assert entries == [("good", "x.tsv")]
        assert len(problems) == 2
        assert "line 2" in problems[0]

"""The package's one type rule, ``config._check_type``, at every place that applies it.

``AnalysisConfig``, ``Region`` and ``ChartStyle`` raise ValueError, and
``SynthSpec`` raises InvalidSpecError, naming the first field whose value
is not of the field's declared type: never a TypeError from a later
comparison, and never acceptance.  ``PublicationRecord`` and
``serialize_report`` raise ValueError by the same rule for the fields they
check.  The value's class must be the declared one, not a subclass of it; a
float field also takes an int.  Every refusal reads
``<what> must be <type>, got <type>``.

A message that shows an int a caller passed shows it through
``config._echo_int``: as is up to 40 digits, and past that by its digit
count, never through ``str()``, which refuses an int of over 4,300 digits.

The package's one range rule, ``config._check_range``, refuses a value outside
each range it checks with the same error class at every end: the value at a
closed end is taken and the nearest one past it refused.
"""

import math
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from enum import IntEnum
from typing import Callable

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from papertrail import ingest
from papertrail.cohort import CohortPoint
from papertrail.config import AnalysisConfig, Region, _check_range, _echo_int
from papertrail.errors import HExceedsPublicationsError, InvalidSpecError, TooShortError
from papertrail.indicators import best_lag, i_index
from papertrail.ingest import MAX_COUNT, MAX_YEAR, MIN_YEAR, PublicationRecord, ResearcherProfile, serialize_report
from papertrail.render import ChartStyle
from papertrail.series import AnnualSeries
from papertrail.synth import (
    MAX_CITES_PER_PAPER,
    MAX_KERNEL_PEAK_LAG,
    MAX_PEAK_RATE,
    MIN_BASE_RATE,
    Archetype,
    conscientious_spec,
    papermill_spec,
)

# a valid instance of each settings class, and the error that a wrong-typed field raises
VALID = {
    "AnalysisConfig": (AnalysisConfig(), ValueError),
    "Region": (Region(), ValueError),
    "ChartStyle": (ChartStyle(), ValueError),
    "SynthSpec": (conscientious_spec(0), InvalidSpecError),
}
# each declared type, and the classes of value it takes
TAKES = {"float": (float, int), "int": (int,), "bool": (bool,), "str": (str,),
         "Archetype": (Archetype,)}


@dataclass(frozen=True)
class Site:
    """One checked value: what a refusal calls it, its declared type, the error a wrong-typed
    value raises, and how a valid object is made with ``value`` in its place."""

    what: str
    declared: str
    error: type[Exception]
    make: Callable[[object], object]
    takes_none: bool = False


def settings_sites() -> dict[str, Site]:
    return {f"{name}.{f.name}": Site(f.name, f.type, error,
                                     lambda value, valid=valid, name=f.name: replace(valid, **{name: value}))
            for name, (valid, error) in VALID.items() for f in fields(valid)}


def serialized(title: object = "t", **profile: object) -> bytes:
    """``serialize_report`` of a valid one-record profile with the given ``title`` and fields;
    a title that is not a str is set past the constructor, which refuses it."""
    record = ingest._record(title, 2018, 1, range(2018, 2019), (1,))
    return serialize_report(ResearcherProfile(**{"name": "n", **profile, "records": [record]}))


RECORD_SITES = {
    "PublicationRecord.title": Site("title", "str", ValueError,
                                    lambda value: PublicationRecord(value, 2000, 1)),
    "PublicationRecord.pub_year": Site("publication year", "int", ValueError,
                                       lambda value: PublicationRecord("p", value, 1)),
    "PublicationRecord.total_citations": Site("total citations", "int", ValueError,
                                              lambda value: PublicationRecord("p", 2000, value)),
    "PublicationRecord.cited_year": Site("cited year", "int", ValueError,
                                         lambda value: PublicationRecord("p", 2000, 1, {value: 1})),
    "PublicationRecord.count": Site("citation count for year 2001", "int", ValueError,
                                    lambda value: PublicationRecord("p", 2000, 1, {2001: value})),
    "serialize_report.name": Site("researcher name", "str", ValueError,
                                  lambda value: serialized(name=value)),
    "serialize_report.source_id": Site("researcher id", "str", ValueError,
                                       lambda value: serialized(source_id=value), takes_none=True),
    "serialize_report.reported_h": Site("reported h-index", "int", ValueError,
                                        lambda value: serialized(reported_h=value), takes_none=True),
    "serialize_report.record_title": Site("record title", "str", ValueError, serialized),
}
SITES = {**settings_sites(), **RECORD_SITES}


class Text(str):
    pass


class Rate(float):
    pass


class Year(IntEnum):
    A = 2000


# subclasses of the declared types: each is refused wherever it stands
SUBCLASSED = {"str-subclass": Text("2000"), "IntEnum-member": Year.A, "float-subclass": Rate(0.5)}

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.binary(max_size=2), st.lists(st.integers(), max_size=2), st.sampled_from(Archetype),
    st.complex_numbers(), st.decimals(allow_nan=False), st.just(Decimal("NaN")),
    st.sampled_from(list(SUBCLASSED.values())),
)


def wrong_type(site: Site, value: object) -> bool:
    return type(value) not in TAKES[site.declared] and not (value is None and site.takes_none)


def assert_refused(site: Site, value: object) -> None:
    """The one place the message form is checked."""
    with pytest.raises(site.error) as raised:
        site.make(value)
    assert type(raised.value) is site.error
    assert str(raised.value) == f"{site.what} must be {site.declared}, got {type(value).__name__}"


def test_every_declared_type_is_known():
    assert {site.declared for site in SITES.values()} == set(TAKES)


@given(data=st.data())
def test_a_wrong_typed_field_raises_the_documented_error(data):
    site = SITES[data.draw(st.sampled_from(sorted(SITES)))]
    value = data.draw(VALUES.filter(lambda v: wrong_type(site, v)))
    if site.what == "cited year":
        try:
            hash(value)
        except TypeError:
            assume(False)  # a dict key
    assert_refused(site, value)


@pytest.mark.parametrize("value", SUBCLASSED.values(), ids=SUBCLASSED.keys())
@pytest.mark.parametrize("site", SITES.values(), ids=SITES.keys())
def test_a_subclass_of_the_declared_type_is_refused(site, value):
    assert_refused(site, value)


@pytest.mark.parametrize("make, message", [
    (lambda: conscientious_spec(1.5), "seed must be int, got float"),
    (lambda: conscientious_spec(True), "seed must be int, got bool"),
    (lambda: papermill_spec(0, onset_offset=1.5), "onset_offset must be int, got float"),
    (lambda: conscientious_spec(0, peak_rate="9"), "peak_rate must be float, got str"),
    (lambda: replace(papermill_spec(0), archetype="papermill"),
     "archetype must be Archetype, got str"),
], ids=["float-seed", "bool-seed", "float-onset", "str-rate", "str-archetype"])
def test_synth_spec_refuses_a_value_of_the_wrong_type(make, message):
    with pytest.raises(InvalidSpecError) as raised:
        make()
    assert str(raised.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"width": "x"}, "width must be int, got str"),
    ({"height": 4.0}, "height must be int, got float"),
    ({"title": 5}, "title must be str, got int"),
], ids=["str-width", "float-height", "int-title"])
def test_chart_style_refuses_a_value_of_the_wrong_type(kwargs, message):
    with pytest.raises(ValueError) as raised:
        ChartStyle(**kwargs)
    assert str(raised.value) == message


def test_a_float_field_takes_an_int():
    assert conscientious_spec(0, base_rate=2, peak_rate=16, cites_per_paper=90) == (
        conscientious_spec(0))
    assert AnalysisConfig(r_min=0, i_max=0.5).r_min == 0


# an int past the digits str() writes (4,300 on Python 3.11, and 3.10.7 on)
HUGE = 10**5000


@pytest.mark.parametrize("make, error, shown", [
    (lambda: conscientious_spec(n_years=HUGE), InvalidSpecError,
     "n_years must lie in 8..200, got (5001 digits)"),
    (lambda: conscientious_spec(start_year=HUGE), InvalidSpecError,
     "start_year must lie in 1900..2075, got (5001 digits)"),
    (lambda: conscientious_spec(start_year=-HUGE), InvalidSpecError,
     "start_year must lie in 1900..2075, got -(5001 digits)"),
    (lambda: i_index(HUGE, 1), HExceedsPublicationsError, "h must lie in 0..1, got (5001 digits)"),
    (lambda: i_index(-1, HUGE), HExceedsPublicationsError, "h must lie in 0..(5001 digits), got -1"),
    (lambda: best_lag(AnnualSeries(2000, (1, 2, 3), (1, 2, 3)), HUGE), TooShortError,
     "series of 3 years cannot support lags up to (5001 digits) "
     "(each lag needs at least 3 overlapping pairs)"),
    (lambda: AnalysisConfig(max_lag=-HUGE), ValueError, "max_lag must be at least 0, got -(5001 digits)"),
    (lambda: AnalysisConfig(pubs_per_year_limit=-HUGE), ValueError,
     "pubs_per_year_limit must be at least 1, got -(5001 digits)"),
    (lambda: AnalysisConfig(growth_window=-HUGE), ValueError,
     "growth_window must be at least 0, got -(5001 digits)"),
    (lambda: Region(r_min=HUGE), ValueError, "r_min must lie in (-1, 1), got (5001 digits)"),
    (lambda: Region(i_max=-HUGE), ValueError, "i_max must lie in (0, 1), got -(5001 digits)"),
    (lambda: PublicationRecord("t", HUGE, 1), ValueError,
     "publication year must lie in 1900..2100, got (5001 digits)"),
    (lambda: PublicationRecord("t", 2000, 1, {HUGE: 1}), ValueError,
     "cited year must lie in 1900..2100, got (5001 digits)"),
], ids=["synth-n_years", "synth-start_year", "synth-negative-start_year", "i_index-h",
        "i_index-total", "best_lag", "max_lag", "pubs_per_year_limit", "growth_window", "r_min",
        "i_max", "publication-year", "cited-year"])
def test_a_long_integer_is_named_by_its_digit_count(make, error, shown):
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error
    assert str(raised.value) == shown


@pytest.mark.parametrize("value, shown", [
    (0, "0"), (-7, "-7"), (10**40 - 1, "9" * 40), (-(10**40 - 1), "-" + "9" * 40),
    (10**40, "(41 digits)"), (-(10**40), "-(41 digits)"), (10**4299, "(4300 digits)"),
    (HUGE - 1, "(5000 digits)"), (HUGE, "(5001 digits)"), (HUGE + 1, "(5001 digits)"),
    (10**100_000, "(100001 digits)"), (0.5, "0.5"), (1e300, "1e+300"),
], ids=["0", "-7", "40-digits", "-40-digits", "41-digits", "-41-digits", "4300-digits",
        "5000-digits", "5001-digits-power", "5001-digits", "100001-digits", "float", "large-float"])
def test_echo_int_counts_the_digits_of_a_long_integer_exactly(value, shown):
    assert _echo_int(value) == shown


# every range the package checks on a caller's value: how a value is put in its place, the error a
# refusal raises, and the least and most value taken (None: no upper end); an end given as a
# one-item tuple is open, so the value there is refused and the nearest one inside it taken
RANGES = {
    "Region.r_min": (lambda v: Region(r_min=v), ValueError, (-1.0,), (1.0,)),
    "Region.i_max": (lambda v: Region(i_max=v), ValueError, (0.0,), (1.0,)),
    "AnalysisConfig.r_min": (lambda v: AnalysisConfig(r_min=v), ValueError, (-1.0,), (1.0,)),
    "AnalysisConfig.i_max": (lambda v: AnalysisConfig(i_max=v), ValueError, (0.0,), (1.0,)),
    "AnalysisConfig.pubs_per_year_limit": (lambda v: AnalysisConfig(pubs_per_year_limit=v),
                                           ValueError, 1, None),
    "AnalysisConfig.growth_window": (lambda v: AnalysisConfig(growth_window=v), ValueError, 0, None),
    "AnalysisConfig.max_lag": (lambda v: AnalysisConfig(max_lag=v), ValueError, 0, None),
    "ChartStyle.width": (lambda v: ChartStyle(width=v), ValueError, 137, 100_000),
    "ChartStyle.height": (lambda v: ChartStyle(height=v), ValueError, 93, 100_000),
    "CohortPoint.r": (lambda v: CohortPoint("x", v, 0.5, 10, 3, 1.0), ValueError, -1 - 1e-9, 1 + 1e-9),
    "CohortPoint.i_index": (lambda v: CohortPoint("x", 0.0, v, 10, 3, 1.0), ValueError, 0.0, 1.0),
    "CohortPoint.total_pubs": (lambda v: CohortPoint("x", 0.0, 0.5, v, 3, 1.0), ValueError, 1, MAX_COUNT),
    "CohortPoint.max_pubs_year": (lambda v: CohortPoint("x", 0.0, 0.5, 10, v, 1.0), ValueError,
                                  0, MAX_COUNT),
    "CohortPoint.avg_pubs_year": (lambda v: CohortPoint("x", 0.0, 0.5, 10, 3, v), ValueError,
                                  0.0, float(MAX_COUNT)),
    "SynthSpec.seed": (conscientious_spec, InvalidSpecError, 0, 2**64 - 1),
    "SynthSpec.n_years": (lambda v: papermill_spec(0, start_year=MIN_YEAR, n_years=v), InvalidSpecError,
                          8, MAX_YEAR - MIN_YEAR),
    "SynthSpec.base_rate": (lambda v: papermill_spec(0, base_rate=v, peak_rate=MAX_PEAK_RATE),
                            InvalidSpecError, MIN_BASE_RATE, MAX_PEAK_RATE),
    "SynthSpec.peak_rate": (lambda v: papermill_spec(0, base_rate=MIN_BASE_RATE, peak_rate=v),
                            InvalidSpecError, MIN_BASE_RATE, MAX_PEAK_RATE),
    "SynthSpec.kernel_peak_lag": (lambda v: conscientious_spec(0, kernel_peak_lag=v), InvalidSpecError,
                                  1, MAX_KERNEL_PEAK_LAG),
    "SynthSpec.onset_offset": (lambda v: papermill_spec(0, n_years=14, onset_offset=v), InvalidSpecError,
                               0, 13),
    "SynthSpec.start_year": (lambda v: papermill_spec(0, n_years=14, start_year=v), InvalidSpecError,
                             MIN_YEAR, MAX_YEAR - 14),
    "SynthSpec.cites_per_paper": (lambda v: papermill_spec(0, cites_per_paper=v), InvalidSpecError,
                                  (0.0,), MAX_CITES_PER_PAPER),
    "PublicationRecord.pub_year": (lambda v: PublicationRecord("t", v, 0), ValueError, MIN_YEAR, MAX_YEAR),
    "PublicationRecord.total_citations": (lambda v: PublicationRecord("t", 2000, v), ValueError,
                                          0, MAX_COUNT),
    "PublicationRecord.cited_year": (lambda v: PublicationRecord("t", 2000, 1, {v: 1}), ValueError,
                                     MIN_YEAR, MAX_YEAR),
    "PublicationRecord.citation_count": (lambda v: PublicationRecord("t", 2000, 1, {2001: v}), ValueError,
                                         0, MAX_COUNT),
    "serialize_report.reported_h": (lambda v: serialize_report(ResearcherProfile(
        "n", reported_h=v, records=[PublicationRecord("t", 2018, 1, {2018: 1})])), ValueError, 0, MAX_COUNT),
    "best_lag.max_lag": (lambda v: best_lag(AnnualSeries(2000, (1, 2, 3), (1, 2, 4)), v), ValueError, 0, None),
    "i_index.h": (lambda v: i_index(v, 5), HExceedsPublicationsError, 0, 5),
}


def step(value: float, direction: int) -> float:
    """The nearest value of ``value``'s type past ``value`` in ``direction`` (+1 or -1)."""
    return value + direction if isinstance(value, int) else math.nextafter(value, direction * math.inf)


def range_ends(least, most):
    """(taken, refused) at each end of a range: the value at a closed end and the nearest value past
    it, or the nearest value inside an open end and the value at it."""
    for end, outward in ((least, -1), (most, 1)):
        if isinstance(end, tuple):
            yield step(end[0], -outward), end[0]
        elif end is not None:
            yield end, step(end, outward)


@pytest.mark.parametrize("site", RANGES, ids=RANGES)
def test_each_range_takes_its_ends_and_refuses_the_nearest_value_past_them(site):
    make, error, least, most = RANGES[site]
    for taken, refused in range_ends(least, most):
        make(taken)
        with pytest.raises(error) as raised:
            make(refused)
        assert type(raised.value) is error, (taken, refused)


@pytest.mark.parametrize("args, message", [
    ((5, 0, 3, "n"), "n must lie in 0..3, got 5"),
    ((-1, 0, None, "n"), "n must be at least 0, got -1"),
    ((1.0, -1, 1, "n", ValueError, True), "n must lie in (-1, 1), got 1.0"),
    ((math.nan, 0.0, 1.0, "x"), "x must lie in 0.0..1.0, got nan"),
    ((-math.inf, 0, None, "x"), "x must be at least 0, got -inf"),
    ((HUGE, 0, 10**40, "n"), "n must lie in 0..(41 digits), got (5001 digits)"),
], ids=["closed", "no-upper-end", "open", "nan", "infinity", "long-int"])
def test_the_one_range_rule_has_three_message_forms(args, message):
    with pytest.raises(ValueError) as raised:
        _check_range(*args)
    assert str(raised.value) == message

"""The package's one type rule, ``config._check_type``, at every place that applies it.

``AnalysisConfig``, ``Region`` and ``ChartStyle`` raise ValueError, and
``SynthSpec`` raises InvalidSpecError, naming the first field whose value
is not of the field's declared type: never a TypeError from a later
comparison, and never acceptance.  ``PublicationRecord`` and
``serialize_report`` raise ValueError by the same rule for the fields they
check.  The value's class must be the declared one, not a subclass of it; a
float field also takes an int.  Every refusal reads
``<what> must be <type>, got <type>``.
"""

from dataclasses import dataclass, fields, replace
from decimal import Decimal
from enum import IntEnum
from typing import Callable

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from papertrail import ingest
from papertrail.config import AnalysisConfig, Region
from papertrail.errors import InvalidSpecError
from papertrail.ingest import PublicationRecord, ResearcherProfile, serialize_report
from papertrail.render import ChartStyle
from papertrail.synth import Archetype, conscientious_spec, papermill_spec

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

"""The type rule of the settings classes, ``config._check_types``.

``AnalysisConfig``, ``Region`` and ``ChartStyle`` raise ValueError, and
``SynthSpec`` raises InvalidSpecError, naming the first field whose value
is not of the field's declared type: never a TypeError from a later
comparison, and never acceptance.  A float field also takes an int, and
only a bool field takes a bool.
"""

from dataclasses import fields, replace
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from papertrail.config import AnalysisConfig, Region
from papertrail.errors import InvalidSpecError
from papertrail.render import ChartStyle
from papertrail.synth import Archetype, conscientious_spec, papermill_spec

# a valid instance of each class, and the error that a wrong-typed field raises
VALID = {
    "AnalysisConfig": (AnalysisConfig(), ValueError),
    "Region": (Region(), ValueError),
    "ChartStyle": (ChartStyle(), ValueError),
    "SynthSpec": (conscientious_spec(0), InvalidSpecError),
}
# each declared field type, and the types of value it takes
TAKES = {"float": (float, int), "int": (int,), "bool": (bool,), "str": (str,),
         "Archetype": (Archetype,)}

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.binary(max_size=2), st.lists(st.integers(), max_size=2), st.sampled_from(Archetype),
    st.complex_numbers(), st.decimals(allow_nan=False), st.just(Decimal("NaN")),
)


def wrong_type(declared: str, value: object) -> bool:
    return (type(value) is bool) != (declared == "bool") or not isinstance(value, TAKES[declared])


def test_every_declared_type_is_known():
    assert {f.type for valid, _ in VALID.values() for f in fields(valid)} == set(TAKES)


@given(data=st.data())
def test_a_wrong_typed_field_raises_the_documented_error(data):
    valid, error = VALID[data.draw(st.sampled_from(sorted(VALID)))]
    field = data.draw(st.sampled_from(fields(valid)))
    value = data.draw(VALUES.filter(lambda v: wrong_type(field.type, v)))
    with pytest.raises(error) as raised:
        replace(valid, **{field.name: value})
    assert str(raised.value) == f"{field.name} must be {field.type}, got {type(value).__name__}"


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

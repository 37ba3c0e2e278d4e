"""Operations are safe to call concurrently on shared inputs.

Several threads run ``parse_report``, ``analyze_profile``,
``serialize_report`` and ``build_series`` over the same report bytes and
the same profiles.  Every result must equal the serial one, and the shared
inputs must compare equal before and after.  A record is an immutable
value, so no caller can change one that an operation is reading: setting
or deleting any of its attributes raises AttributeError.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from papertrail.indicators import analyze_profile
from papertrail.ingest import PublicationRecord, ReportFormat, parse_report, serialize_report
from papertrail.series import build_series
from papertrail.synth import conscientious_spec, generate, papermill_spec

from conftest import TWO_RECORD_TSV, random_profile


def shared_inputs() -> list[tuple[bytes, ReportFormat, object]]:
    """Report bytes, their format and a profile: generated, hand-built and parsed."""
    profiles = [generate(papermill_spec(1)), generate(conscientious_spec(2)),
                random_profile(random.Random(3)), parse_report(TWO_RECORD_TSV)]
    return [(serialize_report(profile, fmt), fmt, profile)
            for profile in profiles for fmt in ReportFormat]


def run_all(data: bytes, fmt: ReportFormat, profile) -> tuple:
    parsed = parse_report(data, fmt)
    return (parsed, analyze_profile(parsed), analyze_profile(profile),
            serialize_report(profile, fmt), build_series(profile))


def test_threads_get_the_serial_results_and_change_no_input():
    inputs = shared_inputs()
    before = copy.deepcopy(inputs)
    serial = [run_all(*case) for case in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda case: run_all(*case), inputs * 6))
    finally:
        sys.setswitchinterval(interval)
    assert results == serial * 6
    assert inputs == before


def records():
    """A record from each constructor: ``__init__``, ``parse_report`` and ``generate``."""
    yield PublicationRecord("built", 2010, 4, {2009: 0, 2011: 3, 2012: 1, 2015: 0})
    yield from parse_report(TWO_RECORD_TSV).records
    yield from generate(papermill_spec(0)).records[:3]


@pytest.mark.parametrize("name", ["title", "pub_year", "total_citations", "_years", "_counts",
                                  "citations_by_year", "window_sum", "unknown"])
def test_a_record_cannot_be_changed(name):
    for rec in records():
        before = copy.copy(rec)
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert rec == before and repr(rec) == repr(before)


def test_a_record_copies_and_pickles_as_the_same_value():
    for rec in records():
        for again in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert again is not rec
            assert again == rec and repr(again) == repr(rec)

import collections
import random

import pytest

from papertrail import ingest
from papertrail.ingest import PublicationRecord, ResearcherProfile


def tsv(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


# the two-record report used throughout the ingest examples
TWO_RECORD_TSV = tsv(
    "Title\tPublication Year\tTotal Citations\t2010\t2011\t2012",
    "First paper\t2010\t5\t2\t2\t1",
    "Second paper\t2011\t3\t0\t1\t2",
)


@pytest.fixture
def two_record_tsv() -> bytes:
    return TWO_RECORD_TSV


@pytest.fixture
def records_made(monkeypatch) -> list:
    """The PublicationRecords made during the test, however they were built: ``__init__`` and
    the constructor that ``parse_report`` and ``generate`` use both fill a record with ``_fill``."""
    made = []
    fill = ingest._fill

    def counted(record, *fields):
        made.append(record)
        return fill(record, *fields)
    monkeypatch.setattr(ingest, "_fill", counted)
    return made


@pytest.fixture
def call_counter(monkeypatch) -> tuple:
    """``(calls, count)``: ``count(owner, name)`` replaces the function ``name`` of ``owner`` (a
    module or class) with one that adds each call to ``calls[name]``."""
    calls = collections.Counter()

    def count(owner, name):
        original = owner.__dict__[name]

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls, count


def make_profile(totals_by_year, name="fixture", reported_h=None) -> ResearcherProfile:
    """Build a profile from {pub_year: [per-paper totals]}; citations land in the pub year."""
    records = []
    for year in sorted(totals_by_year):
        for total in totals_by_year[year]:
            records.append(PublicationRecord(
                title=f"paper {len(records)}",
                pub_year=year,
                total_citations=total,
                citations_by_year={year: total} if total else {},
            ))
    return ResearcherProfile(name=name, reported_h=reported_h, records=records)


def random_profile(rng: random.Random) -> ResearcherProfile:
    """Random but valid profile for round-trip exercises (deterministic via rng)."""
    n_records = rng.randint(1, 12)
    records = []
    for k in range(n_records):
        pub_year = rng.randint(1960, 2025)
        by_year = {}
        for _ in range(rng.randint(0, 6)):
            by_year[pub_year + rng.randint(0, 15)] = rng.randint(1, 400)
        window = sum(by_year.values())
        # totals sometimes exceed the window sum, as in real exports
        total = window + (rng.randint(0, 50) if rng.random() < 0.3 else 0)
        title = "".join(
            rng.choice("abc XYZ0189,;quéλ") for _ in range(rng.randint(0, 20))
        )
        records.append(PublicationRecord(
            title=title, pub_year=pub_year, total_citations=total, citations_by_year=by_year
        ))
    return ResearcherProfile(
        name="researcher " + str(rng.randint(0, 10 ** 6)),
        source_id=None if rng.random() < 0.5 else f"WOS-{rng.randint(1000, 9999)}",
        reported_h=None if rng.random() < 0.5 else rng.randint(0, 60),
        records=records,
    )


def profiles_equal_modulo_warnings(a: ResearcherProfile, b: ResearcherProfile) -> bool:
    return (
        a.name == b.name
        and a.source_id == b.source_id
        and a.reported_h == b.reported_h
        and a.records == b.records
    )

"""Differential tests: the fast write path against the reference ``generate`` and ``serialize_report``.

``generate`` must give the same records as the reference, and
``serialize_report`` the same bytes in both formats.  The one intended
difference: where the reference sanitizes a field with a warning, writes a
file that does not read back as the profile, or writes a CR in a CSV field,
``serialize_report`` raises ValueError instead.

The ``synth`` command writes its rows straight from the generator, with no
record in between; the bytes it writes must be
``reference_synth.serialize_report(reference_synth.generate(spec), fmt)``,
and a spec the reference rejects must exit 2 with the reference's message.
"""

import contextlib
import functools
import io
import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papertrail import ingest, synth
from papertrail.cli import main
from papertrail.errors import InvalidSpecError, PapertrailError
from papertrail.ingest import (
    MAX_COUNT,
    PublicationRecord,
    ReportFormat,
    ResearcherProfile,
    parse_report,
    serialize_report,
)
from papertrail.synth import Archetype, _enforce_peak, conscientious_spec, generate, papermill_spec

from conftest import profiles_equal_modulo_warnings
import reference_synth
from test_synth import accepted_specs

# the synth-write benchmark profile: 11,703 records over 76 year columns
WIDE_SPEC = conscientious_spec(1, n_years=60, peak_rate=400, start_year=1960)


@functools.lru_cache(maxsize=None)
def reference(spec):
    """The reference profile of ``spec`` and its reference bytes in each format, made once.

    The wide profile's bytes come from the variant that reads each record's years once, which
    ``test_reading_each_record_once_writes_the_verbatim_bytes`` checks against the verbatim one."""
    profile = reference_synth.generate(spec)
    serialize = (reference_synth.serialize_report_reading_once if spec == WIDE_SPEC
                 else reference_synth.serialize_report)
    return profile, {fmt: serialize(profile, fmt) for fmt in ReportFormat}


def assert_same_output(spec):
    profile = generate(spec)
    expected, data = reference(spec)
    assert profile == expected
    for fmt in ReportFormat:
        assert serialize_report(profile, fmt) == data[fmt]


@pytest.mark.parametrize("make_spec", [conscientious_spec, papermill_spec])
def test_generate_and_serialize_match_reference(make_spec):
    for seed in range(50):
        assert_same_output(make_spec(seed))


def test_wide_profile_matches_reference():
    assert_same_output(WIDE_SPEC)


@pytest.mark.parametrize("make_spec", [conscientious_spec, papermill_spec])
def test_reading_each_record_once_writes_the_verbatim_bytes(make_spec):
    for seed in range(50):
        profile, data = reference(make_spec(seed))  # the verbatim reference's bytes
        for fmt in ReportFormat:
            assert reference_synth.serialize_report_reading_once(profile, fmt) == data[fmt]


@settings(max_examples=100, deadline=None)
@given(accepted_specs())
def test_any_accepted_spec_generates_the_reference_profile(spec):
    # the draws reach cites_per_paper 1e6, where no kernel output repeats and counts pass 255
    try:
        expected = reference_synth.generate(spec)
    except InvalidSpecError:
        with pytest.raises(InvalidSpecError):
            generate(spec)
    else:
        assert generate(spec) == expected


def test_rows_share_a_shape_within_one_call_and_never_across_calls(monkeypatch):
    # no timing bound: papers of one call with the same kernel output share one counts tuple, and
    # generate's records hold the rows' tuples; a second call builds its own
    rows = list(synth._rows(WIDE_SPEC))
    assert all(type(row[4]) is tuple for row in rows)
    assert len({id(row[4]) for row in rows}) == len({row[4] for row in rows}) < len(rows)

    seen = []

    def recorded(spec, rows_of=synth._rows):
        for row in rows_of(spec):
            seen.append(row)
            yield row

    monkeypatch.setattr(synth, "_rows", recorded)
    records = generate(WIDE_SPEC).records
    assert all(rec._counts is row[4] for rec, row in zip(records, seen, strict=True))

    assert seen == rows
    assert all(again[4] is not row[4] for again, row in zip(seen, rows) if row[4])


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


@settings(max_examples=200, deadline=None)
@given(profiles(), st.sampled_from(list(ReportFormat)))
def test_reading_each_record_once_writes_the_verbatim_bytes_of_any_profile(profile, fmt):
    # uncited records, a reported h-index and fields the TSV flavor sanitizes, which no synth
    # profile has
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert (reference_synth.serialize_report_reading_once(profile, fmt)
                == reference_synth.serialize_report(profile, fmt))


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
    for row, rec in zip(synth._rows(spec), profile.records, strict=True):
        for years, counts in (row[3:], (rec._years, rec._counts)):
            assert len(counts) == len(years)
            assert not counts and not years or counts[0] and counts[-1]
        assert rec._years == row[3] and rec._counts == tuple(row[4])

    def refuse(records):
        raise AssertionError("serialize_report summed the columns")

    monkeypatch.setattr(ingest, "_citation_totals", refuse)
    for fmt in ReportFormat:
        assert serialize_report(profile, fmt) == reference(spec)[1][fmt]


MAKE_SPEC = {Archetype.CONSCIENTIOUS: conscientious_spec, Archetype.PAPERMILL: papermill_spec}
# the parameters of each archetype that the command takes as flags, besides the seed
PARAMETERS = {
    archetype: ("start_year", "n_years", "base_rate", "peak_rate", "cites_per_paper", own)
    for archetype, own in ((Archetype.CONSCIENTIOUS, "kernel_peak_lag"),
                           (Archetype.PAPERMILL, "onset_offset"))
}


def run_synth(tmp_path, fmt, archetype, seed, params):
    """Exit code, stderr and written bytes (None if no file) of the ``synth`` command.

    The output's extension picks the format, as it does without ``--format``."""
    out = tmp_path / f"synth.{fmt.value}"
    out.unlink(missing_ok=True)
    flags = [f"--{name.replace('_', '-')}={value!r}" for name, value in params.items()]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["synth", "--archetype", archetype.value, f"--seed={seed}", *flags,
                     "-o", str(out)])
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


def assert_writes_like_reference_generator(tmp_path, archetype, seed, params, expected=None):
    """The command gives the reference bytes in both formats, or the reference's error."""
    try:
        spec = MAKE_SPEC[archetype](seed, **params)
        profile, data = expected or (reference_synth.generate(spec), None)
    except InvalidSpecError as exc:
        for fmt in ReportFormat:
            assert run_synth(tmp_path, fmt, archetype, seed, params) == (2, f"error: {exc}\n", None)
        return
    for fmt in ReportFormat:
        want = data[fmt] if data else reference_synth.serialize_report(profile, fmt)
        assert run_synth(tmp_path, fmt, archetype, seed, params) == (0, "", want)


def spec_parameters(spec):
    return {name: getattr(spec, name) for name in PARAMETERS[spec.archetype]}


@pytest.mark.parametrize("spec", [
    WIDE_SPEC,
    *(make(seed, cites_per_paper=cites) for make in (conscientious_spec, papermill_spec)
      for seed in (0, 7) for cites in (1e-9, 1e6)),  # nothing cited; counts above 255
], ids=lambda spec: f"{spec.archetype.value}-{spec.seed}-{spec.n_years}y-{spec.cites_per_paper:g}")
def test_synth_command_writes_the_reference_bytes(spec, tmp_path):
    assert_writes_like_reference_generator(tmp_path, spec.archetype, spec.seed,
                                           spec_parameters(spec), reference(spec))


@st.composite
def synth_arguments(draw):
    """Parameters within their bounds; low rates may still generate no paper, an error."""
    archetype = draw(st.sampled_from(list(Archetype)))
    n_years = draw(st.integers(8, 24))
    base_rate = draw(st.floats(0.01, 6.0))
    params = {
        "start_year": draw(st.integers(1950, 2000)),
        "n_years": n_years,
        "base_rate": base_rate,
        "peak_rate": base_rate + draw(st.floats(0.0, 20.0)),
        "cites_per_paper": draw(st.sampled_from([1e-9, 1e6]) | st.floats(1e-3, 500.0)),
    }
    if archetype is Archetype.PAPERMILL:
        params["onset_offset"] = draw(st.integers(0, n_years - 1))
    else:
        params["kernel_peak_lag"] = draw(st.integers(1, 20))
    return archetype, draw(st.integers(0, 2**64 - 1)), params


@settings(max_examples=100, deadline=None)
@given(synth_arguments())
def test_synth_command_writes_like_the_reference_generator(tmp_path_factory, arguments):
    assert_writes_like_reference_generator(tmp_path_factory.mktemp("synth"), *arguments)


@pytest.mark.parametrize("archetype,seed,params", [
    (Archetype.PAPERMILL, 0, {"n_years": 4}),
    (Archetype.PAPERMILL, -1, {}),
    (Archetype.PAPERMILL, 2**64, {}),
    (Archetype.PAPERMILL, 0, {"base_rate": float("nan")}),
    (Archetype.CONSCIENTIOUS, 0, {"peak_rate": float("inf")}),
    (Archetype.CONSCIENTIOUS, 0, {"cites_per_paper": float("-inf")}),
    (Archetype.PAPERMILL, 0, {"base_rate": 0.001}),
    (Archetype.CONSCIENTIOUS, 0, {"base_rate": 5.0, "peak_rate": 4.0}),
    (Archetype.PAPERMILL, 0, {"peak_rate": 1001.0}),
    (Archetype.CONSCIENTIOUS, 0, {"kernel_peak_lag": 0}),
    (Archetype.CONSCIENTIOUS, 0, {"kernel_peak_lag": 21}),
    (Archetype.PAPERMILL, 0, {"onset_offset": -1}),
    (Archetype.PAPERMILL, 0, {"n_years": 9, "onset_offset": 9}),
    (Archetype.PAPERMILL, 0, {"cites_per_paper": 0.0}),
    (Archetype.PAPERMILL, 0, {"cites_per_paper": 1e7}),
    (Archetype.PAPERMILL, 0, {"start_year": 1899}),
    (Archetype.PAPERMILL, 0, {"start_year": 2095}),
    (Archetype.CONSCIENTIOUS, 0, {"start_year": 2070}),  # citations would run to 2112
    (Archetype.PAPERMILL, 0, {"base_rate": 0.01, "peak_rate": 0.01}),  # no paper generated
    (Archetype.CONSCIENTIOUS, 0, {"base_rate": 0.01, "peak_rate": 0.01, "n_years": 8}),
])
def test_invalid_spec_gives_the_reference_error(archetype, seed, params, tmp_path):
    with pytest.raises(InvalidSpecError):
        reference_synth.generate(MAKE_SPEC[archetype](seed, **params))
    assert_writes_like_reference_generator(tmp_path, archetype, seed, params)


def test_synth_command_builds_no_record(tmp_path, records_made, call_counter):
    # no timing bound: the command writes the generator's rows, never a record or its column sums
    calls, count = call_counter
    count(ingest, "serialize_report")
    count(ingest, "_citation_totals")
    expected = {spec: reference(spec) for spec in (papermill_spec(3), conscientious_spec(3),
                                                   papermill_spec(0, cites_per_paper=1e-9))}
    records_made.clear()  # the reference's records
    for spec, (_, data) in expected.items():
        for fmt in ReportFormat:
            assert run_synth(tmp_path, fmt, spec.archetype, spec.seed,
                             spec_parameters(spec)) == (0, "", data[fmt])
    assert calls == {} and records_made == []

    # the library's generate still wraps the same rows in records
    profile = generate(papermill_spec(3))
    assert calls == {} and len(records_made) == len(profile.records)
    assert profile == expected[papermill_spec(3)][0]


def traced_peak(call):
    """What ``call()`` returns, and the peak of the memory that tracemalloc traced during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_command_writes_its_report_as_it_renders_it(tmp_path):
    # no timing bound: the command holds the generated rows, as generating them does, but the
    # report it writes never whole: it goes into -o as it is rendered
    out = tmp_path / "wide.tsv"
    flags = [f"--{name.replace('_', '-')}={value!r}"
             for name, value in spec_parameters(WIDE_SPEC).items()]
    _, rows_peak = traced_peak(lambda: list(synth._rows(WIDE_SPEC)))
    code, command_peak = traced_peak(lambda: main([
        "synth", "--archetype", WIDE_SPEC.archetype.value, f"--seed={WIDE_SPEC.seed}", *flags,
        "-o", str(out)]))
    assert code == 0
    assert command_peak - rows_peak < out.stat().st_size / 4

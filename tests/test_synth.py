import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from papertrail.errors import InvalidSpecError
from papertrail.indicators import SignalKind, analyze_profile, best_lag
from papertrail.ingest import MAX_YEAR, MIN_YEAR, PublicationRecord, parse_report, serialize_report
from papertrail.series import build_series
from papertrail.synth import (
    MAX_CITES_PER_PAPER,
    MAX_KERNEL_PEAK_LAG,
    MAX_PEAK_RATE,
    MIN_BASE_RATE,
    Archetype,
    SynthSpec,
    Xorshift64Star,
    _PAPERMILL_KERNEL,
    _conscientious_kernel,
    _floor_carry,
    conscientious_spec,
    generate,
    papermill_spec,
)


class TestPrng:
    # frozen reference outputs; the constants are part of the generator's
    # contract (identical fixtures across implementations)
    def test_known_stream_seed_zero(self):
        rng = Xorshift64Star(0)
        assert [rng.next_u64() for _ in range(3)] == [
            8916199331640804048,
            16032783972208265725,
            12954103179475586193,
        ]

    def test_known_stream_seed_12345(self):
        rng = Xorshift64Star(12345)
        assert [rng.next_u64() for _ in range(3)] == [
            5183077046498735836,
            3805546223250818746,
            4087110861520818665,
        ]

    def test_uniform_in_unit_interval(self):
        rng = Xorshift64Star(99)
        for _ in range(1000):
            u = rng.uniform()
            assert 0.0 <= u < 1.0

    def test_jitter_bounds(self):
        rng = Xorshift64Star(3)
        for _ in range(1000):
            assert 0.85 <= rng.jitter(0.15) <= 1.15

    def test_a_batch_of_jitters_draws_what_one_at_a_time_draws(self):
        batched, single = Xorshift64Star(7), Xorshift64Star(7)
        assert batched._jitters(0.25, 0) == []
        assert batched._jitters(0.25, 500) == [single.jitter(0.25) for _ in range(500)]
        assert batched.next_u64() == single.next_u64()  # and leaves the same state


class TestSpecValidation:
    def test_defaults_are_valid(self):
        papermill_spec(0)
        conscientious_spec(0)

    @pytest.mark.parametrize("kwargs", [
        {"n_years": 7},
        {"base_rate": 0.0},
        {"base_rate": 50.0},          # exceeds peak_rate
        {"cites_per_paper": 0.0},
        {"start_year": 2095},
    ])
    def test_invalid_papermill_parameters(self, kwargs):
        with pytest.raises(InvalidSpecError):
            papermill_spec(0, **kwargs)

    @pytest.mark.parametrize("make", [papermill_spec, conscientious_spec])
    @pytest.mark.parametrize("kwargs", [
        {"base_rate": math.nan},
        {"base_rate": math.inf, "peak_rate": math.inf},
        {"base_rate": MIN_BASE_RATE / 2},
        {"peak_rate": math.nan},
        {"peak_rate": math.inf},
        {"peak_rate": MAX_PEAK_RATE + 1},
        {"cites_per_paper": math.nan},
        {"cites_per_paper": math.inf},
        {"cites_per_paper": MAX_CITES_PER_PAPER * 2},
    ])
    def test_non_finite_or_unbounded_rates(self, make, kwargs):
        with pytest.raises(InvalidSpecError):
            make(0, **kwargs)

    def test_rate_bounds_are_inclusive(self):
        # constructing a spec generates nothing, so the largest size is cheap to check
        papermill_spec(0, base_rate=MIN_BASE_RATE, peak_rate=MAX_PEAK_RATE,
                       cites_per_paper=MAX_CITES_PER_PAPER)
        conscientious_spec(0, kernel_peak_lag=MAX_KERNEL_PEAK_LAG)
        papermill_spec(0, peak_rate=400.0)

    @pytest.mark.parametrize("make", [papermill_spec, conscientious_spec])
    @pytest.mark.parametrize("seed,valid", [(-1, False), (0, True), (2 ** 64 - 1, True),
                                            (2 ** 64, False)])
    def test_seed_range(self, make, seed, valid):
        if valid:
            assert generate(make(seed)).records
        else:
            with pytest.raises(InvalidSpecError, match="seed"):
                make(seed)

    def test_citations_past_the_last_year_rejected(self):
        with pytest.raises(InvalidSpecError, match="citations would run to 2159, past 2100"):
            conscientious_spec(0, start_year=2075, n_years=25, kernel_peak_lag=20)

    @pytest.mark.parametrize("lag", [1, 6, MAX_KERNEL_PEAK_LAG])
    def test_citation_end_bound_is_inclusive(self, lag):
        # the last publication year plus the kernel span of 3 * lag years
        start = 2100 - 7 - 3 * lag
        records = generate(conscientious_spec(0, start_year=start, n_years=8,
                                              kernel_peak_lag=lag)).records
        assert max(max(r.citations_by_year) for r in records if r.citations_by_year) <= 2100
        with pytest.raises(InvalidSpecError, match="citations would run to 2101"):
            conscientious_spec(0, start_year=start + 1, n_years=8, kernel_peak_lag=lag)

    def test_papermill_citation_end_is_the_start_year_bound(self):
        # papermill citations end one year after the last publication year
        papermill_spec(0, start_year=2100 - 14)
        with pytest.raises(InvalidSpecError, match="leaves no room"):
            papermill_spec(0, start_year=2100 - 13)

    def test_invalid_onset(self):
        with pytest.raises(InvalidSpecError):
            papermill_spec(0, onset_offset=14)

    def test_invalid_kernel_lag(self):
        with pytest.raises(InvalidSpecError):
            conscientious_spec(0, kernel_peak_lag=0)
        with pytest.raises(InvalidSpecError):
            conscientious_spec(0, kernel_peak_lag=MAX_KERNEL_PEAK_LAG + 1)


class TestDeterminism:
    def test_identical_specs_identical_bytes(self):
        for make in (papermill_spec, conscientious_spec):
            a = serialize_report(generate(make(7)))
            b = serialize_report(generate(make(7)))
            assert a == b

    def test_different_seeds_differ(self):
        assert serialize_report(generate(papermill_spec(1))) != serialize_report(
            generate(papermill_spec(2))
        )

    def test_output_parses_cleanly(self):
        data = serialize_report(generate(papermill_spec(4)))
        profile = parse_report(data)
        assert profile.warnings == []  # totals always equal the window sums
        assert profile.name == "synth-papermill-4"


class TestArchetypeShapes:
    @pytest.mark.parametrize("seed", range(5))
    def test_papermill_pubs_non_decreasing_after_onset(self, seed):
        spec = papermill_spec(seed)
        series = build_series(generate(spec))
        onset_index = spec.onset_offset  # series starts at the first pub year
        window = series.pubs[onset_index: spec.n_years]
        assert all(b >= a for a, b in zip(window, window[1:]))

    def test_papermill_pre_onset_output_is_flat(self):
        spec = papermill_spec(21)
        series = build_series(generate(spec))
        assert set(series.pubs[: spec.onset_offset]) == {round(spec.base_rate)}

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("lag", [3, 6, 9])
    def test_conscientious_modal_citation_lag(self, seed, lag):
        profile = generate(conscientious_spec(seed, kernel_peak_lag=lag))
        for rec in profile.records:
            assert rec.citations_by_year, "every paper receives at least one citation"
            modal = max(rec.citations_by_year, key=lambda y: (rec.citations_by_year[y], -y))
            assert modal - rec.pub_year == lag


class TestArchetypeDiscrimination:
    @pytest.mark.parametrize("seed", range(10))
    def test_papermill_profile_reads_as_papermill(self, seed):
        ind = analyze_profile(generate(papermill_spec(seed)))
        assert ind.r is not None and ind.r >= 0.9
        assert ind.lag == 0
        kinds = {s.kind for s in ind.flags}
        assert SignalKind.HIGH_CORRELATION in kinds
        assert SignalKind.LOW_INTEGRITY in kinds

    @pytest.mark.parametrize("seed", range(10))
    def test_conscientious_profile_reads_as_conscientious(self, seed):
        profile = generate(conscientious_spec(seed))
        ind = analyze_profile(profile)
        assert SignalKind.LOW_INTEGRITY not in {s.kind for s in ind.flags}
        assert (ind.r is not None and ind.r < 0.5) or (ind.lag is not None and ind.lag >= 3)
        # the citation delay is visible regardless of the strong-correlation gate
        direct = best_lag(build_series(profile), 10)
        assert direct.lag >= 3

    def test_promotion_style_variant_lands_in_flag_region(self):
        # a milder papermill burst (28 papers/year peak) still classifies inside
        ind = analyze_profile(generate(papermill_spec(11, peak_rate=28.0)))
        assert ind.r is not None and ind.r > 0.5
        assert ind.i_index < 0.3


# n_years × peak_rate bounds a spec's paper count, and so the time one example takes
PAPER_BUDGET = 400


@st.composite
def accepted_specs(draw):
    """A spec that SynthSpec accepts: each field drawn over its range, with n_years × peak_rate
    at most PAPER_BUDGET; a draw whose citations would run past MAX_YEAR is skipped."""
    n_years = draw(st.integers(8, MAX_YEAR - MIN_YEAR))
    rate = st.floats(MIN_BASE_RATE, PAPER_BUDGET / n_years) | st.integers(1, PAPER_BUDGET // n_years)
    base_rate, peak_rate = sorted([draw(rate), draw(rate)])
    try:
        return SynthSpec(
            archetype=draw(st.sampled_from(Archetype)),
            start_year=draw(st.integers(MIN_YEAR, MAX_YEAR - n_years)),
            n_years=n_years,
            seed=draw(st.integers(0, 2 ** 64 - 1)),
            base_rate=base_rate,
            peak_rate=peak_rate,
            cites_per_paper=draw(st.floats(0, MAX_CITES_PER_PAPER, exclude_min=True)
                                 | st.integers(1, int(MAX_CITES_PER_PAPER))),
            onset_offset=draw(st.integers(0, n_years - 1)),
            kernel_peak_lag=draw(st.integers(1, MAX_KERNEL_PEAK_LAG)),
        )
    except InvalidSpecError:
        reject()


class TestGenerateContract:
    @settings(max_examples=100, deadline=None)
    @given(accepted_specs())
    def test_an_accepted_spec_generates_or_raises_invalid_spec_error(self, spec):
        try:
            generate(spec)
        except InvalidSpecError:
            pass

    def test_spec_must_produce_at_least_one_paper(self):
        spec = SynthSpec(
            archetype=Archetype.CONSCIENTIOUS, start_year=2000, n_years=8, seed=0,
            base_rate=0.01, peak_rate=0.02, cites_per_paper=5.0,
            onset_offset=0, kernel_peak_lag=6,
        )
        with pytest.raises(InvalidSpecError):
            generate(spec)

    @pytest.mark.parametrize("make", [papermill_spec, conscientious_spec])
    def test_records_pass_the_public_validation(self, make):
        # generate builds records without __post_init__; each must survive it unchanged
        for seed in (0, 1, 7, 2 ** 64 - 1):
            for r in generate(make(seed)).records:
                assert PublicationRecord(
                    r.title, r.pub_year, r.total_citations, dict(r.citations_by_year)
                ) == r

    def test_totals_equal_window_sums(self):
        for rec in generate(papermill_spec(5)).records:
            assert rec.total_citations == sum(rec.citations_by_year.values())


# the conscientious kernel of each lag, and the papermill kernel
KERNELS = [_conscientious_kernel(conscientious_spec(kernel_peak_lag=lag))
           for lag in range(1, MAX_KERNEL_PEAK_LAG + 1)] + [list(_PAPERMILL_KERNEL)]


def ulps_above(x, n):
    """The float ``n`` steps above ``x``."""
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


@st.composite
def masses_in_order(draw):
    """Masses ``a <= m <= b`` in [1, 1e7]: ``a`` over the range with 1.0 and 1e7 among its draws,
    ``b`` a few ulps or a short step above it, and ``m`` next to ``a``, next to ``b`` or between."""
    a = draw(st.sampled_from([1.0, 1e7]) | st.floats(1.0, 1e7))
    b = min(draw(st.builds(ulps_above, st.just(a), st.integers(0, 3))
                 | st.floats(0, 2).map(lambda step: a + step)), 1e7)
    m = draw(st.sampled_from([a, b, math.nextafter(a, math.inf), math.nextafter(b, 0.0)])
             | st.floats(0, 1).map(lambda frac: a + (b - a) * frac))
    return a, min(max(m, a), b), b


class TestKernelLemma:
    # synth runs the kernel only for a mass that two shaped masses with one output do not enclose
    @settings(max_examples=300)
    @given(st.sampled_from(KERNELS), masses_in_order())
    def test_a_mass_between_two_with_one_output_gives_that_output(self, kernel, masses):
        a, m, b = masses
        if _floor_carry(kernel, a) == _floor_carry(kernel, b):
            assert _floor_carry(kernel, m) == _floor_carry(kernel, a)

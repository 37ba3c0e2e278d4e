"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every threshold and tolerance is pinned here; the random suites use fixed
seeds so the gate is deterministic.
"""

import json
import math
import random
import statistics
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import pytest

from papertrail.cli import main as cli_main
from papertrail.cohort import (
    CohortPoint,
    Region,
    RegionClass,
    classify_region,
    cohort_summary,
    fit_linear,
    fit_power_law,
)
from papertrail.errors import (
    AllDegenerateError,
    EmptyProfileError,
    EncodingError,
    MalformedHeaderError,
    MalformedRowError,
)
from papertrail.indicators import (
    DEFAULT_HCP_THRESHOLDS,
    SignalKind,
    analyze_profile,
    best_lag,
    h_index,
    i_index,
    pearson,
    round_half_up,
)
from papertrail.ingest import (
    PublicationRecord,
    ReportFormat,
    parse_report,
    serialize_report,
)
from papertrail.render import (
    ChartStyle,
    ScatterAxes,
    profile_chart,
    profile_cite_axis,
    profile_pub_axis,
    scatter_axes_transforms,
    scatter_chart,
    scatter_coords,
)
from papertrail.series import AnnualSeries, build_series
from papertrail.synth import conscientious_spec, generate, papermill_spec

from conftest import profiles_equal_modulo_warnings, random_profile

DECLARED_PARSE_ERRORS = (
    MalformedHeaderError,
    MalformedRowError,
    EmptyProfileError,
    EncodingError,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def test_criterion_1_i_index_paper_values():
    with criterion(1, "i-index reference values", budget_seconds=1.0):
        assert i_index(32, 64) == 0.5
        assert abs(i_index(34, 384) - 34 / 384) < 1e-12
        assert round_half_up(i_index(34, 384), 2) == 0.09  # source displays a truncated 0.08
        assert round_half_up(i_index(86, 196), 2) == 0.44


def test_criterion_2_hcp_thresholds():
    expected = {
        2015: 92, 2016: 81, 2017: 77, 2018: 74, 2019: 64, 2020: 56,
        2021: 42, 2022: 30, 2023: 19, 2024: 9, 2025: 3,
    }
    with criterion(2, "HCP threshold table and boundaries", budget_seconds=1.0):
        assert dict(DEFAULT_HCP_THRESHOLDS) == expected
        from papertrail.indicators import hcp_count
        for year, needed in expected.items():
            at = [PublicationRecord("p", year, needed, {})]
            below = [PublicationRecord("p", year, needed - 1, {})]
            assert hcp_count(at) == 1, f"{year}: threshold must be inclusive"
            assert hcp_count(below) == 0, f"{year}: below threshold must not count"


def test_criterion_3_correlation_and_lag_properties():
    with criterion(3, "correlation/lag property suite", budget_seconds=5.0):
        rng = random.Random(0xC0FFEE)
        for _ in range(1000):
            n = rng.randint(2, 40)
            x = [rng.randint(0, 100) for _ in range(n)]
            y = [rng.randint(0, 100) for _ in range(n)]
            r = pearson(x, y)
            if r is None:
                continue
            assert abs(r) <= 1 + 1e-12
            assert abs(pearson(y, x) - r) <= 1e-12
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(-100.0, 100.0)
            assert abs(pearson([a * v + b for v in x], y) - r) <= 1e-12

        for _ in range(500):
            n = rng.randint(8, 40)
            max_lag = rng.randint(0, min(10, n - 3))
            pubs = tuple(rng.randint(0, 20) for _ in range(n))
            if rng.random() < 0.1:
                cites = (rng.randint(0, 5),) * n  # force degenerate lags
            else:
                cites = tuple(rng.randint(0, 60) for _ in range(n))
            series = AnnualSeries(2000, pubs, cites)
            oracle = None
            for d in range(max_lag + 1):
                try:
                    r = statistics.correlation(pubs[: n - d], cites[d:])
                except statistics.StatisticsError:
                    continue
                if oracle is None or r > oracle[1] + 1e-12:
                    oracle = (d, r)
            if oracle is None:
                with pytest.raises(AllDegenerateError):
                    best_lag(series, max_lag)
            else:
                got = best_lag(series, max_lag)
                assert got.lag == oracle[0]
                assert abs(got.r_at_lag - oracle[1]) <= 1e-9


def test_criterion_4_h_index_brute_force():
    with criterion(4, "h-index vs enumeration oracle", budget_seconds=2.0):
        rng = random.Random(4242)
        for _ in range(1000):
            n = rng.randint(0, 200)
            totals = [rng.randint(0, 300) for _ in range(n)]
            records = [PublicationRecord("p", 2015, t, {}) for t in totals]
            brute = 0
            for h in range(n + 1):
                if sum(1 for t in totals if t >= h) >= h:
                    brute = h
            assert h_index(records) == brute


def test_criterion_5_fit_recovery():
    with criterion(5, "noiseless fit recovery and scale covariance", budget_seconds=1.0):
        # Published coefficients for one real 82-researcher cohort (power law
        # a=1.7524, b=-0.5956; line slope=0.1151, intercept=-3.3981) need that
        # undistributed data set; they are reference values only, and the
        # contract tested here is exact recovery on noiseless data.
        for n_points in (4, 7, 20, 50):
            ps = [5 + 3 * k for k in range(n_points)]
            power = fit_power_law([(p, 2.0 * p ** -0.5) for p in ps])
            assert abs(power.a - 2.0) / 2.0 < 1e-9
            assert abs(power.b - (-0.5)) / 0.5 < 1e-9
            linear = fit_linear([(p, 2.0 * p + 1.0) for p in ps])
            assert abs(linear.slope - 2.0) / 2.0 < 1e-9
            assert abs(linear.intercept - 1.0) / 1.0 < 1e-9

        rng = random.Random(55)
        pts = [(rng.randint(2, 600), rng.uniform(0.01, 1.0)) for _ in range(50)]
        base = fit_power_law(pts)
        c = 2.75
        scaled = fit_power_law([(p, c * i) for p, i in pts])
        assert abs(scaled.a - c * base.a) / (c * base.a) < 1e-9
        assert abs(scaled.b - base.b) / abs(base.b) < 1e-9


def test_criterion_6_archetype_discrimination():
    with criterion(6, "papermill/conscientious discrimination", budget_seconds=1.0):
        pm_profile = generate(papermill_spec(0))
        assert serialize_report(pm_profile) == serialize_report(generate(papermill_spec(0)))
        pm = analyze_profile(pm_profile)
        assert pm.r is not None and pm.r >= 0.9
        assert pm.lag == 0
        pm_kinds = {s.kind for s in pm.flags}
        assert SignalKind.LOW_INTEGRITY in pm_kinds
        assert SignalKind.HIGH_CORRELATION in pm_kinds

        co_profile = generate(conscientious_spec(0))
        assert serialize_report(co_profile) == serialize_report(generate(conscientious_spec(0)))
        co = analyze_profile(co_profile)
        assert SignalKind.LOW_INTEGRITY not in {s.kind for s in co.flags}
        assert (co.r is not None and co.r < 0.5) or (co.lag is not None and co.lag >= 3)


def test_criterion_7_cohort_pipeline(tmp_path):
    with criterion(7, "82-profile cohort vs group-by oracle", budget_seconds=5.0):
        specs = []
        for k in range(45):
            specs.append((f"pm{k}", papermill_spec(
                k, peak_rate=20.0 + (k % 7) * 5.0, cites_per_paper=2.0 + (k % 3) * 0.5,
            )))
        for k in range(37):
            specs.append((f"co{k}", conscientious_spec(
                1000 + k, peak_rate=8.0 + (k % 6) * 2.0, cites_per_paper=70.0 + (k % 5) * 12.0,
            )))
        assert len(specs) == 82

        # full pipeline: generate -> serialize -> parse -> analyze -> classify
        points = []
        for label, spec in specs:
            data = serialize_report(generate(spec))
            profile = parse_report(data, default_name=label)
            ind = analyze_profile(profile)
            points.append(CohortPoint(
                label=label, r=ind.r, i_index=ind.i_index, total_pubs=ind.total_pubs,
                max_pubs_year=ind.max_pubs_year, avg_pubs_year=ind.avg_pubs_year,
            ))

        summary = cohort_summary(points)

        # independent group-by oracle on the raw coordinates
        inside = [p for p in points if p.r is not None and p.r > 0.5 and p.i_index < 0.3]
        outside = [p for p in points if p.r is not None
                   and not (p.r > 0.5 and p.i_index < 0.3)]
        assert summary.n_inside == len(inside)
        assert summary.n_outside == len(outside)
        assert summary.inside_fraction == len(inside) / (len(inside) + len(outside))
        assert summary.inside.total_pubs == sum(p.total_pubs for p in inside) / len(inside)
        assert summary.inside.max_pubs_year == sum(p.max_pubs_year for p in inside) / len(inside)
        assert summary.inside.avg_pubs_year == math.fsum(p.avg_pubs_year for p in inside) / len(inside)
        assert summary.outside.total_pubs == sum(p.total_pubs for p in outside) / len(outside)
        assert summary.outside.max_pubs_year == sum(p.max_pubs_year for p in outside) / len(outside)
        assert summary.outside.avg_pubs_year == math.fsum(p.avg_pubs_year for p in outside) / len(outside)

        # every synthetic papermill lands inside, every conscientious outside
        for p in points:
            expected = RegionClass.INSIDE if p.label.startswith("pm") else RegionClass.OUTSIDE
            assert classify_region(p) is expected, p.label

        # boundary strictness at (0.5, 0.3)
        region = Region(r_min=0.5, i_max=0.3)
        on_r = CohortPoint("r-edge", 0.5, 0.1, 10, 1, 1.0)
        on_i = CohortPoint("i-edge", 0.9, 0.3, 10, 1, 1.0)
        just_in = CohortPoint("in", 0.5 + 1e-9, 0.3 - 1e-9, 10, 1, 1.0)
        assert classify_region(on_r, region) is RegionClass.OUTSIDE
        assert classify_region(on_i, region) is RegionClass.OUTSIDE
        assert classify_region(just_in, region) is RegionClass.INSIDE


def test_criterion_8_ingest_round_trip_and_fuzz():
    with criterion(8, "ingest round-trip and 10k-case fuzz", budget_seconds=30.0):
        rng = random.Random(808)
        for _ in range(200):
            profile = random_profile(rng)
            for fmt in ReportFormat:
                again = parse_report(serialize_report(profile, fmt), fmt)
                assert profiles_equal_modulo_warnings(profile, again)

        header = b"Title\tPublication Year\tTotal Citations\t2010\t2011\n"
        valid = b"# researcher\tA\n" + header + b"p\t2010\t3\t1\t2\n"
        outcomes = {"profile": 0, "error": 0}
        for case in range(10_000):
            kind = case % 3
            if kind == 0:
                data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 120)))
            elif kind == 1:
                mutated = bytearray(valid)
                for _ in range(rng.randint(1, 8)):
                    pos = rng.randrange(len(mutated))
                    mutated[pos] = rng.randrange(256)
                data = bytes(mutated)
            else:
                pieces = [header if rng.random() < 0.7 else b"",
                          b"p\t2010\t3\t1\t2\n" * rng.randint(0, 3),
                          bytes(rng.randrange(32, 127) for _ in range(rng.randint(0, 40)))]
                rng.shuffle(pieces)
                data = b"".join(pieces)
            fmt = ReportFormat.TSV if case % 2 else ReportFormat.CSV
            try:
                profile = parse_report(data, fmt)
                assert profile.records
                outcomes["profile"] += 1
            except DECLARED_PARSE_ERRORS:
                outcomes["error"] += 1
        assert sum(outcomes.values()) == 10_000


def test_criterion_9_svg_contract():
    with criterion(9, "SVG structure and half-pixel inverse transform", budget_seconds=2.0):
        profile = generate(papermill_spec(1))
        series = build_series(profile)
        ind = analyze_profile(profile)
        style = ChartStyle()

        svg = profile_chart(series, ind, style)
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        bars = [e for e in root.iter(f"{SVG_NS}rect") if e.get("class") == "bar"]
        assert len(bars) == len(series)
        line = [e for e in root.iter(f"{SVG_NS}polyline") if e.get("class") == "cites"][0]
        vertices = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
        assert len(vertices) == len(series)

        pub_t = profile_pub_axis(series, style)
        cite_t = profile_cite_axis(series, style)
        for value, bar in zip(series.pubs, bars):
            assert abs(float(bar.get("y")) - pub_t.to_px(value)) <= 0.5
        for value, (_, vy) in zip(series.cites, vertices):
            assert abs(vy - cite_t.to_px(value)) <= 0.5

        points = [
            CohortPoint(f"p{k}", rng_r, 0.05 + 0.09 * k, 50 + 40 * k, 5 + 3 * k, 2.0 + k)
            for k, rng_r in enumerate((-0.4, 0.1, 0.55, 0.8, 0.95))
        ]
        for axes in ScatterAxes:
            chart = scatter_chart(points, axes, region=Region())
            sroot = ET.fromstring(chart)
            xt, yt = scatter_axes_transforms(points, axes)
            markers = [e for e in sroot.iter(f"{SVG_NS}circle") if e.get("class") == "marker"]
            coords = scatter_coords(points, axes)
            assert len(markers) == len(coords)
            for (_, dx, dy), m in zip(coords, markers):
                assert abs(float(m.get("cx")) - xt.to_px(dx)) <= 0.5
                assert abs(float(m.get("cy")) - yt.to_px(dy)) <= 0.5


def test_criterion_exit_codes(tmp_path, capsys):
    # CLI contract spot-check rolled into the gate: 0 data-ok / 1 data error
    out = tmp_path / "ok.tsv"
    assert cli_main(["synth", "--archetype", "papermill", "--seed", "9", "-o", str(out)]) == 0
    assert cli_main(["analyze", str(out), "--json", str(tmp_path / "r.json")]) == 0
    assert cli_main(["analyze", str(tmp_path / "absent.tsv")]) == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["schema_version"] == "1.0"

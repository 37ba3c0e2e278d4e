import dataclasses
import math
import re
import sys
import xml.etree.ElementTree as ET
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papertrail.cli import main
from papertrail.cohort import CohortPoint, LinearFit, PowerLawFit, Region, fit_linear, fit_power_law
from papertrail.errors import EmptyCohortError, PapertrailError
from papertrail.indicators import IndicatorSet, analyze_profile
from papertrail.ingest import MAX_COUNT, PublicationRecord, ResearcherProfile, serialize_report
from papertrail.render import (
    ChartStyle,
    ScatterAxes,
    profile_chart,
    profile_cite_axis,
    profile_pub_axis,
    scatter_axes_transforms,
    scatter_chart,
    profile_year_slot,
    scatter_coords,
    _nice_step,
)
from papertrail.series import AnnualSeries
from papertrail.synth import conscientious_spec, generate

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_root(text: str) -> ET.Element:
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"
    return root


def find_class(root: ET.Element, tag: str, cls: str) -> list[ET.Element]:
    return [e for e in root.iter(f"{SVG_NS}{tag}") if e.get("class") == cls]


def polyline_vertices(elem: ET.Element) -> list[tuple[float, float]]:
    pairs = elem.get("points").split()
    return [tuple(float(c) for c in p.split(",")) for p in pairs]


SERIES = AnnualSeries(2010, (3, 7, 0, 12), (5, 40, 22, 61))


def sample_indicators() -> IndicatorSet:
    return IndicatorSet(
        r=0.94, lag=0, h=34, i_index=0.0885, total_pubs=384, total_cites=4000,
        max_pubs_year=45, min_pubs_year=0, avg_pubs_year=16.0,
        avg_cites_per_paper=10.4, start_year=2010, hcp_count=3, series=SERIES,
    )


class TestProfileChart:
    def test_one_bar_per_year_and_polyline_vertices(self):
        root = svg_root(profile_chart(SERIES, sample_indicators()))
        bars = find_class(root, "rect", "bar")
        assert len(bars) == 4
        lines = find_class(root, "polyline", "cites")
        assert len(lines) == 1
        assert len(polyline_vertices(lines[0])) == 4

    def test_all_zero_citations_still_well_formed(self):
        series = AnnualSeries(2010, (1, 2, 1), (0, 0, 0))
        root = svg_root(profile_chart(series, sample_indicators()))
        line = find_class(root, "polyline", "cites")[0]
        ys = {y for _, y in polyline_vertices(line)}
        assert len(ys) == 1  # flat at the baseline

    def test_caption_present(self):
        text = profile_chart(SERIES, sample_indicators())
        assert "r=0.94" in text
        assert "lag=0" in text
        assert "I=0.09" in text
        assert "h=34" in text

    def test_caption_handles_undefined(self):
        ind = sample_indicators()
        ind = IndicatorSet(**{**ind.__dict__, "r": None, "lag": None})
        text = profile_chart(SERIES, ind)
        assert "r=undefined" in text
        assert "lag=n/a" in text

    def test_bar_heights_invert_to_pub_counts(self):
        style = ChartStyle()
        root = svg_root(profile_chart(SERIES, sample_indicators(), style))
        t = profile_pub_axis(SERIES, style)
        bars = find_class(root, "rect", "bar")
        for value, bar in zip(SERIES.pubs, bars):
            assert abs(float(bar.get("y")) - t.to_px(value)) <= 0.5
            decoded = t.from_px(float(bar.get("y")))
            assert abs(t.to_px(decoded) - t.to_px(value)) <= 0.5

    def test_polyline_inverts_to_citation_counts(self):
        style = ChartStyle(width=1100, height=420)
        root = svg_root(profile_chart(SERIES, sample_indicators(), style))
        t = profile_cite_axis(SERIES, style)
        slot = profile_year_slot(SERIES, style)
        line = find_class(root, "polyline", "cites")[0]
        for i, (x, y) in enumerate(polyline_vertices(line)):
            assert abs(y - t.to_px(SERIES.cites[i])) <= 0.5
            assert abs(x - (64.0 + (i + 0.5) * slot)) <= 0.5

    def test_title_escaped(self):
        style = ChartStyle(title="A <b>bold</b> & strange title")
        svg_root(profile_chart(SERIES, sample_indicators(), style))  # must stay parseable

    def test_characters_xml_forbids_are_shown_as_a_stand_in(self):
        # the C0 controls but tab, LF and CR, a surrogate, U+FFFE and U+FFFF; each keeps its place
        forbidden = "".join(map(chr, [*range(9), 11, 12, *range(14, 32), 0xD800, 0xDFFF, 0xFFFE, 0xFFFF]))
        style = ChartStyle(title=f"<{forbidden}\t\x7f\U0001F600>")
        (title,) = [e for e in svg_root(profile_chart(SERIES, sample_indicators(), style)).iter()
                    if e.text and e.text.startswith("<")]
        assert title.text == "<" + "\ufffd" * len(forbidden) + "\t\x7f\U0001F600>"


def test_analyze_writes_a_valid_chart_for_a_name_with_a_control_character(tmp_path):
    # the name reaches the chart's title; XML 1.0 forbids U+0001, so html.escape alone wrote a
    # chart that no XML parser reads
    report, chart = tmp_path / "r.tsv", tmp_path / "r.svg"
    profile = ResearcherProfile("A\x01B", records=generate(conscientious_spec(0)).records)
    report.write_bytes(serialize_report(profile))
    assert main(["analyze", str(report), "--json", str(tmp_path / "r.json"), "--svg", str(chart)]) == 0
    root = ET.parse(chart).getroot()
    assert any(e.text and e.text.endswith("A\ufffdB") for e in root.iter(f"{SVG_NS}text"))


def cohort_points():
    return [
        CohortPoint("a", 0.9, 0.1, 400, 40, 20.0),
        CohortPoint("b", -0.2, 0.5, 100, 10, 5.0),
        CohortPoint("c", 0.6, 0.25, 250, 30, 12.0),
    ]


class TestScatterChart:
    def test_markers_and_region(self):
        root = svg_root(scatter_chart(cohort_points(), ScatterAxes.I_VS_R, region=Region()))
        assert len(find_class(root, "circle", "marker")) == 3
        assert len(find_class(root, "rect", "region")) == 1

    def test_region_rect_spans_flag_region(self):
        style = ChartStyle()
        root = svg_root(scatter_chart(cohort_points(), ScatterAxes.I_VS_R, region=Region(), style=style))
        xt, yt = scatter_axes_transforms(cohort_points(), ScatterAxes.I_VS_R, style)
        rect = find_class(root, "rect", "region")[0]
        assert float(rect.get("x")) == pytest.approx(xt.to_px(0.5), abs=0.5)
        assert float(rect.get("y")) == pytest.approx(yt.to_px(0.3), abs=0.5)

    def test_markers_invert_to_data(self):
        style = ChartStyle(width=640, height=480)
        points = cohort_points()
        for axes in ScatterAxes:
            root = svg_root(scatter_chart(points, axes, style=style))
            xt, yt = scatter_axes_transforms(points, axes, style)
            markers = find_class(root, "circle", "marker")
            assert len(markers) == 3
            from papertrail.render import scatter_coords
            for ((_, dx, dy), m) in zip(scatter_coords(points, axes), markers):
                assert abs(float(m.get("cx")) - xt.to_px(dx)) <= 0.5
                assert abs(float(m.get("cy")) - yt.to_px(dy)) <= 0.5

    def test_undefined_r_points_dropped_in_r_modes(self):
        points = cohort_points() + [CohortPoint("d", None, 0.5, 50, 5, 2.0)]
        root = svg_root(scatter_chart(points, ScatterAxes.I_VS_R))
        assert len(find_class(root, "circle", "marker")) == 3
        root = svg_root(scatter_chart(points, ScatterAxes.I_VS_P_POWERFIT))
        assert len(find_class(root, "circle", "marker")) == 4

    def test_power_fit_curve_passes_through_exact_points(self):
        pts = [
            CohortPoint(f"p{p}", 0.0, round(2.0 * p ** -0.5, 10), p, 1, 1.0)
            for p in (10, 20, 40, 80)
        ]
        fit = fit_power_law([(p.total_pubs, p.i_index) for p in pts])
        style = ChartStyle()
        root = svg_root(scatter_chart(pts, ScatterAxes.I_VS_P_POWERFIT, fit=fit, style=style))
        curve = polyline_vertices(find_class(root, "polyline", "fit")[0])
        assert len(curve) == 100
        for marker in find_class(root, "circle", "marker"):
            cx, cy = float(marker.get("cx")), float(marker.get("cy"))
            y_interp = _interp(curve, cx)
            assert abs(y_interp - cy) <= 0.5

    def test_linear_fit_curve(self):
        pts = [CohortPoint(f"p{p}", 0.0, 0.5, p, 2 * p + 1, 1.0) for p in (10, 30, 50, 90)]
        fit = fit_linear([(p.total_pubs, p.max_pubs_year) for p in pts])
        root = svg_root(scatter_chart(pts, ScatterAxes.M_VS_P_LINFIT, fit=fit))
        curve = polyline_vertices(find_class(root, "polyline", "fit")[0])
        for marker in find_class(root, "circle", "marker"):
            cx, cy = float(marker.get("cx")), float(marker.get("cy"))
            assert abs(_interp(curve, cx) - cy) <= 0.5

    def test_bubble_radii_ordered_like_max_pubs(self):
        points = cohort_points()
        root = svg_root(scatter_chart(points, ScatterAxes.I_VS_R_BUBBLE))
        radii = [float(m.get("r")) for m in find_class(root, "circle", "marker")]
        ms = [p.max_pubs_year for p in points]
        for i in range(len(ms)):
            for j in range(len(ms)):
                assert (ms[i] <= ms[j]) == (radii[i] <= radii[j])

    def test_empty_cohort(self):
        with pytest.raises(EmptyCohortError):
            scatter_chart([], ScatterAxes.I_VS_R)

    def test_equal_coordinates_get_a_unit_pad_and_one_radius(self):
        points = [CohortPoint(f"p{k}", 0.1 * k, 0.5, 40, 6, 2.0) for k in range(3)]
        xt, yt = scatter_axes_transforms(points, ScatterAxes.M_VS_P_LINFIT)
        assert (xt.data_lo, xt.data_hi, yt.data_lo, yt.data_hi) == (39.0, 41.0, 5.0, 7.0)
        root = svg_root(scatter_chart(points, ScatterAxes.I_VS_R_BUBBLE))
        radii = [float(m.get("r")) for m in find_class(root, "circle", "marker")]
        assert radii == [8.5, 8.5, 8.5]  # midway between the smallest and largest bubble

    def test_shade_region_flag_off(self):
        root = svg_root(scatter_chart(cohort_points(), ScatterAxes.I_VS_R, region=None))
        assert find_class(root, "rect", "region") == []

    @pytest.mark.parametrize("axes", list(ScatterAxes))
    def test_only_the_correlation_charts_get_the_fixed_frame_and_the_region(self, axes):
        correlation = axes in (ScatterAxes.I_VS_R, ScatterAxes.I_VS_R_BUBBLE)
        xt, yt = scatter_axes_transforms(cohort_points(), axes)
        fixed = (xt.data_lo, xt.data_hi, yt.data_lo, yt.data_hi) == (-1.0, 1.0, 0.0, 1.0)
        root = svg_root(scatter_chart(cohort_points(), axes, region=Region()))
        assert fixed == correlation
        assert len(find_class(root, "rect", "region")) == correlation


UNREPRESENTABLE_FITS = [
    # the fit the two-researcher cohort one paper apart used to get: p ** b overflows at every p
    ([CohortPoint("C", None, 0.01, 100, 100, 100.0), CohortPoint("D", None, 1.0, 101, 101, 101.0)],
     ScatterAxes.I_VS_P_POWERFIT, PowerLawFit(a=0.0, b=462.8157851175318, r_squared=1.0, n_points=2), 0),
    # a negative r to the power 0.5 is complex: the 50 samples at r >= 0 are left
    ([CohortPoint("C", -0.5, 0.2, 10, 1, 1.0), CohortPoint("D", 0.5, 0.3, 10, 1, 1.0)],
     ScatterAxes.I_VS_R, PowerLawFit(a=1.0, b=0.5, r_squared=1.0, n_points=2), 50),
    # 0.0 to a negative power has no value: the first sample goes
    ([CohortPoint("C", 0.0, 0.2, 10, 1, 1.0), CohortPoint("D", 0.5, 0.3, 10, 1, 1.0)],
     ScatterAxes.I_VS_R, PowerLawFit(a=1.0, b=-1.0, r_squared=1.0, n_points=2), 99),
    # a line past the largest float
    ([CohortPoint("C", 0.0, 0.2, 10, 1, 1.0), CohortPoint("D", 0.5, 0.3, 20, 2, 1.0)],
     ScatterAxes.M_VS_P_LINFIT, LinearFit(slope=1e308, intercept=1e308, r_squared=1.0, n_points=2), 0),
]


@pytest.mark.parametrize("points,axes,fit,kept", UNREPRESENTABLE_FITS,
                         ids=["power-overflows", "power-complex", "power-of-zero", "line-overflows"])
def test_a_fit_sample_with_no_finite_value_is_left_out(points, axes, fit, kept):
    (curve,) = find_class(svg_root(scatter_chart(points, axes, fit=fit)), "polyline", "fit")
    vertices = polyline_vertices(curve)
    assert len(vertices) == kept
    assert all(math.isfinite(c) for vertex in vertices for c in vertex)


def _interp(curve, x):
    for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
        if min(x0, x1) - 1e-9 <= x <= max(x0, x1) + 1e-9:
            if x1 == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError(f"x={x} outside the sampled curve")


class TestStyleValidation:
    def test_dimensions_must_be_positive(self):
        # and leave a plot frame of one pixel inside the margins, which 1x1, 50x50, 100x40 and
        # 136x92 did not (bars of negative size, a frame of 0x0); the bound above keeps each
        # coordinate finite and short, which a height of 10**307 (inf) and a width of 10**300 did not
        width = "chart width must lie in 137..100000, got {}".format
        height = "chart height must lie in 93..100000, got {}".format
        for kwargs, message in [({"width": 0}, width(0)), ({"height": -1}, height(-1)),
                                ({"width": 1, "height": 1}, width(1)), ({"width": 50, "height": 50}, width(50)),
                                ({"width": 100, "height": 40}, width(100)),
                                ({"width": 137, "height": 40}, height(40)),
                                ({"width": 136, "height": 92}, width(136)), ({"height": 92}, height(92)),
                                ({"width": 10**400}, width("(401 digits)")),
                                ({"height": 10**400}, height("(401 digits)")),
                                ({"height": 10**307}, height("(308 digits)")),
                                ({"width": 10**300}, width("(301 digits)")),
                                ({"width": 100_001}, width(100_001)), ({"height": 100_001}, height(100_001)),
                                ({"width": int(sys.float_info.max)}, width("(309 digits)"))]:
            with pytest.raises(ValueError) as raised:
                ChartStyle(**kwargs)
            assert str(raised.value) == message
        assert ChartStyle(width=137, height=93) == ChartStyle(137, 93, "")
        assert ChartStyle(width=100_000, height=100_000).width == 100_000


def record(year: int, total: int, cited: dict | None = None) -> PublicationRecord:
    return PublicationRecord(f"p{year}", year, total, cited)


# profiles that stress the value axes: one record, no citations, counts at MAX_COUNT, the widest
# window; and a synthetic profile, on which the sizes outside the range were seen to fail
STRESS_PROFILES = {
    "synth": generate(conscientious_spec(0)).records,
    "one-record": [record(2000, 0)],
    "no-citations": [record(year, 0) for year in range(1990, 2000)],
    "one-count-at-max": [record(2000, MAX_COUNT, {2001: MAX_COUNT})],
    "every-count-at-max": [record(year, MAX_COUNT, {year: MAX_COUNT, 2100: MAX_COUNT})
                           for year in range(1900, 2101, 4)],
}
# cohorts that stress the scatter axes: one point, all points on one x or on one y, the bounds of
# r and I, a count at MAX_COUNT, and points without r
STRESS_COHORTS = {
    "one-point": [CohortPoint("a", 0.5, 0.2, 10, 3, 1.0)],
    "one-x": [CohortPoint(f"p{k}", 0.3, k / 4, 40, 4 + k, 2.0) for k in range(5)],
    "one-y": [CohortPoint(f"p{k}", k / 2 - 1, 0.5, 10 + k, 4, 2.0) for k in range(5)],
    "corners": [CohortPoint("lo", -1.0, 0.0, 1, 1, 1.0),
                CohortPoint("hi", 1.0, 1.0, MAX_COUNT, MAX_COUNT, float(MAX_COUNT))],
    "no-r": [CohortPoint("n", None, 0.5, 7, 2, 1.0), CohortPoint("m", None, 0.1, 70, 20, 10.0)],
}
SIZES = st.integers(137, 140) | st.integers(99_997, 100_000), st.integers(93, 96) | st.integers(99_997, 100_000)


def assert_valid_svg(svg: str, style: ChartStyle) -> None:
    """The chart parses; every number in an attribute is finite, every width and height at least
    0, and each bar's and marker's centre inside the viewBox."""
    root = svg_root(svg)
    assert root.get("viewBox") == f"0 0 {style.width} {style.height}"
    for elem in root.iter():
        for name, value in elem.attrib.items():
            for token in re.split(r"[\s,()]+", value):
                with suppress(ValueError):
                    assert math.isfinite(float(token)), (elem.tag, name, value)
            if name in ("width", "height"):
                assert float(value) >= 0, (elem.tag, name, value)
    centres = [(float(bar.get("x")) + float(bar.get("width")) / 2,
                float(bar.get("y")) + float(bar.get("height")) / 2)
               for bar in find_class(root, "rect", "bar")]
    centres += [(float(m.get("cx")), float(m.get("cy"))) for m in find_class(root, "circle", "marker")]
    assert all(0 <= x <= style.width and 0 <= y <= style.height for x, y in centres), centres


@settings(max_examples=150, deadline=None)
@given(width=SIZES[0], height=SIZES[1], profile=st.sampled_from(list(STRESS_PROFILES)), title=st.text())
def test_a_profile_chart_of_any_size_is_valid_svg(width, height, profile, title):
    style = ChartStyle(width, height, title)
    ind = analyze_profile(ResearcherProfile("R", records=STRESS_PROFILES[profile]))
    assert_valid_svg(profile_chart(ind.series, ind, style), style)


def cohort_fit(points: list, axes: ScatterAxes):
    """The fit the cohort command draws on ``axes``, or None where it has none or cannot fit."""
    fit = {ScatterAxes.I_VS_P_POWERFIT: fit_power_law, ScatterAxes.M_VS_P_LINFIT: fit_linear}.get(axes)
    coords = [(x, y) for _, x, y in scatter_coords(points, axes)]
    try:
        return fit(coords) if fit else None
    except PapertrailError:
        return None


@settings(max_examples=200, deadline=None)
@given(width=SIZES[0], height=SIZES[1], cohort=st.sampled_from(list(STRESS_COHORTS)),
       axes=st.sampled_from(list(ScatterAxes)), fitted=st.booleans(), shaded=st.booleans(),
       title=st.text(), labels=st.lists(st.text(), min_size=5, max_size=5))
def test_a_scatter_chart_of_any_size_is_valid_svg(width, height, cohort, axes, fitted, shaded,
                                                  title, labels):
    # the researcher names, which the markers carry as labels, and the title are any text
    style = ChartStyle(width, height, title)
    points = [dataclasses.replace(p, label=label) for p, label in zip(STRESS_COHORTS[cohort], labels)]
    fit = cohort_fit(points, axes) if fitted else None
    svg = scatter_chart(points, axes, fit=fit, region=Region() if shaded else None, style=style)
    assert_valid_svg(svg, style)


def assert_nice_step(span: float) -> None:
    """The tick step of ``span`` is 1, 2 or 5 times a power of ten, and at least a fifth of it."""
    step = _nice_step(span)
    k = math.floor(math.log10(step))
    assert any(step == pytest.approx(m * 10.0 ** e, rel=1e-12)
               for m in (1, 2, 5) for e in (k - 1, k, k + 1)), (span, step)
    assert step >= span / 5, (span, step)


@settings(max_examples=500, deadline=None)
@given(span=st.floats(1e-300, 1e300) | st.floats(-300, 300).map(lambda e: 10.0 ** e))
def test_nice_step_over_every_magnitude(span):
    assert_nice_step(span)


def test_nice_step_around_each_power_of_ten():
    # a span of 5, 10, 25 or 50 times 10**k puts span / 5 on a power of ten or a 2 or 5 times one
    for k in range(-299, 299):
        for m in (5.0, 10.0, 25.0, 50.0):
            span = m * 10.0 ** k
            for s in (math.nextafter(span, 0.0), span, math.nextafter(span, math.inf)):
                assert_nice_step(s)

"""SVG chart generation: per-researcher profile charts and cohort scatters.

Everything is plain SVG 1.1 text with no external dependencies or fonts.
Data-to-pixel mapping is a plain affine transform per axis, exposed as
:class:`AxisTransform` so callers (and tests) can decode element positions
back into data coordinates exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from html import escape
from typing import Iterator, Sequence

from .cohort import CohortPoint, LinearFit, PowerLawFit, ScatterAxes
from .config import Region, _check_range, _check_types
from .errors import EmptyCohortError
from .indicators import IndicatorSet, round_half_up
from .series import AnnualSeries

MARGIN_LEFT = 64.0
MARGIN_RIGHT = 72.0
MARGIN_TOP = 48.0
MARGIN_BOTTOM = 44.0

FIT_CURVE_SAMPLES = 100
BUBBLE_RADIUS_MIN = 3.0
BUBBLE_RADIUS_MAX = 14.0
MARKER_RADIUS = 4.0
_TARGET_TICKS = 5  # the ticks an axis aims at
_PAD_FRACTION = 0.05  # the share of a scatter axis's data span padded onto each of its ends
BAR_COLOR = "#4682b4"
LINE_COLOR = "#8b0000"

_FONT = "font-family=\"sans-serif\""
# the characters XML 1.0 forbids: the C0 controls but tab, LF and CR, the surrogates, U+FFFE and
# U+FFFF.  A pattern string: ``re`` compiles it on first use, not at import
_NOT_XML = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


@dataclass(frozen=True)
class ChartStyle:
    """A chart's size in pixels and its title.  A value of the wrong type, a width outside
    137..100000 or a height outside 93..100000 raises ValueError.  The least size leaves a plot
    frame of one pixel inside the ``MARGIN_*`` constants, and the most keeps each coordinate
    finite, of at most six digits before the point."""

    width: int = 900
    height: int = 500
    title: str = ""

    def __post_init__(self) -> None:
        _check_types(self)
        for name, margins in (("width", MARGIN_LEFT + MARGIN_RIGHT), ("height", MARGIN_TOP + MARGIN_BOTTOM)):
            _check_range(getattr(self, name), int(margins) + 1, 100_000, f"chart {name}")


@dataclass(frozen=True)
class AxisTransform:
    """Invertible affine map between data values and pixel coordinates."""

    data_lo: float
    data_hi: float
    px_lo: float
    px_hi: float

    def to_px(self, value: float) -> float:
        span = self.data_hi - self.data_lo
        return self.px_lo + (value - self.data_lo) * (self.px_hi - self.px_lo) / span

    def from_px(self, px: float) -> float:
        span = self.px_hi - self.px_lo
        return self.data_lo + (px - self.px_lo) * (self.data_hi - self.data_lo) / span


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _value_axis(max_value: float, px_bottom: float, px_top: float) -> AxisTransform:
    return AxisTransform(0.0, max_value if max_value > 0 else 1.0, px_bottom, px_top)


def _nice_step(span: float) -> float:
    raw = span / _TARGET_TICKS
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _axis_ticks(t: AxisTransform) -> Iterator[float]:
    step = _nice_step(t.data_hi - t.data_lo)
    v = math.ceil(t.data_lo / step) * step
    while v <= t.data_hi + 1e-9:
        yield round(v, 9)
        v += step


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="black"/>'


def _y_ticks(t: AxisTransform, edge: float, side: int, fill: str | None = None) -> Iterator[str]:
    """Tick marks and labels of a vertical axis at ``edge``, drawn on ``side`` (-1 left, 1 right)."""
    x1, x2 = sorted((edge, edge + 4 * side))
    anchor = "end" if side < 0 else "start"
    for v in _axis_ticks(t):
        y = t.to_px(v)
        yield _line(x1, y, x2, y)
        yield _label(edge + 7 * side, y + 4, anchor, f"{v:g}", fill)


def _text(text: str) -> str:
    """``text`` as a chart's text element holds it: escaped, and with each character that XML 1.0
    forbids (see ``_NOT_XML``) shown as U+FFFD, the replacement character, a visible stand-in that
    keeps the text's length and marks where such a character stood.  Every text of a chart but a
    number passes through here."""
    return re.sub(_NOT_XML, "\ufffd", escape(text, quote=False))


def _label(x: float, y: float, anchor: str, text: object, fill: str | None = None) -> str:
    """An 11 px axis label: a tick value or a year."""
    paint = f' fill="{fill}"' if fill else ""
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" {_FONT} font-size="11"{paint}>{text}</text>'


def _svg_open(style: ChartStyle) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{style.width}" height="{style.height}" '
        f'viewBox="0 0 {style.width} {style.height}">',
        f'<rect x="0" y="0" width="{style.width}" height="{style.height}" fill="white"/>',
    ]
    if style.title:
        parts.append(
            f'<text x="{style.width / 2:.1f}" y="24" text-anchor="middle" '
            f'{_FONT} font-size="16">{_text(style.title)}</text>'
        )
    return parts


def _plot_frame(style: ChartStyle) -> tuple[float, float, float, float]:
    """Left, right, top, bottom pixel edges of the plotting area."""
    return (
        MARGIN_LEFT,
        style.width - MARGIN_RIGHT,
        MARGIN_TOP,
        style.height - MARGIN_BOTTOM,
    )


def profile_pub_axis(series: AnnualSeries, style: ChartStyle) -> AxisTransform:
    """Left (publications) value axis for the profile chart."""
    _, _, top, bottom = _plot_frame(style)
    return _value_axis(max(series.pubs), bottom, top)


def profile_cite_axis(series: AnnualSeries, style: ChartStyle) -> AxisTransform:
    """Right (citations) value axis for the profile chart."""
    _, _, top, bottom = _plot_frame(style)
    return _value_axis(max(series.cites), bottom, top)


def profile_year_slot(series: AnnualSeries, style: ChartStyle) -> float:
    left, right, _, _ = _plot_frame(style)
    return (right - left) / len(series)


def _caption(ind: IndicatorSet) -> str:
    r_txt = "undefined" if ind.r is None else f"{round_half_up(ind.r, 2):g}"
    lag_txt = "n/a" if ind.lag is None else str(ind.lag)
    i_txt = f"{round_half_up(ind.i_index, 2):g}"
    return f"r={r_txt}  lag={lag_txt}  I={i_txt}  h={ind.h}"


def profile_chart(series: AnnualSeries, ind: IndicatorSet, style: ChartStyle = ChartStyle()) -> str:
    """Dual-axis chart: publication bars (left scale) and citation line (right scale).

    One bar per year on the left axis, one polyline vertex per year on the
    independent right axis, plus year ticks and a caption with r, lag, I, h.
    """
    left, right, top, bottom = _plot_frame(style)
    slot = profile_year_slot(series, style)
    pub_t = profile_pub_axis(series, style)
    cite_t = profile_cite_axis(series, style)

    parts = _svg_open(style)

    # publication bars, left scale
    for i, v in enumerate(series.pubs):
        x = left + i * slot + 0.15 * slot
        y = pub_t.to_px(v)
        parts.append(
            f'<rect class="bar" x="{_fmt(x)}" y="{_fmt(y)}" '
            f'width="{_fmt(0.7 * slot)}" height="{_fmt(bottom - y)}" '
            f'fill="{BAR_COLOR}"/>'
        )

    # citation polyline, right scale
    vertices = " ".join(
        f"{_fmt(left + (i + 0.5) * slot)},{_fmt(cite_t.to_px(v))}"
        for i, v in enumerate(series.cites)
    )
    parts.append(
        f'<polyline class="cites" points="{vertices}" fill="none" '
        f'stroke="{LINE_COLOR}" stroke-width="2"/>'
    )

    # axes
    parts.append(_line(left, top, left, bottom))
    parts.append(_line(right, top, right, bottom))
    parts.append(_line(left, bottom, right, bottom))
    parts += _y_ticks(pub_t, left, -1, BAR_COLOR)
    parts += _y_ticks(cite_t, right, 1, LINE_COLOR)
    year_step = max(1, round(len(series) / 12))
    for i in range(0, len(series), year_step):
        parts.append(_label(left + (i + 0.5) * slot, bottom + 16, "middle", series.years[i]))

    parts.append(
        f'<text class="caption" x="{_fmt(left)}" y="{_fmt(style.height - 8)}" {_FONT} '
        f'font-size="13">{_text(_caption(ind))}</text>'
    )
    return "\n".join(parts) + "\n</svg>\n"


_AXIS_FIELDS = {
    ScatterAxes.I_VS_R: ("r", "i_index", "correlation r", "integrity index I"),
    ScatterAxes.I_VS_R_BUBBLE: ("r", "i_index", "correlation r", "integrity index I"),
    ScatterAxes.I_VS_P_POWERFIT: ("total_pubs", "i_index", "total publications p", "integrity index I"),
    ScatterAxes.M_VS_P_LINFIT: ("total_pubs", "max_pubs_year", "total publications p", "max papers in one year m"),
}


def scatter_coords(points: Sequence[CohortPoint], axes: ScatterAxes) -> list[tuple[CohortPoint, float, float]]:
    """Per-point (x, y) data coordinates; points with undefined r are dropped
    in the correlation-axis modes (they have no abscissa)."""
    x_field, y_field, _, _ = _AXIS_FIELDS[axes]
    out = []
    for p in points:
        x = getattr(p, x_field)
        if x is None:
            continue
        out.append((p, float(x), float(getattr(p, y_field))))
    return out


def scatter_axes_transforms(
    points: Sequence[CohortPoint],
    axes: ScatterAxes,
    style: ChartStyle = ChartStyle(),
) -> tuple[AxisTransform, AxisTransform]:
    """The exact x/y transforms scatter_chart uses (fixed [-1,1]x[0,1] frame
    for the charts whose x is r, padded data bounds otherwise)."""
    left, right, top, bottom = _plot_frame(style)
    if _AXIS_FIELDS[axes][0] == "r":
        return AxisTransform(-1.0, 1.0, left, right), AxisTransform(0.0, 1.0, bottom, top)
    coords = scatter_coords(points, axes)
    xs = [x for _, x, _ in coords]
    ys = [y for _, _, y in coords]
    xlo, xhi = _padded(min(xs), max(xs))
    ylo, yhi = _padded(min(ys), max(ys))
    return AxisTransform(xlo, xhi, left, right), AxisTransform(ylo, yhi, bottom, top)


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi == lo:
        return lo - 1.0, hi + 1.0
    pad = (hi - lo) * _PAD_FRACTION
    return lo - pad, hi + pad


def _bubble_radius(m: int, m_lo: int, m_hi: int) -> float:
    if m_hi == m_lo:
        return (BUBBLE_RADIUS_MIN + BUBBLE_RADIUS_MAX) / 2
    frac = (m - m_lo) / (m_hi - m_lo)
    return BUBBLE_RADIUS_MIN + frac * (BUBBLE_RADIUS_MAX - BUBBLE_RADIUS_MIN)


def scatter_chart(
    points: Sequence[CohortPoint],
    axes: ScatterAxes,
    fit: PowerLawFit | LinearFit | None = None,
    region: Region | None = None,
    style: ChartStyle = ChartStyle(),
) -> str:
    """Cohort scatter plot with optional fitted curve and flag-region shading.

    One circle marker per plottable point; in bubble mode the radius scales
    affinely with max_pubs_year.  The fit curve is sampled at 100 abscissae
    across the data range, less any where the fit has no finite float value;
    the region rectangle covers r > r_min, I < i_max.
    """
    if not points:
        raise EmptyCohortError("scatter chart needs at least one point")
    left, right, top, bottom = _plot_frame(style)
    xt, yt = scatter_axes_transforms(points, axes, style)
    coords = scatter_coords(points, axes)
    x_field, _, x_label, y_label = _AXIS_FIELDS[axes]

    parts = _svg_open(style)

    if region is not None and x_field == "r":  # the flag region lies in the (r, I) plane
        rx = xt.to_px(region.r_min)
        ry = yt.to_px(region.i_max)
        parts.append(
            f'<rect class="region" x="{_fmt(rx)}" y="{_fmt(ry)}" '
            f'width="{_fmt(right - rx)}" height="{_fmt(bottom - ry)}" '
            f'fill="#808080" fill-opacity="0.15"/>'
        )

    if fit is not None and coords:
        x_data = [x for _, x, _ in coords]
        x0, x1 = min(x_data), max(x_data)
        samples = []
        for k in range(FIT_CURVE_SAMPLES):
            x = x0 + (x1 - x0) * k / (FIT_CURVE_SAMPLES - 1)
            try:
                y = fit.a * x ** fit.b if isinstance(fit, PowerLawFit) else fit.slope * x + fit.intercept
            except (OverflowError, ZeroDivisionError):  # x ** b past the largest float, or 0 ** -b
                continue
            # a sample with no finite float value is left out: a complex one comes of a negative x
            if isinstance(y, float) and math.isfinite(py := yt.to_px(y)):
                samples.append(f"{_fmt(xt.to_px(x))},{_fmt(py)}")
        parts.append(
            f'<polyline class="fit" points="{" ".join(samples)}" fill="none" '
            f'stroke="{LINE_COLOR}" stroke-width="1.5"/>'
        )

    bubble = axes is ScatterAxes.I_VS_R_BUBBLE
    if bubble:
        ms = [p.max_pubs_year for p, _, _ in coords]
        m_lo, m_hi = (min(ms), max(ms)) if ms else (0, 0)
    for p, x, y in coords:
        radius = _bubble_radius(p.max_pubs_year, m_lo, m_hi) if bubble else MARKER_RADIUS
        parts.append(
            f'<circle class="marker" cx="{_fmt(xt.to_px(x))}" cy="{_fmt(yt.to_px(y))}" '
            f'r="{_fmt(radius)}" fill="{BAR_COLOR}" fill-opacity="0.75">'
            f'<title>{_text(p.label)}</title></circle>'
        )

    # frame and ticks
    parts.append(_line(left, top, left, bottom))
    parts.append(_line(left, bottom, right, bottom))
    for v in _axis_ticks(xt):
        x = xt.to_px(v)
        parts.append(_line(x, bottom, x, bottom + 4))
        parts.append(_label(x, bottom + 16, "middle", f"{v:g}"))
    parts += _y_ticks(yt, left, -1)
    parts.append(
        f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(style.height - 8)}" text-anchor="middle" '
        f'{_FONT} font-size="12">{_text(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt((top + bottom) / 2)}" {_FONT} font-size="12" '
        f'transform="rotate(-90 14 {_fmt((top + bottom) / 2)})" text-anchor="middle">'
        f'{_text(y_label)}</text>'
    )
    return "\n".join(parts) + "\n</svg>\n"

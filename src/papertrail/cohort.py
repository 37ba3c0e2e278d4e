"""Cross-researcher analysis: region classification, aggregates, curve fits.

A cohort is a list of per-researcher scatter points (correlation, integrity
index, publication counts).  The flag region is the rectangle with strong
publication/citation correlation and low integrity index; points inside it
are the probable papermilling cluster.  Two cohort-level fits describe how
the integrity index and the peak annual output scale with total papers:
a power law I(p) = a * p^b (fit in log-log space) and a straight line
m(p) = slope * p + intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .config import AnalysisConfig, Region, _check_range, _check_types
from .errors import DegenerateAbscissaError, EmptyCohortError, TooFewPointsError
from .indicators import IndicatorSet, _indicators
from .ingest import MAX_COUNT, ReportFormat, _read_report


class RegionClass(str, Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNCLASSIFIABLE = "unclassifiable"


class ScatterAxes(str, Enum):
    """The four cohort scatter charts, by what they plot, in the order ``cohort`` writes them."""

    I_VS_R = "i_vs_r"
    I_VS_R_BUBBLE = "i_vs_r_bubble"
    I_VS_P_POWERFIT = "i_vs_p_powerfit"
    M_VS_P_LINFIT = "m_vs_p_linfit"


@dataclass(frozen=True)
class CohortPoint:
    """One researcher's coordinates in the cohort scatter plots.  A value of the wrong type or
    outside its range raises ValueError naming the field."""

    label: str
    r: float | None
    i_index: float
    total_pubs: int
    max_pubs_year: int
    avg_pubs_year: float

    def __post_init__(self) -> None:
        _check_types(self)
        if self.r is not None:  # pearson's r can pass ±1 by a rounding error, one ulp at most seen
            _check_range(self.r, -1 - 1e-9, 1 + 1e-9, "r")
        _check_range(self.i_index, 0, 1, "i_index")
        _check_range(self.total_pubs, 1, MAX_COUNT, "total_pubs")
        _check_range(self.max_pubs_year, 0, MAX_COUNT, "max_pubs_year")
        _check_range(self.avg_pubs_year, 0, MAX_COUNT, "avg_pubs_year")


@dataclass(frozen=True)
class PowerLawFit:
    a: float
    b: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class GroupMeans:
    total_pubs: float
    max_pubs_year: float
    avg_pubs_year: float


@dataclass(frozen=True)
class CohortSummary:
    n_points: int
    n_inside: int
    n_outside: int
    n_unclassifiable: int
    inside_fraction: float
    inside: GroupMeans | None
    outside: GroupMeans | None
    classes: tuple[RegionClass, ...]  # one per point, in input order


def point_from_indicators(label: str, ind: IndicatorSet) -> CohortPoint:
    """Project an analyzed profile onto its cohort scatter coordinates."""
    return CohortPoint(
        label=label,
        r=ind.r,
        i_index=ind.i_index,
        total_pubs=ind.total_pubs,
        max_pubs_year=ind.max_pubs_year,
        avg_pubs_year=ind.avg_pubs_year,
    )


def _point_from_report(label: str, data: bytes, fmt: ReportFormat,
                       config: AnalysisConfig) -> CohortPoint:
    """``point_from_indicators(label, analyze_profile(parse_report(data, fmt), config))`` from
    the report's columns: no records, lag scan, HCP count, flags or warnings are made."""
    _, _, reported_h, _, pub_years, totals, years, column_sums, _ = _read_report(data, fmt, "")
    _, r, _, i, stats, _ = _indicators(pub_years, totals, years, column_sums, reported_h, config)
    return CohortPoint(label, r, i, len(pub_years), stats.max_pubs, stats.avg_pubs)


def classify_region(point: CohortPoint, region: Region = Region()) -> RegionClass:
    """Inside iff r > r_min and I < i_max, both strict; undefined r is unclassifiable."""
    if point.r is None:
        return RegionClass.UNCLASSIFIABLE
    if point.r > region.r_min and point.i_index < region.i_max:
        return RegionClass.INSIDE
    return RegionClass.OUTSIDE


def _means(points: Sequence[CohortPoint]) -> GroupMeans | None:
    if not points:
        return None
    n = len(points)
    return GroupMeans(
        total_pubs=sum(p.total_pubs for p in points) / n,
        max_pubs_year=sum(p.max_pubs_year for p in points) / n,
        # exactly rounded, so the mean does not depend on the Python version
        avg_pubs_year=math.fsum(p.avg_pubs_year for p in points) / n,
    )


def cohort_summary(points: Sequence[CohortPoint], region: Region = Region()) -> CohortSummary:
    """Each point's class, the inside-fraction and per-group means (arithmetic, unweighted).

    Unclassifiable points (undefined correlation) are excluded from both
    groups and from the fraction's denominator; they are reported by count.
    """
    if not points:
        raise EmptyCohortError("cohort summary needs at least one point")
    classes = tuple(classify_region(p, region) for p in points)
    inside = [p for p, c in zip(points, classes) if c is RegionClass.INSIDE]
    outside = [p for p, c in zip(points, classes) if c is RegionClass.OUTSIDE]
    n_in, n_out = len(inside), len(outside)
    classified = n_in + n_out
    return CohortSummary(
        n_points=len(points),
        n_inside=n_in,
        n_outside=n_out,
        n_unclassifiable=len(points) - classified,
        inside_fraction=n_in / classified if classified else 0.0,
        inside=_means(inside),
        outside=_means(outside),
        classes=classes,
    )


def _ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Two-parameter OLS via centered normal equations -> (slope, intercept, r^2)."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateAbscissaError("all abscissa values are equal")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return slope, intercept, min(1.0, max(0.0, r_squared))


def fit_power_law(points: Iterable[tuple[float, float]]) -> PowerLawFit:
    """Fit I(p) = a * p^b by OLS on (ln p, ln I).

    Points with I <= 0 or p <= 0 cannot enter log space; they are left
    out rather than offset, and ``n_points`` counts only the points used.
    r_squared is the coefficient of determination in log space.  A fit whose
    a is not a positive finite float raises DegenerateAbscissaError.
    """
    usable = [(p, i) for p, i in points if p > 0 and i > 0]
    if len(usable) < 2:
        raise TooFewPointsError(
            f"power-law fit needs at least 2 usable points, got {len(usable)}"
        )
    log_p = [math.log(p) for p, _ in usable]
    log_i = [math.log(i) for _, i in usable]
    slope, intercept, r_squared = _ols(log_p, log_i)
    # p values close together give a steep slope and an intercept whose exp() overflows or is 0
    try:
        a = math.exp(intercept)
    except OverflowError:
        a = math.inf
    if not 0.0 < a < math.inf:
        raise DegenerateAbscissaError(f"power-law fit has no positive finite a = exp({intercept})")
    return PowerLawFit(a=a, b=slope, r_squared=r_squared, n_points=len(usable))


def fit_linear(points: Iterable[tuple[float, float]]) -> LinearFit:
    """Fit m(p) = slope * p + intercept by ordinary least squares."""
    pts = list(points)
    if len(pts) < 2:
        raise TooFewPointsError(f"linear fit needs at least 2 points, got {len(pts)}")
    xs = [p for p, _ in pts]
    ys = [m for _, m in pts]
    slope, intercept, r_squared = _ols(xs, ys)
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared, n_points=len(pts))


def parse_manifest(text: str) -> tuple[list[tuple[str, str]], list[str]]:
    """Parse a cohort manifest: one `<label><TAB><path>` entry per line.

    Blank lines and lines starting with '#' are skipped.  Malformed lines
    are reported as diagnostics rather than aborting the whole manifest.
    """
    entries: list[tuple[str, str]] = []
    problems: list[str] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        label, sep, path = line.partition("\t")
        if not sep or not label.strip() or not path.strip():
            problems.append(f"manifest line {line_no}: expected '<label><TAB><path>'")
            continue
        entries.append((label.strip(), path.strip()))
    return entries, problems

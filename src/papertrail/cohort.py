"""Cross-researcher analysis: region classification, aggregates, curve fits.

A cohort is a list of per-researcher scatter points (correlation, integrity
index, publication counts).  The flag region is the rectangle with strong
publication/citation correlation and low integrity index; points inside it
are the probable papermilling cluster.  Two cohort-level fits describe how
the integrity index and the peak annual output scale with total papers:
a power law I(p) = a * p^b (fit in log-log space) and a straight line
m(p) = slope * p + intercept.

``cohort`` builds its points with ``_fan_out``, in as many forked processes as
the CPUs it may run on, each returning its results through a pipe; the points
and their order are those of the one-process run.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NoReturn, Sequence

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


def _point_values(data: bytes, fmt: ReportFormat,
                  config: AnalysisConfig) -> tuple[float | None, float, int, int, float]:
    """The fields after the label of ``point_from_indicators(label, analyze_profile(parse_report(
    data, fmt), config))``, from the report's columns: no records, lag scan, HCP count, flags or
    warnings are made."""
    _, _, reported_h, _, pub_years, totals, years, column_sums, _ = _read_report(data, fmt, "")
    _, r, _, i, stats, _ = _indicators(pub_years, totals, years, column_sums, reported_h, config)
    return r, i, len(pub_years), stats.max_pubs, stats.avg_pubs


# the report bytes that each process of a cohort run must have to read: what the parent reads in the
# time that one forked child costs it.  On a 2-vCPU VM (CPython 3.11.7) a bare fork, pipe and reap
# took 2.1-2.8 ms, in which _point_values reads 62-78 kB; with the copy-on-write faults that follow
# in both processes, interleaved cohort runs over 16-32 benchmark reports were first faster with two
# processes than with one at 320-460 kB.  More than two processes were never measured: each one
# past the second is given another floor's worth of bytes, by the same rule
_FORK_FLOOR_BYTES = 400_000


def _fan_out(func: Callable[..., object], items: Sequence[tuple], jobs: int | None = None) -> list:
    """``[func(*item) for item in items]``, computed in up to ``jobs`` processes.

    ``func`` returns what ``marshal`` writes, and each item starts with the path of the file
    that ``func`` reads.  ``jobs`` defaults to the CPUs this process may run on, but to no
    more than one process plus one for each ``_FORK_FLOOR_BYTES`` those files hold; it is
    capped at ``len(items)``, and it is 1 without ``os.fork`` or while another thread runs (a
    forked child would have only this thread, and could wait forever on a lock that another
    thread held).

    The parent computes ``items[0::jobs]`` while forked child k computes ``items[k::jobs]``
    (see ``_send``).  The parent then computes, in order, each item that no child sent back,
    so that it raises what the list above raises, and an ``Exception`` that an item raised in
    the parent raises there again; any other exception, such as ``KeyboardInterrupt``, is
    raised at once.  No child outlives the call.
    """
    if jobs is None:
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        jobs = min(cpus, 1 + sum(_file_size(item[0]) for item in items) // _FORK_FLOOR_BYTES)
    jobs = min(jobs, len(items))
    threading = sys.modules.get("threading")  # not imported here: a program with threads has it
    if jobs < 2 or not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return [func(*item) for item in items]

    parent = os.getpid()
    missing = object()
    results = [missing] * len(items)
    failed = None  # the index and exception of the first item that raised in the parent
    children = {}  # each child not yet reaped: its pid and its share's first index
    pipes = {}  # each pipe not yet closed, by its child's pid
    try:
        for k in range(1, jobs):
            try:  # a pipe or a fork refused, as at a resource limit, leaves the share to the parent
                read_end, write_end = os.pipe()
            except OSError:
                continue
            try:
                pid = os.fork()
            except BaseException as exc:
                os.close(read_end)
                os.close(write_end)
                if isinstance(exc, OSError):
                    continue
                raise
            if pid == 0:
                _send(func, items[k::jobs], write_end)
            os.close(write_end)
            children[pid], pipes[pid] = k, read_end
        for n in range(0, len(items), jobs):
            try:
                results[n] = func(*items[n])
            except Exception as exc:  # raised again in order, once the children are done
                failed = n, exc
                break
        for pid, k in list(children.items()):
            data = _read_all(pipes[pid])
            os.close(pipes.pop(pid))
            os.waitpid(pid, 0)
            del children[pid]
            try:  # a child that died before its dump was whole sent nothing
                sent = marshal.loads(data)
            except (EOFError, ValueError, TypeError):
                sent = []
            results[k:k + jobs * len(sent):jobs] = sent
        for n, result in enumerate(results):
            if result is missing:
                if failed and failed[0] == n:
                    raise failed[1]
                results[n] = func(*items[n])
        return results
    finally:
        if os.getpid() != parent:  # a child that an interrupt reached before _send
            os._exit(1)
        for read_end in pipes.values():  # only on an exception: end the children still running
            os.close(read_end)
        if children:
            from signal import SIGKILL

            for pid in children:
                with suppress(ProcessLookupError):
                    os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _file_size(path: os.PathLike) -> int:
    """The size of the file at ``path``; 0 where it cannot be read."""
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):  # ValueError: a NUL byte in the path
        return 0


def _send(func: Callable[..., object], share: Sequence[tuple], fd: int) -> NoReturn:
    """In a forked child: write into ``fd``, as one ``marshal`` dump, the list of ``func(*item)``
    for the items of ``share`` before the first that raises, then end the process.  It never
    returns into the caller, and it flushes no stdio and runs no ``atexit`` handler, which are
    the parent's."""
    try:
        sent = []
        with suppress(BaseException):  # the parent computes the item that raised, and raises
            for item in share:
                sent.append(func(*item))
        data = memoryview(marshal.dumps(sent))
        while data:
            data = data[os.write(fd, data):]
    finally:
        os._exit(0)


def _read_all(fd: int) -> bytes:
    """What ``fd`` yields until its end."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


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

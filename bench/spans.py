"""Spans around the calls into each papertrail layer, for the traced run.

A traced operation repeats the CLI's call sequence for one subcommand
through public functions, with a span around each call.  Calls that the
program makes from inside another public function (``build_series`` inside
``analyze_profile``; ``cohort_summary`` and the two fits inside the cohort
document) are reached by swapping the name in the calling module for a
wrapper while the traced operation runs.  Spans wrap the benchmark's
replica of the call sequence, not the program's own stages.

A span is ``[op, id, parent, name, start_ns, end_ns, counts]``; spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from papertrail import cli, indicators
from papertrail.cohort import Region, parse_manifest, point_from_indicators
from papertrail.errors import PapertrailError
from papertrail.indicators import AnalysisConfig, analyze_profile
from papertrail.ingest import ReportFormat, parse_report, serialize_report
from papertrail.render import ChartStyle, profile_chart, scatter_chart
from papertrail.series import build_series
from papertrail.synth import conscientious_spec, generate

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block; yields the span's counts dict, which may be filled later."""
        counts: dict = {}
        parent = self._stack[-1] if self._stack else None
        record = [self.op, len(self.spans), parent, name, 0, 0, counts]
        self.spans.append(record)
        self._stack.append(record[1])
        record[4] = perf_counter_ns()
        try:
            yield counts
        finally:
            record[5] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count:
                counts.update(count(result))
            return result
        return traced

    @contextmanager
    def nested(self):
        """Trace the layer calls the program makes inside other public calls."""
        targets = [
            (indicators, "build_series", "series.build_series", lambda s: {"years": len(s)}),
            (cli, "cohort_summary", "cohort.cohort_summary", None),
            (cli, "fit_power_law", "cohort.fit_power_law", None),
            (cli, "fit_linear", "cohort.fit_linear", None),
        ]
        saved = []
        for module, attr, name, count in targets:
            if hasattr(module, attr):
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, count))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns", "counts")
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")


def _cells(data: bytes) -> int:
    return data.count(b"\t") + data.count(b"\n")


def _read(tr: Tracer, path: Path) -> bytes:
    with tr.span("cli.read") as counts:
        data = path.read_bytes()
    counts["bytes"] = len(data)
    return data


def _write(tr: Tracer, path: Path, data: bytes) -> None:
    with tr.span("cli.write") as counts:
        path.write_bytes(data)
    counts["bytes"] = len(data)


def _write_json(tr: Tracer, document: dict, path: Path) -> None:
    with tr.span("cli.json_dump") as counts:
        text = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    data = text.encode("utf-8")
    counts["bytes"] = len(data)
    _write(tr, path, data)


def _svg_bytes(svg: str, counts: dict) -> bytes:
    data = svg.encode("utf-8")
    counts["bytes"] = len(data)
    return data


def _parse(tr: Tracer, data: bytes, path: Path):
    cells = _cells(data)
    with tr.span("ingest.parse_report") as counts:
        counts["cells"] = cells
        try:
            profile = parse_report(data, ReportFormat.TSV, default_name=path.stem)
        except PapertrailError:
            counts["failed"] = 1
            raise
    counts.update(records=len(profile.records), warnings=len(profile.warnings))
    return profile


def _analyze(tr: Tracer, profile, config: AnalysisConfig):
    with tr.span("indicators.analyze_profile") as counts:
        ind = analyze_profile(profile, config)
    counts["lag_scans"] = int(ind.lag is not None)
    return ind


def replay_analyze(tr: Tracer, plan: dict) -> None:
    report = Path(plan["report"])
    profile = _parse(tr, _read(tr, report), report)
    ind = _analyze(tr, profile, AnalysisConfig())
    with tr.span("cli.build_report"):
        document = cli.build_report(profile, ind)
    _write_json(tr, document, Path(plan["outputs"]["json"]))
    with tr.span("series.build_series") as counts:
        series = build_series(profile)
    counts["years"] = len(series)
    style = ChartStyle(title=f"Times cited and publications over time: {profile.name}")
    with tr.span("render.profile_chart") as counts:
        svg = profile_chart(series, ind, style)
    _write(tr, Path(plan["outputs"]["svg"]), _svg_bytes(svg, counts))


def replay_cohort(tr: Tracer, plan: dict) -> dict:
    config = AnalysisConfig()
    manifest = Path(plan["manifest"])
    text = _read(tr, manifest).decode("utf-8")
    with tr.span("cohort.parse_manifest"):
        entries, problems = parse_manifest(text)
    diagnostics = [{"label": "", "path": "", "error": p} for p in problems]
    points = []
    for label, path in entries:
        resolved = Path(path)
        if not resolved.is_absolute():
            resolved = manifest.parent / resolved
        try:
            profile = _parse(tr, _read(tr, resolved), resolved)
            points.append(point_from_indicators(label, _analyze(tr, profile, config)))
        except (OSError, PapertrailError) as exc:
            diagnostics.append({"label": label, "path": str(resolved), "error": str(exc)})
    region = Region(r_min=config.r_min, i_max=config.i_max)
    with tr.span("cli.build_cohort_document"):
        document = cli.build_cohort_document(points, region, diagnostics)
    _write_json(tr, document, Path(plan["outputs"]["json"]))
    out_dir = Path(plan["outputs"]["svg_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.span("cli.compute_cohort_fits"):
        power_fit, _, linear_fit, _ = cli.compute_cohort_fits(points)
    fits = {cli.ScatterAxes.I_VS_P_POWERFIT: power_fit, cli.ScatterAxes.M_VS_P_LINFIT: linear_fit}
    for filename, axes in cli.COHORT_CHARTS:
        style = ChartStyle(title=f"Cohort: {axes.value.replace('_', ' ')}")
        with tr.span("render.scatter_chart") as counts:
            svg = scatter_chart(points, axes, fit=fits.get(axes), region=region, style=style)
        _write(tr, out_dir / filename, _svg_bytes(svg, counts))
    return {"points": len(points), "diagnostics": len(diagnostics),
            "entries": len(entries) + len(problems)}


def replay_synth(tr: Tracer, plan: dict) -> None:
    spec = conscientious_spec(**plan["spec"])
    with tr.span("synth.generate") as counts:
        profile = generate(spec)
    counts["records"] = len(profile.records)
    with tr.span("ingest.serialize_report") as counts:
        data = serialize_report(profile, ReportFormat.TSV)
    counts["bytes"] = len(data)
    _write(tr, Path(plan["outputs"]["report"]), data)


REPLAYS = {"cohort-mixed": replay_cohort, "analyze-wide": replay_analyze,
           "synth-write": replay_synth}


def traced_op(tr: Tracer, plan: dict) -> float:
    """Run one traced operation; returns its wall time in seconds."""
    tr.op += 1
    with tr.nested(), tr.span(OP) as counts:
        record = tr.spans[-1]
        counts.update(REPLAYS[plan["workload"]](tr, plan) or {})
    return (record[5] - record[4]) / 1e9


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer figures: medians over operations of per-operation sums, plus rates.

    For each span name, ``busy_s`` is the time inside the span (children
    included), ``calls`` the number of spans, and every count the span
    carried is summed.  ``trace.top_level_coverage`` is the share of the
    operation's time covered by its direct child spans.
    """
    per_op: dict[int, dict[str, float]] = {}
    op_span: dict[int, int] = {}
    for op, span_id, parent, name, start, end, counts in spans:
        acc = per_op.setdefault(op, {})
        seconds = (end - start) / 1e9
        if name == OP:  # recorded before the spans inside it
            op_span[op] = span_id
            acc["op_s"] = seconds
            for key, value in counts.items():
                acc[f"cohort.{key}"] = value
            continue
        if parent == op_span[op]:
            acc["top_level_s"] = acc.get("top_level_s", 0.0) + seconds
        for key, value in (("busy_s", seconds), ("calls", 1), *counts.items()):
            acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + value
    keys = {key for acc in per_op.values() for key in acc}
    out = {key: statistics.median(acc.get(key, 0) for acc in per_op.values()) for key in keys}
    totals = {key: sum(acc.get(key, 0) for acc in per_op.values()) for key in keys}

    def rate(count_key: str, busy_key: str) -> float:
        busy = totals.get(busy_key, 0)
        return totals.get(count_key, 0) / busy if busy else 0.0

    out["ingest.parse_report.cells_per_s"] = rate("ingest.parse_report.cells",
                                                  "ingest.parse_report.busy_s")
    out["ingest.serialize_report.bytes_per_s"] = rate("ingest.serialize_report.bytes",
                                                      "ingest.serialize_report.busy_s")
    out["synth.generate.records_per_s"] = rate("synth.generate.records", "synth.generate.busy_s")
    entries = out.get("cohort.entries", 0)
    out["cohort.useful_ratio"] = out.get("cohort.points", 0) / entries if entries else 0.0
    out["trace.top_level_coverage"] = statistics.median(
        acc.get("top_level_s", 0.0) / acc["op_s"] for acc in per_op.values())
    return out

"""Output checks, independent of the JSON schema version.

Each check reads what one operation wrote and returns a list of problems
(empty when the output is right).  Only the keys the checks name are
compared; keys a later schema adds are ignored.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

from papertrail.errors import PapertrailError
from papertrail.ingest import parse_report

SVG_ROOT = "{http://www.w3.org/2000/svg}svg"
COHORT_CHART_COUNT = 4


def _svg_problems(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: {exc}"]
    return [] if root.tag == SVG_ROOT else [f"{path.name}: root is {root.tag}, not svg"]


def _load_json(path: Path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]


def check_analyze(plan: dict) -> list[str]:
    doc, problems = _load_json(Path(plan["outputs"]["json"]))
    if doc is not None:
        expected = plan["expected"]
        got = doc.get("indicators", {})
        for key, value in expected["indicators"].items():
            if got.get(key, "<absent>") != value:
                problems.append(f"indicators.{key}: {got.get(key, '<absent>')!r} != {value!r}")
        kinds = [f.get("kind") for f in got.get("flags", [])]
        if kinds != expected["flags"]:
            problems.append(f"flags {kinds} != {expected['flags']}")
    return problems + _svg_problems(Path(plan["outputs"]["svg"]))


def check_cohort(plan: dict) -> list[str]:
    doc, problems = _load_json(Path(plan["outputs"]["json"]))
    if doc is not None:
        expected = plan["expected"]
        n_points = doc.get("summary", {}).get("n_points")
        if n_points != len(expected["points"]):
            problems.append(f"n_points {n_points} != {len(expected['points'])}")
        labels = sorted(d.get("label", "") for d in doc.get("diagnostics", []))
        if labels != expected["diagnostic_labels"]:
            problems.append(f"diagnostics for {labels} != {expected['diagnostic_labels']}")
        got = {p.get("label"): p for p in doc.get("points", [])}
        for label, fields in expected["points"].items():
            point = got.get(label, {})
            for key, value in fields.items():
                if point.get(key, "<absent>") != value:
                    problems.append(f"{label}.{key}: {point.get(key, '<absent>')!r} != {value!r}")
    charts = sorted(Path(plan["outputs"]["svg_dir"]).glob("*.svg"))
    if len(charts) != COHORT_CHART_COUNT:
        problems.append(f"{len(charts)} cohort charts, expected {COHORT_CHART_COUNT}")
    for chart in charts:
        problems += _svg_problems(chart)
    return problems


def oracle_indicators(profile) -> dict:
    """Some indicators computed directly from the records, without papertrail.

    Used to vet the reference answers, which come from the program's own
    ``analyze_profile``.
    """
    records = profile.records
    totals = sorted((rec.total_citations for rec in records), reverse=True)
    h = sum(1 for rank, total in enumerate(totals, start=1) if total >= rank)
    years = [rec.pub_year for rec in records]
    years += [year for rec in records for year in rec.citations_by_year]
    first, last = min(years), max(years)
    pubs = [0] * (last - first + 1)
    cites = [0] * (last - first + 1)
    for rec in records:
        pubs[rec.pub_year - first] += 1
        for year, count in rec.citations_by_year.items():
            cites[year - first] += count
    mean_p, mean_c = sum(pubs) / len(pubs), sum(cites) / len(cites)
    sxy = sum((p - mean_p) * (c - mean_c) for p, c in zip(pubs, cites))
    sxx = sum((p - mean_p) ** 2 for p in pubs)
    syy = sum((c - mean_c) ** 2 for c in cites)
    return {
        "correlation": sxy / (sxx * syy) ** 0.5 if sxx and syy else None,
        "h_index": h,
        "i_index": h / len(records),
        "total_publications": len(records),
        "total_citations": sum(totals),
        "max_pubs_in_year": max(pubs),
        "min_pubs_in_year": min(pubs),
        "avg_pubs_per_year": len(records) / len(pubs),
        "start_year": first,
    }


def reference_problems(label: str, reference: dict, profile) -> list[str]:
    """Where the reference disagrees with the oracle (floats to 1e-9)."""
    problems = []
    for key, want in oracle_indicators(profile).items():
        if key not in reference:
            continue
        got = reference[key]
        if isinstance(want, float) and isinstance(got, float):
            same = abs(got - want) <= 1e-9 * max(1.0, abs(want))
        else:
            same = got == want
        if not same:
            problems.append(f"{label}: analyze_profile gives {key} {got!r}, records give {want!r}")
    return problems


def check_synth(plan: dict, reference) -> list[str]:
    """The written report parses back to ``reference`` (warnings ignored)."""
    path = Path(plan["outputs"]["report"])
    try:
        parsed = parse_report(path.read_bytes())
    except (OSError, PapertrailError) as exc:
        return [f"{path.name}: {exc}"]
    problems = [
        f"{field} {getattr(parsed, field)!r} != {getattr(reference, field)!r}"
        for field in ("name", "source_id", "reported_h")
        if getattr(parsed, field) != getattr(reference, field)
    ]
    if list(parsed.records) != list(reference.records):
        problems.append("records differ from the generated profile")
    return problems


# per-operation checks the worker runs; synth-write is checked by run.py,
# after the worker has exited, so the reference profile is not in its memory
PER_OP = {"cohort-mixed": check_cohort, "analyze-wide": check_analyze}

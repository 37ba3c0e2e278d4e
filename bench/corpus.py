"""Seeded inputs, operation argv and reference answers for each workload.

Everything here runs before timing starts.  ``build`` writes a workload's
input files into a work directory and returns the plan the worker follows:
the ``papertrail`` argv of one operation, the paths it writes, and the
reference answers its outputs are checked against.  The references are
``analyze_profile`` run on the in-memory profiles that ``papertrail.synth``
generated, never on the program's own output files; an oracle that reads
the records directly vets them (``reference_problems``).
"""

from __future__ import annotations

import random
from pathlib import Path

import checks
from papertrail.indicators import IndicatorSet, analyze_profile
from papertrail.ingest import ReportFormat, serialize_report
from papertrail.synth import conscientious_spec, generate, papermill_spec

# Full-size corpora measure; tiny ones only prove the harness works.
SIZES = {
    "full": {"reports": 400, "defect_every": 50,
             "wide": {"n_years": 60, "peak_rate": 400.0, "start_year": 1960}},
    "tiny": {"reports": 12, "defect_every": 5,
             "wide": {"n_years": 12, "peak_rate": 12.0, "start_year": 1960}},
}

MISSING_LABEL = "missing"


def defect_indices(n_reports: int, defect_every: int) -> list[int]:
    """Reports whose last row carries a non-integer cell (every k-th one)."""
    return [i for i in range(n_reports) if (i + 1) % defect_every == 0]


def _strata(rng: random.Random, m: int) -> list[float]:
    """m uniforms in [0, 1), one in each stratum of width 1/m, in random order."""
    draws = [(k + rng.random()) / m for k in range(m)]
    rng.shuffle(draws)
    return draws


def cohort_specs(seed: int, n_reports: int) -> list:
    """Half papermill, half conscientious, in an order drawn from ``seed``.

    Each half draws its n_years and peak_rate one per stratum, so the
    corpus size varies little from seed to seed while every report does.
    """
    rng = random.Random(seed)
    n_papermill = n_reports // 2
    kinds = [i < n_papermill for i in range(n_reports)]
    rng.shuffle(kinds)
    papermill = zip(_strata(rng, n_papermill), _strata(rng, n_papermill))
    conscientious = zip(_strata(rng, n_reports - n_papermill),
                        _strata(rng, n_reports - n_papermill))
    specs = []
    for is_papermill in kinds:
        spec_seed = rng.getrandbits(32)
        if is_papermill:
            years_u, peak_u = next(papermill)
            specs.append(papermill_spec(
                spec_seed, n_years=10 + int(years_u * 11), peak_rate=20.0 + 40.0 * peak_u))
        else:
            years_u, peak_u = next(conscientious)
            specs.append(conscientious_spec(
                spec_seed, n_years=15 + int(years_u * 21), peak_rate=6.0 + 14.0 * peak_u,
                start_year=1985))
    return specs


def wide_spec(seed: int, size: str):
    return conscientious_spec(seed, **SIZES[size]["wide"])


def indicator_fields(ind: IndicatorSet) -> dict:
    """The analyze document's indicator values, keyed as the JSON names them."""
    return {
        "correlation": ind.r,
        "lag_years": ind.lag,
        "h_index": ind.h,
        "i_index": ind.i_index,
        "total_publications": ind.total_pubs,
        "total_citations": ind.total_cites,
        "max_pubs_in_year": ind.max_pubs_year,
        "min_pubs_in_year": ind.min_pubs_year,
        "avg_pubs_per_year": ind.avg_pubs_year,
        "avg_cites_per_paper": ind.avg_cites_per_paper,
        "start_year": ind.start_year,
        "hcp_count": ind.hcp_count,
    }


def point_fields(ind: IndicatorSet) -> dict:
    """The cohort document's per-point indicator values."""
    return {
        "correlation": ind.r,
        "i_index": ind.i_index,
        "total_publications": ind.total_pubs,
        "max_pubs_in_year": ind.max_pubs_year,
        "avg_pubs_per_year": ind.avg_pubs_year,
    }


def corrupt_last_row(data: bytes) -> bytes:
    """Replace the last cell of the last row with a non-integer."""
    head, _, last = data.rstrip(b"\n").rpartition(b"\n")
    return head + b"\n" + last.rpartition(b"\t")[0] + b"\tx\n"


def _build_cohort(seed: int, size: str, work: Path) -> dict:
    n_reports, every = SIZES[size]["reports"], SIZES[size]["defect_every"]
    defects = set(defect_indices(n_reports, every))
    points, records, lines, vetting = {}, 0, [], []
    for i, spec in enumerate(cohort_specs(seed, n_reports)):
        label = f"r{i:03d}"
        profile = generate(spec)
        data = serialize_report(profile, ReportFormat.TSV)
        records += len(profile.records)
        if i in defects:
            data = corrupt_last_row(data)
        else:
            points[label] = point_fields(analyze_profile(profile))
            vetting += checks.reference_problems(label, points[label], profile)
        (work / f"{label}.tsv").write_bytes(data)
        lines.append(f"{label}\t{label}.tsv\n")
    lines.append(f"{MISSING_LABEL}\t{MISSING_LABEL}.tsv\n")
    manifest = work / "manifest.tsv"
    manifest.write_text("".join(lines), encoding="utf-8")
    out_json, svg_dir = work / "cohort.json", work / "charts"
    return {
        "argv": ["cohort", str(manifest), "--json", str(out_json), "--svg-dir", str(svg_dir)],
        "manifest": str(manifest),
        "outputs": {"json": str(out_json), "svg_dir": str(svg_dir)},
        "records_per_op": records,
        "expected": {
            "points": points,
            "diagnostic_labels": sorted([f"r{i:03d}" for i in defects] + [MISSING_LABEL]),
            "manifest_entries": len(lines),
        },
        "reference_problems": vetting,
    }


def _build_analyze(seed: int, size: str, work: Path) -> dict:
    profile = generate(wide_spec(seed, size))
    report = work / "wide.tsv"
    report.write_bytes(serialize_report(profile, ReportFormat.TSV))
    out_json, out_svg = work / "wide.json", work / "wide.svg"
    ind = analyze_profile(profile)
    return {
        "argv": ["analyze", str(report), "--json", str(out_json), "--svg", str(out_svg)],
        "report": str(report),
        "outputs": {"json": str(out_json), "svg": str(out_svg)},
        "records_per_op": len(profile.records),
        "expected": {"indicators": indicator_fields(ind),
                     "flags": [s.kind.value for s in ind.flags]},
        "reference_problems": checks.reference_problems("wide", indicator_fields(ind), profile),
    }


def _build_synth(seed: int, size: str, work: Path) -> dict:
    spec_args = SIZES[size]["wide"]
    out = work / "synth.tsv"
    argv = ["synth", "--archetype", "conscientious", "--seed", str(seed),
            "--n-years", str(spec_args["n_years"]), "--peak-rate", str(spec_args["peak_rate"]),
            "--start-year", str(spec_args["start_year"]), "-o", str(out)]
    return {
        "argv": argv,
        "spec": {"seed": seed, **spec_args},
        "outputs": {"report": str(out)},
        "records_per_op": len(generate(wide_spec(seed, size)).records),
        "expected": {},
        "reference_problems": [],
    }


def build(workload: str, seed: int, size: str, work: Path) -> dict:
    """Write the workload's inputs under ``work``; return the worker's plan."""
    builders = {"cohort-mixed": _build_cohort, "analyze-wide": _build_analyze,
                "synth-write": _build_synth}
    plan = builders[workload](seed, size, work)
    plan.update(workload=workload, seed=seed, size=size)
    return plan

"""Command-line interface and JSON report serialization.

Three subcommands::

    papertrail analyze  REPORT [--json PATH] [--svg PATH] ...
    papertrail cohort   MANIFEST [--json PATH] [--svg-dir DIR] ...
    papertrail synth    --archetype NAME --seed N -o PATH ...

Exit codes: 0 success, 1 data error (unreadable/unparseable input, or an
output file that cannot be written), 2 usage error (bad flags or parameters).
Every output is rendered before any is written, and the JSON document is
written last: when it exists, every chart of the run was written too.

Analysis thresholds may come from a ``key = value`` config file (one key
per ``AnalysisConfig`` field) given via ``--config`` or the
``PAPERTRAIL_CONFIG`` environment variable; the flags in CONFIG_FLAGS
override file values (``--no-prefer-reported-h`` turns off a file's true).
Whatever its source, a value outside its range exits 2::

    r_min                (-1, 1), exclusive
    i_max                (0, 1), exclusive
    pubs_per_year_limit  >= 1
    growth_window        >= 0
    max_lag              >= 0
    prefer_reported_h    1, true, yes or on; 0, false, no or off (any case)

JSON schemas (version "1.0"; every indicator key is always present,
undefined values are null with a reason under ``undefined_reasons``)::

    analyze: {schema_version, generated_at, profile: {name, source_id,
              reported_h, n_records}, indicators: {correlation, lag_years,
              h_index, i_index, total_publications, total_citations,
              max_pubs_in_year, min_pubs_in_year, avg_pubs_per_year,
              avg_cites_per_paper, start_year, hcp_count,
              flags: [{kind, detail}]}, undefined_reasons, warnings}

    cohort:  {schema_version, generated_at, aggregation: "mean",
              region: {r_min, i_max},
              points: [{label, correlation, i_index, total_publications,
                        max_pubs_in_year, avg_pubs_per_year,
                        classification: inside|outside|unclassifiable}],
              summary: {n_points, n_inside, n_outside, n_unclassifiable,
                        inside_fraction, inside: {means...}|null,
                        outside: {means...}|null},
              power_law_fit: {a, b, r_squared, n_points}|null,
              power_law_fit_error, linear_fit: {slope, intercept,
              r_squared, n_points}|null, linear_fit_error,
              diagnostics: [{label, path, error}]}

The power-law fit leaves out points with I = 0.  ``cohort`` then prints
``warning: excluded N point(s) ...`` and the document shows N as
``summary.n_points - power_law_fit.n_points``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .cohort import (
    CohortPoint,
    LinearFit,
    PowerLawFit,
    Region,
    cohort_summary,
    fit_linear,
    fit_power_law,
    parse_manifest,
    point_from_indicators,
)
from .errors import DegenerateAbscissaError, PapertrailError, TooFewPointsError
from .indicators import AnalysisConfig, IndicatorSet, analyze_profile
from .ingest import ReportFormat, ResearcherProfile, parse_report, serialize_report
from .render import ChartStyle, ScatterAxes, profile_chart, scatter_chart
from .synth import Archetype, conscientious_spec, generate, papermill_spec

SCHEMA_VERSION = "1.0"
CONFIG_ENV_VAR = "PAPERTRAIL_CONFIG"


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# config-file keys (the AnalysisConfig fields) and their parsers
CONFIG_KEYS = {
    f.name: _parse_bool if isinstance(f.default, bool) else type(f.default)
    for f in fields(AnalysisConfig)
}

# the flag that overrides each config key, and its help text
CONFIG_FLAGS = {
    "r_min": ("--r-min", "correlation threshold for the flag region, in (-1, 1)"),
    "i_max": ("--i-max", "integrity-index threshold for the flag region, in (0, 1)"),
    "pubs_per_year_limit": ("--pubs-limit", "papers-per-year threshold for the output flag, >= 1"),
    "growth_window": ("--growth-window", "trailing years examined for monotone growth, >= 0"),
    "max_lag": ("--max-lag", "largest citation delay scanned, >= 0"),
    "prefer_reported_h": ("--prefer-reported-h", "use a file's reported h-index when present"),
}

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE_ERROR = 2

COHORT_CHARTS = (
    ("i_vs_r.svg", ScatterAxes.I_VS_R),
    ("i_vs_r_bubble.svg", ScatterAxes.I_VS_R_BUBBLE),
    ("i_vs_p_powerfit.svg", ScatterAxes.I_VS_P_POWERFIT),
    ("m_vs_p_linfit.svg", ScatterAxes.M_VS_P_LINFIT),
)


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def load_config_file(path: str) -> dict[str, Any]:
    """Parse a `key = value` config file; '#' starts a comment line."""
    values: dict[str, Any] = {}
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data[:exc.start].count(b"\n") + 1
        raise ValueError(f"{path}:{line_no}: not valid UTF-8: {exc.reason}") from None
    # split on "\n" only, so line numbers agree with editors and the UTF-8 error above
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{line_no}: expected '<key> = <value>' with key in "
                             f"{sorted(CONFIG_KEYS)}, got {line!r}")
        try:
            values[key] = CONFIG_KEYS[key](value.strip())
        except ValueError:
            raise ValueError(f"{path}:{line_no}: bad value for {key}: {value.strip()!r}") from None
    return values


class _Failure(Exception):
    """A run that cannot finish; ``main`` prints ``error: <message>`` and returns ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _resolve_analysis_config(args: argparse.Namespace) -> AnalysisConfig:
    try:
        config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
        values = load_config_file(config_path) if config_path else {}
        # flags beat the config file
        values.update((key, getattr(args, key)) for key in CONFIG_KEYS
                      if getattr(args, key) is not None)
        return AnalysisConfig(**values)
    except (OSError, ValueError) as exc:
        raise _Failure(EXIT_USAGE_ERROR, str(exc)) from None


def _detect_format(path: str, explicit: str | None) -> ReportFormat:
    if explicit:
        return ReportFormat(explicit)
    return ReportFormat.CSV if path.lower().endswith(".csv") else ReportFormat.TSV


def _load_report(path: Path, explicit_format: str | None,
                 config: AnalysisConfig) -> tuple[ResearcherProfile, IndicatorSet]:
    """Read, parse and analyze one report; raises OSError or PapertrailError."""
    try:
        data = path.read_bytes()
    except ValueError as exc:  # a NUL byte in the path: unreadable like any bad path
        raise OSError(exc) from None
    fmt = _detect_format(str(path), explicit_format)
    profile = parse_report(data, fmt, default_name=path.stem)
    return profile, analyze_profile(profile, config)


def _signal_json(ind: IndicatorSet) -> list[dict[str, str]]:
    return [{"kind": s.kind.value, "detail": s.detail} for s in ind.flags]


def build_report(profile: ResearcherProfile, ind: IndicatorSet) -> dict[str, Any]:
    """Assemble the analyze-report JSON document (schema 1.0).

    Every indicator key is always present; undefined values are emitted as
    null with an explanation under "undefined_reasons".
    """
    undefined: dict[str, str] = {}
    if ind.r is None:
        undefined["correlation"] = (
            "correlation undefined: series shorter than 2 years or constant"
        )
    if ind.lag is None:
        undefined["lag_years"] = (
            "lag not estimated: correlation undefined, not strong, or series too short"
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": _now_iso(),
        "profile": {
            "name": profile.name,
            "source_id": profile.source_id,
            "reported_h": profile.reported_h,
            "n_records": len(profile.records),
        },
        "indicators": {
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
            "flags": _signal_json(ind),
        },
        "undefined_reasons": undefined,
        "warnings": list(profile.warnings) + list(ind.warnings),
    }


def compute_cohort_fits(
    points: list[CohortPoint],
) -> tuple[PowerLawFit | None, str | None, LinearFit | None, str | None]:
    """Both cohort fits over all points; (fit, error-reason) per curve."""
    power_fit = linear_fit = None
    power_error = linear_error = None
    try:
        power_fit = fit_power_law([(p.total_pubs, p.i_index) for p in points])
    except (TooFewPointsError, DegenerateAbscissaError) as exc:
        power_error = str(exc)
    try:
        linear_fit = fit_linear([(p.total_pubs, p.max_pubs_year) for p in points])
    except (TooFewPointsError, DegenerateAbscissaError) as exc:
        linear_error = str(exc)
    return power_fit, power_error, linear_fit, linear_error


def build_cohort_document(
    points: list[CohortPoint],
    region: Region,
    diagnostics: list[dict[str, str]],
) -> dict[str, Any]:
    """Assemble the cohort JSON document: points, classification, summary, fits."""
    summary = cohort_summary(points, region)
    power_fit, power_error, linear_fit, linear_error = compute_cohort_fits(points)

    def means_json(group):
        if group is None:
            return None
        return {
            "mean_total_publications": group.total_pubs,
            "mean_max_pubs_in_year": group.max_pubs_year,
            "mean_avg_pubs_per_year": group.avg_pubs_year,
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": _now_iso(),
        "aggregation": "mean",
        "region": {"r_min": region.r_min, "i_max": region.i_max},
        "points": [
            {
                "label": p.label,
                "correlation": p.r,
                "i_index": p.i_index,
                "total_publications": p.total_pubs,
                "max_pubs_in_year": p.max_pubs_year,
                "avg_pubs_per_year": p.avg_pubs_year,
                "classification": cls.value,
            }
            for p, cls in zip(points, summary.classes)
        ],
        "summary": {
            "n_points": summary.n_points,
            "n_inside": summary.n_inside,
            "n_outside": summary.n_outside,
            "n_unclassifiable": summary.n_unclassifiable,
            "inside_fraction": summary.inside_fraction,
            "inside": means_json(summary.inside),
            "outside": means_json(summary.outside),
        },
        "power_law_fit": asdict(power_fit) if power_fit else None,
        "power_law_fit_error": power_error,
        "linear_fit": asdict(linear_fit) if linear_fit else None,
        "linear_fit_error": linear_error,
        "diagnostics": diagnostics,
    }


@contextmanager
def _writing(path: str | Path):
    """An OSError (or a NUL byte in ``path``) inside the block fails the run as a data error."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _Failure(EXIT_DATA_ERROR, f"cannot write {path}: {exc}") from None


def _write(*outputs: tuple[str | Path | None, str | bytes]) -> None:
    """Write each (path, data) in order, text as UTF-8; a None path means stdout."""
    for path, data in outputs:
        if path is None:
            sys.stdout.write(data)
            continue
        with _writing(path):
            Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)


def _json_text(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def cmd_analyze(args: argparse.Namespace) -> None:
    config = _resolve_analysis_config(args)
    try:
        profile, ind = _load_report(Path(args.report), args.format, config)
    except OSError as exc:
        raise _Failure(EXIT_DATA_ERROR, f"cannot read {args.report}: {exc}") from None
    except PapertrailError as exc:
        raise _Failure(EXIT_DATA_ERROR, f"{args.report}: {exc}") from None

    outputs = []
    if args.svg:
        style = ChartStyle(title=f"Times cited and publications over time: {profile.name}")
        outputs.append((args.svg, profile_chart(ind.series, ind, style)))
    _write(*outputs, (args.json or None, _json_text(build_report(profile, ind))))


def cmd_cohort(args: argparse.Namespace) -> None:
    config = _resolve_analysis_config(args)
    manifest = Path(args.manifest)
    try:
        manifest_text = manifest.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise _Failure(EXIT_DATA_ERROR, f"cannot read {args.manifest}: {exc}") from None

    entries, problems = parse_manifest(manifest_text)
    diagnostics = [{"label": "", "path": "", "error": p} for p in problems]
    points: list[CohortPoint] = []
    for label, path in entries:
        resolved = manifest.parent / path  # an absolute path replaces the parent
        try:
            _, ind = _load_report(resolved, args.format, config)
        except (OSError, PapertrailError) as exc:
            diagnostics.append({"label": label, "path": str(resolved), "error": str(exc)})
        else:
            points.append(point_from_indicators(label, ind))

    if not points:
        raise _Failure(EXIT_DATA_ERROR, "\n".join(
            ["no profile in the manifest could be processed"]
            + [f"  {d['label'] or d['path'] or 'manifest'}: {d['error']}" for d in diagnostics]
        ))
    for d in diagnostics:
        print(f"warning: skipped {d['label'] or 'entry'}: {d['error']}", file=sys.stderr)

    region = config.region
    document = build_cohort_document(points, region, diagnostics)
    power_fit, linear_fit = document["power_law_fit"], document["linear_fit"]
    if power_fit and power_fit["n_points"] < len(points):
        print(f"warning: excluded {len(points) - power_fit['n_points']} point(s) with "
              "non-positive coordinates from the power-law fit", file=sys.stderr)
    charts = []
    if args.svg_dir:
        # the charts draw the fits the document reports
        fits = {ScatterAxes.I_VS_P_POWERFIT: power_fit and PowerLawFit(**power_fit),
                ScatterAxes.M_VS_P_LINFIT: linear_fit and LinearFit(**linear_fit)}
        for filename, axes in COHORT_CHARTS:
            style = ChartStyle(title=f"Cohort: {axes.value.replace('_', ' ')}")
            svg = scatter_chart(points, axes, fit=fits.get(axes), region=region, style=style)
            charts.append((Path(args.svg_dir) / filename, svg))
        with _writing(args.svg_dir):
            Path(args.svg_dir).mkdir(parents=True, exist_ok=True)
    _write(*charts, (args.json or None, _json_text(document)))


def cmd_synth(args: argparse.Namespace) -> None:
    if Archetype(args.archetype) is Archetype.PAPERMILL:
        make_spec, own, other = papermill_spec, "onset_offset", "kernel_peak_lag"
    else:
        make_spec, own, other = conscientious_spec, "kernel_peak_lag", "onset_offset"
    if getattr(args, other) is not None:
        raise _Failure(EXIT_USAGE_ERROR, f"--{other.replace('_', '-')} does not apply to the "
                                         f"{args.archetype} archetype")
    names = ("start_year", "n_years", "base_rate", "peak_rate", "cites_per_paper", own)
    kwargs = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    try:
        profile = generate(make_spec(args.seed, **kwargs))
    except PapertrailError as exc:
        raise _Failure(EXIT_USAGE_ERROR, str(exc)) from None

    fmt = ReportFormat(args.format) if args.format else ReportFormat.TSV
    _write((args.output, serialize_report(profile, fmt)))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    for key, parse in CONFIG_KEYS.items():
        flag, help_text = CONFIG_FLAGS[key]
        if parse is _parse_bool:
            parser.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                                help=help_text)
        else:
            parser.add_argument(flag, dest=key, type=parse, help=help_text,
                                metavar="F" if parse is float else "N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="papertrail",
        description="Citation-report indicators, papermilling signals and cohort analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one citation report")
    p_analyze.add_argument("report", help="canonical TSV/CSV citation report")
    p_analyze.add_argument("--json", metavar="PATH", help="write the JSON report here instead of stdout")
    p_analyze.add_argument("--svg", metavar="PATH", help="also write the profile chart")
    p_analyze.add_argument("--format", choices=[f.value for f in ReportFormat],
                           help="input format (default: by file extension)")
    _add_config_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_cohort = sub.add_parser("cohort", help="analyze a cohort manifest")
    p_cohort.add_argument("manifest", help="one '<label><TAB><path>' line per researcher")
    p_cohort.add_argument("--json", metavar="PATH", help="write the cohort JSON here instead of stdout")
    p_cohort.add_argument("--svg-dir", metavar="DIR", help="write the four cohort charts here")
    p_cohort.add_argument("--format", choices=[f.value for f in ReportFormat],
                          help="format of the referenced reports (default: by extension)")
    _add_config_flags(p_cohort)
    p_cohort.set_defaults(func=cmd_cohort)

    p_synth = sub.add_parser("synth", help="generate a synthetic citation report")
    p_synth.add_argument("--archetype", required=True,
                         choices=[a.value for a in Archetype])
    p_synth.add_argument("--seed", type=int, default=0, metavar="N")
    p_synth.add_argument("-o", "--output", required=True, metavar="PATH")
    p_synth.add_argument("--format", choices=[f.value for f in ReportFormat])
    p_synth.add_argument("--start-year", type=int, metavar="YEAR")
    p_synth.add_argument("--n-years", type=int, metavar="N")
    p_synth.add_argument("--base-rate", type=float, metavar="F")
    p_synth.add_argument("--peak-rate", type=float, metavar="F")
    p_synth.add_argument("--cites-per-paper", type=float, metavar="F")
    p_synth.add_argument("--onset-offset", type=int, metavar="N",
                         help="papermill: years before the growth onset")
    p_synth.add_argument("--kernel-peak-lag", type=int, metavar="N",
                         help="conscientious: years from publication to peak citations")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

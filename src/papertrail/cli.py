"""Command-line interface and JSON report serialization.

Three subcommands::

    papertrail analyze  REPORT [--json PATH] [--svg PATH] ...
    papertrail cohort   MANIFEST [--json PATH] [--svg-dir DIR] ...
    papertrail synth    --archetype NAME --seed N -o PATH ...

Exit codes: 0 success, 1 data error (unreadable/unparseable input, or an
output file that cannot be written), 2 usage error (bad flags or parameters).
``analyze`` and ``cohort`` render every output before they write any, and the
JSON document last: when it exists, every chart of the run was written too.
``synth`` generates its report in full, then writes it into ``-o`` as it renders it.

README.md describes the config file with its keys, ranges and flags, and
the two JSON documents; ``build_report`` and ``build_cohort_document`` build
them key by key.

Importing this module loads, of the package, only ``config``, ``errors`` and
``ingest``: what the parser, the config file and reading a report need; not
``json`` or ``csv``, which only a JSON document or a CSV report loads, nor ``datetime``.
Each command imports the rest when it runs, once: ``analyze`` loads
``indicators`` (and ``series``), ``cohort`` loads ``cohort`` (and with it
``indicators`` and ``series``), ``synth`` loads ``synth``, and a chart loads
``render``.  So ``synth``, and ``analyze`` without ``--svg``, never pay for
the cohort analysis.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .config import AnalysisConfig, Region
from .errors import DegenerateAbscissaError, PapertrailError, TooFewPointsError
from .ingest import ReportFormat, ResearcherProfile, _echo, _mismatch_warnings, _read_report, _write_report

if TYPE_CHECKING:
    from .cohort import CohortPoint, CohortSummary, LinearFit, PowerLawFit, ScatterAxes
    from .indicators import IndicatorSet

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

# the values of synth.Archetype, spelled here so that building the parser does not import synth
ARCHETYPES = ("conscientious", "papermill")

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE_ERROR = 2


def _cohort_charts() -> tuple[tuple[str, ScatterAxes], ...]:
    """Each cohort chart's file name under --svg-dir and its axes, in the order they are written."""
    from .cohort import ScatterAxes

    return tuple((f"{axes.value}.svg", axes) for axes in ScatterAxes)


def __getattr__(name: str) -> object:
    """``ScatterAxes`` and ``COHORT_CHARTS`` (the value of ``_cohort_charts``), which need
    ``cohort``, looked up on use (PEP 562), so that importing the CLI does not load it."""
    if name == "ScatterAxes":
        from .cohort import ScatterAxes

        return ScatterAxes
    if name == "COHORT_CHARTS":
        return _cohort_charts()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the longest path or manifest label that a message repeats; a longer one is named by its length
# (a cohort diagnostic's ``label`` and ``path`` hold it in full), which keeps each stderr line short
_PATH_ECHO_LIMIT = 200


def _name(text: str) -> str:
    """A path or label as a message names it: as is, or by its length if over _PATH_ECHO_LIMIT."""
    return text if len(text) <= _PATH_ECHO_LIMIT else f"({len(text)} characters)"


def _reason(exc: Exception) -> str:
    """``str(exc)``, with an ``OSError``'s file name over the limit named by its length."""
    if not isinstance(exc, OSError) or exc.filename is None:  # e.g. a NUL byte in the path
        return str(exc)
    return f"[Errno {exc.errno}] {exc.strerror}: {_echo(exc.filename, _PATH_ECHO_LIMIT)}"


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose error names an argument over _PATH_ECHO_LIMIT by its length."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self._args, namespace)

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:  # argparse joins them all; name those past _PATH_ECHO_LIMIT by count and length
            width = -1  # of the names joined so far; once over the limit it stays over
            shown = [name for name in map(_name, extras)
                     if (width := width + 1 + len(name)) <= _PATH_ECHO_LIMIT]
            rest = extras[len(shown):]
            more = f" and {len(rest)} more ({len(' '.join(rest))} characters)" if rest else ""
            self.error(f"unrecognized arguments: {' '.join(shown)}{more}")
        return namespace

    def error(self, message: str):
        # argparse echoes an argument, the value after its "=" or a short option's attached value,
        # quoted or as is; the longest go first, so that a value inside an argument is not hit first
        for value in sorted({v for arg in self._args for v in (arg, arg.partition("=")[2], arg[2:])},
                            key=len, reverse=True):
            message = message.replace(repr(value), _echo(value, _PATH_ECHO_LIMIT))
            message = message.replace(value, _name(value))
        super().error(message)


def _now_iso() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _read_text(path: str) -> str:
    """A UTF-8 file's text without its BOM; a decode error names ``path:line``."""
    # strip a BOM from the bytes (not by decoding utf-8-sig), so a UTF-8 error's offset indexes data
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data[:exc.start].count(b"\n") + 1
        raise ValueError(f"{_name(path)}:{line_no}: not valid UTF-8: {exc.reason}") from None


def load_config_file(path: str) -> dict[str, Any]:
    """Parse a `key = value` config file; '#' starts a comment line."""
    values: dict[str, Any] = {}
    # split on "\n" only, so line numbers agree with editors and the UTF-8 error of _read_text
    for line_no, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in CONFIG_KEYS:
            raise ValueError(f"{_name(path)}:{line_no}: expected '<key> = <value>' with key in "
                             f"{sorted(CONFIG_KEYS)}, got {_echo(line)}")
        try:
            values[key] = CONFIG_KEYS[key](value.strip())
        except ValueError:
            raise ValueError(
                f"{_name(path)}:{line_no}: bad value for {key}: {_echo(value.strip())}") from None
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
        raise _Failure(EXIT_USAGE_ERROR, _reason(exc)) from None


def _detect_format(path: str, explicit: str | None) -> ReportFormat:
    if explicit:
        return ReportFormat(explicit)
    return ReportFormat.CSV if path.lower().endswith(".csv") else ReportFormat.TSV


def _read_report_file(path: Path, explicit_format: str | None) -> tuple[bytes, ReportFormat]:
    """A report's bytes and format; raises OSError."""
    try:
        data = path.read_bytes()
    except ValueError as exc:  # a NUL byte in the path: unreadable like any bad path
        raise OSError(exc) from None
    return data, _detect_format(str(path), explicit_format)


def build_report(profile: ResearcherProfile, ind: IndicatorSet) -> dict[str, Any]:
    """Assemble the analyze-report JSON document (schema 1.0).

    Every indicator key is always present; undefined values are emitted as
    null with an explanation under "undefined_reasons".
    """
    return _analyze_document(profile.name, profile.source_id, profile.reported_h,
                             len(profile.records), profile.warnings, ind)


def _analyze_document(name: str, source_id: str | None, reported_h: int | None, n_records: int,
                      warnings: list[str], ind: IndicatorSet) -> dict[str, Any]:
    """``build_report``'s document, from the profile's fields and its record count."""
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
            "name": name,
            "source_id": source_id,
            "reported_h": reported_h,
            "n_records": n_records,
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
            "flags": [{"kind": s.kind.value, "detail": s.detail} for s in ind.flags],
        },
        "undefined_reasons": undefined,
        "warnings": [*warnings, *ind.warnings],
    }


# the three functions of ``cohort`` that the cohort document calls, by their names here: each
# imports ``cohort`` when it is called, and a function that replaces one of these names (as the
# tracer of bench/spans.py does, to time the call) is the one the document calls
def cohort_summary(points: list[CohortPoint], region: Region) -> CohortSummary:
    from .cohort import cohort_summary

    return cohort_summary(points, region)


def fit_power_law(pairs: list[tuple[int, float]]) -> PowerLawFit:
    from .cohort import fit_power_law

    return fit_power_law(pairs)


def fit_linear(pairs: list[tuple[int, int]]) -> LinearFit:
    from .cohort import fit_linear

    return fit_linear(pairs)


def compute_cohort_fits(
    points: list[CohortPoint],
) -> tuple[PowerLawFit | None, str | None, LinearFit | None, str | None]:
    """Both cohort fits over all points; (fit, error-reason) per curve."""
    out: list = []
    for fit, pairs in ((fit_power_law, [(p.total_pubs, p.i_index) for p in points]),
                       (fit_linear, [(p.total_pubs, p.max_pubs_year) for p in points])):
        try:
            out += [fit(pairs), None]
        except (TooFewPointsError, DegenerateAbscissaError) as exc:
            out += [None, str(exc)]
    return tuple(out)


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
        raise _Failure(EXIT_DATA_ERROR, f"cannot write {_name(str(path))}: {_reason(exc)}") from None


def _write(*outputs: tuple[str | Path | None, str | bytes], directory: str | None = None) -> None:
    """Write each (path, data) in order, text as UTF-8; a None path means stdout.  Two paths that
    name one file are a usage error, raised before ``directory`` is made or anything is written."""
    paths = set()
    for path in filter(None, (path for path, _ in outputs)):
        if os.path.abspath(path) in paths:
            raise _Failure(EXIT_USAGE_ERROR, f"two outputs would be written to {_name(str(path))}")
        paths.add(os.path.abspath(path))
    if directory:
        with _writing(directory):
            Path(directory).mkdir(parents=True, exist_ok=True)
    for path, data in outputs:
        if path is None:
            sys.stdout.write(data)
            continue
        with _writing(path):
            Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)


def _json_text(document: dict[str, Any]) -> str:
    import json

    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def cmd_analyze(args: argparse.Namespace) -> None:
    from .indicators import _analyze_columns

    config = _resolve_analysis_config(args)
    report = Path(args.report)
    try:
        name, source_id, reported_h, titles, pub_years, totals, years, column_sums, window_sums = (
            _read_report(*_read_report_file(report, args.format), report.stem, sum))
        ind = _analyze_columns(pub_years, totals, years, column_sums, reported_h, config)
    except OSError as exc:
        raise _Failure(EXIT_DATA_ERROR, f"cannot read {_name(args.report)}: {_reason(exc)}") from None
    except PapertrailError as exc:
        raise _Failure(EXIT_DATA_ERROR, f"{_name(args.report)}: {exc}") from None

    outputs = []
    if args.svg:
        from .render import ChartStyle, profile_chart

        style = ChartStyle(title=f"Times cited and publications over time: {name}")
        outputs.append((args.svg, profile_chart(ind.series, ind, style)))
    document = _analyze_document(name, source_id, reported_h, len(titles),
                                 _mismatch_warnings(titles, totals, window_sums), ind)
    _write(*outputs, (args.json or None, _json_text(document)))


def cmd_cohort(args: argparse.Namespace) -> None:
    from .cohort import _point_from_report, parse_manifest

    config = _resolve_analysis_config(args)
    manifest = Path(args.manifest)
    try:
        manifest_text = _read_text(args.manifest)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise _Failure(EXIT_DATA_ERROR, f"cannot read {_name(args.manifest)}: {_reason(exc)}") from None

    entries, problems = parse_manifest(manifest_text)
    diagnostics = [{"label": "", "path": "", "error": p} for p in problems]
    points: list[CohortPoint] = []
    for label, path in entries:
        resolved = manifest.parent / path  # an absolute path replaces the parent
        try:
            points.append(_point_from_report(label, *_read_report_file(resolved, args.format),
                                             config))
        except (OSError, PapertrailError) as exc:
            diagnostics.append({"label": label, "path": str(resolved), "error": _reason(exc)})

    if not points:
        raise _Failure(EXIT_DATA_ERROR, "\n".join(
            ["no profile in the manifest could be processed"]
            + [f"  {_name(d['label'] or d['path'] or 'manifest')}: {d['error']}" for d in diagnostics]
        ))
    for d in diagnostics:
        print(f"warning: skipped {_name(d['label'] or 'entry')}: {d['error']}", file=sys.stderr)

    region = config.region
    document = build_cohort_document(points, region, diagnostics)
    power_fit, linear_fit = document["power_law_fit"], document["linear_fit"]
    if power_fit and power_fit["n_points"] < len(points):
        print(f"warning: excluded {len(points) - power_fit['n_points']} point(s) with "
              "non-positive coordinates from the power-law fit", file=sys.stderr)
    charts = []
    if args.svg_dir:
        from .cohort import LinearFit, PowerLawFit, ScatterAxes
        from .render import ChartStyle, scatter_chart

        # the charts draw the fits the document reports
        fits = {ScatterAxes.I_VS_P_POWERFIT: power_fit and PowerLawFit(**power_fit),
                ScatterAxes.M_VS_P_LINFIT: linear_fit and LinearFit(**linear_fit)}
        for filename, axes in _cohort_charts():
            style = ChartStyle(title=f"Cohort: {axes.value.replace('_', ' ')}")
            svg = scatter_chart(points, axes, fit=fits.get(axes), region=region, style=style)
            charts.append((Path(args.svg_dir) / filename, svg))
    _write(*charts, (args.json or None, _json_text(document)), directory=args.svg_dir)


def cmd_synth(args: argparse.Namespace) -> None:
    from .synth import Archetype, _names, _rows, conscientious_spec, papermill_spec

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
        spec = make_spec(args.seed, **kwargs)
        rows = list(_rows(spec))  # in full, so that a refused spec leaves -o as it was
    except PapertrailError as exc:
        raise _Failure(EXIT_USAGE_ERROR, str(exc)) from None
    with _writing(args.output), open(args.output, "wb") as out:
        _write_report(_detect_format(args.output, args.format), *_names(spec), None, rows, out)


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
    parser = _Parser(
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
                         choices=ARCHETYPES)
    p_synth.add_argument("--seed", type=int, default=0, metavar="N")
    p_synth.add_argument("-o", "--output", required=True, metavar="PATH")
    p_synth.add_argument("--format", choices=[f.value for f in ReportFormat],
                         help="output format (default: by file extension)")
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

"""papertrail: citation-report indicators and papermilling-signal analysis.

Ingests per-researcher citation reports (canonical TSV/CSV), builds the
annual publication/citation time series, computes the indicator block
(correlation, citation lag, h-index, integrity index, per-year statistics,
highly-cited-paper counts), flags suspicious publication behavior, and runs
cohort-level classification and curve fitting with JSON and SVG outputs.

The package loads lazily (PEP 562): ``import papertrail`` imports no
submodule, and a public name or submodule is imported on first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule and the public names it defines; the one list of the package's names
_EXPORTS = {
    "cohort": (
        "CohortPoint",
        "CohortSummary",
        "GroupMeans",
        "LinearFit",
        "PowerLawFit",
        "Region",
        "RegionClass",
        "ScatterAxes",
        "classify_region",
        "cohort_summary",
        "fit_linear",
        "fit_power_law",
        "parse_manifest",
        "point_from_indicators",
    ),
    "errors": (
        "AllDegenerateError",
        "DegenerateAbscissaError",
        "EmptyCohortError",
        "EmptyProfileError",
        "EncodingError",
        "HExceedsPublicationsError",
        "InvalidSpecError",
        "LengthMismatchError",
        "MalformedHeaderError",
        "MalformedRowError",
        "PapertrailError",
        "TooFewPointsError",
        "TooShortError",
        "ZeroPublicationsError",
    ),
    "indicators": (
        "DEFAULT_HCP_THRESHOLDS",
        "AnalysisConfig",
        "IndicatorSet",
        "LagResult",
        "Signal",
        "SignalKind",
        "YearlyStats",
        "analyze_profile",
        "best_lag",
        "flag_profile",
        "h_index",
        "hcp_count",
        "i_index",
        "pearson",
        "round_half_up",
        "yearly_stats",
    ),
    "ingest": (
        "PublicationRecord",
        "ReportFormat",
        "ResearcherProfile",
        "parse_report",
        "serialize_report",
    ),
    "render": ("AxisTransform", "ChartStyle", "profile_chart", "scatter_chart"),
    "series": ("AnnualSeries", "build_series"),
    "synth": (
        "Archetype",
        "SynthSpec",
        "Xorshift64Star",
        "conscientious_spec",
        "generate",
        "papermill_spec",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """A public name from its submodule, or a submodule itself, imported on first use."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

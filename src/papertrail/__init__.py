"""papertrail: citation-report indicators and papermilling-signal analysis.

Ingests per-researcher citation reports (canonical TSV/CSV), builds the
annual publication/citation time series, computes the indicator block
(correlation, citation lag, h-index, integrity index, per-year statistics,
highly-cited-paper counts), flags suspicious publication behavior, and runs
cohort-level classification and curve fitting with JSON and SVG outputs.
"""

from types import ModuleType as _ModuleType

from .cohort import (
    CohortPoint,
    CohortSummary,
    GroupMeans,
    LinearFit,
    PowerLawFit,
    Region,
    RegionClass,
    classify_region,
    cohort_summary,
    fit_linear,
    fit_power_law,
    parse_manifest,
    point_from_indicators,
)
from .errors import (
    AllDegenerateError,
    DegenerateAbscissaError,
    EmptyCohortError,
    EmptyProfileError,
    EncodingError,
    HExceedsPublicationsError,
    InvalidSpecError,
    LengthMismatchError,
    MalformedHeaderError,
    MalformedRowError,
    PapertrailError,
    TooFewPointsError,
    TooShortError,
    ZeroPublicationsError,
)
from .indicators import (
    DEFAULT_HCP_THRESHOLDS,
    AnalysisConfig,
    IndicatorSet,
    LagResult,
    Signal,
    SignalKind,
    YearlyStats,
    analyze_profile,
    best_lag,
    flag_profile,
    h_index,
    hcp_count,
    i_index,
    pearson,
    round_half_up,
    yearly_stats,
)
from .ingest import (
    PublicationRecord,
    ReportFormat,
    ResearcherProfile,
    parse_report,
    serialize_report,
)
from .render import AxisTransform, ChartStyle, ScatterAxes, profile_chart, scatter_chart
from .series import AnnualSeries, build_series
from .synth import (
    Archetype,
    SynthSpec,
    Xorshift64Star,
    conscientious_spec,
    generate,
    papermill_spec,
)

__version__ = "0.1.0"

# the public names are the imports above: every global that is neither private nor a module
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

"""Exception hierarchy and warning categories shared across the package."""


class PapertrailError(Exception):
    """Base class for all errors raised by this package."""


# --- report ingestion ---

class EncodingError(PapertrailError):
    """Input bytes are not valid UTF-8."""


class MalformedHeaderError(PapertrailError):
    """Metadata or header rows violate the canonical report layout."""


class MalformedRowError(PapertrailError):
    """A record row has the wrong shape or an unparseable field."""


class EmptyProfileError(PapertrailError):
    """A report or profile contains no publication records."""


# --- indicators ---

class LengthMismatchError(PapertrailError):
    """Paired sequences have different lengths."""


class TooShortError(PapertrailError):
    """Sequence too short for the requested computation."""


class AllDegenerateError(PapertrailError):
    """Every candidate lag produced an undefined correlation."""


class ZeroPublicationsError(PapertrailError):
    """Integrity index requested for a researcher with zero publications."""


class HExceedsPublicationsError(PapertrailError):
    """h-index larger than the total publication count."""


# --- cohort analysis ---

class EmptyCohortError(PapertrailError):
    """Cohort operation invoked with no data points."""


class TooFewPointsError(PapertrailError):
    """Not enough usable points to fit a curve."""


class DegenerateAbscissaError(PapertrailError):
    """All abscissa values coincide; the fit is underdetermined."""


# --- synthetic profiles ---

class InvalidSpecError(PapertrailError):
    """Synthetic profile parameters violate their constraints."""


class ReportWarning(UserWarning):
    """Non-fatal data issue, such as a title sanitized for the TSV flavor."""

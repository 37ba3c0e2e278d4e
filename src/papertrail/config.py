"""Analysis settings: the flag thresholds, the flag region and the type rule of the settings classes.

This module imports nothing of the package, so the CLI can read its config
keys and build an ``AnalysisConfig`` without loading the analysis itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

DEFAULT_MAX_LAG = 10


def _check_types(obj: object, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the first field of the dataclass ``obj`` whose value is not of the
    field's declared type.  A float field also takes an int; no field but a bool one takes a bool.

    The declared types are names (the package's modules postpone annotations), so a value is of
    one when it names the value's class or a base of it: ``str`` takes an ``Archetype``.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kinds = {kind.__name__ for kind in type(value).__mro__}
        if (type(value) is bool) != (f.type == "bool") or not (
                f.type in kinds or f.type == "float" and "int" in kinds):
            raise error(f"{f.name} must be {f.type}, got {type(value).__name__}")


@dataclass(frozen=True)
class Region:
    """Flag-region bounds: r strictly above r_min AND I strictly below i_max.  A bound of the
    wrong type or outside its range raises ValueError."""

    r_min: float = 0.5
    i_max: float = 0.3

    def __post_init__(self) -> None:
        _check_types(self)
        if not -1.0 < self.r_min < 1.0:
            raise ValueError(f"r_min must lie in (-1, 1), got {self.r_min}")
        if not 0.0 < self.i_max < 1.0:
            raise ValueError(f"i_max must lie in (0, 1), got {self.i_max}")


@dataclass(frozen=True)
class AnalysisConfig:
    """Thresholds for the behavioral flags plus the knobs used by analyze_profile.

    Flags use strict inequalities on r and I; loosening any threshold can
    only add signals of the corresponding kind, never remove them.  A value
    of the wrong type or outside its range raises ValueError.
    """

    r_min: float = Region.r_min
    i_max: float = Region.i_max
    pubs_per_year_limit: int = 30
    growth_window: int = 5
    max_lag: int = DEFAULT_MAX_LAG
    prefer_reported_h: bool = False

    def __post_init__(self) -> None:
        _check_types(self)
        Region(self.r_min, self.i_max)  # raises on an out-of-range r_min or i_max
        if self.pubs_per_year_limit < 1:
            raise ValueError(f"pubs_per_year_limit must be >= 1, got {self.pubs_per_year_limit}")
        if self.growth_window < 0:
            raise ValueError(f"growth_window must be >= 0, got {self.growth_window}")
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")

    @property
    def region(self) -> Region:
        return Region(self.r_min, self.i_max)

"""Analysis settings: the flag thresholds, the flag region and the package's type and range rules.

This module imports nothing of the package, so the CLI can read its config
keys and build an ``AnalysisConfig`` without loading the analysis itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_MAX_LAG = 10
# a message names a longer cell or title by its length, and a number of more digits by its digit count,
# also one that int() or str() refuses for its length (over 4,300 digits on Python 3.11, and 3.10.7 on)
_ECHO_LIMIT = 40


def _check_type(value: object, declared: str, what: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` saying ``<what> must be <declared>, got <type>`` unless the class of ``value``
    is the one named ``declared``, or is int for a float: the package's one type rule.  A subclass
    (a bool for an int, an ``IntEnum`` member) is refused, as its ``str()`` need not be its value's."""
    got = type(value).__name__
    if got != declared and (declared, got) != ("float", "int"):
        raise error(f"{what} must be {declared}, got {got}")


def _echo_int(value: float) -> str:
    """``value`` as a message shows it: an int of over ``_ECHO_LIMIT`` digits by its digit count,
    found without ``str()``; any other number as ``str()`` gives it."""
    size = abs(value)
    if not isinstance(value, int) or size < 10**_ECHO_LIMIT:
        return str(value)
    digits = int(math.log10(size))  # the digit count less one, or one off it near a power of ten
    digits += 1 + (size >= 10 ** (digits + 1)) - (size < 10**digits)
    return f"{'-' * (value < 0)}({digits} digits)"


def _check_range(value: float, least: float, most: float | None, what: str,
                 error: type[Exception] = ValueError, open: bool = False) -> None:
    """Raise ``error`` unless ``least <= value <= most`` (no upper end if ``most`` is None, both ends
    excluded if ``open``): the package's one range rule.  It compares and never converts, so NaN, an
    infinity and an int too long for a float are refused alike.  Its message names the range as
    ``<least>..<most>``, ``at least <least>`` or ``(<least>, <most>)``, each number by ``_echo_int``."""
    if least < value < most if open else least <= value and (most is None or value <= most):
        return
    if open:
        rule = f"lie in ({_echo_int(least)}, {_echo_int(most)})"
    elif most is None:
        rule = f"be at least {_echo_int(least)}"
    else:
        rule = f"lie in {_echo_int(least)}..{_echo_int(most)}"
    raise error(f"{what} must {rule}, got {_echo_int(value)}")


def _check_types(obj: object, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the first field of the dataclass ``obj`` whose value breaks
    ``_check_type`` for the field's declared type (a name, as annotations are postponed); a field
    declared ``X | None`` also takes None.  It reads ``__dataclass_fields__``, all fields as the
    package declares no ``ClassVar`` or ``InitVar``: CPython 3.11 builds the tuple of
    ``dataclasses.fields`` at one size and shrinks it, and parks each one freed on a free list that
    no later call takes from, about 34 KB for the 400 points of a cohort run."""
    for f in obj.__dataclass_fields__.values():
        value, declared = getattr(obj, f.name), f.type.removesuffix(" | None")
        if value is not None or declared == f.type:
            _check_type(value, declared, f.name, error)


@dataclass(frozen=True)
class Region:
    """Flag-region bounds: r strictly above r_min AND I strictly below i_max.  A bound of the
    wrong type or outside its range raises ValueError."""

    r_min: float = 0.5
    i_max: float = 0.3

    def __post_init__(self) -> None:
        _check_types(self)
        _check_range(self.r_min, -1, 1, "r_min", open=True)
        _check_range(self.i_max, 0, 1, "i_max", open=True)


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
        _check_range(self.pubs_per_year_limit, 1, None, "pubs_per_year_limit")
        _check_range(self.growth_window, 0, None, "growth_window")
        _check_range(self.max_lag, 0, None, "max_lag")

    @property
    def region(self) -> Region:
        return Region(self.r_min, self.i_max)

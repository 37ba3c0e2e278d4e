"""Reference oracle for ``papertrail.indicators.pearson`` and ``_h_index``.

These are the comprehension versions that the ``map``/``operator`` forms
replaced, kept verbatim so tests can check that the rewrite computes the
same floats and the same h-index, bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from papertrail.errors import LengthMismatchError, TooShortError


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson product-moment correlation; None when either side is constant."""
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise TooShortError("correlation needs at least 2 paired values")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    return sxy / math.sqrt(sxx * syy)


def _h_index(totals: Iterable[int]) -> int:
    """Largest h such that at least h of ``totals`` are >= h."""
    # in descending order a total stays >= its rank up to rank h and falls below it after
    return sum(cites >= rank for rank, cites in enumerate(sorted(totals, reverse=True), start=1))

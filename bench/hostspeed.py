"""A fixed pure-Python probe of the host's current speed.

On a shared VM the host's speed swings by up to 2x in phases of seconds
to minutes, and CPU time swings with wall time.  ``probe`` times a fixed
piece of work that resembles papertrail's own (write a TSV file, read it
back, parse its cells, aggregate, draw random numbers and format rows
again) and is independent of papertrail's code.  A fresh child of the
worker runs one probe between operations, so every operation is
bracketed by two probes.
Dividing an operation's time by its probes' mean and multiplying by
``REFERENCE_S`` gives the time it would take on a host where the probe
takes ``REFERENCE_S``: the same program reads the same on a fast and on a
slow phase, while a change to the program still moves it in full.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

# Nominal probe time that normalised times are expressed at.  It is a
# constant, not a measured figure, so that normalised times of two runs
# (or of a parent and a child commit) compare directly.
REFERENCE_S = 0.05

_ROWS, _COLS = 3000, 40


def _text() -> str:
    rng = random.Random(20240529)
    return "\n".join(
        "\t".join([f"paper {i}", str(1960 + i % 60)] + [str(rng.randrange(1000))
                                                          for _ in range(_COLS)])
        for i in range(_ROWS)) + "\n"


_TEXT = _text()


def _work(path: Path) -> int:
    path.write_text(_TEXT, encoding="utf-8")
    by_year: dict[int, list[float]] = {}
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        cells = line.split("\t")
        year, cites = int(cells[1]), [int(c) for c in cells[2:]]
        by_year.setdefault(year, []).append(sum(cites) / len(cites))
        rows.append((cells[0], year, cites))
    rng = random.Random(7)
    out = [f"{title}\t{year}\t{rng.random():.6f}\t" + "\t".join(map(str, cites))
           for title, year, cites in rows]
    return len("\n".join(out)) + len(by_year)


def probe(path: Path) -> float:
    """Seconds the fixed work takes now; writes and removes ``path``."""
    start = time.perf_counter()
    _work(path)
    elapsed = time.perf_counter() - start
    path.unlink(missing_ok=True)
    return elapsed


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed, given the probes around it."""
    return seconds * REFERENCE_S * 2 / (before + after)

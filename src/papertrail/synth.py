"""Deterministic synthetic researcher profiles for the two behavioral archetypes.

Two generative models, both fully reproducible from a 64-bit seed:

* ``conscientious`` -- publication counts rise from a base rate to a peak
  and decline back; each paper's citations are spread over later years by
  a unimodal kernel whose mode sits ``kernel_peak_lag`` years after
  publication, with a longer right tail (recognition arrives late).

* ``papermill`` -- publication counts sit at the base rate until an onset
  year, then grow monotonically to the peak rate; each paper's citations
  land almost entirely in its publication year and the next, with magnitude
  proportional to that year's output (every new paper feeds citations back
  into the ring, so citation counts snowball with publication counts).

Randomness is limited to small jitter on per-year quantities and comes
from an explicit xorshift64* generator (constants below), so identical
specs produce byte-identical serialized profiles on any platform.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import islice, starmap
from operator import itemgetter
from typing import Iterator

from .config import _check_types, _echo_int
from .errors import InvalidSpecError
from .ingest import _NO_YEARS, MAX_YEAR, MIN_YEAR, ResearcherProfile, _cells, _record, _trim

_MASK64 = (1 << 64) - 1

# relative jitter amplitudes applied to per-year publication targets and
# per-paper citation masses
_PUB_JITTER = 0.15
_CITE_JITTER = 0.25

# citation kernel support, in multiples of the kernel peak lag
_KERNEL_SPAN = 3

# papermill citation kernel: fraction landing in the publication year vs the next
_PAPERMILL_KERNEL = (0.8, 0.2)

# parameter bounds: they keep a profile's record count, its kernel length
# and every citation count (papermill masses scale with peak/base) finite
# and small enough to hold in memory
MIN_BASE_RATE = 0.01
MAX_PEAK_RATE = 1000.0
MAX_CITES_PER_PAPER = 1e6
MAX_KERNEL_PEAK_LAG = 20


class Xorshift64Star:
    """xorshift64* PRNG with a splitmix64-mixed seed.

    Seed mixing (splitmix64 single step)::

        z = (seed + 0x9E3779B97F4A7C15) mod 2^64
        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
        z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
        z ^= z >> 31

    State update / output::

        x ^= x >> 12;  x ^= x << 25 (mod 2^64);  x ^= x >> 27
        output = (x * 0x2545F4914F6CDD1D) mod 2^64

    A zero post-mix state is replaced by 0x9E3779B97F4A7C15 (xorshift
    requires nonzero state).  Uniform doubles use the top 53 output bits.
    """

    def __init__(self, seed: int) -> None:
        z = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        self._state = z if z != 0 else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def jitter(self, amplitude: float) -> float:
        """Multiplicative jitter factor in [1 - amplitude, 1 + amplitude)."""
        return 1.0 + amplitude * (2.0 * self.uniform() - 1.0)

    def _jitters(self, amplitude: float, n: int) -> list[float]:
        """``[self.jitter(amplitude) for _ in range(n)]``, the same values drawn in one loop."""
        x = self._state
        factors = []
        for _ in range(n):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            u = (((x * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * 2.0 ** -53
            factors.append(1.0 + amplitude * (2.0 * u - 1.0))
        self._state = x
        return factors


class Archetype(str, Enum):
    CONSCIENTIOUS = "conscientious"
    PAPERMILL = "papermill"


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic profile; validated on construction.  A value of the wrong
    type or outside its range raises InvalidSpecError."""

    archetype: Archetype
    start_year: int
    n_years: int
    seed: int
    base_rate: float
    peak_rate: float
    cites_per_paper: float
    onset_offset: int
    kernel_peak_lag: int

    def __post_init__(self) -> None:
        _check_types(self, InvalidSpecError)
        if not 0 <= self.seed <= _MASK64:
            # the generator reduces its seed mod 2**64, so a wider seed would
            # repeat the data of a smaller one under a different name
            raise InvalidSpecError("seed must lie in 0..2**64-1")
        if self.n_years < 8:
            raise InvalidSpecError("n_years must be at least 8")
        for name in ("base_rate", "peak_rate", "cites_per_paper"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be finite")
        if self.base_rate < MIN_BASE_RATE:
            raise InvalidSpecError(f"base_rate must be at least {MIN_BASE_RATE}")
        if self.base_rate > self.peak_rate:
            raise InvalidSpecError("base_rate must not exceed peak_rate")
        if self.peak_rate > MAX_PEAK_RATE:
            raise InvalidSpecError(f"peak_rate must not exceed {MAX_PEAK_RATE:g}")
        if not 1 <= self.kernel_peak_lag <= MAX_KERNEL_PEAK_LAG:
            raise InvalidSpecError(f"kernel_peak_lag must lie in 1..{MAX_KERNEL_PEAK_LAG}")
        if not 0 <= self.onset_offset < self.n_years:
            raise InvalidSpecError("onset_offset must lie in 0..n_years-1")
        if not 0 < self.cites_per_paper <= MAX_CITES_PER_PAPER:
            raise InvalidSpecError(
                f"cites_per_paper must lie in (0, {MAX_CITES_PER_PAPER:g}]"
            )
        if not MIN_YEAR <= self.start_year <= MAX_YEAR - self.n_years:
            raise InvalidSpecError(
                f"start_year {_echo_int(self.start_year)} leaves no room for "
                f"{_echo_int(self.n_years)} years"
            )
        # the kernel carries citations past the last publication year
        tail = (_KERNEL_SPAN * self.kernel_peak_lag if self.archetype is Archetype.CONSCIENTIOUS
                else len(_PAPERMILL_KERNEL) - 1)
        last_cited = self.start_year + self.n_years - 1 + tail
        if last_cited > MAX_YEAR:
            raise InvalidSpecError(
                f"citations would run to {last_cited}, past {MAX_YEAR}: lower "
                "start_year, n_years or kernel_peak_lag"
            )


def conscientious_spec(
    seed: int = 0,
    *,
    start_year: int = 1998,
    n_years: int = 25,
    base_rate: float = 2.0,
    peak_rate: float = 16.0,
    kernel_peak_lag: int = 6,
    cites_per_paper: float = 90.0,
) -> SynthSpec:
    """Default rise-then-decline profile (late, long-lived citation impact)."""
    return SynthSpec(
        archetype=Archetype.CONSCIENTIOUS,
        start_year=start_year,
        n_years=n_years,
        seed=seed,
        base_rate=base_rate,
        peak_rate=peak_rate,
        cites_per_paper=cites_per_paper,
        onset_offset=0,
        kernel_peak_lag=kernel_peak_lag,
    )


def papermill_spec(
    seed: int = 0,
    *,
    start_year: int = 2010,
    n_years: int = 14,
    base_rate: float = 3.0,
    peak_rate: float = 45.0,
    onset_offset: int | None = None,
    cites_per_paper: float = 3.0,
) -> SynthSpec:
    """Default flat-then-explosive profile (synchronous citation snowball)."""
    return SynthSpec(
        archetype=Archetype.PAPERMILL,
        start_year=start_year,
        n_years=n_years,
        seed=seed,
        base_rate=base_rate,
        peak_rate=peak_rate,
        cites_per_paper=cites_per_paper,
        onset_offset=n_years // 2 if onset_offset is None else onset_offset,
        kernel_peak_lag=1,
    )


def _floor_carry(values: list[float], scale: float = 1.0) -> list[int]:
    """Integerize the non-negative reals ``v * scale``, carrying remainders forward.

    The running total is conserved: sum(out) == floor(sum(v * scale)).
    """
    counts: list[int] = []
    carry = 0.0
    for v in values:
        t = v * scale + carry  # x * 1.0 == x exactly
        c = math.floor(t)
        counts.append(c)
        carry = t - c
    return counts


def _enforce_peak(counts: list[int], peak: int) -> list[int]:
    """Shift citations until the peak offset holds a strict maximum.

    Integer rounding can flatten or displace the kernel mode; this moves
    single citations from the largest rival bin into the peak bin until the
    mode is strict.  Totals are conserved.
    """
    if len(counts) <= 1 or sum(counts) == 0:
        return counts
    held, counts[peak] = counts[peak], -1  # below every rival while they are searched
    while held <= (top := max(counts)):
        counts[counts.index(top)] -= 1  # the rival: the lowest-index bin holding ``top``
        held += 1
    counts[peak] = held
    return counts


def _conscientious_pub_targets(spec: SynthSpec) -> list[float]:
    n = spec.n_years
    t_peak = max(1, round(0.4 * (n - 1)))
    targets = []
    for i in range(n):
        if i <= t_peak:
            frac = i / t_peak
        else:
            frac = (n - 1 - i) / (n - 1 - t_peak)
        targets.append(spec.base_rate + (spec.peak_rate - spec.base_rate) * frac)
    return targets


def _papermill_pub_targets(spec: SynthSpec) -> list[float]:
    n, onset = spec.n_years, spec.onset_offset
    growth_span = max(1, n - 1 - onset)
    step = (spec.peak_rate - spec.base_rate) / growth_span
    return [
        spec.base_rate if i < onset else spec.base_rate + step * (i - onset)
        for i in range(n)
    ]


def _conscientious_kernel(spec: SynthSpec) -> list[float]:
    lag = spec.kernel_peak_lag
    sigma_left = max(0.8, lag / 3.0)
    sigma_right = max(1.6, 2.0 * lag / 3.0)
    weights = []
    for d in range(_KERNEL_SPAN * lag + 1):
        sigma = sigma_left if d <= lag else sigma_right
        weights.append(math.exp(-0.5 * ((d - lag) / sigma) ** 2))
    total = math.fsum(weights)
    return [w / total for w in weights]


# the shape of a paper: its total, its cited span from its year (``lo``, ``hi``), its counts over
# that span and their cells
_Shape = tuple[int, int, int, list[str], tuple[int, ...]]
# a row of ``ingest._write_report`` followed by its counts
_Row = tuple[str, int, int, range, list[str], tuple[int, ...]]


def _papers(spec: SynthSpec) -> tuple[range, Iterator[_Row]]:
    """Shape every paper of ``spec``, and return the year window of its report and its rows.

    This eager pass draws every random number and raises InvalidSpecError
    before it returns.  It keeps, in paper order, one reference per paper to
    the shape of its kernel output; papers of one call with the same output
    share one shape, which no caller changes.  The window is the least
    ``year + lo`` and the greatest ``year + hi`` over the papers that cite
    something, ``_NO_YEARS`` if none does.  The rows are rendered from the
    references as they are asked for (see ``_rows``).

    The kernel (``_floor_carry``) runs only for a mass whose output the masses
    already shaped cannot settle.  Every kernel weight is >= 0, and each step of
    ``_floor_carry`` is monotone in its float inputs under IEEE round-to-nearest:
    ``v * m``, ``+ carry``, ``math.floor``, and ``t - c`` with ``c`` fixed.  Take
    masses ``a <= m <= b`` where ``a`` and ``b`` give the same output.  By
    induction over the kernel, every running value ``t`` at ``m`` lies between
    its values at ``a`` and at ``b``: the floors at ``a`` and ``b`` are equal, so
    the floor at ``m`` is the same, and its carry stays between theirs.  So ``m``
    gives the same output, and the masses that give any one output form an
    interval.  A paper whose mass equals a mass already shaped, or lies between
    two shaped masses of its unit (``int(mass)``) with the same output, takes that
    output without the kernel; any other runs it and joins its unit's sorted
    masses, where, next to two masses with its output, it takes the place of
    the nearer one (a run's two ends settle every mass between them).  The
    lemma alone carries correctness; the units only bound the cost: each
    kernel prefix sum is at most 1, so it crosses at most one integer per unit
    of mass, a unit holds few outputs and at most two masses of each, and an
    insert touches one short array.
    """
    # imported here: a process that loads this module without generating a profile does not map
    # the array extension (about 75 KB resident)
    from array import array

    rng = Xorshift64Star(spec.seed)

    # the kernel takes no random draw, so building it here leaves the draw order as it was
    if spec.archetype is Archetype.CONSCIENTIOUS:
        targets = _conscientious_pub_targets(spec)
        pub_counts = _floor_carry([t * rng.jitter(_PUB_JITTER) for t in targets])
        kernel = _conscientious_kernel(spec)
        peak_offset = spec.kernel_peak_lag
    else:
        # output sits exactly at the base rate until the onset; only the
        # growth years are jittered, then forced monotone from the onset on
        targets = _papermill_pub_targets(spec)
        onset = spec.onset_offset
        pub_counts = [round(spec.base_rate)] * onset
        pub_counts += _floor_carry([t * rng.jitter(_PUB_JITTER) for t in targets[onset:]])
        for i in range(max(onset, 1), spec.n_years):
            pub_counts[i] = max(pub_counts[i], pub_counts[i - 1])
        kernel = list(_PAPERMILL_KERNEL)
        peak_offset = 0
    if sum(pub_counts) == 0:
        raise InvalidSpecError("rates too low: zero publications generated")

    # per call: ``found`` holds the shape of each distinct raw kernel output, in the order found,
    # and ``outputs`` the index there of each raw output: a table of its own, as a raw output can
    # equal some other output's trimmed counts.  ``shapes`` holds the shape of each trimmed counts,
    # so that equal counts are one shape.  ``units[int(mass)]`` holds the masses of that unit shaped
    # so far, sorted, then the index of each one's output, in one array of floats: the garbage
    # collector does not track arrays, and where no output repeats each paper adds a unit
    found: list[_Shape] = []
    outputs: dict[tuple[int, ...], int] = {}
    shapes: dict[tuple[int, ...], _Shape] = {}
    units: dict[int, array[float]] = {}
    papers: list[_Shape] = []
    cites = spec.cites_per_paper
    first, last = MAX_YEAR, MIN_YEAR  # the window, while no paper cites anything: empty
    for year, count in enumerate(pub_counts, spec.start_year):
        # papermill masses scale with the year's output; x * 1.0 == x exactly
        scale = count / spec.base_rate if spec.archetype is Archetype.PAPERMILL else 1.0
        drawn = []  # the shapes of the year's papers
        for jitter in rng._jitters(_CITE_JITTER, count):
            mass = max(cites * jitter * scale, 1.0)
            unit = units.get(whole := int(mass), ())
            n = len(unit) >> 1  # the unit's masses: unit[:n]; their outputs: unit[n:]
            i = bisect_left(unit, mass, 0, n)  # unit[i - 1] < mass <= unit[i]
            if i < n and (unit[i] == mass or i and unit[n + i - 1] == unit[n + i]):
                drawn.append(found[int(unit[n + i])])
                continue
            raw = _floor_carry(kernel, mass)
            if (output := outputs.get(key := tuple(raw))) is None:
                # the peak, the trim, the total and the texts depend on the output alone
                span, counts = _trim(0, tuple(_enforce_peak(raw, peak_offset)))
                if (shape := shapes.get(counts)) is None:
                    shape = shapes[counts] = (sum(counts), span.start, span.stop,
                                              _cells([counts])[0], counts)
                output = outputs[key] = len(found)
                found.append(shape)
            if i > 1 and unit[n + i - 2] == unit[n + i - 1] == output:
                unit[i - 1] = mass  # the run of this output to the left now ends at ``mass``
            elif i + 1 < n and unit[n + i] == unit[n + i + 1] == output:
                unit[i] = mass  # the run of this output to the right now starts at ``mass``
            elif unit:
                unit.insert(n + i, output)
                unit.insert(i, mass)
            else:
                units[whole] = array("d", (mass, output))
            drawn.append(found[output])
        papers += drawn
        if cited := list(filter(itemgetter(4), drawn)):  # the shapes with counts
            first = min(first, year + min(map(itemgetter(1), cited)))
            last = max(last, year + max(map(itemgetter(2), cited)))
    window = range(first, last) if first < last else _NO_YEARS
    return window, _rendered(spec.start_year, pub_counts, papers)


def _rendered(start_year: int, pub_counts: list[int], papers: list[_Shape]) -> Iterator[_Row]:
    """The row of each of ``papers``, the shapes of the ``pub_counts[i]`` papers of each year
    ``start_year + i`` in turn, rendered as it is asked for."""
    shapes = iter(papers)
    paper_no = 0
    for year, count in enumerate(pub_counts, start_year):
        for total, lo, hi, cells, counts in islice(shapes, count):
            paper_no += 1
            yield (f"Synthetic study {paper_no:04d}", year, total,
                   range(year + lo, year + hi) if counts else _NO_YEARS, cells, counts)


def _rows(spec: SynthSpec) -> Iterator[_Row]:
    """Each paper as a row of ``ingest._write_report`` followed by its counts:
    ``(title, pub_year, total, years, cells, counts)``, where ``years`` runs from its first to its
    last cited year (empty if it cites nothing), ``counts`` holds its citations in those years and
    ``cells`` their texts.  Papers of one call with the same kernel output share one ``counts``
    tuple and one ``cells`` list, which no caller changes.  Every paper is shaped, and a refused
    spec raises, before this returns; each row is rendered as it is asked for."""
    return _papers(spec)[1]


def _names(spec: SynthSpec) -> tuple[str, str]:
    """The researcher name and id of the profile of ``spec``."""
    return (f"synth-{spec.archetype.value}-{spec.seed}",
            f"SYNTH-{spec.archetype.value.upper()}-{spec.seed}")


def generate(spec: SynthSpec) -> ResearcherProfile:
    """Produce a synthetic profile; identical specs yield identical output."""
    name, source_id = _names(spec)
    # start_year bounds every pub_year, and the counts are non-negative ints
    return ResearcherProfile(name=name, source_id=source_id, records=list(starmap(
        _record, map(itemgetter(0, 1, 2, 3, 5), _rows(spec)))))


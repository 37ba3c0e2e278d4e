"""Reference oracle for ``papertrail.synth.generate`` and ``papertrail.ingest.serialize_report``.

These are the versions that the fast write path replaced, kept verbatim so
tests can check that the package still generates the same records and
writes the same bytes: ``generate`` validates each record through the
public constructor and picks the rival bin with a keyed ``max``, and
``serialize_report`` converts every cell of every row.  It also keeps the
old write rule, which the package replaced with a ValueError: for the TSV
flavor it replaces tab, CR and LF with spaces and warns.  The helpers that
did not change (spec targets, kernels, the PRNG) are shared with the package.

``serialize_report`` reads a record's ``citations_by_year``, a new dict on
each access, once per year column.  ``serialize_report_reading_once`` runs
it on stand-ins that hold each record's dict, read once: the same bytes,
several times faster on a wide profile.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from types import SimpleNamespace

from papertrail.errors import InvalidSpecError
from papertrail.ingest import (
    _HEADER_PREFIX,
    META_H_INDEX,
    META_ID,
    META_RESEARCHER,
    PublicationRecord,
    ReportFormat,
    ResearcherProfile,
)
from papertrail.synth import (
    _CITE_JITTER,
    _PAPERMILL_KERNEL,
    _PUB_JITTER,
    Archetype,
    SynthSpec,
    Xorshift64Star,
    _conscientious_kernel,
    _conscientious_pub_targets,
    _papermill_pub_targets,
)


def _floor_carry(values: list[float]) -> list[int]:
    """Integerize non-negative reals, carrying remainders forward.

    The running total is conserved: sum(out) == floor(sum(values)).
    """
    counts: list[int] = []
    carry = 0.0
    for v in values:
        t = v + carry
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
    while True:
        rival = max(
            (j for j in range(len(counts)) if j != peak),
            key=lambda j: (counts[j], -j),
        )
        if counts[peak] > counts[rival]:
            return counts
        counts[rival] -= 1
        counts[peak] += 1


def generate(spec: SynthSpec) -> ResearcherProfile:
    """Produce a synthetic profile; identical specs yield identical output."""
    rng = Xorshift64Star(spec.seed)

    if spec.archetype is Archetype.CONSCIENTIOUS:
        targets = _conscientious_pub_targets(spec)
        pub_counts = _floor_carry([t * rng.jitter(_PUB_JITTER) for t in targets])
    else:
        # output sits exactly at the base rate until the onset; only the
        # growth years are jittered, then forced monotone from the onset on
        targets = _papermill_pub_targets(spec)
        onset = spec.onset_offset
        pub_counts = [round(spec.base_rate)] * onset
        pub_counts += _floor_carry([t * rng.jitter(_PUB_JITTER) for t in targets[onset:]])
        for i in range(max(onset, 1), spec.n_years):
            pub_counts[i] = max(pub_counts[i], pub_counts[i - 1])
    if sum(pub_counts) == 0:
        raise InvalidSpecError("rates too low: zero publications generated")

    if spec.archetype is Archetype.CONSCIENTIOUS:
        kernel = _conscientious_kernel(spec)
        peak_offset = spec.kernel_peak_lag
    else:
        kernel = list(_PAPERMILL_KERNEL)
        peak_offset = 0

    records: list[PublicationRecord] = []
    paper_no = 0
    for i, count in enumerate(pub_counts):
        year = spec.start_year + i
        for _ in range(count):
            paper_no += 1
            mass = spec.cites_per_paper * rng.jitter(_CITE_JITTER)
            if spec.archetype is Archetype.PAPERMILL:
                mass *= pub_counts[i] / spec.base_rate
            mass = max(mass, 1.0)
            offsets = _enforce_peak(_floor_carry([mass * w for w in kernel]), peak_offset)
            by_year = {year + d: c for d, c in enumerate(offsets) if c > 0}
            records.append(PublicationRecord(
                title=f"Synthetic study {paper_no:04d}",
                pub_year=year,
                total_citations=sum(by_year.values()),
                citations_by_year=by_year,
            ))

    return ResearcherProfile(
        name=f"synth-{spec.archetype.value}-{spec.seed}",
        source_id=f"SYNTH-{spec.archetype.value.upper()}-{spec.seed}",
        records=records,
    )


# characters that would break the line/field structure of a TSV file
_TSV_UNSAFE = re.compile(r"[\t\r\n]")


class ReportWarning(UserWarning):
    """Non-fatal data issue, such as a title sanitized for the TSV flavor."""


def _sanitize(value: str, fmt: ReportFormat, what: str) -> str:
    if fmt is ReportFormat.CSV:
        return value
    cleaned = _TSV_UNSAFE.sub(" ", value)
    if cleaned != value:
        warnings.warn(
            f"{what} contained delimiter/control characters; replaced with spaces",
            ReportWarning,
            stacklevel=3,
        )
    return cleaned


def serialize_report(profile: ResearcherProfile, fmt: ReportFormat = ReportFormat.TSV) -> bytes:
    """Render a profile back into canonical bytes.

    The year-column window is the smallest contiguous range covering every
    cited year across all records (empty when nothing was ever cited).
    ``parse_report(serialize_report(p))`` reproduces ``p`` in every field
    except ``warnings``; titles holding tab or newline characters are
    sanitized for the TSV flavor (a ReportWarning is emitted).
    """
    cited_years = [y for rec in profile.records for y in rec.citations_by_year]
    year_cols: list[int] = []
    if cited_years:
        year_cols = list(range(min(cited_years), max(cited_years) + 1))

    rows: list[list[str]] = []
    rows.append([META_RESEARCHER, _sanitize(profile.name, fmt, "researcher name")])
    if profile.source_id is not None:
        rows.append([META_ID, _sanitize(profile.source_id, fmt, "researcher id")])
    if profile.reported_h is not None:
        rows.append([META_H_INDEX, str(profile.reported_h)])
    rows.append(list(_HEADER_PREFIX) + [str(y) for y in year_cols])
    for rec in profile.records:
        rows.append(
            [_sanitize(rec.title, fmt, "record title"), str(rec.pub_year), str(rec.total_citations)]
            + [str(rec.citations_by_year.get(y, 0)) for y in year_cols]
        )

    if fmt is ReportFormat.TSV:
        text = "\n".join("\t".join(row) for row in rows) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(rows)
        text = buffer.getvalue()
    return text.encode("utf-8")


def serialize_report_reading_once(profile: ResearcherProfile,
                                  fmt: ReportFormat = ReportFormat.TSV) -> bytes:
    """``serialize_report`` on stand-ins of ``profile`` and its records, each record's
    ``citations_by_year`` read once."""
    records = [SimpleNamespace(title=rec.title, pub_year=rec.pub_year,
                               total_citations=rec.total_citations,
                               citations_by_year=rec.citations_by_year)
               for rec in profile.records]
    return serialize_report(SimpleNamespace(name=profile.name, source_id=profile.source_id,
                                            reported_h=profile.reported_h, records=records), fmt)

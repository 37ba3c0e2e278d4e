"""Every supported CPython writes the same documents and charts.

Runs ``analyze --svg``, ``analyze`` on a report of more numeric cells than
the block pass looks up in one call, ``synth`` (the default profiles and
the wide ``synth-write`` benchmark profile in both formats), ``cohort
--svg-dir`` and ``cohort --prefer-reported-h`` (over a CSV report, a
mismatching total, reports with a bad first, middle or last row or a short
row, that large report and one with counts above 255 too) on this
checkout's ``src`` under the running interpreter and under each other
``python3.10`` .. ``python3.13`` on PATH (a pyenv shim through an installed
version of its own), and compares the JSON documents
(without ``generated_at``) and every other output byte for byte.  The
cohort of 14 synth reports is one whose group means builtin ``sum`` rounds
differently on 3.11 and 3.13.

Each of those interpreters also runs ``package_probe.py``: the star import,
the lazy lookups of the public names, and the modules that ``import
papertrail.cli`` loads.
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from papertrail import ingest
from papertrail.ingest import ReportFormat, serialize_report
from papertrail.synth import conscientious_spec, generate, papermill_spec

from test_package import assert_lazy_package, probe

SRC = Path(__file__).resolve().parent.parent / "src"
SUPPORTED = ("3.10", "3.11", "3.12", "3.13")


def pyenv_versions() -> list[str]:
    """The versions that pyenv has installed, or none without pyenv."""
    try:
        listed = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True, text=True,
                                timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return []
    return listed.stdout.split() if listed.returncode == 0 else []


def find_interpreter(version: str) -> str | None:
    """The path of a ``python<version>`` on PATH that starts, or None.

    A pyenv shim exits 127 unless its version is selected, so one that does
    not start is retried with PYENV_VERSION set to each installed
    ``<version>.<micro>``.  The path is the interpreter's own
    ``sys.executable``, which starts without the shim.
    """
    exe = shutil.which(f"python{version}")
    if exe is None:
        return None
    micros = [v for v in pyenv_versions() if re.fullmatch(rf"{re.escape(version)}\.\d+", v)]
    for env in [None, *(dict(os.environ, PYENV_VERSION=micro) for micro in micros)]:
        try:
            started = subprocess.run([exe, "-c", "import sys; print(sys.executable)"], env=env,
                                     capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if started.returncode == 0:
            return started.stdout.strip()
    return None


@functools.cache
def other_interpreters() -> tuple[list[str], list[str]]:
    """The supported CPythons, other than this one's version, that start; and the versions
    of which none does."""
    running = "{}.{}".format(*sys.version_info[:2])
    found = {version: find_interpreter(version) for version in SUPPORTED if version != running}
    return ([exe for exe in found.values() if exe],
            [version for version, exe in found.items() if exe is None])


def not_found(missing: list[str]) -> str:
    return f"no {', '.join(f'python{v}' for v in missing)} starts here, also through pyenv"


def outputs(python: str, inputs: Path, out: Path) -> dict[str, object]:
    """Each output file of the three commands under ``python``, by name."""
    out.mkdir()
    runs = [
        ["analyze", inputs / "pm3.tsv", "--json", out / "analyze.json",
         "--svg", out / "analyze.svg"],
        # more numeric cells than the block pass looks up in one call
        ["analyze", inputs / "large.tsv", "--json", out / "large.json"],
        ["synth", "--archetype", "papermill", "--seed", "4", "-o", out / "pm.tsv"],
        ["synth", "--archetype", "conscientious", "--seed", "4", "--format", "csv",
         "-o", out / "cs.csv"],
        # the synth-write benchmark profile, in both formats
        *(["synth", "--archetype", "conscientious", "--seed", "1", "--n-years", "60",
           "--peak-rate", "400", "--start-year", "1960", "--format", fmt, "-o", out / f"wide.{fmt}"]
          for fmt in ("tsv", "csv")),
        ["cohort", inputs / "cohort.tsv", "--json", out / "cohort.json", "--svg-dir", out / "figs"],
        # with a CSV report, a mismatching total and reported h-indices that the run prefers
        ["cohort", inputs / "columns.tsv", "--prefer-reported-h", "--json", out / "columns.json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in runs:
        result = subprocess.run([python, "-m", "papertrail.cli", *map(str, argv)], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, (python, argv, result.stderr)
    files: dict[str, object] = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            del doc["generated_at"]
            files[name] = doc
        else:
            files[name] = path.read_bytes()
    return files


def numeric_cells(data: bytes) -> list[list[bytes]]:
    """The numeric cells of each record row of a TSV report."""
    lines = data.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(b"Title"))
    return [line.split(b"\t")[1:] for line in lines[header + 1:]]


def test_every_interpreter_writes_the_same_outputs(tmp_path):
    others, missing = other_interpreters()
    if not others:
        pytest.skip(not_found(missing))
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    lines = []
    for seed in range(7):
        for stem, spec in ((f"pm{seed}", papermill_spec(seed)),
                           (f"cs{seed}", conscientious_spec(seed))):
            (inputs / f"{stem}.tsv").write_bytes(serialize_report(generate(spec)))
            lines.append(f"{stem}\t{stem}.tsv\n")
    (inputs / "cohort.tsv").write_text("".join(lines), encoding="utf-8")
    csv_profile = replace(generate(conscientious_spec(8)), reported_h=4)
    (inputs / "cs8.csv").write_bytes(serialize_report(csv_profile, ReportFormat.CSV))
    rows = serialize_report(replace(generate(papermill_spec(8)), reported_h=10**6)).split(b"\n")
    cells = rows[-2].split(b"\t")
    cells[2] = b"%d" % (int(cells[2]) + 7)  # the last record's total disagrees with its years
    (inputs / "pm8.tsv").write_bytes(b"\n".join([*rows[:-2], b"\t".join(cells), b""]))
    columns = [*lines, "cs8\tcs8.csv\n", "pm8\tpm8.tsv\n"]
    # reports that the run skips with a diagnostic: the block pass keeps the rows before the bad one
    records = serialize_report(generate(papermill_spec(9))).split(b"\n")
    first = next(i for i, row in enumerate(records) if row.startswith(b"Title")) + 1
    last = len(records) - 2
    for stem, row, cut in (("bad-first", first, b"\tx"), ("bad-middle", (first + last) // 2, b"\t"),
                           ("bad-last", last, b"\t+-3"), ("short", (first + last) // 2, b"")):
        defect = records.copy()
        defect[row] = defect[row].rpartition(b"\t")[0] + cut
        (inputs / f"{stem}.tsv").write_bytes(b"\n".join(defect))
        columns.append(f"{stem}\t{stem}.tsv\n")
    # a report of more numeric cells than the block pass looks up in one call, and one with
    # counts past the lookup table
    large = serialize_report(generate(conscientious_spec(10, n_years=40, peak_rate=60.0,
                                                         start_year=1960)))
    assert sum(map(len, numeric_cells(large))) > ingest._BULK_CELLS
    above = serialize_report(generate(papermill_spec(10, cites_per_paper=40.0)))
    assert max(int(cell) for row in numeric_cells(above) for cell in row[1:]) > 255
    for stem, data in (("large", large), ("above", above)):
        (inputs / f"{stem}.tsv").write_bytes(data)
        columns.append(f"{stem}\t{stem}.tsv\n")
    (inputs / "columns.tsv").write_text("".join(columns), encoding="utf-8")

    expected = outputs(sys.executable, inputs, tmp_path / "running")
    assert len(expected) == 13
    diagnosed = {d["label"]: d["error"] for d in expected["columns.json"]["diagnostics"]}
    assert sorted(diagnosed) == ["bad-first", "bad-last", "bad-middle", "short"], diagnosed
    for n, python in enumerate(others):
        actual = outputs(python, inputs, tmp_path / f"other{n}")
        assert actual.keys() == expected.keys(), python
        for name in expected:
            assert actual[name] == expected[name], (python, name)
    if missing:  # the others agree, but not every supported version was compared
        pytest.skip(not_found(missing))


def test_every_interpreter_loads_the_package_lazily():
    others, missing = other_interpreters()
    for python in others:
        assert_lazy_package(probe(python))
    if missing:
        pytest.skip(not_found(missing))

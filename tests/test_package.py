import json
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import papertrail
from papertrail.ingest import ReportFormat, serialize_report
from papertrail.synth import conscientious_spec, generate, papermill_spec

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = Path(__file__).resolve().parent / "package_probe.py"

# modules that some commands never use: the cohort analysis, the indicators and their series,
# the charts, synth, display rounding (decimal) and SVG escaping (html), and what
# xml.sax.saxutils, which once escaped SVG text, pulled in
DEFERRED = {"papertrail.cohort", "papertrail.indicators", "papertrail.series",
            "papertrail.render", "papertrail.synth", "decimal", "html",
            "xml.sax", "urllib.request", "http.client", "email.parser"}
# standard-library modules that a start does not load: only writing a JSON document loads json,
# only a CSV report csv, and no command datetime
ON_USE = {"json", "csv", "datetime"}


def probe(python: str = sys.executable) -> dict:
    """What ``package_probe.py`` reports under ``python``, in a fresh interpreter."""
    result = subprocess.run([python, str(PROBE), str(SRC)], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def assert_lazy_package(report: dict) -> None:
    """The probe's report of a package that imports each module on first use."""
    assert [m for m in report["bare_loads"] if m.startswith("papertrail")] == ["papertrail"]
    assert [m for m in report["cli_loads"] if m.startswith("papertrail")] == [
        "papertrail.cli", "papertrail.config", "papertrail.errors", "papertrail.ingest"]
    assert (DEFERRED | ON_USE).isdisjoint(report["cli_loads"])
    assert report["ingest_patterns"] == []
    assert report["threads_agree"]
    assert report["star"] == report["all"] and len(report["all"]) == 61
    assert report["modules"] == []
    assert report["mismatched"] == []
    assert report["submodules_resolve"] and report["unknown_raises"]


def test_public_names_are_the_package_imports():
    namespace: dict = {}
    exec("from papertrail import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == papertrail.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    # the names the README's library example imports
    assert {"analyze_profile", "parse_report", "profile_chart"} <= set(papertrail.__all__)


# dir() of the bare package in a fresh interpreter, and the submodules it loaded
DIR = ("import json, sys; sys.path.insert(0, sys.argv[1]); import papertrail; "
       "print(json.dumps([dir(papertrail), papertrail.__all__, sorted(sys.modules)]))")


def test_dir_lists_every_public_name_and_loads_no_submodule():
    result = subprocess.run([sys.executable, "-c", DIR, str(SRC)], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    names, public, modules = json.loads(result.stdout)
    assert names == sorted(names) and set(public) <= set(names)
    assert [m for m in modules if m.startswith("papertrail")] == ["papertrail"]
    # and in this process too, where a line tracer sees __dir__ run
    assert dir(papertrail) == sorted(set(dir(papertrail)) | set(papertrail.__all__))


def test_the_version_is_spelled_once():
    # pyproject.toml takes the version from the package, so a release changes one line
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools before 68 calls [tool.setuptools] beta
        project = pyprojecttoml.read_configuration(SRC.parent / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == papertrail.__version__


def test_package_loads_each_module_on_first_use():
    assert_lazy_package(probe())


# run main(argv) in a fresh interpreter, then print its exit code and every loaded module;
# it imports nothing to print them, so json is loaded only if the command loaded it
RUN = ("import sys; sys.path.insert(0, sys.argv[1]); from papertrail.cli import main; "
       "print(main(sys.argv[2:]), *sorted(sys.modules))")


def modules_after(*argv: object) -> set[str]:
    result = subprocess.run([sys.executable, "-c", RUN, str(SRC), *map(str, argv)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    code, *modules = result.stdout.split()
    assert code == "0"
    return set(modules)


def test_each_command_loads_only_what_it_uses(tmp_path):
    (tmp_path / "r.tsv").write_bytes(serialize_report(generate(papermill_spec(0, n_years=8))))
    (tmp_path / "m.tsv").write_text("R\tr.tsv\n", encoding="utf-8")
    analyze = ["analyze", tmp_path / "r.tsv", "--json", tmp_path / "a.json"]
    cohort = ["cohort", tmp_path / "m.tsv", "--json", tmp_path / "c.json"]

    loaded = {"analyze": modules_after(*analyze), "cohort": modules_after(*cohort)}
    for modules in loaded.values():
        assert {"papertrail.render", "papertrail.synth", "decimal", "html"}.isdisjoint(modules)
        assert modules & ON_USE == {"json"}
    assert "papertrail.cohort" not in loaded["analyze"]
    # a cohort large enough to build its points in forked processes loads no process pool, no
    # pickling and no subprocess machinery
    (tmp_path / "big.tsv").write_bytes(serialize_report(generate(
        conscientious_spec(1, n_years=40, peak_rate=20.0, start_year=1975))))
    (tmp_path / "big.manifest").write_text("".join(f"R{k}\tbig.tsv\n" for k in range(8)),
                                           encoding="utf-8")
    assert 8 * (tmp_path / "big.tsv").stat().st_size >= papertrail.cohort._FORK_FLOOR_BYTES
    forked = modules_after("cohort", tmp_path / "big.manifest", "--json", tmp_path / "c.json")
    assert {"multiprocessing", "concurrent.futures", "pickle", "subprocess",
            "selectors"}.isdisjoint(forked)
    synth = modules_after("synth", "--archetype", "papermill", "-o", tmp_path / "s.tsv")
    assert "papertrail.synth" in synth and "papertrail.render" not in synth
    assert {"papertrail.cohort", "papertrail.indicators", "papertrail.series"}.isdisjoint(synth)
    assert ON_USE.isdisjoint(synth)
    # a CSV report, named .csv or read with --format csv, loads csv
    (tmp_path / "c.txt").write_bytes(serialize_report(generate(papermill_spec(0, n_years=8)),
                                                      ReportFormat.CSV))
    (tmp_path / "mc.tsv").write_text("R\tc.txt\n", encoding="utf-8")
    for argv, expected in (
            (["analyze", tmp_path / "c.txt", "--format", "csv", "--json", tmp_path / "a.json"],
             {"csv", "json"}),
            (["cohort", tmp_path / "mc.tsv", "--format", "csv", "--json", tmp_path / "c.json"],
             {"csv", "json"}),
            (["synth", "--archetype", "papermill", "-o", tmp_path / "s.csv"], {"csv"})):
        assert modules_after(*argv) & ON_USE == expected
    for argv in ([*analyze, "--svg", tmp_path / "a.svg"], [*cohort, "--svg-dir", tmp_path / "f"]):
        charts = modules_after(*argv)
        assert "papertrail.render" in charts and "papertrail.synth" not in charts

"""Property: any config file, flag text or manifest ends in exit 0, 1 or 2.

``main`` either returns one of the documented codes or argparse exits 2;
no other exception escapes.  A non-zero return writes stderr starting with
``error: ``, and the JSON document exists exactly when the run succeeded.
The same holds for ``analyze`` over reports whose count cells may be far
larger than a float can hold.  A path, manifest label, config line, flag
value, choice or unknown argument of up to 10**5 characters, and a list of
up to 5,002 unknown arguments, give no stderr line over a fixed size.
"""

import codecs
import io
import json
import operator
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from papertrail.cli import CONFIG_FLAGS, CONFIG_KEYS, main
from papertrail.indicators import AnalysisConfig
from papertrail.ingest import serialize_report
from papertrail.synth import generate, papermill_spec

# manifest entry paths that fail: a NUL byte, a missing file, a file that is
# not a report, an absolute path, a directory
BAD_PATHS = ["p\x00m.tsv", "missing.tsv", "cfg", "/nonexistent/x.tsv", "."]

BOOLEAN_KEYS = {f.name for f in fields(AnalysisConfig) if isinstance(f.default, bool)}

# arbitrary text, numbers, and values that some config key accepts
values = (st.sampled_from(["0.2", "0.5", "3", "0", "true", "off"]) | st.text(max_size=8)
          | st.integers(-3, 40).map(str) | st.floats(-2, 2).map(str))

# a file may start with a BOM, as spreadsheet converters write one
config_files = st.none() | st.builds(
    bytes.__add__, st.sampled_from([b"", codecs.BOM_UTF8]),
    st.binary(max_size=40) | st.lists(
        st.builds("{} = {}".format, st.sampled_from(list(CONFIG_KEYS)), values), max_size=4,
    ).map(lambda lines: "\n".join(lines).encode("utf-8")),
)

manifests = st.binary(max_size=40) | st.lists(
    st.builds("{}\t{}".format, st.sampled_from(["A", "B", " "]),
              st.just("r.tsv") | st.sampled_from(BAD_PATHS)),
    max_size=4,
).map(lambda lines: "\n".join(lines).encode("utf-8"))

flag_texts = st.dictionaries(st.sampled_from(list(CONFIG_FLAGS)), values, max_size=2)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_property")
    (path / "r.tsv").write_bytes(serialize_report(generate(papermill_spec(0, n_years=8))))
    return path


def flag_argv(flags: dict[str, str]) -> list[str]:
    """Each drawn flag with its text; an empty text sets a boolean flag bare."""
    return [CONFIG_FLAGS[key][0] if text == "" and key in BOOLEAN_KEYS
            else f"{CONFIG_FLAGS[key][0]}={text}" for key, text in flags.items()]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["analyze", "cohort"]), config=config_files,
       flags=flag_texts, manifest=manifests)
def test_every_input_ends_in_a_documented_exit_code(workdir, command, config, flags,
                                                    manifest):
    out = workdir / "out.json"
    out.unlink(missing_ok=True)
    (workdir / "manifest.tsv").write_bytes(manifest)
    argv = [command, str(workdir / ("r.tsv" if command == "analyze" else "manifest.tsv")),
            "--json", str(out), *flag_argv(flags)]
    if config is not None:
        (workdir / "cfg").write_bytes(config)
        argv += ["--config", str(workdir / "cfg")]

    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    assert out.exists() == (code == 0)
    if code:
        assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


# characters that str.splitlines() breaks a line on, besides "\n"
OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# config lines that load: a comment may hold any text after a break
# character, a key line only trailing breaks
valid_lines = (
    st.builds("# note{}".format, st.text(alphabet=OTHER_LINE_BREAKS + "x", max_size=3))
    | st.builds("{}{}".format,
                st.sampled_from(["", "r_min = 0.4", "max_lag = 3", "prefer_reported_h = on"]),
                st.text(alphabet=OTHER_LINE_BREAKS, max_size=3))
)


@settings(max_examples=100, deadline=None)
@given(before=st.lists(valid_lines, max_size=5), bom=st.sampled_from([b"", codecs.BOM_UTF8]))
def test_config_error_names_the_line_counted_by_newlines(workdir, before, bom):
    text = "\n".join([*before, "bogus", ""])
    (workdir / "cfg").write_bytes(bom + text.encode("utf-8"))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["analyze", str(workdir / "r.tsv"), "--config", str(workdir / "cfg")])
    assert code == 2
    line_no = text[:text.index("bogus")].count("\n") + 1
    assert err.getvalue().startswith(f"error: {workdir / 'cfg'}:{line_no}: ")


# small counts, and counts of 1-500 digits: past 308 digits a count is no longer a finite float
count_cells = st.integers(0, 40).map(str) | st.integers(1, 500).flatmap(
    lambda n: st.text(alphabet="0123456789", min_size=n, max_size=n))


@st.composite
def count_reports(draw):
    """A TSV report of 1-4 records over 1-4 year columns, every count cell drawn."""
    years = range(2010, 2010 + draw(st.integers(1, 4)))
    rows = ["\t".join(["Title", "Publication Year", "Total Citations", *map(str, years)])]
    for k in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(count_cells, min_size=len(years) + 1, max_size=len(years) + 1))
        rows.append("\t".join([f"p{k}", str(draw(st.sampled_from(years))), *cells]))
    return ("\n".join(rows) + "\n").encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(report=count_reports())
def test_analyze_is_total_over_count_cells(workdir, report):
    (workdir / "counts.tsv").write_bytes(report)
    out = workdir / "counts.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["analyze", str(workdir / "counts.tsv"), "--json", str(out)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        json.dumps(json.loads(out.read_text()), allow_nan=False)


# the most characters a stderr line or a cohort diagnostic's error may hold, whatever the input: a
# failed read or write names a path of up to cli._PATH_ECHO_LIMIT characters twice, once as is and
# once quoted (``cannot read <path>: [Errno 36] File name too long: '<path>'``), and a skipped
# entry's warning names its label and its path
MAX_LINE = 500

# text of up to 10**5 characters: a drawn piece of 1-4 characters repeated, so lengths near the
# echo bounds and far past them both occur
long_fields = st.builds(operator.mul, st.text(min_size=1, max_size=4),
                        st.integers(1, 60) | st.integers(1, 25_000))

# integers of up to 4,300 digits, the most int() reads, and past that, of either sign: a flag
# reads them, and an error message must not echo them in full
long_numbers = st.builds(operator.add, st.sampled_from(["", "-"]),
                         st.integers(1, 60).map("9".__mul__) | st.integers(4_000, 4_400).map("9".__mul__))

FIELD_PLACES = ["report path", "manifest path", "manifest label", "manifest entry path",
                "config line", "config path", "output path", "flag value", "flag value after =",
                "synth flag value", "choice", "unknown argument", "unknown arguments"]


def field_argv(workdir, place: str, field: str, with_good_entry: bool) -> list[str]:
    """A run with ``field`` in ``place``, and its JSON document written to ``bounded.json``.

    A drawn path lies under a directory that does not exist, so no file it
    names is ever opened.
    """
    missing = f"{workdir}/missing/{field}"
    out = str(workdir / "bounded.json")
    if place in ("manifest label", "manifest entry path"):
        entry = (f"{field}\tmissing.tsv" if place == "manifest label" else f"A\tmissing/{field}")
        good = ["G\tr.tsv"] if with_good_entry else []
        (workdir / "manifest.tsv").write_text("\n".join([entry, *good]), encoding="utf-8")
        return ["cohort", str(workdir / "manifest.tsv"), "--json", out]
    if place == "manifest path":
        return ["cohort", missing, "--json", out]
    if place == "report path":
        return ["analyze", missing, "--json", out]
    if place == "choice":
        return ["synth", "--archetype", field, "-o", str(workdir / "synth.tsv")]
    if place == "synth flag value":
        return ["synth", "--archetype", "conscientious", "--start-year", field,
                "-o", str(workdir / "synth.tsv")]
    argv = ["analyze", str(workdir / "r.tsv")]
    if place == "flag value":
        return [*argv, "--max-lag", field, "--json", out]
    if place == "flag value after =":
        return [*argv, f"--r-min={field}", "--json", out]
    if place == "unknown argument":
        return [*argv, field, "--json", out]
    if place == "unknown arguments":  # argparse joins them into one line, however many there are
        return [*argv, *[field[:100]] * (len(field) // 20 + 2), "--json", out]
    if place == "config line":
        (workdir / "cfg").write_text(field, encoding="utf-8")
        return [*argv, "--config", str(workdir / "cfg"), "--json", out]
    if place == "config path":
        return [*argv, "--config", missing, "--json", out]
    return [*argv, "--json", missing]


@settings(max_examples=300, deadline=None)
@given(place=st.sampled_from(FIELD_PLACES), field=long_fields | long_numbers,
       with_good_entry=st.booleans())
@example(place="flag value", field="-" + "9" * 4_000, with_good_entry=False)
@example(place="synth flag value", field="9" * 4_000, with_good_entry=False)
@example(place="synth flag value", field="-" + "9" * 4_300, with_good_entry=False)
def test_no_diagnostic_outgrows_a_fixed_size(workdir, place, field, with_good_entry):
    out = workdir / "bounded.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            code = main(field_argv(workdir, place, field, with_good_entry))
        except SystemExit as exc:  # argparse rejects the arguments, or prints the help
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert max(map(len, err.getvalue().splitlines()), default=0) <= MAX_LINE
    if out.exists() and place.startswith("manifest"):
        assert all(len(d["error"]) <= MAX_LINE for d in json.loads(out.read_text())["diagnostics"])

"""Property: any config file, flag text or manifest ends in exit 0, 1 or 2.

``main`` either returns one of the documented codes or argparse exits 2;
no other exception escapes.  A non-zero return writes stderr starting with
``error: ``, and the JSON document exists exactly when the run succeeded.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import given, settings
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

config_files = st.none() | st.binary(max_size=40) | st.lists(
    st.builds("{} = {}".format, st.sampled_from(list(CONFIG_KEYS)), values), max_size=4,
).map(lambda lines: "\n".join(lines).encode("utf-8"))

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
@given(before=st.lists(valid_lines, max_size=5))
def test_config_error_names_the_line_counted_by_newlines(workdir, before):
    text = "\n".join([*before, "bogus", ""])
    (workdir / "cfg").write_bytes(text.encode("utf-8"))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["analyze", str(workdir / "r.tsv"), "--config", str(workdir / "cfg")])
    assert code == 2
    line_no = text[:text.index("bogus")].count("\n") + 1
    assert err.getvalue().startswith(f"error: {workdir / 'cfg'}:{line_no}: ")

import argparse
import codecs
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from papertrail import cli, cohort
from papertrail.cli import CONFIG_KEYS, _parse_bool, _resolve_analysis_config, build_parser, main
from papertrail.indicators import AnalysisConfig
from papertrail.ingest import serialize_report
from papertrail.synth import Archetype, conscientious_spec, generate, papermill_spec

from conftest import TWO_RECORD_TSV


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def report_path(tmp_path):
    path = tmp_path / "r2.tsv"
    path.write_bytes(TWO_RECORD_TSV)
    return path


def write_synth(tmp_path, name, spec):
    path = tmp_path / name
    path.write_bytes(serialize_report(generate(spec)))
    return path


class TestAnalyze:
    def test_json_to_stdout(self, report_path, capsys):
        assert main(["analyze", str(report_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("correlation", "lag_years", "h_index", "i_index", "hcp_count", "flags"):
            assert key in doc["indicators"]
        assert doc["schema_version"] == "1.0"
        assert doc["profile"]["name"] == "r2"  # file stem fallback

    def test_json_round_trips_strict(self, report_path, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["analyze", str(report_path), "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert json.loads(json.dumps(doc)) == doc

    def test_missing_file_exit_1_with_path_in_stderr(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        assert main(["analyze", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("length", [20, 300, 20_000])
    def test_report_path_is_echoed_within_the_bound(self, tmp_path, capsys, length):
        path = str(tmp_path / ("p" * length))
        assert main(["analyze", path]) == 1
        try:
            open(path, "rb")
        except OSError as exc:
            failure = exc
        if len(path) <= cli._PATH_ECHO_LIMIT:
            expected = f"error: cannot read {path}: {failure}\n"
        else:
            shown = f"({len(path)} characters)"
            expected = f"error: cannot read {shown}: [Errno {failure.errno}] {failure.strerror}: {shown}\n"
        assert capsys.readouterr().err == expected

    def test_generated_at_is_the_time_in_utc_to_the_second(self, report_path, capsys):
        before = datetime.now(timezone.utc)
        assert main(["analyze", str(report_path)]) == 0
        after = datetime.now(timezone.utc)
        stamp = json.loads(capsys.readouterr().out)["generated_at"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
        moment = datetime.fromisoformat(stamp)
        assert moment.utcoffset() == timedelta(0)
        assert before - timedelta(seconds=2) <= moment <= after + timedelta(seconds=2)

    def test_unparseable_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("nonsense\n")
        assert main(["analyze", str(bad)]) == 1
        assert "bad.tsv" in capsys.readouterr().err

    def test_svg_output_well_formed(self, report_path, tmp_path, capsys):
        svg = tmp_path / "chart.svg"
        assert main(["analyze", str(report_path), "--json", str(tmp_path / "x.json"),
                     "--svg", str(svg)]) == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_undefined_indicators_emitted_as_null_with_reason(self, tmp_path, capsys):
        single = tmp_path / "one.tsv"
        single.write_bytes(
            b"Title\tPublication Year\tTotal Citations\t2020\npaper\t2020\t1\t1\n"
        )
        assert main(["analyze", str(single)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indicators"]["correlation"] is None
        assert doc["indicators"]["lag_years"] is None
        assert "correlation" in doc["undefined_reasons"]

    def test_csv_format_flag(self, tmp_path, capsys):
        path = tmp_path / "r.data"
        path.write_bytes(b"Title,Publication Year,Total Citations,2020\np,2020,1,1\n")
        assert main(["analyze", str(path), "--format", "csv"]) == 0

    def test_csv_field_over_the_csv_module_limit_exit_1(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_bytes(b'Title,Publication Year,Total Citations\n"' + b"x" * 131_073
                         + b'",2000,0\n')
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: {path}: CSV structure error: "
                                           "field larger than field limit (131072)\n")

    def test_year_column_far_from_the_publication_years_exit_1(self, tmp_path, capsys):
        # the annual series would need one slot per year from 2000 to 3000000
        report = tmp_path / "far.tsv"
        report.write_bytes(b"Title\tPublication Year\tTotal Citations\t3000000\nA\t2000\t1\t1\n")
        assert main(["analyze", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: {report}: year columns 3000000..3000000 outside 1900..2100\n")

    @pytest.mark.parametrize("digits", [201, 401])
    def test_count_cell_above_max_count_exit_1(self, digits, tmp_path, capsys):
        # at 401 digits pearson raised OverflowError; at 201 the correlation
        # silently came out null with a false reason
        report = tmp_path / "huge.tsv"
        huge = "9" * digits
        report.write_text("Title\tPublication Year\tTotal Citations\t2010\t2011\t2012\n"
                          f"a\t2010\t{huge}\t{huge}\t0\t0\nb\t2011\t3\t1\t1\t1\n")
        out = tmp_path / "out.json"
        assert main(["analyze", str(report), "--json", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {report}: row 2: total citations is above 1000000000000 ({digits} digits)\n")
        assert not out.exists()

    def test_reported_h_above_max_count_exit_1(self, tmp_path, capsys):
        # it used to pass, and the 400 digits came back in a warning
        report = tmp_path / "h.tsv"
        report.write_text(f"# h-index\t{'9' * 400}\nTitle\tPublication Year\tTotal Citations\n"
                          "a\t2010\t3\n")
        out = tmp_path / "out.json"
        assert main(["analyze", str(report), "--prefer-reported-h", "--json", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {report}: row 1: h-index is above 1000000000000 (400 digits)\n")
        assert not out.exists()

    def test_unknown_flag_exit_2_and_no_partial_output(self, report_path, tmp_path, capsys):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(report_path), "--json", str(out), "--bogus-flag"])
        assert exc.value.code == 2
        assert not out.exists()


# argv that argparse rejects, echoing the one argument that holds "{}": a bad float, a bad
# choice, an unknown argument and a bad int
ECHOING_ARGV = [
    ["analyze", "x", "--r-min", "{}"],
    ["synth", "--archetype", "{}"],
    ["analyze", "x", "-{}"],
    ["synth", "--archetype", "papermill", "--seed", "{}", "-o", "o"],
]


def argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("template", ECHOING_ARGV, ids=["float", "choice", "unknown", "int"])
@pytest.mark.parametrize("length", [5, 199, 201, 20_000])
def test_argument_error_names_a_long_argument_by_its_length(template, length, capsys,
                                                            monkeypatch):
    argv = [arg.format("z" * length) for arg in template]
    bounded = argparse_error(argv, capsys)
    monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
    stock = argparse_error(argv, capsys)
    (echoed,) = [arg for arg in argv if "z" * length in arg]
    if len(echoed) <= cli._PATH_ECHO_LIMIT:
        assert bounded == stock
    else:  # the usage lines and the "papertrail <command>: error:" prefix stay
        shown = f"({len(echoed)} characters)"
        assert bounded == stock.replace(repr(echoed), shown).replace(echoed, shown)
        assert shown in bounded.splitlines()[-1]
    assert max(map(len, bounded.splitlines())) <= 500


@pytest.mark.parametrize("extras, shown", [
    (["y", "z"], None),
    ([f"{'a' * 199}{k}" for k in (1, 2, 3)], "{0} and 2 more (401 characters)"),
    (["aaaaa"] * 50, " ".join(["aaaaa"] * 33) + " and 17 more (101 characters)"),
    (["a" * 20_000, "aaa"], "(20000 characters) aaa"),
])
def test_unrecognized_arguments_past_the_bound_are_named_by_count_and_length(extras, shown,
                                                                              capsys, monkeypatch):
    bounded = argparse_error(["analyze", "x", *extras], capsys)
    monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
    stock = argparse_error(["analyze", "x", *extras], capsys)
    *usage, line = bounded.splitlines()
    assert usage == stock.splitlines()[:-1]
    prefix = "papertrail: error: unrecognized arguments: "
    assert line == (stock.splitlines()[-1] if shown is None else prefix + shown.format(extras[0]))
    assert len(line) <= len(prefix) + cli._PATH_ECHO_LIMIT + 40


class TestConfig:
    # the fixture profile has r = -0.5, so no flag fires at the default
    # r_min = 0.5; dropping r_min below -0.5 makes HighCorrelation observable

    def test_config_file_changes_thresholds(self, report_path, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("# thresholds\nr_min = -0.9\n")
        assert main(["analyze", str(report_path), "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "HighCorrelation" in {f["kind"] for f in doc["indicators"]["flags"]}

    def test_default_thresholds_without_config(self, report_path, capsys):
        assert main(["analyze", str(report_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indicators"]["flags"] == []

    def test_flags_override_config_file(self, report_path, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("r_min = -0.9\n")
        assert main(["analyze", str(report_path), "--config", str(cfg), "--r-min", "0.99"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "HighCorrelation" not in {f["kind"] for f in doc["indicators"]["flags"]}

    def test_env_var_fallback(self, report_path, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("r_min = -0.9\n")
        monkeypatch.setenv("PAPERTRAIL_CONFIG", str(cfg))
        assert main(["analyze", str(report_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "HighCorrelation" in {f["kind"] for f in doc["indicators"]["flags"]}

    def test_unknown_config_key_is_usage_error(self, report_path, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["analyze", str(report_path), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line,shown", [
        ("nonsense = 1", "got 'nonsense = 1'"),
        ("x" * 40, f"got '{'x' * 40}'"),
        ("x" * 41, "got (41 characters)"),
        ("\x01" * 10, "got " + repr("\x01" * 10)),
        ("\x01" * 11, "got (11 characters)"),
        ("x" * 5000, "got (5000 characters)"),
        ("r_min = " + "x" * 5000, "bad value for r_min: (5000 characters)"),
        ("r_min = nine", "bad value for r_min: 'nine'"),
    ], ids=["key", "40", "41", "escaped-10", "escaped-11", "5000", "value-5000", "value"])
    def test_config_line_is_echoed_within_the_bound(self, report_path, tmp_path, capsys,
                                                      line, shown):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        assert main(["analyze", str(report_path), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:1: ") and err.endswith(f"{shown}\n")
        assert all(len(text) < 300 for text in err.splitlines())

    def test_growth_window_flag(self, tmp_path, capsys):
        # the last 3 years grow monotonically, the last 5 do not
        path = tmp_path / "g.tsv"
        rows = ["Title\tPublication Year\tTotal Citations"]
        for i, n in enumerate([1, 1, 2, 3, 1, 2, 3]):
            rows.extend(f"p{i}-{k}\t{2000 + i}\t0" for k in range(n))
        path.write_text("\n".join(rows) + "\n")
        assert main(["analyze", str(path), "--growth-window", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "MonotoneGrowth" in {f["kind"] for f in doc["indicators"]["flags"]}
        assert main(["analyze", str(path), "--growth-window", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "MonotoneGrowth" not in {f["kind"] for f in doc["indicators"]["flags"]}

    def test_prefer_reported_h(self, tmp_path, capsys):
        path = tmp_path / "rep.tsv"
        path.write_bytes(
            b"# h-index\t1\nTitle\tPublication Year\tTotal Citations\t2020\t2021\n"
            b"a\t2020\t5\t5\t0\nb\t2021\t4\t0\t4\n"
        )
        assert main(["analyze", str(path), "--prefer-reported-h"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indicators"]["h_index"] == 1
        assert any("reported h-index" in w for w in doc["warnings"])


CONFIG_FIELDS = dataclasses.fields(AnalysisConfig)

# (config-file value, flag argv tail, value the flag sets), by field type
OVERRIDES = {
    float: ("0.2", ["0.4"], 0.4),
    int: ("2", ["3"], 3),
    bool: ("false", [], True),
}

BAD_VALUES = [
    ("r_min", "nan"), ("r_min", "inf"), ("r_min", "1.0"), ("i_max", "1.5"),
    ("max_lag", "-1"), ("growth_window", "-2"), ("pubs_per_year_limit", "0"),
]


def subcommand_parser(name):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[name]


def flag_of(command, key):
    """The single option string that sets ``key`` on a subcommand.

    A boolean key also has exactly its ``--no-`` negation, and nothing else.
    """
    actions = [a for a in subcommand_parser(command)._actions if a.dest == key]
    assert len(actions) == 1
    flag, *rest = actions[0].option_strings
    assert rest == ([f"--no-{flag[2:]}"] if CONFIG_KEYS[key] is _parse_bool else [])
    return flag


@pytest.mark.parametrize("command", ["analyze", "cohort"])
@pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
class TestConfigDrift:
    def test_field_is_a_config_key_with_one_flag(self, command, field):
        assert field.name in CONFIG_KEYS
        assert flag_of(command, field.name).startswith("--")

    def test_flag_beats_config_file(self, command, field, tmp_path):
        file_value, flag_tail, flag_value = OVERRIDES[type(field.default)]
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{field.name} = {file_value}\n")
        from_file = _resolve_analysis_config(build_parser().parse_args(
            [command, "input", "--config", str(cfg)]))
        assert getattr(from_file, field.name) == CONFIG_KEYS[field.name](file_value)
        args = build_parser().parse_args(
            [command, "input", "--config", str(cfg), flag_of(command, field.name), *flag_tail])
        assert getattr(_resolve_analysis_config(args), field.name) == flag_value


@pytest.mark.parametrize("command", ["analyze", "cohort"])
def test_no_prefer_reported_h_beats_a_true_config_file(command, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("prefer_reported_h = true\n")
    argv = [command, "input", "--config", str(cfg)]
    assert _resolve_analysis_config(build_parser().parse_args(argv)).prefer_reported_h
    args = build_parser().parse_args([*argv, "--no-prefer-reported-h"])
    assert _resolve_analysis_config(args).prefer_reported_h is False


def test_config_keys_are_exactly_the_fields():
    assert list(CONFIG_KEYS) == [f.name for f in CONFIG_FIELDS]


class TestThresholdValidation:
    @pytest.fixture
    def inputs(self, report_path, tmp_path):
        manifest = tmp_path / "cohort.tsv"
        manifest.write_text(f"R\t{report_path.name}\n")
        return {"analyze": report_path, "cohort": manifest}

    @pytest.mark.parametrize("command", ["analyze", "cohort"])
    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_bad_flag_value_exit_2(self, command, key, value, inputs, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = [command, str(inputs[command]), "--json", str(out),
                f"{flag_of(command, key)}={value}"]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "cohort"])
    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_bad_config_file_value_exit_2(self, command, key, value, inputs, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out.json"
        assert main([command, str(inputs[command]), "--json", str(out),
                     "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "cohort"])
    @pytest.mark.parametrize("value", ["maybe", "2", "", "truthy", "nein"])
    def test_unknown_boolean_in_config_file_exit_2(self, command, value, inputs, tmp_path,
                                                   capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"# thresholds\nprefer_reported_h = {value}\n")
        out = tmp_path / "out.json"
        assert main([command, str(inputs[command]), "--json", str(out),
                     "--config", str(cfg)]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "cohort"])
    def test_config_file_may_start_with_a_bom(self, command, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(codecs.BOM_UTF8 + b"r_min = 0.4\n")
        args = build_parser().parse_args([command, "input", "--config", str(cfg)])
        assert _resolve_analysis_config(args).r_min == 0.4

    def test_config_file_with_a_bom_not_utf8_names_the_line(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(codecs.BOM_UTF8 + b"a = 1\n\xff\n")
        with pytest.raises(ValueError) as exc_info:
            cli.load_config_file(str(cfg))
        assert str(exc_info.value).startswith(f"{cfg}:2: not valid UTF-8")

    @pytest.mark.parametrize("command", ["analyze", "cohort"])
    def test_config_file_not_utf8_exit_2_naming_line(self, command, inputs, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"# thresholds\nr_min = 0.4\ni_max = 0.\xff\n")
        out = tmp_path / "out.json"
        assert main([command, str(inputs[command]), "--json", str(out),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: not valid UTF-8: invalid start byte\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "cohort"])
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("NO", False), ("Off", False),
    ])
    def test_boolean_spellings_in_config_file(self, command, value, expected, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"prefer_reported_h = {value}\n")
        args = build_parser().parse_args([command, "input", "--config", str(cfg)])
        assert _resolve_analysis_config(args).prefer_reported_h is expected

    @pytest.mark.parametrize("command", ["analyze", "cohort"])
    def test_range_edges_accepted(self, command, inputs, tmp_path, capsys):
        assert main([command, str(inputs[command]), "--json", str(tmp_path / "o.json"),
                     "--r-min=-0.99", "--i-max", "0.01", "--max-lag", "0",
                     "--growth-window", "0", "--pubs-limit", "1"]) == 0


class TestCohort:
    def make_manifest(self, tmp_path, entries):
        manifest = tmp_path / "cohort.tsv"
        manifest.write_text("".join(f"{label}\t{path}\n" for label, path in entries))
        return manifest

    def test_five_profiles(self, tmp_path, capsys):
        entries = []
        for k in range(5):
            spec = papermill_spec(k) if k % 2 else conscientious_spec(k)
            path = write_synth(tmp_path, f"r{k}.tsv", spec)
            entries.append((f"R{k}", path.name))  # relative to the manifest dir
        manifest = self.make_manifest(tmp_path, entries)
        assert main(["cohort", str(manifest)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["points"]) == 5
        assert doc["power_law_fit"] is not None
        assert doc["linear_fit"] is not None
        assert doc["summary"]["n_points"] == 5
        assert doc["aggregation"] == "mean"
        assert [p["label"] for p in doc["points"]] == [f"R{k}" for k in range(5)]

    def test_bad_entry_reported_processing_continues(self, tmp_path, capsys):
        entries = []
        for k in range(4):
            path = write_synth(tmp_path, f"r{k}.tsv", papermill_spec(k))
            entries.append((f"R{k}", path.name))
        bad = tmp_path / "broken.tsv"
        bad.write_text("not a report\n")
        entries.insert(2, ("BAD", bad.name))
        manifest = self.make_manifest(tmp_path, entries)
        assert main(["cohort", str(manifest)]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["points"]) == 4
        assert len(doc["diagnostics"]) == 1
        assert doc["diagnostics"][0]["label"] == "BAD"
        assert "BAD" in captured.err

    def test_zero_parseable_profiles_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.tsv"
        bad.write_text("junk\n")
        manifest = self.make_manifest(tmp_path, [("only", bad.name)])
        assert main(["cohort", str(manifest)]) == 1

    def test_svg_dir_produces_four_charts(self, tmp_path, capsys):
        entries = []
        for k in range(3):
            path = write_synth(tmp_path, f"r{k}.tsv", papermill_spec(k))
            entries.append((f"R{k}", path.name))
        manifest = self.make_manifest(tmp_path, entries)
        svg_dir = tmp_path / "figs"
        assert main(["cohort", str(manifest), "--json", str(tmp_path / "c.json"),
                     "--svg-dir", str(svg_dir)]) == 0
        names = sorted(p.name for p in svg_dir.iterdir())
        assert names == sorted([
            "i_vs_r.svg", "i_vs_r_bubble.svg", "i_vs_p_powerfit.svg", "m_vs_p_linfit.svg",
        ])
        for p in svg_dir.iterdir():
            ET.parse(p)

    def test_charts_are_written_in_their_order_then_the_json(self, tmp_path, capsys, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "_write", lambda *outputs, directory: written.extend(
            str(path).rpartition("/")[2] for path, _ in outputs))
        assert main(["cohort", str(self.five_profiles(tmp_path)), "--json", str(tmp_path / "c.json"),
                     "--svg-dir", str(tmp_path / "figs")]) == 0
        assert written == ["i_vs_r.svg", "i_vs_r_bubble.svg", "i_vs_p_powerfit.svg",
                           "m_vs_p_linfit.svg", "c.json"]

    def test_nul_byte_in_entry_path_is_skipped(self, tmp_path, capsys):
        good = write_synth(tmp_path, "r0.tsv", papermill_spec(0))
        manifest = self.make_manifest(tmp_path, [("R0", good.name), ("BAD", "p\x00m.tsv")])
        assert main(["cohort", str(manifest)]) == 0
        captured = capsys.readouterr()
        assert [p["label"] for p in json.loads(captured.out)["points"]] == ["R0"]
        assert captured.err == "warning: skipped BAD: embedded null byte\n"

    @pytest.mark.parametrize("length", [20, 300, 20_000])
    def test_entry_path_is_repeated_in_the_error_within_the_bound(self, tmp_path, capsys,
                                                                  length):
        good = write_synth(tmp_path, "r0.tsv", papermill_spec(0))
        manifest = self.make_manifest(tmp_path, [("R0", good.name), ("GONE", "p" * length)])
        out = tmp_path / "c.json"
        assert main(["cohort", str(manifest), "--json", str(out)]) == 0
        err = capsys.readouterr().err
        assert all(len(line) < 300 for line in err.splitlines())
        (diagnostic,) = json.loads(out.read_text())["diagnostics"]
        path = str(tmp_path / ("p" * length))
        assert diagnostic["path"] == path
        try:
            open(path, "rb")
        except OSError as exc:
            failure = exc
        if len(path) <= cli._PATH_ECHO_LIMIT:
            assert diagnostic["error"] == str(failure)
        else:
            assert diagnostic["error"] == (
                f"[Errno {failure.errno}] {failure.strerror}: ({len(path)} characters)")
        assert err == f"warning: skipped GONE: {diagnostic['error']}\n"

    @pytest.mark.parametrize("length", [20, 300, 20_000])
    def test_entry_label_is_echoed_within_the_bound(self, tmp_path, capsys, length):
        good = write_synth(tmp_path, "r0.tsv", papermill_spec(0))
        label = "L" * length
        shown = label if length <= cli._PATH_ECHO_LIMIT else f"({length} characters)"
        manifest = self.make_manifest(tmp_path, [("R0", good.name), (label, "missing.tsv")])
        out = tmp_path / "c.json"
        assert main(["cohort", str(manifest), "--json", str(out)]) == 0
        (diagnostic,) = json.loads(out.read_text())["diagnostics"]
        assert diagnostic["label"] == label
        assert capsys.readouterr().err == f"warning: skipped {shown}: {diagnostic['error']}\n"

        manifest = self.make_manifest(tmp_path, [(label, "missing.tsv")])
        assert main(["cohort", str(manifest)]) == 1
        assert capsys.readouterr().err == (f"error: no profile in the manifest could be processed\n"
                                           f"  {shown}: {diagnostic['error']}\n")

    def test_manifest_path_is_echoed_within_the_bound(self, tmp_path, capsys):
        path = str(tmp_path / ("m" * 20_000))
        assert main(["cohort", path]) == 1
        try:
            open(path, "rb")
        except OSError as exc:
            failure = exc
        shown = f"({len(path)} characters)"
        assert capsys.readouterr().err == (
            f"error: cannot read {shown}: [Errno {failure.errno}] {failure.strerror}: {shown}\n")

    def test_count_cell_above_max_count_is_skipped(self, tmp_path, capsys):
        good = write_synth(tmp_path, "r0.tsv", papermill_spec(0))
        huge = tmp_path / "huge.tsv"
        huge.write_text("Title\tPublication Year\tTotal Citations\t2010\n"
                        f"a\t2010\t1\t{'9' * 401}\n")
        manifest = self.make_manifest(tmp_path, [("R0", good.name), ("BIG", huge.name)])
        out = tmp_path / "c.json"
        assert main(["cohort", str(manifest), "--json", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: skipped BIG: row 2: citation count for 2010 is above 1000000000000 (401 digits)\n")
        doc = json.loads(out.read_text())
        assert [p["label"] for p in doc["points"]] == ["R0"]
        assert [d["label"] for d in doc["diagnostics"]] == ["BIG"]

    def test_nul_byte_in_the_only_entry_path_exit_1(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path, [("BAD", "p\x00m.tsv")])
        assert main(["cohort", str(manifest)]) == 1
        assert capsys.readouterr().err == (
            "error: no profile in the manifest could be processed\n  BAD: embedded null byte\n")

    def test_missing_manifest_exit_1(self, tmp_path, capsys):
        assert main(["cohort", str(tmp_path / "none.tsv")]) == 1

    def test_manifest_may_start_with_a_bom(self, tmp_path, capsys):
        write_synth(tmp_path, "r.tsv", papermill_spec(0))
        manifest = tmp_path / "cohort.tsv"
        manifest.write_bytes(codecs.BOM_UTF8 + b"PM\tr.tsv\n")
        assert main(["cohort", str(manifest)]) == 0
        assert [p["label"] for p in json.loads(capsys.readouterr().out)["points"]] == ["PM"]
        manifest.write_bytes(codecs.BOM_UTF8 + b"# the cohort\nPM\tr.tsv\n")
        assert main(["cohort", str(manifest)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["diagnostics"] == []
        assert captured.err == ""

    def five_profiles(self, tmp_path, *extra):
        entries = []
        for k in range(5):
            spec = papermill_spec(k) if k % 2 else conscientious_spec(k)
            entries.append((f"R{k}", write_synth(tmp_path, f"r{k}.tsv", spec).name))
        return self.make_manifest(tmp_path, [*entries, *extra])

    def test_svg_dir_run_computes_each_result_once(self, tmp_path, capsys, call_counter):
        calls, count = call_counter
        count(cohort, "fit_power_law")
        count(cohort, "fit_linear")
        count(cohort, "classify_region")
        manifest = self.five_profiles(tmp_path)
        assert main(["cohort", str(manifest), "--json", str(tmp_path / "c.json"),
                     "--svg-dir", str(tmp_path / "figs")]) == 0
        assert len(list((tmp_path / "figs").iterdir())) == 4
        assert calls == {"fit_power_law": 1, "fit_linear": 1, "classify_region": 5}

    def test_power_law_exclusion_is_warned_on_every_run(self, tmp_path, capsys):
        (tmp_path / "zero.tsv").write_bytes(
            b"Title\tPublication Year\tTotal Citations\t2020\t2021\n"
            b"a\t2020\t0\t0\t0\nb\t2021\t0\t0\t0\n")
        manifest = self.five_profiles(tmp_path, ("Z", "zero.tsv"))
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["cohort", str(manifest)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ("warning: excluded 1 point(s) with non-positive "
                                    "coordinates from the power-law fit\n")
            doc = json.loads(captured.out)
            assert doc["summary"]["n_points"] == 6
            assert doc["power_law_fit"]["n_points"] == doc["summary"]["n_points"] - 1


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["synth", "--archetype", "papermill", "--seed", "7", "-o", str(a)]) == 0
        assert main(["synth", "--archetype", "papermill", "--seed", "7", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_then_analyze_conscientious(self, tmp_path, capsys):
        out = tmp_path / "c.tsv"
        assert main(["synth", "--archetype", "conscientious", "--seed", "1", "-o", str(out)]) == 0
        assert main(["analyze", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "LowIntegrity" not in {f["kind"] for f in doc["indicators"]["flags"]}

    @pytest.mark.parametrize("name,fmt", [("pm.csv", "csv"), ("PM.CSV", "csv"), ("pm.tsv", "tsv"),
                                          ("pm.txt", "tsv"), ("pm", "tsv")])
    def test_synth_then_analyze_picks_the_format_by_extension(self, name, fmt, tmp_path, capsys):
        # without --format, synth writes by the rule that analyze and cohort read by, so that
        # analyze reads back what synth wrote
        out, explicit = tmp_path / name, tmp_path / f"explicit.{fmt}"
        assert main(["synth", "--archetype", "papermill", "-o", str(out)]) == 0
        assert main(["synth", "--archetype", "papermill", "--format", fmt, "-o", str(explicit)]) == 0
        assert out.read_bytes() == explicit.read_bytes()
        assert main(["analyze", str(out)]) == 0
        indicators = json.loads(capsys.readouterr().out)["indicators"]
        assert indicators["total_publications"] == len(generate(papermill_spec(0)).records)
        assert {"HighCorrelation", "ZeroLag"} <= {f["kind"] for f in indicators["flags"]}

    def test_format_flag_overrides_the_extension(self, tmp_path):
        out = tmp_path / "pm.csv"
        assert main(["synth", "--archetype", "papermill", "--format", "tsv", "-o", str(out)]) == 0
        assert out.read_bytes().startswith(b"# researcher\tsynth-papermill-0\n")

    def test_archetype_choices_are_the_archetypes(self):
        # the parser spells the choices itself, so that it does not import synth
        assert cli.ARCHETYPES == tuple(a.value for a in Archetype)
        (action,) = [a for a in subcommand_parser("synth")._actions if a.dest == "archetype"]
        assert action.choices == cli.ARCHETYPES

    def test_missing_output_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--archetype", "papermill"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("archetype,flag", [
        ("conscientious", "--onset-offset"),
        ("papermill", "--kernel-peak-lag"),
    ])
    def test_flag_of_the_other_archetype_exit_2(self, archetype, flag, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        assert main(["synth", "--archetype", archetype, flag, "3", "-o", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("archetype,flag", [
        ("papermill", "--onset-offset"),
        ("conscientious", "--kernel-peak-lag"),
    ])
    def test_flag_of_the_own_archetype_applies(self, archetype, flag, tmp_path):
        plain, tuned = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["synth", "--archetype", archetype, "-o", str(plain)]) == 0
        assert main(["synth", "--archetype", archetype, flag, "3", "-o", str(tuned)]) == 0
        assert plain.read_bytes() != tuned.read_bytes()

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        assert main(["synth", "--archetype", "papermill", "--n-years", "4",
                     "-o", str(tmp_path / "x.tsv")]) == 2

    @pytest.mark.parametrize("archetype,flag,value", [
        ("papermill", "--cites-per-paper", "inf"),
        ("papermill", "--cites-per-paper", "1e7"),
        ("papermill", "--peak-rate", "nan"),
        ("papermill", "--peak-rate", "1001"),
        ("papermill", "--base-rate", "1e-300"),
        ("conscientious", "--base-rate", "-inf"),
        ("conscientious", "--peak-rate", "inf"),
        ("conscientious", "--kernel-peak-lag", "21"),
        ("conscientious", "--start-year", "2070"),  # citations would run to 2112
    ])
    def test_unbounded_or_non_finite_parameter_exit_2(self, archetype, flag, value,
                                                       tmp_path, capsys):
        out = tmp_path / "x.tsv"
        assert main(["synth", "--archetype", archetype, f"{flag}={value}",
                     "-o", str(out)]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_custom_parameters(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["synth", "--archetype", "papermill", "--seed", "3",
                     "--n-years", "10", "--peak-rate", "20", "--format", "csv",
                     "-o", str(out)]) == 0
        assert main(["analyze", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indicators"]["max_pubs_in_year"] <= 24


class TestWriteFailures:
    """An output that cannot be written exits 1 naming it, like an input that cannot be read."""

    @pytest.fixture
    def inputs(self, tmp_path):
        report = write_synth(tmp_path, "r0.tsv", papermill_spec(0))
        write_synth(tmp_path, "r1.tsv", papermill_spec(1))
        write_synth(tmp_path, "r2.tsv", conscientious_spec(2))
        manifest = tmp_path / "cohort.tsv"
        manifest.write_text("".join(f"R{k}\tr{k}.tsv\n" for k in range(3)))
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "figs" / "i_vs_r.svg").mkdir(parents=True)
        return {"report": str(report), "manifest": str(manifest)}

    @pytest.mark.parametrize("argv,target", [
        (["analyze", "{report}", "--json", "{tmp}/missing/o.json"], "{tmp}/missing/o.json"),
        (["analyze", "{report}", "--json", "{tmp}/o.json", "--svg", "{tmp}/a_dir"],
         "{tmp}/a_dir"),
        (["cohort", "{manifest}", "--json", "{tmp}/missing/o.json"], "{tmp}/missing/o.json"),
        (["cohort", "{manifest}", "--json", "{tmp}/o.json", "--svg-dir", "{tmp}/a_file/figs"],
         "{tmp}/a_file/figs"),
        (["cohort", "{manifest}", "--json", "{tmp}/o.json", "--svg-dir", "{tmp}/figs"],
         "{tmp}/figs/i_vs_r.svg"),
        (["synth", "--archetype", "papermill", "-o", "{tmp}/missing/x.tsv"],
         "{tmp}/missing/x.tsv"),
        (["synth", "--archetype", "papermill", "-o", ""], ""),
    ], ids=["analyze-json", "analyze-svg", "cohort-json", "cohort-svg-dir", "cohort-svg",
            "synth", "synth-empty-path"])
    def test_unwritable_output_exit_1(self, argv, target, inputs, tmp_path, capsys):
        fill = dict(inputs, tmp=str(tmp_path))
        assert main([arg.format(**fill) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target.format(**fill)}: ")
        assert "Traceback" not in err
        # the JSON document is written last, so a failed chart leaves none behind
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("argv,named", [
        (["analyze", "{report}", "--svg", "out", "--json", "out"], "out"),
        (["analyze", "{report}", "--svg", "./out", "--json", "out"], "out"),
        (["analyze", "{report}", "--svg", "x" * 300, "--json", "x" * 300], "(300 characters)"),
        (["cohort", "{manifest}", "--svg-dir", "charts", "--json", "charts/i_vs_r.svg"],
         "charts/i_vs_r.svg"),
    ], ids=["analyze-same", "analyze-dot-slash", "analyze-long", "cohort-json-on-a-chart"])
    def test_two_outputs_on_one_path_exit_2(self, argv, named, inputs, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        assert main([arg.format(**inputs) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: two outputs would be written to {named}\n"
        # nothing is written or made: no chart, no JSON document in a chart's place, no --svg-dir
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "charts").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flags", [[], ["--n-years", "8"]], ids=["in-the-rows", "at-the-end"])
    def test_synth_into_a_full_device_fails_once(self, flags, capsys):
        # the default report fails while its rows are written, the 8-year one only when the
        # writer flushes; either way one error line, and no second flush of a collected text
        # wrapper, which the fresh interpreter in development mode would report
        argv = ["synth", "--archetype", "papermill", *flags, "-o", "/dev/full"]
        expected = "error: cannot write /dev/full: [Errno 28] No space left on device\n"
        assert main(argv) == 1
        assert capsys.readouterr().err == expected
        result = subprocess.run([sys.executable, "-X", "dev", "-m", "papertrail.cli", *argv],
                                env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                                text=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (1, "", expected)

    def test_refused_synth_spec_leaves_the_output_as_it_was(self, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        out.write_bytes(b"an earlier report\n")
        assert main(["synth", "--archetype", "papermill", "--base-rate", "0.01", "--peak-rate",
                     "0.01", "--n-years", "8", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: rates too low: zero publications generated\n"
        assert out.read_bytes() == b"an earlier report\n"

    def test_manifest_not_utf8_exit_1(self, tmp_path, capsys):
        manifest = tmp_path / "cohort.tsv"
        manifest.write_bytes(b"R0\tr\xff0.tsv\n")
        assert main(["cohort", str(manifest)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {manifest}: ")

    @pytest.mark.parametrize("data,line_no", [
        (b"R0\tr\xff0.tsv\n", 1),
        (codecs.BOM_UTF8 + b"R0\tr\xff0.tsv\n", 1),
        (b"R0\tr0.tsv\nR1\tr\xff1.tsv\n", 2),
    ], ids=["line-1", "bom-line-1", "line-2"])
    def test_manifest_not_utf8_names_the_line(self, data, line_no, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.tsv").write_bytes(data)
        assert main(["cohort", "m.tsv"]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read m.tsv: m.tsv:{line_no}: not valid UTF-8: invalid start byte\n")

    def test_manifest_path_with_a_nul_byte_exit_1(self, capsys):
        assert main(["cohort", "m\x00.tsv"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read m\x00.tsv: ")


@pytest.mark.parametrize("seed,code", [("-1", 2), ("0", 0), (str(2 ** 64 - 1), 0),
                                       (str(2 ** 64), 2)])
def test_synth_seed_range(seed, code, tmp_path, capsys):
    out = tmp_path / "x.tsv"
    assert main(["synth", "--archetype", "papermill", f"--seed={seed}", "-o", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "seed" in capsys.readouterr().err

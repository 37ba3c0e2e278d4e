"""A run that fails leaves no partial output, and one that succeeds writes its files as before.

Every output file of ``analyze``, ``cohort`` and ``synth`` is written into a
temporary file beside its target, and the temporary files replace their
targets only once all are written.  The fault injection fails the write of
each output of a run in turn, through a stream that refuses its bytes as a
full disk does, and through a file size limit in a fresh interpreter.
"""

import errno
import io
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from papertrail import cli
from papertrail.cli import main
from papertrail.ingest import serialize_report
from papertrail.synth import conscientious_spec, generate, papermill_spec

SRC = Path(__file__).resolve().parent.parent / "src"
CHARTS = [f"{axes.value}.svg" for axes in cli.ScatterAxes]


@pytest.fixture
def inputs(tmp_path):
    """A report and a manifest of three reports, in a directory of their own."""
    data = tmp_path / "data"
    data.mkdir()
    for k, spec in enumerate((papermill_spec(0), papermill_spec(1), conscientious_spec(2))):
        (data / f"r{k}.tsv").write_bytes(serialize_report(generate(spec)))
    (data / "cohort.tsv").write_text("".join(f"R{k}\tr{k}.tsv\n" for k in range(3)))
    out = tmp_path / "out"
    out.mkdir()
    return {"report": str(data / "r0.tsv"), "manifest": str(data / "cohort.tsv"), "out": out}


def commands(inputs):
    """Each command with file outputs, and those outputs in the order the command writes them."""
    out = inputs["out"]
    return {
        "analyze": (["analyze", inputs["report"], "--svg", str(out / "a.svg"),
                     "--json", str(out / "a.json")], [out / "a.svg", out / "a.json"]),
        "cohort": (["cohort", inputs["manifest"], "--svg-dir", str(out / "figs"),
                    "--json", str(out / "c.json")],
                   [*(out / "figs" / name for name in CHARTS), out / "c.json"]),
        "synth": (["synth", "--archetype", "papermill", "-o", str(out / "s.tsv")],
                  [out / "s.tsv"]),
    }


def snapshot(directory: Path) -> dict[str, bytes | None]:
    """Every file and directory under ``directory``, with a file's bytes."""
    return {str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
            for p in sorted(directory.rglob("*"))}


class FullDisk(io.FileIO):
    """A file that refuses every write, as a full disk does."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def fail_output(monkeypatch):
    """Make the ``n``-th output file that a run opens refuse its bytes."""

    def arm(n: int) -> list:
        opened = []
        open_output = cli._open_output

        def failing(path, *args):
            stream, move = open_output(path, *args)
            opened.append(path)
            if len(opened) == n:
                raw = stream.detach()
                stream = io.BufferedWriter(FullDisk(os.dup(raw.fileno()), "w"))
                raw.close()
            return stream, move

        monkeypatch.setattr(cli, "_open_output", failing)
        return opened

    return arm


@pytest.mark.parametrize("before", ["absent", "earlier"])
@pytest.mark.parametrize("command", ["analyze", "cohort", "synth"])
def test_a_failed_write_leaves_every_output_as_it_was(command, before, inputs, fail_output,
                                                      capsys):
    argv, targets = commands(inputs)[command]
    if before == "earlier":  # outputs of an earlier run, at every path
        for target in targets:
            target.parent.mkdir(exist_ok=True)
            target.write_bytes(b"an earlier output of " + target.name.encode())
    was = snapshot(inputs["out"])
    for n, target in enumerate(targets, 1):
        opened = fail_output(n)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {target}: [Errno 28] No space left on device\n"
        assert len(opened) == n  # the outputs after the failed one are never opened
        assert snapshot(inputs["out"]) == was  # no new bytes, no temporary file, no new directory


@pytest.mark.parametrize("command", ["analyze", "cohort", "synth"])
def test_a_run_that_succeeds_replaces_every_output(command, inputs, capsys):
    argv, targets = commands(inputs)[command]
    for target in targets:
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(b"an earlier output")
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert {p for p in inputs["out"].rglob("*") if p.is_file()} == set(targets)  # no temporary file
    assert all(t.read_bytes() != b"an earlier output" for t in targets)


@pytest.mark.parametrize("command", ["analyze", "cohort"])
def test_each_output_path_is_resolved_once(command, inputs, monkeypatch, capsys):
    # one target decides the two-outputs check, whether a path is written in place, and where
    # its temporary file goes
    argv, targets = commands(inputs)[command]
    resolved = []
    realpath = os.path.realpath

    def counting(path, *args, **kwargs):
        resolved.append(os.fspath(path))
        return realpath(path, *args, **kwargs)

    monkeypatch.setattr(os.path, "realpath", counting)
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert sorted(resolved) == sorted(map(str, targets))


def limited_run(argv, limit: int, cwd: Path) -> subprocess.CompletedProcess:
    """``papertrail argv`` in a fresh interpreter whose files may not grow past ``limit`` bytes;
    Python ignores SIGXFSZ, so a write past it fails with EFBIG."""
    resource = pytest.importorskip("resource")

    def limit_files():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    return subprocess.run([sys.executable, "-m", "papertrail.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit_files)


@pytest.mark.parametrize("command", ["analyze", "synth"])
def test_a_file_size_limit_leaves_no_part_of_an_output(command, inputs):
    argv, targets = commands(inputs)[command]
    full = limited_run(argv, 1 << 30, inputs["out"])
    assert full.returncode == 0, full.stderr
    sizes = sorted(t.stat().st_size for t in targets)
    for target in targets:
        target.write_bytes(b"an earlier output")
    was = snapshot(inputs["out"])
    result = limited_run(argv, sizes[0] // 2, inputs["out"])
    assert result.returncode == 1
    assert result.stderr.endswith(": [Errno 27] File too large\n")
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: cannot write ")
    assert snapshot(inputs["out"]) == was


# each command that can write one output file: its argv for that file, and a part of what it writes
ONE_OUTPUT = {
    "analyze": (lambda inputs, path: ["analyze", inputs["report"], "--json", str(path)],
                b'"schema_version"'),
    "synth": (lambda inputs, path: ["synth", "--archetype", "papermill", "-o", str(path)],
              b"# researcher\tsynth-papermill-0\n"),
}


def test_a_link_stays_a_link(inputs, tmp_path):
    for command, (argv, written) in ONE_OUTPUT.items():
        elsewhere, out = tmp_path / "elsewhere" / command, inputs["out"] / command
        elsewhere.mkdir(parents=True)
        out.mkdir()
        existing, new = elsewhere / "existing.json", elsewhere / "new.json"
        existing.write_text("{}")
        for name, target in (("old.json", existing), ("new.json", new)):
            link = out / name
            link.symlink_to(target)
            assert main(argv(inputs, link)) == 0
            assert link.is_symlink() and os.readlink(link) == str(target)
            assert written in target.read_bytes()
        assert sorted(os.listdir(elsewhere)) == ["existing.json", "new.json"]


def test_permission_bits_are_kept_or_those_of_a_new_file(inputs):
    for command, (argv, _) in ONE_OUTPUT.items():
        out = inputs["out"] / command
        out.mkdir()
        kept = out / "kept.json"
        kept.write_text("{}")
        kept.chmod(0o600)
        mask = os.umask(0o027)
        try:
            for path in (kept, out / "new.json"):
                assert main(argv(inputs, path)) == 0
        finally:
            os.umask(mask)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o600
        assert stat.S_IMODE((out / "new.json").stat().st_mode) == 0o666 & ~0o027


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_is_written_in_place(inputs):
    fifo = inputs["out"] / "report.tsv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        assert main(["synth", "--archetype", "papermill", "-o", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert received == [serialize_report(generate(papermill_spec(0)))]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(inputs["out"])) == ["report.tsv"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dev_stdout_is_written_in_place(tmp_path):
    # also through a link of one's own, which leads through /proc to a pipe
    link = tmp_path / "out.tsv"
    link.symlink_to("/dev/stdout")
    for path in ("/dev/stdout", str(link)):
        result = subprocess.run([sys.executable, "-m", "papertrail.cli", "synth", "--archetype",
                                 "papermill", "-o", path], env={**os.environ, "PYTHONPATH": str(SRC)},
                                capture_output=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == serialize_report(generate(papermill_spec(0)))
    assert os.listdir(tmp_path) == ["out.tsv"]


def test_a_file_in_a_directory_that_refuses_new_files_is_written_in_place(inputs, monkeypatch,
                                                                           capsys):
    out, report = inputs["out"], inputs["report"]
    (out / "a.json").write_text("{}")
    open_file = os.open

    def refuse_new_files(path, flags, *args, **kwargs):
        if flags & os.O_CREAT and os.path.dirname(path) == str(out):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return open_file(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_new_files)
    assert main(["analyze", report, "--json", str(out / "a.json")]) == 0
    assert b'"schema_version"' in (out / "a.json").read_bytes()
    # a new file there cannot be made at all: the message names the output
    capsys.readouterr()
    new = out / "b.json"
    assert main(["analyze", report, "--json", str(new)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {new}: [Errno 13] Permission denied: '{new}'\n"
    assert sorted(os.listdir(out)) == ["a.json"]


def test_a_failed_run_keeps_a_file_written_in_place(inputs, monkeypatch, capsys):
    # a file written in place is opened before any output is committed, so opening it must not
    # truncate it: the run below fails on its second output, after the chart is opened
    out, report = inputs["out"], inputs["report"]
    chart = out / "old.svg"
    chart.write_bytes(b"an earlier chart")
    open_file = os.open

    def refuse_temporary_files(path, flags, *args, **kwargs):
        name = os.path.basename(path)
        if os.path.dirname(path) == str(out) and name.startswith(".papertrail-") and name.endswith(".tmp"):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return open_file(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_temporary_files)
    missing = inputs["out"].parent / "no" / "such" / "dir" / "out.json"
    assert main(["analyze", report, "--svg", str(chart), "--json", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: [Errno 2] ")
    assert chart.read_bytes() == b"an earlier chart"
    # a run that succeeds writes the whole chart in place, as it writes a new one
    assert main(["analyze", report, "--svg", str(chart)]) == 0
    monkeypatch.setattr(os, "open", open_file)
    assert main(["analyze", report, "--svg", str(out / "new.svg")]) == 0
    assert chart.read_bytes() == (out / "new.svg").read_bytes()
    assert sorted(os.listdir(out)) == ["new.svg", "old.svg"]


class FullStdout(io.StringIO):
    """A standard output that refuses its text, as one redirected to a full disk does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [lambda inputs: ["analyze", inputs["report"]],
                                  lambda inputs: ["cohort", inputs["manifest"]]],
                         ids=["analyze", "cohort"])
def test_a_failed_write_to_standard_output_is_an_error_line(argv, inputs, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(argv(inputs)) == 1
    assert capsys.readouterr().err == "error: cannot write standard output: [Errno 28] No space left on device\n"

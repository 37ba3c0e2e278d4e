"""``cohort`` builds its points in forked processes and writes what the one-process run writes.

``cohort._fan_out`` maps the per-entry function ``cli._cohort_entry`` over
the manifest entries: the parent computes every ``jobs``-th entry, each
forked child the entries after it, and each child sends its results back
through a pipe.  Called with an explicit ``jobs``, it forks however small
the corpus, so a small corpus here covers every share.  For every ``jobs``
the exit code, the JSON document (without ``generated_at``), each chart's
bytes and stderr must equal the one-process run's; an exception must be
raised as the one-process run raises it; and no child may outlive the run
or write to stdout or stderr.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import signal
import threading
import time

import pytest

from papertrail import cli, cohort
from papertrail.ingest import ReportFormat, serialize_report
from papertrail.synth import conscientious_spec, generate, papermill_spec

from test_golden import write_corpus

FAN_OUT = cohort._fan_out


def write_mixed_corpus(root) -> str:
    """The golden corpus (TSV reports, a bad last row, a missing file and a manifest line
    without a tab), and a CSV report, a report that is not UTF-8, an empty report, a directory
    and an absolute path; returns the manifest's path."""
    write_corpus(root)
    (root / "csv.csv").write_bytes(serialize_report(generate(papermill_spec(8)), ReportFormat.CSV))
    (root / "latin1.tsv").write_bytes(
        serialize_report(generate(conscientious_spec(8))).replace(b"synth", b"synth\xe4", 1))
    (root / "empty.tsv").write_bytes(b"")
    (root / "folder").mkdir()
    extra = ["CSV\tcsv.csv", "LATIN1\tlatin1.tsv", "EMPTY\tempty.tsv", "FOLDER\tfolder",
             f"ABSOLUTE\t{root / 'pm1.tsv'}"]
    manifest = root / "cohort.manifest"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[5:5] = extra[:2]  # among the golden entries, and after them
    manifest.write_text("\n".join([*lines, *extra[2:]]) + "\n", encoding="utf-8")
    return str(manifest)


def entry_count(manifest: str) -> int:
    with open(manifest, encoding="utf-8") as lines:
        return len(cohort.parse_manifest(lines.read())[0])


def run(monkeypatch, capfd, argv, jobs: int | None) -> tuple:
    """``main(argv)`` with the points built in ``jobs`` processes (by default: as many as
    ``_fan_out`` picks), and what it wrote: its exit code or exception, stdout and stderr."""
    monkeypatch.setattr(cohort, "_fan_out", functools.partial(FAN_OUT, jobs=jobs))
    try:
        outcome = cli.main(argv)
    except BaseException as exc:  # KeyboardInterrupt included
        outcome = type(exc), str(exc)
    out, err = capfd.readouterr()
    return outcome, out, err


def outputs(directory) -> dict:
    """Every file under ``directory`` by its relative path: the JSON document without
    ``generated_at``, and each chart's bytes."""
    found = {}
    for path in sorted(directory.rglob("*")):
        if path.suffix == ".json":
            document = json.loads(path.read_text(encoding="utf-8"))
            del document["generated_at"]
            found[str(path.relative_to(directory))] = document
        elif path.is_file():
            found[str(path.relative_to(directory))] = path.read_bytes()
    return found


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def corpus(tmp_path) -> str:
    return write_mixed_corpus(tmp_path)


def test_every_share_gives_the_one_process_outputs(corpus, tmp_path, monkeypatch, capfd):
    entries = entry_count(corpus)
    seen = None
    for jobs in (1, 2, 3, entries + 5):
        out = tmp_path / f"out{jobs}"
        outcome, stdout, stderr = run(monkeypatch, capfd, ["cohort", corpus, "--json",
                                      str(out / "c.json"), "--svg-dir", str(out / "svg")], jobs)
        got = outcome, stdout, stderr, outputs(out)
        if seen is None:
            seen = got
            assert outcome == 0 and stdout == "" and len(got[3]) == 5
            document = got[3]["c.json"]
            assert len(document["points"]) == entries - 5
            assert {d["label"] for d in document["diagnostics"]} == {
                "", "GONE", "BADCELL", "LATIN1", "EMPTY", "FOLDER"}
            assert stderr.count("warning: skipped") == 6
        assert got == seen, jobs
        assert_no_child_left()


def test_document_on_stdout_is_written_once(corpus, monkeypatch, capfd):
    def without_time(outcome, stdout, stderr):
        document = json.loads(stdout)
        del document["generated_at"]
        return outcome, document, stderr

    serial = without_time(*run(monkeypatch, capfd, ["cohort", corpus], 1))
    assert serial[0] == 0
    for jobs in (2, 3):
        assert without_time(*run(monkeypatch, capfd, ["cohort", corpus], jobs)) == serial


def failing_entry(failures: dict[str, BaseException]):
    """``cli._cohort_entry``, raising ``failures[name]`` for the report file ``name``."""
    entry = cli._cohort_entry

    def fails(path, *args):
        if path.name in failures:
            raise failures[path.name]
        return entry(path, *args)
    return fails


# the manifest's entries are PM0, CO0, PM1, GONE, CO1, CSV, LATIN1, PM2, CO2, PM3 ...: with two
# processes the parent computes PM0, PM1, CO1, LATIN1, CO2 ... and the child CO0, GONE, CSV, PM2 ...
FAILURES = {
    "bug-in-the-parent": {"pm0.tsv": RuntimeError("bug at PM0")},
    "interrupt-in-the-child": {"co0.tsv": KeyboardInterrupt("at CO0")},
    "child-first": {"co0.tsv": RuntimeError("bug at CO0"), "pm1.tsv": RuntimeError("bug at PM1")},
    "parent-first": {"pm1.tsv": KeyboardInterrupt("at PM1"), "csv.csv": RuntimeError("bug at CSV")},
    "out-of-memory-first": {"pm2.tsv": MemoryError("at PM2"), "co2.tsv": RuntimeError("bug at CO2")},
}


@pytest.mark.parametrize("case", FAILURES)
def test_an_exception_is_raised_as_in_one_process(case, corpus, tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(cli, "_cohort_entry", failing_entry(FAILURES[case]))
    argv = ["cohort", corpus, "--json", str(tmp_path / "c.json")]
    serial = run(monkeypatch, capfd, argv, 1)
    assert serial[0][0] in (RuntimeError, KeyboardInterrupt, MemoryError)
    assert serial[1:] == ("", "")
    for jobs in (2, 3):
        assert run(monkeypatch, capfd, argv, jobs) == serial
        assert_no_child_left()
    assert not (tmp_path / "c.json").exists()


def test_an_interrupt_in_the_parent_ends_the_children_at_once(corpus, tmp_path, monkeypatch,
                                                              capfd):
    parent, entry = os.getpid(), cli._cohort_entry

    def interrupted(path, *args):
        if path.name == "co0.tsv" and os.getpid() != parent:
            time.sleep(30)  # a child still busy with its share
        elif path.name == "pm1.tsv":
            raise KeyboardInterrupt("at PM1")
        return entry(path, *args)
    monkeypatch.setattr(cli, "_cohort_entry", interrupted)
    start = time.monotonic()
    outcome = run(monkeypatch, capfd, ["cohort", corpus, "--json", str(tmp_path / "c.json")], 2)
    assert outcome == ((KeyboardInterrupt, "at PM1"), "", "")
    assert time.monotonic() - start < 10
    assert_no_child_left()


def test_an_interrupt_while_a_child_is_reaped_leaves_no_child(corpus, tmp_path, monkeypatch,
                                                             capfd):
    waitpid, calls = os.waitpid, []

    def interrupted(pid, options):
        calls.append(pid)
        if len(calls) == 1:
            raise KeyboardInterrupt("while reaping")
        return waitpid(pid, options)
    monkeypatch.setattr(os, "waitpid", interrupted)
    outcome = run(monkeypatch, capfd, ["cohort", corpus, "--json", str(tmp_path / "c.json")], 3)
    assert outcome == ((KeyboardInterrupt, "while reaping"), "", "")
    assert len(set(calls)) == 2  # each child, the first one again after the interrupt
    monkeypatch.setattr(os, "waitpid", waitpid)
    assert_no_child_left()


def test_an_interrupt_in_a_child_before_it_sends_never_returns_into_the_caller(
        corpus, tmp_path, monkeypatch, capfd):
    argv = ["cohort", corpus, "--json", str(tmp_path / "c.json")]
    serial = run(monkeypatch, capfd, argv, 1), outputs(tmp_path)
    parent = os.getpid()

    def interrupted(*args):
        raise KeyboardInterrupt("before the child sends")
    monkeypatch.setattr(cohort, "_send", interrupted)
    got = run(monkeypatch, capfd, argv, 3), outputs(tmp_path)
    if os.getpid() != parent:  # a child that got back here
        (tmp_path / "escaped").write_text("", encoding="utf-8")
        os._exit(0)
    assert got == serial
    assert not (tmp_path / "escaped").exists()
    assert_no_child_left()


def test_a_child_that_dies_has_its_share_built_by_the_parent(corpus, tmp_path, monkeypatch,
                                                             capfd):
    argv = ["cohort", corpus, "--json", str(tmp_path / "c.json")]
    serial = run(monkeypatch, capfd, argv, 1), outputs(tmp_path)
    parent, entry = os.getpid(), cli._cohort_entry

    def dies_in_a_child(path, *args):
        if os.getpid() != parent and path.name == "co0.tsv":
            os.kill(os.getpid(), signal.SIGKILL)
        return entry(path, *args)
    monkeypatch.setattr(cli, "_cohort_entry", dies_in_a_child)
    for jobs in (2, 3):
        assert (run(monkeypatch, capfd, argv, jobs), outputs(tmp_path)) == serial
        assert_no_child_left()


def refused(*args):
    raise OSError(errno.EMFILE, "Too many open files")


def fork_refused():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("call, refusal", [("fork", fork_refused), ("pipe", refused)],
                         ids=["fork", "pipe"])
def test_a_failed_fork_leaves_the_share_to_the_parent(call, refusal, corpus, tmp_path,
                                                      monkeypatch, capfd):
    argv = ["cohort", corpus, "--json", str(tmp_path / "c.json")]
    serial = run(monkeypatch, capfd, argv, 1), outputs(tmp_path)
    monkeypatch.setattr(os, call, refusal)
    assert (run(monkeypatch, capfd, argv, 2), outputs(tmp_path)) == serial
    assert_no_child_left()


def refuse_to_fork():
    raise AssertionError("forked")


def test_no_fork_while_another_thread_runs(corpus, tmp_path, monkeypatch, capfd):
    argv = ["cohort", corpus, "--json", str(tmp_path / "c.json")]
    serial = run(monkeypatch, capfd, argv, 1), outputs(tmp_path)
    monkeypatch.setattr(cohort, "_FORK_FLOOR_BYTES", 1)  # so that the small corpus would fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    assert run(monkeypatch, capfd, argv, None)[0] == (AssertionError, "forked")

    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        for jobs in (None, 2):
            assert (run(monkeypatch, capfd, argv, jobs), outputs(tmp_path)) == serial
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()


def counting_forks(monkeypatch) -> list:
    """The pids that ``os.fork`` returns from here on, in the parent."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_each_process_has_a_byte_floor_of_reports(corpus, tmp_path, monkeypatch, capfd):
    argv = ["cohort", corpus, "--json", str(tmp_path / "c.json")]
    serial = run(monkeypatch, capfd, argv, 1), outputs(tmp_path)
    with open(corpus, encoding="utf-8") as manifest:
        paths = [tmp_path / path for _, path in cohort.parse_manifest(manifest.read())[0]]
    size = sum(path.stat().st_size for path in paths if path.exists())
    forks = counting_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for floor, processes in [(size + 1, 1), (size, 2), (size // 2 + 1, 2), (size // 2, 3)]:
        forks.clear()
        monkeypatch.setattr(cohort, "_FORK_FLOOR_BYTES", floor)
        assert (run(monkeypatch, capfd, argv, None), outputs(tmp_path)) == serial
        assert len(forks) == processes - 1, floor
        assert_no_child_left()


def test_the_default_jobs_are_the_cpus_this_process_may_use(corpus, tmp_path, monkeypatch,
                                                           capfd):
    forks = counting_forks(monkeypatch)
    monkeypatch.setattr(cohort, "_FORK_FLOOR_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert run(monkeypatch, capfd, ["cohort", corpus, "--json", str(tmp_path / "c.json")],
               None)[0] == 0
    assert len(forks) == 2
    assert_no_child_left()

"""Tests of the benchmark itself: smoke runs, determinism and the checks.

    python3 -m pytest bench

The smoke runs use tiny corpora and no timing bound.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from papertrail import cli  # noqa: E402
from papertrail.errors import PapertrailError  # noqa: E402
from papertrail.indicators import analyze_profile  # noqa: E402
from papertrail.ingest import parse_report  # noqa: E402
from papertrail.synth import generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_smoke():
    return {w: run.run_workload(w, seed=1, seconds=0, trace=True, size="tiny")
            for w in run.WORKLOADS}


def test_gated_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke_run_reports_end_to_end_metrics(workload):
    result, diagnostics = run.run_workload(workload, seed=1, seconds=0, trace=False, size="tiny")
    assert result["correct"], diagnostics["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert diagnostics["fail_ratio"]["value"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_reports_per_layer_metrics(traced_smoke, workload):
    result, diagnostics = traced_smoke[workload]
    assert result["correct"], diagnostics["errors"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_every_layer_metric_is_measured_on_some_workload(traced_smoke):
    seen = {name for result, _ in traced_smoke.values()
            for name, metric in result["metrics"].items() if metric["value"]}
    # synth profiles carry no total/window mismatches, so no parse warnings
    assert {m["name"] for m in SPEC["per_layer"]} - seen == {"ingest.parse_report.warnings"}


def test_traced_cohort_counts_match_the_corpus(traced_smoke):
    metrics = {k: v["value"] for k, v in traced_smoke["cohort-mixed"][0]["metrics"].items()}
    n = corpus.SIZES["tiny"]["reports"]
    defects = len(corpus.defect_indices(n, corpus.SIZES["tiny"]["defect_every"]))
    assert metrics["ingest.parse_report.calls"] == n
    assert metrics["ingest.parse_report.failed"] == defects
    assert metrics["cohort.points"] == n - defects
    assert metrics["cohort.diagnostics"] == defects + 1
    assert metrics["cohort.useful_ratio"] == (n - defects) / (n + 1)


def test_full_cohort_expects_392_points_and_9_diagnostics():
    defects = corpus.defect_indices(400, corpus.SIZES["full"]["defect_every"])
    assert len(defects) == 8  # plus the missing file: 9 diagnostics, 392 points


@pytest.mark.parametrize("workload", ["cohort-mixed", "analyze-wide"])
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "other")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        corpus.build(workload, seed, "tiny", d)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    assert any((dirs[0] / n).read_bytes() != (dirs[2] / n).read_bytes() for n in names)


def test_cohort_corpus_has_the_expected_defects(tmp_path):
    plan = corpus.build("cohort-mixed", 7, "tiny", tmp_path)
    failing = []
    for path in sorted(tmp_path.glob("r*.tsv")):
        try:
            parse_report(path.read_bytes())
        except PapertrailError:
            failing.append(path.stem)
    missing = corpus.MISSING_LABEL
    assert not (tmp_path / f"{missing}.tsv").exists()
    assert sorted(failing + [missing]) == plan["expected"]["diagnostic_labels"]
    assert len(failing) == corpus.SIZES["tiny"]["reports"] // corpus.SIZES["tiny"]["defect_every"]


def test_cohort_check_ignores_extra_keys_and_catches_wrong_values(tmp_path, capsys):
    plan = corpus.build("cohort-mixed", 7, "tiny", tmp_path)
    assert cli.main(plan["argv"]) == 0
    assert checks.check_cohort(plan) == []
    path = Path(plan["outputs"]["json"])
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["run"] = {"version": "later"}
    doc["points"][0]["extra"] = 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert checks.check_cohort(plan) == []
    doc["points"][0]["i_index"] += 0.01
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert checks.check_cohort(plan)


def test_analyze_check_catches_a_wrong_indicator(tmp_path):
    plan = corpus.build("analyze-wide", 7, "tiny", tmp_path)
    assert cli.main(plan["argv"]) == 0
    assert checks.check_analyze(plan) == []
    path = Path(plan["outputs"]["json"])
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["indicators"]["h_index"] += 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert checks.check_analyze(plan)


def test_synth_check_compares_with_the_generated_profile(tmp_path):
    plan = corpus.build("synth-write", 7, "tiny", tmp_path)
    assert cli.main(plan["argv"]) == 0
    assert checks.check_synth(plan, generate(corpus.wide_spec(7, "tiny"))) == []
    assert checks.check_synth(plan, generate(corpus.wide_spec(8, "tiny")))


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10)["value"] is None
    assert run.tail([float(i) for i in range(40)]) == {
        "value": 29.0, "unit": "s", "percentile": 75.0, "samples": 40}


def test_gated_times_follow_the_program_not_the_host():
    ref = hostspeed.REFERENCE_S
    steady = {"op_s": [0.4, 0.4], "setup_s": [[0.02, 0.08], [0.02, 0.08]],
              "probe_s": [ref, ref, ref]}
    # the host runs at half speed from the second call on: probes and calls slow alike
    slowed = {"op_s": [0.4, 0.8, 0.8], "setup_s": [[0.02, 0.08], [0.04, 0.16], [0.04, 0.16]],
              "probe_s": [ref, ref, 2 * ref, 2 * ref]}
    for out in (steady, slowed):
        gated, _ = run.timing_metrics(out, records_per_op=100)
        assert gated["op_p50_s"] == pytest.approx(0.4)
        assert gated["setup_s"] == pytest.approx(0.1)
    assert run.timing_metrics(steady, records_per_op=100)[0]["records_per_s"] == pytest.approx(250)
    gated, wall = run.timing_metrics(slowed, records_per_op=100)
    assert wall["op_p50_s"] == pytest.approx(0.8)
    assert wall["probe_drift"] == pytest.approx(2)


def test_host_probe_takes_about_the_reference_time(tmp_path):
    seconds = statistics.median(hostspeed.probe(tmp_path / "probe.tsv") for _ in range(5))
    assert hostspeed.REFERENCE_S / 4 < seconds < hostspeed.REFERENCE_S * 4
    assert not (tmp_path / "probe.tsv").exists()


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_vets_the_reference():
    profile = generate(corpus.wide_spec(7, "tiny"))
    reference = corpus.indicator_fields(analyze_profile(profile))
    assert checks.reference_problems("wide", reference, profile) == []
    wrong = dict(reference, i_index=reference["i_index"] * 1.001)
    assert checks.reference_problems("wide", wrong, profile)

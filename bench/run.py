"""papertrail benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload cohort-mixed --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --smoke

The program is imported from ``src/`` next to this directory.  A run makes
its inputs from ``--seed`` (corpus.py), then starts a fresh worker process
that times the workload in a closed loop for ``--seconds``, with the set-up
of a fresh interpreter and a host-speed probe between calls (worker.py),
and checks every output (checks.py).  Gated times are expressed at a
reference host speed (hostspeed.py); their wall-clock values are printed
as diagnostics.  With ``--trace 1`` the worker also runs traced replicas of
each call and the run reports per-layer metrics (spans.py) instead of the
end-to-end ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``,
with the metric names and units of ``BENCHMARK.json``.  The line before it
holds diagnostics: the tail latency, the wall-clock times, the host-speed
probes, the failure ratio, the first errors and the machine's state.

``--smoke`` runs every workload once, traced, on a tiny corpus, with every
check and no timing bound; it exits 0 only if all outputs are correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOADS = ("cohort-mixed", "analyze-wide", "synth-write")

# timed calls a run makes even when its seconds are already up
MIN_OPS = {"full": 5, "tiny": 1}


class BenchError(Exception):
    """The harness could not produce a result."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PAPERTRAIL_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def timing_metrics(out: dict, records_per_op: int) -> tuple[dict, dict]:
    """Gated time metrics at the reference host speed, and their wall-clock values.

    Call i and set-up sample i both lie between probes i and i + 1.
    """
    probes = out["probe_s"]
    around = list(zip(probes, probes[1:]))
    op_s = out["op_s"]
    setup = [i + m for i, m in out["setup_s"]]
    op_n = [hostspeed.normalised(t, *p) for t, p in zip(op_s, around)]
    setup_n = [hostspeed.normalised(t, *p) for t, p in zip(setup, around)]
    gated = {
        "op_p50_s": statistics.median(op_n),
        "records_per_s": records_per_op * len(op_n) / sum(op_n),
        "setup_s": statistics.median(setup_n),
        "setup.interpreter_s": statistics.median(
            hostspeed.normalised(i, *p) for (i, _), p in zip(out["setup_s"], around)),
        "setup.import_cli_s": statistics.median(
            hostspeed.normalised(m, *p) for (_, m), p in zip(out["setup_s"], around)),
    }
    quarter = max(1, len(probes) // 4)
    wall = {
        "op_p50_s": statistics.median(op_s),
        "records_per_s": records_per_op * len(op_s) / sum(op_s),
        "setup_s": statistics.median(setup),
        "probe_p50_s": statistics.median(probes),
        "probe_min_s": min(probes),
        "probe_max_s": max(probes),
        # last quarter's probes over the first quarter's: far from 1 when
        # the host changed speed during the run
        "probe_drift": statistics.median(probes[-quarter:]) / statistics.median(probes[:quarter]),
    }
    return gated, wall


def _cpu_ticks() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_context(loadavg_before: tuple, ticks_before: list[int] | None) -> dict:
    """nproc, Python, git revision, and load and CPU steal over the run."""
    ticks_after = _cpu_ticks()
    steal = None
    if ticks_before and ticks_after and len(ticks_after) > 7:
        delta = [a - b for a, b in zip(ticks_after, ticks_before)]
        steal = delta[7] / sum(delta) if sum(delta) else 0.0
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "loadavg_before": loadavg_before,
        "loadavg_after": os.getloadavg(),
        "cpu_steal_share": steal,
    }


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return {"value": None, "unit": "s", "percentile": None, "samples": n}
    return {"value": sorted(samples)[n - 11], "unit": "s",
            "percentile": round(100 * (n - 10) / n, 1), "samples": n}


def _synth_failures(plan: dict, digests: list[str]) -> tuple[int, list[str]]:
    """Check the last written report; calls that wrote other bytes fail too."""
    import checks
    import corpus
    from papertrail.synth import generate

    problems = checks.check_synth(plan, generate(corpus.wide_spec(plan["seed"], plan["size"])))
    if problems:
        return len(digests), problems[:3]
    final = hashlib.sha256(Path(plan["outputs"]["report"]).read_bytes()).hexdigest()
    differing = sum(d != final for d in digests)
    return differing, [f"{differing} call(s) wrote a different report"] if differing else []


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """One run: returns the result object and the diagnostics."""
    import corpus  # imports papertrail, so src/ must be on the path first

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    loadavg, ticks = os.getloadavg(), _cpu_ticks()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = corpus.build(workload, seed, size, work)
        plan.update(seconds=seconds, trace=trace, min_ops=MIN_OPS[size],
                    probe_path=str(work / "probe.tsv"),
                    spans_path=str(WORK / f"spans-{workload}-{seed}.jsonl"))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path)],
                              env=_child_env(), capture_output=True, text=True,
                              timeout=seconds + 100)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        failed, errors = out["failed"], out["errors"]
        if plan["reference_problems"]:
            # every call was checked against a wrong answer
            failed, errors = out["attempted"], plan["reference_problems"][:3] + errors
        if workload == "synth-write":
            more, problems = _synth_failures(plan, out["digests"])
            failed, errors = failed + more, errors + problems
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op_s = out["op_s"]
    values, wall = timing_metrics(out, plan["records_per_op"])
    values["peak_rss_mb"] = out["peak_rss_mb"]
    if trace:
        values.update(out["layers"])
        values["trace.overhead_ratio"] = statistics.median(out["traced_op_s"]) / wall["op_p50_s"]
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in chosen}
    result = {"correct": failed == 0, "attempted": out["attempted"], "failed": failed,
              "metrics": metrics}
    diagnostics = {
        "workload": workload, "seed": seed, "trace": trace, "timed_ops": len(op_s),
        "op_tail_s": tail(op_s),
        "wall": wall,
        "fail_ratio": {"value": failed / out["attempted"], "unit": "ratio"},
        "errors": errors[:5],
        "machine": machine_context(loadavg, ticks),
    }
    return result, diagnostics


def smoke() -> bool:
    ok = True
    for workload in WORKLOADS:
        result, diagnostics = run_workload(workload, seed=1, seconds=0, trace=True, size="tiny")
        print(json.dumps({"workload": workload, "correct": result["correct"],
                          "attempted": result["attempted"], "failed": result["failed"],
                          "errors": diagnostics["errors"]}))
        ok = ok and result["correct"]
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on a tiny corpus and check it")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "papertrail" / "cli.py").is_file():
        print(f"error: no papertrail sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.smoke:
            return 0 if smoke() else 1
        result, diagnostics = run_workload(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop timing of one workload, in a fresh single-threaded process.

    python3 bench/worker.py PLAN_JSON

One client calls ``papertrail.cli.main(argv)`` on the plan's inputs, the
next call starting when the previous one has returned, until the plan's
seconds are up (and at least ``min_ops`` calls were timed).  One untimed
call and one untimed set-up spawn run first so that files, imports and
the bytecode cache are warm.  Every call's outputs are removed before it
runs and checked after it, outside the timed part.

Between calls, outside the timed part, the loop spawns one fresh
interpreter.  It times its own set-up (spawn to ``import papertrail.cli``
completing) and then runs one host-speed probe (hostspeed.py), so that
set-up samples cover the same phases of the host as the calls, every call
and set-up sample lies between two probes, and neither the probe's memory
nor the child's counts towards this process's peak RSS.  With tracing on,
each CLI call is followed by a traced replica of it (spans.py).  Prints
one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from papertrail import cli

import checks
import spans

BENCH = Path(__file__).resolve().parent
# argv: this directory, the probe's scratch file
SETUP_PROBE = ("import sys, time; t = time.perf_counter(); import papertrail.cli; "
               "d = time.perf_counter(); sys.path.insert(0, sys.argv[1]); import hostspeed; "
               "from pathlib import Path; print(t, d, hostspeed.probe(Path(sys.argv[2])))")


def _clear(plan: dict) -> None:
    for path in map(Path, plan["outputs"].values()):
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)


def _cli_op(plan: dict) -> tuple[float, str | None]:
    start = time.perf_counter()
    try:
        code = cli.main(plan["argv"])
    except (Exception, SystemExit) as exc:  # a crash fails this call, not the run
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"exit code {code}"


def _setup_sample(probe_path: Path) -> tuple[float, float, float]:
    """Spawn-to-start and import times of one fresh interpreter, and its probe time.

    ``perf_counter`` reads a system-wide monotonic clock on Linux, so the
    child's readings and the spawn time share one time base.  The child
    inherits this process's environment, with ``src/`` on its path.
    """
    spawned = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH), str(probe_path)],
                         env=os.environ, check=True, capture_output=True, text=True,
                         timeout=60).stdout.split()
    started, done, probe = map(float, out)
    return started - spawned, done - started, probe


def _traced_op(plan: dict, tracer: spans.Tracer) -> tuple[float, str | None]:
    try:
        return spans.traced_op(tracer, plan), None
    except Exception as exc:  # a crash fails this call, not the run
        return 0.0, f"{type(exc).__name__}: {exc}"


class Loop:
    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.attempted = 0
        self.errors: list[str] = []
        self.digests: list[str] = []

    def run(self, op, *args) -> float:
        """One checked call; returns its wall time."""
        _clear(self.plan)
        elapsed, error = op(self.plan, *args)
        self.attempted += 1
        problems = [error] if error else self._check()
        if problems:
            self.errors.append("; ".join(problems[:3]))
        return elapsed

    def _check(self) -> list[str]:
        check = checks.PER_OP.get(self.plan["workload"])
        if check:
            return check(self.plan)
        # synth-write: run.py checks the last file; every call must match it
        try:
            data = Path(self.plan["outputs"]["report"]).read_bytes()
        except OSError as exc:
            return [str(exc)]
        self.digests.append(hashlib.sha256(data).hexdigest())
        return []


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    loop = Loop(plan)
    tracer = spans.Tracer() if plan["trace"] else None
    probe_path = Path(plan["probe_path"])
    loop.run(_cli_op)
    _setup_sample(probe_path)  # warms the bytecode cache
    op_s, setup_s, traced_s = [], [], []
    probes = [_setup_sample(probe_path)[2]]
    start = time.perf_counter()
    while len(op_s) < plan["min_ops"] or time.perf_counter() - start < plan["seconds"]:
        op_s.append(loop.run(_cli_op))
        *setup, probe = _setup_sample(probe_path)
        setup_s.append(setup)
        probes.append(probe)
        if tracer:
            traced_s.append(loop.run(_traced_op, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "op_s": op_s,
        "setup_s": setup_s,
        "probe_s": probes,
        "attempted": loop.attempted,
        "failed": len(loop.errors),
        "errors": loop.errors[:5],
        "digests": loop.digests,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.write(Path(plan["spans_path"]))
        result["traced_op_s"] = traced_s
        result["layers"] = spans.layer_totals(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

"""The benchmark harness still runs against the current program.

``bench/run.py --smoke`` runs every workload once on a tiny corpus and
checks each output, calling ``parse_report`` and the CLI on the way, so a
program change that breaks the harness fails here instead of in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_bench_smoke_passes():
    result = subprocess.run([sys.executable, str(BENCH_RUN), "--smoke"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr

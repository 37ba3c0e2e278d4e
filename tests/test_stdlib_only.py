"""The package runs on the standard library alone.

Starts ``python -S`` (no site-packages) with this checkout's ``src`` on
``sys.path``, runs ``synth``, ``analyze --svg`` and ``cohort --svg-dir``
through ``cli.main`` in that one process, and then lists every loaded
module that is neither standard library nor part of ``papertrail``.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from papertrail.cli import main

out = Path(sys.argv[2])
codes = []
lines = []
for archetype in ("papermill", "conscientious"):
    for seed in range(3):
        stem = f"{archetype}{seed}"
        codes.append(main(["synth", "--archetype", archetype, "--seed", str(seed),
                           "-o", str(out / f"{stem}.tsv")]))
        lines.append(f"{stem}\\t{stem}.tsv\\n")
(out / "cohort.tsv").write_text("".join(lines), encoding="utf-8")
codes.append(main(["analyze", str(out / "papermill0.tsv"), "--json", str(out / "a.json"),
                   "--svg", str(out / "a.svg")]))
codes.append(main(["cohort", str(out / "cohort.tsv"), "--json", str(out / "c.json"),
                   "--svg-dir", str(out / "figs")]))
foreign = sorted(
    name for name in sys.modules
    if name != "__main__" and name.partition(".")[0] not in sys.stdlib_module_names
    and name.partition(".")[0] != "papertrail"
)
print(json.dumps({"codes": codes, "foreign": foreign}))
"""


def test_cli_loads_only_stdlib_and_papertrail(tmp_path):
    result = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(SRC), str(tmp_path)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 8
    assert report["foreign"] == []
    assert (tmp_path / "a.svg").is_file() and (tmp_path / "figs" / "i_vs_r.svg").is_file()

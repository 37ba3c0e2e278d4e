import json
import subprocess
import sys
import types
from pathlib import Path

import papertrail

SRC = Path(__file__).resolve().parent.parent / "src"


def test_public_names_are_the_package_imports():
    namespace: dict = {}
    exec("from papertrail import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == papertrail.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    # the names the README's library example imports
    assert {"analyze_profile", "parse_report", "profile_chart"} <= set(papertrail.__all__)


def test_cli_import_loads_no_xml_http_or_email_module():
    # render escapes with html.escape; xml.sax.saxutils pulled in urllib.request and its kin
    heavy = ["xml.sax", "urllib.request", "http.client", "email.parser"]
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import papertrail.cli; "
              f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", script, str(SRC)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []

"""Print, as one JSON object, what importing papertrail loads and binds.

Run as ``python package_probe.py SRC``, with SRC the directory that holds
the package.  What an import loads shows only in a fresh interpreter, so
the tests run this file in one, under each supported CPython.  Keys:

- ``bare_loads``: the modules that ``import papertrail`` adds.
- ``cli_loads``: the modules that ``import papertrail.cli`` then adds.
- ``ingest_patterns``: the names in ``papertrail.ingest`` bound, right after
  that import, to a compiled regular expression or to a dict holding one.
- ``threads_agree``: the threads that looked up the names in
  ``THREAD_NAMES`` at once, each for the first time, all finished and all
  got the same objects.
- ``star``: the names that ``from papertrail import *`` binds, sorted.
- ``all``: ``papertrail.__all__``.
- ``modules``: the public names bound to a module by the star import.
- ``mismatched``: the public names whose object is not the attribute of
  the same name in the module that the package's table gives.
- ``submodules_resolve``: each submodule is an attribute of the package.
- ``unknown_raises``: a name the package lacks raises ``AttributeError``.
"""

import re
import sys
import threading

sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import papertrail  # noqa: E402

bare_loads = sorted(set(sys.modules) - before)
before = set(sys.modules)
import papertrail.cli  # noqa: E402, F401

cli_loads = sorted(set(sys.modules) - before)
# what the import left compiled in ingest: a module-level pattern, or a table of them
ingest_patterns = sorted(
    name for name, value in vars(papertrail.ingest).items()
    if any(isinstance(v, re.Pattern) for v in (value.values() if isinstance(value, dict) else [value])))

# names, and submodules, that the CLI import leaves unloaded
THREAD_NAMES = ["render", "profile_chart", "ChartStyle", "synth", "Archetype", "generate"]
THREADS = 8
barrier = threading.Barrier(THREADS)
found = [{} for _ in range(THREADS)]


def look_up(k):
    """Each name's object, looked up in an order that differs from thread to thread."""
    barrier.wait()
    shift = k % len(THREAD_NAMES)
    for name in THREAD_NAMES[shift:] + THREAD_NAMES[:shift]:
        found[k][name] = getattr(papertrail, name)


interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=look_up, args=(k,)) for k in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
threads_agree = not any(t.is_alive() for t in threads) and all(
    objects.keys() == set(THREAD_NAMES) and all(objects[n] is found[0][n] for n in THREAD_NAMES)
    for objects in found)

namespace = {}
exec("from papertrail import *", namespace)
del namespace["__builtins__"]

from importlib import import_module  # noqa: E402
from types import ModuleType  # noqa: E402

mismatched = [name for name in papertrail.__all__
              if getattr(papertrail, name) is not getattr(
                  import_module("papertrail." + papertrail._MODULE_OF[name]), name)]
try:
    papertrail.no_such_name
except AttributeError:
    unknown_raises = True
else:
    unknown_raises = False

import json  # noqa: E402

print(json.dumps({
    "bare_loads": bare_loads,
    "cli_loads": cli_loads,
    "ingest_patterns": ingest_patterns,
    "threads_agree": threads_agree,
    "star": sorted(namespace),
    "all": papertrail.__all__,
    "modules": sorted(name for name, value in namespace.items() if isinstance(value, ModuleType)),
    "mismatched": mismatched,
    "submodules_resolve": all(getattr(papertrail, module) is sys.modules["papertrail." + module]
                              for module in papertrail._EXPORTS),
    "unknown_raises": unknown_raises,
}))

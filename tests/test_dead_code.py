"""No code path in the package is dead.

Read with the stdlib ``ast`` module: in every module but ``__init__.py``
each imported name is used in that module, and each private module-level
function, class or constant is referenced somewhere in the package.  No
module imports ``warnings``: its registry is process-wide state, so the
package reports data issues as values or errors instead.  No module but
``ingest.py`` reads a record's private slots or methods.  Only ``cli._write``
and ``cli._open_output`` open, replace, remove or make files, and only
``cli._write`` resolves an output path.  No module but ``config.py``, which
holds the package's one type rule, compares a value's ``type(...)``.  In
``ingest.py`` only the block pass, ``_read_chunk``, and the exact cell
reader, ``_int``, convert text with ``int``, and ``_int`` and ``_parse_count``
build a message only to raise it.  ``_read_report`` reads record rows only
through ``_read_chunk``, and only ``_read_chunk`` calls ``_row_error``, which
names the fault of the one row where the block pass stops.  In ``render.py``
only ``_text`` escapes a chart's text.  ``synth._papers`` draws every random
number through ``_jitters``.  Each function that checks a caller's value
against a range does so through ``config._check_range``, the one range rule,
and raises nothing else but the checks listed here.
"""

import ast
from pathlib import Path

import pytest

import papertrail

PACKAGE = Path(papertrail.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
         for p in sorted(PACKAGE.glob("*.py"))}


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name the code reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and constants named with one leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = TREES[path]
    assert imported_names(tree) - loaded_names(tree) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    referenced = set().union(*map(loaded_names, TREES.values()))
    assert private_definitions(TREES[path]) - referenced == set()


def imported_modules(tree: ast.Module) -> set[str]:
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_no_module_imports_warnings():
    imports = {path.name: imported_modules(tree) for path, tree in TREES.items()}
    assert {"csv", "re"} <= imports["ingest.py"]  # the walk sees the imports
    assert [name for name, modules in imports.items() if "warnings" in modules] == []


def record_private_names() -> set[str]:
    """The private slots and methods of ``ingest.PublicationRecord``, dunder names aside."""
    (record,) = [node for node in TREES[PACKAGE / "ingest.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "PublicationRecord"]
    names = set()
    for node in record.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__slots__"]:
            names.update(ast.literal_eval(node.value))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("path", [p for p in TREES if p.name != "ingest.py"], ids=lambda p: p.name)
def test_only_ingest_reads_a_record_s_private_attributes(path):
    # the record's layout is then one module's decision; a name read as an attribute or spelled
    # as a string (for getattr or attrgetter) counts
    read = {node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(TREES[path])
            if isinstance(node, ast.Attribute) or isinstance(node, ast.Constant)
            and isinstance(node.value, str)}
    assert read & record_private_names() == set()


def callers() -> dict[str, set[str]]:
    """Each function the package calls, by its name as written (``os.path.realpath``), and the
    module-level definitions that call it (``cli._write``)."""
    found: dict[str, set[str]] = {}
    for path, tree in TREES.items():
        for top in tree.body:
            caller = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    found.setdefault(ast.unparse(node.func), set()).add(caller)
    return found


def test_one_output_path():
    # only _write and _open_output open, fill, commit or discard an output file, and only _write
    # resolves an output path; so a second writer or a second resolution cannot come in unseen
    calls = callers()
    writers = {"cli._write", "cli._open_output"}
    for name in ("open", "os.open", "os.replace", "os.unlink", "os.chmod", "os.makedirs"):
        assert name in calls and calls[name] <= writers, name
    assert calls["os.path.realpath"] == {"cli._write"}


def compares_a_type(tree: ast.AST) -> bool:
    """Whether a comparison in ``tree`` has an operand that is a value's type or an attribute of
    it, as in ``type(value) is int``, or a name bound to one, as ``got`` in
    ``got = type(value).__name__`` and then ``got != declared``."""
    def is_a_type(node: ast.AST) -> bool:
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"

    bound = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and is_a_type(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    return any(is_a_type(operand) or isinstance(operand, ast.Name) and operand.id in bound
               for node in ast.walk(tree) if isinstance(node, ast.Compare)
               for operand in (node.left, *node.comparators))


def test_only_config_compares_a_type():
    # a second type rule, with its own idea of subclasses and its own message, cannot come in unseen
    assert compares_a_type(TREES[PACKAGE / "config.py"])
    assert [path.name for path, tree in TREES.items() if compares_a_type(tree)] == ["config.py"]


def int_users(tree: ast.Module) -> set[str]:
    """The module-level definitions in ``tree`` that call ``int`` or pass it to a call, as in
    ``map(int, cells)``; an annotation such as ``list[int]`` holds no call, so it is not counted."""
    def is_int(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "int"

    return {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and any(map(is_int, [node.func, *node.args, *(k.value for k in node.keywords)]))}


def test_one_conversion_path_per_tier():
    # the block pass converts a chunk's cells with int() at once, and the exact path each cell
    # through _int; a third conversion, such as a row-level int() pass, cannot come in unseen
    assert int_users(TREES[PACKAGE / "ingest.py"]) == {"_read_chunk", "_int"}


def test_one_reader_of_record_rows():
    # the block pass reads every record row, and reads the row where it stops again only to name
    # its fault; a second reader of record rows, with its own idea of a valid cell, cannot come
    # back in unseen
    calls = callers()
    assert calls["_read_chunk"] == {"ingest._read_report"}
    assert calls["_row_error"] == {"ingest._read_chunk"}
    called = [ast.unparse(node.func) for node in ast.walk(function("ingest.py", "_read_report"))
              if isinstance(node, ast.Call)]
    # one reader each: of the metadata and header rows, the h-index, the year columns, the records
    readers = {"_split", "_int", "_parse_count", "_parse_year_columns", "_read_chunk", "_row_error"}
    assert sorted(name for name in called if name in readers) == [
        "_parse_count", "_parse_year_columns", "_read_chunk", "_split"]


def function(module: str, name: str) -> ast.FunctionDef:
    """The function ``name`` of the package module ``module``: a module-level one, or a method
    named as ``Class.method``."""
    node = TREES[PACKAGE / module]
    for part in name.split("."):
        (node,) = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part]
    return node


def unraised_f_strings(tree: ast.AST) -> list[str]:
    """The f-strings in ``tree`` outside every ``raise`` statement, as written."""
    raised = {id(node) for top in ast.walk(tree) if isinstance(top, ast.Raise) for node in ast.walk(top)}
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in raised]


@pytest.mark.parametrize("name", ["_int", "_parse_count"])
def test_the_cell_reader_builds_a_message_only_to_raise_it(name):
    # an accepted cell costs one conversion, no text: a per-cell "row N: ..." prefix cannot come
    # back in unseen
    assert unraised_f_strings(function("ingest.py", name)) == []


def test_one_chart_text_helper():
    # every text of a chart goes through _text, which also stands in for what XML forbids; a text
    # escaped on its own, which could carry a control character into the SVG, cannot come in unseen
    assert callers()["escape"] == {"render._text"}


def test_synth_draws_every_number_through_one_loop():
    # _jitters draws what jitter draws one at a time; a second draw path in _papers, whose order
    # could drift from the first, cannot come in unseen
    called = {ast.unparse(node.func).rpartition(".")[2] for node in ast.walk(function("synth.py", "_papers"))
              if isinstance(node, ast.Call)}
    assert "_jitters" in called
    assert called & {"jitter", "uniform", "next_u64"} == set()


def raised(tree: ast.AST) -> list[tuple[str, str]]:
    """Each ``raise`` in ``tree``, in source order, as its exception's name and the text its
    message starts with."""
    found = []
    for node in sorted((n for n in ast.walk(tree) if isinstance(n, ast.Raise)), key=lambda n: n.lineno):
        message = node.exc.args[0]
        first = message.values[0] if isinstance(message, ast.JoinedStr) else message
        found.append((node.exc.func.id, first.value))
    return found


# the checks left hand-written where the one range rule applies: comparisons of two fields, a
# half-open range, and errors of their own class that are not a value outside a range
HAND_WRITTEN_RAISES = {
    ("config.py", "Region.__post_init__"): [],
    ("config.py", "AnalysisConfig.__post_init__"): [],
    ("render.py", "ChartStyle.__post_init__"): [],
    ("cohort.py", "CohortPoint.__post_init__"): [],
    ("synth.py", "SynthSpec.__post_init__"): [
        ("InvalidSpecError", "base_rate must not exceed peak_rate, got "),
        ("InvalidSpecError", "cites_per_paper must lie in (0, "),
        ("InvalidSpecError", "citations would run to ")],
    ("ingest.py", "PublicationRecord.__init__"): [],
    ("ingest.py", "serialize_report"): [
        ("ValueError", "profile has no records; parse_report rejects a report without any"),
        ("ValueError", "researcher name is empty; parse_report would read the file's name")],
    ("indicators.py", "best_lag"): [
        ("TooShortError", "series of "),
        ("AllDegenerateError", "correlation undefined at every candidate lag")],
    ("indicators.py", "i_index"): [
        ("ZeroPublicationsError", "integrity index needs at least one publication")],
}


@pytest.mark.parametrize("module, name", HAND_WRITTEN_RAISES, ids=[name for _, name in HAND_WRITTEN_RAISES])
def test_every_range_goes_through_the_one_range_rule(module, name):
    # a range spelled by hand, with its own message and its own idea of NaN, cannot come back in unseen
    tree = function(module, name)
    assert "_check_range" in {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert raised(tree) == HAND_WRITTEN_RAISES[module, name]


def test_the_checks_see_the_package():
    assert {"_years", "_counts"} <= record_private_names()
    assert {p.name for p in MODULES} >= {"cli.py", "ingest.py", "render.py"}
    assert {"_int", "_parse_count"} <= private_definitions(TREES[PACKAGE / "ingest.py"])
    # _int's messages are f-strings, all raised; _echo returns one
    assert any(isinstance(node, ast.JoinedStr) for node in ast.walk(function("ingest.py", "_int")))
    assert unraised_f_strings(function("ingest.py", "_echo")) == ["f'({len(cell)} characters)'"]
    assert "escape" in imported_names(TREES[PACKAGE / "render.py"])
    assert "_text" in private_definitions(TREES[PACKAGE / "render.py"])

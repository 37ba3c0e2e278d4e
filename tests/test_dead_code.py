"""No code path in the package is dead.

Read with the stdlib ``ast`` module: in every module but ``__init__.py``
each imported name is used in that module, and each private module-level
function, class or constant is referenced somewhere in the package.  No
module imports ``warnings``: its registry is process-wide state, so the
package reports data issues as values or errors instead.  No module but
``ingest.py`` reads a record's private slots or methods.
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


def test_the_checks_see_the_package():
    assert {"_years", "_counts"} <= record_private_names()
    assert {p.name for p in MODULES} >= {"cli.py", "ingest.py", "render.py"}
    assert "_parse_count" in private_definitions(TREES[PACKAGE / "ingest.py"])
    assert "escape" in imported_names(TREES[PACKAGE / "render.py"])

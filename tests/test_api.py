"""The public surface holds the engine: every exported name, module-level
function and class method is either used by the library itself or is one of
its named entry points."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import selfaffine

#: Exported names that nothing inside the library calls: the library's own
#: entry points, for outside callers.
ENTRY_POINTS = ("sample_translations", "write_ifs_file")

PACKAGE = Path(selfaffine.__file__).parent


def _defines(statement, name):
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return statement.name == name
    if isinstance(statement, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in statement.targets)
    if isinstance(statement, ast.AnnAssign):
        return isinstance(statement.target, ast.Name) and statement.target.id == name
    return False


def _references(tree, name):
    """True if ``name`` is read as a name or an attribute anywhere in the
    module outside the top-level statement that defines it."""
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for statement in tree.body
        if not _defines(statement, name)
        for node in ast.walk(statement)
    )


def test_every_export_is_used_by_the_library_or_an_entry_point():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    modules = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    unused = [
        name for name in exported if not any(_references(tree, name) for tree in modules)
    ]
    assert sorted(set(unused) - set(ENTRY_POINTS)) == []
    # an entry point that the library starts calling moves out of the list
    assert sorted(set(ENTRY_POINTS) - set(unused)) == []


def _read_names(node):
    """How often each name, or attribute name, is read in ``node``'s subtree."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _callables(stem, tree):
    """(qualified name, definition) of each module-level function and class
    method of module ``stem``, but dunder methods and overrides of a method of
    a base class: the code that calls those is outside the library."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            bases = getattr(importlib.import_module(f"selfaffine.{stem}"), node.name).__mro__[1:]
            for method in node.body:
                name = getattr(method, "name", "")
                if (isinstance(method, ast.FunctionDef)
                        and not (name.startswith("__") and name.endswith("__"))
                        and not any(hasattr(base, name) for base in bases)):
                    yield f"{node.name}.{name}", method


def test_every_function_and_method_is_used_by_the_library_or_an_entry_point():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    reads = sum(map(_read_names, modules.values()), Counter())
    unused = [
        qualname
        for stem, tree in modules.items()
        for qualname, definition in _callables(stem, tree)
        if reads[definition.name] == _read_names(definition)[definition.name]
    ]
    assert sorted(set(unused) - set(ENTRY_POINTS)) == []

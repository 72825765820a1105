"""Library code that only tests call does not grow back unseen.

Every top-level function, class and assigned name (a constant or a table)
in ``src/numitn``, and every method that is not a dunder, must be referred
to somewhere in ``src/numitn`` outside its own definition and
``__init__.py``, or in ``perfbench/*.py``. A reference is a name that is
read, an attribute, an imported name or a string that spells the name (the
benchmark's tracer patches functions by string).
Matching is by bare name, so a dead method that shares its name with a
live one goes unseen; a name this test reports is never called.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "numitn"


def _assigned_names(node):
    """The names a top-level assignment binds ("A, B = ..." binds two)."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                yield name.id


def _definitions(tree):
    """(qualified name, bare name, first line, last line) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                yield name, name, node.lineno, node.end_lineno
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every read name, attribute, imported name and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_library_name_has_a_caller():
    definitions = []
    references = {}
    for path in sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.parent == LIBRARY:
            definitions += [(path, *d) for d in _definitions(tree)]
        for name, line in _references(tree):
            references.setdefault(name, []).append((path, line))
    assert definitions
    uncalled = [f"{path.name}: {qualified}"
                for path, qualified, name, first, last in definitions
                if not any(where != path or not first <= line <= last
                           for where, line in references.get(name, ()))]
    assert not uncalled, "no reader outside tests: " + ", ".join(uncalled)

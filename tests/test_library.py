"""The library is what the commands reach: every top-level name, and every
named method of a top-level class, has a reader somewhere else in the
package."""

import ast
from pathlib import Path

import cayleycolour

SRC = Path(cayleycolour.__file__).resolve().parent

ALLOWED = {
    # The package version, read by packaging tools rather than by code.
    "__version__",
    # Rank classification of a compiled rule: the check that refutes every
    # solution of a rule from its table will call it (ROADMAP item 8).
    "classify_rank",
    # Writes the `--rule` file format that `rule_from_json` reads; users and
    # CI export rules with it, no command does.
    "rule_to_json",
    # Right translation: only the benchmark's tracer and tests reach it, until
    # the tracer stops wrapping it (ROADMAP item 5a) and it can go.
    "Ball.right_table",
    # The word-object definitions of canonical vertex order and of the unit
    # spelling, which tests check the array ball against.
    "ReducedWord.sort_key",
    "ReducedWord.unit_letters",
    # The word objects tests compare the array ball against.
    "Ball.words",
}


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function, class and
    assigned constant, and (``Class.method``, ...) of each named method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """(name, line, reader) of each name or attribute the module reads:
    reader is None for a bare name, the class for ``self.m`` in a class's
    body, and "" for any other attribute."""
    owners = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
                    owners[node] = cls.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, owners.get(node, "")


def _reads(definition: str, name: str, reader: str | None) -> bool:
    """Whether a read of `name` by `reader` (see `_references`) reads the
    top-level name or ``Class.method`` `definition`: a method only through
    an attribute, and through ``self`` only in its own class."""
    cls, _, method = definition.rpartition(".")
    if not cls:
        return name == definition
    return name == method and reader in ("", cls)


def test_every_name_and_method_has_a_reader():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = {(module, *read) for module, tree in trees.items() for read in _references(tree)}
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, first, last in _definitions(tree)
        if name not in ALLOWED
        # A definition's own body (a recursive call) does not count.
        and not any(
            _reads(name, n, reader) and not (m == module and first <= line <= last)
            for m, n, line, reader in references
        )
    ]
    assert not unread, f"names and methods no other code in the package reads: {unread}"


def test_every_allowed_name_is_still_defined():
    defined = {name for path in SRC.glob("*.py") for name, _, _ in _definitions(ast.parse(path.read_text()))}
    assert ALLOWED <= defined, f"allowlisted names with no definition left: {sorted(ALLOWED - defined)}"

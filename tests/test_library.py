"""The library is what the commands reach: every top-level name in the
package has a reader somewhere else in the package."""

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
}


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function, class and
    assigned constant."""
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


def _references(tree: ast.Module):
    """(name, line) of each name or attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_top_level_name_has_a_reader():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = {(module, name, line) for module, tree in trees.items() for name, line in _references(tree)}
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, first, last in _definitions(tree)
        if name not in ALLOWED
        # A definition's own body (a recursive call) does not count.
        and not any(n == name and not (m == module and first <= line <= last) for m, n, line in references)
    ]
    assert not unread, f"top-level names no other code in the package reads: {unread}"


def test_every_allowed_name_is_still_defined():
    defined = {name for path in SRC.glob("*.py") for name, _, _ in _definitions(ast.parse(path.read_text()))}
    assert ALLOWED <= defined, f"allowlisted names with no definition left: {sorted(ALLOWED - defined)}"

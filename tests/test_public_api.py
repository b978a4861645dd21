"""Every public module-level function and class of ``aag`` is used by the
package itself, so no API survives that only tests call."""

import ast

from conftest import REPO

PACKAGE = REPO / "src" / "aag"
# entry points for checking the SQL pipeline from outside the package
ALLOWED = {"oracle_eval", "run_plan"}


def _uses(*nodes) -> set[str]:
    """The names and attribute names read anywhere in ``nodes``; imports do
    not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_used_in_the_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        elsewhere = _uses(*(t for m, t in trees.items() if m != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in ALLOWED
                    and node.name not in elsewhere
                    and node.name not in _uses(*(n for n in tree.body
                                                 if n is not node))):
                unused.append(f"{module}.{node.name}")
    assert unused == []

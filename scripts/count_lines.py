#!/usr/bin/env python3
"""Count the lines of the Python files under src/aag by kind: docstring
lines (module, class and function docstrings, found with ``ast``), comment
lines (a leading ``#``), blank lines, and code (the rest).

    python scripts/count_lines.py
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    kinds = {"code": 0, "docstrings": 0, "comments": 0, "blank": 0}
    for n, line in enumerate(text.splitlines(), 1):
        kind = ("docstrings" if n in docs else "blank" if not line.strip()
                else "comments" if line.lstrip().startswith("#") else "code")
        kinds[kind] += 1
    return kinds


def main() -> None:
    total = {"code": 0, "docstrings": 0, "comments": 0, "blank": 0}
    for path in sorted(Path(ROOT, "src/aag").rglob("*.py")):
        for kind, n in count(path).items():
            total[kind] += n
    print(f"src/aag: {sum(total.values())} lines")
    for kind, n in total.items():
        print(f"  {kind}: {n}")


if __name__ == "__main__":
    main()

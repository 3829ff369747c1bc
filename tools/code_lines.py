"""Count the code lines of a Python source tree: every line but blank
lines, comment-only lines and the lines of docstrings (of modules,
classes and functions), per module and in total.

    python tools/code_lines.py [root ...]     (default: src)
"""

import ast
import pathlib
import sys


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that docstrings take up in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def main(roots) -> None:
    total = 0
    for root in map(pathlib.Path, roots):
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])

"""Public names: every entry of each __all__ imports and resolves; and
the name of the double context stays inside the contexts' module."""

import ast
import importlib
from pathlib import Path

import pytest

import kummer_asym


@pytest.mark.parametrize("module_name", ["kummer_asym"])
def test_star_import_binds_every_public_name(module_name):
    module = importlib.import_module(module_name)
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


class _NativeUses(ast.NodeVisitor):
    """Each use of the name NATIVE in a module, with the function or class
    path it appears in ("" at module level)."""

    def __init__(self):
        self.scope, self.uses = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Name(self, node):
        if node.id == "NATIVE":
            self.uses.append((".".join(self.scope), type(node.ctx).__name__))

    def visit_alias(self, node):
        if "NATIVE" in (node.name, node.asname):
            self.uses.append((".".join(self.scope), "import"))


def test_no_code_outside_the_contexts_names_the_double_one():
    # what differs by mode is a context's constants or a routine of
    # ctx.loops; a test of the context (ctx is NATIVE) would split the
    # code by mode again.  NATIVE is named where it is defined and where
    # Precision.ctx hands it out, nowhere else in the package.
    package = Path(kummer_asym.__file__).parent
    uses = {}
    for path in sorted(package.rglob("*.py")):
        visitor = _NativeUses()
        visitor.visit(ast.parse(path.read_text()))
        if visitor.uses:
            uses[path.relative_to(package).as_posix()] = visitor.uses
    assert uses == {"special/types.py": [("", "Store"),
                                         ("Precision.ctx", "Load")]}

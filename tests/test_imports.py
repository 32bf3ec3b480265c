"""Every module-level import in the package is used, and every public
tensor_core function is used by the package.

Read with the standard library's ``ast``: a name bound by a top-level
``import`` or ``from ... import`` must be read somewhere in its module,
or be listed in the module's ``__all__`` (a re-export).  A top-level
public function of ``tensor_core`` must be referenced from another
module of the package (tests do not count), so that each op keeps the
one form that the package runs.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "twobranch"


def unused_imports(source):
    """Names that top-level imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_checker_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a import b, c\n"
              "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def tensor_core_references(source):
    """Names that ``source`` reads from tensor_core: imported from it by
    name, or read as an attribute of the module under any alias."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "tensor_core":
                names.update(alias.name for alias in node.names)
            elif node.module is None:
                aliases.update(alias.asname or alias.name
                               for alias in node.names
                               if alias.name == "tensor_core")
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    return names


def public_functions(source):
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_"))


def test_reference_finder_reads_both_import_forms():
    source = ("from .tensor_core import a, b as c\n"
              "def f():\n    from . import tensor_core as tc\n"
              "    return tc.d(c)\n"
              "other.e()\n")
    assert tensor_core_references(source) == {"a", "b", "d"}
    assert public_functions("def a(): pass\ndef _b(): pass\n"
                            "class C:\n    def m(self): pass\n") == ["a"]


def test_every_tensor_core_function_used_by_the_package():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "tensor_core.py":
            used |= tensor_core_references(path.read_text(encoding="utf-8"))
    source = (PACKAGE / "tensor_core.py").read_text(encoding="utf-8")
    assert [name for name in public_functions(source)
            if name not in used] == []

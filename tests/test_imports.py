"""Every module-level import in the package is used.

Read with the standard library's ``ast``: a name bound by a top-level
``import`` or ``from ... import`` must be read somewhere in its module,
or be listed in the module's ``__all__`` (a re-export).
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

"""Every module-level import in the package is used, and every public
name a package module defines is used by the package.

Read with the standard library's ``ast``: a name bound by a top-level
``import`` or ``from ... import`` must be read somewhere in its module,
or be listed in the module's ``__all__`` (a re-export).  A public
(no leading underscore) top-level function or class of any package
module must be referenced by package source outside its own
definition: read by name in its own module, or imported by name from
it or read as an attribute of it in another module.  Tests do not
count, and neither do the re-exports of ``__init__``, so that the
package keeps no entry point that only the tests call.
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


def module_references(tree, module):
    """Names that the parsed source ``tree`` reads from the package
    module ``module``: imported from it by name, or read as an
    attribute of the module under any alias."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == module:
                names.update(alias.name for alias in node.names)
            elif node.module is None:
                aliases.update(alias.asname or alias.name
                               for alias in node.names
                               if alias.name == module)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    return names


def unused_public_names(sources):
    """(module, name) of every public top-level function or class in
    ``sources`` (module name -> source) that no source references
    outside its own definition; ``__init__`` references count for
    nothing."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    unused = []
    for module, tree in sorted(trees.items()):
        used = set()
        for other, other_tree in trees.items():
            if other not in (module, "__init__"):
                used |= module_references(other_tree, module)
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in used):
                continue
            if not any(isinstance(ref, ast.Name) and ref.id == node.name
                       for other in tree.body if other is not node
                       for ref in ast.walk(other)):
                unused.append((module, node.name))
    return unused


def test_reference_finder_reads_both_import_forms():
    source = ("from .tensor_core import a, b as c\n"
              "def f():\n    from . import tensor_core as tc\n"
              "    return tc.d(c)\n"
              "other.e()\n")
    assert module_references(ast.parse(source), "tensor_core") == \
        {"a", "b", "d"}


def test_checker_finds_an_unused_public_name():
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("def by_name(): pass\ndef by_attribute(): pass\n"
              "def exported(): pass\ndef recursive(): return recursive()\n"
              "def _private(): pass\nclass Local:\n    def m(self): pass\n"
              "LOCAL = Local()\nclass Unused: pass\n"),
        "b": ("from .a import by_name\nfrom . import a as alias\n"
              "by_name(alias.by_attribute())\n"),
    }
    assert unused_public_names(sources) == [
        ("a", "exported"), ("a", "recursive"), ("a", "Unused")]


def test_every_public_name_used_by_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert unused_public_names(sources) == []

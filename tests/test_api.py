"""Every public name of the package has a caller in the package itself, and the modules layer.

A name counts as called when some module under src/qsslab other than
__init__.py reads it (an ast Name or Attribute in load context) outside
the top-level definition that binds it.  Docstrings, comments, imports and
tests do not count.  The public methods of exported classes are held to
the same rule.

The modules import each other at module level only, and their imports
form no cycle: each module builds on the ones below it.
"""

import ast
import functools
import graphlib
import types
from pathlib import Path

import qsslab

SRC = Path(qsslab.__file__).resolve().parent

#: Public names kept without a caller in the package, each with its reason.
UNCALLED = {
    "attack_threshold34_pair12": "the paper's security example on the ((3,4)) scheme",
    "attack_threshold34_pair23": "the paper's security example on the ((3,4)) scheme",
    "threshold_structure": "the paper's threshold access structures",
    "von_neumann_entropy": "the dense entropy reference that the tests compare against",
}


def read_names(tree):
    """Names a module reads, leaving out each top-level definition's reads of its own name."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def public_names():
    return {
        name for name in qsslab.__all__
        if not isinstance(getattr(qsslab, name), types.ModuleType)
    }


def public_methods():
    """Each public method or property of an exported class, as its key "Class.name" -> name."""
    kinds = (types.FunctionType, classmethod, staticmethod, property, functools.cached_property)
    return {
        f"{name}.{attr}": attr
        for name in public_names() if isinstance(cls := getattr(qsslab, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and isinstance(value, kinds)
    }


def called_names():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            found |= read_names(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_every_public_name_has_a_caller_in_the_package():
    assert sorted(public_names() - called_names() - UNCALLED.keys()) == []


def test_every_public_method_of_an_exported_class_has_a_caller_in_the_package():
    called = called_names()
    assert sorted(key for key, attr in public_methods().items() if attr not in called) == []


def test_the_uncalled_list_names_only_exported_names_without_a_caller():
    assert sorted(UNCALLED.keys() - public_names()) == []
    assert sorted(UNCALLED.keys() & called_names()) == []


def test_reads_of_a_name_inside_its_own_definition_do_not_count():
    tree = ast.parse(
        "def loop(n):\n    return loop(n - 1)\n"
        "TABLE = 1\n"
        "def user():\n    return obj.helper\n"
    )
    assert read_names(tree) == {"n", "obj", "helper"}


def package_trees():
    """Module name -> ast of each module under src/qsslab, __init__ included."""
    paths = sorted(SRC.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def package_imports(tree):
    """Package modules a module imports: x of `from .x import ...` and of `from . import x`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_no_import_sits_inside_a_function():
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    nested = {
        f"{name}.py:{node.lineno}"
        for name, tree in package_trees().items()
        for function in ast.walk(tree) if isinstance(function, functions)
        for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert sorted(nested) == []


def test_the_package_import_graph_is_acyclic():
    graph = {name: package_imports(tree) for name, tree in package_trees().items()}
    # both relative forms are read: `from . import x` and `from .x import y`
    assert graph["cli"] >= {"protocols", "qstate", "schemes", "structures", "verifier"}
    assert graph["verifier"] >= {"qstate", "schemes", "structures"}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


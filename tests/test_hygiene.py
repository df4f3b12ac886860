"""Source hygiene of ``src/qmeasure``, checked with ``ast`` alone.

Every name a module imports is used in that module (``__init__.py`` is
exempt: it imports to re-export), every parameter of every function is read
in its body (the receivers ``self`` and ``cls`` are exempt: Python binds
them, not the caller), and every name in ``qmeasure.__all__`` resolves.
"""

import ast
import pathlib

import pytest

import qmeasure

PACKAGE = pathlib.Path(qmeasure.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
RECEIVERS = {"self", "cls"}


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name read, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def unread_parameters(tree: ast.AST) -> list[str]:
    """``function:parameter`` for each parameter its function body never reads."""
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            reads = {n.id for stmt in node.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{node.name}:{p}" for p in params if p not in reads | RECEIVERS]
    return unread


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_parameter_is_read(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert unread_parameters(tree) == []


def test_every_exported_name_resolves():
    assert [name for name in qmeasure.__all__ if not hasattr(qmeasure, name)] == []

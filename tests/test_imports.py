"""Every name a package module imports, and every module-private
top-level name it defines, is used in that module.

Deleting code tends to leave its imports and private helpers behind;
this catches them with the standard-library parser, no linter needed.
An imported name counts as used when it is read anywhere in the module
or listed in ``__all__``; a private name when it is read anywhere in
the module.
"""

import ast
from pathlib import Path

import pytest

import tokenhier

MODULES = sorted(Path(tokenhier.__file__).parent.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports but never uses: {unused}"


def private_definitions(tree):
    """``_``-prefixed functions, classes and constants at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = {name for name in private_definitions(tree)
               if name.startswith("_") and not name.startswith("__")}
    unread = sorted(private - read_names(tree))
    assert not unread, f"{path.name} defines but never reads: {unread}"


def starred_calls(tree):
    """Calls that pass ``**`` of a mapping, outside ``read_config``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "read_config":
            skip.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in skip
                and any(k.arg is None for k in node.keywords)):
            yield node


def test_one_config_reader():
    """``checkpoint.read_config`` is the one place that builds a config
    dataclass from ``**`` of a dict, so its type rules cannot split into
    partial copies again.  ``SuiteSpec`` (a synthetic-suite recipe, not
    a run config) is built from the suite table the same way."""
    found = []
    for path in MODULES:
        for call in starred_calls(ast.parse(path.read_text(encoding="utf-8"))):
            callee = ast.unparse(call.func)
            if callee != "SuiteSpec":
                found.append(f"{path.name}:{call.lineno} {callee}(**...)")
    assert not found, f"config built outside read_config: {found}"

"""Which modules an import loads, checked in a fresh interpreter.

The command line front end must start without compiling the mathematics
(quantum, schur), the sweeps or the process pool, since `affineschur verify
--help` and every payload verb pay for each module they load; the
mathematics must not depend on the checks that verify it; and the package
runs on its one kernel module, the one the benchmark stamps.  Every name a
module exports in __all__ exists, so `from ... import *` survives a
deletion, and every name a module imports is read, so a deletion leaves no
stale import behind.  Every exported name also has a caller outside the
tests, so the package exports no API that only its tests use; a re-export
in __init__.py is no caller.  No module of the package, and neither the
oracles nor the sweep cache the tests check it against, holds an assert
statement or reads __debug__, since python -O drops both and a check must
hold under it.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import affineschur

SRC = os.path.dirname(os.path.dirname(os.path.abspath(affineschur.__file__)))


def _loaded_after(module: str) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "module, absent",
    [
        (
            "affineschur.cli",
            {
                "affineschur.quantum",
                "affineschur.schur",
                "affineschur._sweeps",
                # verify all's process pool is imported when it runs
                "multiprocessing",
                "concurrent.futures.process",
            },
        ),
        ("affineschur.quantum", {"affineschur._sweeps", "affineschur.verify"}),
        # the kernels are _kernels_py alone: a stale built _kernels*.so stays unloaded
        ("affineschur", {"affineschur._kernels"}),
    ],
)
def test_import_does_not_load(module, absent):
    loaded = _loaded_after(module)
    assert module in loaded
    assert not absent & loaded, sorted(absent & loaded)


def test_the_kernels_are_the_pure_module():
    # perfbench/run.py stamps BACKEND on every run, and tools/bench_pair.py
    # pairs only runs with the same stamp
    from affineschur import _backend, _kernels_py

    assert affineschur.BACKEND == "pure-python"
    assert _backend.kernels is _kernels_py


MODULES = ["affineschur"] + [f"affineschur.{m.name}" for m in pkgutil.iter_modules(affineschur.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing
    exec(f"from {module} import *", {})


def _annotation_names(node) -> set:
    """Names read in a quoted annotation such as "HeckeElement | int"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def _names_read(scope) -> set:
    read = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        for field in ("annotation", "returns"):
            read |= _annotation_names(getattr(node, field, None))
    return read


def _imports(node, scope, out: list) -> list:
    """(scope, import) pairs below node, where scope is the innermost
    function around the import, or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            out.append((scope, child))
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        _imports(child, inner, out)
    return out


def _exports(tree) -> list:
    """The names a module lists in __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _unused_imports(tree) -> list:
    """(line, name) for each name an import binds and its scope never reads.
    Names in __all__ count as read at module level."""
    exported = set(_exports(tree))
    unused = []
    for scope, node in _imports(tree, tree, []):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        read = _names_read(scope) | (exported if scope is tree else set())
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


SOURCES = sorted(pathlib.Path(affineschur.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert not _unused_imports(ast.parse(path.read_text(), filename=str(path)))


def _references(tree) -> set:
    """The names a module reads, as a Name, an Attribute or an import; a
    def, a class and a string in __all__ are none of these."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return refs


def test_every_exported_name_has_a_caller_outside_the_tests():
    # the callers: the package itself, the benchmark harness and the tools;
    # an __init__.py only re-exports a name, which calls nothing
    root = pathlib.Path(SRC).parent
    callers = [
        p for d in ("src", "perfbench", "tools") for p in sorted((root / d).rglob("*.py")) if p.name != "__init__.py"
    ]
    refs = set().union(*(_references(ast.parse(p.read_text(), filename=str(p))) for p in callers))
    unused = [f"{p.stem}.{name}" for p in SOURCES for name in _exports(ast.parse(p.read_text())) if name not in refs]
    assert not unused, unused


TESTS = pathlib.Path(__file__).parent
CHECKED_UNDER_O = sorted(pathlib.Path(SRC).rglob("*.py")) + [TESTS / "oracles.py", TESTS / "sweep_cache.py"]


def _dropped_under_o(tree) -> list:
    """(line, what) for each assert statement and each read of __debug__."""
    return [
        (node.lineno, "assert" if isinstance(node, ast.Assert) else node.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]


@pytest.mark.parametrize("path", CHECKED_UNDER_O, ids=lambda p: p.name)
def test_no_check_is_dropped_under_o(path):
    assert not _dropped_under_o(ast.parse(path.read_text(), filename=str(path)))

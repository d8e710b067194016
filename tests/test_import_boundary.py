"""Which modules an import loads, checked in a fresh interpreter.

The command line front end must start without compiling the mathematics
(quantum, schur), the sweeps or the process pool, since `affineschur verify
--help` and every payload verb pay for each module they load; the
mathematics must not depend on the checks that verify it; and the package
runs on its one kernel module, the one the benchmark stamps.  Every name a
module exports in __all__ exists, so `from ... import *` survives a
deletion.
"""

import importlib
import os
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

"""Which modules an import loads, checked in a fresh interpreter.

The command line front end must start without compiling the mathematics
(quantum, schur) or the sweeps, since `affineschur verify --help` and every
payload verb pay for each module they load; and the mathematics must not
depend on the checks that verify it.
"""

import os
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
        ("affineschur.cli", {"affineschur.quantum", "affineschur.schur", "affineschur._sweeps"}),
        ("affineschur.quantum", {"affineschur._sweeps", "affineschur.verify"}),
    ],
)
def test_import_does_not_load(module, absent):
    loaded = _loaded_after(module)
    assert module in loaded
    assert not absent & loaded, sorted(absent & loaded)

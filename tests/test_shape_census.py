"""Every public entry that takes two or more ranked objects refuses a
mismatch of their shapes, before any work.

The census takes each callable named in a module's __all__, and each method
of an exported class, whose parameter annotations name two or more ranked
types: Weight, WindowPerm, the element classes and KLTable.  A method's
self counts as an object of its class.  Each is called once on objects of
one shape, n = 4 and r = 3, and must succeed.  Then, for each argument and
each of n and r that it shares with another argument, it is called with that
one value raised by 1.  Every such call must raise ValueError, and no
kernel of the pure-Python backend may run before it does.
"""

import importlib
import inspect
import pkgutil
import sys

import pytest

import affineschur
from affineschur import _kernels_py
from affineschur.hecke import HeckeElement, KLTable, t_basis
from affineschur.quantum import TensorOperator, TensorVector, UElement
from affineschur.schur import QTensorElement, SchurElement, Weight, omega, phi
from affineschur.weyl import WindowPerm

N, R = 4, 3

# one object of each ranked type at (n, r)
SAMPLES = {
    Weight: lambda n, r: omega(n, r),
    WindowPerm: lambda n, r: WindowPerm.s(r, 1),
    HeckeElement: lambda n, r: t_basis(WindowPerm.s(r, 1)),
    SchurElement: lambda n, r: phi(omega(n, r), omega(n, r), WindowPerm.s(r, 1)),
    QTensorElement: lambda n, r: QTensorElement.basis(omega(n, r), WindowPerm.s(r, 1)),
    TensorVector: lambda n, r: TensorVector.unit(n, tuple(range(1, r + 1))),
    UElement: lambda n, r: UElement.E(n, 1),
    TensorOperator: lambda n, r: TensorOperator(n, r, lambda key: TensorVector.unit(n, key)),
    KLTable: lambda n, r: KLTable(r),
}
RANKED = {cls.__name__: cls for cls in SAMPLES}


def _ranked(annotation) -> type | None:
    """The ranked type an annotation names as one of its | members."""
    text = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
    members = [m.strip(" '\"") for m in text.strip("'\"").split("|")]
    return next((RANKED[m] for m in members if m in RANKED), None)


def _exported():
    """(qualified name, callable, owning class or None) for every function
    named in an __all__ of the package and every method of an exported
    class, a classmethod bound to its class and any other method unbound."""
    seen = {}
    for info in pkgutil.iter_modules(affineschur.__path__):
        mod = importlib.import_module(f"affineschur.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                seen[f"{obj.__module__}.{name}"] = (obj, None)
            elif inspect.isclass(obj):
                for attr in dir(obj):
                    if attr.startswith("_") and attr not in ("__mul__", "__call__"):
                        continue
                    if inspect.isfunction(inspect.getattr_static(obj, attr)) or inspect.ismethod(getattr(obj, attr)):
                        seen[f"{obj.__module__}.{name}.{attr}"] = (getattr(obj, attr), obj)
    return [(name, fn, owner) for name, (fn, owner) in sorted(seen.items())]


def _census() -> list[tuple]:
    """(name, callable, [ranked type per parameter]) for every entry that
    takes two or more ranked objects."""
    out = []
    for name, fn, owner in _exported():
        params = list(inspect.signature(fn).parameters.values())
        types = [_ranked(p.annotation) for p in params]
        if owner is not None and params and params[0].name == "self":
            types[0] = owner if owner in SAMPLES else None
        if sum(t is not None for t in types) >= 2:
            out.append((name, fn, types))
    return out


CENSUS = _census()


def test_the_census_finds_the_known_entries():
    known = {"schur.phi", "schur.QTensorElement.basis", "schur.theta", "quantum.act_tensor", "hecke.KLTable.polynomial"}
    assert {f"affineschur.{name}" for name in known} <= {name for name, _, _ in CENSUS}


def _shifted_calls(types: list) -> list[tuple]:
    """(label, args) with one argument's n or r raised by 1, for each value
    that argument shares with another one."""
    base = [SAMPLES[t](N, R) for t in types]
    calls = []
    for pos, obj in enumerate(base):
        for attr in ("n", "r"):
            if not hasattr(obj, attr) or not any(hasattr(o, attr) for k, o in enumerate(base) if k != pos):
                continue
            args = list(base)
            args[pos] = SAMPLES[types[pos]](N + (attr == "n"), R + (attr == "r"))
            calls.append((f"argument {pos} with {attr} + 1", args))
    return calls


@pytest.mark.parametrize("name, fn, types", CENSUS, ids=[name for name, _, _ in CENSUS])
def test_a_shape_mismatch_is_refused_before_any_work(name, fn, types):
    assert None not in types, f"{name} takes a parameter with no ranked sample: {types}"
    fn(*[SAMPLES[t](N, R) for t in types])
    calls = _shifted_calls(types)
    assert calls
    for label, args in calls:
        kernel_calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__") == _kernels_py.__name__:
                kernel_calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            with pytest.raises(ValueError):
                fn(*args)
        finally:
            sys.setprofile(None)
        assert not kernel_calls, (label, kernel_calls)

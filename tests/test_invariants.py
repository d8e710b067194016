"""Library invariants must hold under `python -O`, which strips `assert`
statements, so the package states them as explicit raises.  The element
classes keep one copy of their linear structure, in the shared base."""

import ast
import pathlib

import pytest

from affineschur import quantum
from affineschur.hecke import KLTable, t_basis
from affineschur.laurent import Laurent, LaurentCombination
from affineschur.weyl import WindowPerm

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "affineschur"
MODULES = sorted(SRC.glob("*.py"))


def test_the_package_has_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


# base methods that subclasses are meant to override
BASE_HOOKS = {"_check_shape"}
BASE_METHODS = {
    name for name, obj in vars(LaurentCombination).items()
    if callable(obj) or isinstance(obj, (classmethod, staticmethod))
} - BASE_HOOKS


def _element_classes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
            if "LaurentCombination" in bases:
                yield node


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def test_the_base_provides_the_linear_structure():
    assert {"_raw", "zero", "__add__", "__sub__", "__neg__", "scale", "__rmul__", "is_zero",
            "__bool__", "__len__", "__eq__"} <= BASE_METHODS


def test_the_five_element_classes_use_the_base():
    found = {cls.name for path in MODULES for cls in _element_classes(ast.parse(path.read_text()))}
    assert found == {"HeckeElement", "SchurElement", "QTensorElement", "UElement", "TensorVector"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_element_classes_do_not_redefine_the_base(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    redefined = [
        f"{cls.name}.{name} (line {node.lineno})"
        for cls in _element_classes(tree)
        for node in cls.body
        for name in _defined_names(node)
        if name in BASE_METHODS
    ]
    assert not redefined, f"{path.name}: redefines the shared base in {redefined}"


def test_kl_degree_bound_raises(monkeypatch):
    table = KLTable(3)
    monkeypatch.setattr(table, "_kl_compute", lambda y, w: {10: 1})
    with pytest.raises(ArithmeticError, match="degree bound"):
        table.polynomial(WindowPerm.identity(3), WindowPerm.s(3, 1))


@pytest.fixture
def empty_row_memo():
    """quantum's memo of Bernstein rows, emptied before and after the test:
    a row cached by an earlier test would skip the rewrite under test, and
    a row filled here must not reach a later one."""
    quantum._basis_rows.cache_clear()
    yield
    quantum._basis_rows.cache_clear()


def test_bernstein_rows_need_a_finite_tail(monkeypatch, empty_row_memo):
    rho = WindowPerm.rho(3)
    monkeypatch.setattr(quantum, "to_bernstein_basis", lambda h: {((0, 0, 0), rho): Laurent.one()})
    with pytest.raises(ValueError, match="finite tail"):
        quantum._bernstein_assoc(t_basis(rho))


def test_a_row_without_a_finite_tail_is_never_stored(monkeypatch, empty_row_memo):
    rho = WindowPerm.rho(3)
    monkeypatch.setattr(quantum, "to_bernstein_basis", lambda h: {((0, 0, 0), rho): Laurent.one()})
    with pytest.raises(ValueError, match="finite tail"):
        quantum._bernstein_assoc(t_basis(rho))
    assert quantum._basis_rows.cache_info().currsize == 0

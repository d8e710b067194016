"""Library invariants must hold under `python -O`, which strips `assert`
statements, so the package states them as explicit raises."""

import ast
import pathlib

import pytest

from affineschur import quantum
from affineschur.hecke import KLTable, t_basis
from affineschur.laurent import Laurent
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


def test_kl_degree_bound_raises(monkeypatch):
    table = KLTable(3)
    monkeypatch.setattr(table, "_kl_compute", lambda y, w: {10: 1})
    with pytest.raises(ArithmeticError, match="degree bound"):
        table.polynomial(WindowPerm.identity(3), WindowPerm.s(3, 1))


def test_bernstein_rows_need_a_finite_tail(monkeypatch):
    rho = WindowPerm.rho(3)
    monkeypatch.setattr(quantum, "to_bernstein_basis", lambda h: {((0, 0, 0), rho): Laurent.one()})
    with pytest.raises(ValueError, match="finite tail"):
        quantum._bernstein_assoc(t_basis(rho))

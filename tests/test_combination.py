"""The linear structure shared by the five element classes, and the one
merge helper behind it."""

import random

import pytest

from affineschur.hecke import HeckeElement, t_basis
from affineschur.laurent import Laurent, LaurentCombination, addmul_into, addmul_term
from affineschur.quantum import TensorVector, UElement
from affineschur.schur import QTensorElement, SchurElement, Weight, phi
from affineschur.weyl import WindowPerm

V = Laurent.v


def _hecke():
    x = t_basis(WindowPerm.s(3, 1)).scale(V(1) + 2) + HeckeElement.unit(3)
    return x, HeckeElement.unit(4)


def _schur():
    lam, mu = Weight(3, 3, (2, 1, 0)), Weight(3, 3, (1, 1, 1))
    x = phi(lam, mu, WindowPerm.identity(3)).scale(V(-1)) + SchurElement.identity(3, 3)
    return x, SchurElement.zero(4, 3)


def _qtensor():
    lam = Weight(3, 3, (1, 1, 1))
    x = QTensorElement.basis(lam, WindowPerm.s(3, 2)) + QTensorElement.basis(lam, WindowPerm.rho(3)).scale(3)
    return x, QTensorElement.zero(4, 3)


def _uelement():
    return UElement.E(3, 1) * UElement.F(3, 2) + UElement.K(3, 2).scale(V(2)), UElement.one(4)


def _tensor():
    x = TensorVector.unit(3, (1, 2, 3)) + TensorVector.unit(3, (0, 5, 1)).scale(V(1) - 1)
    return x, TensorVector.zero(3, 2)


MAKERS = {"hecke": _hecke, "schur": _schur, "qtensor": _qtensor, "uelement": _uelement, "tensor": _tensor}


@pytest.fixture(params=sorted(MAKERS))
def pair(request):
    return MAKERS[request.param]()


def test_negation_cancels(pair):
    x, _ = pair
    assert isinstance(x, LaurentCombination)
    assert x and len(x) == len(x._terms) >= 2
    for zero in (x + (-x), x - x, -x + x):
        assert type(zero) is type(x)
        assert zero.is_zero() and not zero and len(zero) == 0
        assert zero == x.zero(*x._shape())
    assert -(-x) == x
    assert x - (-x) == x.scale(2)


def test_scale(pair):
    x, _ = pair
    zero = x.zero(*x._shape())
    assert x.scale(0) == zero
    assert x.scale(Laurent(0)) == zero
    assert x.scale(-1) == -x
    assert x.scale(Laurent.one()) == x
    assert 2 * x == x.scale(2) == x + x
    assert V(2) * x == x.scale(V(2))
    assert x.scale(V(1)).scale(V(-1)) == x


def test_linear_ops_do_not_mutate_operands(pair):
    x, _ = pair
    before = {k: dict(c) for k, c in x._terms.items()}
    x + x, x - x, -x, x.scale(V(2)), 3 * x
    assert x._terms == before


def test_shape_mismatch_raises(pair):
    x, other = pair
    with pytest.raises(ValueError):
        x + other
    with pytest.raises(ValueError):
        x - other
    assert x != other


def test_equality_is_within_one_class(pair):
    x, _ = pair
    assert not (x == 1) and x != 1
    assert not (x == 0) and x != 0
    for make in MAKERS.values():
        y, _ = make()
        if type(y) is not type(x):
            assert not (x == y) and x != y
            with pytest.raises(TypeError):
                x + y


def test_only_hecke_elements_are_hashable(pair):
    x, _ = pair
    if isinstance(x, HeckeElement):
        assert hash(x) == hash(x + x.zero(x.r))
        assert len({x, x.scale(1), -x}) == 2
    else:
        with pytest.raises(TypeError):
            hash(x)


def _rand_lp(rng):
    return {e: c for e, c in ((rng.randrange(-3, 4), rng.randrange(-2, 3)) for _ in range(rng.randrange(3))) if c}


def _reference(out, terms, coeff):
    want = {k: Laurent(c) for k, c in out.items()}
    factor = Laurent.one() if coeff is None else Laurent(coeff)
    for k, c in terms.items():
        want[k] = want.get(k, Laurent.zero()) + Laurent(c) * factor
    return {k: c.raw() for k, c in want.items() if c}


def test_addmul_into_never_leaves_an_empty_coefficient():
    rng = random.Random(20250825)
    cancelled = 0
    for _ in range(400):
        keys = range(rng.randrange(1, 5))
        out = {k: c for k in keys if (c := _rand_lp(rng))}
        # empty coefficients on the right may appear; they must not land in out
        terms = {k: _rand_lp(rng) for k in keys if rng.random() < 0.8}
        coeff = rng.choice([None, {}, {0: -1}, {1: 1}, {0: 2, -1: -1}])
        if coeff == {0: -1} and rng.random() < 0.5:
            terms = {k: dict(c) for k, c in out.items()}
        want = _reference(out, terms, coeff)
        before, had = {k: dict(c) for k, c in terms.items()}, set(out)
        by_key = {k: dict(c) for k, c in out.items()}
        addmul_into(out, terms, coeff)
        assert all(out.values()), out
        assert out == want
        assert terms == before
        for k, c in terms.items():
            addmul_term(by_key, k, c, coeff)
        assert all(by_key.values()), by_key
        assert by_key == want
        assert terms == before
        cancelled += bool(had - set(out))
    assert cancelled

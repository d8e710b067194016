"""The linear structure, JSON shape, term order and repr shared by the five
element classes, and the one merge helper behind them."""

import json
import random
import re

import pytest

from affineschur.hecke import HeckeElement, t_basis
from affineschur.laurent import Laurent, LaurentCombination, addmul_into, addmul_term
from affineschur.quantum import GeneratorWord, TensorVector, UElement
from affineschur.schur import QTensorElement, SchurElement, Weight, all_weights, phi
from affineschur.weyl import WindowPerm, enumerate_up_to_length

import oracles

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


# -- the JSON shape, term order and repr come from the base -----------------


def _seeded_lp(rng):
    """A nonzero Laurent coefficient, often with negative exponents."""
    while True:
        c = Laurent({rng.randrange(-4, 4): rng.choice([-3, -1, 1, 2]) for _ in range(rng.randrange(1, 4))})
        if c:
            return c


def _seeded_sum(rng, zero, basis, count):
    x = zero
    for _ in range(count):
        x = x + basis(rng).scale(_seeded_lp(rng))
    return x


def _windows(r):
    return enumerate_up_to_length(r, 3, extended=True, rho_bound=2)


def _seeded_hecke(rng):
    pool = _windows(3)
    return _seeded_sum(rng, HeckeElement.zero(3), lambda rng: t_basis(rng.choice(pool)), rng.randrange(1, 6))


def _seeded_schur(rng):
    pool, lams = _windows(3), all_weights(3, 3)
    basis = lambda rng: phi(rng.choice(lams), rng.choice(lams), rng.choice(pool))
    return _seeded_sum(rng, SchurElement.zero(3, 3), basis, rng.randrange(1, 4))


def _seeded_qtensor(rng):
    pool, lams = _windows(3), all_weights(3, 3)
    basis = lambda rng: QTensorElement.basis(rng.choice(lams), rng.choice(pool))
    return _seeded_sum(rng, QTensorElement.zero(3, 3), basis, rng.randrange(1, 6))


def _seeded_uelement(rng):
    def word(rng):
        letters = [(rng.choice(["E", "F", "K", "Kinv", "R", "Rinv"]), rng.randint(1, 3)) for _ in range(rng.randrange(4))]
        return UElement.from_word(GeneratorWord(3, letters))

    return _seeded_sum(rng, UElement.zero(3), word, rng.randrange(1, 6))


def _seeded_tensor(rng):
    key = lambda rng: TensorVector.unit(3, [rng.randint(-4, 6) for _ in range(2)])
    return _seeded_sum(rng, TensorVector.zero(3, 2), key, rng.randrange(1, 6))


SEEDED = {
    "hecke": (_seeded_hecke, oracles.hecke_to_obj, oracles.hecke_repr),
    "schur": (_seeded_schur, oracles.schur_to_obj, oracles.schur_repr),
    "qtensor": (_seeded_qtensor, oracles.qtensor_to_obj, oracles.qtensor_repr),
    "uelement": (_seeded_uelement, oracles.uelement_to_obj, oracles.uelement_repr),
    "tensor": (_seeded_tensor, oracles.tensor_to_obj, oracles.tensor_repr),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_json_and_repr_match_their_first_forms(name):
    make, to_obj, first_repr = SEEDED[name]
    rng = random.Random(f"element-codec:{name}")
    elems = [make(rng) for _ in range(12)]
    elems.append(elems[0] - elems[0])
    elems.append(MAKERS[name]()[0])
    assert any(e < 0 for x in elems for c in x._terms.values() for e in c)
    if name in ("hecke", "schur", "qtensor"):
        # every key of these classes ends in a window
        assert any(WindowPerm._unsafe(k if name == "hecke" else k[-1]).rho_power() for x in elems for k in x._terms)
    for x in elems:
        obj = x.to_obj()
        assert json.dumps(obj, sort_keys=True) == json.dumps(to_obj(x), sort_keys=True)
        assert json.dumps(obj) == json.dumps(to_obj(x))
        assert type(x).from_obj(obj) == x
        assert type(x).from_obj(json.loads(json.dumps(obj))) == x
        # the one change: a zero UElement now reads UElement.zero(n), like the other four
        want = f"UElement.zero({x.n})" if name == "uelement" and not x else first_repr(x)
        assert repr(x) == want


@pytest.mark.parametrize("terms", [5, "[]", {"0": 1}, None])
def test_a_term_list_that_is_not_a_json_array_is_refused(pair, terms):
    x, _ = pair
    with pytest.raises(ValueError, match=f"got {type(terms).__name__}"):
        type(x).from_obj({**x.to_obj(), "terms": terms})


BAD_SHAPES = {
    HeckeElement: [(0,), (2,), (-1,)],
    SchurElement: [(0, 3), (3, 0), (3, 2)],
    QTensorElement: [(0, 3), (3, 0), (3, 2)],
    UElement: [(0,), (-2,)],
    TensorVector: [(0, 2), (3, 0)],
}


def test_the_schur_identity_refuses_what_the_constructor_refuses():
    # so do the algebra's one and the tensor unit vectors, whose key's
    # length is the rank r
    ones = [
        (SchurElement, SchurElement.identity),
        (UElement, UElement.one),
        (TensorVector, lambda n, r: TensorVector.unit(n, range(1, r + 1))),
    ]
    for cls, one in ones:
        for shape in BAD_SHAPES[cls]:
            with pytest.raises(ValueError) as want:
                cls(*shape)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                one(*shape)


def test_out_of_domain_shapes_are_refused(pair):
    x, _ = pair
    cls = type(x)
    for shape in BAD_SHAPES[cls]:
        with pytest.raises(ValueError):
            cls.zero(*shape)
        with pytest.raises(ValueError):
            cls(*shape)
        with pytest.raises(ValueError):
            cls.from_obj({**dict(zip(cls._SHAPE, shape)), "terms": []})

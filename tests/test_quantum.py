"""The generator-word algebra, its tensor action, and the Hopf structure."""

import json
import random

import pytest

from affineschur._sweeps import verify_hopf
from affineschur.laurent import Laurent
from affineschur.quantum import (
    GeneratorWord,
    TensorVector,
    UElement,
    act_tensor,
    antipode,
    counit,
    e_omega,
)
from affineschur.schur import Weight

from oracles import act_V, project_weight, y_op
from sweep_cache import cached_verify_hopf

N = 3
V = Laurent.v


def unit(*key):
    return TensorVector.unit(N, key)


# -- words and the algebra --------------------------------------------------


def test_word_validation():
    GeneratorWord(3, [("E", 1), ("R", 0), ("Kinv", 3)])
    with pytest.raises(ValueError):
        GeneratorWord(3, [("X", 1)])
    with pytest.raises(ValueError):
        GeneratorWord(3, [("E", 0)])
    with pytest.raises(ValueError):
        GeneratorWord(3, [("F", 4)])


def test_word_multiplication_concatenates():
    a = GeneratorWord(3, [("E", 1)])
    b = GeneratorWord(3, [("F", 2), ("R", 0)])
    assert (a * b).letters == (("E", 1), ("F", 2), ("R", 0))


def test_algebra_is_associative_and_distributive():
    rng = random.Random(5)
    kinds = [("E", 1), ("F", 2), ("K", 3), ("Kinv", 1), ("R", 0), ("Rinv", 0)]

    def rand_elt():
        total = UElement._raw(N, {})
        for _ in range(rng.randrange(1, 4)):
            word = GeneratorWord(N, [rng.choice(kinds) for _ in range(rng.randrange(3))])
            c = Laurent({rng.randrange(-2, 3): rng.randrange(-3, 4) or 1})
            total = total + UElement.from_word(word).scale(c)
        return total

    for _ in range(25):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- the natural module -----------------------------------------------------


def test_natural_module_rules():
    assert act_V(3, ("E", 1), 2) == unit(1)
    assert act_V(3, ("E", 1), 1).is_zero()
    assert act_V(3, ("E", 1), 3).is_zero()
    assert act_V(3, ("F", 1), 1) == unit(2)
    assert act_V(3, ("F", 1), 2).is_zero()
    assert act_V(3, ("K", 1), 4) == unit(4).scale(V(1))
    assert act_V(3, ("K", 1), 2) == unit(2)
    assert act_V(3, ("Kinv", 1), 4) == unit(4).scale(V(-1))
    assert act_V(3, ("R", 0), 5) == unit(6)
    assert act_V(3, ("Rinv", 0), 5) == unit(4)


def test_natural_module_is_periodic():
    # the rules only see the residue class of the index
    for t in (-6, 3, 9, 12):
        assert act_V(3, ("E", 3), t + 1) == TensorVector.unit(3, (t,))
        assert act_V(3, ("F", 3), t).support() == [(t + 1,)]


def test_two_fold_tensor_action():
    x = TensorVector.unit(3, (2, 2))
    got = act_tensor(UElement.E(3, 1), x)
    want = TensorVector(3, 2, {(1, 2): V(-1), (2, 1): Laurent.one()})
    assert got == want


def test_action_respects_products():
    rng = random.Random(9)
    gens = [UElement.E(N, 1), UElement.F(N, 2), UElement.K(N, 3), UElement.R(N)]
    for _ in range(20):
        a, b = rng.choice(gens), rng.choice(gens)
        key = tuple(rng.randrange(-4, 8) for _ in range(3))
        x = TensorVector.unit(N, key)
        assert act_tensor(a * b, x) == act_tensor(a, act_tensor(b, x))


# -- weights ----------------------------------------------------------------


def test_weight_bookkeeping():
    # E_i moves one slot from residue class i+1 to class i; K_i reads the
    # class-i count as a power of v
    rng = random.Random(3)
    for _ in range(25):
        key = tuple(rng.randrange(-4, 9) for _ in range(3))
        lam = Weight.of_key(key, N)
        for i in (1, 2, 3):
            moved = act_tensor(UElement.E(N, i), TensorVector.unit(N, key))
            for k2, _ in moved.items():
                mu = Weight.of_key(k2, N)
                before, after = list(lam.parts), list(mu.parts)
                before[i - 1] += 1
                before[i % N] -= 1
                assert before == after
            got = act_tensor(UElement.K(N, i), TensorVector.unit(N, key))
            assert got == TensorVector.unit(N, key).scale(V(lam.parts[i - 1]))


def test_weight_projection():
    x = unit(1, 2, 3) + unit(1, 1, 2).scale(V(2)) + unit(4, 2, 3)
    lam = Weight(3, 3, (1, 1, 1))
    assert project_weight(x, lam) == unit(1, 2, 3) + unit(4, 2, 3)


def test_translation_operators_commute_with_generators():
    rng = random.Random(13)
    gens = (
        [UElement.E(N, i) for i in (1, 2, 3)]
        + [UElement.F(N, i) for i in (1, 2, 3)]
        + [UElement.K(N, 1), UElement.R(N), UElement.R_inv(N)]
    )
    for _ in range(20):
        key = tuple(rng.randrange(-4, 9) for _ in range(3))
        x = TensorVector.unit(N, key)
        g = rng.choice(gens)
        t = rng.randrange(1, 4)
        assert y_op(N, 3, t)(act_tensor(g, x)) == act_tensor(g, y_op(N, 3, t)(x))


# -- counit and antipode ----------------------------------------------------


def test_counit_values():
    assert counit(UElement.K(3, 1) * UElement.R(3)) == Laurent.one()
    assert counit(UElement.E(3, 1)) == Laurent.zero()
    assert counit(UElement.F(3, 2) * UElement.K(3, 1)) == Laurent.zero()
    mix = UElement.one(3).scale(V(2)) + UElement.E(3, 1) * UElement.F(3, 1)
    assert counit(mix) == V(2)


def test_antipode_on_grouplikes():
    assert antipode(UElement.R(3)) == UElement.R_inv(3)
    assert antipode(UElement.K(3, 2)) == UElement.K_inv(3, 2)
    assert antipode(UElement.K_inv(3, 1)) == UElement.K(3, 1)


def test_antipode_reverses_products():
    # S(E_1 F_2) = S(F_2) S(E_1), with the signs cancelling
    got = antipode(UElement.E(3, 1) * UElement.F(3, 2))
    want = (
        UElement.K(3, 2)
        * UElement.K_inv(3, 3)
        * UElement.F(3, 2)
        * UElement.E(3, 1)
        * UElement.K_inv(3, 1)
        * UElement.K(3, 2)
    )
    assert got == want
    rng = random.Random(21)
    kinds = [("E", 2), ("F", 1), ("K", 2), ("Kinv", 3), ("R", 0)]
    for _ in range(15):
        a = UElement.from_word(GeneratorWord(3, [rng.choice(kinds) for _ in range(2)]))
        b = UElement.from_word(GeneratorWord(3, [rng.choice(kinds) for _ in range(2)]))
        assert antipode(a * b) == antipode(b) * antipode(a)


def test_antipode_squares_grouplikes_back():
    for u in (UElement.R(3), UElement.K(3, 1), UElement.K_inv(3, 2)):
        assert antipode(antipode(u)) == u


# -- the full relation sweep ------------------------------------------------


def test_hopf_sweep_rank_three():
    checks = cached_verify_hopf(3, 3, 6)
    bad = [c for c in checks if not c[1]]
    assert not bad, bad[:3]
    assert len(checks) > 200


def test_hopf_sweep_names_are_sorted():
    checks = verify_hopf(3, 1, 2)
    names = [c[0] for c in checks]
    assert names == sorted(names)


# -- serialization ----------------------------------------------------------


def test_algebra_json_roundtrip():
    u = UElement.E(3, 1) * UElement.F(3, 2) * UElement.R(3) + UElement.one(3).scale(V(-2))
    obj = json.loads(json.dumps(u.to_obj()))
    assert UElement.from_obj(obj) == u


def test_tensor_json_roundtrip():
    x = unit(1, -2, 7).scale(Laurent({2: 1, 0: -1})) + unit(0, 0, 0)
    obj = json.loads(json.dumps(x.to_obj()))
    assert TensorVector.from_obj(obj) == x


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 3, "terms": [{"word": [["E", 9]], "coeff": {"0": 1}}]},
        {"n": 3, "terms": [{"word": [["Q", 1]], "coeff": {"0": 1}}]},
        {"n": 3, "terms": [{"coeff": {"0": 1}}]},
        {"terms": []},
    ],
)
def test_malformed_algebra_json_rejected(obj):
    with pytest.raises((ValueError, KeyError)):
        UElement.from_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 3, "r": 2, "terms": [{"key": [1, 2, 3], "coeff": {"0": 1}}]},
        {"n": 3, "r": 2, "terms": [{"key": [1]}]},
        {"n": 3, "terms": []},
    ],
)
def test_malformed_tensor_json_rejected(obj):
    with pytest.raises((ValueError, KeyError)):
        TensorVector.from_obj(obj)


def test_tensor_shape_guards():
    with pytest.raises(ValueError):
        TensorVector(3, 2, {(1, 2, 3): Laurent.one()})
    with pytest.raises(ValueError):
        unit(1, 2, 3) + TensorVector.unit(3, (1, 2))
    with pytest.raises(ValueError):
        e_omega(2, 3)
    with pytest.raises(ValueError):
        y_op(3, 3, 4)

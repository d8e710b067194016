"""Standard-basis arithmetic, checked against mirror-image oracles.

The library multiplies by expanding the right factor; the oracle in
oracles.py expands the left factor instead, and the v -> 1 specialization
gives a second, group-algebra-level cross check.
"""

import random

import pytest

from affineschur.hecke import (
    HeckeElement,
    t_basis,
    t_basis_inverse,
    x_lambda,
)
from affineschur.laurent import Laurent
from affineschur.weyl import ParabolicIndex, WindowPerm, enumerate_up_to_length

from oracles import group_algebra_convolve, hecke_mul_left_expansion

R = 3
Q = Laurent.q()


def gen(i: int, r: int = R) -> HeckeElement:
    return t_basis(WindowPerm.s(r, i))


def random_element(rng, r=R, max_len=3, rho_bound=1, nterms=3) -> HeckeElement:
    pool = enumerate_up_to_length(r, max_len, extended=True, rho_bound=rho_bound)
    out = HeckeElement.zero(r)
    for w in rng.sample(pool, nterms):
        coeff = Laurent({rng.randrange(-2, 3): rng.choice([-2, -1, 1, 2, 3])})
        out = out + t_basis(w).scale(coeff)
    return out


# -- basis terms and the quadratic relation --------------------------------


def test_unit_and_basis_terms():
    e = HeckeElement.unit(R)
    assert t_basis(WindowPerm.identity(R)) == e
    w = WindowPerm.from_word(R, (1, 2))
    prod = gen(1) * gen(2)
    assert prod == t_basis(w)
    assert len(prod) == 1 and prod.coeff(w) == Laurent.one()


def test_quadratic_relation():
    lhs = gen(1) * gen(1)
    expected = HeckeElement.unit(R).scale(Q) + gen(1).scale(Q - 1)
    assert lhs == expected


def test_factored_quadratic_vanishes():
    # (T_s + 1)(T_s - q) expanded by the quadratic relation:
    # T_s^2 + (1-q) T_s - q = q + (q-1) T_s + (1-q) T_s - q = 0.
    e = HeckeElement.unit(R)
    lhs = (gen(1) + e) * (gen(1) - e.scale(Q))
    by_relation = (
        e.scale(Q)
        + gen(1).scale(Q - 1)
        + gen(1).scale(Laurent.one() - Q)
        - e.scale(Q)
    )
    assert lhs == by_relation
    assert lhs == hecke_mul_left_expansion(gen(1) + e, gen(1) - e.scale(Q))
    assert lhs.is_zero()


def test_rho_conjugation_example():
    rho = t_basis(WindowPerm.rho(R))
    assert rho * gen(2) * t_basis_inverse(WindowPerm.rho(R)) == gen(1)


def test_unit_absorbs():
    rng = random.Random(11)
    e = HeckeElement.unit(R)
    for _ in range(5):
        a = random_element(rng)
        assert a * e == a
        assert e * a == a


def test_braid_relations_in_algebra():
    # r=3: every generator pair is adjacent on the cycle
    for i, j in ((1, 2), (2, 3), (3, 1)):
        assert gen(i) * gen(j) * gen(i) == gen(j) * gen(i) * gen(j)
    # r=4: opposite generators commute
    for i, j in ((1, 3), (2, 4)):
        assert gen(i, 4) * gen(j, 4) == gen(j, 4) * gen(i, 4)


# -- products against the mirror oracle ------------------------------------


def test_mul_matches_left_expansion_oracle():
    rng = random.Random(20250825)
    for _ in range(40):
        a = random_element(rng)
        b = random_element(rng)
        assert a * b == hecke_mul_left_expansion(a, b)


def test_associativity_random():
    rng = random.Random(7)
    for _ in range(25):
        a = random_element(rng, nterms=2)
        b = random_element(rng, nterms=2)
        c = random_element(rng, nterms=2)
        assert (a * b) * c == a * (b * c)


def test_period_mismatch_rejected():
    with pytest.raises(ValueError):
        gen(1, 3) * gen(1, 4)


# -- specialization to the group algebra -----------------------------------


def test_specialization_examples():
    e = WindowPerm.identity(R)
    s1 = WindowPerm.s(R, 1)
    h = HeckeElement.unit(R).scale(Q) + gen(1).scale(Q - 1)
    assert h.specialize_group_algebra() == {e: 1}
    assert t_basis(s1).specialize_group_algebra() == {s1: 1}
    conj = t_basis(WindowPerm.rho(R)) * gen(2) * t_basis_inverse(WindowPerm.rho(R))
    assert conj.specialize_group_algebra() == {s1: 1}


def test_specialization_is_multiplicative():
    rng = random.Random(99)
    for _ in range(20):
        a = random_element(rng, nterms=2)
        b = random_element(rng, nterms=2)
        lhs = (a * b).specialize_group_algebra()
        rhs = group_algebra_convolve(
            a.specialize_group_algebra(), b.specialize_group_algebra()
        )
        assert lhs == rhs


# -- inverses and the bar involution ---------------------------------------


def test_basis_inverses():
    e = HeckeElement.unit(R)
    for w in enumerate_up_to_length(R, 3, extended=True, rho_bound=1):
        inv = t_basis_inverse(w)
        assert t_basis(w) * inv == e
        assert inv * t_basis(w) == e


def test_generator_inverse_closed_form():
    # T_s^-1 = q^-1 T_s - (1 - q^-1) T_e
    qinv = Laurent.q(-1)
    expected = gen(1).scale(qinv) - HeckeElement.unit(R).scale(Laurent.one() - qinv)
    assert t_basis_inverse(WindowPerm.s(R, 1)) == expected


def test_bar_involution():
    rng = random.Random(5)
    assert t_basis(WindowPerm.s(R, 1)).bar() == t_basis_inverse(WindowPerm.s(R, 1))
    for _ in range(10):
        a = random_element(rng, nterms=2)
        b = random_element(rng, nterms=2)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()


# -- parabolic sums ---------------------------------------------------------


def test_x_lambda_examples():
    assert x_lambda(ParabolicIndex(R, [])) == HeckeElement.unit(R)
    assert x_lambda(ParabolicIndex(R, [1])) == HeckeElement.unit(R) + gen(1)
    assert x_lambda(ParabolicIndex(R, [1], shift=1)) == HeckeElement.unit(R) + gen(2)


def test_x_lambda_absorbs_parabolic():
    for members, shift in (([1], 0), ([1, 2], 0), ([1], 1), ([2, 3], 0)):
        pi = ParabolicIndex(R, members, shift=shift)
        x = x_lambda(pi)
        for i in sorted(pi.generators):
            assert x * gen(i) == x.scale(Q)
            assert gen(i) * x == x.scale(Q)


# -- linear independence of the left regular representation ----------------


def _gf_rank(rows: list[list[int]], p: int) -> int:
    mat = [list(row) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def test_left_regular_representation_injective():
    # T_u -> (left multiplication on the span of short basis terms) has
    # linearly independent images; checked at v = 3 over a prime field.
    p, point = 46337, 3
    basis = enumerate_up_to_length(R, 2, extended=True, rho_bound=1)
    span = [t_basis(w) for w in basis]
    columns: dict = {}
    images = []
    for u in basis:
        tu = t_basis(u)
        entries: dict = {}
        for k, x in enumerate(span):
            for w, c in (tu * x).items():
                entries[(k, w.window)] = c.eval_mod(point, p)
        images.append(entries)
        columns.update(dict.fromkeys(entries))
    order = sorted(columns)
    rows = [[img.get(key, 0) for key in order] for img in images]
    assert _gf_rank(rows, p) == len(basis)


# -- serialization ----------------------------------------------------------


def test_json_roundtrip():
    rng = random.Random(31)
    for _ in range(5):
        h = random_element(rng)
        assert HeckeElement.from_obj(h.to_obj()) == h
    obj = {"r": 3, "terms": [{"window": [2, 1, 3], "coeff": {"0": 1}}]}
    assert HeckeElement.from_obj(obj) == gen(1)


@pytest.mark.parametrize(
    "obj",
    [
        {"terms": []},
        {"r": 3},
        {"r": 3, "terms": [{"coeff": {"0": 1}}]},
        {"r": 3, "terms": [{"window": [1, 1, 3], "coeff": {"0": 1}}]},
        {"r": 3, "terms": [{"window": [2, 1, 3], "coeff": {"x": 1}}]},
        {"r": 4, "terms": [{"window": [2, 1, 3], "coeff": {"0": 1}}]},
    ],
)
def test_malformed_json_rejected(obj):
    with pytest.raises(ValueError):
        HeckeElement.from_obj(obj)

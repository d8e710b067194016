"""The Bernstein rows of hecke_right_action, summed from the memoised rows of
each basis term (quantum._basis_rows), checked against one rewrite of the
whole element (oracles.bernstein_assoc_by_rewrite), against the module law
of the right action, and for the memo staying read only."""

import itertools
import random

import pytest

from affineschur import quantum
from affineschur.hecke import HeckeElement, bernstein_y, bernstein_y_inverse, t_basis
from affineschur.laurent import Laurent
from affineschur.quantum import TensorVector, hecke_right_action
from affineschur.weyl import WindowPerm

from oracles import bernstein_assoc_by_rewrite

N = R = 3


def generators(r: int) -> list:
    """Every generator kind the transport workload draws: T_s for each
    simple reflection (the affine one too), T_rho^{+-1} and Y_i^{+-1}."""
    gens = [t_basis(WindowPerm.s(r, i)) for i in range(1, r + 1)]
    gens += [t_basis(WindowPerm.rho(r, z)) for z in (1, -1)]
    return gens + [f(r, i) for i in range(1, r + 1) for f in (bernstein_y, bernstein_y_inverse)]


def products(r: int, triples: int | None) -> list:
    """The generators and their products of length 2 and 3; with a count,
    only that many seeded products of length 3."""
    gens = generators(r)
    out = gens + [a * b for a, b in itertools.product(gens, repeat=2)]
    trios = list(itertools.product(gens, repeat=3))
    if triples is not None:
        trios = random.Random(f"bernstein-memo:{r}").sample(trios, triples)
    return out + [a * b * c for a, b, c in trios]


def as_dict(rows: tuple) -> dict:
    out = {(cvec, word): raw for cvec, word, raw in rows}
    assert len(out) == len(rows)
    return out


def random_vector(rng) -> TensorVector:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        key = tuple(rng.randint(-3, 6) for _ in range(R))
        terms[key] = Laurent({rng.randint(-3, 3): rng.choice([-2, -1, 1, 3])})
    return TensorVector(N, R, terms)


def random_element(rng) -> HeckeElement:
    gens = generators(R)
    h = rng.choice(gens).scale(Laurent({rng.randint(-2, 2): rng.choice([-1, 2])}))
    for _ in range(rng.randint(0, 2)):
        h = h * rng.choice(gens)
    return h + rng.choice(gens).scale(Laurent({-1: 1}))


@pytest.mark.parametrize("r, triples", [(3, None), (4, 120)])
def test_memoised_rows_match_one_rewrite_of_the_element(r, triples):
    for h in products(r, triples):
        assert as_dict(quantum._bernstein_assoc(h)) == as_dict(bernstein_assoc_by_rewrite(h))


@pytest.mark.parametrize("r", [3, 4])
def test_rows_that_cancel_across_terms_are_dropped(r):
    s = t_basis(WindowPerm.s(r, 1))
    q = Laurent.q()
    zero = s * s - HeckeElement.unit(r).scale(q) - s.scale(q - 1)
    assert quantum._bernstein_assoc(zero) == ()
    assert quantum._bernstein_assoc(HeckeElement.zero(r)) == ()
    # Y_i has several basis terms whose rows cancel to the single y_i
    for i in range(1, r + 1):
        for y, e in ((bernstein_y(r, i), 1), (bernstein_y_inverse(r, i), -1)):
            cvec = tuple(e if t == i - 1 else 0 for t in range(r))
            got = quantum._bernstein_assoc(y)
            assert got == bernstein_assoc_by_rewrite(y) == ((cvec, (), {0: 1}),)
    mixed = bernstein_y(r, 1) * bernstein_y_inverse(r, 2) - bernstein_y(r, 2) * bernstein_y_inverse(r, 1)
    assert len(mixed) > 2
    assert as_dict(quantum._bernstein_assoc(mixed)) == as_dict(bernstein_assoc_by_rewrite(mixed))


@pytest.mark.parametrize("r", [3, 4])
def test_coefficients_with_negative_exponents(r):
    c = Laurent({-3: 2, -1: -1, 2: 5})
    for h in generators(r) + [generators(r)[0] * generators(r)[-1]]:
        scaled = h.scale(c) - t_basis(WindowPerm.rho(r)).scale(Laurent({-5: 1}))
        assert as_dict(quantum._bernstein_assoc(scaled)) == as_dict(bernstein_assoc_by_rewrite(scaled))


@pytest.mark.parametrize("seed", range(4))
def test_right_action_matches_the_rewrite_of_the_whole_element(seed):
    rng = random.Random(f"bernstein-action:{seed}")
    for _ in range(6):
        x, h = random_vector(rng), random_element(rng)
        want = quantum._assoc_terms(x._terms, bernstein_assoc_by_rewrite(h), N, R)
        assert hecke_right_action(x, h) == TensorVector._raw(N, R, want)


@pytest.mark.parametrize("seed", range(4))
def test_right_action_is_a_module_action(seed):
    rng = random.Random(f"bernstein-module:{seed}")
    for _ in range(6):
        y, h1, h2 = random_vector(rng), random_element(rng), random_element(rng)
        assert hecke_right_action(hecke_right_action(y, h1), h2) == hecke_right_action(y, h1 * h2)


def test_returned_rows_are_not_the_memos():
    # each row's coefficient is changed in place, then the rows are asked
    # for again; a row handed out from the memo would come back changed
    for h in [t_basis(WindowPerm.rho(R)), bernstein_y(R, 2), generators(R)[0] * bernstein_y_inverse(R, 1)]:
        rows = quantum._bernstein_assoc(h)
        expected = tuple((cvec, word, dict(raw)) for cvec, word, raw in rows)
        for _, _, raw in rows:
            raw[7] = 5
            raw.pop(0, None)
        assert quantum._bernstein_assoc(h) == expected
        stored = [raw for win in h._terms for _, raw in quantum._basis_rows(win)]
        assert all(raw is not s for _, _, raw in quantum._bernstein_assoc(h) for s in stored)


def test_the_row_memo_is_bounded():
    assert quantum._basis_rows.cache_info().maxsize == 2048

"""The commuting translation family and the rewriting basis.

The family is pinned by one single-term anchor plus a conjugation descent;
every presentation relation is then checked against plain T-basis products,
and the rewriting into y-monomial-times-finite-permutation form is checked
by multiplying back out.  The two directions of the y/T exchange, both read
off Lusztig's relation in closed form, are checked key by key against the
case-by-case recursions they replaced.
"""

import itertools
import random

import pytest

from affineschur.hecke import (
    HeckeElement,
    _finite_term_mul_y,
    bernstein_y,
    bernstein_y_inverse,
    commute_gen_past_translations,
    t_basis,
    t_basis_inverse,
    to_bernstein_basis,
)
from affineschur.laurent import Laurent
from affineschur.weyl import WindowPerm, enumerate_up_to_length

from oracles import (
    commute_gen_past_translations_by_cases,
    finite_term_mul_y_by_cases,
    from_bernstein_by_words,
)

V2 = Laurent.v(2)


def _gens(r):
    e = HeckeElement.unit(r)
    s = {i: t_basis(WindowPerm.s(r, i)) for i in range(1, r + 1)}
    y = {i: bernstein_y(r, i) for i in range(1, r + 1)}
    yi = {i: bernstein_y_inverse(r, i) for i in range(1, r + 1)}
    return e, s, y, yi


@pytest.mark.parametrize("r", [3, 4])
def test_presentation_relations(r):
    e, s, y, yi = _gens(r)
    sinv = {i: t_basis_inverse(WindowPerm.s(r, i)) for i in range(1, r)}
    for i in range(1, r):
        # (1) generator inverses
        assert s[i] * sinv[i] == e and sinv[i] * s[i] == e
        # (4) quadratic: (sigma + 1)(sigma - v^2) = 0
        assert ((s[i] + e) * (s[i] - e.scale(V2))).is_zero()
    # (2) braid on consecutive finite generators
    for i in range(1, r - 1):
        assert s[i] * s[i + 1] * s[i] == s[i + 1] * s[i] * s[i + 1]
    # (3) distant finite generators commute
    for i, j in itertools.combinations(range(1, r), 2):
        if j - i > 1:
            assert s[i] * s[j] == s[j] * s[i]
    for i in range(1, r + 1):
        # (5) translation inverses
        assert y[i] * yi[i] == e and yi[i] * y[i] == e
        # (6) translations commute
        for j in range(1, r + 1):
            assert y[i] * y[j] == y[j] * y[i]
    # (7) disjoint indices commute
    for i in range(1, r):
        for j in range(1, r + 1):
            if j not in (i, i + 1):
                assert y[j] * s[i] == s[i] * y[j]
                assert yi[j] * s[i] == s[i] * yi[j]
    # (8) conjugation moves the index up
    for i in range(1, r):
        assert s[i] * y[i] * s[i] == y[i + 1].scale(V2)


def test_anchor_is_a_single_basis_term():
    for r in (3, 4):
        anchor = bernstein_y(r, r)
        w = WindowPerm(tuple(range(1, r)) + (2 * r,))
        assert anchor.support() == [w]
        assert anchor.coeff(w) == Laurent.v(-(r - 1))


def test_single_term_candidates_fail_conjugation():
    # neither translation direction admits a one-term family: conjugating a
    # single basis term always picks up a second term, which is why the
    # family is built by descent from the anchor instead
    r = 3
    s1 = t_basis(WindowPerm.s(r, 1))
    for sign in (1, -1):
        cand = {}
        for i in (1, 2):
            base = list(range(1, r + 1))
            base[i - 1] += sign * r
            w = WindowPerm(tuple(base))
            cand[i] = t_basis(w).scale(Laurent.v(-w.length()))
        assert s1 * cand[1] * s1 != cand[2].scale(V2)


def test_index_bounds_checked():
    with pytest.raises(ValueError):
        bernstein_y(3, 0)
    with pytest.raises(ValueError):
        bernstein_y_inverse(3, 4)


def test_full_translation_product_is_central():
    # y_1 ... y_r multiplies out to exactly T_{rho^r}, which commutes with
    # every generator
    for r in (3, 4):
        e, s, y, _ = _gens(r)
        prod = e
        for i in range(1, r + 1):
            prod = prod * y[i]
        assert prod == t_basis(WindowPerm.rho(r, r))
        assert all(prod * s[i] == s[i] * prod for i in s)
        rho = t_basis(WindowPerm.rho(r))
        assert prod * rho == rho * prod


# -- the rewriting basis ----------------------------------------------------


def test_rewrite_trivial_terms():
    r = 3
    e_key = WindowPerm.identity(r)
    assert to_bernstein_basis(HeckeElement.unit(r)) == {((0, 0, 0), e_key): Laurent.one()}
    for j in range(1, r + 1):
        cvec = tuple(1 if t == j else 0 for t in range(1, r + 1))
        assert to_bernstein_basis(bernstein_y(r, j)) == {(cvec, e_key): Laurent.one()}
        assert to_bernstein_basis(bernstein_y_inverse(r, j)) == {
            (tuple(-x for x in cvec), e_key): Laurent.one()
        }


def test_rewrite_of_rho():
    # multi-term, all sharing the translation part (0,0,1); the round trip
    # back to T_rho is the normative statement, the literal value below just
    # freezes what the rewrite produced
    r = 3
    rho = t_basis(WindowPerm.rho(r))
    b = to_bernstein_basis(rho)
    assert from_bernstein_by_words(b, r) == rho
    flat = {(c, u.window): coeff for (c, u), coeff in b.items()}
    vm2 = Laurent.v(-2)
    assert flat == {
        ((0, 0, 1), (2, 3, 1)): vm2,
        ((0, 0, 1), (1, 3, 2)): vm2 - 1,
        ((0, 0, 1), (2, 1, 3)): vm2 - 1,
        ((0, 0, 1), (1, 2, 3)): V2 - 2 + vm2,
    }


def test_rewrite_round_trips():
    r = 3
    corpus = [t_basis(w) for w in enumerate_up_to_length(r, 3, extended=True, rho_bound=1)]
    corpus.append(t_basis(WindowPerm.from_word(r, (3, 1, 3))))
    corpus.append(t_basis_inverse(WindowPerm.from_word(r, (2, 3), z=-1)))
    rng = random.Random(424242)
    pool = enumerate_up_to_length(r, 3, extended=True, rho_bound=1)
    for _ in range(6):
        h = HeckeElement.zero(r)
        for w in rng.sample(pool, 3):
            h = h + t_basis(w).scale(Laurent({rng.randrange(-2, 3): rng.choice([-2, 1, 3])}))
        corpus.append(h)
    for h in corpus:
        assert from_bernstein_by_words(to_bernstein_basis(h), r) == h


def test_rewrite_is_linear():
    r = 3
    a = t_basis(WindowPerm.from_word(r, (1, 2)))
    b = t_basis(WindowPerm.rho(r)).scale(Laurent.v(3))
    ba, bb, bsum = to_bernstein_basis(a), to_bernstein_basis(b), to_bernstein_basis(a + b)
    merged: dict = {}
    for part in (ba, bb):
        for key, c in part.items():
            tot = merged.get(key, Laurent.zero()) + c
            if tot:
                merged[key] = tot
            else:
                merged.pop(key, None)
    assert bsum == merged


def test_exchange_rules_match_products():
    r = 3
    e, s, y, yi = _gens(r)

    def ypow(idx, k):
        out = e
        factor = y[idx] if k > 0 else yi[idx]
        for _ in range(abs(k)):
            out = out * factor
        return out

    for i in (1, 2):
        for a, b in itertools.product(range(-2, 3), repeat=2):
            lhs = ypow(i, a) * ypow(i + 1, b) * s[i]
            rhs = HeckeElement.zero(r)
            for carries, da, db, coeff in commute_gen_past_translations(a, b):
                term = (s[i] if carries else e) * ypow(i, da) * ypow(i + 1, db)
                rhs = rhs + term.scale(coeff)
            assert lhs == rhs


# -- the closed-form exchange against the case-by-case first forms ---------


def test_commute_closed_form_matches_the_case_by_case_recursion():
    for a, b in itertools.product(range(-6, 7), repeat=2):
        got = commute_gen_past_translations(a, b)
        assert got == commute_gen_past_translations_by_cases(a, b)
        assert len(got) == 1 + abs(a - b)


def _finite_windows(r, length):
    ident = list(range(1, r + 1))
    return [w.window for w in enumerate_up_to_length(r, length) if sorted(w.window) == ident]


def test_finite_term_mul_y_matches_the_case_by_case_recursion():
    cases = 0
    for r in (3, 4, 5):
        for u in _finite_windows(r, 6):
            for j, e in itertools.product(range(1, r + 1), (1, -1)):
                lam = tuple(e if t == j else 0 for t in range(1, r + 1))
                got = dict(_finite_term_mul_y(u, lam))
                assert got == dict(finite_term_mul_y_by_cases(u, j, e)), (u, j, e)
                cases += 1
    assert cases == 1138


def test_finite_term_mul_y_on_whole_exponent_vectors_multiplies_back():
    # exponents up to +-2 in every slot at once, which the one-letter
    # recursion never produced: T_u y^lam, multiplied back out term by term
    r = 3
    for lam in itertools.product(range(-2, 3), repeat=r):
        y = HeckeElement.unit(r)
        for j, c in enumerate(lam, start=1):
            factor = bernstein_y(r, j) if c > 0 else bernstein_y_inverse(r, j)
            for _ in range(abs(c)):
                y = y * factor
        for u in _finite_windows(r, 3):
            rows = {(c, WindowPerm(u2)): Laurent(x) for (c, u2), x in _finite_term_mul_y(u, lam)}
            assert from_bernstein_by_words(rows, r) == t_basis(WindowPerm(u)) * y, (u, lam)

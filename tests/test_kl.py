"""The Kazhdan-Lusztig recursion against the bar-involution solve.

The recursion never touches basis inverses; the oracle never touches the
mu-bookkeeping.  Agreement on every pair of a finite parabolic (and on
affine samples) is the correctness argument.
"""

import pytest

from affineschur.hecke import KLTable
from affineschur.laurent import Laurent
from affineschur.weyl import ParabolicIndex, WindowPerm, bruhat_leq, enumerate_up_to_length

from oracles import kl_by_bar_involution

ONE_PLUS_Q = Laurent.q() + 1

# The two windows in the rank-3 finite parabolic (inside r=5) whose lower
# interval carries a nontrivial polynomial; everything below is re-derived
# from the oracle at test time, these literals only pin the derivation.
SINGULAR_W = [(3, 4, 1, 2, 5), (4, 2, 3, 1, 5)]


def test_trivial_values():
    table = KLTable(3)
    w = WindowPerm.from_word(3, (1, 2, 1))
    assert table.polynomial(w, w) == Laurent.one()
    assert table.polynomial(WindowPerm.s(3, 1), WindowPerm.s(3, 2)).is_zero()
    assert table.polynomial(WindowPerm.identity(3), w) == Laurent.one()


def test_polynomial_rejects_rho_shifts():
    table = KLTable(3)
    with pytest.raises(ValueError):
        table.polynomial(WindowPerm.rho(3), WindowPerm.rho(3))


def test_rank2_interval_is_all_ones():
    table = KLTable(3)
    elems = ParabolicIndex(3, [1, 2]).elements()
    for w in elems:
        oracle = kl_by_bar_involution(w)
        for y in elems:
            expected = oracle.get(y, Laurent.zero())
            assert table.polynomial(y, w) == expected
            if bruhat_leq(y, w):
                assert expected == Laurent.one()


def test_rank3_parabolic_matches_oracle_everywhere():
    table = KLTable(5)
    elems = ParabolicIndex(5, [1, 2, 3]).elements()
    assert len(elems) == 24
    special = []
    for w in elems:
        oracle = kl_by_bar_involution(w)
        for y in elems:
            expected = oracle.get(y, Laurent.zero())
            assert table.polynomial(y, w) == expected
            if expected == ONE_PLUS_Q:
                special.append((y.window, w.window))
    # derived, not recalled: exactly two w carry a nontrivial polynomial
    # against the identity, with six nontrivial pairs in total
    singular = sorted({w for y, w in special if y == (1, 2, 3, 4, 5)})
    assert singular == SINGULAR_W
    assert len(special) == 6
    assert all(w in SINGULAR_W for _, w in special)


def test_spec_singled_out_pair():
    table = KLTable(5)
    y = WindowPerm.s(5, 2)
    w = WindowPerm.from_word(5, (2, 1, 3, 2))
    oracle = kl_by_bar_involution(w)
    assert table.polynomial(y, w) == oracle[y]
    assert oracle[y] == ONE_PLUS_Q


def test_degree_bound():
    table = KLTable(5)
    elems = ParabolicIndex(5, [1, 2, 3]).elements()
    for w in elems:
        for y in elems:
            p = table.polynomial(y, w)
            if p.is_zero() or y == w:
                continue
            # a polynomial in q = v^2 of q-degree <= (l(w) - l(y) - 1) / 2
            assert all(e % 2 == 0 for e in p.raw())
            assert p.degree <= w.length() - y.length() - 1


def test_extended_delta():
    table = KLTable(5)
    y = WindowPerm.s(5, 2)
    w = WindowPerm.from_word(5, (2, 1, 3, 2))
    rho = WindowPerm.rho(5)
    assert table.extended(rho * y, y).is_zero()
    assert table.extended(rho * rho * w, rho * rho * w) == Laurent.one()
    assert table.extended(rho * y, rho * w) == ONE_PLUS_Q
    assert table.extended(y, w) == table.polynomial(y, w)


def test_affine_samples_match_oracle():
    # beyond any finite parabolic: elements whose reduced words use s_3
    table = KLTable(3)
    targets = [w for w in enumerate_up_to_length(3, 4) if w.length() >= 3]
    assert any(3 in w.reduced_word()[1] for w in targets)
    for w in targets[:12]:
        oracle = kl_by_bar_involution(w)
        for y, expected in oracle.items():
            assert table.polynomial(y, w) == expected


def test_mu_against_oracle():
    table = KLTable(5)
    e = WindowPerm.identity(5)
    assert table.mu(e, WindowPerm.s(5, 1)) == 1
    w = WindowPerm.from_word(5, (2, 1, 3, 2))
    oracle = kl_by_bar_involution(w)
    for y, p in oracle.items():
        mm = w.length() - y.length()
        expected = p.coeff(mm - 1) if mm > 0 else 0
        assert table.mu(y, w) == expected
    assert table.mu(WindowPerm.rho(5) * e, w) == 0


def test_every_reader_checks_the_rank():
    table = KLTable(3)
    y, w = WindowPerm.identity(4), WindowPerm.from_word(4, [1, 2, 1])
    for read in (table.polynomial, table.extended, table.mu):
        with pytest.raises(ValueError, match="rank mismatch"):
            read(y, w)


def test_a_degree_past_the_bound_raises():
    # a raise, not an assert: the check holds under python -O too
    class TooHigh(KLTable):
        def _kl_compute(self, ywin, wwin):
            return {0: 1} if ywin == wwin else {2 * self.r: 1}

    with pytest.raises(ArithmeticError, match="degree bound violated"):
        TooHigh(3).polynomial(WindowPerm.identity(3), WindowPerm.from_word(3, (1, 2, 1)))

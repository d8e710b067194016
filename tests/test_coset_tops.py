"""Double-coset tops found by descents: weyl.longest_double_coset_elt by
greedy ascent and the top test in schur.theta, against the enumeration of
every coset (oracles.py).  The three climbs by descents are bounded, so a
wrong descent test raises instead of looping."""

import itertools
import random

import pytest

from affineschur import weyl
from affineschur.hecke import KLTable
from affineschur.schur import all_weights, theta, young_parabolic
from affineschur.weyl import (
    ParabolicIndex,
    WindowPerm,
    _coset_split,
    _is_double_coset_top,
    double_coset_rep,
    enumerate_up_to_length,
    longest_double_coset_elt,
)

from oracles import double_coset, longest_double_coset_elt_by_enumeration, theta_by_enumeration


def young_parabolics(r: int) -> list[ParabolicIndex]:
    """The Young parabolic of every composition of r: every subset of
    s_1, ..., s_(r-1)."""
    return [ParabolicIndex(r, m) for k in range(r) for m in itertools.combinations(range(1, r), k)]


@pytest.mark.parametrize("r, cosets", [(3, 601), (4, 3900)])
def test_longest_element_and_top_test_match_the_enumeration(r, cosets):
    elems = enumerate_up_to_length(r, 4, extended=True, rho_bound=1)
    seen = 0
    for left in young_parabolics(r):
        lgens = sorted(left.generators)
        for right in young_parabolics(r):
            rgens = sorted(right.generators)
            todo = set(elems)
            while todo:
                d = todo.pop()
                coset = double_coset(d, left, right)
                top = longest_double_coset_elt_by_enumeration(d, left, right)
                seen += 1
                # greedy ascent from every listed member reaches the top, and
                # the descent test marks the top and nothing else
                for u in (coset & todo) | {d, top}:
                    assert longest_double_coset_elt(u, left, right) == top
                    assert _is_double_coset_top(u.window, lgens, rgens) == (u == top)
                todo -= coset
    assert seen == cosets


def test_theta_matches_the_enumeration_at_n3_r3():
    table = KLTable(3)
    pool = enumerate_up_to_length(3, 2, extended=True, rho_bound=1)
    weights = all_weights(3, 3)
    count = 0
    for lam in weights:
        for mu in weights:
            pl, pm = young_parabolic(lam), young_parabolic(mu)
            for d in {double_coset_rep(d0, pl, pm) for d0 in pool}:
                assert theta(lam, mu, d, table) == theta_by_enumeration(lam, mu, d, table)
                count += 1
    assert count > 1000


def test_theta_matches_the_enumeration_on_seeded_n4_r4_triples():
    rng = random.Random("theta-tops")
    table = KLTable(4)
    pool = enumerate_up_to_length(4, 3, extended=True, rho_bound=1)
    weights = all_weights(4, 4)
    for _ in range(12):
        lam, mu, d = rng.choice(weights), rng.choice(weights), rng.choice(pool)
        assert theta(lam, mu, d, table) == theta_by_enumeration(lam, mu, d, table)


def _at_r_claims_more_descents(w, i):
    """win_is_left_descent with w[0] - r for w[0] + r at i = r: s_r w is
    taken for shorter whenever w[r-1] > w[0] - r."""
    r = len(w)
    if i == r:
        return w[r - 1] > w[0] - r
    return w[i - 1] > w[i]


def _at_r_claims_no_descent(w, i):
    """win_is_left_descent that never sees the descent at i = r."""
    return i != len(w) and w[i - 1] > w[i]


@pytest.mark.parametrize("r", [3, 4, 5])
def test_a_wrong_left_descent_test_raises_instead_of_looping(r, monkeypatch):
    e = WindowPerm.identity(r)
    affine = ParabolicIndex(r, [r])
    rest = ParabolicIndex(r, range(1, r - 1))
    # more descents than there are: stripping s_r goes back and forth
    monkeypatch.setattr(weyl.kernels, "win_is_left_descent", _at_r_claims_more_descents)
    with pytest.raises(ValueError, match="coset split took more than 1 steps"):
        _coset_split(e.window, [r])
    with pytest.raises(ValueError, match="double coset climb took more than"):
        double_coset_rep(e, affine, rest)
    # a climb up only meets fewer ascents, so it ends
    assert longest_double_coset_elt(e, affine, rest) is not None
    # no descent at r: the climb up goes back and forth through s_r
    monkeypatch.setattr(weyl.kernels, "win_is_left_descent", _at_r_claims_no_descent)
    with pytest.raises(ValueError, match="double coset climb took more than"):
        longest_double_coset_elt(e, affine, rest)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_the_climbs_may_take_exactly_their_bound(r):
    # L(g) = |g|(|g|+1)/2 is l(w_0) of a connected g, and the climbs reach it
    e = WindowPerm.identity(r)
    full = list(range(1, r))
    w0 = ParabolicIndex(r, full).longest_element()
    assert w0.length() == len(full) * r // 2
    assert _coset_split(w0.window, full) == (w0.length(), e.window)
    # W_{s_1} e W_{s_(r-1)} has no overlap: its top s_1 s_(r-1) is two steps
    # up from e, and L(1) + L(1) = 2
    left, right = ParabolicIndex(r, [1]), ParabolicIndex(r, [r - 1])
    top = WindowPerm.s(r, 1) * WindowPerm.s(r, r - 1)
    assert longest_double_coset_elt(e, left, right) == top
    assert double_coset_rep(top, left, right) == e
    both = ParabolicIndex(r, full)
    assert longest_double_coset_elt(e, both, both) == w0
    assert double_coset_rep(w0, both, both) == e

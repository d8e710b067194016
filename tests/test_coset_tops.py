"""Double-coset tops found by descents: weyl.longest_double_coset_elt by
greedy ascent and the top test in schur.theta, against the enumeration of
every coset (oracles.py)."""

import itertools
import random

import pytest

from affineschur.hecke import KLTable
from affineschur.schur import all_weights, theta, young_parabolic
from affineschur.weyl import (
    ParabolicIndex,
    _is_double_coset_top,
    double_coset,
    double_coset_rep,
    enumerate_up_to_length,
    longest_double_coset_elt,
)

from oracles import longest_double_coset_elt_by_enumeration, theta_by_enumeration


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

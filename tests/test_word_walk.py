"""The prefix-shared reduced-word walk behind Hecke products, bar and the
Bernstein rewrite, checked key by key against the per-term loops it
replaced (oracles.py), and its sweep count pinned."""

import random

import pytest

from affineschur import hecke
from affineschur.hecke import (
    HeckeElement,
    t_basis,
    t_basis_inverse,
    to_bernstein_basis,
)
from affineschur.laurent import Laurent
from affineschur.weyl import WindowPerm

from oracles import (
    from_bernstein_by_words,
    hecke_bar_by_words,
    hecke_mul_by_words,
    t_basis_inverse_by_words,
    to_bernstein_basis_by_words,
)


def random_window(rng, r, max_len, rho_bound=2) -> WindowPerm:
    word = [rng.randint(1, r) for _ in range(rng.randint(0, max_len))]
    return WindowPerm.from_word(r, word, z=rng.randint(-rho_bound, rho_bound))


def random_element(rng, r, nterms, max_len=6) -> HeckeElement:
    terms = {}
    for _ in range(nterms):
        exps = rng.sample(range(-3, 4), rng.randint(1, 2))
        terms[random_window(rng, r, max_len)] = Laurent({e: rng.choice([-2, -1, 1, 3]) for e in exps})
    return HeckeElement(r, terms)


def corpus(r: int, seed: int) -> list[HeckeElement]:
    """Seeded elements over several rho powers, plus a single term, a term
    of length 0 and zero."""
    rng = random.Random(f"walk:{r}:{seed}")
    out = [random_element(rng, r, rng.randint(2, 7)) for _ in range(4)]
    out.append(t_basis(random_window(rng, r, 7)).scale(Laurent.v(-1) - 2))
    out.append(t_basis(WindowPerm.rho(r, -2)))
    out.append(HeckeElement.zero(r))
    return out


def interval_product(r: int, word) -> HeckeElement:
    """prod (T_{s_i} + v): the support is the Bruhat interval below the
    product of the letters."""
    out = HeckeElement.unit(r)
    for i in word:
        out = out * (t_basis(WindowPerm.s(r, i)) + HeckeElement.unit(r).scale(Laurent.v()))
    return out


RANKS = [3, 4, 5]


@pytest.mark.parametrize("r", RANKS)
def test_product_matches_the_per_term_loop(r):
    elems = corpus(r, 0)
    for a in elems:
        for b in elems:
            assert (a * b)._terms == hecke_mul_by_words(a, b)._terms


@pytest.mark.parametrize("r", RANKS)
def test_bar_matches_the_per_term_loop(r):
    elems = corpus(r, 1)
    # (a * b) has a support that is not closed under taking prefixes
    elems += [elems[0] * elems[1], elems[2] * elems[0]]
    for h in elems:
        assert h.bar()._terms == hecke_bar_by_words(h)._terms
    for h in elems:
        for w in h.support():
            inv = t_basis_inverse(w)
            assert inv._terms == t_basis_inverse_by_words(w)._terms
            assert t_basis(w) * inv == inv * t_basis(w) == HeckeElement.unit(r)


@pytest.mark.parametrize("r", RANKS)
def test_bar_walk_is_bar_of_each_term(r):
    rng = random.Random(f"bars:{r}")
    ws = {random_window(rng, r, 6) for _ in range(12)}
    bars = dict(hecke._bar_walk(r, (w.window for w in ws)))
    assert set(bars) == {w.window for w in ws}
    for w in ws:
        assert bars[w.window] == hecke_bar_by_words(t_basis(w))._terms


@pytest.mark.parametrize("r", RANKS)
def test_mul_t_right_matches_the_per_term_loop(r):
    rng = random.Random(f"mtr:{r}")
    for h in corpus(r, 2):
        w = random_window(rng, r, 7)
        assert (h * t_basis(w))._terms == hecke_mul_by_words(h, t_basis(w))._terms


@pytest.mark.parametrize("r", RANKS)
def test_bernstein_rewrite_matches_the_per_term_loop(r):
    elems = corpus(r, 3)
    elems.append(elems[0] * elems[1])
    for h in elems:
        assoc = to_bernstein_basis(h)
        assert assoc == to_bernstein_basis_by_words(h)
        assert from_bernstein_by_words(assoc, r) == h


def _prefix_closure(h: HeckeElement) -> set:
    """Every nonempty prefix (z, word[:k]) of the canonical words in the
    support: the non-root nodes of the prefix tree."""
    out = set()
    for w in h.support():
        z, word = w.reduced_word()
        out |= {(z, word[:k]) for k in range(1, len(word) + 1)}
    return out


@pytest.mark.parametrize(
    "r, words",
    [(4, [(1, 2, 3, 4, 1, 2), (2, 1, 3, 2, 4, 3, 1)]), (5, [(1, 3, 2, 4, 5, 1, 3), (5, 4, 3, 2, 1, 2, 5)])],
)
def test_product_makes_one_sweep_per_tree_node(r, words, monkeypatch):
    a, b = (interval_product(r, w) for w in words)
    b = b * t_basis(WindowPerm.rho(r)) + b
    expected = hecke_mul_by_words(a, b)
    calls = []
    sweep = hecke.kernels.hecke_packed_mul_gen_right

    def counting(terms, i, shift, steps):
        calls.append(i)
        return sweep(terms, i, shift, steps)

    monkeypatch.setattr(hecke.kernels, "hecke_packed_mul_gen_right", counting)
    assert a * b == expected
    nodes = _prefix_closure(b)
    per_letter = sum(len(w.reduced_word()[1]) for w in b.support())
    assert len(calls) == len(nodes)
    assert len(nodes) < per_letter / 2

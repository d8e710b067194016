"""Window permutations: group law, length, descents, cosets.

Expected values tagged as derived in the module contracts are computed here
by the naive oracles (breadth first search, brute-force enumeration,
subsequence checks) rather than asserted from memory.
"""

import itertools
import random
import re

import pytest

from affineschur import _kernels_py as kernels
from affineschur.hecke import HeckeElement, KLTable
from affineschur.schur import QTensorElement, SchurElement
from affineschur.weyl import (
    ParabolicIndex,
    WindowPerm,
    all_proper_parabolics,
    bruhat_leq,
    coset_decompose,
    double_coset,
    double_coset_rep,
    enumerate_up_to_length,
    is_distinguished,
    longest_double_coset_elt,
)
from oracles import (
    bfs_min_word_lengths,
    brute_coset_factorizations,
    brute_double_coset_min,
    bruhat_by_subwords,
    enumerate_up_to_length_first_form,
    parabolic_elements_first_form,
    parabolic_longest_element_first_form,
    win_compose,
)


def test_construction_and_validation():
    assert WindowPerm.identity(3).window == (1, 2, 3)
    with pytest.raises(ValueError):
        WindowPerm((2, 1))  # r = 2 rejected
    with pytest.raises(ValueError):
        WindowPerm((1, 1, 3))  # repeated residue
    assert WindowPerm((4, 2, 3)).rho_power() == 1


# every constructor that takes a rank, each reaching weyl.check_rank
RANKED = {
    "WindowPerm": lambda r: WindowPerm(tuple(range(1, r + 1))),
    "WindowPerm.identity": WindowPerm.identity,
    "WindowPerm.s": lambda r: WindowPerm.s(r, 1),
    "WindowPerm.rho": WindowPerm.rho,
    "WindowPerm.from_word": lambda r: WindowPerm.from_word(r, ()),
    "WindowPerm.from_obj": lambda r: WindowPerm.from_obj({"window": list(range(1, r + 1))}),
    "enumerate_up_to_length": lambda r: enumerate_up_to_length(r, 2),
    "ParabolicIndex": lambda r: ParabolicIndex(r, ()),
    "ParabolicIndex.from_obj": lambda r: ParabolicIndex.from_obj({"r": r, "members": []}),
    "HeckeElement": HeckeElement,
    "HeckeElement.zero": HeckeElement.zero,
    "HeckeElement.unit": HeckeElement.unit,
    "HeckeElement.from_obj": lambda r: HeckeElement.from_obj({"r": r, "terms": []}),
    "KLTable": KLTable,
    "SchurElement": lambda r: SchurElement(3, r),
    "SchurElement.zero": lambda r: SchurElement.zero(3, r),
    "SchurElement.from_obj": lambda r: SchurElement.from_obj({"n": 3, "r": r, "terms": []}),
    "QTensorElement": lambda r: QTensorElement(3, r),
    "QTensorElement.zero": lambda r: QTensorElement.zero(3, r),
    "QTensorElement.from_obj": lambda r: QTensorElement.from_obj({"n": 3, "r": r, "terms": []}),
}


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("name", sorted(RANKED))
def test_every_ranked_constructor_refuses_a_rank_below_three(name, r):
    with pytest.raises(ValueError, match=re.escape(f"rank r={r} not supported; need r >= 3")):
        RANKED[name](r)
    RANKED[name](3)


def test_apply_periodicity():
    s1 = WindowPerm((2, 1, 3))
    assert s1.apply(4) == 5
    rho = WindowPerm.rho(3)
    assert rho.apply(-2) == -1
    e = WindowPerm.identity(3)
    for t in range(-7, 8):
        assert e.apply(t) == t


def test_generators():
    assert WindowPerm.s(3, 1).window == (2, 1, 3)
    assert WindowPerm.s(3, 3).window == (0, 2, 4)
    assert WindowPerm.rho(3, 2).window == (3, 4, 5)
    assert WindowPerm.s(3, 4) == WindowPerm.s(3, 1)  # indices mod r


def test_group_law():
    rng = random.Random(7)
    elems = enumerate_up_to_length(3, 3, extended=True, rho_bound=1)
    for _ in range(60):
        u, w = rng.choice(elems), rng.choice(elems)
        assert (u * w).inverse() == w.inverse() * u.inverse()
        assert u * u.inverse() == WindowPerm.identity(3)
    s, rho = WindowPerm.s(3, 1), WindowPerm.rho(3)
    assert s * s == WindowPerm.identity(3)
    assert rho * WindowPerm.s(3, 2) == s * rho


def test_product_of_mismatched_ranks_is_refused():
    for u, w in [(WindowPerm.s(3, 1), WindowPerm.s(4, 1)), (WindowPerm.rho(4), WindowPerm.identity(3))]:
        with pytest.raises(ValueError, match="rank mismatch"):
            u * w


def seeded_perms(rng: random.Random, r: int, count: int = 12) -> list[WindowPerm]:
    """rho^z times words of length up to 9, z in -3..3, with rho^-3 s_r and
    rho^3 s_1 always in: entries run below 0 and above r."""
    return [WindowPerm.rho(r, -3) * WindowPerm.s(r, r), WindowPerm.rho(r, 3) * WindowPerm.s(r, 1)] + [
        WindowPerm.from_word(r, [rng.randint(1, r) for _ in range(rng.randint(0, 9))], z=rng.randint(-3, 3))
        for _ in range(count)
    ]


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_window_product_matches_the_scanning_compose(r):
    # the offset table against the composition by win_apply, one entry at a
    # time; every right factor is fresh, then reused with its table cached
    rng = random.Random(f"window-product:{r}")
    perms = seeded_perms(rng, r)
    assert min(min(w.window) for w in perms) < 0 and max(max(w.window) for w in perms) > r + 2
    for _ in range(2):
        for u in perms:
            for w in perms:
                want = win_compose(u.window, w.window)
                assert (u * w).window == want
                assert kernels.win_compose_offsets(u.window, kernels.win_offsets(w.window)) == want
                assert kernels.win_compose(u.window, w.window) == want


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_a_factor_reused_on_both_sides_gives_the_same_products(r):
    rng = random.Random(f"window-reuse:{r}")
    perms = seeded_perms(rng, r)
    for d in perms:
        d = WindowPerm(d.window)  # no table yet
        u1, u2, x = rng.choice(perms), rng.choice(perms), rng.choice(perms)
        first, second = u1 * d, u2 * d  # d's table is made, then read
        assert first.window == win_compose(u1.window, d.window)
        assert second.window == win_compose(u2.window, d.window)
        # on the left d is read by its window, whatever it has cached
        assert (d * x).window == win_compose(d.window, x.window) == (WindowPerm(d.window) * x).window
        assert (d * d).window == win_compose(d.window, d.window)
        # a product starts with no table of its own
        assert (first * first).window == win_compose(first.window, first.window)


def test_a_rank_mismatch_is_refused_with_a_cached_table():
    # a raise, not an assert, so it holds under python -O; a table that the
    # right factor made in an earlier product does not skip the check
    u3, u4 = WindowPerm.rho(3, -2) * WindowPerm.s(3, 3), WindowPerm.s(4, 4) * WindowPerm.rho(4, 3)
    for u, w in [(u3, u4), (u4, u3), (u3, WindowPerm.identity(4))]:
        w * w
        with pytest.raises(ValueError, match="rank mismatch"):
            u * w


def test_rho_conjugation_rotates_generators():
    for r in (3, 4):
        rho = WindowPerm.rho(r)
        for i in range(1, r + 1):
            assert rho * WindowPerm.s(r, i + 1) == WindowPerm.s(r, i) * rho


def test_braid_relations():
    for r in (3, 4):
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if i == j:
                    continue
                si, sj = WindowPerm.s(r, i), WindowPerm.s(r, j)
                adjacent = (i - j) % r in (1, r - 1)
                if adjacent and r > 2:
                    assert si * sj * si == sj * si * sj
                if not adjacent:
                    assert si * sj == sj * si


def test_length_of_generators():
    for r in (3, 4, 5):
        for i in range(1, r + 1):
            assert WindowPerm.s(r, i).length() == 1
        for z in (-2, -1, 0, 1, 2):
            assert WindowPerm.rho(r, z).length() == 0


def test_length_matches_bfs_oracle():
    # crossing count == minimal word length, rho letters free
    for r, max_cost, rho_bound in ((3, 6, 1), (4, 5, 1)):
        dist = bfs_min_word_lengths(r, max_cost, rho_bound)
        assert len(dist) > 50
        for window, d in dist.items():
            w = WindowPerm(window)
            if w.length() <= max_cost - 1:  # interior of the BFS ball
                assert w.length() == d, window


def test_length_translation_example():
    w = WindowPerm((4, 2, 3))
    assert w.length() == 2
    dist = bfs_min_word_lengths(3, 4, rho_bound=1)
    assert dist[w.window] == 2


def test_length_rho_invariance():
    rng = random.Random(3)
    elems = enumerate_up_to_length(3, 4)
    for w in rng.sample(elems, 20):
        for z in (-2, 1, 3):
            assert (WindowPerm.rho(3, z) * w).length() == w.length()


def test_descents():
    s1 = WindowPerm.s(3, 1)
    assert s1.left_descents() == {1}
    assert s1.right_descents() == {1}
    rho = WindowPerm.rho(3)
    assert rho.left_descents() == frozenset()
    assert rho.right_descents() == frozenset()
    assert WindowPerm.identity(3).left_descents() == frozenset()


def test_descents_match_length_comparison():
    for r in (3, 4):
        for w in enumerate_up_to_length(r, 4, extended=True, rho_bound=1):
            for i in range(1, r + 1):
                s = WindowPerm.s(r, i)
                assert (i in w.left_descents()) == ((s * w).length() < w.length())
                assert (i in w.right_descents()) == ((w * s).length() < w.length())


def test_rho_decompose():
    z, c = WindowPerm.rho(3, 2).rho_decompose()
    assert (z, c) == (2, WindowPerm.identity(3))
    z, c = WindowPerm.s(3, 1).rho_decompose()
    assert (z, c) == (0, WindowPerm.s(3, 1))
    w = WindowPerm((4, 2, 3))
    z, c = w.rho_decompose()
    assert z == 1 and c.rho_power() == 0 and c.length() == 2
    assert WindowPerm.rho(3, z) * c == w


def test_reduced_word():
    assert WindowPerm.identity(3).reduced_word() == (0, ())
    assert WindowPerm.s(3, 2).reduced_word() == (0, (2,))
    w = WindowPerm((4, 2, 3))
    z, word = w.reduced_word()
    assert z == 1 and len(word) == 2
    assert WindowPerm.from_word(3, word, z) == w
    # roundtrip across a corpus, word length == crossing count
    for u in enumerate_up_to_length(4, 4, extended=True, rho_bound=1):
        zz, ww = u.reduced_word()
        assert len(ww) == u.length()
        assert WindowPerm.from_word(4, ww, zz) == u


def test_bruhat_basic():
    e = WindowPerm.identity(3)
    s1, s2, s3 = (WindowPerm.s(3, i) for i in (1, 2, 3))
    w = s1 * s2
    assert bruhat_leq(w, w)
    assert bruhat_leq(e, w)
    assert not bruhat_leq(s3, w)
    rho = WindowPerm.rho(3)
    for y in (e, s1, w):
        assert not bruhat_leq(rho * y, y)
        assert not bruhat_leq(y, rho * y)


def test_bruhat_matches_subword_oracle():
    elems = enumerate_up_to_length(3, 5)
    rng = random.Random(11)
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(300)]
    pairs += [(y, w) for y in elems[:12] for w in elems[:12]]
    for y, w in pairs:
        assert bruhat_leq(y, w) == bruhat_by_subwords(y, w)


def test_enumerate_counts():
    assert len(enumerate_up_to_length(3, 0)) == 1
    assert len(enumerate_up_to_length(3, 1)) == 4
    assert len(enumerate_up_to_length(3, 2)) == 10
    ext = enumerate_up_to_length(3, 1, extended=True, rho_bound=2)
    assert len(ext) == 4 * 5
    assert len(set(ext)) == len(ext)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_enumeration_matches_its_first_form(r):
    for length in range(6):
        assert enumerate_up_to_length(r, length) == enumerate_up_to_length_first_form(r, length)
        for rho_bound in (0, 1, 2):
            assert enumerate_up_to_length(r, length, extended=True, rho_bound=rho_bound) == (
                enumerate_up_to_length_first_form(r, length, extended=True, rho_bound=rho_bound)
            )


def test_a_rho_bound_without_extension_is_refused():
    with pytest.raises(ValueError, match="extended=True"):
        enumerate_up_to_length(3, 2, rho_bound=1)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_parabolic_methods_match_their_first_forms(r):
    for pi in all_proper_parabolics(r):
        for shift in range(r):
            p = pi.shifted(shift)
            assert p.elements() == parabolic_elements_first_form(p)
            assert p.longest_element() == parabolic_longest_element_first_form(p)


def test_parabolic_elements():
    p1 = ParabolicIndex(3, {1})
    assert set(p1.elements()) == {WindowPerm.identity(3), WindowPerm.s(3, 1)}
    p12 = ParabolicIndex(3, {1, 2})
    assert len(p12.elements()) == 6
    shifted = ParabolicIndex(3, {1}, shift=1)
    assert set(shifted.elements()) == {WindowPerm.identity(3), WindowPerm.s(3, 2)}
    with pytest.raises(ValueError):
        ParabolicIndex(3, {1, 2, 3})


def test_longest_element():
    assert ParabolicIndex(3, {1}).longest_element() == WindowPerm.s(3, 1)
    assert ParabolicIndex(3, ()).longest_element() == WindowPerm.identity(3)
    w0 = ParabolicIndex(3, {1, 2}).longest_element()
    assert w0.length() == 3
    assert w0.window == (3, 2, 1)
    # the longest element is the max over the enumeration
    p = ParabolicIndex(4, {2, 3})
    assert p.longest_element() == max(p.elements(), key=lambda w: w.length())


def test_coset_decompose():
    r = 3
    p1 = ParabolicIndex(r, {1})
    w = WindowPerm.s(r, 1) * WindowPerm.s(r, 2)
    u, d = coset_decompose(w, p1)
    assert (u, d) == (WindowPerm.s(r, 1), WindowPerm.s(r, 2))
    rho = WindowPerm.rho(r)
    for pi in (p1, ParabolicIndex(r, {1, 2})):
        assert coset_decompose(rho, pi) == (WindowPerm.identity(r), rho)
        assert is_distinguished(rho, pi)


def test_coset_decompose_unique_and_additive():
    for r in (3, 4):
        elems = enumerate_up_to_length(r, 4, extended=True, rho_bound=1)
        subsets = [
            ParabolicIndex(r, m)
            for k in range(r)
            for m in itertools.combinations(range(1, r + 1), k)
        ]
        rng = random.Random(5)
        for w in rng.sample(elems, 25):
            for pi in subsets:
                u, d = coset_decompose(w, pi)
                assert u * d == w
                assert u.length() + d.length() == w.length()
                assert is_distinguished(d, pi)
                assert u in pi.elements()
                assert brute_coset_factorizations(w, pi) == [(u, d)]


def test_distinguished_examples():
    p1 = ParabolicIndex(3, {1})
    assert is_distinguished(WindowPerm.identity(3), p1)
    assert not is_distinguished(WindowPerm.s(3, 1), p1)


def test_double_coset_rep():
    r = 3
    p1, p2 = ParabolicIndex(r, {1}), ParabolicIndex(r, {2})
    w = WindowPerm.s(r, 1) * WindowPerm.s(r, 2)
    rep = double_coset_rep(w, p1, p2)
    brute = brute_double_coset_min(w, p1, p2)
    assert rep.length() == brute.length()
    assert rep in double_coset(w, p1, p2)
    assert is_distinguished(rep, p1)
    assert is_distinguished(rep.inverse(), p2)
    assert double_coset_rep(rep, p1, p2) == rep
    assert double_coset_rep(WindowPerm.s(r, 1), p1, ParabolicIndex(r, ())) == WindowPerm.identity(r)


def test_longest_double_coset_elt():
    r = 3
    none = ParabolicIndex(r, ())
    d = WindowPerm.s(r, 2)
    assert longest_double_coset_elt(d, none, none) == d
    p1 = ParabolicIndex(r, {1})
    assert longest_double_coset_elt(WindowPerm.identity(r), p1, p1) == WindowPerm.s(r, 1)
    # rho-shifted coset: unique max exists and has the rho-power of d
    rho = WindowPerm.rho(r)
    p2 = ParabolicIndex(r, {2})
    top = longest_double_coset_elt(rho, p1, p2)
    coset = double_coset(rho, p1, p2)
    assert sum(1 for w in coset if w.length() == top.length()) == 1
    z, c = top.rho_decompose()
    assert z == 1
    # cross-check: the max is rho^z times the longest in the shifted coset
    assert all(w.rho_power() == 1 for w in coset)


def test_longest_double_coset_form_rho_times_coxeter():
    # w+ = rho^t * (longest element of a Coxeter-part double coset)
    r = 3
    p1, p2 = ParabolicIndex(r, {1}), ParabolicIndex(r, {2})
    for z in (-1, 0, 1, 2):
        d = WindowPerm.rho(r, z)
        top = double_coset_rep(d, p1, p2)
        plus = longest_double_coset_elt(top, p1, p2)
        zz, c = plus.rho_decompose()
        assert zz == z
        # the Coxeter part is the longest element of the conjugate-shifted coset
        shifted_left = ParabolicIndex(r, p1.members, shift=z)
        _, c0 = d.rho_decompose()
        cands = {u * c0 * x for u in shifted_left.elements() for x in p2.elements()}
        assert c == max(cands, key=lambda w: w.length())


def test_json_roundtrip():
    w = WindowPerm((4, 2, 3))
    assert w.to_obj() == {"r": 3, "window": [4, 2, 3]}
    assert WindowPerm.from_obj(w.to_obj()) == w
    with pytest.raises(ValueError):
        WindowPerm.from_obj({"r": 4, "window": [2, 1, 3]})
    with pytest.raises(ValueError):
        WindowPerm.from_obj({"window": "213"})

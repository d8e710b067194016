"""The single-pass pure window and Hecke-generator kernels against the
scanning bodies they replaced, the left-descent kernel against the
comparison of two win_apply values that it replaced, the tensor letter kernels against the bodies
that added each term through a shifted copy (both in oracles.py), and the KL
table's own Bruhat test and mu lists against the global bruhat_leq and the
old lower-set loop.
"""

import itertools
import random

import pytest

from affineschur import _kernels_py as pure
from affineschur import weyl
from affineschur.hecke import KLTable
from affineschur.weyl import WindowPerm, bruhat_leq

import oracles

SEED = 20261018


def seeded_windows(rng, r, count=12, max_len=30):
    """Windows rho^z * (a random word of at most max_len letters) for every
    rho power z in -3..3; lengths run up to max_len."""
    out = []
    for z in range(-3, 4):
        for _ in range(count):
            w = tuple(range(1 + z, r + 1 + z))
            for _ in range(rng.randrange(max_len + 1)):
                w = oracles.win_mul_s_right(w, rng.randrange(1, r + 1))
            out.append(w)
    return out


def rand_lp(rng):
    return {rng.randrange(-6, 7): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randrange(1, 4))}


def outcome(fn, *args):
    """fn's value, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_window_kernels_match_the_scanning_bodies(r):
    rng = random.Random(SEED + r)
    wins = seeded_windows(rng, r)
    assert max(oracles.win_length(w) for w in wins) > 12
    for w in wins:
        assert pure.win_length(w) == oracles.win_length(w)
        u = rng.choice(wins)
        assert pure.win_compose(u, w) == oracles.win_compose(u, w)
        for i in range(1, r + 1):
            assert pure.win_mul_s_right(w, i) == oracles.win_mul_s_right(w, i)
            assert pure.win_is_right_descent(w, i) == oracles.win_is_right_descent(w, i)
            assert pure.win_is_left_descent(w, i) == oracles.win_is_left_descent(w, i)


def test_length_is_the_crossing_count_across_rho_powers():
    rng = random.Random(SEED)
    for r in range(3, 8):
        for _ in range(300):
            base = list(range(1, r + 1))
            rng.shuffle(base)
            w = tuple(b + r * rng.randrange(-4, 5) for b in base)
            z = rng.randrange(-3, 4)
            for win in (w, pure.win_add(w, z), pure.win_rot(w, z)):
                assert pure.win_length(win) == oracles.win_length(win)


def test_malformed_windows_raise_the_same_error():
    # every window of length 3 or 4 with entries in -4..5 whose residues are
    # not a complete system: kernels that raised keep raising the same
    # ValueError, and the others keep their value
    for r in (3, 4):
        bad = [
            w for w in itertools.product(range(-4, 6), repeat=r)
            if len({x % r for x in w}) < r
        ]
        assert bad
        for w in bad:
            for i in range(1, r + 1):
                for name in ("win_mul_s_right", "win_is_right_descent"):
                    assert outcome(getattr(pure, name), w, i) == outcome(getattr(oracles, name), w, i)
                terms = {w: {0: 1}}
                assert outcome(pure.hecke_mul_gen_right, terms, i) == outcome(
                    oracles.hecke_mul_gen_right, terms, i
                )
            assert pure.win_compose(w, w) == oracles.win_compose(w, w)
    with pytest.raises(ValueError, match="incomplete residue system"):
        pure.hecke_mul_gen_right({(1, 2, 3): {0: 1}, (1, 4, 3): {0: 1}}, 2)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_hecke_generator_step_matches_the_scanning_body(r):
    rng = random.Random(SEED + 10 * r)
    wins = seeded_windows(rng, r, count=4, max_len=12)
    for _ in range(150):
        terms = {w: rand_lp(rng) for w in rng.sample(wins, rng.randrange(1, 9))}
        for i in range(1, r + 1):
            assert pure.hecke_mul_gen_right(terms, i) == oracles.hecke_mul_gen_right(terms, i)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_hecke_generator_step_drops_cancelled_terms(r):
    # with ws = w s_i < w: T_w T_s = q T_ws + (q - 1) T_w and T_ws T_s = T_w,
    # so c_ws = (1 - q) c_w cancels the image at w, wholly or in part
    rng = random.Random(SEED + 100 * r)
    cases = 0
    for w in seeded_windows(rng, r, count=3, max_len=10):
        for i in range(1, r + 1):
            if not oracles.win_is_right_descent(w, i):
                continue
            ws = oracles.win_mul_s_right(w, i)
            c = rand_lp(rng)
            full = pure.lp_sub(c, {e + 2: k for e, k in c.items()})
            part = dict(full)
            part.pop(next(iter(part)))
            for cw, cws in ((c, full), (c, part), (c, {}), ({}, full)):
                for terms in ({w: cw, ws: cws}, {ws: cws, w: cw}):
                    got = pure.hecke_mul_gen_right(terms, i)
                    assert got == oracles.hecke_mul_gen_right(terms, i)
                    assert all(got.values())
                    if cws is full and cw:
                        assert w not in got
                    cases += 1
    assert cases > 100


def _long_element(rng, r, length):
    w = WindowPerm.identity(r)
    while w.length() < length:
        w2 = w * WindowPerm.s(r, rng.randrange(1, r + 1))
        if w2.length() > w.length():
            w = w2
    return w


@pytest.mark.parametrize("r,length", [(4, 5), (4, 7), (5, 5), (5, 6)])
def test_lower_sets_are_bruhat_intervals(r, length):
    rng = random.Random(SEED + r * length)
    w = _long_element(rng, r, length)
    table = KLTable(r)
    interval = sorted(table._lower_set(w.window))
    assert len(interval) > 20
    for y, x in itertools.product(interval, repeat=2):
        assert (y in table._lower_set(x)) == bruhat_leq(WindowPerm(y), WindowPerm(x))


def _no_bruhat_order(ywin, wwin):
    raise AssertionError("KLTable consulted weyl's Bruhat order")


def test_kl_column_matches_the_bruhat_leq_table_without_consulting_bruhat_order(monkeypatch):
    # the oracle runs the recursion's old loop over the whole lower set of v;
    # the table reads its mu-terms per (v, s) instead, and must fill exactly
    # the same memo entries with the same polynomials.  The table decides
    # Bruhat order by its own lower sets, so weyl's test raises while the
    # column is built; the oracle, which uses it, runs after
    for r, least in ((3, 100), (4, 300), (5, 300)):
        rng = random.Random(SEED)
        w = _long_element(rng, r, 12)
        table = KLTable(r)
        with monkeypatch.context() as m:
            m.setattr(weyl, "_bruhat_cox", _no_bruhat_order)
            column = {y: table.polynomial(WindowPerm(y), w) for y in table._lower_set(w.window)}
        oracle = oracles.kl_table_by_bruhat(r)
        assert column == {y: oracle.polynomial(WindowPerm(y), w) for y in column}
        assert len(table._memo) == len(oracle._memo)
        assert table._memo == oracle._memo
        assert len(column) > least
        assert sum(p.degree > 0 for p in column.values()) > 10
        pairs = [(y, w.window) for y in column] + list(oracle._memo)
        mus = [table.mu(WindowPerm(y), WindowPerm(x)) for y, x in pairs]
        assert mus == [oracle.mu(WindowPerm(y), WindowPerm(x)) for y, x in pairs]
        assert sum(map(bool, mus)) > 100


def small_tensor_terms(rng, keys):
    """A few distinct keys, each with a random Laurent coefficient."""
    return {key: rand_lp(rng) for key in rng.sample(keys, rng.randrange(1, 7))}


@pytest.mark.parametrize("n, r", [(3, 3), (4, 3), (3, 4)])
def test_letter_kernels_match_their_first_forms(n, r):
    rng = random.Random(SEED + 10 * n + r)
    keys = list(itertools.product(range(-2, 3), repeat=r))
    for _ in range(200):
        terms = small_tensor_terms(rng, keys)
        for i in range(1, n + 1):
            for got, want in (
                (pure.tensor_act_E(terms, i, n), oracles.tensor_act_E(terms, i, n)),
                (pure.tensor_act_F(terms, i, n), oracles.tensor_act_F(terms, i, n)),
                (pure.tensor_act_K(terms, i, n, False), oracles.tensor_act_K(terms, i, n, False)),
                (pure.tensor_act_K(terms, i, n, True), oracles.tensor_act_K(terms, i, n, True)),
            ):
                assert got == want
                assert all(got.values())


@pytest.mark.parametrize("name", ["tensor_act_E", "tensor_act_F"])
def test_letter_kernels_drop_cancelled_keys(name):
    # keys k1 and k2 = k1 - e_t + e_s that one letter sends to the same key
    # nk: with k2's coefficient chosen against k1's, nk cancels wholly, or
    # all but one term of it
    n, r = 3, 3
    kernel, first_form = getattr(pure, name), getattr(oracles, name)
    rng = random.Random(SEED + len(name))
    whole = part = 0
    for k1 in itertools.product(range(-1, 3), repeat=r):
        c1 = rand_lp(rng)
        for t, s in itertools.permutations(range(r), 2):
            k2 = list(k1)
            k2[t] -= 1
            k2[s] += 1
            k2 = tuple(k2)
            for i in range(1, n + 1):
                o1, o2 = first_form({k1: c1}, i, n), first_form({k2: {0: 1}}, i, n)
                for nk in set(o1) & set(o2):
                    ((w2, _),) = o2[nk].items()
                    c2 = {e - w2: -x for e, x in o1[nk].items()}
                    cut = dict(list(c2.items())[1:])
                    for cw2 in (c2, cut) if cut else (c2,):
                        for terms in ({k1: c1, k2: cw2}, {k2: cw2, k1: c1}):
                            got = kernel(terms, i, n)
                            assert got == first_form(terms, i, n)
                            assert all(got.values())
                            assert (nk in got) == (cw2 is cut)
                    whole += 1
                    part += len(c2) > 1
    assert whole > 100 and part > 50

"""Hecke walks on packed coefficients: the codec of _kernels_py, the width
that bounds it, the packed step's per-letter memo, and every caller of the
packed step matched key by key against the scanning oracles of oracles.py,
with coefficients far beyond a machine word and words of length 12 and more
at r = 5.  HeckeElement.to_obj is matched byte for byte against its first
form."""

import json
import random

import pytest

from affineschur import _kernels_py as kernels
from affineschur import hecke, verify
from affineschur.hecke import HeckeElement, KLTable, t_basis, t_basis_inverse
from affineschur.laurent import Laurent
from affineschur.schur import QTensorElement, Weight, act_hecke_right, act_schur_left, phi
from affineschur.weyl import WindowPerm

from oracles import (
    act_hecke_right_by_terms,
    act_schur_left_by_terms,
    hecke_bar_by_words,
    hecke_mul_by_words,
    hecke_mul_gen_right,
    hecke_packed_mul_gen_right,
    hecke_to_obj,
    kl_by_bar_involution,
    t_basis_inverse_by_words,
)

BIG = 10**30 + 7
R = 5


def reduced(rng: random.Random, r: int, length: int, z: int = 0) -> WindowPerm:
    """rho^z times a random element of the given length, built by ascents."""
    w = WindowPerm.identity(r)
    while w.length() < length:
        ws = w * WindowPerm.s(r, rng.randint(1, r))
        if ws.length() > w.length():
            w = ws
    return WindowPerm.rho(r, z) * w


def big_coeff(rng: random.Random) -> Laurent:
    exps = rng.sample(range(-4, 5), rng.randint(1, 3))
    return Laurent({e: rng.choice((BIG, -BIG, 3, -1)) for e in exps})


def big_element(rng: random.Random, r: int, nterms: int, lengths=(12, 14)) -> HeckeElement:
    return HeckeElement(
        r, {reduced(rng, r, rng.randint(*lengths), rng.randint(-1, 1)): big_coeff(rng) for _ in range(nterms)}
    )


# ---------------------------------------------------------------------------
# the codec


@pytest.mark.parametrize("width", [2, 7, 46, 64, 65])
def test_codec_round_trips_at_the_edge_of_the_width(width):
    edge = (1 << (width - 1)) - 1
    assert kernels.packed_width(edge) == width
    assert kernels.packed_width(edge + 1) == width + 1
    for a in ({-3: edge, 0: -edge, 2: edge}, {-5: -edge - 1}, {4: edge, 5: -edge, 9: -edge}, {0: 1, 1: -1}):
        for extra in (0, 1, 3):
            offset = extra - min(a)
            assert kernels.lp_unpack(kernels.lp_pack(a, offset, width), offset, width) == a
    # one past the edge is read back as a different polynomial
    over = {0: edge + 1}
    assert kernels.lp_unpack(kernels.lp_pack(over, 0, width), 0, width) != over


def test_unpack_drops_cancelled_keys():
    width = 10
    a, b = {-2: 7, 1: -300}, {-2: -7, 1: 300}
    packed = {(1, 2, 3): kernels.lp_pack(a, 2, width) + kernels.lp_pack(b, 2, width),
              (2, 1, 3): kernels.lp_pack(a, 2, width)}
    assert kernels.hecke_unpack(packed, 2, width) == {(2, 1, 3): a}


def test_a_step_that_cancels_a_key_drops_it():
    # T_w T_s has (q - 1) at w when ws < w; (1 - q) T_ws T_s cancels it
    w = (2, 1, 3)  # s_1, with w s_1 < w
    c = {-1: BIG, 3: -2}
    terms = {w: c, (1, 2, 3): kernels.lp_mul(c, {0: 1, 2: -1})}
    got = kernels.hecke_mul_gen_right(terms, 1)
    assert got == hecke_mul_gen_right(terms, 1) == {(1, 2, 3): kernels.lp_shift(c, 2)}


@pytest.mark.parametrize("r", [3, 4, 5])
def test_a_step_memo_shared_across_letters_matches_the_first_form(r):
    # one memo for every call, as in a walk; windows recur under each letter
    rng = random.Random(f"packed-steps:{r}")
    pool = [reduced(rng, r, rng.randint(0, 9), rng.randint(-2, 2)).window for _ in range(30)]
    steps: dict = {}
    shift = 2 * 70
    for _ in range(60):
        terms = {w: rng.choice((1, -1)) * rng.getrandbits(200) for w in rng.sample(pool, rng.randint(1, 12))}
        i = rng.randint(1, r)
        assert kernels.hecke_packed_mul_gen_right(terms, i, shift, steps) == hecke_packed_mul_gen_right(terms, i, shift)
    assert sorted(steps) == list(range(1, r + 1))
    assert sum(map(len, steps.values())) > 2 * len(pool)


def test_an_incomplete_residue_window_raises():
    # a raise, not an assert, so it holds under python -O; a memo filled by
    # other windows and letters does not hide it
    steps: dict = {}
    kernels.hecke_packed_mul_gen_right({(1, 2, 3): 1, (3, 1, 2): 5}, 1, 8, steps)
    kernels.hecke_packed_mul_gen_right({(1, 2, 3): 1, (3, 1, 2): 5}, 2, 8, steps)
    # (1, 1, 3) has no entry of residue 2, which s_1 and s_2 both move
    for i in (1, 2):
        with pytest.raises(ValueError, match="incomplete residue system"):
            kernels.hecke_packed_mul_gen_right({(1, 2, 3): 1, (1, 1, 3): 2}, i, 8, steps)
        with pytest.raises(ValueError, match="incomplete residue system"):
            HeckeElement._raw(3, {(1, 1, 3): {0: 1}}) * t_basis(WindowPerm.s(3, i))


@pytest.mark.parametrize("k", [2**64 + 1, -(2**64 + 1), 2**64 - 1, -(2**64 - 1)])
def test_a_coefficient_equal_to_the_bound_survives(k):
    # |K T_e|_1 * |1|_1 * 3^0 = |K|: the result coefficient is the bound itself
    e = WindowPerm.identity(R)
    a = t_basis(e).scale(k)
    assert (a * t_basis(e))._terms == {e.window: {0: k}}
    assert a.bar()._terms == {e.window: {0: k}}
    x = HeckeElement(R, {e: Laurent({-3: k, 2: -k})})
    assert (x * t_basis(e)) == x == x.bar().bar()


# ---------------------------------------------------------------------------
# every caller against its oracle


def test_product_and_mul_t_right_match_the_words_oracle():
    rng = random.Random("packed-product")
    for _ in range(3):
        a, b = big_element(rng, R, 3), big_element(rng, R, 3)
        assert (a * b)._terms == hecke_mul_by_words(a, b)._terms
        w = reduced(rng, R, 13, 1)
        assert (a * t_basis(w))._terms == hecke_mul_by_words(a, t_basis(w))._terms


def test_generator_steps_match_the_scanning_body():
    rng = random.Random("packed-gen")
    h = big_element(rng, R, 5)
    for i in range(1, R + 1):
        s = WindowPerm.s(R, i)
        assert (h * t_basis(s))._terms == hecke_mul_gen_right(h._terms, i)
        inv = h * t_basis_inverse(s)
        assert inv * t_basis(s) == h
        assert inv._terms == hecke_mul_by_words(h, t_basis_inverse_by_words(s))._terms


def test_bar_and_inverses_match_the_words_oracle():
    rng = random.Random("packed-bar")
    h = big_element(rng, R, 3, lengths=(12, 13))
    assert h.bar()._terms == hecke_bar_by_words(h)._terms
    ws = [reduced(rng, R, n, rng.randint(-1, 1)) for n in (12, 13, 14)]
    bars = dict(hecke._bar_walk(R, (w.window for w in ws)))
    for w in ws:
        assert t_basis_inverse(w)._terms == t_basis_inverse_by_words(w)._terms
        assert bars[w.window] == t_basis_inverse_by_words(w.inverse())._terms


def test_kl_by_involution_matches_the_recursion_and_its_oracle():
    rng = random.Random("packed-kl")
    w = reduced(rng, 4, 9)
    table = KLTable(4)
    got = verify._kl_by_involution(w)
    assert got == kl_by_bar_involution(w)
    assert all(table.polynomial(y, w) == p for y, p in got.items())


@pytest.mark.parametrize("r", [3, 4, 5])
def test_walks_match_the_oracles_at_every_rank(r):
    rng = random.Random(f"packed-walks:{r}")
    a, b = big_element(rng, r, 3, lengths=(5, 8)), big_element(rng, r, 3, lengths=(5, 8))
    assert (a * b)._terms == hecke_mul_by_words(a, b)._terms
    assert a.bar()._terms == hecke_bar_by_words(a)._terms
    lam = Weight(r, r, (2,) + (1,) * (r - 2) + (0,))
    mu = Weight(r, r, (1,) * r)
    x = _tensor(rng, r, r, [lam, mu], 5)
    assert act_hecke_right(x, b) == act_hecke_right_by_terms(x, b)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_to_obj_prints_the_bytes_of_its_first_form(r):
    rng = random.Random(f"packed-to-obj:{r}")
    a, b = big_element(rng, r, 4, lengths=(2, 6)), big_element(rng, r, 3, lengths=(0, 4))
    elems = [
        a, b, a * b, a.bar(),
        t_basis(WindowPerm.rho(r, -2)).scale(Laurent({-3: 1, 0: -5})),
        HeckeElement.unit(r), HeckeElement.zero(r),
    ]
    assert any(w.rho_power() < 0 for w in (a * b).support())
    assert any(e < 0 for _, c in (a * b).items() for e in c.raw())
    for h in elems:
        obj = h.to_obj()
        assert json.dumps(obj) == json.dumps(hecke_to_obj(h))
        assert json.dumps(obj, sort_keys=True) == json.dumps(hecke_to_obj(h), sort_keys=True)
        assert HeckeElement.from_obj(obj) == h


def _tensor(rng, n, r, weights, length):
    x = QTensorElement.zero(n, r)
    for lam in weights:
        x = x + QTensorElement.basis(lam, reduced(rng, r, length, rng.randint(-1, 1))).scale(big_coeff(rng))
    return x


def test_schur_actions_match_the_per_term_oracles():
    rng = random.Random("packed-schur")
    n = R
    lam, mu = Weight(n, R, (2, 1, 1, 1, 0)), Weight(n, R, (1, 1, 2, 0, 1))
    x = _tensor(rng, n, R, [lam, mu, lam], 12)
    h = big_element(rng, R, 2, lengths=(12, 13))
    assert act_hecke_right(x, h) == act_hecke_right_by_terms(x, h)
    s = phi(mu, lam, reduced(rng, R, 3)).scale(big_coeff(rng)) + phi(lam, lam, reduced(rng, R, 2, 1)).scale(-BIG)
    assert act_schur_left(s, x) == act_schur_left_by_terms(s, x)

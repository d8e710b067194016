"""The compiled and pure kernels must be interchangeable.

Every public kernel function is hit with the same randomized inputs on
both backends and the outputs compared structurally.  Skipped wholesale
when the extension was not built.
"""

import os
import random
import subprocess
import sys
import zlib

import pytest

from affineschur import _kernels_py as pure

compiled = pytest.importorskip("affineschur._kernels")

SEED = 20250825


def rand_lp(rng, size=4):
    out = {}
    for _ in range(rng.randrange(size + 1)):
        out[rng.randrange(-6, 7)] = rng.randrange(-9, 10) or 1
    return out


def rand_window(rng, r):
    base = list(range(1, r + 1))
    rng.shuffle(base)
    return tuple(b + r * rng.randrange(-2, 3) for b in base)


def rand_key(rng, r):
    return tuple(rng.randrange(-8, 9) for _ in range(r))


def rand_hecke(rng, r, terms=3):
    return {rand_window(rng, r): rand_lp(rng) or {0: 1} for _ in range(terms)}


def rand_tensor(rng, r, terms=3):
    return {rand_key(rng, r): rand_lp(rng) or {0: 1} for _ in range(terms)}


def test_backend_is_compiled_by_default():
    assert compiled.BACKEND == "cython"
    assert pure.BACKEND == "pure-python"


def test_env_var_forces_pure_backend():
    code = (
        "from affineschur._backend import BACKEND; print(BACKEND)"
    )
    env = dict(os.environ, AFFINESCHUR_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "pure-python"


@pytest.mark.parametrize("name", ["lp_add", "lp_sub", "lp_mul"])
def test_lp_binary_ops_agree(name):
    rng = random.Random(SEED + zlib.crc32(name.encode()) % 1000)
    for _ in range(80):
        a, b = rand_lp(rng), rand_lp(rng)
        assert getattr(compiled, name)(a, b) == getattr(pure, name)(a, b)


def test_lp_unary_and_misc_agree():
    rng = random.Random(SEED)
    for _ in range(80):
        a = rand_lp(rng)
        k = rng.randrange(-4, 5)
        c = rng.randrange(-5, 6)
        assert compiled.lp_neg(a) == pure.lp_neg(a)
        assert compiled.lp_scale(a, c) == pure.lp_scale(a, c)
        assert compiled.lp_shift(a, k) == pure.lp_shift(a, k)
        assert compiled.lp_bar(a) == pure.lp_bar(a)
        assert compiled.lp_eval_one(a) == pure.lp_eval_one(a)
        assert compiled.lp_eval_mod(a, 3, 46337) == pure.lp_eval_mod(a, 3, 46337)


def test_lp_into_ops_agree():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        acc1, acc2 = rand_lp(rng), None
        acc2 = dict(acc1)
        a, b = rand_lp(rng), rand_lp(rng)
        compiled.lp_add_into(acc1, a)
        pure.lp_add_into(acc2, a)
        assert acc1 == acc2
        compiled.lp_addmul_into(acc1, a, b)
        pure.lp_addmul_into(acc2, a, b)
        assert acc1 == acc2


def test_window_ops_agree():
    rng = random.Random(SEED + 2)
    for r in (3, 4, 5):
        for _ in range(60):
            w, u = rand_window(rng, r), rand_window(rng, r)
            t = rng.randrange(-7, 8)
            z = rng.randrange(-3, 4)
            i = rng.randrange(1, r + 1)
            assert compiled.win_apply(w, t) == pure.win_apply(w, t)
            assert compiled.win_pos(w, compiled.win_apply(w, t)) == pure.win_pos(
                w, pure.win_apply(w, t)
            )
            assert compiled.win_compose(u, w) == pure.win_compose(u, w)
            assert compiled.win_inverse(w) == pure.win_inverse(w)
            assert compiled.win_length(w) == pure.win_length(w)
            assert compiled.win_add(w, z) == pure.win_add(w, z)
            assert compiled.win_rot(w, z) == pure.win_rot(w, z)
            assert compiled.win_mul_s_right(w, i) == pure.win_mul_s_right(w, i)
            assert compiled.win_mul_s_left(w, i) == pure.win_mul_s_left(w, i)
            assert compiled.win_is_left_descent(w, i) == pure.win_is_left_descent(w, i)
            assert compiled.win_is_right_descent(w, i) == pure.win_is_right_descent(w, i)


def test_win_pos_rejects_collisions_on_both():
    bad = (1, 4, 3)
    with pytest.raises(ValueError):
        pure.win_pos(bad, 2)
    with pytest.raises(ValueError):
        compiled.win_pos(bad, 2)


def test_hecke_kernels_agree():
    rng = random.Random(SEED + 3)
    for r in (3, 4):
        for _ in range(40):
            terms = rand_hecke(rng, r)
            i = rng.randrange(1, r + 1)
            z = rng.randrange(-2, 3)
            assert compiled.hecke_mul_gen_right(terms, i) == pure.hecke_mul_gen_right(terms, i)
            assert compiled.hecke_mul_gen_left(terms, i) == pure.hecke_mul_gen_left(terms, i)
            assert compiled.hecke_mul_rho_right(terms, z) == pure.hecke_mul_rho_right(terms, z)
            assert compiled.hecke_mul_rho_left(terms, z) == pure.hecke_mul_rho_left(terms, z)


def test_tensor_kernels_agree():
    rng = random.Random(SEED + 4)
    n = 3
    for r in (2, 3, 4):
        for _ in range(40):
            terms = rand_tensor(rng, r)
            i = rng.randrange(1, n + 1)
            t = rng.randrange(r)
            amt = rng.choice((-n, n))
            assert compiled.tensor_act_E(terms, i, n) == pure.tensor_act_E(terms, i, n)
            assert compiled.tensor_act_F(terms, i, n) == pure.tensor_act_F(terms, i, n)
            assert compiled.tensor_act_K(terms, i, n, False) == pure.tensor_act_K(terms, i, n, False)
            assert compiled.tensor_act_K(terms, i, n, True) == pure.tensor_act_K(terms, i, n, True)
            assert compiled.tensor_act_R(terms, False) == pure.tensor_act_R(terms, False)
            assert compiled.tensor_act_R(terms, True) == pure.tensor_act_R(terms, True)
            assert compiled.tensor_shift_slot(terms, t, amt) == pure.tensor_shift_slot(terms, t, amt)


def test_big_coefficients_survive_compiled_path():
    # coefficient arithmetic must stay arbitrary precision
    big = 10**40
    a = {0: big, 5: -big}
    b = {1: big}
    assert compiled.lp_mul(a, b) == {1: big * big, 6: -big * big}
    assert compiled.lp_eval_one(a) == 0
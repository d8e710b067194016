"""The exact linear algebra behind the bridge maps: the unit-triangular peel
that inverts theta_iso and proves the duality sweep's two injectivity rows,
and the closed form that reads finite keys off the transported block
x_lambda T_d with no solve.

The peel is checked key by key against the fraction-free Bareiss solve it
replaced (tests/oracles.bareiss_solve); the closed form against the Bareiss
solve over the walked finite block (tests/oracles.finite_block_by_walk).  A
complete peel proves full rank over Z[v, v^-1]; on the duality matrices the
numpy mod-p rank (tests/oracles.modp_rank) certifies the same ranks apart.
"""

import itertools
import random

import numpy as np
import pytest

from affineschur import _sweeps, quantum
from affineschur.laurent import Laurent, addmul_into
from affineschur.quantum import TensorVector, theta_iso, theta_iso_basis
from affineschur.schur import QTensorElement, Weight, act_schur_left, all_weights, omega, phi, young_parabolic
from affineschur.weyl import WindowPerm, enumerate_up_to_length

from oracles import (
    bareiss_solve,
    eval_mod,
    finite_block_by_walk,
    finite_distinguished_by_enumeration,
    finite_image_by_walk,
    modp_rank,
)

P = 46337


def _vectors(n, r, columns):
    return [TensorVector._raw(n, r, col) for col in columns]


# -- the peel against Bareiss -------------------------------------------------


@pytest.mark.parametrize("rho_bound", [0, 1])
def test_peel_matches_bareiss_on_theta_bases(rho_bound):
    n = r = 3
    keys, columns, order = quantum._theta_system(n, r, 1, rho_bound)
    basis = theta_iso_basis(n, r, 1, rho_bound)
    rng = random.Random(61 + rho_bound)
    for _ in range(2):
        x = QTensorElement.zero(n, r)
        for lam, d in rng.sample(basis, 5):
            x = x + QTensorElement.basis(lam, d).scale(Laurent({rng.randrange(-2, 3): rng.choice((1, -1))}))
        y = theta_iso(x)
        peeled = [Laurent(c) for c in quantum._peel(columns, order, y._terms)]
        assert peeled == bareiss_solve(_vectors(n, r, columns), y)
        assert {k: c.raw() for k, c in zip(keys, peeled) if c} == x._terms


@pytest.mark.parametrize("n", [3, 4])
def test_peel_matches_bareiss_on_finite_blocks(n):
    # on every finite key, the peel over the walked block agrees with the
    # Bareiss solve, and the closed form of _finite_term_image equals the
    # transport built from that solve, for phi^1_{mu,mu}, phi^{s_1}_{mu,mu}
    # and phi^1_{lambda,mu} with lambda the first weight
    r = n
    first, e = all_weights(n, r)[0], WindowPerm.identity(r)
    for key in itertools.product(range(1, n + 1), repeat=r):
        mu = Weight.of_key(key, n)
        block, columns, order = finite_block_by_walk(n, r, mu.parts)
        solved = bareiss_solve(_vectors(n, r, columns), TensorVector.unit(n, key))
        assert [Laurent(c) for c in quantum._peel(columns, order, {key: {0: 1}})] == solved
        for lam, d in ((mu, e), (mu, WindowPerm.s(r, 1)), (first, e)):
            g = phi(lam, mu, d)
            want: dict = {}
            for dw, c in zip(block, solved):
                if not c:
                    continue
                for lam3, d3, c3 in act_schur_left(g, QTensorElement.basis(mu, WindowPerm._unsafe(dw))).items():
                    addmul_into(want, finite_image_by_walk(n, r, lam3.parts, d3.window)._terms, (c * c3).raw())
            assert quantum._finite_term_image(n, r, lam.parts, mu.parts, d.window, key) == want, (key, lam, d)


@pytest.mark.parametrize("n, r", [(3, 3), (4, 3), (4, 4), (5, 4)])
def test_walked_finite_transport_is_one_term(n, r):
    # x_lambda T_d, walked through the finite rule along d's reduced word,
    # is exactly v^l(d) e_key, key being lambda's increasing key with its
    # slots swapped along that word; over the distinguished d these keys
    # are distinct and are all the keys of weight lambda in 1..n
    for lam in all_weights(n, r):
        pi = young_parabolic(lam)
        keys = set()
        for d in finite_distinguished_by_enumeration(r, pi.generators):
            key = list(lam.expanded())
            _, word = d.reduced_word()
            for i in word:
                key[i - 1], key[i] = key[i], key[i - 1]
            image = finite_image_by_walk(n, r, lam.parts, d.window)
            assert image._terms == {tuple(key): {d.length(): 1}}, (lam, d)
            keys.add(tuple(key))
        assert keys == {k for k in itertools.product(range(1, n + 1), repeat=r) if Weight.of_key(k, n) == lam}


# -- the peel's failure paths -------------------------------------------------


def test_peel_rejects_columns_without_a_private_key():
    a, b = (1,), (2,)
    assert quantum._peel_order([{a: {0: 1}, b: {0: 1}}, {a: {0: 1}, b: {1: 1}}]) == ()


def test_peel_rejects_a_private_key_with_a_non_unit_coefficient():
    a, b = (1,), (2,)
    assert quantum._peel_order([{a: {0: 1, 1: 1}}]) == ()
    assert quantum._peel_order([{a: {0: 1}}, {a: {0: 1}, b: {0: 2}}]) == ()
    # a column with a private unit peels, one without is left out
    assert quantum._peel_order([{a: {0: 2}}, {b: {2: -1}}]) == ((1, b, {-2: -1}),)


def test_inverse_refuses_columns_that_do_not_all_peel(monkeypatch):
    """theta_iso_inverse solves only along a complete peel."""
    a, b = (1, 2, 3), (2, 1, 3)
    columns = ({a: {0: 1}, b: {0: 1}}, {a: {0: 1}, b: {1: 1}})
    system = (("x", "y"), columns, quantum._peel_order(columns))
    monkeypatch.setattr(quantum, "_theta_system", lambda *args: system)
    with pytest.raises(ValueError, match="not unit-triangular"):
        quantum.theta_iso_inverse(TensorVector.unit(3, a), 1)


def test_peel_rejects_a_target_outside_the_span():
    a, b, c = (1,), (2,), (3,)
    columns = [{a: {0: 1}}, {a: {1: 1}, b: {-1: -1}}]
    order = quantum._peel_order(columns)
    assert quantum._peel(columns, order, {a: {0: 1, 1: 1}, b: {-1: -1}}) == [{0: 1}, {0: 1}]
    with pytest.raises(ValueError, match="not in the span"):
        quantum._peel(columns, order, {a: {0: 1}, c: {0: 1}})


# -- the injectivity peels, certified by the numpy mod-p rank ------------------


def _dense(rows, p):
    """Rows of raw Laurent coefficients as a dense matrix at v = 3 mod p."""
    cols = sorted({c for row in rows for c in row})
    idx = {c: i for i, c in enumerate(cols)}
    a = np.zeros((len(rows), max(1, len(cols))), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, x in row.items():
            a[i, idx[c]] = eval_mod(Laurent(x), 3, p)
    return a


def test_the_duality_matrices_peel():
    """The tau rows and theta columns of the default duality suite
    (n = r = 3, L = 3, window -6..6): the 95 tau rows and the 327 theta
    columns peel completely, so each set is independent over Z[v, v^-1].
    The tau matrix is 95 x 45,600; the oracle certifies its full row rank
    at v = 3 mod p from the 95 columns of one key, since a column subset of
    full row rank already gives rank 95, and the theta rank from all of its
    columns."""
    n = r = 3
    keyset = itertools.product(range(-6, 7), repeat=r)
    omega_keys = [k for k in keyset if Weight.of_key(k, n).parts == omega(n, r).parts]
    basis = enumerate_up_to_length(r, 3, extended=True, rho_bound=2)
    rows = _sweeps._tau_rows(n, r, basis, omega_keys)
    assert len(rows) == len(quantum._peel_order(rows)) == 95
    # the sweep's shortcut: the rows on the first key alone already peel
    assert len(quantum._peel_order(_sweeps._tau_rows(n, r, basis, omega_keys[:1]))) == 95
    one_key = [{c: x for c, x in row.items() if c[0] == omega_keys[0]} for row in rows]
    assert modp_rank(_dense(one_key, P), P) == 95

    _, images, order = quantum._theta_system(n, r, 3, 1)
    assert len(images) == len(order) == 327
    assert modp_rank(_dense(images, P), P) == 327

"""The exact linear algebra behind the bridge maps: the unit-triangular peel
that inverts theta_iso and expands finite keys, and the sparse mod-p rank
behind the injectivity checks.

The peel is checked key by key against the fraction-free Bareiss solve it
replaced (tests/oracles.bareiss_solve), the rank against the numpy oracle.
"""

import itertools
import random

import numpy as np
import pytest

from affineschur import _sweeps, quantum
from affineschur.laurent import Laurent
from affineschur.quantum import TensorVector, theta_iso, theta_iso_basis
from affineschur.schur import QTensorElement, Weight, omega
from affineschur.weyl import enumerate_up_to_length

from oracles import bareiss_solve, modp_rank

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
    r = n
    for key in itertools.product(range(1, n + 1), repeat=r):
        lam = Weight.of_key(key, n)
        block, columns, order = quantum._finite_block(n, r, lam.parts)
        peeled = [Laurent(c) for c in quantum._peel(columns, order, {key: {0: 1}})]
        assert peeled == bareiss_solve(_vectors(n, r, columns), TensorVector.unit(n, key))
        assert quantum._finite_expansion(n, r, key) == tuple(
            (lam.parts, dw, c) for dw, c in zip(block, peeled) if c
        )


# -- the peel's failure paths -------------------------------------------------


def test_peel_rejects_columns_without_a_private_key():
    a, b = (1,), (2,)
    with pytest.raises(ValueError, match="not unit-triangular"):
        quantum._peel_order([{a: {0: 1}, b: {0: 1}}, {a: {0: 1}, b: {1: 1}}])


def test_peel_rejects_a_private_key_with_a_non_unit_coefficient():
    a, b = (1,), (2,)
    with pytest.raises(ValueError, match="not unit-triangular"):
        quantum._peel_order([{a: {0: 1, 1: 1}}])
    with pytest.raises(ValueError, match="not unit-triangular"):
        quantum._peel_order([{a: {0: 1}}, {a: {0: 1}, b: {0: 2}}])


def test_peel_rejects_a_target_outside_the_span():
    a, b, c = (1,), (2,), (3,)
    columns = [{a: {0: 1}}, {a: {1: 1}, b: {-1: -1}}]
    order = quantum._peel_order(columns)
    assert quantum._peel(columns, order, {a: {0: 1, 1: 1}, b: {-1: -1}}) == [{0: 1}, {0: 1}]
    with pytest.raises(ValueError, match="not in the span"):
        quantum._peel(columns, order, {a: {0: 1}, c: {0: 1}})


# -- sparse rank against the numpy oracle ---------------------------------------


def _dense(rows):
    cols = sorted({c for row in rows for c in row})
    idx = {c: i for i, c in enumerate(cols)}
    a = np.zeros((len(rows), max(1, len(cols))), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, x in row.items():
            a[i, idx[c]] = x
    return a


def test_modp_rank_on_the_duality_matrices():
    """The tau and theta injectivity matrices of the default duality suite
    (n = r = 3, L = 3, window -6..6).  The tau matrix is 95 x 45,600; the
    oracle certifies its full row rank from the 95 columns of one key, since
    a column subset of full row rank already gives rank 95."""
    n = r = 3
    keyset = itertools.product(range(-6, 7), repeat=r)
    omega_keys = [k for k in keyset if Weight.of_key(k, n).parts == omega(n, r).parts]
    basis = enumerate_up_to_length(r, 3, extended=True, rho_bound=2)
    rows = _sweeps._tau_rows(n, r, basis, omega_keys, P)
    assert _sweeps._modp_rank(rows, P) == 95
    one_key = [{c: x for c, x in row.items() if c[0] == omega_keys[0]} for row in rows]
    assert modp_rank(_dense(one_key), P) == _sweeps._modp_rank(one_key, P) == 95

    _, images, _ = quantum._theta_system(n, r, 3, 1)
    rows = [_sweeps._eval_row(img, P) for img in images]
    assert modp_rank(_dense(rows), P) == _sweeps._modp_rank(rows, P) == 327


@pytest.mark.parametrize("seed", range(6))
def test_modp_rank_on_planted_deficiency(seed):
    rng = random.Random(seed)
    ncols = rng.randint(8, 30)
    rank = rng.randint(1, 8)
    free = [{c: rng.randrange(1, P) for c in rng.sample(range(ncols), rng.randint(1, 5))} for _ in range(rank)]
    rows = list(free)
    for _ in range(rng.randint(1, 6)):
        combo: dict = {}
        for row in rng.sample(free, rng.randint(1, rank)):
            f = rng.randrange(1, P)
            for c, x in row.items():
                combo[c] = (combo.get(c, 0) + f * x) % P
        rows.append(combo)
    rng.shuffle(rows)
    expected = modp_rank(_dense(rows), P)
    assert expected <= rank < len(rows)
    assert _sweeps._modp_rank(rows, P) == expected

"""Schur coordinates read off the distinguished coset representatives.

x_lambda T_d is the sum of T_ud over u in W_lambda, and the phi value at
(lambda, mu, d) is the sum of T_w over the double coset of d, so the
coordinates of an element of either span are its coefficients at the
distinguished representatives.  Every re-expansion is pinned key by key to
the peel of tests/oracles.py, which subtracts whole basis columns instead;
elements outside the span must raise ValueError, also under python -O.
"""

import os
import random
import subprocess
import sys

import pytest

from affineschur.hecke import HeckeElement, bernstein_y, bernstein_y_inverse, t_basis, x_lambda
from affineschur.laurent import Laurent
from affineschur.schur import (
    QTensorElement,
    SchurElement,
    Weight,
    _expand_phi,
    _extract_right_factor,
    act_hecke_right,
    act_schur_left,
    all_weights,
    phi,
    schur_mul,
    young_parabolic,
)
from affineschur.weyl import WindowPerm, double_coset_rep, enumerate_up_to_length, is_distinguished
from oracles import (
    act_hecke_right_by_terms,
    act_schur_left_by_terms,
    expand_phi_by_peel,
    extract_right_factor_by_peel,
    phi_value,
    schur_mul_by_peel,
)


def _coeff(rng):
    return Laurent({rng.randint(-2, 2): rng.choice([-3, -1, 1, 2])})


def _reps(lam, mu, pool):
    """The distinct double-coset representatives of the pool, sorted."""
    left, right = young_parabolic(lam), young_parabolic(mu)
    return sorted({double_coset_rep(d, left, right).window for d in pool})


def _column(lam, mu, reps, rng) -> tuple[HeckeElement, SchurElement]:
    """A seeded combination of phi values in the column (lam, mu), with the
    Schur element whose value at x_mu it is."""
    h, s = HeckeElement.zero(lam.r), SchurElement.zero(lam.n, lam.r)
    for dw in rng.sample(reps, min(len(reps), 4)):
        c = _coeff(rng)
        h = h + phi_value(lam, mu, WindowPerm._unsafe(dw)).scale(c)
        s = s + phi(lam, mu, WindowPerm._unsafe(dw)).scale(c)
    return h, s


def _tensor(weights, pool, rng) -> QTensorElement:
    n, r = weights[0].n, weights[0].r
    x = QTensorElement.zero(n, r)
    for _ in range(rng.randint(3, 6)):
        x = x + QTensorElement.basis(rng.choice(weights), rng.choice(pool)).scale(_coeff(rng))
    return x


def _hecke(r, pool, rng) -> HeckeElement:
    """A product of up to three factors T_w, Y_j and Y_j^-1, as transport
    draws them."""
    def factor():
        kind = rng.randrange(3)
        if kind == 0:
            return t_basis(rng.choice(pool))
        j = rng.randint(1, r)
        return bernstein_y(r, j) if kind == 1 else bernstein_y_inverse(r, j)

    h = factor()
    for _ in range(rng.randint(0, 2)):
        h = h * factor()
    return h


def _check_pair(lam, mu, nu, pool, rng) -> int:
    """Every re-expansion at (lam, mu), and a product through (mu, nu),
    against the peel; returns the number of coordinates compared."""
    h, s = _column(lam, mu, _reps(lam, mu, pool), rng)
    coords = _expand_phi(h, lam, mu)
    assert coords == expand_phi_by_peel(h, lam, mu)
    assert coords == {k: Laurent(c) for (_, _, k), c in s._terms.items()}
    factor = _extract_right_factor(h, young_parabolic(lam))
    assert factor == extract_right_factor_by_peel(h, young_parabolic(lam))
    _, b = _column(mu, nu, _reps(mu, nu, pool), rng)
    assert schur_mul(s, b)._terms == schur_mul_by_peel(s, b)._terms
    x = _tensor([lam, mu], pool, rng)
    assert act_schur_left(s, x)._terms == act_schur_left_by_terms(s, x)._terms
    hh = _hecke(lam.r, pool, rng)
    assert act_hecke_right(x, hh)._terms == act_hecke_right_by_terms(x, hh)._terms
    return len(coords) + len(factor)


def test_every_weight_pair_at_n3_r3_matches_the_peel():
    rng = random.Random(15)
    weights = all_weights(3, 3)
    pool = enumerate_up_to_length(3, 2, extended=True, rho_bound=1)
    compared = 0
    for lam in weights:
        for mu in weights:
            compared += _check_pair(lam, mu, rng.choice(weights), pool, rng)
    assert compared > 500


def test_seeded_weight_pairs_at_n4_r4_match_the_peel():
    rng = random.Random(44)
    weights = all_weights(4, 4)
    pool = enumerate_up_to_length(4, 2, extended=True, rho_bound=1)
    # the block weights, whose parabolics are the largest, and seeded others
    pairs = [(Weight(4, 4, (4, 0, 0, 0)), Weight(4, 4, (0, 2, 2, 0)))]
    pairs += [(rng.choice(weights), rng.choice(weights)) for _ in range(4)]
    for lam, mu in pairs:
        _check_pair(lam, mu, rng.choice(weights), pool, rng)


# ---------------------------------------------------------------------------
# elements outside the span


_LAM, _MU = Weight(3, 3, (2, 1, 0)), Weight(3, 3, (1, 2, 0))


def _two_reps() -> tuple[WindowPerm, WindowPerm]:
    """Two representatives of distinct (lam, mu) double cosets, one affine."""
    pl, pm = young_parabolic(_LAM), young_parabolic(_MU)
    return double_coset_rep(WindowPerm((3, 1, 5)), pl, pm), double_coset_rep(WindowPerm((2, 4, 3)), pl, pm)


def _bad_inputs() -> list[tuple[str, object, HeckeElement]]:
    """(label, read-off, element) for each read-off and three elements that
    leave its span: a cell missing one window, a non-lead window whose
    coefficient differs, and a window that lies in no cell (s_1 times the
    lead of a cell that is absent)."""
    pi = young_parabolic(_LAM)
    d, other = _two_reps()
    stray = (WindowPerm.s(3, 1) * other).window
    out = []
    for name, read, good in (
        ("right factor", lambda h: _extract_right_factor(h, pi), x_lambda(pi) * t_basis(d)),
        ("phi", lambda h: _expand_phi(h, _LAM, _MU), phi_value(_LAM, _MU, d)),
    ):
        tail = next(w for w in good._terms if w != d.window)
        missing = dict(good._terms)
        del missing[tail]
        differs = dict(good._terms)
        differs[tail] = {0: 1, 2: 1}
        outside = dict(good._terms)
        outside[stray] = {0: 1}
        for label, terms in (("missing", missing), ("differs", differs), ("outside", outside)):
            out.append((f"{name}: {label}", read, HeckeElement._raw(3, terms)))
    return out


def test_bad_inputs_are_well_formed():
    """The cells hold more than their lead, the stray window is no lead and
    lies in neither cell, and the unbroken elements read off cleanly."""
    pi, pm = young_parabolic(_LAM), young_parabolic(_MU)
    d, other = _two_reps()
    assert d.rho_power() != 0 and d != other
    stray = WindowPerm.s(3, 1) * other
    assert not is_distinguished(stray, pi)
    assert double_coset_rep(stray, pi, pm) == other
    assert _extract_right_factor(x_lambda(pi) * t_basis(d), pi) == {d.window: Laurent.one()}
    assert _expand_phi(phi_value(_LAM, _MU, d), _LAM, _MU) == {d.window: Laurent.one()}
    assert len(x_lambda(pi) * t_basis(d)) == 2 and len(phi_value(_LAM, _MU, d)) > 2
    assert len(_bad_inputs()) == 6


@pytest.mark.parametrize("label", [label for label, _, _ in _bad_inputs()])
def test_out_of_span_elements_raise(label):
    ((read, h),) = [(read, h) for lab, read, h in _bad_inputs() if lab == label]
    with pytest.raises(ValueError, match="element is not"):
        read(h)


def test_out_of_span_elements_raise_under_python_O():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, tests] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "from test_read_off import _bad_inputs\n"
        "raised = 0\n"
        "for label, read, h in _bad_inputs():\n"
        "    try:\n"
        "        read(h)\n"
        "    except ValueError:\n"
        "        raised += 1\n"
        "    else:\n"
        "        print('accepted', label)\n"
        "print(__debug__, raised)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "6"]

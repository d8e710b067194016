"""Schur coordinates read off the distinguished coset representatives.

x_lambda T_d is the sum of T_ud over u in W_lambda, and the phi value at
(lambda, mu, d), the sum of T_w over the double coset of d, is x_lambda
times the sum of T_d' over its tail: the windows d' of the coset that are
shortest in W_lambda d'.  schur keeps every value as x_lambda-coordinates,
so the phi coordinates of an element are its x_lambda-coordinates at the
minimal double-coset representatives.  The tail identity is checked against
the listed double coset, and every re-expansion and product key by key
against the peels of tests/oracles.py, which subtract whole basis columns
instead; coordinates outside the span must raise ValueError, also under
python -O.
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
    _in_ideals,
    _phi_tail,
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
    hecke_mul_by_words,
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


def _coordinates(h: HeckeElement, lam: Weight) -> dict:
    """Raw x_lam-coordinates of h, peeled over the columns x_lam T_d."""
    return {w: c.raw() for w, c in extract_right_factor_by_peel(h, young_parabolic(lam)).items()}


def _tails_checked(lam, mu, pool) -> int:
    """x_lam times the sum of T_d' over each tail is the sum of T_w over the
    listed double coset, for every representative of the pool; returns the
    number of tails checked."""
    xl = x_lambda(young_parabolic(lam))
    reps = _reps(lam, mu, pool)
    for dw in reps:
        tail = HeckeElement._raw(lam.r, _phi_tail(lam.r, lam.parts, mu.parts, dw))
        assert hecke_mul_by_words(xl, tail) == phi_value(lam, mu, WindowPerm._unsafe(dw))
    return len(reps)


def test_every_tail_at_n3_r3_gives_its_double_coset_sum():
    weights = all_weights(3, 3)
    pool = enumerate_up_to_length(3, 2, extended=True, rho_bound=1)
    assert sum(_tails_checked(lam, mu, pool) for lam in weights for mu in weights) == 1272


def test_seeded_tails_at_n4_r4_give_their_double_coset_sums():
    rng = random.Random(4)
    weights = all_weights(4, 4)
    pool = enumerate_up_to_length(4, 2, extended=True, rho_bound=1)
    # the block weight, whose parabolic is the largest, and seeded pairs
    pairs = [(Weight(4, 4, (4, 0, 0, 0)), Weight(4, 4, (0, 2, 2, 0)))]
    pairs += [(rng.choice(weights), rng.choice(weights)) for _ in range(12)]
    assert sum(_tails_checked(lam, mu, pool) for lam, mu in pairs) == 187


# the right factors b that the three actions walk: a T_w of the pool, a
# Bernstein generator and its inverse
_RIGHT_FACTORS = {
    "T_w": lambda r, pool, rng: t_basis(rng.choice(pool)),
    "Y_j": lambda r, pool, rng: bernstein_y(r, rng.randint(1, r)),
    "Y_j^-1": lambda r, pool, rng: bernstein_y_inverse(r, rng.randint(1, r)),
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", sorted(_RIGHT_FACTORS))
def test_in_ideals_reads_the_formed_product(kind, n):
    """One walk gives, for every weight at once, the x_lam-coordinates of
    x_lam * x * b that the peel reads off the product formed by words; the
    left factors x are seeded combinations of any windows, not only
    distinguished ones, and the block weight's parabolic is the whole S_n."""
    rng = random.Random(10 * n + len(kind))
    pool = enumerate_up_to_length(n, 2, extended=True, rho_bound=1)
    block = Weight(n, n, (n,) + (0,) * (n - 1))
    weights = [block] + rng.sample([w for w in all_weights(n, n) if w != block], 3)
    xs = {lam.parts: {rng.choice(pool).window: _coeff(rng).raw() for _ in range(3)} for lam in weights}
    b = _RIGHT_FACTORS[kind](n, pool, rng) * t_basis(rng.choice(pool))
    got = _in_ideals(xs, b._terms, n)
    assert set(got) == set(xs)
    for lam in weights:
        x = HeckeElement._raw(n, xs[lam.parts])
        formed = hecke_mul_by_words(hecke_mul_by_words(x_lambda(young_parabolic(lam)), x), b)
        assert got[lam.parts] == _coordinates(formed, lam)


def _check_pair(lam, mu, nu, pool, rng) -> int:
    """The phi read-off at (lam, mu), a product through (mu, nu) and both
    actions, against the peels; returns the number of coordinates read,
    x_lam and phi."""
    h, s = _column(lam, mu, _reps(lam, mu, pool), rng)
    xcoords = _coordinates(h, lam)
    coords = _expand_phi(xcoords, lam, mu)
    assert coords == {w: c.raw() for w, c in expand_phi_by_peel(h, lam, mu).items()}
    assert coords == {k: c for (_, _, k), c in s._terms.items()}
    _, b = _column(mu, nu, _reps(mu, nu, pool), rng)
    assert schur_mul(s, b)._terms == schur_mul_by_peel(s, b)._terms
    x = _tensor([lam, mu], pool, rng)
    assert act_schur_left(s, x)._terms == act_schur_left_by_terms(s, x)._terms
    hh = _hecke(lam.r, pool, rng)
    assert act_hecke_right(x, hh)._terms == act_hecke_right_by_terms(x, hh)._terms
    return len(coords) + len(xcoords)


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


def _tail(d: WindowPerm) -> dict:
    """The raw x_lam-coordinates of phi^d_{lam,mu}(x_mu), peeled off the
    listed double coset: 1 at every window of d's tail."""
    return _coordinates(phi_value(_LAM, _MU, d), _LAM)


def _stray() -> tuple:
    """A window of the other coset's tail that is not its lead."""
    _, other = _two_reps()
    return next(w for w in _tail(other) if w != other.window)


def _bad_inputs() -> list[tuple[str, dict]]:
    """(label, x_lam-coordinates) for three elements that leave the span of
    the phi values: a tail missing one window, a tail window whose
    coefficient differs, and a stray distinguished window whose lead is
    absent."""
    d, _ = _two_reps()
    good = _tail(d)
    tail = next(w for w in good if w != d.window)
    missing = dict(good)
    del missing[tail]
    differs = dict(good)
    differs[tail] = {0: 1, 2: 1}
    outside = dict(good)
    outside[_stray()] = {0: 1}
    return [("phi: missing", missing), ("phi: differs", differs), ("phi: outside", outside)]


def test_bad_inputs_are_well_formed():
    """The tails hold more than their lead and are the library's, the stray
    window is distinguished, no lead and outside d's tail, and the unbroken
    coordinates read off cleanly."""
    pi, pm = young_parabolic(_LAM), young_parabolic(_MU)
    d, other = _two_reps()
    assert d.rho_power() != 0 and d != other
    stray = WindowPerm._unsafe(_stray())
    assert is_distinguished(stray, pi)
    assert double_coset_rep(stray, pi, pm) == other != stray
    assert stray.window not in _tail(d)
    for rep in (d, other):
        assert len(_tail(rep)) > 1
        assert _tail(rep) == _phi_tail(3, _LAM.parts, _MU.parts, rep.window)
    assert _expand_phi(_tail(d), _LAM, _MU) == {d.window: {0: 1}}
    assert len(_bad_inputs()) == 3


@pytest.mark.parametrize("label", [label for label, _ in _bad_inputs()])
def test_out_of_span_elements_raise(label):
    (coords,) = [c for lab, c in _bad_inputs() if lab == label]
    with pytest.raises(ValueError, match="element is not"):
        _expand_phi(coords, _LAM, _MU)


def test_out_of_span_elements_raise_under_python_O():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, tests] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "from test_read_off import _LAM, _MU, _bad_inputs, _expand_phi\n"
        "raised = 0\n"
        "for label, coords in _bad_inputs():\n"
        "    try:\n"
        "        _expand_phi(coords, _LAM, _MU)\n"
        "    except ValueError:\n"
        "        raised += 1\n"
        "    else:\n"
        "        print('accepted', label)\n"
        "print(__debug__, raised)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "3"]

"""Weights, the phi basis, products, theta, and the q-tensor bimodule."""

import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from affineschur.hecke import HeckeElement, KLTable, t_basis, x_lambda
from affineschur.laurent import Laurent
from affineschur.schur import (
    QTensorElement,
    SchurElement,
    Weight,
    act_hecke_right,
    act_schur_left,
    all_weights,
    embed_hecke,
    omega,
    phi,
    schur_mul,
    theta,
    young_parabolic,
)
from affineschur.schur import _expand_phi
from affineschur.weyl import (
    WindowPerm,
    bruhat_leq,
    double_coset_rep,
    enumerate_up_to_length,
    is_distinguished,
    longest_double_coset_elt,
)
from oracles import (
    act_hecke_right_by_terms,
    act_schur_left_by_terms,
    is_finite_type,
    modp_in_span,
    modp_nullspace,
    modp_rank,
    phi_value,
)

N = R = 3
OM = omega(N, R)
E = WindowPerm.identity(R)
LAMS = all_weights(N, R)
Q = Laurent.q()


def finite_perms(r):
    return [WindowPerm(p) for p in permutations(range(1, r + 1))]


def word(*letters):
    return WindowPerm.from_word(R, letters)


def test_weight_validation():
    lam = Weight(3, 3, (2, 1, 0))
    assert lam.parts == (2, 1, 0)
    assert lam.expanded() == (1, 1, 2)
    with pytest.raises(ValueError):
        Weight(3, 3, (2, 2, 0))
    with pytest.raises(ValueError):
        Weight(3, 3, (4, -1, 0))
    with pytest.raises(ValueError):
        Weight(2, 3, (2, 1, 0))


def test_weight_of_key():
    assert Weight.of_key((1, 2, 3), 3) == Weight(3, 3, (1, 1, 1))
    assert Weight.of_key((4, 1, 7), 3) == Weight(3, 3, (3, 0, 0))
    assert Weight.of_key((2, 2, 6), 3) == Weight(3, 3, (0, 2, 1))


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5).filter(lambda p: sum(p) > 0))
def test_weight_expanded_roundtrip(parts):
    lam = Weight(len(parts), sum(parts), parts)
    assert Weight.of_key(lam.expanded(), lam.n) == lam


def test_omega():
    assert OM.parts == (1, 1, 1)
    assert omega(5, 3).parts == (1, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        omega(2, 3)


def test_all_weights_enumeration():
    assert len(LAMS) == 10
    assert all(sum(l.parts) == R for l in LAMS)
    assert [l.parts for l in LAMS] == sorted(l.parts for l in LAMS)
    assert len({l.parts for l in LAMS}) == 10


def test_young_parabolic_blocks():
    assert young_parabolic(Weight(3, 3, (2, 1, 0))).generators == frozenset({1})
    assert young_parabolic(Weight(3, 3, (1, 1, 1))).generators == frozenset()
    assert young_parabolic(Weight(3, 3, (3, 0, 0))).generators == frozenset({1, 2})
    assert young_parabolic(Weight(3, 3, (0, 3, 0))).generators == frozenset({1, 2})
    # the block never wraps around: index r is excluded by construction
    assert all(R not in young_parabolic(l).generators for l in LAMS)


def test_phi_value_examples():
    for w in (E, word(1), word(2, 1), WindowPerm.rho(R) * word(1)):
        assert phi_value(OM, OM, w) == t_basis(w)
    for lam in LAMS:
        assert phi_value(lam, lam, E) == x_lambda(young_parabolic(lam))


def test_phi_normalizes_to_the_distinguished_representative():
    lam = Weight(3, 3, (2, 1, 0))
    d = word(1, 2)  # s_1 is a left descent factor for this pair
    dbar = double_coset_rep(d, young_parabolic(lam), young_parabolic(lam))
    assert dbar != d
    assert phi(lam, lam, d) == phi(lam, lam, dbar)
    assert phi_value(lam, lam, d) == phi_value(lam, lam, dbar)


def test_identity_is_two_sided_unit():
    one = SchurElement.identity(N, R)
    rng = random.Random(31)
    pool = enumerate_up_to_length(R, 3, extended=True, rho_bound=1)
    for _ in range(6):
        a = SchurElement.zero(N, R)
        for _ in range(3):
            a = a + phi(rng.choice(LAMS), rng.choice(LAMS), rng.choice(pool)).scale(
                Laurent({rng.randint(-2, 2): rng.randint(-2, 2)})
            )
        assert schur_mul(one, a) == a
        assert schur_mul(a, one) == a
    assert schur_mul(one, one) == one


def test_projection_pairing_is_diagonal():
    # composing the omega-row with the omega-column picks out matching weights
    for lam in LAMS:
        for mu in LAMS:
            prod = schur_mul(phi(OM, lam, E), phi(mu, OM, E))
            if lam == mu:
                expect = SchurElement.zero(N, R)
                for d in young_parabolic(lam).elements():
                    expect = expect + phi(OM, OM, d)
                assert prod == expect
            else:
                assert prod.is_zero()


def test_parabolic_generators_act_by_q():
    for lam in LAMS:
        for i in sorted(young_parabolic(lam).generators):
            s = WindowPerm.s(R, i)
            assert schur_mul(phi(OM, OM, s), phi(OM, lam, E)) == phi(OM, lam, E).scale(Q)
            assert schur_mul(phi(lam, OM, E), phi(OM, OM, s)) == phi(lam, OM, E).scale(Q)


def test_conjugation_poincare_identity():
    # sandwiching T_d between the two projections scales by the Poincare
    # polynomial of the subgroup of W_mu that d conjugates into W_lam
    rng = random.Random(13)
    pool = enumerate_up_to_length(R, 4, extended=True, rho_bound=1)
    for _ in range(30):
        lam, mu = rng.choice(LAMS), rng.choice(LAMS)
        pl, pm = young_parabolic(lam), young_parabolic(mu)
        d = double_coset_rep(rng.choice(pool), pl, pm)
        lhs = schur_mul(schur_mul(phi(lam, OM, E), phi(OM, OM, d)), phi(OM, mu, E))
        left_windows = {x.window for x in pl.elements()}
        poincare = Laurent.zero()
        for u in pm.elements():
            if (d * u * d.inverse()).window in left_windows:
                poincare = poincare + Laurent.v(2 * u.length())
        assert lhs == phi(lam, mu, d).scale(poincare)


def test_associativity_with_affine_support():
    rng = random.Random(99)
    pool = enumerate_up_to_length(R, 3, extended=True, rho_bound=1)

    def rand_elt():
        out = SchurElement.zero(N, R)
        for _ in range(rng.randint(1, 3)):
            c = Laurent({rng.randint(-2, 2): rng.randint(-2, 2)})
            out = out + phi(rng.choice(LAMS), rng.choice(LAMS), rng.choice(pool)).scale(c)
        return out

    for _ in range(8):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert schur_mul(schur_mul(a, b), c) == schur_mul(a, schur_mul(b, c))


def test_exact_phi_reexpansion():
    rng = random.Random(5)
    pool = enumerate_up_to_length(R, 4, extended=True, rho_bound=1)
    for _ in range(15):
        lam, mu = rng.choice(LAMS), rng.choice(LAMS)
        pl, pm = young_parabolic(lam), young_parabolic(mu)
        coords = {}
        h = HeckeElement.zero(R)
        for _ in range(3):
            dbar = double_coset_rep(rng.choice(pool), pl, pm)
            c = Laurent({rng.randint(-1, 2): rng.randint(-3, 3)})
            cur = coords.get(dbar.window, Laurent.zero()) + c
            if cur:
                coords[dbar.window] = cur
            else:
                coords.pop(dbar.window, None)
            h = h + phi_value(lam, mu, dbar).scale(c)
        assert _expand_phi(h, lam, mu) == coords
    with pytest.raises(ValueError):
        _expand_phi(t_basis(word(1)), Weight(3, 3, (3, 0, 0)), Weight(3, 3, (3, 0, 0)))


def test_right_unit_on_the_omega_column():
    for lam in LAMS:
        for d in finite_perms(R):
            if not is_distinguished(d, young_parabolic(lam)):
                continue
            a = phi(lam, OM, d)
            assert schur_mul(a, phi(OM, OM, E)) == a


def test_embed_hecke_is_a_homomorphism():
    rng = random.Random(17)
    pool = enumerate_up_to_length(R, 4, extended=True, rho_bound=2)
    for _ in range(10):
        h1 = t_basis(rng.choice(pool)) + t_basis(rng.choice(pool)).scale(Laurent.v(-1))
        h2 = t_basis(rng.choice(pool)).scale(Laurent({2: 1, 0: -3}))
        lhs = schur_mul(embed_hecke(h1, N), embed_hecke(h2, N))
        assert lhs == embed_hecke(h1 * h2, N)
    # injectivity: distinct basis elements map to distinct keys
    images = {next(iter(embed_hecke(t_basis(w), N)._terms)) for w in pool}
    assert len(images) == len(pool)
    with pytest.raises(ValueError):
        embed_hecke(t_basis(E), 2)


def test_finite_type_predicate():
    a = phi(OM, OM, word(1, 2))
    b = phi(OM, OM, WindowPerm.rho(R))
    assert is_finite_type(a)
    assert not is_finite_type(b)
    assert not is_finite_type(a + b)
    assert is_finite_type(schur_mul(a, a))


def test_theta_smallest_cases():
    tbl = KLTable(R)
    assert theta(OM, OM, E, tbl) == phi(OM, OM, E)
    lam = Weight(3, 3, (2, 1, 0))
    assert theta(lam, lam, E, tbl) == phi(lam, lam, E)


def test_theta_rank_two_interval():
    # all KL polynomials are 1 below s_1 s_2, so theta is the plain sum
    # of the interval scaled by v^(-length)
    tbl = KLTable(R)
    lam = OM
    d = word(1, 2)
    got = theta(lam, lam, d, tbl)
    expect = (
        phi(lam, lam, d) + phi(lam, lam, word(1)) + phi(lam, lam, word(2)) + phi(lam, lam, E)
    ).scale(Laurent.v(-2))
    assert got == expect


def test_theta_triangular_with_predictable_leading_term():
    tbl = KLTable(R)
    pool = enumerate_up_to_length(R, 3, extended=True, rho_bound=1)
    for lam in LAMS[:6]:
        for mu in LAMS[:6]:
            pl, pm = young_parabolic(lam), young_parabolic(mu)
            seen = set()
            for d0 in pool:
                d = double_coset_rep(d0, pl, pm)
                if d.window in seen:
                    continue
                seen.add(d.window)
                th = theta(lam, mu, d, tbl)
                dplus = longest_double_coset_elt(d, pl, pm)
                lead = th.coeff(lam, mu, d)
                assert lead == Laurent.v(pm.longest_element().length() - dplus.length())
                for _, _, z, _ in th.items():
                    if z == d:
                        continue
                    zplus = longest_double_coset_elt(z, pl, pm)
                    assert bruhat_leq(zplus, dplus) and zplus != dplus


def test_qtensor_basis_absorbs_parabolic_part():
    lam = Weight(3, 3, (2, 1, 0))
    d = word(2)
    assert is_distinguished(d, young_parabolic(lam))
    lifted = QTensorElement.basis(lam, word(1) * d)
    assert lifted == QTensorElement.basis(lam, d).scale(Q)


def test_weight_projection_on_tensors():
    lam = Weight(3, 3, (2, 1, 0))
    mu = Weight(3, 3, (1, 2, 0))
    x = QTensorElement.basis(lam, word(2))
    assert act_schur_left(phi(lam, lam, E), x) == x
    assert act_schur_left(phi(mu, mu, E), x).is_zero()


def test_right_action_on_the_omega_row_is_regular():
    rng = random.Random(23)
    pool = enumerate_up_to_length(R, 4, extended=True, rho_bound=2)
    for _ in range(10):
        w = rng.choice(pool)
        assert act_hecke_right(QTensorElement.basis(OM, E), t_basis(w)) == QTensorElement.basis(OM, w)


def test_actions_commute():
    rng = random.Random(7)
    pool = enumerate_up_to_length(R, 3, extended=True, rho_bound=1)
    for _ in range(10):
        s = phi(rng.choice(LAMS), rng.choice(LAMS), rng.choice(pool)).scale(
            Laurent({rng.randint(-1, 1): rng.randint(-2, 2)})
        ) + phi(rng.choice(LAMS), rng.choice(LAMS), rng.choice(pool))
        x = QTensorElement.basis(rng.choice(LAMS), rng.choice(pool))
        h = t_basis(rng.choice(pool)) + t_basis(rng.choice(pool)).scale(Laurent.v(-1))
        assert act_hecke_right(act_schur_left(s, x), h) == act_schur_left(s, act_hecke_right(x, h))


def test_actions_match_the_per_term_loops():
    """Both actions multiply once per weight (the terms of x grouped by
    lambda) and must agree key by key with one product per term."""
    rng = random.Random(31)
    pool = enumerate_up_to_length(R, 3)
    # few weights on the right of s and in x, so that terms share a weight
    mids = LAMS[:3]
    nonzero = 0
    for k in range(12):
        s = SchurElement.zero(N, R)
        for _ in range(rng.randint(1, 4)):
            s = s + phi(rng.choice(LAMS), rng.choice(mids), rng.choice(pool)).scale(
                Laurent({rng.randint(-1, 1): rng.choice([-2, 1, 3])})
            )
        x = QTensorElement.zero(N, R)
        for _ in range(k % 5):
            x = x + QTensorElement.basis(rng.choice(mids), rng.choice(pool)).scale(Laurent.v(rng.randint(-1, 1)))
        h = t_basis(rng.choice(pool)) + t_basis(rng.choice(pool)).scale(Laurent.v(-1) - 2)
        left = act_schur_left(s, x)
        assert left._terms == act_schur_left_by_terms(s, x)._terms
        assert act_hecke_right(x, h)._terms == act_hecke_right_by_terms(x, h)._terms
        nonzero += not left.is_zero()
    assert nonzero >= 6


def test_left_action_composes_like_the_product():
    rng = random.Random(21)
    pool = enumerate_up_to_length(R, 3, extended=True, rho_bound=1)
    for _ in range(8):
        a = phi(rng.choice(LAMS), rng.choice(LAMS), rng.choice(pool))
        b = phi(rng.choice(LAMS), rng.choice(LAMS), rng.choice(pool)).scale(Laurent.v(rng.randint(-1, 1)))
        x = QTensorElement.basis(rng.choice(LAMS), rng.choice(pool))
        assert act_schur_left(schur_mul(a, b), x) == act_schur_left(a, act_schur_left(b, x))


def test_double_centralizer_on_the_finite_block():
    """The span of keys with finite d carries commuting actions; mod p at
    three values of v, matrices commuting with the whole left action are
    exactly the span of the six right translation operators.

    The left set holds every phi(lam, lam, 1), and these act as the weight
    projections, so a matrix commuting with it is block-diagonal by weight:
    the commutant is solved over those sum(dim_lam^2) entries alone."""
    p = 46337
    perms = finite_perms(R)
    keys = sorted(
        (lam.parts, d.window)
        for lam in LAMS
        for d in perms
        if is_distinguished(d, young_parabolic(lam))
    )
    idx = {k: i for i, k in enumerate(keys)}
    dim = len(keys)
    assert dim == N**R

    def sym_matrix(apply_fn):
        rows = [[None] * dim for _ in range(dim)]
        for j, (lp, dw) in enumerate(keys):
            out = apply_fn(Weight(N, R, lp), WindowPerm._unsafe(dw))
            for lam2, d2, c in out.items():
                rows[idx[(lam2.parts, d2.window)]][j] = c
        return rows

    basis_elts = []
    for lam in LAMS:
        for mu in LAMS:
            pl, pm = young_parabolic(lam), young_parabolic(mu)
            for dw in sorted({double_coset_rep(d, pl, pm).window for d in perms}):
                basis_elts.append(phi(lam, mu, WindowPerm._unsafe(dw)))
    left_sym = [
        sym_matrix(lambda lam, d, g=g: act_schur_left(g, QTensorElement.basis(lam, d)))
        for g in basis_elts
    ]
    one = WindowPerm.identity(R)
    for lam in LAMS:
        e = phi(lam, lam, one)
        assert e in basis_elts
        proj = sym_matrix(lambda lam2, d, e=e: act_schur_left(e, QTensorElement.basis(lam2, d)))
        assert proj == [
            [Laurent.one() if i == j and keys[i][0] == lam.parts else None for j in range(dim)]
            for i in range(dim)
        ]
    # row-major positions i * dim + j of the entries inside a weight block
    block = [i * dim + j for i in range(dim) for j in range(dim) if keys[i][0] == keys[j][0]]
    assert len(block) == sum(sum(k[0] == lam.parts for k in keys) ** 2 for lam in LAMS) == 93
    right_sym = [
        sym_matrix(lambda lam, d, w=w: act_hecke_right(QTensorElement.basis(lam, d), t_basis(w)))
        for w in perms
    ]

    def evaluate(sym, vp):
        out = np.zeros((dim, dim), dtype=np.int64)
        for i, row in enumerate(sym):
            for j, c in enumerate(row):
                if c is not None:
                    out[i, j] = c.eval_mod(vp, p)
        return out

    rng = random.Random(20250825)
    for vp in (3, 1105, 22222):
        left = [evaluate(s, vp) for s in left_sym]
        right = [evaluate(s, vp) for s in right_sym]
        for lm in left:
            for rm in right:
                assert ((lm @ rm - rm @ lm) % p == 0).all()
        # cut the commutant down with random elements of the left algebra;
        # any subset gives an upper bound, the right span a lower one
        eye = np.eye(dim, dtype=np.int64)
        sol = None
        for _ in range(8):
            a = sum(rng.randint(1, p - 1) * m for m in left) % p
            if sol is None:
                k = (np.kron(a, eye) - np.kron(eye, a.T)) % p
                kernel = modp_nullspace(k[:, block], p)
                sol = np.zeros((dim * dim, kernel.shape[1]), dtype=np.int64)
                sol[block] = kernel
            else:
                cols = [
                    ((a @ sol[:, c].reshape(dim, dim) - sol[:, c].reshape(dim, dim) @ a) % p).reshape(-1)
                    for c in range(sol.shape[1])
                ]
                sol = (sol @ modp_nullspace(np.stack(cols, axis=1), p)) % p
            if sol.shape[1] <= len(perms):
                break
        assert sol.shape[1] == len(perms)
        stack = np.stack([rm.reshape(-1) for rm in right], axis=1)
        assert modp_rank(stack, p) == len(perms)
        for rm in right:
            assert modp_in_span(sol, rm.reshape(-1), p)


def test_small_n_column_still_works():
    # n < r is fine as long as nothing needs omega
    lam = Weight(2, 3, (2, 1))
    mu = Weight(2, 3, (1, 2))
    got = phi_value(lam, mu, E)
    expect = t_basis(E) + t_basis(word(1)) + t_basis(word(2)) + t_basis(word(1, 2))
    assert got == expect
    one = SchurElement.identity(2, 3)
    a = phi(lam, mu, E)
    assert schur_mul(one, a) == a
    with pytest.raises(ValueError):
        omega(2, 3)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        schur_mul(SchurElement.identity(3, 3), SchurElement.identity(4, 3))
    with pytest.raises(ValueError):
        act_schur_left(SchurElement.identity(4, 3), QTensorElement.zero(3, 3))


@pytest.mark.parametrize("make", [lambda lam, d: phi(lam, lam, d), QTensorElement.basis], ids=["phi", "basis"])
def test_a_d_of_another_rank_is_refused(make):
    with pytest.raises(ValueError, match="rank mismatch"):
        make(Weight(3, 3, (1, 1, 1)), WindowPerm.s(4, 1))


def test_schur_json_roundtrip():
    tbl = KLTable(R)
    a = theta(Weight(3, 3, (2, 1, 0)), OM, word(2, 1), tbl) + phi(OM, OM, WindowPerm.rho(R)).scale(
        Laurent({-3: 2})
    )
    assert SchurElement.from_obj(a.to_obj()) == a
    x = act_hecke_right(QTensorElement.basis(OM, E), t_basis(word(1)) + t_basis(WindowPerm.rho(R, -1)))
    assert QTensorElement.from_obj(x.to_obj()) == x


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 3, "terms": []},
        {"n": 3, "r": 3, "terms": [{"lambda": [2, 1, 0], "mu": [1, 1, 1], "coeff": {"0": 1}}]},
        {"n": 3, "r": 3, "terms": [{"lambda": [2, 2, 0], "mu": [1, 1, 1], "d": {"window": [1, 2, 3]}, "coeff": {"0": 1}}]},
        {"n": 3, "r": 3, "terms": [{"lambda": [2, 1, 0], "mu": [1, 1, 1], "d": {"window": [1, 1, 3]}, "coeff": {"0": 1}}]},
    ],
)
def test_malformed_schur_json_rejected(obj):
    with pytest.raises(ValueError):
        SchurElement.from_obj(obj)

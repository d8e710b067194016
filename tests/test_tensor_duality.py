"""The right Hecke action on tensor space, tau, kappa, and the bimodule
identification.

The finite single-generator rule is pinned by a constraint suite (quadratic
relation, braid relation, unit) rather than by chosen normalizations; the
affine extension is then forced by the translation rewriting, and every
bridge map is cross-checked against the others on shared vectors.
"""

import random

import pytest

from affineschur.hecke import (
    HeckeElement,
    bernstein_y,
    bernstein_y_inverse,
    t_basis,
    to_bernstein_basis,
)
from affineschur._sweeps import verify_affine_duality
from affineschur.laurent import Laurent
from affineschur.quantum import (
    TensorVector,
    UElement,
    _finite_term_image,
    _term_terms,
    _theta_system,
    _theta_image,
    act_tensor,
    e_omega,
    hecke_right_action,
    kappa,
    kappa_exponents,
    tau,
    theta_iso,
    theta_iso_basis,
    theta_iso_inverse,
)
from affineschur.schur import (
    QTensorElement,
    SchurElement,
    Weight,
    act_hecke_right,
    act_schur_left,
    all_weights,
    omega,
    phi,
    young_parabolic,
)
from affineschur.weyl import WindowPerm, enumerate_up_to_length
from oracles import kappa_by_operators, theta_iso_by_kappa, y_op

N = R = 3
OM = omega(N, R)
E = WindowPerm.identity(R)
Q = Laurent.q()
V = Laurent.v


def unit(*key):
    return TensorVector.unit(N, key)


def finite_keys():
    return [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)]


# -- the finite rule and its constraint suite -------------------------------


def finite_right(x, i):
    """Right T_{s_i}, which keeps keys within 1..n there (the finite rule)."""
    return hecke_right_action(x, t_basis(WindowPerm.s(R, i)))


def test_finite_rule_examples():
    assert finite_right(unit(1, 1, 3), 1) == unit(1, 1, 3).scale(Q)
    assert finite_right(unit(1, 2, 3), 1) == unit(2, 1, 3).scale(V(1))
    got = finite_right(unit(2, 1, 3), 1)
    assert got == unit(1, 2, 3).scale(V(1)) + unit(2, 1, 3).scale(Q - 1)


def test_finite_rule_quadratic_relation():
    # (T + 1)(T - q) = 0 on every basis vector of the finite block
    for key in finite_keys():
        for i in (1, 2):
            x = unit(*key)
            tx = finite_right(x, i)
            ttx = finite_right(tx, i)
            assert ttx == tx.scale(Q - 1) + x.scale(Q)


def test_finite_rule_braid_relation():
    for key in finite_keys():
        x = unit(*key)

        def act(v, *letters):
            for i in letters:
                v = finite_right(v, i)
            return v

        assert act(x, 1, 2, 1) == act(x, 2, 1, 2)


# -- the affine right action ------------------------------------------------


def test_translations_are_recognized_by_the_rewriting():
    # each commuting translation rewrites to a single pure-shift row, and
    # the action matches the slot-shift operator
    base = e_omega(N, R)
    for i in (1, 2, 3):
        rows = to_bernstein_basis(bernstein_y(R, i))
        assert len(rows) == 1
        [(cvec, u)] = rows.keys()
        assert u == E
        assert cvec == tuple(1 if t == i else 0 for t in (1, 2, 3))
        assert hecke_right_action(base, bernstein_y(R, i)) == y_op(N, R, i)(base)


def test_translation_inverses_cancel():
    rng = random.Random(17)
    for _ in range(10):
        key = tuple(rng.randrange(-5, 9) for _ in range(R))
        x = unit(*key)
        for i in (1, 2, 3):
            y = hecke_right_action(x, bernstein_y(R, i))
            assert hecke_right_action(y, bernstein_y_inverse(R, i)) == x


def test_affine_quadratic_and_braid():
    rng = random.Random(23)
    s1, s2 = t_basis(WindowPerm.s(R, 1)), t_basis(WindowPerm.s(R, 2))
    for _ in range(30):
        key = tuple(rng.randrange(-5, 9) for _ in range(R))
        x = unit(*key)
        for s in (s1, s2):
            tx = hecke_right_action(x, s)
            assert hecke_right_action(tx, s) == tx.scale(Q - 1) + x.scale(Q)
        lhs = hecke_right_action(hecke_right_action(hecke_right_action(x, s1), s2), s1)
        rhs = hecke_right_action(hecke_right_action(hecke_right_action(x, s2), s1), s2)
        assert lhs == rhs


def test_conjugation_identity_on_all_window_keys():
    # x T_{s_i} y_i T_{s_i} = q * x y_{i+1}, checked key by key
    import itertools

    s = [None, t_basis(WindowPerm.s(R, 1)), t_basis(WindowPerm.s(R, 2))]
    for key in itertools.product(range(-3, 7), repeat=R):
        x = unit(*key)
        for i in (1, 2):
            lhs = hecke_right_action(
                hecke_right_action(hecke_right_action(x, s[i]), bernstein_y(R, i)), s[i]
            )
            rhs = hecke_right_action(x, bernstein_y(R, i + 1)).scale(Q)
            assert lhs == rhs, (key, i)


def test_distant_translations_commute_with_generators():
    rng = random.Random(29)
    for _ in range(25):
        key = tuple(rng.randrange(-5, 9) for _ in range(R))
        x = unit(*key)
        for i in (1, 2):
            for j in (1, 2, 3):
                if j in (i, i + 1):
                    continue
                s = t_basis(WindowPerm.s(R, i))
                lhs = hecke_right_action(hecke_right_action(x, bernstein_y(R, j)), s)
                rhs = hecke_right_action(hecke_right_action(x, s), bernstein_y(R, j))
                assert lhs == rhs


def test_action_is_confluent_across_factorizations():
    # acting by a product in one pass equals acting letter by letter
    rng = random.Random(11)
    pool = enumerate_up_to_length(R, 3, extended=True, rho_bound=1)
    for _ in range(30):
        u, w = rng.choice(pool), rng.choice(pool)
        key = tuple(rng.randrange(-5, 9) for _ in range(R))
        x = unit(*key)
        assert hecke_right_action(x, t_basis(u) * t_basis(w)) == hecke_right_action(
            hecke_right_action(x, t_basis(u)), t_basis(w)
        )


def test_unit_and_linearity():
    x = unit(4, -2, 7).scale(V(3)) + unit(1, 2, 3)
    assert hecke_right_action(x, HeckeElement.unit(R)) == x
    h = t_basis(WindowPerm.s(R, 1)).scale(V(-1)) + HeckeElement.unit(R)
    lhs = hecke_right_action(x, h)
    rhs = hecke_right_action(x, t_basis(WindowPerm.s(R, 1))).scale(V(-1)) + x
    assert lhs == rhs


def test_right_action_requires_enough_columns():
    with pytest.raises(ValueError):
        hecke_right_action(TensorVector.unit(2, (1, 2, 3)), HeckeElement.unit(3))


# -- tau --------------------------------------------------------------------


@pytest.mark.parametrize("n, r", [(3, 3), (4, 3), (5, 3), (5, 4)])
def test_tau_agrees_with_the_right_action_on_the_cyclic_vector(n, r):
    # for n > r the affine letter s_r is rho s_1 rho^-1: node r of the
    # n-cycle, v F_r E_r - 1, is another operator there
    base = e_omega(n, r)
    for w in enumerate_up_to_length(r, 3, extended=True, rho_bound=1):
        assert tau(n, r, w)(base) == hecke_right_action(base, t_basis(w)), w.window


def test_tau_quadratic_on_the_top_weight_space():
    rng = random.Random(31)
    omega_like = [k for k in _window_keys(rng, 40) if Weight.of_key(k, N).parts == OM.parts]
    for i in (1, 2, 3):
        op = tau(N, R, WindowPerm.s(R, i))
        for key in omega_like:
            x = unit(*key)
            tx = op(x)
            assert op(tx) == tx.scale(Q - 1) + x.scale(Q), (i, key)


def test_tau_inverse_formula():
    # v^-1 E_i F_i - 1 undoes v F_i E_i - 1 on the top weight space
    rng = random.Random(37)
    omega_like = [k for k in _window_keys(rng, 40) if Weight.of_key(k, N).parts == OM.parts]
    for i in (1, 2, 3):
        fwd = tau(N, R, WindowPerm.s(R, i))
        for key in omega_like:
            x = unit(*key)
            y = fwd(x)
            inv = act_tensor(UElement.E(N, i) * UElement.F(N, i), y).scale(V(-1)) - y
            assert inv == x, (i, key)


def _window_keys(rng, count):
    out = set()
    while len(out) < count:
        out.add(tuple(rng.randrange(-5, 9) for _ in range(R)))
    return sorted(out)


def test_tau_at_v_equals_one_permutes_index_values():
    # on keys with distinct residues the specialized operator applies the
    # inverse window permutation to each entry value
    from affineschur._backend import kernels

    rng = random.Random(41)
    pool = enumerate_up_to_length(R, 3, extended=True, rho_bound=1)
    keys = [k for k in _window_keys(rng, 60) if len({t % N for t in k}) == R][:20]
    for _ in range(15):
        w = rng.choice(pool)
        winv = w.inverse().window
        op = tau(N, R, w)
        for key in keys[:6]:
            got = {}
            for k2, c in op.on_key(key).items():
                val = sum(cc for _, cc in c.items())
                if val:
                    got[k2] = val
            want = {tuple(kernels.win_apply(winv, t) for t in key): 1}
            assert got == want, (w.window, key)


# -- theta ------------------------------------------------------------------


def test_theta_on_the_omega_row():
    assert theta_iso(QTensorElement.basis(OM, E)) == unit(1, 2, 3)
    assert theta_iso(QTensorElement.basis(OM, WindowPerm.s(R, 1))) == unit(2, 1, 3).scale(V(1))
    assert theta_iso(QTensorElement.basis(OM, WindowPerm.rho(R))) == unit(0, 1, 2)


def test_theta_on_merged_rows():
    lam = Weight(N, R, (2, 1, 0))
    assert theta_iso(QTensorElement.basis(lam, E)) == unit(1, 1, 2)
    assert theta_iso(QTensorElement.basis(lam, WindowPerm.s(R, 2))) == unit(1, 2, 1).scale(V(1))


def test_theta_is_a_right_module_map():
    rng = random.Random(43)
    keys = theta_iso_basis(N, R, 2, 1)
    hs = [t_basis(WindowPerm.s(R, 1)), t_basis(WindowPerm.s(R, 2)), t_basis(WindowPerm.rho(R))]
    for lam, d in rng.sample(keys, 12):
        x = QTensorElement.basis(lam, d)
        for h in hs:
            assert theta_iso(act_hecke_right(x, h)) == hecke_right_action(theta_iso(x), h)


def test_theta_intertwines_the_left_action():
    rng = random.Random(47)
    keys = theta_iso_basis(N, R, 2, 0)
    gens = [phi(lam, lam, E) for lam in all_weights(N, R)[:3]] + [
        phi(OM, OM, WindowPerm.s(R, 1)),
        phi(Weight(N, R, (2, 1, 0)), OM, E),
    ]
    for lam, d in rng.sample(keys, 8):
        x = QTensorElement.basis(lam, d)
        for g in gens:
            assert theta_iso(act_schur_left(g, x)) == kappa(g)(theta_iso(x))


@pytest.mark.parametrize("n", [3, 4])
def test_theta_images_match_the_kappa_oracle(n):
    # every truncation key, seeded combinations, and their images under
    # both actions, some of whose keys leave the truncation
    keys = theta_iso_basis(n, R, 2, 1)
    for lam, d in keys:
        x = QTensorElement.basis(lam, d)
        assert theta_iso(x)._terms == theta_iso_by_kappa(x)._terms, (lam.parts, d.window)
    rng = random.Random(59 + n)
    hs = [t_basis(WindowPerm.s(R, 1)), t_basis(WindowPerm.rho(R)), bernstein_y(R, 2)]
    weights = all_weights(n, R)
    for _ in range(20):
        x = QTensorElement.zero(n, R)
        for lam, d in rng.sample(keys, rng.randint(2, 6)):
            x = x + QTensorElement.basis(lam, d).scale(Laurent({rng.randrange(-2, 3): rng.choice((1, -1))}))
        g = phi(rng.choice(weights), rng.choice(weights), rng.choice((E, WindowPerm.s(R, 2))))
        for z in (x, act_hecke_right(x, rng.choice(hs)), act_schur_left(g, x)):
            assert theta_iso(z)._terms == theta_iso_by_kappa(z)._terms


def test_theta_images_are_not_shared_with_callers():
    rng = random.Random(61)
    keys = theta_iso_basis(N, R, 1, 1)
    xs = [QTensorElement.basis(lam, d) for lam, d in keys[:: max(1, len(keys) // 8)]]
    xs.append(xs[0].scale(V(1)) + xs[-1])
    for x in xs:
        y = theta_iso(x)
        for c in y._terms.values():
            c[rng.randrange(7, 9)] = 5
        y._terms[(50, 60, 70)] = {0: 1}
        assert theta_iso(x)._terms == theta_iso_by_kappa(x)._terms
    assert theta_iso_inverse(theta_iso(xs[-1]), 1, 1) == xs[-1]


def test_theta_columns_share_one_image_per_key():
    keys1, cols1, _ = _theta_system(N, R, 1, 1)
    keys2, cols2, _ = _theta_system(N, R, 2, 1)
    where = {key: k for k, key in enumerate(keys2)}
    assert len(keys1) < len(keys2)
    for j, key in enumerate(keys1):
        assert cols1[j] is cols2[where[key]]


def test_theta_inverse_round_trip():
    rng = random.Random(53)
    keys = theta_iso_basis(N, R, 2, 1)
    x = QTensorElement.zero(N, R)
    for lam, d in rng.sample(keys, 6):
        x = x + QTensorElement.basis(lam, d).scale(Laurent({rng.randrange(-2, 3): 1}))
    assert theta_iso_inverse(theta_iso(x), 2, 1) == x


def test_theta_inverse_rejects_vectors_outside_the_span():
    with pytest.raises(ValueError):
        theta_iso_inverse(unit(50, 60, 70), 1, 0)


# -- kappa ------------------------------------------------------------------


def test_kappa_of_the_identity():
    op = kappa(SchurElement.identity(N, R))
    for key in [(1, 2, 3), (1, 1, 5), (-2, 0, 7), (4, 4, 4)]:
        assert op.on_key(key) == unit(*key)


def test_kappa_weight_idempotents_project():
    for lam in all_weights(N, R):
        op = kappa(phi(lam, lam, E))
        for key in [(1, 2, 3), (2, 2, 2), (1, 1, 6), (3, 5, 1)]:
            want = unit(*key) if Weight.of_key(key, N).parts == lam.parts else TensorVector.zero(N, R)
            assert op.on_key(key) == want


def test_kappa_merge_shape():
    # the row-merging generator sends the cyclic vector to one basis vector,
    # with a single monomial coefficient v^(2 l(w_lam) + f)
    for lam in all_weights(N, R):
        f, _ = kappa_exponents(N, R, lam)
        vec = kappa(phi(lam, OM, E))(e_omega(N, R))
        [(key, c)] = vec.items()
        assert key == lam.expanded()
        wl = young_parabolic(lam).longest_element().length()
        assert c == V(2 * wl + f)


def test_kappa_split_shape():
    # the column-splitting generator spreads the increasing key over the
    # orbit of window keys, with coefficients v^(g + l(w))
    for lam in all_weights(N, R):
        _, g = kappa_exponents(N, R, lam)
        vec = kappa(phi(OM, lam, E))(TensorVector.unit(N, lam.expanded()))
        want = {}
        for w in young_parabolic(lam).elements():
            want[w.window] = V(g + w.length())
        assert dict(vec.items()) == want


def test_kappa_observed_exponents():
    # regression pin for the transport normalization in use
    for lam in all_weights(N, R):
        f, g = kappa_exponents(N, R, lam)
        wl = young_parabolic(lam).longest_element().length()
        assert f == -2 * wl
        assert g == 0


def test_kappa_respects_products():
    rng = random.Random(59)
    pool = enumerate_up_to_length(R, 2, extended=True, rho_bound=1)
    lams = all_weights(N, R)
    for _ in range(10):
        lam, mu, nu = rng.choice(lams), rng.choice(lams), rng.choice(lams)
        a = phi(lam, mu, rng.choice(pool))
        b = phi(mu, nu, rng.choice(pool))
        ka, kb, kp = kappa(a), kappa(b), kappa(a * b)
        for _ in range(3):
            key = tuple(rng.randrange(-4, 8) for _ in range(R))
            assert ka(kb.on_key(key)) == kp.on_key(key), (lam.parts, mu.parts, nu.parts, key)


def test_kappa_affine_term_with_nontrivial_division():
    # a diagonal affine term whose sandwich factorization carries the
    # factor 1 + q; the division must come out exact
    lam = Weight(N, R, (2, 1, 0))
    d = WindowPerm((4, 5, 3))
    op = kappa(phi(lam, lam, d))
    x = QTensorElement.basis(lam, E)
    lhs = theta_iso(act_schur_left(phi(lam, lam, d), x))
    rhs = op(theta_iso(x))
    assert lhs == rhs
    assert not rhs.is_zero()


def test_one_term_element_with_two_vector_image():
    # the q-tensor basis is not mapped term to term: a single off-diagonal
    # term lands on a combination of two tensor basis vectors
    s3 = WindowPerm.s(R, 3)
    vec = kappa(phi(OM, OM, s3))(e_omega(N, R))
    assert len(vec) == 2
    assert vec == unit(0, 2, 4).scale(V(1)) + unit(1, 2, 3).scale(Q - 1)


def test_kappa_requires_enough_columns():
    with pytest.raises(ValueError):
        kappa(SchurElement.identity(2, 3))


# every translation vector moves at least two slots
SHIFTS = ((N, -N, 0), (0, 2 * N, -N), (-N, 0, N), (N, N, -2 * N))


def test_kappa_matches_the_operator_oracle_on_every_term():
    # every phi-term (lambda, mu, d) at n = r = 3 with d from the length-2,
    # rho-bound-1 pool, finite and affine; per term one key of weight mu
    # and one of another weight, both translated in two or more slots
    pool = enumerate_up_to_length(R, 2, extended=True, rho_bound=1)
    weights = all_weights(N, R)
    terms = sorted({t for lam in weights for mu in weights for d in pool for t in phi(lam, mu, d)._terms})
    assert {all(1 <= t <= R for t in dw) for _, _, dw in terms} == {True, False}
    weight_of_key = {k: Weight.of_key(k, N).parts for k in finite_keys()}
    for j, (lp, mp, dw) in enumerate(terms):
        g = SchurElement._raw(N, R, {(lp, mp, dw): {0: 1}})
        new, old = kappa(g), kappa_by_operators(g)
        inside = [k for k, wp in weight_of_key.items() if wp == mp]
        outside = [k for k, wp in weight_of_key.items() if wp != mp]
        shift = SHIFTS[j % len(SHIFTS)]
        for base in (inside[j % len(inside)], outside[j % len(outside)]):
            key = tuple(t + c for t, c in zip(base, shift))
            assert new.on_key(key)._terms == old.on_key(key)._terms, (lp, mp, dw, key)


def test_split_images_of_affine_terms_have_weight_omega():
    # an affine phi-term splits the key to omega before tau acts on the top
    # weight space; the split image has no key of another weight, for every
    # weight mu of an affine term from the length-2, rho-bound-1 pool and
    # every key, of weight mu or not, in 1..n or translated
    pool = enumerate_up_to_length(R, 2, extended=True, rho_bound=1)
    weights = all_weights(N, R)
    terms = {t for lam in weights for mu in weights for d in pool for t in phi(lam, mu, d)._terms}
    affine_mus = sorted({mp for _, mp, dw in terms if not all(1 <= t <= R for t in dw)})
    assert len(affine_mus) == len(weights)
    keys = [tuple(t + c for t, c in zip(k, shift)) for k in finite_keys() for shift in ((0, 0, 0),) + SHIFTS]
    images = 0
    for mp in affine_mus:
        for key in keys:
            split = _term_terms(N, R, OM.parts, mp, E.window, key)
            images += bool(split)
            assert all(Weight.of_key(k, N) == OM for k in split), (mp, key)
    assert images == len(keys)


def test_cached_images_are_not_shared_with_callers():
    # each result is changed in place, then computed again by the same
    # operator; theta_iso's table keeps its own copy of a kappa image
    lam = Weight(N, R, (2, 1, 0))
    finite, affine = kappa(phi(lam, lam, WindowPerm.s(R, 2))), kappa(phi(lam, lam, WindowPerm((4, 5, 3))))
    moved, fixed = tau(N, R, WindowPerm((2, 4, 0))), tau(N, R, E)
    x = QTensorElement.basis(lam, E)
    results = [
        lambda: finite.on_key((1, 1, 2)),
        lambda: finite.on_key((4, -2, 2)),
        lambda: affine.on_key((1, 1, 2)),
        lambda: moved.on_key((1, 2, 3)),
        lambda: fixed.on_key((1, 2, 3)),
        lambda: theta_iso(x),
    ]
    for make in results:
        before = make()
        assert not before.is_zero()
        expected = {k: dict(c) for k, c in before._terms.items()}
        for c in before._terms.values():
            c[7] = 5
        before._terms[(50, 60, 70)] = {0: 1}
        assert make()._terms == expected
    image = _theta_image(N, R, lam.parts, E.window)
    cached = _finite_term_image(N, R, lam.parts, OM.parts, E.window, (1, 2, 3))
    assert image == cached
    assert image is not cached and all(image[k] is not cached[k] for k in image)


def test_finite_term_images_are_keyed_by_the_base_key():
    # translating the key by multiples of n in any slots translates the
    # image, and the table gains at most the base key's one image
    g = kappa(phi(Weight(N, R, (1, 1, 1)), Weight(N, R, (2, 1, 0)), WindowPerm.s(R, 2)))
    base = (1, 2, 1)
    size = _finite_term_image.cache_info().currsize
    image = g.on_key(base)
    assert not image.is_zero()
    for shift in SHIFTS + ((N, 0, 0), (0, 0, -N), (-N, -N, -N)):
        moved = {tuple(t + c for t, c in zip(k, shift)): v for k, v in image._terms.items()}
        assert g.on_key(tuple(t + c for t, c in zip(base, shift)))._terms == moved, shift
    assert _finite_term_image.cache_info().currsize - size <= 1


# -- the full sweep at reduced size -----------------------------------------


def test_duality_sweep_small():
    checks = verify_affine_duality(3, 3, 2, 4, samples=8)
    bad = [c for c in checks if not c[1]]
    assert not bad, bad[:3]
    names = [c[0] for c in checks]
    assert names == sorted(names)

"""The hopf and duality sweeps: the Hopf-algebra laws of the quantum loop
algebra and the affine Schur-Weyl duality, checked as operators on tensor
space.  Each returns sorted (name, ok, witness) rows for verify.run_hopf and
verify.run_duality, which import this module at call time.

Every check compares raw {key: coefficient} terms key by key over the keys
verify.sweep_keys builds for a half-width W, and its witness is the first
key where the two sides differ (_first_failure).  The relation rows and the
commuting-action rows keep loops of their own, key outside and check inside:
one key's word images serve every relation, and one key's generator images
serve every right Hecke generator, whose memos live together for the whole
sweep.  A relation whose two sides are single words times one c v^e
compares the two word images directly and builds its sides only where they
differ.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

from affineschur._backend import kernels
from affineschur.hecke import bernstein_y, bernstein_y_inverse, t_basis
from affineschur.laurent import Laurent, addmul_term
from affineschur.quantum import (
    _Q, _QM1, TensorVector, UElement, _act_terms, _act_word, _apply_letter, _assoc_terms,
    _bernstein_assoc, _combine, _coproduct, _next, _RightMemo, _suffixes, _tau_letter_terms, _tau_terms,
    _theta_system, _word_images, _word_str, antipode, counit, kappa, theta_iso,
)
from affineschur.schur import QTensorElement, Weight, act_hecke_right, act_schur_left, all_weights, omega, phi
from affineschur.verify import sweep_keys
from affineschur.weyl import WindowPerm, enumerate_up_to_length

# v - v^-1, the denominator of the E-F commutator
_VV = {1: 1, -1: -1}


def _vec_obj(terms: dict) -> list:
    return [[list(k), {str(e): c for e, c in sorted(v.items())}] for k, v in sorted(terms.items())]


def _listed(key: tuple) -> list:
    """A witness key as lists: a tensor key, or a tuple of such parts."""
    return [_listed(p) if isinstance(p, tuple) else p for p in key]


def _witness(key: tuple, lhs: dict, rhs: dict) -> dict:
    return {"key": _listed(key), "lhs": _vec_obj(lhs), "rhs": _vec_obj(rhs)}


def _first_failure(keys: Iterable[tuple], pairs: Callable[[tuple], Iterable[tuple]]) -> dict | None:
    """The witness of the first key at which a (lhs, rhs) pair of raw terms
    from pairs(key) differs, the pairs compared in order; None if none does."""
    for key in keys:
        for lhs, rhs in pairs(key):
            if lhs != rhs:
                return _witness(key, lhs, rhs)
    return None


def _row(name: str, witness: dict | None) -> tuple:
    return (name, witness is None, witness)


def _rank_row(name: str, rank: int, expected: int) -> tuple:
    return _row(name, None if rank == expected else {"rank": rank, "expected": expected})


# ---------------------------------------------------------------------------
# hopf


def _relation_sides(n: int) -> list[tuple]:
    """(name, lhs, rhs, divide) for every defining relation and E-F
    commutator, both sides as raw {letters: coeff}; with divide set the rhs
    image is divided by v - v^-1 (relation (5), the quantum Cartan term)."""
    U, idx, one = UElement, range(1, n + 1), UElement.one(n)
    E, F = (lambda i: U.E(n, i)), (lambda i: U.F(n, i))
    K, Kinv = (lambda i: U.K(n, i)), (lambda i: U.K_inv(n, i))
    pairs = [(f"kk-commute-{i}-{j}", K(i) * K(j), K(j) * K(i)) for i in idx for j in idx]
    for i in idx:
        pairs.append((f"k-inverse-{i}", K(i) * Kinv(i), one))
        pairs.append((f"k-inverse-rev-{i}", Kinv(i) * K(i), one))
    for i in idx:
        for j in idx:
            eps = (1 if i == j else 0) - (1 if i == _next(j, n) else 0)
            pairs.append((f"ke-twist-{i}-{j}", K(i) * E(j), (E(j) * K(i)).scale(Laurent.v(eps))))
            pairs.append((f"kf-twist-{i}-{j}", K(i) * F(j), (F(j) * K(i)).scale(Laurent.v(-eps))))
    for i in idx:
        for j in idx:
            if i == j or j == _next(i, n) or i == _next(j, n):
                continue
            pairs.append((f"ee-commute-{i}-{j}", E(i) * E(j), E(j) * E(i)))
            pairs.append((f"ff-commute-{i}-{j}", F(i) * F(j), F(j) * F(i)))
    vpv = Laurent({1: 1, -1: 1})
    for i in idx:
        for j in idx:
            if i == j or not (j == _next(i, n) or i == _next(j, n)):
                continue
            for tag, X in (("e", E), ("f", F)):
                x_i, x_j = X(i), X(j)
                lhs = x_i * x_i * x_j + x_j * x_i * x_i
                pairs.append((f"{tag}-serre-{i}-{j}", lhs, (x_i * x_j * x_i).scale(vpv)))
    pairs.append(("r-inverse", U.R(n) * U.R_inv(n), one))
    pairs.append(("r-inverse-rev", U.R_inv(n) * U.R(n), one))
    for i in idx:
        for tag, X in (("e", E), ("f", F), ("k", K), ("kinv", Kinv)):
            pairs.append((f"r-rotate-{tag}-{i}", U.R_inv(n) * X(_next(i, n)) * U.R(n), X(i)))
    sides = [(name, lhs._terms, rhs._terms, False) for name, lhs, rhs in pairs]
    for i in idx:
        for j in idx:
            ip = _next(i, n)
            cartan = K(i) * Kinv(ip) - Kinv(i) * K(ip) if i == j else U.zero(n)
            sides.append((f"ef-commutator-{i}-{j}", (E(i) * F(j) - F(j) * E(i))._terms, cartan._terms, i == j))
    return sides


def _direct_pair(lhs: dict, rhs: dict, divide: bool) -> tuple | None:
    """(a, b, d) when the sides are c v^e1 a and c v^e2 b, single words a
    and b with one integer c: they agree on a key exactly when a's image
    there equals v^d times b's, d = e2 - e1.  None for any other relation."""
    if divide or len(lhs) != 1 or len(rhs) != 1:
        return None
    ((a, ca),), ((b, cb),) = lhs.items(), rhs.items()
    if len(ca) != 1 or len(cb) != 1:
        return None
    ((e1, c1),), ((e2, c2),) = ca.items(), cb.items()
    return (a, b, e2 - e1) if c1 == c2 else None


def _relation_rows(n: int, r_max: int, window: int) -> list[tuple]:
    """The def-rel-*-r<k> rows: every relation on every key of every rank up
    to r_max, keys outside and relations inside.  Each key first acts with
    every word suffix the relations use, once, so words sharing a suffix
    share its image; the memo goes with the key.  A relation whose sides are
    single words times c v^e, one c for both, compares the two word images
    directly (_direct_pair) and builds its sides through _combine only where
    they differ; the other relations always build them.  A check's witness
    is its first failing key.  Where v - v^-1 does not divide an E-F
    commutator's Cartan term, that key fails with the undivided term as the
    rhs."""
    sides = _relation_sides(n)
    checks = [(name, lhs, rhs, divide, _direct_pair(lhs, rhs, divide)) for name, lhs, rhs, divide in sides]
    suffixes = _suffixes(w for _, lhs, rhs, _ in sides for w in (*lhs, *rhs))
    _vv = Laurent(_VV)

    def apply(terms: dict, letter: tuple) -> dict:
        return _apply_letter(terms, letter, n)

    rows: list[tuple] = []
    for k in range(1, r_max + 1):
        witness: dict[str, dict] = {}
        for key in sweep_keys(window, k):
            image = _word_images(suffixes, {key: {0: 1}}, apply).__getitem__
            for name, lhs, rhs, divide, direct in checks:
                if name in witness:
                    continue
                if direct is not None:
                    a, b, d = direct
                    want = image(b)
                    if d:
                        want = {kk: {e + d: c for e, c in cc.items()} for kk, cc in want.items()}
                    if image(a) == want:
                        continue
                got, want = _combine(lhs, image), _combine(rhs, image)
                if divide:
                    try:
                        want = {kk: Laurent(cc).divexact(_vv).raw() for kk, cc in want.items()}
                    except ValueError:
                        witness[name] = _witness(key, got, want)
                        continue
                if got != want:
                    witness[name] = _witness(key, got, want)
        rows.extend(_row(f"def-rel-{name}-r{k}", witness.get(name)) for name, *_ in sides)
    return rows


def _split_action(comps: list, image: Callable[[tuple, tuple], dict], key: tuple, cut: int) -> dict:
    """sum(coeff * (a on key[:cut]) (x) (b on key[cut:])) over the coproduct
    triples (a, b, coeff), image(word, part) acting with a word on a piece."""
    out: dict[tuple, dict[int, int]] = {}
    for aw, bw, coeff in comps:
        right = image(bw, key[cut:])
        for ka, ca in image(aw, key[:cut]).items():
            for kb, cb in right.items():
                addmul_term(out, ka + kb, kernels.lp_mul(ca, cb), {0: coeff})
    return out


def _hopf_letters(n: int) -> list[tuple]:
    """The letters whose coproduct, counit and antipode laws are checked."""
    return (
        [("E", i) for i in range(1, n + 1)]
        + [("F", i) for i in range(1, n + 1)]
        + [("K", 1), ("Kinv", 1), ("R", 0), ("Rinv", 0)]
    )


def _coassoc_rows(n: int, window: int) -> list[tuple]:
    """The coassoc-* rows: (Delta x 1) Delta == (1 x Delta) Delta for each
    letter on every three-slot key.  Each letter memoises its coproduct
    words on the one- and two-slot pieces of the keys and drops the memo
    before the next letter."""
    rows = []
    for letter in _hopf_letters(n):
        comps = _coproduct(letter, n)
        images: dict[tuple, dict] = {}

        def image(word: tuple, part: tuple) -> dict:
            got = images.get((word, part))
            if got is None:
                got = images[(word, part)] = _act_word(word, {part: {0: 1}}, n)
            return got

        def pairs(key: tuple) -> list:
            return [(_split_action(comps, image, key, 2), _split_action(comps, image, key, 1))]

        rows.append(_row(f"coassoc-{_word_str((letter,))}", _first_failure(sweep_keys(window, 3), pairs)))
    return rows


def _counit_antipode_rows(n: int, window: int) -> list[tuple]:
    """The counit-left-*, counit-right-* and antipode-* rows on one-slot
    keys.  With Delta u = sum c a (x) b for a letter u, the elements
    sum c eps(a) b, sum c a eps(b) and sum c S(a) b must act as u, u and
    eps(u) do; each is built once per letter."""
    rows = []
    for letter in _hopf_letters(n):
        u = UElement._raw(n, {(letter,): {0: 1}})
        left, right, folded = UElement.zero(n), UElement.zero(n), UElement.zero(n)
        for aw, bw, coeff in _coproduct(letter, n):
            a, b = UElement._raw(n, {aw: {0: 1}}), UElement._raw(n, {bw: {0: 1}})
            left = left + b.scale(counit(a)).scale(coeff)
            right = right + a.scale(counit(b)).scale(coeff)
            folded = folded + (antipode(a) * b).scale(coeff)
        name = _word_str((letter,))
        for label, got, want in (
            ("counit-left", left, u),
            ("counit-right", right, u),
            ("antipode", folded, UElement.one(n).scale(counit(u))),
        ):

            def pairs(key: tuple) -> list:
                x = {key: {0: 1}}
                return [(_act_terms(got._terms, x, n), _act_terms(want._terms, x, n))]

            rows.append(_row(f"{label}-{name}", _first_failure(sweep_keys(window, 1), pairs)))
    return rows


def verify_hopf(n: int, r_max: int, window: int) -> list[tuple]:
    """Operator-level check of the defining relations on every key of rank
    1..r_max, coassociativity on three-slot keys, and the counit and
    antipode laws on one-slot keys, the slots ranging over -window..window;
    returns (name, ok, witness) rows sorted by name."""
    rows = _relation_rows(n, r_max, window) + _coassoc_rows(n, window) + _counit_antipode_rows(n, window)
    return sorted(rows, key=lambda c: c[0])


# ---------------------------------------------------------------------------
# duality


def _commuting_action_rows(n: int, r: int, keyset: Sequence[tuple]) -> list[tuple]:
    """The commuting-actions-u??-h? rows: every quantum generator letter g
    against every right Hecke generator h, g(x)h == g(xh) on every key x.
    Keys are the outer loop and (h, g) pairs the inner one, so each key's
    g(x) is built once for every h, and g(xh) is g's letter kernel on h's
    image of x.  The right generators' memos of their images of unit keys,
    extended by linearity, live together for the whole sweep.  A row's
    witness is its first failing key in keyset order."""
    idx = range(1, n + 1)
    letters = [("E", i) for i in idx] + [("F", i) for i in idx] + [("K", i) for i in idx] + [("R", 0), ("Rinv", 0)]
    hperms = [WindowPerm.s(r, i) for i in range(1, r)] + [WindowPerm.rho(r), WindowPerm.rho(r, -1)]
    rights = [_RightMemo(_bernstein_assoc(t_basis(w)), n, r) for w in hperms]
    witness: dict[tuple, dict] = {}
    for key in keyset:
        unit = {key: {0: 1}}
        images = [_apply_letter(unit, letter, n) for letter in letters]
        for hi, right in enumerate(rights):
            xh = right.on_key(key)
            for gi, letter in enumerate(letters):
                if (hi, gi) in witness:
                    continue
                lhs, rhs = right(images[gi]), _apply_letter(xh, letter, n)
                if lhs != rhs:
                    witness[hi, gi] = _witness(key, lhs, rhs)
    return [
        _row(f"commuting-actions-u{gi:02d}-h{hi}", witness.get((hi, gi)))
        for hi in range(len(rights))
        for gi in range(len(letters))
    ]


def _presentation_rows(n: int, r: int, keyset: Sequence[tuple], sample_keys: Sequence[tuple]) -> list[tuple]:
    """The translation presentation as right operators: quadratic, braid,
    Y-commutation and Y-inverse relations and the conjugation identity on
    the sampled keys, distant translations against the generators on every
    key.  A relation lists (lhs, rhs) sides, raw {word: coeff} over the
    right generators ("s", i), ("y", i), ("yinv", i) and the slot shifts
    ("Y", j); a word acts with its rightmost letter first.  Each right
    generator memoises its images of unit keys for the length of the call.
    A relation's witness is its first failing key, at the first side that
    fails there."""
    ops: dict[tuple, Callable[[dict], dict]] = {}
    for i in range(1, r):
        ops["s", i] = _RightMemo(_bernstein_assoc(t_basis(WindowPerm.s(r, i))), n, r)
    for i in range(1, r + 1):
        ops["y", i] = _RightMemo(_bernstein_assoc(bernstein_y(r, i)), n, r)
        ops["yinv", i] = _RightMemo(_bernstein_assoc(bernstein_y_inverse(r, i)), n, r)
        ops["Y", i] = lambda terms, t=i - 1: kernels.tensor_shift_slot(terms, t, -n)

    def word(*letters) -> dict:
        return {letters: {0: 1}}

    few = sample_keys[:10]
    rels: list[tuple] = []
    for i in range(1, r):
        s_i = ("s", i)
        rels.append((f"presentation-quadratic-{i}", sample_keys, [(word(s_i, s_i), {(s_i,): _QM1, (): _Q})]))
    for i in range(1, r - 1):
        s_i, s_j = ("s", i), ("s", i + 1)
        rels.append((f"presentation-braid-{i}", sample_keys, [(word(s_i, s_j, s_i), word(s_j, s_i, s_j))]))
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            y_i, y_j = ("y", i), ("y", j)
            rels.append((f"presentation-y-commute-{i}-{j}", few, [(word(y_j, y_i), word(y_i, y_j))]))
    for i in range(1, r + 1):
        rels.append((f"presentation-y-inverse-{i}", few, [(word(("yinv", i), ("y", i)), word())]))
    for i in range(1, r):
        for j in range(1, r + 1):
            if j not in (i, i + 1):
                s_i, y_j = ("s", i), ("y", j)
                rels.append((f"presentation-y-distant-{i}-{j}", few, [(word(s_i, y_j), word(y_j, s_i))]))
    for i in range(1, r):
        s_i = ("s", i)
        rels.append((f"conjugation-identity-{i}", sample_keys, [(word(s_i, ("y", i), s_i), {(("y", i + 1),): _Q})]))
    # distant translation operators commute with the generators on all keys
    for i in range(1, r):
        s_i = ("s", i)
        sides = [(word(s_i, ("Y", j)), word(("Y", j), s_i)) for j in range(1, r + 1) if j not in (i, i + 1)]
        rels.append((f"translation-distant-all-keys-{i}", keyset, sides))

    def act(combo: dict, terms: dict) -> dict:
        def image(letters: tuple) -> dict:
            part = terms
            for letter in reversed(letters):
                part = ops[letter](part)
            return part

        return _combine(combo, image)

    rows: list[tuple] = []
    for name, keys, sides in rels:

        def pairs(key: tuple):
            x = {key: {0: 1}}
            return ((act(lhs, x), act(rhs, x)) for lhs, rhs in sides)

        rows.append(_row(name, _first_failure(keys, pairs)))
    return rows


def verify_affine_duality(
    n: int, r: int, L: int, window: int, seed: int = 20250825, samples: int = 30
) -> list[tuple]:
    """The two-sided structure at desk scale, on the keys of rank r with
    slots in -window..window: commuting actions, tau injectivity, the
    translation presentation as right operators, Lemma-level conjugation
    identities, the bimodule identification, and kappa as an algebra map;
    returns (name, ok, witness) rows sorted by name."""
    if n < r:
        raise ValueError(f"duality checks need n >= r, got n={n}, r={r}")
    keyset = list(sweep_keys(window, r))
    rng = random.Random(seed)
    p = 46337

    checks = _commuting_action_rows(n, r, keyset)

    # tau injectivity by rank over a large prime
    basis = enumerate_up_to_length(r, L, extended=True, rho_bound=2)
    omega_keys = [k for k in keyset if Weight.of_key(k, n).parts == omega(n, r).parts]
    rank = _modp_rank(_tau_rows(n, r, basis, omega_keys, p), p)
    checks.append(_rank_row("tau-injective", rank, len(basis)))

    # the translation presentation as right operators
    sample_keys = rng.sample(keyset, min(len(keyset), 40))
    checks.extend(_presentation_rows(n, r, keyset, sample_keys))

    # bimodule identification: intertwining plus injectivity on the window;
    # a basis key (lambda, d) is written (lambda.parts, d.window), and d is
    # distinguished, so the key's basis element is x_lambda T_d itself
    tkeys, columns, _ = _theta_system(n, r, L, 1)
    rank = _modp_rank([_eval_row(col, p) for col in columns], p)
    checks.append(_rank_row("theta-injective", rank, len(tkeys)))
    images = {key: (QTensorElement._raw(n, r, {key: {0: 1}}), col) for key, col in zip(tkeys, columns)}
    hsub = [t_basis(WindowPerm.s(r, i)) for i in range(1, r)] + [t_basis(WindowPerm.rho(r))]
    hright = [(h, _bernstein_assoc(h)) for h in hsub]

    def right_pairs(key: tuple):
        x, col = images[key]
        return ((theta_iso(act_hecke_right(x, h))._terms, _assoc_terms(col, a, n, r)) for h, a in hright)

    checks.append(_row("theta-intertwines-right", _first_failure(images, right_pairs)))
    sgens = [phi(lam, lam, WindowPerm.identity(r)) for lam in all_weights(n, r)[:4]] + [
        phi(omega(n, r), omega(n, r), WindowPerm.s(r, 1)),
        phi(omega(n, r), omega(n, r), WindowPerm.rho(r)),
    ]
    sleft = [(g, kappa(g)) for g in sgens]

    def left_pairs(key: tuple):
        x, col = images[key]
        img = TensorVector._raw(n, r, col)
        return ((theta_iso(act_schur_left(g, x))._terms, kg(img)._terms) for g, kg in sleft)

    step = max(1, len(tkeys) // 12)
    checks.append(_row("theta-intertwines-left", _first_failure(list(images)[::step], left_pairs)))

    # kappa respects sampled products; a key is (lambda, mu, nu, tensor key)
    pool = enumerate_up_to_length(r, 2)
    lamlist = all_weights(n, r)
    witness = None
    for _ in range(samples):
        lam, mu, nu = rng.choice(lamlist), rng.choice(lamlist), rng.choice(lamlist)
        a = phi(lam, mu, rng.choice(pool))
        b = phi(mu, nu, rng.choice(pool))
        ka, kb, kp = kappa(a), kappa(b), kappa(a * b)
        keys = [(lam.parts, mu.parts, nu.parts, key) for key in rng.sample(keyset, 4)]
        witness = _first_failure(keys, lambda k: [(ka(kb.on_key(k[3]))._terms, kp.on_key(k[3])._terms)])
        if witness is not None:
            break
    checks.append(_row("kappa-multiplicative", witness))
    return sorted(checks, key=lambda c: c[0])


def _eval_row(terms: dict, p: int) -> dict:
    """A sparse row {key: coefficient at v = 3 mod p}."""
    return {k: kernels.lp_eval_mod(c, 3, p) for k, c in terms.items()}


def _tau_rows(n: int, r: int, basis: Sequence[WindowPerm], keys: Sequence[tuple], p: int) -> list[dict]:
    """One sparse row per w in basis: tau(w) on the given keys, columns
    (key, image key), coefficients at v = 3 mod p.  For each key the finite
    part of every reduced word is built from the image of the word minus its
    last applied letter, so words sharing a suffix share its images."""
    words = [w.reduced_word() for w in basis]
    suffixes = _suffixes(word for _, word in words)
    rows: list[dict] = [{} for _ in basis]
    for key in keys:
        images = _word_images(suffixes, {key: {0: 1}}, lambda terms, i: _tau_letter_terms(terms, n, r, i))
        for row, (z, word) in zip(rows, words):
            for k2, val in _eval_row(_tau_terms(images[word], n, r, z, ()), p).items():
                row[(key, k2)] = val
    return rows


def _modp_rank(rows: Sequence[dict], p: int) -> int:
    """Rank over Z/p of sparse rows {column: value}: each row is reduced
    against the pivot rows kept so far, in the order they were kept, and
    becomes a new pivot row if anything is left.  A small local routine that
    keeps the module free of test-side dependencies."""
    pivots: list[tuple] = []
    for row in rows:
        row = {c: x % p for c, x in row.items() if x % p}
        for pc, prow in pivots:
            f = row.get(pc)
            if not f:
                continue
            for c, x in prow.items():
                s = (row.get(c, 0) - f * x) % p
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        if row:
            pc = next(iter(row))
            inv = pow(row[pc], p - 2, p)
            pivots.append((pc, {c: x * inv % p for c, x in row.items()}))
    return len(pivots)

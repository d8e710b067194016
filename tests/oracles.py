"""Independent oracles used to derive expected values for the tests.

Everything here is deliberately naive (breadth first search, brute-force
enumeration, subsequence checks) and shares no code paths with the library
algorithms it validates.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from affineschur.laurent import Laurent
from affineschur.weyl import ParabolicIndex, WindowPerm


def bfs_min_word_lengths(r: int, max_cost: int, rho_bound: int = 0) -> dict[tuple, int]:
    """Minimal number of simple-reflection letters needed to reach each
    element, where rho^{+-1} letters are free (0-1 breadth first search).

    With rho_bound = 0 this is plain Coxeter length on W; with a positive
    bound it covers the extended group on windows reachable without leaving
    |rho power| <= rho_bound.
    """
    gens = [WindowPerm.s(r, i) for i in range(1, r + 1)]
    rho = WindowPerm.rho(r, 1)
    rho_inv = WindowPerm.rho(r, -1)
    start = WindowPerm.identity(r)
    dist: dict[tuple, int] = {start.window: 0}
    queue: deque[WindowPerm] = deque([start])
    while queue:
        w = queue.popleft()
        d = dist[w.window]
        if rho_bound:
            for step in (rho, rho_inv):
                nxt = w * step
                if abs(nxt.rho_power()) <= rho_bound and nxt.window not in dist:
                    dist[nxt.window] = d
                    queue.appendleft(nxt)  # zero-cost edge
        if d == max_cost:
            continue
        for g in gens:
            nxt = w * g
            if nxt.window not in dist:
                dist[nxt.window] = d + 1
                queue.append(nxt)
            elif dist[nxt.window] > d + 1:
                raise AssertionError("0-1 BFS visited out of order")
    return dist


def bruhat_by_subwords(y: WindowPerm, w: WindowPerm) -> bool:
    """Subword-property oracle: y <= w iff some subsequence of one fixed
    reduced word of w multiplies to y.  Exponential; keep lengths small."""
    zy, cy = y.rho_decompose()
    zw, cw = w.rho_decompose()
    if zy != zw:
        return False
    _, word = cw.reduced_word()
    r = y.r
    target = cy.window
    for k in range(len(word) + 1):
        for sub in itertools.combinations(word, k):
            if WindowPerm.from_word(r, sub).window == target:
                return True
    return False


def brute_double_coset_min(
    w: WindowPerm, left: ParabolicIndex, right: ParabolicIndex
) -> WindowPerm:
    """Minimal-length element of the double coset by full enumeration."""
    best = None
    for u in left.elements():
        for x in right.elements():
            cand = u * w * x
            if best is None or cand.length() < best.length():
                best = cand
    return best


def brute_coset_factorizations(
    w: WindowPerm, pi: ParabolicIndex
) -> list[tuple[WindowPerm, WindowPerm]]:
    """All factorizations w = u * d with u in the parabolic and d
    distinguished (no generator of pi a left descent of d)."""
    out = []
    for u in pi.elements():
        d = u.inverse() * w
        if not any(g in d.left_descents() for g in pi.generators):
            out.append((u, d))
    return out


def poincare_polynomial(pi: ParabolicIndex) -> Laurent:
    """Sum of q^length over the parabolic subgroup."""
    total = Laurent.zero()
    for w in pi.elements():
        total = total + Laurent.q(w.length())
    return total


def hecke_mul_left_expansion(a, b):
    """Product oracle that expands the LEFT factor into its rho power and
    reduced word and applies left multiplications, the mirror image of the
    library's right-factor expansion."""
    from affineschur.hecke import HeckeElement

    total = HeckeElement.zero(a.r)
    for w, c in a.items():
        z, word = w.reduced_word()
        part = b
        for i in reversed(word):
            part = part.mul_gen_left(i)
        part = part.mul_rho_left(z)
        total = total + part.scale(c)
    return total


def group_algebra_convolve(a: dict, b: dict) -> dict:
    """Convolution product of two integer group-algebra elements."""
    out: dict[WindowPerm, int] = {}
    for u, ca in a.items():
        for w, cb in b.items():
            uw = u * w
            s = out.get(uw, 0) + ca * cb
            if s:
                out[uw] = s
            else:
                out.pop(uw, None)
    return out


def kl_by_bar_involution(w: WindowPerm) -> dict[WindowPerm, Laurent]:
    """All Kazhdan-Lusztig polynomials P_{y,w} at once, by solving the
    bar-invariance condition instead of running the mu-recursion.

    The element C'_w = v^(-l(w)) * sum_y P_{y,w} T_y is fixed by the bar
    involution.  Writing bar(T_z) = sum_y R_{y,z} T_y and comparing T_y
    coefficients gives P_{y,w} = v^(2 l(w)) * sum_{z >= y} R_{y,z} bar(P_{z,w});
    the z = y term is v^(2(l(w)-l(y))) bar(P_{y,w}), and since the degree
    bound keeps P and its reflected image in disjoint exponent ranges, P is
    just the low-degree part of the known sum over z > y.  Solved downward
    from P_{w,w} = 1.
    """
    from affineschur.hecke import t_basis_inverse

    if w.rho_power():
        raise ValueError("bar-involution oracle needs rho power 0")
    r = w.r
    _, word = w.reduced_word()
    lower = {WindowPerm.identity(r)}
    for i in word:
        lower |= {u * WindowPerm.s(r, i) for u in lower}
    bar_t = {z: t_basis_inverse(z.inverse()) for z in lower}
    lw = w.length()
    out: dict[WindowPerm, Laurent] = {w: Laurent.one()}
    for y in sorted(lower, key=lambda z: (-z.length(), z.window)):
        if y == w:
            continue
        ly = y.length()
        assert bar_t[y].coeff(y) == Laurent.v(-2 * ly), "bar is not unitriangular"
        m = lw - ly
        big = Laurent.zero()
        for z in lower:
            if z == y:
                continue
            coeff = bar_t[z].coeff(y)
            if z.length() <= ly:
                assert coeff.is_zero(), "bar is not triangular"
                continue
            if coeff:
                big = big + coeff * out[z].bar()
        big = big.shift(2 * lw)
        low = Laurent({e: c for e, c in big.items() if e < m})
        assert big.coeff(m) == 0, "bar equation has a middle term"
        assert big - low == -low.bar().shift(2 * m), "bar equation inconsistent"
        assert all(e % 2 == 0 and 0 <= e < m for e, _ in low.items()), "not a bounded q-polynomial"
        assert low.coeff(0) == 1, "constant term of a KL polynomial must be 1"
        out[y] = low
    return out


# ---------------------------------------------------------------------------
# Exact solves over Z[v, v^-1]


def bareiss_solve(columns, target) -> list[Laurent]:
    """Solve sum(c_k * columns[k]) = target exactly over Laurent
    coefficients; fraction-free elimination, errors if no Laurent solution.

    The library's former general solver, kept as the oracle for its
    unit-triangular peel: columns and target are TensorVectors."""
    keys = sorted({k for col in columns for k in col._terms} | set(target._terms))
    rows = [[col.coeff(k) for col in columns] + [target.coeff(k)] for k in keys]
    ncols = len(columns)
    piv_rows: list[int] = []
    prev = Laurent.one()
    for c in range(ncols):
        sel = None
        for ri in range(len(rows)):
            if ri not in piv_rows and rows[ri][c]:
                sel = ri
                break
        if sel is None:
            raise ValueError("columns are dependent; cannot invert")
        piv_rows.append(sel)
        pivot = rows[sel][c]
        for ri in range(len(rows)):
            if ri == sel or not any(rows[ri][c2] for c2 in range(c, ncols + 1)):
                continue
            if ri in piv_rows:
                continue
            factor = rows[ri][c]
            rows[ri] = [
                (pivot * rows[ri][c2] - factor * rows[sel][c2]).divexact(prev)
                for c2 in range(ncols + 1)
            ]
        prev = pivot
    for ri in range(len(rows)):
        if ri not in piv_rows and rows[ri][ncols]:
            raise ValueError("target is not in the span")
    # back substitution on the triangularized pivot rows
    sol: list[Laurent] = [Laurent.zero()] * ncols
    for c in range(ncols - 1, -1, -1):
        row = rows[piv_rows[c]]
        acc = row[ncols]
        for c2 in range(c + 1, ncols):
            acc = acc - row[c2] * sol[c2]
        sol[c] = acc.divexact(row[c])
    return sol


# ---------------------------------------------------------------------------
# Mod-p linear algebra (numpy int64; p**2 * dim must stay below 2**63)


def modp_rref(a, p: int):
    """Row-reduce over Z/p; returns (reduced copy, pivot column list)."""
    a = np.array(a, dtype=np.int64) % p
    if a.size == 0:
        return a, []
    rows, cols = a.shape
    piv: list[int] = []
    rr = 0
    for c in range(cols):
        sel = None
        for r2 in range(rr, rows):
            if a[r2, c]:
                sel = r2
                break
        if sel is None:
            continue
        if sel != rr:
            a[[rr, sel]] = a[[sel, rr]]
        a[rr] = (a[rr] * pow(int(a[rr, c]), p - 2, p)) % p
        # only rows with a nonzero in column c change, and only from column c
        # on: the pivot row is zero to the left of c
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != rr]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[rr, c:])) % p
        piv.append(c)
        rr += 1
        if rr == rows:
            break
    return a, piv


def modp_rank(a, p: int) -> int:
    return len(modp_rref(a, p)[1])


def modp_nullspace(a, p: int):
    """Columns spanning the kernel of a over Z/p."""
    red, piv = modp_rref(a, p)
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in set(piv)]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row, pc in enumerate(piv):
            basis[pc, k] = (-red[row, fc]) % p
    return basis


def modp_in_span(cols, vec, p: int) -> bool:
    """Is vec a mod-p combination of the given columns?"""
    aug = np.concatenate([cols, np.asarray(vec, dtype=np.int64).reshape(-1, 1)], axis=1)
    return modp_rank(cols, p) == modp_rank(aug, p)


# ---------------------------------------------------------------------------
# Operator sweeps in their first, pair-outer form: every relation side goes
# through act_tensor on a fresh unit vector for every key, and the right
# Hecke action through _assoc_terms on every vector.  The library sweeps act
# on each basis key once and memoise; these are their oracles.


def hopf_relation_rows(n: int, r_max: int, window) -> list[tuple]:
    """The defining-relation and E-F commutator rows of verify_hopf,
    pair-outer over every key of every rank up to r_max."""
    from affineschur.quantum import (
        _VV,
        TensorVector,
        UElement,
        _defining_relation_pairs,
        _first_failure,
        _next,
        _op_check,
        act_tensor,
    )

    window = sorted(set(int(t) for t in window))
    checks: list[tuple] = []
    pairs = _defining_relation_pairs(n)
    for k in range(1, r_max + 1):
        keyset = list(itertools.product(window, repeat=k))
        for name, lhs, rhs in pairs:
            fails = []
            for key in keyset:
                x = TensorVector.unit(n, key)
                got, want = act_tensor(lhs, x), act_tensor(rhs, x)
                if got != want:
                    fails.append(_op_check("", got, want, key))
            checks.append(_first_failure(f"def-rel-{name}-r{k}", fails))
        # relation (5): the E-F commutator against the quantum Cartan term
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                fails = []
                for key in keyset:
                    x = TensorVector.unit(n, key)
                    lhs = act_tensor(UElement.E(n, i) * UElement.F(n, j), x) - act_tensor(
                        UElement.F(n, j) * UElement.E(n, i), x
                    )
                    if i != j:
                        rhs = TensorVector.zero(n, k)
                    else:
                        num = act_tensor(
                            UElement.K(n, i) * UElement.K_inv(n, _next(i, n)), x
                        ) - act_tensor(UElement.K_inv(n, i) * UElement.K(n, _next(i, n)), x)
                        rhs = TensorVector._raw(
                            n,
                            k,
                            {
                                kk: Laurent(cc).divexact(Laurent(_VV)).raw()
                                for kk, cc in num._terms.items()
                            },
                        )
                    if lhs != rhs:
                        fails.append(_op_check("", lhs, rhs, key))
                checks.append(_first_failure(f"def-rel-ef-commutator-{i}-{j}-r{k}", fails))
    return sorted(checks, key=lambda c: c[0])


def commuting_action_rows(n: int, r: int, window) -> list[tuple]:
    """The commuting-actions-u??-h? rows of verify_affine_duality: every
    quantum generator against every right Hecke generator on every key."""
    from affineschur.hecke import t_basis
    from affineschur.quantum import (
        TensorVector,
        UElement,
        _assoc_terms,
        _bernstein_assoc,
        _first_failure,
        _op_check,
        act_tensor,
    )

    window = sorted(set(int(t) for t in window))
    keyset = list(itertools.product(window, repeat=r))
    checks: list[tuple] = []
    ugens = (
        [UElement.E(n, i) for i in range(1, n + 1)]
        + [UElement.F(n, i) for i in range(1, n + 1)]
        + [UElement.K(n, i) for i in range(1, n + 1)]
        + [UElement.R(n), UElement.R_inv(n)]
    )
    hgens = [t_basis(WindowPerm.s(r, i)) for i in range(1, r)] + [
        t_basis(WindowPerm.rho(r)),
        t_basis(WindowPerm.rho(r, -1)),
    ]
    hassocs = [_bernstein_assoc(h) for h in hgens]
    right_cache = [
        {key: TensorVector._raw(n, r, _assoc_terms({key: {0: 1}}, assoc, n, r)) for key in keyset}
        for assoc in hassocs
    ]
    for gi, g in enumerate(ugens):
        for hi, assoc in enumerate(hassocs):
            fails = []
            for key in keyset:
                x = TensorVector.unit(n, key)
                lhs = TensorVector._raw(n, r, _assoc_terms(act_tensor(g, x)._terms, assoc, n, r))
                rhs = act_tensor(g, right_cache[hi][key])
                if lhs != rhs:
                    fails.append(_op_check("", lhs, rhs, key))
                    break
            checks.append(_first_failure(f"commuting-actions-u{gi:02d}-h{hi}", fails))
    return sorted(checks, key=lambda c: c[0])


def tau_rows(n: int, r: int, basis, keys, p: int) -> list[dict]:
    """One sparse row per w in basis, tau(w) replayed letter by letter on
    every key: columns (key, image key), coefficients at v = 3 mod p."""
    from affineschur.quantum import _eval_row, tau

    rows = []
    for w in basis:
        op = tau(n, r, w)
        row = {}
        for key in keys:
            for k2, val in _eval_row(op.on_key(key)._terms, p).items():
                row[(key, k2)] = val
        rows.append(row)
    return rows


def coassoc_rows(n: int, window) -> list[tuple]:
    """The coassoc-* rows of verify_hopf: both iterated coproducts of each
    letter rebuilt on every three-slot key through TensorVector sums."""
    from affineschur._backend import kernels
    from affineschur.quantum import TensorVector, _act_word, _coproduct, _first_failure, _op_check

    window = sorted(set(int(t) for t in window))
    checks: list[tuple] = []
    letters = (
        [("E", i) for i in range(1, n + 1)]
        + [("F", i) for i in range(1, n + 1)]
        + [("K", 1), ("Kinv", 1), ("R", 0), ("Rinv", 0)]
    )
    triple = list(itertools.product(window, repeat=3))
    for letter in letters:
        fails = []
        comps = _coproduct(letter, n)
        for key in triple:
            left = TensorVector.zero(n, 3)
            right = TensorVector.zero(n, 3)
            for aw, bw, coeff in comps:
                la = _act_word(aw, {key[:2]: {0: 1}}, n)
                lb = _act_word(bw, {key[2:]: {0: 1}}, n)
                for ka, ca in la.items():
                    for kb, cb in lb.items():
                        left = left + TensorVector._raw(
                            n, 3, {ka + kb: kernels.lp_mul(ca, cb)}
                        ).scale(coeff)
                ra = _act_word(aw, {key[:1]: {0: 1}}, n)
                rb = _act_word(bw, {key[1:]: {0: 1}}, n)
                for ka, ca in ra.items():
                    for kb, cb in rb.items():
                        right = right + TensorVector._raw(
                            n, 3, {ka + kb: kernels.lp_mul(ca, cb)}
                        ).scale(coeff)
            if left != right:
                fails.append(_op_check("", left, right, key))
        name = letter[0] if letter[0] in ("R", "Rinv") else f"{letter[0]}{letter[1]}"
        checks.append(_first_failure(f"coassoc-{name}", fails))
    return sorted(checks, key=lambda c: c[0])


# ---------------------------------------------------------------------------
# The right T_{s_i} step in its first form, which wraps every carry term in
# a TensorVector and runs the finite action on it, and the presentation rows
# in their first form, one act-compare loop per relation family.


def finite_hecke_right_action(x, i: int):
    """Right T_{s_i} on keys within 1..n (the finite tensor module)."""
    from affineschur._backend import kernels
    from affineschur.quantum import TensorVector

    n, r = x.n, x.r
    if not 1 <= i <= r - 1:
        raise ValueError(f"generator index {i} out of range 1..{r - 1}")
    out: dict[tuple, dict[int, int]] = {}

    def addmul(key, c, extra):
        acc = out.setdefault(key, {})
        kernels.lp_add_into(acc, kernels.lp_mul(c, extra))
        if not acc:
            del out[key]

    for key, c in x._terms.items():
        if any(not 1 <= t <= n for t in key):
            raise ValueError(f"key {key} leaves the range 1..{n}")
        a, b = key[i - 1], key[i]
        swapped = key[: i - 1] + (b, a) + key[i + 1 :]
        if a == b:
            addmul(key, c, {2: 1})
        elif a < b:
            addmul(swapped, c, {1: 1})
        else:
            addmul(swapped, c, {1: 1})
            addmul(key, c, {2: 1, 0: -1})
    return TensorVector._raw(n, r, out)


def act_sigma_terms(terms: dict, i: int, n: int, r: int) -> dict:
    """Right T_{s_i} on arbitrary keys: peel the translation part off the
    two active slots, commute it past the generator, act finitely, restore."""
    from affineschur._backend import kernels
    from affineschur.hecke import commute_gen_past_translations
    from affineschur.quantum import TensorVector

    out: dict[tuple, dict[int, int]] = {}
    for key, c in terms.items():
        cvec = tuple((t - 1) // n for t in key)
        base = tuple(t - n * q for t, q in zip(key, cvec))
        a, b = -cvec[i - 1], -cvec[i]
        for carries, da, db, coeff in commute_gen_past_translations(a, b):
            frozen = {base: kernels.lp_mul(c, coeff.raw())}
            acted = finite_hecke_right_action(TensorVector._raw(n, r, frozen), i)._terms if carries else frozen
            for k2, c2 in acted.items():
                nk = list(k2)
                for t in range(r):
                    if t not in (i - 1, i):
                        nk[t] += n * cvec[t]
                nk[i - 1] -= n * da
                nk[i] -= n * db
                nk = tuple(nk)
                acc = out.setdefault(nk, {})
                kernels.lp_add_into(acc, c2)
                if not acc:
                    del out[nk]
    return out


def presentation_rows(n: int, r: int, keyset, sample_keys) -> list[tuple]:
    """The translation presentation as right operators: quadratic, braid,
    Y-commutation and Y-inverse relations and the conjugation identity on
    the sampled keys, distant translations against the generators on every
    key.  Each right operator memoises its images of unit keys for the
    length of the call."""
    from affineschur.hecke import bernstein_y, bernstein_y_inverse, t_basis
    from affineschur.quantum import (
        TensorVector,
        _bernstein_assoc,
        _first_failure,
        _op_check,
        _RightMemo,
        y_op,
    )

    right_of: dict[int, _RightMemo] = {}

    def acth(h, vec):
        if id(h) not in right_of:
            right_of[id(h)] = _RightMemo(_bernstein_assoc(h), n, r)
        return TensorVector._raw(n, r, right_of[id(h)](vec._terms))

    checks: list[tuple] = []
    sigma = [None] + [t_basis(WindowPerm.s(r, i)) for i in range(1, r)]
    ys = [None] + [bernstein_y(r, i) for i in range(1, r + 1)]
    yinvs = [None] + [bernstein_y_inverse(r, i) for i in range(1, r + 1)]
    for i in range(1, r):
        fails = []
        for key in sample_keys:
            x = TensorVector.unit(n, key)
            lhs = acth(sigma[i], acth(sigma[i], x))
            rhs = acth(sigma[i], x).scale(Laurent({2: 1, 0: -1})) + x.scale(Laurent.q())
            if lhs != rhs:
                fails.append(_op_check("", lhs, rhs, key))
        checks.append(_first_failure(f"presentation-quadratic-{i}", fails))
    for i in range(1, r - 1):
        fails = []
        for key in sample_keys:
            x = TensorVector.unit(n, key)
            lhs = acth(sigma[i], acth(sigma[i + 1], acth(sigma[i], x)))
            rhs = acth(sigma[i + 1], acth(sigma[i], acth(sigma[i + 1], x)))
            if lhs != rhs:
                fails.append(_op_check("", lhs, rhs, key))
        checks.append(_first_failure(f"presentation-braid-{i}", fails))
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            fails = []
            for key in sample_keys[:10]:
                x = TensorVector.unit(n, key)
                lhs = acth(ys[j], acth(ys[i], x))
                rhs = acth(ys[i], acth(ys[j], x))
                if lhs != rhs:
                    fails.append(_op_check("", lhs, rhs, key))
            checks.append(_first_failure(f"presentation-y-commute-{i}-{j}", fails))
    for i in range(1, r + 1):
        fails = []
        for key in sample_keys[:10]:
            x = TensorVector.unit(n, key)
            lhs = acth(yinvs[i], acth(ys[i], x))
            if lhs != x:
                fails.append(_op_check("", lhs, x, key))
        checks.append(_first_failure(f"presentation-y-inverse-{i}", fails))
    for i in range(1, r):
        for j in range(1, r + 1):
            if j in (i, i + 1):
                continue
            fails = []
            for key in sample_keys[:10]:
                x = TensorVector.unit(n, key)
                lhs = acth(sigma[i], acth(ys[j], x))
                rhs = acth(ys[j], acth(sigma[i], x))
                if lhs != rhs:
                    fails.append(_op_check("", lhs, rhs, key))
            checks.append(_first_failure(f"presentation-y-distant-{i}-{j}", fails))
    for i in range(1, r):
        fails = []
        for key in sample_keys:
            x = TensorVector.unit(n, key)
            lhs = acth(sigma[i], acth(ys[i], acth(sigma[i], x)))
            rhs = acth(ys[i + 1], x).scale(Laurent.q())
            if lhs != rhs:
                fails.append(_op_check("", lhs, rhs, key))
        checks.append(_first_failure(f"conjugation-identity-{i}", fails))
    # distant translation operators commute with the generators on all keys
    for i in range(1, r):
        fails = []
        for key in keyset:
            x = TensorVector.unit(n, key)
            for j in range(1, r + 1):
                if j in (i, i + 1):
                    continue
                lhs = acth(sigma[i], y_op(n, r, j)(x))
                rhs = y_op(n, r, j)(acth(sigma[i], x))
                if lhs != rhs:
                    fails.append(_op_check("", lhs, rhs, key))
                    break
        checks.append(_first_failure(f"translation-distant-all-keys-{i}", fails))
    return checks


# ---------------------------------------------------------------------------
# Per-term reduced-word loops, replaced in the library by one prefix-shared
# walk (hecke._word_walk).  Each term of the right factor replays its whole
# reduced word; the library's old code, kept as the reference.


def t_basis_inverse_by_words(w: WindowPerm):
    """T_w^-1: the generator inverses of w's reduced word in reverse order,
    then T_rho^-z."""
    from affineschur.hecke import HeckeElement

    z, word = w.reduced_word()
    h = HeckeElement.unit(w.r)
    for i in reversed(word):
        h = h.mul_gen_inv_right(i)
    return h.mul_rho_right(-z)


def hecke_mul_by_words(a, b):
    """a * b, one full reduced-word sweep per term of b."""
    from affineschur._backend import kernels
    from affineschur.hecke import HeckeElement
    from affineschur.laurent import addmul_into

    if a.r != b.r:
        raise ValueError("period mismatch")
    total: dict[tuple[int, ...], dict[int, int]] = {}
    for wwin, c in b._terms.items():
        z, word = WindowPerm._unsafe(wwin).reduced_word()
        part = kernels.hecke_mul_rho_right(a._terms, z)
        for i in word:
            part = kernels.hecke_mul_gen_right(part, i)
        addmul_into(total, part, c)
    return HeckeElement._raw(a.r, total)


def hecke_bar_by_words(h):
    """bar(h): bar each coefficient and invert T_{w^-1} term by term."""
    from affineschur._backend import kernels
    from affineschur.hecke import HeckeElement
    from affineschur.laurent import addmul_into

    total: dict[tuple[int, ...], dict[int, int]] = {}
    for wwin, c in h._terms.items():
        inv = t_basis_inverse_by_words(WindowPerm._unsafe(kernels.win_inverse(wwin)))
        addmul_into(total, inv._terms, kernels.lp_bar(c))
    return HeckeElement._raw(h.r, total)


def to_bernstein_basis_by_words(h) -> dict:
    """The (c, u) rewrite of h, each term's reduced word replayed from the
    unit."""
    from affineschur.hecke import _b_mul_gen, _b_mul_rho, _b_mul_rho_inv
    from affineschur.laurent import addmul_into

    r = h.r
    idwin = tuple(range(1, r + 1))
    zero_c = (0,) * r
    total: dict = {}
    for wwin, coeff in h._terms.items():
        z, word = WindowPerm._unsafe(wwin).reduced_word()
        bel = {(zero_c, idwin): {0: 1}}
        for _ in range(z):
            bel = _b_mul_rho(bel, r)
        for _ in range(-z):
            bel = _b_mul_rho_inv(bel, r)
        for i in word:
            if i < r:
                bel = _b_mul_gen(bel, i)
            else:
                # s_r = rho s_1 rho^-1 at the level of basis terms
                bel = _b_mul_rho_inv(_b_mul_gen(_b_mul_rho(bel, r), 1), r)
        addmul_into(total, bel, coeff)
    return {
        (cvec, WindowPerm._unsafe(u)): Laurent(c) for (cvec, u), c in total.items()
    }


def from_bernstein_by_words(assoc, r: int):
    """Multiply a (c, u) association back out term by term, each product
    through hecke_mul_by_words."""
    from affineschur.hecke import HeckeElement, bernstein_y, bernstein_y_inverse
    from affineschur.laurent import addmul_into

    total: dict = {}
    for (cvec, u), coeff in assoc.items():
        h = HeckeElement.unit(r)
        for j, cj in enumerate(cvec, start=1):
            if not cj:
                continue
            factor = bernstein_y(r, j) if cj > 0 else bernstein_y_inverse(r, j)
            for _ in range(abs(cj)):
                h = hecke_mul_by_words(h, factor)
        addmul_into(total, hecke_mul_by_words(h, HeckeElement.t_basis(u))._terms, coeff.raw())
    return HeckeElement._raw(r, total)


def act_schur_left_by_terms(s, x):
    """s . x, one product phi value * T_d per pair of terms of s and x."""
    from affineschur._backend import kernels
    from affineschur.laurent import addmul_into
    from affineschur.schur import QTensorElement, _phi_value_cached, _right_factor_terms

    if (s.n, s.r) != (x.n, x.r):
        raise ValueError("shape mismatch")
    n, r = x.n, x.r
    values: dict[tuple, dict] = {}
    for (l2, dwin), c2 in x._terms.items():
        d2 = WindowPerm._unsafe(dwin)
        for (l1, m1, d1), c1 in s._terms.items():
            if m1 != l2:
                continue
            part = _phi_value_cached(r, l1, m1, d1).mul_t_right(d2)
            addmul_into(values.setdefault(l1, {}), part._terms, kernels.lp_mul(c1, c2))
    return QTensorElement._raw(n, r, _right_factor_terms(values, r))


def act_hecke_right_by_terms(x, h):
    """x . h, one product x_lambda T_d * h per term of x."""
    from affineschur.hecke import x_lambda
    from affineschur.laurent import addmul_into
    from affineschur.schur import QTensorElement, _right_factor_terms, young_subgroup_of_key

    if x.r != h.r:
        raise ValueError("rank mismatch")
    n, r = x.n, x.r
    values: dict[tuple, dict] = {}
    for (lp, dwin), c in x._terms.items():
        part = x_lambda(young_subgroup_of_key(lp, r)).mul_t_right(WindowPerm._unsafe(dwin)) * h
        addmul_into(values.setdefault(lp, {}), part._terms, c)
    return QTensorElement._raw(n, r, _right_factor_terms(values, r))

"""Independent oracles used to derive expected values for the tests.

Everything here is deliberately naive (breadth first search, brute-force
enumeration, subsequence checks) and shares no code paths with the library
algorithms it validates.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache

import numpy as np

from affineschur._kernels_py import lp_add_into, lp_addmul_into, lp_shift, win_apply, win_mul_s_left, win_rot
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


def hecke_mul_left_expansion(a, b):
    """Product oracle that expands the LEFT factor into its rho power and
    reduced word and applies left multiplications (hecke_mul_gen_left, then
    rho^z on the left), the mirror image of the library's right-factor
    expansion."""
    from affineschur.hecke import HeckeElement

    total = HeckeElement.zero(a.r)
    for w, c in a.items():
        z, word = w.reduced_word()
        part = b._terms
        for i in reversed(word):
            part = hecke_mul_gen_left(part, i)
        part = {win_rot(x, z): cx for x, cx in part.items()}
        total = total + HeckeElement._raw(a.r, part).scale(c)
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
    if w.rho_power():
        raise ValueError("bar-involution oracle needs rho power 0")
    r = w.r
    _, word = w.reduced_word()
    lower = {WindowPerm.identity(r)}
    for i in word:
        lower |= {u * WindowPerm.s(r, i) for u in lower}
    bar_t = {z: t_basis_inverse_by_words(z.inverse()) for z in lower}
    lw = w.length()
    out: dict[WindowPerm, Laurent] = {w: Laurent.one()}
    for y in sorted(lower, key=lambda z: (-z.length(), z.window)):
        if y == w:
            continue
        ly = y.length()
        if bar_t[y].coeff(y) != Laurent.v(-2 * ly):
            raise ArithmeticError("bar is not unitriangular")
        m = lw - ly
        big = Laurent.zero()
        for z in lower:
            if z == y:
                continue
            coeff = bar_t[z].coeff(y)
            if z.length() <= ly:
                if not coeff.is_zero():
                    raise ArithmeticError("bar is not triangular")
                continue
            if coeff:
                big = big + coeff * out[z].bar()
        big = big.shift(2 * lw)
        low = Laurent({e: c for e, c in big.items() if e < m})
        if big.coeff(m) != 0:
            raise ArithmeticError("bar equation has a middle term")
        if big - low != -low.bar().shift(2 * m):
            raise ArithmeticError("bar equation inconsistent")
        if not all(e % 2 == 0 and 0 <= e < m for e, _ in low.items()):
            raise ArithmeticError("not a bounded q-polynomial")
        if low.coeff(0) != 1:
            raise ArithmeticError("constant term of a KL polynomial must be 1")
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


def _vec_obj(terms: dict) -> list:
    return [[list(k), {str(e): c for e, c in sorted(v.items())}] for k, v in sorted(terms.items())]


def _op_check(name: str, lhs, rhs, key) -> tuple:
    """(name, ok, witness) for two TensorVectors on one key, the witness in
    the report's format."""
    if lhs == rhs:
        return (name, True, None)
    return (name, False, {"key": list(key), "lhs": _vec_obj(lhs._terms), "rhs": _vec_obj(rhs._terms)})


def _first_failure(name: str, fails: list) -> tuple:
    if not fails:
        return (name, True, None)
    return (name, False, fails[0][2])


def hopf_relation_rows(n: int, r_max: int, window) -> list[tuple]:
    """The defining-relation and E-F commutator rows of verify_hopf,
    pair-outer over every key of every rank up to r_max."""
    from affineschur._sweeps import _VV, _relation_sides
    from affineschur.quantum import TensorVector, UElement, _next, act_tensor

    window = sorted(set(int(t) for t in window))
    checks: list[tuple] = []
    pairs = [
        (name, UElement._raw(n, lhs), UElement._raw(n, rhs))
        for name, lhs, rhs, _ in _relation_sides(n)
        if not name.startswith("ef-commutator-")
    ]
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
                        try:
                            rhs = TensorVector._raw(
                                n,
                                k,
                                {
                                    kk: Laurent(cc).divexact(Laurent(_VV)).raw()
                                    for kk, cc in num._terms.items()
                                },
                            )
                        except ValueError:
                            # no lhs equals a Cartan term that v - v^-1 does
                            # not divide: the key fails against the undivided one
                            fails.append(("", False, {
                                "key": list(key), "lhs": _vec_obj(lhs._terms), "rhs": _vec_obj(num._terms),
                            }))
                            continue
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
    from affineschur._sweeps import _eval_row
    from affineschur.quantum import tau

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
    from affineschur.quantum import TensorVector, _act_word, _coproduct

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


def hopf_counit_antipode_rows(n: int, window) -> list[tuple]:
    """The counit-left-*, counit-right-* and antipode-* rows of verify_hopf,
    rebuilt through UElement and TensorVector objects for every letter, key
    and coproduct term."""
    from affineschur.quantum import (
        GeneratorWord,
        TensorVector,
        UElement,
        _coproduct,
        act_tensor,
        antipode,
        counit,
    )

    window = sorted(set(int(t) for t in window))
    checks: list[tuple] = []
    letters = (
        [("E", i) for i in range(1, n + 1)]
        + [("F", i) for i in range(1, n + 1)]
        + [("K", 1), ("Kinv", 1), ("R", 0), ("Rinv", 0)]
    )
    for letter in letters:
        comps = _coproduct(letter, n)
        u = UElement.from_word(GeneratorWord(n, [letter]))
        fails_l, fails_r, fails_s = [], [], []
        for t in window:
            x = TensorVector.unit(n, (t,))
            direct = act_tensor(u, x)
            lhs_l = TensorVector.zero(n, 1)
            lhs_r = TensorVector.zero(n, 1)
            for aw, bw, coeff in comps:
                ua = UElement.from_word(GeneratorWord(n, aw))
                ub = UElement.from_word(GeneratorWord(n, bw))
                lhs_l = lhs_l + act_tensor(ub, x).scale(counit(ua)).scale(coeff)
                lhs_r = lhs_r + act_tensor(ua, x).scale(counit(ub)).scale(coeff)
            if lhs_l != direct:
                fails_l.append(_op_check("", lhs_l, direct, (t,)))
            if lhs_r != direct:
                fails_r.append(_op_check("", lhs_r, direct, (t,)))
            folded = UElement.zero(n)
            for aw, bw, coeff in comps:
                sa = antipode(UElement.from_word(GeneratorWord(n, aw)))
                folded = folded + (sa * UElement.from_word(GeneratorWord(n, bw))).scale(coeff)
            want = x.scale(counit(u))
            got = act_tensor(folded, x)
            if got != want:
                fails_s.append(_op_check("", got, want, (t,)))
        name = letter[0] if letter[0] in ("R", "Rinv") else f"{letter[0]}{letter[1]}"
        checks.append(_first_failure(f"counit-left-{name}", fails_l))
        checks.append(_first_failure(f"counit-right-{name}", fails_r))
        checks.append(_first_failure(f"antipode-{name}", fails_s))
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
        _RightMemo,
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
    then T_rho^-z, each inverse v^-2 T_s + (v^-2 - 1) from the scanning
    generator step."""
    from affineschur.hecke import HeckeElement

    z, word = w.reduced_word()
    terms = {tuple(range(1, w.r + 1)): {0: 1}}
    for i in reversed(word):
        gen = hecke_mul_gen_right(terms, i)
        inv: dict = {}
        for key, c in gen.items():
            lp_addmul_into(inv.setdefault(key, {}), c, {-2: 1})
        for key, c in terms.items():
            lp_addmul_into(inv.setdefault(key, {}), c, {-2: 1, 0: -1})
        terms = {key: c for key, c in inv.items() if c}
    return HeckeElement._raw(w.r, _rho_right(terms, -z))


def _rho_right(terms: dict, z: int) -> dict:
    """terms * T_rho^z: every window entry shifted by z."""
    return {tuple(x + z for x in key): dict(c) for key, c in terms.items()}


def hecke_mul_by_words(a, b):
    """a * b, one full reduced-word sweep per term of b, by the scanning
    generator step."""
    from affineschur.hecke import HeckeElement
    from affineschur.laurent import addmul_into

    if a.r != b.r:
        raise ValueError("period mismatch")
    total: dict[tuple[int, ...], dict[int, int]] = {}
    for wwin, c in b._terms.items():
        z, word = WindowPerm._unsafe(wwin).reduced_word()
        part = _rho_right(a._terms, z)
        for i in word:
            part = hecke_mul_gen_right(part, i)
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


def bernstein_assoc_by_rewrite(h) -> tuple:
    """h rewritten as (cvec, finite word, raw coeff) rows by one rewrite of
    the whole element, as quantum._bernstein_assoc did before it summed
    memoised rows of the basis terms."""
    from affineschur.hecke import to_bernstein_basis

    rows = []
    for (cvec, u), coeff in to_bernstein_basis(h).items():
        z, word = u.reduced_word()
        if z != 0:
            raise ValueError("translation form must have a finite tail")
        rows.append((cvec, word, coeff.raw()))
    return tuple(rows)


def from_bernstein_by_words(assoc, r: int):
    """Multiply a (c, u) association back out term by term, each product
    through hecke_mul_by_words."""
    from affineschur.hecke import HeckeElement, bernstein_y, bernstein_y_inverse, t_basis
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
        addmul_into(total, hecke_mul_by_words(h, t_basis(u))._terms, coeff.raw())
    return HeckeElement._raw(r, total)


# ---------------------------------------------------------------------------
# The case-by-case exchange recursions that hecke._exchange replaced: each
# moves one y^+-1 past one generator per call, one rule per sign and slot;
# the library's old code, kept as the reference.

_QM1 = {2: 1, 0: -1}  # v^2 - 1


@lru_cache(maxsize=None)
def commute_gen_past_translations_by_cases(a: int, b: int) -> tuple:
    """y_i^a y_{i+1}^b T_{s_i} as sorted (carries_gen, da, db, coeff)
    terms, peeling one y at a time."""
    if a == 0 and b == 0:
        return ((True, 0, 0, Laurent.one()),)
    vv = Laurent(_QM1)
    out: dict[tuple[bool, int, int], Laurent] = {}

    def add(key, c):
        cur = out.get(key)
        cur = c if cur is None else cur + c
        if cur:
            out[key] = cur
        else:
            out.pop(key, None)

    if b > 0:
        # peel y_{i+1}: y_{i+1} T_{s_i} = T_{s_i} y_i + (v^2-1) y_{i+1}
        for g, da, db, c in commute_gen_past_translations_by_cases(a, b - 1):
            add((g, da + 1, db), c)
        add((False, a, b), vv)
    elif b < 0:
        # y_{i+1}^-1 T_{s_i} = T_{s_i} y_i^-1 - (v^2-1) y_i^-1
        for g, da, db, c in commute_gen_past_translations_by_cases(a, b + 1):
            add((g, da - 1, db), c)
        add((False, a - 1, b + 1), -vv)
    elif a > 0:
        # y_i T_{s_i} = T_{s_i} y_{i+1} - (v^2-1) y_{i+1}
        for g, da, db, c in commute_gen_past_translations_by_cases(a - 1, 0):
            add((g, da, db + 1), c)
        add((False, a - 1, 1), -vv)
    else:
        # y_i^-1 T_{s_i} = T_{s_i} y_{i+1}^-1 + (v^2-1) y_i^-1
        for g, da, db, c in commute_gen_past_translations_by_cases(a + 1, 0):
            add((g, da, db - 1), c)
        add((False, a, 0), vv)
    return tuple((g, da, db, c) for (g, da, db), c in sorted(out.items(), key=lambda kv: kv[0]))


@lru_cache(maxsize=None)
def finite_term_mul_y_by_cases(u: tuple[int, ...], j: int, e: int) -> tuple:
    """T_u * y_j^e (u a finite window, e = +-1) in (c, u)-key form, one
    exchange rule per case."""
    from affineschur._kernels_py import lp_neg, win_is_right_descent, win_mul_s_right
    from affineschur.hecke import _b_mul_gen
    from affineschur.laurent import addmul_into

    r = len(u)
    idwin = tuple(range(1, r + 1))
    if u == idwin:
        cvec = tuple(e if t == j else 0 for t in range(1, r + 1))
        return (((cvec, idwin), {0: 1}),)
    i = next(i for i in range(1, r) if win_is_right_descent(u, i))
    u2 = win_mul_s_right(u, i)  # u = u2 * s_i, shorter

    def as_dict(pairs):
        return {key: dict(c) for key, c in pairs}

    if j != i and j != i + 1:
        res = _b_mul_gen(as_dict(finite_term_mul_y_by_cases(u2, j, e)), i)
    elif e == 1 and j == i:
        # T_{s_i} y_i = y_{i+1} T_{s_i} - (v^2-1) y_{i+1}
        base = as_dict(finite_term_mul_y_by_cases(u2, i + 1, 1))
        res = _b_mul_gen(base, i)
        addmul_into(res, base, lp_neg(_QM1))
    elif e == 1:
        # T_{s_i} y_{i+1} = y_i T_{s_i} + (v^2-1) y_{i+1}
        res = _b_mul_gen(as_dict(finite_term_mul_y_by_cases(u2, i, 1)), i)
        addmul_into(res, as_dict(finite_term_mul_y_by_cases(u2, i + 1, 1)), _QM1)
    elif j == i:
        # T_{s_i} y_i^-1 = y_{i+1}^-1 T_{s_i} + (v^2-1) y_i^-1
        res = _b_mul_gen(as_dict(finite_term_mul_y_by_cases(u2, i + 1, -1)), i)
        addmul_into(res, as_dict(finite_term_mul_y_by_cases(u2, i, -1)), _QM1)
    else:
        # T_{s_i} y_{i+1}^-1 = y_i^-1 T_{s_i} - (v^2-1) y_i^-1
        base = as_dict(finite_term_mul_y_by_cases(u2, i, -1))
        res = _b_mul_gen(base, i)
        addmul_into(res, base, lp_neg(_QM1))
    return tuple((key, c) for key, c in res.items())


# ---------------------------------------------------------------------------
# The peel that schur replaced by reading coordinates off the distinguished
# representatives.  It subtracts whole basis columns, shortest window first,
# so it never relies on the cells partitioning the group.

# peeling must strictly shrink a finite stratum poset; hitting this cap
# means the input was not in the claimed span
_PEEL_CAP = 100_000


def peel_strata(h, is_lead, image, span: str) -> dict:
    """Coordinates of h over the columns image(w), one per lead window w.

    Peels the minimal-length, lexicographically smallest window of the
    residual; for an element of the span that window is a lead window with
    the right coefficient.  Raises ValueError if h leaves the span.
    """
    from affineschur.laurent import addmul_into

    coords: dict = {}
    residual = {w: dict(c) for w, c in h._terms.items()}
    for _ in range(_PEEL_CAP):
        if not residual:
            return coords
        wwin = min(residual, key=lambda w: (win_length(w), w))
        if not is_lead(wwin):
            raise ValueError(f"element is not {span}: stuck at {wwin}")
        c = coords[wwin] = Laurent(residual[wwin])
        addmul_into(residual, image(wwin), {e: -k for e, k in c.raw().items()})
    raise RuntimeError(f"peel did not terminate; element is not {span}")


def extract_right_factor_by_peel(h, pi) -> dict:
    """Coordinates of h in the basis {x_pi T_d : d distinguished}."""
    from affineschur.hecke import t_basis, x_lambda
    from affineschur.weyl import is_distinguished

    xl = x_lambda(pi)
    return peel_strata(
        h,
        lambda w: is_distinguished(WindowPerm._unsafe(w), pi),
        lambda w: hecke_mul_by_words(xl, t_basis(WindowPerm._unsafe(w)))._terms,
        "a combination of x*T_d terms",
    )


def expand_phi_by_peel(h, lam, mu) -> dict:
    """Coordinates of h in the phi-basis column (lam, mu); the lead windows
    are the minimal double-coset representatives."""
    from affineschur.schur import _phi_value_cached, young_parabolic
    from affineschur.weyl import double_coset_rep

    left, right = young_parabolic(lam), young_parabolic(mu)
    return peel_strata(
        h,
        lambda w: double_coset_rep(WindowPerm._unsafe(w), left, right).window == w,
        lambda w: _phi_value_cached(lam.r, lam.parts, mu.parts, w)._terms,
        "in the double-coset span",
    )


def right_factor_terms_by_peel(values: dict, r: int) -> dict:
    """{(lambda parts, d window): coefficient} of Hecke values {lambda parts:
    raw terms}, each value peeled over x_lambda T_d."""
    from affineschur.hecke import HeckeElement
    from affineschur.weyl import young_subgroup_of_key

    out: dict = {}
    for lp, terms in values.items():
        coords = extract_right_factor_by_peel(HeckeElement._raw(r, terms), young_subgroup_of_key(lp, r))
        for dwin, c in coords.items():
            out[(lp, dwin)] = c.raw()
    return out


def schur_mul_by_peel(a, b):
    """a after b as schur_mul computes it, with both re-expansions peeled."""
    from affineschur.hecke import HeckeElement
    from affineschur.laurent import addmul_into
    from affineschur.schur import SchurElement, Weight, _phi_value_cached, young_parabolic

    if (a.n, a.r) != (b.n, b.r):
        raise ValueError("shape mismatch")
    n, r = a.n, a.r
    blocks: dict = {}
    for (l2, m2, d2), c2 in b._terms.items():
        addmul_into(blocks.setdefault((l2, m2), {}), _phi_value_cached(r, l2, m2, d2)._terms, c2)
    values: dict = {}
    for (l2, m2), raw in blocks.items():
        if not raw:
            continue
        factor = extract_right_factor_by_peel(HeckeElement._raw(r, raw), young_parabolic(Weight(n, r, l2)))
        right = HeckeElement._raw(r, {dwin: c.raw() for dwin, c in factor.items()})
        for (l1, m1, d1), c1 in a._terms.items():
            if m1 == l2:
                base = _phi_value_cached(r, l1, m1, d1)
                addmul_into(values.setdefault((l1, m2), {}), hecke_mul_by_words(base, right)._terms, c1)
    out: dict = {}
    for (l1, m2), h in values.items():
        coords = expand_phi_by_peel(HeckeElement._raw(r, h), Weight(n, r, l1), Weight(n, r, m2))
        for dwin, c in coords.items():
            out[(l1, m2, dwin)] = c.raw()
    return SchurElement._raw(n, r, out)


def act_schur_left_by_terms(s, x):
    """s . x, one product phi value * T_d per pair of terms of s and x."""
    from affineschur._backend import kernels
    from affineschur.hecke import t_basis
    from affineschur.laurent import addmul_into
    from affineschur.schur import QTensorElement, _phi_value_cached

    if (s.n, s.r) != (x.n, x.r):
        raise ValueError("shape mismatch")
    n, r = x.n, x.r
    values: dict[tuple, dict] = {}
    for (l2, dwin), c2 in x._terms.items():
        d2 = WindowPerm._unsafe(dwin)
        for (l1, m1, d1), c1 in s._terms.items():
            if m1 != l2:
                continue
            part = hecke_mul_by_words(_phi_value_cached(r, l1, m1, d1), t_basis(d2))
            addmul_into(values.setdefault(l1, {}), part._terms, kernels.lp_mul(c1, c2))
    return QTensorElement._raw(n, r, right_factor_terms_by_peel(values, r))


def act_hecke_right_by_terms(x, h):
    """x . h, one product x_lambda T_d * h per term of x."""
    from affineschur.hecke import t_basis, x_lambda
    from affineschur.laurent import addmul_into
    from affineschur.schur import QTensorElement
    from affineschur.weyl import young_subgroup_of_key

    if x.r != h.r:
        raise ValueError("rank mismatch")
    n, r = x.n, x.r
    values: dict[tuple, dict] = {}
    for (lp, dwin), c in x._terms.items():
        xd = hecke_mul_by_words(x_lambda(young_subgroup_of_key(lp, r)), t_basis(WindowPerm._unsafe(dwin)))
        part = hecke_mul_by_words(xd, h)
        addmul_into(values.setdefault(lp, {}), part._terms, c)
    return QTensorElement._raw(n, r, right_factor_terms_by_peel(values, r))


# ---------------------------------------------------------------------------
# The finite block x_lambda T_d transported to tensor space by walking the
# finite rule along a reduced word of d, and finite keys expanded in it by
# the unit-triangular peel over the whole block: the solve that the closed
# form v^l(d) e_key replaced in quantum._finite_term_image.


@lru_cache(maxsize=None)
def finite_distinguished_by_enumeration(r: int, gens: frozenset) -> tuple:
    """The finite distinguished elements of the parabolic on gens, listed
    from all r! permutations and sorted by (length, window)."""
    from affineschur.weyl import is_distinguished

    pi = ParabolicIndex(r, gens)
    out = [
        w
        for p in itertools.permutations(range(1, r + 1))
        for w in [WindowPerm(p)]
        if is_distinguished(w, pi)
    ]
    return tuple(sorted(out, key=lambda w: (w.length(), w.window)))


@lru_cache(maxsize=None)
def finite_image_by_walk(n: int, r: int, lparts: tuple, dwin: tuple):
    """The transported basis vector for x_lambda T_d: the weakly increasing
    key of lambda, walked through the finite rule along d's reduced word."""
    from affineschur.quantum import TensorVector
    from affineschur.schur import Weight

    vec = TensorVector.unit(n, Weight(n, r, lparts).expanded())
    _, word = WindowPerm._unsafe(dwin).reduced_word()
    for i in word:
        vec = finite_hecke_right_action(vec, i)
    return vec


@lru_cache(maxsize=None)
def finite_block_by_walk(n: int, r: int, lparts: tuple) -> tuple:
    """(distinguished windows, raw walked images, peel order) of the finite
    block x_lambda T_d, d running over the finite distinguished elements."""
    from affineschur._kernels_py import win_length
    from affineschur.quantum import _peel_order
    from affineschur.schur import Weight, young_parabolic

    pi = young_parabolic(Weight(n, r, lparts))
    block = tuple(
        sorted(
            (d.window for d in finite_distinguished_by_enumeration(r, pi.generators)),
            key=lambda w: (win_length(w), w),
        )
    )
    columns = tuple(finite_image_by_walk(n, r, lparts, dw)._terms for dw in block)
    return block, columns, _peel_order(columns)


@lru_cache(maxsize=None)
def finite_expansion_by_peel(n: int, r: int, key: tuple) -> tuple:
    """e_key as ((lparts, dwin, Laurent), ...) over the walked block of its
    weight, solved by the unit-triangular peel."""
    from affineschur.quantum import _peel
    from affineschur.schur import Weight

    lam = Weight.of_key(key, n)
    block, columns, order = finite_block_by_walk(n, r, lam.parts)
    coords = _peel(columns, order, {key: {0: 1}})
    return tuple((lam.parts, dw, Laurent._raw(c)) for dw, c in zip(block, coords) if c)


def _term_operator(n: int, r: int, lparts: tuple, mparts: tuple, dwin: tuple):
    """One phi-term as a TensorOperator built afresh, with closures over
    phi, the Poincare factor, tau and the merge/split operators."""
    from affineschur._backend import kernels
    from affineschur.laurent import addmul_into
    from affineschur.quantum import (
        TensorOperator,
        TensorVector,
        _poincare_of_conjugated,
        tau,
    )
    from affineschur.schur import QTensorElement, Weight, act_schur_left, omega, phi, young_parabolic

    lam = Weight(n, r, lparts)
    mu = Weight(n, r, mparts)
    d = WindowPerm._unsafe(dwin)
    om = omega(n, r)
    if all(1 <= t <= r for t in dwin):
        # finite d: transport the finite module structure, extend by the
        # commuting translation operators
        g = phi(lam, mu, d)

        def fn(key: tuple[int, ...]) -> TensorVector:
            cvec = tuple((t - 1) // n for t in key)
            base = tuple(t - n * q for t, q in zip(key, cvec))
            terms: dict[tuple, dict[int, int]] = {}
            for lp2, dw2, c in finite_expansion_by_peel(n, r, base):
                if lp2 != mparts:
                    continue
                moved = act_schur_left(
                    g, QTensorElement.basis(Weight(n, r, lp2), WindowPerm._unsafe(dw2))
                )
                for lam3, d3, c3 in moved.items():
                    addmul_into(terms, finite_image_by_walk(n, r, lam3.parts, d3.window)._terms, (c * c3).raw())
            for t, ct in enumerate(cvec):
                if ct and terms:
                    terms = kernels.tensor_shift_slot(terms, t, n * ct)
            return TensorVector._raw(n, r, terms)

        return TensorOperator(n, r, fn)

    # affine d: route through the top weight space and divide by the
    # Poincare factor of the sandwich identity
    pnu = _poincare_of_conjugated(d, young_parabolic(lam), young_parabolic(mu))
    merge = _term_operator(n, r, lparts, om.parts, WindowPerm.identity(r).window)
    split = _term_operator(n, r, om.parts, mparts, WindowPerm.identity(r).window)
    middle = tau(n, r, d)
    omega_proj = om

    def fn(key: tuple[int, ...]) -> TensorVector:
        part = split.on_key(key)
        part = project_weight(part, omega_proj)
        part = middle(part)
        part = merge(part)
        if part.is_zero():
            return part
        out = {}
        for k2, c2 in part._terms.items():
            out[k2] = Laurent(c2).divexact(pnu).raw()
        return TensorVector._raw(n, r, out)

    return TensorOperator(n, r, fn)


def kappa_by_operators(s):
    """The Schur algebra as operators on tensor space, one _term_operator
    built per input key and Schur term; needs n >= r."""
    from affineschur.laurent import addmul_into
    from affineschur.quantum import TensorOperator, TensorVector

    n, r = s.n, s.r
    if n < r:
        raise ValueError(f"kappa needs n >= r, got n={n}, r={r}")

    def fn(key: tuple[int, ...]) -> TensorVector:
        total: dict[tuple, dict[int, int]] = {}
        for (lp, mp, dw), c in s._terms.items():
            addmul_into(total, _term_operator(n, r, lp, mp, dw).on_key(key)._terms, c)
        return TensorVector._raw(n, r, total)

    return TensorOperator(n, r, fn)


def theta_iso_by_kappa(x):
    """The bimodule identification, each term's image built afresh: the
    omega row goes to the orbit of the cyclic vector, other rows through
    kappa."""
    from affineschur.hecke import t_basis
    from affineschur.laurent import addmul_into
    from affineschur.quantum import TensorVector, e_omega, hecke_right_action
    from affineschur.schur import omega

    n, r = x.n, x.r
    om = omega(n, r)
    total: dict[tuple, dict[int, int]] = {}
    base = e_omega(n, r)
    for (lp, dw), c in x._terms.items():
        if lp == om.parts:
            image = hecke_right_action(base, t_basis(WindowPerm._unsafe(dw)))
        else:
            image = _term_operator(n, r, lp, om.parts, dw).on_key(base.support()[0])
        addmul_into(total, image._terms, c)
    return TensorVector._raw(n, r, total)


# ---------------------------------------------------------------------------
# Scanning window kernels, replaced in _kernels_py by single passes
# (one residue test per window entry, Shi's formula for the length).  The
# old bodies, kept as the reference for tests/test_kernels_py.py; the left
# generator step of hecke_mul_left_expansion; below them the packed
# generator step without its memo and HeckeElement.to_obj through items(),
# the references for tests/test_packed.py.


_Q = {2: 1}          # q
_QM1 = {2: 1, 0: -1}  # q - 1


def win_pos(w, val):
    """Position of a value: val = (t)w returns t.  O(r) scan by residue."""
    r = len(w)
    for j in range(r):
        if (val - w[j]) % r == 0:
            return j + 1 + (val - w[j])
    raise ValueError("incomplete residue system in window")


def win_compose(u, w):
    return tuple(win_apply(w, t) for t in u)


def win_length(w):
    """Crossing count: pairs i < j (i in 1..r, j in Z) with (i)w > (j)w."""
    r = len(w)
    total = 0
    for i in range(r):
        wi = w[i]
        for s in range(r):
            d = wi - w[s]
            if d <= 0:
                continue
            cnt = (d + r - 1) // r  # number of m >= 0 with m*r < d
            if s <= i:
                cnt -= 1  # position s + m*r must exceed i + 1, so m >= 1
            if cnt > 0:
                total += cnt
    return total


def win_mul_s_right(w, i):
    """Window of w * s_i: swap the values i, i+1 in every congruence class."""
    r = len(w)
    out = list(w)
    for j in range(r):
        m = (out[j] - i) % r
        if m == 0:
            out[j] += 1
        elif m == 1:
            out[j] -= 1
    return tuple(out)


def win_is_right_descent(w, i):
    """True iff (i)w^-1 > (i+1)w^-1, i.e. w * s_i is shorter than w."""
    return win_pos(w, i) > win_pos(w, i + 1)


def win_is_left_descent(w, i):
    """True iff (i)w > (i+1)w, i.e. s_i * w is shorter than w: the test that
    weyl, hecke and schur wrote out inline."""
    return win_apply(w, i) > win_apply(w, i + 1)


def hecke_mul_gen_right(terms, i):
    out = {}
    for w, c in terms.items():
        wsi = win_mul_s_right(w, i)
        if win_pos(w, i) > win_pos(w, i + 1):
            acc = out.setdefault(wsi, {})
            lp_addmul_into(acc, c, _Q)
            if not acc:
                del out[wsi]
            acc = out.setdefault(w, {})
            lp_addmul_into(acc, c, _QM1)
            if not acc:
                del out[w]
        else:
            acc = out.setdefault(wsi, {})
            lp_add_into(acc, c)
            if not acc:
                del out[wsi]
    return out


def hecke_mul_gen_left(terms, i):
    """T_{s_i} T_w = T_{s_i w} if s_i w > w, else q T_{s_i w} + (q - 1) T_w,
    on Laurent coefficients; the left step that left src/ with the
    single-generator product methods."""
    out = {}
    for w, c in terms.items():
        siw = win_mul_s_left(w, i)
        if win_apply(w, i) > win_apply(w, i + 1):
            acc = out.setdefault(siw, {})
            lp_addmul_into(acc, c, _Q)
            if not acc:
                del out[siw]
            acc = out.setdefault(w, {})
            lp_addmul_into(acc, c, _QM1)
            if not acc:
                del out[w]
        else:
            acc = out.setdefault(siw, {})
            lp_add_into(acc, c)
            if not acc:
                del out[siw]
    return out


def hecke_packed_mul_gen_right(terms, i, shift):
    """The packed right generator step as it was before it kept a memo of
    (ws, descent) per letter and window: one pass over every window of every
    call."""
    out = {}
    get = out.get
    for w, p in terms.items():
        r = len(w)
        ws = list(w)
        a = b = None
        j = 0
        for x in w:
            m = (x - i) % r
            if not m:
                ws[j] = x + 1
                if a is None:
                    a = j - x
            elif m == 1:
                ws[j] = x - 1
                if b is None:
                    b = j - x
            j += 1
        if a is None or b is None:
            raise ValueError("incomplete residue system in window")
        ws = tuple(ws)
        if a > b + 1:
            qp = p << shift
            out[ws] = get(ws, 0) + qp
            out[w] = get(w, 0) + qp - p
        else:
            out[ws] = get(ws, 0) + p
    return out


def packed_products_by_windows(xs, b):
    """hecke._packed_products as it was before each walk interned its windows
    as int ids: ({key: x * b packed}, offset, width), every image keyed by
    window, stepped by the window-keyed body above.  A first form: it shares
    hecke's word walk and its l1 bounds."""
    from affineschur import _kernels_py as kernels
    from affineschur.hecke import _low, _norm, _walk_bound, _word_walk

    width = kernels.packed_width(max(map(_norm, xs.values()), default=0) * _walk_bound(b))
    ox = -min(map(_low, xs.values()), default=0)
    ob = -_low(b)
    shift = 2 * width
    packed = {key: {w: kernels.lp_pack(c, ox, width) for w, c in x.items()} for key, x in xs.items()}
    totals: dict = {key: {} for key in xs}
    for wwin, imgs in _word_walk(
        b,
        lambda z: {key: {kernels.win_add(w, z): p for w, p in px.items()} for key, px in packed.items()},
        lambda imgs, i: {key: hecke_packed_mul_gen_right(img, i, shift) for key, img in imgs.items()},
    ):
        cb = kernels.lp_pack(b[wwin], ob, width)
        for key, img in imgs.items():
            total = totals[key]
            for w, p in img.items():
                total[w] = total.get(w, 0) + p * cb
    return totals, ox + ob, width


def packed_bar_walk_by_windows(r, wins, width):
    """hecke._packed_bar_walk as it was before the walk interned its windows:
    (win, v^(2 l(win)) * bar(T_win)) packed and keyed by window, each step
    v^2 times a T_s^-1 step, img * T_s + (1 - q) * img.  A first form: it
    shares hecke's word walk."""
    from affineschur.hecke import _word_walk

    shift = 2 * width

    def step(img, i):
        out = hecke_packed_mul_gen_right(img, i, shift)
        for w, p in img.items():
            s = out.get(w, 0) + p - (p << shift)
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return out

    return _word_walk(wins, lambda z: {tuple(range(1 + z, r + 1 + z)): 1}, step)


def hecke_to_obj(h) -> dict:
    """HeckeElement.to_obj as it was: each term read through items(), that
    is wrapped in a WindowPerm and a Laurent, in the order of support()."""
    return {
        "r": h.r,
        "terms": [{"window": list(w.window), "coeff": coeff.to_obj()} for w, coeff in h.items()],
    }


# The JSON shape and repr of each element class as the class wrote them
# itself, before LaurentCombination took both over: every term is read back
# through that class's items() of the time, sorted by its own key, and the
# repr of a zero UElement was UElement(n).  The references for
# tests/test_combination.py.


def _length(win: tuple) -> int:
    return WindowPerm._unsafe(win).length()


def hecke_repr(h) -> str:
    if not h._terms:
        return f"HeckeElement.zero({h.r})"
    wins = sorted(h._terms, key=lambda win: (_length(win), win))
    return " + ".join(f"({Laurent(h._terms[win])})*T{list(win)}" for win in wins)


def _schur_items(s) -> list:
    from affineschur.schur import Weight

    out = []
    for key in sorted(s._terms, key=lambda k: (k[0], k[1], _length(k[2]), k[2])):
        lp, mp, dw = key
        out.append((Weight(s.n, s.r, lp), Weight(s.n, s.r, mp), WindowPerm._unsafe(dw), Laurent(s._terms[key])))
    return out


def schur_to_obj(s) -> dict:
    return {
        "n": s.n,
        "r": s.r,
        "terms": [
            {
                "lambda": list(lam.parts),
                "mu": list(mu.parts),
                "d": {"window": list(d.window)},
                "coeff": c.to_obj(),
            }
            for lam, mu, d, c in _schur_items(s)
        ],
    }


def schur_repr(s) -> str:
    if not s._terms:
        return f"SchurElement.zero({s.n}, {s.r})"
    bits = []
    for lam, mu, d, c in _schur_items(s):
        bits.append(f"({c})*phi[{list(lam.parts)},{list(mu.parts)},{list(d.window)}]")
    return " + ".join(bits)


def _qtensor_items(x) -> list:
    from affineschur.schur import Weight

    out = []
    for key in sorted(x._terms, key=lambda k: (k[0], _length(k[1]), k[1])):
        lp, dw = key
        out.append((Weight(x.n, x.r, lp), WindowPerm._unsafe(dw), Laurent(x._terms[key])))
    return out


def qtensor_to_obj(x) -> dict:
    return {
        "n": x.n,
        "r": x.r,
        "terms": [
            {"lambda": list(lam.parts), "d": {"window": list(d.window)}, "coeff": c.to_obj()}
            for lam, d, c in _qtensor_items(x)
        ],
    }


def qtensor_repr(x) -> str:
    if not x._terms:
        return f"QTensorElement.zero({x.n}, {x.r})"
    return " + ".join(f"({c})*x{list(lam.parts)}T{list(d.window)}" for lam, d, c in _qtensor_items(x))


def _word_repr(letters: tuple) -> str:
    if not letters:
        return "1"
    return "*".join(k if k in ("R", "Rinv") else f"{k}{i}" for k, i in letters)


def _uelement_items(u) -> list:
    return [(letters, Laurent(u._terms[letters])) for letters in sorted(u._terms, key=lambda w: (len(w), w))]


def uelement_to_obj(u) -> dict:
    return {
        "n": u.n,
        "terms": [{"word": [[k, i] for k, i in w], "coeff": c.to_obj()} for w, c in _uelement_items(u)],
    }


def uelement_repr(u) -> str:
    if not u._terms:
        return f"UElement({u.n})"
    return " + ".join(f"({c})*{_word_repr(w)}" for w, c in _uelement_items(u))


def tensor_to_obj(x) -> dict:
    return {
        "n": x.n,
        "r": x.r,
        "terms": [{"key": list(k), "coeff": Laurent(x._terms[k]).to_obj()} for k in sorted(x._terms)],
    }


def tensor_repr(x) -> str:
    if not x._terms:
        return f"TensorVector.zero({x.n}, {x.r})"
    return " + ".join(f"({Laurent(x._terms[k])})*e{list(k)}" for k in sorted(x._terms))


# The tensor letter kernels as they were before _kernels_py added each
# v^wt-shifted coefficient in place: every output term goes through a fresh
# lp_shift copy and lp_add_into, and K counts its slots with a generator.


def tensor_act_E(terms, i, n):
    out = {}
    for key, c in terms.items():
        r = len(key)
        for t in range(r):
            if (key[t] - 1 - i) % n:
                continue
            wt = 0
            for u in range(t + 1, r):
                m = (key[u] - i) % n
                if m == 0:
                    wt += 1
                elif m == 1:
                    wt -= 1
            nk = key[:t] + (key[t] - 1,) + key[t + 1:]
            acc = out.setdefault(nk, {})
            lp_add_into(acc, lp_shift(c, wt))
            if not acc:
                del out[nk]
    return out


def tensor_act_F(terms, i, n):
    out = {}
    for key, c in terms.items():
        r = len(key)
        for t in range(r):
            if (key[t] - i) % n:
                continue
            wt = 0
            for u in range(t):
                m = (key[u] - i) % n
                if m == 0:
                    wt -= 1
                elif m == 1:
                    wt += 1
            nk = key[:t] + (key[t] + 1,) + key[t + 1:]
            acc = out.setdefault(nk, {})
            lp_add_into(acc, lp_shift(c, wt))
            if not acc:
                del out[nk]
    return out


def tensor_act_K(terms, i, n, inv):
    out = {}
    sign = -1 if inv else 1
    for key, c in terms.items():
        wt = sum(1 for j in key if (j - i) % n == 0)
        out[key] = lp_shift(c, sign * wt)
    return out


def kl_table_by_bruhat(r: int):
    """A KLTable whose Bruhat test is the global bruhat_leq, as before the
    table tested membership in its own lower sets."""
    from affineschur._backend import kernels
    from affineschur.hecke import KLTable
    from affineschur.weyl import bruhat_leq

    class KLTableByBruhat(KLTable):
        def _kl_compute(self, ywin, wwin) -> dict[int, int]:
            if ywin == wwin:
                return {0: 1}
            if not bruhat_leq(WindowPerm._unsafe(ywin), WindowPerm._unsafe(wwin)):
                return {}
            r = self.r
            s = next(
                i for i in range(1, r + 1)
                if kernels.win_apply(wwin, i) > kernels.win_apply(wwin, i + 1)
            )
            if not kernels.win_apply(ywin, s) > kernels.win_apply(ywin, s + 1):
                # s*y > y: P_{y,w} = P_{sy,w}
                return dict(self._kl(kernels.win_mul_s_left(ywin, s), wwin))
            vwin = kernels.win_mul_s_left(wwin, s)
            sywin = kernels.win_mul_s_left(ywin, s)
            acc = dict(self._kl(sywin, vwin))
            kernels.lp_add_into(acc, kernels.lp_shift(self._kl(ywin, vwin), 2))
            lv = kernels.win_length(vwin)
            for zwin in self._lower_set(vwin):
                if not kernels.win_apply(zwin, s) > kernels.win_apply(zwin, s + 1):
                    continue  # need s*z < z
                mm = lv - kernels.win_length(zwin)
                if mm <= 0 or mm % 2 == 0:
                    continue
                mu = self._kl(zwin, vwin).get(mm - 1, 0)
                if not mu:
                    continue
                pyz = self._kl(ywin, zwin)
                if pyz:
                    kernels.lp_add_into(acc, kernels.lp_scale(kernels.lp_shift(pyz, mm + 1), -mu))
            return acc

    return KLTableByBruhat(r)


# ---------------------------------------------------------------------------
# Coset tops by enumeration, which weyl and schur replaced by descent tests:
# the longest element is found among every element of the double coset, and
# theta keeps u when the enumerated top of u's coset is u itself.


def longest_double_coset_elt_by_enumeration(d, left, right):
    """The unique maximal-length element of the double coset of d, found by
    listing the coset; raises if the maximum is not unique."""
    from affineschur.weyl import double_coset

    best: list = []
    best_len = -1
    for w in double_coset(d, left, right):
        lw = w.length()
        if lw > best_len:
            best, best_len = [w], lw
        elif lw == best_len:
            best.append(w)
    if len(best) != 1:
        raise ValueError("double coset has no unique longest element")
    return best[0]


def theta_by_enumeration(lam, mu, d, table):
    """schur.theta with every coset top found by listing the coset, and the
    Bruhat interval below d+ found by testing bruhat_leq on every element of
    length <= l(d+), not read off the table's lower sets."""
    from affineschur.schur import SchurElement, young_parabolic
    from affineschur.weyl import bruhat_leq, double_coset_rep, enumerate_up_to_length

    left, right = young_parabolic(lam), young_parabolic(mu)
    dbar = double_coset_rep(d, left, right)
    dplus = longest_double_coset_elt_by_enumeration(dbar, left, right)
    shift = right.longest_element().length() - dplus.length()
    rho = WindowPerm.rho(lam.r, dplus.rho_power())
    below = [rho * c for c in enumerate_up_to_length(lam.r, dplus.length()) if bruhat_leq(rho * c, dplus)]
    terms: dict = {}
    for u in below:
        z = double_coset_rep(u, left, right)
        if longest_double_coset_elt_by_enumeration(z, left, right) != u:
            continue  # u is not the top of its own coset
        p = table.extended(u, dplus)
        if p:
            terms[(lam.parts, mu.parts, z.window)] = dict(p.shift(shift).raw())
    return SchurElement._raw(lam.n, lam.r, terms)


# ---------------------------------------------------------------------------
# The breadth first searches of weyl before they became one (weyl._closure):
# enumerate_up_to_length and ParabolicIndex.elements each searched on their
# own, and ParabolicIndex.longest_element climbed by right ascents with its
# own loop.  The references for tests/test_weyl.py; they compose and sort
# with the scanning kernels above.


def enumerate_up_to_length_first_form(r, length, extended=False, rho_bound=0):
    gens = [WindowPerm.s(r, i).window for i in range(1, r + 1)]
    seen = {tuple(range(1, r + 1))}
    frontier = list(seen)
    out = list(seen)
    for _ in range(length):
        nxt = []
        for win in frontier:
            for g in gens:
                prod = win_compose(win, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        out.extend(nxt)
    elements = [WindowPerm._unsafe(win) for win in out]
    if not extended:
        return elements
    result = []
    for z in range(-rho_bound, rho_bound + 1):
        result.extend(WindowPerm._unsafe(win_rot(w.window, z)) for w in elements)
    return result


def parabolic_elements_first_form(pi):
    gens = [WindowPerm.s(pi.r, i).window for i in sorted(pi.generators)]
    seen = {tuple(range(1, pi.r + 1))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for win in frontier:
            for g in gens:
                prod = win_compose(win, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(WindowPerm._unsafe(w) for w in sorted(seen, key=lambda w: (win_length(w), w)))


def parabolic_longest_element_first_form(pi):
    gens = sorted(pi.generators)
    w = WindowPerm.identity(pi.r)
    while True:
        i = next((i for i in gens if i not in w.right_descents()), None)
        if i is None:
            return w
        w = w * WindowPerm.s(pi.r, i)


# ---------------------------------------------------------------------------
# Helpers the library once exported though only the tests called them: the
# natural module, the translation operators and the weight projection on
# tensor space, the value of a phi basis element at x_mu, and the
# finite-type predicate of a Schur element.


def act_V(n: int, letter: tuple, t: int):
    """A single generator letter applied to e_t in the natural module."""
    from affineschur.quantum import GeneratorWord, TensorVector, UElement, act_tensor

    return act_tensor(UElement.from_word(GeneratorWord(n, [letter])), TensorVector.unit(n, (t,)))


def y_op(n: int, r: int, t: int):
    """The commuting endomorphism shifting index t down by one period,
    through the kernel the library's translations use, so a corrupted
    kernel reaches both sides of a check."""
    from affineschur._backend import kernels
    from affineschur.quantum import TensorOperator, TensorVector

    if not 1 <= t <= r:
        raise ValueError(f"slot {t} out of range 1..{r}")
    return TensorOperator(
        n, r, lambda key: TensorVector._raw(n, r, kernels.tensor_shift_slot({key: {0: 1}}, t - 1, -n))
    )


def project_weight(x, lam):
    """Keep the keys of a tensor vector whose residue counts equal lam."""
    from affineschur.quantum import TensorVector
    from affineschur.schur import Weight

    if lam.n != x.n or lam.r != x.r:
        raise ValueError("shape mismatch")
    out = {k: dict(c) for k, c in x._terms.items() if Weight.of_key(k, x.n).parts == lam.parts}
    return TensorVector._raw(x.n, x.r, out)


def phi_value(lam, mu, d):
    """The image of x_mu under phi^d_{lam,mu}: the sum of T_w over the
    double coset of d, read from the library's table."""
    from affineschur.schur import _phi_value_cached, young_parabolic
    from affineschur.weyl import double_coset_rep

    if lam.r != mu.r or d.r != lam.r:
        raise ValueError("rank mismatch")
    dbar = double_coset_rep(d, young_parabolic(lam), young_parabolic(mu))
    return _phi_value_cached(lam.r, lam.parts, mu.parts, dbar.window)


def is_finite_type(e) -> bool:
    """True when every key's d lies in the finite symmetric group."""
    return all(all(1 <= t <= e.r for t in dwin) for (_, _, dwin) in e._terms)

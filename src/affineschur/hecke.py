"""The affine Hecke algebra over Z[v, v^-1] in the standard basis.

Elements are finite sums of basis terms T_w indexed by WindowPerm, with
q = v**2 and the quadratic relation T_s^2 = q*T_e + (q-1)*T_s.  Products
expand the right factor through its rho power and reduced words.  The
canonical reduced words of b's support form a prefix tree, and a*b walks
that tree once: one generator sweep per node of the tree, not one per letter
of every term.  The bar involution and the Bernstein rewrite walk the same
tree.

The product, bar and the Schur actions walk on packed coefficients: each
Laurent coefficient is one exact int, its value at v = 2^B after a shift
by an exponent offset (the Kronecker substitution, kernels.lp_pack), so a
step, the accumulation and a q-shift are int adds and shifts.  A T_s step
at most triples the l1 norm (the sum of |coefficient| over all terms), and
so does v^2 times a T_s^-1 step; hence every coefficient of
sum_w c_w * (a * T_w) is at most |a|_1 * sum_w |c_w|_1 * 3^l(w).  B is the
least width with 2^(B-1) above that bound, so the balanced base-2^B digits
of each result (kernels.lp_unpack) are its coefficients exactly.  On top
of the T-basis sit

* the parabolic sums x_lambda,
* Kazhdan-Lusztig polynomials (zero across distinct rho powers),
* a commuting family y_1, ..., y_r of invertible elements built from
  translations, together with conversion to the basis of y-monomials times
  finite-permutation terms and back.

>>> from affineschur.weyl import WindowPerm
>>> s1 = t_basis(WindowPerm.s(3, 1))
>>> (s1 * s1).coeff(WindowPerm.identity(3))
v^2
>>> (s1 * s1).coeff(WindowPerm.s(3, 1))
v^2 - 1
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Mapping

from affineschur._backend import kernels
from affineschur.laurent import Laurent, LaurentCombination, addmul_into, addmul_term
from affineschur.weyl import ParabolicIndex, WindowPerm, check_rank

__all__ = [
    "HeckeElement",
    "t_basis",
    "t_basis_inverse",
    "x_lambda",
    "KLTable",
    "bernstein_y",
    "bernstein_y_inverse",
    "to_bernstein_basis",
    "commute_gen_past_translations",
]

_ONE = {0: 1}
_QM1 = {2: 1, 0: -1}       # v^2 - 1
_INV_LO = {-2: 1, 0: -1}   # v^-2 - 1, the correction term of T_s^-1


def _word_walk(wins: Iterable[tuple[int, ...]], start: Callable, step: Callable):
    """Yield (win, image) for each window in wins, where start(z) is the
    image of rho^z and step(image, i) turns the image of w s_i into that of w.

    The canonical word of w (WindowPerm.reduced_word) strips w's smallest
    right descent i, so word(w) = word(w s_i) + (i): with w s_i as the
    parent of w, the canonical words form a prefix tree whose roots are the
    length-0 elements rho^z.  The walk covers the prefix closure of wins
    with one step per node, depth first, and drops each image once its
    subtree is done: only the current root-to-node path stays alive.

    The products, bar and the Schur actions walk with packed images
    (_packed_products, _packed_bar_walk): {id: int}, each id a window
    interned in the walk's table (kernels.walk_table), windows only at the
    walk's edges, and each int a Laurent coefficient times v^offset at
    v = 2^B (kernels.lp_pack).  The
    width B comes from a bound on the l1 norm |.|_1, the sum of
    |coefficient| over every term:

    * T_w T_s is T_ws or q T_ws + (q - 1) T_w, and v^2 T_w T_s^-1 is
      v^2 T_ws or T_ws + (1 - v^2) T_w: of norm 1 or 3 either way, so by
      the triangle inequality a step at most triples the norm of an image;
    * a node w sits l(w) steps below its root a * T_rho^z, whose norm is
      |a|_1, so |a * T_w|_1 <= 3^l(w) |a|_1;
    * |f g|_1 <= |f|_1 |g|_1 for Laurent polynomials, and a coefficient is
      at most the norm of the whole sum.

    So every coefficient of sum_w c_w * (a * T_w) is at most
    |a|_1 * sum_w |c_w|_1 * 3^l(w) (_walk_bound).  B is the least width
    with 2^(B-1) above that bound, and each result is unpacked once, into
    balanced base-2^B digits that are its coefficients exactly.
    """
    wanted = dict.fromkeys(wins)
    kids: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    roots: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for win in wanted:
        node = win
        while node not in seen:
            seen.add(node)
            i = next((i for i in range(1, len(node) + 1) if kernels.win_is_right_descent(node, i)), None)
            if i is None:
                roots.append(node)
                break
            parent = kernels.win_mul_s_right(node, i)
            kids.setdefault(parent, []).append((i, node))
            node = parent
    for root in roots:
        img = start(root[0] - 1)
        if root in wanted:
            yield root, img
        path = [(img, iter(kids.get(root, ())))]
        while path:
            img, todo = path[-1]
            nxt = next(todo, None)
            if nxt is None:
                path.pop()
                continue
            i, node = nxt
            child = step(img, i)
            if node in wanted:
                yield node, child
            if node in kids:
                path.append((child, iter(kids[node])))


def _norm(terms: dict) -> int:
    """The l1 norm of raw terms: the sum of |coefficient| over every key and
    exponent."""
    return sum(sum(map(abs, c.values())) for c in terms.values())


def _low(terms: dict) -> int:
    """The least exponent among the coefficients of raw terms (0 if none)."""
    return min(map(min, filter(None, terms.values())), default=0)


def _walk_bound(terms: dict) -> int:
    """sum_w |c_w|_1 * 3^l(w) over raw terms: times |a|_1, it bounds every
    coefficient of sum_w c_w * (a * T_w) (see _word_walk)."""
    return sum(sum(map(abs, c.values())) * 3 ** kernels.win_length(w) for w, c in terms.items())


def _packed_products(xs: Mapping, b: dict) -> tuple[dict, list, int, int]:
    """({key: x * b packed}, wins, offset, width) for the raw terms x of xs
    and b, from one packed walk over b's canonical words that carries every
    x; the products are keyed by ids, wins[k] the window of id k.
    The bound of _word_walk holds for the l1 norm of each whole product, so
    a packed product may also be regrouped, its values multiplied by powers
    of q and summed across keys, before kernels.hecke_unpack reads it."""
    width = kernels.packed_width(max(map(_norm, xs.values()), default=0) * _walk_bound(b))
    ox = -min(map(_low, xs.values()), default=0)
    ob = -_low(b)
    shift = 2 * width
    packed = {key: {w: kernels.lp_pack(c, ox, width) for w, c in x.items()} for key, x in xs.items()}
    totals: dict = {key: {} for key in xs}
    table = kernels.walk_table()
    for wwin, imgs in _word_walk(
        b,
        lambda z: {key: {kernels.win_id(table, kernels.win_add(w, z)): p for w, p in px.items()} for key, px in packed.items()},
        lambda imgs, i: {key: kernels.hecke_packed_mul_gen_right(img, i, shift, table) for key, img in imgs.items()},
    ):
        cb = kernels.lp_pack(b[wwin], ob, width)
        for key, img in imgs.items():
            total = totals[key]
            get = total.get
            for k, p in img.items():
                total[k] = get(k, 0) + p * cb
    return totals, table[0], ox + ob, width


def _mul_terms(a: dict, b: dict) -> dict:
    """a * b on raw terms."""
    totals, wins, offset, width = _packed_products({0: a}, b)
    return kernels.hecke_unpack(totals[0], offset, width, wins)


class HeckeElement(LaurentCombination):
    """A finite Z[v, v^-1]-combination of basis terms T_w.

    Internally a dict from window tuples to raw Laurent dicts; no zero
    coefficients are stored, and all keys share the period r.
    """

    __slots__ = ("r",)
    _SHAPE = ("r",)
    _MISMATCH = "period mismatch"
    _NOUN = "Hecke element"
    _FIELDS = ("window",)
    _order = staticmethod(lambda win: (kernels.win_length(win), win))

    def __init__(self, r: int, terms: Mapping[WindowPerm, Laurent] | None = None):
        self._check_shape(r)
        self.r = int(r)
        raw: dict[tuple[int, ...], dict[int, int]] = {}
        if terms:
            for w, c in terms.items():
                if w.r != self.r:
                    raise ValueError("period mismatch among terms")
                if c:
                    raw[w.window] = dict(c.raw())
        self._terms = raw

    _check_shape = staticmethod(check_rank)

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, r: int) -> "HeckeElement":
        cls._check_shape(r)
        return cls._raw(r, {tuple(range(1, r + 1)): {0: 1}})

    # -- products ----------------------------------------------------------

    def __mul__(self, other: "HeckeElement | Laurent | int") -> "HeckeElement":
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        if self.r != other.r:
            raise ValueError("period mismatch")
        return HeckeElement._raw(self.r, _mul_terms(self._terms, other._terms))

    # -- involutions and specializations -----------------------------------

    def bar(self) -> "HeckeElement":
        """The bar involution: v -> v^-1 and T_w -> (T_{w^-1})^-1."""
        lengths = {w: kernels.win_length(w) for w in self._terms}
        top = max(lengths.values(), default=0)
        width = kernels.packed_width(_walk_bound(self._terms))
        barred = {w: kernels.lp_bar(c) for w, c in self._terms.items()}
        lo = -_low(barred)
        total: dict[int, int] = {}
        get = total.get
        table = kernels.walk_table()
        for wwin, img in _packed_bar_walk(self.r, self._terms, width, table):
            # img is v^(2 l) bar(T_w): raise every term to v^(2 top)
            c = kernels.lp_pack(barred[wwin], lo + 2 * (top - lengths[wwin]), width)
            for k, p in img.items():
                total[k] = get(k, 0) + p * c
        return HeckeElement._raw(self.r, kernels.hecke_unpack(total, lo + 2 * top, width, table[0]))

    def specialize_group_algebra(self) -> dict[WindowPerm, int]:
        """The image under v -> 1, as a group-algebra element over Z."""
        out = {}
        for wwin, c in self._terms.items():
            val = kernels.lp_eval_one(c)
            if val:
                out[WindowPerm._unsafe(wwin)] = val
        return out

    # -- structure ---------------------------------------------------------

    def coeff(self, w: WindowPerm) -> Laurent:
        return Laurent(self._terms.get(w.window, {}))

    def support(self) -> list[WindowPerm]:
        return [WindowPerm._unsafe(win) for win in self._keys()]

    def items(self) -> list[tuple[WindowPerm, Laurent]]:
        return [(WindowPerm._unsafe(win), Laurent(self._terms[win])) for win in self._keys()]

    def __hash__(self) -> int:
        return hash((self.r, frozenset((w, frozenset(c.items())) for w, c in self._terms.items())))

    # -- the key codec: a window, shortest first ---------------------------

    @staticmethod
    def _key_obj(win: tuple) -> dict:
        return {"window": list(win)}

    @staticmethod
    def _key_str(win: tuple) -> str:
        return f"T{list(win)}"

    @classmethod
    def _entry_terms(cls, shape: tuple, entry: Mapping) -> dict:
        (r,) = shape
        return {WindowPerm.from_obj({"r": r, "window": entry["window"]}).window: {0: 1}}


def t_basis(w: WindowPerm) -> HeckeElement:
    """The basis term T_w."""
    return HeckeElement._raw(w.r, {w.window: {0: 1}})


def _packed_gen_inv(img: dict, i: int, shift: int, table: tuple) -> dict:
    """v^2 * img * T_{s_i}^-1 = img * T_{s_i} + (1 - q) * img on packed
    coefficients.  Per term it is v^2 T_{ws} if ws < w, else
    T_{ws} + (1 - v^2) T_w, so it too at most triples the l1 norm."""
    out = kernels.hecke_packed_mul_gen_right(img, i, shift, table)
    for k, p in img.items():
        s = out.get(k, 0) + p - (p << shift)
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _packed_bar_walk(r: int, wins: Iterable[tuple[int, ...]], width: int, table: tuple):
    """(win, v^(2 l(win)) * bar(T_win)) for each window in wins, packed and
    keyed by the ids of table: bar(T_rho^z) = T_rho^z and
    bar(T_w) = bar(T_{w s_i}) * T_{s_i}^-1 along the canonical word, each
    step scaled by v^2 so that no division by v arises."""
    shift = 2 * width
    return _word_walk(
        wins,
        lambda z: {kernels.win_id(table, tuple(range(1 + z, r + 1 + z))): 1},
        lambda img, i: _packed_gen_inv(img, i, shift, table),
    )


def _bar_walk(r: int, wins: Iterable[tuple[int, ...]]):
    """(win, bar(T_win)) for each window in wins, as raw terms."""
    lengths = {win: kernels.win_length(win) for win in wins}
    width = kernels.packed_width(3 ** max(lengths.values(), default=0))
    table = kernels.walk_table()
    for win, img in _packed_bar_walk(r, lengths, width, table):
        yield win, kernels.hecke_unpack(img, 2 * lengths[win], width, table[0])


def t_basis_inverse(w: WindowPerm) -> HeckeElement:
    """The inverse of the basis term T_w, which is bar(T_{w^-1})."""
    ((_, img),) = _bar_walk(w.r, (kernels.win_inverse(w.window),))
    return HeckeElement._raw(w.r, img)


def x_lambda(pi: ParabolicIndex) -> HeckeElement:
    """The sum of T_w over the finite parabolic subgroup of pi."""
    return HeckeElement._raw(pi.r, {w.window: {0: 1} for w in pi.elements()})


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials P_{y,w} in q = v**2.

    Values are stored for pairs in the Coxeter part; the extension across
    rho powers is a Kronecker delta.  Bruhat tests use the table's own lower
    sets (the interval [e, w] of each w met), so they end with the table.
    The table also keeps the length of each window met and, per (v, s), the
    mu-terms of the recursion (_mu_terms).  The single mutable structure of
    this module: confine a table to one task, or guard fills externally.
    """

    def __init__(self, r: int):
        HeckeElement._check_shape(r)
        self.r = r
        self._memo: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
        self._lower: dict[tuple[int, ...], frozenset] = {}
        self._lengths: dict[tuple[int, ...], int] = {}
        self._mus: dict[tuple[tuple[int, ...], int], list] = {}

    def polynomial(self, y: WindowPerm, w: WindowPerm) -> Laurent:
        """P_{y,w} for y, w in the Coxeter part (rho power 0)."""
        if y.r != self.r or w.r != self.r:
            raise ValueError("rank mismatch")
        if y.rho_power() or w.rho_power():
            raise ValueError("polynomial() needs rho power 0; use extended()")
        return Laurent(self._kl(y.window, w.window))

    def extended(self, y: WindowPerm, w: WindowPerm) -> Laurent:
        """P on the full group: zero unless the rho powers agree."""
        if y.r != self.r or w.r != self.r:
            raise ValueError("rank mismatch")
        zy, cy = y.rho_decompose()
        zw, cw = w.rho_decompose()
        if zy != zw:
            return Laurent.zero()
        return Laurent(self._kl(cy.window, cw.window))

    def mu(self, y: WindowPerm, w: WindowPerm) -> int:
        """The coefficient of v^(l(w)-l(y)-1) in P_{y,w} (0 across rho powers)."""
        if y.r != self.r or w.r != self.r:
            raise ValueError("rank mismatch")
        zy, cy = y.rho_decompose()
        zw, cw = w.rho_decompose()
        if zy != zw:
            return 0
        mm = cw.length() - cy.length()
        if mm <= 0 or mm % 2 == 0:
            return 0
        return self._kl(cy.window, cw.window).get(mm - 1, 0)

    # -- recursion ---------------------------------------------------------

    def _kl(self, ywin: tuple[int, ...], wwin: tuple[int, ...]) -> dict[int, int]:
        key = (ywin, wwin)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        res = self._kl_compute(ywin, wwin)
        if res and ywin != wwin:
            bound = self._length(wwin) - self._length(ywin) - 1
            if max(res) > bound:
                raise ArithmeticError(f"degree bound violated at {ywin} <= {wwin}")
        self._memo[key] = res
        return res

    def _kl_compute(self, ywin, wwin) -> dict[int, int]:
        if ywin == wwin:
            return {0: 1}
        if ywin not in self._lower_set(wwin):
            return {}
        s = next(i for i in range(1, self.r + 1) if kernels.win_is_left_descent(wwin, i))
        if not kernels.win_is_left_descent(ywin, s):
            # s*y > y: P_{y,w} = P_{sy,w}
            return dict(self._kl(kernels.win_mul_s_left(ywin, s), wwin))
        vwin = kernels.win_mul_s_left(wwin, s)
        sywin = kernels.win_mul_s_left(ywin, s)
        acc = dict(self._kl(sywin, vwin))
        kernels.lp_add_into(acc, kernels.lp_shift(self._kl(ywin, vwin), 2))
        for zwin, shift, c in self._mu_terms(vwin, s):
            pyz = self._kl(ywin, zwin)
            if pyz:
                kernels.lp_add_into(acc, kernels.lp_scale(kernels.lp_shift(pyz, shift), c))
        return acc

    def _mu_terms(self, vwin, s: int) -> list:
        """[(z, mm + 1, -mu(z, v))] over z below v with s*z < z, odd
        mm = l(v) - l(z) > 0 and mu(z, v) != 0: the correction terms of
        every P_{y, s v} whose recursion goes through v."""
        key = (vwin, s)
        hit = self._mus.get(key)
        if hit is None:
            hit = []
            lv = self._length(vwin)
            for zwin in self._lower_set(vwin):
                if not kernels.win_is_left_descent(zwin, s):
                    continue  # need s*z < z
                mm = lv - self._length(zwin)
                if mm <= 0 or mm % 2 == 0:
                    continue
                mu = self._kl(zwin, vwin).get(mm - 1, 0)
                if mu:
                    hit.append((zwin, mm + 1, -mu))
            self._mus[key] = hit
        return hit

    def _length(self, win) -> int:
        n = self._lengths.get(win)
        if n is None:
            n = self._lengths[win] = kernels.win_length(win)
        return n

    def _lower_set(self, wwin) -> frozenset:
        """All windows below w in Bruhat order: subword products of one
        reduced expression."""
        hit = self._lower.get(wwin)
        if hit is None:
            _, word = WindowPerm._unsafe(wwin).reduced_word()
            cur = {tuple(range(1, self.r + 1))}
            for i in word:
                cur |= {kernels.win_mul_s_right(u, i) for u in cur}
            hit = frozenset(cur)
            self._lower[wwin] = hit
        return hit


# ---------------------------------------------------------------------------
# The commuting translation family y_1, ..., y_r
#
# Anchor: z_r (the translation moving residue class r up by r) factors as
# rho * s_1 ... s_{r-1} with lengths adding, so T_{z_r} is a single basis
# term and y_r := v^-(r-1) * T_{z_r} is invertible.  The rest of the family
# comes from the braid-compatible descent
#     y_i := v^2 * T_{s_i}^-1 * y_{i+1} * T_{s_i}^-1,
# which builds the conjugation relation T_{s_i} y_i T_{s_i} = v^2 y_{i+1}
# directly into the construction.


@lru_cache(maxsize=None)
def _translation_family(r: int) -> tuple[dict[int, HeckeElement], dict[int, HeckeElement]]:
    base = list(range(1, r + 1))
    base[r - 1] += r
    zr = WindowPerm(tuple(base))
    y = {r: t_basis(zr).scale(Laurent.v(-(r - 1)))}
    yinv = {r: t_basis_inverse(zr).scale(Laurent.v(r - 1))}
    for i in range(r - 1, 0, -1):
        si = WindowPerm.s(r, i)
        t, tinv = t_basis(si), t_basis_inverse(si)
        y[i] = (tinv * y[i + 1] * tinv).scale(Laurent.v(2))
        yinv[i] = (t * yinv[i + 1] * t).scale(Laurent.v(-2))
    return y, yinv


def bernstein_y(r: int, i: int) -> HeckeElement:
    """The i-th member of the commuting translation family, 1 <= i <= r."""
    if not 1 <= i <= r:
        raise ValueError(f"index {i} outside 1..{r}")
    return _translation_family(r)[0][i]


def bernstein_y_inverse(r: int, i: int) -> HeckeElement:
    if not 1 <= i <= r:
        raise ValueError(f"index {i} outside 1..{r}")
    return _translation_family(r)[1][i]


# ---------------------------------------------------------------------------
# Rewriting into the basis of y-monomials times finite permutations
#
# A rewritten element maps keys (c, u) -- translation exponent vector and
# finite window -- to Laurent dicts, standing for y_1^c_1 ... y_r^c_r T_u.
# Right multiplication by generators keeps that shape.  A y passes a T only
# through Lusztig's relation, which under the convention
# T_{s_i} y_i T_{s_i} = q y_{i+1} reads, for lam with entries a, b at
# slots i, i+1 and s = s_i,
#     T_s y^lam - y^(s lam) T_s = (q - 1) (y^lam - y^(s lam)) / (1 - y_i y_{i+1}^-1);
# _exchange is its one statement, and both directions below read it.


def _exchange(a: int, b: int) -> tuple[int, range]:
    """(sign, ks) with sign * sum_{k in ks} y_i^k y_{i+1}^(a+b-k) equal to
    the quotient (y_i^a y_{i+1}^b - y_i^b y_{i+1}^a) / (1 - y_i y_{i+1}^-1)
    of Lusztig's relation: a finite geometric sum, empty when a == b."""
    return (1, range(a, b)) if a < b else (-1, range(b, a))


@lru_cache(maxsize=None)
def commute_gen_past_translations(a: int, b: int) -> tuple[tuple[bool, int, int, Laurent], ...]:
    """Rewrite y_i^a y_{i+1}^b T_{s_i} as a sum of T_{s_i}-or-1 times
    y-monomials.

    Returns terms (carries_gen, da, db, coeff) meaning
    coeff * T_{s_i}^[carries_gen] * y_i^da * y_{i+1}^db, sorted by
    (carries_gen, da, db); the exchange relations are index-uniform, so i
    never appears.  Lusztig's relation for the exponents (b, a), under the
    convention T_{s_i} y_i T_{s_i} = q y_{i+1}, gives
    y_i^a y_{i+1}^b T_{s_i} = T_{s_i} y_i^b y_{i+1}^a - (q - 1) * quotient,
    the quotient read off _exchange(b, a).
    """
    sign, ks = _exchange(b, a)
    coeff = Laurent(kernels.lp_scale(_QM1, -sign))
    return tuple((False, k, a + b - k, coeff) for k in ks) + ((True, b, a, Laurent.one()),)


def _b_scale(bel: dict, raw: dict) -> dict:
    return {key: kernels.lp_mul(c, raw) for key, c in bel.items()}


def _b_mul_gen(bel: dict, i: int) -> dict:
    """Right multiplication by T_{s_i}, i < r, on (c, u) keys: the finite
    quadratic relation on the u part."""
    out: dict = {}
    for (cvec, u), c in bel.items():
        us = kernels.win_mul_s_right(u, i)
        if kernels.win_is_right_descent(u, i):
            addmul_term(out, (cvec, us), kernels.lp_shift(c, 2))
            addmul_term(out, (cvec, u), c, _QM1)
        else:
            addmul_term(out, (cvec, us), c)
    return out


def _b_mul_gen_inv(bel: dict, i: int) -> dict:
    """Right multiplication by T_{s_i}^-1 = v^-2 T_{s_i} + (v^-2 - 1)."""
    out = {key: kernels.lp_shift(c, -2) for key, c in _b_mul_gen(bel, i).items()}
    addmul_into(out, bel, _INV_LO)
    return out


@lru_cache(maxsize=None)
def _finite_term_mul_y(u: tuple[int, ...], lam: tuple[int, ...]) -> tuple:
    """T_u * y^lam (u a finite window, lam an exponent vector) in (c, u)-key
    form.  With u = u2 s_i shorter, Lusztig's relation gives
    T_u y^lam = (T_u2 y^(s_i lam)) T_{s_i} + (q - 1) * T_u2 * quotient."""
    i = next((i for i in range(1, len(u)) if kernels.win_is_right_descent(u, i)), None)
    if i is None:
        return (((lam, u), _ONE),)
    u2 = kernels.win_mul_s_right(u, i)
    head, (a, b), tail = lam[: i - 1], lam[i - 1 : i + 1], lam[i + 1 :]
    res = _b_mul_gen(dict(_finite_term_mul_y(u2, head + (b, a) + tail)), i)
    sign, ks = _exchange(a, b)
    coeff = kernels.lp_scale(_QM1, sign)
    for k in ks:
        addmul_into(res, dict(_finite_term_mul_y(u2, head + (k, a + b - k) + tail)), coeff)
    return tuple(res.items())


def _b_mul_y(bel: dict, lam: tuple[int, ...]) -> dict:
    out: dict = {}
    for (cvec, u), c in bel.items():
        for (dvec, u2), c2 in _finite_term_mul_y(u, lam):
            addmul_term(out, (tuple(x + y for x, y in zip(cvec, dvec)), u2), c, c2)
    return out


def _b_mul_rho(bel: dict, r: int) -> dict:
    # T_rho = v^(r-1) * y_r * T_{s_(r-1)}^-1 ... T_{s_1}^-1
    cur = _b_mul_y(bel, (0,) * (r - 1) + (1,))
    for i in range(r - 1, 0, -1):
        cur = _b_mul_gen_inv(cur, i)
    return _b_scale(cur, {r - 1: 1})


def _b_mul_rho_inv(bel: dict, r: int) -> dict:
    # T_rho^-1 = v^-(r-1) * T_{s_1} ... T_{s_(r-1)} * y_r^-1
    cur = bel
    for i in range(1, r):
        cur = _b_mul_gen(cur, i)
    cur = _b_mul_y(cur, (0,) * (r - 1) + (-1,))
    return _b_scale(cur, {1 - r: 1})


def to_bernstein_basis(h: HeckeElement) -> dict[tuple[tuple[int, ...], WindowPerm], Laurent]:
    """Rewrite h in the basis of y-monomials times finite-permutation terms.

    Keys are (c, u): the translation exponent vector and the finite part;
    the value is the coefficient of y_1^c_1 ... y_r^c_r T_u.
    """
    r = h.r
    unit_key = ((0,) * r, tuple(range(1, r + 1)))

    def start(z: int) -> dict:
        bel = {unit_key: dict(_ONE)}
        for _ in range(z):
            bel = _b_mul_rho(bel, r)
        for _ in range(-z):
            bel = _b_mul_rho_inv(bel, r)
        return bel

    def step(bel: dict, i: int) -> dict:
        if i < r:
            return _b_mul_gen(bel, i)
        # s_r = rho s_1 rho^-1 at the level of basis terms
        return _b_mul_rho_inv(_b_mul_gen(_b_mul_rho(bel, r), 1), r)

    total: dict = {}
    for wwin, bel in _word_walk(h._terms, start, step):
        addmul_into(total, bel, h._terms[wwin])
    return {
        (cvec, WindowPerm._unsafe(u)): Laurent(c) for (cvec, u), c in total.items()
    }

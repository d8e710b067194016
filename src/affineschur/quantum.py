"""The quantum loop algebra of gl_n, tensor space, and the duality maps.

Elements of the algebra are free words in E_i, F_i, K_i^{+-1}, R^{+-1};
no symbolic rewriting is attempted, so identities hold or fail through the
action on tensor space.  Tensor space has basis indexed by r-tuples of
arbitrary integers; all operators here are finitary on basis vectors, so
the arithmetic stays exact and no truncation window is built in.  This
module holds the mathematics only: the checks of the Hopf laws and of the
duality, which sweep keys over explicit windows, are affineschur._sweeps.

The bridge objects: tau turns Hecke elements into left operators on the
top weight space, kappa turns Schur elements into operators on all of
tensor space, theta_iso matches the q-tensor bimodule with tensor space,
and hecke_right_action gives the right Hecke structure via the rewriting
of elements into translation form.  That rewrite is linear, so it is
memoised per basis term: _basis_rows holds the rows of one T_w, keyed by
its window and bounded at 2048 windows, and an element's rows are summed
from those of its terms.  theta_iso, the columns of its exact inverse and
the duality sweep read one memo of basis-key images (_theta_image).  Like
every cached image here, those images and the memoised rows are read only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from affineschur._backend import kernels
from affineschur.hecke import (
    HeckeElement,
    commute_gen_past_translations,
    t_basis,
    to_bernstein_basis,
)
from affineschur.laurent import Laurent, LaurentCombination, addmul_into, addmul_term, payload_int
from affineschur.schur import (
    QTensorElement,
    SchurElement,
    Weight,
    act_schur_left,
    omega,
    phi,
    young_parabolic,
)
from affineschur.weyl import WindowPerm, young_subgroup_of_key

__all__ = [
    "GeneratorWord",
    "UElement",
    "TensorVector",
    "TensorOperator",
    "act_tensor",
    "counit",
    "antipode",
    "e_omega",
    "tau",
    "hecke_right_action",
    "theta_iso",
    "theta_iso_basis",
    "theta_iso_inverse",
    "kappa",
    "kappa_exponents",
]

_KINDS = ("E", "F", "K", "Kinv", "R", "Rinv")
_INDEXED = {"E", "F", "K", "Kinv"}
_MINUS_ONE = {0: -1}
_V = {1: 1}
_Q = {2: 1}
_QM1 = {2: 1, 0: -1}


def _next(i: int, n: int) -> int:
    return i % n + 1


class GeneratorWord:
    """A word in the generator alphabet; letters are (kind, index) pairs
    with kind in E/F/K/Kinv/R/Rinv and index in 1..n (0 for the R's)."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[tuple[str, int]]):
        if n < 1:
            raise ValueError("n must be positive")
        out = []
        for kind, i in letters:
            if kind not in _KINDS:
                raise ValueError(f"unknown generator kind {kind!r}")
            if kind in _INDEXED:
                if not 1 <= i <= n:
                    raise ValueError(f"index {i} out of range 1..{n}")
                out.append((kind, int(i)))
            else:
                out.append((kind, 0))
        self.n = n
        self.letters = tuple(out)

    def __mul__(self, other: "GeneratorWord") -> "GeneratorWord":
        if self.n != other.n:
            raise ValueError("alphabet mismatch")
        return GeneratorWord(self.n, self.letters + other.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorWord):
            return NotImplemented
        return (self.n, self.letters) == (other.n, other.letters)

    def __hash__(self) -> int:
        return hash((self.n, self.letters))

    def __repr__(self) -> str:
        return _word_str(self.letters)


def _word_str(letters: tuple) -> str:
    if not letters:
        return "1"
    return "*".join(k if k in ("R", "Rinv") else f"{k}{i}" for k, i in letters)


class UElement(LaurentCombination):
    """A finite Laurent combination of generator words."""

    __slots__ = ("n",)
    _SHAPE = ("n",)
    _MISMATCH = "alphabet mismatch"
    _NOUN = "algebra element"
    _FIELDS = ("word",)
    _order = staticmethod(lambda letters: (len(letters), letters))

    def __init__(self, n: int, terms: Mapping[GeneratorWord, Laurent] | None = None):
        self._check_shape(n)
        self.n = int(n)
        raw: dict[tuple, dict[int, int]] = {}
        if terms:
            for w, c in terms.items():
                if w.n != self.n:
                    raise ValueError("alphabet mismatch among terms")
                if c:
                    raw[w.letters] = dict(c.raw())
        self._terms = raw

    @classmethod
    def one(cls, n: int) -> "UElement":
        cls._check_shape(n)
        return cls._raw(n, {(): {0: 1}})

    @classmethod
    def from_word(cls, word: GeneratorWord) -> "UElement":
        return cls._raw(word.n, {word.letters: {0: 1}})

    @classmethod
    def E(cls, n: int, i: int) -> "UElement":
        return cls.from_word(GeneratorWord(n, [("E", i)]))

    @classmethod
    def F(cls, n: int, i: int) -> "UElement":
        return cls.from_word(GeneratorWord(n, [("F", i)]))

    @classmethod
    def K(cls, n: int, i: int) -> "UElement":
        return cls.from_word(GeneratorWord(n, [("K", i)]))

    @classmethod
    def K_inv(cls, n: int, i: int) -> "UElement":
        return cls.from_word(GeneratorWord(n, [("Kinv", i)]))

    @classmethod
    def R(cls, n: int) -> "UElement":
        return cls.from_word(GeneratorWord(n, [("R", 0)]))

    @classmethod
    def R_inv(cls, n: int) -> "UElement":
        return cls.from_word(GeneratorWord(n, [("Rinv", 0)]))

    def __mul__(self, other: "UElement | Laurent | int") -> "UElement":
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("alphabet mismatch")
        out: dict[tuple, dict[int, int]] = {}
        for w1, c1 in self._terms.items():
            addmul_into(out, {w1 + w2: c2 for w2, c2 in other._terms.items()}, c1)
        return UElement._raw(self.n, out)

    def items(self) -> list[tuple[GeneratorWord, Laurent]]:
        return [(GeneratorWord(self.n, letters), Laurent(self._terms[letters])) for letters in self._keys()]

    # -- the key codec: a word, shortest first -----------------------------

    @staticmethod
    def _key_obj(letters: tuple) -> dict:
        return {"word": [[k, i] for k, i in letters]}

    _key_str = staticmethod(_word_str)

    @classmethod
    def _entry_terms(cls, shape: tuple, entry: Mapping) -> dict:
        (n,) = shape
        return {GeneratorWord(n, [(k, payload_int(i)) for k, i in entry["word"]]).letters: {0: 1}}


class TensorVector(LaurentCombination):
    """A finite combination of pure tensors e_{j1} x ... x e_{jr}, keys
    being r-tuples of arbitrary integers."""

    __slots__ = ("n", "r")
    _SHAPE = ("n", "r")
    _NOUN = "tensor vector"
    _FIELDS = ("key",)

    def __init__(self, n: int, r: int, terms: Mapping[Sequence[int], Laurent] | None = None):
        self._check_shape(n, r)
        self.n = int(n)
        self.r = int(r)
        raw: dict[tuple, dict[int, int]] = {}
        if terms:
            for key, c in terms.items():
                key = tuple(int(t) for t in key)
                if len(key) != self.r:
                    raise ValueError(f"key {key} does not have length r={self.r}")
                if c:
                    raw[key] = dict(c.raw())
        self._terms = raw

    @classmethod
    def unit(cls, n: int, key: Sequence[int]) -> "TensorVector":
        key = tuple(int(t) for t in key)
        cls._check_shape(n, len(key))
        return cls._raw(n, len(key), {key: {0: 1}})

    def coeff(self, key: Sequence[int]) -> Laurent:
        return Laurent(self._terms.get(tuple(key), {}))

    def items(self) -> list[tuple[tuple[int, ...], Laurent]]:
        return [(k, Laurent(self._terms[k])) for k in self._keys()]

    def support(self) -> list[tuple[int, ...]]:
        return self._keys()

    # -- the key codec: an r-tuple, in lexicographic order -----------------

    @staticmethod
    def _key_obj(key: tuple) -> dict:
        return {"key": list(key)}

    @staticmethod
    def _key_str(key: tuple) -> str:
        return f"e{list(key)}"

    @classmethod
    def _entry_terms(cls, shape: tuple, entry: Mapping) -> dict:
        key = tuple(payload_int(t) for t in entry["key"])
        if len(key) != shape[1]:
            raise ValueError(f"key {key} does not have length r={shape[1]}")
        return {key: {0: 1}}


def e_omega(n: int, r: int) -> TensorVector:
    """The cyclic vector e_1 x e_2 x ... x e_r; needs n >= r."""
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    return TensorVector.unit(n, tuple(range(1, r + 1)))


class TensorOperator:
    """A linear endomorphism of tensor space, given by its (finitary)
    values on basis keys."""

    __slots__ = ("n", "r", "_fn")

    def __init__(self, n: int, r: int, fn: Callable[[tuple[int, ...]], TensorVector]):
        self.n = int(n)
        self.r = int(r)
        self._fn = fn

    def on_key(self, key: Sequence[int]) -> TensorVector:
        return self._fn(tuple(int(t) for t in key))

    def __call__(self, x: TensorVector) -> TensorVector:
        if (x.n, x.r) != (self.n, self.r):
            raise ValueError("shape mismatch")
        return TensorVector._raw(self.n, self.r, _combine(x._terms, lambda key: self._fn(key)._terms))


# ---------------------------------------------------------------------------
# Actions


def _apply_letter(terms: dict, letter: tuple[str, int], n: int) -> dict:
    kind, i = letter
    if kind == "E":
        return kernels.tensor_act_E(terms, i, n)
    if kind == "F":
        return kernels.tensor_act_F(terms, i, n)
    if kind == "K":
        return kernels.tensor_act_K(terms, i, n, False)
    if kind == "Kinv":
        return kernels.tensor_act_K(terms, i, n, True)
    if kind == "R":
        return kernels.tensor_act_R(terms, False)
    return kernels.tensor_act_R(terms, True)


def _act_word(letters: tuple, terms: dict, n: int) -> dict:
    # a product acts with its rightmost factor first
    for letter in reversed(letters):
        if not terms:
            break
        terms = _apply_letter(terms, letter, n)
    return terms


def _suffixes(words: Iterable[tuple]) -> tuple:
    """Every nonempty suffix of the given words, shortest first."""
    return tuple(sorted({w[k:] for w in words for k in range(len(w))}, key=lambda w: (len(w), w)))


def _word_images(suffixes: tuple, terms: dict, apply: Callable[[dict, object], dict]) -> dict:
    """{word: image of the word on terms} over a list from _suffixes: a word
    acts with its rightmost letter first, so its image is its first letter
    applied to the image of the rest, which the list puts before it."""
    images = {(): terms}
    for word in suffixes:
        rest = images[word[1:]]
        images[word] = apply(rest, word[0]) if rest else rest
    return images


def _combine(combo: dict, image: Callable[[tuple], dict]) -> dict:
    """sum(cw * image(index)) over a raw combination {index: cw}: the words
    of an algebra element, or the keys of a tensor vector."""
    out: dict[tuple, dict[int, int]] = {}
    for index, cw in combo.items():
        addmul_into(out, image(index), cw)
    return out


def _act_terms(uterms: dict, terms: dict, n: int) -> dict:
    """Raw terms under a raw algebra element, through the iterated coproduct."""
    return _combine(uterms, lambda letters: _act_word(letters, terms, n))


def act_tensor(u: UElement, x: TensorVector) -> TensorVector:
    """u applied to x through the iterated coproduct."""
    if u.n != x.n:
        raise ValueError("alphabet mismatch")
    return TensorVector._raw(x.n, x.r, _act_terms(u._terms, x._terms, x.n))


def counit(u: UElement) -> Laurent:
    """Kills E and F, sends the grouplike letters to 1."""
    total = Laurent.zero()
    for letters, c in u._terms.items():
        if all(kind not in ("E", "F") for kind, _ in letters):
            total = total + Laurent(c)
    return total


_ANTIPODE_TABLE = {
    "E": lambda n, i: UElement.E(n, i) * UElement.K_inv(n, i) * UElement.K(n, _next(i, n)) * -1,
    "F": lambda n, i: UElement.K(n, i) * UElement.K_inv(n, _next(i, n)) * UElement.F(n, i) * -1,
    "K": lambda n, i: UElement.K_inv(n, i),
    "Kinv": lambda n, i: UElement.K(n, i),
    "R": lambda n, i: UElement.R_inv(n),
    "Rinv": lambda n, i: UElement.R(n),
}


def antipode(u: UElement) -> UElement:
    """The antihomomorphism S; reverses words and maps letters by the
    standard table."""
    total: dict[tuple, dict[int, int]] = {}
    for letters, c in u._terms.items():
        part = UElement.one(u.n)
        for kind, i in reversed(letters):
            part = part * _ANTIPODE_TABLE[kind](u.n, i)
        addmul_into(total, part._terms, c)
    return UElement._raw(u.n, total)


def _coproduct(letter: tuple[str, int], n: int) -> list[tuple[tuple, tuple, int]]:
    """Delta of a letter as (left word, right word, integer coeff) triples."""
    kind, i = letter
    if kind == "E":
        return [
            ((letter,), (("K", i), ("Kinv", _next(i, n))), 1),
            ((), (letter,), 1),
        ]
    if kind == "F":
        return [
            ((("Kinv", i), ("K", _next(i, n))), (letter,), 1),
            ((letter,), (), 1),
        ]
    # grouplikes
    return [((letter,), (letter,), 1)]


# ---------------------------------------------------------------------------
# tau: the Hecke algebra as left operators on the top weight space


def _tau_sigma_terms(terms: dict, n: int, i: int) -> dict:
    # v F_i E_i - 1
    part = kernels.tensor_act_F(kernels.tensor_act_E(terms, i, n), i, n)
    out = {k: kernels.lp_shift(c, 1) for k, c in part.items()}
    addmul_into(out, terms, _MINUS_ONE)
    return out


def _tau_rho_terms(terms: dict, n: int, r: int, inverse: bool) -> dict:
    if not inverse:
        # E_r E_{r+1} ... E_{n-1} R^-1, empty E-product when n = r
        terms = kernels.tensor_act_R(terms, True)
        for j in range(n - 1, r - 1, -1):
            terms = kernels.tensor_act_E(terms, j, n)
        return terms
    # F_n F_{n-1} ... F_{r+1} R
    terms = kernels.tensor_act_R(terms, False)
    for j in range(r + 1, n + 1):
        terms = kernels.tensor_act_F(terms, j, n)
    return terms


def _tau_letter_terms(terms: dict, n: int, r: int, i: int) -> dict:
    """Raw terms under T_{s_i}, i in 1..r.  The finite letters are
    v F_i E_i - 1; the affine letter s_r is rho s_1 rho^-1, since
    v F_r E_r - 1 is node r of the n-cycle, which is s_r only when n = r."""
    if i < r:
        return _tau_sigma_terms(terms, n, i)
    terms = _tau_rho_terms(terms, n, r, inverse=True)
    terms = _tau_sigma_terms(terms, n, 1)
    return _tau_rho_terms(terms, n, r, inverse=False)


def tau(n: int, r: int, w: WindowPerm) -> TensorOperator:
    """The left operator of T_w on tensor space; Hecke relations hold on
    the top weight space.  Needs n >= r."""
    if n < r:
        raise ValueError(f"tau needs n >= r, got n={n}, r={r}")
    if w.r != r:
        raise ValueError("rank mismatch")
    z, word = w.reduced_word()
    return TensorOperator(n, r, lambda key: TensorVector._raw(n, r, _tau_terms({key: {0: 1}}, n, r, z, word)))


def _tau_terms(terms: dict, n: int, r: int, z: int, word: tuple) -> dict:
    """Raw terms under T_w, w = rho^z s_word; returns terms itself when w is
    the identity."""
    for i in reversed(word):
        terms = _tau_letter_terms(terms, n, r, i)
    for _ in range(abs(z)):
        terms = _tau_rho_terms(terms, n, r, inverse=z < 0)
    return terms


# ---------------------------------------------------------------------------
# The right Hecke action


def _act_sigma_terms(terms: dict, i: int, n: int, r: int) -> dict:
    """Right T_{s_i} on raw terms over arbitrary keys.  Slots i, i+1 of a
    key are a base pair (a, b) in 1..n under a translation part, which
    commutes past the generator; each term that keeps the generator acts on
    the base pair by the finite rule (q if a == b, v * swap if a < b,
    v * swap + (q - 1) if a > b), and the translations go back on."""
    out: dict[tuple, dict[int, int]] = {}
    for key, c in terms.items():
        head, tail = key[: i - 1], key[i + 1 :]
        ca, cb = (key[i - 1] - 1) // n, (key[i] - 1) // n
        a, b = key[i - 1] - n * ca, key[i] - n * cb
        for carries, da, db, coeff in commute_gen_past_translations(-ca, -cb):
            raw = kernels.lp_mul(c, coeff.raw())
            same = head + (a - n * da, b - n * db) + tail
            if not carries:
                addmul_term(out, same, raw)
            elif a == b:
                addmul_term(out, same, raw, _Q)
            else:
                addmul_term(out, head + (b - n * da, a - n * db) + tail, raw, _V)
                if a > b:
                    addmul_term(out, same, raw, _QM1)
    return out


@lru_cache(maxsize=2048)
def _basis_rows(win: tuple) -> tuple:
    """The translation form of one basis term T_w, keyed by its window:
    ((cvec, finite word), raw coeff) rows.  Each row's finite tail is
    checked before the tuple enters the memo, so a failed rewrite is never
    stored.  Bounded at 2048 windows; the rows are read only."""
    rows = []
    for (cvec, u), coeff in to_bernstein_basis(HeckeElement._raw(len(win), {win: {0: 1}})).items():
        z, word = u.reduced_word()
        if z != 0:
            raise ValueError("translation form must have a finite tail")
        rows.append(((cvec, word), coeff.raw()))
    return tuple(rows)


def _bernstein_assoc(h: HeckeElement) -> tuple:
    """h rewritten as (cvec, finite word, raw coeff) rows, ready to act: the
    rewrite is linear, so the rows are sum_w c_w * _basis_rows(w), with
    fresh coefficient dicts that the caller may keep or change."""
    total: dict = {}
    for win, c in h._terms.items():
        for key, raw in _basis_rows(win):
            addmul_term(total, key, raw, c)
    return tuple((cvec, word, raw) for (cvec, word), raw in total.items())


def _assoc_terms(terms: dict, assoc: tuple, n: int, r: int) -> dict:
    """Raw terms under the right action of a _bernstein_assoc element."""
    out: dict[tuple, dict[int, int]] = {}
    for cvec, word, raw in assoc:
        part = terms
        for t, ct in enumerate(cvec):
            if ct and part:
                part = kernels.tensor_shift_slot(part, t, -n * ct)
        for i in word:
            if not part:
                break
            part = _act_sigma_terms(part, i, n, r)
        addmul_into(out, part, raw)
    return out


class _RightMemo:
    """The right action of one _bernstein_assoc element on raw terms,
    extended by linearity from its images of unit keys, each computed on
    first use.  The memo lives as long as the object, so a sweep scopes it
    to the generator it is checking."""

    __slots__ = ("assoc", "n", "r", "images")

    def __init__(self, assoc: tuple, n: int, r: int):
        self.assoc = assoc
        self.n = n
        self.r = r
        self.images: dict[tuple, dict] = {}

    def on_key(self, key: tuple) -> dict:
        img = self.images.get(key)
        if img is None:
            img = self.images[key] = _assoc_terms({key: {0: 1}}, self.assoc, self.n, self.r)
        return img

    def __call__(self, terms: dict) -> dict:
        return _combine(terms, self.on_key)


def hecke_right_action(x: TensorVector, h: HeckeElement) -> TensorVector:
    """The right action of the whole Hecke algebra, through the rewriting
    of h into translation-times-finite form y^c T_u.  The rows of each basis
    term T_w come from the read-only memo _basis_rows (keyed by w's window,
    at most 2048 windows), so h is not rewritten again on every call.
    Needs n >= r."""
    if x.n < x.r:
        raise ValueError(f"right action needs n >= r, got n={x.n}, r={x.r}")
    if h.r != x.r:
        raise ValueError("rank mismatch")
    return TensorVector._raw(x.n, x.r, _assoc_terms(x._terms, _bernstein_assoc(h), x.n, x.r))


# ---------------------------------------------------------------------------
# kappa and the tensor-space isomorphism


def _peel_order(columns: Sequence[dict]) -> tuple:
    """An order that peels the columns (raw term dicts) one at a time: each
    step takes a remaining column that owns a key no other remaining column
    has, with coefficient +-v^e there.  Returns (column, key, inverse of that
    coefficient) triples; raises ValueError if the columns do not peel
    completely.  Peeling only makes more keys private, so the choice made at
    each step cannot block a later one.  The one exact solve of the module,
    used by theta_iso_inverse alone: finite keys need none, since
    _finite_term_image reads them off the transported block."""
    holders: dict[tuple, set[int]] = {}
    for j, col in enumerate(columns):
        for key in col:
            holders.setdefault(key, set()).add(j)
    private = [key for key, held in holders.items() if len(held) == 1]
    order = []
    while private:
        key = private.pop()
        held = holders[key]
        if len(held) != 1:
            continue
        (j,) = held
        c = columns[j][key]
        if len(c) != 1:
            continue
        [(e, s)] = c.items()
        if s not in (1, -1):
            continue
        order.append((j, key, {-e: s}))
        for k2 in columns[j]:
            others = holders[k2]
            others.discard(j)
            if len(others) == 1:
                private.append(k2)
    if len(order) != len(columns):
        raise ValueError("columns are not unit-triangular")
    return tuple(order)


def _peel(columns: Sequence[dict], order: tuple, target: dict) -> list[dict]:
    """Solve sum(c_k * columns[k]) = target exactly along a peel order from
    _peel_order: a peeled column's coefficient is the residual at its
    private key times the inverse unit, and coefficient * column is then
    subtracted from the residual.  Returns raw coefficients; raises
    ValueError if a residual is left ("target is not in the span")."""
    residual = {k: dict(c) for k, c in target.items() if c}
    coords: list[dict] = [{} for _ in columns]
    for j, key, inv in order:
        c = residual.get(key)
        if not c:
            continue
        coords[j] = kernels.lp_mul(c, inv)
        addmul_into(residual, columns[j], kernels.lp_neg(coords[j]))
    if residual:
        raise ValueError("target is not in the span")
    return coords


def _poincare_of_conjugated(d: WindowPerm, left, right) -> Laurent:
    """Sum of q^l(u) over u in the right parabolic with d u d^-1 in the left."""
    left_windows = {x.window for x in left.elements()}
    total = Laurent.zero()
    dinv = d.inverse()
    for u in right.elements():
        if (d * u * dinv).window in left_windows:
            total = total + Laurent.v(2 * u.length())
    return total


@lru_cache(maxsize=None)
def _finite_term_image(n: int, r: int, lparts: tuple, mparts: tuple, dwin: tuple, base: tuple) -> dict:
    """The raw image of a base key (entries in 1..n, weight mu) under
    phi^d_{lambda,mu} with d finite: the finite module structure transported
    to tensor space, read off the keys with no solve.

    The transport sends x_lambda T_u (u finite, shortest in W_lambda u) to
    the single term v^l(u) e_key, key being lambda's weakly increasing key
    with its slots swapped along u's reduced word.  Every step of that walk
    meets slots holding a < b, where the finite rule gives v * swap: a > b
    would mean the word is not reduced, and a = b that u is not shortest in
    its coset.  A bubble sort of the base key swaps only a > b pairs, so read
    backwards it is such a walk: the reversed sort word is a reduced word of
    the distinguished u with e_base = v^-l(u) x_mu T_u.  Distinct outputs
    (lambda3, u3) of act_schur_left land on distinct keys.  Keyed by the
    base, never by a translated key, so the table holds at most (finite
    phi-terms) x (base keys of weight mu) images.  Read only: callers copy
    what they keep."""
    key, word = list(base), []
    for top in range(r - 1, 0, -1):
        for i in range(1, top + 1):
            if key[i - 1] > key[i]:
                key[i - 1], key[i] = key[i], key[i - 1]
                word.append(i)
    g = phi(Weight(n, r, lparts), Weight(n, r, mparts), WindowPerm._unsafe(dwin))
    x = QTensorElement.basis(Weight(n, r, mparts), WindowPerm.from_word(r, reversed(word)))
    terms: dict[tuple, dict[int, int]] = {}
    for lam3, d3, c3 in act_schur_left(g, x).items():
        key = list(lam3.expanded())
        _, word3 = d3.reduced_word()
        for i in word3:
            key[i - 1], key[i] = key[i], key[i - 1]
        addmul_term(terms, tuple(key), kernels.lp_shift(c3.raw(), len(word3) - len(word)))
    return terms


@lru_cache(maxsize=None)
def _affine_term(r: int, lparts: tuple, mparts: tuple, dwin: tuple) -> tuple:
    """(Poincare factor of the sandwich identity, z, reduced word of d) for
    an affine phi-term."""
    d = WindowPerm._unsafe(dwin)
    pnu = _poincare_of_conjugated(d, young_subgroup_of_key(lparts, r), young_subgroup_of_key(mparts, r))
    z, word = d.reduced_word()
    return pnu, z, word


def _term_terms(n: int, r: int, lparts: tuple, mparts: tuple, dwin: tuple, key: tuple) -> dict:
    """The raw image of e_key under phi^d_{lambda,mu}.  The result may be a
    cached dict or share one's coefficients: read only, so callers copy it
    (addmul_into, _combine) before they keep or change it."""
    if all(1 <= t <= r for t in dwin):
        # finite d: the image of the base key, moved by the commuting
        # translation operators
        cvec = tuple((t - 1) // n for t in key)
        base = tuple(t - n * q for t, q in zip(key, cvec))
        if Weight.of_key(base, n).parts != mparts:
            return {}
        terms = _finite_term_image(n, r, lparts, mparts, dwin, base)
        for t, ct in enumerate(cvec):
            if ct and terms:
                terms = kernels.tensor_shift_slot(terms, t, n * ct)
        return terms
    # affine d: split to omega (the split image has weight omega already),
    # act by tau on the top weight space, merge back, and divide by the
    # Poincare factor of the sandwich identity; split may be a cached dict,
    # which _tau_terms and _combine only read
    pnu, z, word = _affine_term(r, lparts, mparts, dwin)
    om = omega(n, r).parts
    ident = tuple(range(1, r + 1))
    split = _term_terms(n, r, om, mparts, ident, key)
    part = _combine(_tau_terms(split, n, r, z, word), lambda k: _term_terms(n, r, lparts, om, ident, k))
    return {k: Laurent._raw(c).divexact(pnu).raw() for k, c in part.items()}


def kappa(s: SchurElement) -> TensorOperator:
    """The Schur algebra as operators on tensor space; needs n >= r."""
    n, r = s.n, s.r
    if n < r:
        raise ValueError(f"kappa needs n >= r, got n={n}, r={r}")
    return TensorOperator(
        n, r, lambda key: TensorVector._raw(n, r, _combine(s._terms, lambda t: _term_terms(n, r, *t, key)))
    )


def kappa_exponents(n: int, r: int, lam: Weight) -> tuple[int, int]:
    """The observed normalization exponents (f, g): f from the merge map on
    the cyclic vector, g from the split map on the increasing key."""
    om = omega(n, r)
    merge = kappa(phi(lam, om, WindowPerm.identity(r)))
    vec = merge(e_omega(n, r))
    if len(vec) != 1:
        raise ValueError("merge map did not produce a single basis vector")
    [(key, c)] = vec.items()
    terms = sorted(c.items())
    if len(terms) != 1 or terms[0][1] != 1:
        raise ValueError(f"merge coefficient {c} is not a power of v")
    wl = young_parabolic(lam).longest_element().length()
    f = terms[0][0] - 2 * wl
    split = kappa(phi(om, lam, WindowPerm.identity(r)))
    vec = split(TensorVector.unit(n, lam.expanded()))
    base = vec.coeff(tuple(range(1, r + 1)))
    gterms = sorted(base.items())
    if len(gterms) != 1 or gterms[0][1] != 1:
        raise ValueError(f"split base coefficient {base} is not a power of v")
    g = gterms[0][0]
    return f, g


@lru_cache(maxsize=None)
def _theta_image(n: int, r: int, lparts: tuple, dwin: tuple) -> dict:
    """The raw theta_iso image of the basis key x_lambda T_d: the omega row
    goes to the orbit of the cyclic vector, other rows through kappa.  One
    table for theta_iso, its inverse's columns and the duality sweep; the
    images are read only, never mutated.  A kappa image is stored as a copy,
    since _term_terms may hand out the dicts of its own tables."""
    om = omega(n, r)
    base = e_omega(n, r)
    if lparts == om.parts:
        return hecke_right_action(base, t_basis(WindowPerm._unsafe(dwin)))._terms
    image = _term_terms(n, r, lparts, om.parts, dwin, base.support()[0])
    return {k: dict(c) for k, c in image.items()}


def theta_iso(x: QTensorElement) -> TensorVector:
    """The bimodule identification, summed term by term from the shared
    table of basis images (_theta_image); the sum copies every coefficient,
    so no cached image reaches the caller.  Needs n >= r."""
    n, r = x.n, x.r
    if n < r:
        raise ValueError(f"theta_iso needs n >= r, got n={n}, r={r}")
    total: dict[tuple, dict[int, int]] = {}
    for (lp, dw), c in x._terms.items():
        addmul_into(total, _theta_image(n, r, lp, dw), c)
    return TensorVector._raw(n, r, total)


def theta_iso_basis(n: int, r: int, len_bound: int, rho_bound: int) -> list[tuple[Weight, WindowPerm]]:
    """The q-tensor basis keys inside the truncation window, sorted."""
    from affineschur.weyl import enumerate_up_to_length, is_distinguished
    from affineschur.schur import all_weights

    keys = []
    pool = enumerate_up_to_length(r, len_bound, extended=True, rho_bound=rho_bound)
    for lam in all_weights(n, r):
        pi = young_parabolic(lam)
        for d in pool:
            if is_distinguished(d, pi):
                keys.append((lam, d))
    keys.sort(key=lambda t: (t[0].parts, t[1].length(), t[1].window))
    return keys


@lru_cache(maxsize=None)
def _theta_system(n: int, r: int, len_bound: int, rho_bound: int) -> tuple:
    """(q-tensor term keys, raw theta_iso images, peel order) of the basis
    inside the truncation window, shared by theta_iso_inverse and the
    duality sweep; a key is (lambda.parts, d.window).  The images are the
    very dicts of the _theta_image table, so a key in several truncations
    is stored once; they are read only, never mutated."""
    keys = tuple((lam.parts, d.window) for lam, d in theta_iso_basis(n, r, len_bound, rho_bound))
    columns = tuple(_theta_image(n, r, *key) for key in keys)
    return keys, columns, _peel_order(columns)


def theta_iso_inverse(
    y: TensorVector, len_bound: int, rho_bound: int = 1
) -> QTensorElement:
    """Invert theta_iso on the span of the basis keys x_lambda T_d with d
    inside the truncation (length <= len_bound, rho power within rho_bound).

    The images of those keys are unit-triangular: they peel one at a time,
    each step taking an image that owns a tensor key no other remaining image
    has, with coefficient +-v^e, so its coordinate is the residual there over
    that unit.  This is the module's only solve (kappa's finite terms are
    read off the keys).  The images and the peel order are built once per
    (n, r, len_bound, rho_bound) and cached.  Raises ValueError if the images
    do not peel ("columns are not unit-triangular") or if y leaves a residual
    ("target is not in the span")."""
    n, r = y.n, y.r
    keys, columns, order = _theta_system(n, r, len_bound, rho_bound)
    coords = _peel(columns, order, y._terms)
    return QTensorElement._raw(n, r, {k: c for k, c in zip(keys, coords) if c})

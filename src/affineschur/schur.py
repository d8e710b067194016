"""The affine q-Schur algebra and q-tensor space.

Weights are compositions of r into n nonnegative parts.  The algebra acts
on the direct sum of the right ideals x_lambda * H, and its basis elements
phi^d_{lambda,mu} send x_mu to the double-coset sum over W_lambda d W_mu.
Products are genuine composites of module homomorphisms, re-expanded in the
basis by reading coefficients off the distinguished double-coset
representatives; nothing here depends on structure constants being known in
closed form.

q-tensor space is the column of the algebra at the weight omega = (1^r, 0*),
a left Schur / right Hecke bimodule with basis x_lambda T_d.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from affineschur._backend import kernels
from affineschur.hecke import HeckeElement, KLTable, _mul_terms, _packed_products
from affineschur.laurent import Laurent, LaurentCombination, addmul_into, payload_int
from affineschur.weyl import (
    ParabolicIndex,
    WindowPerm,
    _coset_split,
    _is_double_coset_top,
    double_coset,
    double_coset_rep,
    longest_double_coset_elt,
    young_subgroup_of_key,
)

__all__ = [
    "Weight",
    "omega",
    "all_weights",
    "young_parabolic",
    "phi",
    "SchurElement",
    "schur_mul",
    "embed_hecke",
    "theta",
    "QTensorElement",
    "act_schur_left",
    "act_hecke_right",
]


class Weight:
    """A composition of r into n nonnegative parts; no monotonicity."""

    __slots__ = ("n", "r", "parts")

    def __init__(self, n: int, r: int, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if n < 1 or r < 1:
            raise ValueError("n and r must be positive")
        if len(parts) != n:
            raise ValueError(f"expected {n} parts, got {len(parts)}")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if sum(parts) != r:
            raise ValueError(f"parts {parts} do not sum to r={r}")
        self.n = n
        self.r = r
        self.parts = parts

    @classmethod
    def from_obj(cls, n: int, r: int, parts) -> "Weight":
        """The weight of a JSON payload's parts, each read by payload_int."""
        return cls(n, r, [payload_int(p) for p in parts])

    def expanded(self) -> tuple[int, ...]:
        """The weakly increasing r-tuple listing i with multiplicity parts[i-1]."""
        out: list[int] = []
        for i, p in enumerate(self.parts, start=1):
            out.extend([i] * p)
        return tuple(out)

    @classmethod
    def of_key(cls, key: Sequence[int], n: int) -> "Weight":
        """The weight of a tensor key: counts of each residue class mod n."""
        parts = [0] * n
        for t in key:
            parts[(t - 1) % n] += 1
        return cls(n, len(key), parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return (self.n, self.r, self.parts) == (other.n, other.r, other.parts)

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.parts))

    def __repr__(self) -> str:
        return f"Weight({self.n}, {self.r}, {list(self.parts)})"


def omega(n: int, r: int) -> Weight:
    """The weight (1^r, 0^(n-r)); needs n >= r."""
    if n < r:
        raise ValueError(f"omega needs n >= r, got n={n}, r={r}")
    return Weight(n, r, (1,) * r + (0,) * (n - r))


def all_weights(n: int, r: int) -> list[Weight]:
    """Every composition of r into n parts, in lexicographic order."""
    out = []
    for cuts in itertools.combinations(range(r + n - 1), n - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(r + n - 2 - prev)
        out.append(Weight(n, r, parts))
    return sorted(out, key=lambda lam: lam.parts)


def young_parabolic(lam: Weight) -> ParabolicIndex:
    """Generators s_i with i and i+1 in the same block of lam (never s_r)."""
    return young_subgroup_of_key(lam.parts, lam.r)


# ---------------------------------------------------------------------------
# The phi basis


@lru_cache(maxsize=None)
def _phi_value_cached(r: int, lparts, mparts, dwin) -> HeckeElement:
    left = young_subgroup_of_key(lparts, r)
    right = young_subgroup_of_key(mparts, r)
    d = WindowPerm._unsafe(dwin)
    # every coefficient is 1, so the terms share one dict: a cached value
    # costs a key per window, not a key and a dict (callers only read it)
    one = {0: 1}
    return HeckeElement._raw(r, {w.window: one for w in double_coset(d, left, right)})


def phi(lam: Weight, mu: Weight, d: WindowPerm) -> "SchurElement":
    """The basis element phi^d_{lam,mu} as a one-term SchurElement; d is
    normalized to its distinguished double-coset representative."""
    if lam.n != mu.n or lam.r != mu.r:
        raise ValueError("weight shape mismatch")
    if d.r != lam.r:
        raise ValueError("rank mismatch")
    dbar = double_coset_rep(d, young_parabolic(lam), young_parabolic(mu))
    return SchurElement._raw(
        lam.n, lam.r, {(lam.parts, mu.parts, dbar.window): {0: 1}}
    )


def _read_cells(
    h: HeckeElement, is_lead: Callable[[tuple], bool], cell: Callable[[tuple], Iterable[tuple]], span: str
) -> dict[tuple, Laurent]:
    """Coordinates of h over the sums of T_w, w in cell(d), one per lead
    window d; the cells are disjoint.  An element of their span carries its
    coordinate at d on all of d's cell: it is read off at d and checked on
    the cell, and the cells must cover h, else ValueError (no assert, so the
    check survives python -O)."""
    terms = h._terms
    coords: dict[tuple, Laurent] = {}
    covered = 0
    for d, c in terms.items():
        if not is_lead(d):
            continue
        for w in cell(d):
            if terms.get(w) != c:
                raise ValueError(f"element is not {span}: {w} differs from its lead {d}")
            covered += 1
        coords[d] = Laurent(c)
    if covered != len(terms):
        raise ValueError(f"element is not {span}: {len(terms) - covered} windows lie in no cell")
    return coords


def _extract_right_factor(h: HeckeElement, pi: ParabolicIndex) -> dict[tuple, Laurent]:
    """Coordinates of h in the basis {x_pi T_d : d distinguished}; x_pi T_d
    is the sum of T_ud over u in the parabolic."""
    gens = sorted(pi.generators)
    us = [u.window for u in pi.elements()]
    return _read_cells(
        h,
        lambda w: not any(kernels.win_is_left_descent(w, i) for i in gens),
        lambda d: map(kernels.win_compose_offsets, us, itertools.repeat(kernels.win_offsets(d))),
        "a combination of x*T_d terms",
    )


def _expand_phi(h: HeckeElement, lam: Weight, mu: Weight) -> dict[tuple, Laurent]:
    """Coordinates of h in the phi-basis column (lam, mu); the lead windows
    are the minimal double-coset representatives."""
    lgens, rgens = sorted(young_parabolic(lam).generators), sorted(young_parabolic(mu).generators)
    return _read_cells(
        h,
        lambda w: not any(kernels.win_is_left_descent(w, i) for i in lgens)
        and not any(kernels.win_is_right_descent(w, i) for i in rgens),
        lambda d: _phi_value_cached(lam.r, lam.parts, mu.parts, d)._terms,
        "in the double-coset span",
    )


class SchurElement(LaurentCombination):
    """A finite combination of basis elements phi^d_{lam,mu}.

    Keys are (lam parts, mu parts, d window) with d always distinguished on
    both sides; values are raw Laurent dicts without zeros.
    """

    __slots__ = ("n", "r")
    _SHAPE = ("n", "r")
    _NOUN = "Schur element"
    _FIELDS = ("lambda", "mu", "d")
    _order = staticmethod(lambda k: (k[0], k[1], kernels.win_length(k[2]), k[2]))

    @classmethod
    def _check_shape(cls, n: int, r: int) -> None:
        super()._check_shape(n, r)
        HeckeElement._check_shape(r)

    def __init__(self, n: int, r: int):
        self._check_shape(n, r)
        self.n = int(n)
        self.r = int(r)
        self._terms: dict[tuple, dict[int, int]] = {}

    @classmethod
    def identity(cls, n: int, r: int) -> "SchurElement":
        cls._check_shape(n, r)
        terms = {}
        for lam in all_weights(n, r):
            key = (lam.parts, lam.parts, tuple(range(1, r + 1)))
            terms[key] = {0: 1}
        return cls._raw(n, r, terms)

    def __mul__(self, other: "SchurElement | Laurent | int") -> "SchurElement":
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        return schur_mul(self, other)

    def coeff(self, lam: Weight, mu: Weight, d: WindowPerm) -> Laurent:
        return Laurent(self._terms.get((lam.parts, mu.parts, d.window), {}))

    def items(self) -> list[tuple[Weight, Weight, WindowPerm, Laurent]]:
        n, r = self.n, self.r
        return [
            (Weight(n, r, lp), Weight(n, r, mp), WindowPerm._unsafe(dw), Laurent(self._terms[(lp, mp, dw)]))
            for lp, mp, dw in self._keys()
        ]

    # -- the key codec: (lambda, mu, d), by weights then shortest d --------

    @staticmethod
    def _key_obj(key: tuple) -> dict:
        return {"lambda": list(key[0]), "mu": list(key[1]), "d": {"window": list(key[2])}}

    @staticmethod
    def _key_str(key: tuple) -> str:
        return f"phi[{list(key[0])},{list(key[1])},{list(key[2])}]"

    @classmethod
    def _entry_terms(cls, shape: tuple, entry: Mapping) -> dict:
        n, r = shape
        d = WindowPerm.from_obj({"r": r, **dict(entry["d"])})
        return phi(Weight.from_obj(n, r, entry["lambda"]), Weight.from_obj(n, r, entry["mu"]), d)._terms


def schur_mul(a: SchurElement, b: SchurElement) -> SchurElement:
    """The composite homomorphism a after b, re-expanded in the phi basis.

    A term of a with row/column pair (lam1, mu1) composes with a term of b
    at (lam2, mu2) only when mu1 == lam2.  Each b-column is evaluated on
    x_mu2, written as x_lam2 times a right factor, pushed through a, and the
    basis coordinates of the resulting Hecke value are read off its
    distinguished double-coset representatives.
    """
    if (a.n, a.r) != (b.n, b.r):
        raise ValueError("shape mismatch")
    n, r = a.n, a.r
    blocks: dict[tuple, dict] = {}
    for (l2, m2, d2), c2 in b._terms.items():
        addmul_into(blocks.setdefault((l2, m2), {}), _phi_value_cached(r, l2, m2, d2)._terms, c2)
    values: dict[tuple, dict] = {}
    for (l2, m2), raw in blocks.items():
        if not raw:
            continue
        lam2 = Weight(n, r, l2)
        factor = _extract_right_factor(
            HeckeElement._raw(r, raw), young_parabolic(lam2)
        )
        right = HeckeElement._raw(r, {dwin: c.raw() for dwin, c in factor.items()})
        for (l1, m1, d1), c1 in a._terms.items():
            if m1 != l2:
                continue
            base = _phi_value_cached(r, l1, m1, d1)
            addmul_into(values.setdefault((l1, m2), {}), (base * right)._terms, c1)
    out: dict[tuple, dict] = {}
    for (l1, m2), h in values.items():
        coords = _expand_phi(HeckeElement._raw(r, h), Weight(n, r, l1), Weight(n, r, m2))
        for dwin, c in coords.items():
            out[(l1, m2, dwin)] = c.raw()
    return SchurElement._raw(n, r, out)


def embed_hecke(h: HeckeElement, n: int) -> SchurElement:
    """T_d -> phi^d_{omega,omega}, linearly extended; needs n >= r."""
    om = omega(n, h.r)
    terms = {(om.parts, om.parts, w.window): dict(c.raw()) for w, c in h.items()}
    return SchurElement._raw(n, h.r, terms)


def theta(lam: Weight, mu: Weight, d: WindowPerm, table: KLTable) -> SchurElement:
    """The KL-type basis element: a triangular combination of phi^z over the
    double cosets whose longest element sits below the longest element of
    d's coset, weighted by Kazhdan-Lusztig polynomials.
    """
    if table.r != lam.r:
        raise ValueError("table rank mismatch")
    left, right = young_parabolic(lam), young_parabolic(mu)
    dbar = double_coset_rep(d, left, right)
    dplus = longest_double_coset_elt(dbar, left, right)
    shift = right.longest_element().length() - dplus.length()
    lgens, rgens = sorted(left.generators), sorted(right.generators)
    # the Bruhat interval below d+: the table's lower set of d+'s Coxeter
    # part, moved by d+'s rho power
    zplus, cox = dplus.rho_decompose()
    terms: dict[tuple, dict] = {}
    for cwin in table._lower_set(cox.window):
        u = WindowPerm._unsafe(kernels.win_rot(cwin, zplus))
        if not _is_double_coset_top(u.window, lgens, rgens):
            continue
        p = table.extended(u, dplus)
        if p:
            z = double_coset_rep(u, left, right)
            terms[(lam.parts, mu.parts, z.window)] = dict(p.shift(shift).raw())
    return SchurElement._raw(lam.n, lam.r, terms)


# ---------------------------------------------------------------------------
# q-tensor space


class QTensorElement(LaurentCombination):
    """An element of the omega column: a combination of basis terms
    x_lambda T_d with d distinguished for the Young parabolic of lambda."""

    __slots__ = ("n", "r")
    _SHAPE = ("n", "r")
    _NOUN = "q-tensor element"
    _FIELDS = ("lambda", "d")
    _order = staticmethod(lambda k: (k[0], kernels.win_length(k[1]), k[1]))

    @classmethod
    def _check_shape(cls, n: int, r: int) -> None:
        super()._check_shape(n, r)
        HeckeElement._check_shape(r)

    def __init__(self, n: int, r: int):
        self._check_shape(n, r)
        self.n = int(n)
        self.r = int(r)
        self._terms: dict[tuple, dict[int, int]] = {}

    @classmethod
    def basis(cls, lam: Weight, d: WindowPerm) -> "QTensorElement":
        """x_lambda T_d; a parabolic part of d is absorbed as a power of q."""
        if d.r != lam.r:
            raise ValueError("rank mismatch")
        k, dwin = _coset_split(d.window, sorted(young_parabolic(lam).generators))
        return cls._raw(lam.n, lam.r, {(lam.parts, dwin): {2 * k: 1}})

    def coeff(self, lam: Weight, d: WindowPerm) -> Laurent:
        return Laurent(self._terms.get((lam.parts, d.window), {}))

    def items(self) -> list[tuple[Weight, WindowPerm, Laurent]]:
        n, r = self.n, self.r
        return [(Weight(n, r, lp), WindowPerm._unsafe(dw), Laurent(self._terms[(lp, dw)])) for lp, dw in self._keys()]

    # -- the key codec: (lambda, d), by weight then shortest d -------------

    @staticmethod
    def _key_obj(key: tuple) -> dict:
        return {"lambda": list(key[0]), "d": {"window": list(key[1])}}

    @staticmethod
    def _key_str(key: tuple) -> str:
        return f"x{list(key[0])}T{list(key[1])}"

    @classmethod
    def _entry_terms(cls, shape: tuple, entry: Mapping) -> dict:
        n, r = shape
        d = WindowPerm.from_obj({"r": r, **dict(entry["d"])})
        return cls.basis(Weight.from_obj(n, r, entry["lambda"]), d)._terms


def _right_factor_terms(values: dict[tuple, dict], r: int) -> dict[tuple, dict]:
    """{(lambda parts, d window): coefficient} of Hecke values {lambda parts:
    raw terms}, each value re-expanded over x_lambda T_d."""
    out: dict[tuple, dict] = {}
    for lp, terms in values.items():
        for dwin, c in _extract_right_factor(HeckeElement._raw(r, terms), young_subgroup_of_key(lp, r)).items():
            out[(lp, dwin)] = c.raw()
    return out


def _tails_by_weight(x: QTensorElement) -> dict[tuple, dict]:
    """{lambda parts: raw sum of c T_d} over x's terms c x_lambda T_d."""
    tails: dict[tuple, dict] = {}
    for (lp, dwin), c in x._terms.items():
        tails.setdefault(lp, {})[dwin] = c
    return tails


def act_schur_left(s: SchurElement, x: QTensorElement) -> QTensorElement:
    """Left action through the identification x_lambda T_d = phi^d_{lam,omega}."""
    if (s.n, s.r) != (x.n, x.r):
        raise ValueError("shape mismatch")
    n, r = x.n, x.r
    tails = _tails_by_weight(x)
    values: dict[tuple, dict] = {}
    for (l1, m1, d1), c1 in s._terms.items():
        tail = tails.get(m1)
        if tail is None:
            continue
        # one walk per s-term: phi value * (c1 * tail)
        scaled = {dwin: kernels.lp_mul(c1, c) for dwin, c in tail.items()}
        part = _mul_terms(_phi_value_cached(r, l1, m1, d1)._terms, scaled)
        if l1 in values:
            addmul_into(values[l1], part)
        else:
            values[l1] = part
    return QTensorElement._raw(n, r, _right_factor_terms(values, r))


def act_hecke_right(x: QTensorElement, h: HeckeElement) -> QTensorElement:
    """Right action: x_lambda T_d h = x_lambda (T_d h), and a window u d' of
    T_d h, u in the parabolic, d' distinguished, gives q^l(u) x_lambda T_d'."""
    if x.r != h.r:
        raise ValueError("rank mismatch")
    n, r = x.n, x.r
    # one walk over h's words carries every weight's tail at once
    prods, wins, offset, width = _packed_products(_tails_by_weight(x), h._terms)
    out: dict[tuple, int] = {}
    for lp, prod in prods.items():
        gens = sorted(young_subgroup_of_key(lp, r).generators)
        for wid, p in prod.items():
            if not p:
                continue  # a key whose terms cancelled
            k, dwin = _coset_split(wins[wid], gens)
            key = (lp, dwin)
            out[key] = out.get(key, 0) + (p << (2 * k * width))
    return QTensorElement._raw(n, r, {key: kernels.lp_unpack(p, offset, width) for key, p in out.items() if p})

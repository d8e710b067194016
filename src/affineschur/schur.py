"""The affine q-Schur algebra and q-tensor space.

Weights are compositions of r into n nonnegative parts.  The algebra acts
on the direct sum of the right ideals x_lambda * H, and its basis elements
phi^d_{lambda,mu} send x_mu to the double-coset sum over W_lambda d W_mu.
Every element of x_lambda * H is x_lambda times a sum of c T_d over
distinguished d, and values are kept as these x_lambda-coordinates: a phi
value is x_lambda times its tail, the distinguished windows of the double
coset, and no x_lambda is ever formed.  Products are genuine composites of
module homomorphisms, re-expanded in the basis by reading coordinates off
the distinguished double-coset representatives; nothing here depends on
structure constants being known in closed form.

q-tensor space is the column of the algebra at the weight omega = (1^r, 0*),
a left Schur / right Hecke bimodule with basis x_lambda T_d.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Mapping, Sequence

from affineschur._backend import kernels
from affineschur.hecke import HeckeElement, KLTable, _packed_products
from affineschur.laurent import Laurent, LaurentCombination, addmul_into, payload_int
from affineschur.weyl import (
    ParabolicIndex,
    WindowPerm,
    _coset_split,
    _is_double_coset_top,
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
def _phi_tail(r: int, lparts, mparts, dwin) -> dict:
    """{d': 1} over the windows d' of d's double coset that are shortest in
    their coset W_lam d': phi^d_{lam,mu}(x_mu), the sum of T_w over
    W_lam d W_mu, is x_lam times the sum of these T_d'.  The cosets W_lam d x,
    x in W_mu, cover the double coset, and each meets the tail in the coset
    split of d x."""
    gens = sorted(young_subgroup_of_key(lparts, r).generators)
    d = WindowPerm._unsafe(dwin)
    # every coefficient is 1, so the terms share one dict (callers only read it)
    one = {0: 1}
    return {_coset_split((d * x).window, gens)[1]: one for x in young_subgroup_of_key(mparts, r).elements()}


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


def _expand_phi(coords: dict, lam: Weight, mu: Weight) -> dict[tuple, dict]:
    """phi-coordinates of x_lam * sum_d coords[d] T_d in the column (lam,
    mu), for raw x_lam-coordinates coords.  The lead windows are the minimal
    double-coset representatives z, and the coordinate at z is coords[z]:
    every window of z's tail must carry exactly coords[z], and the tails
    must cover coords, else ValueError (no assert, so the check survives
    python -O)."""
    lgens, rgens = sorted(young_parabolic(lam).generators), sorted(young_parabolic(mu).generators)
    out: dict[tuple, dict] = {}
    covered = 0
    for z, c in coords.items():
        if any(kernels.win_is_left_descent(z, i) for i in lgens):
            continue
        if any(kernels.win_is_right_descent(z, i) for i in rgens):
            continue
        for w in _phi_tail(lam.r, lam.parts, mu.parts, z):
            if coords.get(w) != c:
                raise ValueError(f"element is not in the double-coset span: {w} differs from its lead {z}")
            covered += 1
        out[z] = c
    if covered != len(coords):
        raise ValueError(f"element is not in the double-coset span: {len(coords) - covered} windows lie in no tail")
    return out


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
        if not lam.n == mu.n == self.n or not lam.r == mu.r == d.r == self.r:
            raise ValueError("shape mismatch")
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


def _in_ideals(xs: Mapping, b: dict, r: int) -> dict[tuple, dict]:
    """{lambda parts: raw x_lambda-coordinates of x_lambda * x * b} for the
    raw terms x of xs, keyed by lambda parts, and b: one packed walk over
    b's words carries every x, and a window u d of x * b, u in W_lambda and
    d distinguished, adds q^l(u) times its coefficient at d, since
    x_lambda T_u = q^l(u) x_lambda."""
    prods, wins, offset, width = _packed_products(xs, b)
    out: dict[tuple, dict] = {}
    for lp, prod in prods.items():
        gens = sorted(young_subgroup_of_key(lp, r).generators)
        acc: dict[tuple, int] = {}
        for wid, p in prod.items():
            if not p:
                continue  # a key whose terms cancelled
            k, dwin = _coset_split(wins[wid], gens)
            acc[dwin] = acc.get(dwin, 0) + (p << (2 * k * width))
        out[lp] = {dwin: kernels.lp_unpack(p, offset, width) for dwin, p in acc.items() if p}
    return out


def _by_column(s: SchurElement) -> dict[tuple, dict]:
    """{mu parts: {lambda parts: raw right factor}}: s sends x_mu to the sum
    over lambda of x_lambda times the right factor, the sum of c times the
    tail of each term c phi^d_{lambda,mu}."""
    cols: dict[tuple, dict] = {}
    for (lp, mp, dwin), c in s._terms.items():
        addmul_into(cols.setdefault(mp, {}).setdefault(lp, {}), _phi_tail(s.r, lp, mp, dwin), c)
    return cols


def schur_mul(a: SchurElement, b: SchurElement) -> SchurElement:
    """The composite homomorphism a after b, re-expanded in the phi basis.

    b sends x_mu2 to the sum of x_lam2 * R over its rows lam2, and a sends
    x_lam2 to the sum of x_lam1 * A over its rows lam1, so a after b sends
    x_mu2 to the sum of x_lam1 * A * R.  Each R is walked once with every A
    of a's column lam2, and the phi coordinates are read off the
    x_lam1-coordinates at the distinguished double-coset representatives.
    """
    if (a.n, a.r) != (b.n, b.r):
        raise ValueError("shape mismatch")
    n, r = a.n, a.r
    cols = _by_column(a)
    values: dict[tuple, dict] = {}
    for m2, rows in _by_column(b).items():
        for l2, right in rows.items():
            if l2 in cols:
                for l1, coords in _in_ideals(cols[l2], right, r).items():
                    addmul_into(values.setdefault((l1, m2), {}), coords)
    out: dict[tuple, dict] = {}
    for (l1, m2), coords in values.items():
        for dwin, c in _expand_phi(coords, Weight(n, r, l1), Weight(n, r, m2)).items():
            out[(l1, m2, dwin)] = c
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
    if lam.n != mu.n or not lam.r == mu.r == d.r == table.r:
        raise ValueError("shape mismatch: lam and mu need one n, and d and the table their rank")
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
        if (lam.n, lam.r, d.r) != (self.n, self.r, self.r):
            raise ValueError("shape mismatch")
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


def _tails_by_weight(x: QTensorElement) -> dict[tuple, dict]:
    """{lambda parts: raw sum of c T_d} over x's terms c x_lambda T_d."""
    tails: dict[tuple, dict] = {}
    for (lp, dwin), c in x._terms.items():
        tails.setdefault(lp, {})[dwin] = c
    return tails


def act_schur_left(s: SchurElement, x: QTensorElement) -> QTensorElement:
    """Left action through the identification x_lambda T_d = phi^d_{lam,omega}:
    s sends x_mu * tail to the sum of x_lambda * R * tail over the right
    factors R of s's column mu, one walk per weight mu of x."""
    if (s.n, s.r) != (x.n, x.r):
        raise ValueError("shape mismatch")
    n, r = x.n, x.r
    tails = _tails_by_weight(x)
    out: dict[tuple, dict] = {}
    for mp, rows in _by_column(s).items():
        if mp in tails:
            for lp, coords in _in_ideals(rows, tails[mp], r).items():
                addmul_into(out, {(lp, dwin): c for dwin, c in coords.items()})
    return QTensorElement._raw(n, r, out)


def act_hecke_right(x: QTensorElement, h: HeckeElement) -> QTensorElement:
    """Right action: x_lambda T_d h = x_lambda (T_d h), one walk over h's
    words carrying every weight's tail at once."""
    if x.r != h.r:
        raise ValueError("rank mismatch")
    out = _in_ideals(_tails_by_weight(x), h._terms, x.r)
    return QTensorElement._raw(x.n, x.r, {(lp, dwin): c for lp, coords in out.items() for dwin, c in coords.items()})

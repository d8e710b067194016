"""Exact arithmetic in the ring Z[v, v^-1].

One coefficient ring serves the whole package: the Hecke parameter is
q = v**2, so everything the Hecke, Schur and quantum layers need (quadratic
relations in q, Kazhdan-Lusztig polynomials in q, quantum integers in v)
lives in a single Laurent ring with the bar involution v -> v^-1.

Every element class of the package is a free Z[v, v^-1]-module element on
some basis, stored the same way: a dict {key: raw Laurent dict} with no zero
coefficients.  LaurentCombination gives those classes their shared linear
structure, and addmul_into is the one merge of such a dict into another.

>>> v = Laurent.v()
>>> (v + ~v) * v
v^2 + 1
>>> Laurent.q() == v * v
True
>>> (v**3).bar()
v^-3
"""

from __future__ import annotations

from typing import Iterator, Mapping

from affineschur._backend import kernels

__all__ = ["Laurent", "LaurentCombination", "addmul_into", "addmul_term", "payload_int", "quantum_integer"]


def payload_int(x, key: bool = False) -> int:
    """x read as an integer of a JSON payload: an int that is not a bool or,
    for an exponent (a JSON object key, so a string), a decimal string.  Any
    other value, a float or a numeric string included, is a ValueError.
    Every from_obj reads its numbers through here; library constructors
    coerce with int() instead."""
    if type(x) is int:
        return x
    if key and isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            return int(x)
    raise ValueError(f"expected an integer, got {x!r}")


class Laurent:
    """An element of Z[v, v^-1], stored as {exponent: nonzero int}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | int | None = None):
        if terms is None:
            self._terms = {}
        elif isinstance(terms, int):
            self._terms = {0: terms} if terms else {}
        else:
            self._terms = {int(e): int(c) for e, c in terms.items() if c}

    @classmethod
    def _raw(cls, terms: dict) -> "Laurent":
        """Wrap an already-normalized dict without copying.  Internal."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Laurent":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Laurent":
        return cls._raw({0: 1})

    @classmethod
    def v(cls, exp: int = 1) -> "Laurent":
        return cls._raw({exp: 1})

    @classmethod
    def q(cls, power: int = 1) -> "Laurent":
        """q = v^2; negative powers give q^-1 etc."""
        return cls._raw({2 * power: 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Laurent | int") -> "Laurent":
        other = _coerce(other)
        return Laurent._raw(kernels.lp_add(self._terms, other._terms))

    __radd__ = __add__

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        other = _coerce(other)
        return Laurent._raw(kernels.lp_sub(self._terms, other._terms))

    def __rsub__(self, other: "Laurent | int") -> "Laurent":
        return _coerce(other) - self

    def __neg__(self) -> "Laurent":
        return Laurent._raw(kernels.lp_neg(self._terms))

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, Laurent):
            return Laurent._raw(kernels.lp_mul(self._terms, other._terms))
        if isinstance(other, int):
            return Laurent._raw(kernels.lp_scale(self._terms, other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Laurent":
        if k < 0:
            raise ValueError("negative powers are not defined in Z[v, v^-1]")
        out = Laurent.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "Laurent":
        """Multiply by the unit v^k."""
        return Laurent._raw(kernels.lp_shift(self._terms, k))

    def bar(self) -> "Laurent":
        """The bar involution v -> v^-1."""
        return Laurent._raw(kernels.lp_bar(self._terms))

    def __invert__(self) -> "Laurent":
        """Invert a unit monomial c*v^k with c = +-1; errors otherwise."""
        if len(self._terms) != 1:
            raise ValueError(f"not a unit in Z[v, v^-1]: {self}")
        ((e, c),) = self._terms.items()
        if c not in (1, -1):
            raise ValueError(f"not a unit in Z[v, v^-1]: {self}")
        return Laurent._raw({-e: c})

    def divexact(self, other: "Laurent") -> "Laurent":
        """Exact division; raises ValueError when other does not divide self.

        Plain long division after shifting both operands into Z[v]; every
        intermediate step must divide over the integers.
        """
        if not other._terms:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if not self._terms:
            return Laurent.zero()
        num = dict(self._terms)
        dmin = min(other._terms)
        dmax = max(other._terms)
        dlead = other._terms[dmax]
        # quotient exponents of an exact division live in this range
        emin = min(self._terms) - dmin
        quot: dict[int, int] = {}
        while num:
            nmax = max(num)
            e = nmax - dmax
            c, rem = divmod(num[nmax], dlead)
            if rem or e < emin:
                raise ValueError(f"{other} does not divide {self}")
            quot[e] = c
            for eo, co in other._terms.items():
                k = eo + e
                s = num.get(k, 0) - c * co
                if s:
                    num[k] = s
                else:
                    num.pop(k, None)
        return Laurent._raw(quot)

    # -- specialization ----------------------------------------------------

    def specialize_v1(self) -> int:
        """The image under v -> 1 (so q -> 1)."""
        return kernels.lp_eval_one(self._terms)

    def eval_mod(self, x: int, p: int) -> int:
        """Evaluate at v = x over Z/p (x invertible mod p)."""
        return kernels.lp_eval_mod(self._terms, x, p)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    @property
    def degree(self) -> int:
        """Largest v-exponent; raises on zero."""
        return max(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                vp = "v" if e == 1 else f"v^{e}"
                body = vp if abs(c) == 1 else f"{abs(c)}*{vp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict[str, int]:
        return {str(e): c for e, c in sorted(self._terms.items())}

    @classmethod
    def from_obj(cls, obj: Mapping[str, int]) -> "Laurent":
        if not isinstance(obj, Mapping):
            raise ValueError("Laurent JSON object must be a mapping")
        try:
            return cls({payload_int(e, key=True): payload_int(c) for e, c in obj.items()})
        except ValueError as exc:
            raise ValueError(f"malformed Laurent coefficients: {obj!r}") from exc

    def raw(self) -> dict:
        """The underlying dict; treat as read-only.  Internal plumbing."""
        return self._terms


def _coerce(x: "Laurent | int") -> Laurent:
    if isinstance(x, Laurent):
        return x
    if isinstance(x, int):
        return Laurent._raw({0: x} if x else {})
    raise TypeError(f"cannot coerce {type(x).__name__} into Z[v, v^-1]")


def quantum_integer(a: int) -> Laurent:
    """[a] = (v^a - v^-a)/(v - v^-1) = v^(a-1) + v^(a-3) + ... + v^(1-a).

    >>> quantum_integer(3)
    v^2 + 1 + v^-2
    >>> quantum_integer(-2)
    -v - v^-1
    """
    if a == 0:
        return Laurent.zero()
    s = 1 if a > 0 else -1
    return Laurent._raw({e: s for e in range(1 - abs(a), abs(a), 2)})


def addmul_into(out: dict, terms: dict, coeff: dict | None = None) -> None:
    """out += coeff * terms, in place, for raw {key: Laurent dict}
    combinations; coeff is a raw Laurent dict (None for 1).  Keys whose
    coefficient cancels are dropped, so out never holds an empty dict."""
    if coeff is None:
        for key, c in terms.items():
            acc = out.get(key)
            if acc is None:
                if c:
                    out[key] = dict(c)
            else:
                kernels.lp_add_into(acc, c)
                if not acc:
                    del out[key]
    elif coeff:
        for key, c in terms.items():
            acc = out.get(key)
            if acc is None:
                if c:
                    out[key] = kernels.lp_mul(c, coeff)
            else:
                kernels.lp_addmul_into(acc, c, coeff)
                if not acc:
                    del out[key]


def addmul_term(out: dict, key, c: dict, coeff: dict | None = None) -> None:
    """out[key] += coeff * c for one raw Laurent dict c: addmul_into for a
    single key, with the same rule that a cancelled key is dropped."""
    acc = out.get(key)
    if acc is None:
        if c and (coeff is None or coeff):
            out[key] = dict(c) if coeff is None else kernels.lp_mul(c, coeff)
        return
    if coeff is None:
        kernels.lp_add_into(acc, c)
    else:
        kernels.lp_addmul_into(acc, c, coeff)
    if not acc:
        del out[key]


_MINUS_ONE = {0: -1}


class LaurentCombination:
    """A finite Z[v, v^-1]-combination of basis keys: the linear structure,
    JSON shape, term order and repr shared by the Hecke, Schur, q-tensor,
    algebra and tensor-space elements.

    The terms are a dict {key: raw Laurent dict} with no zero coefficients.
    A subclass names in _SHAPE the attributes that fix its module (elements
    combine only when those agree, else ValueError(_MISMATCH)) and gives its
    key codec: _order sorts the keys, _key_obj and _key_str write one key as
    the JSON fields _FIELDS and as repr text, and _entry_terms reads one JSON
    term back as the raw terms of its basis element.  Elements compare equal
    by class, shape and terms, and are unhashable unless the subclass
    defines __hash__.
    """

    __slots__ = ("_terms",)
    _SHAPE: tuple[str, ...] = ()
    _MISMATCH = "shape mismatch"
    _NOUN = "element"
    _FIELDS: tuple[str, ...] = ()
    _order = None

    @classmethod
    def _raw(cls, *args):
        """_raw(*shape, terms): wrap an already-normalized dict without
        copying.  Internal."""
        out = object.__new__(cls)
        for name, value in zip(cls._SHAPE, args):
            setattr(out, name, value)
        out._terms = args[-1]
        return out

    @classmethod
    def _check_shape(cls, *shape) -> None:
        """Raise ValueError unless every shape value is at least 1."""
        if any(x < 1 for x in shape):
            raise ValueError(f"{' and '.join(cls._SHAPE)} must be positive, got {shape}")

    @classmethod
    def zero(cls, *shape):
        cls._check_shape(*shape)
        return cls._raw(*shape, {})

    def _shape(self) -> tuple:
        return tuple(getattr(self, name) for name in self._SHAPE)

    def _like(self, terms: dict):
        return self._raw(*self._shape(), terms)

    def _combined(self, other, coeff: dict | None):
        if type(other) is not type(self):
            return NotImplemented
        if self._shape() != other._shape():
            raise ValueError(self._MISMATCH)
        out = {k: dict(c) for k, c in self._terms.items()}
        addmul_into(out, other._terms, coeff)
        return self._like(out)

    def __add__(self, other):
        return self._combined(other, None)

    def __sub__(self, other):
        return self._combined(other, _MINUS_ONE)

    def __neg__(self):
        return self._like({k: kernels.lp_neg(c) for k, c in self._terms.items()})

    def scale(self, c: "Laurent | int"):
        raw = _coerce(c).raw()
        if not raw:
            return self._like({})
        return self._like({k: kernels.lp_mul(t, raw) for k, t in self._terms.items()})

    def __rmul__(self, other: "Laurent | int"):
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self._terms == other._terms

    def _keys(self) -> list:
        """The keys in the subclass's term order."""
        return sorted(self._terms, key=self._order)

    def __repr__(self) -> str:
        if not self._terms:
            return f"{type(self).__name__}.zero({', '.join(str(x) for x in self._shape())})"
        terms = self._terms
        return " + ".join(f"({Laurent._raw(terms[k])})*{self._key_str(k)}" for k in self._keys())

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        """{shape fields..., "terms": [{key fields..., "coeff":
        Laurent.to_obj()}]}, the terms in the subclass's order."""
        terms = self._terms
        obj = dict(zip(self._SHAPE, self._shape()))
        obj["terms"] = [
            {**self._key_obj(k), "coeff": {str(e): c for e, c in sorted(terms[k].items())}}
            for k in self._keys()
        ]
        return obj

    @classmethod
    def from_obj(cls, obj: Mapping):
        """The inverse of to_obj.  Equal keys add up, and each term is read
        as its basis element, so a non-normal key is normalized."""
        if not isinstance(obj, Mapping) or not all(name in obj for name in cls._SHAPE + ("terms",)):
            raise ValueError(f"malformed {cls._NOUN}: {obj!r}")
        shape = tuple(payload_int(obj[name]) for name in cls._SHAPE)
        cls._check_shape(*shape)
        entries = obj["terms"]
        if not isinstance(entries, list):
            raise ValueError(f"malformed term list: expected a JSON array, got {type(entries).__name__}")
        fields = cls._FIELDS + ("coeff",)
        total: dict = {}
        for entry in entries:
            if not isinstance(entry, Mapping) or not all(f in entry for f in fields):
                raise ValueError(f"malformed {cls._NOUN} term: {entry!r}")
            addmul_into(total, cls._entry_terms(shape, entry), Laurent.from_obj(entry["coeff"]).raw())
        return cls._raw(*shape, total)

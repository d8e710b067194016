"""The extended affine symmetric group in window notation.

An element is a bijection w of the integers satisfying the periodicity
``(t + r)w = (t)w + r`` and is stored by its window ``((1)w, ..., (r)w)``.
Composition is postfix throughout the package: ``(t)(uw) = ((t)u)w``.
The window entries always form a complete residue system mod r; the window
sums to ``r(r+1)/2`` exactly when the element lies in the Coxeter subgroup
generated by the simple reflections ``s_1, ..., s_r``.  The full group is
the semidirect product of that Coxeter subgroup with the cyclic group
generated by the shift ``rho: t -> t + 1``, and every element factors
uniquely as ``rho^z * w`` with ``w`` in the Coxeter subgroup.

Length is the crossing count ``#{(i, j): 1 <= i <= r, i < j, (i)w > (j)w}``,
which vanishes on powers of rho.  Descents come from window comparisons:
``s_i * w`` is shorter than ``w`` iff ``(i)w > (i+1)w``, and ``w * s_i`` is
shorter iff the same holds for ``w^-1``.

>>> w = WindowPerm((4, 2, 3))
>>> w.length()
2
>>> w.rho_decompose()[0]
1
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from affineschur._backend import kernels

__all__ = [
    "WindowPerm",
    "ParabolicIndex",
    "bruhat_leq",
    "enumerate_up_to_length",
    "coset_decompose",
    "is_distinguished",
    "double_coset_rep",
    "double_coset",
    "longest_double_coset_elt",
]

MIN_RANK = 3


class WindowPerm:
    """One element of the extended affine symmetric group on r strands."""

    __slots__ = ("window", "_len")

    def __init__(self, window: Sequence[int]):
        window = tuple(int(t) for t in window)
        r = len(window)
        if r < MIN_RANK:
            raise ValueError(f"rank r={r} not supported; need r >= {MIN_RANK}")
        if sorted(t % r for t in window) != list(range(r)):
            raise ValueError(f"window {window} is not a complete residue system mod {r}")
        self.window = window
        self._len = None

    @classmethod
    def _unsafe(cls, window: tuple[int, ...]) -> "WindowPerm":
        out = object.__new__(cls)
        out.window = window
        out._len = None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, r: int) -> "WindowPerm":
        if r < MIN_RANK:
            raise ValueError(f"rank r={r} not supported; need r >= {MIN_RANK}")
        return cls._unsafe(tuple(range(1, r + 1)))

    @classmethod
    def s(cls, r: int, i: int) -> "WindowPerm":
        """The simple reflection s_i, swapping the residue classes of i, i+1."""
        if r < MIN_RANK:
            raise ValueError(f"rank r={r} not supported; need r >= {MIN_RANK}")
        i = (i - 1) % r + 1
        win = list(range(1, r + 1))
        if i == r:
            win[0] = 0
            win[r - 1] = r + 1
        else:
            win[i - 1] = i + 1
            win[i] = i
        return cls._unsafe(tuple(win))

    @classmethod
    def rho(cls, r: int, z: int = 1) -> "WindowPerm":
        """The shift t -> t + z (the extending element for z = 1)."""
        if r < MIN_RANK:
            raise ValueError(f"rank r={r} not supported; need r >= {MIN_RANK}")
        return cls._unsafe(tuple(range(1 + z, r + 1 + z)))

    @classmethod
    def from_word(cls, r: int, word: Iterable[int], z: int = 0) -> "WindowPerm":
        """rho^z * s_{i_1} * ... * s_{i_k} for word = (i_1, ..., i_k)."""
        w = cls.rho(r, z) if z else cls.identity(r)
        for i in word:
            w = w * cls.s(r, i)
        return w

    # -- the group ---------------------------------------------------------

    @property
    def r(self) -> int:
        return len(self.window)

    def apply(self, t: int) -> int:
        """(t)w for any integer t."""
        return kernels.win_apply(self.window, t)

    def __mul__(self, other: "WindowPerm") -> "WindowPerm":
        if self.r != other.r:
            raise ValueError("rank mismatch")
        return WindowPerm._unsafe(kernels.win_compose(self.window, other.window))

    def inverse(self) -> "WindowPerm":
        return WindowPerm._unsafe(kernels.win_inverse(self.window))

    def length(self) -> int:
        if self._len is None:
            self._len = kernels.win_length(self.window)
        return self._len

    # -- descents ----------------------------------------------------------

    def left_descents(self) -> frozenset[int]:
        """Generators i with s_i * w shorter than w."""
        win = self.window
        return frozenset(
            i for i in range(1, self.r + 1) if kernels.win_apply(win, i) > kernels.win_apply(win, i + 1)
        )

    def right_descents(self) -> frozenset[int]:
        """Generators i with w * s_i shorter than w."""
        win = self.window
        return frozenset(
            i for i in range(1, self.r + 1) if kernels.win_pos(win, i) > kernels.win_pos(win, i + 1)
        )

    # -- canonical factorizations -----------------------------------------

    def in_coxeter_part(self) -> bool:
        r = self.r
        return sum(self.window) == r * (r + 1) // 2

    def rho_power(self) -> int:
        r = self.r
        return (sum(self.window) - r * (r + 1) // 2) // r

    def rho_decompose(self) -> tuple[int, "WindowPerm"]:
        """The unique (z, c) with self = rho^z * c and c in the Coxeter part."""
        z = self.rho_power()
        return z, WindowPerm._unsafe(kernels.win_rot(self.window, -z))

    def reduced_word(self) -> tuple[int, tuple[int, ...]]:
        """(z, word) with self = rho^z * s_{i_1} * ... * s_{i_m}, m minimal.

        Deterministic: each step strips the smallest right descent.
        """
        z, c = self.rho_decompose()
        letters: list[int] = []
        win = c.window
        r = len(win)
        while True:
            i = next(
                (i for i in range(1, r + 1) if kernels.win_pos(win, i) > kernels.win_pos(win, i + 1)),
                None,
            )
            if i is None:
                break
            letters.append(i)
            win = kernels.win_mul_s_right(win, i)
        if win != tuple(range(1, r + 1)):
            raise AssertionError("descent stripping failed to reach the identity")
        return z, tuple(reversed(letters))

    def semidirect_decompose(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Split into a finite permutation and a translation vector.

        Returns (perm, shifts): perm is the window of the finite part (the
        residues of self's window), and shifts[j-1] counts how many times the
        residue class j is translated by r, so that
        ``window[s-1] = perm[s-1] + r * shifts[perm[s-1] - 1]``.
        """
        r = self.r
        perm = []
        shifts = [0] * r
        for val in self.window:
            j = (val - 1) % r + 1
            perm.append(j)
            shifts[j - 1] = (val - j) // r
        return tuple(perm), tuple(shifts)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowPerm):
            return NotImplemented
        return self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"WindowPerm({list(self.window)})"

    def to_obj(self) -> dict:
        return {"r": self.r, "window": list(self.window)}

    @classmethod
    def from_obj(cls, obj: Mapping) -> "WindowPerm":
        if not isinstance(obj, Mapping) or "window" not in obj:
            raise ValueError(f"malformed window permutation: {obj!r}")
        window = obj["window"]
        if not isinstance(window, Sequence) or isinstance(window, (str, bytes)):
            raise ValueError(f"malformed window: {window!r}")
        w = cls(window)
        if "r" in obj and int(obj["r"]) != w.r:
            raise ValueError(f"window length {w.r} does not match declared r={obj['r']}")
        return w


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_leq(y: WindowPerm, w: WindowPerm) -> bool:
    """Bruhat order, extended so rho^a * y <= rho^b * w needs a == b.

    On the Coxeter part this is the subword test against one stored reduced
    expression of w, run as the standard lifting recursion and memoized.
    """
    if y.r != w.r:
        raise ValueError("rank mismatch")
    za, cy = y.rho_decompose()
    zb, cw = w.rho_decompose()
    if za != zb:
        return False
    return _bruhat_cox(cy.window, cw.window)


@lru_cache(maxsize=1 << 18)
def _bruhat_cox(ywin: tuple[int, ...], wwin: tuple[int, ...]) -> bool:
    if ywin == wwin:
        return True
    ly = kernels.win_length(ywin)
    lw = kernels.win_length(wwin)
    if ly >= lw:
        return False
    if lw == 0:
        return ly == 0
    # first letter of a fixed reduced expression is a left descent of w
    r = len(wwin)
    i = next(i for i in range(1, r + 1) if kernels.win_apply(wwin, i) > kernels.win_apply(wwin, i + 1))
    swwin = kernels.win_mul_s_left(wwin, i)
    if kernels.win_apply(ywin, i) > kernels.win_apply(ywin, i + 1):
        return _bruhat_cox(kernels.win_mul_s_left(ywin, i), swwin)
    return _bruhat_cox(ywin, swwin)


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_up_to_length(
    r: int, length: int, extended: bool = False, rho_bound: int = 0
) -> list[WindowPerm]:
    """All Coxeter-part elements of length <= length, via breadth first
    search over the simple reflections; with ``extended`` the list is crossed
    with rho powers in [-rho_bound, rho_bound]."""
    if r < MIN_RANK:
        raise ValueError(f"rank r={r} not supported; need r >= {MIN_RANK}")
    gens = [WindowPerm.s(r, i).window for i in range(1, r + 1)]
    seen = {tuple(range(1, r + 1))}
    frontier = list(seen)
    out = list(seen)
    for _ in range(length):
        nxt = []
        for win in frontier:
            for g in gens:
                prod = kernels.win_compose(win, g)
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
        result.extend(WindowPerm._unsafe(kernels.win_rot(w.window, z)) for w in elements)
    return result


# ---------------------------------------------------------------------------
# Parabolic subgroups


class ParabolicIndex:
    """A proper subset of the simple reflections, with an optional shift.

    ``members`` are generator indices in 1..r; the shift t turns each s_i
    into s_{i+t} (indices mod r), which is how conjugation by rho^t moves a
    parabolic subgroup.  The subset must stay proper so the subgroup stays
    finite.
    """

    __slots__ = ("r", "members", "shift", "_elements")

    def __init__(self, r: int, members: Iterable[int], shift: int = 0):
        if r < MIN_RANK:
            raise ValueError(f"rank r={r} not supported; need r >= {MIN_RANK}")
        members = frozenset((int(i) - 1) % r + 1 for i in members)
        if len(members) >= r:
            raise ValueError("parabolic index must be a proper subset of the generators")
        self.r = r
        self.members = members
        self.shift = int(shift)
        self._elements = None

    @property
    def generators(self) -> frozenset[int]:
        """Effective generator indices after applying the shift."""
        return frozenset((i + self.shift - 1) % self.r + 1 for i in self.members)

    def shifted(self, t: int) -> "ParabolicIndex":
        return ParabolicIndex(self.r, self.members, self.shift + t)

    def elements(self) -> tuple[WindowPerm, ...]:
        """The full (finite) parabolic subgroup, by closure under generation."""
        if self._elements is None:
            gens = [WindowPerm.s(self.r, i).window for i in sorted(self.generators)]
            seen = {tuple(range(1, self.r + 1))}
            frontier = list(seen)
            while frontier:
                nxt = []
                for win in frontier:
                    for g in gens:
                        prod = kernels.win_compose(win, g)
                        if prod not in seen:
                            seen.add(prod)
                            nxt.append(prod)
                frontier = nxt
            self._elements = tuple(
                WindowPerm._unsafe(w) for w in sorted(seen, key=lambda w: (kernels.win_length(w), w))
            )
        return self._elements

    def longest_element(self) -> WindowPerm:
        """The unique maximal-length element, found by greedy ascent."""
        gens = sorted(self.generators)
        w = WindowPerm.identity(self.r)
        while True:
            i = next((i for i in gens if i not in w.right_descents()), None)
            if i is None:
                return w
            w = w * WindowPerm.s(self.r, i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParabolicIndex):
            return NotImplemented
        return (self.r, self.generators) == (other.r, other.generators)

    def __hash__(self) -> int:
        return hash((self.r, self.generators))

    def __repr__(self) -> str:
        base = f"ParabolicIndex({self.r}, {sorted(self.members)}"
        return base + (f", shift={self.shift})" if self.shift else ")")

    def to_obj(self) -> dict:
        return {"r": self.r, "members": sorted(self.members), "shift": self.shift}

    @classmethod
    def from_obj(cls, obj: Mapping) -> "ParabolicIndex":
        if not isinstance(obj, Mapping) or "members" not in obj or "r" not in obj:
            raise ValueError(f"malformed parabolic index: {obj!r}")
        return cls(int(obj["r"]), obj["members"], int(obj.get("shift", 0)))


# ---------------------------------------------------------------------------
# Cosets


def is_distinguished(w: WindowPerm, pi: ParabolicIndex) -> bool:
    """True iff w is the shortest element of its coset (parabolic on the
    left), equivalently (i)w < (i+1)w for every generator index i of pi."""
    win = w.window
    return all(kernels.win_apply(win, i) < kernels.win_apply(win, i + 1) for i in pi.generators)


def coset_decompose(w: WindowPerm, pi: ParabolicIndex) -> tuple[WindowPerm, WindowPerm]:
    """The unique (u, d) with w = u * d, u in the parabolic, d distinguished;
    lengths add.  Runs by stripping left descents lying in pi."""
    gens = sorted(pi.generators)
    letters: list[int] = []
    win = w.window
    while True:
        i = next(
            (i for i in gens if kernels.win_apply(win, i) > kernels.win_apply(win, i + 1)), None
        )
        if i is None:
            break
        letters.append(i)
        win = kernels.win_mul_s_left(win, i)
    u = WindowPerm.identity(w.r)
    for i in letters:
        u = u * WindowPerm.s(w.r, i)
    return u, WindowPerm._unsafe(win)


def double_coset_rep(w: WindowPerm, left: ParabolicIndex, right: ParabolicIndex) -> WindowPerm:
    """The unique minimal-length element of the (left, right) double coset of
    w, by alternately stripping descents on both sides."""
    lgens = sorted(left.generators)
    rgens = sorted(right.generators)
    win = w.window
    changed = True
    while changed:
        changed = False
        for i in lgens:
            while kernels.win_apply(win, i) > kernels.win_apply(win, i + 1):
                win = kernels.win_mul_s_left(win, i)
                changed = True
        for i in rgens:
            while kernels.win_pos(win, i) > kernels.win_pos(win, i + 1):
                win = kernels.win_mul_s_right(win, i)
                changed = True
    return WindowPerm._unsafe(win)


def double_coset(d: WindowPerm, left: ParabolicIndex, right: ParabolicIndex) -> frozenset[WindowPerm]:
    """The full double coset of d (a finite set: both parabolics are)."""
    out = set()
    for u in left.elements():
        ud = u * d
        for x in right.elements():
            out.add(ud * x)
    return frozenset(out)


def longest_double_coset_elt(
    d: WindowPerm, left: ParabolicIndex, right: ParabolicIndex
) -> WindowPerm:
    """The unique maximal-length element of the double coset of d; raises if
    the maximum is not unique (it always is for distinguished d)."""
    best: list[WindowPerm] = []
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


def young_subgroup_of_key(parts: Sequence[int], r: int) -> ParabolicIndex:
    """Young parabolic of a composition: s_i for i, i+1 in the same block."""
    members = []
    pos = 0
    for part in parts:
        for i in range(pos + 1, pos + part):
            members.append(i)
        pos += part
    if pos != r:
        raise ValueError(f"composition {parts} does not sum to r={r}")
    return ParabolicIndex(r, members)


def all_proper_parabolics(r: int) -> list[ParabolicIndex]:
    """Every proper subset of the generators, as a ParabolicIndex."""
    out = []
    for k in range(r):
        for members in itertools.combinations(range(1, r + 1), k):
            out.append(ParabolicIndex(r, members))
    return out

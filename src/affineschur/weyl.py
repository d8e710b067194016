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
shorter iff the same holds for ``w^-1``.  Every descent test of the package
is one of the two window kernels win_is_left_descent and win_is_right_descent.

check_rank is the one test of the rank: r >= MIN_RANK.  _closure is the one
breadth first search over simple reflections, from the identity; it lists
both the elements up to a length and the finite parabolic subgroups.

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
from affineschur.laurent import payload_int

__all__ = [
    "WindowPerm",
    "ParabolicIndex",
    "bruhat_leq",
    "enumerate_up_to_length",
    "coset_decompose",
    "is_distinguished",
    "double_coset_rep",
    "longest_double_coset_elt",
]

MIN_RANK = 3


def check_rank(r: int) -> None:
    """Refuse a rank the package does not support; the one test of r."""
    if r < MIN_RANK:
        raise ValueError(f"rank r={r} not supported; need r >= {MIN_RANK}")


class WindowPerm:
    """One element of the extended affine symmetric group on r strands."""

    # _offs: win_offsets(window), filled the first time w is a right factor
    __slots__ = ("window", "_len", "_offs")

    def __init__(self, window: Sequence[int]):
        window = tuple(int(t) for t in window)
        r = len(window)
        check_rank(r)
        if sorted(t % r for t in window) != list(range(r)):
            raise ValueError(f"window {window} is not a complete residue system mod {r}")
        self.window = window
        self._len = self._offs = None

    @classmethod
    def _unsafe(cls, window: tuple[int, ...]) -> "WindowPerm":
        out = object.__new__(cls)
        out.window = window
        out._len = out._offs = None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, r: int) -> "WindowPerm":
        check_rank(r)
        return cls._unsafe(tuple(range(1, r + 1)))

    @classmethod
    def s(cls, r: int, i: int) -> "WindowPerm":
        """The simple reflection s_i, swapping the residue classes of i, i+1."""
        check_rank(r)
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
        check_rank(r)
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
        if len(self.window) != len(other.window):
            raise ValueError("rank mismatch")
        o = other._offs
        if o is None:
            o = other._offs = kernels.win_offsets(other.window)
        out = object.__new__(WindowPerm)
        out.window = kernels.win_compose_offsets(self.window, o)
        out._len = out._offs = None
        return out

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
        return frozenset(i for i in range(1, self.r + 1) if kernels.win_is_left_descent(win, i))

    def right_descents(self) -> frozenset[int]:
        """Generators i with w * s_i shorter than w."""
        win = self.window
        return frozenset(i for i in range(1, self.r + 1) if kernels.win_is_right_descent(win, i))

    # -- canonical factorizations -----------------------------------------

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
            i = next((i for i in range(1, r + 1) if kernels.win_is_right_descent(win, i)), None)
            if i is None:
                break
            letters.append(i)
            win = kernels.win_mul_s_right(win, i)
        if win != tuple(range(1, r + 1)):
            raise AssertionError("descent stripping failed to reach the identity")
        return z, tuple(reversed(letters))

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
        w = cls([payload_int(t) for t in window])
        if "r" in obj and payload_int(obj["r"]) != w.r:
            raise ValueError(f"window length {w.r} does not match declared r={obj['r']}")
        return w


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_leq(y: WindowPerm, w: WindowPerm) -> bool:
    """Bruhat order, extended so rho^a * y <= rho^b * w needs a == b.

    On the Coxeter part this is the subword test against one reduced
    expression of w, run as the standard lifting property: a loop of at
    most l(w) steps.
    """
    if y.r != w.r:
        raise ValueError("rank mismatch")
    za, cy = y.rho_decompose()
    zb, cw = w.rho_decompose()
    if za != zb:
        return False
    return _bruhat_cox(cy.window, cw.window)


def _bruhat_cox(ywin: tuple[int, ...], wwin: tuple[int, ...]) -> bool:
    # the lifting property: strip the first letter s of w's reduced word (a
    # left descent), and s from y too when it is a left descent of y
    ly = kernels.win_length(ywin)
    lw = kernels.win_length(wwin)
    r = len(wwin)
    while ly < lw:
        i = next(i for i in range(1, r + 1) if kernels.win_is_left_descent(wwin, i))
        wwin = kernels.win_mul_s_left(wwin, i)
        lw -= 1
        if kernels.win_is_left_descent(ywin, i):
            ywin = kernels.win_mul_s_left(ywin, i)
            ly -= 1
    return ywin == wwin


# ---------------------------------------------------------------------------
# Enumeration


def _closure(r: int, gens: Iterable[int], depth: int | None = None) -> list[tuple[int, ...]]:
    """The windows of the products of at most depth simple reflections s_i,
    i in gens (any number for None), by breadth first search from the
    identity: each level multiplies the last one's windows on the right by
    each s_i in turn, and the windows come back in the order found."""
    steps = [kernels.win_offsets(WindowPerm.s(r, i).window) for i in gens]
    frontier = [tuple(range(1, r + 1))]
    out = list(frontier)
    seen = set(frontier)
    level = 0
    while frontier and (depth is None or level < depth):
        nxt = []
        for win in frontier:
            for g in steps:
                prod = kernels.win_compose_offsets(win, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        out.extend(nxt)
        frontier = nxt
        level += 1
    return out


def enumerate_up_to_length(
    r: int, length: int, extended: bool = False, rho_bound: int = 0
) -> list[WindowPerm]:
    """All Coxeter-part elements of length <= length, in the order _closure
    finds them; with ``extended`` the list is crossed with rho powers in
    [-rho_bound, rho_bound], and a rho_bound without it is refused."""
    check_rank(r)
    if rho_bound and not extended:
        raise ValueError(f"rho_bound={rho_bound} needs extended=True")
    elements = [WindowPerm._unsafe(win) for win in _closure(r, range(1, r + 1), length)]
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
        check_rank(r)
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
            wins = sorted(_closure(self.r, sorted(self.generators)), key=lambda w: (kernels.win_length(w), w))
            self._elements = tuple(WindowPerm._unsafe(w) for w in wins)
        return self._elements

    def longest_element(self) -> WindowPerm:
        """The unique maximal-length element: the top of the double coset of
        the identity with nothing on the left."""
        return longest_double_coset_elt(WindowPerm.identity(self.r), ParabolicIndex(self.r, ()), self)

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
        members = [payload_int(i) for i in obj["members"]]
        return cls(payload_int(obj["r"]), members, payload_int(obj.get("shift", 0)))


# ---------------------------------------------------------------------------
# Cosets


def _same_rank(w: WindowPerm, *parabolics: ParabolicIndex) -> None:
    """Refuse parabolics of another rank than w, before any work."""
    if any(pi.r != w.r for pi in parabolics):
        raise ValueError("rank mismatch")


def is_distinguished(w: WindowPerm, pi: ParabolicIndex) -> bool:
    """True iff w is the shortest element of its coset (parabolic on the
    left), equivalently (i)w < (i+1)w for every generator index i of pi."""
    _same_rank(w, pi)
    win = w.window
    return not any(kernels.win_is_left_descent(win, i) for i in pi.generators)


def coset_decompose(w: WindowPerm, pi: ParabolicIndex) -> tuple[WindowPerm, WindowPerm]:
    """The unique (u, d) with w = u * d, u in the parabolic, d distinguished;
    lengths add.  Runs by stripping left descents lying in pi."""
    _same_rank(w, pi)
    _, dwin = _coset_split(w.window, sorted(pi.generators))
    d = WindowPerm._unsafe(dwin)
    return w * d.inverse(), d


def _coset_split(win: tuple[int, ...], gens: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(k, d) with w = u * d for w of window win, u in the parabolic of gens
    (sorted) with length k and d distinguished, by stripping the smallest
    left descent in gens until none is left; more than L(gens) steps (see
    _climb) raise ValueError."""
    k = 0
    bound = len(gens) * (len(gens) + 1) // 2
    while True:
        for i in gens:
            if kernels.win_is_left_descent(win, i):
                break
        else:
            return k, win
        if k == bound:
            raise ValueError(f"coset split took more than {bound} steps: a descent test is wrong")
        k += 1
        win = kernels.win_mul_s_left(win, i)


def _climb(win: tuple[int, ...], left: ParabolicIndex, right: ParabolicIndex, up: bool) -> tuple[int, ...]:
    """Multiply win by the smallest generator of left on the left, else of
    right on the right, that is an ascent (up) or a descent (not up), until
    none is: one length step in the finite double coset each, so more than
    L(lgens) + L(rgens), L(g) = |g|(|g|+1)/2 >= l(w_0), raise ValueError."""
    lgens = sorted(left.generators)
    rgens = sorted(right.generators)
    bound = (len(lgens) * (len(lgens) + 1) + len(rgens) * (len(rgens) + 1)) // 2
    for _ in range(bound + 1):
        i = next((i for i in lgens if kernels.win_is_left_descent(win, i) != up), None)
        if i is not None:
            win = kernels.win_mul_s_left(win, i)
            continue
        i = next((i for i in rgens if kernels.win_is_right_descent(win, i) != up), None)
        if i is None:
            return win
        win = kernels.win_mul_s_right(win, i)
    raise ValueError(f"double coset climb took more than {bound} steps: a descent test is wrong")


def double_coset_rep(w: WindowPerm, left: ParabolicIndex, right: ParabolicIndex) -> WindowPerm:
    """The unique minimal-length element of the (left, right) double coset of
    w, by stripping descents on both sides (_climb)."""
    _same_rank(w, left, right)
    return WindowPerm._unsafe(_climb(w.window, left, right, False))


def longest_double_coset_elt(
    d: WindowPerm, left: ParabolicIndex, right: ParabolicIndex
) -> WindowPerm:
    """The unique maximal-length element of the double coset of d, by greedy
    ascent (_climb): it stops at an element with no ascent in left or
    right, which is the coset's top (_is_double_coset_top)."""
    _same_rank(d, left, right)
    return WindowPerm._unsafe(_climb(d.window, left, right, True))


def _is_double_coset_top(win: tuple[int, ...], lgens: Sequence[int], rgens: Sequence[int]) -> bool:
    """True iff w is the longest element of its (lgens, rgens) double coset:
    every generator in lgens is a left descent of w and every generator in
    rgens a right descent."""
    return all(kernels.win_is_left_descent(win, i) for i in lgens) and all(
        kernels.win_is_right_descent(win, i) for i in rgens
    )


def young_subgroup_of_key(parts: Sequence[int], r: int) -> ParabolicIndex:
    """Young parabolic of a composition: s_i for i, i+1 in the same block.
    One shared ParabolicIndex per (parts, r), so its memo of elements is
    built once."""
    return _young_subgroup(tuple(parts), r)


@lru_cache(maxsize=None)
def _young_subgroup(parts: tuple, r: int) -> ParabolicIndex:
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

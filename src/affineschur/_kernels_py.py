"""The hot kernels, on plain containers; the other modules reach them
through ``affineschur._backend``:

* Laurent polynomials in v are dicts mapping int exponents to nonzero int
  coefficients; ``{}`` is zero.  Functions return freshly normalized dicts
  (no zero values); the ``*_into`` variants mutate their accumulator.
* Window permutations are tuples ``(w(1), ..., w(r))`` of ints whose residues
  mod r form a complete residue system.  The tuple describes a bijection of
  the integers with ``(t + r)w = (t)w + r``, and composition is postfix:
  ``(t)(uw) = ((t)u)w``.  win_compose_offsets is the one composition loop;
  it reads the table win_offsets(w), which a caller may keep for many u.
* Hecke algebra elements are dicts mapping window tuples to Laurent dicts;
  in a walk, int ids to packed ints, Laurent dicts at v = 2^width (lp_pack):
  ids inside the walk (walk_table), windows at its edges (hecke_unpack).
* Tensor-space vectors are dicts mapping int tuples (keys) to Laurent dicts.

The Hecke and tensor kernels hard-code q = v**2.  The window kernels and the
right generator step make one pass over a window, with one residue test per
entry; win_length is Shi's formula, a sum over the r(r-1)/2 pairs of entries.
win_is_left_descent compares two neighbouring entries, and every left-descent
test of the package goes through it.  E_i and F_i share one body,
_tensor_move, which moves a slot down (E) or up (F) by one.
The right generator step has one body, hecke_packed_mul_gen_right, which
the Hecke walks call.  hecke_mul_gen_right is that body between interning
and hecke_unpack; no module of the package calls it, and it stays only as
the timing entry of perfbench/kernels_bench.py.
"""

from __future__ import annotations

BACKEND = "pure-python"


# ---------------------------------------------------------------------------
# Laurent dictionaries


def lp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_sub(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_neg(a):
    return {e: -c for e, c in a.items()}


def lp_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def lp_scale(a, c):
    if not c:
        return {}
    return {e: c * ca for e, ca in a.items()}


def lp_shift(a, k):
    if not k:
        return dict(a)
    return {e + k: c for e, c in a.items()}


def lp_bar(a):
    return {-e: c for e, c in a.items()}


def lp_add_into(acc, a):
    for e, c in a.items():
        s = acc.get(e, 0) + c
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)


def lp_addmul_into(acc, a, b):
    """acc += a*b, mutating acc."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = acc.get(e, 0) + ca * cb
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)


def lp_eval_one(a):
    return sum(a.values())


def lp_eval_mod(a, x, p):
    """Evaluate at v = x over Z/p; x must be invertible mod p."""
    total = 0
    xinv = pow(x, -1, p)
    for e, c in a.items():
        base = pow(x if e >= 0 else xinv, abs(e), p)
        total = (total + c * base) % p
    return total


# ---------------------------------------------------------------------------
# Packed coefficients: the Kronecker substitution v -> 2^width
#
# lp_pack(a, offset, width) is the value of v^offset * a at v = 2^width, one
# exact int; offset + (the least exponent of a) must be >= 0.  The map is a
# ring homomorphism, so sums, products and multiplication by v^k (a left
# shift by k * width) may run on the ints.  lp_unpack reads the result back
# as balanced base-2^width digits, each in [-2^(width-1), 2^(width-1)); it
# returns a exactly when every coefficient of a has absolute value below
# 2^(width-1), which packed_width(bound) guarantees for coefficients <= bound.


def packed_width(bound):
    """The least width >= 2 with 2^(width-1) > bound, for a bound >= 0.  At
    width 1 the only digits are -1 and 0, and lp_unpack of 1 would not end."""
    return max(bound.bit_length() + 1, 2)


def lp_pack(a, offset, width):
    p = 0
    for e, c in a.items():
        p += c << (width * (e + offset))
    return p


def lp_unpack(p, offset, width):
    out = {}
    if not p:
        return out
    full = 1 << width
    half = full >> 1
    mask = full - 1
    # the low digits that are 0 are the low bits that are 0
    skip = ((p & -p).bit_length() - 1) // width
    p >>= skip * width
    e = skip - offset
    while p:
        d = p & mask
        if d >= half:
            d -= full
        if d:
            out[e] = d
        p = (p - d) >> width
        e += 1
    return out


def hecke_unpack(terms, offset, width, wins):
    """lp_unpack on every coefficient of a walk's {id: packed int} terms,
    keyed back by window, wins[k]; keys whose value is 0 are dropped."""
    return {wins[k]: lp_unpack(p, offset, width) for k, p in terms.items() if p}


# ---------------------------------------------------------------------------
# Window permutations


def win_apply(w, t):
    r = len(w)
    s = (t - 1) % r
    return w[s] + (t - 1 - s)


def win_offsets(w):
    """The residue-offset table o of w: (t)w = o[t % r] + t for every t."""
    o = [w[-1] - len(w)]
    t = 1
    for x in w[:-1]:
        o.append(x - t)
        t += 1
    return tuple(o)


def win_compose_offsets(u, o):
    """The window of u w, given o = win_offsets(w)."""
    r = len(o)
    out = []
    for x in u:
        out.append(o[x % r] + x)
    return tuple(out)


def win_compose(u, w):
    """u w at once; the timing entry of perfbench/kernels_bench.py."""
    return win_compose_offsets(u, win_offsets(w))


def win_inverse(w):
    r = len(w)
    out = [0] * r
    for j, val in enumerate(w):
        s = (val - 1) % r
        out[s] = j + 1 + (s + 1 - val)
    return tuple(out)


def win_length(w):
    """Shi's formula: the sum over 1 <= i < j <= r of |floor((w(j) - w(i)) / r)|."""
    r = len(w)
    total = 0
    j = 0
    for b in w:
        for a in w[:j]:
            total += abs((b - a) // r)
        j += 1
    return total


def win_add(w, z):
    """Window of w * rho**z (shift every value by z)."""
    if not z:
        return tuple(w)
    return tuple(v + z for v in w)


def win_rot(w, z):
    """Window of rho**z * w, i.e. t -> (t + z)w."""
    if not z:
        return tuple(w)
    return tuple(win_apply(w, t + z) for t in range(1, len(w) + 1))


def win_mul_s_right(w, i):
    """Window of w * s_i: swap the values i, i+1 in every congruence class."""
    r = len(w)
    out = list(w)
    j = 0
    for x in w:
        m = (x - i) % r
        if not m:
            out[j] = x + 1
        elif m == 1:
            out[j] = x - 1
        j += 1
    return tuple(out)


def win_mul_s_left(w, i):
    """Window of s_i * w: swap positions i, i+1 (periodically)."""
    r = len(w)
    out = list(w)
    if i == r:
        out[0] = w[r - 1] - r
        out[r - 1] = w[0] + r
    else:
        out[i - 1] = w[i]
        out[i] = w[i - 1]
    return tuple(out)


def win_is_left_descent(w, i):
    """True iff (i)w > (i+1)w, i.e. s_i * w is shorter than w; i in 1..r."""
    r = len(w)
    if i == r:
        return w[r - 1] > w[0] + r
    return w[i - 1] > w[i]


def win_is_right_descent(w, i):
    """True iff (i)w^-1 > (i+1)w^-1, i.e. w * s_i is shorter than w."""
    r = len(w)
    a = b = None  # (i)w^-1 - i - 1 and (i+1)w^-1 - i - 2
    j = 0
    for x in w:
        m = (x - i) % r
        if not m:
            if a is None:
                a = j - x
        elif m == 1 and b is None:
            b = j - x
        j += 1
    if a is None or b is None:
        raise ValueError("incomplete residue system in window")
    return a > b + 1


# ---------------------------------------------------------------------------
# Hecke elements: dict[window tuple, Laurent dict]


def walk_table():
    """(wins, ids, steps) of one walk: wins[k] is the window of id k, ids
    its inverse, steps the memo of hecke_packed_mul_gen_right."""
    return [], {}, {}


def win_id(table, w):
    """The id of window w in a walk's table, interning w on first sight."""
    wins, ids, _ = table
    k = ids.get(w)
    if k is None:
        k = ids[w] = len(wins)
        wins.append(w)
    return k


def hecke_mul_gen_right(terms, i):
    """terms * T_{s_i} on Laurent coefficients: lp_pack and intern, the
    packed step, hecke_unpack.  An output coefficient is at most
    3 * sum_w |c_w|_1 (see hecke_packed_mul_gen_right), which fixes the width."""
    lo = min((e for c in terms.values() for e in c), default=0)
    width = packed_width(3 * sum(abs(k) for c in terms.values() for k in c.values()))
    table = walk_table()
    packed = {win_id(table, w): lp_pack(c, -lo, width) for w, c in terms.items()}
    return hecke_unpack(hecke_packed_mul_gen_right(packed, i, 2 * width, table), -lo, width, table[0])


def hecke_packed_mul_gen_right(terms, i, shift, table):
    """T_w T_s = T_{ws} if ws > w, else q T_{ws} + (q - 1) T_w, on packed
    coefficients keyed by a walk's ids; q * p is p << shift (shift = 2 width
    at v = 2^width).  steps[i][k] of the table memoises (id of ws, whether
    ws < w); a miss makes one pass over w = wins[k], interning ws and finding
    a, b as in win_is_right_descent.  A walk passes one table to all of its
    steps, since most of its windows recur.  A term's image has l1 norm at
    most 3 times its own, so the step at most triples the l1 norm.  A
    cancelled key may stay with value 0; hecke_unpack drops it."""
    wins, _, steps = table
    memo = steps.get(i)
    if memo is None:
        memo = steps[i] = {}
    out = {}
    get = out.get
    for k, p in terms.items():
        hit = memo.get(k)
        if hit is None:
            w = wins[k]
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
            hit = memo[k] = (win_id(table, tuple(ws)), a > b + 1)
        ks, down = hit
        if down:
            qp = p << shift
            out[ks] = get(ks, 0) + qp
            out[k] = get(k, 0) + qp - p
        else:
            out[ks] = get(ks, 0) + p
    return out


# ---------------------------------------------------------------------------
# Tensor-space generator sweeps: dict[key tuple, Laurent dict]


def tensor_act_E(terms, i, n):
    return _tensor_move(terms, i, n, -1)


def tensor_act_F(terms, i, n):
    return _tensor_move(terms, i, n, 1)


def _tensor_move(terms, i, n, step):
    """The one body of E_i (step -1) and F_i (step +1): each slot of residue
    i+1 (for E) or i (for F) moves by step, weighted by v^wt, where the
    slots of residues i and i+1 after it (for E) or before it (for F) count
    -step and +step each."""
    before = step > 0
    moves = i if before else i + 1
    out = {}
    for key, c in terms.items():
        if not c:
            continue
        r = len(key)
        for t in range(r):
            if (key[t] - moves) % n:
                continue
            wt = 0
            for u in range(t) if before else range(t + 1, r):
                m = (key[u] - i) % n
                if m == 0:
                    wt -= step
                elif m == 1:
                    wt += step
            nk = key[:t] + (key[t] + step,) + key[t + 1:]
            # out[nk] += v^wt * c in place; a key that cancels is dropped
            acc = out.get(nk)
            if acc is None:
                out[nk] = {e + wt: x for e, x in c.items()} if wt else dict(c)
                continue
            for e, x in c.items():
                e += wt
                s = acc.get(e, 0) + x
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
            if not acc:
                del out[nk]
    return out


def tensor_act_K(terms, i, n, inv):
    """K_i is diagonal: each key keeps its place, its coefficient shifted by
    the number of its slots congruent to i, negated for the inverse."""
    out = {}
    for key, c in terms.items():
        wt = 0
        for j in key:
            if not (j - i) % n:
                wt += 1
        out[key] = lp_shift(c, -wt if inv else wt)
    return out


def tensor_act_R(terms, inv):
    shift = -1 if inv else 1
    return {tuple(j + shift for j in key): dict(c) for key, c in terms.items()}


def tensor_shift_slot(terms, t, amount):
    """Shift slot t (0-based) of every key by amount; the y operators."""
    out = {}
    for key, c in terms.items():
        nk = key[:t] + (key[t] + amount,) + key[t + 1:]
        out[nk] = dict(c)
    return out

"""Named verification suites with reproducible reports.

Each suite re-derives its expected values from scratch (breadth first
search, bar-involution solve, Poincare sums) so the checks stay honest
rather than comparing the library to itself.  Reports are deterministic
for a fixed seed and parameter set; wall time is carried on the object
but kept out of the serialized form so identical runs emit identical
bytes.

The hopf and duality suites wrap the operator sweeps of
affineschur._sweeps, imported when such a suite runs, so that loading this
module (as the command line does) compiles neither the sweeps nor the
quantum layer.  The keys of those sweeps come from one table here:
sweep_ranks names the tensor ranks each sweep visits, sweep_keys builds
the keys of one rank, and sweep_key_count, the budget's estimate, sums
over the same ranks.

run_all runs its eight suites side by side in worker processes, one per
available CPU, longest first, and returns the reports in report order;
run_suite runs one suite in the calling process.  It, like the command
line, takes the parameters suite_params binds over the runner's defaults.
"""

from __future__ import annotations

import inspect
import itertools
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from affineschur._backend import kernels
from affineschur.hecke import (
    HeckeElement,
    KLTable,
    _bar_walk,
    bernstein_y,
    bernstein_y_inverse,
    t_basis,
)
from affineschur.laurent import Laurent, addmul_into
from affineschur.weyl import (
    ParabolicIndex,
    WindowPerm,
    all_proper_parabolics,
    bruhat_leq,
    coset_decompose,
    double_coset_rep,
    enumerate_up_to_length,
    is_distinguished,
    longest_double_coset_elt,
)

__all__ = ["SuiteReport", "SUITES", "run_suite", "run_all"]

DEFAULT_SEED = 20250825

# the suites' fixed sizes, each written into its report's parameters: the
# length bound of weyl-core's coset pool, hecke-core's seeded associativity
# triples, the rank and parabolic block whose elements kl pairs up, and
# schur-core's samples of the sandwich identity
WEYL_COSET_LEN = 6
HECKE_TRIPLES = 200
KL_R, KL_BLOCK = 5, (1, 2, 3)
SCHUR_SAMPLES = 50


@dataclass
class SuiteReport:
    suite: str
    parameters: dict
    checks: list  # (name, ok, witness) with witness JSON-serializable
    wall_time: float = 0.0

    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c[1]]

    def to_obj(self) -> dict:
        # wall_time deliberately omitted: identical runs must serialize
        # identically
        rows = []
        for name, ok, witness in self.checks:
            row = {"name": name, "status": "pass" if ok else "fail"}
            if not ok:
                row["witness"] = witness
            rows.append(row)
        return {
            "suite": self.suite,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "checks": rows,
            "failed": sum(1 for _, ok, _ in self.checks if not ok),
        }

    def render(self) -> str:
        lines = [f"suite {self.suite}  ({self._param_str()})"]
        for name, ok, witness in self.checks:
            mark = "pass" if ok else "FAIL"
            lines.append(f"  {mark}  {name}")
            if not ok:
                lines.append(f"        witness: {witness}")
        bad = sum(1 for _, ok, _ in self.checks if not ok)
        lines.append(f"  {len(self.checks)} checks, {bad} failed")
        return "\n".join(lines)

    def _param_str(self) -> str:
        return ", ".join(f"{k}={self.parameters[k]}" for k in sorted(self.parameters))


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


class _Recorder:
    """Collects (name, ok, witness) rows; exceptions become failures."""

    def __init__(self):
        self.rows: list = []

    def add(self, name: str, ok: bool, witness=None):
        self.rows.append((name, bool(ok), witness if not ok else None))

    def guard(self, name: str, fn: Callable[[], tuple]):
        try:
            ok, witness = fn()
        except Exception as exc:  # a crash is a failed check, not a crash
            ok, witness = False, _error(exc)
        self.add(name, ok, witness)

    def sweep(self, name: str, fn: Callable[[], list]):
        """Adds the rows a sweep returns; a sweep that raises becomes one
        failed row under name."""
        try:
            rows = fn()
        except Exception as exc:
            self.add(name, False, _error(exc))
        else:
            self.rows.extend(rows)

    def done(self) -> list:
        return sorted(self.rows, key=lambda c: c[0])


def _finish(suite: str, parameters: dict, rec: _Recorder, t0: float) -> SuiteReport:
    return SuiteReport(suite, parameters, rec.done(), time.time() - t0)


# ---------------------------------------------------------------------------
# weyl-core


def run_weyl_core(r: int = 3, length: int = 8) -> SuiteReport:
    t0 = time.time()
    rec = _Recorder()
    gens = [kernels.win_offsets(WindowPerm.s(r, i).window) for i in range(1, r + 1)]

    def bfs_lengths():
        dist = {WindowPerm.identity(r).window: 0}
        frontier = [WindowPerm.identity(r).window]
        for depth in range(1, length + 1):
            nxt = []
            for win in frontier:
                for g in gens:
                    p = kernels.win_compose_offsets(win, g)
                    if p not in dist:
                        dist[p] = depth
                        nxt.append(p)
            frontier = nxt
        return dist

    dist = bfs_lengths()

    def check_lengths():
        for win, d in dist.items():
            if kernels.win_length(win) != d:
                return False, {"window": list(win), "bfs": d, "crossings": kernels.win_length(win)}
        return True, None

    rec.guard("length-equals-min-word", check_lengths)

    def check_descents():
        for win in dist:
            w = WindowPerm._unsafe(win)
            lw = w.length()
            right = {i for i in range(1, r + 1) if (w * WindowPerm.s(r, i)).length() < lw}
            if right != set(w.right_descents()):
                return False, {"window": list(win), "drop": sorted(right)}
            left = {i for i in range(1, r + 1) if (WindowPerm.s(r, i) * w).length() < lw}
            winv = w.inverse()
            if left != set(winv.right_descents()):
                return False, {"window": list(win), "left-drop": sorted(left)}
        return True, None

    rec.guard("descents-match-length-drop", check_descents)

    def check_cosets():
        pool = enumerate_up_to_length(r, WEYL_COSET_LEN, extended=True, rho_bound=1)
        for pi in all_proper_parabolics(r):
            members = {x.window for x in pi.elements()}
            for w in pool:
                u, d = coset_decompose(w, pi)
                if u.window not in members:
                    return False, {"w": list(w.window), "u": list(u.window)}
                if (u * d) != w or u.length() + d.length() != w.length():
                    return False, {"w": list(w.window), "u": list(u.window), "d": list(d.window)}
                if not is_distinguished(d, pi):
                    return False, {"w": list(w.window), "d": list(d.window)}
        return True, None

    rec.guard("coset-split-unique-and-additive", check_cosets)

    def check_rotation():
        rho = WindowPerm.rho(r)
        for i in range(1, r + 1):
            if rho * WindowPerm.s(r, i % r + 1) != WindowPerm.s(r, i) * rho:
                return False, {"i": i}
        return True, None

    rec.guard("shift-conjugation-rotates-generators", check_rotation)

    def check_shift_never_below():
        rho = WindowPerm.rho(r)
        for win in itertools.islice(dist, 60):
            y = WindowPerm._unsafe(win)
            if bruhat_leq(rho * y, y):
                return False, {"y": list(win)}
        return True, None

    rec.guard("shifted-element-never-below", check_shift_never_below)

    def check_rank_two():
        for ctor in (lambda: WindowPerm.identity(2), lambda: WindowPerm((2, 1)),
                     lambda: ParabolicIndex(2, [1]), lambda: HeckeElement.unit(2)):
            try:
                ctor()
                return False, {"accepted": "a rank-2 construction"}
            except ValueError:
                pass
        return True, None

    rec.guard("rank-two-rejected", check_rank_two)

    return _finish("weyl-core", {"r": r, "len": length, "coset_len": WEYL_COSET_LEN}, rec, t0)


# ---------------------------------------------------------------------------
# hecke-core


def _random_hecke(rng: random.Random, r: int, pool) -> HeckeElement:
    total: dict = {}
    for _ in range(2):
        w = rng.choice(pool)
        c = Laurent({rng.randrange(-2, 3): rng.randrange(-3, 4) or 1})
        addmul_into(total, t_basis(w)._terms, c.raw())
    return HeckeElement._raw(r, total)


def _convolve(a: dict, b: dict) -> dict:
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


def run_hecke_core(r: int = 3, seed: int = DEFAULT_SEED) -> SuiteReport:
    t0 = time.time()
    rec = _Recorder()
    rng = random.Random(seed)
    pool = enumerate_up_to_length(r, 4, extended=True, rho_bound=2)

    def check_assoc():
        for k in range(HECKE_TRIPLES):
            a, b, c = (_random_hecke(rng, r, pool) for _ in range(3))
            if (a * b) * c != a * (b * c):
                return False, {"triple": k}
        return True, None

    rec.guard("associativity-on-seeded-triples", check_assoc)

    def check_v1():
        for k in range(40):
            a, b = _random_hecke(rng, r, pool), _random_hecke(rng, r, pool)
            lhs = (a * b).specialize_group_algebra()
            rhs = _convolve(a.specialize_group_algebra(), b.specialize_group_algebra())
            if lhs != rhs:
                return False, {"pair": k}
        return True, None

    rec.guard("group-algebra-specialization", check_v1)

    q = Laurent.q()
    sig = [None] + [t_basis(WindowPerm.s(r, i)) for i in range(1, r)]
    ys = [None] + [bernstein_y(r, i) for i in range(1, r + 1)]
    yinvs = [None] + [bernstein_y_inverse(r, i) for i in range(1, r + 1)]

    def pair_name(i, j):
        return f"{i}-{j}"

    for i in range(1, r):
        rec.guard(
            f"translation-quadratic-{i}",
            lambda i=i: (sig[i] * sig[i] == sig[i].scale(q - 1) + HeckeElement.unit(r).scale(q), {"i": i}),
        )
    for i in range(1, r - 1):
        rec.guard(
            f"translation-braid-{i}",
            lambda i=i: (sig[i] * sig[i + 1] * sig[i] == sig[i + 1] * sig[i] * sig[i + 1], {"i": i}),
        )
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            rec.guard(
                f"translation-commute-{pair_name(i, j)}",
                lambda i=i, j=j: (ys[i] * ys[j] == ys[j] * ys[i], {"i": i, "j": j}),
            )
    for i in range(1, r + 1):
        rec.guard(
            f"translation-invertible-{i}",
            lambda i=i: (ys[i] * yinvs[i] == HeckeElement.unit(r), {"i": i}),
        )
    for i in range(1, r):
        for j in range(1, r + 1):
            if j in (i, i + 1):
                continue
            rec.guard(
                f"translation-distant-{pair_name(i, j)}",
                lambda i=i, j=j: (sig[i] * ys[j] == ys[j] * sig[i], {"i": i, "j": j}),
            )
    for i in range(1, r):
        rec.guard(
            f"translation-conjugation-{i}",
            lambda i=i: (sig[i] * ys[i] * sig[i] == ys[i + 1].scale(q), {"i": i}),
        )

    def check_center():
        prod = HeckeElement.unit(r)
        for i in range(1, r + 1):
            prod = prod * ys[i]
        if prod != t_basis(WindowPerm.rho(r, r)):
            return False, {"detail": "product of translations is not the full shift"}
        for h in [sig[i] for i in range(1, r)] + [t_basis(WindowPerm.rho(r))]:
            if prod * h != h * prod:
                return False, {"detail": "full-shift translation is not central"}
        return True, None

    rec.guard("translation-product-central", check_center)

    return _finish("hecke-core", {"r": r, "seed": seed, "triples": HECKE_TRIPLES}, rec, t0)


# ---------------------------------------------------------------------------
# kl


def _kl_by_involution(w: WindowPerm) -> dict[WindowPerm, Laurent]:
    """Solve for every P_{y,w} from bar-invariance of the canonical term,
    independent of the mu-recursion."""
    r = w.r
    _, word = w.reduced_word()
    lower = {WindowPerm.identity(r)}
    for i in word:
        lower |= {u * WindowPerm.s(r, i) for u in lower}
    bar_t = {
        WindowPerm._unsafe(win): HeckeElement._raw(r, img)
        for win, img in _bar_walk(r, (z.window for z in lower))
    }
    lw = w.length()
    out: dict[WindowPerm, Laurent] = {w: Laurent.one()}
    for y in sorted(lower, key=lambda z: (-z.length(), z.window)):
        if y == w:
            continue
        m = lw - y.length()
        big = Laurent.zero()
        for z in lower:
            if z == y or z.length() <= y.length():
                continue
            coeff = bar_t[z].coeff(y)
            if coeff:
                big = big + coeff * out[z].bar()
        big = big.shift(2 * lw)
        low = Laurent({e: c for e, c in big.items() if e < m})
        if big - low != -low.bar().shift(2 * m):
            raise ArithmeticError("bar equation inconsistent")
        out[y] = low
    return out


def run_kl() -> SuiteReport:
    t0 = time.time()
    rec = _Recorder()
    r = KL_R
    pi = ParabolicIndex(r, KL_BLOCK)
    elems = sorted(pi.elements(), key=lambda w: (w.length(), w.window))
    table = KLTable(r)
    one_plus_q = Laurent({0: 1, 2: 1})

    def check_match():
        for w in elems:
            oracle = _kl_by_involution(w)
            for y in elems:
                got = table.polynomial(y, w)
                want = oracle.get(y, Laurent.zero()) if bruhat_leq(y, w) else Laurent.zero()
                if got != want:
                    return False, {"y": list(y.window), "w": list(w.window), "got": got.to_obj(), "want": want.to_obj()}
        return True, None

    rec.guard("recursion-matches-involution-solve", check_match)

    def check_degree():
        for w in elems:
            for y in elems:
                if not bruhat_leq(y, w) or y == w:
                    continue
                p = table.polynomial(y, w)
                if p.is_zero():
                    continue
                if p.degree > max(0, w.length() - y.length() - 1):
                    return False, {"y": list(y.window), "w": list(w.window), "poly": p.to_obj()}
        return True, None

    rec.guard("degree-bound", check_degree)

    def check_singular():
        singular = set()
        for w in elems:
            for y in elems:
                if bruhat_leq(y, w) and table.polynomial(y, w) == one_plus_q:
                    singular.add(w.window)
        if len(singular) != 2:
            return False, {"count": len(singular), "windows": sorted(map(list, singular))}
        return True, None

    rec.guard("exactly-two-singular-elements", check_singular)

    return _finish("kl", {"r": r, "block": list(KL_BLOCK)}, rec, t0)


# ---------------------------------------------------------------------------
# schur-core


def run_schur_core(n: int = 3, r: int = 3, seed: int = DEFAULT_SEED) -> SuiteReport:
    from affineschur.schur import (
        SchurElement,
        all_weights,
        embed_hecke,
        omega,
        phi,
        schur_mul,
        theta,
        young_parabolic,
    )

    t0 = time.time()
    rec = _Recorder()
    rng = random.Random(seed)
    om = omega(n, r)
    lams = all_weights(n, r)
    e = WindowPerm.identity(r)
    q = Laurent.q()

    def check_pairing():
        for lam in lams:
            for mu in lams:
                prod = schur_mul(phi(om, lam, e), phi(mu, om, e))
                if lam == mu:
                    want = SchurElement.zero(n, r)
                    for d in young_parabolic(lam).elements():
                        want = want + phi(om, om, d)
                    if prod != want:
                        return False, {"lambda": list(lam.parts)}
                elif not prod.is_zero():
                    return False, {"lambda": list(lam.parts), "mu": list(mu.parts)}
        return True, None

    rec.guard("row-column-pairing-diagonal", check_pairing)

    def check_parabolic_scalars():
        for lam in lams:
            for i in sorted(young_parabolic(lam).generators):
                s = WindowPerm.s(r, i)
                if schur_mul(phi(om, om, s), phi(om, lam, e)) != phi(om, lam, e).scale(q):
                    return False, {"lambda": list(lam.parts), "i": i, "side": "left"}
                if schur_mul(phi(lam, om, e), phi(om, om, s)) != phi(lam, om, e).scale(q):
                    return False, {"lambda": list(lam.parts), "i": i, "side": "right"}
        return True, None

    rec.guard("block-generators-scale-by-q", check_parabolic_scalars)

    def check_poincare():
        pool = enumerate_up_to_length(r, 4, extended=True, rho_bound=1)
        for k in range(SCHUR_SAMPLES):
            lam, mu = rng.choice(lams), rng.choice(lams)
            pl, pm = young_parabolic(lam), young_parabolic(mu)
            d = double_coset_rep(rng.choice(pool), pl, pm)
            lhs = schur_mul(schur_mul(phi(lam, om, e), phi(om, om, d)), phi(om, mu, e))
            left_windows = {x.window for x in pl.elements()}
            poincare = Laurent.zero()
            for u in pm.elements():
                if (d * u * d.inverse()).window in left_windows:
                    poincare = poincare + Laurent.v(2 * u.length())
            if lhs != phi(lam, mu, d).scale(poincare):
                return False, {"sample": k, "lambda": list(lam.parts), "mu": list(mu.parts), "d": list(d.window)}
        return True, None

    rec.guard("sandwich-poincare-identity", check_poincare)

    def check_products_close():
        pool = enumerate_up_to_length(r, 3, extended=True, rho_bound=1)
        for k in range(20):
            lam, mu, nu = rng.choice(lams), rng.choice(lams), rng.choice(lams)
            a = phi(lam, mu, rng.choice(pool))
            b = phi(mu, nu, rng.choice(pool))
            c = phi(nu, rng.choice(lams), rng.choice(pool))
            ab = a * b
            if (ab * c) != a * (b * c):
                return False, {"sample": k}
        return True, None

    rec.guard("products-reexpand-and-associate", check_products_close)

    def check_theta():
        table = KLTable(r)
        pool = enumerate_up_to_length(r, 3, extended=True, rho_bound=1)
        for lam in lams[:6]:
            for mu in lams[:6]:
                pl, pm = young_parabolic(lam), young_parabolic(mu)
                seen = set()
                for d0 in pool:
                    d = double_coset_rep(d0, pl, pm)
                    if d.window in seen:
                        continue
                    seen.add(d.window)
                    th = theta(lam, mu, d, table)
                    dplus = longest_double_coset_elt(d, pl, pm)
                    lead = th.coeff(lam, mu, d)
                    if lead != Laurent.v(pm.longest_element().length() - dplus.length()):
                        return False, {"lambda": list(lam.parts), "mu": list(mu.parts), "d": list(d.window), "lead": lead.to_obj()}
                    for _, _, z, _ in th.items():
                        if z == d:
                            continue
                        zplus = longest_double_coset_elt(z, pl, pm)
                        if not bruhat_leq(zplus, dplus) or zplus == dplus:
                            return False, {"d": list(d.window), "z": list(z.window)}
        return True, None

    rec.guard("ic-basis-unitriangular", check_theta)

    def check_embed():
        pool = enumerate_up_to_length(r, 4, extended=True, rho_bound=1)
        seen = set()
        for k in range(25):
            a = _random_hecke(rng, r, pool)
            b = _random_hecke(rng, r, pool)
            if embed_hecke(a, n) * embed_hecke(b, n) != embed_hecke(a * b, n):
                return False, {"pair": k}
        for w in pool:
            img = embed_hecke(t_basis(w), n)
            key = tuple(
                (lam.parts, mu.parts, d.window, tuple(sorted(c.raw().items())))
                for lam, mu, d, c in img.items()
            )
            if key in seen:
                return False, {"w": list(w.window)}
            seen.add(key)
        return True, None

    rec.guard("hecke-corner-embedding", check_embed)

    def check_narrow():
        try:
            omega(2, 3)
            return False, {"accepted": "omega(2, 3)"}
        except ValueError:
            return True, None

    rec.guard("narrow-column-rejected", check_narrow)

    return _finish("schur-core", {"n": n, "r": r, "seed": seed, "samples": SCHUR_SAMPLES}, rec, t0)


# ---------------------------------------------------------------------------
# hopf and duality (the sweeps themselves live in affineschur._sweeps)


# the most tensor keys one hopf or duality sweep may visit; the acceptance
# sweeps visit 5,219 (hopf, n = 4) and 2,197 (duality)
SWEEP_KEY_BUDGET = 20_000

# the Hopf relation rows visit (2 * window + 1)^k keys for every k <= r
HOPF_MAX_R = 3


def _window_bound(n: int, window: int | None) -> int:
    return 2 * n if window is None else window


def sweep_ranks(suite: str, r: int) -> Iterable[int]:
    """The tensor ranks whose keys a sweep visits: hopf checks its relations
    on every rank 1..r, coassociativity on rank 3 and the counit and
    antipode laws on rank 1; duality works on rank r alone."""
    if suite == "duality":
        return (r,)
    return itertools.chain(range(1, r + 1), (3,) if r < 3 else ())


def sweep_keys(window: int, rank: int) -> Iterator[tuple]:
    """The keys of one rank a sweep visits, each slot in -W..W for the
    half-width W = window, in lexicographic order."""
    return itertools.product(range(-window, window + 1), repeat=rank)


def sweep_key_count(suite: str, n: int, r: int, window: int | None = None) -> int:
    """The distinct tensor keys the hopf or duality sweep would visit, from
    its parameters alone: (2W + 1)^k summed over its sweep_ranks, W the
    window half-width.  Counting stops once the count passes
    SWEEP_KEY_BUDGET, so a huge r costs nothing."""
    side = max(0, 2 * _window_bound(n, window) + 1)
    # a side of 2 or more passes the budget by this power, and a side of 0
    # or 1 has the same powers from 1 on, so capping k keeps the verdict
    cap = SWEEP_KEY_BUDGET.bit_length()
    total = 0
    for k in itertools.islice(sweep_ranks(suite, r), SWEEP_KEY_BUDGET + 1):
        total += side ** min(k, cap)
        if total > SWEEP_KEY_BUDGET:
            break
    return total


def suite_params(name: str, **given) -> dict:
    """The given parameters bound over the defaults of suite name's runner
    (run_all for 'all'), whose signature alone states what a suite reads:
    suite_params(name) is every parameter it reads, at its default.  One
    the runner does not take raises TypeError, and one outside the suite's
    domain or key budget ValueError."""
    bound = inspect.signature(run_all if name == "all" else SUITES[name]).bind(**given)
    bound.apply_defaults()
    params = bound.arguments
    length = params.get("length")
    if length is not None and length < 1:
        raise ValueError(f"--len is a length bound >= 1, got --len {length}")
    if name not in ("hopf", "duality"):
        return params
    n, r, window = params["n"], params["r"], params["window"]
    if n < 1:
        raise ValueError(f"{name} needs --n >= 1, got --n {n}")
    if window is not None and window < 0:
        raise ValueError(f"--window is a half-width >= 0, got --window {window}")
    if name == "hopf":
        # the relation table is that of type A_{n-1}^(1) with n >= 3: the
        # Serre rows are cubic, and only |i - j| = 1 mod n pairs fail to commute
        if n < 3:
            raise ValueError(f"hopf checks the relations that hold for --n >= 3, got --n {n}")
        if not 1 <= r <= HOPF_MAX_R:
            raise ValueError(f"hopf sweeps tensor powers 1..r with r <= {HOPF_MAX_R}, got --r {r}")
    elif not 3 <= r <= n:
        raise ValueError(f"duality needs 3 <= r <= n, got --n {n} --r {r}")
    if sweep_key_count(name, n, r, window) > SWEEP_KEY_BUDGET:
        raise ValueError(f"the {name} sweep would visit more than {SWEEP_KEY_BUDGET} keys; lower --window, --n or --r")
    # the duality rows are taken on the keys of weight omega, which need
    # every residue 1..r mod n among -W..W; when 2W + 1 < n, -W..W misses
    # just W + 1..n - W - 1, and the default W = 2n misses none
    w = _window_bound(n, window)
    if name == "duality" and 2 * w + 1 < n and r > w:
        raise ValueError(
            f"duality needs a key of weight omega, residues 1..r mod n in -W..W; got --n {n} --r {r} --window {w}"
        )
    return params


def run_hopf(n: int = 3, r: int = 3, window: int | None = None) -> SuiteReport:
    from affineschur._sweeps import verify_hopf

    t0 = time.time()
    rec = _Recorder()
    bound = _window_bound(n, window)
    rec.sweep("hopf-sweep", lambda: verify_hopf(n, r, bound))
    return _finish("hopf", {"n": n, "r": r, "window": bound}, rec, t0)


def run_duality(
    n: int = 3, r: int = 3, length: int = 3, window: int | None = None, seed: int = DEFAULT_SEED
) -> SuiteReport:
    from affineschur._sweeps import verify_affine_duality

    t0 = time.time()
    rec = _Recorder()
    bound = _window_bound(n, window)
    rec.sweep("duality-sweep", lambda: verify_affine_duality(n, r, length, bound, seed=seed))
    return _finish("duality", {"n": n, "r": r, "len": length, "window": bound, "seed": seed}, rec, t0)


# ---------------------------------------------------------------------------
# dispatch


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "weyl-core": run_weyl_core,
    "hecke-core": run_hecke_core,
    "kl": run_kl,
    "schur-core": run_schur_core,
    "hopf": run_hopf,
    "duality": run_duality,
}


def run_suite(name: str, **params) -> SuiteReport:
    """One suite in the calling process, on suite_params(name, **params): a
    parameter the suite does not read raises TypeError, and one outside its
    domain or budget ValueError, before the suite starts."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**suite_params(name, **params))


def _all_jobs(seed: int) -> list[tuple[str, dict]]:
    """The acceptance sweep as (suite name, params) jobs in report order:
    both ranks for the group suite, both column counts for the Hopf suite,
    defaults elsewhere."""
    return [
        ("weyl-core", {"r": 3}),
        ("weyl-core", {"r": 4}),
        ("hecke-core", {"seed": seed}),
        ("kl", {}),
        ("schur-core", {"seed": seed}),
        ("hopf", {"n": 3}),
        ("hopf", {"n": 4}),
        ("duality", {"seed": seed}),
    ]


# the positions of _all_jobs in the order the pool takes them, longest
# first (hopf n=4, duality, hopf n=3, schur-core, then the short rest), so
# that no long suite starts last on a core that the others have left idle
_LONGEST_FIRST = (6, 7, 5, 4, 0, 1, 2, 3)


def _run_jobs(jobs: list[tuple[str, dict]]) -> list[SuiteReport]:
    """run_suite(name, **params) for every job, each in a worker process,
    started in the order given; the reports come back in that order.  A
    worker that dies raises concurrent.futures' BrokenProcessPool (a
    RuntimeError) once the other workers are stopped, and an exception a
    suite raises is raised here after the running jobs end."""
    from concurrent.futures import ProcessPoolExecutor

    # the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    pool = ProcessPoolExecutor(max_workers=min(len(jobs), cpus))
    try:
        futures = [pool.submit(run_suite, name, **params) for name, params in jobs]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_all(seed: int = DEFAULT_SEED) -> list[SuiteReport]:
    """The acceptance sweep, its suites run side by side in worker
    processes; the reports come back in report order."""
    jobs = _all_jobs(seed)
    by_position = dict(zip(_LONGEST_FIRST, _run_jobs([jobs[i] for i in _LONGEST_FIRST])))
    return [by_position[i] for i in range(len(jobs))]

"""The benchmark's workloads: seeded request streams with exact checks.

Every request is generated from (workload, seed, request index) alone, so two
runs of equal length do the same work.  Library calls go through module
attributes (`quantum.theta_iso`, not a bare imported name) so that the
tracer's wrappers, when installed, see them.

gate       `affineschur verify all --json --seed S` in a subprocess: the
           repo's acceptance verdict.  Its time is mostly the Hopf sweep at
           n=4 and the duality suite, i.e. `quantum` and the kernel tensor
           sweeps.
transport  n = r = 3 vectors carried through the bridge maps: theta_iso, the
           right Hecke action, kappa and the exact inverse solve.  `gate`
           never calls theta_iso_inverse, so solver changes show here only.
algebra    r in {4, 5} Hecke products of fat sparse elements, cold
           Kazhdan-Lusztig columns and (4, 4) Schur products; no `quantum`
           work, so a quantum-only change should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import sys

from affineschur import hecke, quantum, schur, weyl
from affineschur.laurent import Laurent

DEFAULT_SEED = 20250825


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _monomial(rng: random.Random) -> Laurent:
    return Laurent({rng.randrange(-2, 3): rng.choice((1, -1))})


# ---------------------------------------------------------------------------
# gate


SUITE_LINE = re.compile(r"^\[([a-z-]+)\] ([0-9.]+)s$")


def suite_times(stderr: str, stdout: str) -> dict[str, float]:
    """verify.<suite>_s from the `[suite] X.XXs` stderr lines, with the
    repeated weyl-core and hopf entries told apart by the rank and column
    count in the matching stdout report."""
    times = [(m.group(1), float(m.group(2))) for m in map(SUITE_LINE.match, stderr.splitlines()) if m]
    reports = json.loads(stdout)["reports"]
    if [r["suite"] for r in reports] != [name for name, _ in times]:
        raise ValueError("stderr suite lines do not match the stdout reports")
    out = {}
    for (name, secs), rep in zip(times, reports):
        if name == "weyl-core":
            name += f"-r{rep['parameters']['r']}"
        elif name == "hopf":
            name += f"-n{rep['parameters']['n']}"
        out[f"verify.{name}_s"] = secs
    return out


def gate_command(seed: int) -> list[str]:
    return [sys.executable, "-m", "affineschur.cli", "verify", "all", "--json", "--seed", str(seed)]


def gate_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_gate(code: int, stdout: str, expected_sha256: str | None) -> list[bool]:
    """Exit code 0, report `failed` == 0 and, when one is recorded for this
    seed, the sha256 of stdout."""
    try:
        failed = json.loads(stdout)["failed"]
    except (ValueError, KeyError, TypeError):
        failed = None
    checks = [code == 0, failed == 0]
    if expected_sha256 is not None:
        checks.append(hashlib.sha256(stdout.encode()).hexdigest() == expected_sha256)
    return checks


# ---------------------------------------------------------------------------
# transport


class Transport:
    """Each request draws x, a combination of 4-10 q-tensor basis keys with
    monomial coefficients, maps y = theta_iso(x) and checks the right Hecke
    action, kappa and the inverse solve against it.  Truncation L = 2 for one
    request in eight, L = 1 otherwise."""

    name = "transport"
    cycle = 8
    checks = 3
    n = r = 3

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        if smoke:
            self.cycle = 2  # L = 1 only
        self.trace_requests = self.cycle
        n, r = self.n, self.r
        self.basis = {L: quantum.theta_iso_basis(n, r, L, 1) for L in (1, 2)}
        self.weights = schur.all_weights(n, r)
        self.pool = weyl.enumerate_up_to_length(r, 2, extended=True, rho_bound=1)

    def _generator(self, rng: random.Random):
        r = self.r
        kind = rng.randrange(4)
        if kind == 0:
            return hecke.t_basis(weyl.WindowPerm.s(r, rng.randint(1, r)))
        if kind == 1:
            return hecke.t_basis(weyl.WindowPerm.rho(r, rng.choice((1, -1))))
        if kind == 2:
            return hecke.bernstein_y(r, rng.randint(1, r))
        return hecke.bernstein_y_inverse(r, rng.randint(1, r))

    def inputs(self, k: int) -> dict:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        L = 2 if k % self.cycle == 3 else 1
        x = schur.QTensorElement.zero(self.n, self.r)
        for lam, d in rng.sample(self.basis[L], rng.randint(4, 10)):
            x = x + schur.QTensorElement.basis(lam, d).scale(_monomial(rng))
        h = self._generator(rng)
        for _ in range(rng.randint(0, 2)):
            h = h * self._generator(rng)
        g = schur.phi(rng.choice(self.weights), rng.choice(self.weights), rng.choice(self.pool))
        return {"L": L, "x": x, "h": h, "g": g}

    def run(self, inp: dict) -> tuple[list[bool], str]:
        x, h, g, L = inp["x"], inp["h"], inp["g"], inp["L"]
        y = quantum.theta_iso(x)
        right = quantum.hecke_right_action(y, h)
        left = quantum.kappa(g)(y)
        back = quantum.theta_iso_inverse(y, L)
        checks = [
            right == quantum.theta_iso(schur.act_hecke_right(x, h)),
            left == quantum.theta_iso(schur.act_schur_left(g, x)),
            back == x,
        ]
        out = {"y": y.to_obj(), "right": right.to_obj(), "left": left.to_obj(), "back": back.to_obj()}
        return checks, digest(out)


# ---------------------------------------------------------------------------
# algebra


def _convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for u, ca in a.items():
        for w, cb in b.items():
            uw = u * w
            s = out.get(uw, 0) + ca * cb
            if s:
                out[uw] = s
            else:
                out.pop(uw, None)
    return out


class Algebra:
    """Each request multiplies two Hecke elements built as products of
    (T_s + v) along seeded reduced words of length 8-11, checks the product
    at v = 1 against group-algebra convolution, computes a whole KL column
    in a fresh KLTable, and checks a (4, 4) Schur associativity triple and
    one theta element.  Ranks alternate 4, 5."""

    name = "algebra"
    cycle = 2
    checks = 6
    # Bruhat-interval sizes (= terms of the factor products) accepted for the
    # two factors; a band keeps the cost of a request close to its mean, so
    # throughput depends on the code and not on which words a seed drew
    band = (100, 160)
    word_lengths = (8, 11)
    kl_length = 9

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.trace_requests = 16
        if smoke:
            self.band, self.word_lengths, self.kl_length = (10, 64), (5, 6), 5
            self.trace_requests = 2
        self.weights = schur.all_weights(4, 4)
        self.pool = weyl.enumerate_up_to_length(4, 3, extended=True, rho_bound=1)

    @staticmethod
    def _reduced_word(rng: random.Random, r: int, k: int) -> tuple[weyl.WindowPerm, list[int]]:
        w = weyl.WindowPerm.identity(r)
        word: list[int] = []
        while len(word) < k:
            i = rng.randint(1, r)
            w2 = w * weyl.WindowPerm.s(r, i)
            if w2.length() > w.length():
                w, word = w2, word + [i]
        return w, word

    @staticmethod
    def _interval(r: int, word: list[int]) -> set:
        cur = {weyl.WindowPerm.identity(r)}
        for i in word:
            s = weyl.WindowPerm.s(r, i)
            cur |= {u * s for u in cur}
        return cur

    def _banded_word(self, rng: random.Random, r: int) -> list[int]:
        lo, hi = self.band
        for _ in range(10_000):
            _, word = self._reduced_word(rng, r, rng.randint(*self.word_lengths))
            if lo <= len(self._interval(r, word)) <= hi:
                return word
        raise ValueError(f"no reduced word with an interval size in {self.band}")

    def inputs(self, k: int) -> dict:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        r = 4 + k % 2
        words = [self._banded_word(rng, r), self._banded_word(rng, r)]
        w, kl_word = self._reduced_word(rng, r, self.kl_length)
        lam, mu, nu, xi = (rng.choice(self.weights) for _ in range(4))
        triple = [
            schur.phi(lam, mu, rng.choice(self.pool)),
            schur.phi(mu, nu, rng.choice(self.pool)),
            schur.phi(nu, xi, rng.choice(self.pool)),
        ]
        return {"r": r, "words": words, "w": w, "kl_word": kl_word,
                "triple": triple, "theta": (lam, mu, rng.choice(self.pool))}

    @staticmethod
    def _product(r: int, word: list[int]) -> hecke.HeckeElement:
        v = hecke.HeckeElement.unit(r).scale(Laurent.v())
        out = hecke.HeckeElement.unit(r)
        for i in word:
            out = out * (hecke.t_basis(weyl.WindowPerm.s(r, i)) + v)
        return out

    def run(self, inp: dict) -> tuple[list[bool], str]:
        r, w = inp["r"], inp["w"]
        a, b = (self._product(r, word) for word in inp["words"])
        ab = a * b
        conv_ok = ab.specialize_group_algebra() == _convolve(
            a.specialize_group_algebra(), b.specialize_group_algebra()
        )

        table = hecke.KLTable(r)
        lw = w.length()
        column = {}
        degree_ok = True
        canonical = hecke.HeckeElement.zero(r)
        for y in self._interval(r, inp["kl_word"]):
            p = table.polynomial(y, w)
            column[y.window] = p
            if y != w and p and p.degree > lw - y.length() - 1:
                degree_ok = False
            canonical = canonical + hecke.t_basis(y).scale(p)
        canonical = canonical.scale(Laurent.v(-lw))

        A, B, C = inp["triple"]
        ab_c = schur.schur_mul(schur.schur_mul(A, B), C)
        lam, mu, d0 = inp["theta"]
        pl, pm = schur.young_parabolic(lam), schur.young_parabolic(mu)
        d = weyl.double_coset_rep(d0, pl, pm)
        th = schur.theta(lam, mu, d, hecke.KLTable(4))
        dplus = weyl.longest_double_coset_elt(d, pl, pm)
        lead = Laurent.v(pm.longest_element().length() - dplus.length())

        checks = [
            conv_ok,
            column[w.window] == Laurent.one(),
            degree_ok,
            canonical.bar() == canonical,
            ab_c == schur.schur_mul(A, schur.schur_mul(B, C)),
            th.coeff(lam, mu, d) == lead,
        ]
        out = {
            "ab": ab.to_obj(),
            "kl": sorted([list(y), p.to_obj()] for y, p in column.items()),
            "assoc": ab_c.to_obj(),
            "theta": th.to_obj(),
        }
        return checks, digest(out)


REQUEST_WORKLOADS = {"transport": Transport, "algebra": Algebra}

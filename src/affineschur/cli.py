"""Batch command line front end.

Elements travel as JSON on stdin and stdout in the same shapes the
library's ``to_obj``/``from_obj`` pairs use, so any output can be piped
straight back in.  Verification verbs emit a report whose bytes depend
only on the flags and seed; timing goes to stderr.  Exit codes: 0 all
good, 1 at least one failed check or an error in the computation, 2
malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from affineschur.hecke import HeckeElement, KLTable, x_lambda
from affineschur.laurent import payload_int
from affineschur.verify import DEFAULT_SEED, SUITES, SWEEP_KEY_BUDGET, SuiteReport
from affineschur.verify import run_all, run_suite, suite_params
from affineschur.weyl import ParabolicIndex, WindowPerm, coset_decompose

__all__ = ["main", "run"]

THETA_NOTE = (
    "The canonical element for (lambda, mu, d) sums over the double "
    "cosets whose longest element u lies below the longest element d+ of "
    "d's coset: each contributes the Kazhdan-Lusztig polynomial attached "
    "to the pair (u, d+), shifted by v^(l(w_mu) - l(d+)), times the "
    "projection-basis element phi^z for the shortest representative z of "
    "u's coset."
)

BUDGET_NOTE = (
    f"hopf and duality refuse a sweep of more than {SWEEP_KEY_BUDGET} tensor keys: "
    "for hopf the sum over k <= r of (2W+1)^k, plus (2W+1)^3 when r < 3, since "
    "coassociativity always uses 3-slot keys; for duality (2W+1)^r; "
    "W = --window (default 2n)"
)

# the suite parameter each flag sets; a suite reads the parameters of its
# runner (verify.suite_params), and a payload verb reads none
_FLAG_PARAMS = {"n": "n", "r": "r", "len": "length", "window": "window", "seed": "seed"}


class InputError(ValueError):
    """Bad JSON or a value out of domain; maps to exit code 2.  Any other
    ValueError or ArithmeticError comes from the computation and exits 1."""


def _decode(read, *args):
    """read(*args) on payload values; a ValueError or TypeError is malformed input."""
    try:
        return read(*args)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise InputError(why)


def _given(args, reads, who: str) -> dict:
    """The suite parameters the given flags set; a flag that sets a
    parameter outside reads is refused."""
    given = {}
    for flag, param in _FLAG_PARAMS.items():
        value = getattr(args, flag)
        if value is not None:
            _require(param in reads, f"--{flag} is not read by {who}")
            given[param] = value
    return given


def _read_payload(args) -> object:
    _given(args, (), f"{args.command} {args.verb}")
    text = sys.stdin.read()
    if not text.strip():
        raise InputError("expected a JSON payload on stdin")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"stdin is not valid JSON: {exc}") from exc


def _emit(obj, args, text: str | None = None) -> None:
    if getattr(args, "json", False) or text is None:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text + "\n")


def _product(payload, what: str, read, shape):
    """The product of a JSON array of at least two elements of one shape."""
    _require(isinstance(payload, list) and len(payload) >= 2, f"{what} expects a JSON array of at least 2 elements")
    parts = [_decode(read, o) for o in payload]
    _require(len({shape(p) for p in parts}) == 1, f"{what} needs elements of one shape")
    out = parts[0]
    for p in parts[1:]:
        out = out * p
    return out


# ---------------------------------------------------------------------------
# element verbs


def _cmd_weyl(args) -> int:
    payload = _read_payload(args)
    if args.verb == "compose":
        out = _product(payload, "weyl compose", WindowPerm.from_obj, lambda w: w.r)
        _emit(out.to_obj(), args, repr(out))
        return 0
    if args.verb == "coset":
        if not isinstance(payload, dict) or "w" not in payload or "members" not in payload:
            raise InputError('weyl coset expects {"w": …, "members": […], "shift": 0}')
        w = _decode(WindowPerm.from_obj, payload["w"])
        pi = _decode(
            ParabolicIndex.from_obj, {"r": w.r, "members": payload["members"], "shift": payload.get("shift", 0)}
        )
        u, d = coset_decompose(w, pi)
        obj = {"u": u.to_obj(), "d": d.to_obj()}
        _emit(obj, args, f"u = {u!r}\nd = {d!r}")
        return 0
    w = _decode(WindowPerm.from_obj, payload)
    if args.verb == "length":
        obj = {"length": w.length(), "rho_power": w.rho_power()}
        _emit(obj, args, f"length {w.length()}, shift part {w.rho_power()}")
        return 0
    z, word = w.reduced_word()
    obj = {"rho_power": z, "word": list(word)}
    _emit(obj, args, f"shift^{z} * s_{list(word)}")
    return 0


def _cmd_hecke(args) -> int:
    payload = _read_payload(args)
    if args.verb == "mul":
        out = _product(payload, "hecke mul", HeckeElement.from_obj, lambda h: h.r)
        _emit(out.to_obj(), args, repr(out))
        return 0
    if args.verb == "xlambda":
        pi = _decode(ParabolicIndex.from_obj, payload)
        out = x_lambda(pi)
        _emit(out.to_obj(), args, repr(out))
        return 0
    if not isinstance(payload, dict) or "y" not in payload or "w" not in payload:
        raise InputError('hecke kl expects {"y": …, "w": …}')
    y, w = _decode(lambda: (WindowPerm.from_obj(payload["y"]), WindowPerm.from_obj(payload["w"])))
    _require(y.r == w.r, "y and w have different periods")
    table = KLTable(y.r)
    p = table.extended(y, w)
    obj = {"polynomial": p.to_obj()}
    if not y.rho_power() and not w.rho_power():
        obj["mu"] = table.mu(y, w)
    _emit(obj, args, repr(p))
    return 0


def _cmd_schur(args) -> int:
    from affineschur.schur import SchurElement, Weight, phi, theta

    if args.verb == "verify":
        return _verify("schur-core", args)
    payload = _read_payload(args)
    if args.verb == "mul":
        out = _product(payload, "schur mul", SchurElement.from_obj, lambda s: (s.n, s.r))
        _emit(out.to_obj(), args, repr(out))
        return 0
    # phi and theta share the input shape
    need = {"n", "r", "lambda", "mu", "d"}
    if not isinstance(payload, dict) or not need <= set(payload):
        raise InputError(f'schur {args.verb} expects keys {sorted(need)}')
    n, r = _decode(lambda: (payload_int(payload["n"]), payload_int(payload["r"])))
    lam, mu = _decode(lambda: (Weight.from_obj(n, r, payload["lambda"]), Weight.from_obj(n, r, payload["mu"])))
    d = _decode(lambda: WindowPerm.from_obj({"r": r, **dict(payload["d"])}))
    if args.verb == "phi":
        out = phi(lam, mu, d)
    else:
        out = theta(lam, mu, d, KLTable(r))
    _emit(out.to_obj(), args, repr(out))
    return 0


def _cmd_quantum(args) -> int:
    from affineschur.quantum import TensorVector, UElement, act_tensor, kappa, kappa_exponents, tau
    from affineschur.schur import SchurElement, Weight

    if args.verb in ("verify-hopf", "verify-duality"):
        return _verify(args.verb[len("verify-"):], args)
    payload = _read_payload(args)
    if args.verb == "act":
        if not isinstance(payload, dict) or "element" not in payload or "vector" not in payload:
            raise InputError('quantum act expects {"element": …, "vector": …}')
        u, x = _decode(lambda: (UElement.from_obj(payload["element"]), TensorVector.from_obj(payload["vector"])))
        _require(u.n == x.n, "quantum act needs an element and a vector of one n")
        out = act_tensor(u, x)
        _emit(out.to_obj(), args, repr(out))
        return 0
    if args.verb == "tau":
        if not isinstance(payload, dict) or "w" not in payload or "vector" not in payload:
            raise InputError('quantum tau expects {"w": …, "vector": …}')
        w, x = _decode(lambda: (WindowPerm.from_obj(payload["w"]), TensorVector.from_obj(payload["vector"])))
        _require(x.n >= x.r == w.r, "quantum tau needs n >= r and a window of period r")
        out = tau(x.n, x.r, w)(x)
        _emit(out.to_obj(), args, repr(out))
        return 0
    # kappa: report the normalization exponents for every weight the
    # element touches, and apply the operator when a vector is supplied
    body = payload.get("element", payload) if isinstance(payload, dict) else payload
    s = _decode(SchurElement.from_obj, body)
    x = _decode(TensorVector.from_obj, payload["vector"]) if isinstance(payload, dict) and "vector" in payload else None
    _require(s.n >= s.r, f"quantum kappa needs n >= r, got n={s.n}, r={s.r}")
    _require(x is None or (x.n, x.r) == (s.n, s.r), "quantum kappa needs a vector of the element's n and r")
    weights = sorted({lam.parts for lam, _, _, _ in s.items()} | {mu.parts for _, mu, _, _ in s.items()})
    table = []
    for parts in weights:
        f, g = kappa_exponents(s.n, s.r, Weight(s.n, s.r, parts))
        table.append({"lambda": list(parts), "f": f, "g": g})
    obj: dict = {"exponents": table}
    lines = [f"lambda {row['lambda']}: f = {row['f']}, g = {row['g']}" for row in table]
    if x is not None:
        out = kappa(s)(x)
        obj["result"] = out.to_obj()
        lines.append(repr(out))
    _emit(obj, args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verification verbs


def _run_reports(reports: list[SuiteReport], args) -> int:
    for rep in reports:
        sys.stderr.write(f"[{rep.suite}] {rep.wall_time:.2f}s\n")
    if len(reports) == 1:
        rep = reports[0]
        _emit(rep.to_obj(), args, rep.render())
    else:
        obj = {
            "suite": "all",
            "reports": [rep.to_obj() for rep in reports],
            "failed": sum(len(rep.failures()) for rep in reports),
        }
        _emit(obj, args, "\n".join(rep.render() for rep in reports))
    return 0 if all(rep.ok() for rep in reports) else 1


def _verify(name: str, args) -> int:
    """Suite name, or the gate for 'all', on the parameters the flags set."""
    given = _given(args, suite_params(name), name)
    params = _decode(lambda: suite_params(name, **given))
    if name == "all":
        try:
            reports = run_all(**params)
        except RuntimeError as exc:  # a suite worker died (BrokenProcessPool): a crashed check
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
            return 1
        return _run_reports(reports, args)
    return _run_reports([run_suite(name, **params)], args)


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="number of index residues (rows); default 3")
    p.add_argument("--r", type=int, default=None, help="period / number of tensor slots; default 3")
    p.add_argument(
        "--len", "--len-bound", dest="len", type=int, default=None, help="length bound for sweeps"
    )
    p.add_argument("--window", type=int, default=None, help="index window half-width")
    p.add_argument(
        "--seed", type=int, default=None, help=f"PRNG seed for sampled checks; default {DEFAULT_SEED}"
    )
    p.add_argument("--json", action="store_true", help="emit canonical JSON on stdout")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="affineschur", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    weyl = sub.add_parser("weyl", help="window permutation operations")
    weyl.add_argument("verb", choices=["length", "word", "compose", "coset"])
    _add_common(weyl)
    weyl.set_defaults(fn=_cmd_weyl)

    hecke = sub.add_parser("hecke", help="Hecke algebra operations")
    hecke.add_argument("verb", choices=["mul", "xlambda", "kl"])
    _add_common(hecke)
    hecke.set_defaults(fn=_cmd_hecke)

    schur = sub.add_parser(
        "schur",
        help="endomorphism algebra operations",
        epilog="theta: " + THETA_NOTE,
    )
    schur.add_argument("verb", choices=["mul", "phi", "theta", "verify"])
    _add_common(schur)
    schur.set_defaults(fn=_cmd_schur)

    quantum = sub.add_parser("quantum", help="tensor space actions and sweeps", epilog=BUDGET_NOTE)
    quantum.add_argument("verb", choices=["act", "tau", "kappa", "verify-hopf", "verify-duality"])
    _add_common(quantum)
    quantum.set_defaults(fn=_cmd_quantum)

    verify = sub.add_parser("verify", help="run a named verification suite", epilog=BUDGET_NOTE)
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    _add_common(verify)
    verify.set_defaults(fn=lambda args: _verify(args.suite, args))

    return top


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, ArithmeticError) as exc:  # the computation failed: a crashed check
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

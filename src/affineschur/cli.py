"""Batch command line front end.

Elements travel as JSON on stdin and stdout in the same shapes the
library's ``to_obj``/``from_obj`` pairs use, so any output can be piped
straight back in.  Verification verbs emit a report whose bytes depend
only on the flags and seed; timing goes to stderr.  Exit codes: 0 all
good, 1 at least one failed check, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from affineschur.hecke import HeckeElement, KLTable, kl_extended, x_lambda
from affineschur.verify import DEFAULT_SEED, SUITES, SWEEP_KEY_BUDGET, SuiteReport, sweep_key_count
from affineschur.verify import run_all, run_suite
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


# the Hopf relation rows visit (2 * window + 1)^k keys for every k <= r
HOPF_MAX_R = 3

BUDGET_NOTE = (
    f"hopf and duality refuse a sweep of more than {SWEEP_KEY_BUDGET} tensor keys: "
    "for hopf the sum over k <= r of (2W+1)^k, plus (2W+1)^3 when r < 3, since "
    "coassociativity always uses 3-slot keys; for duality (2W+1)^r; "
    "W = --window (default 2n)"
)

# the suites that read each flag; the other suites and every payload verb
# (which reads none) refuse it when it is given
_FLAG_READERS = {
    "n": ("schur-core", "hopf", "duality"),
    "r": ("weyl-core", "hecke-core", "schur-core", "hopf", "duality"),
    "len": ("weyl-core", "duality"),
    "window": ("hopf", "duality"),
    "seed": ("all", "hecke-core", "schur-core", "duality"),
}


class InputError(ValueError):
    """Bad JSON or a value out of domain; maps to exit code 2."""


def _refuse_unread(name: str, args) -> None:
    for flag, readers in _FLAG_READERS.items():
        if getattr(args, flag) is not None and name not in readers:
            raise InputError(f"--{flag} is not read by {name}")


def _read_payload(args) -> object:
    _refuse_unread(f"{args.command} {args.verb}", args)
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


def _as_list(payload, what: str, least: int = 2) -> list:
    if not isinstance(payload, list) or len(payload) < least:
        raise InputError(f"{what} expects a JSON array of at least {least} elements")
    return payload


# ---------------------------------------------------------------------------
# element verbs


def _cmd_weyl(args) -> int:
    payload = _read_payload(args)
    if args.verb == "compose":
        parts = [WindowPerm.from_obj(o) for o in _as_list(payload, "weyl compose")]
        out = parts[0]
        for p in parts[1:]:
            out = out * p
        _emit(out.to_obj(), args, repr(out))
        return 0
    if args.verb == "coset":
        if not isinstance(payload, dict) or "w" not in payload or "members" not in payload:
            raise InputError('weyl coset expects {"w": …, "members": […], "shift": 0}')
        w = WindowPerm.from_obj(payload["w"])
        pi = ParabolicIndex(w.r, payload["members"], int(payload.get("shift", 0)))
        u, d = coset_decompose(w, pi)
        obj = {"u": u.to_obj(), "d": d.to_obj()}
        _emit(obj, args, f"u = {u!r}\nd = {d!r}")
        return 0
    w = WindowPerm.from_obj(payload)
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
        parts = [HeckeElement.from_obj(o) for o in _as_list(payload, "hecke mul")]
        out = parts[0]
        for p in parts[1:]:
            out = out * p
        _emit(out.to_obj(), args, repr(out))
        return 0
    if args.verb == "xlambda":
        pi = ParabolicIndex.from_obj(payload)
        out = x_lambda(pi)
        _emit(out.to_obj(), args, repr(out))
        return 0
    if not isinstance(payload, dict) or "y" not in payload or "w" not in payload:
        raise InputError('hecke kl expects {"y": …, "w": …}')
    y = WindowPerm.from_obj(payload["y"])
    w = WindowPerm.from_obj(payload["w"])
    if y.r != w.r:
        raise InputError("y and w have different periods")
    table = KLTable(y.r)
    p = kl_extended(table, y, w)
    obj = {"polynomial": p.to_obj()}
    if not y.rho_power() and not w.rho_power():
        obj["mu"] = table.mu(y, w)
    _emit(obj, args, repr(p))
    return 0


def _cmd_schur(args) -> int:
    from affineschur.schur import SchurElement, Weight, phi, theta

    if args.verb == "verify":
        return _run_reports([run_suite("schur-core", **_suite_params("schur-core", args))], args)
    payload = _read_payload(args)
    if args.verb == "mul":
        parts = [SchurElement.from_obj(o) for o in _as_list(payload, "schur mul")]
        out = parts[0]
        for p in parts[1:]:
            out = out * p
        _emit(out.to_obj(), args, repr(out))
        return 0
    # phi and theta share the input shape
    need = {"n", "r", "lambda", "mu", "d"}
    if not isinstance(payload, dict) or not need <= set(payload):
        raise InputError(f'schur {args.verb} expects keys {sorted(need)}')
    n, r = int(payload["n"]), int(payload["r"])
    lam = Weight(n, r, payload["lambda"])
    mu = Weight(n, r, payload["mu"])
    d = WindowPerm.from_obj({"r": r, **dict(payload["d"])})
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
        suite = args.verb[len("verify-"):]
        return _run_reports([run_suite(suite, **_suite_params(suite, args))], args)
    payload = _read_payload(args)
    if args.verb == "act":
        if not isinstance(payload, dict) or "element" not in payload or "vector" not in payload:
            raise InputError('quantum act expects {"element": …, "vector": …}')
        u = UElement.from_obj(payload["element"])
        x = TensorVector.from_obj(payload["vector"])
        out = act_tensor(u, x)
        _emit(out.to_obj(), args, repr(out))
        return 0
    if args.verb == "tau":
        if not isinstance(payload, dict) or "w" not in payload or "vector" not in payload:
            raise InputError('quantum tau expects {"w": …, "vector": …}')
        w = WindowPerm.from_obj(payload["w"])
        x = TensorVector.from_obj(payload["vector"])
        out = tau(x.n, x.r, w)(x)
        _emit(out.to_obj(), args, repr(out))
        return 0
    # kappa: report the normalization exponents for every weight the
    # element touches, and apply the operator when a vector is supplied
    body = payload.get("element", payload) if isinstance(payload, dict) else payload
    s = SchurElement.from_obj(body)
    weights = sorted({lam.parts for lam, _, _, _ in s.items()} | {mu.parts for _, mu, _, _ in s.items()})
    table = []
    for parts in weights:
        f, g = kappa_exponents(s.n, s.r, Weight(s.n, s.r, parts))
        table.append({"lambda": list(parts), "f": f, "g": g})
    obj: dict = {"exponents": table}
    lines = [f"lambda {row['lambda']}: f = {row['f']}, g = {row['g']}" for row in table]
    if isinstance(payload, dict) and "vector" in payload:
        x = TensorVector.from_obj(payload["vector"])
        out = kappa(s)(x)
        obj["result"] = out.to_obj()
        lines.append(repr(out))
    _emit(obj, args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verification verbs


def _suite_params(name: str, args) -> dict:
    _refuse_unread(name, args)
    if args.len is not None and args.len < 1:
        raise InputError(f"--len is a length bound >= 1, got --len {args.len}")
    n = args.n if args.n is not None else 3
    r = args.r if args.r is not None else 3
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if name == "all":
        return {"seed": seed}
    if name == "weyl-core":
        return {"r": r, "length": args.len if args.len is not None else 8}
    if name == "hecke-core":
        return {"r": r, "seed": seed}
    if name == "kl":
        return {}
    if name == "schur-core":
        return {"n": n, "r": r, "seed": seed}
    if n < 1:
        raise InputError(f"{name} needs --n >= 1, got --n {n}")
    if args.window is not None and args.window < 0:
        raise InputError(f"--window is a half-width >= 0, got --window {args.window}")
    if name == "hopf":
        if not 1 <= r <= HOPF_MAX_R:
            raise InputError(f"hopf sweeps tensor powers 1..r with r <= {HOPF_MAX_R}, got --r {r}")
        params = {"n": n, "r": r, "window": args.window}
    else:
        if not 3 <= r <= n:
            raise InputError(f"duality needs 3 <= r <= n, got --n {n} --r {r}")
        length = args.len if args.len is not None else 3
        params = {"n": n, "r": r, "length": length, "window": args.window, "seed": seed}
    if sweep_key_count(name, n, r, args.window) > SWEEP_KEY_BUDGET:
        raise InputError(
            f"the {name} sweep would visit more than {SWEEP_KEY_BUDGET} keys; lower --window, --n or --r"
        )
    return params


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


def _cmd_verify(args) -> int:
    params = _suite_params(args.suite, args)
    if args.suite == "all":
        try:
            reports = run_all(**params)
        except RuntimeError as exc:  # a suite worker died (BrokenProcessPool): a crashed check
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
            return 1
        return _run_reports(reports, args)
    return _run_reports([run_suite(args.suite, **params)], args)


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
    verify.set_defaults(fn=_cmd_verify)

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
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Kernel layer timings: the pure-Python kernels against the compiled ones.

Times the three hot kernel paths on identical seeded inputs and requires the
backends to agree on the full output (every key and every coefficient, not
just the number of terms):

    kernels.win_compose_length_s   window composition + length over a sample
    kernels.hecke_mul_gen_s        right generator sweeps on a fat Hecke element
    kernels.tensor_act_s           E/F sweeps on a fat tensor vector

Run from the repository root:

    python3 perfbench/kernels_bench.py [--seed N] [--scale N]

When the compiled extension is not built only the pure backend is timed.
The last line is a JSON object of the timings, keyed by backend.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from affineschur import _kernels_py as pure  # noqa: E402

try:
    from affineschur import _kernels as compiled  # noqa: E402
except ImportError:
    compiled = None

DEFAULT_SEED = 20250825


def build_windows(rng, r, count):
    out = []
    for _ in range(count):
        base = list(range(1, r + 1))
        rng.shuffle(base)
        out.append(tuple(b + r * rng.randrange(-3, 4) for b in base))
    return out


def build_laurent_dict(rng, keys):
    return {k: {rng.randrange(-4, 5): rng.randrange(-9, 10) or 1 for _ in range(3)} for k in keys}


def bench_windows(mod, windows, reps):
    t0 = time.perf_counter()
    out = []
    for _ in range(reps):
        out = [mod.win_length(mod.win_compose(windows[i], windows[i + 1])) for i in range(len(windows) - 1)]
    return time.perf_counter() - t0, out


def bench_hecke(mod, elt, r, reps):
    t0 = time.perf_counter()
    out = elt
    for k in range(reps):
        out = mod.hecke_mul_gen_right(out, 1 + k % r)
    return time.perf_counter() - t0, out


def bench_tensor(mod, elt, n, reps):
    t0 = time.perf_counter()
    out = elt
    for k in range(reps):
        i = 1 + k % n
        out = mod.tensor_act_E(out, i, n) if k % 2 else mod.tensor_act_F(out, i, n)
        if not out:
            out = elt
    return time.perf_counter() - t0, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scale", type=int, default=1, help="multiply workload sizes by this")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    r, n = 4, 3
    windows = build_windows(rng, r, 400 * args.scale)
    hecke = build_laurent_dict(rng, build_windows(rng, r, 60 * args.scale))
    tensor = build_laurent_dict(
        rng, {tuple(rng.randrange(-9, 10) for _ in range(r)) for _ in range(120 * args.scale)}
    )
    jobs = [
        ("kernels.win_compose_length_s", bench_windows, (windows, 8)),
        ("kernels.hecke_mul_gen_s", bench_hecke, (hecke, r, 40)),
        ("kernels.tensor_act_s", bench_tensor, (tensor, n, 24)),
    ]
    backends = [(pure.BACKEND, pure)] + ([(compiled.BACKEND, compiled)] if compiled is not None else [])
    if compiled is None:
        print("compiled extension not available; timing the pure backend only")

    timings: dict[str, dict[str, float]] = {name: {} for name, _ in backends}
    for label, fn, extra in jobs:
        outputs = []
        for name, mod in backends:
            dt, out = fn(mod, *extra)
            timings[name][label] = dt
            outputs.append(out)
        if any(out != outputs[0] for out in outputs[1:]):
            print(f"backend outputs disagree on {label}", file=sys.stderr)
            return 1
        print(f"{label:<30}" + "".join(f"{timings[name][label]:>12.4f} s ({name})" for name, _ in backends))
    print(json.dumps({"seed": args.seed, "timings": timings}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layered benchmark for affineschur: end-to-end metrics per workload, and a
traced run that attributes the time to the package's modules.

One run of one workload, from the repository root:

    python3 perfbench/run.py --workload transport --seed 7 --seconds 20 --trace 0

prints detail lines and, last, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` gives the end-to-end metrics of
BENCHMARK.json, measured untraced; `--trace 1` gives the per-layer metrics
from a traced run of a fixed set of requests, next to an untraced run of the
same requests in a fresh process that yields the tracing overhead.

    python3 perfbench/run.py --all [--smoke] [--out FILE]

runs every workload untraced and then traced, each in its own process,
prints every metric by name with its unit and writes the result set
(default `.perfbench/results.json`).  `--compare A B` compares two result
sets and refuses when their backends differ.  `--smoke` runs two short cycles
of tiny requests per workload, in seconds; `perfbench/selftest.py` uses it.

Load is one client in a closed loop: a request is issued only after the
previous one finished and was checked.  `attempted` counts checks and
`failed` counts checks that failed or raised; a failure never aborts the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("gate", "transport", "algebra")
SETUP_REPEATS = 7
# tail percentile rule: the highest percentile with at least this many
# samples beyond it
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# metric definitions


def _sum_names(field: str, *names: str):
    return lambda tr: sum(getattr(tr, field).get(n, 0) for n in names)


def _prefix(field: str, prefix: str):
    return lambda tr: tr.total(field, prefix)


# functions whose self time is reported on its own; they open a span on every
# call, also when called from their own layer
FOCUS = frozenset({
    "quantum.act_tensor", "quantum.theta_iso_inverse", "quantum.hecke_right_action", "quantum.theta_iso",
    "hecke.to_bernstein_basis", "hecke.mul", "hecke.HeckeElement.mul", "hecke.KLTable.polynomial",
    "hecke.KLTable.extended", "hecke.KLTable.mu", "hecke.kl_polynomial", "hecke.kl_extended",
    "schur.schur_mul", "schur.SchurElement.mul", "schur.theta",
})


def _per_layer_specs() -> list[tuple[str, str, object]]:
    """(name, unit, extractor) for every per-layer metric; the extractor
    takes the Tracer, or is None for values filled in by the workload."""
    from tracer import LAYERS

    specs: list[tuple[str, str, object]] = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.self_s", "s", _prefix("self_s", layer)),
            (f"{layer}.calls", "count", _prefix("calls", layer)),
            (f"{layer}.terms_out", "count", _prefix("terms_out", layer)),
        ]
    hecke_mul = ("hecke.mul", "hecke.HeckeElement.mul")
    specs += [
        ("quantum.act_tensor.calls", "count", _sum_names("calls", "quantum.act_tensor")),
        ("quantum.act_tensor.self_s", "s", _sum_names("self_s", "quantum.act_tensor")),
        ("kernels.tensor_act.calls", "count",
         _sum_names("calls", "kernels.tensor_act_E", "kernels.tensor_act_F")),
        ("kernels.tensor_shift_slot.calls", "count", _sum_names("calls", "kernels.tensor_shift_slot")),
    ]
    specs += [(name, "s", None) for name in VERIFY_SUITES]
    specs += [
        ("quantum.theta_iso_inverse.self_s", "s", _sum_names("self_s", "quantum.theta_iso_inverse")),
        ("laurent.mul.calls", "count", _sum_names("calls", "laurent.Laurent.mul", "laurent.Laurent.rmul")),
        ("laurent.divexact.calls", "count", _sum_names("calls", "laurent.Laurent.divexact")),
        ("quantum.hecke_right_action.self_s", "s", _sum_names("self_s", "quantum.hecke_right_action")),
        ("quantum.theta_iso.self_s", "s", _sum_names("self_s", "quantum.theta_iso")),
        ("hecke.to_bernstein_basis.calls", "count", _sum_names("calls", "hecke.to_bernstein_basis")),
        ("hecke.to_bernstein_basis.self_s", "s", _sum_names("self_s", "hecke.to_bernstein_basis")),
        ("hecke.mul.calls", "count", _sum_names("calls", *hecke_mul)),
        ("hecke.mul.self_s", "s", _sum_names("self_s", *hecke_mul)),
        ("hecke.mul.terms_out", "count", _sum_names("terms_out", *hecke_mul)),
        ("kernels.hecke_mul_gen.calls", "count",
         _sum_names("calls", "kernels.hecke_mul_gen_right", "kernels.hecke_mul_gen_left")),
        ("kernels.lp_mul.calls", "count", _sum_names("calls", "kernels.lp_mul")),
        ("hecke.kl.self_s", "s", lambda tr: tr.total("self_s", "hecke.KLTable")
         + _sum_names("self_s", "hecke.kl_polynomial", "hecke.kl_extended")(tr)),
        ("schur.schur_mul.self_s", "s", _sum_names("self_s", "schur.schur_mul", "schur.SchurElement.mul")),
        ("schur.theta.self_s", "s", _sum_names("self_s", "schur.theta")),
    ]
    for layer in ("weyl", "hecke", "schur", "quantum"):
        specs += [(f"{layer}.cache.size", "count", None), (f"{layer}.cache.hit_ratio", "ratio", None)]
    specs += [
        ("hecke.kl_memo.size", "count", None),
        ("trace.spans", "count", lambda tr: tr.span_total),
        ("trace.overhead_ratio", "ratio", None),
    ]
    return specs


VERIFY_SUITES = tuple(
    f"verify.{s}_s"
    for s in ("weyl-core-r3", "weyl-core-r4", "hecke-core", "kl", "schur-core", "hopf-n3", "hopf-n4", "duality")
)


# ---------------------------------------------------------------------------
# helpers


def stamp(seed: int) -> dict:
    """Backend, interpreter, commit and core count of a result."""
    import affineschur

    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "backend": affineschur.BACKEND,
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond
    it; below 2 * TAIL_BEYOND + 1 samples no percentile above the median
    qualifies and the maximum is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return xs[-1], f"max of {n}"
    rank = n - TAIL_BEYOND
    return xs[rank - 1], f"p{100 * rank / n:.1f} of {n}"


def median_setup(cmd: list[str], env: dict | None, repeats: int) -> float:
    """Median wall time of `repeats` fresh processes that set up and exit."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace')[-400:]}")
    return statistics.median(times)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def emit(counts: tuple[int, int], metrics: dict, detail: dict) -> None:
    """Print the detail line, then the result line: (attempted, failed)
    checks and (value, unit) per metric."""
    attempted, failed = counts
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# request workloads (transport, algebra)


def request_loop(wl, seconds: float, expected: list[str] | None, count: int | None = None,
                 tracer=None) -> dict:
    """Run whole cycles of requests, at least two, until `seconds` have
    passed (or exactly `count` requests), checking each; exceptions count as
    failed checks.  The second cycle amortises the first one's cold caches,
    so a run's work does not depend on whether the machine was slow enough
    to end it after one cycle."""
    inputs = [wl.inputs(k) for k in range(count)] if count is not None else None
    if tracer is not None:
        tracer.install()
    latencies, ok_requests, attempted, failed = [], 0, 0, 0
    start = time.perf_counter()
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif k % wl.cycle == 0 and k >= 2 * wl.cycle and time.perf_counter() - start >= seconds:
            break
        inp = inputs[k] if inputs is not None else wl.inputs(k)
        if tracer is not None:
            tracer.request_id = k
        t0 = time.perf_counter()
        try:
            checks, dg = wl.run(inp)
        except Exception as exc:  # a crashed request is a failed request, not a crashed run
            sys.stderr.write(f"request {k}: {type(exc).__name__}: {exc}\n")
            checks, dg = [False] * wl.checks, None
        latencies.append(time.perf_counter() - t0)
        if expected is not None and k < len(expected):
            checks = checks + [dg == expected[k]]
        attempted += len(checks)
        bad = checks.count(False)
        failed += bad
        ok_requests += not bad
        k += 1
    return {"latencies": latencies, "ok": ok_requests, "attempted": attempted, "failed": failed}


def start_reference(cmd: list[str], env: dict | None = None):
    """Start the untraced reference run in a fresh process on the other core.

    Run one after the other, the reference and the traced run would not fit
    the run time limit (tracing slows the Laurent-heavy transport requests
    about fourfold).  Sharing the machine slows the reference a little, so
    the overhead ratio reads slightly low.  Returns a function that waits
    for the reference and gives its stdout, stderr, exit code and wall time.
    """
    ref: dict = {}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def wait():
        ref["stdout"], ref["stderr"] = proc.communicate()
        ref["s"] = time.perf_counter() - t0
        ref["code"] = proc.returncode

    waiter = threading.Thread(target=wait)
    waiter.start()

    def finish() -> dict:
        waiter.join(timeout=max(1.0, 170 - (time.perf_counter() - t0)))
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        return ref

    return finish


def run_requests(args, cls) -> None:
    import workloads

    expected = load_expected()[args.workload] if args.seed == workloads.DEFAULT_SEED and not args.smoke else None
    wl = cls(args.seed, smoke=args.smoke)
    if args.role == "loop":
        res = request_loop(wl, 0, expected, count=args.requests)
        print(json.dumps({"loop_s": sum(res["latencies"]), "failed": res["failed"]}))
        return
    if args.trace:
        from tracer import Tracer

        finish = start_reference(
            [sys.executable, __file__, "--role", "loop", "--workload", args.workload,
             "--seed", str(args.seed), "--requests", str(wl.trace_requests)]
            + (["--smoke"] if args.smoke else [])
        )
        tracer = Tracer(FOCUS)
        res = request_loop(wl, 0, expected, count=wl.trace_requests, tracer=tracer)
        traced_s = sum(res["latencies"])
        ref = finish()
        summary = json.loads(ref["stdout"].splitlines()[-1]) if ref["code"] == 0 else None
        ok = summary is not None and summary["failed"] == 0
        if not ok:
            sys.stderr.write(f"untraced reference run failed: {ref['stderr'][-400:]}\n")
        extra = {name: 0.0 for name in VERIFY_SUITES}
        extra.update(tracer.cache_gauges())
        extra["trace.overhead_ratio"] = traced_s / summary["loop_s"] if ok else 0.0
        emit_layers(args, tracer, extra, (res["attempted"] + 1, res["failed"] + (not ok)))
        return

    setup = median_setup(
        [sys.executable, __file__, "--role", "probe", "--workload", args.workload, "--seed", str(args.seed)]
        + (["--smoke"] if args.smoke else []),
        None, 1 if args.smoke else SETUP_REPEATS,
    )
    res = request_loop(wl, args.seconds, expected)
    lat = res["latencies"]
    tail_v, tail_label = tail(lat)
    metrics = {
        "setup_s": (setup, "s"),
        "requests_per_s": (res["ok"] / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_v, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "workload": args.workload, "requests": len(lat), "tail": tail_label,
        "error_rate": res["failed"] / res["attempted"], "stamp": stamp(args.seed),
    }
    emit((res["attempted"], res["failed"]), metrics, detail)


# ---------------------------------------------------------------------------
# gate


def run_gate(args) -> None:
    import workloads

    expected = load_expected()
    seed = args.seed
    cmd = workloads.gate_command(seed)
    if args.smoke:
        cmd = cmd[:4] + ["kl", "--json"]  # one small suite instead of all
    env = workloads.gate_env(ROOT)

    sha = expected["gate_stdout_sha256"] if seed == workloads.DEFAULT_SEED and not args.smoke else None

    if args.trace:
        from tracer import Tracer

        finish = start_reference(cmd, env)
        tracer = Tracer(FOCUS)
        tracer.install()
        import affineschur.cli as cli

        out, err = io.StringIO(), io.StringIO()
        tracer.request_id = 0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(cmd[3:])
        except Exception as exc:  # counted as a failed verdict
            sys.stderr.write(f"traced verdict: {type(exc).__name__}: {exc}\n")
            code = -1
        traced_s = time.perf_counter() - t0
        ref = finish()
        suites = {name: 0.0 for name in VERIFY_SUITES}
        if not args.smoke and ref["code"] in (0, 1):
            suites.update(workloads.suite_times(ref["stderr"], ref["stdout"]))
        checks = workloads.check_gate(ref["code"], ref["stdout"], sha) + workloads.check_gate(
            code, out.getvalue(), sha
        )
        checks.append(out.getvalue() == ref["stdout"])  # tracing must not change the report
        extra = dict(suites)
        extra.update(tracer.cache_gauges())
        extra["trace.overhead_ratio"] = traced_s / ref["s"]
        emit_layers(args, tracer, extra, (len(checks), checks.count(False)))
        return

    setup = median_setup(
        [sys.executable, "-m", "affineschur.cli", "verify", "--help"], env, 1 if args.smoke else SETUP_REPEATS
    )
    verdicts, attempted, failed, ok = [], 0, 0, 0
    start = time.perf_counter()
    while not verdicts or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        verdicts.append(time.perf_counter() - t0)
        checks = workloads.check_gate(done.returncode, done.stdout, sha)
        attempted += len(checks)
        failed += checks.count(False)
        ok += all(checks)
        if done.returncode not in (0, 1):
            sys.stderr.write(done.stderr[-2000:])
    tail_v, tail_label = tail(verdicts)
    metrics = {
        "setup_s": (setup, "s"),
        "requests_per_s": (ok / sum(verdicts), "1/s"),
        "latency_p50_s": (statistics.median(verdicts), "s"),
        "latency_tail_s": (tail_v, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "workload": "gate", "requests": len(verdicts), "tail": tail_label, "verdict_s": verdicts,
        "error_rate": failed / attempted, "stamp": stamp(seed),
    }
    emit((attempted, failed), metrics, detail)


def emit_layers(args, tracer, extra: dict, counts: tuple[int, int]) -> None:
    metrics = {}
    for name, unit, fn in _per_layer_specs():
        metrics[name] = (fn(tracer) if fn is not None else extra[name], unit)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.txt")
    tracer.dump_spans(span_file)
    detail = {"workload": args.workload, "spans_file": os.path.relpath(span_file, ROOT),
              "spans_kept": len(tracer.spans), "stamp": stamp(args.seed)}
    emit(counts, metrics, detail)


# ---------------------------------------------------------------------------
# the whole set, and comparison


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _detail(text: str) -> dict:
    for line in text.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    return {}


def run_all(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    result = {"stamp": None, "seconds": args.seconds, "smoke": args.smoke, "workloads": []}
    status = 0
    for name in WORKLOADS:
        entry = {"name": name, "why": why.get(name, "")}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode or 1
            res, detail = _last_json(done.stdout), _detail(done.stdout)
            result["stamp"] = result["stamp"] or detail.get("stamp")
            key = "per_layer" if trace else "end_to_end"
            entry[key] = res["metrics"]
            entry[key + "_check"] = {"attempted": res["attempted"], "failed": res["failed"]}
            if not trace:
                entry["detail"] = detail
            if not res["correct"]:
                status = 1
            print(f"== {name} ({'traced' if trace else 'untraced'}): "
                  f"{res['failed']} of {res['attempted']} checks failed")
            for k, v in res["metrics"].items():
                print(f"  {k:<40} {v['value']:>14.6g} {v['unit']}")
            if not trace:
                print(f"  {'error_rate':<40} {detail['error_rate']:>14.6g} ratio")
                print(f"  {'latency_tail_s is':<40} {detail['tail']:>14}")
                if name == "gate":
                    print(f"  {'verdict_s':<40} {statistics.median(detail['verdict_s']):>14.6g} s")
        result["workloads"].append(entry)
    out = args.out or os.path.join(OUT_DIR, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return status


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: B relative to A, against the bound."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["stamp"]["backend"] != b["stamp"]["backend"]:
        sys.stderr.write(
            f"refusing to compare: backends differ ({a['stamp']['backend']} vs {b['stamp']['backend']})\n"
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = 0
    b_by_name = {w["name"]: w for w in b["workloads"]}
    for wa in a["workloads"]:
        wb = b_by_name.get(wa["name"])
        if wb is None:
            continue
        for name, m in spec.items():
            va, vb = wa["end_to_end"][name]["value"], wb["end_to_end"][name]["value"]
            change = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            flag = "WORSE" if change > m["bound"] else "ok"
            worse += flag == "WORSE"
            print(f"{wa['name']:<10} {name:<16} {va:>12.6g} -> {vb:>12.6g}  worse by {change:+.1%} "
                  f"(bound {m['bound']:.0%}) {flag}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="input seed (default: verify's DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    ap.add_argument("--out", help="result set path for --all")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result sets")
    ap.add_argument("--role", choices=("probe", "loop"), help=argparse.SUPPRESS)
    ap.add_argument("--requests", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affineschur", "__init__.py")):
        sys.stderr.write(f"error: no affineschur sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.smoke:
        args.seconds = 0  # the shortest run: two cycles of tiny requests, or one small verdict
    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload, --all or --compare is required")
    if args.role == "probe":
        workloads.REQUEST_WORKLOADS[args.workload](args.seed, smoke=args.smoke).inputs(0)
        return 0
    if args.workload == "gate":
        run_gate(args)
    else:
        run_requests(args, workloads.REQUEST_WORKLOADS[args.workload])
    return 0


if __name__ == "__main__":
    sys.exit(main())

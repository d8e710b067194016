"""Self-test of the benchmark harness, in about a minute:

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced at smoke size, prints a last line
    with exactly the keys correct, attempted, failed and metrics, and every
    end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json by
    name with its unit;
  * a deliberately corrupted result, or a check that raises, counts as a
    failed check and does not abort the run;
  * result sets with different backends are refused by --compare.
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def smoke_runs(spec: dict) -> None:
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for name in run.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--smoke", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"{name} trace={trace}"
            check(done.returncode == 0, f"{label} exits 0 ({done.stderr[-300:]!r})")
            res = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{label} passes its checks")
            got = res["metrics"]
            check(set(got) == {m["name"] for m in wanted[trace]}, f"{label} prints exactly the listed metrics")
            for m in wanted[trace]:
                v = got[m["name"]]
                if v["unit"] != m["unit"] or not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    check(False, f"{label} metric {m['name']} has unit {m['unit']} and a finite value")
            check(True, f"{label} every metric has its unit and a finite value")


def corrupted_results() -> None:
    wl = workloads.Transport(workloads.DEFAULT_SEED, smoke=True)
    honest = workloads.quantum.theta_iso_inverse
    try:
        workloads.quantum.theta_iso_inverse = lambda y, L, rho=1: honest(y, L, rho).scale(2)
        res = run.request_loop(wl, 0, None, count=2)
        check(res["failed"] == 2 and res["ok"] == 0, "a corrupted inverse fails one check per request")
        workloads.quantum.theta_iso_inverse = honest
        res = run.request_loop(wl, 0, ["0" * 64], count=1)
        check(res["failed"] == 1, "an output that differs from its recorded digest is an error")

        def boom(*_):
            raise ArithmeticError("injected")

        workloads.quantum.theta_iso_inverse = boom
        res = run.request_loop(wl, 0, None, count=2)
        check(res["failed"] == 2 * wl.checks and len(res["latencies"]) == 2,
              "a raising request fails all its checks and the run goes on")
    finally:
        workloads.quantum.theta_iso_inverse = honest

    expected = run.load_expected()
    good = subprocess.run(
        workloads.gate_command(workloads.DEFAULT_SEED)[:4] + ["kl", "--json"],
        cwd=ROOT, env=workloads.gate_env(ROOT), capture_output=True, text=True, timeout=120,
    ).stdout
    report = json.dumps({"failed": 0, "reports": []})
    bad = report.replace('"failed": 0', '"failed": 1')
    sha = expected["gate_stdout_sha256"]
    check(workloads.check_gate(0, report, None) == [True, True], "a clean gate report passes")
    check(not all(workloads.check_gate(1, bad, None)), "a gate report with failures is an error")
    check(workloads.check_gate(0, good, sha) == [True, True, False],
          "a passing gate report whose bytes differ from the recorded digest is an error")


def compare_refuses_backends() -> None:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    paths = []
    for backend in ("pure-python", "cython"):
        path = os.path.join(run.OUT_DIR, f"selftest-{backend}.json")
        with open(path, "w") as fh:
            json.dump({"stamp": {"backend": backend}, "workloads": []}, fh)
        paths.append(path)
    check(run.compare(*paths) == 2, "--compare refuses result sets of different backends")


def tail_rule() -> None:
    check(run.tail([float(i) for i in range(1, 26)]) == (15.0, "p60.0 of 25"), "tail has 10 samples beyond it")
    check(run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3"), "too few samples report the maximum")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        tail_rule()
        corrupted_results()
        compare_refuses_backends()
        smoke_runs(spec)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired per-request CPU of two trees on one request workload.

    python3 tools/paired_cpu.py --workload algebra --requests 60 --base HEAD
    python3 tools/paired_cpu.py --workload transport --requests 3000 --base HEAD~1 --change HEAD

Each side is exported as tools/bench_pair.py exports it (a revision by `git
archive`, or the working tree, the default for --change) and gets one
worker process that imports that side's `perfbench/workloads.py` and
package and builds the workload with its default seed.  Each worker first
runs the workload's first cycle of requests untimed, so both start warm.
Then the two take turns on the same request index k = 0, 1, ...: the base
goes first on even k, the change on odd k, and one worker idles while the
other runs.  A worker measures `time.process_time()` around `wl.run` alone
(the inputs are built outside it), and the script requires every check of
every request to pass and both sides' digests to agree.

It prints the ratio change / base of the summed CPU, the median of the
per-request ratios with their quartiles, and the number of requests in
which the change used less CPU, as one JSON line.  Reading CPU rather than
wall time, request by request, resolves a 1-2% difference where whole 20 s
runs of one tree can spread by 2x on a shared machine.  Standard library
only; nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pair import WORKTREE, _export, _export_worktree  # noqa: E402

WORKER = r"""
import json, os, sys, time
sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.join(os.getcwd(), "perfbench")]
import workloads
wl = workloads.REQUEST_WORKLOADS[sys.argv[1]](workloads.DEFAULT_SEED)
for k in range(wl.cycle):
    wl.run(wl.inputs(k))
print("ready", flush=True)
for line in sys.stdin:
    inp = wl.inputs(int(line))
    t0 = time.process_time()
    checks, dg = wl.run(inp)
    cpu = time.process_time() - t0
    print(json.dumps({"cpu": cpu, "ok": all(checks), "digest": dg}), flush=True)
"""


def _worker(root: str, workload: str) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, "-c", WORKER, workload], cwd=root, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    if proc.stdout.readline().strip() != "ready":
        raise RuntimeError(f"the worker in {root} did not start")
    return proc


def _ask(proc: subprocess.Popen, k: int) -> dict:
    proc.stdin.write(f"{k}\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"a worker died at request {k}")
    return json.loads(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("transport", "algebra"))
    ap.add_argument("--requests", type=int, required=True, help="number of paired requests")
    ap.add_argument("--base", required=True, help="revision of the parent side")
    ap.add_argument("--change", default=WORKTREE, help="revision of the change side (default: the working tree)")
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="paired_cpu-")
    procs: dict[str, subprocess.Popen] = {}
    try:
        for name, rev in (("base", args.base), ("change", args.change)):
            path = os.path.join(tmp, name)
            os.mkdir(path)
            _export_worktree(path) if rev == WORKTREE else _export(rev, path)
            procs[name] = _worker(path, args.workload)
        cpu: dict[str, list[float]] = {"base": [], "change": []}
        for k in range(args.requests):
            res = {side: _ask(procs[side], k) for side in (("base", "change") if k % 2 == 0 else ("change", "base"))}
            if not (res["base"]["ok"] and res["change"]["ok"]):
                raise RuntimeError(f"request {k} failed a check: {res}")
            if res["base"]["digest"] != res["change"]["digest"]:
                raise RuntimeError(f"request {k}: the digests differ")
            for side in cpu:
                cpu[side].append(res[side]["cpu"])
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)

    ratios = [c / b for b, c in zip(cpu["base"], cpu["change"])]
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(json.dumps({
        "workload": args.workload, "requests": args.requests,
        "base": args.base, "change": args.change,
        "sum_ratio": round(sum(cpu["change"]) / sum(cpu["base"]), 4),
        "median_ratio": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
        "change_won": sum(r < 1 for r in ratios),
        "base_cpu_s": round(sum(cpu["base"]), 3), "change_cpu_s": round(sum(cpu["change"]), 3),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating before/after runs of the benchmark, summarised as a BENCH entry.

    python3 tools/bench_pair.py --base HEAD --out BENCH_6.json
    python3 tools/bench_pair.py --base HEAD~1 --change HEAD --out B.json

Each side is a revision exported with `git archive` into a temporary
directory, or the working tree (the default for --change) copied into one:
its tracked files as they are on disk plus its untracked files that are not
ignored.  Both sides thus run from the same kind of fresh directory, since
where a side runs from moves setup_s by itself.  For every
workload of BENCHMARK.json, `perfbench/run.py --workload W --seconds S
--trace 0`, with S its run_seconds, runs on the two sides in turn, ten times
each, alternating which side goes first.  The output holds, per workload
and end-to-end metric, each side's runs in order with their median,
quartiles, min and max, and how many pairs the change won; also the failed
checks per run, the backend, the Python version, both revisions and whether
the runs write bytecode.

That last stamp matters for setup_s.  A fresh export has no __pycache__, so
with bytecode writing off (PYTHONDONTWRITEBYTECODE=1, or -B) every set-up
probe compiles the package's source again, at roughly 9 us per source line:
on a 2-CPU Linux box with Python 3.11 a probe took 0.14-0.19 s that way,
against 0.10-0.12 s with cached bytecode.  Source lines a change adds then
show up in its setup_s, which compares only between entries with the same
stamp.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "worktree"
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True).stdout


def _export(rev: str, into: str) -> dict:
    """Unpack the committed files of rev into a fresh directory."""
    sha = _git("rev-parse", rev).strip()
    archive = subprocess.run(["git", "-C", ROOT, "archive", sha], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return {"rev": rev, "sha": sha}


def _export_worktree(into: str) -> dict:
    """Copy the working tree's tracked and untracked, not ignored files into
    a fresh directory, as _export unpacks a revision."""
    paths = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for path in filter(None, paths):
        src = os.path.join(ROOT, path)
        if not os.path.lexists(src):  # deleted in the working tree
            continue
        dst = os.path.join(into, path)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)
    return _worktree_id()


def _worktree_id() -> dict:
    """HEAD plus a digest of the uncommitted diff, since the working tree
    has no commit of its own."""
    diff = _git("diff", "HEAD", "--binary").encode()
    untracked = _git("ls-files", "--others", "--exclude-standard").split()
    for path in sorted(untracked):
        with open(os.path.join(ROOT, path), "rb") as fh:
            diff += path.encode() + b"\0" + fh.read()
    return {"rev": WORKTREE, "sha": _git("rev-parse", "HEAD").strip(),
            "dirty": bool(diff), "diff_sha256": hashlib.sha256(diff).hexdigest()}


def _run_once(root: str, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run in {root} failed ({proc.returncode}): {proc.stderr[-400:]}")
    detail = next((json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail ")), {})
    result = json.loads(lines[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "backend": detail.get("stamp", {}).get("backend"),
        "python": detail.get("stamp", {}).get("python"),
    }


def _bytecode_off() -> bool:
    """sys.flags.dont_write_bytecode as the runs see it: they are started
    like this probe, with this interpreter and its environment."""
    out = subprocess.run([sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"],
                         capture_output=True, text=True, check=True).stdout
    return bool(int(out))


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="revision of the parent side")
    ap.add_argument("--change", default=WORKTREE, help="revision of the change side (default: the working tree)")
    ap.add_argument("--out", required=True, help="where to write the JSON entry")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    tmp = tempfile.mkdtemp(prefix="bench_pair-")
    try:
        sides = {}
        for name, rev in (("base", args.base), ("change", args.change)):
            path = os.path.join(tmp, name)
            os.mkdir(path)
            sides[name] = (path, _export_worktree(path) if rev == WORKTREE else _export(rev, path))

        entry: dict = {
            "harness": f"perfbench/run.py --workload W --seconds {seconds:g} --trace 0",
            "base": sides["base"][1],
            "change": sides["change"][1],
            "dont_write_bytecode": _bytecode_off(),
            "workloads": {},
        }
        stamps = set()
        for workload in (w["name"] for w in bench["workloads"]):
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for k in range(PAIRS):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    res = _run_once(sides[side][0], workload, seconds)
                    runs[side].append(res)
                    stamps.add((res["backend"], res["python"]))
                    sys.stderr.write(f"{workload} {side} run {k + 1}: "
                                     + json.dumps(res["metrics"]) + f" failed={res['failed']}\n")
            row: dict = {"failed": {side: [r["failed"] for r in runs[side]] for side in runs}}
            for metric, way in better.items():
                base = [r["metrics"][metric] for r in runs["base"]]
                change = [r["metrics"][metric] for r in runs["change"]]
                wins = sum((c > b) if way == "higher" else (c < b) for b, c in zip(base, change))
                row[metric] = {"better": way, "base": _summary(base), "change": _summary(change),
                               "change_won_pairs": wins, "pairs": len(base)}
            entry["workloads"][workload] = row
        if len(stamps) != 1:
            raise RuntimeError(f"the two sides ran different backends or interpreters: {sorted(stamps)}")
        entry["backend"], entry["python"] = stamps.pop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(args.out, "w") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

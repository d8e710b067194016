"""verify all's process pool: the reports it hands back and what a dead
worker does.

Each test runs under every start method the platform offers, so nothing
here leans on fork's copy of the parent: the jobs and the function a worker
calls must pickle by name.  None of them runs the full `verify all`.
"""

import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from affineschur import cli, verify

# a hung pool fails the test after this long instead of blocking the run
TIMEOUT_S = 60

CHEAP_JOBS = [("weyl-core", {"r": 3}), ("kl", {})]


def _die(name, **params):
    """Stands in for verify.run_suite in a worker: the process ends at once,
    as a segfault or an out-of-memory kill would end it."""
    os._exit(1)


@pytest.fixture(params=multiprocessing.get_all_start_methods())
def start_method(request):
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(before, force=True)


def _within_timeout(fn):
    """fn() in a thread, its result or its exception; fails if it is still
    running after TIMEOUT_S."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(TIMEOUT_S)
    assert not worker.is_alive(), f"still running after {TIMEOUT_S} s"
    return out


def _rows(rep):
    return rep.suite, rep.parameters, rep.checks


def test_pool_reports_equal_the_in_process_runs(start_method):
    got = _within_timeout(lambda: verify._run_jobs(CHEAP_JOBS))
    assert "error" not in got, got.get("error")
    want = [verify.run_suite(name, **params) for name, params in CHEAP_JOBS]
    assert [_rows(rep) for rep in got["value"]] == [_rows(rep) for rep in want]
    assert all(rep.ok() for rep in got["value"])
    assert not multiprocessing.active_children()


def test_run_all_submits_longest_first_and_reports_in_order(monkeypatch):
    submitted = []

    def record(jobs):
        submitted.extend(jobs)
        return [verify.SuiteReport(name, dict(params), []) for name, params in jobs]

    monkeypatch.setattr(verify, "_run_jobs", record)
    reports = verify.run_all(seed=7)
    assert [(name, params.get("n")) for name, params in submitted[:4]] == [
        ("hopf", 4), ("duality", None), ("hopf", 3), ("schur-core", None)
    ]
    assert [(rep.suite, rep.parameters) for rep in reports] == verify._all_jobs(7)


def test_a_dead_worker_raises_and_leaves_no_process(monkeypatch, start_method):
    monkeypatch.setattr(verify, "run_suite", _die)
    got = _within_timeout(lambda: verify._run_jobs(CHEAP_JOBS))
    assert isinstance(got.get("error"), BrokenProcessPool), got
    assert not multiprocessing.active_children()


def test_verify_all_exits_1_when_a_worker_dies(monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_suite", _die)
    got = _within_timeout(lambda: cli.run(["verify", "all", "--json"]))
    assert got == {"value": 1}
    out, err = capsys.readouterr()
    assert out == "" and "BrokenProcessPool" in err
    assert not multiprocessing.active_children()

"""End-to-end runs of the batch front end, in process."""

import io
import json
import sys

import pytest

from affineschur.cli import run
from affineschur.hecke import HeckeElement, t_basis
from affineschur.laurent import Laurent
from affineschur.quantum import TensorVector
from affineschur.schur import SchurElement
from affineschur.weyl import WindowPerm


def invoke(argv, stdin="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_weyl_core_exits_zero(monkeypatch, capsys):
    code, out, err = invoke(
        ["verify", "weyl-core", "--r", "3", "--len", "6", "--json"],
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "weyl-core"
    assert report["failed"] == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_hecke_mul_generator_square(monkeypatch, capsys):
    s1 = t_basis(WindowPerm.s(3, 1)).to_obj()
    code, out, _ = invoke(
        ["hecke", "mul", "--json"], stdin=json.dumps([s1, s1]),
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    got = HeckeElement.from_obj(json.loads(out))
    want = HeckeElement.unit(3).scale(Laurent.q()) + t_basis(WindowPerm.s(3, 1)).scale(
        Laurent.q() - 1
    )
    assert got == want


def test_malformed_window_exits_two(monkeypatch, capsys):
    code, out, err = invoke(
        ["weyl", "length"], stdin='{"r": 3, "window": [1, 1, 3]}',
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    assert out == ""
    assert "residue" in err


def test_empty_stdin_exits_two(monkeypatch, capsys):
    code, _, err = invoke(["hecke", "mul"], stdin="", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "JSON" in err


def test_reports_are_byte_identical(monkeypatch, capsys):
    argv = ["verify", "hecke-core", "--r", "3", "--seed", "7", "--json"]
    _, first, _ = invoke(argv, monkeypatch=monkeypatch, capsys=capsys)
    _, second, _ = invoke(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert first == second


def test_report_checks_sorted_by_name(monkeypatch, capsys):
    code, out, _ = invoke(
        ["verify", "hecke-core", "--json"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == sorted(names)


def test_weyl_compose_round_trips(monkeypatch, capsys):
    a = WindowPerm.s(3, 1)
    b = WindowPerm.rho(3)
    code, out, _ = invoke(
        ["weyl", "compose", "--json"], stdin=json.dumps([a.to_obj(), b.to_obj()]),
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert WindowPerm.from_obj(json.loads(out)) == a * b


def test_schur_phi_round_trips(monkeypatch, capsys):
    payload = {"n": 3, "r": 3, "lambda": [2, 1, 0], "mu": [1, 1, 1], "d": {"window": [1, 2, 3]}}
    code, out, _ = invoke(
        ["schur", "phi", "--json"], stdin=json.dumps(payload),
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    elt = SchurElement.from_obj(json.loads(out))
    assert not elt.is_zero()
    assert SchurElement.from_obj(elt.to_obj()) == elt


def test_quantum_act_matches_direct_computation(monkeypatch, capsys):
    payload = {
        "element": {"n": 3, "terms": [{"word": [["E", 1]], "coeff": {"0": 1}}]},
        "vector": {"n": 3, "r": 2, "terms": [{"key": [2, 2], "coeff": {"0": 1}}]},
    }
    code, out, _ = invoke(
        ["quantum", "act", "--json"], stdin=json.dumps(payload),
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    got = TensorVector.from_obj(json.loads(out))
    want = TensorVector(3, 2, {(1, 2): Laurent.v(-1), (2, 1): Laurent.one()})
    assert got == want


def test_quantum_kappa_reports_exponents(monkeypatch, capsys):
    payload = {
        "n": 3,
        "r": 3,
        "terms": [
            {"lambda": [2, 1, 0], "mu": [2, 1, 0], "d": {"window": [1, 2, 3]}, "coeff": {"0": 1}}
        ],
    }
    code, out, _ = invoke(
        ["quantum", "kappa", "--json"], stdin=json.dumps(payload),
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    rows = json.loads(out)["exponents"]
    assert rows == [{"lambda": [2, 1, 0], "f": -2, "g": 0}]


def test_theta_help_documents_the_summation(monkeypatch, capsys):
    code, out, _ = invoke(["schur", "theta", "--help"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert "Kazhdan-Lusztig" in out
    assert "coset" in out


def test_failed_check_maps_to_exit_one(monkeypatch, capsys):
    import affineschur.cli as cli
    from affineschur.verify import SuiteReport

    rep = SuiteReport("weyl-core", {"r": 3}, [("broken", False, {"why": "forced"})], 0.0)
    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: rep)
    code, out, err = invoke(
        ["verify", "weyl-core", "--json"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1
    body = json.loads(out)
    assert body["failed"] == 1
    assert body["checks"][0]["witness"] == {"why": "forced"}


def test_unknown_suite_exits_two(monkeypatch, capsys):
    code, _, _ = invoke(["verify", "nonsense"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [["weyl", "length"], ["quantum", "tau"]])
def test_not_json_exits_two(argv, monkeypatch, capsys):
    code, _, err = invoke(argv, stdin="not json {", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "JSON" in err

@pytest.mark.parametrize(
    "argv",
    [["verify", "hopf", "--r", "4"], ["quantum", "verify-hopf", "--r", "4"], ["verify", "hopf", "--r", "0"]],
)
def test_hopf_rank_outside_budget_exits_two_before_any_work(argv, monkeypatch, capsys):
    import affineschur.cli as cli

    def refuse(name, **kw):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "run_suite", refuse)
    code, out, err = invoke(argv + ["--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert out == ""
    assert "r <= 3" in err


def test_rho_bound_flag_is_refused(monkeypatch, capsys):
    code, out, err = invoke(
        ["verify", "hopf", "--rho-bound", "2", "--json"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert "--rho-bound" in err


@pytest.mark.parametrize("suite", ["hopf", "duality"])
def test_quantum_verbs_use_the_suite_parameters(suite, monkeypatch, capsys):
    import affineschur.cli as cli
    from affineschur.verify import SuiteReport

    seen = []

    def record(name, **kw):
        seen.append((name, kw))
        return SuiteReport(name, kw, [], 0.0)

    monkeypatch.setattr(cli, "run_suite", record)
    for argv in (["verify", suite], ["quantum", f"verify-{suite}"]):
        code, _, _ = invoke(argv + ["--window", "1", "--json"], monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
    assert seen[0] == seen[1]
    if suite == "duality":
        assert seen[0][1]["length"] == 3


@pytest.mark.parametrize(
    "argv, row",
    [
        (["verify", "hopf", "--n", "3", "--r", "1", "--window", "1"], "hopf-sweep"),
        (["verify", "duality", "--window", "1", "--len", "1"], "duality-sweep"),
    ],
)
def test_crashing_sweep_is_a_failed_check(argv, row, monkeypatch, capsys):
    from affineschur import quantum

    def broken(terms, i, n):
        raise ValueError("kernel fault")

    monkeypatch.setattr(quantum.kernels, "tensor_act_E", broken)
    code, out, _ = invoke(argv + ["--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    body = json.loads(out)
    assert body["failed"] == 1
    assert body["checks"] == [
        {"name": row, "status": "fail", "witness": {"error": "ValueError: kernel fault"}}
    ]


def test_schur_verify_uses_the_suite_parameters(monkeypatch, capsys):
    import affineschur.cli as cli
    from affineschur.verify import SuiteReport

    seen = []

    def record(name, **kw):
        seen.append((name, kw))
        return SuiteReport(name, kw, [], 0.0)

    monkeypatch.setattr(cli, "run_suite", record)
    for argv in (["verify", "schur-core"], ["schur", "verify"]):
        code, _, _ = invoke(argv + ["--n", "4", "--r", "3", "--json"], monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
    assert seen[0] == seen[1] == ("schur-core", {"n": 4, "r": 3, "seed": cli.DEFAULT_SEED})


@pytest.mark.parametrize(
    "argv, flag",
    [(["verify", suite], "--len") for suite in ("hecke-core", "kl", "schur-core", "hopf", "all")]
    + [(["verify", suite], "--window") for suite in ("weyl-core", "hecke-core", "kl", "schur-core", "all")]
    + [(["schur", "verify"], "--len"), (["schur", "verify"], "--window"), (["quantum", "verify-hopf"], "--len")]
    + [(["verify", suite], flag) for suite in ("kl", "all") for flag in ("--n", "--r")]
    + [(["verify", "weyl-core"], "--n"), (["verify", "hecke-core"], "--n")],
)
def test_unread_flag_exits_two_before_any_work(argv, flag, monkeypatch, capsys):
    import affineschur.cli as cli

    def refuse(*args, **kw):
        raise AssertionError("the suite must not start")

    monkeypatch.setattr(cli, "run_suite", refuse)
    monkeypatch.setattr(cli, "run_all", refuse)
    code, out, err = invoke(argv + [flag, "2", "--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("suite, read", [("weyl-core", "r"), ("hecke-core", "r"), ("schur-core", "n")])
def test_given_n_and_r_reach_the_suite(suite, read, monkeypatch, capsys):
    import affineschur.cli as cli
    from affineschur.verify import SuiteReport

    seen = []

    def record(name, **kw):
        seen.append(kw)
        return SuiteReport(name, kw, [], 0.0)

    monkeypatch.setattr(cli, "run_suite", record)
    code, _, _ = invoke(["verify", suite, "--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and seen[0][read] == 3
    code, _, _ = invoke(["verify", suite, f"--{read}", "4", "--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and seen[1][read] == 4

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


def test_sweep_key_estimate():
    from affineschur.verify import SWEEP_KEY_BUDGET, sweep_key_count

    assert sweep_key_count("hopf", 4, 3) == 17 + 17**2 + 17**3 == 5219
    assert sweep_key_count("hopf", 3, 3) == 13 + 13**2 + 13**3
    assert sweep_key_count("duality", 3, 3) == 13**3 == 2197
    assert sweep_key_count("duality", 3, 3, window=1) == 27
    # coassociativity uses 3-slot keys whatever r is
    assert sweep_key_count("hopf", 3, 2, window=0) == 3
    assert sweep_key_count("hopf", 3, 1, window=60) == 121 + 121**3 > SWEEP_KEY_BUDGET
    assert sweep_key_count("hopf", 4, 3, window=12) == 25 + 25**2 + 25**3 <= SWEEP_KEY_BUDGET
    assert sweep_key_count("hopf", 4, 3, window=13) > SWEEP_KEY_BUDGET
    assert sweep_key_count("duality", 3, 4, window=6) > SWEEP_KEY_BUDGET
    assert sweep_key_count("duality", 8, 8) > SWEEP_KEY_BUDGET
    # counting stops past the budget, so a huge r is cheap to refuse
    assert sweep_key_count("duality", 10**9, 10**9) > SWEEP_KEY_BUDGET
    assert sweep_key_count("duality", 3, 10**9, window=0) == 1


def _refuse_sweeps(monkeypatch):
    import affineschur.cli as cli
    from affineschur import _sweeps

    def refuse(*args, **kw):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "run_suite", refuse)
    monkeypatch.setattr(_sweeps, "verify_hopf", refuse)
    monkeypatch.setattr(_sweeps, "verify_affine_duality", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "duality", "--n", "8", "--r", "8"],
        ["quantum", "verify-duality", "--n", "8", "--r", "8"],
        ["verify", "duality", "--n", "4", "--r", "4"],
        ["verify", "duality", "--n", "1000000000", "--r", "1000000000"],
        ["verify", "hopf", "--window", "30"],
        ["quantum", "verify-hopf", "--n", "4", "--window", "13"],
        # 121 one-slot keys, but coassociativity would walk 121**3
        ["verify", "hopf", "--r", "1", "--window", "60"],
    ],
)
def test_oversized_sweep_exits_two_before_any_work(argv, monkeypatch, capsys):
    _refuse_sweeps(monkeypatch)
    code, out, err = invoke(argv + ["--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert out == ""
    assert "more than 20000 keys" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify", "hopf", "--n", "0", "--r", "1", "--window", "1"], "--n >= 1"),
        (["quantum", "verify-hopf", "--n", "-2"], "--n >= 1"),
        (["verify", "duality", "--n", "2", "--r", "3"], "3 <= r <= n"),
        (["verify", "duality", "--r", "0", "--window", "1"], "3 <= r <= n"),
        (["quantum", "verify-duality", "--n", "4", "--r", "2"], "3 <= r <= n"),
        (["verify", "duality", "--window", "-1"], "half-width >= 0"),
        (["verify", "hopf", "--r", "1", "--window", "-3"], "half-width >= 0"),
        (["verify", "duality", "--len", "-1", "--window", "1"], "length bound >= 1"),
        (["verify", "duality", "--len", "0"], "length bound >= 1"),
        (["quantum", "verify-duality", "--len", "0", "--window", "1"], "length bound >= 1"),
        (["verify", "weyl-core", "--len", "-3"], "length bound >= 1"),
        (["verify", "weyl-core", "--len", "0"], "length bound >= 1"),
        # hopf stays at n >= 3: n = 2, type A_1^(1), waits on rank two as a
        # whole, and n = 1 fails its coassociativity rows
        (["verify", "hopf", "--n", "2", "--r", "1", "--window", "1"], "--n >= 3"),
        (["verify", "hopf", "--n", "1", "--r", "2", "--window", "1"], "--n >= 3"),
        (["quantum", "verify-hopf", "--n", "2"], "--n >= 3"),
        # the window must hold a key of weight omega: residues 1..r mod n
        (["verify", "duality", "--window", "0"], "key of weight omega"),
        (["verify", "duality", "--n", "4", "--r", "3", "--window", "1"], "key of weight omega"),
        (["quantum", "verify-duality", "--n", "5", "--r", "4", "--window", "1"], "key of weight omega"),
    ],
)
def test_out_of_domain_sweep_exits_two_before_any_work(argv, reason, monkeypatch, capsys):
    _refuse_sweeps(monkeypatch)
    code, out, err = invoke(argv + ["--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert out == ""
    assert reason in err


# the argument lists of the two command line tests above and of the hopf
# rank test, as run_suite's parameters: the library entry refuses them too
@pytest.mark.parametrize(
    "suite, params, reason",
    [
        ("duality", {"n": 8, "r": 8}, "more than 20000 keys"),
        ("duality", {"n": 4, "r": 4}, "more than 20000 keys"),
        ("duality", {"n": 10**9, "r": 10**9}, "more than 20000 keys"),
        ("hopf", {"window": 30}, "more than 20000 keys"),
        ("hopf", {"n": 4, "window": 13}, "more than 20000 keys"),
        ("hopf", {"r": 1, "window": 60}, "more than 20000 keys"),
        ("hopf", {"n": 0, "r": 1, "window": 1}, "--n >= 1"),
        ("hopf", {"n": -2}, "--n >= 1"),
        ("duality", {"n": 2, "r": 3}, "3 <= r <= n"),
        ("duality", {"r": 0, "window": 1}, "3 <= r <= n"),
        ("duality", {"n": 4, "r": 2}, "3 <= r <= n"),
        ("duality", {"window": -1}, "half-width >= 0"),
        ("hopf", {"r": 1, "window": -3}, "half-width >= 0"),
        ("duality", {"length": -1, "window": 1}, "length bound >= 1"),
        ("duality", {"length": 0}, "length bound >= 1"),
        ("duality", {"length": 0, "window": 1}, "length bound >= 1"),
        ("weyl-core", {"length": -3}, "length bound >= 1"),
        ("weyl-core", {"length": 0}, "length bound >= 1"),
        ("hopf", {"n": 2, "r": 1, "window": 1}, "--n >= 3"),
        ("hopf", {"n": 1, "r": 2, "window": 1}, "--n >= 3"),
        ("hopf", {"n": 2}, "--n >= 3"),
        ("hopf", {"r": 4}, "r <= 3"),
        ("hopf", {"r": 0}, "r <= 3"),
        ("duality", {"window": 0}, "key of weight omega"),
        ("duality", {"n": 4, "r": 3, "window": 1}, "key of weight omega"),
        ("duality", {"n": 5, "r": 4, "window": 1}, "key of weight omega"),
        # one key, but a huge n: the residue test must not list the residues
        ("duality", {"n": 10**9, "r": 10**9, "window": 0}, "key of weight omega"),
    ],
)
def test_run_suite_refuses_an_out_of_domain_or_oversized_suite_before_any_work(suite, params, reason, monkeypatch):
    from affineschur import verify

    _refuse_sweeps(monkeypatch)
    with pytest.raises(ValueError, match=reason):
        verify.run_suite(suite, **params)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "hopf", "--n", "4"],
        ["verify", "hopf", "--n", "4", "--window", "12"],
        ["verify", "duality"],
        ["quantum", "verify-duality", "--n", "4", "--r", "3"],
    ],
)
def test_sweeps_within_the_key_budget_start(argv, monkeypatch, capsys):
    import affineschur.cli as cli
    from affineschur.verify import SuiteReport

    seen = []

    def record(name, **kw):
        seen.append(name)
        return SuiteReport(name, kw, [], 0.0)

    monkeypatch.setattr(cli, "run_suite", record)
    code, _, _ = invoke(argv + ["--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert len(seen) == 1


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
    + [(["verify", "weyl-core"], "--n"), (["verify", "hecke-core"], "--n")]
    + [(["verify", suite], "--seed") for suite in ("weyl-core", "kl", "hopf")]
    + [(["quantum", "verify-hopf"], "--seed")],
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


@pytest.mark.parametrize("suite", ["all", "hecke-core", "schur-core", "duality"])
def test_default_and_given_seed_reach_the_suite(suite, monkeypatch, capsys):
    import affineschur.cli as cli
    from affineschur.verify import SuiteReport

    seen = []

    def record(name="all", **kw):
        seen.append(kw["seed"])
        return SuiteReport(name, kw, [], 0.0)

    monkeypatch.setattr(cli, "run_suite", record)
    monkeypatch.setattr(cli, "run_all", lambda **kw: [record(**kw)])
    for extra in ([], ["--seed", "7"]):
        code, _, _ = invoke(["verify", suite, "--json"] + extra, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
    assert seen == [cli.DEFAULT_SEED, 7]


@pytest.mark.parametrize(
    "suite, unread",
    [
        ("weyl-core", {"coset_len": 6}),
        ("hecke-core", {"triples": 200}),
        ("kl", {"block": (1, 2, 3)}),
        ("schur-core", {"samples": 50}),
        ("hopf", {"seed": 7}),
        ("duality", {"samples": 2}),
    ],
)
def test_run_suite_refuses_a_parameter_its_suite_does_not_read(suite, unread, monkeypatch):
    from affineschur import verify

    def refuse(*args, **kw):
        raise AssertionError("the suite must not start")

    # every suite builds its recorder before its first check
    monkeypatch.setattr(verify, "_Recorder", refuse)
    with pytest.raises(TypeError, match=next(iter(unread))):
        verify.run_suite(suite, **unread)


@pytest.mark.parametrize(
    "argv",
    [["verify", suite] for suite in ("weyl-core", "hecke-core", "kl", "schur-core", "hopf", "duality")]
    + [["schur", "verify"], ["quantum", "verify-hopf"], ["quantum", "verify-duality"]],
)
def test_every_parameter_the_command_line_passes_is_read_by_its_suite(argv, monkeypatch, capsys):
    import inspect

    import affineschur.cli as cli
    from affineschur.verify import SUITES, SuiteReport

    def bind(name, **kw):
        inspect.signature(SUITES[name]).bind(**kw)
        return SuiteReport(name, kw, [], 0.0)

    monkeypatch.setattr(cli, "run_suite", bind)
    code, _, err = invoke(argv + ["--json"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0, err


PAYLOAD_VERBS = (
    [("weyl", verb) for verb in ("length", "word", "compose", "coset")]
    + [("hecke", verb) for verb in ("mul", "xlambda", "kl")]
    + [("schur", verb) for verb in ("mul", "phi", "theta")]
    + [("quantum", verb) for verb in ("act", "tau", "kappa")]
)


class UnreadStdin(io.StringIO):
    def read(self, *args):
        raise AssertionError("stdin must not be read")


@pytest.mark.parametrize("command, verb", PAYLOAD_VERBS)
def test_payload_verbs_refuse_every_sweep_flag(command, verb, monkeypatch, capsys):
    for flag in ("--n", "--r", "--len", "--window", "--seed"):
        monkeypatch.setattr(sys, "stdin", UnreadStdin())
        code = run([command, verb, flag, "2", "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert flag in err


def test_weyl_length_refuses_unread_flags_and_answers_without_them(monkeypatch, capsys):
    payload = '{"r":3,"window":[2,1,3]}'
    argv = ["weyl", "length", "--r", "9", "--window", "4", "--len", "2", "--json"]
    code, out, err = invoke(argv, stdin=payload, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (2, "")
    assert "--r" in err
    code, out, _ = invoke(["weyl", "length", "--json"], stdin=payload, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"length": 1, "rho_power": 0}


# -- exit 2 is for input alone: an error in the computation exits 1 ---------

KAPPA_PAYLOAD = {
    "n": 3,
    "r": 3,
    "terms": [{"lambda": [2, 1, 0], "mu": [2, 1, 0], "d": {"window": [1, 2, 3]}, "coeff": {"0": 1}}],
}
THETA_PAYLOAD = {"n": 3, "r": 3, "lambda": [2, 1, 0], "mu": [1, 1, 1], "d": {"window": [1, 2, 3]}}


@pytest.mark.parametrize("error", [ValueError, ArithmeticError])
@pytest.mark.parametrize(
    "argv, module, name, payload",
    [
        (["quantum", "kappa"], "quantum", "kappa_exponents", KAPPA_PAYLOAD),
        (["schur", "theta"], "schur", "theta", THETA_PAYLOAD),
    ],
)
def test_an_error_in_the_computation_exits_one(error, argv, module, name, payload, monkeypatch, capsys):
    import importlib

    def broken(*args, **kw):
        raise error("the computation failed")

    monkeypatch.setattr(importlib.import_module(f"affineschur.{module}"), name, broken)
    code, out, err = invoke(argv + ["--json"], stdin=json.dumps(payload), monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {error.__name__}: the computation failed\n"


@pytest.mark.parametrize(
    "argv, payload, reason",
    [
        (["hecke", "mul"], [t_basis(WindowPerm.s(3, 1)).to_obj(), t_basis(WindowPerm.s(4, 1)).to_obj()], "one shape"),
        (["quantum", "act"], {"element": {"n": 3, "terms": []}, "vector": {"n": 4, "r": 2, "terms": []}}, "one n"),
        # a TypeError while decoding is malformed input too
        (["quantum", "act"], {"element": {"n": 3, "terms": 5}, "vector": {"n": 3, "r": 2, "terms": []}}, "int"),
        (["quantum", "tau"], {"w": {"window": [1, 2, 3]}, "vector": {"n": 2, "r": 3, "terms": []}}, "n >= r"),
        (["quantum", "kappa"], {"n": 2, "r": 3, "terms": []}, "n >= r"),
        (["quantum", "kappa"], {"element": KAPPA_PAYLOAD, "vector": {"n": 4, "r": 3, "terms": []}}, "n and r"),
        (["schur", "theta"], {**THETA_PAYLOAD, "mu": [1, 1]}, "expected 3 parts"),
        # every element class refuses a shape outside its domain
        (["quantum", "act"], {"element": {"n": 0, "terms": []}, "vector": {"n": 0, "r": 2, "terms": []}}, "must be positive"),
        (["schur", "mul"], [{"n": 3, "r": 0, "terms": []}] * 2, "must be positive"),
        (["schur", "mul"], [{"n": 3, "r": 2, "terms": []}] * 2, "need r >= 3"),
    ],
)
def test_malformed_or_out_of_domain_payloads_exit_two_before_any_work(argv, payload, reason, monkeypatch, capsys):
    import affineschur.quantum as quantum
    import affineschur.schur as schur

    def refuse(*args, **kw):
        raise AssertionError("the computation must not start")

    for module, name in (
        (quantum, "kappa_exponents"), (quantum, "tau"), (quantum, "act_tensor"), (schur, "theta"), (schur, "schur_mul"),
    ):
        monkeypatch.setattr(module, name, refuse)
    code, out, err = invoke(argv + ["--json"], stdin=json.dumps(payload), monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err


def _hecke_pair(r=3, window=(2, 1, 3), coeff=None):
    term = {"window": list(window), "coeff": coeff or {"0": 1}}
    return [{"r": r, "terms": [term]}] * 2


def _act(n=3, index=1, key=(1, 2, 3)):
    return {
        "element": {"n": n, "terms": [{"word": [["E", index]], "coeff": {"0": 1}}]},
        "vector": {"n": n, "r": 3, "terms": [{"key": list(key), "coeff": {"0": 1}}]},
    }


def _coset(members=(1,), shift=0):
    return {"w": {"window": [4, 2, 3]}, "members": list(members), "shift": shift}


# a float, a bool and a numeric string for each kind of payload number; the
# exponent is a JSON object key, so a string, and its bad forms are strings
# that int() reads but that are not decimal integers (Laurent.from_obj's own
# test covers float and bool keys)
NOT_INTS = {
    "shape r": [(["hecke", "mul"], _hecke_pair(r=3.9)), (["hecke", "mul"], _hecke_pair(r="3"))],
    "shape n": [(["quantum", "act"], _act(n=True))],
    "window entry": [(["weyl", "length"], {"window": w}) for w in ([2.7, 1, 3], [True, 2, 3], ["2", 1, 3])],
    "declared window r": [(["weyl", "length"], {"r": r, "window": [2, 1, 3]}) for r in (3.0, "3")],
    "exponent": [(["hecke", "mul"], _hecke_pair(coeff={e: 1})) for e in ("0_0", " 0", "+0")],
    "coefficient": [(["hecke", "mul"], _hecke_pair(coeff={"0": c})) for c in (1.5, True, "1")],
    "letter index": [(["quantum", "act"], _act(index=i)) for i in (1.0, True, "1")],
    "tensor key slot": [(["quantum", "act"], _act(key=(k, 2, 3))) for k in (1.0, True, "1")],
    "schur n": [(["schur", "phi"], {**THETA_PAYLOAD, "n": n}) for n in (3.0, "3")]
    + [(["schur", "phi"], {**THETA_PAYLOAD, "n": True, "lambda": [3], "mu": [3]})],
    "schur r": [(["schur", "theta"], {**THETA_PAYLOAD, "r": r}) for r in (3.0, "3")],
    "weight part": [(["schur", "phi"], {**THETA_PAYLOAD, "lambda": p}) for p in ([2.0, 1, 0], [True, 2, 0], ["2", 1, 0])],
    "coset shift": [(["weyl", "coset"], _coset(shift=t)) for t in (1.0, True, "1")],
    "coset member": [(["weyl", "coset"], _coset(members=(m,))) for m in (1.0, True, "1")],
    "parabolic r": [(["hecke", "xlambda"], {"r": r, "members": [1]}) for r in (3.0, "3")],
}


@pytest.mark.parametrize(
    "argv, payload",
    [pytest.param(argv, payload, id=f"{kind}-{k}") for kind, cases in NOT_INTS.items() for k, (argv, payload) in enumerate(cases)],
)
def test_a_payload_number_that_is_not_an_int_exits_two(argv, payload, monkeypatch, capsys):
    code, out, err = invoke(argv + ["--json"], stdin=json.dumps(payload), monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and ("expected an integer" in err or "malformed Laurent" in err)

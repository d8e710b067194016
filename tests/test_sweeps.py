"""The memoised operator sweeps against their first, pair-outer form.

The Hopf relation, coassociativity, counit and antipode rows, the duality
commuting-actions, presentation and tau rank rows are rebuilt by the oracles
in tests/oracles.py, which act on a fresh unit vector for every (operator,
key) pair, and must come out identical: names, verdicts and witnesses.  A kernel
corrupted on one key must make both versions fail the same checks with the
same first witness, and a Cartan term that v - v^-1 does not divide must
fail its own row without ending the report.  The right T_{s_i} step is
checked key by key against its first form.
"""

import itertools
import random

import pytest

from affineschur import _sweeps, quantum
from affineschur.hecke import t_basis
from affineschur.laurent import Laurent
from affineschur.quantum import TensorVector, hecke_right_action
from affineschur.schur import Weight, omega
from affineschur.verify import DEFAULT_SEED, run_hopf, sweep_key_count, sweep_keys
from affineschur.weyl import WindowPerm, enumerate_up_to_length

from oracles import (
    act_sigma_terms,
    coassoc_rows,
    commuting_action_rows,
    hopf_counit_antipode_rows,
    hopf_relation_rows,
    presentation_rows,
    tau_rows,
)

N = R = 3
W = 2
WINDOW = range(-W, W + 1)
P = 46337


def _relation_rows(n, r_max, window):
    return sorted(_sweeps._relation_rows(n, r_max, window), key=lambda c: c[0])


def _commuting_rows(n, r, window):
    keyset = list(sweep_keys(window, r))
    return sorted(_sweeps._commuting_action_rows(n, r, keyset), key=lambda c: c[0])


def test_relation_rows_match_the_oracle():
    got = _relation_rows(N, R, W)
    assert got == hopf_relation_rows(N, R, WINDOW)
    assert len(got) == 3 * 68 and all(ok for _, ok, _ in got)


def test_coassoc_rows_match_the_oracle():
    got = sorted(_sweeps._coassoc_rows(N, W), key=lambda c: c[0])
    assert got == coassoc_rows(N, WINDOW)
    assert len(got) == 2 * N + 4 and all(ok for _, ok, _ in got)


def test_commuting_rows_match_the_oracle():
    got = _commuting_rows(N, R, W)
    assert got == commuting_action_rows(N, R, WINDOW)
    assert len(got) == (3 * N + 2) * (R + 1) and all(ok for _, ok, _ in got)


def test_tau_rows_match_the_oracle():
    keyset = sweep_keys(W, R)
    keys = [k for k in keyset if Weight.of_key(k, N).parts == omega(N, R).parts]
    basis = enumerate_up_to_length(R, 3, extended=True, rho_bound=2)
    got = _sweeps._tau_rows(N, R, basis, keys, P)
    want = tau_rows(N, R, basis, keys, P)
    assert got == want
    # same column order too, so the rank elimination picks the same pivots
    assert [list(row) for row in got] == [list(row) for row in want]


def _corrupt(monkeypatch, kernel, bad_key, applies):
    """The named tensor kernel also sends e_bad_key to itself whenever
    applies(*args) holds for its arguments after the terms: still linear,
    but wrong."""
    clean = getattr(quantum.kernels, kernel)

    def corrupted(terms, *args):
        out = clean(terms, *args)
        c = terms.get(bad_key)
        if c and applies(*args):
            acc = out.setdefault(bad_key, {})
            quantum.kernels.lp_add_into(acc, c)
            if not acc:
                del out[bad_key]
        return out

    monkeypatch.setattr(quantum.kernels, kernel, corrupted)


def _corrupt_E(monkeypatch, bad_key):
    """E_1 also sends e_bad_key to itself."""
    _corrupt(monkeypatch, "tensor_act_E", bad_key, lambda i, n: i == 1)


def _corrupt_K(monkeypatch, bad_key):
    """K_1 also sends e_bad_key to itself, K_1^-1 stays as it was."""
    _corrupt(monkeypatch, "tensor_act_K", bad_key, lambda i, n, inverse: i == 1 and not inverse)


def _failures(rows):
    return [(name, witness) for name, ok, witness in rows if not ok]


def test_corrupted_kernel_fails_the_same_relations(monkeypatch):
    _corrupt_E(monkeypatch, (1, 0))
    got = _relation_rows(N, 2, W)
    assert got == hopf_relation_rows(N, 2, WINDOW)
    fails = _failures(got)
    assert fails and all(name.endswith("-r2") for name, _ in fails)
    assert "def-rel-ke-twist-1-1-r2" in dict(fails)


def test_relation_rows_match_the_oracle_at_n4():
    """n = 4 has the ee-commute and ff-commute rows that n = 3 lacks."""
    got = _relation_rows(4, 3, 1)
    assert got == hopf_relation_rows(4, 3, range(-1, 2))
    assert len(got) == 3 * 114 and all(ok for _, ok, _ in got)
    assert "def-rel-ee-commute-1-3-r3" in {name for name, _, _ in got}


def test_corrupted_K_fails_the_same_relations(monkeypatch):
    """The corrupted K_1 breaks k-inverse-1, whose sides are single words
    with v^0, and the E-F commutator's Cartan term."""
    _corrupt_K(monkeypatch, (1, 0))
    got = _relation_rows(N, 2, W)
    assert got == hopf_relation_rows(N, 2, WINDOW)
    fails = dict(_failures(got))
    assert all(name.endswith("-r2") for name in fails)
    assert {"def-rel-k-inverse-1-r2", "def-rel-ke-twist-1-1-r2", "def-rel-ef-commutator-1-1-r2"} <= set(fails)
    assert fails["def-rel-k-inverse-1-r2"]["key"] == [1, 0]


def test_corrupted_R_fails_the_same_relations(monkeypatch):
    """R also sends e_(0, 1) to itself: r-inverse and the r-rotate rows,
    single words on both sides, must fail as in the oracle."""
    _corrupt(monkeypatch, "tensor_act_R", (0, 1), lambda inverse: not inverse)
    got = _relation_rows(N, 2, W)
    assert got == hopf_relation_rows(N, 2, WINDOW)
    fails = [name for name, _ in _failures(got)]
    assert "def-rel-r-inverse-r2" in fails and "def-rel-r-inverse-rev-r2" in fails
    assert any(name.startswith("def-rel-r-rotate-") for name in fails)
    assert all(name.startswith("def-rel-r-") and name.endswith("-r2") for name in fails)


def test_an_undivided_cartan_term_fails_its_row_not_the_report(monkeypatch):
    """With the corrupted K_1, K_1 K_2^-1 - K_1^-1 K_2 sends e_(1,) to
    (v + 1 - v^-1) e_(1,), which v - v^-1 does not divide.  That relation
    fails at (1,) with the undivided term as its rhs, and every other row of
    the report keeps the oracle's verdict and witness."""
    _corrupt_K(monkeypatch, (1,))
    rep = run_hopf(n=N, r=2, window=W)
    rows = {name: (ok, witness) for name, ok, witness in rep.checks}
    assert rows["def-rel-ef-commutator-1-1-r1"] == (
        False,
        {"key": [1], "lhs": [[[1], {"0": 1}]], "rhs": [[[1], {"-1": -1, "0": 1, "1": 1}]]},
    )
    want = hopf_relation_rows(N, 2, WINDOW) + coassoc_rows(N, WINDOW) + hopf_counit_antipode_rows(N, WINDOW)
    assert rep.checks == sorted(want, key=lambda c: c[0])


def test_corrupted_kernel_fails_the_same_coassociativity(monkeypatch):
    _corrupt_E(monkeypatch, (1, 0))
    got = sorted(_sweeps._coassoc_rows(N, W), key=lambda c: c[0])
    assert got == coassoc_rows(N, WINDOW)
    assert [name for name, _ in _failures(got)] == ["coassoc-E1"]


def test_corrupted_kernel_fails_the_same_commuting_actions(monkeypatch):
    _corrupt_E(monkeypatch, (1, 0, 2))
    got = _commuting_rows(N, R, W)
    assert got == commuting_action_rows(N, R, WINDOW)
    fails = _failures(got)
    assert fails and all(name.startswith("commuting-actions-u00-") for name, _ in fails)


def test_counit_antipode_rows_match_the_oracle():
    got = sorted(_sweeps._counit_antipode_rows(N, W), key=lambda c: c[0])
    assert got == hopf_counit_antipode_rows(N, WINDOW)
    assert len(got) == 3 * (2 * N + 4) and all(ok for _, ok, _ in got)


def test_corrupted_kernel_fails_the_same_counit_antipode_rows(monkeypatch):
    """K_1^-1 also sends e_(1,) to itself: no longer the inverse of K_1."""
    _corrupt(monkeypatch, "tensor_act_K", (1,), lambda i, n, inverse: inverse and i == 1)
    got = sorted(_sweeps._counit_antipode_rows(N, W), key=lambda c: c[0])
    assert got == hopf_counit_antipode_rows(N, WINDOW)
    assert [name for name, _ in _failures(got)] == ["antipode-E3", "antipode-K1", "antipode-Kinv1"]


def _presentation_inputs():
    # the keys verify_affine_duality samples at the default seed
    keyset = list(sweep_keys(W, R))
    return keyset, random.Random(DEFAULT_SEED).sample(keyset, 40)


def test_presentation_rows_match_the_oracle():
    keyset, sample = _presentation_inputs()
    got = _sweeps._presentation_rows(N, R, keyset, sample)
    assert got == presentation_rows(N, R, keyset, sample)
    assert len(got) == 2 + 1 + R * R + R + 2 + 2 + 2 and all(ok for _, ok, _ in got)


def test_corrupted_shift_fails_the_same_presentation_checks(monkeypatch):
    """tensor_shift_slot also sends e_(1, 0, 2) to itself: no longer a
    translation."""
    _corrupt(monkeypatch, "tensor_shift_slot", (1, 0, 2), lambda t, amount: True)
    keyset, sample = _presentation_inputs()
    got = _sweeps._presentation_rows(N, R, keyset, sample)
    assert got == presentation_rows(N, R, keyset, sample)
    assert _failures(got)


def test_first_failure_writes_the_first_failing_key_as_lists():
    """A tensor key, a q-tensor basis key (lambda, d) and a kappa sample
    (lambda, mu, nu, key) all come out as lists, as in the report."""
    unit, zero = {(1, 0, 2): {0: 1}}, {}
    for key, listed in (
        ((1, 0, 2), [1, 0, 2]),
        (((1, 1, 1), (2, 1, 3)), [[1, 1, 1], [2, 1, 3]]),
        (((3, 0, 0), (2, 1, 0), (1, 1, 1), (0, 4, -1)), [[3, 0, 0], [2, 1, 0], [1, 1, 1], [0, 4, -1]]),
    ):
        keys = [(9, 9, 9), key, (8, 8, 8)]
        witness = _sweeps._first_failure(keys, lambda k: [(unit, unit), (unit, zero if k != (9, 9, 9) else unit)])
        assert witness == {"key": listed, "lhs": [[[1, 0, 2], {"0": 1}]], "rhs": []}
    assert _sweeps._first_failure(keys, lambda k: [(unit, unit)]) is None


@pytest.mark.parametrize("n, r, half", [(3, 3, 7), (4, 3, 7), (5, 3, 7), (4, 4, 5)])
def test_right_generator_step_matches_its_first_form(n, r, half):
    c = {1: 2, 0: -1}
    for key in itertools.product(range(-half, half + 1), repeat=r):
        for i in range(1, r):
            got = quantum._act_sigma_terms({key: c}, i, n, r)
            assert got == act_sigma_terms({key: c}, i, n, r), (key, i)


def test_duality_shares_the_cached_theta_images():
    keys, columns, _ = quantum._theta_system(N, R, 1, 0)
    assert quantum._theta_system(N, R, 1, 0)[1] is columns
    assert keys == tuple((lam.parts, d.window) for lam, d in quantum.theta_iso_basis(N, R, 1, 0))
    for key, col in zip(keys, columns):
        assert col is quantum._theta_image(N, R, *key)


@pytest.mark.parametrize("key", [(2, 0, -1), (4, -3, 4), (7, 1, 1)])
def test_right_memo_extends_by_linearity(key):
    h = t_basis(WindowPerm.s(R, 1)) + t_basis(WindowPerm.rho(R))
    x = TensorVector.unit(N, key).scale(Laurent({1: 2})) + TensorVector.unit(N, (0, 1, 2))
    memo = quantum._RightMemo(quantum._bernstein_assoc(h), N, R)
    assert TensorVector._raw(N, R, memo(x._terms)) == hecke_right_action(x, h)
    assert set(memo.images) == set(x._terms)
    assert memo(x._terms) == memo(x._terms)


@pytest.mark.parametrize("suite, r", [("hopf", 1), ("hopf", 2), ("hopf", 3), ("duality", 3)])
def test_key_count_is_the_keys_the_sweep_visits(suite, r, monkeypatch):
    """The budget's estimate against the distinct keys the builder hands a
    whole sweep at W = 1."""
    seen = set()
    clean = _sweeps.sweep_keys

    def recording(window, rank):
        for key in clean(window, rank):
            seen.add(key)
            yield key

    monkeypatch.setattr(_sweeps, "sweep_keys", recording)
    if suite == "hopf":
        rows = _sweeps.verify_hopf(N, r, 1)
    else:
        rows = _sweeps.verify_affine_duality(N, r, 1, 1, samples=2)
    assert rows and all(ok for _, ok, _ in rows)
    assert len(seen) == sweep_key_count(suite, N, r, 1)

"""The seven gate criteria, one test each.

Each test drives the corresponding verification suite (or the negative
controls) end to end and records a single pass/fail verdict; the
conftest hook prints the verdict table after the run so the gate status
is visible in plain pytest output.
"""

import pytest

from affineschur import _sweeps
from affineschur.hecke import HeckeElement
from affineschur.verify import (
    run_duality,
    run_hecke_core,
    run_hopf,
    run_kl,
    run_schur_core,
    run_weyl_core,
)
from affineschur.weyl import ParabolicIndex, WindowPerm, bruhat_leq, enumerate_up_to_length

from sweep_cache import cached_verify_hopf

VERDICTS: list[tuple[str, bool]] = []


def _record(label: str, reports) -> None:
    ok = all(rep.ok() for rep in reports)
    VERDICTS.append((label, ok))
    bad = [(rep.suite, name, witness) for rep in reports for name, good, witness in rep.checks if not good]
    assert ok, f"{label}: failing checks {bad}"


def test_criterion_1_weyl_core_both_ranks():
    _record("criterion 1: weyl-core r=3,4", [run_weyl_core(r=3), run_weyl_core(r=4)])


def test_criterion_2_hecke_core():
    rep = run_hecke_core(r=3)
    names = {name for name, _, _ in rep.checks}
    # the whole presentation family must actually be exercised
    for family in (
        "translation-quadratic",
        "translation-braid",
        "translation-commute",
        "translation-invertible",
        "translation-distant",
        "translation-conjugation",
        "translation-product-central",
        "associativity",
        "group-algebra",
    ):
        assert any(n.startswith(family) for n in names), family
    _record("criterion 2: hecke-core r=3", [rep])


def test_criterion_3_kl_oracle():
    _record("criterion 3: kl vs involution oracle", [run_kl()])


def test_criterion_4_schur_core():
    _record("criterion 4: schur-core n=r=3", [run_schur_core()])


def test_criterion_5_hopf_both_sizes(monkeypatch):
    # run_hopf imports verify_hopf at call time; the n=3 rows are shared
    # with test_quantum.py::test_hopf_sweep_rank_three
    monkeypatch.setattr(_sweeps, "verify_hopf", cached_verify_hopf)
    reports = [run_hopf(n=3), run_hopf(n=4)]
    names = {name for rep in reports for name, _, _ in rep.checks}
    for family in ("def-rel", "coassoc", "counit-left", "counit-right", "antipode"):
        assert any(n.startswith(family) for n in names), family
    _record("criterion 5: hopf n=3 and n=4", reports)


def test_criterion_6_duality_within_budget():
    rep = run_duality(n=3, r=3, length=3, window=6)
    assert rep.wall_time < 300.0, f"duality suite took {rep.wall_time:.0f}s"
    names = {name for name, _, _ in rep.checks}
    for family in (
        "commuting-actions",
        "tau-injective",
        "conjugation-identity",
        "theta-injective",
        "theta-intertwines",
        "kappa-multiplicative",
    ):
        assert any(n.startswith(family) for n in names), family
    _record("criterion 6: duality n=r=3", [rep])


def test_criterion_7_negative_controls():
    ok = True
    for w in enumerate_up_to_length(3, 3, extended=True, rho_bound=1):
        if bruhat_leq(WindowPerm.rho(3) * w, w):
            ok = False
    from affineschur.schur import omega

    with pytest.raises(ValueError):
        omega(2, 3)
    for ctor in (
        lambda: WindowPerm.identity(2),
        lambda: WindowPerm((2, 1)),
        lambda: ParabolicIndex(2, [1]),
        lambda: HeckeElement.unit(2),
        lambda: HeckeElement.zero(2),
    ):
        with pytest.raises(ValueError):
            ctor()
    VERDICTS.append(("criterion 7: negative controls", ok))
    assert ok
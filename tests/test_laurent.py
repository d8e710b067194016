"""Ring axioms and involution properties of the Laurent coefficients."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affineschur.laurent import Laurent, payload_int, quantum_integer

laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(Laurent)


def test_basic_values():
    v = Laurent.v()
    assert Laurent.q() == v * v
    assert v + ~v == Laurent({1: 1, -1: 1})
    assert Laurent.zero().is_zero()
    assert not Laurent.one().is_zero()
    assert Laurent(3) == Laurent({0: 3})
    assert Laurent({2: 0}) == Laurent.zero()


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Laurent.zero() == a
    assert a * Laurent.one() == a
    assert a - a == Laurent.zero()


@given(laurents, laurents)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@given(laurents, laurents)
def test_specialize_v1_is_hom(a, b):
    assert (a + b).specialize_v1() == a.specialize_v1() + b.specialize_v1()
    assert (a * b).specialize_v1() == a.specialize_v1() * b.specialize_v1()


@given(laurents, laurents)
def test_divexact_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a


def test_divexact_rejects_nondivisor():
    v = Laurent.v()
    with pytest.raises(ValueError):
        (v + 1).divexact(v - 1)
    with pytest.raises(ValueError):
        Laurent(3).divexact(Laurent(2))


def test_unit_inverse():
    assert ~Laurent.v(5) == Laurent.v(-5)
    with pytest.raises(ValueError):
        ~(Laurent.v() + 1)


def test_eval_mod_matches_eval():
    a = Laurent({3: 2, 0: -1, -2: 5})
    p = 10007
    x = 37
    expected = (2 * pow(x, 3, p) - 1 + 5 * pow(pow(x, -1, p), 2, p)) % p
    assert a.eval_mod(x, p) == expected


def test_quantum_integers():
    v = Laurent.v()
    assert quantum_integer(0).is_zero()
    assert quantum_integer(1) == Laurent.one()
    assert quantum_integer(2) == v + ~v
    assert quantum_integer(-3) == -(v**2 + 1 + ~v**2)
    # defining property: [a] * (v - v^-1) = v^a - v^-a
    for a in range(-5, 6):
        assert quantum_integer(a) * (v - ~v) == Laurent.v(a) - Laurent.v(-a)


def test_json_roundtrip():
    a = Laurent({-1: 2, 1: 1})
    assert a.to_obj() == {"-1": 2, "1": 1}
    assert Laurent.from_obj(a.to_obj()) == a
    with pytest.raises(ValueError):
        Laurent.from_obj({"x": 1})


@pytest.mark.parametrize(
    "obj",
    [{1.5: 1}, {True: 1}, {"1_0": 1}, {"+1": 1}, {" 1": 1}, {"١": 1}, {"1": 1.0}, {"1": True}, {"1": "1"}],
)
def test_only_int_coefficients_and_decimal_exponents_are_read(obj):
    with pytest.raises(ValueError, match="malformed Laurent"):
        Laurent.from_obj(obj)


def test_the_payload_reader_takes_ints_and_decimal_exponent_keys():
    assert [payload_int(x) for x in (0, -7, 12)] == [0, -7, 12]
    assert [payload_int(x, key=True) for x in ("0", "-7", "12", 3)] == [0, -7, 12, 3]
    for x in (1.0, True, False, "1", None, [1]):
        with pytest.raises(ValueError, match="expected an integer"):
            payload_int(x)
    for x in ("", "-", "1.0", "1e2", "--1", "0x1", "²"):
        with pytest.raises(ValueError, match="expected an integer"):
            payload_int(x, key=True)

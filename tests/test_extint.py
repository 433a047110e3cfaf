import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairflow import ExtInt, InfinityClashError, NEG_INF, POS_INF, as_extint

ints = st.integers(min_value=-10**6, max_value=10**6)
extints = st.one_of(
    ints.map(ExtInt), st.just(NEG_INF), st.just(POS_INF)
)


def test_finite_roundtrip():
    assert ExtInt(5).finite == 5
    assert ExtInt(-3) == -3
    with pytest.raises(ValueError):
        POS_INF.finite  # noqa: B018


def test_infinity_clash():
    with pytest.raises(InfinityClashError):
        NEG_INF + POS_INF
    with pytest.raises(InfinityClashError):
        POS_INF - POS_INF
    assert POS_INF + POS_INF == POS_INF
    assert NEG_INF + NEG_INF == NEG_INF


def test_total_order_endpoints():
    assert NEG_INF < -10**9 < POS_INF
    assert NEG_INF < POS_INF
    assert not (POS_INF < POS_INF)
    assert POS_INF <= POS_INF


def test_mixed_arithmetic():
    assert ExtInt(2) + 3 == 5
    assert 3 + ExtInt(2) == 5
    assert POS_INF - 7 == POS_INF
    assert 7 - NEG_INF == POS_INF
    assert -NEG_INF == POS_INF
    assert min(POS_INF, ExtInt(4)) == 4


def test_rejects_non_ints():
    with pytest.raises(TypeError):
        ExtInt(1.5)
    with pytest.raises(TypeError):
        ExtInt(True)
    with pytest.raises(TypeError):
        as_extint("3")


@pytest.mark.parametrize("other", [1.0, True], ids=["float", "bool"])
def test_equality_with_a_float_or_bool_is_not_implemented(other):
    # Python then falls back to identity, so the comparison is False, not a TypeError
    assert ExtInt(1).__eq__(other) is NotImplemented
    assert (ExtInt(1) == other) is False


@given(extints, extints)
def test_comparison_totality(a, b):
    assert (a < b) + (a == b) + (a > b) == 1


@given(extints)
def test_negation_involution(a):
    assert -(-a) == a


@given(ints, ints)
def test_finite_arithmetic_agrees_with_int(x, y):
    assert (ExtInt(x) + ExtInt(y)).finite == x + y
    assert (ExtInt(x) - y).finite == x - y


@given(extints, ints)
def test_adding_finite_preserves_kind(a, y):
    total = a + y
    assert total.is_finite == a.is_finite
    if not a.is_finite:
        assert total == a


@given(extints, extints)
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)

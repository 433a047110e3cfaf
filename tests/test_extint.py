import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairflow import (
    Digraph,
    ExtInt,
    FlowProblem,
    InfinityClashError,
    NEG_INF,
    POS_INF,
    as_extint,
    nd_cut_subroutine,
)
from fairflow.extint import plain

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


# -- the plain-int view the inner loops read ----------------------------------
#
# The references below state each rule once more in the ExtInt order.
# FlowProblem's bound check and nd_cut_subroutine's g' checks run on
# extint.plain, and must accept, reject and word their errors exactly as
# these do.

small = st.integers(min_value=-3, max_value=3)
bounds = st.one_of(small, small.map(ExtInt), st.just(NEG_INF), st.just(POS_INF))
not_ints = st.one_of(st.booleans(), st.floats(allow_nan=False, min_value=-3, max_value=3))
entries = st.one_of(bounds, bounds, bounds, not_ints)


def outcome(call, *args):
    """(error type, text) of a call, or None when it returns."""
    try:
        call(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def reference_bound_check(lower, upper):
    lower = [as_extint(b) for b in lower]
    upper = [as_extint(b) for b in upper]
    for e, (lo, hi) in enumerate(zip(lower, upper)):
        if lo > hi or (not lo.is_finite and lo == hi):
            raise ValueError(f"edge {e} has invalid bounds [{lo}, {hi}]")


def reference_g_prime_check(problem, g_prime):
    g_prime = [as_extint(g) for g in g_prime]
    for e, g in enumerate(g_prime):
        if g == NEG_INF:
            raise ValueError(f"g_prime must be finite or +inf (edge {e})")
        if g < problem.lower[e]:
            raise ValueError(f"g_prime must dominate lower (edge {e})")


@settings(derandomize=True, max_examples=200)
@given(st.lists(entries, min_size=1, max_size=6))
def test_plain_reads_ints_and_infinities_and_rejects_the_rest(values):
    expected = outcome(lambda: [as_extint(b) for b in values])
    assert outcome(plain, values) == expected
    if expected is None:
        extints = [as_extint(b) for b in values]
        assert plain(values) == [b.finite if b.is_finite else None for b in extints]
        assert [type(b) for b in plain(values)] == [int if b.is_finite else type(None) for b in extints]


def test_plain_keeps_none_so_a_view_reads_as_itself():
    view = plain((ExtInt(2), NEG_INF, POS_INF, 5))
    assert plain(view) == view == [2, None, None, 5]


@settings(derandomize=True, max_examples=400)
@given(st.lists(st.tuples(entries, entries), min_size=1, max_size=4))
def test_problem_bounds_are_checked_as_the_extint_order_says(pairs):
    lower = [lo for lo, _ in pairs]
    upper = [hi for _, hi in pairs]
    graph = Digraph(2, ((0, 1),) * len(pairs))
    assert outcome(FlowProblem, graph, tuple(lower), tuple(upper), (0, 0)) == outcome(
        reference_bound_check, lower, upper
    )


lower_bounds = st.one_of(small, st.just(NEG_INF))


@settings(derandomize=True, max_examples=400)
@given(
    st.lists(st.tuples(lower_bounds, st.one_of(st.none(), st.integers(0, 3)), entries),
             min_size=1, max_size=4),
    st.integers(0, 2),
)
def test_g_prime_is_checked_as_the_extint_order_says(edges, mu):
    # a None width is an upper bound of +inf
    lower = [lo for lo, _, _ in edges]
    upper = [POS_INF if w is None else lo + w if lo is not NEG_INF else w for lo, w, _ in edges]
    g_prime = [g for _, _, g in edges]
    problem = FlowProblem(Digraph(2, ((0, 1),) * len(edges)), tuple(lower), tuple(upper), (0, 0))
    expected = outcome(reference_g_prime_check, problem, g_prime)
    assert outcome(nd_cut_subroutine, problem, {0}, g_prime, mu) == expected

import random

import pytest

from fairflow import (
    ExistenceResult,
    ExtInt,
    NEG_INF,
    InfeasibleError,
    NoDecMinError,
    POS_INF,
    check_flow,
    decmin_compare,
    decmin_flow,
    exists_decmin,
    find_feasible_mflow,
    finitize_bounds,
    focus_profile,
    infinity_digraph,
    narrow_box,
    shift_along_witness,
)
from fairflow.maxflow import CutCertificate
from fairflow.oracle import OracleLimits, oracle_decmin

from conftest import build, random_problem

WIDE = OracleLimits(max_box_width=200, max_enumerations=2_000_000)


def windowed(problem, width):
    """Finite stand-in: pull every infinite bound to a finite window.

    Both anchors come from the input bounds, so an edge with bounds
    [-inf, +inf] gets [-width, width] and can carry flow either way.
    """
    lower = list(problem.lower)
    upper = list(problem.upper)
    for e, (lo, hi) in enumerate(zip(problem.lower, problem.upper)):
        if not lo.is_finite:
            lower[e] = ExtInt((hi.finite if hi.is_finite else 0) - width)
        if not hi.is_finite:
            upper[e] = ExtInt((lo.finite if lo.is_finite else 0) + width)
    return problem.with_bounds(lower, upper)


def sprinkle_infinities(rng, problem, focus_upper=False):
    """Random -inf lowers, and +inf uppers off the focus set unless focus_upper."""
    lower = [
        NEG_INF if rng.random() < 0.25 else b for b in problem.lower
    ]
    upper = [
        POS_INF
        if (focus_upper or e not in problem.focus) and rng.random() < 0.25
        else b
        for e, b in enumerate(problem.upper)
    ]
    return problem.with_bounds(lower, upper)


def assert_cap_preserves_decmin_set(rng, focus_upper):
    """finitize_bounds keeps the fair set of 25 seeded sprinkled instances.

    With focus_upper, every instance has a +inf upper bound on the focus set.
    """
    tested = 0
    while tested < 25:
        base = random_problem(rng, max_nodes=3, max_edges=4, feasible=True)
        problem = sprinkle_infinities(rng, base, focus_upper)
        if focus_upper and all(problem.upper[e].is_finite for e in problem.focus):
            continue
        result = exists_decmin(problem)
        if not result.exists:
            continue
        finite = finitize_bounds(problem)
        assert finite.finite_on_focus()
        # implied bounds never cut off a fair flow: the fair sets of the
        # same wide finite window with and without them coincide.  The
        # finitized problem is windowed too, since finitize_bounds leaves
        # infinite bounds off the focus set.
        narrow = windowed(problem, 6)
        if isinstance(find_feasible_mflow(narrow), CutCertificate):
            continue
        finite = windowed(finite, 6)
        contained = all(
            finite.lower[e] >= narrow.lower[e]
            and finite.upper[e] <= narrow.upper[e]
            for e in range(problem.edge_count)
        )
        if not contained:
            continue
        p_window, flows_window = oracle_decmin(narrow, WIDE)
        p_finite, flows_finite = oracle_decmin(finite, WIDE)
        assert p_window == p_finite
        assert set(flows_window) == set(flows_finite)
        tested += 1


class TestWindowed:
    def test_both_anchors_come_from_the_input_bounds(self):
        # anchoring the +inf upper at the new lower would give [-6, 0]
        problem = build(
            2, [(0, 1), (0, 1), (0, 1)], ["-inf", "-inf", 2], ["+inf", 3, "+inf"], [0, 0]
        )
        window = windowed(problem, 6)
        assert window.lower == (-6, -3, 2)
        assert window.upper == (6, 3, 8)


class TestInfinityDigraph:
    def test_arc_set(self):
        problem = build(
            3,
            [(0, 1), (1, 2), (2, 0)],
            ["-inf", 0, 0],
            [5, "+inf", "+inf"],
            [0, 0, 0],
            focus=[2],
        )
        arcs = infinity_digraph(problem)
        described = {(a.tail, a.head, a.origin, a.reversed_) for a in arcs}
        # forward for the -inf lower, reversed only for non-focus +inf uppers
        assert described == {(0, 1, 0, False), (2, 1, 1, True)}


class TestExists:
    def test_triangle_has_no_fair_flow(self, triangle_unbounded):
        result = exists_decmin(triangle_unbounded)
        assert not result.exists
        assert len(result.witness) == 3
        # the witness really is an endless improvement recipe
        flow = (0, 0, 0)
        assert check_flow(triangle_unbounded, flow) is None
        better = shift_along_witness(flow, result.witness)
        assert check_flow(triangle_unbounded, better) is None
        assert (
            decmin_compare(
                focus_profile(triangle_unbounded, better),
                focus_profile(triangle_unbounded, flow),
            )
            == -1
        )

    def test_result_truth_is_the_verdict(self, triangle_unbounded, diamond):
        assert not bool(exists_decmin(triangle_unbounded))
        assert bool(exists_decmin(diamond))
        assert not ExistenceResult(False, ())

    def test_one_finite_bound_restores_existence(self, triangle_unbounded):
        pinned = triangle_unbounded.with_bounds(
            lower=(ExtInt(-5), NEG_INF, NEG_INF)
        )
        assert exists_decmin(pinned).exists

    def test_finite_bounds_always_exist(self):
        rng = random.Random(113)
        for _ in range(20):
            problem = random_problem(rng, feasible=True)
            assert exists_decmin(problem).exists

    def test_focus_self_loop_with_free_lower(self):
        problem = build(2, [(0, 0), (0, 1)], ["-inf", 0], [3, 1], [-1, 1], focus=[0])
        result = exists_decmin(problem)
        assert not result.exists
        assert len(result.witness) == 1

    def test_two_window_oracle_agreement(self):
        rng = random.Random(127)
        tested = 0
        while tested < 30:
            base = random_problem(rng, max_nodes=3, max_edges=4, feasible=True)
            problem = sprinkle_infinities(rng, base)
            if problem.finite_on_focus() and all(
                b.is_finite for b in problem.upper
            ):
                continue
            narrow = windowed(problem, 6)
            wide = windowed(problem, 15)
            if isinstance(find_feasible_mflow(narrow), CutCertificate):
                continue
            p_narrow, _ = oracle_decmin(narrow, WIDE)
            p_wide, _ = oracle_decmin(wide, WIDE)
            result = exists_decmin(problem)
            if not result.exists:
                if problem.focus:
                    assert decmin_compare(p_wide, p_narrow) == -1
            else:
                finite = finitize_bounds(problem)
                contained = all(
                    finite.lower[e] >= narrow.lower[e]
                    and finite.upper[e] <= narrow.upper[e]
                    for e in range(problem.edge_count)
                )
                if contained:
                    assert p_narrow == p_wide
            tested += 1


class TestFinitize:
    def test_identity_when_finite(self, diamond):
        assert finitize_bounds(diamond) is diamond

    def test_triangle_with_anchor(self, triangle_unbounded):
        pinned = triangle_unbounded.with_bounds(
            lower=(ExtInt(-5), NEG_INF, NEG_INF)
        )
        finite = finitize_bounds(pinned)
        assert finite.lower == (-5, -5, -5)
        assert finite.upper == (0, 0, 0)

    def test_idempotent(self, triangle_unbounded):
        pinned = triangle_unbounded.with_bounds(
            lower=(ExtInt(-5), NEG_INF, NEG_INF)
        )
        once = finitize_bounds(pinned)
        assert finitize_bounds(once) is once

    def test_cap_on_infinite_focus_upper(self):
        problem = build(
            2,
            [(0, 1), (1, 0), (0, 1)],
            ["-inf", 0, 0],
            ["+inf", 5, 3],
            [-2, 2],
            focus=[0, 2],
        )
        finite = finitize_bounds(problem)
        # the cap is the sample flow's largest value, 2, on both focus uppers
        assert finite.lower == (0, 0, 0)
        assert finite.upper == (2, 5, 2)
        box, _ = narrow_box(problem)
        assert box.f_star == (0, 0, 0)
        assert box.g_star == (1, 0, 1)
        assert decmin_flow(problem) == (1, 0, 1)

    def test_upper_cap_preserves_decmin_set(self):
        assert_cap_preserves_decmin_set(random.Random(131), focus_upper=False)

    def test_upper_cap_on_infinite_focus_uppers(self):
        assert_cap_preserves_decmin_set(random.Random(149), focus_upper=True)

    def test_finitized_problem_feeds_the_solver(self):
        rng = random.Random(137)
        tested = 0
        while tested < 15:
            base = random_problem(rng, max_nodes=3, max_edges=4, feasible=True)
            problem = sprinkle_infinities(rng, base)
            if not exists_decmin(problem).exists:
                continue
            finite = finitize_bounds(problem)
            try:
                profile, _ = oracle_decmin(finite, WIDE)
            except Exception:
                continue
            flow = decmin_flow(finite)
            assert focus_profile(finite, flow) == profile
            tested += 1

    def test_no_decmin_error_carries_the_existence_witness(self):
        rng = random.Random(139)
        tested = infeasible = 0
        while tested < 40 or infeasible < 5:
            base = random_problem(rng, max_nodes=5, max_edges=8, feasible=None)
            problem = sprinkle_infinities(rng, base)
            result = exists_decmin(problem)
            if result.exists:
                continue
            # a problem without any flow is reported infeasible first
            outcome = find_feasible_mflow(problem)
            infeasible += isinstance(outcome, CutCertificate)
            for solve in (finitize_bounds, narrow_box, decmin_flow):
                if isinstance(outcome, CutCertificate):
                    with pytest.raises(InfeasibleError) as caught:
                        solve(problem)
                    assert caught.value.certificate == outcome
                else:
                    with pytest.raises(NoDecMinError) as caught:
                        solve(problem)
                    assert caught.value.witness == result.witness
            tested += 1

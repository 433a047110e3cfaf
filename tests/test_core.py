import copy
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairflow import (
    Digraph,
    ExtInt,
    FlowProblem,
    NEG_INF,
    POS_INF,
    boundary_sums,
    build_costed_residual,
    build_level_cost,
    check_flow,
    decmin_compare,
    decmin_flow,
    exists_decmin,
    focus_profile,
    narrow_box,
)
from fairflow.core import imbalances, supply_sum

from conftest import build, random_problem


class TestDigraph:
    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            Digraph(2, ((0, 2),))

    @pytest.mark.parametrize("node_count", [0, -1])
    def test_rejects_no_nodes(self, node_count):
        with pytest.raises(ValueError, match="node_count must be positive"):
            Digraph(node_count, ())

    def test_allows_parallels_and_loops(self):
        g = Digraph(2, ((0, 1), (0, 1), (1, 1)))
        assert g.edge_count == 3

    def test_entering_leaving(self):
        g = Digraph(3, ((0, 1), (1, 2), (2, 0), (1, 1)))
        assert g.entering({1}) == [0]
        assert g.leaving({1}) == [1]
        # self-loop at 1 never crosses
        assert 3 not in g.entering({1}) and 3 not in g.leaving({1})


class TestProblemValidation:
    def test_supply_must_balance(self):
        with pytest.raises(ValueError):
            build(2, [(0, 1)], [0], [1], [1, 1])

    def test_lower_above_upper(self):
        with pytest.raises(ValueError):
            build(2, [(0, 1)], [2], [1], [0, 0])

    @pytest.mark.parametrize(
        "field, edges, supply, cost",
        [
            ("supply[0]", [(0, 1)], [-1.7, 1.7], None),
            ("supply[1]", [(0, 1)], [-1, "1"], None),
            ("supply[0]", [(0, 1)], [True, -1], None),
            ("cost[0]", [(0, 1)], [0, 0], [2.5]),
            ("cost[0]", [(0, 1)], [0, 0], [False]),
            ("edge heads[0]", [(0, 1.0)], [0, 0], None),
            ("edge tails[0]", [(True, 1)], [0, 0], None),
        ],
    )
    def test_non_int_values_rejected(self, field, edges, supply, cost):
        with pytest.raises(TypeError, match=re.escape(field)):
            build(2, edges, [0], [1], supply, cost=cost)

    @pytest.mark.parametrize("focus", [{True}, {1.0}, {0, "1"}])
    def test_non_int_focus_rejected(self, focus):
        with pytest.raises(TypeError, match=r"^focus\[\d\] must be an int"):
            build(2, [(0, 1), (1, 0)], [0, 0], [1, 1], [0, 0], focus=focus)

    @pytest.mark.parametrize("node_count, edges", [(True, ()), (2.0, ((0, 1),))])
    def test_non_int_node_count_rejected(self, node_count, edges):
        with pytest.raises(TypeError, match="^node_count must be an int"):
            Digraph(node_count, edges)

    @pytest.mark.parametrize(
        "lower, upper, supply, focus, cost, message",
        [
            ([0], [1, 1], [0, 0], (), None, "bounds must have one entry per edge"),
            ([0, 0], [1], [0, 0], (), None, "bounds must have one entry per edge"),
            ([0], [1], [0, 0, 0], (), None, "supply must have one entry per node"),
            ([0], [1], [0, 0], (), [1, 2], "cost must have one entry per edge"),
            ([0], [1], [0, 0], (1,), None, "focus edge id 1 out of range"),
            ([0], [1], [0, 0], (-1,), None, "focus edge id -1 out of range"),
        ],
    )
    def test_lengths_and_focus_range_checked(self, lower, upper, supply, focus, cost, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(2, [(0, 1)], lower, upper, supply, focus=focus, cost=cost)

    def test_infinities_on_wrong_side(self):
        with pytest.raises(ValueError):
            build(2, [(0, 1)], ["+inf"], ["+inf"], [0, 0])
        with pytest.raises(ValueError):
            build(2, [(0, 1)], ["-inf"], ["-inf"], [0, 0])


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


def _fresh(value):
    """A deep copy whose infinities are new objects, as a pickle that
    stored an ExtInt's slots, not its __reduce__ form, loads them."""
    infinities = {id(b): ExtInt._make_infinite(b._kind) for b in (NEG_INF, POS_INF)}
    return copy.deepcopy(value, infinities)


COPIERS = [copy.deepcopy, _pickled, _fresh]


class TestInfinityCopies:
    """Infinities compare by value.

    A copy or a pickle of one is the module's singleton; an infinity
    that is a new object must behave alike.
    """

    @pytest.mark.parametrize("copier", COPIERS)
    def test_copied_problem_solves_alike(self, copier, triangle_unbounded):
        problem = build(
            2,
            [(0, 1), (1, 0), (0, 1)],
            ["-inf", 0, 0],
            ["+inf", 5, 3],
            [-2, 2],
            focus=[0, 2],
        )
        copied = copier(problem)
        singletons = copied.lower[0] is NEG_INF and copied.upper[0] is POS_INF
        assert singletons is (copier is not _fresh)
        assert copied == problem
        assert narrow_box(copied) == narrow_box(problem)
        assert decmin_flow(copied) == decmin_flow(problem)
        assert exists_decmin(copied) == exists_decmin(problem)
        triangle = copier(triangle_unbounded)
        assert triangle == triangle_unbounded
        assert exists_decmin(triangle) == exists_decmin(triangle_unbounded)

    @pytest.mark.parametrize("copier", COPIERS)
    @pytest.mark.parametrize("infinity", [POS_INF, NEG_INF], ids=["+inf", "-inf"])
    def test_copied_infinite_pair_rejected(self, copier, infinity):
        lower, upper = copier(infinity), copier(infinity)
        assert (lower is infinity and upper is infinity) is (copier is not _fresh)
        message = re.escape(f"edge 0 has invalid bounds [{infinity}, {infinity}]")
        with pytest.raises(ValueError, match=message):
            FlowProblem(Digraph(2, ((0, 1),)), (lower,), (upper,), (0, 0))


class TestBoundarySums:
    def test_empty_set(self, diamond):
        assert boundary_sums(diamond, (1, 1, 1, 1), set()) == (0, 0)

    def test_full_set(self, diamond):
        assert boundary_sums(diamond, (1, 1, 1, 1), range(4)) == (0, 0)

    def test_single_node(self, diamond):
        # node a (id 0) has one edge in (s->a) and one out (a->t)
        assert boundary_sums(diamond, (1, 1, 1, 1), {0}) == (1, 1)

    def test_set_conservation_random(self):
        rng = random.Random(7)
        for _ in range(50):
            problem = random_problem(rng, feasible=True)
            from fairflow import find_feasible_mflow

            flow = find_feasible_mflow(problem)
            assert isinstance(flow, tuple)
            nodes = {v for v in range(problem.node_count) if rng.random() < 0.5}
            inflow, outflow = boundary_sums(problem, flow, nodes)
            assert inflow - outflow == supply_sum(problem, nodes)


class TestCheckFlow:
    def test_valid(self, diamond):
        assert check_flow(diamond, (1, 1, 1, 1)) is None

    def test_conservation_violation_reports_first_node(self, diamond):
        violation = check_flow(diamond, (2, 1, 1, 1))
        assert violation is not None
        assert violation.kind == "conservation"
        assert violation.index == 0  # node a: inflow 2, outflow 1

    def test_bound_violation(self):
        problem = build(2, [(0, 1)], [0], [1], [-2, 2])
        violation = check_flow(problem, (2,))
        assert violation.kind == "bounds"
        assert violation.index == 0

    def test_length_mismatch(self, diamond):
        with pytest.raises(ValueError):
            check_flow(diamond, (1, 1))


class TestCostedResidual:
    def test_all_tight_means_no_arcs(self):
        problem = build(2, [(0, 1)], [1], [1], [-1, 1])
        residual = build_costed_residual(problem, (1,))
        assert residual.arcs == ()

    def test_interior_value_gives_both_arcs(self):
        problem = build(2, [(0, 1)], [0], [2], [-1, 1], focus=[0])
        residual = build_costed_residual(problem, (1,))
        assert len(residual.arcs) == 2
        forward, backward = residual.arcs
        assert forward.forward and (forward.tail, forward.head) == (0, 1)
        assert not backward.forward and (backward.tail, backward.head) == (1, 0)
        _, cost = build_level_cost(problem, (1,))
        assert cost.arc_sign == (1, -1)

    def test_diamond_interior_count(self, diamond):
        residual = build_costed_residual(diamond, (1, 1, 1, 1))
        assert len(residual.arcs) == 8
        assert sum(1 for a in residual.arcs if a.forward) == 4

    def test_arc_count_formula_random(self):
        rng = random.Random(11)
        for _ in range(40):
            problem = random_problem(rng, feasible=True)
            from fairflow import find_feasible_mflow

            flow = find_feasible_mflow(problem)
            residual = build_costed_residual(problem, flow)
            expected = sum(
                (flow[e] < problem.upper[e]) + (flow[e] > problem.lower[e])
                for e in range(problem.edge_count)
            )
            assert len(residual.arcs) == expected


class TestDecminCompare:
    def test_examples(self):
        assert decmin_compare((2, 1), (3, 0)) == -1
        assert decmin_compare((1, 1, 2), (2, 1, 1)) == 0
        assert decmin_compare((3, 1, 1), (3, 2, 0)) == -1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            decmin_compare((1,), (1, 2))

    @given(
        st.lists(st.integers(-5, 5), min_size=0, max_size=6),
        st.lists(st.integers(-5, 5), min_size=0, max_size=6),
    )
    def test_antisymmetry_and_equality(self, a, b):
        if len(a) != len(b):
            return
        ab = decmin_compare(a, b)
        ba = decmin_compare(b, a)
        assert ab == -ba
        assert (ab == 0) == (sorted(a) == sorted(b))

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    )
    def test_transitivity(self, a, b, c):
        if not (len(a) == len(b) == len(c)):
            return
        if decmin_compare(a, b) <= 0 and decmin_compare(b, c) <= 0:
            assert decmin_compare(a, c) <= 0


def test_negated_roundtrip(asym):
    mirrored = asym.negated()
    assert mirrored.negated() == asym
    assert check_flow(mirrored, (-2, -1, -3)) is None


def test_focus_profile(asym):
    assert focus_profile(asym, (2, 1, 3)) == (2, 1)


def test_imbalances(diamond):
    assert imbalances(diamond.graph, (1, 1, 1, 1)) == [0, 0, -2, 2]

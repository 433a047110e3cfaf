import random

import pytest

from fairflow import (
    InfiniteBoundsError,
    PotentialVector,
    apply_dicircuit,
    build_level_cost,
    build_potential_vector,
    check_flow,
    decmin_compare,
    find_improving_dicircuit,
    focus_profile,
    is_decmin,
    potential_is_feasible,
)
from fairflow.oracle import enumerate_flows, oracle_decmin

from conftest import build, random_problem


def simple_circuits(aux):
    """All node-simple di-circuits of a residual digraph, as arc tuples."""
    circuits = []

    def extend(path, used_nodes, start):
        tail = path[-1].head if path else start
        for arc in aux.arcs:
            if arc.tail != tail:
                continue
            if arc.head == start:
                if path or arc.tail == start:
                    circuits.append(tuple(path) + (arc,))
                continue
            if arc.head in used_nodes or arc.head < start:
                continue
            extend(path + [arc], used_nodes | {arc.head}, start)

    for start in range(aux.node_count):
        extend([], {start}, start)
    return circuits


def cost_sum(cost, aux, circuit):
    total = [0] * cost.dimension
    index = {id(arc): i for i, arc in enumerate(aux.arcs)}
    for arc in circuit:
        vec = cost.vector(index[id(arc)])
        total = [t + v for t, v in zip(total, vec)]
    return tuple(total)


class TestLevelCost:
    def test_empty_focus(self, diamond):
        plain = diamond.with_bounds(focus=())
        aux, cost = build_level_cost(plain, (1, 1, 1, 1))
        assert cost.dimension == 0
        assert all(s == 0 for s in cost.arc_sign)

    def test_single_focus_edge(self):
        problem = build(2, [(0, 1)], [0], [2], [-1, 1], focus=[0])
        aux, cost = build_level_cost(problem, (1,))
        assert cost.levels == (1, 0)
        assert cost.dimension == 2
        signs = {(a.forward, cost.arc_sign[i], cost.arc_level[i]) for i, a in enumerate(aux.arcs)}
        assert (True, 1, 0) in signs  # forward at value 1
        assert (False, -1, 1) in signs  # backward rated at value 0

    def test_diamond_interior(self, diamond):
        aux, cost = build_level_cost(diamond, (1, 1, 1, 1))
        assert cost.levels == (1, 0)
        plus = sum(1 for s in cost.arc_sign if s == 1)
        minus = sum(1 for s in cost.arc_sign if s == -1)
        assert plus == 4 and minus == 4
        assert {cost.arc_level[i] for i, s in enumerate(cost.arc_sign) if s == 1} == {0}
        assert {cost.arc_level[i] for i, s in enumerate(cost.arc_sign) if s == -1} == {1}

    def test_dimension_bound(self):
        rng = random.Random(101)
        from fairflow import find_feasible_mflow

        for _ in range(30):
            problem = random_problem(rng, feasible=True)
            flow = find_feasible_mflow(problem)
            _, cost = build_level_cost(problem, flow)
            assert cost.dimension <= 2 * len(problem.focus)


class TestImprovingCircuit:
    def test_asym_bad_flow(self, asym):
        aux, cost = build_level_cost(asym, (3, 0, 3))
        circuit = find_improving_dicircuit(aux, cost)
        assert circuit is not None
        improved = apply_dicircuit((3, 0, 3), circuit)
        assert improved == (2, 1, 3)
        assert (
            decmin_compare(
                focus_profile(asym, improved), focus_profile(asym, (3, 0, 3))
            )
            == -1
        )

    def test_asym_optimal_flow(self, asym):
        aux, cost = build_level_cost(asym, (2, 1, 3))
        assert find_improving_dicircuit(aux, cost) is None

    @pytest.mark.parametrize("aux_flow, cost_flow, text", (
        ((4, 0), (2, 2), "4 arc signs and 4 arc levels for 2 residual arcs"),  # a longer cost
        ((2, 2), (4, 0), "2 arc signs and 2 arc levels for 4 residual arcs"),  # a shorter cost
    ), ids=("longer-cost", "shorter-cost"))
    def test_cost_of_another_residual_rejected(self, aux_flow, cost_flow, text):
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [4, 4], [-4, 4], focus=[0, 1])
        aux, _ = build_level_cost(problem, aux_flow)
        _, cost = build_level_cost(problem, cost_flow)
        with pytest.raises(ValueError, match=text) as caught:
            find_improving_dicircuit(aux, cost)
        assert type(caught.value) is ValueError

    def test_no_circuits_at_all(self):
        problem = build(2, [(0, 1)], [0], [2], [-1, 1], focus=[0])
        # tight in one direction: only one residual arc each way but no cycle
        aux, cost = build_level_cost(problem, (0,))
        assert find_improving_dicircuit(aux, cost) is None

    def test_improving_iff_lexicographically_negative(self):
        # both directions of the circuit characterization, on every
        # node-simple residual circuit of small instances
        rng = random.Random(103)
        tested = 0
        while tested < 25:
            problem = random_problem(
                rng, max_nodes=4, max_edges=5, feasible=True
            )
            if not problem.focus:
                continue
            flows = enumerate_flows(problem)
            flow = flows[rng.randrange(len(flows))]
            aux, cost = build_level_cost(problem, flow)
            before = focus_profile(problem, flow)
            for circuit in simple_circuits(aux):
                shifted = apply_dicircuit(flow, circuit)
                assert check_flow(problem, shifted) is None
                change = decmin_compare(focus_profile(problem, shifted), before)
                negative = cost_sum(cost, aux, circuit) < (0,) * cost.dimension
                assert (change == -1) == negative
            tested += 1


class TestPotentialVector:
    def test_no_arcs(self):
        problem = build(2, [(0, 1)], [1], [1], [-1, 1], focus=[0])
        aux, cost = build_level_cost(problem, (1,))
        outcome = build_potential_vector(aux, cost)
        assert isinstance(outcome, PotentialVector)
        assert outcome.values == ((), ())

    def test_scalar_case_matches_bellman_ford(self):
        # one level: the single component is plain shortest distances
        from fairflow import CostedResidual, ExtInt, ResidualArc, residual_potentials

        problem = build(2, [(0, 1), (1, 0)], [0, 0], [1, 1], [0, 0], focus=[0])
        aux, cost = build_level_cost(problem, (0, 0))
        assert cost.dimension == 1
        outcome = build_potential_vector(aux, cost)
        assert isinstance(outcome, PotentialVector)
        assert potential_is_feasible(aux, cost, outcome)
        scalar = CostedResidual(
            2,
            tuple(
                ResidualArc(
                    arc.tail, arc.head, ExtInt(1), cost.vector(i)[0], arc.origin, arc.forward
                )
                for i, arc in enumerate(aux.arcs)
            ),
        )
        assert [vec[0] for vec in outcome.values] == residual_potentials(scalar)

    def test_feasible_on_decmin_diamond(self, diamond):
        aux, cost = build_level_cost(diamond, (1, 1, 1, 1))
        outcome = build_potential_vector(aux, cost)
        assert isinstance(outcome, PotentialVector)
        assert potential_is_feasible(aux, cost, outcome)

    def test_telescoping_inequality(self):
        # a feasible potential forces every circuit cost to be >= zero
        rng = random.Random(107)
        tested = 0
        while tested < 20:
            problem = random_problem(rng, max_nodes=4, max_edges=5, feasible=True)
            if not problem.focus:
                continue
            profile, attaining = oracle_decmin(problem)
            flow = attaining[0]
            aux, cost = build_level_cost(problem, flow)
            outcome = build_potential_vector(aux, cost)
            assert isinstance(outcome, PotentialVector)
            zero = (0,) * cost.dimension
            for circuit in simple_circuits(aux):
                assert cost_sum(cost, aux, circuit) >= zero
            tested += 1


    def test_perturbed_potential_rejected(self):
        # raise one arc's head a unit above what the arc allows at the
        # top level: the checker must name that arc infeasible
        from fairflow import decmin_flow

        rng = random.Random(109)
        rejected = 0
        while rejected < 40:
            problem = random_problem(rng, max_nodes=5, feasible=True)
            aux, cost = build_level_cost(problem, decmin_flow(problem))
            outcome = build_potential_vector(aux, cost)
            assert potential_is_feasible(aux, cost, outcome)
            arcs = [i for i, arc in enumerate(aux.arcs) if arc.tail != arc.head]
            if not arcs or not cost.dimension:
                continue
            i = rng.choice(arcs)
            arc = aux.arcs[i]
            values = list(outcome.values)
            bumped = [p + c for p, c in zip(values[arc.tail], cost.vector(i))]
            bumped[0] += 1
            values[arc.head] = tuple(bumped)
            perturbed = PotentialVector(outcome.dimension, tuple(values))
            assert not potential_is_feasible(aux, cost, perturbed)
            rejected += 1

    def test_wrong_shape_rejected(self):
        # two parallel focus edges: (4, 0) is not fair, (2, 2) is
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [4, 4], [-4, 4], focus=[0, 1])
        aux, cost = build_level_cost(problem, (4, 0))
        k = cost.dimension
        assert k == 2 and not is_decmin(problem, (4, 0)).decmin
        for dimension, values in (
            (0, ((), ())),  # no components: no arc vector compares below ()
            (k, ((), ())),  # short rows
            (k, ((0, 0),)),  # one row for two nodes
            (k, ((0, 0, 0), (0, 0, 0))),  # long rows
        ):
            assert not potential_is_feasible(aux, cost, PotentialVector(dimension, values))
        aux, cost = build_level_cost(problem, (2, 2))
        fair = build_potential_vector(aux, cost)
        assert potential_is_feasible(aux, cost, fair)
        padded = fair.values + fair.values[:1]
        assert not potential_is_feasible(aux, cost, PotentialVector(fair.dimension, padded))

    def test_cost_of_another_residual_rejected(self):
        # the unfair flow's residual has 2 arcs, the fair flow's cost 4
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [4, 4], [-4, 4], focus=[0, 1])
        aux, _ = build_level_cost(problem, (4, 0))
        _, cost = build_level_cost(problem, (2, 2))
        potential = PotentialVector(2, ((0, 0), (-1, 0)))
        with pytest.raises(ValueError, match="4 arc signs and 4 arc levels for 2 residual arcs"):
            potential_is_feasible(aux, cost, potential)
        # nor is a potential built for the unfair flow from the fair flow's cost
        with pytest.raises(ValueError, match="4 arc signs and 4 arc levels for 2 residual arcs"):
            build_potential_vector(aux, cost)
        # the shape rule still holds for a cost of the right residual
        _, own = build_level_cost(problem, (4, 0))
        assert not potential_is_feasible(aux, own, PotentialVector(2, ((0, 0),)))


class TestIsDecmin:
    def test_asym_verdicts(self, asym):
        good = is_decmin(asym, (2, 1, 3))
        assert good.decmin and good.potential is not None
        bad = is_decmin(asym, (3, 0, 3))
        assert not bad.decmin and bad.circuit is not None

    def test_empty_focus_vacuous(self, diamond):
        plain = diamond.with_bounds(focus=())
        verdict = is_decmin(plain, (2, 0, 2, 0))
        assert verdict.decmin

    def test_rejects_infeasible_flow(self, asym):
        with pytest.raises(ValueError):
            is_decmin(asym, (0, 0, 0))

    def test_rejects_infinite_focus_bounds(self):
        problem = build(2, [(0, 1)], ["-inf"], [1], [-1, 1], focus=[0])
        with pytest.raises(InfiniteBoundsError):
            is_decmin(problem, (1,))

    def test_three_way_agreement_random(self):
        rng = random.Random(109)
        tested = 0
        while tested < 30:
            problem = random_problem(rng, max_nodes=4, max_edges=6, feasible=True)
            if not problem.focus:
                continue
            profile, attaining = oracle_decmin(problem)
            flows = enumerate_flows(problem)
            for flow in flows[:6]:
                reference = focus_profile(problem, flow) == profile
                verdict = is_decmin(problem, flow)
                aux, cost = build_level_cost(problem, flow)
                circuit = find_improving_dicircuit(aux, cost)
                potential = build_potential_vector(aux, cost)
                assert verdict.decmin == reference
                assert (circuit is None) == reference
                assert isinstance(potential, PotentialVector) == reference
                if verdict.decmin:
                    assert potential_is_feasible(aux, cost, verdict.potential)
                else:
                    improved = apply_dicircuit(flow, verdict.circuit)
                    assert (
                        decmin_compare(
                            focus_profile(problem, improved),
                            focus_profile(problem, flow),
                        )
                        == -1
                    )
            tested += 1

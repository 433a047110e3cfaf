import random
from itertools import combinations

import pytest

from fairflow import (
    CutCertificate,
    Digraph,
    ExtInt,
    POS_INF,
    boundary_sums,
    check_flow,
    find_feasible_mflow,
    hoffman_deficiency,
    max_flow,
    most_violating_set,
    nd_cut_subroutine,
    require_feasible,
    InfeasibleError,
)
from fairflow.core import supply_sum
from fairflow.maxflow import _feasibility_network

from conftest import build, random_problem
from test_warm_start import scale_problem


def all_subsets(n):
    for size in range(n + 1):
        yield from (set(c) for c in combinations(range(n), size))


class TestMaxFlow:
    def test_parallel_edges(self):
        g = Digraph(2, ((0, 1), (0, 1)))
        value, flow, cut = max_flow(g, (1, 2), 0, 1)
        assert value == 3
        assert sum(flow) == 3

    def test_infinite_arc_behind_bottleneck(self):
        g = Digraph(3, ((0, 1), (1, 2)))
        value, flow, cut = max_flow(g, (1, POS_INF), 0, 2)
        assert value == 1
        assert cut == {0}

    def test_diamond_unit_capacities(self):
        # a,b,s,t = 0..3
        g = Digraph(4, ((2, 0), (2, 1), (0, 3), (1, 3)))
        value, flow, cut = max_flow(g, (1, 1, 1, 1), 2, 3)
        assert value == 2

    def test_unbounded_value(self):
        g = Digraph(2, ((0, 1),))
        value, _, cut = max_flow(g, (POS_INF,), 0, 1)
        assert value == POS_INF
        assert 1 in cut  # "cut" reaches the sink: no finite cut exists

    def test_rejects_source_outside_graph(self):
        g = Digraph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="source -1 is not a node"):
            max_flow(g, (1, 1), -1, 2)

    def test_rejects_sink_outside_graph(self):
        g = Digraph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="sink 3 is not a node"):
            max_flow(g, (1, 1), 0, 3)

    @pytest.mark.parametrize(
        "source, sink, field",
        [(True, 2, "source"), (0.0, 2, "source"), (0, True, "sink"), (0, 2.0, "sink")],
    )
    def test_rejects_non_int_terminals(self, source, sink, field):
        g = Digraph(3, ((0, 1), (1, 2)))
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            max_flow(g, (1, 1), source, sink)

    def test_rejects_source_equal_to_sink(self):
        g = Digraph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="source and sink must differ"):
            max_flow(g, (1, 1), 1, 1)

    def test_rejects_negative_capacity(self):
        g = Digraph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="edge 1 has negative capacity -1"):
            max_flow(g, (1, -1), 0, 2)

    def test_rejects_extra_capacities(self):
        g = Digraph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="expected 2 capacities, got 3"):
            max_flow(g, (1, 1, 5), 0, 2)

    def test_rejects_short_capacities(self):
        g = Digraph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="expected 2 capacities, got 1"):
            max_flow(g, (1,), 0, 2)

    def test_value_equals_cut_capacity_random(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 5)
            m = rng.randint(1, 8)
            edges = tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(m)
            )
            caps = [rng.randint(0, 4) for _ in range(m)]
            g = Digraph(n, edges)
            s, t = 0, n - 1
            value, flow, cut = max_flow(g, caps, s, t)
            assert s in cut and t not in cut
            cap_across = sum(
                caps[e] for e, (u, v) in enumerate(edges) if u in cut and v not in cut
            )
            assert value == cap_across
            # flow conservation and capacity constraints
            for e in range(m):
                assert 0 <= flow[e] <= caps[e]


class TestFeasibility:
    def test_all_zero(self):
        problem = build(2, [(0, 1)], [0], [0], [0, 0])
        assert find_feasible_mflow(problem) == (0,)

    def test_forced_infeasible_single_edge(self):
        problem = build(2, [(0, 1)], [0], [1], [-2, 2])
        outcome = find_feasible_mflow(problem)
        assert isinstance(outcome, CutCertificate)
        assert outcome.nodes == {1}
        assert outcome.deficiency == 1

    def test_diamond_feasible(self, diamond):
        flow = find_feasible_mflow(diamond)
        assert check_flow(diamond, flow) is None

    def test_infinite_bounds_feasible(self):
        problem = build(
            3,
            [(0, 1), (1, 2), (2, 0)],
            ["-inf", 0, 0],
            ["+inf", "+inf", 5],
            [-1, 0, 1],
        )
        flow = find_feasible_mflow(problem)
        assert check_flow(problem, flow) is None

    def test_require_feasible_raises_with_certificate(self):
        problem = build(2, [(0, 1)], [0], [1], [-2, 2])
        with pytest.raises(InfeasibleError) as err:
            require_feasible(problem)
        assert err.value.certificate.deficiency == 1

    def test_feasible_iff_no_positive_deficiency_random(self):
        rng = random.Random(19)
        for _ in range(80):
            problem = random_problem(rng, max_nodes=4, feasible=False)
            outcome = find_feasible_mflow(problem)
            worst = max(
                hoffman_deficiency(problem, nodes)
                for nodes in all_subsets(problem.node_count)
            )
            if isinstance(outcome, CutCertificate):
                assert worst > 0
                assert outcome.deficiency > 0
            else:
                assert worst <= 0
                assert check_flow(problem, outcome) is None

    def test_feasibility_network_is_the_same_from_every_start(self):
        # any start, clamped into the bounds, gives the cold call's sink side
        # and deficiency, and a feasible flow when the deficiency is 0
        rng = random.Random(23)
        starts = feasible = 0
        for _ in range(150):
            m, width = rng.choice((12, 30, 60)), rng.choice((3, 20))
            problem = scale_problem(rng, m, 0.5, width, inf_share=0.2)
            # a plain upper list at or above the lower bounds, some of it +inf
            upper = [
                None if rng.random() < 0.1
                else (lo if lo is not None else -width) + rng.randint(0, width)
                for lo in problem._lo
            ]
            bounded = problem.with_bounds(
                upper=tuple(POS_INF if u is None else ExtInt(u) for u in upper)
            )
            net, base, *cold = _feasibility_network(problem, upper)
            near = net.values(base)
            for k in range(6):
                if k % 2:  # near the cold flow, feasible or not
                    start = [z + rng.randint(-2, 2) for z in near]
                else:  # mostly outside the bounds
                    start = [rng.randint(-2 * width - 5, 2 * width + 5) for _ in range(m)]
                net, base, *warm = _feasibility_network(problem, upper, start)
                assert warm == cold
                if warm[1] == 0:
                    assert check_flow(bounded, net.values(base)) is None
                    feasible += 1
                starts += 1
        assert starts == 900 and 100 < feasible < 800


class TestMostViolating:
    def test_feasible_diamond_deficiency_zero(self, diamond):
        certificate = most_violating_set(diamond)
        assert certificate.deficiency == 0

    def test_single_edge(self):
        problem = build(2, [(0, 1)], [0], [1], [-2, 2])
        certificate = most_violating_set(problem)
        assert certificate.nodes == {1}
        assert certificate.deficiency == 1

    def test_matches_exhaustive_random(self):
        rng = random.Random(23)
        for _ in range(80):
            problem = random_problem(rng, max_nodes=4, feasible=False)
            certificate = most_violating_set(problem)
            worst = max(
                hoffman_deficiency(problem, nodes)
                for nodes in all_subsets(problem.node_count)
            )
            assert certificate.deficiency == worst
            assert (
                hoffman_deficiency(problem, certificate.nodes)
                == certificate.deficiency
            )


    def test_matches_oracle_with_infinite_bounds(self):
        # sets crossing an infinite bound score -inf and are never maximal
        from fairflow import NEG_INF
        from fairflow.oracle import oracle_most_violating

        rng = random.Random(47)
        for _ in range(80):
            problem = random_problem(rng, max_nodes=5, feasible=False)
            loose = problem.with_bounds(
                [NEG_INF if rng.random() < 0.3 else b for b in problem.lower],
                [POS_INF if rng.random() < 0.3 else b for b in problem.upper],
            )
            certificate = most_violating_set(loose)
            nodes, worst = oracle_most_violating(loose)
            assert certificate.deficiency == worst
            assert hoffman_deficiency(loose, nodes) == worst
            maximizers = [
                subset
                for subset in all_subsets(loose.node_count)
                if hoffman_deficiency(loose, subset) == worst
            ]
            assert certificate.nodes == set().union(*maximizers)


class TestHoffmanDeficiency:
    @pytest.mark.parametrize(
        "lower, upper, nodes",
        [([0], ["+inf"], {1}), (["-inf"], [0], {0})],
        ids=["+inf entering", "-inf leaving"],
    )
    def test_minus_infinity_across_an_infinite_bound(self, lower, upper, nodes):
        from fairflow import NEG_INF

        problem = build(3, [(0, 1), (2, 2)], lower + [0], upper + [1], [-5, 5, 0])
        assert hoffman_deficiency(problem, nodes) == NEG_INF
        # the same set is finite once the edge no longer crosses it
        assert hoffman_deficiency(problem, {0, 1}).is_finite
        assert hoffman_deficiency(problem, {2}) == 0

    def test_rejects_node_ids_out_of_range(self):
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [4, 4], [-4, 4])
        assert hoffman_deficiency(problem, {1}) == 4 - 8  # supply 4, both edges enter
        for nodes, bad in (({-1}, -1), ({2}, 2), ({0, 5}, 5)):
            with pytest.raises(ValueError, match=rf"node id {bad} out of range"):
                hoffman_deficiency(problem, nodes)
        for nodes in ({True}, [0.0]):
            with pytest.raises(TypeError, match="node id must be an int"):
                hoffman_deficiency(problem, nodes)


class TestNdCutSubroutine:
    @staticmethod
    def objective(problem, level, g_prime, mu, nodes):
        in_l = sum(1 for e in problem.graph.entering(nodes) if e in level)
        in_gp, _ = boundary_sums(problem, g_prime, nodes)
        _, out_f = boundary_sums(problem, problem.lower, nodes)
        return mu * in_l + in_gp - out_f - supply_sum(problem, nodes)

    def test_empty_set_reachable(self):
        problem = build(2, [(0, 1)], [0], [3], [0, 0])
        nodes, value = nd_cut_subroutine(problem, set(), problem.upper, 5)
        assert value == 0

    def test_single_edge_example(self):
        problem = build(2, [(0, 1)], [0], [1], [-2, 2])
        g_prime = (ExtInt(0),)
        nodes, value = nd_cut_subroutine(problem, {0}, g_prime, 1)
        assert nodes == {1}
        assert value == -1

    def test_matches_exhaustive_random(self):
        rng = random.Random(29)
        for _ in range(60):
            problem = random_problem(rng, max_nodes=4, feasible=False)
            level = {e for e in range(problem.edge_count) if rng.random() < 0.5}
            g_prime = problem.upper
            mu = rng.randint(0, 3)
            nodes, value = nd_cut_subroutine(problem, level, g_prime, mu)
            assert nd_cut_subroutine(problem, level, problem._hi, mu) == (nodes, value)
            best = min(
                self.objective(problem, level, g_prime, mu, subset)
                for subset in all_subsets(problem.node_count)
            )
            assert value == best
            assert value <= 0
            assert self.objective(problem, level, g_prime, mu, nodes) == value

    def test_infinite_bounds_random(self):
        from fairflow import NEG_INF

        rng = random.Random(31)
        for _ in range(40):
            problem = random_problem(rng, max_nodes=4, feasible=False)
            lower = [
                NEG_INF if rng.random() < 0.3 else b for b in problem.lower
            ]
            upper = [
                POS_INF if rng.random() < 0.2 else b for b in problem.upper
            ]
            loose = problem.with_bounds(lower, upper)
            level = {e for e in range(loose.edge_count) if rng.random() < 0.4}
            mu = rng.randint(0, 2)
            nodes, value = nd_cut_subroutine(loose, level, upper, mu)
            finite_scores = [
                score.finite
                for subset in all_subsets(loose.node_count)
                if (score := self.objective(loose, level, upper, mu, subset)).is_finite
            ]
            assert value == min(finite_scores)

    def test_returns_union_of_minimizers_random(self):
        # the set feeds NDTrace.argmax, so ties must break the same way
        # every time: towards the largest minimizer
        from fairflow import NEG_INF

        rng = random.Random(37)
        for _ in range(80):
            problem = random_problem(rng, max_nodes=5, feasible=False)
            lower = [NEG_INF if rng.random() < 0.3 else b for b in problem.lower]
            upper = [POS_INF if rng.random() < 0.2 else b for b in problem.upper]
            loose = problem.with_bounds(lower, upper)
            g_prime = [
                POS_INF if rng.random() < 0.2
                else (lo + rng.randint(0, 2) if lo.is_finite else ExtInt(rng.randint(-3, 3)))
                for lo in lower
            ]
            level = {e for e in range(loose.edge_count) if rng.random() < 0.4}
            mu = rng.randint(0, 2)
            nodes, value = nd_cut_subroutine(loose, level, g_prime, mu)
            minimizers = [
                subset
                for subset in all_subsets(loose.node_count)
                if self.objective(loose, level, g_prime, mu, subset) == value
            ]
            assert nodes == set().union(*minimizers)
            raised = [g + mu if e in level else g for e, g in enumerate(g_prime)]
            assert nodes == most_violating_set(loose.with_bounds(upper=raised)).nodes

    def test_rejects_wrong_g_prime_length(self):
        problem = build(2, [(0, 1)], [0], [3], [0, 0])
        for g_prime in ((), (ExtInt(1), ExtInt(1))):
            with pytest.raises(ValueError, match="one entry per edge"):
                nd_cut_subroutine(problem, set(), g_prime, 0)

    def test_rejects_minus_infinite_g_prime(self):
        # with g' = -inf on edge 0->1, Z = {1} scores -inf: no finite minimum
        from fairflow import NEG_INF

        problem = build(2, [(0, 1)], ["-inf"], ["+inf"], [0, 0])
        with pytest.raises(ValueError, match="edge 0"):
            nd_cut_subroutine(problem, set(), (NEG_INF,), 0)
        assert nd_cut_subroutine(problem, set(), (POS_INF,), 0) == ({0, 1}, 0)
        # a plain view's None is +inf, as compute_beta's probes pass it
        assert nd_cut_subroutine(problem, set(), (None,), 0) == ({0, 1}, 0)

    def test_rejects_level_edges_out_of_range(self):
        problem = build(2, [(0, 1)], [0], [3], [0, 0])
        for level in ([99], [-1], [0, 1]):
            with pytest.raises(ValueError, match="out of range"):
                nd_cut_subroutine(problem, level, problem.upper, 1)

    def test_rejects_non_int_level_edges(self):
        # 0.0 in range(3) is true, and True used to be taken as edge 1
        problem = build(2, [(0, 1), (1, 0), (0, 1)], [0, 0, 0], [3, 3, 3], [0, 0])
        for level in ([True], [0.0], [1.0], [0, "2"]):
            with pytest.raises(TypeError, match="level edge id must be an int"):
                nd_cut_subroutine(problem, level, problem.upper, 1)

    def test_rejects_negative_mu(self):
        problem = build(2, [(0, 1)], [0], [3], [0, 0])
        with pytest.raises(ValueError, match="mu must be non-negative"):
            nd_cut_subroutine(problem, set(), problem.upper, -1)

    def test_rejects_g_prime_below_lower(self):
        problem = build(2, [(0, 1), (1, 0)], [0, 2], [3, 3], [0, 0])
        with pytest.raises(ValueError, match=r"dominate lower \(edge 1\)"):
            nd_cut_subroutine(problem, set(), (ExtInt(0), ExtInt(1)), 0)

    def test_rejects_non_int_mu(self):
        problem = build(2, [(0, 1)], [0], [3], [0, 0])
        for mu in (True, 0.5, ExtInt(1)):
            with pytest.raises(TypeError, match="mu must be an int"):
                nd_cut_subroutine(problem, set(), problem.upper, mu)

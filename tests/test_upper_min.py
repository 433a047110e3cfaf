import random

import pytest

from fairflow import (
    Chain,
    apply_round_bounds,
    chain_dual_value,
    check_flow,
    compute_beta,
    solve_upper_minimizer,
    verify_O1_O5,
)
from fairflow.oracle import oracle_min_saturated
from fairflow.upper_min import _slackness_holds

from conftest import build, random_problem


class TestChain:
    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            Chain((frozenset({0, 1}), frozenset({2})))

    def test_rejects_equal_members(self):
        with pytest.raises(ValueError):
            Chain((frozenset({0}), frozenset({0})))

    def test_rejects_empty_member(self):
        with pytest.raises(ValueError):
            Chain((frozenset(),))

    def test_crossing_queries(self):
        chain = Chain((frozenset({1, 2, 3}), frozenset({3})))
        depth = chain.depth(5)
        assert depth == {0: 0, 1: 1, 2: 1, 3: 2, 4: 0}
        # u->v enters depth[v] - depth[u] members, and leaves one iff that is < 0
        assert depth[3] - depth[0] == 2
        assert depth[3] - depth[1] == 1
        assert depth[1] - depth[0] == 1
        assert depth[0] - depth[1] < 0
        assert depth[3] - depth[0] >= 0

    def test_depth_rejects_nodes_outside_the_graph(self):
        for node in (-1, 3):
            with pytest.raises(KeyError):
                Chain((frozenset({0, node}),)).depth(3)

    def test_depth_matches_member_scan(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(1, 7)
            sets, member = [], set(range(n))
            while True:
                member = {v for v in member if rng.random() < 0.7}
                if not member or (sets and member == sets[-1]):
                    break
                sets.append(frozenset(member))
            chain = Chain(tuple(sets))
            depth = chain.depth(n)
            for u in range(n):
                for v in range(n):
                    entered = sum(1 for s in sets if v in s and u not in s)
                    leaves = any(u in s and v not in s for s in sets)
                    assert max(depth[v] - depth[u], 0) == entered
                    assert (depth[v] - depth[u] < 0) == leaves


@pytest.fixture
def capped(asym):
    """The asym graph of the README with uppers (3, 1, 3): edge 2 must carry 3."""
    return asym.with_bounds(upper=(3, 1, 3))


class TestParallelCopy:
    """The unit-copy construction counts only finite, non-tight edges of the graph."""

    def test_rejects_tight_or_infinite(self):
        for lower, upper, message in (
            ([1], [1], "edge 0 is tight"),
            (["-inf"], [1], "edge 0 needs finite bounds"),
            ([0], ["+inf"], "edge 0 needs finite bounds"),
        ):
            problem = build(2, [(0, 1)], lower, upper, [-1, 1])
            with pytest.raises(ValueError, match=message):
                solve_upper_minimizer(problem, {0})

    @pytest.mark.parametrize("level", [{-1}, {3}, [0, 3]])
    def test_rejects_level_ids_out_of_range(self, capped, level):
        # -1 used to count edge 2 (count 0, though {2} gives 1), and 3
        # raised a bare IndexError
        for call in (
            lambda: solve_upper_minimizer(capped, level),
            lambda: verify_O1_O5(capped, level, (1, 1, 2), Chain(())),
            lambda: chain_dual_value(capped, level, Chain(())),
            lambda: apply_round_bounds(capped, 3, frozenset(level), Chain(())),
        ):
            with pytest.raises(ValueError, match="level edge id .* out of range"):
                call()

    @pytest.mark.parametrize("level", [{True}, {1.0}, [0, 0.0], {"1"}])
    def test_rejects_non_int_level_ids(self, capped, level):
        # True used to be taken as edge 1
        for call in (
            lambda: solve_upper_minimizer(capped, level),
            lambda: verify_O1_O5(capped, level, (1, 1, 2), Chain(())),
            lambda: chain_dual_value(capped, level, Chain(())),
            lambda: apply_round_bounds(capped, 3, level, Chain(())),
        ):
            with pytest.raises(TypeError, match="level edge id must be an int"):
                call()


class TestSolve:
    def test_empty_level_set(self, diamond):
        flow, chain, count = solve_upper_minimizer(diamond, set())
        assert check_flow(diamond, flow) is None
        assert len(chain) == 0 and count == 0

    def test_asym_clamped(self, asym):
        clamped = asym.with_bounds(upper=compute_beta(asym).clamped_upper)
        flow, chain, count = solve_upper_minimizer(clamped, {0})
        assert count == 1
        assert flow == (2, 1, 3)
        assert len(chain) >= 1
        assert chain_dual_value(clamped, {0}, chain) == 1

    def test_diamond_all_edges(self, diamond):
        clamped = diamond.with_bounds(upper=compute_beta(diamond).clamped_upper)
        level = set(range(4))
        flow, chain, count = solve_upper_minimizer(clamped, level)
        assert count == 4  # the unique flow saturates everything
        assert oracle_min_saturated(clamped, level) == 4

    def test_matches_oracle_random(self):
        rng = random.Random(61)
        tested = 0
        while tested < 60:
            problem = random_problem(rng, feasible=True)
            level = {
                e
                for e in range(problem.edge_count)
                if problem.lower[e] < problem.upper[e] and rng.random() < 0.5
            }
            flow, chain, count = solve_upper_minimizer(problem, level)
            assert check_flow(problem, flow) is None
            assert count == oracle_min_saturated(problem, level)
            assert count == sum(1 for e in level if flow[e] == problem.upper[e])
            assert count == chain_dual_value(problem, level, chain)
            assert verify_O1_O5(problem, level, flow, chain) == []
            self._assert_members_tight(problem, level, flow, chain)
            tested += 1

    @staticmethod
    def _assert_members_tight(problem, level, flow, chain):
        # each chain member is entered by exactly as many saturated
        # level edges as the covering demand it certifies
        from fairflow import boundary_sums
        from fairflow.core import supply_sum

        saturated = {e for e in level if flow[e] == problem.upper[e]}
        dropped = [
            problem.upper[e] - 1 if e in level else problem.upper[e]
            for e in range(problem.edge_count)
        ]
        for member in chain.sets:
            entering = sum(
                1 for e in problem.graph.entering(member) if e in saturated
            )
            in_dropped, _ = boundary_sums(problem, dropped, member)
            _, out_lower = boundary_sums(problem, problem.lower, member)
            demand = supply_sum(problem, member) - in_dropped + out_lower
            assert entering == demand

    def test_count_zero_gives_empty_chain(self):
        # plenty of slack: nothing needs to sit at its upper bound
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [3, 3], [-2, 2])
        flow, chain, count = solve_upper_minimizer(problem, {0, 1})
        assert count == 0
        assert len(chain) == 0


class TestSlackness:
    def test_interior_edge_needs_equal_potentials(self):
        # value 1 inside [0, 2] at cost 0: only dy == 0 is slack-compatible
        problem = build(2, [(0, 1)], [0], [2], [-1, 1], cost=[0])
        assert _slackness_holds(problem, (1,), (0, 0))
        assert not _slackness_holds(problem, (1,), (0, 1))
        assert not _slackness_holds(problem, (1,), (1, 0))

    def test_perturbed_potentials_fail_random(self):
        # optimal flows with their residual potentials pass; moving the
        # head of an edge strictly inside its bounds by one must fail
        from fairflow import build_costed_residual, min_cost_mflow, residual_potentials

        rng = random.Random(67)
        perturbed = 0
        for _ in range(60):
            problem = random_problem(rng, feasible=True, costs=True)
            flow = min_cost_mflow(problem)
            y = residual_potentials(build_costed_residual(problem, flow))
            assert _slackness_holds(problem, flow, y)
            for e, (u, v) in enumerate(problem.graph.edges):
                if u != v and problem.lower[e] < flow[e] < problem.upper[e]:
                    bad = list(y)
                    bad[v] += rng.choice([-1, 1])
                    assert not _slackness_holds(problem, flow, bad)
                    perturbed += 1
        assert perturbed > 20


class TestVerify:
    def test_perturbed_flow_trips_O5(self):
        # two parallel routes, only one unit: pushing the counted edge
        # to its bound while the chain is empty must trip (O5)
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [2, 2], [-2, 2])
        flow, chain, count = solve_upper_minimizer(problem, {0})
        assert count == 0
        forced = (2, 0)
        violations = verify_O1_O5(problem, {0}, forced, chain)
        assert any(v.startswith("O5") for v in violations)

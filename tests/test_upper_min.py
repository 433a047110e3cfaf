import random

import pytest

from fairflow import (
    NEG_INF,
    POS_INF,
    Chain,
    CutCertificate,
    Digraph,
    ExtInt,
    FlowProblem,
    InfeasibleError,
    apply_dicircuit,
    apply_round_bounds,
    build_costed_residual,
    chain_dual_value,
    check_flow,
    compute_beta,
    most_violating_set,
    narrow_box,
    require_feasible,
    solve_upper_minimizer,
    verify_O1_O5,
)
from fairflow import decmin, maxflow, mincost
from fairflow._bf import bellman_ford
from fairflow.core import imbalances
from fairflow.errors import InternalCertificateFailure
from fairflow.oracle import oracle_min_saturated

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

    def test_rejects_start_of_wrong_length(self, capped):
        for start in ((1, 1), (1, 1, 2, 0)):
            with pytest.raises(ValueError, match="start must have one entry per edge"):
                solve_upper_minimizer(capped, {0}, start)

    @pytest.mark.parametrize("start", [(1, 1, 2.0), (1, True, 2), ("1", 1, 2), (1, None, 2)])
    def test_rejects_non_int_start(self, capped, start):
        with pytest.raises(TypeError, match=r"start\[\d\] must be an int"):
            solve_upper_minimizer(capped, {0}, start)

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

    @pytest.mark.parametrize("node", [-1, 2, 5, 7])
    def test_rejects_chain_nodes_outside_the_graph(self, node):
        # these raised a bare KeyError from Chain.depth
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [4, 4], [-4, 4])
        chain = Chain([{node}])
        for call in (
            lambda: verify_O1_O5(problem, [0], (2, 2), chain),
            lambda: chain_dual_value(problem, [0], chain),
            lambda: apply_round_bounds(problem, 4, [0], chain),
        ):
            with pytest.raises(ValueError, match=f"chain node id {node} out of range"):
                call()

    @pytest.mark.parametrize("values", [(2,), (2, 2, 0), ()])
    def test_verify_rejects_values_of_wrong_length(self, values):
        # one value too few raised a bare IndexError
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [4, 4], [-4, 4])
        with pytest.raises(ValueError, match=f"expected 2 values, got {len(values)}"):
            verify_O1_O5(problem, [0], values, Chain([{1}]))

    def test_takes_no_round(self, capped):
        # a reduction round is narrow_box's: solve, then apply_round_bounds
        with pytest.raises(TypeError, match="beta"):
            solve_upper_minimizer(capped, {0}, beta=2)


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


def large_problem(rng, n, m, width, feasible):
    """A random instance with self-loops and parallel edges, boxes up to
    width wide and, on a tenth of the edges each, a +inf upper or a -inf
    lower bound.  Supplies are the imbalances of a point of the box.
    When feasible is False, node 0 must also send more than its finite
    edges can carry."""
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    lower = [rng.randint(-3, 3) for _ in range(m)]
    upper = [lo + rng.randint(0, width) for lo in lower]
    point = [rng.randint(lower[e], upper[e]) for e in range(m)]
    supply = imbalances(Digraph(n, edges), point)
    if not feasible:
        shift = 1 + sum(abs(b) for b in lower + upper)
        supply[0] -= shift
        supply[-1] += shift
    finite = [not feasible and 0 in edge for edge in edges]
    lo = [ExtInt(b) if finite[e] or rng.random() >= 0.1 else NEG_INF for e, b in enumerate(lower)]
    hi = [ExtInt(b) if finite[e] or rng.random() >= 0.1 else POS_INF for e, b in enumerate(upper)]
    return FlowProblem(Digraph(n, edges), tuple(lo), tuple(hi), tuple(supply))


class TestStart:
    """Beyond the oracle's cap: every start gives the same chain, count and
    infeasibility certificate, and the flow saturates exactly count edges.
    A feasible start is canceled from directly: no max flow, and at most
    (saturated at start - count) + 1 searches."""

    @staticmethod
    def countable(problem):
        lower, upper = problem.lower, problem.upper
        return [
            e for e in range(problem.edge_count)
            if lower[e].is_finite and upper[e].is_finite and lower[e] < upper[e]
        ]

    @staticmethod
    def starts(rng, m):
        """None and starts infeasible on these instances: each is replaced by
        require_feasible's flow."""
        yield None
        yield [0] * m
        yield [rng.randint(-10, 10) for _ in range(m)]
        # far outside every finite bound
        yield [rng.choice((-(10**9), 10**9)) for _ in range(m)]

    @staticmethod
    def moved(rng, problem, flow, moves=6):
        """The flow pushed one unit around each of a few random residual circuits.

        Each circuit closes a random walk over the residual arcs, so the
        result stays feasible and differs from what any solver returns.
        """
        for _ in range(moves):
            out = {}
            for arc in build_costed_residual(problem, flow).arcs:
                out.setdefault(arc.tail, []).append(arc)
            node, walk, seen = rng.choice(sorted(out)), [], {}
            while node in out and node not in seen:
                seen[node] = len(walk)
                walk.append(rng.choice(out[node]))
                node = walk[-1].head
            if node in seen:
                flow = apply_dicircuit(flow, walk[seen[node]:])
        assert check_flow(problem, flow) is None
        return flow

    @staticmethod
    def answer(problem, level, start):
        """(chain, count) after checking the flow, or the certificate."""
        try:
            flow, chain, count = solve_upper_minimizer(problem, level, start)
        except InfeasibleError as err:
            assert err.certificate == most_violating_set(problem)
            return err.certificate
        assert check_flow(problem, flow) is None
        assert count == sum(1 for e in level if flow[e] == problem.upper[e])
        return chain, count

    def canceled_from(self, monkeypatch, problem, level, start):
        """answer() for a feasible start, after checking the work it took."""
        flows, searches = [0], [0]

        def counting(counter, function):
            def wrapper(*args):
                counter[0] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(
            maxflow._Residual, "max_flow", counting(flows, maxflow._Residual.max_flow)
        )
        monkeypatch.setattr(mincost, "bellman_ford", counting(searches, mincost.bellman_ford))
        result = self.answer(problem, level, start)
        monkeypatch.undo()
        saturated = sum(1 for e in level if start[e] == problem.upper[e])
        assert flows[0] == 0
        assert 1 <= searches[0] <= saturated - result[1] + 1
        return result

    @pytest.mark.parametrize("m", [50, 100, 200, 400])
    def test_every_start_gives_the_same_answer(self, monkeypatch, m):
        rng = random.Random(f"start:{m}")
        answers = []
        for width, feasible in ((6, True), (100, True), (6, False)):
            problem = large_problem(rng, rng.randint(m // 8, m // 3), m, width, feasible)
            level = {e for e in self.countable(problem) if rng.random() < 0.5}
            cases = [(problem, level, None, [])]
            if feasible:
                # the states of the first round and of the round with the deepest
                # chain, with the start narrow_box gave them: BetaResult.flow
                calls, solve = [], decmin.solve_upper_minimizer

                def recorded(*args):
                    calls.append(args)
                    return solve(*args)

                monkeypatch.setattr(decmin, "solve_upper_minimizer", recorded)
                _, rounds = narrow_box(problem.with_bounds(focus=self.countable(problem)))
                monkeypatch.undo()
                chained = [r for r in rounds if r.chain is not None]
                assert len(calls) == len(chained)
                for i in {0, max(range(len(chained)), key=lambda i: len(chained[i].chain))}:
                    state, lvl, flow = calls[i]
                    cases.append((state, lvl, chained[i].chain, [flow]))
            for state, level, chain, feasible_starts in cases:
                seen = {self.answer(state, level, start) for start in self.starts(rng, m)}
                if feasible:
                    feasible_starts.append(require_feasible(state))
                    feasible_starts += [self.moved(rng, state, f) for f in feasible_starts]
                for start in feasible_starts:
                    seen.add(self.canceled_from(monkeypatch, state, level, start))
                assert len(seen) == 1
                answers += seen
                if chain is not None:
                    assert answers[-1] == (chain, chain_dual_value(state, level, chain))
        assert any(isinstance(a, tuple) and a[0] for a in answers)
        assert any(isinstance(a, CutCertificate) for a in answers)


class TestSlackness:
    """The check on the compressed potentials rejects shifted distances."""

    @staticmethod
    def shift(monkeypatch, node, step):
        """Make the engine's residual distances, which solve_upper_minimizer
        compresses into the chain, move node by step."""

        def shifted(*args):
            dist, cycle = bellman_ford(*args)
            dist[node] += step
            return dist, cycle

        monkeypatch.setattr(mincost, "bellman_ford", shifted)

    def test_interior_edge_needs_equal_potentials(self, monkeypatch):
        # value 1 inside [0, 2] at cost 0: both residual arcs need dy == 0
        problem = build(2, [(0, 1)], [0], [2], [-1, 1])
        assert solve_upper_minimizer(problem, set())[0] == (1,)
        for step in (-1, 1):
            self.shift(monkeypatch, 1, step)
            with pytest.raises(InternalCertificateFailure, match="complementary slackness"):
                solve_upper_minimizer(problem, set())
            monkeypatch.undo()

    def test_perturbed_potentials_fail_random(self, monkeypatch):
        # moving one end of an edge strictly inside its bounds must fail
        rng = random.Random(67)
        perturbed = 0
        for _ in range(150):
            problem = random_problem(rng, feasible=True)
            level = {
                e for e in range(problem.edge_count)
                if problem.lower[e] < problem.upper[e] and rng.random() < 0.5
            }
            flow, _, _ = solve_upper_minimizer(problem, level)
            inner = [
                v for e, (u, v) in enumerate(problem.graph.edges)
                if e not in level and u != v and problem.lower[e] < flow[e] < problem.upper[e]
            ]
            if inner:
                self.shift(monkeypatch, rng.choice(inner), rng.choice((-1, 1)))
                with pytest.raises(InternalCertificateFailure, match="complementary slackness"):
                    solve_upper_minimizer(problem, level)
                monkeypatch.undo()
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

    def test_infinite_window_ends_still_reject(self):
        # (O2) pins edge 0 at its +inf upper and (O1) edge 1 at its -inf
        # lower: windows that no value meets, never an open end
        problem = FlowProblem(
            Digraph(3, ((0, 1), (1, 2), (0, 2))),
            (ExtInt(0), NEG_INF, ExtInt(0)),
            (POS_INF, ExtInt(5), ExtInt(4)),
            (-1, 0, 1),
        )
        chain = Chain((frozenset({1}),))
        assert verify_O1_O5(problem, (), (1, 1, 0), chain) == [
            "O2: edge 0 has value 1, outside [+inf, +inf]",
            "O1: edge 1 has value 1, outside [-inf, -inf]",
        ]
        f_prime, g_prime, narrowed = apply_round_bounds(problem, 0, (), chain)
        assert f_prime == (POS_INF, NEG_INF, 0)
        assert g_prime == (POS_INF, NEG_INF, 4)
        assert {type(b) for b in f_prime + g_prime} == {ExtInt}
        assert narrowed == frozenset()

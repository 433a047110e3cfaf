import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairflow import (
    NEG_INF,
    POS_INF,
    Chain,
    Digraph,
    ExtInt,
    FlowProblem,
    InfeasibleError,
    NoDecMinError,
    apply_round_bounds,
    cheapest_decmin_flow,
    check_flow,
    decmin_flow,
    find_feasible_mflow,
    focus_profile,
    hoffman_deficiency,
    incmax_flow,
    narrow_box,
    shift_along_witness,
)
from fairflow.core import imbalances, replace
from fairflow.oracle import (
    enumerate_flows,
    oracle_cheapest_decmin,
    oracle_decmin,
    oracle_incmax,
)

from conftest import build, random_problem


def box_flows(problem, box):
    return set(enumerate_flows(problem.with_bounds(box.f_star, box.g_star)))


class TestApplyRoundBounds:
    def test_case_table(self):
        # nodes 0..3; chain {1,2,3} > {3}
        problem = build(
            4,
            [(0, 3), (1, 3), (0, 1), (1, 0), (2, 2)],
            [0, 0, 0, 0, 0],
            [5, 5, 5, 3, 5],
            [0] * 4,
            focus=[0, 1, 2, 4],
        )
        chain = Chain((frozenset({1, 2, 3}), frozenset({3})))
        upper = list(problem.upper)
        for e in (0, 1, 2, 4):
            upper[e] = ExtInt(5)
        clamped = problem.with_bounds(upper=upper)
        f2, g2, narrowed = apply_round_bounds(clamped, 5, frozenset({0, 1, 2, 4}), chain)
        assert (f2[0], g2[0]) == (5, 5)  # enters both members
        assert (f2[1], g2[1]) == (4, 5)  # enters exactly one
        assert (f2[2], g2[2]) == (4, 5)  # enters the big member once
        assert (f2[4], g2[4]) == (0, 4)  # self-loop crosses nothing
        assert (f2[3], g2[3]) == (0, 0)  # non-level edge leaving -> pinned low
        assert narrowed == {0, 1, 2}

    def test_empty_chain_caps_everything(self):
        problem = build(2, [(0, 1), (0, 1)], [0, 0], [3, 3], [-2, 2], focus=[0, 1])
        f2, g2, narrowed = apply_round_bounds(
            problem, 3, frozenset({0, 1}), Chain(())
        )
        assert narrowed == frozenset()
        assert (f2[0], g2[0]) == (0, 2)
        assert (f2[1], g2[1]) == (0, 2)


class TestNarrowBoxExamples:
    def test_empty_focus_returns_original(self, diamond):
        plain = diamond.with_bounds(focus=())
        box, rounds = narrow_box(plain)
        assert box.f_star == plain.lower
        assert box.g_star == plain.upper
        assert rounds == ()

    def test_asym_box_is_exact(self, asym):
        box, rounds = narrow_box(asym)
        flows = box_flows(asym, box)
        assert flows == {(2, 1, 3)}
        assert rounds[0].beta == 2
        assert rounds[0].narrowed == {0}
        # the parallel edge got pinned at 1 in round one and is recorded
        # leaving the focus set in a terminal bookkeeping round
        assert len(rounds) == 2
        assert rounds[1].beta is None
        assert rounds[1].removed_tight == (1,)

    def test_diamond_box(self, diamond):
        box, _ = narrow_box(diamond)
        _, attaining = oracle_decmin(diamond)
        assert box_flows(diamond, box) == set(attaining)
        for e in diamond.focus:
            width = box.g_star[e] - box.f_star[e]
            assert 0 <= width <= 1

    def test_infeasible_raises(self):
        problem = build(2, [(0, 1)], [0], [1], [-2, 2], focus=[0])
        with pytest.raises(InfeasibleError):
            narrow_box(problem)


class TestDecminFlow:
    def test_asym_profile(self, asym):
        assert focus_profile(asym, decmin_flow(asym)) == (2, 1)

    def test_diamond_profile(self, diamond):
        assert decmin_flow(diamond) == (1, 1, 1, 1)

    def test_zero_flow_is_fairest(self):
        problem = build(
            3,
            [(0, 1), (1, 2), (2, 0), (0, 2)],
            [0, 0, 0, 0],
            [1, 1, 1, 1],
            [0, 0, 0],
            focus=[0, 1, 2, 3],
        )
        assert decmin_flow(problem) == (0, 0, 0, 0)

    def test_profile_matches_oracle_random(self):
        from fairflow import is_decmin

        rng = random.Random(67)
        for _ in range(60):
            problem = random_problem(rng, feasible=True)
            flow = decmin_flow(problem)
            assert check_flow(problem, flow) is None
            profile, _ = oracle_decmin(problem)
            assert focus_profile(problem, flow) == profile
            # the independent certificate machinery agrees
            assert is_decmin(problem, flow).decmin


@st.composite
def desk_problems(draw):
    """Feasible problems of at most 5 nodes, 8 edges and width 3, any focus
    set, with some infinite bounds off the focus set.  Each edge is one list
    item (ends, lower, width, offset of the point giving the supplies, in
    focus, -inf lower, +inf upper), so shrinking can drop edges."""
    n = draw(st.integers(2, 5))
    node, small, flag = st.integers(0, n - 1), st.integers(0, 3), st.booleans()
    records = draw(st.lists(
        st.tuples(node, node, st.integers(-3, 3), small, small, flag, flag, flag),
        min_size=1, max_size=8,
    ))
    graph = Digraph(n, tuple((u, v) for u, v, *_ in records))
    point = [lo + min(offset, width) for _, _, lo, width, offset, *_ in records]
    lower = [NEG_INF if inf and not f else ExtInt(lo) for *_, lo, _, _, f, inf, _ in records]
    upper = [POS_INF if inf and not f else ExtInt(lo + w) for *_, lo, w, _, f, _, inf in records]
    focus = frozenset(e for e, record in enumerate(records) if record[5])
    return FlowProblem(graph, tuple(lower), tuple(upper), tuple(imbalances(graph, point)), focus)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(desk_problems())
def test_reduction_loop_matches_the_oracle(problem):
    """The oracle needs finite bounds, so an edge with an infinite bound is
    held within one unit of the solver's value.  That window keeps a fair
    flow, so its fair flows are exactly the box flows inside it."""
    fair = decmin_flow(problem)
    infinite = [not (lo.is_finite and hi.is_finite) for lo, hi in zip(problem.lower, problem.upper)]
    window = problem.with_bounds(
        [max(lo, z - 1) if inf else lo for lo, z, inf in zip(problem.lower, fair, infinite)],
        [min(hi, z + 1) if inf else hi for hi, z, inf in zip(problem.upper, fair, infinite)],
    )
    profile, attaining = oracle_decmin(window)
    assert focus_profile(problem, fair) == profile
    box, _ = narrow_box(problem)
    in_window = window.with_bounds(map(max, box.f_star, window.lower), map(min, box.g_star, window.upper))
    assert set(enumerate_flows(in_window)) == set(attaining)


class TestBoxProperties:
    def test_soundness_completeness_random(self):
        rng = random.Random(71)
        for _ in range(50):
            problem = random_problem(rng, feasible=True)
            box, rounds = narrow_box(problem)
            _, attaining = oracle_decmin(problem)
            assert box_flows(problem, box) == set(attaining)
            for e in problem.focus:
                width = box.g_star[e] - box.f_star[e]
                assert box.f_star[e].is_finite
                assert 0 <= width <= 1
            # sandwich between the original bounds
            for e in range(problem.edge_count):
                assert problem.lower[e] <= box.f_star[e] <= box.g_star[e]
                assert box.g_star[e] <= problem.upper[e]

    def test_rounds_shrink_focus(self):
        rng = random.Random(73)
        for _ in range(40):
            problem = random_problem(rng, feasible=True)
            _, rounds = narrow_box(problem)
            sizes = [len(problem.focus)] + [len(r.focus_next) for r in rounds]
            assert all(a > b for a, b in zip(sizes, sizes[1:])) or len(rounds) <= 1
            for r in rounds:
                if r.beta is not None:
                    assert r.narrowed
                    assert r.chain is not None

    def test_round_bridge_and_value_equivalence(self):
        # First-round checks of the reduction's two structural lemmas:
        # flows of the rewritten box are exactly the feasible flows with
        # the fewest cap-saturated level edges, and their sorted values
        # on the narrowed edges all coincide.
        rng = random.Random(79)
        tested = 0
        while tested < 40:
            problem = random_problem(rng, feasible=True)
            box, rounds = narrow_box(problem)
            if not rounds or rounds[0].beta is None:
                continue
            rnd = rounds[0]
            capped = problem.with_bounds(upper=rnd.g_capped)
            flows = enumerate_flows(capped)
            counts = [
                sum(1 for e in rnd.level_set if z[e] == rnd.beta) for z in flows
            ]
            fewest = min(counts)
            pre_decmin = {
                z for z, c in zip(flows, counts) if c == fewest
            }
            rewritten = set(
                enumerate_flows(problem.with_bounds(rnd.f_prime, rnd.g_prime))
            )
            assert rewritten == pre_decmin
            profiles = {
                tuple(sorted((z[e] for e in rnd.narrowed), reverse=True))
                for z in rewritten
            }
            assert len(profiles) == 1
            tested += 1


class TestCheapest:
    def test_unique_decmin_ignores_cost(self, asym):
        priced = replace(asym, cost=(3, -2, 1))
        assert cheapest_decmin_flow(priced) == (2, 1, 3)

    def test_zero_cost(self, diamond):
        flow = cheapest_decmin_flow(diamond)
        assert check_flow(diamond, flow) is None

    def test_matches_oracle_random(self):
        rng = random.Random(83)
        tested = 0
        while tested < 40:
            problem = random_problem(rng, feasible=True, costs=True)
            flow = cheapest_decmin_flow(problem)
            cost = sum(c * z for c, z in zip(problem.cost, flow))
            reference = oracle_cheapest_decmin(problem)
            assert reference is not None
            assert cost == reference[0]
            profile, _ = oracle_decmin(problem)
            assert focus_profile(problem, flow) == profile
            tested += 1


class TestIncmax:
    def test_diamond(self, diamond):
        assert incmax_flow(diamond) == (1, 1, 1, 1)

    def test_asym(self, asym):
        assert focus_profile(asym, incmax_flow(asym)) == (2, 1)

    def test_matches_oracle_random(self):
        rng = random.Random(89)
        for _ in range(40):
            problem = random_problem(rng, feasible=True)
            flow = incmax_flow(problem)
            assert check_flow(problem, flow) is None
            profile = tuple(sorted(flow[e] for e in problem.focus))
            reference, _ = oracle_incmax(problem)
            assert profile == reference

    def test_negation_duality_random(self):
        rng = random.Random(97)
        for _ in range(30):
            problem = random_problem(rng, feasible=True)
            inc = incmax_flow(problem)
            mirrored = decmin_flow(problem.negated())
            inc_profile = sorted(inc[e] for e in problem.focus)
            mirror_profile = sorted(-mirrored[e] for e in problem.focus)
            assert inc_profile == mirror_profile


class TestCertificatesReferToTheInput:
    """Every certificate is checked against the problem the caller passed."""

    def test_incmax_infeasible_set(self):
        # the mirror's violating set is {0}; the input's is its complement
        problem = FlowProblem(Digraph(2, ((0, 1),)), (0,), (2,), (-3, 3))
        with pytest.raises(InfeasibleError) as err:
            incmax_flow(problem)
        certificate = err.value.certificate
        assert certificate.nodes == {1}
        assert hoffman_deficiency(problem, certificate.nodes) == certificate.deficiency == 1
        assert str(err.value) == "no feasible flow: set [1] has deficiency 1"

    def test_infeasible_input_with_a_circuit_is_infeasible(self):
        # node 0 has no edge to send its unit on; the focus self-loop also
        # closes an unboundedness circuit, but infeasibility comes first
        problem = FlowProblem(Digraph(2, ((0, 0),)), (NEG_INF,), (POS_INF,), (-1, 1), {0})
        for solve in (decmin_flow, cheapest_decmin_flow, narrow_box, incmax_flow):
            with pytest.raises(InfeasibleError) as err:
                solve(problem)
            certificate = err.value.certificate
            assert certificate.nodes == {1}
            assert hoffman_deficiency(problem, certificate.nodes) == certificate.deficiency == 1

    def test_incmax_witness_raises_the_focus(self):
        problem = FlowProblem(
            Digraph(2, ((0, 1), (1, 0))), (0, 0), (POS_INF, POS_INF), (0, 0), {0}
        )
        with pytest.raises(NoDecMinError) as err:
            incmax_flow(problem)
        shifted = shift_along_witness((0, 0), err.value.witness)
        assert shifted == (1, 1)
        assert check_flow(problem, shifted) is None

    @staticmethod
    def _check(problem, solve, sign):
        """Run solve; check any certificate it raises; return its kind."""
        try:
            solve(problem)
        except InfeasibleError as err:
            certificate = err.certificate
            deficiency = hoffman_deficiency(problem, certificate.nodes)
            assert deficiency == certificate.deficiency > 0
            return "infeasible"
        except NoDecMinError as err:
            witness = err.witness
            for arc, following in zip(witness, witness[1:] + witness[:1]):
                assert arc.head == following.tail
            # each step follows an infinite bound of the input's edge
            for arc in witness:
                if arc.reversed_:
                    assert problem.upper[arc.origin] == POS_INF
                else:
                    assert problem.lower[arc.origin] == NEG_INF
            # sign -1: every focus value falls or stays, one falls; +1 mirrors it
            moves = shift_along_witness((0,) * problem.edge_count, witness)
            steps = [sign * moves[e] for e in problem.focus]
            assert min(steps) >= 0 and max(steps) > 0
            flow = find_feasible_mflow(problem)
            if isinstance(flow, tuple):
                assert check_flow(problem, shift_along_witness(flow, witness)) is None
            return "no-decmin"
        return "ok"

    def test_random_certificates_check_against_the_input(self):
        solvers = {
            "decmin_flow": (decmin_flow, -1),
            "cheapest_decmin_flow": (cheapest_decmin_flow, -1),
            "narrow_box": (narrow_box, -1),
            "incmax_flow": (incmax_flow, 1),
        }
        seen = {name: set() for name in solvers}
        rng = random.Random(131)
        for _ in range(150):
            problem = random_problem(rng, max_nodes=5, feasible=None)
            problem = problem.with_bounds(
                [NEG_INF if rng.random() < 0.3 else b for b in problem.lower],
                [POS_INF if rng.random() < 0.3 else b for b in problem.upper],
            )
            for name, (solve, sign) in solvers.items():
                seen[name].add(self._check(problem, solve, sign))
        for name in solvers:
            assert seen[name] == {"ok", "infeasible", "no-decmin"}, name

import random
from itertools import combinations

import pytest

from fairflow import (
    AssumptionViolatedError,
    CutCertificate,
    compute_beta,
    find_feasible_mflow,
    nd_min_good_mu,
)
from fairflow.oracle import oracle_beta

from conftest import build, random_problem


def dict_oracle(ground, p, b):
    """Exhaustive argmax oracle over an explicit set-function table."""
    subsets = [
        frozenset(c) for size in range(len(ground) + 1) for c in combinations(ground, size)
    ]

    def argmax(mu):
        best = max(subsets, key=lambda s: p[s] - mu * b[s])
        return best, p[best], b[best]

    return argmax


class TestDriver:
    def test_two_element_example(self):
        ground = (1, 2)
        p = {
            frozenset(): 0,
            frozenset({1}): 3,
            frozenset({2}): -10,
            frozenset({1, 2}): 4,
        }
        b = {
            frozenset(): 0,
            frozenset({1}): 2,
            frozenset({2}): 1,
            frozenset({1, 2}): 4,
        }
        mu_min, trace = nd_min_good_mu(dict_oracle(ground, p, b), m_bound=4)
        assert mu_min == 2  # ceil(3/2) dominates
        mus = [it.mu for it in trace.iterations]
        bs = [it.b_value for it in trace.iterations]
        assert mus == sorted(set(mus)) and all(
            x < y for x, y in zip(mus, mus[1:])
        )
        assert all(x > y for x, y in zip(bs, bs[1:]))
        assert len(trace.iterations) <= max(b.values())

    def test_single_relevant_set(self):
        p = {frozenset(): 0, frozenset({1}): 1}
        b = {frozenset(): 0, frozenset({1}): 1}
        mu_min, trace = nd_min_good_mu(dict_oracle((1,), p, b), m_bound=1)
        assert mu_min == 1
        assert len(trace.iterations) == 1

    def test_mu_zero_already_good(self):
        p = {frozenset(): 0, frozenset({1}): -1}
        b = {frozenset(): 0, frozenset({1}): 1}
        with pytest.raises(AssumptionViolatedError):
            nd_min_good_mu(dict_oracle((1,), p, b), m_bound=1)

    def test_no_good_mu(self):
        p = {frozenset(): 0, frozenset({1}): 5}
        b = {frozenset(): 0, frozenset({1}): 0}
        with pytest.raises(AssumptionViolatedError):
            nd_min_good_mu(dict_oracle((1,), p, b), m_bound=1)

    def test_iteration_bound_stops_an_oracle_that_never_settles(self):
        calls = []

        def unsettled(mu):
            # p - mu * b = 1 at every mu; the cap on calls keeps a broken bound from hanging
            calls.append(mu)
            if len(calls) > 50:
                raise RuntimeError("the iteration bound did not stop the driver")
            return frozenset({1}), mu + 1, 1

        with pytest.raises(AssumptionViolatedError, match="iteration bound 3 exceeded"):
            nd_min_good_mu(unsettled, m_bound=3)
        assert calls == [0, 1, 2, 3]

    def test_matches_exhaustive_ceil_max_random(self):
        rng = random.Random(43)
        for _ in range(60):
            ground = tuple(range(rng.randint(1, 4)))
            subsets = [
                frozenset(c)
                for size in range(len(ground) + 1)
                for c in combinations(ground, size)
            ]
            p = {s: rng.randint(-6, 6) if s else 0 for s in subsets}
            b = {s: rng.randint(0, 4) if s else 0 for s in subsets}
            ratios = [
                -(-p[s] // b[s]) for s in subsets if b[s] > 0
            ]
            good_exists = all(p[s] <= 0 for s in subsets if b[s] == 0)
            zero_bad = any(p[s] > 0 for s in subsets)
            if not (good_exists and zero_bad):
                with pytest.raises(AssumptionViolatedError):
                    nd_min_good_mu(dict_oracle(ground, p, b), m_bound=8)
                continue
            expected = max(r for r in ratios)
            mu_min, trace = nd_min_good_mu(dict_oracle(ground, p, b), m_bound=8)
            assert mu_min == expected
            assert mu_min == max(
                -(-p[s] // b[s]) for s in subsets if b[s] > 0
            )
            mus = [it.mu for it in trace.iterations] + [mu_min]
            assert all(x < y for x, y in zip(mus, mus[1:]))
            bs = [it.b_value for it in trace.iterations]
            assert all(x > y for x, y in zip(bs, bs[1:]))
            assert len(trace.iterations) <= max(b.values())


class TestComputeBeta:
    def test_asym(self, asym):
        result = compute_beta(asym)
        assert result.beta == 2
        assert result.saturated_level_set == {0}
        assert result.clamped_upper[0] == 2
        assert result.nd_trace is not None

    def test_diamond(self, diamond):
        result = compute_beta(diamond)
        assert result.beta == 1
        assert result.saturated_level_set == {0, 1, 2, 3}

    @pytest.mark.parametrize("lower, upper", [(["-inf"], [2]), ([0], ["+inf"])])
    def test_rejects_infinite_focus_bounds(self, lower, upper):
        problem = build(2, [(0, 1)], lower, upper, [-1, 1], focus=[0])
        with pytest.raises(ValueError, match="finite bounds on the focus set"):
            compute_beta(problem)

    def test_tight_edge_removed(self):
        problem = build(
            2, [(0, 1), (0, 1)], [1, 0], [1, 2], [-2, 2], focus=[0, 1]
        )
        result = compute_beta(problem)
        assert 0 in result.removed_tight_edges
        assert result.beta == 1  # remaining edge must carry 1
        assert result.saturated_level_set == {1}

    def test_cascade_can_exhaust_focus(self):
        # the focus edge can drop to its lower bound feasibly: it goes
        # tight and nothing is left to cap
        problem = build(
            2, [(0, 1), (0, 1)], [0, 0], [5, 5], [-1, 1], focus=[0]
        )
        result = compute_beta(problem)
        assert result.beta is None
        assert result.removed_tight_edges == (0,)
        assert result.clamped_upper[0] == 0

    def test_beta_definition_clamp_feasible_decrement_not(self):
        rng = random.Random(47)
        tested = 0
        while tested < 40:
            problem = random_problem(rng, feasible=True, focus_mode="some")
            if not problem.focus or not problem.finite_on_focus():
                continue
            if all(problem.lower[e] == problem.upper[e] for e in problem.focus):
                continue
            result = compute_beta(problem)
            if result.beta is None:
                tested += 1
                continue
            clamped = problem.with_bounds(upper=result.clamped_upper)
            assert not isinstance(find_feasible_mflow(clamped), CutCertificate)
            decremented = list(result.clamped_upper)
            for e in result.saturated_level_set:
                decremented[e] = decremented[e] - 1
            squeezed = problem.with_bounds(upper=decremented)
            assert isinstance(find_feasible_mflow(squeezed), CutCertificate)
            tested += 1

    def test_three_iteration_staircase(self):
        # Three demand tiers behind 1, 2 and 3 parallel edges with
        # ceiling ratios 30, 13 and 2: the probes walk the staircase
        # X0 = all tiers, X1 = {t1, t2}, X2 = {t1} before settling on 30.
        problem = build(
            4,
            [(0, 1), (0, 2), (0, 2), (0, 3), (0, 3), (0, 3)],
            [0] * 6,
            [40] * 6,
            [-60, 30, 25, 5],
            focus=range(6),
        )
        result = compute_beta(problem)
        assert result.beta == 30
        trace = result.nd_trace
        assert [(it.mu, it.p_value, it.b_value) for it in trace.iterations] == [
            (0, 60, 6),
            (10, 55, 3),
            (19, 30, 1),
        ]
        assert trace.mu_min == 30
        # definitional check: feasible at the cap, infeasible one below
        capped = problem.with_bounds(upper=result.clamped_upper)
        assert not isinstance(find_feasible_mflow(capped), CutCertificate)
        below = problem.with_bounds(upper=[b - 1 for b in result.clamped_upper])
        assert isinstance(find_feasible_mflow(below), CutCertificate)

    def test_matches_oracle_beta(self):
        # The cap is relative to the clamped state compute_beta reaches:
        # cascade clamps preserve feasibility and the focus may shed
        # tight edges on the way, so the oracle must look at the same
        # bounds and the same remaining focus.
        rng = random.Random(53)
        tested = 0
        while tested < 60:
            problem = random_problem(rng, feasible=True)
            if not problem.focus:
                continue
            result = compute_beta(problem)
            remaining = problem.focus - set(result.removed_tight_edges)
            if result.beta is None:
                assert not remaining
                tested += 1
                continue
            state = problem.with_bounds(upper=result.clamped_upper, focus=remaining)
            assert result.beta == oracle_beta(state)
            # when nothing went tight on the way, the cap is also the
            # min-max value of the original problem
            if not result.removed_tight_edges:
                assert result.beta == oracle_beta(problem)
            tested += 1

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
come.  The corpus is 520 seeded random instances (up to 5 nodes, 8
edges, box width 3, focus sets covering empty / partial / full), with
integer costs in [-3, 3]; ground truth comes from full enumeration.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from fairflow import (
    ExtInt,
    InfeasibleError,
    NEG_INF,
    PotentialVector,
    apply_dicircuit,
    build_level_cost,
    build_potential_vector,
    chain_dual_value,
    cheapest_decmin_flow,
    check_flow,
    compute_beta,
    decmin_compare,
    exists_decmin,
    find_feasible_mflow,
    find_improving_dicircuit,
    finitize_bounds,
    focus_profile,
    incmax_flow,
    is_decmin,
    narrow_box,
    potential_is_feasible,
    require_feasible,
    solve_upper_minimizer,
    verify_O1_O5,
)
from fairflow.maxflow import CutCertificate, hoffman_deficiency, most_violating_set
from fairflow.oracle import (
    OracleLimits,
    enumerate_flows,
    oracle_decmin,
    oracle_min_saturated,
)

from conftest import build, random_problem

CORPUS_SIZE = 520
CORPUS_SEED = 20240901


@contextmanager
def reported(label: str):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL", flush=True)
        raise
    print(f"{label}: PASS", flush=True)


@dataclass
class Entry:
    problem: object
    flows: list
    profile: tuple | None
    decmin_flows: list
    box: object | None
    rounds: tuple | None
    solver_flow: tuple | None


def _build_corpus():
    rng = random.Random(CORPUS_SEED)
    entries: list[Entry] = []
    solve_seconds = 0.0
    for index in range(CORPUS_SIZE):
        if index == 0:
            focus_mode = "none"
        elif index == 1:
            focus_mode = "all"
        else:
            focus_mode = None
        problem = random_problem(rng, costs=True, focus_mode=focus_mode)
        flows = enumerate_flows(problem)
        if flows:
            profile, decmin_flows = oracle_decmin(problem)
        else:
            profile, decmin_flows = None, []
        box = rounds = solver_flow = None
        started = time.perf_counter()
        try:
            box, rounds = narrow_box(problem)
            solver_flow = require_feasible(
                problem.with_bounds(box.f_star, box.g_star)
            )
        except InfeasibleError:
            pass
        solve_seconds += time.perf_counter() - started
        entries.append(
            Entry(problem, flows, profile, decmin_flows, box, rounds, solver_flow)
        )
    return entries, solve_seconds


@pytest.fixture(scope="module")
def corpus():
    return _build_corpus()


def test_criterion_1_oracle_equivalence(corpus):
    entries, solve_seconds = corpus
    with reported("criterion 1 (dec-min profile matches oracle on corpus)"):
        assert len(entries) >= 500
        feasible = 0
        for entry in entries:
            if not entry.flows:
                assert entry.solver_flow is None
                continue
            feasible += 1
            assert entry.solver_flow is not None
            assert check_flow(entry.problem, entry.solver_flow) is None
            assert focus_profile(entry.problem, entry.solver_flow) == entry.profile
        assert feasible >= 300
        assert solve_seconds < 60.0, f"solver took {solve_seconds:.1f}s"


def test_criterion_2_box_soundness_completeness(corpus):
    entries, _ = corpus
    with reported("criterion 2 (narrow box = exact dec-min set)"):
        for entry in entries:
            if not entry.flows:
                continue
            problem, box = entry.problem, entry.box
            inside = set(
                enumerate_flows(problem.with_bounds(box.f_star, box.g_star))
            )
            assert inside == set(entry.decmin_flows)
            for e in problem.focus:
                width = box.g_star[e] - box.f_star[e]
                assert box.f_star[e].is_finite
                assert 0 <= width <= 1


def test_criterion_3_three_certificates_agree(corpus):
    entries, _ = corpus
    with reported("criterion 3 (verdict, circuit, potential-vector agree)"):
        nonoptimal_checked = 0
        for entry in entries:
            if not entry.flows or not entry.problem.focus:
                continue
            problem = entry.problem
            best = entry.profile
            samples = [entry.decmin_flows[0]]
            samples += [z for z in entry.flows if focus_profile(problem, z) != best][:2]
            for flow in samples:
                fair = focus_profile(problem, flow) == best
                if not fair:
                    nonoptimal_checked += 1
                verdict = is_decmin(problem, flow)
                aux, cost = build_level_cost(problem, flow)
                circuit = find_improving_dicircuit(aux, cost)
                potential = build_potential_vector(aux, cost)
                assert verdict.decmin == fair
                assert (circuit is None) == fair
                assert isinstance(potential, PotentialVector) == fair
                if fair:
                    assert potential_is_feasible(aux, cost, verdict.potential)
                else:
                    for found in (verdict.circuit, circuit, potential):
                        improved = apply_dicircuit(flow, found)
                        assert check_flow(problem, improved) is None
                        assert (
                            decmin_compare(
                                focus_profile(problem, improved),
                                focus_profile(problem, flow),
                            )
                            == -1
                        )
        assert nonoptimal_checked >= 200


def test_criterion_4_newton_dinkelbach_bounds(corpus):
    entries, _ = corpus
    from fairflow.oracle import oracle_beta

    with reported("criterion 4 (cap iteration bounds and oracle equality)"):
        invocations = 0
        for entry in entries:
            if entry.rounds is None:
                continue
            problem = entry.problem
            lower = problem.lower
            focus = problem.focus
            for rnd in entry.rounds:
                live = focus - set(rnd.removed_tight)
                if rnd.beta is not None:
                    invocations += 1
                    # the cap-bearing focus is what the round left plus
                    # what it narrowed away
                    assert live == rnd.narrowed | rnd.focus_next
                    state = problem.with_bounds(lower, rnd.g_capped, live)
                    assert rnd.beta == oracle_beta(state)
                if rnd.nd_trace is not None:
                    trace = rnd.nd_trace
                    mus = [it.mu for it in trace.iterations] + [trace.mu_min]
                    assert all(a < b for a, b in zip(mus, mus[1:]))
                    bs = [it.b_value for it in trace.iterations]
                    assert all(a > b for a, b in zip(bs, bs[1:]))
                    assert all(b >= 1 for b in bs)
                    assert len(trace.iterations) <= bs[0] <= problem.edge_count
                lower = rnd.f_prime
                focus = rnd.focus_next
        assert invocations >= 200


def test_criterion_5_upper_minimizer_minmax(corpus):
    entries, _ = corpus
    with reported("criterion 5 (saturation count = oracle = dual chain value)"):
        exercised = 0
        for entry in entries:
            if not entry.flows:
                continue
            problem = entry.problem
            live = {e for e in problem.focus if problem.lower[e] != problem.upper[e]}
            if not live:
                continue
            result = compute_beta(problem.with_bounds(focus=live))
            if result.beta is None:
                continue
            clamped = problem.with_bounds(upper=result.clamped_upper)
            level = result.saturated_level_set
            flow, chain, count = solve_upper_minimizer(clamped, level)
            assert count == oracle_min_saturated(clamped, level)
            assert count == chain_dual_value(clamped, level, chain)
            assert verify_O1_O5(clamped, level, flow, chain) == []
            exercised += 1
        # the min-max holds for arbitrary level sets, not only cap levels
        rng = random.Random(CORPUS_SEED + 3)
        for entry in entries:
            if not entry.flows or exercised >= 400:
                continue
            problem = entry.problem
            level = {
                e
                for e in range(problem.edge_count)
                if problem.lower[e] < problem.upper[e] and rng.random() < 0.5
            }
            flow, chain, count = solve_upper_minimizer(problem, level)
            assert count == oracle_min_saturated(problem, level)
            assert count == chain_dual_value(problem, level, chain)
            assert verify_O1_O5(problem, level, flow, chain) == []
            exercised += 1
        assert exercised >= 300


def test_criterion_6_existence():
    with reported("criterion 6 (existence test and finitization)"):
        triangle = build(
            3,
            [(0, 1), (1, 2), (2, 0)],
            ["-inf"] * 3,
            [0] * 3,
            [0, 0, 0],
            focus=[0, 1, 2],
        )
        result = exists_decmin(triangle)
        assert not result.exists and result.witness is not None
        # one finite lower bound on a focus edge flips the answer
        pinned = triangle.with_bounds(lower=(ExtInt(-4), NEG_INF, NEG_INF))
        assert exists_decmin(pinned).exists

        # finitized problems reproduce criterion 1
        rng = random.Random(CORPUS_SEED + 1)
        wide = OracleLimits(max_box_width=200, max_enumerations=2_000_000)
        reproduced = 0
        while reproduced < 40:
            base = random_problem(rng, max_nodes=4, max_edges=4, feasible=True)
            lower = [
                NEG_INF if rng.random() < 0.3 else b for b in base.lower
            ]
            from fairflow import POS_INF

            upper = [
                POS_INF
                if e not in base.focus and rng.random() < 0.2
                else b
                for e, b in enumerate(base.upper)
            ]
            problem = base.with_bounds(lower, upper)
            if not problem.focus or problem.finite_on_focus():
                continue
            if not exists_decmin(problem).exists:
                continue
            finite = finitize_bounds(problem)
            assert finite.finite_on_focus()
            assert finitize_bounds(finite) is finite
            try:
                profile, _ = oracle_decmin(finite, wide)
            except Exception:
                continue
            from fairflow import decmin_flow

            flow = decmin_flow(finite)
            assert focus_profile(finite, flow) == profile
            reproduced += 1


def test_criterion_7_cheapest_decmin(corpus):
    entries, _ = corpus
    with reported("criterion 7 (cheapest fair flow matches oracle cost)"):
        for entry in entries:
            if not entry.flows:
                continue
            problem = entry.problem
            cost = problem.cost
            cheapest = cheapest_decmin_flow(problem)
            assert check_flow(problem, cheapest) is None
            assert focus_profile(problem, cheapest) == entry.profile
            price = sum(c * z for c, z in zip(cost, cheapest))
            best = min(
                sum(c * z for c, z in zip(cost, flow))
                for flow in entry.decmin_flows
            )
            assert price == best


def test_criterion_8_incmax_duality(corpus):
    entries, _ = corpus
    with reported("criterion 8 (inc-max equals negated dec-min of mirror)"):
        from fairflow import decmin_flow

        for entry in entries:
            if not entry.flows:
                continue
            problem = entry.problem
            inc = incmax_flow(problem)
            assert check_flow(problem, inc) is None
            mirrored = decmin_flow(problem.negated())
            inc_profile = sorted(inc[e] for e in problem.focus)
            mirror_profile = sorted(-mirrored[e] for e in problem.focus)
            assert inc_profile == mirror_profile


def test_criterion_9_hoffman_feasibility(corpus):
    entries, _ = corpus
    from itertools import combinations

    with reported("criterion 9 (Hoffman checks match exhaustive subsets)"):
        rng = random.Random(CORPUS_SEED + 2)
        small = [e.problem for e in entries if e.problem.node_count <= 4]
        small += [
            random_problem(rng, max_nodes=4, feasible=False) for _ in range(80)
        ]
        assert len(small) >= 100
        for problem in small:
            subsets = [
                frozenset(c)
                for size in range(problem.node_count + 1)
                for c in combinations(range(problem.node_count), size)
            ]
            worst = max(hoffman_deficiency(problem, s) for s in subsets)
            outcome = find_feasible_mflow(problem)
            certificate = most_violating_set(problem)
            assert certificate.deficiency == worst
            assert (
                hoffman_deficiency(problem, certificate.nodes)
                == certificate.deficiency
            )
            if isinstance(outcome, CutCertificate):
                assert worst > 0
                assert hoffman_deficiency(problem, outcome.nodes) == outcome.deficiency
                assert outcome.deficiency > 0
            else:
                assert worst <= 0
                assert check_flow(problem, outcome) is None

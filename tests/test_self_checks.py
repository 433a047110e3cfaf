"""Every solver self-check that honest inputs never reach still fires.

Each check guards a step that the paper's theory says cannot fail, so
no valid problem reaches it.  Each case below corrupts one collaborator
of the checking routine with monkeypatch, or hands the routine a
corrupted input, and expects the check's InternalCertificateFailure.
Through the CLI such a failure exits 3 as an internal error, never 2 as
bad input.  narrow_box builds each round's rewritten problem without
FlowProblem.__post_init__ but keeps its bound-pair check, which raises
that check's ValueError; it too exits 3.
"""

import json
import re

import pytest

from fairflow import NEG_INF, POS_INF, certificates, cli, decmin, existence, newton, upper_min
from fairflow.errors import InternalCertificateFailure
from fairflow.jsonio import problem_to_json
from fairflow.upper_min import Chain, apply_round_bounds, solve_upper_minimizer

from conftest import build

# one unit over one edge that is also the level edge: the count is 1 and
# the chain is the one member {1}
SATURATED = build(2, [(0, 1)], [0], [1], [-1, 1])


def saturate():
    return solve_upper_minimizer(SATURATED, {0})


def zero_count(monkeypatch, asym):
    solve = decmin.solve_upper_minimizer

    def no_count(*args):
        flow, chain, _ = solve(*args)
        return flow, chain, 0

    monkeypatch.setattr(decmin, "solve_upper_minimizer", no_count)
    return lambda: decmin.narrow_box(asym)


def nothing_narrowed(monkeypatch, asym):
    bounds = decmin.apply_round_bounds
    monkeypatch.setattr(decmin, "apply_round_bounds", lambda *a: (*bounds(*a)[:2], frozenset()))
    return lambda: decmin.narrow_box(asym)


def inverted_window_end(monkeypatch, asym):
    # asym's edge 2 crosses no chain member, so no criterion checks its window
    # [0, 4]; only the rewritten problem's bound check sees [5, 4]
    window = upper_min._chain_window

    def corrupted(*args):
        lower, upper, criteria = window(*args)
        assert criteria[2] is None
        lower[2] = upper[2] + 1
        return lower, upper, criteria

    monkeypatch.setattr(upper_min, "_chain_window", corrupted)
    return lambda: decmin.narrow_box(asym)


def wide_box(monkeypatch, asym):
    # the narrowed edges leave the focus set, so only the box check reads
    # their rewritten lower bounds
    bounds = decmin.apply_round_bounds

    def widened(*args):
        f_prime, g_prime, narrowed = bounds(*args)
        f_prime = tuple(NEG_INF if e in narrowed else f for e, f in enumerate(f_prime))
        return f_prime, g_prime, narrowed

    monkeypatch.setattr(decmin, "apply_round_bounds", widened)
    return lambda: decmin.narrow_box(asym)


def violated_potential(monkeypatch, asym):
    monkeypatch.setattr(certificates, "_first_infeasible_arc", lambda *a: 0)
    return lambda: certificates.is_decmin(asym, (2, 1, 3))


def unusable_implied_bound(monkeypatch, asym):
    # edge 0 has a -inf lower bound and no circuit, so its bound is implied
    problem = build(2, [(0, 1)], ["-inf"], [5], [-1, 1], focus=[0])
    monkeypatch.setattr(existence, "_deficiency", lambda *a: 10**9)
    return lambda: existence.finitize_bounds(problem)


def level_edge_off_beta(monkeypatch, asym):
    # a corrupted input: asym's edge 0 has upper bound 3, not beta 2
    return lambda: apply_round_bounds(asym, 2, {0}, Chain(()))


def failed_criteria(monkeypatch, asym):
    # the helper verify_O1_O5 calls, on the window solve_upper_minimizer computed
    monkeypatch.setattr(upper_min, "_outside", lambda *a: ["O1: corrupted"])
    return saturate


def full_chain_member(monkeypatch, asym):
    # the lowest-ranked node is in no member, so only a corrupted Chain adds V
    monkeypatch.setattr(upper_min, "Chain", lambda sets: Chain((frozenset({0, 1}), *sets)))
    return saturate


def infinite_boundary_term(monkeypatch, asym):
    monkeypatch.setattr(upper_min, "hoffman_deficiency", lambda *a: POS_INF)
    return saturate


def dual_value_mismatch(monkeypatch, asym):
    # the helper chain_dual_value calls
    monkeypatch.setattr(upper_min, "_dual_value", lambda *a: -1)
    return saturate


def repeated_probe(monkeypatch, asym):
    # asym's drop of edge 0 to 1 fails; a driver that probes mu = 1 twice
    def driver(oracle, m_bound):
        for mu in (0, 1, 1):
            oracle(mu)

    monkeypatch.setattr(newton, "nd_min_good_mu", driver)
    return lambda: newton.compute_beta(asym)


def infeasible_at_mu_min(monkeypatch, asym):
    # a driver that calls mu = 0 good, although the failed drop leaves deficiency 1
    def driver(oracle, m_bound):
        oracle(0)
        return 0, newton.NDTrace((), 0)

    monkeypatch.setattr(newton, "nd_min_good_mu", driver)
    return lambda: newton.compute_beta(asym)


CASES = [
    (zero_count, "no flow reaches the cap"),
    (nothing_narrowed, "round narrowed no edge"),
    (wide_box, "box is not narrow on focus edge"),
    (violated_potential, "constructed potential-vector violates arc 0"),
    (unusable_implied_bound, "implied bound .* on edge 0 is not usable"),
    (level_edge_off_beta, "cap-level edge 0 must sit at beta 2"),
    (failed_criteria, "saturation criteria failed: O1: corrupted"),
    (full_chain_member, "chain member is not a proper subset"),
    (infinite_boundary_term, "chain member has an infinite boundary term"),
    (dual_value_mismatch, "dual chain value does not match count"),
    (repeated_probe, "Newton probe mu 1 does not rise"),
    (infeasible_at_mu_min, "the probed network is infeasible at mu 0"),
]


@pytest.mark.parametrize("corrupt, message", CASES, ids=[c.__name__ for c, _ in CASES])
def test_self_check_fires(monkeypatch, asym, corrupt, message):
    solve = corrupt(monkeypatch, asym)
    with pytest.raises(InternalCertificateFailure, match=message):
        solve()


def test_rewritten_bounds_are_checked(monkeypatch, asym):
    # the reduction round builds its next problem without FlowProblem's
    # __post_init__, but still checks every bound pair with its message
    solve = inverted_window_end(monkeypatch, asym)
    with pytest.raises(ValueError, match=re.escape("edge 2 has invalid bounds [5, 4]")):
        solve()


def cli_failure(monkeypatch, capsys, tmp_path, asym, corrupt):
    """Exit code, stdout payload and stderr of `fairflow decmin` on asym, corrupted."""
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(problem_to_json(asym)))
    corrupt(monkeypatch, asym)
    code = cli.main(["decmin", str(path)])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_self_check_failure_exits_3_in_the_cli(monkeypatch, capsys, tmp_path, asym):
    code, payload, err = cli_failure(monkeypatch, capsys, tmp_path, asym, nothing_narrowed)
    assert code == 3
    assert payload == {
        "status": "internal-error",
        "message": "round narrowed no edge; the reduction would not terminate",
    }
    assert "InternalCertificateFailure" in err


def test_rewritten_bound_check_exits_3_in_the_cli(monkeypatch, capsys, tmp_path, asym):
    code, payload, err = cli_failure(monkeypatch, capsys, tmp_path, asym, inverted_window_end)
    assert code == 3
    assert payload == {"status": "internal-error", "message": "edge 2 has invalid bounds [5, 4]"}
    assert "ValueError" in err

"""Command-line driver.

One positional problem file in, one JSON result document out (CSV for
``report``).  Exit codes: 0 ok, 1 infeasible or no fair flow exists,
with its proof, 2 input error, 3 internal error (a bug, never a property
of the input).  There is one output path: ``_run`` returns the exit code
and a payload, ``main`` turns every error into a payload too, and prints
exactly once.  stdout carries only the result.  stderr gets an ``error:
...`` line on exit 2 (after argparse's usage line when the command line
is malformed or lacks the problem file) and the traceback on exit 3, and
nothing otherwise: there is no logging.  ``--trace`` exists only on
``beta``, ``narrow-box``, ``decmin`` and ``cheapest-decmin``, the
commands that have a trace to add.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certificates import build_level_cost, is_decmin
from .core import FlowProblem, check_flow, focus_profile
from .decmin import incmax_flow, narrow_box
from .errors import (
    InfeasibleError,
    InfiniteBoundsError,
    LimitExceededError,
    NoDecMinError,
    UnboundedCostError,
)
from .existence import exists_decmin
from .jsonio import (
    ProblemFormatError,
    bound_to_json,
    parse_flow,
    parse_problem,
)
from .maxflow import (
    CutCertificate,
    find_feasible_mflow,
    most_violating_set,
    require_feasible,
)
from .mincost import min_cost_mflow
from .newton import compute_beta


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairflow",
        description="Fair (decreasingly minimal) integral modular flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument("--trace", action="store_true", help="include iteration/round traces")

    # a parent's arguments come first, so oracle_op precedes the problem file
    operation = argparse.ArgumentParser(add_help=False)
    operation.add_argument("oracle_op", choices=["enumerate", "decmin"], help="oracle operation")

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, **kwargs)
        cmd.add_argument("input", help="problem file (JSON)")
        return cmd

    add("feasible", help="find a feasible flow or a violating node set")
    add("violating-set", help="most violating node set (feasible or not)")
    add("beta", parents=[tracing], help="smallest feasible cap for the focus upper bounds")
    add("narrow-box", parents=[tracing], help="tightened bounds describing all fair flows")
    add("decmin", parents=[tracing], help="a fair flow")
    add("cheapest-decmin", parents=[tracing], help="cheapest fair flow under the edge costs")
    add("incmax", help="an increasingly maximal flow")
    add("exists", help="does a fair flow exist under infinite bounds")
    verify = add("verify", help="check a flow for fairness, with certificate")
    verify.add_argument("--flow", required=True, help="flow file (JSON)")
    oracle = add("oracle", parents=[operation], help="brute-force reference results")
    oracle.add_argument(
        "--limits",
        action="append",
        default=[],
        metavar="K=V",
        help="override enumeration caps (max_edges, max_box_width, max_enumerations)",
    )
    add("report", help="per-round reduction trace as CSV plot data")
    return parser


def _load_json(path: str, what: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ProblemFormatError(what, f"cannot read {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ProblemFormatError(what, f"invalid JSON in {path}: {exc}")


def _parse_limits(pairs: list[str]) -> dict[str, int]:
    allowed = {"max_edges", "max_box_width", "max_enumerations"}
    overrides: dict[str, int] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or key not in allowed:
            raise ProblemFormatError("--limits", f"expected K=V with K in {sorted(allowed)}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise ProblemFormatError("--limits", f"{key} needs an integer, got {value!r}")
    return overrides


def _flow_payload(problem: FlowProblem, values) -> dict:
    return {
        "status": "ok",
        "values": list(values),
        "F_profile_sorted_desc": list(focus_profile(problem, values)),
    }


def _rounds_payload(rounds) -> list[dict]:
    out = []
    for i, rnd in enumerate(rounds):
        entry: dict[str, object] = {
            "round": i,
            "beta": rnd.beta,
            "level_set": sorted(rnd.level_set),
            "narrowed": sorted(rnd.narrowed),
            "focus_next": sorted(rnd.focus_next),
            "removed_tight": list(rnd.removed_tight),
            "chain": [sorted(member) for member in rnd.chain.sets]
            if rnd.chain is not None
            else None,
        }
        if rnd.nd_trace is not None:
            entry["nd_trace"] = _trace_payload(rnd.nd_trace)
        out.append(entry)
    return out


def _trace_payload(trace) -> dict:
    return {
        "iterations": [
            {
                "mu": it.mu,
                "argmax": sorted(it.argmax),
                "p": it.p_value,
                "b": it.b_value,
            }
            for it in trace.iterations
        ],
        "mu_min": trace.mu_min,
    }


def _aux_arc_payload(arc) -> dict:
    return {
        "tail": arc.tail,
        "head": arc.head,
        "forward": arc.forward,
        "origin": arc.origin,
    }


def _inf_arc_payload(arc) -> dict:
    return {
        "tail": arc.tail,
        "head": arc.head,
        "origin": arc.origin,
        "reversed": arc.reversed_,
    }


def _run(args: argparse.Namespace) -> tuple[int, dict | str]:
    """Exit code and payload: a JSON-ready dict, or the CSV text for ``report``."""
    problem = parse_problem(_load_json(args.input, "input"))
    command = args.command

    if command == "feasible":
        outcome = find_feasible_mflow(problem)
        if isinstance(outcome, CutCertificate):
            return 1, {
                "status": "infeasible",
                "violating_set": sorted(outcome.nodes),
                "deficiency": outcome.deficiency,
            }
        return 0, _flow_payload(problem, outcome)

    if command == "violating-set":
        certificate = most_violating_set(problem)
        return 0, {
            "status": "ok",
            "set": sorted(certificate.nodes),
            "deficiency": certificate.deficiency,
        }

    if command == "beta":
        for e in sorted(problem.focus):
            if not (problem.lower[e].is_finite and problem.upper[e].is_finite):
                raise ProblemFormatError(
                    f"edges[{e}]", "beta needs finite bounds on focus edges"
                )
        result = compute_beta(problem)
        payload = {
            "status": "ok",
            "beta": result.beta,
            "level_set": sorted(result.saturated_level_set),
            "removed_tight_edges": list(result.removed_tight_edges),
            "clamped_upper": [bound_to_json(b) for b in result.clamped_upper],
        }
        if args.trace and result.nd_trace is not None:
            payload["nd_trace"] = _trace_payload(result.nd_trace)
        return 0, payload

    if command == "incmax":
        return 0, _flow_payload(problem, incmax_flow(problem))

    if command == "exists":
        result = exists_decmin(problem)
        if result.exists:
            return 0, {"status": "ok", "exists": True}
        return 1, {
            "status": "no-decmin",
            "exists": False,
            "witness_circuit": [_inf_arc_payload(a) for a in result.witness],
        }

    if command == "verify":
        values = parse_flow(_load_json(args.flow, "flow"), problem.edge_count)
        violation = check_flow(problem, values)
        if violation is not None:
            raise ProblemFormatError("flow", f"not feasible: {violation.message}")
        verdict = is_decmin(problem, values)
        if not verdict.decmin:
            return 0, {
                "status": "ok",
                "decmin": False,
                "improving_circuit": [_aux_arc_payload(a) for a in verdict.circuit],
            }
        _, cost = build_level_cost(problem, values)
        return 0, {
            "status": "ok",
            "decmin": True,
            "potential": [list(vec) for vec in verdict.potential.values],
            "levels": list(cost.levels),
        }

    if command == "oracle":
        # imported here, not at the top: no other command enumerates
        from .oracle import OracleLimits, enumerate_flows, oracle_decmin

        limits = OracleLimits(**_parse_limits(args.limits))
        if args.oracle_op == "enumerate":
            flows = enumerate_flows(problem, limits)
            payload = {"status": "ok", "count": len(flows)}
        else:
            profile, flows = oracle_decmin(problem, limits)
            payload = {"status": "ok", "F_profile_sorted_desc": list(profile)}
        payload["flows"] = [list(f) for f in flows]
        return 0, payload

    # narrow-box, decmin, cheapest-decmin and report all start from the box
    box, rounds = narrow_box(problem)
    if command == "report":
        lines = ["round,beta,L_size,L_prime_size,F_remaining,chain_depth"]
        for i, rnd in enumerate(rounds):
            depth = len(rnd.chain) if rnd.chain is not None else 0
            beta = rnd.beta if rnd.beta is not None else ""
            lines.append(
                f"{i},{beta},{len(rnd.level_set)},{len(rnd.narrowed)},"
                f"{len(rnd.focus_next)},{depth}"
            )
        return 0, "\n".join(lines)
    if command == "narrow-box":
        payload = {
            "status": "ok",
            "f_star": [bound_to_json(b) for b in box.f_star],
            "g_star": [bound_to_json(b) for b in box.g_star],
        }
    else:
        boxed = problem.with_bounds(box.f_star, box.g_star)
        if command == "decmin":
            payload = _flow_payload(problem, require_feasible(boxed))
        else:
            values = min_cost_mflow(boxed)
            payload = _flow_payload(problem, values)
            cost = problem.cost or (0,) * problem.edge_count
            payload["cost"] = sum(c * z for c, z in zip(cost, values))
    if args.trace:
        payload["rounds"] = _rounds_payload(rounds)
    return 0, payload


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload = _run(args)
    except InfeasibleError as exc:
        cut = exc.certificate
        code, payload = 1, {"status": "infeasible", "message": str(exc),
                            "violating_set": sorted(cut.nodes), "deficiency": cut.deficiency}
    except NoDecMinError as exc:
        code, payload = 1, {"status": "no-decmin", "message": str(exc),
                            "witness_circuit": [_inf_arc_payload(a) for a in exc.witness]}
    except (
        ProblemFormatError, LimitExceededError, InfiniteBoundsError, UnboundedCostError
    ) as exc:
        # the input is malformed, or the instance is outside what the command accepts
        code, payload = 2, {"status": "error", "message": str(exc)}
    except Exception as exc:
        import traceback  # here, not at the top: it adds ~5 ms to every start

        traceback.print_exc()
        code, payload = 3, {"status": "internal-error", "message": str(exc)}
    print(payload if isinstance(payload, str) else json.dumps(payload, indent=2))
    if code == 2:
        print(f"error: {payload['message']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate: every op is checked from first principles and
against the reference answers recorded for its (workload, seed).

The dec-min focus profile and the cheapest fair cost are unique, so
they are recorded per op; for CLI calls the exit code, the ``status``
field and a digest of the answer are recorded.  References live in
``references.json`` beside this file and are only ever written by
``record_references.py``; a mismatch is a failed op, never a reason to
re-record.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def short_digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def references_for(table: dict, workload: str, seed: int) -> list | None:
    return table.get(workload, {}).get(str(seed))


# -- solver ops ---------------------------------------------------------------


def solver_reference(ff, problem, flow) -> list:
    """[profile digest, cost] of one solver answer (cost None without costs)."""
    profile = list(ff.focus_profile(problem, flow))
    cost = None
    if problem.cost is not None:
        cost = sum(c * z for c, z in zip(problem.cost, flow))
    return [short_digest(profile), cost]


def check_solver_op(ff, problem, flow, verdict, reference: list | None) -> list[str]:
    """Problems with one (flow, is_decmin verdict) answer; empty means pass."""
    violation = ff.check_flow(problem, flow)
    if violation is not None:
        return [f"infeasible flow: {violation.message}"]
    errors = []
    if not verdict.decmin or verdict.potential is None:
        errors.append("is_decmin rejected the flow")
    else:
        aux, cost = ff.build_level_cost(problem, flow)
        if not ff.potential_is_feasible(aux, cost, verdict.potential):
            errors.append("potential-vector is not feasible")
    if reference is not None:
        got = solver_reference(ff, problem, flow)
        if got[0] != reference[0]:
            errors.append("focus profile differs from the reference")
        if got[1] != reference[1]:
            errors.append(f"cost {got[1]} differs from the reference {reference[1]}")
    return errors


# -- CLI calls ------------------------------------------------------------------


def cli_answer(command: str, payload: dict):
    """The part of a CLI result that is unique, whatever solver produced it."""
    status = payload.get("status")
    if status != "ok":
        return status
    if command in ("decmin", "incmax"):
        return payload["F_profile_sorted_desc"]
    if command == "cheapest-decmin":
        return [payload["F_profile_sorted_desc"], payload["cost"]]
    if command == "narrow-box":
        return [payload["f_star"], payload["g_star"]]
    if command == "exists":
        return payload["exists"]
    if command == "verify":
        return payload["decmin"]
    raise ValueError(f"unexpected command {command!r}")


def cli_reference(command: str, code: int, stdout: str) -> list:
    """[exit code, status, answer digest] of one CLI call."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return [code, None, short_digest(stdout)]
    return [code, payload.get("status"), short_digest(cli_answer(command, payload))]


def check_cli_op(ff, command: str, problem, code: int, stdout: str, reference: list | None) -> list[str]:
    """Problems with one CLI call's exit code and output; empty means pass."""
    got = cli_reference(command, code, stdout)
    errors = []
    if reference is not None and got != reference:
        errors.append(f"{command}: exit/status/answer {got} differs from the reference {reference}")
    if got[1] == "ok" and command in ("decmin", "cheapest-decmin", "incmax"):
        values = tuple(json.loads(stdout)["values"])
        checked, flow = problem, values
        if command == "incmax":
            # z is inc-max exactly when -z is dec-min for the negated problem
            checked, flow = ff.finitize_bounds(problem.negated()), tuple(-z for z in values)
        else:
            checked = ff.finitize_bounds(problem)
        violation = ff.check_flow(checked, flow)
        if violation is not None:
            errors.append(f"{command}: infeasible flow: {violation.message}")
        elif not ff.is_decmin(checked, flow).decmin:
            errors.append(f"{command}: flow is not dec-min")
    return errors

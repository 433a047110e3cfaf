"""Layer spans recorded from outside the package.

The benchmark times calls into each module's public functions by
rebinding the function name, for the duration of a traced pass, in
every ``fairflow`` namespace that holds it: ``from .maxflow import
require_feasible`` binds a copy in the importing module, and each copy
must be wrapped for the calls made through it to be seen.  Nothing in
the package changes, and ``uninstall`` puts every original back.

Spans are kept in memory as lists (see FIELDS) and summarised once the
pass is over.  ``parent`` is the index of the enclosing span (-1 at the
top of an op), ``op`` the index of the op, and ``note`` a small integer
read off the return value (a cycle found, rounds run, ...).
"""

from __future__ import annotations

import sys
import time
from typing import Callable


def _some(result) -> int:
    return int(result is not None)


def _is_flow(result) -> int:
    # find_feasible_mflow returns a tuple flow or a CutCertificate
    return int(isinstance(result, tuple))


def _second_len(result) -> int:
    return len(result[1])


def _levels(verdict) -> int:
    return verdict.potential.dimension if verdict.potential is not None else 0


# layer -> (module, {function: note}); `bf` is the `_bf` module.
LAYERS: dict[str, tuple[str, dict[str, Callable | None]]] = {
    "maxflow": (
        "maxflow",
        {
            "find_feasible_mflow": _is_flow,
            "nd_cut_subroutine": None,
            "most_violating_set": None,
            "max_flow": None,
        },
    ),
    "newton": ("newton", {"compute_beta": None}),
    "mincost": (
        "mincost",
        {
            "min_cost_mflow": None,
            "find_negative_dicircuit": _some,
            "residual_potentials": None,
        },
    ),
    "bf": ("_bf", {"bellman_ford": None}),
    "upper_min": ("upper_min", {"solve_upper_minimizer": _second_len}),
    "decmin": ("decmin", {"narrow_box": _second_len}),
    "certificates": ("certificates", {"is_decmin": _levels}),
    "existence": ("existence", {"exists_decmin": None, "finitize_bounds": None}),
    "jsonio": (
        "jsonio",
        {"parse_problem": None, "problem_to_json": None, "parse_flow": None},
    ),
    "cli": ("cli", {"main": None}),
}

LAYER_NAMES = tuple(LAYERS)
FIELDS = ("layer", "function", "start", "end", "parent", "op", "note")


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "fairflow" or name.startswith("fairflow."))
    ]


def _rebind(target, replacement) -> list[tuple]:
    """Point every package name bound to ``target`` at ``replacement``."""
    bound = []
    for module in package_modules():
        for name, value in list(vars(module).items()):
            if value is target:
                setattr(module, name, replacement)
                bound.append((module, name, target))
    return bound


class Tracer:
    """Wraps the layer functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._bound: list[tuple] = []

    def _wrap(self, layer: str, name: str, func: Callable, note: Callable | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[6] = note(result)
            return result

        return wrapper

    def install(self) -> None:
        if self._bound:
            raise RuntimeError("tracer already installed")
        for layer, (module_name, functions) in LAYERS.items():
            module = sys.modules[f"fairflow.{module_name}"]
            for name, note in functions.items():
                func = getattr(module, name)
                wrapper = self._wrap(layer, name, func, note)
                self._bound.extend(_rebind(func, wrapper))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._bound):
            setattr(module, name, original)
        self._bound = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class ConstructionCounter:
    """Counts FlowProblem and ExtInt constructions during a pass.

    Kept apart from the Tracer: wrapping the hottest constructor in the
    package would distort every traced self time.
    """

    def __init__(self):
        self.problems = 0
        self.extints = 0
        self._problem_cls = sys.modules["fairflow.core"].FlowProblem
        self._extint_cls = sys.modules["fairflow.extint"].ExtInt
        self._originals: tuple | None = None

    def __enter__(self) -> "ConstructionCounter":
        post_init = self._problem_cls.__post_init__
        init = self._extint_cls.__init__

        def counted_post_init(obj):
            self.problems += 1
            post_init(obj)

        def counted_init(obj, value):
            self.extints += 1
            init(obj, value)

        self._originals = (post_init, init)
        self._problem_cls.__post_init__ = counted_post_init
        self._extint_cls.__init__ = counted_init
        return self

    def __exit__(self, *exc) -> None:
        post_init, init = self._originals
        self._problem_cls.__post_init__ = post_init
        self._extint_cls.__init__ = init
        self._originals = None


def summarise(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, self time and work counts from one pass's spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    out: dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    counts = {
        "maxflow.feasible_calls": 0,
        "maxflow.cut_calls": 0,
        "newton.probes": 0,
        "newton.cascade_probes": 0,
        "mincost.cycles_canceled": 0,
        "mincost.feasible_calls": 0,
        "upper_min.chain_depth": 0,
        "decmin.rounds": 0,
        "certificates.levels": 0,
    }
    cascade_flows = 0
    for i, (layer, name, start, end, parent, _, note) in enumerate(spans):
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += end - start - child_time[i]
        parent_name = spans[parent][1] if parent >= 0 else None
        if name == "find_feasible_mflow":
            counts["maxflow.feasible_calls"] += 1
            if parent_name == "compute_beta":
                counts["newton.cascade_probes"] += 1
                cascade_flows += note
            elif parent_name == "min_cost_mflow":
                counts["mincost.feasible_calls"] += 1
        elif name == "nd_cut_subroutine":
            counts["maxflow.cut_calls"] += 1
            if parent_name == "compute_beta":
                counts["newton.probes"] += 1
        elif name == "find_negative_dicircuit":
            counts["mincost.cycles_canceled"] += note
        elif name == "solve_upper_minimizer":
            counts["upper_min.chain_depth"] += note
        elif name == "narrow_box":
            counts["decmin.rounds"] += note
        elif name == "is_decmin":
            counts["certificates.levels"] += note
    out.update(counts)
    probes = counts["newton.cascade_probes"]
    out["newton.cascade_accept_ratio"] = cascade_flows / probes if probes else 0.0
    return out

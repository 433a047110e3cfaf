#!/usr/bin/env python3
"""fairflow benchmark: certified-solve wall time on three seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload decmin-ladder --seed 1 --seconds 35 --trace 0

Workloads (see bench/README.md for why each exists):

* decmin-ladder: ``decmin_flow`` + ``is_decmin`` on all-focus instances
  from (20, 60) to (100, 400), plus one wide (width 10^6) rung.
* cost-sparse: ``cheapest_decmin_flow`` + ``is_decmin`` on instances with
  ~5% focus edges, width-1000 bounds and costs in [-10, 10].
* cli-batch: fresh-process ``python -m fairflow.cli`` calls over small
  problem files, started one at a time.

With ``--trace 0`` the run repeats passes over the seeded instance set
for about ``--seconds`` seconds and reports the end-to-end metrics.  A
fixed reference task (bench/reference.py) is timed throughout each
pass, and ``wall_ref`` is the pass time in units of that task, so that the drift
of a shared host's speed cancels out.  With
``--trace 1`` it makes one untraced pass, one traced pass, one
construction-count pass and a CLI leg, and reports the per-layer
metrics.  Every op is checked (bench/gate.py); the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_SRC = os.path.join(ROOT, "src", "fairflow")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

import gate  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
MIN_CLI_SAMPLES = 100
IMPORT_SAMPLES = 7
ENTRY_POINTS = {"decmin-ladder": "decmin_flow", "cost-sparse": "cheapest_decmin_flow"}

# Metric names and units, as BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
PER_LAYER = {
    "maxflow.calls": "count",
    "maxflow.self_s": "s",
    "maxflow.feasible_calls": "count",
    "maxflow.cut_calls": "count",
    "maxflow.feasible_calls_per_op": "count/op",
    "newton.calls": "count",
    "newton.self_s": "s",
    "newton.probes": "count",
    "newton.cascade_probes": "count",
    "newton.cascade_accept_ratio": "ratio",
    "mincost.calls": "count",
    "mincost.self_s": "s",
    "mincost.cycles_canceled": "count",
    "mincost.feasible_calls": "count",
    "bf.calls": "count",
    "bf.self_s": "s",
    "upper_min.calls": "count",
    "upper_min.self_s": "s",
    "upper_min.chain_depth": "count",
    "decmin.calls": "count",
    "decmin.self_s": "s",
    "decmin.rounds": "count",
    "certificates.calls": "count",
    "certificates.self_s": "s",
    "certificates.levels": "count",
    "existence.calls": "count",
    "existence.self_s": "s",
    "core.problems_built": "count",
    "extint.created": "count",
    "jsonio.self_s": "s",
    "cli.self_s": "s",
    "cli.import_ms": "ms",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """One workload's instances, imported package and scratch files."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.src = os.path.join(workdir, "src")
        self.ff = None
        self.instances: dict = {}
        self.problems: list = []
        self.argv: list[list[str]] = []
        self.setup_times: list[float] = []

    # -- set-up ------------------------------------------------------------

    def copy_source(self) -> None:
        """Private copy of the package, so no stray bytecode cache is read."""
        shutil.copytree(
            PACKAGE_SRC,
            os.path.join(self.src, "fairflow"),
            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
        )
        sys.path.insert(0, self.src)

    def child_env(self) -> dict:
        return {
            "PYTHONPATH": self.src,
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONHASHSEED": "0",
            "LC_ALL": "C",
        }

    def setup_once(self) -> float:
        """Import from source, generate the instances, write the files."""
        for module in spans.package_modules():
            del sys.modules[module.__name__]
        start = time.perf_counter()
        ff = importlib.import_module("fairflow")
        importlib.import_module("fairflow.cli")
        instances = workloads.generate(self.workload, self.seed)
        for j, (doc, flow) in enumerate(zip(instances["documents"], instances["flows"])):
            with open(self.problem_file(j), "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            if flow is not None:
                with open(self.flow_file(j), "w", encoding="utf-8") as handle:
                    json.dump({"values": flow}, handle)
        problems = [ff.parse_problem(doc) for doc in instances["documents"]]
        elapsed = time.perf_counter() - start
        self.ff, self.instances, self.problems = ff, instances, problems
        self.argv = [self.cli_args(command, j) for command, j in instances["argv"]]
        return elapsed

    def setup(self) -> None:
        sys.dont_write_bytecode = True
        self.copy_source()
        # The first set-up also pays one-off stdlib imports and heap growth,
        # and garbage left by earlier set-ups would trigger collections
        # inside later ones; both made set-up times bimodal.
        self.setup_once()
        for _ in range(SETUP_REPEATS):
            gc.collect()
            self.setup_times.append(self.setup_once())

    def problem_file(self, j: int) -> str:
        return os.path.join(self.workdir, f"problem{j}.json")

    def flow_file(self, j: int) -> str:
        return os.path.join(self.workdir, f"flow{j}.json")

    def cli_args(self, command: str, j: int) -> list[str]:
        args = [command, self.problem_file(j)]
        if command == "verify":
            args += ["--flow", self.flow_file(j)]
        return args

    # -- passes --------------------------------------------------------------

    def solver_pass(self, tracer: spans.Tracer | None = None, clock=time.perf_counter) -> tuple[list[float], list]:
        """One op per problem: the entry point, then is_decmin on its result."""
        ff, entry = self.ff, ENTRY_POINTS[self.workload]
        times, answers = [], []
        gc.collect()
        for op, problem in enumerate(self.problems):
            if tracer is not None:
                tracer.op = op
            start = clock()
            try:
                flow = getattr(ff, entry)(problem)
                verdict = ff.is_decmin(problem, flow)
            except Exception as exc:  # a failed op is counted, not fatal
                times.append(clock() - start)
                answers.append(exc)
                continue
            times.append(clock() - start)
            answers.append((flow, verdict))
        return times, answers

    def cli_pass(self, refs: list | None = None) -> tuple[list[float], list]:
        """Fresh-process CLI calls, one at a time.

        With ``refs``, a reference sample is taken before every call and
        after the last, and appended to it.
        """
        env = self.child_env()
        base = [sys.executable, "-S", "-m", "fairflow.cli"]
        times, answers = [], []
        for args in self.argv:
            if refs is not None:
                refs.append(reference.sample())
            start = time.perf_counter()
            done = subprocess.run(base + args, env=env, cwd=self.workdir, capture_output=True, text=True)
            times.append(time.perf_counter() - start)
            answers.append((done.returncode, done.stdout))
        if refs is not None:
            refs.append(reference.sample())
        return times, answers

    def cli_inprocess_pass(self, argv: list[list[str]], tracer: spans.Tracer | None = None):
        """The same CLI calls made in this process through ``cli.main``."""
        cli = sys.modules["fairflow.cli"]
        times, answers = [], []
        for op, args in enumerate(argv):
            if tracer is not None:
                tracer.op = op
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(args)
            times.append(time.perf_counter() - start)
            answers.append((code, out.getvalue()))
        return times, answers

    # -- checks ---------------------------------------------------------------

    def check(self, answers: list, references: list | None) -> list[str]:
        """Per-op error text ('' for a pass) against first principles and references."""
        ff = self.ff
        errors = []
        if references is not None and len(references) != len(answers):
            raise SystemExit("references do not match the instance set")
        for op, answer in enumerate(answers):
            reference = references[op] if references is not None else None
            if isinstance(answer, Exception):
                errors.append(f"{type(answer).__name__}: {answer}")
                continue
            if self.workload == "cli-batch":
                command, j = self.instances["argv"][op]
                code, stdout = answer
                problems = gate.check_cli_op(ff, command, self.problems[j], code, stdout, reference)
            else:
                flow, verdict = answer
                problems = gate.check_solver_op(ff, self.problems[op], flow, verdict, reference)
            errors.append("; ".join(problems))
        return errors

    def references(self) -> list | None:
        return gate.references_for(gate.load_references(), self.workload, self.seed)


def same_answers(first: list, other: list) -> list[bool]:
    """Per op: does a repeated pass give the same answer as the first?"""
    def key(answer):
        if isinstance(answer, Exception):
            return ("error", type(answer).__name__, str(answer))
        if isinstance(answer[1], str):
            return answer
        flow, verdict = answer
        return (tuple(flow), verdict.decmin, verdict.potential)
    return [key(a) == key(b) for a, b in zip(first, other)]


def import_ms(run: Run) -> float:
    """Fresh-interpreter ``import fairflow.cli`` minus a bare interpreter."""
    env = run.child_env()
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for sample, code in ((bare, "pass"), (full, "import fairflow.cli")):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=run.workdir, check=True)
            sample.append(time.perf_counter() - start)
    return (statistics.median(full) - statistics.median(bare)) * 1000


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ---------------------------------------------------------


def measure(run: Run, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Untraced passes for about ``seconds``; end-to-end metrics.

    Reference samples are taken every ``reference.INTERVAL`` seconds
    during a solver pass, and between calls during a CLI pass, where the
    calls run in child processes.  Each op's time is divided by the mean
    reference time of its pass, and the ratio's median over the passes
    is taken per op; ``wall_ref`` sums those medians.  The same median of
    the plain times gives ``wall_s``, which is printed but not gated: it
    carries the host's drift.
    """
    is_cli = run.workload == "cli-batch"

    def one_pass() -> tuple[list[float], list, list[float]]:
        if is_cli:
            refs: list[float] = []
            return (*run.cli_pass(refs), refs)
        with reference.Sampler() as sampler:
            return (*run.solver_pass(clock=sampler.clock), sampler.samples)

    pass_walls, per_pass, ratios, ref_times, op_times, passes = [], [], [], [], [], []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        times, answers, refs = one_pass()
        pass_walls.append(time.perf_counter() - pass_start)
        per_pass.append(times)
        ratios.append([t / statistics.fmean(refs) for t in times])
        ref_times.extend(refs)
        op_times.extend(times)
        passes.append(answers)
        elapsed = time.perf_counter() - started
        enough_samples = not is_cli or len(op_times) >= MIN_CLI_SAMPLES
        if enough_samples and elapsed + statistics.median(pass_walls) > seconds:
            break
    errors = run.check(passes[0], run.references())
    for answers in passes[1:]:
        for op, same in enumerate(same_answers(passes[0], answers)):
            if not same and not errors[op]:
                errors[op] = "answer changed between passes"
    attempted = len(op_times)
    failed = sum(1 for e in errors if e) * len(passes)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
    p90 = statistics.quantiles(op_times, n=10)[-1]
    metrics = {
        "setup_s": metric(statistics.median(run.setup_times), "s"),
        "wall_ref": metric(sum(statistics.median(r) for r in zip(*ratios)), "ref"),
        "peak_rss_mb": metric(usage.ru_maxrss / 1024, "MB"),
    }
    wall_s = sum(statistics.median(t) for t in zip(*per_pass))
    notes = [
        f"passes {len(passes)}, ops {attempted}, pass_s {[round(sum(t), 4) for t in per_pass]}, "
        f"pass_ref {[round(sum(r), 2) for r in ratios]}",
        f"wall_s {wall_s:.6g} s (not gated); reference task mean {statistics.fmean(ref_times) * 1000:.6g} ms "
        f"over {len(ref_times)} samples",
        f"op_ms.p50 {statistics.median(op_times) * 1000:.6g} ms",
        f"op_ms.p90 {p90 * 1000:.6g} ms ({attempted} samples, {sum(t > p90 for t in op_times)} beyond it)",
        f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})",
    ]
    notes += [f"op {op} failed: {e}" for op, e in enumerate(errors) if e]
    return metrics, attempted, failed, notes


def trace(run: Run) -> tuple[dict, int, int, list[str]]:
    """Untraced, traced and count-only passes plus a CLI leg; per-layer metrics."""
    is_cli = run.workload == "cli-batch"
    if is_cli:
        def one_pass(tracer=None):
            return run.cli_inprocess_pass(run.argv, tracer)
        one_pass()  # warm-up: the first in-process calls pay one-off lazy imports
    else:
        one_pass = run.solver_pass
    plain_times, plain = one_pass()
    tracer = spans.Tracer()
    with tracer:
        traced_times, traced = one_pass(tracer)
    with spans.ConstructionCounter() as counter:
        _, counted = one_pass()
    compared = [(traced, "traced"), (counted, "count-only")]

    if is_cli:
        leg = tracer
        fresh_times, fresh = run.cli_pass()
        compared.append((fresh, "fresh-process"))
    else:
        # CLI leg: `fairflow verify` of every op's answer, run in process
        leg_ops, leg_argv = [], []
        for j, answer in enumerate(plain):
            if not isinstance(answer, Exception):
                with open(run.flow_file(j), "w", encoding="utf-8") as handle:
                    json.dump({"values": list(answer[0])}, handle)
                leg_ops.append(j)
                leg_argv.append(["verify", run.problem_file(j), "--flow", run.flow_file(j)])
        leg = spans.Tracer()
        with leg:
            _, verified = run.cli_inprocess_pass(leg_argv, leg)

    errors = run.check(plain, run.references())
    for answers, what in compared:
        for op, same in enumerate(same_answers(plain, answers)):
            if not same and not errors[op]:
                errors[op] = f"{what} answer differs from the untraced in-process one"
    if not is_cli:
        for op, (code, stdout) in zip(leg_ops, verified):
            if (code != 0 or not json.loads(stdout).get("decmin")) and not errors[op]:
                errors[op] = "`fairflow verify` rejected the answer"

    spans_file = os.path.join(WORK_ROOT, f"spans-{run.workload}-{run.seed}.json")
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump({"fields": spans.FIELDS, "pass": tracer.spans, "cli_leg": [] if leg is tracer else leg.spans}, handle)

    wall = sum(traced_times)
    values = spans.summarise(tracer.spans)
    values["maxflow.feasible_calls_per_op"] = values["maxflow.feasible_calls"] / len(traced_times)
    layer_self = sum(values[f"{name}.self_s"] for name in spans.LAYER_NAMES)
    leg_values = spans.summarise(leg.spans)
    for name in ("jsonio.calls", "jsonio.self_s", "cli.calls", "cli.self_s"):
        values[name] = leg_values[name]
    values["core.problems_built"] = counter.problems
    values["extint.created"] = counter.extints
    values["cli.import_ms"] = import_ms(run)
    values["other.self_s"] = wall - layer_self
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - sum(plain_times)
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}

    attempted = len(plain)
    failed = sum(1 for e in errors if e)
    notes = [
        f"spans written to {os.path.relpath(spans_file, ROOT)}",
        f"traced wall_s {wall:.4f} s over {attempted} ops; untraced {sum(plain_times):.4f} s",
    ]
    notes.append(f"{'layer':<14}{'calls':>8}{'self_s':>12}{'share':>8}")
    for name in spans.LAYER_NAMES + ("other",):
        self_s = values[f"{name}.self_s"]
        in_wall = is_cli or name not in ("jsonio", "cli")
        share = f"{100 * self_s / wall:7.1f}%" if in_wall else "  (leg)"
        notes.append(f"{name:<14}{values.get(f'{name}.calls', ''):>8}{self_s:>12.4f}{share}")
    solver = sum(values[f"{name}.self_s"] for name in ("maxflow", "mincost", "bf"))
    notes.append(f"maxflow+mincost+bf self time: {100 * solver / wall:.1f}% of traced wall_s")
    if is_cli:
        fresh_wall = sum(fresh_times)
        imports = values["cli.import_ms"] * attempted / 1000
        notes.append(
            f"fresh-process wall_s {fresh_wall:.4f} s: maxflow+mincost+bf self time is "
            f"{100 * solver / fresh_wall:.1f}% of it, cli.import_ms x calls {100 * imports / fresh_wall:.1f}%"
        )
    else:
        notes.append(f"jsonio and cli rows: `fairflow verify` leg over {len(leg_argv)} answers")
    notes += [f"op {op} failed: {e}" for op, e in enumerate(errors) if e]
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(PACKAGE_SRC):
        print(f"error: package source {PACKAGE_SRC} not found; run from a checkout", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        run = Run(args.workload, args.seed, workdir)
        run.setup()
        ranges = workloads.size_ranges(run.instances)
        print(f"workload {args.workload} seed {args.seed} digest {workloads.digest(run.instances)}")
        print("sizes " + " ".join(f"{k}={v[0]}..{v[1]}" for k, v in ranges.items()))
        refs = run.references()
        print(f"references: {'recorded' if refs is not None else 'none recorded'} for seed {args.seed}")
        if args.workload == "cli-batch":
            env = " ".join(f"{k}={v}" for k, v in sorted(run.child_env().items()))
            print(f"child: {sys.executable} -S -m fairflow.cli ... with {env}")
        if args.trace:
            metrics, attempted, failed, notes = trace(run)
        else:
            metrics, attempted, failed, notes = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-checks for the benchmark itself (not part of the package's tests).

    python3 -m pytest -q bench/test_bench.py      # or: python3 bench/test_bench.py
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import fairflow  # noqa: E402
import fairflow.cli  # noqa: E402,F401
import gate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def small_problem(seed: int = 3):
    doc, _ = workloads.finite_document(random.Random(seed), 6, 14, 4, 14, 3)
    return fairflow.parse_problem(doc)


def bindings() -> dict:
    return {
        (module.__name__, name): value
        for module in spans.package_modules()
        for name, value in vars(module).items()
        if callable(value)
    }


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_other_digest(self):
        for workload in workloads.WORKLOADS:
            first = workloads.digest(workloads.generate(workload, 5))
            self.assertEqual(first, workloads.digest(workloads.generate(workload, 5)))
            self.assertNotEqual(first, workloads.digest(workloads.generate(workload, 6)))

    def test_sizes_match_the_families(self):
        ladder = workloads.size_ranges(workloads.generate("decmin-ladder", 0))
        self.assertEqual(ladder["n"], [20, 100])
        self.assertEqual(ladder["m"], ladder["F"])
        cli = workloads.generate("cli-batch", 0)
        self.assertLessEqual(workloads.size_ranges(cli)["n"][1], 16)
        self.assertEqual({c for c, _ in cli["argv"]}, set(workloads.CLI_COMMANDS))

    def test_generated_flows_are_feasible(self):
        instances = workloads.generate("cli-batch", 1)
        for doc, flow in zip(instances["documents"], instances["flows"]):
            if flow is not None:
                self.assertIsNone(fairflow.check_flow(fairflow.parse_problem(doc), flow))


class TracerTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores_them(self):
        before = bindings()
        original = fairflow.maxflow.find_feasible_mflow
        tracer = spans.Tracer()
        with tracer:
            for module in ("fairflow", "fairflow.maxflow", "fairflow.newton", "fairflow.cli"):
                self.assertIsNot(vars(sys.modules[module])["find_feasible_mflow"], original)
            # require_feasible is reached through maxflow's own global
            self.assertIs(fairflow.maxflow.require_feasible, fairflow.require_feasible)
            problem = small_problem()
            flow = fairflow.decmin_flow(problem)
            fairflow.is_decmin(problem, flow)
        self.assertEqual(bindings(), before)

        names = {span[1] for span in tracer.spans}
        self.assertTrue({"narrow_box", "compute_beta", "find_feasible_mflow", "is_decmin"} <= names)
        for span in tracer.spans:
            self.assertLessEqual(span[2], span[3])
            if span[4] >= 0:
                parent = tracer.spans[span[4]]
                self.assertTrue(parent[2] <= span[2] and span[3] <= parent[3])
        summary = spans.summarise(tracer.spans)
        self.assertEqual(summary["certificates.calls"], 1)
        self.assertGreater(summary["decmin.rounds"], 0)
        self.assertEqual(
            summary["maxflow.feasible_calls"],
            sum(1 for span in tracer.spans if span[1] == "find_feasible_mflow"),
        )

    def test_counts_repeat_exactly(self):
        problem = small_problem()
        summaries = []
        for _ in range(2):
            with spans.Tracer() as tracer:
                fairflow.cheapest_decmin_flow(problem)
            summary = spans.summarise(tracer.spans)
            summaries.append({k: v for k, v in summary.items() if not k.endswith("self_s")})
        self.assertEqual(summaries[0], summaries[1])

    def test_construction_counter_restores_the_classes(self):
        post_init = fairflow.FlowProblem.__post_init__
        init = fairflow.ExtInt.__init__
        with spans.ConstructionCounter() as counter:
            fairflow.decmin_flow(small_problem())
        self.assertIs(fairflow.FlowProblem.__post_init__, post_init)
        self.assertIs(fairflow.ExtInt.__init__, init)
        self.assertGreater(counter.problems, 0)
        self.assertGreater(counter.extints, counter.problems)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.problem = small_problem()
        self.flow = fairflow.cheapest_decmin_flow(self.problem)
        self.verdict = fairflow.is_decmin(self.problem, self.flow)
        self.reference = gate.solver_reference(fairflow, self.problem, self.flow)

    def test_correct_answer_passes(self):
        self.assertEqual(gate.check_solver_op(fairflow, self.problem, self.flow, self.verdict, self.reference), [])

    def test_wrong_profile_is_rejected(self):
        wrong = [gate.short_digest([0]), self.reference[1]]
        errors = gate.check_solver_op(fairflow, self.problem, self.flow, self.verdict, wrong)
        self.assertTrue(any("profile" in e for e in errors))

    def test_wrong_cost_is_rejected(self):
        wrong = [self.reference[0], self.reference[1] + 1]
        self.assertTrue(gate.check_solver_op(fairflow, self.problem, self.flow, self.verdict, wrong))

    def test_unfair_flow_is_rejected(self):
        # the flow a random instance is generated from is rarely fair
        for seed in range(20):
            doc, flow = workloads.finite_document(random.Random(seed), 6, 14, 4, 14, 3)
            problem = fairflow.parse_problem(doc)
            verdict = fairflow.is_decmin(problem, tuple(flow))
            if not verdict.decmin:
                break
        self.assertFalse(verdict.decmin)
        self.assertTrue(gate.check_solver_op(fairflow, problem, tuple(flow), verdict, None))

    def test_cli_exit_code_mismatch_is_rejected(self):
        stdout = json.dumps({"status": "ok", "exists": True})
        reference = gate.cli_reference("exists", 0, stdout)
        self.assertEqual(gate.check_cli_op(fairflow, "exists", self.problem, 0, stdout, reference), [])
        self.assertTrue(gate.check_cli_op(fairflow, "exists", self.problem, 1, stdout, reference))


class ReferenceTest(unittest.TestCase):
    def test_sampler_samples_inside_an_op_and_its_clock_leaves_them_out(self):
        with reference.Sampler() as sampler:
            start, wall = sampler.clock(), time.perf_counter()
            while len(sampler.samples) < 3:
                pass
            own, wall = sampler.clock() - start, time.perf_counter() - wall
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertAlmostEqual(own + sum(sampler.samples), wall, delta=0.005)
        self.assertTrue(gc.isenabled())

    def test_sample_leaves_the_collector_as_it_was(self):
        gc.disable()
        try:
            reference.sample()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()
        reference.sample()
        self.assertTrue(gc.isenabled())


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_runner_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_recorded_references_cover_the_instance_sets(self):
        table = gate.load_references()
        for workload in workloads.WORKLOADS:
            instances = workloads.generate(workload, 0)
            ops = len(instances["argv"]) if workload == "cli-batch" else len(instances["documents"])
            self.assertEqual(len(gate.references_for(table, workload, 0)), ops)

    def test_fails_without_the_package_source(self):
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="no-source-", dir=run.WORK_ROOT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cli-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch,
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(scratch)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

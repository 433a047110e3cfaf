#!/usr/bin/env python3
"""Record the reference answers the benchmark's gate checks against.

    python3 bench/record_references.py --seeds 0-99 --seeds 7919

For each (workload, seed) this solves the seeded instance set in
process, checks every answer from first principles, and stores per op
the dec-min focus profile digest and cheapest cost (solver workloads)
or the CLI exit code, status and answer digest (cli-batch) in
bench/references.json.  Existing entries are kept unless --force is
given; an answer that fails its first-principles check is never
recorded.  Re-record only on a commit whose answers are trusted, never
to make a benchmark run pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import gate
import run
import workloads


def parse_seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        low, _, high = spec.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(workload: str, seed: int) -> list:
    workdir = tempfile.mkdtemp(prefix=f"refs-{workload}-", dir=run.WORK_ROOT)
    try:
        bench = run.Run(workload, seed, workdir)
        bench.copy_source()
        bench.setup_once()
        if workload == "cli-batch":
            _, answers = bench.cli_inprocess_pass(bench.argv)
        else:
            _, answers = bench.solver_pass()
        errors = [e for e in bench.check(answers, None) if e]
        if errors:
            raise SystemExit(f"{workload} seed {seed}: refusing to record: {errors[0]}")
        if workload == "cli-batch":
            return [
                gate.cli_reference(command, code, stdout)
                for (command, _), (code, stdout) in zip(bench.instances["argv"], answers)
            ]
        return [
            gate.solver_reference(bench.ff, problem, flow)
            for problem, (flow, _) in zip(bench.problems, answers)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", action="append", required=True, help="N or LOW-HIGH")
    parser.add_argument("--force", action="store_true", help="overwrite existing entries")
    args = parser.parse_args()
    table = gate.load_references() if os.path.exists(gate.REFERENCES) else {}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    sys.dont_write_bytecode = True
    for workload in workloads.WORKLOADS:
        entries = table.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            if str(seed) in entries and not args.force:
                continue
            entries[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: {len(entries[str(seed)])} ops", flush=True)
            with open(gate.REFERENCES, "w", encoding="utf-8") as handle:
                json.dump(table, handle, sort_keys=True, separators=(",", ":"))
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

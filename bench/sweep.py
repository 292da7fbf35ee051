#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every run's record.

    python3 bench/sweep.py --out bench/out/sets/A --seeds 1-10
    python3 bench/sweep.py --out bench/out/sets/B --seeds 1-5 --workloads fit-large

Runs are sequential, one fresh process each, untraced, with
``run_seconds`` from BENCHMARK.json.  Each run's record lands in
``--out``; ``compare.py`` reads that directory.  Exit code 1 when any
run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                   "--trace", "0", "--results", str(args.out)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            last = lines[-1] if lines else ""
            print(f"{workload} seed {seed}: exit {done.returncode} {last}", flush=True)
            if done.returncode != 0:
                failed += 1
                sys.stderr.write(done.stderr[-2000:])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that the benchmark's counts repeat exactly, and that
``BENCHMARK.json`` and ``layers.MOVES`` name the same per-layer metrics.

Runs ``run.py --trace 1`` twice per workload at one seed and compares
every metric in :data:`layers.COUNT_METRICS`; a later change may claim a
difference in a count only because the count does not move on its own.
Run from the root of a checkout::

    python3 perfbench/check_counts.py            # all workloads, ~3 min
    python3 perfbench/check_counts.py --workload fig09_mrc_service

Exits 0 when everything matches, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1",
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_benchmark_json() -> list:
    listed, moves = set(layers.per_layer_units()), set(layers.MOVES)
    if listed != moves:
        return [f"BENCHMARK.json per_layer and layers.MOVES differ in {sorted(listed ^ moves)}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    problems = check_benchmark_json()
    for workload in args.workload or WORKLOADS:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for name in layers.COUNT_METRICS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload} {name}: {a!r} vs {b!r} {status}")
            if a != b:
                problems.append(f"{workload} {name}: {a!r} != {b!r}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

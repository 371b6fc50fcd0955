"""Benchmark-suite helpers.

Every benchmark regenerates one paper figure/table with a reduced grid,
prints the series the paper plots, and asserts the paper's qualitative
shape. ``benchmark.pedantic`` with a single round keeps wall-clock
sane — these are end-to-end simulations, not micro-benchmarks. No test
here asserts speed: speed is measured by the repo benchmark,
``perfbench/run.py``.
"""

from __future__ import annotations


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_series(title: str, results: dict) -> None:
    """Pretty-print an experiment's series for the benchmark log."""
    print(f"\n=== {title} ===")
    for key, value in results.items():
        if isinstance(value, list) and value and isinstance(value[0], float):
            formatted = ", ".join(f"{v:.3f}" for v in value)
            print(f"  {key}: [{formatted}]")
        else:
            print(f"  {key}: {value}")

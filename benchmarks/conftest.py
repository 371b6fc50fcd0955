"""Benchmark-suite helpers.

Every benchmark regenerates one paper figure/table with a reduced grid,
prints the series the paper plots (so EXPERIMENTS.md can quote them), and
asserts the paper's qualitative shape. ``benchmark.pedantic`` with a
single round keeps wall-clock sane — these are end-to-end simulations,
not micro-benchmarks.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

ENGINE_ARTIFACT = Path(__file__).with_name("BENCH_engine.json")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
"""BLAS threading knobs: an unpinned BLAS can swing timings by ~2x."""


def host_context() -> dict:
    """CPU/numpy/platform/BLAS-threading fingerprint of the measuring host,
    so recorded crossovers and speedups stay interpretable across machines.
    An unset BLAS variable is recorded as ``None``."""
    context = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    for name in BLAS_THREAD_VARS:
        context[name] = os.environ.get(name)
    return context


def merge_artifact(artifact: Path, section: str, payload: dict) -> dict:
    """Update one section of a benchmark artifact, keeping the rest.

    Every section is stamped with the measuring host's context (CPU
    count, numpy version, platform) so recorded crossovers and speedups
    stay interpretable across machines. The write is atomic (temp file +
    rename in the artifact's directory): a crash or a concurrent reader
    mid-write can never leave a truncated JSON behind.
    """
    record = {}
    if artifact.exists():
        try:
            record = json.loads(artifact.read_text())
        except ValueError:
            record = {}
    record[section] = dict(payload, host=host_context())
    text = json.dumps(record, indent=2) + "\n"
    fd, tmp = tempfile.mkstemp(
        dir=str(artifact.parent), prefix=artifact.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, artifact)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return record


@pytest.fixture
def bench_artifact(request):
    """Writer for sections of ``BENCH_engine.json`` (atomic, host-stamped).

    Writes only under ``--bench-record``, so a plain test run leaves the
    tracked artifact alone.
    """
    record = bool(request.config.getoption("--bench-record"))

    def write(section: str, payload: dict) -> None:
        if record:
            merge_artifact(ENGINE_ARTIFACT, section, payload)

    return write


@pytest.fixture
def bench_gate(request):
    """Check a wall-clock bar, enforced only under ``--bench-gate``.

    Timing bars flake on shared machines, so by default the measurement
    is recorded but not asserted; a gated run (one CI leg, or a local
    re-measure) turns each bar back into a failure.
    """
    enforce = bool(request.config.getoption("--bench-gate"))

    def gate(passed: bool, message: str) -> None:
        if enforce:
            assert passed, message

    return gate


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

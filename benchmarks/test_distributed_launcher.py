"""Distributed launcher: N-worker fan-out vs serial, cold and warm store.

One measurement, written to ``benchmarks/BENCH_engine.json`` under
``distributed_launcher``: the Fig. 9 fading-free MRC grid run serially,
then through :func:`launch_sweep` across worker processes against a
fresh shared spill directory (cold: the parent warms the store once),
then again against the now-warm directory. The hard, non-flaky asserts
are the launcher's contract — the merged result is bit-identical to
serial and the warm re-run performs zero syntheses anywhere (parent
warm-up included). The N-worker speedup is recorded, not asserted: on a
grid this size the fork + dispatch overhead can eat the win on a loaded
shared runner, and the artifact is the measurement of record.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.data.fdm import FdmFskModem
from repro.engine import SweepRunner, launch_sweep
from repro.experiments import fig09_mrc as fig09

SEED = 2017
N_WORKERS = 2
DISTANCES = (2, 4, 8, 12, 16, 20)
MRC_REPS = 4
N_BITS = 100


def _scenario():
    return fig09.build_scenario(
        FdmFskModem(symbol_rate=200),
        distances_ft=DISTANCES,
        max_factor=MRC_REPS,
        n_bits=N_BITS,
    )


@pytest.mark.engine_bench
def test_distributed_launcher_speedup(tmp_path, bench_artifact):
    store_dir = str(tmp_path / "spill")
    n_points = len(DISTANCES) * MRC_REPS

    start = time.perf_counter()
    serial = SweepRunner(_scenario(), rng=SEED, backend="serial").run()
    serial_s = time.perf_counter() - start

    cold = launch_sweep(
        _scenario(), rng=SEED, n_workers=N_WORKERS, cache_dir=store_dir
    )
    warm = launch_sweep(
        _scenario(), rng=SEED, n_workers=N_WORKERS, cache_dir=store_dir
    )

    record = {
        "benchmark": "fig09_grid_launcher_vs_serial",
        "grid": {"distances_ft": list(DISTANCES), "mrc_reps": MRC_REPS},
        "n_points": n_points,
        "n_bits": N_BITS,
        "n_workers": N_WORKERS,
        "n_shards": cold.n_shards,
        "serial_s": round(serial_s, 4),
        "launcher_cold_s": round(cold.wall_s, 4),
        "launcher_warm_s": round(warm.wall_s, 4),
        "speedup_cold": round(serial_s / cold.wall_s, 3),
        "speedup_warm": round(serial_s / warm.wall_s, 3),
        "cold": {
            "warm_syntheses": cold.warm_syntheses,
            "worker_cache": cold.result.cache_stats,
        },
        "warm": {
            "warm_syntheses": warm.warm_syntheses,
            "worker_cache": warm.result.cache_stats,
        },
        "retries": cold.retries + warm.retries,
    }
    bench_artifact("distributed_launcher", record)
    print(f"\n=== distributed launcher ===\n{json.dumps(record, indent=2)}")

    # Contract asserts: the cold and warm launches are bit-identical to
    # serial.
    for report in (cold, warm):
        assert len(report.result.values) == n_points
        for ours, reference in zip(report.result.values, serial.values):
            assert np.array_equal(ours, reference)
    # Cold run: the parent synthesized each distinct composite once ...
    assert cold.warm_syntheses > 0
    assert cold.result.cache_stats["syntheses"] == 0  # workers only load
    # ... and a warm re-run synthesizes nothing anywhere.
    assert warm.warm_syntheses == 0
    assert warm.result.cache_stats["syntheses"] == 0
    assert warm.result.cache_stats["disk_hits"] > 0

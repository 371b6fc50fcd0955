"""Deployment-scale benchmark: device-count sweep across all backends.

Acceptance bars for the deployment layer, measured and recorded to
``benchmarks/BENCH_engine.json``:

- the device-count sweep returns bit-identical results under every
  ``REPRO_SWEEP_BACKEND`` setting (serial, batched and auto);
- with a warm persistent cache (``REPRO_CACHE_DIR``), a repeat run
  performs **zero** ambient syntheses regardless of device count — the
  grid shares one ambient synthesis instead of one per device.
"""

from __future__ import annotations

import json
import time

import pytest

import repro.engine.cache as cache_mod
from repro.engine import BACKEND_CHOICES
from repro.experiments import deployment_scale

SEED = 2017
DEVICE_COUNTS = (1, 2, 4, 8)
KWARGS = dict(device_counts=DEVICE_COUNTS, frames_per_device=1, rng=SEED)


@pytest.mark.engine_bench
def test_deployment_backend_matrix_with_warm_cache(
    tmp_path, monkeypatch, bench_artifact
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # Pin the cold run to the default backend regardless of the shell's
    # REPRO_SWEEP_BACKEND, so cold_s compares across environments.
    monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)

    # Cold run fills the persistent store (and is itself timed).
    monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
    cold_cache = cache_mod.default_cache()
    start = time.perf_counter()
    reference = deployment_scale.run(**KWARGS)
    cold_s = round(time.perf_counter() - start, 4)
    cold_syntheses = cold_cache.stats["syntheses"]
    assert cold_syntheses > 0

    timings = {}
    warm_syntheses = {}
    for backend in BACKEND_CHOICES:
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", backend)
        # Fresh default cache per backend = a fresh process on the
        # same spill dir; every ambient must come from disk.
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        cache = cache_mod.default_cache()
        start = time.perf_counter()
        result = deployment_scale.run(**KWARGS)
        timings[backend] = round(time.perf_counter() - start, 4)
        warm_syntheses[backend] = cache.stats["syntheses"]
        assert result == reference, backend
    monkeypatch.delenv("REPRO_SWEEP_BACKEND")

    record = {
        "benchmark": "deployment_scale_backend_matrix_warm_cache",
        "device_counts": list(DEVICE_COUNTS),
        "frames_per_device": 1,
        "cold_s": cold_s,
        "cold_syntheses": cold_syntheses,
        "backend_s": timings,
        "warm_syntheses": warm_syntheses,
        "per_device_delivery": reference["per_device_delivery"],
        "aggregate_goodput_bps": [
            round(v, 3) for v in reference["aggregate_goodput_bps"]
        ],
    }
    bench_artifact("deployment_scale", record)
    print(f"\n=== deployment scale ===\n{json.dumps(record, indent=2)}")

    # The acceptance bar: warm runs synthesize nothing, on any backend,
    # at any device count.
    assert all(count == 0 for count in warm_syntheses.values()), warm_syntheses

"""Deployment scale-out: the device-count sweep under every backend.

Structural bars for the deployment layer:

- the device-count sweep returns bit-identical results under every
  ``REPRO_SWEEP_BACKEND`` setting (serial and auto);
- with a warm persistent cache (``REPRO_CACHE_DIR``), a repeat run
  performs **zero** ambient syntheses regardless of device count — the
  grid shares one ambient synthesis instead of one per device.
"""

from __future__ import annotations

import repro.engine.cache as cache_mod
from repro.engine import BACKEND_CHOICES
from repro.experiments import deployment_scale

SEED = 2017
DEVICE_COUNTS = (1, 2, 4, 8)
KWARGS = dict(device_counts=DEVICE_COUNTS, frames_per_device=1, rng=SEED)


def test_deployment_backend_matrix_with_warm_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)

    # The cold run fills the persistent store.
    monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
    cold_cache = cache_mod.default_cache()
    reference = deployment_scale.run(**KWARGS)
    assert cold_cache.stats["syntheses"] > 0

    warm_syntheses = {}
    for backend in BACKEND_CHOICES:
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", backend)
        # Fresh default cache per backend = a fresh process on the
        # same spill dir; every ambient must come from disk.
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        cache = cache_mod.default_cache()
        result = deployment_scale.run(**KWARGS)
        warm_syntheses[backend] = cache.stats["syntheses"]
        assert result == reference, backend

    # The acceptance bar: warm runs synthesize nothing, on any backend,
    # at any device count.
    assert all(count == 0 for count in warm_syntheses.values()), warm_syntheses

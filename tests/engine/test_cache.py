"""Tests for the ambient synthesis cache."""

import numpy as np
import pytest

from repro.engine import (
    AmbientCache, CachedAmbient, SweepRunner, default_cache, payload_fingerprint,
)
from repro.experiments.common import ExperimentChain


class TestAmbientCache:
    def test_miss_then_hit_returns_same_array(self):
        cache = AmbientCache()
        calls = []

        def factory():
            calls.append(1)
            return np.arange(8, dtype=float)

        first = cache.get(("k",), factory)
        second = cache.get(("k",), factory)
        assert len(calls) == 1
        assert first is second
        assert cache.stats == {"hits": 1, "misses": 1, "items": 1}

    def test_cached_arrays_are_read_only(self):
        cache = AmbientCache()
        value = cache.get(("k",), lambda: np.zeros(4))
        with pytest.raises(ValueError):
            value[0] = 1.0

    def test_lru_eviction(self):
        cache = AmbientCache(max_items=2)
        cache.get(("a",), lambda: np.zeros(1))
        cache.get(("b",), lambda: np.zeros(1))
        cache.get(("a",), lambda: np.zeros(1))  # refresh "a"
        cache.get(("c",), lambda: np.zeros(1))  # evicts "b", the LRU entry
        assert len(cache) == 2
        cache.get(("a",), lambda: np.ones(1))
        assert cache.stats["hits"] == 2  # "a" survived both evictions

    def test_clear_resets_store_and_counters(self):
        cache = AmbientCache()
        cache.get(("k",), lambda: np.zeros(1))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == {"hits": 0, "misses": 0, "items": 0}

    def test_default_cache_is_a_singleton(self):
        assert default_cache() is default_cache()

    def test_concurrent_same_key_fills_once(self):
        import threading

        cache = AmbientCache()
        calls = []
        gate = threading.Event()

        def factory():
            calls.append(1)
            gate.wait(timeout=5)
            return np.arange(4, dtype=float)

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get(("k",), factory)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert len(calls) == 1  # one synthesis, three waiters
        assert all(np.array_equal(r, results[0]) for r in results)
        assert cache.stats == {"hits": 3, "misses": 1, "items": 1}

    def test_concurrent_distinct_keys_fill_in_parallel(self):
        import threading

        cache = AmbientCache()
        barrier = threading.Barrier(2, timeout=10)

        def make_factory(n):
            def factory():
                # Both fills must be inside their factories at once —
                # deadlocks (times out) if fills serialize under a lock.
                barrier.wait()
                return np.full(2, float(n))

            return factory

        threads = [
            threading.Thread(target=cache.get, args=((n,), make_factory(n)))
            for n in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert cache.stats == {"hits": 0, "misses": 2, "items": 2}


class TestPayloadFingerprint:
    def test_equal_payloads_equal_fingerprints(self):
        a = np.linspace(0, 1, 100)
        assert payload_fingerprint(a) == payload_fingerprint(a.copy())

    def test_different_payloads_differ(self):
        a = np.linspace(0, 1, 100)
        b = a.copy()
        b[50] += 1e-9
        assert payload_fingerprint(a) != payload_fingerprint(b)


class TestCachedAmbient:
    def test_cache_hit_returns_bit_identical_mpx(self):
        # The headline engine guarantee: a P×D grid synthesizes each
        # ambient program once, and every subsequent point reads back the
        # exact same samples.
        ambient = CachedAmbient(AmbientCache(), master_seed=2017)
        first = ambient.mpx("news", stereo=True, duration_s=0.1)
        second = ambient.mpx("news", stereo=True, duration_s=0.1)
        assert first is second
        assert np.array_equal(first, second)
        assert ambient.cache.stats["misses"] == 1
        assert ambient.cache.stats["hits"] == 1

    def test_distinct_programs_and_durations_get_distinct_entries(self):
        ambient = CachedAmbient(AmbientCache(), master_seed=2017)
        news = ambient.mpx("news", stereo=True, duration_s=0.1)
        rock = ambient.mpx("rock", stereo=True, duration_s=0.1)
        longer = ambient.mpx("news", stereo=True, duration_s=0.2)
        assert ambient.cache.stats["misses"] == 3
        assert not np.array_equal(news, rock)
        assert longer.size > news.size

    def test_master_seed_changes_the_audio(self):
        cache = AmbientCache()
        a = CachedAmbient(cache, master_seed=1).mpx("news", True, 0.1)
        b = CachedAmbient(cache, master_seed=2).mpx("news", True, 0.1)
        assert cache.stats["misses"] == 2
        assert not np.array_equal(a, b)

    def test_with_variant_yields_independent_audio(self):
        # MRC repetitions must each hear different program audio — the
        # variant is part of both the cache key and the synthesis seed.
        base = CachedAmbient(AmbientCache(), master_seed=2017)
        rep0 = base.with_variant(0)
        rep1 = base.with_variant(1)
        assert rep0.cache is base.cache
        a = rep0.mpx("rock", stereo=False, duration_s=0.1)
        b = rep1.mpx("rock", stereo=False, duration_s=0.1)
        assert base.cache.stats["misses"] == 2
        assert not np.array_equal(a, b)
        # Re-reading either variant hits.
        rep0.mpx("rock", stereo=False, duration_s=0.1)
        assert base.cache.stats["hits"] == 1

    def test_modulated_composite_shared_across_link_configs(self, short_speech):
        # Power, distance and receiver live downstream of the front end,
        # so chains differing only in link budget share one composite.
        ambient = CachedAmbient(AmbientCache(), master_seed=7)
        near = ExperimentChain(power_dbm=-20.0, distance_ft=1, stereo_decode=False)
        far = ExperimentChain(power_dbm=-60.0, distance_ft=20, stereo_decode=False)
        assert near.front_end().front_end_key() == far.front_end().front_end_key()
        a = ambient.modulated_composite(near.front_end(), short_speech)
        b = ambient.modulated_composite(far.front_end(), short_speech)
        assert a is b

    def test_modulated_composite_distinct_per_front_end(self, short_speech):
        ambient = CachedAmbient(AmbientCache(), master_seed=7)
        full = ExperimentChain(stereo_decode=False)
        damped = ExperimentChain(stereo_decode=False, back_amplitude=0.25)
        assert full.front_end().front_end_key() != damped.front_end().front_end_key()
        ambient.modulated_composite(full.front_end(), short_speech)
        ambient.modulated_composite(damped.front_end(), short_speech)
        # Two composites, one shared ambient MPX between them.
        assert ambient.cache.stats["misses"] == 3

    @pytest.mark.parametrize(
        "backend, crossover, hits",
        [("serial", None, 3), ("auto", None, 3), ("auto", 192_000, 0)],
        ids=["serial", "auto", "auto-stacked"],
    )
    def test_fig08_grid_synthesizes_once_on_a_cold_default_cache(
        self, monkeypatch, backend, crossover, hits
    ):
        # A whole grid synthesizes one ambient MPX plus one modulated
        # composite, not one front end per point. Every later stack reads
        # the composite back: 0.4 s rows are past the mono crossover, so
        # auto, like serial, runs each point as its own stack, unless the
        # crossover is raised to them and auto runs the grid as one.
        import repro.engine.cache as cache_mod
        from repro.engine import planner
        from repro.experiments import fig08_ber_overlay as fig08

        if crossover is not None:
            monkeypatch.setattr(planner, "CROSSOVER_SAMPLES", crossover)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        scenario = fig08.build_scenario(
            "100bps", powers_dbm=(-20.0, -60.0), distances_ft=(2, 8), n_bits=40
        )
        result = SweepRunner(scenario, rng=2017, backend=backend).run()
        assert default_cache().stats["items"] == 2
        assert result.cache_stats == {"hits": hits, "misses": 2, "items": 2}

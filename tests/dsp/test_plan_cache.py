"""DSP plan-cache tests: LRU behavior and the filters/spectrum hookup."""

import numpy as np
import pytest

from repro.dsp import plan_cache
from repro.dsp.filters import bandpass_fir, design_lowpass_fir
from repro.dsp.plan_cache import cached_plan, clear_plan_cache, plan_cache_stats
from repro.dsp.spectrum import power_spectrum

FS = 48_000.0


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestCachedPlan:
    def test_miss_then_hit_returns_same_object(self):
        calls = []

        def build():
            calls.append(1)
            return np.arange(4.0)

        first = cached_plan(("k", 1), build)
        second = cached_plan(("k", 1), build)
        assert first is second
        assert len(calls) == 1
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_distinct_keys_do_not_collide(self):
        a = cached_plan(("k", 1), lambda: np.zeros(2))
        b = cached_plan(("k", 2), lambda: np.ones(2))
        assert not np.array_equal(a, b)

    def test_plans_are_non_writable(self):
        plan = cached_plan(("ro",), lambda: np.arange(3.0))
        with pytest.raises(ValueError):
            plan[0] = 99.0

    def test_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(plan_cache, "PLAN_CACHE_MAX_ENTRIES", 2)
        cached_plan(("a",), lambda: np.zeros(1))
        cached_plan(("b",), lambda: np.zeros(1))
        cached_plan(("a",), lambda: np.zeros(1))  # refresh a
        cached_plan(("c",), lambda: np.zeros(1))  # evicts b
        assert plan_cache_stats()["items"] == 2
        rebuilt = []
        cached_plan(("b",), lambda: rebuilt.append(1) or np.zeros(1))
        assert rebuilt  # b was evicted, so its builder ran again

    def test_byte_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(plan_cache, "PLAN_CACHE_MAX_BYTES", 3 * 800)
        for key in ("a", "b", "c"):
            cached_plan((key,), lambda: np.zeros(100))  # 800 bytes each
        assert plan_cache_stats()["bytes"] == 2400
        cached_plan(("d",), lambda: np.zeros(100))  # evicts a
        stats = plan_cache_stats()
        assert stats["items"] == 3 and stats["bytes"] == 2400
        assert ("a",) not in plan_cache._cache
        big = cached_plan(("big",), lambda: np.zeros(400))  # over the bound
        assert big.shape == (400,) and not big.flags.writeable
        stats = plan_cache_stats()
        assert stats["items"] == 0 and stats["bytes"] == 0


class TestDesignHookup:
    def test_lowpass_design_is_cached_and_identical(self):
        first = design_lowpass_fir(15_000.0, FS, 257)
        second = design_lowpass_fir(15_000.0, FS, 257)
        assert first is second
        fresh = plan_cache._cache.copy()
        clear_plan_cache()
        again = design_lowpass_fir(15_000.0, FS, 257)
        assert np.array_equal(again, first)
        assert fresh  # the design really went through the cache

    def test_bandpass_design_is_cached(self):
        first = bandpass_fir(18_000.0, 20_000.0, 200_000.0, 257)
        second = bandpass_fir(18_000.0, 20_000.0, 200_000.0, 257)
        assert first is second

    def test_invalid_designs_still_rejected_before_caching(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            design_lowpass_fir(15_000.0, FS, 256)
        assert plan_cache_stats()["misses"] == 0

    def test_welch_window_cached_and_spectrum_unchanged(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(8192)
        clear_plan_cache()
        f1, p1 = power_spectrum(x, FS)
        # The PSD-scaled window, keyed by segment length and sample rate.
        assert ("welch_window", 4096, FS) in plan_cache._cache
        misses_after_first = plan_cache_stats()["misses"]
        f2, p2 = power_spectrum(x, FS)
        assert plan_cache_stats()["misses"] == misses_after_first
        assert np.array_equal(p1, p2)
        # Bit-identical to the uncached scipy path (same Hann window).
        from scipy import signal as sp_signal

        f3, p3 = sp_signal.welch(x, fs=FS, nperseg=4096)
        assert np.array_equal(p1, p3)

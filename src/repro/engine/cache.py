"""Keyed caching of ambient-station synthesis and FM-modulated carriers.

A P×D sweep reuses one ambient transmission per (program, duration) —
the paper's own methodology (section 5.2 replays the *same* recorded
station clips through a USRP at every grid point) — so resynthesizing
the program, the composite MPX, and the FM modulation at every point is
pure waste. :class:`AmbientCache` stores those arrays once;
:class:`CachedAmbient` is the per-sweep view the execution layer hands to
:class:`~repro.experiments.common.ExperimentChain` via its
``ambient_source`` hook.

Cached arrays are marked read-only before they are shared, so any
accidental in-place mutation by a consumer raises instead of corrupting
other grid points (important once points run concurrently).
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.engine.store import CacheStore, env_cache_dir
from repro.fm.modulator import fm_modulate
from repro.fm.station import FMStation, StationConfig
from repro.utils.rand import derive_seed


def payload_fingerprint(payload: np.ndarray) -> Tuple[int, int]:
    """Cheap content token for a payload waveform (size + CRC32)."""
    arr = np.ascontiguousarray(payload)
    return (arr.size, zlib.crc32(arr.tobytes()))


class AmbientCache:
    """Thread-safe LRU cache of synthesized waveforms.

    Values are keyed by fully-deterministic tuples (master seed, program,
    duration, ...), so concurrent fills of the same key compute identical
    arrays and the cache stays seed-stable no matter which worker gets
    there first.

    Args:
        max_items: in-memory LRU capacity.
        store: optional :class:`~repro.engine.store.CacheStore`; misses
            consult the disk before synthesizing, and fresh syntheses are
            spilled, so repeated runs, process-pool workers and future
            sweep shards skip synthesis entirely. ``syntheses`` /
            ``disk_hits`` count how often each path was taken.
    """

    def __init__(self, max_items: int = 64, store: Optional[CacheStore] = None) -> None:
        self.max_items = max_items
        self.store = store
        self._store: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        # In-flight fills, so workers synthesizing *different* keys run
        # concurrently while workers wanting the *same* key wait for the
        # one synthesis instead of duplicating it.
        self._pending: Dict[tuple, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.syntheses = 0

    def get(self, key: tuple, factory: Callable[[], np.ndarray]) -> np.ndarray:
        """Return the cached array for ``key``, filling it via ``factory``."""
        while True:
            with self._lock:
                if key in self._store:
                    self.hits += 1
                    self._store.move_to_end(key)
                    return self._store[key]
                pending = self._pending.get(key)
                if pending is None:
                    pending = self._pending[key] = threading.Event()
                    self.misses += 1
                    break  # this thread owns the fill
            # Another thread is synthesizing this key: wait, then re-check
            # the store (re-filling ourselves if it failed or was evicted).
            pending.wait()
        # The factory (which may itself call get() for other keys) runs
        # outside the lock, so distinct keys synthesize concurrently.
        try:
            value = None
            if self.store is not None:
                value = self.store.load(key)
            if value is not None:
                with self._lock:
                    self.disk_hits += 1
            else:
                value = np.asarray(factory())
                with self._lock:
                    self.syntheses += 1
                if self.store is not None:
                    self.store.save(key, value)
            value.setflags(write=False)
            with self._lock:
                self._store[key] = value
                while len(self._store) > self.max_items:
                    self._store.popitem(last=False)
            return value
        finally:
            with self._lock:
                self._pending.pop(key, None)
            pending.set()

    def clear(self) -> None:
        """Reset the in-memory store and counters (disk spill stays)."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.syntheses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def stats(self) -> dict:
        with self._lock:
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "items": len(self._store),
            }
            if self.store is not None:
                counters["disk_hits"] = self.disk_hits
                counters["syntheses"] = self.syntheses
                counters["corrupt_evictions"] = self.store.corrupt_evictions
            return counters


def stats_delta(after: dict, before: dict) -> dict:
    """Per-run cache counters: ``after - before``, except ``items``.

    ``items`` is a gauge (current in-memory entry count), not a counter,
    so it passes through as-is. Shared by every executor that brackets a
    run with two :attr:`AmbientCache.stats` snapshots — the runner, the
    distributed launcher's workers and its in-process degradation pass —
    so a new counter (``corrupt_evictions``) shows up everywhere by
    adding it in one place.
    """
    delta = {
        key: after[key] - before.get(key, 0) for key in after if key != "items"
    }
    delta["items"] = after["items"]
    return delta


_DEFAULT_CACHE: Optional[AmbientCache] = None
_DEFAULT_CACHE_DIR: Optional[str] = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_cache() -> AmbientCache:
    """Process-wide cache shared by runners that don't bring their own.

    Honors ``REPRO_CACHE_DIR``: when set, the cache spills to (and warms
    from) that directory; a change to the variable swaps in a fresh cache
    bound to the new directory.
    """
    global _DEFAULT_CACHE, _DEFAULT_CACHE_DIR
    with _DEFAULT_CACHE_LOCK:
        directory = env_cache_dir()
        if _DEFAULT_CACHE is None or directory != _DEFAULT_CACHE_DIR:
            store = CacheStore(directory) if directory else None
            _DEFAULT_CACHE = AmbientCache(store=store)
            _DEFAULT_CACHE_DIR = directory
        return _DEFAULT_CACHE


class CachedAmbient:
    """One sweep's ambient-station source, backed by an :class:`AmbientCache`.

    Satisfies the ``ambient_source`` protocol of
    :class:`~repro.experiments.common.ExperimentChain`: :meth:`mpx` returns
    the station composite and :meth:`modulated_composite` the fully
    FM-modulated carrier for a (chain front-end, payload) pair. Both are
    synthesized exactly once per distinct key.

    Args:
        cache: backing store.
        master_seed: sweep-level seed mixed into every synthesis key, so
            different sweep seeds get different ambient audio.
        variant: extra key component; points that must hear *different*
            program audio (MRC repetitions, fading trials) use distinct
            variants via :meth:`with_variant`.
        mpx_rate: composite sample rate.
        audio_rate: program audio sample rate.
    """

    def __init__(
        self,
        cache: AmbientCache,
        master_seed: int,
        variant: object = None,
        mpx_rate: float = MPX_RATE_HZ,
        audio_rate: float = AUDIO_RATE_HZ,
    ) -> None:
        self.cache = cache
        self.master_seed = int(master_seed)
        self.variant = variant
        self.mpx_rate = mpx_rate
        self.audio_rate = audio_rate

    def with_variant(self, variant: object) -> "CachedAmbient":
        """A view of the same cache whose keys carry ``variant``."""
        return CachedAmbient(
            self.cache, self.master_seed, variant, self.mpx_rate, self.audio_rate
        )

    def _duration_key(self, duration_s: float) -> int:
        return int(round(duration_s * self.audio_rate))

    def mpx(self, program: str, stereo: bool, duration_s: float) -> np.ndarray:
        """The ambient station's composite MPX, synthesized once per key."""
        key = (
            "mpx",
            self.master_seed,
            self.variant,
            program,
            bool(stereo),
            self._duration_key(duration_s),
        )

        def factory() -> np.ndarray:
            station = FMStation(
                StationConfig(program=program, stereo=stereo),
                rng=np.random.default_rng(
                    derive_seed(self.master_seed, "ambient", program, stereo, repr(self.variant))
                ),
            )
            return station.mpx(duration_s)

        return self.cache.get(key, factory)

    def modulated(self, program: str, stereo: bool, duration_s: float) -> np.ndarray:
        """FM-modulated carrier of the ambient station alone (no payload)."""
        key = (
            "iq",
            self.master_seed,
            self.variant,
            program,
            bool(stereo),
            self._duration_key(duration_s),
        )
        return self.cache.get(
            key, lambda: fm_modulate(self.mpx(program, stereo, duration_s), self.mpx_rate)
        )

    def composite_key(self, front_end, payload_audio: np.ndarray) -> tuple:
        """The deterministic cache key of a (front end, payload) composite.

        The one place the key is derived: :meth:`modulated_composite` and
        the launcher's store warm-up
        (:func:`~repro.engine.process_backend.composite_shares`) both call
        it, so the warm-up deals out exactly the entries the workers will
        ask for.
        """
        duration_s = payload_audio.size / self.audio_rate
        return (
            "comp_iq",
            self.master_seed,
            self.variant,
            front_end.front_end_key(),
            self._duration_key(duration_s),
            payload_fingerprint(payload_audio),
        )

    def modulated_composite(self, front_end, payload_audio: np.ndarray) -> np.ndarray:
        """FM-modulated composite carrier for (front end, payload).

        The front end (a :class:`~repro.experiments.common.FrontEndStage`:
        ambient program, device baseband, composite MPX, FM modulation)
        depends only on the chain's program/mode/amplitude configuration
        and the payload, *not* on power, distance, fading or receiver, so
        a whole link-budget grid shares one synthesis.
        """
        duration_s = payload_audio.size / self.audio_rate
        key = self.composite_key(front_end, payload_audio)

        def factory() -> np.ndarray:
            ambient = self.mpx(front_end.program, front_end.station_stereo, duration_s)
            return front_end.modulate_with_ambient(ambient, payload_audio)

        return self.cache.get(key, factory)

"""A small LRU cache for deterministic DSP "plans".

A sweep grid re-runs the same receive chain at every point, and each run
used to re-design the same FIR filters (windowed-sinc synthesis is a few
hundred numpy ops) and rebuild the same Welch window. Those objects are
pure functions of their design parameters, so this module gives the DSP
layer one process-wide plan cache: :mod:`repro.dsp.filters` keys FIR
designs by (kind, band edges, sample rate, taps) and the taps' spectra by
(taps, FFT length, dtype), :mod:`repro.dsp.spectrum` keys its
PSD-scaled Welch windows by segment length and sample rate, and :mod:`repro.dsp.resample` keys its
polyphase filters by the reduced up/down factors.

Cached arrays are returned **non-writable** (and every hit returns the
same object), so an accidental in-place mutation by a caller raises
instead of silently poisoning every later user of that plan.

The cache evicts least-recently-used plans past
:data:`PLAN_CACHE_MAX_ENTRIES` entries or once they total more than
:data:`PLAN_CACHE_MAX_BYTES`: a FIR kernel spectrum at a long signal's
FFT length is megabytes, not the kilobytes of a design.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Tuple

import numpy as np

PLAN_CACHE_MAX_ENTRIES = 128
"""Entry bound on cached plans (FIR designs, FIR kernel spectra, Welch
windows, resampler filters) — generous for the library's filter
vocabulary (a few dozen distinct designs) while bounding memory for
exotic sweeps."""

PLAN_CACHE_MAX_BYTES = 32 * 2**20
"""Byte bound on all cached plans together. The largest figure working
set is Fig. 13's default sweep, 26.5 MB: its stereo chain keeps three
7.8 MB kernel spectra at FFT length 972,000 (2 s of MPX). Running every
figure's default sweep in one process accumulated 72.5 MB without this
bound. A plan that does not fit is rebuilt on its next use, which costs
what filtering cost before spectra were cached; a plan larger than the
bound is returned but not kept."""

_cache: "OrderedDict[Tuple[object, ...], np.ndarray]" = OrderedDict()
_stats: Dict[str, int] = {"hits": 0, "misses": 0, "bytes": 0}
_lock = threading.Lock()
"""The cache is process-wide and the thread sweep backend runs points
concurrently; the lock keeps lookup + LRU reorder + eviction atomic
(an unguarded get/move_to_end pair can KeyError under concurrent
eviction). Builders run outside the lock — a racing miss just builds
the same deterministic plan twice."""


def cached_plan(key: Tuple[object, ...], build: Callable[[], np.ndarray]) -> np.ndarray:
    """Return the plan for ``key``, building (and caching) it on a miss.

    Args:
        key: hashable design key; include a kind tag so different plan
            families never collide.
        build: zero-argument builder invoked on a miss.

    Returns:
        The plan array, marked non-writable.
    """
    with _lock:
        hit = _cache.get(key)
        if hit is not None:
            _cache.move_to_end(key)
            _stats["hits"] += 1
            return hit
        _stats["misses"] += 1
    plan = np.asarray(build())
    plan.setflags(write=False)
    with _lock:
        previous = _cache.pop(key, None)
        if previous is not None:
            _stats["bytes"] -= previous.nbytes
        _cache[key] = plan
        _stats["bytes"] += plan.nbytes
        while len(_cache) > PLAN_CACHE_MAX_ENTRIES or _stats["bytes"] > PLAN_CACHE_MAX_BYTES:
            _stats["bytes"] -= _cache.popitem(last=False)[1].nbytes
    return plan


def plan_cache_stats() -> Dict[str, int]:
    """Cache counters: ``hits`` / ``misses`` / ``items`` / ``bytes`` /
    ``capacity``."""
    with _lock:
        return {
            "hits": _stats["hits"],
            "misses": _stats["misses"],
            "items": len(_cache),
            "bytes": _stats["bytes"],
            "capacity": PLAN_CACHE_MAX_ENTRIES,
        }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (test isolation)."""
    with _lock:
        _cache.clear()
        _stats["hits"] = 0
        _stats["misses"] = 0
        _stats["bytes"] = 0

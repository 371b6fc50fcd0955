"""Persistent on-disk spill store for synthesized waveforms.

:class:`CacheStore` maps the :class:`~repro.engine.cache.AmbientCache`'s
fully-deterministic key tuples onto ``.npz`` files, so synthesized MPX /
modulated carriers survive the process: repeated benchmark runs, sweep
process-pool workers and (future) sweep shards all read the same bytes
back instead of resynthesizing. Keys are tuples of primitives whose
``repr`` is stable across interpreter runs (no ``hash()`` salting), so
the same configuration always lands on the same file.

Writes go through a temp file plus :func:`os.replace`, which is atomic on
POSIX — concurrent workers racing to fill the same key at worst duplicate
the synthesis, never corrupt the file. A writer that crashes (or is
killed by the launcher) before its rename leaves a ``*.tmp.npz`` orphan
behind; opening a store sweeps temps older than
:data:`STALE_TEMP_AGE_S`, while *young* temps — possibly a live write of
a concurrent worker on the shared directory — are left alone by both the
janitor and :meth:`CacheStore.clear`.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Optional

import numpy as np

CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
"""Environment variable enabling disk spill for the default ambient cache."""

STALE_TEMP_AGE_S = 3600.0
"""Age beyond which an orphaned ``*.tmp.npz`` is presumed dead.

A live writer holds its temp file only for the duration of one
``np.savez`` (seconds at most); an hour-old temp means its writer
crashed before the atomic rename. Generous on purpose: reaping a live
temp would make that writer's ``os.replace`` fail, so the janitor errs
far to the safe side — a leaked orphan costs only disk until the next
store open."""


def env_cache_dir() -> Optional[str]:
    """The spill directory ``REPRO_CACHE_DIR`` names, or ``None`` when unset."""
    return os.environ.get(CACHE_DIR_ENV_VAR, "").strip() or None


def _is_temp(path: Path) -> bool:
    """Whether ``path`` is an in-flight (or orphaned) write, not an entry."""
    return ".tmp." in path.name


def stable_key_digest(key: tuple) -> str:
    """Deterministic hex digest of a cache key tuple.

    Keys are built from primitives (ints, floats, bools, strings, None,
    nested tuples of the same), whose ``repr`` is stable across processes
    — unlike ``hash()``, which Python salts per interpreter run.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class CacheStore:
    """A directory of ``.npz`` files keyed by deterministic tuples.

    Args:
        directory: spill directory; created on first use.
        stale_temp_age_s: age (seconds) beyond which an orphaned temp
            file from a crashed writer is reaped on open; defaults to
            :data:`STALE_TEMP_AGE_S`.

    Attributes:
        corrupt_evictions: how many stored entries this instance found
            unreadable (truncated archive, bad zip, torn write that
            survived its rename) and reaped. A nonzero count in a chaos
            run is the ``corrupt-cache`` fault doing its job; a nonzero
            count in production means a writer lost power after rename —
            either way the entry was resynthesized, not served.
    """

    def __init__(self, directory, stale_temp_age_s: float = STALE_TEMP_AGE_S) -> None:
        self.directory = Path(directory)
        self.stale_temp_age_s = float(stale_temp_age_s)
        self.corrupt_evictions = 0
        self._save_ordinal = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sweep_stale_temps()

    def sweep_stale_temps(self, max_age_s: Optional[float] = None) -> int:
        """Reap ``*.tmp.npz`` orphans older than ``max_age_s``.

        Crashed writers (power loss, a worker killed mid-shard) leave
        their temp files behind forever otherwise — ``save`` names each
        temp uniquely via ``mkstemp``, so nothing ever overwrites or
        removes them in the normal path. Runs on every store open; young
        temps are left untouched because they may be live writes of a
        concurrent worker sharing the directory. Returns the number of
        files removed.
        """
        cutoff = time.time() - (
            self.stale_temp_age_s if max_age_s is None else float(max_age_s)
        )
        removed = 0
        for path in self.directory.glob("*.tmp.npz"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                # Renamed away or reaped by a concurrent janitor — either
                # way it is no longer an orphan.
                pass
        return removed

    def path_for(self, key: tuple) -> Path:
        """The file that does (or would) hold ``key``'s array."""
        return self.directory / f"{stable_key_digest(key)}.npz"

    def load(self, key: tuple) -> Optional[np.ndarray]:
        """Read the array stored for ``key``, or ``None`` when absent.

        A corrupt or truncated file — a machine lost power mid-write, or
        a torn write that survived its rename — reads as a miss AND is
        reaped (counted in :attr:`corrupt_evictions`), so the caller
        falls back to synthesis and the next reader is not tripped by the
        same bad bytes. A mid-sweep corrupt entry therefore costs one
        resynthesis, never an exception out of the sweep.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                stored_key = str(archive["key"])
                if stored_key != repr(key):
                    # A digest collision is astronomically unlikely; treat
                    # it as a miss instead of returning the wrong waveform.
                    # NOT corruption — the file is someone else's valid
                    # entry, so it is left in place.
                    return None
                return archive["value"]
        except FileNotFoundError:
            # Raced a concurrent clear()/eviction — a plain miss.
            return None
        except (OSError, ValueError, KeyError, zipfile.BadZipFile, EOFError):
            self.corrupt_evictions += 1
            try:
                path.unlink()
            except OSError:
                pass  # a concurrent reader already reaped it
            return None

    def save(self, key: tuple, value: np.ndarray) -> Path:
        """Atomically persist ``value`` under ``key``; returns the path."""
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem, suffix=".tmp.npz", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, value=np.asarray(value), key=np.asarray(repr(key)))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._maybe_corrupt(path)
        return path

    def _maybe_corrupt(self, path: Path) -> None:
        """Chaos hook: tear the just-renamed entry when a fault targets it.

        ``REPRO_FAULTS=corrupt-cache:<ordinal>`` truncates this store
        instance's ``ordinal``-th save to half its bytes *after* the
        atomic rename — the signature of a writer that renamed but lost
        power before its data blocks hit disk. Ordinals advance
        monotonically, so the fault fires exactly once per instance: the
        resynthesized replacement entry lands on a later ordinal, is
        written intact, and the chaos run converges.
        """
        from repro.engine.faults import active_plan

        ordinal = self._save_ordinal
        self._save_ordinal += 1
        if not active_plan().corrupt_save(ordinal):
            return
        try:
            size = path.stat().st_size
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        except OSError:  # pragma: no cover - entry raced away mid-fault
            pass

    def __len__(self) -> int:
        return sum(1 for path in self.directory.glob("*.npz") if not _is_temp(path))

    def clear(self) -> None:
        """Delete every spilled *entry* (used by tests and benchmarks).

        Consistent with ``__len__``: temp files are not entries and are
        not touched — unlinking a concurrent writer's live temp would
        make its atomic rename fail with ``FileNotFoundError``. Orphaned
        temps are the janitor's job (:meth:`sweep_stale_temps`).
        """
        for path in self.directory.glob("*.npz"):
            if _is_temp(path):
                continue
            try:
                path.unlink()
            except OSError:
                pass

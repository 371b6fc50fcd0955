"""Build, load and check the library's small C kernels.

Two hot loops have C copies: the pilot PLL's time recursion
(:mod:`repro.dsp.pll`) and the polyphase resampler's ``upfirdn``
(:mod:`repro.dsp.resample`). Each is a :class:`CompiledKernel`, which

- builds its C source with ``gcc`` on first use into the per-user cache
  directory (:func:`_cache_dir`), under a file name that hashes the
  source, the flags, the compiler version and the machine, so a stale
  library is never loaded;
- loads the library through :mod:`ctypes`, which releases the GIL for
  each call, so pool threads run their kernels concurrently;
- checks the kernel on a fixed probe against its pure NumPy or Python
  reference before any caller gets it.

Any failure (no compiler, a build error, an unwritable or foreign cache
directory, a probe mismatch) logs one WARNING under the kernel's own
logger, and :meth:`CompiledKernel.get` returns None from then on, so its
caller runs its bit-identical fallback instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import stat
import subprocess
import tempfile
import threading
from typing import Callable, Dict, Optional, Sequence

_COMPILER = "gcc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
"""``-ffp-contract=off`` keeps gcc from fusing a multiply and an add
into one FMA, which rounds once where the reference rounds twice."""

_versions: Dict[str, str] = {}
_versions_lock = threading.Lock()


def _cache_dir() -> str:
    """The per-user directory that holds the built kernels.

    ``$XDG_CACHE_HOME/repro`` when that variable is an absolute path,
    else ``~/.cache/repro``; created with mode 0700. A directory this
    user does not own, or one others may write to, is refused: the
    libraries loaded from it run as this user.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.lstat(path)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise OSError(f"{path} is not a directory private to this user")
    return path


def _compiler_version() -> str:
    """``gcc -dumpfullversion``, asked once per process (per compiler)."""
    compiler = _COMPILER
    with _versions_lock:
        if compiler not in _versions:
            _versions[compiler] = subprocess.run(
                [compiler, "-dumpfullversion"],
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout.strip()
        return _versions[compiler]


def _compile(source: str, library: str) -> None:
    """Compile the C file ``source`` into the shared library ``library``."""
    result = subprocess.run(
        [_COMPILER, *_CFLAGS, "-o", library, source, "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    if result.returncode:
        raise OSError(f"{_COMPILER} failed: {result.stderr.strip()[-500:]}")


class CompiledKernel:
    """One C function, built, loaded and probed once per process.

    Args:
        name: file-name stem of the built library (``pll``, ``resample``).
        source: the C source that defines ``symbol``.
        symbol: the function to load.
        argtypes: its :mod:`ctypes` argument types; it returns void.
        probe: called with the loaded function before first use; raises
            :class:`ArithmeticError` if its output differs from the
            reference's.
        logger: where the one fallback warning goes.
        fallback: what callers run instead, for that warning.
    """

    def __init__(
        self,
        name: str,
        source: str,
        symbol: str,
        argtypes: Sequence[type],
        probe: Callable[[Callable], None],
        logger: logging.Logger,
        fallback: str,
    ) -> None:
        self.name = name
        self.source = source
        self.symbol = symbol
        self.argtypes = tuple(argtypes)
        self.probe = probe
        self.logger = logger
        self.fallback = fallback
        self._lock = threading.Lock()
        self._ready = False
        self._func: Optional[Callable] = None

    def build(self) -> str:
        """Path of the built library, compiling it if the cache lacks it."""
        key = "\0".join(
            (self.source, *_CFLAGS, _compiler_version(), platform.machine())
        )
        directory = _cache_dir()
        library = os.path.join(
            directory,
            f"{self.name}-{hashlib.sha256(key.encode()).hexdigest()[:24]}.so",
        )
        if not os.path.exists(library):
            # Built under a temporary name and renamed into place, so no
            # process ever loads a half-written library.
            with tempfile.TemporaryDirectory(dir=directory) as scratch:
                source = os.path.join(scratch, f"{self.name}.c")
                with open(source, "w") as handle:
                    handle.write(self.source)
                built = os.path.join(scratch, f"{self.name}.so")
                _compile(source, built)
                os.replace(built, library)
        return library

    def _load_checked(self) -> Callable:
        """Build and load the function, then run its probe."""
        func = getattr(ctypes.CDLL(self.build()), self.symbol)
        func.restype = None
        func.argtypes = self.argtypes
        self.probe(func)
        return func

    def get(self) -> Optional[Callable]:
        """The checked function, or None to fall back."""
        if not self._ready:
            # Pool threads arriving together wait here and build once.
            with self._lock:
                if not self._ready:
                    try:
                        self._func = self._load_checked()
                    except (
                        OSError,  # no compiler, unusable cache, load failure
                        subprocess.SubprocessError,
                        AttributeError,  # no such symbol
                        ArithmeticError,  # probe mismatch
                    ) as exc:
                        self.logger.warning(
                            "compiled %s kernel unavailable, running %s instead: %s",
                            self.name, self.fallback, exc,
                        )
                    self._ready = True
        return self._func

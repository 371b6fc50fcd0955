"""Span recording from outside the program.

:class:`Tracer` replaces public functions and methods of the ``repro``
package with timing wrappers. A function imported by name into another
module is replaced there too, because every loaded ``repro`` module that
holds the original object gets the wrapper. Spans are kept in memory:
name, start, end, the span that was open on the same thread when it
began, and an optional count (multiply-accumulates, samples, rows, ...).

A span is *outer* when no span of the same name is open on its thread,
so a name's time and count sum only its outermost calls and recursion or
twin paths (``decode_mono`` inside ``decode_stereo``) never double count.
Self time is a span's duration minus the time of its direct children.

Work done inside forked launcher workers is not seen: their wrappers
record into the worker's own memory, which is discarded. For the same
reason the Fig. 9 measure, which only runs in workers, is not wrapped
(a wrapper would also break pickling of a scenario built before it).
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

# Span fields, kept as a list for a cheap wrapper.
NAME, START, END, PARENT, COUNT, OUTER, CHILD_S, THREAD = range(8)

CountFn = Callable[[tuple, dict, object], float]
Count = Union[CountFn, Tuple[Callable[[tuple, dict], float], CountFn]]


def _rows(args, kwargs, result) -> int:
    return len(args[0])


def _one(args, kwargs, result) -> int:
    return 1


def _zero(args, kwargs, result) -> int:
    return 0


def _macs(args, kwargs, result) -> int:
    taps, signal = args[0], args[1]
    return int(len(taps)) * int(signal.size)


def _samples(args, kwargs, result) -> int:
    return int(args[1].size)


def _saved_bytes(args, kwargs, result) -> int:
    return result.stat().st_size


def _journal_size(args, kwargs) -> int:
    path = args[0].path_for(args[1])
    return path.stat().st_size if path.exists() else 0


def _journal_size_after(args, kwargs, result) -> int:
    """The job's journal size after an append, less the width of the
    record's wall-clock field: ``elapsed_s`` prints with a varying number
    of digits, and the count must repeat exactly across runs."""
    size = _journal_size(args, kwargs)
    if "elapsed_s" in args[2]:
        size -= len(repr(float(args[2]["elapsed_s"])))
    return size


def targets(keep_result: CountFn) -> List[Tuple[object, str, str, Optional[Count]]]:
    """Every traced callable: (owner, attribute, span name, count).

    A count is ``f(args, kwargs, result)``, or a pair ``(before, after)``
    whose difference is the count, ``before(args, kwargs)`` being taken
    as the call starts. ``keep_result`` is the count of
    ``SweepRunner.run``: it keeps the :class:`~repro.engine.results.SweepResult`
    for its plan and cache counters, which the figure ``run()`` functions
    do not return.
    """
    from repro.audio import pesq
    from repro.channel import link
    from repro.data import fdm
    from repro.dsp import filters, goertzel, pll, resample
    from repro.engine import cache, journal, launcher, process_backend, runner, store
    from repro.experiments import common, fig08_ber_overlay, fig13_pesq_stereo
    from repro.fm import demodulator, pilot, station, stereo
    from repro.receiver import car, fm_receiver, smartphone

    return [
        (runner, "derive_streams", "engine.runner.derive_streams", None),
        (runner.SweepRunner, "run", "engine.runner.run", keep_result),
        (store.CacheStore, "save", "engine.store.save", _saved_bytes),
        (process_backend, "warm_store", "engine.launcher.warm_store", None),
        (launcher, "launch_sweep", "engine.launcher.launch_sweep", None),
        (journal.JobJournal, "append", "engine.journal.append", (_journal_size, _journal_size_after)),
        (station.FMStation, "mpx", "fm.station.mpx", None),
        (demodulator, "fm_demodulate", "fm.demodulator.demod", None),
        (stereo, "decode_mono", "fm.stereo.decode_mono", None),
        (stereo, "decode_stereo", "fm.stereo.decode_stereo", None),
        (stereo, "decode_stereo_batch", "fm.stereo.decode_stereo", None),
        (pilot, "detect_pilot", "fm.pilot.detect", None),
        (pilot, "pilot_power_ratio_db", "fm.pilot.detect", None),
        (filters, "filter_signal", "dsp.filters.filter", _macs),
        (resample, "resample_by_ratio", "dsp.resample", None),
        (resample, "resample_poly_exact", "dsp.resample", None),
        (pll.PhaseLockedLoop, "track", "dsp.pll.track", _samples),
        (pll.PhaseLockedLoop, "track_batch", "dsp.pll.track", _samples),
        (goertzel, "goertzel_power", "dsp.goertzel.power", None),
        (goertzel, "goertzel_power_many", "dsp.goertzel.power", None),
        (link.BackscatterLink, "transmit", "channel.link.transmit", None),
        (link, "transmit_batch", "channel.link.transmit", None),
        (fm_receiver.FMReceiver, "receive", "receiver.receive", _one),
        (fm_receiver, "receive_mono_batch", "receiver.receive", _rows),
        (fm_receiver, "receive_stereo_batch", "receiver.receive", _rows),
        (fm_receiver, "decode_mono_rows", "receiver.receive", _rows),
        (fm_receiver, "decode_stereo_rows", "receiver.receive", _rows),
        (fm_receiver.FMReceiver, "apply_output_effects_batch", "receiver.receive", _zero),
        (smartphone.SmartphoneReceiver, "apply_output_effects_batch", "receiver.receive", _zero),
        (car.CarReceiver, "apply_output_effects_batch", "receiver.receive", _zero),
        (fdm.FdmFskModem, "demodulate", "data.fdm.demod", None),
        (pesq, "pesq_like", "audio.pesq.score", None),
        (common.FrontEndStage, "apply", "experiments.front_end", None),
        (cache.CachedAmbient, "modulated_composite", "experiments.front_end", None),
        (fig08_ber_overlay, "score_ber", "experiments.measure", None),
        (fig13_pesq_stereo, "score_pesq_and_lock", "experiments.measure", None),
    ]


class Tracer:
    """In-memory span recorder around the public functions of ``repro``."""

    def __init__(self) -> None:
        import repro

        # Every module is imported up front, so none imported later binds
        # a wrapper that uninstall() would not see.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        self.spans: List[list] = []
        self.results: List[object] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = {}
        return local.stack, local.active

    def wrap(self, name: str, fn, count: Optional[Count] = None):
        spans = self.spans
        state = self._state
        clock = time.perf_counter
        before = None
        if isinstance(count, tuple):
            before, count = count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mark = before(args, kwargs) if before is not None else 0
            stack, active = state()
            depth = active.get(name, 0)
            active[name] = depth + 1
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, 0, depth == 0, 0.0, threading.get_ident()]
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[END] = end
                stack.pop()
                active[name] = depth
                if parent is not None:
                    parent[CHILD_S] += end - span[START]
                spans.append(span)
            if count is not None:
                span[COUNT] = count(args, kwargs, result) - mark
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """A span opened by the benchmark itself (the sweep root)."""
        stack, active = self._state()
        parent = stack[-1] if stack else None
        span = [name, 0.0, 0.0, parent, 0, True, 0.0, threading.get_ident()]
        stack.append(span)
        active[name] = active.get(name, 0) + 1
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            active[name] -= 1
            if parent is not None:
                parent[CHILD_S] += span[END] - span[START]
            self.spans.append(span)

    def take(self) -> Tuple[List[list], List[object]]:
        """Return the recorded spans and sweep results, and start afresh."""
        spans, results = list(self.spans), list(self.results)
        self.spans.clear()
        self.results.clear()
        return spans, results

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every target with its wrapper, wherever it is bound."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m]
        for owner, attr, name, count in targets(self._keep_result):
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, count))
                else:
                    wrapped = self.wrap(name, raw, count)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _keep_result(self, args, kwargs, result) -> int:
        self.results.append(result)
        return 0


def write_spans(spans: List[list], path) -> None:
    """Write spans as JSON lines: id, name, start, end, parent id, count."""
    ids: Dict[int, int] = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for i, span in enumerate(spans):
            parent = span[PARENT]
            handle.write(
                json.dumps(
                    {
                        "id": i,
                        "name": span[NAME],
                        "start": span[START],
                        "end": span[END],
                        "parent": None if parent is None else ids.get(id(parent)),
                        "thread": span[THREAD],
                        "count": span[COUNT],
                    }
                )
                + "\n"
            )


def totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: seconds, calls and count summed over outer spans."""
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if not span[OUTER]:
            continue
        entry = out.setdefault(span[NAME], {"s": 0.0, "calls": 0, "count": 0})
        entry["s"] += span[END] - span[START]
        entry["calls"] += 1
        entry["count"] += span[COUNT]
    return out


def self_time(span: list) -> float:
    """Duration not covered by the span's direct children on its thread."""
    return (span[END] - span[START]) - span[CHILD_S]

"""The per-layer metrics of the traced run, and what each should move.

``BENCHMARK.json`` lists every metric by name, unit and direction;
:data:`MOVES` adds, for each one, the end-to-end metric and the workload
it is expected to move, written down before any optimisation is
measured. ``check_counts.py`` verifies that the two name the same
metrics.

Workload shorthand in ``MOVES``: ``fig08`` = ``fig08_ber_3k2``, ``fig13``
= ``fig13_stereo_pesq``, ``fig09`` = ``fig09_mrc_service``.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from spans import END, NAME, PARENT, START, THREAD, self_time, totals

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

MOVES = {
    # engine
    "engine.runner.derive_streams_s": "sweep_s on all (expected small)",
    "engine.runner.self_s": "sweep_s on fig13 (grouping and stacking)",
    "engine.planner.batched_frac": "explains sweep_s: 0 on fig08, 1 on fig13",
    "engine.cache.hit_ratio": "setup_s on fig08/fig13, sweep_s on fig09",
    "engine.cache.syntheses": "setup_s on fig08/fig13, sweep_s on fig09",
    "engine.store.save_s": "sweep_s on fig09",
    "engine.store.bytes_written": "sweep_s on fig09",
    "engine.store.disk_hits": "sweep_s on fig09",
    "engine.launcher.warm_s": "sweep_s on fig09",
    "engine.launcher.fanout_s": "sweep_s on fig09",
    "engine.launcher.shards": "sweep_s and failed_frac on fig09",
    "engine.launcher.retries": "sweep_s and failed_frac on fig09",
    "engine.launcher.duplicates": "sweep_s and failed_frac on fig09",
    "engine.launcher.wasted_shard_frac": "sweep_s and failed_frac on fig09",
    "engine.journal.append_s": "sweep_s on fig09",
    "engine.journal.appends": "sweep_s on fig09",
    "engine.journal.bytes_per_point": "sweep_s on fig09",
    "engine.service.overhead_s": "sweep_s on fig09",
    # fm
    "fm.station.mpx_s": "setup_s on fig08/fig13, sweep_s on fig09",
    "fm.station.mpx_calls": "setup_s on fig08/fig13, sweep_s on fig09",
    "fm.demodulator.demod_s": "sweep_s on fig08/fig13",
    "fm.stereo.decode_mono_s": "sweep_s on fig08",
    "fm.stereo.decode_stereo_s": "sweep_s on fig13",
    "fm.pilot.detect_s": "sweep_s on fig13",
    # dsp
    "dsp.filters.filter_s": "sweep_s on fig08/fig13",
    "dsp.filters.macs": "sweep_s on fig08/fig13",
    "dsp.resample.resample_s": "sweep_s on fig08/fig13",
    "dsp.pll.track_s": "sweep_s on fig13",
    "dsp.pll.samples": "sweep_s on fig13",
    "dsp.goertzel.power_s": "sweep_s on fig08",
    "dsp.goertzel.calls": "sweep_s on fig08",
    # channel, receiver, data, audio, experiments
    "channel.link.transmit_s": "sweep_s on fig08/fig13",
    "receiver.receive_s": "sweep_s on fig08/fig13",
    "receiver.rows": "sweep_s on fig08/fig13",
    "data.fdm.demod_s": "sweep_s on fig08, parent-side scoring on fig09",
    "audio.pesq.score_s": "sweep_s on fig13",
    "experiments.front_end_s": "sweep_s on all",
    "experiments.measure_s": "sweep_s on all",
    # the trace itself
    "trace.coverage_frac": "none: share of traced sweep_s under a named span",
    "trace.overhead_frac": "none: traced sweep_s / untraced sweep_s - 1",
}
"""For every per-layer metric, the end-to-end metric and workload it should
move."""


COUNT_METRICS = (
    "dsp.filters.macs",
    "dsp.goertzel.calls",
    "dsp.pll.samples",
    "receiver.rows",
    "engine.cache.syntheses",
    "engine.launcher.shards",
    "engine.journal.bytes_per_point",
)
"""Counts that must repeat exactly across traced runs at one seed, so a
later change may claim a difference in them."""

COLD_SWEEP_METRICS = (
    "engine.cache.hit_ratio",
    "engine.cache.syntheses",
    "fm.station.mpx_s",
    "fm.station.mpx_calls",
)
"""Metrics taken from the cold first sweep on the warm-cache workloads:
every timed sweep there reads the ambient cache, so these layers only do
work during set-up. On the service workload every job is cold and they
come from the timed jobs like everything else."""


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric in ``BENCHMARK.json``."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def _cache_counters(stats: Optional[dict], extra_syntheses: int = 0) -> Dict[str, float]:
    stats = stats or {}
    hits, misses = stats.get("hits", 0), stats.get("misses", 0)
    # A cache without a disk store synthesizes on every miss.
    syntheses = stats.get("syntheses", misses) + extra_syntheses
    return {
        "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.cache.syntheses": syntheses,
        "engine.store.disk_hits": stats.get("disk_hits", 0),
    }


def _uncovered_s(root: list, spans: List[list]) -> float:
    """The sweep's time under no layer span: the self time of the sweep
    root and of ``SweepRunner.run``, which only frame the layers. Spans
    that start a thread's stack inside the sweep (the service's launch
    thread) count as covered."""
    others = sum(
        span[END] - span[START]
        for span in spans
        if span[PARENT] is None and span[THREAD] != root[THREAD] and span is not root
        and root[START] <= span[START] <= root[END]
    )
    runner = sum(self_time(span) for span in spans if span[NAME] == "engine.runner.run")
    return self_time(root) + runner - others


def sweep_metrics(spans: List[list], results: List[object], root: list, sweep, n_points: int) -> Dict[str, float]:
    """Every per-layer metric of one traced sweep (trace.* excluded)."""
    t = totals(spans)

    def s(name: str) -> float:
        return t.get(name, {}).get("s", 0.0)

    def calls(name: str) -> int:
        return t.get(name, {}).get("calls", 0)

    def count(name: str) -> float:
        return t.get(name, {}).get("count", 0)

    uncovered = _uncovered_s(root, spans)
    plan = [d for r in results for d in (r.plan or ())]
    planned = sum(len(d.point_indices) for d in plan)
    batched = sum(len(d.point_indices) for d in plan if d.backend == "batched")
    launch_s = s("engine.launcher.launch_sweep")
    m: Dict[str, float] = {
        "engine.runner.derive_streams_s": s("engine.runner.derive_streams"),
        "engine.runner.self_s": uncovered,
        "engine.planner.batched_frac": batched / planned if planned else 0.0,
        "engine.store.save_s": s("engine.store.save"),
        "engine.store.bytes_written": count("engine.store.save"),
        "engine.launcher.warm_s": s("engine.launcher.warm_store"),
        "engine.launcher.fanout_s": (
            launch_s - s("engine.launcher.warm_store") - s("engine.runner.derive_streams")
            if launch_s else 0.0
        ),
        "engine.journal.append_s": s("engine.journal.append"),
        "engine.journal.appends": calls("engine.journal.append"),
        "engine.journal.bytes_per_point": count("engine.journal.append") / n_points,
        "engine.service.overhead_s": sweep.sweep_s - launch_s if launch_s else 0.0,
        "fm.station.mpx_s": s("fm.station.mpx"),
        "fm.station.mpx_calls": calls("fm.station.mpx"),
        "fm.demodulator.demod_s": s("fm.demodulator.demod"),
        "fm.stereo.decode_mono_s": s("fm.stereo.decode_mono"),
        "fm.stereo.decode_stereo_s": s("fm.stereo.decode_stereo"),
        "fm.pilot.detect_s": s("fm.pilot.detect"),
        "dsp.filters.filter_s": s("dsp.filters.filter"),
        "dsp.filters.macs": count("dsp.filters.filter"),
        "dsp.resample.resample_s": s("dsp.resample"),
        "dsp.pll.track_s": s("dsp.pll.track"),
        "dsp.pll.samples": count("dsp.pll.track"),
        "dsp.goertzel.power_s": s("dsp.goertzel.power"),
        "dsp.goertzel.calls": calls("dsp.goertzel.power"),
        "channel.link.transmit_s": s("channel.link.transmit"),
        "receiver.receive_s": s("receiver.receive"),
        "receiver.rows": count("receiver.receive"),
        "data.fdm.demod_s": s("data.fdm.demod"),
        "audio.pesq.score_s": s("audio.pesq.score"),
        "experiments.front_end_s": s("experiments.front_end"),
        "experiments.measure_s": s("experiments.measure"),
        "trace.coverage_frac": 1.0 - uncovered / (root[END] - root[START]),
    }
    report = sweep.info.get("report")
    if report is not None:
        status = sweep.info["status"]
        m.update(_cache_counters(report.result.cache_stats, report.warm_syntheses))
        dispatched = status.shards_done + report.retries
        m.update(
            {
                "engine.launcher.shards": report.n_shards,
                "engine.launcher.retries": report.retries,
                "engine.launcher.duplicates": report.duplicates,
                "engine.launcher.wasted_shard_frac": (
                    (report.retries + report.duplicates) / dispatched if dispatched else 0.0
                ),
            }
        )
    else:
        stats = results[0].cache_stats if results else None
        m.update(_cache_counters(stats))
        m.update(
            {
                "engine.launcher.shards": 0,
                "engine.launcher.retries": 0,
                "engine.launcher.duplicates": 0,
                "engine.launcher.wasted_shard_frac": 0.0,
            }
        )
    return m


def combine(per_sweep: List[Dict[str, float]], cold: Optional[Dict[str, float]],
            traced_s: List[float], untraced_s: List[float]) -> Dict[str, float]:
    """Median over the traced sweeps, the cold-sweep metrics from ``cold``
    when given, and the trace's own overhead."""
    out = {name: median(m[name] for m in per_sweep) for name in per_sweep[0]}
    if cold is not None:
        out.update({name: cold[name] for name in COLD_SWEEP_METRICS})
    out["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0
    return out

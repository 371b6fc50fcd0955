"""The three figure-sweep workloads, their reference runs and checks.

Each workload runs one paper figure's sweep through the public API on
its full grid, with the default backend (``auto``) and exact numerics:

- ``fig08_ber_3k2``: Fig. 8 at 3.2 kbps, 5 powers x 8 distances. The
  ambient cache is warm after the first sweep, because every sweep
  reuses the seed. Mono receive, FDM demodulation and link noise do the
  work. BLAS runs on one thread here (``run.PINNED_BLAS``).
- ``fig13_stereo_pesq``: Fig. 13 on the stereo station, 3 powers x 6
  distances, also warm. ``auto`` batches every point: stereo decode, the
  pilot PLL and PESQ do the work. The speech clips last 1 s instead of
  the figure's 2 s, which halves a sweep and keeps a whole run (two cold
  set-ups, the serial reference and the timed sweeps) near 35 s.
- ``fig09_mrc_service``: the Fig. 9 grid (6 distances x 4 repetitions)
  submitted as jobs to a journaled ``SweepService`` with two launcher
  workers. Every job starts with an empty store, so it synthesizes,
  spills, forks and journals; the parent then combines repetitions and
  scores BER as ``fig09_mrc.run`` does.

A workload is built from the benchmark's seed, so the same seed gives
the same inputs. ``min_sweeps`` is the fewest timed sweeps a run makes
whatever ``--seconds`` says: one sweep varies by ~10% on a shared 2-CPU
host, and a count that depended on the host's speed would add its own
spread, so each run takes a fixed number unless sweeps are fast.
``reference()`` computes the same sweep with ``backend="serial"``,
outside any timed window; ``check()`` compares a sweep's output with it
at the golden tier's tolerance and asserts one of the paper's shapes.
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, Iterator, List

import numpy as np

REL_TOL = 1e-9
"""The golden tier's relative tolerance (tests/experiments)."""

ABS_TOL = 1e-12


@dataclass
class Sweep:
    """One executed sweep or job.

    Attributes:
        output: what the user gets back (the figure's result dict).
        sweep_s: wall time of the sweep, or of the job from ``submit``
            until ``fetch`` returns.
        timed_s: the part of the iteration counted as timed work (the
            job plus parent-side scoring on the service workload).
        degraded: the launcher salvaged work in-process.
        info: engine counters for the traced run.
    """

    output: object
    sweep_s: float
    timed_s: float
    degraded: bool = False
    info: Dict[str, object] = field(default_factory=dict)


def close(actual, expected) -> bool:
    """Equal within the golden tier's tolerance, recursively."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(close(actual[k], expected[k]) for k in expected)
        )
    if isinstance(expected, (list, tuple)):
        return len(actual) == len(expected) and all(
            close(a, e) for a, e in zip(actual, expected)
        )
    if isinstance(expected, np.ndarray):
        actual = np.asarray(actual)
        if actual.shape != expected.shape:
            return False
        scale = np.maximum(np.abs(actual), np.abs(expected))
        return bool(np.all(np.abs(actual - expected) <= np.maximum(REL_TOL * scale, ABS_TOL)))
    if isinstance(expected, (bool, np.bool_)):
        return bool(actual) == bool(expected)
    if isinstance(expected, (int, float, np.number)):
        if math.isnan(expected):
            return math.isnan(actual)
        return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return actual == expected


@contextmanager
def serial_backend() -> Iterator[None]:
    """Run the figure's own ``run()`` on the serial reference backend."""
    from repro.engine.runner import BACKEND_ENV_VAR

    os.environ[BACKEND_ENV_VAR] = "serial"
    try:
        yield
    finally:
        del os.environ[BACKEND_ENV_VAR]


class FigureRun:
    """A workload that calls one figure module's ``run()``."""

    warm_cache = True
    """Timed sweeps read an ambient cache the first sweep filled."""

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed

    def _run(self):
        raise NotImplementedError

    def sweep(self) -> Sweep:
        start = time.perf_counter()
        output = self._run()
        elapsed = time.perf_counter() - start
        return Sweep(output, elapsed, elapsed)

    def reference(self):
        with serial_backend():
            return self._run()

    def close(self) -> None:
        pass


class Fig08Ber3k2(FigureRun):
    name = "fig08_ber_3k2"
    n_points = 40
    min_sweeps = 3

    def _run(self):
        from repro.experiments import fig08_ber_overlay

        return fig08_ber_overlay.run(rate="3.2kbps", rng=self.seed)

    def invariant(self, output) -> bool:
        """BER at the nearest, strongest cell <= at the farthest, weakest."""
        from repro.engine import power_key
        from repro.experiments.fig08_ber_overlay import DEFAULT_POWERS_DBM as powers

        return output[power_key(max(powers))][0] <= output[power_key(min(powers))][-1]


class Fig13StereoPesq(FigureRun):
    name = "fig13_stereo_pesq"
    n_points = 18
    min_sweeps = 3
    duration_s = 1.0

    def _run(self):
        from repro.experiments import fig13_pesq_stereo

        return fig13_pesq_stereo.run(
            scenario="stereo_station", duration_s=self.duration_s, rng=self.seed
        )

    def invariant(self, output) -> bool:
        """Mean PESQ at -20 dBm >= mean PESQ at -40 dBm."""
        from repro.engine import power_key

        return mean(output[power_key(-20.0)]) >= mean(output[power_key(-40.0)])


class Fig09MrcService:
    name = "fig09_mrc_service"
    n_points = 24
    n_workers = 2
    min_sweeps = 8
    warm_cache = False

    def __init__(self, seed: int, tmp: str) -> None:
        from repro.data.fdm import FdmFskModem
        from repro.experiments import fig09_mrc

        self.figure = fig09_mrc
        self.seed = seed
        self.tmp = tmp
        self.modem = FdmFskModem(symbol_rate=200)
        self.scenario = fig09_mrc.build_scenario(self.modem)
        self.journal_dir = os.path.join(tmp, "journal")
        # One event loop for the whole run, so every job's launch runs on
        # the same executor thread, as in a long-lived service.
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.loop.close()

    def score(self, result) -> Dict[str, List[float]]:
        """MRC-combine the repetitions and score BER, as ``fig09_mrc.run``."""
        from repro.data.ber import bit_error_rate
        from repro.data.mrc import mrc_combine

        bits = result.data["bits"]
        scores: Dict[str, List[float]] = {}
        for distance in self.figure.DEFAULT_DISTANCES_FT:
            receptions = result.series(along="rep", distance_ft=distance)
            for factor in self.figure.DEFAULT_MRC_FACTORS:
                detected = self.modem.demodulate(mrc_combine(receptions[:factor]), bits.size)
                scores.setdefault(f"mrc{factor}", []).append(bit_error_rate(bits, detected))
        return scores

    async def _job(self, cache_dir: str):
        from repro.engine import SweepService

        # A fresh store per job: the job is cold, so it synthesizes,
        # spills and lets the workers load from disk.
        service = SweepService(
            n_workers=self.n_workers,
            max_parallel_jobs=1,
            cache_dir=cache_dir,
            journal_dir=self.journal_dir,
        )
        try:
            start = time.perf_counter()
            job_id = await service.submit(self.scenario, rng=self.seed)
            report = await service.fetch(job_id)
            job_s = time.perf_counter() - start
            status = service.status(job_id)
            journal_path = service.journal.path_for(job_id)
        finally:
            await service.close()
        return report, status, job_s, journal_path

    def sweep(self) -> Sweep:
        cache_dir = tempfile.mkdtemp(prefix="store-", dir=self.tmp)
        try:
            report, status, job_s, journal_path = self.loop.run_until_complete(
                self._job(cache_dir)
            )
            start = time.perf_counter()
            scores = self.score(report.result)
            score_s = time.perf_counter() - start
            journal_path.unlink()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        output = {"values": report.result.values, "scores": scores}
        info = {"report": report, "status": status}
        return Sweep(output, job_s, job_s + score_s, report.degraded, info)

    def reference(self):
        from repro.engine import run_scenario

        result = run_scenario(self.scenario, rng=self.seed, backend="serial")
        return {"values": result.values, "scores": self.score(result)}

    def invariant(self, output) -> bool:
        """Mean BER with 4x MRC <= mean BER without combining."""
        scores = output["scores"]
        return mean(scores["mrc4"]) <= mean(scores["mrc1"])


WORKLOADS = {cls.name: cls for cls in (Fig08Ber3k2, Fig13StereoPesq, Fig09MrcService)}


def check(workload, output, reference) -> bool:
    """A sweep's output passes if it matches the serial reference and
    keeps the paper's shape."""
    return close(output, reference) and workload.invariant(output)

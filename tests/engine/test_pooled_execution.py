"""The thread pool behind ``auto``.

``auto`` runs each serially-routed point (long mono and stereo rows
alike) as one unit of a thread pool, and all its batched partitions
together as one more (its stacks run in turn, so one partition's
stacks are live at a time). Values must equal the serial backend's bit for bit at
any pool size. ``REPRO_SWEEP_WORKERS=2`` forces a two-thread pool, so
these tests exercise real concurrency on a one-CPU machine too. A live
stateful fading model on a scenario's chain is refused under every
setting, as it is by the launcher (see ``test_launcher.py``).
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.fading import BodyMotionFading, MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.engine import AmbientCache, PayloadSelector, Scenario, SweepRunner, SweepSpec
from repro.engine.execution import run_stack
from repro.engine.planner import plan_sweep
from repro.engine.runner import WORKERS_ENV_VAR, derive_streams, pool_size
from repro.errors import ConfigurationError
from repro.experiments import fig08_ber_overlay as fig08
from repro.experiments import fig13_pesq_stereo as fig13
from repro.utils.rand import as_generator

SEED = 2017


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")


def _mean_abs(run):
    return float(np.mean(np.abs(run.received.mono)))


def _draw(run):
    return float(run.rng.standard_normal(1000).sum())


def _scenario(rows=("short", "long"), distances=(2, 4), fading=None):
    """Mono grid whose ``row`` axis picks a short (batched) or a long
    (serial, past the planner's crossover) payload."""
    payloads = {
        "short": tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9),
        "short2": tone(2000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9),
        "long": tone(1000.0, 0.4, AUDIO_RATE_HZ, amplitude=0.9),
    }
    return Scenario(
        name="pool",
        sweep=SweepSpec.grid(row=rows, distance_ft=distances),
        prepare=lambda gen: dict(payloads),
        base_chain={
            "program": "silence",
            "stereo_decode": False,
            "power_dbm": -50.0,
            "fading": fading,
        },
        chain_axes=("distance_ft",),
        payload=PayloadSelector("row", {name: name for name in payloads}),
        measure=_mean_abs,
    )


def _run(scenario, backend, **kwargs):
    return SweepRunner(
        scenario, rng=SEED, cache=AmbientCache(), backend=backend, **kwargs
    ).run()


class TestPoolSize:
    def test_one_thread_per_cpu_capped_at_units(self):
        assert pool_size(1) == 1
        assert 1 <= pool_size(1000) <= 1000

    def test_explicit_count_overrides_cpus(self):
        assert pool_size(10, max_workers=3) == 3
        assert pool_size(2, max_workers=8) == 2

    def test_more_threads_than_cores_with_fast_switching(self):
        # Every unit writes its own slot of one shared values list; a
        # lost or misplaced write would break equality with serial. The
        # measure draws per point itself, so auto runs one unit per point.
        scenario = Scenario(
            name="stress",
            sweep=SweepSpec.grid(a=tuple(range(64))),
            measure=_draw,
            cache_ambient=False,
        )
        serial = _run(scenario, "serial")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _run(scenario, "auto", max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.n_workers == 8
        assert threaded.values == serial.values


@pytest.mark.usefixtures("two_workers")
class TestThreadedAuto:
    def test_mixed_grid_matches_serial(self):
        scenario = _scenario(distances=(2, 4, 8))
        serial = _run(scenario, "serial")
        auto = _run(scenario, "auto")
        # Three long points run one per unit beside the short partition.
        assert auto.backend == "auto[batched:3+serial:3]"
        assert auto.n_workers == 2
        assert [d.backend for d in auto.plan] == ["batched", "serial"]
        assert auto.values == serial.values

    def test_batched_partitions_share_one_unit(self):
        # Two short payloads are two batched partitions; running them as
        # concurrent units would hold both partitions' stacks at once.
        scenario = _scenario(rows=("short", "short2", "long"), distances=(2, 4))
        data, points, _, _ = derive_streams(scenario, as_generator(SEED))
        plan = plan_sweep(scenario, data, points, AmbientCache(), "auto")
        batched = tuple(d for d in plan.decisions if d.backend == "batched")
        assert len(batched) == 2
        long = [pos for pos, p in enumerate(points) if p["row"] == "long"]
        assert plan.units == [
            tuple((d.positions, d.chunk_rows) for d in batched)
        ] + [(((pos,), 1),) for pos in long]

        serial = _run(scenario, "serial")
        auto = _run(scenario, "auto")
        assert auto.n_workers == 2
        assert [d.backend for d in auto.plan].count("batched") == 2
        assert auto.values == serial.values

    def test_fig08_grid_matches_serial(self):
        scenario = fig08.build_scenario(
            "3.2kbps", powers_dbm=(-50.0, -60.0), distances_ft=(8, 16)
        )
        serial = _run(scenario, "serial")
        auto = _run(scenario, "auto")
        assert auto.backend == "auto[serial:4]"
        assert auto.n_workers == 2
        assert auto.values == serial.values
        assert any(v > 0 for v in serial.values)

    def test_fig13_stereo_grid_one_unit_per_point(self):
        # 0.2 s clips are 96,000-sample stereo rows, past the stereo
        # crossover: every point is its own unit, and its pilot PLL runs
        # beside the other thread's.
        scenario = fig13.build_scenario(
            "stereo_station", powers_dbm=(-20.0, -40.0),
            distances_ft=(1, 8, 16), duration_s=0.2,
        )
        data, points, _, _ = derive_streams(scenario, as_generator(SEED))
        plan = plan_sweep(scenario, data, points, AmbientCache(), "auto")
        assert plan.units == [(((pos,), 1),) for pos in range(len(points))]

        serial = _run(scenario, "serial")
        auto = _run(scenario, "auto")
        assert auto.backend == f"auto[serial:{len(points)}]"
        assert auto.n_workers == 2
        assert auto.values == serial.values


class TestLiveFadingBackends:
    @staticmethod
    def _live_scenario():
        return _scenario(
            rows=("short",), distances=(2, 3, 4, 5, 6, 7),
            fading=BodyMotionFading("running", rng=7),
        )

    @pytest.mark.parametrize("backend", ["serial", "batched", "auto"])
    def test_live_model_in_chain_kwargs_raises(self, backend):
        # A shared stateful model would draw its stream in execution
        # order across points; every setting refuses it before running.
        scenario = _scenario(fading=BodyMotionFading("running", rng=7))
        with pytest.raises(ConfigurationError, match="BodyMotionFading.*MotionFadingSpec"):
            _run(scenario, backend)

    def test_auto_pool_matches_serial(self):
        # A pool of two refuses the live model as one thread does; its
        # declarative twin resolves per point, so any pool equals serial.
        with pytest.raises(ConfigurationError, match="BodyMotionFading.*MotionFadingSpec"):
            _run(self._live_scenario(), "auto", max_workers=2)
        spec = _scenario(
            rows=("short", "long"), distances=(2, 3, 4),
            fading=MotionFadingSpec("running"),
        )
        serial = _run(spec, "serial")
        for _ in range(3):
            pooled = _run(spec, "auto", max_workers=2)
            assert pooled.n_workers == 2
            assert pooled.values == serial.values


class TestPointWorkingSet:
    def test_warm_fig08_point_peak(self):
        # auto keeps one point in flight per CPU, so a warm 3.2 kbps
        # Fig. 8 point (a 480,000-sample complex row, 7.7 MB) may hold
        # little more than two row-sized buffers: no full-row copies in
        # the discriminator or the noise draw, and the complex row freed
        # once it is demodulated.
        scenario = fig08.build_scenario("3.2kbps", powers_dbm=(-40.0,), distances_ft=(4,))
        data = scenario.prepare(as_generator(SEED))
        points = scenario.sweep.points()
        cache = AmbientCache()

        def run_point():
            # One point as the plan runs it: a stack of one.
            values = [None]
            run_stack(scenario, data, points, [123], cache, 7, (0,), 1, values)
            return values[0]

        warm = run_point()
        tracemalloc.start()
        try:
            value = run_point()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == warm
        assert peak < 16e6

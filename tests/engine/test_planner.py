"""Row-length planner: features, the backend rule, auto execution.

The non-timing acceptance gates for ``REPRO_SWEEP_BACKEND=auto`` live
here: the planner must route the long-row Fig. 8 and Fig. 13 grids away
from the batched executor and the short-row fading and stereo grids onto
it. The rule is fixed arithmetic over row length and decode mode, so CI
checks the crossovers without trusting wall clocks.
"""

import dataclasses

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.fading import BodyMotionFading, MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.engine import (
    AmbientCache,
    PayloadSelector,
    Scenario,
    SweepRunner,
    SweepSpec,
    plan_sweep,
)
from repro.data.fdm import FdmFskModem
from repro.engine.planner import (
    CROSSOVER_SAMPLES,
    STEREO_CROSSOVER_SAMPLES,
    choose_backend,
    extract_features,
)
from repro.experiments import fig08_ber_overlay as fig08
from repro.experiments import fig09_mrc as fig09
from repro.experiments import fig10_stereo_ber as fig10
from repro.experiments import fig13_pesq_stereo as fig13
from repro.utils.env import NUMERICS_ENV_VAR
from repro.utils.rand import as_generator

SEED = 2017


@pytest.fixture
def exact_env(monkeypatch):
    """Pin exact numerics: fast mode batches every cached partition."""
    monkeypatch.setenv(NUMERICS_ENV_VAR, "exact")


def _mean_abs(run):
    return float(np.mean(np.abs(run.received.mono)))


def _prepared(scenario):
    """(data, points) the way the runner derives them before planning."""
    gen = as_generator(SEED)
    data = scenario.prepare(gen) if scenario.prepare is not None else {}
    return data, scenario.sweep.points()


def _tone_scenario(duration_s=0.05, n_points=4, payload=None, **base_extra):
    if payload is None:
        payload = tone(1000.0, duration_s, AUDIO_RATE_HZ, amplitude=0.9)
    return Scenario(
        name="plan",
        sweep=SweepSpec.grid(distance_ft=tuple(2 + i for i in range(n_points))),
        prepare=lambda gen: {"payload": payload},
        base_chain=dict(
            {"program": "silence", "stereo_decode": False}, **base_extra
        ),
        chain_axes=("distance_ft",),
        payload="payload",
        measure=_mean_abs,
    )


class TestFeatureExtraction:
    def test_partitions_match_batched_executor_grouping(self):
        # One front-end group, two receiver partitions (phone mono + car
        # stereo) — the same split the batched executor performs.
        payload = tone(1000.0, 0.1, AUDIO_RATE_HZ, amplitude=0.9)
        scenario = Scenario(
            name="mixed",
            sweep=SweepSpec.grid(receiver=("smartphone", "car"), distance_ft=(2, 8)),
            prepare=lambda gen: {"payload": payload},
            base_chain={"program": "silence", "stereo_decode": False},
            chain_axes=("distance_ft",),
            chain_value_params={
                "receiver": {
                    "smartphone": {"receiver_kind": "smartphone"},
                    "car": {"receiver_kind": "car"},
                }
            },
            payload="payload",
            measure=_mean_abs,
        )
        data, points = _prepared(scenario)
        features, splittable = extract_features(
            scenario, data, points, AmbientCache()
        )
        assert splittable
        assert len(features) == 2
        by_stereo = {f.stereo: f for f in features}
        assert by_stereo[False].n_points == 2  # smartphone half
        assert by_stereo[True].n_points == 2  # car radio always stereo
        for f in features:
            # Exact row length: payload upsampled audio->MPX rate (x10).
            assert f.n_samples == payload.size * 10
            assert f.batchable
        covered = sorted(pos for f in features for pos in f.positions)
        assert covered == list(range(len(points)))

    def test_extraction_never_synthesizes(self):
        scenario = _tone_scenario()
        data, points = _prepared(scenario)
        cache = AmbientCache()
        features, _ = extract_features(scenario, data, points, cache)
        assert [f.n_points for f in features] == [len(points)]
        assert len(cache) == 0
        assert cache.stats["misses"] == 0

    def test_measure_driven_grid_is_one_serial_partition(self):
        scenario = Scenario(
            name="md",
            sweep=SweepSpec.grid(a=(1, 2, 3)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        features, splittable = extract_features(scenario, {}, scenario.sweep.points(), None)
        assert splittable
        assert len(features) == 1
        assert features[0].measure_driven
        assert choose_backend(features[0]) == ("serial", "measure-driven")


def _mono_row_features(n_audio_samples):
    """Features of a 4-point mono partition with rows of the given length."""
    scenario = _tone_scenario(payload=np.full(n_audio_samples, 0.1))
    data, points = _prepared(scenario)
    (features,), _ = extract_features(scenario, data, points, AmbientCache())
    return features


@pytest.mark.usefixtures("exact_env")
class TestCostModel:
    """``choose_backend``, one rule at a time."""

    def test_batched_excluded_when_cache_off(self):
        scenario = _tone_scenario()
        scenario.cache_ambient = False
        data, points = _prepared(scenario)
        features, _ = extract_features(scenario, data, points, None)
        assert not features[0].batchable
        assert choose_backend(features[0]) == ("serial", "uncached")

    def test_mono_row_at_crossover_goes_batched(self):
        features = _mono_row_features(CROSSOVER_SAMPLES // 10)
        assert features.n_samples == CROSSOVER_SAMPLES
        assert not features.stereo
        assert choose_backend(features) == ("batched", "short-rows")

    def test_mono_row_past_crossover_goes_serial(self):
        at = _mono_row_features(CROSSOVER_SAMPLES // 10)
        past = dataclasses.replace(at, n_samples=CROSSOVER_SAMPLES + 1)
        assert choose_backend(past) == ("serial", "long-rows")
        # The next row an audio-rate payload can produce, end to end.
        longer = _mono_row_features(CROSSOVER_SAMPLES // 10 + 1)
        assert longer.n_samples > CROSSOVER_SAMPLES
        assert choose_backend(longer) == ("serial", "long-rows")

    def test_stereo_rows_follow_the_row_length_rule(self):
        # Fig. 13's own 2 s speech clip: 960,000-sample stereo rows.
        scenario = fig13.build_scenario("stereo_station", duration_s=2.0)
        data, points = _prepared(scenario)
        features, _ = extract_features(scenario, data, points, AmbientCache())
        assert {f.n_samples for f in features} == {960_000}
        for f in features:
            assert f.stereo
            assert choose_backend(f) == ("serial", "long-rows")
        # Fig. 10 at 200 bits: the 3.2 kbps stereo rows are 30,000
        # samples and batch; the 1.6 kbps ones, 60,000, run per point.
        expected = {
            "3.2k": (30_000, ("batched", "short-rows")),
            "1.6k": (60_000, ("serial", "long-rows")),
        }
        for label, rate in (("3.2k", 400), ("1.6k", 200)):
            scenario = fig10.build_scenario(
                label, FdmFskModem(symbol_rate=rate), n_bits=200
            )
            data, points = _prepared(scenario)
            features, _ = extract_features(scenario, data, points, AmbientCache())
            (stereo,) = [f for f in features if f.stereo]
            n_samples, choice = expected[label]
            assert stereo.n_samples == n_samples
            assert choose_backend(stereo) == choice

    def test_stereo_row_at_crossover_goes_batched(self):
        at = _mono_row_features(STEREO_CROSSOVER_SAMPLES // 10)
        at = dataclasses.replace(at, stereo=True)
        assert choose_backend(at) == ("batched", "short-rows")
        past = dataclasses.replace(at, n_samples=STEREO_CROSSOVER_SAMPLES + 1)
        assert choose_backend(past) == ("serial", "long-rows")

    def test_fast_numerics_batches_long_mono_rows(self, monkeypatch):
        features = _mono_row_features(CROSSOVER_SAMPLES // 10 + 1)
        monkeypatch.setenv(NUMERICS_ENV_VAR, "fast")
        assert choose_backend(features) == ("batched", "fast-numerics")
        # Uncached partitions stay serial even in fast mode.
        uncached = dataclasses.replace(features, batchable=False)
        assert choose_backend(uncached) == ("serial", "uncached")


class TestDecisionGates:
    """The crossover gates CI runs without trusting wall clocks."""

    @pytest.mark.usefixtures("exact_env")
    def test_never_batched_on_fig08_long_row_grid(self):
        # The grid the backend-matrix benchmark measures regressing ~2x
        # under batched: 100 bps payload -> 0.4 s waveform -> 192k-sample
        # rows that starve the chunker. The planner must never send it
        # to the batched executor.
        scenario = fig08.build_scenario("100bps", n_bits=40)
        data, points = _prepared(scenario)
        plan = plan_sweep(scenario, data, points, AmbientCache())
        assert plan.decisions, "a decision per partition is required"
        assert all(d.backend != "batched" for d in plan.decisions)

    def test_batched_on_fading_short_row_grid(self):
        scenario = fig09.build_scenario(
            FdmFskModem(symbol_rate=200),
            distances_ft=(1, 2, 3, 4, 6, 8, 12, 16),
            max_factor=4,
            n_bits=100,
        )
        scenario.base_chain = dict(
            scenario.base_chain, fading=MotionFadingSpec("running")
        )
        data, points = _prepared(scenario)
        plan = plan_sweep(scenario, data, points, AmbientCache())
        assert all(d.backend == "batched" for d in plan.decisions)
        covered = sorted(i for d in plan.decisions for i in d.point_indices)
        assert covered == list(range(len(points)))

    @pytest.mark.usefixtures("exact_env")
    def test_fig08_3k2_benchmark_grid_all_serial(self):
        # The fig08_ber_3k2 benchmark workload's grid: 1 s FDM payload,
        # 480,000-sample mono rows, 5 powers x 8 distances.
        scenario = fig08.build_scenario("3.2kbps")
        data, points = _prepared(scenario)
        cache = AmbientCache()
        plan = plan_sweep(scenario, data, points, cache)
        assert [d.reason for d in plan.decisions] == ["long-rows"]
        assert plan.by_backend == {"serial": list(range(40))}
        assert len(cache) == 0  # planned without synthesis

    @pytest.mark.usefixtures("exact_env")
    def test_fig13_benchmark_grid_all_serial(self):
        # The fig13_stereo_pesq benchmark workload's grid: the stereo
        # station with 1 s speech clips (480,000-sample rows), 3 powers
        # x 6 distances, each point its own pool unit.
        scenario = fig13.build_scenario("stereo_station", duration_s=1.0)
        data, points = _prepared(scenario)
        cache = AmbientCache()
        plan = plan_sweep(scenario, data, points, cache)
        assert {d.reason for d in plan.decisions} == {"long-rows"}
        assert plan.by_backend == {"serial": list(range(18))}
        assert plan.units == [("serial", [pos]) for pos in range(18)]
        assert len(cache) == 0


@pytest.mark.usefixtures("exact_env")
class TestPlanExecution:
    def test_auto_records_decision_per_partition(self):
        scenario = _tone_scenario(duration_s=0.05, n_points=4)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="auto"
        ).run()
        assert result.plan is not None and len(result.plan) == 1
        decision = result.plan[0]
        assert decision.backend == "batched"
        assert decision.reason == "short-rows"
        assert decision.point_indices == (0, 1, 2, 3)
        assert decision.chunk_rows >= 1
        assert decision.features["n_samples"] == 24_000
        assert result.backend == "auto[batched:4]"
        assert result.n_fallbacks == 0

    def test_auto_with_cache_off_runs_serial(self):
        scenario = _tone_scenario(n_points=3)
        scenario.cache_ambient = False
        result = SweepRunner(scenario, rng=SEED, backend="auto").run()
        assert [d.backend for d in result.plan] == ["serial"]
        serial = SweepRunner(scenario, rng=SEED, backend="serial").run()
        assert result.values == serial.values

    def test_live_fading_model_forces_uniform_backend(self):
        # A shared stateful fading model consumes its stream in grid
        # order across points; a heterogeneous split would reorder the
        # draws. The planner must run the whole grid serially when the
        # partitions' individual choices differ (short + long rows here).
        live = BodyMotionFading("running", rng=7)
        short = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)
        long_ = tone(1000.0, 0.5, AUDIO_RATE_HZ, amplitude=0.9)
        scenario = Scenario(
            name="live",
            sweep=SweepSpec.grid(row=("short", "long"), distance_ft=(2, 4)),
            prepare=lambda gen: {"short": short, "long": long_},
            base_chain={
                "program": "silence",
                "stereo_decode": False,
                "fading": live,
            },
            chain_axes=("distance_ft",),
            payload=PayloadSelector("row", {"short": "short", "long": "long"}),
            measure=_mean_abs,
        )
        data, points = _prepared(scenario)
        features, splittable = extract_features(
            scenario, data, points, AmbientCache()
        )
        assert not splittable
        assert {choose_backend(f)[0] for f in features} == {"batched", "serial"}
        plan = plan_sweep(scenario, data, points, AmbientCache())
        assert len(plan.decisions) == 2
        assert {(d.backend, d.reason) for d in plan.decisions} == {
            ("serial", "live-fading")
        }
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="auto"
        ).run()
        assert result.backend == "auto[serial:4]"

        # The declarative-spec twin of the same grid IS splittable.
        spec_scenario = Scenario(
            name="live",
            sweep=scenario.sweep,
            prepare=scenario.prepare,
            base_chain=dict(scenario.base_chain, fading=MotionFadingSpec("running")),
            chain_axes=("distance_ft",),
            payload=scenario.payload,
            measure=_mean_abs,
        )
        data, points = _prepared(spec_scenario)
        _, splittable = extract_features(spec_scenario, data, points, AmbientCache())
        assert splittable
        plan = plan_sweep(spec_scenario, data, points, AmbientCache())
        assert {d.backend for d in plan.decisions} == {"batched", "serial"}

    def test_single_point_grid_short_circuits_without_plan(self):
        scenario = _tone_scenario(n_points=1)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="auto"
        ).run()
        assert result.backend == "serial"
        assert result.plan is None

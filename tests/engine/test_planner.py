"""The sweep plan: partitions, the backend rule, every setting's plan.

The non-timing acceptance gates for ``REPRO_SWEEP_BACKEND=auto`` live
here: the planner must route the long-row Fig. 8 and Fig. 13 grids away
from the batched executor and the short-row fading and stereo grids onto
it. The rule is fixed arithmetic over row length and decode mode, so CI
checks the crossovers without trusting wall clocks. The plan must also
be what ran: every batched decision is one stack of the executor, in
the decision's chunk rows.
"""

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.fading import MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.engine import (
    AmbientCache,
    PayloadSelector,
    Scenario,
    SweepRunner,
    SweepSpec,
)
from repro.data.fdm import FdmFskModem
from repro.engine import planner
from repro.engine.planner import (
    CROSSOVER_SAMPLES,
    STEREO_CROSSOVER_SAMPLES,
    choose_backend,
    partition_points,
    plan_sweep,
)
from repro.experiments import common
from repro.experiments import fig08_ber_overlay as fig08
from repro.experiments import fig09_mrc as fig09
from repro.experiments import fig10_stereo_ber as fig10
from repro.experiments import fig13_pesq_stereo as fig13
from repro.utils.rand import as_generator

SEED = 2017


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
        # stereo) — two stacks for the batched executor.
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
        # Exact row length: payload upsampled audio->MPX rate (x10); the
        # car radio always decodes stereo.
        assert partition_points(scenario, data, points) == [
            ("smartphone/mono@48000", 48000, False, [0, 1]),
            ("car/stereo@48000", 48000, True, [2, 3]),
        ]
        plan = plan_sweep(scenario, data, points, AmbientCache(), "auto")
        assert [d.positions for d in plan.decisions] == [(0, 1), (2, 3)]

    def test_extraction_never_synthesizes(self):
        scenario = _tone_scenario()
        data, points = _prepared(scenario)
        cache = AmbientCache()
        plan = plan_sweep(scenario, data, points, cache, "auto")
        assert [len(d.positions) for d in plan.decisions] == [len(points)]
        assert len(cache) == 0
        assert cache.stats["misses"] == 0

    def test_measure_driven_grid_is_one_serial_partition(self):
        scenario = Scenario(
            name="md",
            sweep=SweepSpec.grid(a=(1, 2, 3)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        for setting in ("batched", "auto"):
            plan = plan_sweep(scenario, {}, scenario.sweep.points(), None, setting)
            (decision,) = plan.decisions
            assert decision.partition == "measure-driven"
            assert (decision.backend, decision.reason) == ("serial", "measure-driven")
            assert decision.point_indices == (0, 1, 2)


def _mono_row_decision(n_audio_samples):
    """``auto``'s decision for a 4-point mono partition of the given rows."""
    scenario = _tone_scenario(payload=np.full(n_audio_samples, 0.1))
    data, points = _prepared(scenario)
    (decision,) = plan_sweep(scenario, data, points, AmbientCache(), "auto").decisions
    return decision


class TestCostModel:
    """``auto``'s rules, one at a time."""

    def test_batched_excluded_when_cache_off(self):
        scenario = _tone_scenario()
        scenario.cache_ambient = False
        data, points = _prepared(scenario)
        for setting in ("batched", "auto"):
            plan = plan_sweep(scenario, data, points, None, setting)
            assert [(d.backend, d.reason) for d in plan.decisions] == [
                ("serial", "uncached")
            ]

    def test_mono_row_at_crossover_goes_batched(self):
        decision = _mono_row_decision(CROSSOVER_SAMPLES // 10)
        assert decision.n_samples == CROSSOVER_SAMPLES
        assert decision.partition == f"smartphone/mono@{CROSSOVER_SAMPLES}"
        assert (decision.backend, decision.reason) == ("batched", "short-rows")

    def test_mono_row_past_crossover_goes_serial(self):
        assert choose_backend(CROSSOVER_SAMPLES + 1, False) == ("serial", "long-rows")
        # The next row an audio-rate payload can produce, end to end.
        longer = _mono_row_decision(CROSSOVER_SAMPLES // 10 + 1)
        assert longer.n_samples > CROSSOVER_SAMPLES
        assert (longer.backend, longer.reason) == ("serial", "long-rows")

    def test_stereo_rows_follow_the_row_length_rule(self):
        # Fig. 13's own 2 s speech clip: 960,000-sample stereo rows.
        scenario = fig13.build_scenario("stereo_station", duration_s=2.0)
        data, points = _prepared(scenario)
        plan = plan_sweep(scenario, data, points, AmbientCache(), "auto")
        assert {d.n_samples for d in plan.decisions} == {960_000}
        for d in plan.decisions:
            assert "/stereo@" in d.partition
            assert (d.backend, d.reason) == ("serial", "long-rows")
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
            plan = plan_sweep(scenario, data, points, AmbientCache(), "auto")
            (stereo,) = [d for d in plan.decisions if "/stereo@" in d.partition]
            n_samples, choice = expected[label]
            assert stereo.n_samples == n_samples
            assert (stereo.backend, stereo.reason) == choice

    def test_stereo_row_at_crossover_goes_batched(self):
        assert choose_backend(STEREO_CROSSOVER_SAMPLES, True) == ("batched", "short-rows")
        assert choose_backend(STEREO_CROSSOVER_SAMPLES + 1, True) == ("serial", "long-rows")


class TestDecisionGates:
    """The crossover gates CI runs without trusting wall clocks."""

    def test_never_batched_on_fig08_long_row_grid(self):
        # 100 bps payload -> 0.4 s waveform -> 192k-sample rows, past
        # the mono crossover (CROSSOVER_SAMPLES) and long enough to
        # starve the chunker. The planner must never send this grid to
        # the batched executor.
        scenario = fig08.build_scenario("100bps", n_bits=40)
        data, points = _prepared(scenario)
        plan = plan_sweep(scenario, data, points, AmbientCache(), "auto")
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
        plan = plan_sweep(scenario, data, points, AmbientCache(), "auto")
        assert all(d.backend == "batched" for d in plan.decisions)
        covered = sorted(i for d in plan.decisions for i in d.point_indices)
        assert covered == list(range(len(points)))

    def test_fig08_3k2_benchmark_grid_all_serial(self):
        # The fig08_ber_3k2 benchmark workload's grid: 1 s FDM payload,
        # 480,000-sample mono rows, 5 powers x 8 distances.
        scenario = fig08.build_scenario("3.2kbps")
        data, points = _prepared(scenario)
        cache = AmbientCache()
        plan = plan_sweep(scenario, data, points, cache, "auto")
        assert [d.reason for d in plan.decisions] == ["long-rows"]
        assert plan.decisions[0].positions == tuple(range(40))
        assert plan.label == "auto[serial:40]"
        assert len(cache) == 0  # planned without synthesis

    def test_fig13_benchmark_grid_all_serial(self):
        # The fig13_stereo_pesq benchmark workload's grid: the stereo
        # station with 1 s speech clips (480,000-sample rows), 3 powers
        # x 6 distances, each point its own pool unit.
        scenario = fig13.build_scenario("stereo_station", duration_s=1.0)
        data, points = _prepared(scenario)
        cache = AmbientCache()
        plan = plan_sweep(scenario, data, points, cache, "auto")
        assert {d.reason for d in plan.decisions} == {"long-rows"}
        assert plan.label == "auto[serial:18]"
        assert plan.units == [(((pos,), 1),) for pos in range(18)]
        assert len(cache) == 0


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
        assert decision.chunk_rows == 4
        assert decision.n_samples == 24_000
        assert result.backend == "auto[batched:4]"

    def test_auto_with_cache_off_runs_serial(self):
        scenario = _tone_scenario(n_points=3)
        scenario.cache_ambient = False
        result = SweepRunner(scenario, rng=SEED, backend="auto").run()
        assert [d.backend for d in result.plan] == ["serial"]
        serial = SweepRunner(scenario, rng=SEED, backend="serial").run()
        assert result.values == serial.values

    def test_spec_fading_grid_splits_across_backends(self):
        # Fading specs resolve from each point's own stream, so a grid
        # whose partitions choose differently (short + long rows) splits
        # into a batched unit and one unit per long point.
        short = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)
        long_ = tone(1000.0, 0.5, AUDIO_RATE_HZ, amplitude=0.9)
        scenario = Scenario(
            name="spec-fading",
            sweep=SweepSpec.grid(row=("short", "long"), distance_ft=(2, 4)),
            prepare=lambda gen: {"short": short, "long": long_},
            base_chain={
                "program": "silence",
                "stereo_decode": False,
                "fading": MotionFadingSpec("running"),
            },
            chain_axes=("distance_ft",),
            payload=PayloadSelector("row", {"short": "short", "long": "long"}),
            measure=_mean_abs,
        )
        data, points = _prepared(scenario)
        plan = plan_sweep(scenario, data, points, AmbientCache(), "auto")
        assert {d.backend for d in plan.decisions} == {"batched", "serial"}
        assert len(plan.units) == 3  # the batched partition + 2 long points

    def test_single_point_grid_runs_serial_with_plan(self):
        scenario = _tone_scenario(n_points=1)
        for setting in ("serial", "batched", "auto"):
            result = SweepRunner(
                scenario, rng=SEED, cache=AmbientCache(), backend=setting
            ).run()
            assert result.backend == "serial"
            (decision,) = result.plan
            assert decision.point_indices == (0,)
            assert (decision.backend, decision.reason) == ("serial", "single-point")

    def test_serial_setting_records_its_plan(self):
        scenario = _tone_scenario(n_points=3)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="serial"
        ).run()
        assert result.backend == "serial"
        assert [
            (d.partition, d.point_indices, d.backend, d.chunk_rows, d.reason)
            for d in result.plan
        ] == [("smartphone/mono@24000", (0, 1, 2), "serial", 1, "requested")]

    def test_empty_shard_records_empty_plan(self):
        scenario = _tone_scenario(n_points=3)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="auto"
        ).run(point_slice=(1, 1))
        assert result.plan == []
        assert result.backend == "serial"


def _row_scenario(rows, **base_extra):
    """A 4-point grid of 0.05 s tone rows: one ``row`` axis whose values
    set each point's chain, every row at its own distance so a link
    budget names its point."""
    payload = tone(1000.0, 0.05, AUDIO_RATE_HZ, amplitude=0.9)
    return Scenario(
        name="rows",
        sweep=SweepSpec.grid(row=tuple(range(len(rows)))),
        prepare=lambda gen: {"payload": payload},
        base_chain=dict({"program": "news", "power_dbm": -30.0}, **base_extra),
        chain_value_params={
            "row": {i: dict(chain, distance_ft=2.0 + i) for i, chain in enumerate(rows)}
        },
        payload="payload",
        measure=_received,
    )


def _received(run):
    received = run.received
    return received.left.copy(), received.right.copy(), received.stereo_locked


def _record_stacks(monkeypatch):
    """Record every transmit_stack call as (row distances, chunk_rows)."""
    stacks = []
    real = common.transmit_stack

    def recording(chains, payload_audio, rngs, chunk_rows=None):
        stacks.append((tuple(c.distance_ft for c in chains), chunk_rows))
        return real(chains, payload_audio, rngs, chunk_rows=chunk_rows)

    monkeypatch.setattr(common, "transmit_stack", recording)
    return stacks


def _planned_stacks(result, distance):
    """The stacks ``result.plan`` names, as (row distances, chunk_rows):
    one per batched decision at its chunk rows, and one 1-row stack per
    member of a serial decision. ``distance`` maps a grid index to its
    point's distance."""
    stacks = []
    for d in result.plan:
        if d.backend == "batched":
            stacks.append((tuple(distance[i] for i in d.point_indices), d.chunk_rows))
        else:
            stacks += [((distance[i],), 1) for i in d.point_indices]
    return sorted(stacks)


AGC_ROWS = [{"agc": agc} for agc in (False, True, False, True)]
CAR_ROWS = [
    {"receiver_kind": "car", "stereo_decode": stereo}
    for stereo in (False, True, False, True)
]


class TestPlanMatchesExecutor:
    """The plan is what ran: each batched decision is exactly one stack
    at its chunk rows, and each serial decision one 1-row stack per
    member."""

    @pytest.mark.parametrize("setting", ["batched", "auto"])
    @pytest.mark.parametrize("rows", [AGC_ROWS, CAR_ROWS], ids=["agc", "car-stereo-decode"])
    def test_each_batched_decision_is_one_stack(self, monkeypatch, setting, rows):
        stacks = _record_stacks(monkeypatch)
        scenario = _row_scenario(rows, stereo_decode=False)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend=setting
        ).run()
        distance = {p.index: 2.0 + p["row"] for p in result.points}
        assert sorted(stacks) == _planned_stacks(result, distance)
        # AGC applies row by row and the car radio always decodes
        # stereo, so all four rows are one stack and one decision.
        batched = [d for d in result.plan if d.backend == "batched"]
        assert [len(d.point_indices) for d in batched] == [4]
        assert result.backend in ("batched[4/4]", "auto[batched:4]")

    @pytest.mark.parametrize("setting", ["serial", "batched", "auto"])
    def test_split_grid_runs_its_plan(self, monkeypatch, setting):
        # auto stacks the short rows and runs each long row as a stack of
        # one; the other settings run every partition their one way.
        stacks = _record_stacks(monkeypatch)
        short = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)
        long_ = tone(1000.0, 0.5, AUDIO_RATE_HZ, amplitude=0.9)
        scenario = Scenario(
            name="split",
            sweep=SweepSpec.grid(row=("short", "long"), distance_ft=(2.0, 3.0, 4.0)),
            prepare=lambda gen: {"short": short, "long": long_},
            base_chain={"program": "silence", "stereo_decode": False},
            chain_axes=("distance_ft",),
            payload=PayloadSelector("row", {"short": "short", "long": "long"}),
            measure=_mean_abs,
        )
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend=setting
        ).run()
        distance = {p.index: p["distance_ft"] for p in result.points}
        assert sorted(stacks) == _planned_stacks(result, distance)
        expected = {
            "serial": ["serial", "serial"],
            "batched": ["batched", "batched"],
            "auto": ["batched", "serial"],
        }
        assert [d.backend for d in result.plan] == expected[setting]


class TestForcedChunking:
    """A stack split into row chunks equals the unchunked stack."""

    @pytest.mark.parametrize(
        "rows",
        [
            [{"stereo_decode": False}] * 4,
            [{"stereo_decode": True}] * 4,
            [{"receiver_kind": "car"}] * 4,
        ],
        ids=["phone-mono", "phone-stereo", "car"],
    )
    def test_chunked_stack_matches_unchunked(self, monkeypatch, rows):
        def run():
            return SweepRunner(
                _row_scenario(rows), rng=SEED, cache=AmbientCache(), backend="batched"
            ).run()

        whole = run()
        assert [d.chunk_rows for d in whole.plan] == [4]
        row_mb = whole.plan[0].n_samples * planner._TRANSMIT_BYTES_PER_SAMPLE / 1e6
        stacks = _record_stacks(monkeypatch)
        for chunk in (1, 2, 3):
            monkeypatch.setattr(planner, "BATCH_MAX_MB", (chunk + 0.5) * row_mb)
            chunked = run()
            assert [d.chunk_rows for d in chunked.plan] == [chunk]
            assert stacks[-1][1] == chunk
            for got, want in zip(chunked.values, whole.values):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert got[2] == want[2]

"""Sharded sweeps: ``point_slice`` execution + ``SweepResult.merge``.

The kernel of the ROADMAP's sharded-sweeps item: a shard is a contiguous
slice of ``spec.points()`` executed with the same pre-derived seeds, so
shards run anywhere (any backend, any machine sharing the cache dir) and
merge back into a result bit-identical to the whole-grid run.
"""

import pytest

from repro.audio.tones import tone
from repro.constants import AUDIO_RATE_HZ
from repro.engine import (
    AmbientCache,
    PayloadSelector,
    Scenario,
    SweepResult,
    SweepRunner,
    SweepSpec,
)
from repro.errors import ConfigurationError

SEED = 2017


def _draw(run):
    """Measure whose value exposes the point's private stream."""
    return (run.point["a"], run.point["b"], float(run.rng.random()))


def rng_scenario() -> Scenario:
    return Scenario(
        name="shards",
        sweep=SweepSpec.grid(a=(1, 2, 3), b=(10.0, 20.0)),
        measure=_draw,
        cache_ambient=False,
    )


class TestPointSlice:
    def test_shards_reproduce_the_whole_grid_streams(self):
        whole = SweepRunner(rng_scenario(), rng=SEED).run()
        first = SweepRunner(rng_scenario(), rng=SEED).run(point_slice=(0, 2))
        rest = SweepRunner(rng_scenario(), rng=SEED).run(point_slice=(2, 6))
        assert first.values == whole.values[:2]
        assert rest.values == whole.values[2:]
        assert [p.index for p in first.points] == [0, 1]
        assert [p.index for p in rest.points] == [2, 3, 4, 5]

    def test_invalid_slices_rejected(self):
        runner = SweepRunner(rng_scenario(), rng=SEED)
        for bad in ((-1, 3), (0, 7), (3, 1)):
            with pytest.raises(ConfigurationError):
                runner.run(point_slice=bad)
        with pytest.raises(ConfigurationError):
            runner.run(point_slice=(0.0, 2))

    def test_empty_shard_is_valid(self):
        # A launcher re-slicing a shard can produce a degenerate empty
        # range; start == stop must execute as a no-op, not crash.
        empty = SweepRunner(rng_scenario(), rng=SEED).run(point_slice=(2, 2))
        assert len(empty) == 0
        assert empty.values == []
        assert empty.points == []

    def test_empty_shard_merges_as_a_no_op(self):
        whole = SweepRunner(rng_scenario(), rng=SEED).run()
        shards = [
            SweepRunner(rng_scenario(), rng=SEED).run(point_slice=bounds)
            for bounds in ((0, 3), (3, 3), (3, 6))
        ]
        merged = SweepResult.merge(*shards)
        assert merged.values == whole.values
        assert [p.index for p in merged.points] == list(range(6))

    def test_numpy_integer_bounds_accepted(self):
        import numpy as np

        whole = SweepRunner(rng_scenario(), rng=SEED).run()
        shard = SweepRunner(rng_scenario(), rng=SEED).run(
            point_slice=(np.int64(0), np.int64(2))
        )
        assert shard.values == whole.values[:2]

    def test_malformed_slice_containers_rejected(self):
        runner = SweepRunner(rng_scenario(), rng=SEED)
        for bad in ((0, 2, 4), 5, (1,)):
            with pytest.raises(ConfigurationError):
                runner.run(point_slice=bad)

    def test_partial_result_refuses_series_slicing(self):
        shard = SweepRunner(rng_scenario(), rng=SEED).run(point_slice=(0, 3))
        with pytest.raises(KeyError, match="merge"):
            shard.series(along="a", b=10.0)

    def test_single_point_shard_executes_serially(self):
        result = SweepRunner(
            rng_scenario(), rng=SEED, backend="auto", max_workers=4
        ).run(point_slice=(3, 4))
        assert result.backend == "serial"
        assert len(result) == 1


class TestMerge:
    def test_round_trip_equals_whole_grid_run(self):
        whole = SweepRunner(rng_scenario(), rng=SEED).run()
        shards = [
            SweepRunner(rng_scenario(), rng=SEED).run(point_slice=bounds)
            for bounds in ((0, 2), (2, 5), (5, 6))
        ]
        # Shard arrival order must not matter.
        merged = SweepResult.merge(shards[2], shards[0], shards[1])
        assert merged.values == whole.values
        assert [p.index for p in merged.points] == list(range(6))
        assert merged.spec.axes == whole.spec.axes
        assert merged.backend == "merged[3]"
        assert merged.series(along="a", b=10.0) == whole.series(along="a", b=10.0)

    def test_merge_sums_metadata(self):
        shards = [
            SweepRunner(rng_scenario(), rng=SEED).run(point_slice=bounds)
            for bounds in ((0, 3), (3, 6))
        ]
        merged = SweepResult.merge(*shards)
        assert merged.elapsed_s == pytest.approx(sum(s.elapsed_s for s in shards))
        assert merged.cache_stats is None  # caching was off in every shard

    def test_merge_with_chain_scenario_and_shared_cache(self):
        from repro.experiments import fig08_ber_overlay as fig08

        def runner():
            # A small Fig. 8-style grid, rebuilt per call so each run
            # derives its streams from a fresh seed-2017 generator.
            from repro.data.bits import random_bits
            from repro.engine import AxisRef
            from repro.utils.rand import child_generator

            modem = fig08.make_modem("100bps")

            def prepare(gen):
                bits = random_bits(24, child_generator(gen, "payload", "100bps"))
                return {"bits": bits, "waveform": modem.modulate(bits)}

            scenario = Scenario(
                name="fig08",
                sweep=SweepSpec.grid(power_dbm=(-55.0, -60.0), distance_ft=(8, 16)),
                prepare=prepare,
                base_chain={"program": "news", "stereo_decode": False},
                chain_axes=("power_dbm", "distance_ft"),
                rng_keys=("100bps", AxisRef("power_dbm"), AxisRef("distance_ft")),
                payload="waveform",
                measure=fig08.score_ber,
                measure_params={"modem": modem},
            )
            return scenario

        cache = AmbientCache()
        whole = SweepRunner(runner(), rng=SEED, cache=cache).run()
        shard_a = SweepRunner(runner(), rng=SEED, cache=cache).run(point_slice=(0, 2))
        shard_b = SweepRunner(runner(), rng=SEED, cache=cache).run(point_slice=(2, 4))
        merged = SweepResult.merge(shard_a, shard_b)
        assert merged.values == whole.values
        assert merged.cache_stats is not None

    def test_overlapping_shards_rejected(self):
        a = SweepRunner(rng_scenario(), rng=SEED).run(point_slice=(0, 3))
        b = SweepRunner(rng_scenario(), rng=SEED).run(point_slice=(2, 6))
        with pytest.raises(ConfigurationError, match="more than one shard"):
            SweepResult.merge(a, b)

    def test_incomplete_coverage_rejected(self):
        a = SweepRunner(rng_scenario(), rng=SEED).run(point_slice=(0, 3))
        with pytest.raises(ConfigurationError, match="cover"):
            SweepResult.merge(a)

    def test_mismatched_specs_rejected(self):
        a = SweepRunner(rng_scenario(), rng=SEED).run()
        other = Scenario(
            name="other",
            sweep=SweepSpec.grid(a=(1, 2)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        b = SweepRunner(other, rng=SEED).run()
        with pytest.raises(ConfigurationError, match="different sweeps"):
            SweepResult.merge(a, b)

    def test_same_axes_different_scenarios_rejected(self):
        # Two unrelated experiments can share a grid shape; their shards
        # must not stitch into one mixed-up "whole" result.
        imposter = Scenario(
            name="imposter",
            sweep=SweepSpec.grid(a=(1, 2, 3), b=(10.0, 20.0)),
            measure=_draw,
            cache_ambient=False,
        )
        a = SweepRunner(rng_scenario(), rng=SEED).run(point_slice=(0, 3))
        b = SweepRunner(imposter, rng=SEED).run(point_slice=(3, 6))
        with pytest.raises(ConfigurationError, match="different scenarios"):
            SweepResult.merge(a, b)

    def test_empty_merge_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepResult.merge()


def _mean_abs(run):
    import numpy as np

    return float(np.mean(np.abs(run.received.mono)))


class TestPlanMerge:
    """``SweepResult.plan`` propagation across shards under ``auto``."""

    def _two_row_scenario(self) -> Scenario:
        # One grid, two payload lengths via PayloadSelector: the short
        # half's 9,600-sample rows sit under the planner's
        # CROSSOVER_SAMPLES and batch, the long half's 240,000-sample
        # rows run serially — a single sweep whose partitions (and hence
        # shards) execute under different chosen backends.
        short = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)
        long_ = tone(1000.0, 0.5, AUDIO_RATE_HZ, amplitude=0.9)
        return Scenario(
            name="rows",
            sweep=SweepSpec.grid(row=("short", "long"), distance_ft=(2, 4, 8, 16)),
            prepare=lambda gen: {"short": short, "long": long_},
            base_chain={"program": "silence", "stereo_decode": False},
            chain_axes=("distance_ft",),
            payload=PayloadSelector("row", {"short": "short", "long": "long"}),
            measure=_mean_abs,
        )

    def test_heterogeneous_shards_merge_with_plans(self):
        cache = AmbientCache()
        whole = SweepRunner(
            self._two_row_scenario(), rng=SEED, cache=cache, backend="auto"
        ).run()
        # Points 0-3 are the short rows, 4-7 the long rows (row-major).
        shards = [
            SweepRunner(
                self._two_row_scenario(), rng=SEED, cache=cache, backend="auto"
            ).run(point_slice=bounds)
            for bounds in ((0, 4), (4, 8))
        ]
        assert shards[0].plan[0].backend == "batched"
        assert shards[0].backend == "auto[batched:4]"
        assert shards[1].plan[0].backend == "serial"
        assert shards[1].backend == "auto[serial:4]"

        merged = SweepResult.merge(shards[1], shards[0])
        assert merged.values == whole.values
        assert merged.backend == "merged[2]"
        # Decisions concatenate in grid order with global indices; the
        # batch-eligible short rows are all planned onto the stack.
        assert [d.backend for d in merged.plan] == ["batched", "serial"]
        assert merged.plan[0].point_indices == (0, 1, 2, 3)
        assert sorted(
            i for d in merged.plan for i in d.point_indices
        ) == list(range(8))

    def test_whole_grid_auto_plans_both_backends(self):
        result = SweepRunner(
            self._two_row_scenario(), rng=SEED, cache=AmbientCache(), backend="auto"
        ).run()
        assert {d.backend for d in result.plan} == {"batched", "serial"}
        assert result.backend == "auto[batched:4+serial:4]"
        serial = SweepRunner(
            self._two_row_scenario(), rng=SEED, cache=AmbientCache(), backend="serial"
        ).run()
        assert result.values == serial.values

    def test_explicit_backend_shard_merges_plan(self):
        cache = AmbientCache()
        auto_shard = SweepRunner(
            self._two_row_scenario(), rng=SEED, cache=cache, backend="auto"
        ).run(point_slice=(0, 4))
        serial_shard = SweepRunner(
            self._two_row_scenario(), rng=SEED, cache=cache, backend="serial"
        ).run(point_slice=(4, 8))
        # Every setting records its plan, so the shards' plans merge.
        assert [(d.backend, d.reason) for d in serial_shard.plan] == [
            ("serial", "requested")
        ]
        merged = SweepResult.merge(auto_shard, serial_shard)
        assert [(d.point_indices, d.backend) for d in merged.plan] == [
            ((0, 1, 2, 3), "batched"), ((4, 5, 6, 7), "serial")
        ]
        # A shard without a plan (one built by hand) drops the merged plan.
        serial_shard.plan = None
        assert SweepResult.merge(auto_shard, serial_shard).plan is None

"""Determinism tests for the sweep runner.

The engine's contract: one seed fixes every per-point stream before
execution starts, so the same scenario produces bit-identical series
whether it runs serially, across a thread pool, or through the legacy
hand-rolled nested loop it replaced.
"""

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.constants import AUDIO_RATE_HZ
from repro.dsp.spectrum import tone_snr_db
from repro.engine import (
    AmbientCache, AxisRef, Scenario, SweepRunner, SweepSpec, default_max_workers,
)
from repro.errors import ConfigurationError
from repro.experiments import fig08_ber_overlay as fig08
from repro.experiments.common import ExperimentChain
from repro.utils.rand import as_generator, child_generator, derive_seed

POWERS = (-20.0, -40.0)
DISTANCES = (2, 8)
SEED = 2017


@pytest.fixture(scope="module")
def payload():
    return tone(1000.0, 0.2, AUDIO_RATE_HZ, amplitude=0.9)


def _snr_scenario(payload, cache_ambient):
    """The Fig. 7 sweep shape: tone SNR over a power × distance grid."""

    def measure(run):
        received = run.chain.transmit(payload, run.rng)
        return tone_snr_db(run.chain.payload_channel(received), AUDIO_RATE_HZ, 1000.0)

    return Scenario(
        name="fig7",
        sweep=SweepSpec.grid(power_dbm=POWERS, distance_ft=DISTANCES),
        base_chain={"program": "silence", "stereo_decode": False},
        chain_axes=("power_dbm", "distance_ft"),
        rng_keys=("fig7", AxisRef("power_dbm"), AxisRef("distance_ft")),
        measure=measure,
        cache_ambient=cache_ambient,
    )


def _legacy_loop(payload):
    """The hand-rolled nested loop the engine replaced, draw for draw."""
    gen = as_generator(SEED)
    series = []
    for power in POWERS:
        for distance in DISTANCES:
            chain = ExperimentChain(
                program="silence",
                power_dbm=power,
                distance_ft=distance,
                stereo_decode=False,
            )
            received = chain.transmit(
                payload, child_generator(gen, "fig7", power, distance)
            )
            series.append(
                tone_snr_db(chain.payload_channel(received), AUDIO_RATE_HZ, 1000.0)
            )
    return series


class TestDeriveSeed:
    def test_pure_function_of_arguments(self):
        assert derive_seed(7, "fig7", -40.0, 8) == derive_seed(7, "fig7", -40.0, 8)

    def test_sensitive_to_master_and_keys(self):
        base = derive_seed(7, "fig7", -40.0, 8)
        assert derive_seed(8, "fig7", -40.0, 8) != base
        assert derive_seed(7, "fig7", -20.0, 8) != base

    def test_matches_child_generator_streams(self):
        # child_generator is now a thin wrapper over derive_seed; the two
        # derivations must stay interchangeable for legacy parity.
        gen = as_generator(SEED)
        master = int(as_generator(SEED).integers(0, 2**31))
        a = child_generator(gen, "k", 3).integers(0, 1000, size=8)
        b = np.random.default_rng(derive_seed(master, "k", 3)).integers(0, 1000, size=8)
        assert np.array_equal(a, b)


class TestSerialParallelLegacyParity:
    def test_engine_reproduces_legacy_loop_exactly(self, payload):
        # Same seed, caching off (the legacy loops synthesized ambient
        # per point): the engine must consume the identical RNG draws and
        # return the identical SNR series.
        result = SweepRunner(_snr_scenario(payload, cache_ambient=False), rng=SEED).run()
        assert result.values == _legacy_loop(payload)
        assert result.cache_stats is None

    def test_serial_and_parallel_identical_uncached(self, payload):
        # Backends pinned explicitly: this test is about serial-vs-pool
        # parity and must not change meaning when REPRO_SWEEP_BACKEND
        # forces a different backend (CI runs a batched-backend leg).
        # The measure transmits itself, so auto runs one unit per point.
        scenario = _snr_scenario(payload, cache_ambient=False)
        serial = SweepRunner(scenario, rng=SEED, max_workers=1, backend="serial").run()
        parallel = SweepRunner(scenario, rng=SEED, max_workers=4, backend="auto").run()
        assert serial.values == parallel.values
        assert serial.n_workers == 1 and parallel.n_workers == 4

    def test_serial_and_parallel_identical_cached(self, payload):
        # Separate fresh caches: equality proves the synthesis itself is
        # deterministic, not merely that both runs read one shared array.
        scenario = _snr_scenario(payload, cache_ambient=True)
        serial = SweepRunner(scenario, rng=SEED, cache=AmbientCache(), max_workers=1).run()
        parallel = SweepRunner(scenario, rng=SEED, cache=AmbientCache(), max_workers=4).run()
        assert serial.values == parallel.values
        assert serial.cache_stats == parallel.cache_stats
        assert serial.cache_stats["misses"] >= 1

    def test_fig08_run_identical_across_worker_counts(self, monkeypatch):
        # The public figure entry point, driven purely through the
        # environment override — no call-site changes needed.
        kwargs = dict(
            rate="100bps",
            powers_dbm=(-20.0, -60.0),
            distances_ft=(2, 8),
            n_bits=20,
            rng=SEED,
        )
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        serial = fig08.run(**kwargs)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        parallel = fig08.run(**kwargs)
        assert serial == parallel
        assert set(serial) == {"distances_ft", "P-20", "P-60"}

    def test_different_seeds_differ(self, payload):
        scenario = _snr_scenario(payload, cache_ambient=False)
        a = SweepRunner(scenario, rng=1).run()
        b = SweepRunner(scenario, rng=2).run()
        assert a.values != b.values


class TestWorkerConfiguration:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_max_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "6")
        assert default_max_workers() == 6

    def test_env_rejects_non_positive_counts(self, monkeypatch):
        # Strict knob parsing: a nonsensical worker count is a
        # configuration error naming the value, not a silent clamp to 1.
        for raw in ("0", "-3"):
            monkeypatch.setenv("REPRO_SWEEP_WORKERS", raw)
            with pytest.raises(ConfigurationError, match=raw):
                default_max_workers()

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            default_max_workers()

    @pytest.mark.parametrize("count", [0, -3, 2.7, "2", True])
    def test_argument_rejects_anything_but_a_positive_int(self, count):
        # The argument is as strict as the environment variable: no
        # silent clamp to one worker, no truncation of 2.7 to 2.
        scenario = Scenario(
            name="w", sweep=SweepSpec.grid(a=(1,)), measure=lambda run: 0.0
        )
        with pytest.raises(ConfigurationError, match=repr(count).replace(".", r"\.")):
            SweepRunner(scenario, max_workers=count)

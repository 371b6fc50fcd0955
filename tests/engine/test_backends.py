"""Golden-seed equivalence of the sweep backends.

The engine's contract: the per-point streams are pre-derived from the
sweep generator, so ``serial`` and ``batched`` execution — and ``auto``,
which may split one grid across both and run the pieces on a thread
pool of any size — return bit-identical results: on a data-BER scenario
(Fig. 8), an audio-metric scenario (Fig. 7) and the stereo-decoding
scenarios (Fig. 10/13, whose pilot PLL the batched backend vectorizes
through the multi-waveform ``track_batch``) alike.
"""

import re

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.constants import AUDIO_RATE_HZ
from repro.data.fdm import FdmFskModem
from repro.engine import (
    AmbientCache,
    Scenario,
    SweepRunner,
    SweepSpec,
    default_backend,
)
from repro.errors import ConfigurationError
from repro.experiments import fig07_snr_distance as fig07
from repro.experiments import fig08_ber_overlay as fig08
from repro.experiments import fig10_stereo_ber as fig10
from repro.experiments import fig13_pesq_stereo as fig13

SEED = 2017
BACKENDS = ("serial", "auto:2", "auto:4", "batched", "auto")
"""Rows ``backend[:REPRO_SWEEP_WORKERS]``, serial first."""

FIG08_KWARGS = dict(
    rate="1.6kbps",
    powers_dbm=(-55.0, -60.0),
    distances_ft=(8, 16),
    n_bits=48,
    rng=SEED,
)
FIG07_KWARGS = dict(
    powers_dbm=(-30.0, -60.0),
    distances_ft=(2, 8),
    duration_s=0.15,
    rng=SEED,
)
FIG10_KWARGS = dict(distances_ft=(2, 4), n_bits=48, rng=SEED)
FIG13_KWARGS = dict(
    powers_dbm=(-20.0, -40.0),
    distances_ft=(1, 4),
    duration_s=0.2,
    rng=SEED,
)


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def fig08_by_backend(self):
        return {
            backend: self._run_with_backend(fig08.run, FIG08_KWARGS, backend)
            for backend in BACKENDS
        }

    @pytest.fixture(scope="class")
    def fig07_by_backend(self):
        return {
            backend: self._run_with_backend(fig07.run, FIG07_KWARGS, backend)
            for backend in BACKENDS
        }

    @staticmethod
    def _run_with_backend(run, kwargs, row):
        import os

        backend, _, workers = row.partition(":")
        settings = {"REPRO_SWEEP_BACKEND": backend}
        if workers:
            settings["REPRO_SWEEP_WORKERS"] = workers
        before = {name: os.environ.get(name) for name in settings}
        os.environ.update(settings)
        try:
            return run(**kwargs)
        finally:
            for name, value in before.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    def test_data_ber_scenario_identical_across_backends(self, fig08_by_backend):
        serial = fig08_by_backend["serial"]
        # The grid sits on the BER cliff, so the values are non-trivial —
        # a shifted noise stream would visibly change them.
        assert any(v > 0 for key in ("P-55", "P-60") for v in serial[key])
        for backend in BACKENDS[1:]:
            assert fig08_by_backend[backend] == serial, backend

    def test_audio_metric_scenario_identical_across_backends(self, fig07_by_backend):
        serial = fig07_by_backend["serial"]
        for backend in BACKENDS[1:]:
            assert fig07_by_backend[backend] == serial, backend

    def test_stereo_ber_scenario_identical_across_backends(self):
        # Fig. 10 mixes overlay (mono decode) and stereo (pilot PLL)
        # points in one grid; every row must agree bit for bit.
        by_backend = {
            backend: self._run_with_backend(fig10.run, FIG10_KWARGS, backend)
            for backend in BACKENDS
        }
        serial = by_backend["serial"]
        for backend in BACKENDS[1:]:
            assert by_backend[backend] == serial, backend

    def test_stereo_pesq_scenario_identical_across_backends(self):
        # Fig. 13 stereo-decodes at every point, with the pilot gate
        # flipping between lock and mono fallback across the power axis.
        by_backend = {
            backend: self._run_with_backend(fig13.run, FIG13_KWARGS, backend)
            for backend in BACKENDS
        }
        serial = by_backend["serial"]
        for backend in BACKENDS[1:]:
            assert by_backend[backend] == serial, backend

    def test_batched_handles_mixed_receivers_in_one_front_end_group(self):
        # A receiver-kind axis shares one front end across phone and car
        # points; the batched backend must partition the group — the mono
        # phone half through receive_mono_batch, the car half (whose
        # radio always runs its stereo decoder) through the
        # multi-waveform-PLL stereo batch — and stay bit-identical to
        # serial with zero per-point fallbacks.
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
        serial = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="serial"
        ).run()
        batched = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert batched.values == serial.values
        assert batched.backend == "batched[4/4]"
        # Two partitions (phone mono, car stereo), both on the stack; the
        # serial setting records the same partitions, run per point.
        assert [d.backend for d in batched.plan] == ["batched", "batched"]
        assert [(d.backend, d.reason) for d in serial.plan] == [
            ("serial", "requested"), ("serial", "requested")
        ]

    def test_fig10_batched_takes_zero_stereo_fallbacks(self):
        # The acceptance bar for the multi-waveform pilot PLL: the exact
        # Fig. 10 grid vectorizes completely — no per-point fallback on
        # the stereo-decoding half — and matches serial bit for bit.
        scenario = fig10.build_scenario(
            "1.6k", FdmFskModem(symbol_rate=200), distances_ft=(2, 4), n_bits=48
        )
        serial = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="serial"
        ).run()
        batched = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert batched.backend == "batched[4/4]"
        assert all(d.backend == "batched" for d in batched.plan)
        assert batched.values == serial.values

    def test_fig13_batched_takes_zero_stereo_fallbacks(self):
        scenario = fig13.build_scenario(
            "stereo_station",
            powers_dbm=(-20.0, -40.0),
            distances_ft=(1, 4),
            duration_s=0.2,
        )
        serial = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="serial"
        ).run()
        batched = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert batched.backend == "batched[4/4]"
        assert all(d.backend == "batched" for d in batched.plan)
        assert batched.values == serial.values
        # The grid must actually exercise the stereo decoder.
        assert any(locked for _, locked in batched.values)

    def test_batched_backend_reports_vectorized_points(self):
        payload = tone(1000.0, 0.1, AUDIO_RATE_HZ, amplitude=0.9)
        scenario = Scenario(
            name="label",
            sweep=SweepSpec.grid(power_dbm=(-20.0, -40.0), distance_ft=(2, 8)),
            prepare=lambda gen: {"payload": payload},
            base_chain={"program": "silence", "stereo_decode": False},
            chain_axes=("power_dbm", "distance_ft"),
            payload="payload",
            measure=_mean_abs,
        )
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert result.backend == "batched[4/4]"
        assert result.n_workers == 1


def _mean_abs(run):
    return float(np.mean(np.abs(run.received.mono)))


class TestBackendConfiguration:
    def test_env_backend_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "gpu")
        with pytest.raises(ConfigurationError):
            default_backend()

    def test_env_backend_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)
        assert default_backend() is None

    def test_constructor_rejects_unknown_backend(self):
        scenario = Scenario(
            name="x", sweep=SweepSpec.grid(a=(1,)), measure=_mean_abs
        )
        with pytest.raises(ConfigurationError):
            SweepRunner(scenario, backend="fiber")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_deleted_backends_rejected(self, backend, monkeypatch):
        scenario = Scenario(
            name="x", sweep=SweepSpec.grid(a=(1,)), measure=_mean_abs
        )
        choices = re.escape("('serial', 'batched', 'auto')")
        with pytest.raises(ConfigurationError, match=choices):
            SweepRunner(scenario, backend=backend)
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", backend)
        with pytest.raises(ConfigurationError, match=f"REPRO_SWEEP_BACKEND.*{choices}"):
            SweepRunner(scenario)

    def test_worker_count_sizes_the_auto_pool(self, monkeypatch):
        # A worker count never selects a setting: it sizes the pool auto
        # runs on, one unit per measure-driven point here.
        monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)
        scenario = Scenario(
            name="pool",
            sweep=SweepSpec.grid(a=(1, 2, 3, 4, 5, 6)),
            measure=lambda run: float(run.rng.random()),
            cache_ambient=False,
        )
        runner = SweepRunner(scenario, rng=SEED, max_workers=4)
        assert runner.backend == "auto"
        result = runner.run()
        assert result.backend == "auto[serial:6]"
        assert result.n_workers == 4
        serial = SweepRunner(scenario, rng=SEED, backend="serial").run()
        assert result.values == serial.values

    def test_single_point_grid_reports_serial_execution(self):
        scenario = Scenario(
            name="one",
            sweep=SweepSpec.grid(a=(1,)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        result = SweepRunner(scenario, rng=SEED, backend="batched").run()
        assert result.backend == "serial"
        assert result.values == [1]

    def test_serial_label_recorded(self):
        scenario = Scenario(
            name="label",
            sweep=SweepSpec.grid(a=(1, 2)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        result = SweepRunner(scenario, rng=SEED, backend="serial").run()
        assert result.backend == "serial"
        assert result.values == [1, 2]

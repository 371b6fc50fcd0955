"""Deployment layer: channel plans, MAC routing, backend determinism.

The acceptance bars from the deployment work:

- same seed -> identical per-device frame outcomes on the serial and
  batched backends and on ``auto`` at several pool sizes (the engine's
  pre-derived-stream contract extended to many-device points);
- one ambient synthesis per grid, not per device;
- a warm ``REPRO_CACHE_DIR`` run performs zero ambient syntheses
  regardless of device count.
"""

import numpy as np
import pytest

from repro.engine import (
    AmbientCache,
    ChannelPlan,
    DeploymentScenario,
    DeviceSpec,
    ReceiverPlacement,
    SweepRunner,
    make_roster,
)
from repro.data.mac import SlottedAlohaSimulator
from repro.errors import ConfigurationError

SEED = 2017
RUNS = (("serial", None), ("auto", 2), ("auto", 4), ("batched", None))
"""``(backend, max_workers)`` rows, serial first."""

# Two free channels in reach => three devices already force ALOHA
# sharing, while frames stay short (tiny payloads) for test speed.
TIGHT_PLAN = ChannelPlan(policy="auto", max_shift_channels=2, slots_per_frame=4)


def small_deployment(**overrides) -> DeploymentScenario:
    kwargs = dict(
        name="test-deploy",
        devices=make_roster(3, payload_format="D{i}"),
        plan=TIGHT_PLAN,
        axes={"n_devices": (1, 3)},
    )
    kwargs.update(overrides)
    return DeploymentScenario(**kwargs)


class TestChannelPlan:
    def test_auto_policy_dedicates_then_shares(self):
        assignment = TIGHT_PLAN.assign(4)
        assert assignment.channels == (49, 51, 51, 51)
        assert assignment.shared == (False, True, True, True)
        assert assignment.sharing_indices == (1, 2, 3)
        assert assignment.n_served == 4

    def test_all_dedicated_when_channels_suffice(self):
        assignment = TIGHT_PLAN.assign(2)
        assert assignment.channels == (49, 51)
        assert assignment.shared == (False, False)

    def test_dedicated_policy_leaves_overflow_unserved(self):
        plan = ChannelPlan(policy="dedicated", max_shift_channels=2)
        assignment = plan.assign(3)
        assert assignment.channels == (49, 51, -1)
        assert assignment.fbacks_hz[2] == 0.0
        assert assignment.shared == (False, False, False)

    def test_aloha_policy_shares_one_channel(self):
        plan = ChannelPlan(policy="aloha")
        assignment = plan.assign(3)
        # The quietest free channel in reach of channel 50 is 53 (-95 dBm).
        assert assignment.channels == (53, 53, 53)
        assert all(assignment.shared)

    def test_single_device_aloha_is_uncontended(self):
        assignment = ChannelPlan(policy="aloha").assign(1)
        assert assignment.shared == (False,)

    def test_snapshot_of_only_free_channels_overflows_to_sharing(self):
        # A snapshot listing nothing but free channels drains the
        # observation pool before the roster is served; allocation must
        # return the prefix (and `auto` then shares), not crash.
        plan = ChannelPlan(
            policy="auto",
            band_snapshot=((49, -90.0), (51, -91.0)),
            max_shift_channels=2,
        )
        assignment = plan.assign(3)
        assert assignment.channels == (51, 49, 49)
        assert assignment.shared == (False, True, True)

    def test_no_free_channel_raises(self):
        crowded = tuple((c, -40.0) for c in range(46, 55))
        plan = ChannelPlan(policy="aloha", band_snapshot=crowded)
        with pytest.raises(ConfigurationError, match="free channel"):
            plan.assign(2)

    def test_fbacks_map_source_to_assigned_channel(self):
        assignment = TIGHT_PLAN.assign(2)
        assert assignment.fbacks_hz == (200e3, 200e3)

    def test_plan_routes_scanner(self):
        assert TIGHT_PLAN.occupied_channels() == [48, 50, 52]
        assert TIGHT_PLAN.free_channels() == [49, 51]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelPlan(policy="tdma")


class TestFramedAloha:
    def test_frame_outcome_shape_and_determinism(self):
        sim = SlottedAlohaSimulator(n_devices=5, transmit_probability=0.2)
        a = sim.frame_outcome(8, rng=7)
        b = sim.frame_outcome(8, rng=7)
        assert a.shape == (5,)
        assert a.dtype == bool
        assert np.array_equal(a, b)

    def test_single_device_always_succeeds(self):
        sim = SlottedAlohaSimulator(n_devices=1, transmit_probability=1.0)
        assert sim.frame_outcome(4, rng=0).tolist() == [True]

    def test_one_slot_with_contention_always_collides(self):
        sim = SlottedAlohaSimulator(n_devices=3, transmit_probability=1.0)
        assert sim.frame_outcome(1, rng=0).tolist() == [False, False, False]

    def test_framed_success_probability(self):
        sim = SlottedAlohaSimulator(n_devices=3, transmit_probability=0.5)
        assert sim.framed_success_probability(4) == pytest.approx((3 / 4) ** 2)
        assert SlottedAlohaSimulator(1, 0.5).framed_success_probability(4) == 1.0


class TestDeploymentValidation:
    def test_empty_roster_rejected(self):
        with pytest.raises(ConfigurationError):
            DeploymentScenario(name="x", devices=())

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown deployment axes"):
            small_deployment(axes={"n_antennas": (1,)})

    def test_audio_traffic_rejects_mac_axes(self):
        with pytest.raises(ConfigurationError, match="slots_per_frame"):
            DeploymentScenario(
                name="x",
                devices=(DeviceSpec(name="poster"),),
                traffic="audio",
                axes={"slots_per_frame": (2, 4)},
            )

    def test_n_devices_axis_bounded_by_roster(self):
        with pytest.raises(ConfigurationError, match="roster"):
            small_deployment(axes={"n_devices": (1, 9)})

    def test_device_back_amplitude_validated_at_construction(self):
        with pytest.raises(ConfigurationError, match="back_amplitude"):
            DeviceSpec(name="hot", payload=b"X", back_amplitude=0.0)

    def test_frames_traffic_requires_payloads(self):
        with pytest.raises(ConfigurationError, match="empty payload"):
            DeploymentScenario(name="x", devices=(DeviceSpec(name="mute"),))

    def test_compiled_scenario_is_picklable(self):
        small_deployment().compile().require_picklable()


class TestDeploymentDeterminism:
    @pytest.fixture(scope="class")
    def by_backend(self):
        deployment = small_deployment()
        return {
            (backend, workers): SweepRunner(
                deployment.compile(),
                rng=SEED,
                cache=AmbientCache(),
                backend=backend,
                max_workers=workers,
            ).run()
            for backend, workers in RUNS
        }

    def test_identical_per_device_outcomes_across_backends(self, by_backend):
        serial = by_backend[RUNS[0]].values
        # Outcomes must be non-trivial for the comparison to mean much.
        assert serial[0]["per_device"][0]["delivered"] >= 0
        assert serial[1]["n_devices"] == 3
        for run in RUNS[1:]:
            assert by_backend[run].values == serial, run

    def test_repeat_run_reproduces(self):
        deployment = small_deployment()
        first = SweepRunner(
            deployment.compile(), rng=SEED, cache=AmbientCache()
        ).run()
        second = SweepRunner(
            deployment.compile(), rng=SEED, cache=AmbientCache()
        ).run()
        assert first.values == second.values


class TestDeploymentCaching:
    def test_one_ambient_synthesis_per_grid(self):
        cache = AmbientCache()
        deployment = small_deployment()
        SweepRunner(deployment.compile(), rng=SEED, cache=cache).run()
        mpx_keys = [key for key in cache._store if key[0] == "mpx"]
        # One station synthesis for the whole grid — not one per device,
        # not one per grid point.
        assert len(mpx_keys) == 1
        assert cache.stats["hits"] > 0

    def test_warm_persistent_cache_zero_syntheses(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_mod
        from repro.experiments import deployment_scale

        kwargs = dict(device_counts=(1, 2, 4), frames_per_device=1, rng=SEED)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        cold_cache = cache_mod.default_cache()
        cold = deployment_scale.run(**kwargs)
        assert cold_cache.stats["syntheses"] > 0

        # A fresh default cache on the same spill dir models a fresh
        # process: everything must come from disk, nothing resynthesized.
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        warm_cache = cache_mod.default_cache()
        warm = deployment_scale.run(**kwargs)
        assert warm == cold
        assert warm_cache.stats["syntheses"] == 0
        assert warm_cache.stats["disk_hits"] > 0


class TestDeploymentMeasures:
    def test_power_and_slot_axes(self):
        deployment = small_deployment(
            axes={"power_dbm": (-30.0,), "slots_per_frame": (2,)},
        )
        result = SweepRunner(
            deployment.compile(), rng=SEED, cache=AmbientCache()
        ).run()
        outcome = result.values[0]
        assert outcome["slots_per_frame"] == 2
        assert outcome["n_devices"] == 3
        assert 0.0 <= outcome["delivery_rate"] <= 1.0
        assert outcome["aggregate_goodput_bps"] >= 0.0

    def test_unserved_devices_deliver_nothing(self):
        deployment = small_deployment(
            devices=make_roster(3, payload_format="D{i}"),
            plan=ChannelPlan(policy="dedicated", max_shift_channels=2),
            axes={},
        )
        outcome = SweepRunner(
            deployment.compile(), rng=SEED, cache=AmbientCache()
        ).run().values[0]
        assert outcome["per_device"][2]["channel"] == -1
        assert outcome["per_device"][2]["delivered"] == 0

    def test_audio_traffic_with_cooperative_receiver(self):
        deployment = DeploymentScenario(
            name="audio-test",
            devices=(DeviceSpec(name="poster", distance_ft=4.0),),
            traffic="audio",
            receiver=ReceiverPlacement(cooperative=True),
            station_stereo=False,
            audio_seconds=0.6,
            axes={"power_dbm": (-20.0,)},
        )
        outcome = SweepRunner(
            deployment.compile(), rng=SEED, cache=AmbientCache()
        ).run().values[0]
        poster = outcome["per_device"][0]
        assert 1.0 <= poster["overlay_pesq"] <= 4.6
        assert 1.0 <= poster["cooperative_pesq"] <= 4.6
        # The whole point of cooperation: the program cancels.
        assert poster["cooperative_pesq"] > poster["overlay_pesq"]

"""Tests for the chain's front end, link and receiver pieces."""

import pickle

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.link import batched_rf_snr_db, transmit_batch
from repro.constants import AUDIO_RATE_HZ
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentChain, FrontEndStage
from repro.receiver.fm_receiver import receive_mono_batch
from repro.utils.rand import as_generator, child_generator

SEED = 2017


@pytest.fixture(scope="module")
def payload():
    return tone(1000.0, 0.15, AUDIO_RATE_HZ, amplitude=0.9)


def _chain(**overrides):
    kwargs = dict(program="silence", power_dbm=-30.0, distance_ft=4, stereo_decode=False)
    kwargs.update(overrides)
    return ExperimentChain(**kwargs)


class TestChainValidation:
    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ConfigurationError):
            _chain(distance_ft=0)
        with pytest.raises(ConfigurationError):
            _chain(distance_ft=-3.0)

    def test_rejects_non_finite_power(self):
        with pytest.raises(ConfigurationError):
            _chain(power_dbm=float("nan"))
        with pytest.raises(ConfigurationError):
            _chain(power_dbm=float("inf"))

    def test_rejects_non_numeric_values_with_configuration_error(self):
        with pytest.raises(ConfigurationError):
            _chain(power_dbm="-20")
        with pytest.raises(ConfigurationError):
            _chain(distance_ft=None)

    def test_valid_configuration_accepted(self):
        assert _chain(power_dbm=-60.0, distance_ft=0.5).distance_ft == 0.5


class TestStageDerivation:
    def test_stages_are_picklable(self):
        chain = _chain(receiver_kind="car", dco_bits=4)
        front_end = chain.front_end()
        assert pickle.loads(pickle.dumps(front_end)) == front_end
        assert pickle.loads(pickle.dumps(chain)) == chain

    def test_front_end_key_matches_chain(self):
        chain = _chain(back_amplitude=0.5, dco_bits=4)
        expected = FrontEndStage(
            program=chain.program,
            station_stereo=chain.station_stereo,
            mode=chain.mode,
            back_amplitude=0.5,
            dco_bits=4,
        ).front_end_key()
        assert chain.front_end().front_end_key() == expected
        assert _chain().front_end().front_end_key() != expected

    def test_front_end_key_ignores_link_and_receiver(self):
        near = _chain(power_dbm=-20.0, distance_ft=1)
        far = _chain(power_dbm=-60.0, distance_ft=20, receiver_kind="car")
        assert near.front_end() == far.front_end()

    def test_stagewise_apply_equals_transmit(self, payload):
        # Front end, link and receiver applied in turn, on the streams
        # transmit derives (station child, link child, receiver child).
        chain = _chain()
        received = chain.transmit(payload, SEED)

        gen = as_generator(SEED)
        iq = chain.front_end().apply(payload, child_generator(gen, "station"))
        rx_iq = transmit_batch(iq, [chain.link_budget()], [child_generator(gen, "link")])
        stagewise = chain.build_receiver(gen).receive(rx_iq[0])
        assert np.array_equal(stagewise.mono, received.mono)
        assert np.array_equal(stagewise.mpx, received.mpx)

    def test_receive_stage_builds_configured_receiver(self):
        chain = _chain(receiver_kind="smartphone", stereo_decode=False, agc=True)
        receiver = chain.build_receiver(as_generator(SEED))
        assert receiver.agc_enabled and not receiver.stereo_capable

    def test_state_is_immutable(self):
        front_end = _chain().front_end()
        with pytest.raises(AttributeError):
            front_end.dco_bits = 4


class TestBatchedLink:
    def test_batched_snr_bit_identical_to_scalar(self):
        budgets = [
            _chain(power_dbm=p, distance_ft=d, receiver_kind=kind).link_budget()
            for p in (-20.0, -45.5, -60.0)
            for d in (1, 7.5, 20)
            for kind in ("smartphone", "car")
        ]
        batched = batched_rf_snr_db(budgets)
        scalar = np.array([b.rf_snr_db() for b in budgets])
        assert np.array_equal(batched, scalar)

    def test_transmit_batch_bit_identical_to_serial_link(self, payload):
        from repro.channel.link import BackscatterLink
        from repro.constants import MPX_RATE_HZ

        chain = _chain()
        iq = chain.front_end().apply(payload, child_generator(as_generator(1), "station"))
        budgets = [
            _chain(power_dbm=p, distance_ft=d).link_budget()
            for p, d in ((-20.0, 2), (-50.0, 8))
        ]
        seeds = [11, 12]
        stacked = transmit_batch(iq, budgets, [np.random.default_rng(s) for s in seeds])
        for row, (budget, seed) in enumerate(zip(budgets, seeds)):
            serial = BackscatterLink(budget).transmit(
                iq, MPX_RATE_HZ, rng=np.random.default_rng(seed)
            )
            assert np.array_equal(stacked[row], serial)


class TestBatchedReceive:
    def test_mono_batch_bit_identical_to_serial_receive(self, payload):
        chain = _chain()
        iq = chain.front_end().apply(payload, child_generator(as_generator(1), "station"))
        budgets = [
            _chain(power_dbm=p, distance_ft=d).link_budget()
            for p, d in ((-20.0, 2), (-40.0, 8), (-60.0, 16))
        ]
        rx_iq = transmit_batch(iq, budgets, [np.random.default_rng(s) for s in (1, 2, 3)])

        batch_receivers = [chain.build_receiver(np.random.default_rng(s)) for s in (5, 6, 7)]
        batched = receive_mono_batch(batch_receivers, rx_iq)

        serial_receivers = [chain.build_receiver(np.random.default_rng(s)) for s in (5, 6, 7)]
        for row, receiver in enumerate(serial_receivers):
            serial = receiver.receive(rx_iq[row])
            assert np.array_equal(batched[row].left, serial.left)
            assert np.array_equal(batched[row].right, serial.right)
            assert np.array_equal(batched[row].mpx, serial.mpx)
            assert batched[row].stereo_locked == serial.stereo_locked

    def test_stereo_receivers_rejected(self):
        receiver = _chain(stereo_decode=True).build_receiver(as_generator(SEED))
        with pytest.raises(ConfigurationError):
            receive_mono_batch([receiver], np.zeros((1, 16), dtype=complex))

    def test_shape_mismatch_rejected(self):
        receiver = _chain().build_receiver(as_generator(SEED))
        with pytest.raises(ConfigurationError):
            receive_mono_batch([receiver], np.zeros((2, 16), dtype=complex))

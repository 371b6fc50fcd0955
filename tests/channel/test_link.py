"""Link-budget tests — the paper's evaluation anchors."""

import numpy as np
import pytest

from repro.channel.antenna import CAR_WHIP, HEADPHONE_WIRE, MEANDER_SHIRT
from repro.channel.link import BackscatterLink, LinkBudget
from repro.errors import LinkBudgetError


def budget(power=-40.0, distance=8.0, **kwargs):
    return LinkBudget(
        ambient_power_at_device_dbm=power, distance_ft=distance, **kwargs
    )


class TestLinkBudget:
    def test_snr_decreases_with_distance(self):
        snrs = [budget(distance=d).rf_snr_db() for d in (2, 8, 32)]
        assert snrs[0] > snrs[1] > snrs[2]

    def test_snr_increases_with_power_in_thermal_regime(self):
        # At low ambient power the floor is thermal, so SNR tracks power.
        assert budget(power=-50.0).rf_snr_db() > budget(power=-60.0).rf_snr_db()

    def test_leakage_floor_engages_at_high_power(self):
        # At -20 dBm the adjacent leakage exceeds the thermal-class floor.
        b = budget(power=-20.0)
        assert b.noise_floor_dbm() == pytest.approx(b.ambient_leakage_dbm())

    def test_thermal_floor_at_low_power(self):
        b = budget(power=-60.0)
        assert b.noise_floor_dbm() == b.receiver_noise_floor_dbm

    def test_paper_anchor_100bps_at_minus60(self):
        # Fig. 8a: at -60 dBm the link should be above the FM threshold at
        # 4 ft and clearly below it by 16 ft.
        assert budget(power=-60.0, distance=4.0).rf_snr_db() > -3.0
        assert budget(power=-60.0, distance=16.0).rf_snr_db() < 0.0

    def test_car_link_better_than_phone(self):
        phone = budget(receiver_antenna=HEADPHONE_WIRE)
        car = budget(
            receiver_antenna=CAR_WHIP,
            receiver_noise_floor_dbm=-100.0,
            adjacent_suppression_db=85.0,
        )
        assert car.rf_snr_db() > phone.rf_snr_db()

    def test_fabric_antenna_costs_snr(self):
        normal = budget()
        fabric = budget(device_antenna=MEANDER_SHIRT)
        assert fabric.rf_snr_db() < normal.rf_snr_db()

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(LinkBudgetError):
            budget(distance=0.0)


class TestBackscatterLink:
    def test_transmit_hits_target_snr(self, rng):
        b = budget(power=-40.0, distance=4.0)
        link = BackscatterLink(b)
        iq = np.exp(1j * 2 * np.pi * 0.01 * np.arange(100_000))
        out = link.transmit(iq, 480_000.0, rng)
        noise = out - iq
        measured = 10 * np.log10(np.mean(np.abs(iq) ** 2) / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(b.rf_snr_db(), abs=0.5)

    def test_fading_modulates_amplitude(self, rng):
        from repro.channel.fading import BodyMotionFading

        b = budget()
        link = BackscatterLink(b, fading=BodyMotionFading("running", rng=1))
        iq = np.ones(48_000, dtype=complex)
        out = link.transmit(iq, 48_000.0, rng)
        # Amplitude should now vary beyond what noise alone causes.
        smooth = np.convolve(np.abs(out), np.ones(480) / 480, mode="valid")
        assert np.std(smooth) > 0.02

    def test_rejects_real_input(self, rng):
        link = BackscatterLink(budget())
        with pytest.raises(LinkBudgetError):
            link.transmit(np.ones(100), 480_000.0, rng)

    @pytest.mark.parametrize("shape", [(1,), (100, 1), (99,)])
    def test_rejects_wrong_shape_fading_envelope(self, rng, shape):
        class FixedShape:
            def envelope(self, n_samples, sample_rate):
                return np.full(shape, 0.5)

        link = BackscatterLink(budget(), fading=FixedShape())
        with pytest.raises(LinkBudgetError, match=r"expected \(100,\)"):
            link.transmit(np.ones(100, dtype=complex), 480_000.0, rng)

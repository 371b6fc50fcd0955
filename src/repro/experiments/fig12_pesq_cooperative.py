"""Fig. 12 — PESQ with cooperative (two-phone MIMO) backscatter.

Phone 1 tunes to ``fc + fback`` (ambient + backscatter), phone 2 to ``fc``
(ambient only). The section 3.3 cancellation — 10x resampling +
cross-correlation sync + 13 kHz pilot amplitude calibration — removes the
ambient program, so PESQ reaches ~4 for -20..-50 dBm, failing only when
the backscattered channel itself drops below the FM threshold.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.audio.pesq import pesq_like
from repro.audio.speech import speech_like
from repro.channel.noise import complex_awgn
from repro.constants import AUDIO_RATE_HZ, COOP_PILOT_FREQ_HZ
from repro.engine import AxisRef, CachedAmbient, Scenario, SweepSpec, power_key, run_scenario
from repro.experiments.common import ExperimentChain
from repro.receiver.cooperative import CooperativeReceiver
from repro.receiver.smartphone import SmartphoneReceiver
from repro.utils.rand import RngLike, as_generator, child_generator

DEFAULT_POWERS_DBM = (-20.0, -30.0, -40.0, -50.0, -60.0)
DEFAULT_DISTANCES_FT = (1, 4, 8, 12, 16, 20)

PREAMBLE_SECONDS = 0.5
PILOT_AMPLITUDE = 0.1
PREAMBLE_PILOT_BOOST = 1.0
"""The preamble pilot uses the same level as the running pilot: the
preamble segment is then *quieter* than the payload, so the receiver's
gain control reacts with its fast attack (a clean step the pilot-ratio
calibration corrects) instead of its slow release (an uncorrectable
ramp)."""


def build_coop_payload(
    speech: np.ndarray, audio_rate: float = AUDIO_RATE_HZ
) -> np.ndarray:
    """Prepend the 13 kHz pilot preamble and keep a low-power pilot running
    during the payload, per the paper's calibration scheme."""
    n_pre = int(PREAMBLE_SECONDS * audio_rate)
    t_pre = np.arange(n_pre) / audio_rate
    preamble = (
        PREAMBLE_PILOT_BOOST
        * PILOT_AMPLITUDE
        * np.cos(2.0 * np.pi * COOP_PILOT_FREQ_HZ * t_pre)
    )
    t_pay = (n_pre + np.arange(speech.size)) / audio_rate
    pilot = PILOT_AMPLITUDE * np.cos(2.0 * np.pi * COOP_PILOT_FREQ_HZ * t_pay)
    payload = 0.85 * speech + pilot
    return np.concatenate([preamble, payload])


def simulate_two_phones(
    reference_speech: np.ndarray,
    power_dbm: float,
    distance_ft: float,
    program: str = "news",
    phone_offset_seconds: float = 0.08,
    rng: RngLike = None,
    *,
    ambient: CachedAmbient,
):
    """Run the two-phone reception and cooperative cancellation.

    Args:
        ambient: the sweep's cache-backed ambient source (``run.ambient``);
            the station MPX and both FM-modulated carriers are
            synthesized once per sweep instead of per point.

    Returns:
        ``(recovered_audio, CooperativeResult)`` — the recovered
        backscatter audio stream (payload portion) and sync metadata.
    """
    gen = as_generator(rng)
    payload = build_coop_payload(reference_speech)
    duration_s = payload.size / AUDIO_RATE_HZ

    # Phone 1 chain bookkeeping (link budget for the backscatter hop).
    chain = ExperimentChain(
        program=program,
        station_stereo=False,
        power_dbm=power_dbm,
        distance_ft=distance_ft,
        stereo_decode=False,
        agc=True,
    )

    # Shared ambient program: both phones hear the same station. The
    # station child is still drawn, though the cache synthesizes the
    # station, so the noise and phone streams below keep their seeds.
    child_generator(gen, "st")
    iq1 = ambient.modulated_composite(chain.front_end(), payload)
    iq2_clean = ambient.modulated(program, False, duration_s)

    # Phone 1: the backscattered channel at fc + fback.
    iq1 = complex_awgn(iq1, chain.rf_snr_db(), child_generator(gen, "n1"))
    phone1 = SmartphoneReceiver(agc_enabled=True, rng=child_generator(gen, "p1"))
    phone1.stereo_capable = False
    audio1 = phone1.receive(iq1).mono

    # Phone 2: the ambient station at fc — a strong direct signal.
    ambient_snr_db = power_dbm - (-95.0)
    iq2 = complex_awgn(iq2_clean, ambient_snr_db, child_generator(gen, "n2"))
    phone2 = SmartphoneReceiver(agc_enabled=True, rng=child_generator(gen, "p2"))
    phone2.stereo_capable = False
    audio2 = phone2.receive(iq2).mono

    # The phones are not time synchronized: phone 2 starts late.
    offset = int(phone_offset_seconds * AUDIO_RATE_HZ)
    audio2_delayed = audio2[offset:]

    coop = CooperativeReceiver(
        preamble_seconds=PREAMBLE_SECONDS,
        preamble_pilot_boost=PREAMBLE_PILOT_BOOST,
    )
    result = coop.cancel(audio1, audio2_delayed)
    return result.backscatter_audio, result


def measure_coop_pesq(run) -> float:
    """One cooperative two-phone point: simulate, cancel, score PESQ.

    Module-level so the scenario pickles into the distributed launcher's
    worker processes.
    """
    reference = run.data["reference"]
    recovered, _ = simulate_two_phones(
        reference,
        run.point["power_dbm"],
        run.point["distance_ft"],
        rng=run.rng,
        ambient=run.ambient,
    )
    n = min(reference.size, recovered.size)
    return pesq_like(reference[:n], recovered[:n], AUDIO_RATE_HZ)


def build_scenario(
    powers_dbm: Sequence[float] = DEFAULT_POWERS_DBM,
    distances_ft: Sequence[float] = DEFAULT_DISTANCES_FT,
    duration_s: float = 2.0,
) -> Scenario:
    """The declarative Fig. 12 sweep.

    Module-level so tests (and the CI zero-fallback gate) can execute the
    exact grid ``run()`` uses under any backend. Note this scenario is
    *measure-driven*: the two-phone reception + cancellation happens
    inside :func:`measure_coop_pesq`, so there is no runner-performed
    transmission for the batched backend to vectorize — the plan runs
    its points per point by construction, under every setting (one
    ``serial`` decision, reason ``"measure-driven"``).
    """
    return Scenario(
        name="fig12",
        sweep=SweepSpec.grid(power_dbm=tuple(powers_dbm), distance_ft=tuple(distances_ft)),
        prepare=lambda gen: {
            "reference": speech_like(
                duration_s, AUDIO_RATE_HZ, child_generator(gen, "speech"), amplitude=0.9
            )
        },
        rng_keys=("fig12", AxisRef("power_dbm"), AxisRef("distance_ft")),
        measure=measure_coop_pesq,
    )


def run(
    powers_dbm: Sequence[float] = DEFAULT_POWERS_DBM,
    distances_ft: Sequence[float] = DEFAULT_DISTANCES_FT,
    duration_s: float = 2.0,
    rng: RngLike = None,
) -> Dict[str, object]:
    """PESQ sweep over (power, distance) for cooperative backscatter."""

    scenario = build_scenario(
        powers_dbm=powers_dbm, distances_ft=distances_ft, duration_s=duration_s
    )
    result = run_scenario(scenario, rng=rng)

    results: Dict[str, object] = {"distances_ft": [float(d) for d in distances_ft]}
    for power in powers_dbm:
        results[power_key(power)] = result.series(along="distance_ft", power_dbm=power)
    return results

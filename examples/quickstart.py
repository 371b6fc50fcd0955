#!/usr/bin/env python
"""Quickstart: backscatter a tone over an FM broadcast and decode it.

Reproduces the core loop of the paper in ~20 lines of API:

1. A simulated FM station broadcasts a news program.
2. A backscatter device overlays a 1 kHz tone (paper Eq. 2: the switch
   drive turns RF multiplication into audio addition).
3. A smartphone tuned 600 kHz away demodulates and hears both the
   program and the tone.

Then sweeps the same link over a power × distance grid through the sweep
engine (`repro.engine`): the grid is declared once, the ambient program
is synthesized once and shared by every grid point, and the default
``auto`` setting runs it on every core (``REPRO_SWEEP_WORKERS=<n>`` sets
the pool size) without code changes.

Run:
    python examples/quickstart.py
"""

import os

from repro.audio import tone
from repro.constants import AUDIO_RATE_HZ
from repro.dsp import tone_snr_db
from repro.engine import Scenario, SweepSpec, run_scenario
from repro.experiments.common import ExperimentChain


def main(fast=None) -> None:
    if fast is None:
        fast = os.environ.get("REPRO_EXAMPLE_FAST", "") == "1"

    # Ambient power at the device: -35 dBm, the level the paper measured
    # at a real bus stop. Receiver is a phone 8 feet away.
    chain = ExperimentChain(
        program="news",
        power_dbm=-35.0,
        distance_ft=8.0,
        receiver_kind="smartphone",
        stereo_decode=False,
    )

    payload = tone(
        1000.0,
        duration_s=0.3 if fast else 1.0,
        sample_rate=AUDIO_RATE_HZ,
        amplitude=0.9,
    )
    received = chain.transmit(payload, rng=1)
    audio = chain.payload_channel(received)

    snr = tone_snr_db(audio, AUDIO_RATE_HZ, 1000.0)
    print(f"link RF SNR:        {chain.rf_snr_db():6.1f} dB")
    print(f"received tone SNR:  {snr:6.1f} dB (tone vs. rest of the audio band)")
    print("the 1 kHz tone is clearly audible over the news program"
          if snr > 0 else "tone buried — move closer or find a stronger station")

    sweep(fast)


def sweep(fast=False) -> None:
    """Declare a link-budget sweep and run it through the engine.

    Over program audio the tone SNR is interference-limited (the program
    *is* the noise), so — like the paper's Fig. 7 — the sweep backscatters
    over an unmodulated carrier to expose the power/distance dependence.
    """
    payload = tone(
        1000.0,
        duration_s=0.2 if fast else 0.5,
        sample_rate=AUDIO_RATE_HZ,
        amplitude=0.9,
    )

    def measure(run):
        received = run.chain.transmit(payload, run.rng)
        return tone_snr_db(run.chain.payload_channel(received), AUDIO_RATE_HZ, 1000.0)

    scenario = Scenario(
        name="quickstart",
        sweep=SweepSpec.grid(power_dbm=(-25.0, -35.0), distance_ft=(2, 8, 16)),
        base_chain={"program": "silence", "receiver_kind": "smartphone", "stereo_decode": False},
        chain_axes=("power_dbm", "distance_ft"),
        measure=measure,
    )
    result = run_scenario(scenario, rng=1)

    hits = result.cache_stats["hits"] if result.cache_stats else 0
    print(f"\nsweep: {len(result)} grid points in {result.elapsed_s:.2f} s "
          f"({result.n_workers} worker(s), {hits} ambient cache hits)")
    print("tone SNR (dB) by distance:")
    for power in (-25.0, -35.0):
        series = result.series(along="distance_ft", power_dbm=power)
        cells = "  ".join(f"{s:6.1f}" for s in series)
        print(f"  {power:6.1f} dBm:  {cells}")


if __name__ == "__main__":
    main()

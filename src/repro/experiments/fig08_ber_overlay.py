"""Fig. 8 — BER of overlay backscatter versus distance, power, bit rate.

Data rides the mono band on top of real program audio (the paper replays
8 s clips of news / mixed / pop / rock stations through a USRP). Three
rates: 100 bps 2-FSK, and FDM-4FSK at 1.6 / 3.2 kbps. Expected shape:
100 bps near-zero BER to >= 6 ft at every power down to -60 dBm (and past
12 ft above -60 dBm); higher rates trade range; content with more
high-frequency energy (rock) interferes more.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.data.ber import bit_error_rate
from repro.data.bits import random_bits
from repro.data.fdm import FdmFskModem
from repro.data.fsk import BinaryFskModem
from repro.errors import ConfigurationError
from repro.engine import AxisRef, PointRun, Scenario, SweepSpec, power_key, run_scenario
from repro.utils.rand import RngLike, child_generator

DEFAULT_POWERS_DBM = (-20.0, -30.0, -40.0, -50.0, -60.0)
DEFAULT_DISTANCES_FT = (1, 2, 4, 6, 8, 12, 16, 20)

RATE_CONFIGS = {
    "100bps": {"kind": "bfsk", "n_bits": 150},
    "1.6kbps": {"kind": "fdm", "symbol_rate": 200, "n_bits": 1600},
    "3.2kbps": {"kind": "fdm", "symbol_rate": 400, "n_bits": 3200},
}


def make_modem(rate: str):
    """Construct the paper's modem for a named bit rate."""
    if rate not in RATE_CONFIGS:
        raise ConfigurationError(f"rate must be one of {sorted(RATE_CONFIGS)}")
    config = RATE_CONFIGS[rate]
    if config["kind"] == "bfsk":
        return BinaryFskModem()
    return FdmFskModem(symbol_rate=config["symbol_rate"])


def score_ber(run: PointRun, modem) -> float:
    """Demodulate the runner-transmitted waveform and score its BER.

    Module-level (and the modem a picklable dataclass) so the scenario
    ships to process-pool workers; the transmission itself is declared
    via ``payload``, which also lets the batched backend vectorize it.
    """
    bits = run.data["bits"]
    audio = run.chain.payload_channel(run.received)
    detected = modem.demodulate(audio, bits.size)
    return bit_error_rate(bits, detected)


def build_scenario(
    rate: str = "100bps",
    powers_dbm: Sequence[float] = DEFAULT_POWERS_DBM,
    distances_ft: Sequence[float] = DEFAULT_DISTANCES_FT,
    program: str = "news",
    n_bits: Optional[int] = None,
) -> Scenario:
    """The declarative sweep for one Fig. 8 panel.

    Module-level so tests can plan or execute the exact grid ``run()``
    uses under any backend.
    """
    modem = make_modem(rate)
    if n_bits is None:
        n_bits = RATE_CONFIGS[rate]["n_bits"]

    def prepare(gen):
        bits = random_bits(n_bits, child_generator(gen, "payload", rate))
        return {"bits": bits, "waveform": modem.modulate(bits)}

    return Scenario(
        name="fig08",
        sweep=SweepSpec.grid(power_dbm=tuple(powers_dbm), distance_ft=tuple(distances_ft)),
        prepare=prepare,
        base_chain={"program": program, "stereo_decode": False},
        chain_axes=("power_dbm", "distance_ft"),
        rng_keys=(rate, AxisRef("power_dbm"), AxisRef("distance_ft")),
        payload="waveform",
        measure=score_ber,
        measure_params={"modem": modem},
    )


def run(
    rate: str = "100bps",
    powers_dbm: Sequence[float] = DEFAULT_POWERS_DBM,
    distances_ft: Sequence[float] = DEFAULT_DISTANCES_FT,
    program: str = "news",
    n_bits: Optional[int] = None,
    rng: RngLike = None,
) -> Dict[str, object]:
    """BER sweep for one bit rate (one panel of Fig. 8).

    Returns:
        dict with ``distances_ft`` and one BER list per power level
        (keys ``"P<power>"``).
    """
    scenario = build_scenario(rate, powers_dbm, distances_ft, program, n_bits)
    result = run_scenario(scenario, rng=rng)

    results: Dict[str, object] = {"distances_ft": [float(d) for d in distances_ft]}
    for power in powers_dbm:
        results[power_key(power)] = result.series(along="distance_ft", power_dbm=power)
    return results

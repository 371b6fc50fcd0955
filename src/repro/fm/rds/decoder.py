"""RDS decoder: 57 kHz subcarrier -> PS name / radiotext.

Pipeline: band-pass around 57 kHz, synchronous demodulation with a carrier
derived from the 19 kHz pilot (3rd harmonic) or a local 57 kHz reference,
matched-filter bit detection, differential decode, then a sliding 26-bit
block synchronizer driven by the CRC syndromes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.constants import MPX_RATE_HZ, PILOT_FREQ_HZ, RDS_BITRATE_BPS, RDS_SUBCARRIER_HZ
from repro.dsp.filters import bandpass_fir, design_lowpass_fir, filter_signal
from repro.dsp.pll import PhaseLockedLoop
from repro.errors import DemodulationError
from repro.fm.rds.bitstream import bits_from_waveform, differential_decode
from repro.fm.rds.crc import block_information, verify_block
from repro.fm.rds.groups import decode_groups
from repro.utils.validation import ensure_real


@dataclass
class RdsMessage:
    """Decoded RDS content.

    Attributes:
        pi_code: program identification, or None if nothing decoded.
        ps_name: reassembled program-service name.
        radiotext: reassembled radiotext (empty if not broadcast).
        groups_decoded: number of CRC-clean groups used.
    """

    pi_code: Optional[int]
    ps_name: str
    radiotext: str
    groups_decoded: int


class RdsDecoder:
    """Decode RDS from a demodulated MPX baseband.

    Args:
        mpx_rate: sample rate of the MPX input.
        use_pilot: derive the 57 kHz carrier from the 19 kHz pilot PLL
            (phase-coherent, like real receivers). When False a free
            57 kHz reference with phase search is used — needed for
            mono-with-RDS signals that carry no pilot.
    """

    def __init__(self, mpx_rate: float = MPX_RATE_HZ, use_pilot: bool = True) -> None:
        self.mpx_rate = mpx_rate
        self.use_pilot = use_pilot

    def _carrier(self, mpx: np.ndarray) -> np.ndarray:
        n = mpx.size
        if self.use_pilot:
            pilot_band = filter_signal(
                bandpass_fir(18.5e3, 19.5e3, self.mpx_rate, 1025), mpx
            )
            pll = PhaseLockedLoop(PILOT_FREQ_HZ, self.mpx_rate, loop_bandwidth_hz=30.0)
            track = pll.track(pilot_band)
            if track.locked:
                return track.reference_harmonic(3)
        t = np.arange(n) / self.mpx_rate
        return np.cos(2.0 * np.pi * RDS_SUBCARRIER_HZ * t)

    def _demodulate_bits(self, mpx: np.ndarray) -> np.ndarray:
        rds_band = filter_signal(bandpass_fir(54e3, 60e3, self.mpx_rate, 1025), mpx)
        best_bits: Optional[np.ndarray] = None
        best_energy = -np.inf
        # Phase ambiguity: try a small set of carrier phases and keep the
        # one with the most post-detection energy. Differential coding
        # absorbs the residual sign ambiguity.
        carrier = self._carrier(mpx)
        t = np.arange(mpx.size) / self.mpx_rate
        quadrature = np.cos(
            2.0 * np.pi * RDS_SUBCARRIER_HZ * t + np.pi / 2
        )
        for ref in (carrier, quadrature):
            baseband = 2.0 * rds_band * ref
            baseband = filter_signal(
                design_lowpass_fir(2.4e3, self.mpx_rate, 513), baseband
            )
            energy = float(np.mean(baseband**2))
            if energy > best_energy:
                best_energy = energy
                n_bits = int(mpx.size / self.mpx_rate * RDS_BITRATE_BPS)
                best_bits = bits_from_waveform(baseband, n_bits, self.mpx_rate)
        if best_bits is None or best_bits.size < 104:
            raise DemodulationError("not enough RDS bits for one group")
        return best_bits

    def _synchronize(self, data_bits: np.ndarray) -> List[Tuple[int, int, int, int]]:
        """Slide a 26-bit window to find CRC-clean A-B-C-D block runs."""
        groups: List[Tuple[int, int, int, int]] = []
        n = data_bits.size
        i = 0
        while i + 104 <= n:
            blocks = []
            ok = True
            expected = ("A", "B", "C", "D")
            for b in range(4):
                word = 0
                for k in range(26):
                    word = (word << 1) | int(data_bits[i + 26 * b + k])
                name = verify_block(word)
                if name != expected[b] and not (b == 2 and name == "C'"):
                    ok = False
                    break
                blocks.append(block_information(word))
            if ok:
                groups.append(tuple(blocks))
                i += 104
            else:
                i += 1
        return groups

    def decode(self, mpx: np.ndarray) -> RdsMessage:
        """Decode all recoverable RDS groups from an MPX block.

        Raises:
            DemodulationError: when the input is too short to contain even
                one group.
        """
        mpx = ensure_real(mpx, "mpx")
        encoded_bits = self._demodulate_bits(mpx)
        # Both polarities of the differential stream are tried: carrier
        # phase inversion flips every encoded bit, which differential
        # decoding turns into an error only at the first bit.
        candidates = []
        for polarity in (encoded_bits, 1 - encoded_bits):
            data_bits = differential_decode(polarity)
            candidates.append(self._synchronize(data_bits))
        groups = max(candidates, key=len)
        decoded = decode_groups(groups)
        return RdsMessage(
            pi_code=decoded["pi_code"],
            ps_name=decoded["ps_name"],
            radiotext=decoded["radiotext"],
            groups_decoded=len(groups),
        )

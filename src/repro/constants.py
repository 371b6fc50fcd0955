"""Physical constants and FM broadcast band plan parameters.

Numbers here come from the paper (NSDI 2017) and the US FM broadcast rules
it cites (47 CFR Part 73):

* FM band: 100 channels, 88.1--108.1 MHz, 200 kHz spacing.
* Maximum frequency deviation: 75 kHz.
* Stereo pilot: 19 kHz; stereo (L-R) DSB-SC subcarrier at 38 kHz;
  RDS subcarrier at 57 kHz.
* Mono audio occupies 30 Hz--15 kHz.
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
"""Speed of light in vacuum (m/s)."""

# ---------------------------------------------------------------------------
# FM band plan (47 CFR 73; paper section 3.2)
# ---------------------------------------------------------------------------

FM_BAND_LOW_HZ = 88.1e6
"""Center frequency of the lowest US FM channel (channel 201)."""

FM_BAND_HIGH_HZ = 108.1e6
"""Center frequency just above the highest US FM channel."""

FM_CHANNEL_SPACING_HZ = 200e3
"""Spacing between adjacent FM channel centers."""

FM_NUM_CHANNELS = 100
"""Number of FM channels in the US band plan."""

FM_MAX_DEVIATION_HZ = 75e3
"""Maximum FM frequency deviation (100% modulation)."""

FM_MAX_ERP_W = 100e3
"""Maximum effective radiated power of a US FM station (100 kW)."""

# ---------------------------------------------------------------------------
# MPX (composite baseband) layout (paper Fig. 3)
# ---------------------------------------------------------------------------

PILOT_FREQ_HZ = 19e3
"""Stereo pilot tone frequency."""

STEREO_SUBCARRIER_HZ = 38e3
"""Center of the DSB-SC stereo (L-R) subcarrier (2x pilot)."""

RDS_SUBCARRIER_HZ = 57e3
"""Center of the RDS subcarrier (3x pilot)."""

MONO_AUDIO_LOW_HZ = 30.0
"""Lower edge of the mono (L+R) audio band."""

MONO_AUDIO_HIGH_HZ = 15e3
"""Upper edge of the mono (L+R) audio band."""

STEREO_BAND_LOW_HZ = 23e3
"""Lower edge of the stereo (L-R) band in the MPX spectrum."""

STEREO_BAND_HIGH_HZ = 53e3
"""Upper edge of the stereo (L-R) band in the MPX spectrum."""

RDS_BAND_LOW_HZ = 56e3
"""Lower edge of the RDS band in the MPX spectrum."""

RDS_BAND_HIGH_HZ = 58e3
"""Upper edge of the RDS band in the MPX spectrum."""

RDS_BITRATE_BPS = 1187.5
"""RDS data rate: 57 kHz / 48."""

# Standard mixing fractions used by broadcast exciters: ~90% program,
# 10% pilot (the paper backscatters 0.9 * audio + 0.1 * pilot).
PILOT_FRACTION = 0.1
"""Fraction of total deviation allocated to the 19 kHz pilot."""

DEEMPHASIS_US_SECONDS = 75e-6
"""North American FM de-emphasis time constant (75 microseconds)."""

DEEMPHASIS_EU_SECONDS = 50e-6
"""European FM de-emphasis time constant (50 microseconds)."""

# ---------------------------------------------------------------------------
# Default simulation sample rates
# ---------------------------------------------------------------------------

AUDIO_RATE_HZ = 48_000
"""Default audio-domain sample rate."""

MPX_RATE_HZ = 480_000
"""Default MPX / complex-baseband sample rate (10x audio rate)."""

# ---------------------------------------------------------------------------
# Paper-specific parameters
# ---------------------------------------------------------------------------

DEFAULT_FBACK_HZ = 600e3
"""Backscatter frequency shift used throughout the paper's evaluation."""

FM_RECEIVER_SENSITIVITY_DBM = -100.0
"""Typical FM receiver sensitivity (paper section 3.1, refs [14, 1])."""

COOP_PILOT_FREQ_HZ = 13e3
"""Cooperative backscatter amplitude-calibration pilot (section 3.3)."""

FSK_LOW_RATE_FREQS_HZ = (8_000.0, 12_000.0)
"""2-FSK tone frequencies for the 100 bps mode (zero bit, one bit)."""

FSK_LOW_RATE_SYMBOL_RATE = 100
"""Symbol rate of the 100 bps 2-FSK mode."""

FDM_TONE_LOW_HZ = 800.0
"""Lowest of the 16 FDM-4FSK tones."""

FDM_TONE_HIGH_HZ = 12_800.0
"""Highest of the 16 FDM-4FSK tones."""

FDM_NUM_TONES = 16
"""Number of tones in the FDM-4FSK scheme (four groups of four)."""

FDM_NUM_GROUPS = 4
"""Number of 4-FSK groups, each carrying 2 bits per symbol."""

FDM_SYMBOL_RATES = (200, 400)
"""Supported FDM-4FSK symbol rates (1.6 kbps and 3.2 kbps)."""

# IC power budget (paper section 4).
IC_BASEBAND_POWER_W = 1.0e-6
"""Power of the digital baseband state machine (1 uW)."""

IC_MODULATOR_POWER_W = 9.94e-6
"""Power of the 600 kHz LC-tank FM modulator (9.94 uW)."""

IC_SWITCH_POWER_W = 0.13e-6
"""Power of the NMOS backscatter switch at 600 kHz (0.13 uW)."""

IC_TOTAL_POWER_W = IC_BASEBAND_POWER_W + IC_MODULATOR_POWER_W + IC_SWITCH_POWER_W
"""Total IC power: 11.07 uW."""

FEET_PER_METER = 1.0 / 0.3048
"""Feet in one meter."""


def fm_channel_centers_hz() -> np.ndarray:
    """Return the center frequencies of all 100 US FM channels in Hz."""
    return FM_BAND_LOW_HZ + FM_CHANNEL_SPACING_HZ * np.arange(FM_NUM_CHANNELS)

"""RF channel models: noise, path loss, multipath, fading, link budgets.

These substitute for the paper's physical testbed (USRP transmitter,
posters, bus stops, moving users), which this reproduction simulates
rather than builds. Distances and powers reproduce the evaluation's
knobs: ambient power at the backscatter device (-20 to -60 dBm) and
device-to-receiver distance in feet.
"""

from repro.channel.noise import awgn, complex_awgn, noise_power_dbm
from repro.channel.pathloss import (
    free_space_path_loss_db,
    friis_received_power_dbm,
    log_distance_path_loss_db,
)
from repro.channel.multipath import MultipathChannel, two_ray_gain_db
from repro.channel.fading import BodyMotionFading, MOTION_PROFILES
from repro.channel.antenna import Antenna, BOWTIE_POSTER, DIPOLE_POSTER, MEANDER_SHIRT
from repro.channel.link import BackscatterLink, LinkBudget
from repro.channel.impairments import (
    apply_frequency_drift,
    apply_frequency_offset,
    lc_tank_tolerance_hz,
)

__all__ = [
    "Antenna",
    "BOWTIE_POSTER",
    "BackscatterLink",
    "BodyMotionFading",
    "DIPOLE_POSTER",
    "LinkBudget",
    "MEANDER_SHIRT",
    "MOTION_PROFILES",
    "MultipathChannel",
    "apply_frequency_drift",
    "apply_frequency_offset",
    "awgn",
    "lc_tank_tolerance_hz",
    "complex_awgn",
    "free_space_path_loss_db",
    "friis_received_power_dbm",
    "log_distance_path_loss_db",
    "noise_power_dbm",
    "two_ray_gain_db",
]

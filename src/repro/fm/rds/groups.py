"""RDS group construction and parsing (types 0A and 2A).

A group is four 26-bit blocks (104 bits, ~87.6 ms at 1187.5 bps):

* Block 1 (offset A): the 16-bit Program Identification (PI) code.
* Block 2 (offset B): group type, version, traffic flags, and the low
  bits of the segment address.
* Blocks 3/4 (offsets C/D): payload — PS-name characters for 0A, radiotext
  characters for 2A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fm.rds.crc import append_checkword

PS_NAME_LENGTH = 8
RADIOTEXT_LENGTH = 64


@dataclass(frozen=True)
class Group:
    """One RDS group: four 16-bit information words (pre-checkword)."""

    block1: int
    block2: int
    block3: int
    block4: int

    def to_blocks(self) -> Tuple[int, int, int, int]:
        """Render the group as four 26-bit blocks with checkwords."""
        return (
            append_checkword(self.block1, "A"),
            append_checkword(self.block2, "B"),
            append_checkword(self.block3, "C"),
            append_checkword(self.block4, "D"),
        )

    @property
    def group_type(self) -> int:
        """Group type code (0-15) from block 2."""
        return (self.block2 >> 12) & 0xF

    @property
    def version_b(self) -> bool:
        """True for B-version groups (bit 11 of block 2)."""
        return bool((self.block2 >> 11) & 1)


def _encode_char(ch: str) -> int:
    code = ord(ch)
    if not 32 <= code < 127:
        raise ConfigurationError(f"RDS text supports printable ASCII only, got {ch!r}")
    return code


def make_group_0a(
    pi_code: int, ps_name: str, segment: int, program_type: int = 0
) -> Group:
    """Build a type-0A group carrying two characters of the PS name.

    Args:
        pi_code: 16-bit program identification.
        ps_name: full 8-character program-service name (padded if shorter).
        segment: which character pair (0-3) this group carries.
        program_type: 5-bit PTY code.
    """
    if not 0 <= pi_code < (1 << 16):
        raise ConfigurationError("pi_code must be 16-bit")
    if not 0 <= segment < 4:
        raise ConfigurationError(f"segment must be 0-3, got {segment}")
    if not 0 <= program_type < 32:
        raise ConfigurationError("program_type must be 5-bit")
    padded = ps_name.ljust(PS_NAME_LENGTH)[:PS_NAME_LENGTH]
    block2 = (0 << 12) | (0 << 11) | (1 << 10) | (program_type << 5) | segment
    char_a = _encode_char(padded[2 * segment])
    char_b = _encode_char(padded[2 * segment + 1])
    # Block 3 of a 0A group carries alternative frequencies; we transmit
    # the "no AF" filler code 0xE0CD.
    return Group(pi_code, block2, 0xE0CD, (char_a << 8) | char_b)


def make_group_2a(
    pi_code: int, radiotext: str, segment: int, program_type: int = 0
) -> Group:
    """Build a type-2A group carrying four characters of radiotext.

    Args:
        pi_code: 16-bit program identification.
        radiotext: full radiotext message (up to 64 chars, padded).
        segment: which 4-character slice (0-15) this group carries.
        program_type: 5-bit PTY code.
    """
    if not 0 <= pi_code < (1 << 16):
        raise ConfigurationError("pi_code must be 16-bit")
    if not 0 <= segment < 16:
        raise ConfigurationError(f"segment must be 0-15, got {segment}")
    padded = radiotext.ljust(RADIOTEXT_LENGTH)[:RADIOTEXT_LENGTH]
    block2 = (2 << 12) | (0 << 11) | (0 << 10) | (program_type << 5) | segment
    chars = [
        _encode_char(padded[4 * segment + k]) for k in range(4)
    ]
    block3 = (chars[0] << 8) | chars[1]
    block4 = (chars[2] << 8) | chars[3]
    return Group(pi_code, block2, block3, block4)


def groups_for_program(
    pi_code: int, ps_name: str, radiotext: str = "", program_type: int = 0
) -> List[Group]:
    """All groups needed to broadcast a PS name plus optional radiotext."""
    groups = [
        make_group_0a(pi_code, ps_name, seg, program_type) for seg in range(4)
    ]
    if radiotext:
        n_segments = (min(len(radiotext), RADIOTEXT_LENGTH) + 3) // 4
        groups.extend(
            make_group_2a(pi_code, radiotext, seg, program_type)
            for seg in range(n_segments)
        )
    return groups


def make_group_4a(
    pi_code: int,
    mjd: int,
    hour: int,
    minute: int,
    utc_offset_half_hours: int = 0,
    program_type: int = 0,
) -> Group:
    """Build a type-4A clock-time group.

    Args:
        pi_code: 16-bit program identification.
        mjd: Modified Julian Day (17 bits).
        hour: UTC hour, 0-23.
        minute: 0-59.
        utc_offset_half_hours: local offset in half hours, -31..31.
        program_type: 5-bit PTY code.
    """
    if not 0 <= pi_code < (1 << 16):
        raise ConfigurationError("pi_code must be 16-bit")
    if not 0 <= mjd < (1 << 17):
        raise ConfigurationError("mjd must fit in 17 bits")
    if not 0 <= hour < 24:
        raise ConfigurationError("hour must be 0-23")
    if not 0 <= minute < 60:
        raise ConfigurationError("minute must be 0-59")
    if not -31 <= utc_offset_half_hours <= 31:
        raise ConfigurationError("utc offset must be -31..31 half hours")
    block2 = (4 << 12) | (0 << 11) | (0 << 10) | (program_type << 5) | ((mjd >> 15) & 0x3)
    block3 = ((mjd & 0x7FFF) << 1) | ((hour >> 4) & 0x1)
    offset_sign = 1 if utc_offset_half_hours < 0 else 0
    block4 = (
        ((hour & 0xF) << 12)
        | (minute << 6)
        | (offset_sign << 5)
        | (abs(utc_offset_half_hours) & 0x1F)
    )
    return Group(pi_code, block2, block3, block4)


def decode_groups(groups: Sequence[Tuple[int, int, int, int]]) -> Dict[str, object]:
    """Reassemble PS name and radiotext from decoded information words.

    Args:
        groups: sequence of ``(block1, block2, block3, block4)`` 16-bit
            information words (checkwords already stripped/validated).

    Returns:
        dict with keys ``pi_code``, ``ps_name`` and ``radiotext``.
        Unreceived character positions remain as spaces.
    """
    ps_chars = [" "] * PS_NAME_LENGTH
    rt_chars = [" "] * RADIOTEXT_LENGTH
    pi_code: Optional[int] = None
    rt_seen = False
    clock: Optional[Dict[str, int]] = None
    for b1, b2, b3, b4 in groups:
        pi_code = b1 if pi_code is None else pi_code
        group_type = (b2 >> 12) & 0xF
        if group_type == 0:
            segment = b2 & 0x3
            ps_chars[2 * segment] = chr((b4 >> 8) & 0xFF)
            ps_chars[2 * segment + 1] = chr(b4 & 0xFF)
        elif group_type == 2:
            segment = b2 & 0xF
            rt_seen = True
            text = [(b3 >> 8) & 0xFF, b3 & 0xFF, (b4 >> 8) & 0xFF, b4 & 0xFF]
            for k, code in enumerate(text):
                rt_chars[4 * segment + k] = chr(code)
        elif group_type == 4:
            mjd = ((b2 & 0x3) << 15) | ((b3 >> 1) & 0x7FFF)
            hour = ((b3 & 0x1) << 4) | ((b4 >> 12) & 0xF)
            minute = (b4 >> 6) & 0x3F
            offset = b4 & 0x1F
            if (b4 >> 5) & 1:
                offset = -offset
            clock = {
                "mjd": mjd,
                "hour": hour,
                "minute": minute,
                "utc_offset_half_hours": offset,
            }
    return {
        "pi_code": pi_code,
        "ps_name": "".join(ps_chars).rstrip(),
        "radiotext": "".join(rt_chars).rstrip() if rt_seen else "",
        "clock": clock,
    }

"""RDS block CRC (checkword) arithmetic.

Each RDS block is 26 bits: a 16-bit information word followed by a 10-bit
checkword. The checkword is the remainder of ``m(x) * x^10`` modulo the
generator ``g(x) = x^10 + x^8 + x^7 + x^5 + x^4 + x^3 + 1``, XORed with a
block-position-dependent *offset word* that gives the receiver block
synchronization for free.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError

GENERATOR = 0b10110111001
"""g(x) = x^10 + x^8 + x^7 + x^5 + x^4 + x^3 + 1."""

OFFSET_WORDS: Dict[str, int] = {
    "A": 0b0011111100,
    "B": 0b0110011000,
    "C": 0b0101101000,
    "C'": 0b1101010000,
    "D": 0b0110110100,
}
"""Offset words for the four block positions (C' replaces C in B-version
groups)."""


def compute_crc(information: int) -> int:
    """10-bit CRC of a 16-bit information word (before offset)."""
    if not 0 <= information < (1 << 16):
        raise ConfigurationError(f"information word must be 16-bit, got {information}")
    register = information << 10
    for bit in range(25, 9, -1):
        if register & (1 << bit):
            register ^= GENERATOR << (bit - 10)
    return register & 0x3FF


def append_checkword(information: int, offset_name: str) -> int:
    """Build the full 26-bit block: information + (CRC xor offset)."""
    if offset_name not in OFFSET_WORDS:
        raise ConfigurationError(f"unknown offset word {offset_name!r}")
    return (information << 10) | (compute_crc(information) ^ OFFSET_WORDS[offset_name])


def syndrome(block: int) -> int:
    """Syndrome of a received 26-bit block.

    For an error-free block the syndrome equals a constant determined only
    by the offset word, which is how receivers identify the block position.
    """
    if not 0 <= block < (1 << 26):
        raise ConfigurationError(f"block must be 26-bit, got {block}")
    register = block
    for bit in range(25, 9, -1):
        if register & (1 << bit):
            register ^= GENERATOR << (bit - 10)
    return register & 0x3FF


# Precompute the expected syndrome for each offset word: syndrome of a
# zero information word with that offset applied.
EXPECTED_SYNDROMES: Dict[str, int] = {
    name: syndrome(offset) for name, offset in OFFSET_WORDS.items()
}


def verify_block(block: int) -> Optional[str]:
    """Return the offset-word name if the block checks out, else ``None``.

    Because the code is linear, ``syndrome(data<<10 | crc^offset)`` equals
    ``syndrome(offset)`` whenever the CRC matches; comparing against the
    five expected syndromes both validates and position-labels the block.
    """
    s = syndrome(block)
    for name, expected in EXPECTED_SYNDROMES.items():
        if s == expected:
            return name
    return None


def block_information(block: int) -> int:
    """Extract the 16-bit information word from a 26-bit block."""
    if not 0 <= block < (1 << 26):
        raise ConfigurationError(f"block must be 26-bit, got {block}")
    return block >> 10

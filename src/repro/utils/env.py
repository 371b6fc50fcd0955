"""Strict parsing of the library's environment knobs.

Every ``REPRO_*`` tuning variable funnels through these helpers so a
malformed value fails *at the knob* — a :class:`~repro.errors.
ConfigurationError` naming the variable and the offending string —
instead of crashing deep inside numpy arithmetic or, worse, being
silently clamped to a default the operator never asked for.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.errors import ConfigurationError

NUMERICS_ENV_VAR = "REPRO_NUMERICS"
"""Environment knob selecting the numerics mode (``exact`` / ``fast``)."""

NUMERICS_CHOICES = ("exact", "fast")
"""Accepted :data:`NUMERICS_ENV_VAR` values."""


def env_choice(
    name: str,
    default: Optional[str],
    choices: Sequence[str],
) -> Optional[str]:
    """Read a string knob constrained to a fixed set of choices.

    The value is stripped and lower-cased before matching, so
    ``REPRO_SWEEP_BACKEND=Batched`` works; anything outside ``choices``
    raises a :class:`~repro.errors.ConfigurationError` naming the
    variable, the offending string and the valid choices — a typo'd
    backend name must never silently fall back to a default.

    Args:
        name: environment variable name.
        default: value used when the variable is unset or blank (may be
            ``None`` for "no preference").
        choices: the accepted values.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    value = raw.lower()
    if value not in choices:
        raise ConfigurationError(
            f"{name} must be one of {tuple(choices)}, got {raw!r}"
        )
    return value


def numerics_mode() -> str:
    """The active numerics mode: ``"exact"`` (default) or ``"fast"``.

    ``exact`` keeps every kernel bit-identical to the seed figures (the
    per-row loops in fading interpolation, the FM discriminator and the
    receiver output-effect draws exist purely for that contract).
    ``fast`` fuses those loops into single 2-D kernels and batches the
    noise draws — faster, statistically equivalent, but *not*
    bit-identical; it is gated by the tolerance-tier golden suite
    instead of the exact-tier fixtures. Read from the environment at
    call time so tests can monkeypatch :data:`NUMERICS_ENV_VAR`.
    """
    value = env_choice(NUMERICS_ENV_VAR, "exact", NUMERICS_CHOICES)
    assert value is not None  # default is a member of NUMERICS_CHOICES
    return value


def fast_numerics() -> bool:
    """True when :func:`numerics_mode` is ``"fast"``."""
    return numerics_mode() == "fast"


def env_list(name: str) -> tuple:
    """Read a comma-separated list knob: stripped items, empties dropped.

    Purely lexical — item-level validation (fault grammars, choice sets)
    belongs to the caller, which knows what an item means and can raise a
    :class:`~repro.errors.ConfigurationError` naming both the variable
    and the offending item.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return ()
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    """Read an integer knob, strictly.

    Args:
        name: environment variable name.
        default: value used when the variable is unset or blank.
        minimum: inclusive lower bound; a parseable value below it is a
            configuration error, not something to clamp silently.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ConfigurationError(
            f"{name} must be >= {minimum}, got {raw!r}"
        )
    return value

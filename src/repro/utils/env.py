"""Strict parsing of the library's environment knobs.

The ``REPRO_*`` tuning variables — the sweep backend and worker count,
the DSP plan-cache size and the chaos fault list — funnel through these
helpers, so a malformed value fails *at the knob* — a
:class:`~repro.errors.ConfigurationError` naming the variable and the
offending string — instead of crashing deep inside numpy arithmetic or,
worse, being silently clamped to a default the operator never asked for.
None of them changes a result's bits: outputs depend only on the sweep
seed.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.errors import ConfigurationError


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

"""Exception hierarchy for the FM backscatter reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class SignalError(ReproError):
    """An input signal does not satisfy the requirements of an operation.

    Examples: wrong dimensionality, mismatched sample rates, empty input
    where a non-empty waveform is required.
    """


class DemodulationError(ReproError):
    """The receiver could not extract the requested information.

    Raised for example when a frame preamble cannot be located, or when
    stereo decoding is requested but no 19 kHz pilot is present.
    """


class SynchronizationError(DemodulationError):
    """Cross-correlation alignment between two receivers failed."""


class LinkBudgetError(ReproError):
    """A link-budget computation received physically meaningless inputs."""


class LauncherError(ReproError):
    """The distributed sweep launcher could not complete a shard.

    Raised when a shard keeps failing (worker crash or an exception in the
    measure) past the launcher's retry budget *and* the in-process
    degradation pass could not salvage the range either. The engine's
    seed discipline makes a retried shard bit-identical to the original,
    so a shard that fails identically on every attempt is a deterministic
    bug, not transient bad luck — retrying further would loop forever.

    Beyond the message, the exception carries structured provenance so a
    caller (or an operator reading a service log) can pinpoint the
    failing work and salvage what completed:

    Attributes:
        scenario: name of the scenario whose launch failed.
        shard_id: id of the shard that exhausted its retries.
        point_range: the ``(start, stop)`` half-open global point range
            of that shard.
        attempts: how many times the range was attempted before giving
            up (re-queues + the final in-process salvage).
        exit_codes: exit codes of every worker death observed during the
            launch (empty when workers failed by reporting measure
            errors rather than dying).
        partial_result: a *partial-grid*
            :class:`~repro.engine.results.SweepResult` holding every
            point that did complete (merged via
            ``SweepResult.merge(..., partial=True)``), or ``None`` when
            nothing completed. Full-grid accessors (``series`` /
            ``grid`` / ``value_at``) refuse it; iterate it or call
            ``to_table()`` to salvage the covered points.
    """

    def __init__(
        self,
        message: str,
        *,
        scenario: str = "",
        shard_id: int = -1,
        point_range: tuple = (-1, -1),
        attempts: int = 0,
        exit_codes: tuple = (),
        partial_result: object = None,
    ) -> None:
        super().__init__(message)
        self.scenario = scenario
        self.shard_id = shard_id
        self.point_range = tuple(point_range)
        self.attempts = attempts
        self.exit_codes = tuple(exit_codes)
        self.partial_result = partial_result


class JournalError(ReproError):
    """A job journal could not be read back.

    Raised on structurally corrupt journals: a record of an unknown
    version, or an undecodable line *before* the final one (a torn final
    line is the expected crash signature and is tolerated silently).
    """

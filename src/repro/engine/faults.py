"""Unified, deterministic fault injection for the distributed sweep stack.

One registry behind one knob, ``REPRO_FAULTS``: a comma-separated list of
fault directives, each naming a fault class and an integer target —

``REPRO_FAULTS=kill-shard:2,delay-shard:0:1.5,corrupt-cache:1,drop-result:3``

Every directive is strict-parsed like the rest of the ``REPRO_*``
surface (a malformed item raises :class:`~repro.errors.ConfigurationError`
naming the variable and the offending item), and every fault fires
*deterministically* — keyed to a shard id, a global point index, a
worker id or a save ordinal, never to a clock or a random draw — so a
chaos run reproduces exactly: the same faults hit the same work on every
execution at a given seed.

Fault classes:

``kill-shard:<shard>``
    The worker that picks up initial shard ``shard`` hard-exits
    (``os._exit``) on the shard's *first attempt* — a crash/OOM kill.
    Retries proceed normally, so the launch recovers.
``kill-point:<index>``
    Any worker holding a shard that contains global point ``index``
    hard-exits, on *every* attempt. Re-slicing cannot dodge it — the
    half carrying the point keeps dying until the retry budget runs out
    and the launcher's in-process degradation salvages the range.
``delay-shard:<shard>:<seconds>``
    The worker sleeps ``seconds`` before executing initial shard
    ``shard`` (first attempt only) — a forced straggler, recovered by
    deadline speculation.
``drop-result:<shard>``
    The worker computes initial shard ``shard`` (first attempt) but
    never reports it — a result lost in transit. The worker looks busy
    forever, so recovery needs ``shard_deadline_s`` speculation or a
    ``job_deadline_s``.
``corrupt-cache:<ordinal>``
    The ``ordinal``-th successful :meth:`~repro.engine.store.CacheStore.
    save` on a store instance is truncated after its atomic rename — a
    torn write that survived the rename (power loss before the data
    blocks hit disk). Readers treat the entry as a miss, reap it
    (counted in ``corrupt_evictions``) and resynthesize, so results stay
    bit-identical.
``init-fail:<worker>``
    The worker spawned with id ``worker`` exits during initialization,
    before pulling any task. The launcher reaps it and spawns a
    replacement (fresh id, so the replacement survives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.utils.env import env_list

FAULTS_ENV_VAR = "REPRO_FAULTS"
"""The unified chaos knob: comma-separated fault directives."""

FAULT_KINDS = (
    "kill-shard",
    "kill-point",
    "delay-shard",
    "drop-result",
    "corrupt-cache",
    "init-fail",
)
"""Every registered fault class, in documentation order."""


@dataclass(frozen=True)
class Fault:
    """One parsed fault directive.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        target: the integer the fault keys on — an initial shard id
            (``kill-shard`` / ``delay-shard`` / ``drop-result``), a
            global point index (``kill-point``), a save ordinal
            (``corrupt-cache``) or a worker id (``init-fail``).
        delay_s: sleep duration for ``delay-shard``; ``0.0`` otherwise.
    """

    kind: str
    target: int
    delay_s: float = 0.0


class FaultPlan:
    """The active set of faults, queried by launcher, workers and store.

    An empty plan (no directives) is falsy and answers "no" to every
    query, so fault checks cost one attribute lookup on the happy path.
    """

    def __init__(self, faults: Tuple[Fault, ...] = ()) -> None:
        self.faults = tuple(faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FaultPlan({self.faults!r})"

    def _targets(self, kind: str):
        return (f for f in self.faults if f.kind == kind)

    def kill(self, shard) -> bool:
        """Whether the worker holding ``shard`` must hard-exit.

        ``kill-shard`` fires on the named initial shard's first attempt
        only; ``kill-point`` fires whenever the shard's range contains
        the named global point, on every attempt.
        """
        for fault in self._targets("kill-shard"):
            if shard.shard_id == fault.target and shard.attempt == 0:
                return True
        for fault in self._targets("kill-point"):
            if shard.start <= fault.target < shard.stop:
                return True
        return False

    def delay_s(self, shard) -> float:
        """Forced-straggler sleep before executing ``shard`` (0.0 = none)."""
        for fault in self._targets("delay-shard"):
            if shard.shard_id == fault.target and shard.attempt == 0:
                return fault.delay_s
        return 0.0

    def drop_result(self, shard) -> bool:
        """Whether ``shard``'s completed result is lost in transit."""
        return any(
            shard.shard_id == fault.target and shard.attempt == 0
            for fault in self._targets("drop-result")
        )

    def init_fail(self, worker_id: int) -> bool:
        """Whether the worker spawned with ``worker_id`` dies during init."""
        return any(fault.target == worker_id for fault in self._targets("init-fail"))

    def corrupt_save(self, save_ordinal: int) -> bool:
        """Whether a store's ``save_ordinal``-th save is torn after rename."""
        return any(
            fault.target == save_ordinal for fault in self._targets("corrupt-cache")
        )


def _parse_item(item: str, source: str) -> Fault:
    parts = item.split(":")
    kind = parts[0]
    if kind not in FAULT_KINDS:
        raise ConfigurationError(
            f"{source} names unknown fault class {kind!r} in {item!r} "
            f"(registered classes: {FAULT_KINDS})"
        )
    if kind == "delay-shard":
        if len(parts) != 3:
            raise ConfigurationError(
                f"{source}: {item!r} must look like 'delay-shard:<shard>:<seconds>'"
            )
        shard_str, delay_str = parts[1], parts[2]
        if not shard_str.isdigit():
            raise ConfigurationError(
                f"{source}: shard id in {item!r} must be a non-negative integer"
            )
        try:
            delay = float(delay_str)
        except ValueError:
            raise ConfigurationError(
                f"{source}: delay in {item!r} must be a number of seconds"
            ) from None
        if not delay > 0:
            raise ConfigurationError(
                f"{source}: delay in {item!r} must be positive"
            )
        return Fault(kind=kind, target=int(shard_str), delay_s=delay)
    if len(parts) != 2 or not parts[1].isdigit():
        raise ConfigurationError(
            f"{source}: {item!r} must look like '{kind}:<non-negative integer>'"
        )
    return Fault(kind=kind, target=int(parts[1]))


def parse_faults(spec: str, source: str = FAULTS_ENV_VAR) -> FaultPlan:
    """Parse a comma-separated fault directive list, strictly.

    Args:
        spec: the raw directive string (may be empty — an empty plan).
        source: name used in error messages (the env var, normally).
    """
    items = tuple(item.strip() for item in spec.split(",") if item.strip())
    return FaultPlan(tuple(_parse_item(item, source) for item in items))


def active_plan() -> FaultPlan:
    """The process's fault plan, parsed fresh from the environment.

    Reads :data:`FAULTS_ENV_VAR`. Parsed at call time so tests can
    monkeypatch, and so forked workers (which inherit the environment)
    agree with the parent byte for byte.
    """
    return FaultPlan(
        tuple(_parse_item(item, FAULTS_ENV_VAR) for item in env_list(FAULTS_ENV_VAR))
    )


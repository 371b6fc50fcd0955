"""The sweep plan: one partitioner, and the stacks every setting runs.

:func:`plan_sweep` is the one place that groups grid points. A
*partition* is the set of points one vectorized receive can stack: they
share a front end (front-end key, ambient variant, payload length and
identity, so one cached composite envelope) and a receive decode
(receiver kind, mono or stereo). There is one executor,
:func:`~repro.engine.execution.run_stack`: a batched partition runs as
one stack of its members in the plan's chunk rows, and a serial point as
a stack of one, so the plan on
:attr:`~repro.engine.results.SweepResult.plan` is what executed.

Both settings are plans. Each partition gets one :class:`PlanDecision`
— backend, chunk rows and the rule that chose them:

- ``serial`` runs every point as a stack of one (reason
  ``"requested"``), and so does a grid of at most one point
  (``"single-point"``), where stacking buys nothing.
- ``auto`` runs every point serially when the grid cannot batch at all:
  a *measure-driven* grid's measure transmits itself, so there is
  nothing to stack (``"measure-driven"``), and an *uncached* grid has no
  shared composite envelope (``"uncached"``), so each point synthesizes
  its own. Both are properties of the whole grid, decided here, so no
  stack of more than one row ever lacks a shared composite. Otherwise a
  row-length rule picks per partition (:func:`choose_backend`): stacking
  wins on short rows, where per-point Python dispatch amortizes across
  the stack, but loses on long ones, where the memory-capped chunks
  narrow the stack until nothing is left to amortize while one-row
  stacks run on every core.

The plan's *units*, each a tuple of :class:`Stack` run in turn, go to
the runner's thread pool (:func:`~repro.engine.runner.run_units`): all
batched partitions together are one unit (so one partition's stacks are
live at a time) and each serial point is a unit of its own; under
``serial`` all points are one unit. Each unit runs on the same
pre-derived per-point seeds (fading included: a scenario's chain carries
only declarative fading specs, which each point resolves from its own
stream), so results stay bit-identical in grid order at any pool size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.engine.cache import AmbientCache
from repro.engine.scenario import GridPoint, Scenario

CROSSOVER_SAMPLES = 158_490
"""Longest mono row (MPX samples, ~0.33 s of audio) that runs batched.

Measured on a 1-CPU x86_64 host (numpy 2.4): the serial link + mono
receive path cost 251.9 ns per sample at every row length, while the
batched path cost 201.5 ns per sample at 24,000-sample rows and 257.0 ns
at 192,000-sample rows. Interpolating the batched cost log-linearly in
row length (the chunk working set crossing the cache hierarchy tracks
the *ratio* of row lengths), the two meet at
``24000 * 8 ** ((251.9 - 201.5) / (257.0 - 201.5))`` = 158,490 samples.

Stereo rows have their own crossover, :data:`STEREO_CROSSOVER_SAMPLES`.
"""

STEREO_CROSSOVER_SAMPLES = 48_000
"""Longest stereo row (MPX samples, 0.1 s of audio) that runs batched.

Measured with the compiled pilot PLL on a 2-CPU x86_64 host (numpy 2.4,
BLAS on one thread, warm caches): an 18-point stereo-only Fig. 10 grid
(3.2 kbps, -30 dBm) as one batched unit against one point per unit of a
two-thread pool. Wall time per row sample, median of 15 interleaved
runs, batched against pooled: 310 against 368 ns at 30,000-sample rows,
310 against 310 ns at 48,000, 297 against 275 ns at 60,000; median of 5
at 120,000 (351 against 272 ns) and 480,000 (388 against 228 ns). The
pooled points cost more CPU, 1.1x the batched unit's at 480,000-sample
rows and up to 1.8x at 30,000.
"""

BATCH_MAX_MB = 64.0
"""Cap (in MB) on one stacked transmit/FFT working set; a partition
larger than the cap vectorizes in row chunks, which changes nothing
numerically. Deliberately cache-sized rather than
RAM-sized: the vectorized ops are elementwise and memory-bound, so a
working set near the LLC beats one giant pass through DRAM (measured
~2.5x on the Fig. 8 grid). The cap bounds each pass, not the per-row
state that persists across passes (the MPX stack, decimated pilot
bands, the stereo candidates' MPX spectra, audio-rate rows), which is
what lets the stereo PLL span a whole partition."""

_TRANSMIT_BYTES_PER_SAMPLE = 48
"""Per-point bytes one transmit + demodulate chunk holds: the complex rx
row (16 B/sample), the discriminator's magnitude row and the
demodulated MPX row (8 each), plus slack for the link's power pass and
audio tails."""

_MPX_PER_AUDIO = int(round(MPX_RATE_HZ / AUDIO_RATE_HZ))


@dataclass(frozen=True)
class PlanDecision:
    """One partition of the grid: its points, what runs them, and why.

    Attributes:
        partition: the partition's label — receiver kind, decode mode and
            row length (``smartphone/mono@24000``), or ``measure-driven``.
        point_indices: ``GridPoint.index`` of every member, grid order —
            global indices, so shard plans merge unambiguously.
        positions: the same members as positions into the *run's* point
            list (after any ``point_slice``).
        n_samples: IQ samples per row, the payload length upsampled to
            the MPX rate (0 for a measure-driven grid).
        backend: ``batched`` (the partition is one stack) or ``serial``
            (a stack of one per member).
        chunk_rows: rows per vectorized transmit/FFT pass (1 for serial).
        reason: the rule that chose ``backend`` (``"short-rows"``,
            ``"long-rows"``, ``"requested"``, ``"uncached"``, ...).
    """

    partition: str
    point_indices: Tuple[int, ...]
    positions: Tuple[int, ...]
    n_samples: int
    backend: str
    chunk_rows: int
    reason: str


class Stack(NamedTuple):
    """One :func:`~repro.engine.execution.run_stack` call: the members'
    positions, stacked ``chunk_rows`` rows per vectorized pass."""

    positions: Tuple[int, ...]
    chunk_rows: int


Unit = Tuple[Stack, ...]
"""One unit of pooled work: stacks run in turn on one thread."""


@dataclass
class SweepPlan:
    """Everything decided for one grid.

    Attributes:
        decisions: one decision per partition, grid order.
        label: the result's backend label — ``serial`` or
            ``auto[batched:n+serial:m]``.
        units: the work for :func:`~repro.engine.runner.run_units`.
    """

    decisions: List[PlanDecision]
    label: str
    units: List[Unit]


def partition_points(
    scenario: Scenario, data: Dict[str, object], points: Sequence[GridPoint]
) -> List[Tuple[str, int, bool, List[int]]]:
    """Group a runner-transmitted grid's positions into partitions.

    The one partition key: front-end key, ambient variant, payload length
    and identity, receiver kind and decode mode. Built from chain and
    front-end value objects only — never synthesizing a waveform or building
    a receiver, so no random stream is drawn.

    Returns:
        ``(label, n_samples, stereo, positions)`` per partition, in
        first-member grid order. Partitions of different front ends may
        share a label.
    """
    from repro.experiments.common import ExperimentChain

    groups: Dict[tuple, List[int]] = {}
    for pos, point in enumerate(points):
        chain = ExperimentChain(**scenario.chain_kwargs(point))
        payload = scenario.payload_for(point, data)
        # The car radio always runs its stereo decoder; a phone decodes
        # stereo when asked to. AGC and the other output effects apply
        # row by row, so they do not split a stack.
        stereo = chain.receiver_kind == "car" or chain.stereo_decode
        key = (
            chain.front_end(),
            scenario.variant_for(point),
            payload.shape[-1],
            id(payload),
            chain.receiver_kind,
            stereo,
        )
        groups.setdefault(key, []).append(pos)
    partitions = []
    for (_, _, n_audio, _, kind, stereo), positions in groups.items():
        n_samples = int(n_audio) * _MPX_PER_AUDIO
        mode = "stereo" if stereo else "mono"
        partitions.append((f"{kind}/{mode}@{n_samples}", n_samples, stereo, positions))
    return partitions


def choose_backend(n_samples: int, stereo: bool) -> Tuple[str, str]:
    """``(backend, reason)`` of ``auto``'s row rule for one partition."""
    crossover = STEREO_CROSSOVER_SAMPLES if stereo else CROSSOVER_SAMPLES
    if n_samples <= crossover:
        return "batched", "short-rows"
    return "serial", "long-rows"


def _chunk_rows(n_samples: int, n_points: int) -> int:
    """Rows of one vectorized pass under :data:`BATCH_MAX_MB`, capped by
    the stack width."""
    bytes_per_point = max(n_samples * _TRANSMIT_BYTES_PER_SAMPLE, 1)
    return max(1, min(n_points, int(BATCH_MAX_MB * 1e6 / bytes_per_point)))


def plan_sweep(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    cache: Optional[AmbientCache],
    setting: str,
) -> SweepPlan:
    """The plan that runs ``points`` under ``setting``.

    Args:
        setting: ``"serial"`` or ``"auto"``.
    """
    if len(points) <= 1:
        setting, grid_reason = "serial", "single-point"
    elif setting == "serial":
        grid_reason = "requested"
    elif scenario.measure_driven:
        grid_reason = "measure-driven"
    elif cache is None or not scenario.cache_ambient:
        grid_reason = "uncached"
    else:
        grid_reason = None

    if not points:
        partitions = []
    elif scenario.measure_driven:
        partitions = [("measure-driven", 0, False, list(range(len(points))))]
    else:
        partitions = partition_points(scenario, data, points)
    if grid_reason is not None:
        choices = [("serial", grid_reason)] * len(partitions)
    else:
        choices = [
            choose_backend(n_samples, stereo) for _, n_samples, stereo, _ in partitions
        ]
    decisions = [
        PlanDecision(
            partition=label,
            point_indices=tuple(points[pos].index for pos in positions),
            positions=tuple(positions),
            n_samples=n_samples,
            backend=backend,
            chunk_rows=_chunk_rows(n_samples, len(positions)) if backend == "batched" else 1,
            reason=reason,
        )
        for (label, n_samples, _, positions), (backend, reason) in zip(
            partitions, choices
        )
    ]
    batched = tuple(d for d in decisions if d.backend == "batched")
    n_batched = sum(len(d.positions) for d in batched)
    serial = sorted(
        pos for d in decisions if d.backend == "serial" for pos in d.positions
    )

    # All batched partitions are one unit, so one partition's stacks are
    # live at a time. It is submitted first, as it is usually the longest.
    # A serial point is a stack of one.
    units: List[Unit] = []
    if batched:
        units.append(tuple(Stack(d.positions, d.chunk_rows) for d in batched))
    if setting == "auto":
        units += [(Stack((pos,), 1),) for pos in serial]
    elif serial:
        units.append(tuple(Stack((pos,), 1) for pos in serial))

    if setting == "auto":
        counts = {"batched": n_batched, "serial": len(serial)}
        label = "auto[" + "+".join(
            f"{backend}:{count}" for backend, count in counts.items() if count
        ) + "]"
    else:
        label = "serial"
    return SweepPlan(decisions=decisions, label=label, units=units)

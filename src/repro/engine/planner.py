"""Row-length backend planner: per-partition executor selection for ``auto``.

No single executor wins everywhere: the batched backend wins on short
rows (per-point Python dispatch amortizes across the stack) but loses on
long ones (the ``REPRO_BATCH_MAX_MB`` chunker narrows the stack until
nothing is left to amortize, while per-point units run on every core).
``auto`` decides per partition:

1. :func:`extract_features` partitions the compiled scenario exactly as
   the batched executor would (front-end group x receiver signature),
   *without synthesizing anything*, and reads each partition's stack
   width, exact row length in MPX samples and decode mode.
2. :func:`choose_backend` applies a fixed rule (see
   :data:`CROSSOVER_SAMPLES`) and :func:`plan_sweep` records every
   decision with its reason on :attr:`~repro.engine.results.SweepResult.plan`.
3. The runner hands the plan's *units* to its thread pool
   (:func:`~repro.engine.runner.run_units`): every point routed to
   serial is one unit, and all batched partitions together are another
   (one batched call, so one partition's stacks are live at a time).
   Each unit runs on the same pre-derived per-point seeds every setting
   uses, so results stay bit-identical in grid order at any pool size.

A grid with a *live* stateful fading model on any link is not
splittable (:attr:`SweepPlan.splittable`): such a model consumes its
random stream in grid order across points. Its partitions must then
agree — if their choices differ, the whole grid runs ``serial``
(reason ``"live-fading"``) — and the whole grid is one sequential unit.
That holds for a uniform grid too, whose reason (``"long-rows"``, say)
does not mention the fading. Frozen declarative specs
(:class:`~repro.channel.fading.MotionFadingSpec`) resolve from each
point's own stream and split freely.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.engine.cache import AmbientCache
from repro.engine.runner import Unit
from repro.engine.scenario import GridPoint, Scenario
from repro.utils.env import fast_numerics

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
``REPRO_NUMERICS=fast`` batches every cached
partition (its fused kernels cut the batched cost to 0.75x, and
0.75 x 257.0 ns < 251.9 ns at any row length).
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

_MPX_PER_AUDIO = int(round(MPX_RATE_HZ / AUDIO_RATE_HZ))


@dataclass(frozen=True)
class PartitionFeatures:
    """Per-partition predictors the backend rule reads.

    Attributes:
        label: partition tag (receiver kind, decode mode, row length).
        positions: positions into the *run's* point list (after any
            ``point_slice``), in grid order.
        n_points: stack width (grid points sharing this partition).
        n_samples: IQ samples per row — exact by construction, the
            payload length upsampled to the MPX rate.
        stereo: partition decodes through the stereo (multi-waveform
            PLL) batch rather than the mono batch.
        measure_driven: the measure transmits internally (no
            runner-performed transmission exists to vectorize).
        chunk_rows: rows of one vectorized chunk under the current
            ``REPRO_BATCH_MAX_MB`` budget (capped by the stack width).
        batchable: the batched executor can take this partition at all.
    """

    label: str
    positions: Tuple[int, ...]
    n_points: int
    n_samples: int
    stereo: bool
    measure_driven: bool
    chunk_rows: int
    batchable: bool

    def as_dict(self) -> Dict[str, object]:
        record = dataclasses.asdict(self)
        record["positions"] = list(self.positions)
        return record


@dataclass(frozen=True)
class PlanDecision:
    """One partition's audited planning outcome, recorded on the result.

    Attributes:
        partition: the partition's feature label.
        point_indices: ``GridPoint.index`` of every member, grid order —
            global indices, so shard plans merge unambiguously.
        backend: the executor chosen for the partition.
        chunk_rows: vectorized chunk budget in rows (1 for serial paths).
        reason: the rule that chose ``backend`` (``"short-rows"``,
            ``"long-rows"``, ``"live-fading"``, ...).
        features: the feature vector the decision was made on.
    """

    partition: str
    point_indices: Tuple[int, ...]
    backend: str
    chunk_rows: int
    reason: str
    features: Mapping[str, object]


@dataclass
class SweepPlan:
    """Everything ``auto`` decided for one grid.

    Attributes:
        decisions: one audited decision per partition.
        by_backend: run positions per executor, each list in grid order.
        label: the result's backend label, e.g. ``auto[serial:40]``.
        splittable: no live stateful fading model is on any link, so the
            grid may run as concurrent units.
        units: the work for :func:`~repro.engine.runner.run_units` —
            every batched position in one unit and each serial point
            alone when ``splittable``, else the whole grid as one
            sequential unit.
    """

    decisions: List[PlanDecision]
    by_backend: Dict[str, List[int]]
    label: str
    splittable: bool
    units: List[Unit]


def _is_live_fading(fading: object) -> bool:
    """A stateful model instance (vs a frozen per-point-resolved spec)."""
    return fading is not None and hasattr(fading, "envelope")


def live_fading_model(
    scenario: Scenario, points: Sequence[GridPoint]
) -> Optional[object]:
    """The first live stateful fading model on any point's link, if any.

    Such a model draws its random stream in grid order across points, so
    a grid carrying one cannot be split into concurrent units or shipped
    to worker processes without changing its values.
    """
    if not scenario.uses_chain:
        return None
    for point in points:
        fading = scenario.chain_kwargs(point).get("fading")
        if _is_live_fading(fading):
            return fading
    return None


def extract_features(
    scenario: Scenario,
    data: Mapping[str, object],
    points: Sequence[GridPoint],
    cache: Optional[AmbientCache],
) -> Tuple[List[PartitionFeatures], bool]:
    """Partition the grid exactly as the batched executor would and
    derive each partition's predictors — from chain/stage value objects
    only, never synthesizing a waveform or a receiver noise stream.

    Returns ``(features, splittable)``: ``splittable`` is False when a
    live stateful fading model is on any link (see module docstring).
    """
    splittable = live_fading_model(scenario, points) is None
    if scenario.measure_driven or not points:
        features = PartitionFeatures(
            label="measure-driven", positions=tuple(range(len(points))),
            n_points=len(points), n_samples=0, stereo=False,
            measure_driven=True, chunk_rows=1, batchable=False,
        )
        return [features], splittable

    from repro.engine.batch_backend import chunk_limit
    from repro.experiments.common import ExperimentChain

    batchable = cache is not None and scenario.cache_ambient

    partitions: "Dict[tuple, List[int]]" = {}
    for pos, point in enumerate(points):
        chain = ExperimentChain(**scenario.chain_kwargs(point))
        payload = scenario.payload_for(point, data)
        stage = chain.receive_stage()
        # Mirrors the executor's two-level grouping: the front-end group
        # key, then the receiver-homogeneity signature (derived from the
        # stage rather than a built receiver, so no RNG draw happens).
        stereo = stage.receiver_kind == "car" or stage.stereo_decode
        key = (
            chain.front_end_key(),
            scenario.variant_for(point),
            payload.shape[-1],
            id(payload),
            stage,
            stereo,
        )
        partitions.setdefault(key, []).append(pos)

    features: List[PartitionFeatures] = []
    for key, positions in partitions.items():
        stage, stereo = key[4], key[5]
        n_samples = int(key[2]) * _MPX_PER_AUDIO
        mode = "stereo" if stereo else "mono"
        features.append(
            PartitionFeatures(
                label=f"{stage.receiver_kind}/{mode}@{n_samples}",
                positions=tuple(positions),
                n_points=len(positions),
                n_samples=n_samples,
                stereo=bool(stereo),
                measure_driven=False,
                chunk_rows=min(len(positions), chunk_limit(n_samples)),
                batchable=batchable,
            )
        )
    return features, splittable


def choose_backend(features: PartitionFeatures) -> Tuple[str, str]:
    """``(backend, reason)`` for one partition: the first rule that matches.

    Measure-driven partitions stay ``serial`` (the engine knows nothing
    about the inside of their measures), as do uncached ones, which the
    batched executor cannot take.
    """
    if features.measure_driven:
        return "serial", "measure-driven"
    if not features.batchable:
        return "serial", "uncached"
    if fast_numerics():
        return "batched", "fast-numerics"
    crossover = STEREO_CROSSOVER_SAMPLES if features.stereo else CROSSOVER_SAMPLES
    if features.n_samples <= crossover:
        return "batched", "short-rows"
    return "serial", "long-rows"


def plan_sweep(
    scenario: Scenario,
    data: Mapping[str, object],
    points: Sequence[GridPoint],
    cache: Optional[AmbientCache],
) -> SweepPlan:
    """Choose the executor (and chunk budget) per partition."""
    features, splittable = extract_features(scenario, data, points, cache)
    choices = [choose_backend(f) for f in features]
    if not splittable and len({backend for backend, _ in choices}) > 1:
        # A live stateful fading model consumes its stream in grid order
        # across the whole grid: run it all serially, so the consumption
        # order matches a pure single-backend run.
        choices = [("serial", "live-fading")] * len(features)

    decisions: List[PlanDecision] = []
    by_backend: Dict[str, List[int]] = {}
    for f, (backend, reason) in zip(features, choices):
        decisions.append(
            PlanDecision(
                partition=f.label,
                point_indices=tuple(points[pos].index for pos in f.positions),
                backend=backend,
                chunk_rows=f.chunk_rows if backend == "batched" else 1,
                reason=reason,
                features=f.as_dict(),
            )
        )
        by_backend.setdefault(backend, []).extend(f.positions)
    for positions in by_backend.values():
        positions.sort()
    label = "auto[" + "+".join(
        f"{backend}:{len(by_backend[backend])}" for backend in sorted(by_backend)
    ) + "]"
    if splittable:
        # All batched positions are one unit, one batched call as in a
        # single-backend run, so one partition's stacks are live at a
        # time. It is submitted first, as it is usually the longest.
        units: List[Unit] = []
        if "batched" in by_backend:
            units.append(("batched", by_backend["batched"]))
        units += [("serial", [pos]) for pos in by_backend.get("serial", [])]
    else:
        # The partitions agree (see above), so this is one unit.
        units = list(by_backend.items())
    return SweepPlan(
        decisions=decisions, by_backend=by_backend, label=label,
        splittable=splittable, units=units,
    )

"""Row-length backend planner: per-partition executor selection for ``auto``.

No single executor wins everywhere: the batched backend wins ~1.3-1.5x on
short-row and stereo grids (per-point Python dispatch amortizes across the
stack) but loses on long mono rows (the ``REPRO_BATCH_MAX_MB`` chunker
narrows the stack until nothing is left to amortize). ``auto`` decides per
partition:

1. :func:`extract_features` partitions the compiled scenario exactly as
   the batched executor would (front-end group x receiver signature),
   *without synthesizing anything*, and reads each partition's stack
   width, exact row length in MPX samples and decode mode.
2. :func:`choose_backend` applies a fixed rule (see
   :data:`CROSSOVER_SAMPLES`) and :func:`plan_sweep` records every
   decision with its reason on :attr:`~repro.engine.results.SweepResult.plan`.
3. :func:`plan_and_run` dispatches *heterogeneously* — short-row
   partitions ride the batched stack while long-row ones run serially —
   on the same pre-derived per-point seeds every backend uses, so results
   stay bit-identical in grid order.

When any link carries a *live* stateful fading model and the partitions'
choices disagree, the whole grid runs ``serial``: such models consume
their random stream in grid order across points, so a split would
reorder the draws. Frozen declarative specs
(:class:`~repro.channel.fading.MotionFadingSpec`) resolve from each
point's own stream and split freely.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.engine.cache import AmbientCache
from repro.engine.execution import execute_point
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
Stereo rows always batch (the scalar pilot PLL made serial stereo 1.44x
dearer per sample, batched stereo no dearer than mono), and so does
``REPRO_NUMERICS=fast`` (its fused kernels cut the batched cost to 0.75x,
and 0.75 x 257.0 ns < 251.9 ns at any row length).
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
        reason: the rule that chose ``backend`` (``"stereo"``,
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
    """Everything ``auto`` decided for one grid."""

    decisions: List[PlanDecision]
    by_backend: Dict[str, List[int]]
    label: str


def _is_live_fading(fading: object) -> bool:
    """A stateful model instance (vs a frozen per-point-resolved spec)."""
    return fading is not None and hasattr(fading, "envelope")


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
    if scenario.measure_driven or not points:
        features = PartitionFeatures(
            label="measure-driven", positions=tuple(range(len(points))),
            n_points=len(points), n_samples=0, stereo=False,
            measure_driven=True, chunk_rows=1, batchable=False,
        )
        return [features], True

    from repro.engine.batch_backend import chunk_limit
    from repro.experiments.common import ExperimentChain

    batchable = cache is not None and scenario.cache_ambient

    partitions: "Dict[tuple, List[int]]" = {}
    splittable = True
    for pos, point in enumerate(points):
        chain_kwargs = scenario.chain_kwargs(point)
        chain = ExperimentChain(**chain_kwargs)
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
        if _is_live_fading(chain_kwargs.get("fading")):
            splittable = False

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
    if features.stereo:
        return "batched", "stereo"
    if fast_numerics():
        return "batched", "fast-numerics"
    if features.n_samples <= CROSSOVER_SAMPLES:
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
    return SweepPlan(decisions=decisions, by_backend=by_backend, label=label)


def plan_and_run(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    cache: Optional[AmbientCache],
    ambient_master: int,
) -> Tuple[List[object], int, List[PlanDecision], str]:
    """Plan the grid, then execute each partition on its chosen backend.

    Bit-identity across any split holds for the same reason it holds
    across whole-grid backends: every point's stream seed is pre-derived
    before execution, and each executor rebuilds ``default_rng(seed)``
    per point (live stateful fading disables splits; see :func:`plan_sweep`).

    Returns:
        ``(values, n_fallbacks, decisions, label)`` — values in grid
        order; ``n_fallbacks`` counts batch-eligible points the batched
        executor bounced to its serial fallback (points the *planner*
        routed to serial are decisions, not fallbacks).
    """
    plan = plan_sweep(scenario, data, points, cache)
    values: List[object] = [None] * len(points)
    n_fallbacks = 0
    for backend, positions in plan.by_backend.items():
        if backend == "batched":
            from repro.engine.batch_backend import run_batched_backend

            sub_values, _, sub_fallbacks = run_batched_backend(
                scenario, data, [points[pos] for pos in positions],
                [seeds[pos] for pos in positions], cache, ambient_master,
            )
            n_fallbacks += sub_fallbacks
            for pos, value in zip(positions, sub_values):
                values[pos] = value
        else:  # serial
            for pos in positions:
                values[pos] = execute_point(
                    scenario, points[pos], seeds[pos], data, cache, ambient_master
                )
    return values, n_fallbacks, plan.decisions, plan.label

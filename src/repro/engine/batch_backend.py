"""Batched-vectorized sweep execution.

The paper's link-budget grids share one front end: a P×D sweep reuses the
same cached composite envelope at every point, and only the link (SNR,
fading, noise) and the receiver's stochastic effects differ per point.
This backend exploits that structurally: points are grouped by front-end
key (program/mode/amplitude + payload + ambient variant), each group's
envelope is stacked into a ``(points, samples)`` array, and the link
fading + noise scaling, FM discriminator, audio decode and low-pass run
as NumPy ops over the stack
(:func:`repro.experiments.common.receive_over_link` per partition).

Coverage is total over the runner-transmitted scenario space — no chain
feature forces a per-point fallback:

- **Fading links** batch: per-point envelopes are pre-drawn *in serial
  grid order* through :func:`repro.channel.fading.stack_envelopes`
  (stateful models consume their streams exactly as the serial loop
  would; declarative :class:`~repro.channel.fading.MotionFadingSpec`
  links resolve from each point's own pre-derived stream) and applied
  row-wise inside ``transmit_batch``.
- **Stereo-capable receivers** (phone stereo *and* the car radio) batch
  through the multi-waveform pilot PLL
  (:meth:`repro.dsp.pll.PhaseLockedLoop.track_batch`). The PLL runs on
  the decimated pilot band of the *whole* partition in one call,
  independent of the FFT chunking below.
- **Receiver output effects** (smartphone AGC + codec noise, the car
  cabin microphone path) and **de-emphasis** batch through
  :meth:`repro.receiver.fm_receiver.FMReceiver.apply_output_effects_batch`
  and the 2-D de-emphasis IIR — applied once per partition, random
  draws still per row from each point's own generator.

Bit-identity with the serial backend holds because (a) the serial
per-point chain is the one-row call of these same batch functions
(:meth:`~repro.experiments.common.ExperimentChain.transmit` calls
``receive_over_link`` with one row, and
:meth:`~repro.channel.fading.BodyMotionFading.envelope` is a batch of
one), whose operations are row-independent, and (b) every stochastic
draw comes from the point's own pre-derived generators, split by
:meth:`~repro.experiments.common.ExperimentChain.stage_streams` — the
method the per-point ``transmit`` uses too.

Scenarios whose ``measure`` performs its own transmissions (Fig. 12's
two-phone cancellation, the deployment layer's MAC-gated per-device
frames, the survey figures) declare no ``payload``, so there is no
runner-performed transmission to vectorize; their points execute through
the serial :func:`~repro.engine.execution.execute_point` by
construction. Those are *measure-driven* points, not fallbacks:
:attr:`repro.engine.results.SweepResult.n_fallbacks` counts only points
the backend was asked to vectorize (a declared chain + payload) but had
to run serially — which, with the paths above, is zero across the
entire scenario space.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.fading import stack_envelopes
from repro.channel.link import resolve_fading
from repro.constants import MPX_RATE_HZ
from repro.engine.cache import AmbientCache
from repro.engine.execution import execute_point, make_ambient
from repro.engine.scenario import GridPoint, PointRun, Scenario
from repro.utils.env import env_float

BATCH_MEMORY_ENV_VAR = "REPRO_BATCH_MAX_MB"
"""Cap (in MB) on one stacked FFT working set; grids larger than the cap
vectorize in row slices, which changes nothing numerically. Malformed
or non-positive values raise :class:`~repro.errors.ConfigurationError`."""

_DEFAULT_BATCH_MB = 64.0
"""Default chunk budget. Deliberately cache-sized rather than RAM-sized:
the vectorized ops are elementwise and memory-bound, so a working set
near the LLC beats one giant pass through DRAM (measured ~2.5x on the
Fig. 8 grid)."""

_TRANSMIT_BYTES_PER_SAMPLE = 48
"""Per-point bytes one transmit + demodulate chunk holds: the complex rx
row (16 B/sample), the discriminator's magnitude row and the
demodulated MPX row (8 each), plus slack for the link's power pass and
audio tails."""


def batch_memory_budget_mb() -> float:
    """The configured chunk budget in MB, strictly parsed."""
    return env_float(
        BATCH_MEMORY_ENV_VAR, _DEFAULT_BATCH_MB, minimum=0.0, minimum_exclusive=True
    )


def chunk_limit(n_samples: int, budget_mb: Optional[float] = None) -> int:
    """How many grid points fit one vectorized chunk under the memory cap.

    The cap bounds the *working set* of each FFT/transmit pass — the
    decode stages receive it as their ``max_fft_rows`` — not the per-row
    state that persists across passes (the MPX stack, decimated pilot
    bands, the stereo candidates' MPX spectra, audio-rate rows), which is
    what lets the stereo PLL span a whole partition regardless of this
    limit. The planner records this limit
    on each batched :class:`~repro.engine.planner.PlanDecision`, so the
    plan names the exact chunk rows the batched executor will use.
    """
    if budget_mb is None:
        budget_mb = batch_memory_budget_mb()
    bytes_per_point = n_samples * _TRANSMIT_BYTES_PER_SAMPLE
    return max(1, int(budget_mb * 1e6 / max(bytes_per_point, 1)))


def receiver_partition_signature(receiver) -> tuple:
    """The homogeneity key one vectorized partition shares.

    Points whose receivers agree on this tuple decode through one stacked
    pass (mono or stereo); the planner groups by the same key so its
    per-partition decisions line up one-to-one with the partitions the
    executor will actually run.
    """
    return (
        type(receiver), receiver.stereo_capable, receiver.mpx_rate,
        receiver.audio_rate, receiver.deviation_hz, receiver.audio_cutoff_hz,
        receiver.apply_deemphasis,
    )


def run_batched_backend(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    cache: Optional[AmbientCache],
    ambient_master: int,
) -> Tuple[List[object], int, int]:
    """Execute the grid with per-front-end vectorization.

    Returns:
        ``(values, n_batched, n_fallbacks)`` — values in grid order, how
        many points took the vectorized path, and how many batch-eligible
        points (scenario declares a chain + payload) had to run serially
        instead. Points of measure-driven scenarios (no declared payload)
        execute serially by construction and are not fallbacks.
    """
    from repro.experiments.common import ExperimentChain

    values: List[object] = [None] * len(points)
    fallback: List[int] = []
    # group key -> list of point indices; insertion order keeps execution
    # deterministic (not that order matters — streams are pre-derived).
    groups: "Dict[tuple, List[int]]" = {}
    chains: Dict[int, ExperimentChain] = {}
    payloads: Dict[int, np.ndarray] = {}

    eligible = not scenario.measure_driven
    batchable_scenario = (
        eligible and cache is not None and scenario.cache_ambient
    )
    for i, point in enumerate(points):
        if not batchable_scenario:
            fallback.append(i)
            continue
        chains[i] = ExperimentChain(**scenario.chain_kwargs(point))
        payloads[i] = scenario.payload_for(point, data)
        key = (
            chains[i].front_end_key(),
            scenario.variant_for(point),
            payloads[i].shape[-1],
            id(payloads[i]),
        )
        groups.setdefault(key, []).append(i)

    # Group envelopes first (one cached synthesis per group), because the
    # fading pre-pass below needs every point's sample count.
    ambients: Dict[tuple, object] = {}
    group_iq: Dict[tuple, np.ndarray] = {}
    for key, indices in groups.items():
        first = indices[0]
        ambients[key] = make_ambient(scenario, points[first], cache, ambient_master)
        group_iq[key] = ambients[key].modulated_composite(
            chains[first].front_end(), payloads[first]
        )
    iq_size: Dict[int, int] = {
        i: group_iq[key].size for key, indices in groups.items() for i in indices
    }

    # Per-point streams, in grid order, from the same chain method
    # transmit uses; the link child's own "fade" child resolves a
    # declarative fading spec, as inside the link.
    batchable = sorted(chains)
    gens: Dict[int, np.random.Generator] = {}
    link_rngs: Dict[int, np.random.Generator] = {}
    fadings: Dict[int, object] = {}
    receivers: Dict[int, object] = {}
    budgets: Dict[int, object] = {}
    for i in batchable:
        gens[i] = np.random.default_rng(seeds[i])
        _, link_rngs[i], receivers[i] = chains[i].stage_streams(gens[i])
        fading = resolve_fading(chains[i].fading, link_rngs[i])
        if fading is not None:
            fadings[i] = fading
        budgets[i] = chains[i].link_budget()

    # Fading pre-pass, strictly in grid order: a stateful model shared
    # across points consumes its stream exactly as the serial loop
    # would. Runs of consecutive fading points with one sample count
    # stack into a single vectorized envelope synthesis.
    envelopes: Dict[int, np.ndarray] = {}
    run_indices: List[int] = []
    for i in batchable:
        if i not in fadings:
            continue
        if run_indices and iq_size[run_indices[-1]] != iq_size[i]:
            _flush_envelope_run(run_indices, fadings, iq_size, envelopes)
            run_indices = []
        run_indices.append(i)
    _flush_envelope_run(run_indices, fadings, iq_size, envelopes)

    for key, indices in groups.items():
        _run_group(
            scenario, data, points, group_iq[key], ambients[key],
            indices, chains, gens, link_rngs, receivers, budgets,
            envelopes, values,
        )

    for i in fallback:
        values[i] = execute_point(
            scenario, points[i], seeds[i], data, cache, ambient_master
        )
    n_batched = len(points) - len(fallback)
    n_fallbacks = len(fallback) if eligible else 0
    return values, n_batched, n_fallbacks


def _flush_envelope_run(
    run_indices: List[int],
    fadings: Dict[int, object],
    iq_size: Dict[int, int],
    envelopes: Dict[int, np.ndarray],
) -> None:
    """Draw one grid-order run of fading envelopes as a stacked synthesis."""
    if not run_indices:
        return
    stack = stack_envelopes(
        [fadings[i] for i in run_indices], iq_size[run_indices[0]], MPX_RATE_HZ
    )
    for k, i in enumerate(run_indices):
        envelopes[i] = stack[k]


def _run_group(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    iq: np.ndarray,
    ambient: object,
    indices: List[int],
    chains: Dict[int, object],
    gens: Dict[int, np.random.Generator],
    link_rngs: Dict[int, np.random.Generator],
    receivers: Dict[int, object],
    budgets: Dict[int, object],
    envelopes: Dict[int, np.ndarray],
    values: List[object],
) -> None:
    """Vectorize one shared-front-end group of grid points."""
    from repro.experiments.common import receive_over_link

    # One group can still mix receiver configurations (e.g. a
    # receiver-kind axis downstream of a shared front end); each
    # homogeneous slice batches separately — mono receivers through the
    # mono decode, stereo-capable ones (phone stereo decode, the car
    # radio) through the multi-waveform-PLL stereo decode. Every
    # receiver batches one way or the other. Within a partition the link
    # and the discriminator run in memory-capped chunks, and only the
    # real MPX rows outlive a chunk (see receive_over_link).
    partitions: "Dict[tuple, List[int]]" = {}
    for i in indices:
        partitions.setdefault(receiver_partition_signature(receivers[i]), []).append(i)

    limit = chunk_limit(iq.size)
    for members in partitions.values():
        received_rows = receive_over_link(
            iq,
            [receivers[i] for i in members],
            [budgets[i] for i in members],
            [link_rngs[i] for i in members],
            [envelopes.get(i) for i in members],
            chunk_rows=limit,
        )
        for i, received in zip(members, received_rows):
            # The group key pins the variant, so the group-level
            # ambient is every member point's ambient.
            chains[i].ambient_source = ambient
            run = PointRun(
                point=points[i],
                rng=gens[i],
                data=data,
                ambient=ambient,
                chain=chains[i],
                received=received,
            )
            values[i] = scenario.measure(run, **scenario.measure_params)

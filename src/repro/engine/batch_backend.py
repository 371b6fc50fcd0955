"""Batched-vectorized sweep execution.

The paper's link-budget grids share one front end: a P×D sweep reuses the
same cached composite envelope at every point, and only the link (SNR,
fading, noise) and the receiver's stochastic effects differ per point.
This backend exploits that structurally: each partition of the plan
(points sharing one front end and one receive decode) stacks its shared
envelope into a ``(points, samples)`` array, and the link fading + noise
scaling, FM discriminator, audio decode and low-pass run as NumPy ops
over the stack, in memory-capped row chunks
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
  independent of the row chunking.
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

The partitions come from the plan
(:func:`~repro.engine.planner.plan_sweep`), the one place that groups
grid points and decides batchability, so this executor stacks exactly
the rows each batched :class:`~repro.engine.planner.PlanDecision` names,
in its ``chunk_rows``, and never meets a point it cannot stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.channel.fading import stack_envelopes
from repro.channel.link import resolve_fading
from repro.constants import MPX_RATE_HZ
from repro.engine.cache import AmbientCache
from repro.engine.execution import make_ambient
from repro.engine.planner import PlanDecision
from repro.engine.scenario import GridPoint, PointRun, Scenario


def run_batched_backend(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    cache: Optional[AmbientCache],
    ambient_master: int,
    partitions: Sequence[PlanDecision],
    values: List[object],
) -> None:
    """Run each planned partition as one vectorized stack.

    Writes each member's measured value into ``values`` at its position.
    """
    from repro.experiments.common import ExperimentChain, receive_over_link

    # Partition envelopes first (one cached synthesis per front end),
    # because the fading pre-pass below needs every point's sample count.
    ambients = []
    iqs = []
    chains: Dict[int, ExperimentChain] = {}
    iq_size: Dict[int, int] = {}
    for partition in partitions:
        first = partition.positions[0]
        for pos in partition.positions:
            chains[pos] = ExperimentChain(**scenario.chain_kwargs(points[pos]))
        ambient = make_ambient(scenario, points[first], cache, ambient_master)
        iq = ambient.modulated_composite(
            chains[first].front_end(), scenario.payload_for(points[first], data)
        )
        ambients.append(ambient)
        iqs.append(iq)
        iq_size.update((pos, iq.size) for pos in partition.positions)

    # Per-point streams, in grid order, from the same chain method
    # transmit uses; the link child's own "fade" child resolves a
    # declarative fading spec, as inside the link.
    order = sorted(chains)
    gens: Dict[int, np.random.Generator] = {}
    link_rngs: Dict[int, np.random.Generator] = {}
    fadings: Dict[int, object] = {}
    receivers: Dict[int, object] = {}
    for pos in order:
        gens[pos] = np.random.default_rng(seeds[pos])
        _, link_rngs[pos], receivers[pos] = chains[pos].stage_streams(gens[pos])
        fading = resolve_fading(chains[pos].fading, link_rngs[pos])
        if fading is not None:
            fadings[pos] = fading

    # Fading pre-pass, strictly in grid order across every partition: a
    # stateful model shared across points consumes its stream exactly as
    # the serial loop would. Runs of consecutive fading points with one
    # sample count stack into a single vectorized envelope synthesis.
    envelopes: Dict[int, np.ndarray] = {}
    fading_run: List[int] = []
    for pos in order:
        if pos not in fadings:
            continue
        if fading_run and iq_size[fading_run[-1]] != iq_size[pos]:
            _flush_envelope_run(fading_run, fadings, iq_size, envelopes)
            fading_run = []
        fading_run.append(pos)
    _flush_envelope_run(fading_run, fadings, iq_size, envelopes)

    # Within a partition the link and the discriminator run in
    # chunk_rows-row passes, and only the real MPX rows outlive a pass
    # (see receive_over_link).
    for partition, ambient, iq in zip(partitions, ambients, iqs):
        members = partition.positions
        received_rows = receive_over_link(
            iq,
            [receivers[pos] for pos in members],
            [chains[pos].link_budget() for pos in members],
            [link_rngs[pos] for pos in members],
            [envelopes.get(pos) for pos in members],
            chunk_rows=partition.chunk_rows,
        )
        for pos, received in zip(members, received_rows):
            # The partition key pins the variant, so the partition's
            # ambient is every member point's ambient.
            chains[pos].ambient_source = ambient
            run = PointRun(
                point=points[pos],
                rng=gens[pos],
                data=data,
                ambient=ambient,
                chain=chains[pos],
                received=received,
            )
            values[pos] = scenario.measure(run, **scenario.measure_params)


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

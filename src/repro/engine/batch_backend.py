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

- **Fading links** batch: each point's declarative
  :class:`~repro.channel.fading.MotionFadingSpec` builds its model on
  the point's own ``"fade"`` stream, so one
  :func:`repro.channel.fading.stack_envelopes` call per partition draws
  the members' envelopes, in any order, and ``transmit_batch`` applies
  them row-wise.
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

    for partition in partitions:
        members = partition.positions
        chains = [ExperimentChain(**scenario.chain_kwargs(points[pos])) for pos in members]
        # The partition key pins the front end, the variant and the
        # payload, so the first member's ambient and composite envelope
        # are every member's.
        first = points[members[0]]
        ambient = make_ambient(scenario, first, cache, ambient_master)
        iq = ambient.modulated_composite(
            chains[0].front_end(), scenario.payload_for(first, data)
        )

        # Per-point streams from the same chain method transmit uses; the
        # link child's own "fade" child resolves a fading spec, as inside
        # the link.
        gens, link_rngs, receivers, fadings = [], [], [], []
        for pos, chain in zip(members, chains):
            gen = np.random.default_rng(seeds[pos])
            _, link_rng, receiver = chain.stage_streams(gen)
            fadings.append(resolve_fading(chain.fading, link_rng))
            gens.append(gen)
            link_rngs.append(link_rng)
            receivers.append(receiver)
        envelopes: List[Optional[np.ndarray]] = [None] * len(members)
        faded = [k for k, fading in enumerate(fadings) if fading is not None]
        if faded:
            stack = stack_envelopes([fadings[k] for k in faded], iq.size, MPX_RATE_HZ)
            for k, envelope in zip(faded, stack):
                envelopes[k] = envelope

        # The link and the discriminator run in chunk_rows-row passes,
        # and only the real MPX rows outlive a pass (see receive_over_link).
        received_rows = receive_over_link(
            iq,
            receivers,
            [chain.link_budget() for chain in chains],
            link_rngs,
            envelopes,
            chunk_rows=partition.chunk_rows,
        )
        for pos, chain, gen, received in zip(members, chains, gens, received_rows):
            chain.ambient_source = ambient
            run = PointRun(
                point=points[pos],
                rng=gen,
                data=data,
                ambient=ambient,
                chain=chain,
                received=received,
            )
            values[pos] = scenario.measure(run, **scenario.measure_params)

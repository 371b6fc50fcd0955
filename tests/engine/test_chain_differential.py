"""Differential check of the receive chain over generated scenarios.

The golden grids pin a handful of hand-picked configurations. This suite
draws small link-budget scenarios over every chain knob the sweep
backends treat differently — backscatter mode, receiver kind, stereo
decoding, the phone's AGC, body-motion fading, power and distance — and
asserts the one contract all of them rest on: ``serial`` and ``auto``
return bit-identical values, and each row of ``auto``'s stacks (every
generated row is short enough to stack) is exactly the point's own
:meth:`ExperimentChain.transmit`.
The distributed launcher is held to the same contract: two workers under
each setting, and once with a worker killed mid-grid. A fixed grid with
fading on two partitions checks that each partition's own envelope
stack reproduces every point's transmission, and a fixed uncached grid
checks the one-row stacks that synthesize their own composite.
Payloads are at most 0.05 s, so a whole run stays in tier-1's budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.tones import tone
from repro.backscatter.device import BackscatterMode
from repro.channel.fading import MOTION_PROFILES, MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.engine import (
    AmbientCache, PayloadSelector, Scenario, SweepRunner, SweepSpec, launch_sweep,
)
from repro.engine.execution import make_ambient
from repro.engine.faults import FAULTS_ENV_VAR
from repro.engine.runner import BACKEND_ENV_VAR, derive_streams
from repro.experiments.common import ExperimentChain

SEED = 2017
CACHE = AmbientCache()


def _reception(received):
    """The whole reception, so the comparison covers every output."""
    return received.left, received.right, received.mpx, received.stereo_locked


def _capture(run):
    return _reception(run.received)


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from([BackscatterMode.OVERLAY, BackscatterMode.STEREO]))
    kinds = draw(
        st.sampled_from([("smartphone",), ("car",), ("smartphone", "car")])
    )
    fading = draw(st.sampled_from([None, *sorted(MOTION_PROFILES)]))
    powers = draw(
        st.lists(
            st.sampled_from([-20.0, -35.0, -47.5, -60.0]),
            min_size=1, max_size=2, unique=True,
        )
    )
    distances = draw(
        st.lists(
            # Two distances at least: a one-point grid always runs serially.
            st.sampled_from([1.0, 3.0, 8.0, 20.0]), min_size=2, max_size=2, unique=True
        )
    )
    duration = draw(st.sampled_from([0.02, 0.05]))
    payload = tone(draw(st.sampled_from([500.0, 1000.0, 3000.0])), duration,
                   AUDIO_RATE_HZ, amplitude=0.9)
    return Scenario(
        name="differential",
        sweep=SweepSpec.grid(
            receiver_kind=kinds, power_dbm=tuple(powers), distance_ft=tuple(distances)
        ),
        prepare=lambda gen: {"payload": payload},
        base_chain={
            "mode": mode,
            "stereo_decode": draw(st.booleans()),
            "agc": draw(st.booleans()),
            "fading": None if fading is None else MotionFadingSpec(fading),
        },
        chain_axes=("receiver_kind", "power_dbm", "distance_ft"),
        payload="payload",
        measure=_capture,
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(scenario=scenarios())
def test_backends_and_per_point_transmit_agree(scenario):
    serial = SweepRunner(scenario, rng=SEED, cache=CACHE, backend="serial").run()
    auto = SweepRunner(scenario, rng=SEED, cache=CACHE, backend="auto").run()
    n = len(auto.points)
    assert all(d.backend == "batched" for d in auto.plan)
    assert auto.backend == f"auto[batched:{n}]"
    assert len(auto.values) == len(serial.values)
    for i, (got, want) in enumerate(zip(auto.values, serial.values)):
        assert _same(got, want), i

    data, points, seeds, ambient_master = derive_streams(
        scenario, np.random.default_rng(SEED)
    )
    for i, point in enumerate(points):
        chain = ExperimentChain(**scenario.chain_kwargs(point))
        chain.ambient_source = make_ambient(scenario, point, CACHE, ambient_master)
        received = chain.transmit(data["payload"], np.random.default_rng(seeds[i]))
        assert _same(auto.values[i], _reception(received)), i


def test_spec_fading_over_two_partitions_agrees():
    # Two payload lengths interleave in grid order, so the fading points
    # of the two partitions alternate; each partition draws its members'
    # envelopes in one stack_envelopes call.
    payloads = {
        "short": tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9),
        "long": tone(3000.0, 0.05, AUDIO_RATE_HZ, amplitude=0.9),
    }
    fadings = {
        "none": {"fading": None},
        **{name: {"fading": MotionFadingSpec(name)} for name in ("walking", "running")},
    }
    scenario = Scenario(
        name="two-partition-fading",
        sweep=SweepSpec.grid(
            distance_ft=(2.0, 8.0), row=("short", "long"), motion=tuple(fadings)
        ),
        prepare=lambda gen: dict(payloads),
        base_chain={"program": "silence", "stereo_decode": False, "power_dbm": -40.0},
        chain_axes=("distance_ft",),
        chain_value_params={"motion": fadings},
        payload=PayloadSelector("row", {"short": "short", "long": "long"}),
        measure=_capture,
    )
    serial = SweepRunner(scenario, rng=SEED, cache=CACHE, backend="serial").run().values
    auto = SweepRunner(scenario, rng=SEED, cache=CACHE, backend="auto").run()
    assert [d.backend for d in auto.plan] == ["batched", "batched"]
    for i, (got, want) in enumerate(zip(auto.values, serial)):
        assert _same(got, want), i

    data, points, seeds, ambient_master = derive_streams(
        scenario, np.random.default_rng(SEED)
    )
    for i, point in enumerate(points):
        chain = ExperimentChain(**scenario.chain_kwargs(point))
        chain.ambient_source = make_ambient(scenario, point, CACHE, ambient_master)
        received = chain.transmit(
            scenario.payload_for(point, data), np.random.default_rng(seeds[i])
        )
        assert _same(serial[i], _reception(received)), i


def test_uncached_one_row_stacks_agree():
    # With ambient caching off there is no shared composite: every point
    # is planned serial ("uncached") and its one-row stack synthesizes
    # the composite from its own station stream, fading and both
    # receiver kinds included.
    scenario = Scenario(
        name="uncached",
        sweep=SweepSpec.grid(
            receiver_kind=("smartphone", "car"), distance_ft=(2.0, 8.0),
            motion=("none", "running"),
        ),
        prepare=lambda gen: {"payload": tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)},
        base_chain={"power_dbm": -40.0, "stereo_decode": True},
        chain_axes=("receiver_kind", "distance_ft"),
        chain_value_params={
            "motion": {
                "none": {"fading": None},
                "running": {"fading": MotionFadingSpec("running")},
            }
        },
        payload="payload",
        measure=_capture,
        cache_ambient=False,
    )
    results = {
        backend: SweepRunner(scenario, rng=SEED, backend=backend).run()
        for backend in ("serial", "auto")
    }
    for backend, result in results.items():
        reason = "requested" if backend == "serial" else "uncached"
        assert result.plan, backend
        assert {(d.backend, d.reason) for d in result.plan} == {("serial", reason)}
        for i, (got, want) in enumerate(zip(result.values, results["serial"].values)):
            assert _same(got, want), (backend, i)

    data, points, seeds, _ = derive_streams(scenario, np.random.default_rng(SEED))
    for i, point in enumerate(points):
        chain = ExperimentChain(**scenario.chain_kwargs(point))
        received = chain.transmit(data["payload"], np.random.default_rng(seeds[i]))
        assert _same(results["serial"].values[i], _reception(received)), i


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(scenario=scenarios())
def test_launcher_agrees_with_serial(scenario):
    # Four-point shards, so a killed shard's re-sliced halves still stack.
    serial = SweepRunner(scenario, rng=SEED, cache=CACHE, backend="serial").run()
    runs = [
        {BACKEND_ENV_VAR: "serial"},
        {BACKEND_ENV_VAR: "auto"},
        {BACKEND_ENV_VAR: "auto", FAULTS_ENV_VAR: "kill-shard:0"},
    ]
    for env in runs:
        with pytest.MonkeyPatch.context() as patch:
            for name, value in env.items():
                patch.setenv(name, value)
            report = launch_sweep(scenario, rng=SEED, n_workers=2, shard_points=4)
        assert report.failures == (1 if FAULTS_ENV_VAR in env else 0), env
        values = report.result.values
        assert len(values) == len(serial.values)
        for i, (got, want) in enumerate(zip(values, serial.values)):
            assert _same(got, want), (env, i)

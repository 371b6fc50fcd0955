"""Sweep engine: declarative scenarios, multi-backend grids, ambient caching.

Every paper-figure experiment is a parameter sweep (power x distance x
rate x program x receiver) over the same physical chain. This package
separates the *what* from the *how*: a :class:`Scenario` declares the
grid, the per-point RNG derivation, the transmission payload and the
measurement — as plain data (:class:`AxisRef` templates, ``chain_axes``,
module-level measures), so a grid point can be shipped across a process
boundary. A :class:`SweepRunner` executes it ``serial``, ``batched`` or
— the default — ``auto`` (see ``REPRO_SWEEP_BACKEND``). Every setting
is a plan (:func:`plan_sweep`): the grid's partitions, each run as one
vectorized stack (``batched``) or as a stack of one per point
(``serial``; ``auto`` picks per partition by row length), all through
one executor on one thread pool, with every decision recorded on
``SweepResult.plan``. A keyed :class:`AmbientCache` synthesizes and
FM-modulates each ambient program exactly once per sweep instead of
once per grid point — and at most once *ever* per configuration when
``REPRO_CACHE_DIR`` points the cache at a persistent
:class:`CacheStore`.

Usage (plain data plus a module-level measure, so the same scenario
also runs on the distributed launcher's worker processes)::

    from repro.engine import AxisRef, Scenario, SweepSpec, SweepRunner

    def score_ber(run, modem):          # module level => picklable
        bits = run.data["bits"]
        audio = run.chain.payload_channel(run.received)
        return bit_error_rate(bits, modem.demodulate(audio, bits.size))

    scenario = Scenario(
        name="fig8",
        sweep=SweepSpec.grid(power_dbm=(-20.0, -40.0), distance_ft=(2, 8)),
        prepare=lambda gen: make_payload_dict(gen),   # parent-only
        base_chain={"program": "news", "stereo_decode": False},
        chain_axes=("power_dbm", "distance_ft"),
        rng_keys=("fig8", AxisRef("power_dbm"), AxisRef("distance_ft")),
        payload="waveform",             # the runner transmits it per point
        measure=score_ber,
        measure_params={"modem": modem},
    )
    result = SweepRunner(scenario, rng=2017, backend="batched").run()
    series = result.series(along="distance_ft", power_dbm=-40.0)

Fading on a scenario's chain is a declarative spec
(:class:`~repro.channel.fading.MotionFadingSpec`), which each point
resolves from its own stream; ``Scenario.chain_kwargs`` refuses a live
stateful model. ``prepare`` may be a closure (it runs in the parent
only); the launcher needs a module-level ``measure``.

Many-device deployments (:mod:`repro.engine.deployment`) build on the
same machinery: a :class:`DeploymentScenario` (device roster +
:class:`ChannelPlan` coexistence policy + receiver placement) compiles
into a picklable Scenario whose axes include device count, per-device
power, ALOHA slot count and sign density. Sweeps also shard:
``SweepRunner.run(point_slice=(start, stop))`` executes a contiguous
slice with the whole grid's pre-derived seeds, and
:meth:`SweepResult.merge` stitches shards back bit-identically. The
distributed launcher (:func:`launch_sweep`, :mod:`repro.engine.launcher`)
fans those shards out across worker processes — surviving crashes and
stragglers by re-slicing and re-queueing, merging back bit-identically —
and :class:`SweepService` (:mod:`repro.engine.service`) puts an asyncio
``submit`` / ``status`` / ``fetch`` front door on it so many concurrent
submissions share one warm :class:`CacheStore`.

Determinism contract: the per-point streams are pre-derived from the
sweep generator in grid order (exactly the draws the legacy nested loops
consumed), so results are bit-identical across all three settings, the
launcher and any worker count. Set ``REPRO_SWEEP_WORKERS=<n>`` / ``REPRO_SWEEP_BACKEND=
<backend>`` to change execution for every figure sweep without touching
call sites.
"""

from repro.engine.cache import AmbientCache, CachedAmbient, default_cache, payload_fingerprint
from repro.engine.faults import Fault, FaultPlan, active_plan, parse_faults
from repro.engine.journal import JobJournal, JournaledJob
from repro.engine.launcher import LaunchReport, Shard, launch_sweep
from repro.engine.service import JobStatus, SweepService
from repro.engine.deployment import (
    ChannelAssignment,
    ChannelPlan,
    DeploymentScenario,
    DeviceSpec,
    ReceiverPlacement,
    make_roster,
)
from repro.engine.planner import PlanDecision, plan_sweep
from repro.engine.results import SweepResult, format_axis_value, power_key
from repro.engine.runner import (
    AUTO_BACKEND,
    BACKEND_CHOICES,
    SweepRunner,
    default_backend,
    default_max_workers,
    run_scenario,
)
from repro.engine.scenario import (
    Axis,
    AxisRef,
    GridPoint,
    PayloadSelector,
    PointRun,
    Scenario,
    SweepSpec,
)
from repro.engine.store import CacheStore

__all__ = [
    "AUTO_BACKEND",
    "AmbientCache",
    "Axis",
    "AxisRef",
    "BACKEND_CHOICES",
    "CachedAmbient",
    "CacheStore",
    "ChannelAssignment",
    "ChannelPlan",
    "DeploymentScenario",
    "DeviceSpec",
    "Fault",
    "FaultPlan",
    "GridPoint",
    "JobJournal",
    "JobStatus",
    "JournaledJob",
    "LaunchReport",
    "PayloadSelector",
    "PlanDecision",
    "PointRun",
    "ReceiverPlacement",
    "Scenario",
    "Shard",
    "SweepResult",
    "SweepRunner",
    "SweepService",
    "SweepSpec",
    "active_plan",
    "default_backend",
    "default_cache",
    "default_max_workers",
    "format_axis_value",
    "launch_sweep",
    "make_roster",
    "parse_faults",
    "payload_fingerprint",
    "plan_sweep",
    "power_key",
    "run_scenario",
]

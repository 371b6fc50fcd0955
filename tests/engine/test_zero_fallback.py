"""Zero-fallback coverage of the batched backend.

The acceptance bar for the vectorized sweep path: on the paper grids —
Fig. 9 (MRC receptions), Fig. 10/13 (stereo decode), Fig. 12
(cooperative listening) and the deployment scale-out — running with
``REPRO_SWEEP_BACKEND=batched`` plans **every** point of a batch-eligible
grid onto the vectorized stack (every
:attr:`~repro.engine.results.SweepResult.plan` decision is ``batched``
and the label is ``batched[N/N]``), and a fading grid — the case that
used to fall back 100% — is bit-identical across every runner setting
and pool size. CI runs this file as a fast, non-timing gate so a
coverage regression is caught without relying on wall-clock numbers.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.fading import MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.data.fdm import FdmFskModem
from repro.engine import AmbientCache, Scenario, SweepRunner, SweepSpec
from repro.errors import LinkBudgetError
from repro.experiments import deployment_scale
from repro.experiments import fig09_mrc as fig09
from repro.experiments import fig10_stereo_ber as fig10
from repro.experiments import fig12_pesq_cooperative as fig12
from repro.experiments import fig13_pesq_stereo as fig13

SEED = 2017
RUNS = (("serial", None), ("auto", 2), ("auto", 4), ("batched", None), ("auto", None))
"""``(backend, max_workers)`` rows, serial first."""


def _run(scenario, backend, **kwargs):
    return SweepRunner(
        scenario, rng=SEED, cache=AmbientCache(), backend=backend, **kwargs
    ).run()


def _assert_fully_batched(result):
    """Every decision of a batch-eligible grid runs on the batched stack."""
    assert result.plan and all(d.backend == "batched" for d in result.plan)
    n = len(result.points)
    assert result.backend == f"batched[{n}/{n}]"


def _assert_measure_driven(result):
    """A measure-driven grid has nothing to stack: one serial decision."""
    assert [(d.backend, d.reason) for d in result.plan] == [("serial", "measure-driven")]
    assert result.backend == f"batched[0/{len(result.points)}]"


def _mean_abs(run):
    return float(np.mean(np.abs(run.received.mono)))


def build_fading_scenario(name: str = "fade09") -> Scenario:
    """A Fig. 9-style link-budget grid with body-motion fading.

    Declarative :class:`MotionFadingSpec` fading on every link — the
    scenario shape that, before the zero-fallback backend, dropped every
    point to the serial path.
    """
    payload = tone(1000.0, 0.1, AUDIO_RATE_HZ, amplitude=0.9)
    return Scenario(
        name=name,
        sweep=SweepSpec.grid(distance_ft=(2, 4, 8), rep=(0, 1)),
        prepare=lambda gen: {"payload": payload},
        base_chain={
            "program": "silence",
            "power_dbm": -40.0,
            "stereo_decode": False,
            "back_amplitude": 0.25,
            "fading": MotionFadingSpec("running"),
        },
        chain_axes=("distance_ft",),
        payload="payload",
        measure=_mean_abs,
    )


class TestZeroFallbackGrids:
    def test_fig09_grid_fully_vectorizes(self):
        scenario = fig09.build_scenario(
            FdmFskModem(symbol_rate=200), distances_ft=(4, 8), max_factor=2, n_bits=48
        )
        serial = _run(scenario, "serial")
        batched = _run(scenario, "batched")
        _assert_fully_batched(batched)
        assert all(
            np.array_equal(b, s) for b, s in zip(batched.values, serial.values)
        )

    def test_fig10_grid_fully_vectorizes(self):
        scenario = fig10.build_scenario(
            "1.6k", FdmFskModem(symbol_rate=200), distances_ft=(2, 4), n_bits=48
        )
        batched = _run(scenario, "batched")
        _assert_fully_batched(batched)

    def test_fig12_grid_reports_zero_fallbacks(self):
        # Fig. 12 is measure-driven (the two-phone cancellation happens
        # inside the measure), so the batched backend has no declared
        # transmission to vectorize: the plan says so, not a fallback.
        scenario = fig12.build_scenario(
            powers_dbm=(-30.0,), distances_ft=(4, 8), duration_s=0.3
        )
        serial = _run(scenario, "serial")
        batched = _run(scenario, "batched")
        _assert_measure_driven(batched)
        assert batched.values == serial.values

    def test_fig13_grid_fully_vectorizes(self):
        scenario = fig13.build_scenario(
            "stereo_station", powers_dbm=(-20.0, -40.0), distances_ft=(1, 4), duration_s=0.2
        )
        batched = _run(scenario, "batched")
        _assert_fully_batched(batched)

    def test_deployment_scale_grid_reports_zero_fallbacks(self):
        deployment = deployment_scale.build_deployment(device_counts=(1, 2))
        scenario = deployment.compile()
        serial = _run(scenario, "serial")
        batched = _run(scenario, "batched")
        _assert_measure_driven(batched)
        assert batched.values == serial.values


class TestFadingGridAllBackends:
    @pytest.fixture(scope="class")
    def by_backend(self):
        scenario = build_fading_scenario()
        return {
            (backend, workers): _run(scenario, backend, max_workers=workers)
            for backend, workers in RUNS
        }

    def test_bit_identical_across_all_backends(self, by_backend):
        serial = by_backend[RUNS[0]]
        for run in RUNS[1:]:
            assert by_backend[run].values == serial.values, run

    def test_batched_plans_every_fading_point(self, by_backend):
        batched = by_backend[("batched", None)]
        _assert_fully_batched(batched)
        assert batched.backend == "batched[6/6]"

    def test_old_numerics_variable_changes_no_bit(self, by_backend, monkeypatch):
        # REPRO_NUMERICS once selected a second numerics tier whose
        # fading, link and discriminator kernels were not bit-identical;
        # it is no longer read, so setting it changes nothing.
        monkeypatch.setenv("REPRO_NUMERICS", "fast")
        auto = _run(build_fading_scenario(), "auto")
        assert auto.values == by_backend[RUNS[0]].values
        assert all(d.reason != "fast-numerics" for d in auto.plan)

    def test_fading_actually_changed_the_link(self, by_backend):
        # Guard against a silently-ignored fading spec: the same grid
        # (same name, hence identical per-point noise streams) without
        # fading must measure differently.
        scenario = build_fading_scenario()
        scenario.base_chain = dict(scenario.base_chain)
        del scenario.base_chain["fading"]
        assert _run(scenario, "serial").values != by_backend[RUNS[0]].values


class _FixedShapeFading:
    """A custom fading model whose envelope ignores the requested length."""

    def __init__(self, shape):
        self.shape = shape

    def envelope(self, n_samples, sample_rate):
        return np.full(self.shape, 0.5)


@dataclass(frozen=True)
class _FixedShapeFadingSpec:
    """A custom fading spec whose model has the wrong envelope shape."""

    shape: tuple

    def build(self, rng=None):
        return _FixedShapeFading(self.shape)


class TestWrongShapeFading:
    @pytest.mark.parametrize("shape", [(1,), (3,)])
    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_wrong_length_envelope_raises_on_every_backend(self, shape, backend):
        # A length-1 envelope used to broadcast over the whole row on
        # both paths and scale it without error.
        scenario = build_fading_scenario("fade_wrong_shape")
        scenario.base_chain = dict(
            scenario.base_chain, fading=_FixedShapeFadingSpec(shape)
        )
        with pytest.raises(LinkBudgetError, match=rf"shape \({shape[0]},\), expected"):
            _run(scenario, backend)

"""Tests for the declarative sweep scenario layer."""

import pytest

from repro.engine import Axis, AxisRef, GridPoint, Scenario, SweepSpec
from repro.errors import ConfigurationError


class TestAxis:
    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            Axis("power_dbm", ())

    def test_values_preserved_in_order(self):
        axis = Axis("distance_ft", (1, 2, 4))
        assert axis.values == (1, 2, 4)


class TestSweepSpec:
    def test_grid_preserves_declaration_order(self):
        spec = SweepSpec.grid(power_dbm=(-20.0, -40.0), distance_ft=(1, 2, 4))
        assert spec.names == ("power_dbm", "distance_ft")
        assert spec.shape == (2, 3)
        assert spec.n_points == 6

    def test_points_enumerate_row_major(self):
        # First axis outermost — the nesting order of the legacy loops.
        spec = SweepSpec.grid(a=(1, 2), b=("x", "y"))
        coords = [(p["a"], p["b"]) for p in spec.points()]
        assert coords == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]
        assert [p.index for p in spec.points()] == [0, 1, 2, 3]

    def test_needs_at_least_one_axis(self):
        with pytest.raises(ConfigurationError):
            SweepSpec([])

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec([Axis("a", (1,)), Axis("a", (2,))])

    def test_axis_lookup(self):
        spec = SweepSpec.grid(power_dbm=(-20.0,), distance_ft=(1, 2))
        assert spec.axis("distance_ft").values == (1, 2)
        with pytest.raises(KeyError):
            spec.axis("rate")


class TestGridPoint:
    def test_mapping_access(self):
        point = GridPoint(index=3, coords={"power_dbm": -30.0, "distance_ft": 4})
        assert point["power_dbm"] == -30.0
        assert point.get("missing", "fallback") == "fallback"
        assert point.values == (-30.0, 4)


class TestScenario:
    @staticmethod
    def _scenario(**overrides):
        kwargs = dict(
            name="demo",
            sweep=SweepSpec.grid(power_dbm=(-20.0, -40.0)),
            measure=lambda run: 0.0,
        )
        kwargs.update(overrides)
        return Scenario(**kwargs)

    def test_default_rng_keys_are_name_plus_values(self):
        scenario = self._scenario()
        point = scenario.sweep.points()[1]
        assert scenario.point_rng_keys(point) == ("demo", -40.0)

    def test_rng_keys_override(self):
        scenario = self._scenario(rng_keys=("fig7", AxisRef("power_dbm")))
        point = scenario.sweep.points()[0]
        assert scenario.point_rng_keys(point) == ("fig7", -20.0)

    @pytest.mark.parametrize("field", ["rng_keys", "ambient_variant"])
    def test_callable_templates_rejected(self, field):
        with pytest.raises(ConfigurationError, match=rf"{field} must be an AxisRef"):
            self._scenario(**{field: lambda p: ("fig7", p["power_dbm"])})

    def test_payload_without_chain_rejected_when_built(self):
        # A payload names a transmission through the point's chain; with
        # no chain declared there is nothing to transmit through, so the
        # scenario is refused before any sweep starts.
        with pytest.raises(ConfigurationError, match="'demo' declares a payload but no chain"):
            self._scenario(payload="waveform")
        scenario = self._scenario(payload="waveform", chain_axes=("power_dbm",))
        assert not scenario.measure_driven
        assert self._scenario().measure_driven

    def test_chain_kwargs_merge_per_point_over_base(self):
        scenario = self._scenario(
            base_chain={"program": "news", "power_dbm": 0.0},
            chain_axes=("power_dbm",),
        )
        point = scenario.sweep.points()[1]
        assert scenario.chain_kwargs(point) == {"program": "news", "power_dbm": -40.0}
        assert scenario.uses_chain

    def test_no_chain_declared(self):
        scenario = self._scenario()
        assert not scenario.uses_chain
        assert scenario.chain_kwargs(scenario.sweep.points()[0]) == {}

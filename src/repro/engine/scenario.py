"""Declarative sweep scenarios.

A :class:`Scenario` captures everything a paper-figure experiment used to
hand-roll in nested for-loops: the parameter grid (:class:`SweepSpec`),
how each grid point configures the simulation chain, how the per-point
random stream is derived from the sweep seed, and what to measure. The
:class:`~repro.engine.runner.SweepRunner` turns the declaration into
(optionally parallel) execution with ambient caching.

Per-point RNG derivation mirrors the legacy loops exactly: child
generators are drawn from the sweep generator serially in grid order
*before* any point executes, so serial and parallel execution produce
bit-identical results.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: a name and its ordered values."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} has no values")


class SweepSpec:
    """An ordered set of axes whose product is the sweep grid.

    Grid points enumerate in row-major order (first axis outermost),
    matching how the legacy experiment loops nested.
    """

    def __init__(self, axes: Sequence[Axis]) -> None:
        if not axes:
            raise ConfigurationError("a sweep needs at least one axis")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate axis names in {names}")
        self.axes: Tuple[Axis, ...] = tuple(axes)

    @classmethod
    def grid(cls, **axes: Sequence[object]) -> "SweepSpec":
        """Build a spec from keyword axes, preserving declaration order."""
        return cls([Axis(name, tuple(values)) for name, values in axes.items()])

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.axes)

    @property
    def n_points(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(f"no axis named {name!r} (have {self.names})")

    def points(self) -> List["GridPoint"]:
        """All grid points in row-major order."""
        combos = itertools.product(*(axis.values for axis in self.axes))
        return [
            GridPoint(index=i, coords=dict(zip(self.names, combo)))
            for i, combo in enumerate(combos)
        ]


@dataclass(frozen=True)
class GridPoint:
    """One cell of the sweep grid.

    Attributes:
        index: position in row-major grid order.
        coords: axis name -> value for this cell.
    """

    index: int
    coords: Mapping[str, object]

    def __getitem__(self, name: str) -> object:
        return self.coords[name]

    def get(self, name: str, default: object = None) -> object:
        return self.coords.get(name, default)

    @property
    def values(self) -> Tuple[object, ...]:
        return tuple(self.coords.values())


@dataclass
class PointRun:
    """Everything a scenario's ``measure`` callable gets for one point.

    Attributes:
        point: the grid cell being evaluated.
        rng: the point's private generator (pre-derived, deterministic).
        data: the shared read-only dict returned by ``Scenario.prepare``.
        ambient: ambient-station source (cache-backed, or ``None`` when
            caching is disabled); measures that build their own chains can
            attach it or derive per-transmission variants via
            ``ambient.with_variant(...)``.
        chain: the pre-built :class:`~repro.experiments.common.ExperimentChain`
            for scenarios that declare a chain (``None`` otherwise).
        received: the chain's decoded output for scenarios that declare a
            ``payload`` — the runner performs the transmission itself (so
            backends can batch or ship it) and the measure only scores.
            ``None`` when the scenario transmits inside ``measure``.
    """

    point: GridPoint
    rng: np.random.Generator
    data: Dict[str, object]
    ambient: Optional[object] = None
    chain: Optional[object] = None
    received: Optional[object] = None


@dataclass(frozen=True)
class AxisRef:
    """Declarative reference to an axis value, resolved per grid point.

    Templates built from :class:`AxisRef` and literals are plain data, so
    a scenario using them pickles cleanly into the launcher's worker
    processes.
    """

    name: str


def resolve_template(
    template: Sequence[object], point: GridPoint
) -> Tuple[object, ...]:
    """Substitute every :class:`AxisRef` in ``template`` with the point's value."""
    return tuple(
        point[item.name] if isinstance(item, AxisRef) else item for item in template
    )


@dataclass(frozen=True)
class PayloadSelector:
    """Per-point payload lookup: an axis value chooses the data key.

    E.g. Fig. 14 transmits a tone on its ``snr`` panel and speech on its
    ``pesq`` panel: ``PayloadSelector("panel", {"snr": "tone", "pesq":
    "speech"})``.
    """

    axis: str
    keys: Mapping[object, str]

    def key_for(self, point: GridPoint) -> str:
        value = point[self.axis]
        try:
            return self.keys[value]
        except KeyError:
            raise ConfigurationError(
                f"payload selector has no data key for {self.axis}={value!r}"
            ) from None


@dataclass
class Scenario:
    """Declarative description of one experiment sweep.

    Everything but ``prepare`` and ``measure`` is plain data: chain
    kwargs come from ``base_chain``, ``chain_axes`` and
    ``chain_value_params``, RNG keys and ambient variants from
    :class:`AxisRef` templates, and fading on the chain is a declarative
    spec (:class:`~repro.channel.fading.MotionFadingSpec`). With a
    module-level ``measure`` and its ``measure_params``, the scenario is
    picklable, so grid points can be shipped to the launcher's worker
    processes or regrouped into stacks by the planner.

    Attributes:
        name: scenario label (also the default RNG key prefix).
        sweep: the parameter grid.
        measure: per-point measurement, called as
            ``measure(run, **measure_params)``. For the launcher it must
            be a module-level function (picklable by reference).
        prepare: optional setup run once before the grid, receiving the
            sweep generator; returns the shared ``data`` dict (payload
            bits, reference audio, ...). Draws from the generator here
            happen *before* per-point derivation, exactly like the
            preamble of the legacy loops. Runs only in the parent
            process; it may be (and usually is) a closure.
        base_chain: common :class:`ExperimentChain` kwargs; ``None`` means
            the scenario does not use runner-built chains.
        rng_keys: per-point key tuple fed to
            :func:`repro.utils.rand.child_generator`; defaults to
            ``(name, *point.values)``. An :class:`AxisRef` template tuple.
            Figure modules set this to reproduce their legacy derivations.
        ambient_variant: optional per-point cache-key variant so selected
            points (e.g. MRC repetitions) get independent ambient program
            audio instead of sharing one synthesis. A single
            :class:`AxisRef`, or a template tuple.
        cache_ambient: share ambient MPX / modulated carriers across grid
            points through the runner's cache (the legacy loops
            resynthesized per point).
        measure_params: extra keyword arguments for ``measure`` (modems,
            tone frequencies, ...); must be picklable for the
            launcher.
        chain_axes: axis names copied verbatim into the chain kwargs.
        chain_value_params: ``{axis: {value: {kwarg: value}}}`` — chain
            kwargs switched by an axis value (receiver band, backscatter
            mode, panel program, ...), merged after ``chain_axes``.
        payload: the transmission the runner performs *for* the measure:
            a ``data`` key (or per-point :class:`PayloadSelector`) naming
            the waveform to send through the point's chain. The decoded
            output arrives as ``run.received``. Declaring it is what lets
            the planner stack points sharing a front end into one
            vectorized link + receive pass. It needs a chain: a payload
            without one raises :class:`~repro.errors.ConfigurationError`
            when the scenario is built.
    """

    name: str
    sweep: SweepSpec
    measure: Callable[..., object]
    prepare: Optional[Callable[[np.random.Generator], Dict[str, object]]] = None
    base_chain: Optional[Dict[str, object]] = None
    rng_keys: Optional[Tuple[object, ...]] = None
    ambient_variant: Optional[Union[AxisRef, Tuple[object, ...]]] = None
    cache_ambient: bool = True
    measure_params: Dict[str, object] = field(default_factory=dict)
    chain_axes: Tuple[str, ...] = ()
    chain_value_params: Mapping[str, Mapping[object, Mapping[str, object]]] = field(
        default_factory=dict
    )
    payload: Optional[Union[str, PayloadSelector]] = None

    def __post_init__(self) -> None:
        for name in ("rng_keys", "ambient_variant"):
            if callable(getattr(self, name)):
                raise ConfigurationError(
                    f"scenario {self.name!r}: {name} must be an AxisRef template, "
                    "not a callable"
                )
        if self.payload is not None and not self.uses_chain:
            raise ConfigurationError(
                f"scenario {self.name!r} declares a payload but no chain "
                "(set base_chain / chain_axes / chain_value_params)"
            )

    def point_rng_keys(self, point: GridPoint) -> Tuple[object, ...]:
        if self.rng_keys is not None:
            return resolve_template(self.rng_keys, point)
        return (self.name,) + point.values

    def variant_for(self, point: GridPoint) -> object:
        """The point's ambient-variant value (``ambient_variant`` resolved)."""
        spec = self.ambient_variant
        if isinstance(spec, AxisRef):
            return point[spec.name]
        if spec is not None:
            return resolve_template(spec, point)
        return None

    @property
    def measure_driven(self) -> bool:
        """Whether the *measure* performs the transmission (no runner payload).

        Measure-driven points (Fig. 12's two-phone cancellation, the
        deployment layer's MAC-gated frames, the survey figures) execute
        per point by construction: there is no runner-performed
        transmission to stack, so the planner makes each point a stack of
        one that runs only the measure, without counting fallbacks.
        """
        return self.payload is None

    @property
    def uses_chain(self) -> bool:
        return (
            self.base_chain is not None
            or bool(self.chain_axes)
            or bool(self.chain_value_params)
        )

    def chain_kwargs(self, point: GridPoint) -> Dict[str, object]:
        """The point's :class:`ExperimentChain` kwargs.

        Raises:
            ConfigurationError: if the chain's ``fading`` is a live model
                (anything with ``envelope``): it would draw its stream in
                execution order across points.
        """
        kwargs: Dict[str, object] = dict(self.base_chain or {})
        for axis in self.chain_axes:
            kwargs[axis] = point[axis]
        for axis, table in self.chain_value_params.items():
            value = point[axis]
            try:
                kwargs.update(table[value])
            except KeyError:
                raise ConfigurationError(
                    f"chain_value_params[{axis!r}] has no entry for {value!r}"
                ) from None
        fading = kwargs.get("fading")
        if hasattr(fading, "envelope"):
            raise ConfigurationError(
                f"scenario {self.name!r} puts the live fading model "
                f"{type(fading).__name__} on its chain, which would draw its "
                "stream in execution order across points; declare the fading "
                "as a MotionFadingSpec (repro.channel.fading), which each point "
                "resolves from its own stream"
            )
        return kwargs

    def payload_for(
        self, point: GridPoint, data: Mapping[str, object]
    ) -> Optional[np.ndarray]:
        """The waveform the runner should transmit for this point, if any."""
        if self.payload is None:
            return None
        key = (
            self.payload
            if isinstance(self.payload, str)
            else self.payload.key_for(point)
        )
        try:
            return data[key]
        except KeyError:
            raise ConfigurationError(
                f"scenario {self.name!r} declares payload {key!r} but prepare() "
                f"returned keys {sorted(data)}"
            ) from None

    def shippable(self) -> "Scenario":
        """A copy suitable for crossing a process boundary.

        ``prepare`` runs only in the parent (its output ``data`` travels
        separately), so it is dropped; everything else must pickle.
        """
        return dataclasses.replace(self, prepare=None)

    def require_picklable(self) -> bytes:
        """Pickle the shippable form, or explain what to migrate.

        Resolves every point's chain kwargs first, so a live fading model
        is refused (:meth:`chain_kwargs`) before any worker is started.
        Returns the pickle so callers dispatching to worker processes can
        ship exactly what was validated.
        """
        if self.uses_chain:
            for point in self.sweep.points():
                self.chain_kwargs(point)
        try:
            return pickle.dumps(self.shippable())
        except Exception as exc:
            raise ConfigurationError(
                f"scenario {self.name!r} cannot be shipped to worker processes "
                f"({exc}); use a module-level measure with measure_params, "
                "or run it in-process with SweepRunner"
            ) from None

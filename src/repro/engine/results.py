"""Sweep result tables and the stable series-key formatters.

:class:`SweepResult` is what a :class:`~repro.engine.runner.SweepRunner`
returns: one value per grid point, in row-major grid order, plus
execution metadata (cache hits, wall time, worker count, and the plan
that ran it). The figure modules slice it back into the exact dict
shapes their ``run()`` functions have always returned, via
:meth:`SweepResult.series` and the :func:`power_key` formatter.

:func:`power_key` replaces the ``f"P{int(power)}"`` pattern the legacy
loops used, which silently collided for fractional powers
(``int(-32.5) == int(-32.9) == -32``). It formats integral values
exactly like the old code (``P-30``) so existing result keys are
unchanged, while fractional powers stay distinct (``P-32.5``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.scenario import GridPoint, SweepSpec
from repro.errors import ConfigurationError


def format_axis_value(value: object) -> str:
    """Render one axis value for a result key, losslessly.

    Integral floats drop their decimal point (``-30.0`` -> ``"-30"``,
    matching the legacy ``int(power)`` formatting); fractional values
    keep enough digits to stay distinct (``-32.5`` -> ``"-32.5"``).
    Non-finite values format as ``"inf"`` / ``"-inf"`` / ``"nan"`` — the
    ``int(as_float)`` normalization would raise ``OverflowError`` /
    ``ValueError`` on them, and an axis is allowed to carry e.g. an
    infinite-distance "off" sentinel.
    """
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        as_float = float(value)
        if not math.isfinite(as_float):
            if math.isnan(as_float):
                return "nan"
            return "inf" if as_float > 0 else "-inf"
        if as_float == int(as_float):
            return str(int(as_float))
        return repr(as_float)
    return str(value)


def power_key(power_dbm: float, prefix: str = "P") -> str:
    """Stable result key for a power level: ``P-30``, ``P-32.5``, ...

    Args:
        power_dbm: the power level (the axis value as passed by the user).
        prefix: key prefix; figures with several panels pass e.g.
            ``"snr_P"`` / ``"pesq_P"`` / ``"lock_P"``.
    """
    return f"{prefix}{format_axis_value(power_dbm)}"


@dataclass
class SweepResult:
    """Per-point values of one executed sweep, in row-major grid order.

    Attributes:
        spec: the grid that was executed.
        points: the grid points, ``spec.points()`` order.
        values: ``measure``'s return value for each point, same order.
        elapsed_s: wall-clock execution time of the grid.
        n_workers: pool workers used (1 == run inline).
        cache_stats: ambient-cache counters for this run (``hits`` /
            ``misses`` / ``items``, plus ``disk_hits`` / ``syntheses``
            when a persistent store is attached), or ``None`` when
            caching was off.
        data: the shared dict returned by the scenario's ``prepare``
            (payload bits, reference audio, ...), for post-grid steps
            like MRC combining or BER scoring.
        backend: the plan's label for how the grid ran — ``serial`` or
            ``auto[batched:n+serial:m]`` (``n`` points stacked, ``m`` run
            one by one); merged and launcher results carry their own
            labels.
        plan: the plan's per-partition decisions
            (:class:`~repro.engine.planner.PlanDecision` records — the
            partition's points, executor, chunk rows and the rule's
            reason), recorded under every setting, launcher shards
            included. Decisions carry *global* grid indices, so
            :meth:`merge` concatenates shard plans (grid order) whenever
            every shard has one, and drops the plan when any shard has
            none (a result built by hand).
        scenario_name: name of the scenario that produced the values;
            :meth:`merge` refuses to stitch shards of different
            scenarios (same-axes grids from unrelated experiments would
            otherwise mix silently). Shards of one scenario must also
            share the sweep seed — that part of the contract cannot be
            checked here and is the caller's responsibility.
    """

    spec: SweepSpec
    points: List[GridPoint]
    values: List[object]
    elapsed_s: float = 0.0
    n_workers: int = 1
    cache_stats: Optional[Dict[str, int]] = None
    data: Dict[str, object] = field(default_factory=dict)
    backend: str = "serial"
    scenario_name: str = ""
    plan: Optional[List[object]] = None

    @classmethod
    def merge(cls, *results: "SweepResult", partial: bool = False) -> "SweepResult":
        """Stitch shard results back into one whole-grid result.

        The inverse of running with ``point_slice``: each shard carries a
        disjoint subset of one grid's points, and together they must
        cover it completely (the merged result's ``series`` / ``grid`` /
        ``value_at`` assume a full grid) — unless ``partial=True``, which
        skips the completeness check and returns whatever subset the
        shards cover, in grid order. The launcher uses partial merges to
        attach salvageable completed points to a
        :class:`~repro.errors.LauncherError`; full-grid accessors refuse
        a partial result, but iteration and ``to_table`` work. An
        *empty* shard — the natural remainder of the launcher's work
        re-slicing — merges as a no-op:
        it contributes no points and only its (near-zero) metadata.
        Values are reordered into row-major grid order regardless of
        shard order; ``elapsed_s`` sums the shards' individual execution
        times — aggregate compute time, NOT wall-clock; shards run
        concurrently, and the launcher's ``LaunchReport.wall_s`` carries
        the wall-clock figure — cache counters sum (``items`` takes the
        max — shards on a shared store hold overlapping entries), and the
        ``data`` dict comes from the first shard (every shard ran the
        same ``prepare``).
        """
        if not results:
            raise ConfigurationError("merge needs at least one SweepResult")
        spec = results[0].spec
        for result in results[1:]:
            if result.spec.axes != spec.axes:
                raise ConfigurationError(
                    "cannot merge results from different sweeps: "
                    f"{result.spec.names} {result.spec.shape} vs "
                    f"{spec.names} {spec.shape}"
                )
            if result.scenario_name != results[0].scenario_name:
                raise ConfigurationError(
                    "cannot merge shards of different scenarios: "
                    f"{result.scenario_name!r} vs {results[0].scenario_name!r}"
                )
        by_index: Dict[int, Tuple[GridPoint, object]] = {}
        for result in results:
            for point, value in result:
                if point.index in by_index:
                    raise ConfigurationError(
                        f"grid point {point.index} appears in more than one shard"
                    )
                by_index[point.index] = (point, value)
        if len(by_index) != spec.n_points and not partial:
            missing = sorted(set(range(spec.n_points)) - set(by_index))
            raise ConfigurationError(
                f"shards cover {len(by_index)} of {spec.n_points} grid "
                f"points (missing indices {missing[:8]}{'...' if len(missing) > 8 else ''})"
            )
        ordered = [by_index[i] for i in sorted(by_index)]

        cache_stats: Optional[Dict[str, int]] = None
        shard_stats = [r.cache_stats for r in results]
        if all(stats is not None for stats in shard_stats):
            cache_stats = {}
            for stats in shard_stats:
                for key, count in stats.items():
                    if key == "items":
                        cache_stats[key] = max(cache_stats.get(key, 0), count)
                    else:
                        cache_stats[key] = cache_stats.get(key, 0) + count
        plan: Optional[List[object]] = None
        if all(r.plan is not None for r in results):
            # Grid order via each decision's first global point index —
            # decisions never span shards, so first-member order is total.
            plan = sorted(
                (d for r in results for d in r.plan),
                key=lambda d: d.point_indices[0],
            )
        return cls(
            spec=spec,
            points=[p for p, _ in ordered],
            values=[v for _, v in ordered],
            elapsed_s=sum(r.elapsed_s for r in results),
            n_workers=max(r.n_workers for r in results),
            cache_stats=cache_stats,
            data=results[0].data,
            backend=f"merged[{len(results)}]",
            scenario_name=results[0].scenario_name,
            plan=plan,
        )

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Tuple[GridPoint, object]]:
        return iter(zip(self.points, self.values))

    def _require_full_grid(self) -> None:
        if len(self.values) != self.spec.n_points:
            raise KeyError(
                f"result holds {len(self.values)} of {self.spec.n_points} grid "
                "points (a point_slice shard?); merge shards with "
                "SweepResult.merge before slicing"
            )

    def value_at(self, **coords: object) -> object:
        """The value of the single point matching all of ``coords``."""
        self._require_full_grid()
        matches = [v for p, v in self if all(p.coords[k] == c for k, c in coords.items())]
        if len(matches) != 1:
            raise KeyError(f"{coords} matches {len(matches)} grid points, expected 1")
        return matches[0]

    def series(self, along: str, **fixed: object) -> List[object]:
        """Values along one axis with every other axis pinned.

        This is the slice the figure modules plot: e.g.
        ``series(along="distance_ft", power_dbm=-30.0)`` is the legacy
        inner-loop list for one power level. Points appear in grid
        (declaration) order along the axis.

        Args:
            along: name of the free axis.
            fixed: ``axis=value`` for the remaining axes; every axis
                other than ``along`` must be pinned.
        """
        self._require_full_grid()
        free = [n for n in self.spec.names if n != along and n not in fixed]
        if along not in self.spec.names:
            raise KeyError(f"no axis named {along!r} (have {self.spec.names})")
        if free:
            raise KeyError(f"axes {free} must be fixed to slice along {along!r}")
        for name, value in fixed.items():
            axis = self.spec.axis(name)  # KeyError on unknown axis names
            if value not in axis.values:
                raise KeyError(
                    f"{value!r} is not on axis {name!r} (values {axis.values})"
                )
        return [
            v
            for p, v in self
            if all(p.coords[k] == c for k, c in fixed.items())
        ]

    def grid(self) -> np.ndarray:
        """Values reshaped to the sweep's grid shape (object dtype)."""
        self._require_full_grid()
        arr = np.empty(len(self.values), dtype=object)
        arr[:] = self.values
        return arr.reshape(self.spec.shape)

    def to_table(self) -> List[Dict[str, object]]:
        """Flat records — one dict of coords + value per point."""
        return [dict(p.coords, value=v) for p, v in self]

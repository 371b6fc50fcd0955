"""A paper figure as a distributed job: Fig. 9's MRC grid, sharded.

The ``deployment_scale``-style driver for the distributed launcher: the
same (distance x repetition) reception grid :mod:`~repro.experiments.
fig09_mrc` declares is sliced into shards and fanned out across worker
processes via :func:`~repro.engine.launcher.launch_sweep`, then scored
into the exact series shape ``fig09.run`` returns — bit-identical to it
at the same seed, because every point's stream is pre-derived before any
shard runs. On top of the figure series, the result carries the
launcher's telemetry (shards, retries, wall-clock vs aggregate compute
time, cache counters), which is what the README's multi-machine recipe
reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.data.ber import bit_error_rate
from repro.data.fdm import FdmFskModem
from repro.data.mrc import mrc_combine
from repro.engine import launch_sweep
from repro.experiments import fig09_mrc as fig09
from repro.utils.rand import RngLike

DEFAULT_DISTANCES_FT = (2, 4, 8, 12)
DEFAULT_MRC_FACTORS = (1, 2)
DEFAULT_N_WORKERS = 2


def run(
    distances_ft: Sequence[float] = DEFAULT_DISTANCES_FT,
    mrc_factors: Sequence[int] = DEFAULT_MRC_FACTORS,
    power_dbm: float = -40.0,
    program: str = "rock",
    n_bits: int = 400,
    back_amplitude: float = fig09.DEFAULT_BACK_AMPLITUDE,
    n_workers: int = DEFAULT_N_WORKERS,
    cache_dir: Optional[str] = None,
    rng: RngLike = None,
) -> Dict[str, object]:
    """Fig. 9 BER-vs-distance per MRC factor, executed across workers.

    Shards, deadlines and retries take :func:`~repro.engine.launcher.
    launch_sweep`'s defaults; ``cache_dir`` is the shared spill directory
    (see the README's multi-machine recipe).

    Returns:
        the ``fig09.run`` dict (``distances_ft`` + one ``mrc<k>`` list
        per factor) plus a ``"launcher"`` entry with the run's fan-out
        telemetry: worker and shard counts, retries/failures/stragglers,
        ``wall_s`` (wall-clock) vs ``points_elapsed_s`` (summed per-shard
        compute time) and the merged cache counters.
    """
    modem = FdmFskModem(symbol_rate=200)
    scenario = fig09.build_scenario(
        modem,
        distances_ft=distances_ft,
        max_factor=max(mrc_factors),
        power_dbm=power_dbm,
        program=program,
        n_bits=n_bits,
        back_amplitude=back_amplitude,
    )
    report = launch_sweep(
        scenario,
        rng=rng,
        n_workers=n_workers,
        cache_dir=cache_dir,
    )
    result = report.result
    bits = result.data["bits"]

    results: Dict[str, object] = {"distances_ft": [float(d) for d in distances_ft]}
    series: Dict[int, List[float]] = {f: [] for f in mrc_factors}
    for distance in distances_ft:
        receptions = result.series(along="rep", distance_ft=distance)
        for factor in mrc_factors:
            combined = mrc_combine(receptions[:factor])
            detected = modem.demodulate(combined, bits.size)
            series[factor].append(bit_error_rate(bits, detected))
    for factor in mrc_factors:
        results[f"mrc{factor}"] = series[factor]
    results["launcher"] = {
        "n_workers": report.n_workers,
        "n_shards": report.n_shards,
        "retries": report.retries,
        "failures": report.failures,
        "stragglers": report.stragglers,
        "duplicates": report.duplicates,
        "degraded": report.degraded,
        "degraded_points": report.degraded_points,
        "exit_codes": list(report.exit_codes),
        "wall_s": report.wall_s,
        "points_elapsed_s": result.elapsed_s,
        "cache": result.cache_stats,
    }
    return results

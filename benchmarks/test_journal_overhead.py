"""Job journal: durability overhead of fsync'd per-shard records.

One measurement, written to ``benchmarks/BENCH_engine.json`` under
``journal_overhead``: the Fig. 9 grid through :func:`launch_sweep` bare,
then with a :class:`~repro.engine.journal.JobJournal` attached (every
dispatch/completion fsync'd), then resumed from the journal it just
wrote. The hard, non-flaky asserts are the journal's contract — the
journaled run is bit-identical to the bare one, its replay covers the
whole grid, and the resumed run reloads every point without forking a
single worker. The overhead ratio is recorded, not asserted: fsync cost
is the property of the host's filesystem, and the artifact is the
measurement of record.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.fdm import FdmFskModem
from repro.engine import launch_sweep
from repro.engine.journal import JobJournal
from repro.experiments import fig09_mrc as fig09

SEED = 2017
N_WORKERS = 2
DISTANCES = (2, 4, 8, 12)
MRC_REPS = 2
N_BITS = 100


def _scenario():
    return fig09.build_scenario(
        FdmFskModem(symbol_rate=200),
        distances_ft=DISTANCES,
        max_factor=MRC_REPS,
        n_bits=N_BITS,
    )


@pytest.mark.engine_bench
def test_journal_overhead(tmp_path, bench_artifact):
    store_dir = str(tmp_path / "spill")
    journal = JobJournal(tmp_path / "jobs")
    n_points = len(DISTANCES) * MRC_REPS

    bare = launch_sweep(
        _scenario(), rng=SEED, n_workers=N_WORKERS, cache_dir=store_dir
    )
    journaled = launch_sweep(
        _scenario(), rng=SEED, n_workers=N_WORKERS, cache_dir=store_dir,
        journal=journal, job_id="bench-0001",
    )
    replayed = journal.replay_job("bench-0001")
    resumed = launch_sweep(
        _scenario(), rng=SEED, n_workers=N_WORKERS, cache_dir=store_dir,
        resume_values=replayed.values,
    )

    journal_bytes = journal.path_for("bench-0001").stat().st_size
    record = {
        "benchmark": "fig09_grid_journal_overhead",
        "grid": {"distances_ft": list(DISTANCES), "mrc_reps": MRC_REPS},
        "n_points": n_points,
        "n_bits": N_BITS,
        "n_workers": N_WORKERS,
        "bare_s": round(bare.wall_s, 4),
        "journaled_s": round(journaled.wall_s, 4),
        "resume_s": round(resumed.wall_s, 4),
        "overhead_ratio": round(journaled.wall_s / bare.wall_s, 3),
        "journal_bytes": journal_bytes,
        "journal_bytes_per_point": round(journal_bytes / n_points, 1),
        "resumed_points": resumed.resumed_points,
    }
    bench_artifact("journal_overhead", record)
    print(f"\n=== journal overhead ===\n{json.dumps(record, indent=2)}")

    # Contract asserts: the journaled and resumed runs are bit-identical
    # to the bare one.
    for report in (journaled, resumed):
        assert len(report.result.values) == n_points
        for ours, reference in zip(report.result.values, bare.result.values):
            assert np.array_equal(ours, reference)
    assert sorted(replayed.values) == list(range(n_points))
    # The resume reloaded everything: no forks, no failures, no compute.
    assert resumed.resumed_points == n_points
    assert resumed.failures == 0
    assert resumed.exit_codes == ()

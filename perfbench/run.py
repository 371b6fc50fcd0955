"""The repository benchmark: whole figure sweeps, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig08_ber_3k2 --seed 1 --seconds 10 --trace 0

One process is one closed-loop client: the next sweep starts only when
the previous one has finished. A run

1. imports ``repro`` and runs one untimed sweep (the ambient cache is
   cold); the time from the top of this script to its end is one
   set-up sample;
2. runs sweeps for ``--seconds`` (and at least the workload's
   ``min_sweeps``), keeping each output on disk; with ``--trace 1`` it
   alternates untraced and traced sweeps instead;
3. starts a fresh interpreter that repeats step 1, for a second set-up
   sample, and then computes the same-seed reference on the serial
   backend, outside any timed window and outside this process, whose
   memory it would otherwise change; every kept output is checked
   against that reference;
4. with ``--trace 0``, prints the end-to-end metrics; with ``--trace 1``,
   the per-layer metrics (see ``layers.py``).

Peak memory is read before step 3, so the largest child it reports is a
launcher worker, never the set-up child.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are for people. ``failed`` counts sweeps that raised, came back
degraded or failed the check, so ``failed / attempted`` is the failed
fraction.

Every ``REPRO_*`` variable is cleared, so the default program is what
is measured. BLAS threading is left as the user has it, except on the
workloads in ``PINNED_BLAS``, and recorded on the ``host`` line.
Stores, journals and temporary files go under ``.perfbench-tmp/`` in the
checkout and are removed at exit; the spans of the last traced run of
each workload are kept there as ``spans-<workload>.jsonl``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".perfbench-tmp"
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PINNED_BLAS = ("fig08_ber_3k2",)
"""Workloads run with one BLAS thread. Unpinned, OpenBLAS's two threads
compete with the sweep's own thread on a 2-CPU host, and fig08's
sweep_s spread across seeds doubled (IQR/median 0.28 against 0.12 over
five interleaved seed pairs). The other workloads stay unpinned, as
users run them, so a change that takes BLAS off a hot path shows."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-child",
        metavar="PATH",
        help="run the first sweep, then the reference, and pickle both to PATH",
    )
    return parser.parse_args(argv)


def clean_environment(workload: str) -> list:
    """Clear every ``REPRO_*`` knob and pin BLAS where ``PINNED_BLAS``
    says; returns the names that were cleared. Runs before numpy loads."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    if workload in PINNED_BLAS:
        os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    return cleared


def host_record(cleared: list) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "cleared_repro_env": cleared,
    }


def cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> tuple:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


class KeptOutputs:
    """Sweep outputs waiting for the reference, which is computed after
    the timed sweeps. They are pickled to disk so that they add nothing
    to this process's memory."""

    def __init__(self, directory: Path) -> None:
        directory.mkdir()
        self.directory = directory
        self.n = 0

    def keep(self, output) -> None:
        with open(self.directory / f"{self.n}.pkl", "wb") as handle:
            pickle.dump(output, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self.n += 1

    def failures(self, passes) -> int:
        """How many kept outputs fail ``passes(output)``."""
        failed = 0
        for i in range(self.n):
            with open(self.directory / f"{i}.pkl", "rb") as handle:  # written by keep()
                failed += not passes(pickle.load(handle))
        return failed


def traced_sweep(workload, tracer):
    """One sweep with the tracer's wrappers installed, under a root span."""
    tracer.install()
    try:
        with tracer.span("perfbench.sweep") as root:
            return workload.sweep(), root
    finally:
        tracer.uninstall()


def record(sweep, tally, kept) -> None:
    """Count a completed sweep; a degraded one fails at once, any other
    is kept for the output check."""
    tally["attempted"] += 1
    if sweep.degraded:
        print("sweep came back degraded", file=sys.stderr)
        tally["failed"] += 1
    else:
        kept.keep(sweep.output)


def attempt(workload, tally, kept, tracer=None):
    """Run one sweep (traced when ``tracer`` is given) and record it.

    Returns ``(sweep, timed seconds, root span)``; a sweep that raises is
    counted as failed and returned as ``None``.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            sweep, root = workload.sweep(), None
        else:
            sweep, root = traced_sweep(workload, tracer)
    except Exception:  # a failed sweep is counted, not fatal
        traceback.print_exc()
        tally["attempted"] += 1
        tally["failed"] += 1
        return None, time.perf_counter() - start, None
    record(sweep, tally, kept)
    return sweep, sweep.timed_s, root


def keep_going(start: float, iterations: int, seconds: float, minimum: int = 1) -> bool:
    """Stop at the iteration count that ends nearest ``seconds``, but not
    before ``minimum`` iterations."""
    elapsed = time.perf_counter() - start
    return iterations < minimum or elapsed + 0.5 * elapsed / iterations < seconds


def setup_child(args) -> tuple:
    """A second set-up sample and the reference, from a fresh interpreter.

    Two set-ups per run, not more: each costs a whole cold sweep, and a
    run of the slowest workload should stay near half a minute.
    """
    path = Path(tempfile.gettempdir()) / "setup-child.pkl"
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-child",
        str(path),
    ]
    subprocess.run(command, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True)
    with open(path, "rb") as handle:  # written just now by the child
        result = pickle.load(handle)
    path.unlink()
    return result["setup_s"], result["reference"]


def percentile_line(values: list) -> str:
    """Median with the sample count, plus the highest tail percentile that
    still has at least ten samples beyond it."""
    line = f"median={median(values):.4f} n={len(values)}"
    ordered = sorted(values)
    for pct in (99.0, 90.0):
        beyond = len(values) * (1.0 - pct / 100.0)
        if beyond >= 10:
            index = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
            line += f" p{pct:g}={ordered[index]:.4f}"
            break
    return line


def timed_loop(args, workload, tally, kept) -> dict:
    """Untraced sweeps for ``--seconds``: their times and CPU."""
    sweep_s, timed = [], 0.0
    cpu_before = cpu_s()
    start = time.perf_counter()
    while keep_going(start, len(sweep_s), args.seconds, workload.min_sweeps):
        sweep, elapsed, _ = attempt(workload, tally, kept)
        sweep_s.append(sweep.sweep_s if sweep is not None else elapsed)
        timed += elapsed
    return {"sweep_s": sweep_s, "timed": timed, "cpu": cpu_s() - cpu_before}


def end_to_end(workload, loop: dict, setups: list, rss_mb: float) -> dict:
    sweep_s = loop["sweep_s"]
    points = workload.n_points * len(sweep_s)
    print(f"sweep_s {percentile_line(sweep_s)}")
    print(f"setup_s samples={[round(v, 4) for v in setups]}")
    metrics = {
        "points_per_s": (points / loop["timed"], "points/s"),
        "sweep_s": (median(sweep_s), "s"),
        "setup_s": (median(setups), "s"),
        "cpu_s_per_point": (loop["cpu"] / points, "s/point"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics


def run_traced(args, workload, tally, kept, tracer, cold) -> dict:
    import layers
    import spans as spanlib

    per_sweep, traced_s, untraced_s, recorded = [], [], [], []
    start = time.perf_counter()
    while keep_going(start, len(traced_s), args.seconds):
        sweep, elapsed, _ = attempt(workload, tally, kept)
        untraced_s.append(sweep.sweep_s if sweep is not None else elapsed)
        sweep, elapsed, root = attempt(workload, tally, kept, tracer)
        spans, results = tracer.take()
        recorded.extend(spans)
        traced_s.append(sweep.sweep_s if sweep is not None else elapsed)
        if sweep is not None:
            per_sweep.append(
                layers.sweep_metrics(spans, results, root, sweep, workload.n_points)
            )
    if not per_sweep:
        raise RuntimeError("no traced sweep completed")
    spanlib.write_spans(recorded, TMP_ROOT / f"spans-{args.workload}.jsonl")
    metrics = layers.combine(per_sweep, cold, traced_s, untraced_s)
    units = layers.per_layer_units()
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}  (moves {layers.MOVES[name]})")
    return {name: (metrics[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cleared = clean_environment(args.workload)
    sys.path.insert(0, str(ROOT / "src"))
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        return measure(args, cleared, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, cleared: list, tmp: str) -> int:
    import repro  # noqa: F401  (part of set-up)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, tmp)
    try:
        return run_workload(args, cleared, workload, tmp)
    finally:
        workload.close()


def run_workload(args, cleared: list, workload, tmp: str) -> int:
    from workloads import check

    if args.setup_child:
        workload.sweep()
        result = {"setup_s": time.perf_counter() - _T0, "reference": workload.reference()}
        with open(args.setup_child, "wb") as handle:
            pickle.dump(result, handle)
        return 0

    tally = {"attempted": 0, "failed": 0}
    kept = KeptOutputs(Path(tmp) / "outputs")
    tracer = cold = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        # The cold sweep is traced too: on the warm-cache workloads it is
        # the only one that synthesizes ambient material.
        first, root = traced_sweep(workload, tracer)
        spans, results = tracer.take()
        if workload.warm_cache:
            cold = layers.sweep_metrics(spans, results, root, first, workload.n_points)
    else:
        first = workload.sweep()
        setup_s = time.perf_counter() - _T0
    record(first, tally, kept)

    print(f"host {json.dumps(host_record(cleared), sort_keys=True)}")
    print(f"workload {workload.name} seed={args.seed} points={workload.n_points}")
    if tracer is None:
        loop = timed_loop(args, workload, tally, kept)
    else:
        metrics = run_traced(args, workload, tally, kept, tracer, cold)
    # Read before the set-up child starts, so the children seen so far
    # are only the launcher workers.
    rss_mb, worker_rss_mb = peak_rss_mb()
    child_setup_s, reference = setup_child(args)
    tally["failed"] += kept.failures(lambda output: check(workload, output, reference))
    if tracer is None:
        metrics = end_to_end(workload, loop, [setup_s, child_setup_s], rss_mb)
    print(f"largest_worker_rss_mb {worker_rss_mb:.1f} MB (largest child before the set-up child)")
    print(f"failed_frac {tally['failed'] / tally['attempted']:.4f} ratio")
    print(
        json.dumps(
            {
                "correct": tally["failed"] == 0,
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden-regression harness: frozen-seed outputs of every fig* module,
the deployment scale-out, and the report's numeric aggregates.

Each of the 13 figure runners (plus ``deployment_scale`` and the
``report.collect_aggregates`` section numbers) executes on a small fixed
grid with a frozen seed; the full output dict is compared — element by
element — against a committed JSON fixture under
``tests/experiments/golden/``.
Any DSP, engine or backend change that drifts a figure's numbers fails
loudly here, whichever execution backend runs the suite (the engine's
settings are bit-identical by contract, so one fixture serves all three —
CI exercises the default and ``REPRO_SWEEP_BACKEND=batched`` legs).

Intentional output changes are recorded by regenerating the fixtures:

    PYTHONPATH=src python -m pytest tests/experiments/test_golden_outputs.py --regen-golden

and committing the resulting diff (which doubles as the review artifact
showing exactly which series moved).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    deployment_scale,
    fig02_survey,
    fig04_occupancy,
    fig05_stereo_usage,
    fig06_freq_response,
    fig07_snr_distance,
    fig08_ber_overlay,
    fig09_mrc,
    fig10_stereo_ber,
    fig11_pesq_overlay,
    fig12_pesq_cooperative,
    fig13_pesq_stereo,
    fig14_car,
    fig17_fabric,
)

GOLDEN_DIR = Path(__file__).with_name("golden")

SEED = 2017
"""One frozen sweep seed for every figure, so a fixture regen is a
single flag, not a seed hunt."""

# Small-grid arguments per figure: big enough to exercise the real
# decision points (stereo lock on/off, BER cliff, both panels), small
# enough that the whole golden tier stays in unit-test territory.
CASES = {
    "fig02_survey": lambda: fig02_survey.run(rng=SEED),
    "fig04_occupancy": lambda: fig04_occupancy.run(rng=SEED),
    "fig05_stereo_usage": lambda: fig05_stereo_usage.run(
        n_snapshots=2, snapshot_seconds=0.5, rng=SEED
    ),
    "fig06_freq_response": lambda: fig06_freq_response.run(
        freqs_hz=(1000.0, 8000.0), duration_s=0.3, rng=SEED
    ),
    "fig07_snr_distance": lambda: fig07_snr_distance.run(
        powers_dbm=(-30.0, -60.0), distances_ft=(2, 8), duration_s=0.2, rng=SEED
    ),
    "fig08_ber_overlay": lambda: fig08_ber_overlay.run(
        rate="1.6kbps", powers_dbm=(-55.0, -60.0), distances_ft=(8, 16), n_bits=48, rng=SEED
    ),
    "fig09_mrc": lambda: fig09_mrc.run(
        distances_ft=(4,), mrc_factors=(1, 2), n_bits=160, rng=SEED
    ),
    "fig10_stereo_ber": lambda: fig10_stereo_ber.run(
        distances_ft=(2, 4), n_bits=48, rng=SEED
    ),
    "fig11_pesq_overlay": lambda: fig11_pesq_overlay.run(
        powers_dbm=(-30.0,), distances_ft=(4, 8), duration_s=0.5, rng=SEED
    ),
    "fig12_pesq_cooperative": lambda: fig12_pesq_cooperative.run(
        powers_dbm=(-30.0,), distances_ft=(4,), duration_s=0.5, rng=SEED
    ),
    "fig13_pesq_stereo": lambda: fig13_pesq_stereo.run(
        powers_dbm=(-20.0, -40.0), distances_ft=(1, 4), duration_s=0.3, rng=SEED
    ),
    "fig14_car": lambda: fig14_car.run(
        powers_dbm=(-20.0,), distances_ft=(20,), duration_s=0.3, rng=SEED
    ),
    "fig17_fabric": lambda: fig17_fabric.run(
        motions=("standing", "walking"), n_bits_low=50, n_bits_high=160, n_trials=1, rng=SEED
    ),
    # Beyond the figures: the deployment scale-out sweep (8 devices
    # overflow the dedicated channels, so the fixture pins both the
    # dedicated and the shared-ALOHA regimes) and the numeric aggregates
    # behind every report.py section (the session-scoped fixture of
    # that name, which test_report.py renders too).
    "deployment_scale": lambda: deployment_scale.run(
        device_counts=(1, 2, 4, 8), rng=SEED
    ),
    "report_aggregates": None,
}

REL_TOL = 1e-9
"""Relative float tolerance: loose enough for last-ULP libm variation
across platforms, tight enough that any real algorithmic drift fails."""


def canonicalize(value):
    """Reduce a runner's output to pure JSON-serializable Python."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [canonicalize(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot canonicalize {type(value)!r} for a golden fixture")


def assert_matches(actual, expected, path=""):
    """Recursive comparison with a drift-pinpointing failure message."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        assert actual == expected, f"{path}: {actual!r} != golden {expected!r}"
    elif isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=1e-12), (
            f"{path}: {actual!r} drifted from golden {expected!r}"
        )
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: {type(actual)} != list"
        assert len(actual) == len(expected), (
            f"{path}: length {len(actual)} != golden {len(expected)}"
        )
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: {type(actual)} != dict"
        assert set(actual) == set(expected), (
            f"{path}: keys {sorted(actual)} != golden {sorted(expected)}"
        )
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    else:
        assert actual == expected, f"{path}: {actual!r} != golden {expected!r}"


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, regen_golden, request):
    fixture = GOLDEN_DIR / f"{name}.json"
    case = CASES[name]
    result = canonicalize(case() if case else request.getfixturevalue(name))
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        fixture.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        return
    assert fixture.exists(), (
        f"missing golden fixture {fixture}; generate it with "
        "`pytest tests/experiments/test_golden_outputs.py --regen-golden` "
        "and commit the file"
    )
    expected = json.loads(fixture.read_text())
    assert_matches(result, expected, name)


def test_every_figure_module_has_a_case():
    """The harness covers all fig* experiment modules, now and future."""
    import pkgutil

    import repro.experiments as experiments

    modules = {
        module.name
        for module in pkgutil.iter_modules(experiments.__path__)
        if module.name.startswith("fig")
    }
    fig_cases = {name for name in CASES if name.startswith("fig")}
    assert modules == fig_cases, (
        "golden CASES out of sync with repro.experiments fig* modules; "
        f"missing {sorted(modules - fig_cases)}, stale {sorted(fig_cases - modules)}"
    )

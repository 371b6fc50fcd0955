"""One-shot reproduction report: run every experiment, emit markdown.

``python -m repro.experiments.report [output.md]`` runs the figures and
writes their paper-vs-measured numbers as markdown
(:func:`render_report`) — the artifact a downstream user checks first
when validating their installation. The ``fast`` grids keep
the full sweep under a few minutes; pass ``fast=False`` for the
paper-sized grids.
"""

from __future__ import annotations

import sys
from typing import Dict, List

from repro.experiments import (
    deployment_scale,
    fig02_survey,
    fig04_occupancy,
    fig05_stereo_usage,
    fig06_freq_response,
    fig07_snr_distance,
    fig08_ber_overlay,
    fig09_mrc,
    fig11_pesq_overlay,
    fig14_car,
    fig17_fabric,
)
from repro.backscatter.power import battery_life_hours, fm_chip_power_w, ic_power_budget

REPORT_SEED = 2017


def _series(values: List[float]) -> str:
    return ", ".join(f"{v:.3g}" for v in values)


def collect_aggregates(fast: bool = True, rng: int = REPORT_SEED) -> Dict[str, Dict]:
    """Run the experiment suite and return the report's numeric aggregates.

    One sub-dict per report section, holding exactly the numbers the
    markdown prints. This structured form is what the golden-regression
    tier pins (``tests/experiments/test_golden_outputs.py``), so drift in
    any headline number fails loudly even if the markdown prose changes.
    """
    survey = fig02_survey.run(rng=rng)
    occupancy = fig04_occupancy.run(rng=rng)
    usage = fig05_stereo_usage.run(
        n_snapshots=4 if fast else 20, snapshot_seconds=1.0, rng=rng
    )
    freqs = (1000, 8000, 12000, 14500) if fast else fig06_freq_response.DEFAULT_FREQS_HZ
    response = fig06_freq_response.run(freqs_hz=freqs, duration_s=0.4, rng=rng)
    snr = fig07_snr_distance.run(
        powers_dbm=(-30.0, -50.0),
        distances_ft=(4, 12, 20) if fast else fig07_snr_distance.DEFAULT_DISTANCES_FT,
        duration_s=0.4,
        rng=rng,
    )
    ber = fig08_ber_overlay.run(
        rate="100bps",
        powers_dbm=(-60.0,),
        distances_ft=(6, 12, 20) if fast else fig08_ber_overlay.DEFAULT_DISTANCES_FT,
        n_bits=120 if fast else 800,
        rng=rng,
    )
    mrc = fig09_mrc.run(
        distances_ft=(8,) if fast else fig09_mrc.DEFAULT_DISTANCES_FT,
        mrc_factors=(1, 2, 4),
        n_bits=800 if fast else 1600,
        rng=rng,
    )
    pesq = fig11_pesq_overlay.run(
        powers_dbm=(-20.0, -60.0),
        distances_ft=(4, 20) if fast else fig11_pesq_overlay.DEFAULT_DISTANCES_FT,
        duration_s=1.5,
        rng=rng,
    )
    car = fig14_car.run(
        powers_dbm=(-20.0,),
        distances_ft=(20, 60) if fast else fig14_car.DEFAULT_DISTANCES_FT,
        duration_s=1.0,
        rng=rng,
    )
    fabric = fig17_fabric.run(
        motions=("standing", "running"),
        n_bits_low=150 if fast else 400,
        n_bits_high=800 if fast else 1600,
        n_trials=2 if fast else 5,
        rng=rng,
    )
    deployment = deployment_scale.run(
        device_counts=(1, 2, 4) if fast else deployment_scale.DEFAULT_DEVICE_COUNTS,
        rng=rng,
    )
    budget = ic_power_budget()
    return {
        "survey": {
            "median_dbm": survey["median_dbm"],
            "min_dbm": survey["min_dbm"],
            "max_dbm": survey["max_dbm"],
            "diurnal_std_db": survey["diurnal_std_db"],
        },
        "occupancy": {
            "median_shift_khz": occupancy["median_shift_khz"],
            "max_shift_khz": occupancy["max_shift_khz"],
        },
        "stereo_usage": {
            program: usage[program]["median_db"]
            for program in ("news", "mixed", "pop", "rock")
        },
        "freq_response": {
            "freq_hz": list(response["freq_hz"]),
            "mono_snr_db": list(response["mono_snr_db"]),
        },
        "snr_distance": {
            "distances_ft": list(snr["distances_ft"]),
            "P-30": list(snr["P-30"]),
            "P-50": list(snr["P-50"]),
        },
        "ber_100bps": {
            "distances_ft": list(ber["distances_ft"]),
            "P-60": list(ber["P-60"]),
        },
        "mrc": {
            "mrc1": list(mrc["mrc1"]),
            "mrc2": list(mrc["mrc2"]),
            "mrc4": list(mrc["mrc4"]),
        },
        "pesq_overlay": {
            "P-20": list(pesq["P-20"]),
            "P-60": list(pesq["P-60"]),
        },
        "car": {
            "distances_ft": list(car["distances_ft"]),
            "snr_db": list(car["snr_P-20"]),
            "pesq": list(car["pesq_P-20"]),
        },
        "fabric": {
            "motions": list(fabric["motions"]),
            "ber_100bps": list(fabric["ber_100bps"]),
            "ber_1.6kbps_mrc2": list(fabric["ber_1.6kbps_mrc2"]),
        },
        "deployment": {
            "device_counts": list(deployment["device_counts"]),
            "per_device_delivery": list(deployment["per_device_delivery"]),
            "aggregate_goodput_bps": list(deployment["aggregate_goodput_bps"]),
            "shared_devices": list(deployment["shared_devices"]),
        },
        "power": {
            "ic_total_uw": budget.total_uw,
            "coin_cell_years": battery_life_hours(budget.total_w) / (24 * 365),
            "fm_chip_hours": battery_life_hours(fm_chip_power_w()),
        },
    }


def generate_report(fast: bool = True) -> str:
    """Run the experiment suite and return a markdown report."""
    return render_report(collect_aggregates(fast=fast), fast=fast)


def render_report(agg: Dict[str, Dict], fast: bool = True) -> str:
    """Render :func:`collect_aggregates`' output as the markdown report."""
    lines: List[str] = [
        "# FM Backscatter reproduction report",
        "",
        "Generated by `repro.experiments.report`; deterministic seed "
        f"{REPORT_SEED}; {'fast' if fast else 'full'} grids.",
        "",
    ]

    survey = agg["survey"]
    lines += [
        "## Fig. 2 — signal survey",
        f"- median power {survey['median_dbm']:.1f} dBm "
        f"(span {survey['min_dbm']:.1f} .. {survey['max_dbm']:.1f}); "
        f"diurnal sigma {survey['diurnal_std_db']:.2f} dB",
        "",
    ]

    occupancy = agg["occupancy"]
    lines += [
        "## Fig. 4 — channel occupancy",
        f"- pooled median min-shift {occupancy['median_shift_khz']:.0f} kHz, "
        f"max {occupancy['max_shift_khz']:.0f} kHz",
        "",
    ]

    usage = agg["stereo_usage"]
    lines += [
        "## Fig. 5 — stereo utilization (median dB)",
        "- "
        + ", ".join(
            f"{program} {usage[program]:.1f}"
            for program in ("news", "mixed", "pop", "rock")
        ),
        "",
    ]

    response = agg["freq_response"]
    lines += [
        "## Fig. 6 — frequency response (mono SNR dB)",
        f"- at {list(response['freq_hz'])}: {_series(response['mono_snr_db'])}",
        "",
    ]

    snr = agg["snr_distance"]
    lines += [
        "## Fig. 7 — SNR vs distance",
        f"- -30 dBm: {_series(snr['P-30'])} at {list(snr['distances_ft'])} ft",
        f"- -50 dBm: {_series(snr['P-50'])}",
        "",
    ]

    ber = agg["ber_100bps"]
    lines += [
        "## Fig. 8a — 100 bps BER at -60 dBm",
        f"- {_series(ber['P-60'])} at {list(ber['distances_ft'])} ft",
        "",
    ]

    mrc = agg["mrc"]
    lines += [
        "## Fig. 9 — MRC (1.6 kbps, -40 dBm, 8 ft)",
        f"- BER 1x {_series(mrc['mrc1'])}, 2x {_series(mrc['mrc2'])}, "
        f"4x {_series(mrc['mrc4'])}",
        "",
    ]

    pesq = agg["pesq_overlay"]
    lines += [
        "## Fig. 11 — overlay PESQ",
        f"- -20 dBm: {_series(pesq['P-20'])}; -60 dBm: {_series(pesq['P-60'])}",
        "",
    ]

    car = agg["car"]
    lines += [
        "## Fig. 14 — car receiver",
        f"- SNR {_series(car['snr_db'])} dB, PESQ {_series(car['pesq'])} "
        f"at {list(car['distances_ft'])} ft",
        "",
    ]

    fabric = agg["fabric"]
    lines += [
        "## Fig. 17b — smart fabric",
        f"- 100 bps: {_series(fabric['ber_100bps'])}; 1.6 kbps + 2x MRC: "
        f"{_series(fabric['ber_1.6kbps_mrc2'])} ({fabric['motions']})",
        "",
    ]

    deployment = agg["deployment"]
    lines += [
        "## Deployment scale-out (sections 1, 8)",
        f"- devices {deployment['device_counts']}: per-device delivery "
        f"{_series(deployment['per_device_delivery'])}; aggregate goodput "
        f"{_series(deployment['aggregate_goodput_bps'])} bps "
        f"(ALOHA sharers per count: {deployment['shared_devices']})",
        "",
    ]

    power = agg["power"]
    lines += [
        "## Power (section 4)",
        f"- IC total {power['ic_total_uw']:.2f} uW; coin cell life "
        f"{power['coin_cell_years']:.1f} years vs {power['fm_chip_hours']:.1f} "
        "hours for an FM chip",
        "",
    ]
    return "\n".join(lines)


def main(argv: List[str] = None) -> int:
    """CLI entry point: write the report to the given path or stdout."""
    argv = sys.argv[1:] if argv is None else argv
    report = generate_report(fast=True)
    if argv:
        with open(argv[0], "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {argv[0]}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

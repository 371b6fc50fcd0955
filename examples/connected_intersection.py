#!/usr/bin/env python
"""Connected intersection: several street signs sharing the FM band.

The paper's vision (section 1) has street signs broadcasting crossing
information for accessibility; its discussion (section 8) sketches how
multiple devices coexist — different ``fback`` values when free channels
allow it, ALOHA-style sharing otherwise. Both policies now live in the
deployment layer (`repro.engine.deployment`), so this example is a thin
driver: declare the signs, let the `ChannelPlan` scan the band and hand
out channels, and run the whole intersection as one engine sweep (cached
ambient synthesis; `REPRO_SWEEP_BACKEND` may be `serial` or the
default `auto`, with identical results).

Run:
    python examples/connected_intersection.py
"""

import os

from repro.engine import ChannelPlan, DeploymentScenario, DeviceSpec


def main(fast=None) -> None:
    if fast is None:
        fast = os.environ.get("REPRO_EXAMPLE_FAST", "") == "1"

    # Band snapshot around the strong station on channel 50 (94.9-ish);
    # fback can only move energy 2 channels, so two free channels are in
    # reach and the late-arriving signs must share one with slotted ALOHA.
    plan = ChannelPlan(
        policy="auto",
        source_channel=50,
        max_shift_channels=2,
        slots_per_frame=4,
    )
    print("occupied channels:", plan.occupied_channels())
    print("free channels in reach (quietest first):", plan.free_channels())

    signs = (
        DeviceSpec(name="walk-sign", payload=b"WALK 12S", distance_ft=8.0),
        DeviceSpec(name="dont-walk", payload=b"DONT WALK", distance_ft=8.0),
        DeviceSpec(name="bus-stop", payload=b"BUS 44 2MIN", distance_ft=10.0),
        DeviceSpec(name="xing-sign", payload=b"XING CLEAR", distance_ft=12.0),
    )
    assignment = plan.assign(len(signs))
    for sign, line in zip(signs, assignment.describe()):
        print(f"{sign.name:10s} {line.split(': ', 1)[1]}")
    n_sharing = len(assignment.sharing_indices)
    print(
        f"sharing group of {n_sharing}: framed-ALOHA per-device success "
        f"{plan.framed_success_probability(n_sharing, plan.slots_per_frame):.2f}"
        + (
            f", analytic slotted throughput {plan.mac(n_sharing).expected_throughput():.2f}"
            if n_sharing
            else ""
        )
    )

    deployment = DeploymentScenario(
        name="intersection",
        devices=signs,
        plan=plan,
        frames_per_device=1 if fast else 2,
    )
    result = deployment.run(rng=5)
    outcome = result.values[0]

    print(f"\npedestrian's phone, {outcome['window_s']:.1f} s air window:")
    for sign, stats in zip(signs, outcome["per_device"]):
        if stats["delivered"]:
            status = f"decodes {sign.payload.decode('ascii')!r}"
        elif stats["mac_lost"] == stats["frames"]:
            status = "lost every slot to ALOHA collisions"
        else:
            status = "frame not recovered"
        print(f"  {stats['name']:10s} ({stats['delivery_rate']:.0%}) {status}")
    print(
        f"aggregate goodput {outcome['aggregate_goodput_bps']:.1f} bps "
        f"across {outcome['n_devices']} signs "
        f"({outcome['n_shared']} sharing one channel)"
    )


if __name__ == "__main__":
    main()

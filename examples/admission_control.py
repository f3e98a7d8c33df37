#!/usr/bin/env python3
"""Online admission control on a real-time ring (the §2 run-time story).

The paper notes that knowing a utilization bound "simplifies run-time
network administration — schedulability tests are not needed as long as
the offered load is below this bound."  This example runs that
administration loop: a stream of connection requests (new sensors coming
online, sessions ending) hits an :class:`AdmissionController` for each
protocol, and we compare the two admission policies: EXACT (Theorems 4.1
and 5.1 on every request) against SUFFICIENT (the utilization bound
alone), counting how many requests the bound refused although the exact
test would have admitted them, and checking that the admitted set never
becomes unschedulable.

Run:  python examples/admission_control.py
"""

import numpy as np

from repro import (
    MessageSet,
    PDPAnalysis,
    PDPVariant,
    SynchronousStream,
    TTPAnalysis,
    fddi_ring,
    ieee_802_5_ring,
    mbps,
    paper_frame_format,
)
from repro.admission import AdmissionController, AdmissionPolicy
from repro.experiments.reporting import format_table


def request_trace(seed: int, count: int):
    """A day of connection churn: (kind, period_s, payload_bits)."""
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(count):
        if rng.random() < 0.75 or not events:
            period = float(rng.uniform(0.02, 0.25))
            payload = float(rng.uniform(2_000, 400_000))
            events.append(("request", period, payload))
        else:
            events.append(("release", 0.0, 0.0))
    return events


def exact_would_admit(controller: AdmissionController, period, payload) -> bool:
    """Whether the exact test accepts the candidate on the current set."""
    current = controller.current_set()
    taken = {stream.station for stream in current}
    station = min(set(range(controller.analysis.ring.n_stations)) - taken)
    stream = SynchronousStream(period, payload, station=station)
    return controller.analysis.is_schedulable(MessageSet([*current, stream]))


def run_trace(controller: AdmissionController, events) -> dict:
    admitted = rejected = released = feasible_refused = 0
    live_ids = []
    rng = np.random.default_rng(99)
    for kind, period, payload in events:
        if kind == "request":
            decision = controller.request(period, payload)
            if decision.admitted:
                admitted += 1
                live_ids.append(decision.stream_id)
            else:
                rejected += 1
                if decision.tested_by != "capacity" and exact_would_admit(
                    controller, period, payload
                ):
                    feasible_refused += 1
        elif live_ids:
            victim = live_ids.pop(int(rng.integers(len(live_ids))))
            controller.release(victim)
            released += 1
    # Invariant check: whatever happened, the admitted set is feasible.
    if controller.admitted_count:
        assert controller.analysis.is_schedulable(controller.current_set())
    return {
        "admitted": admitted,
        "rejected": rejected,
        "released": released,
        "feasible refused": feasible_refused,
        "final streams": controller.admitted_count,
        "final U": controller.utilization(),
    }


def main() -> None:
    frame = paper_frame_format()
    n_stations = 16
    events = request_trace(seed=7, count=60)
    print(f"replaying {len(events)} admission/teardown events "
          f"on a {n_stations}-station ring\n")

    rows = []
    for label, bandwidth_mbps, make_analysis in (
        ("802.5 @ 4 Mbps", 4,
         lambda bw: PDPAnalysis(ieee_802_5_ring(bw, n_stations=n_stations),
                                frame, PDPVariant.MODIFIED)),
        ("FDDI @ 100 Mbps", 100,
         lambda bw: TTPAnalysis(fddi_ring(bw, n_stations=n_stations), frame)),
    ):
        for policy in AdmissionPolicy:
            controller = AdmissionController(
                make_analysis(mbps(bandwidth_mbps)), policy
            )
            outcome = run_trace(controller, events)
            rows.append([
                label,
                policy.value,
                outcome["admitted"],
                outcome["rejected"],
                outcome["feasible refused"],
                outcome["final streams"],
                outcome["final U"],
            ])

    print(format_table(
        ["network", "policy", "admitted", "rejected", "feasible refused",
         "live", "final U"],
        rows, float_format="{:.3f}",
    ))
    print("\nreading the table:")
    print("  - EXACT refuses only infeasible requests ('feasible refused'")
    print("    is 0); SUFFICIENT refuses every request above the bound,")
    print("    feasible or not.")
    print("  - SUFFICIENT is per-request more conservative; over a churn")
    print("    trace its *totals* can differ either way, because rejecting")
    print("    one stream leaves room for different later ones.")
    print("  - every admitted population stayed provably schedulable")
    print("    (asserted inside the replay loop).")


if __name__ == "__main__":
    main()

"""Fidelity comparison between the two PDP models."""

import pytest

from repro.analysis.breakdown import breakdown_scale
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.sim.compare import compare_pdp_fidelity
from repro.units import mbps, milliseconds


FRAME = paper_frame_format()


def make_set(specs) -> MessageSet:
    return MessageSet(
        SynchronousStream(
            period_s=milliseconds(period), payload_bits=payload, station=i
        )
        for i, (period, payload) in enumerate(specs)
    )


class TestFidelityComparison:
    def test_light_load_agreement(self):
        """With margin, both models complete everything deadline-clean."""
        workload = make_set([(40, 4000), (80, 8000), (120, 8000)])
        ring = ieee_802_5_ring(mbps(16), n_stations=3)
        comparison = compare_pdp_fidelity(ring, FRAME, workload, duration_s=0.6)
        assert comparison.verdicts_agree
        assert comparison.abstract.deadline_safe
        assert comparison.faithful.deadline_safe
        assert comparison.miss_gap == 0

    def test_same_completion_counts_when_clean(self):
        workload = make_set([(40, 4000), (80, 8000)])
        ring = ieee_802_5_ring(mbps(16), n_stations=2)
        comparison = compare_pdp_fidelity(ring, FRAME, workload, duration_s=0.8)
        assert (
            comparison.abstract.total_completed
            == comparison.faithful.total_completed
        )

    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_near_boundary_agreement(self, variant):
        """At 60% of the analytic breakdown both abstractions stay clean."""
        workload = make_set([(25, 5000), (50, 10_000), (100, 20_000)])
        ring = ieee_802_5_ring(mbps(10), n_stations=3)
        analysis = PDPAnalysis(ring, FRAME, variant)
        scale, __ = breakdown_scale(workload, analysis, rel_tol=1e-3)
        near = workload.scaled(scale * 0.6)
        comparison = compare_pdp_fidelity(
            ring, FRAME, near, variant=variant, duration_s=0.6,
            n_priority_levels=64,
        )
        assert comparison.faithful.deadline_safe
        assert comparison.verdicts_agree

    @pytest.mark.parametrize("fraction", [0.4, 0.7, 0.9])
    def test_loaded_eight_stream_ring(self, fraction):
        """Eight streams at a fraction of their analytic breakdown point:
        up to 70% both models meet every deadline, and at every load the
        faithful worst response stays within the analytic factor."""
        workload = make_set([(20 + 10 * i, 8_000) for i in range(8)])
        ring = ieee_802_5_ring(mbps(10), n_stations=len(workload))
        analysis = PDPAnalysis(ring, FRAME, PDPVariant.STANDARD)
        scale, __ = breakdown_scale(workload, analysis, rel_tol=1e-3)
        comparison = compare_pdp_fidelity(
            ring, FRAME, workload.scaled(scale * fraction), duration_s=0.6
        )
        if fraction <= 0.7:
            assert comparison.abstract.total_missed == 0
            assert comparison.faithful.total_missed == 0
        assert comparison.worst_response_ratio() < 3.0

    def test_faithful_responses_not_dramatically_worse(self):
        """The fidelity gap in worst response stays within the analytic
        factor (the faithful model pays at most a full token lap per frame
        where the abstract one pays the hop distance)."""
        workload = make_set([(30, 6000), (60, 12_000), (90, 12_000)])
        ring = ieee_802_5_ring(mbps(10), n_stations=3)
        comparison = compare_pdp_fidelity(ring, FRAME, workload, duration_s=0.8)
        assert comparison.worst_response_ratio() < 3.0

    def test_overload_both_miss(self):
        workload = make_set([(10, 30_000), (12, 30_000), (15, 30_000)])
        ring = ieee_802_5_ring(mbps(4), n_stations=3)
        comparison = compare_pdp_fidelity(ring, FRAME, workload, duration_s=0.5)
        assert not comparison.abstract.deadline_safe
        assert not comparison.faithful.deadline_safe
        assert comparison.verdicts_agree

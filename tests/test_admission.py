"""Online admission controller: policies, lifecycle, invariants, and the
memoised decision-cache key."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.admission import (
    MAX_EXACT_POINTS,
    AdmissionController,
    AdmissionOp,
    AdmissionPolicy,
    OpFault,
)
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.cache import store
from repro.errors import AdmissionError, ConfigurationError, MessageSetError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.obs import metrics
from repro.units import mbps, milliseconds


FRAME = paper_frame_format()


def pdp_controller(n=8, bandwidth=16.0, policy=AdmissionPolicy.EXACT):
    analysis = PDPAnalysis(
        ieee_802_5_ring(mbps(bandwidth), n_stations=n), FRAME, PDPVariant.MODIFIED
    )
    return AdmissionController(analysis, policy)


def ttp_controller(n=8, bandwidth=100.0, policy=AdmissionPolicy.EXACT):
    analysis = TTPAnalysis(fddi_ring(mbps(bandwidth), n_stations=n), FRAME)
    return AdmissionController(analysis, policy)


def cached_pair(n=8, bandwidth=16.0, policy=AdmissionPolicy.EXACT):
    """(decision-cached, uncached oracle) PDP controllers over identical
    analyses."""

    def analysis():
        return PDPAnalysis(
            ieee_802_5_ring(mbps(bandwidth), n_stations=n),
            FRAME,
            PDPVariant.MODIFIED,
        )

    return (
        AdmissionController(analysis(), policy, cache_namespace="admission"),
        AdmissionController(analysis(), policy),
    )


class TestLifecycle:
    def test_admit_and_release(self):
        controller = pdp_controller()
        decision = controller.request(milliseconds(50), 8000)
        assert decision.admitted
        assert controller.admitted_count == 1
        controller.release(decision.stream_id)
        assert controller.admitted_count == 0

    def test_station_reuse_after_release(self):
        controller = pdp_controller(n=1)
        first = controller.request(milliseconds(50), 8000)
        assert first.admitted
        assert not controller.request(milliseconds(50), 8000).admitted
        controller.release(first.stream_id)
        second = controller.request(milliseconds(50), 8000)
        assert second.admitted
        assert second.station == first.station

    def test_capacity_rejection(self):
        controller = pdp_controller(n=2)
        assert controller.request(milliseconds(50), 100).admitted
        assert controller.request(milliseconds(60), 100).admitted
        denial = controller.request(milliseconds(70), 100)
        assert not denial.admitted
        assert denial.tested_by == "capacity"

    def test_release_unknown_id(self):
        with pytest.raises(MessageSetError):
            pdp_controller().release(42)

    def test_unique_ids(self):
        controller = pdp_controller()
        a = controller.request(milliseconds(50), 100)
        b = controller.request(milliseconds(60), 100)
        assert a.stream_id != b.stream_id

    def test_rejected_request_leaves_state(self):
        controller = pdp_controller(n=4, bandwidth=1.0)
        controller.request(milliseconds(30), 8000)
        before = controller.utilization()
        denial = controller.request(milliseconds(10), 5_000_000)
        assert not denial.admitted
        assert controller.utilization() == before

    def test_rejects_non_analysis(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(object())


class TestPolicies:
    def test_exact_policy_admits_heavy_harmonic_load(self):
        """An exact controller admits loads the sufficient bound refuses."""
        exact = pdp_controller(n=4, bandwidth=100.0, policy=AdmissionPolicy.EXACT)
        sufficient = pdp_controller(
            n=4, bandwidth=100.0, policy=AdmissionPolicy.SUFFICIENT
        )
        specs = [(milliseconds(20 * 2**i), 120_000 * 2**i) for i in range(4)]
        exact_admits = sum(
            exact.request(p, c).admitted for p, c in specs
        )
        sufficient_admits = sum(
            sufficient.request(p, c).admitted for p, c in specs
        )
        assert exact_admits >= sufficient_admits

    @pytest.mark.parametrize("make", [pdp_controller, ttp_controller])
    def test_sufficient_policy_never_runs_the_exact_test(self, make, monkeypatch):
        """Every SUFFICIENT decision, admit or reject, is the bound's."""
        monkeypatch.setattr(
            AdmissionController,
            "_exact_verdicts",
            lambda self, candidates: pytest.fail("exact test ran"),
        )
        controller = make(policy=AdmissionPolicy.SUFFICIENT)
        light = controller.request(milliseconds(100), 1000)
        heavy = controller.check(milliseconds(10), 5_000_000)
        assert light.admitted and not heavy.admitted
        assert light.tested_by == heavy.tested_by == "sufficient"

    def test_ttp_controller_works(self):
        controller = ttp_controller()
        decision = controller.request(milliseconds(50), 20_000)
        assert decision.admitted
        assert controller.analysis.is_schedulable(controller.current_set())


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000),
           policy=st.sampled_from(list(AdmissionPolicy)))
    def test_admitted_set_always_schedulable(self, seed, policy):
        """Whatever the request sequence, the admitted set stays feasible
        (for SUFFICIENT, it stays inside the sufficient region, which
        implies exact feasibility)."""
        rng = np.random.default_rng(seed)
        controller = ttp_controller(n=6, policy=policy)
        for _ in range(10):
            period = float(rng.uniform(0.02, 0.3))
            payload = float(rng.uniform(1e3, 5e5))
            controller.request(period, payload)
            if controller.admitted_count and rng.random() < 0.3:
                victim = next(iter(controller._streams))
                controller.release(victim)
        if controller.admitted_count:
            assert controller.analysis.is_schedulable(controller.current_set())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_would_admit_agrees_with_request(self, seed):
        rng = np.random.default_rng(seed)
        controller = pdp_controller(n=6)
        for _ in range(6):
            period = float(rng.uniform(0.02, 0.2))
            payload = float(rng.uniform(1e3, 4e5))
            predicted = controller.would_admit(period, payload)
            actual = controller.request(period, payload).admitted
            assert predicted == actual


class TestCachedReleasePaths:
    """Release paths on a decision-cached controller, against the oracle."""

    def test_double_release_raises_then_idempotent_noop(self):
        ctrl, _ = cached_pair()
        decision = ctrl.request(milliseconds(50), 8000)
        assert decision.admitted
        assert ctrl.release(decision.stream_id).released
        with pytest.raises(AdmissionError):
            ctrl.release(decision.stream_id)
        again = ctrl.release(decision.stream_id, idempotent=True)
        assert not again.released  # recorded no-op, state untouched
        assert ctrl.admitted_count == 0

    def test_release_never_admitted_stream(self):
        ctrl, _ = cached_pair()
        with pytest.raises(AdmissionError):
            ctrl.release(777)
        assert ctrl.release(777, idempotent=True).released is False

    def test_check_after_release_sees_fresh_key(self):
        """A release must not leave the next decision keyed on the
        pre-release population."""
        ctrl, oracle = cached_pair(n=4, bandwidth=1.0)
        ids = []
        for period, bits in ((milliseconds(30), 8000.0), (milliseconds(40), 6000.0)):
            d, o = ctrl.request(period, bits), oracle.request(period, bits)
            assert d == o
            ids.append(d.stream_id)
        probe = (milliseconds(10), 500_000.0)
        assert ctrl.check(*probe) == oracle.check(*probe)
        ctrl.release(ids[0])
        oracle.release(ids[0])
        assert ctrl.check(*probe) == oracle.check(*probe)
        assert ctrl.request(*probe) == oracle.request(*probe)

    def test_churn_interleaving_matches_oracle(self):
        ctrl, oracle = cached_pair(n=6, bandwidth=4.0)
        catalogue = [
            (milliseconds(8), 1024.0),
            (milliseconds(16), 4096.0),
            (milliseconds(32), 16384.0),
            (milliseconds(64), 65536.0),
        ]
        live = []
        for step, (period, bits) in enumerate(catalogue * 3):
            d, o = ctrl.request(period, bits), oracle.request(period, bits)
            assert d == o
            if d.admitted:
                live.append(d.stream_id)
            if step % 2 and live:
                sid = live.pop(0)
                assert ctrl.release(sid).released
                assert oracle.release(sid).released

    def test_ttp_release_then_admit(self):
        analysis = TTPAnalysis(fddi_ring(mbps(100.0), n_stations=4), FRAME)
        ctrl = AdmissionController(
            analysis, AdmissionPolicy.EXACT, cache_namespace="admission"
        )
        first = ctrl.request(milliseconds(50), 8000)
        assert first.admitted
        assert ctrl.request(milliseconds(100), 4000).admitted
        ctrl.release(first.stream_id)
        with pytest.raises(AdmissionError):
            ctrl.release(first.stream_id)
        assert ctrl.request(milliseconds(50), 8000).admitted


class TestDecisionKey:
    """The decision key hashes the admitted population once per population."""

    CANDIDATE = (milliseconds(20), 2048.0)

    def key(self, ctrl):
        return ctrl._cache_key(*self.CANDIDATE)

    def test_uncached_controller_has_no_key(self):
        _, oracle = cached_pair()
        assert self.key(oracle) is None

    def test_committed_admit_changes_key(self):
        ctrl, _ = cached_pair()
        before = self.key(ctrl)
        assert ctrl.request(milliseconds(50), 8000).admitted
        assert self.key(ctrl) != before

    def test_successful_release_changes_key(self):
        ctrl, _ = cached_pair()
        first = ctrl.request(milliseconds(50), 8000)
        assert ctrl.request(milliseconds(40), 4000).admitted
        before = self.key(ctrl)
        assert ctrl.release(first.stream_id).released
        assert self.key(ctrl) != before

    def test_non_mutating_operations_keep_the_base_digest(self):
        ctrl, _ = cached_pair()
        assert ctrl.request(milliseconds(50), 8000).admitted
        before = self.key(ctrl)
        digest = ctrl._base_digest

        ctrl.check(milliseconds(30), 1024.0)
        # utilization > 1: the exact test rejects it
        assert not ctrl.request(milliseconds(10), 200_000.0).admitted
        ctrl.set_utilization_cap(0.01)
        budget = ctrl.request(milliseconds(10), 64_000.0)
        assert budget.tested_by == "budget" and not budget.admitted
        ctrl.set_utilization_cap(None)
        assert not ctrl.release(999, idempotent=True).released
        with pytest.raises(AdmissionError):
            ctrl.release(999)

        assert ctrl._base_digest is digest  # never rebuilt
        assert self.key(ctrl) == before

    def test_same_multiset_same_key_whatever_the_history(self):
        a, _ = cached_pair()
        b, _ = cached_pair()
        x, y, z = (
            (milliseconds(50), 8000.0),
            (milliseconds(40), 4000.0),
            (milliseconds(80), 1000.0),
        )
        a.request(*x)
        a.request(*y)
        b.request(*y)
        third = b.request(*z)
        b.release(third.stream_id)
        b.request(*x)
        def placements(ctrl):
            return {(s.period_s, s.station) for s in ctrl.current_set()}

        assert placements(a) != placements(b)  # same multiset, other stations
        assert self.key(a) == self.key(b)

    def test_release_returns_to_the_smaller_populations_key(self):
        ctrl, _ = cached_pair()
        assert ctrl.request(milliseconds(50), 8000.0).admitted
        one = self.key(ctrl)
        extra = ctrl.request(milliseconds(50), 8000.0)  # a twin pair
        two = self.key(ctrl)
        assert ctrl.release(extra.stream_id).released
        assert self.key(ctrl) == one != two

    def test_policy_and_signature_separate_keys(self):
        exact, _ = cached_pair(policy=AdmissionPolicy.EXACT)
        sufficient, _ = cached_pair(policy=AdmissionPolicy.SUFFICIENT)
        faster, _ = cached_pair(bandwidth=100.0)
        assert self.key(exact) != self.key(sufficient)
        assert self.key(exact) != self.key(faster)


class TestPopulationSnapshot:
    """Decisions read a per-population snapshot: the admitted streams in
    RM order and their utilization summed in admission order."""

    @pytest.mark.parametrize("full", [False, True], ids=["free", "full"])
    @pytest.mark.parametrize("path", ["direct", "batch"])
    def test_request_validity_does_not_depend_on_occupancy(self, full, path):
        controller = pdp_controller(n=2)
        if full:
            assert controller.request(milliseconds(50), 100).admitted
            assert controller.request(milliseconds(60), 100).admitted
            assert controller.check(milliseconds(70), 100).tested_by == "capacity"
        if path == "direct":
            with pytest.raises(MessageSetError):
                controller.check(-1.0, 100.0)
        else:
            (answer,) = controller.process_batch([AdmissionOp.check(-1.0, 100.0)])
            assert isinstance(answer, OpFault)
            assert answer.error == "MessageSetError"

    @pytest.mark.parametrize(
        "bad",
        [
            AdmissionOp.check(float("nan"), 100.0),
            AdmissionOp.admit(float("inf"), 100.0),
            AdmissionOp.check(float("-inf"), 100.0),
            AdmissionOp.admit(milliseconds(10), float("nan")),
            AdmissionOp.check(milliseconds(10), float("inf")),
            AdmissionOp.admit(milliseconds(10), float("-inf")),
        ],
        ids=["nan-period", "inf-period", "-inf-period",
             "nan-payload", "inf-payload", "-inf-payload"],
    )
    def test_non_finite_op_faults_alone(self, bad):
        """A NaN or infinite request is answered with its own fault; its
        batchmates get exactly the answers of a batch without it."""
        valid = [
            AdmissionOp.admit(milliseconds(50), 100.0),
            AdmissionOp.check(milliseconds(10), 100.0),
            AdmissionOp.admit(milliseconds(20), 2000.0),
            AdmissionOp.check(milliseconds(30), 500.0),
        ]
        clean = pdp_controller(policy=AdmissionPolicy.EXACT).process_batch(valid)
        mixed = pdp_controller(policy=AdmissionPolicy.EXACT).process_batch(
            [*valid[:2], bad, *valid[2:]]
        )
        fault = mixed.pop(2)
        assert isinstance(fault, OpFault)
        assert fault.error == "MessageSetError"
        assert mixed == clean

    def test_exact_size_bound_faults_before_building(self):
        """A 10^4 s period beside an admitted 1 ms stream needs 10^7
        scheduling points: refused without building the exact test."""
        controller = pdp_controller(policy=AdmissionPolicy.EXACT)
        assert controller.request(milliseconds(1), 100.0).admitted
        counters = ("pdp.exact_cache.misses", "pdp.exact_cache.kernel_builds")
        before = [metrics.counter(name).value for name in counters]
        with pytest.raises(MessageSetError, match="scheduling points"):
            controller.check(1e4, 100.0)
        assert [metrics.counter(name).value for name in counters] == before

    def test_exact_size_bound_is_inclusive(self):
        controller = pdp_controller(policy=AdmissionPolicy.EXACT)
        assert controller.request(0.5, 100.0).admitted
        # 0.5 s divides both candidates exactly: 99999 + 1 and 100000 + 1
        # points.
        assert controller.check(0.5 * (MAX_EXACT_POINTS - 1), 100.0).admitted
        with pytest.raises(MessageSetError):
            controller.check(0.5 * MAX_EXACT_POINTS, 100.0)

    def test_exact_size_bound_is_pdp_only(self):
        controller = ttp_controller(policy=AdmissionPolicy.EXACT)
        assert controller.request(milliseconds(10), 100.0).admitted
        assert controller.check(1e4, 100.0).tested_by == "exact"

    @pytest.mark.parametrize(
        "period_s", [1e4, 1e308, 5e-324], ids=["1e4", "1e308", "subnormal"]
    )
    def test_oversized_exact_test_faults_alone(self, period_s):
        """Batchmates of a request over the point bound get exactly the
        answers of a batch without it, also where the period ratio
        overflows to infinity."""
        valid = [
            AdmissionOp.admit(milliseconds(1), 100.0),
            AdmissionOp.check(milliseconds(10), 100.0),
            AdmissionOp.admit(milliseconds(20), 2000.0),
            AdmissionOp.check(milliseconds(30), 500.0),
        ]
        clean = pdp_controller(policy=AdmissionPolicy.EXACT).process_batch(valid)
        mixed = pdp_controller(policy=AdmissionPolicy.EXACT).process_batch(
            [*valid[:2], AdmissionOp.check(period_s, 100.0), *valid[2:]]
        )
        fault = mixed.pop(2)
        assert fault.error == "MessageSetError"
        assert "scheduling points" in fault.detail
        assert mixed == clean

    @pytest.mark.parametrize("policy", list(AdmissionPolicy), ids=lambda p: p.value)
    @pytest.mark.parametrize(
        "period_s, error",
        [(1e308, "MessageSetError"), (5e-324, "ConfigurationError")],
        ids=["1e308", "subnormal"],
    )
    def test_ttp_extreme_period_faults_alone(self, policy, period_s, error):
        """On a TTP ring beside an admitted 10 ms stream, a period with no
        finite token visit count (or no positive TTRT) faults alone, on
        the sufficient and exact steps alike."""
        valid = [
            AdmissionOp.admit(milliseconds(10), 100.0),
            AdmissionOp.check(milliseconds(10), 100.0),
            AdmissionOp.admit(milliseconds(20), 2000.0),
        ]
        clean = ttp_controller(policy=policy).process_batch(valid)
        mixed = ttp_controller(policy=policy).process_batch(
            [*valid[:2], AdmissionOp.check(period_s, 100.0), *valid[2:]]
        )
        fault = mixed.pop(2)
        assert isinstance(fault, OpFault)
        assert fault.error == error
        assert mixed == clean

    def churn(self, controller, steps=40, seed=5):
        """Admit/check/release from a small catalogue, yielding each
        decision with the set it was judged against."""
        rng = np.random.default_rng(seed)
        live = []
        catalogue = [milliseconds(p) for p in (8, 16, 20, 32, 64)]
        for _ in range(steps):
            if live and rng.random() < 0.3:
                controller.release(live.pop(int(rng.integers(len(live)))))
                continue
            period = catalogue[int(rng.integers(len(catalogue)))]
            payload = float(rng.uniform(0.02, 0.3)) * period * mbps(4.0)
            before = controller.current_set()
            decision = controller.request(period, payload)
            if decision.admitted:
                live.append(decision.stream_id)
            yield decision, before, (period, payload)

    @pytest.mark.parametrize("cap", [None, 0.7])
    @pytest.mark.parametrize("make", [pdp_controller, ttp_controller])
    def test_utilization_after_is_the_candidate_sets_sum(self, make, cap):
        controller = make(n=6, bandwidth=4.0, policy=AdmissionPolicy.EXACT)
        controller.set_utilization_cap(cap)
        bandwidth = controller.analysis.ring.bandwidth_bps
        outcomes = set()
        for decision, before, (period, payload) in self.churn(controller):
            outcomes.add(decision.tested_by)
            if decision.tested_by == "capacity":
                want = before.utilization(bandwidth)
            else:
                stream = SynchronousStream(period_s=period, payload_bits=payload)
                want = MessageSet([*before, stream]).utilization(bandwidth)
            assert repr(decision.utilization_after) == repr(want)
        assert "exact" in outcomes and len(outcomes) > 1

    @pytest.mark.parametrize("make", [pdp_controller, ttp_controller])
    def test_snapshot_tracks_the_admitted_set(self, make):
        controller = make(n=6, bandwidth=4.0)
        bandwidth = controller.analysis.ring.bandwidth_bps
        for _ in self.churn(controller, steps=60):
            current = controller.current_set()
            if controller._population is not None:
                assert list(controller._population.streams) == sorted(current)
            assert repr(controller.utilization()) == repr(
                current.utilization(bandwidth)
            )

    def test_cache_hit_builds_no_candidate_set(self, monkeypatch):
        """A hit calls no exact hook; a PDP miss calls ``_exact_verdicts``
        once and builds no candidate ``MessageSet``."""
        ctrl, _ = cached_pair()
        assert ctrl.request(milliseconds(50), 8000).admitted
        exact_calls, built = [], []
        exact = AdmissionController._exact_verdicts
        monkeypatch.setattr(
            AdmissionController,
            "_exact_verdicts",
            lambda self, candidates: exact_calls.append(len(candidates))
            or exact(self, candidates),
        )
        monkeypatch.setattr(
            AdmissionController,
            "_candidate_set",
            lambda self, stream: built.append(stream),
        )
        first = ctrl.check(milliseconds(20), 2048.0)
        assert first.tested_by == "exact"
        assert exact_calls == [1] and built == []
        assert ctrl.check(milliseconds(20), 2048.0) == first
        assert exact_calls == [1] and built == []


class TestColdWarmReplay:
    """One seeded op sequence replayed on a fresh controller against a
    cleared decision cache (cold), then on another fresh controller with
    that cache kept (warm): the keys are canonical population digests, so
    the warm pass must decide identically and mostly from the cache."""

    NAMESPACE = "admission-replay"

    @staticmethod
    def ops(admit_fraction, release_fraction, seed=1993, n_ops=400):
        rng = random.Random(seed)
        catalogue = [
            (
                rng.choice([0.008, 0.016, 0.032, 0.064, 0.128, 0.256]),
                float(rng.randrange(64, 2048, 64)),
            )
            for _ in range(32)
        ]
        ops = []
        for _ in range(n_ops):
            roll = rng.random()
            candidate = rng.choice(catalogue)
            if roll < release_fraction:
                ops.append(("release", rng.randrange(1 << 30)))
            elif roll < release_fraction + admit_fraction:
                ops.append(("admit", *candidate))
            else:
                ops.append(("check", *candidate))
        return ops

    def replay(self, ops):
        """Every op's answer and the pass's decision-cache hit ratio."""
        controller = AdmissionController(
            PDPAnalysis(
                ieee_802_5_ring(mbps(16.0), n_stations=40),
                FRAME,
                PDPVariant.MODIFIED,
                cache_size=128,
            ),
            AdmissionPolicy.EXACT,
            cache_namespace=self.NAMESPACE,
        )
        counters = [
            metrics.counter(f"cache.{self.NAMESPACE}.{event}")
            for event in ("hits", "misses")
        ]
        before = [counter.value for counter in counters]
        admitted, answers = [], []
        for kind, *args in ops:
            if kind == "check":
                answers.append(controller.check(*args))
            elif kind == "admit":
                decision = controller.request(*args)
                if decision.admitted:
                    admitted.append(decision.stream_id)
                answers.append(decision)
            elif admitted:
                stream_id = admitted.pop(args[0] % len(admitted))
                answers.append(controller.release(stream_id, idempotent=True))
        hits, misses = (c.value - b for c, b in zip(counters, before))
        return answers, hits / (hits + misses)

    @pytest.mark.parametrize(
        "admit_fraction, release_fraction",
        [(0.05, 0.05), (0.40, 0.30)],
        ids=["check_heavy", "churn_heavy"],
    )
    def test_warm_pass_decides_identically_from_the_cache(
        self, monkeypatch, admit_fraction, release_fraction
    ):
        monkeypatch.setattr(store, "_CACHE", store.ResultCache())
        ops = self.ops(admit_fraction, release_fraction)
        cold, _ = self.replay(ops)
        warm, warm_hit_ratio = self.replay(ops)
        assert any(a.admitted for a in cold if hasattr(a, "admitted"))
        assert warm == cold
        assert warm_hit_ratio > 0.5

"""Tests for the differential verification harness (:mod:`repro.verify`).

The harness guards the theorems; these tests guard the harness:

* determinism — same ``(seed, n_cases)`` replays bit-identically;
* soundness — the pinned default campaign is violation-free on the
  current (fixed) code base;
* sensitivity — the mutation smoke flags every deliberately injected
  off-by-one bug, so a green fuzz run is evidence rather than vacuity;
* the shrinker only ever returns a case that still fails, and actually
  minimizes;
* repro files round-trip through JSON and replay.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.verify import (
    CASE_KINDS,
    CHECKS,
    MUTANTS,
    FuzzCase,
    FuzzConfig,
    build_case,
    load_repro,
    replay_repro,
    run_check,
    run_fuzz,
    run_mutation_smoke,
    shrink_case,
    write_repro,
)
from repro.verify.checks import Violation
from repro.verify.mutation import inject_mutant

PINNED_SEED = 20_260_704


class TestCaseGeneration:
    def test_build_case_is_deterministic(self):
        for index in range(len(CASE_KINDS) * 2):
            assert build_case(PINNED_SEED, index) == build_case(
                PINNED_SEED, index
            )

    def test_kind_rotation_covers_every_family(self):
        kinds = {build_case(PINNED_SEED, i).kind for i in range(len(CASE_KINDS))}
        assert kinds == set(CASE_KINDS)

    def test_different_seeds_differ(self):
        assert build_case(1, 0) != build_case(2, 0)

    def test_params_round_trip_bit_exact(self):
        for index in range(len(CASE_KINDS)):
            case = build_case(PINNED_SEED, index)
            assert FuzzCase.from_params(case.to_params()) == case

    def test_params_survive_json_round_trip(self):
        case = build_case(PINNED_SEED, 1)  # exact_multiple: worst floats
        rebuilt = FuzzCase.from_params(json.loads(json.dumps(case.to_params())))
        assert rebuilt == case

    def test_exact_multiple_cases_carry_ttrt_hint(self):
        case = build_case(PINNED_SEED, CASE_KINDS.index("exact_multiple"))
        assert case.kind == "exact_multiple"
        assert case.ttrt_hint_s is not None and case.ttrt_hint_s > 0

    def test_admission_cases_cover_every_protocol_and_policy(self):
        """The admission properties take the protocol from ``index % 2``
        and the policy from :func:`_admission_policy`; four consecutive
        cases meet all four pairs."""
        from repro.verify.checks import _admission_policy

        pairs = {
            (index % 2, _admission_policy(build_case(PINNED_SEED, index)))
            for index in range(4)
        }
        assert len(pairs) == 4

    def test_n1_cases_have_one_stream(self):
        case = build_case(PINNED_SEED, CASE_KINDS.index("n1"))
        assert case.kind == "n1"
        assert len(case.periods_s) == 1
        assert case.n_stations == 1


class TestFuzzCampaign:
    def test_pinned_seed_is_violation_free(self):
        report = run_fuzz(FuzzConfig(seed=PINNED_SEED, n_cases=24))
        assert report.ok, report.summary()
        assert report.cases_run == 24
        assert report.checks_run == 24 * len(CHECKS)

    def test_same_seed_same_report(self):
        config = FuzzConfig(seed=7, n_cases=12)
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.cases_run == second.cases_run
        assert first.checks_run == second.checks_run
        assert first.violations == second.violations

    def test_config_rejects_nonpositive_cases(self):
        with pytest.raises(ReproError):
            FuzzConfig(n_cases=0)

    def test_config_rejects_unknown_checks(self):
        with pytest.raises(ReproError):
            FuzzConfig(checks=("no_such_property",))

    def test_run_check_rejects_unknown_name(self):
        with pytest.raises(ReproError):
            run_check("no_such_property", build_case(PINNED_SEED, 0))

    def test_check_subset_runs_only_requested(self):
        report = run_fuzz(
            FuzzConfig(seed=PINNED_SEED, n_cases=6,
                       checks=("scalar_vector_split",))
        )
        assert report.checks_run == 6
        assert report.ok


class TestMutationSmoke:
    def test_every_mutant_is_detected(self):
        report = run_mutation_smoke(seed=PINNED_SEED, n_cases=18)
        assert report.all_detected, report.summary()
        assert set(report.detected) == set(MUTANTS)

    def test_detection_routes_through_expected_property(self):
        report = run_mutation_smoke(seed=PINNED_SEED, n_cases=18)
        assert "scalar_vector_visits" in report.fired_checks[
            "boundary_absolute_epsilon"
        ]
        assert "pdp_vs_sim" in report.fired_checks["pdp_short_frame_dropped"]
        assert "ttp_vs_sim" in report.fired_checks["ttp_budget_off_by_one"]
        assert "scalar_vector_split" in report.fired_checks[
            "split_counts_overshoot"
        ]
        assert "admission_cache_equiv" in report.fired_checks[
            "decision_key_stale_base"
        ]
        assert "admission_snapshot_equiv" in report.fired_checks[
            "admission_snapshot_stale"
        ]
        assert "admission_snapshot_equiv" in report.fired_checks[
            "rm_kernel_key_by_count"
        ]
        assert "rm_exact_vs_rta" in report.fired_checks["rm_prefix_cut_overrun"]
        assert "rm_exact_vs_rta" in report.fired_checks[
            "rm_event_count_off_by_one"
        ]
        assert "rm_exact_vs_rta" in report.fired_checks[
            "rm_details_group_prefix"
        ]
        assert "service_batch_equiv" in report.fired_checks[
            "batcher_batch_reordered"
        ]
        assert "breakdown_batch" in report.fired_checks["breakdown_lockstep_bracket"]
        assert "breakdown_batch" in report.fired_checks[
            "breakdown_far_edge_evaluations"
        ]

    def test_inject_mutant_restores_originals(self):
        from repro.analysis import boundary as boundary_mod

        original = boundary_mod.token_visit_count
        with inject_mutant("boundary_absolute_epsilon"):
            assert boundary_mod.token_visit_count is not original
        assert boundary_mod.token_visit_count is original

    def test_restores_even_when_body_raises(self):
        from repro.network import frames as frames_mod

        original = frames_mod.FrameFormat.split_counts
        with pytest.raises(RuntimeError):
            with inject_mutant("split_counts_overshoot"):
                raise RuntimeError("boom")
        assert frames_mod.FrameFormat.split_counts is original


def _payload_sum_check(threshold: float):
    """A synthetic property: fails while total payload exceeds threshold."""

    def check(case: FuzzCase) -> Violation | None:
        if sum(case.payloads_bits) > threshold:
            return Violation("payload_sum", case, "too much payload")
        return None

    return check


class TestShrinker:
    def test_result_still_fails(self):
        case = build_case(PINNED_SEED, 0)
        check = _payload_sum_check(1.0)
        shrunk = shrink_case(case, check)
        assert check(shrunk) is not None

    def test_drops_irrelevant_streams(self):
        case = FuzzCase(
            kind="random", seed=0, index=0, bandwidth_bps=1e7, n_stations=3,
            periods_s=(0.01, 0.02, 0.03),
            payloads_bits=(10_000.0, 10_000.0, 10_000.0),
        )
        shrunk = shrink_case(case, _payload_sum_check(5_000.0))
        assert len(shrunk.periods_s) == 1

    def test_halves_payloads_to_the_boundary(self):
        case = FuzzCase(
            kind="random", seed=0, index=0, bandwidth_bps=1e7, n_stations=1,
            periods_s=(0.01,), payloads_bits=(64_000.0,),
        )
        shrunk = shrink_case(case, _payload_sum_check(1_000.0))
        # Halving below 2000 would pass the check, so it must stop there.
        assert 1_000.0 < shrunk.payloads_bits[0] <= 2_000.0

    def test_deterministic(self):
        case = build_case(PINNED_SEED, 0)
        check = _payload_sum_check(1.0)
        assert shrink_case(case, check) == shrink_case(case, check)

    def test_passing_case_returned_unshrunk(self):
        case = build_case(PINNED_SEED, 0)
        assert shrink_case(case, _payload_sum_check(float("inf"))) == case


class TestReproFiles:
    def _violation(self):
        case = build_case(PINNED_SEED, 0)
        # Genuinely failing under the real check set only with a mutant
        # active; for file-format tests a synthetic violation suffices.
        return Violation("scalar_vector_split", case, "synthetic")

    def test_write_then_load_round_trips(self, tmp_path):
        violation = self._violation()
        shrunk = violation.case.with_streams((0.01,), (100.0,))
        path = write_repro(str(tmp_path), violation, shrunk)
        extra = load_repro(path)
        assert extra["check"] == "scalar_vector_split"
        assert extra["seed"] == PINNED_SEED
        assert FuzzCase.from_params(extra["case"]) == violation.case
        assert FuzzCase.from_params(extra["shrunk_case"]) == shrunk

    def test_load_rejects_foreign_manifest(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"extra": {"repro_schema": "nope"}}))
        with pytest.raises(ReproError):
            load_repro(str(path))

    def test_replay_on_fixed_code_reports_no_violation(self, tmp_path):
        # The stored case passes its check on the current code base, so a
        # replay must report the bug as fixed.
        path = write_repro(str(tmp_path), self._violation())
        assert replay_repro(path) is None

    def test_replay_reproduces_under_the_mutant(self, tmp_path):
        path = write_repro(str(tmp_path), self._violation())
        with inject_mutant("split_counts_overshoot"):
            replayed = replay_repro(path)
        assert replayed is not None
        assert replayed.check == "scalar_vector_split"

    def test_fuzz_writes_repro_files_on_violation(self, tmp_path):
        with inject_mutant("split_counts_overshoot"):
            report = run_fuzz(
                FuzzConfig(
                    seed=PINNED_SEED, n_cases=6,
                    checks=("scalar_vector_split",),
                    repro_dir=str(tmp_path), max_violations=1,
                )
            )
        assert not report.ok
        assert len(report.repro_paths) == 1
        extra = load_repro(report.repro_paths[0])
        assert extra["check"] == "scalar_vector_split"
        # The recorded shrunk case still fails under the mutant...
        with inject_mutant("split_counts_overshoot"):
            assert replay_repro(report.repro_paths[0]) is not None
        # ...and passes on the fixed code.
        assert replay_repro(report.repro_paths[0]) is None


class TestRunnerIntegration:
    def test_fuzz_subcommand_exits_zero_on_clean_run(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.chdir(tmp_path)
        code = main([
            "fuzz", "--fuzz-cases", "6", "--no-manifest",
            "--log-level", "error",
        ])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_fuzz_subcommand_exits_nonzero_on_violation(self, tmp_path,
                                                        monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.chdir(tmp_path)
        with inject_mutant("split_counts_overshoot"):
            code = main([
                "fuzz", "--fuzz-cases", "6", "--no-manifest",
                "--repro-dir", str(tmp_path), "--log-level", "error",
            ])
        assert code == 1
        assert "violation" in capsys.readouterr().out

"""Tests for serve-tier chaos plans (determinism and purity, the
active-plan registry) and small end-to-end runs of the scenario driver:
:func:`run_chaos` and its fault-free run, :func:`run_smoke`."""

import pytest

from repro.serve import chaos
from repro.serve.chaos import (
    ChaosPlan,
    active_plan,
    default_chaos_plan,
    injection,
    set_plan,
)
from repro.serve import scenario
from repro.serve.scenario import run_chaos, run_smoke


class TestChaosPlan:
    def test_noop_by_default(self):
        plan = ChaosPlan()
        assert plan.is_noop
        assert plan.worker_action("anything") is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"crash_rate": 1.1},
            {"hang_s": 0},
            {"slow_s": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChaosPlan(**kwargs)

    def test_worker_action_is_pure_and_deterministic(self):
        plan = default_chaos_plan(seed=7)
        ids = [f"req-{i}" for i in range(200)]
        first = [plan.worker_action(i) for i in ids]
        second = [plan.worker_action(i) for i in ids]
        assert first == second
        # The storm plan actually injects something at this sample size.
        assert any(a is not None for a in first)
        assert all(a in (None, "exit", "hang", "slow") for a in first)

    def test_different_seeds_draw_different_mixes(self):
        ids = [f"req-{i}" for i in range(200)]
        a = [default_chaos_plan(0).worker_action(i) for i in ids]
        b = [default_chaos_plan(1).worker_action(i) for i in ids]
        assert a != b

    def test_non_string_ids_never_injected(self):
        plan = default_chaos_plan(0)
        assert plan.worker_action(None) is None
        assert plan.worker_action(123) is None

    def test_for_jobs_disables_process_killers_in_process(self):
        plan = default_chaos_plan(0)
        solo = plan.for_jobs(1)
        assert solo.crash_rate == 0.0 and solo.hang_rate == 0.0
        assert solo.slow_rate == plan.slow_rate
        assert plan.for_jobs(2) is plan

    def test_reseeded(self):
        assert default_chaos_plan(0).reseeded(5).seed == 5


class TestActivePlanRegistry:
    def test_injection_installs_and_restores(self):
        assert active_plan() is None
        plan = default_chaos_plan(3)
        with injection(plan):
            assert active_plan() is plan
        assert active_plan() is None

    def test_noop_plan_never_installs(self):
        previous = set_plan(ChaosPlan())
        try:
            assert active_plan() is None
        finally:
            set_plan(previous)

    def test_worker_honours_installed_plan(self):
        # Find an id the plan crashes, then check the worker would act
        # on it (without actually computing).
        plan = default_chaos_plan(0)
        crash_id = next(
            f"x{i}" for i in range(10_000)
            if plan.worker_action(f"x{i}") == "exit"
        )
        with injection(plan):
            assert chaos.active_plan().worker_action(crash_id) == "exit"


class TestRunChaos:
    def test_small_run_holds_all_invariants(self, tmp_path):
        report = run_chaos(
            requests=10,
            burst=12,
            queue_capacity=4,
            jobs=2,
            seed=0,
            report_path=str(tmp_path / "chaos.json"),
        )
        invariants = report.metrics["invariants"]
        assert all(v == 1 for v in invariants.values())
        assert (tmp_path / "chaos.json").exists()
        observed = report.provenance["observed"]
        admission = report.provenance["admission"]
        # The burst must actually overload the tiny queue.
        assert observed["shed_seen"] > 0
        assert admission["peak_depth"] <= 4
        # Every phase-1/burst request is accounted for (the harness also
        # submits frame-handling and recovery probes on top).
        assert (
            admission["accepted"] + admission["shed"]
            >= report.provenance["requests"] + report.provenance["burst"]
        )

    def test_same_seed_same_fault_assignment(self):
        ids = [f"c{i}" for i in range(50)]
        plan_a = default_chaos_plan(9)
        plan_b = default_chaos_plan(9)
        assert [plan_a.worker_action(i) for i in ids] == [
            plan_b.worker_action(i) for i in ids
        ]


class TestRunSmoke:
    def test_exact_counts_without_a_plan(self, monkeypatch):
        services = []

        class Recorded(scenario.ScheduleService):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                services.append(self)

        monkeypatch.setattr(scenario, "ScheduleService", Recorded)
        n = 3
        metrics = run_smoke(requests=n, clients=2, jobs=1, seed=0).metrics
        assert metrics["cache"]["misses"] == n + 1
        assert metrics["cache"]["hits"] == 2 * n + 1
        assert metrics["bit_identical"] == 3 * n
        assert metrics["unique_digests"] == n
        assert metrics["errors"] == 0
        (stats,) = [svc.stats() for svc in services]
        assert stats["admission"]["shed_total"] == 0
        assert {b["state"] for b in stats["breakers"].values()} <= {"closed"}

"""Tests for the transport-independent service: cache semantics end to
end, batching, dedupe, error isolation, telemetry, work per request."""

import sys

import pytest

import repro.sim.window
from repro.machine.presets import PAPER_CORE, paper_machine
from repro.obs.pipeline import merge_spools
from repro.serve.canonical import relabel_trace
from repro.serve.protocol import ScheduleRequest
from repro.serve.service import ScheduleService
from repro.serve.worker import compute_request
from repro.workloads.traces import random_trace

IDENTITY_KEYS = ("block_orders", "makespan", "stall_cycles", "schedule_digest")


def _doc(seed=0, scheduler="anticipatory", machine=PAPER_CORE, rid=None):
    trace = random_trace(
        2 + seed % 2, (3, 5), cross_probability=0.2, latencies=(0, 1, 2),
        seed=seed,
    )
    return ScheduleRequest(
        trace=trace, machine=machine, scheduler=scheduler, id=rid
    ).to_dict()


def _identity(response):
    return {k: response[k] for k in IDENTITY_KEYS}


class TestCachePath:
    def test_second_identical_request_hits_without_recompute(self):
        svc = ScheduleService()
        doc = _doc(seed=1)
        first = svc.handle(doc)
        computes_before = svc.pool.batches
        second = svc.handle(doc)
        assert first["cached"] is False and second["cached"] is True
        assert svc.pool.batches == computes_before  # no scheduler run
        assert _identity(first) == _identity(second)
        assert svc.cache.hits == 1 and svc.cache.misses == 1

    def test_relabeled_isomorphic_request_hits_bit_identically(self):
        svc = ScheduleService()
        doc = _doc(seed=2)
        svc.handle(doc)
        request = ScheduleRequest.from_dict(doc)
        mapping = {
            n: f"ssa{i}" for i, n in enumerate(request.trace.graph.nodes)
        }
        renamed = ScheduleRequest(
            trace=relabel_trace(request.trace, mapping),
            machine=request.machine,
            scheduler=request.scheduler,
        ).to_dict()
        served = svc.handle(renamed)
        direct = compute_request(renamed)
        assert served["cached"] is True
        assert _identity(served) == {k: direct[k] for k in IDENTITY_KEYS}

    def test_different_window_misses(self):
        svc = ScheduleService()
        svc.handle(_doc(seed=3, machine=PAPER_CORE))
        other = svc.handle(_doc(seed=3, machine=paper_machine(2)))
        assert other["cached"] is False
        assert svc.cache.misses == 2

    def test_different_scheduler_misses(self):
        svc = ScheduleService()
        svc.handle(_doc(seed=3))
        other = svc.handle(_doc(seed=3, scheduler="local"))
        assert other["cached"] is False

    def test_miss_response_matches_direct_compute(self):
        svc = ScheduleService()
        for seed in range(5):
            doc = _doc(seed=seed, scheduler=("local", "anticipatory")[seed % 2])
            assert _identity(svc.handle(doc)) == {
                k: compute_request(doc)[k] for k in IDENTITY_KEYS
            }


class WorkCounter:
    """Exact counts of request decodes and outermost simulator calls."""

    def __init__(self, monkeypatch):
        self.decodes = 0
        self.simulations = 0
        self._depth = 0
        decode = ScheduleRequest.from_dict

        def counted_decode(doc):
            self.decodes += 1
            return decode(doc)

        monkeypatch.setattr(
            ScheduleRequest, "from_dict", staticmethod(counted_decode)
        )
        for name in ("simulate_trace", "simulate_window"):
            original = getattr(repro.sim.window, name)
            wrapper = self._outermost(original)
            # Rebind the name wherever a loaded module imported it.
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, wrapper)

    def _outermost(self, fn):
        def wrapper(*args, **kwargs):
            if self._depth == 0:
                self.simulations += 1
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1

        return wrapper

    def reset(self):
        self.decodes = self.simulations = 0


class TestWorkPerRequest:
    """Deterministic work counters, gated exactly: a cold request is
    decoded once and simulated once (the guard's verifying execution,
    which also decides its Definition 2.3 legality); a warm hit simulates
    nothing."""

    @pytest.mark.parametrize("scheduler", ["anticipatory", "local"])
    def test_cold_then_warm(self, monkeypatch, scheduler):
        svc = ScheduleService()
        doc = _doc(seed=3, scheduler=scheduler)
        work = WorkCounter(monkeypatch)
        cold = svc.handle(doc)
        assert cold["ok"] and cold["cached"] is False
        assert (work.decodes, work.simulations) == (1, 1)
        work.reset()
        warm = svc.handle(doc)
        assert warm["cached"] is True
        assert work.simulations == 0
        assert _identity(warm) == _identity(cold)


class TestBatch:
    def test_within_batch_dedupe_computes_once(self):
        svc = ScheduleService()
        doc = _doc(seed=4)
        a, b, c = svc.handle_batch([doc, dict(doc), _doc(seed=5)])
        assert a["cached"] is False and b["cached"] is True
        assert c["cached"] is False
        assert _identity(a) == _identity(b)
        assert svc.cache.hits == 1 and svc.cache.misses == 2

    def test_bad_request_does_not_poison_batch(self):
        svc = ScheduleService()
        good = _doc(seed=6, rid="good")
        bad = {"scheduler": "nope", "id": "bad"}
        r_bad, r_good = svc.handle_batch([bad, good])
        assert r_bad["ok"] is False and r_bad["id"] == "bad"
        assert r_good["ok"] is True and r_good["id"] == "good"
        assert svc.errors == 1

    def test_responses_in_input_order(self):
        svc = ScheduleService()
        docs = [_doc(seed=s, rid=f"r{s}") for s in range(4)]
        responses = svc.handle_batch(list(reversed(docs)))
        assert [r["id"] for r in responses] == ["r3", "r2", "r1", "r0"]


class TestPersistence:
    def test_cache_survives_service_restart(self, tmp_path):
        store = tmp_path / "sched.jsonl"
        doc = _doc(seed=7)
        first = ScheduleService(cache_path=store).handle(doc)
        reborn = ScheduleService(cache_path=store)
        second = reborn.handle(doc)
        assert second["cached"] is True
        assert _identity(first) == _identity(second)


class TestTelemetry:
    def test_spool_dir_records_batches(self, tmp_path):
        spool = tmp_path / "spool"
        svc = ScheduleService(spool_dir=spool)
        svc.handle(_doc(seed=8))
        svc.handle(_doc(seed=8))
        merge = merge_spools(spool)
        assert merge.counters.get("serve.cache.miss") == 1
        assert merge.counters.get("serve.cache.hit") == 1
        names = {s.name for s in merge.spans}
        assert "serve.batch" in names and "serve.request" in names

    def test_registry_latency_histograms_per_class(self):
        svc = ScheduleService()
        svc.handle(_doc(seed=9))
        svc.handle(_doc(seed=10, scheduler="local"))
        assert "serve.request.anticipatory.duration_s" in svc.registry
        assert "serve.request.local.duration_s" in svc.registry
        assert svc.registry.counter("serve.requests").value == 2

    def test_run_report_shape(self):
        svc = ScheduleService()
        doc = _doc(seed=11)
        svc.handle(doc)
        svc.handle(doc)
        report = svc.run_report()
        assert report.metrics["requests"] == 2
        assert report.metrics["cache"]["hits"] == 1
        assert any(
            key.endswith(".duration_s") for key in report.metrics["latency"]
        )

    def test_stats_shape(self):
        svc = ScheduleService(jobs=1)
        svc.handle(_doc(seed=12))
        stats = svc.stats()
        assert stats["requests"] == 1 and stats["batches"] == 1
        assert stats["pool"]["jobs"] == 1
        assert stats["cache"]["misses"] == 1

"""Property tests for the program-order canonical digest.

The digest must be *invariant* under everything that cannot change the
schedule (node renaming that keeps program order) and *sensitive* to
everything that can (program order, latencies, exec times, deadlines,
machine config, scheduler choice).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.basicblock import BasicBlock, Trace
from repro.ir.depgraph import DependenceGraph
from repro.machine.model import MachineModel
from repro.machine.presets import PAPER_CORE, WIDE_VLIW
from repro.serve.canonical import (
    canonical_form,
    payload_digest,
    relabel_trace,
)
from repro.serve.protocol import ScheduleRequest
from repro.serve.service import ScheduleService
from repro.serve.worker import compute_block_orders, compute_request
from repro.workloads.traces import random_trace

SEEDS = st.integers(min_value=0, max_value=10_000)


def _trace(seed: int) -> Trace:
    return random_trace(
        num_blocks=1 + seed % 4,
        block_size=(2, 6),
        cross_probability=0.15,
        latencies=(0, 1, 2),
        exec_times=(1, 2),
        seed=seed,
    )


def _permuted(trace: Trace, seed: int) -> Trace:
    """The same trace with each block's nodes inserted in shuffled program
    order (graph structure untouched)."""
    rng = random.Random(seed)
    blocks = []
    for bb in trace.blocks:
        g = bb.graph
        names = list(g.nodes)
        rng.shuffle(names)
        shuffled = DependenceGraph()
        for n in names:
            shuffled.add_node(n, exec_time=g.exec_time(n), fu_class=g.fu_class(n))
        for u, v, lat in g.edges():
            shuffled.add_edge(u, v, lat)
        blocks.append(BasicBlock(name=bb.name, graph=shuffled))
    return Trace(blocks, cross_edges=list(trace.cross_edges))


class TestInvariance:
    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_relabeling_preserves_digest(self, seed):
        trace = _trace(seed)
        mapping = {n: f"v{i}_{seed}" for i, n in enumerate(trace.graph.nodes)}
        renamed = relabel_trace(trace, mapping)
        a = canonical_form(trace, PAPER_CORE, "anticipatory")
        b = canonical_form(renamed, PAPER_CORE, "anticipatory")
        assert a.digest == b.digest
        assert a.payload == b.payload

    @pytest.mark.parametrize("scheduler", ["anticipatory", "local"])
    def test_program_order_permutation_served_as_computed(self, scheduler):
        # Reordering independent instructions changes the scheduler's
        # program-index tie-breaks, so the reordered request must not be
        # answered with a translation of the original's cached schedule.
        seed = 0
        original, shuffled = (
            ScheduleRequest(
                trace=t, machine=PAPER_CORE, scheduler=scheduler
            ).to_dict()
            for t in (_trace(seed), _permuted(_trace(seed), seed + 1))
        )
        service = ScheduleService()
        assert service.handle(original)["ok"]
        served = service.handle(shuffled)
        direct = compute_request(shuffled)
        for key in ("block_orders", "makespan", "stall_cycles",
                    "schedule_digest"):
            assert served[key] == direct[key], key

    def test_block_boundaries_matter(self):
        # Same five instructions, chained; split 2+3 vs 3+2 across blocks.
        def build(split):
            g1, g2 = DependenceGraph(), DependenceGraph()
            for i in range(split):
                g1.add_node(f"a{i}")
            for i in range(split, 5):
                g2.add_node(f"a{i}")
            for i in range(split - 1):
                g1.add_edge(f"a{i}", f"a{i+1}", 1)
            for i in range(split, 4):
                g2.add_edge(f"a{i}", f"a{i+1}", 1)
            cross = [(f"a{split-1}", f"a{split}", 1)]
            return Trace(
                [BasicBlock("B1", g1), BasicBlock("B2", g2)], cross_edges=cross
            )

        a = canonical_form(build(2), PAPER_CORE, "anticipatory")
        b = canonical_form(build(3), PAPER_CORE, "anticipatory")
        assert a.digest != b.digest


class TestSensitivity:
    def _base(self, seed=11):
        return _trace(seed)

    def test_latency_changes_digest(self):
        def chain(lat):
            g = DependenceGraph()
            g.add_node("a")
            g.add_node("b")
            g.add_edge("a", "b", lat)
            return Trace([BasicBlock("B", g)])

        digests = {
            canonical_form(chain(lat), PAPER_CORE, "anticipatory").digest
            for lat in (0, 1, 2)
        }
        assert len(digests) == 3

    def test_exec_time_changes_digest(self):
        g = DependenceGraph()
        g.add_node("a", exec_time=1)
        g.add_node("b", exec_time=1)
        g.add_edge("a", "b", 1)
        t1 = Trace([BasicBlock("B", g)])
        g2 = DependenceGraph()
        g2.add_node("a", exec_time=2)
        g2.add_node("b", exec_time=1)
        g2.add_edge("a", "b", 1)
        t2 = Trace([BasicBlock("B", g2)])
        assert (
            canonical_form(t1, PAPER_CORE, "anticipatory").digest
            != canonical_form(t2, PAPER_CORE, "anticipatory").digest
        )

    def test_deadlines_change_digest(self):
        trace = self._base()
        node = trace.graph.nodes[0]
        a = canonical_form(trace, PAPER_CORE, "anticipatory")
        b = canonical_form(
            trace, PAPER_CORE, "anticipatory", deadlines={node: 3}
        )
        c = canonical_form(
            trace, PAPER_CORE, "anticipatory", deadlines={node: 4}
        )
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_machine_fields_change_digest(self):
        trace = self._base()
        base = canonical_form(trace, PAPER_CORE, "anticipatory").digest
        wider = MachineModel(
            window_size=PAPER_CORE.window_size + 1,
            fu_counts=dict(PAPER_CORE.fu_counts),
        )
        assert canonical_form(trace, wider, "anticipatory").digest != base
        assert canonical_form(trace, WIDE_VLIW, "anticipatory").digest != base

    def test_scheduler_changes_digest(self):
        trace = self._base()
        digests = {
            canonical_form(trace, PAPER_CORE, s).digest
            for s in ("anticipatory", "local", "critical-path", "source")
        }
        assert len(digests) == 4

    def test_payload_digest_is_stable_sha256(self):
        d = payload_digest({"v": 1, "x": [1, 2]})
        assert d == payload_digest({"x": [1, 2], "v": 1})  # key order free
        assert len(d) == 64 and int(d, 16) >= 0


class TestEquivariance:
    """The cache's correctness keystone: schedulers are equivariant under
    order-preserving relabelings, so translating a cached canonical
    schedule into a relabeled request's names reproduces its direct
    computation exactly."""

    @given(SEEDS, st.sampled_from(["anticipatory", "local", "critical-path", "source"]))
    @settings(max_examples=25, deadline=None)
    def test_scheduler_commutes_with_relabeling(self, seed, scheduler):
        trace = _trace(seed)
        mapping = {n: f"r{i}" for i, n in enumerate(trace.graph.nodes)}
        renamed = relabel_trace(trace, mapping)
        orders = compute_block_orders(trace, PAPER_CORE, scheduler)
        renamed_orders = compute_block_orders(renamed, PAPER_CORE, scheduler)
        assert renamed_orders == [[mapping[n] for n in order] for order in orders]


class TestCanonicalForm:
    def test_order_is_a_bijection(self):
        trace = _trace(5)
        form = canonical_form(trace, PAPER_CORE, "anticipatory")
        assert sorted(form.order) == sorted(trace.graph.nodes)
        ids = form.id_map()
        assert form.names([ids[n] for n in trace.graph.nodes]) == list(
            trace.graph.nodes
        )

"""Unit tests for table rendering and output verification."""

import random

import pytest

from repro.analysis import (
    OutputError,
    check_block_orders,
    check_runtime_legality,
    format_table,
    verify_scheduler_output,
)
from repro.core.legality import is_legal_schedule
from repro.ir import Trace, block_from_graph, graph_from_edges
from repro.machine import paper_machine
from repro.serve.worker import compute_block_orders
from repro.sim import simulate_trace
from repro.workloads.traces import random_trace


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["name", "n"], [["alpha", 1], ["b", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert set(lines[2]) <= {"-", " "}
        assert "alpha" in lines[3]

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456]])
        assert "1.235" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="row width"):
            format_table(["a", "b"], [[1]])


def make_trace():
    g1 = graph_from_edges([("a", "b", 1)])
    g2 = graph_from_edges([], nodes=["c"])
    return Trace([block_from_graph("B1", g1), block_from_graph("B2", g2)])


class TestVerify:
    def test_accepts_valid_orders(self):
        t = make_trace()
        verify_scheduler_output(t, [["a", "b"], ["c"]], paper_machine(2))

    def test_rejects_wrong_block_count(self):
        t = make_trace()
        with pytest.raises(OutputError, match="block orders"):
            check_block_orders(t, [["a", "b"]])

    def test_rejects_non_permutation(self):
        t = make_trace()
        with pytest.raises(OutputError, match="permutation"):
            check_block_orders(t, [["a", "a"], ["c"]])

    def test_rejects_cross_block_motion(self):
        t = make_trace()
        with pytest.raises(OutputError, match="permutation"):
            check_block_orders(t, [["a", "c"], ["b"]])

    def test_rejects_dependence_violating_order(self):
        t = make_trace()
        with pytest.raises(OutputError, match="dependence"):
            check_block_orders(t, [["b", "a"], ["c"]])


def _random_topological_orders(trace, rng):
    """A seeded random dependence-respecting order of every block."""
    orders = []
    for i in range(trace.num_blocks):
        graph = trace.blocks[i].graph
        left = list(trace.block_nodes(i))
        order = []
        while left:
            ready = [
                n for n in left
                if all(p in order for p in graph.predecessors(n))
            ]
            order.append(rng.choice(ready))
            left.remove(order[-1])
        orders.append(order)
    return orders


class TestSingleSimulationVerdict:
    """Without a fault plan ``check_runtime_legality`` decides Definition
    2.3 legality from its one execution; that verdict must equal the
    re-simulating witnessed check for every emitted order."""

    @pytest.mark.parametrize("window", [2, 4])
    @pytest.mark.parametrize(
        "scheduler", ["anticipatory", "local", "critical-path", "source"]
    )
    def test_matches_witnessed_check(self, scheduler, window):
        machine = paper_machine(window)
        for seed in range(12):
            trace = random_trace(
                2 + seed % 3, (2, 6), cross_probability=0.2,
                latencies=(0, 1, 2, 3), seed=seed,
            )
            orders = compute_block_orders(trace, machine, scheduler)
            shuffled = _random_topological_orders(trace, random.Random(seed))
            for candidate in (orders, shuffled):
                witnessed = is_legal_schedule(
                    trace,
                    simulate_trace(trace, candidate, machine).schedule,
                    machine,
                    witness_orders=candidate,
                )
                try:
                    check_runtime_legality(trace, candidate, machine)
                    single = True
                except OutputError:
                    single = False
                assert single == witnessed, (scheduler, window, seed)

"""End-to-end output verification helpers.

These checks are what a compiler integration would run on the emitted block
orders: every block order must be a permutation of its block and a
topological order of the block's dependence subgraph; the safety property —
no instruction crosses a block boundary — is structural; and the windowed
execution of the emitted orders must be a legal schedule per Definition 2.3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..core.legality import is_legal_schedule
from ..ir.basicblock import Trace
from ..machine.model import MachineModel, single_unit_machine
from ..robust import faults

if TYPE_CHECKING:
    from ..sim.window import SimResult


class OutputError(AssertionError):
    """Raised when emitted block orders violate a required property."""


def check_block_orders(trace: Trace, block_orders: Sequence[Sequence[str]]) -> None:
    """Structural checks on a scheduler's emitted per-block orders."""
    if len(block_orders) != trace.num_blocks:
        raise OutputError(
            f"expected {trace.num_blocks} block orders, got {len(block_orders)}"
        )
    for i, order in enumerate(block_orders):
        members = trace.block_nodes(i)
        if sorted(order) != sorted(members):
            raise OutputError(
                f"block {i}: order is not a permutation of the block "
                f"(got {list(order)}, expected a permutation of {members})"
            )
        pos = {n: k for k, n in enumerate(order)}
        sub = trace.blocks[i].graph
        for u, v, _ in sub.edges():
            if pos[u] > pos[v]:
                raise OutputError(
                    f"block {i}: order violates intra-block dependence {u}->{v}"
                )


def check_runtime_legality(
    trace: Trace,
    block_orders: Sequence[Sequence[str]],
    machine: MachineModel | None = None,
) -> SimResult:
    """The windowed execution of the emitted orders must satisfy Definition
    2.3.  The emitted orders themselves are the legality witness — the
    priority list the execution was greedily driven by — so the check is
    exact even where the schedule's derived sub-permutations would not
    reproduce it (cross-block overtakes, multi-unit issue ties).

    Without an active fault plan the execution has no barriers and *is*
    the greedy run of the witness list, so the Ordering Constraint holds
    by construction and only the dependences are left to check: the orders
    are simulated once.  Under a fault plan (which may add barriers or
    perturb each run) the reproducibility check re-simulates the list.

    Returns the checked execution, so a caller that needs the simulated
    schedule of verified orders does not simulate them again."""
    from ..sim.window import simulate_trace

    machine = machine or single_unit_machine()
    sim = simulate_trace(trace, block_orders, machine)
    if faults.active_plan() is None:
        legal = sim.schedule.is_valid()
    else:
        legal = is_legal_schedule(
            trace, sim.schedule, machine, witness_orders=block_orders
        )
    if not legal:
        raise OutputError("windowed execution is not a legal schedule")
    return sim


def verify_scheduler_output(
    trace: Trace,
    block_orders: Sequence[Sequence[str]],
    machine: MachineModel | None = None,
) -> SimResult:
    """All checks; raises :class:`OutputError` on the first failure and
    returns the verified execution otherwise."""
    check_block_orders(trace, block_orders)
    return check_runtime_legality(trace, block_orders, machine)


def check_sim_result(graph, result) -> None:
    """Internal-consistency checks on a :class:`~repro.sim.window.SimResult`
    — the invariants the fault-injection fuzz driver holds every simulated
    execution to, faulted or not:

    - the issue order is a permutation of the graph's nodes;
    - when a cycle-level trace was collected, its stall count and the
      per-cause :func:`~repro.obs.metrics.stall_attribution` breakdown both
      agree with ``result.stall_cycles`` (every stalled cycle is attributed
      exactly once).
    """
    if sorted(result.issue_order) != sorted(graph.nodes):
        raise OutputError(
            "issue order is not a permutation of the graph nodes "
            f"(got {len(result.issue_order)} of {len(graph)} instructions)"
        )
    if result.trace is not None:
        from ..obs.metrics import stall_attribution

        if result.trace.stall_cycles != result.stall_cycles:
            raise OutputError(
                f"trace counted {result.trace.stall_cycles} stall cycles, "
                f"simulator reported {result.stall_cycles}"
            )
        attribution = stall_attribution(result.trace)
        total = sum(attribution.values())
        if total != result.stall_cycles:
            raise OutputError(
                f"stall attribution sums to {total}, expected "
                f"{result.stall_cycles} ({attribution})"
            )

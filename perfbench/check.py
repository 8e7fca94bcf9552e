"""Independent output checker.

Works on plain wire data (the protocol's program and machine dicts) and
shares no code with the program's own verifier, so a bug there cannot
hide a wrong schedule here.  Every function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

ANY = "any"

#: Response fields that must match a direct computation bit for bit.
IDENTITY_FIELDS = ("block_orders", "makespan", "stall_cycles", "schedule_digest")


def _nodes(program: dict) -> dict[str, tuple[int, str, int]]:
    """node -> (exec_time, fu_class, block index)."""
    out = {}
    for b, block in enumerate(program["blocks"]):
        for name, exec_time, fu_class in block["nodes"]:
            out[name] = (int(exec_time), fu_class, b)
    return out


def _edges(program: dict) -> list[tuple[str, str, int]]:
    edges = [tuple(e) for block in program["blocks"] for e in block["edges"]]
    edges += [tuple(e) for e in program["cross_edges"]]
    return edges


def check_block_orders(program: dict, orders: list[list[str]]) -> list[str]:
    """Each order is a permutation of its block that respects the block's
    own dependence edges."""
    problems = []
    blocks = program["blocks"]
    if len(orders) != len(blocks):
        return [f"{len(orders)} block orders for {len(blocks)} blocks"]
    for b, (block, order) in enumerate(zip(blocks, orders)):
        names = [n for n, _, _ in block["nodes"]]
        if sorted(order) != sorted(names):
            problems.append(f"block {b}: order is not a permutation of it")
            continue
        pos = {n: i for i, n in enumerate(order)}
        for u, v, _ in block["edges"]:
            if pos[u] > pos[v]:
                problems.append(f"block {b}: {v} ordered before its predecessor {u}")
    return problems


def check_schedule(
    program: dict,
    machine: dict,
    starts: dict[str, int],
    units: dict[str, list],
    makespan: int,
) -> list[str]:
    """Start times and unit assignments obey every edge's exec time plus
    latency, the per-cycle unit capacities and the issue width, and
    ``makespan`` is the latest completion time."""
    nodes = _nodes(program)
    problems = []
    if set(starts) != set(nodes) or set(units) != set(nodes):
        return ["starts/units do not cover exactly the program's nodes"]
    for u, v, lat in _edges(program):
        if starts[v] < starts[u] + nodes[u][0] + int(lat):
            problems.append(f"edge {u}->{v} (latency {lat}) violated")
    fu_counts = machine["fu_counts"]
    width = machine.get("issue_width") or sum(fu_counts.values())
    busy: dict[tuple, list[tuple[int, int]]] = {}
    issued: dict[int, int] = {}
    for n, (exec_time, fu_class, _) in nodes.items():
        cls, index = units[n][0], int(units[n][1])
        if not 0 <= index < fu_counts.get(cls, 0):
            problems.append(f"{n} on nonexistent unit {units[n]}")
        elif cls != fu_class and cls != ANY and fu_class != ANY:
            problems.append(f"{n} ({fu_class}) on a {cls} unit")
        busy.setdefault((cls, index), []).append((starts[n], starts[n] + exec_time))
        issued[starts[n]] = issued.get(starts[n], 0) + 1
    for unit, spans in busy.items():
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if start < end:
                problems.append(f"unit {unit} runs two instructions at cycle {start}")
    for cycle, count in issued.items():
        if count > width:
            problems.append(f"{count} issues at cycle {cycle}, width {width}")
    completion = max(starts[n] + nodes[n][0] for n in nodes)
    if makespan != completion:
        problems.append(f"makespan {makespan} != latest completion {completion}")
    return problems


def check_result(program: dict, machine: dict, result: dict) -> list[str]:
    """A full result (block orders plus the runtime schedule)."""
    return check_block_orders(program, result["block_orders"]) + check_schedule(
        program, machine, result["starts"], result["units"], result["makespan"]
    )


def check_response(response: dict, direct: dict) -> list[str]:
    """A daemon response against a direct computation of the same request."""
    if not response.get("ok"):
        return [f"error response: {response.get('code')}: {response.get('error')}"]
    return [
        f"{field} differs from the direct computation"
        for field in IDENTITY_FIELDS
        if response.get(field) != direct.get(field)
    ]

"""Seeded inputs, as protocol wire documents.

The benchmark owns its generator so that a change to the program's own
workload generators cannot change what is measured.  The same
``(seed, index)`` always gives the same document.
"""

from __future__ import annotations

import itertools
import json
import random

ANY = "any"

def paper_machine(window: int) -> dict:
    """The paper's single-unit machine with window ``window``."""
    return {"window_size": window, "fu_counts": {ANY: 1}, "issue_width": None}


WIDE_VLIW = {
    "window_size": 8,
    "fu_counts": {"fixed": 2, "float": 2, "memory": 2, "branch": 1},
    "issue_width": 4,
}
SCHEDULERS = ("anticipatory", "local", "critical-path", "source")
#: Machines cycle with the request index, as in the program's smoke corpus.
SERVE_MACHINES = (paper_machine(4), paper_machine(2), WIDE_VLIW)


def program(
    rng: random.Random,
    num_blocks: int,
    block_size: tuple[int, int],
    edge_probability: float,
    cross_probability: float,
    latencies: tuple[int, ...],
    fu_classes: tuple[str, ...] = (ANY,),
    prefix: str = "n",
) -> dict:
    """A random trace: forward edges inside each block, and edges between
    adjacent blocks."""
    blocks, cross = [], []
    names: list[list[str]] = []
    k = 0
    for b in range(num_blocks):
        size = rng.randint(*block_size)
        block_names = [f"{prefix}{k + i}" for i in range(size)]
        k += size
        nodes = [[n, 1, rng.choice(fu_classes)] for n in block_names]
        edges = [
            [block_names[i], block_names[j], rng.choice(latencies)]
            for i in range(size)
            for j in range(i + 1, size)
            if rng.random() < edge_probability
        ]
        blocks.append({"name": f"BB{b}", "nodes": nodes, "edges": edges})
        if names:
            cross += [
                [u, v, rng.choice(latencies)]
                for u in names[-1]
                for v in block_names
                if rng.random() < cross_probability
            ]
        names.append(block_names)
    return {"blocks": blocks, "cross_edges": cross}


def deep_trace(seed: int, index: int, num_blocks: int) -> dict:
    """A long idle-free trace for the library pipeline: 10-instruction
    blocks, 0/1 latencies."""
    rng = random.Random(f"deep-{seed}-{index}")
    return program(rng, num_blocks, (10, 10), 0.25, 0.08, (0, 1))


def serve_doc(seed: int, index: int, tag: str = "cold") -> dict:
    """A small structurally random request; machines and schedulers cycle
    so every request class appears."""
    rng = random.Random(f"{tag}-{seed}-{index}")
    machine = SERVE_MACHINES[index % len(SERVE_MACHINES)]
    fu_classes = ("fixed", "float", "memory") if machine is WIDE_VLIW else (ANY,)
    prog = program(rng, 2 + index % 3, (3, 6), 0.25, 0.15, (0, 1, 2), fu_classes)
    return {
        "v": 1,
        "program": prog,
        "machine": machine,
        "scheduler": SCHEDULERS[index % len(SCHEDULERS)],
        "id": f"{tag}-{index}",
    }


def structure_key(doc: dict) -> tuple:
    """An isomorphism invariant of a request.

    Two requests that map onto each other by renaming nodes within their
    blocks get the same key, whatever the renaming does to program order:
    the key is the machine, the scheduler, the block sizes and the multiset
    of node colours (block, exec time, FU class and the latency-labelled
    classes of each neighbour).  Different keys mean the requests are not
    isomorphic; equal keys may also come from two that are not."""
    program = doc["program"]
    node = {}
    for b, block in enumerate(program["blocks"]):
        for name, exec_time, fu_class in block["nodes"]:
            node[name] = (b, int(exec_time), fu_class)
    succ: dict[str, list] = {n: [] for n in node}
    pred: dict[str, list] = {n: [] for n in node}
    for u, v, lat in itertools.chain(
        (e for block in program["blocks"] for e in block["edges"]), program["cross_edges"]
    ):
        succ[u].append((int(lat), node[v]))
        pred[v].append((int(lat), node[u]))
    colours = sorted((node[n], sorted(succ[n]), sorted(pred[n])) for n in node)
    return (
        doc["scheduler"],
        json.dumps(doc["machine"], sort_keys=True),
        tuple(len(block["nodes"]) for block in program["blocks"]),
        json.dumps(colours),
    )


def distinct_doc(seed: int, index: int, tag: str, seen: set) -> dict:
    """``serve_doc(seed, index, tag)``, redrawn until no request whose key
    is in ``seen`` could be isomorphic to it; its key joins ``seen``.

    A workload that promises distinct requests needs this: small random
    programs of the same class repeat a structure every few hundred draws,
    and the program's cache serves such a repeat as a hit, so it would not
    take the path the workload means to measure."""
    attempt = 0
    while True:
        doc = serve_doc(seed, index, tag if attempt == 0 else f"{tag}.{attempt}")
        key = structure_key(doc)
        if key not in seen:
            seen.add(key)
            return {**doc, "id": f"{tag}-{index}"}
        attempt += 1


def relabeled(doc: dict, tag: str) -> dict:
    """An order-preserving relabeling: every node and block renamed, same
    DAG, so the program's canonical cache must treat it as a hit."""
    mapping: dict[str, str] = {}
    blocks = []
    for b, block in enumerate(doc["program"]["blocks"]):
        for n, _, _ in block["nodes"]:
            mapping[n] = f"{tag}_{len(mapping)}"
        blocks.append({
            "name": f"{tag.upper()}BB{b}",
            "nodes": [[mapping[n], t, c] for n, t, c in block["nodes"]],
            "edges": [[mapping[u], mapping[v], lat] for u, v, lat in block["edges"]],
        })
    cross = [[mapping[u], mapping[v], lat] for u, v, lat in doc["program"]["cross_edges"]]
    return {**doc, "program": {"blocks": blocks, "cross_edges": cross}, "id": tag}


def instructions(doc_or_program: dict) -> int:
    program = doc_or_program.get("program", doc_or_program)
    return sum(len(b["nodes"]) for b in program["blocks"])

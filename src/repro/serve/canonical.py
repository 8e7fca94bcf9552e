"""Program-order canonical forms and content digests for scheduling
requests.

A scheduling workload repeats itself: the *same* loop bodies and
basic-block shapes arrive over and over under different SSA names.  To
turn those repeats into cache hits, the serve cache keys on a **canonical
form** of the request — ``(block DAG, latencies, exec times, FU classes,
deadlines, machine config, scheduler choice)`` with every node named by
its program index — rather than on the raw request text.

The digest is a sha256 over the canonical JSON.  Explicitly **not**
Python's builtin ``hash()``: that is randomized per process by
``PYTHONHASHSEED`` and (see :meth:`repro.core.schedule.Schedule.__hash__`
before its fix) easy to under-specify; sha256 of a canonical serialization
is stable across processes, sessions and machines, so the on-disk store
survives daemon restarts.

Why program order
-----------------

Every scheduler here is a function of program order: the hardware runs
the priority list L = P₁∘…∘Pₘ greedily (Definition 2.3), and the pipeline
breaks priority ties by program index, never by name.  So the canonical
id of a node is its program index.  Two requests share a digest exactly
when one is an *order-preserving relabeling* of the other, and for those
translating the cached canonical schedule through the new request's
names reproduces the scheduler's output bit for bit (pinned by
``tests/serve/test_canonical.py::TestEquivariance``).  A request whose
independent instructions arrive in a different program order is a
different key: its scheduler ties break differently, so its schedule may
differ, and it misses the cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping

from ..ir.basicblock import BasicBlock, Trace
from ..machine.model import MachineModel

#: Version of the canonical payload schema (bump on any change that can
#: alter a digest — old cache entries must not alias new ones).
CANONICAL_VERSION = 2


def machine_signature(machine: MachineModel) -> dict:
    """The machine-config part of the canonical payload."""
    return {
        "window": machine.window_size,
        "fus": sorted(machine.fu_counts.items()),
        "issue": machine.issue_width,
    }


@dataclass(frozen=True)
class CanonicalForm:
    """One request's canonical identity.

    ``order`` maps canonical ids back to the request's own node names
    (``order[cid] == name``, i.e. the program order); ``payload`` is the
    canonical JSON document the digest hashes.  Everything downstream of
    the cache speaks canonical ids, so two order-preserving relabelings
    share an entry and each translates the stored schedule through its own
    ``order``.
    """

    digest: str
    order: tuple[str, ...]
    payload: dict

    def id_map(self) -> dict[str, int]:
        """Request name -> canonical id."""
        return {n: i for i, n in enumerate(self.order)}

    def names(self, canonical_ids) -> list[str]:
        """Canonical ids -> request names, preserving sequence order."""
        return [self.order[c] for c in canonical_ids]


def canonical_form(
    trace: Trace,
    machine: MachineModel,
    scheduler: str,
    deadlines: Mapping[str, int] | None = None,
) -> CanonicalForm:
    """Canonicalize one scheduling request: canonical id = program index.

    The payload covers everything the schedule depends on — block DAG
    (per-node block membership, exec times, FU classes, optional
    deadlines), latency-labelled edges, machine config and scheduler choice
    — and nothing it does not (node names, block names).
    """
    graph = trace.graph
    order = graph.nodes
    cid = {n: i for i, n in enumerate(order)}
    deadlines = deadlines or {}
    nodes_field = [
        [
            trace.block_of[n],
            graph.exec_time(n),
            graph.fu_class(n),
            deadlines.get(n),
        ]
        for n in order
    ]
    edges_field = sorted(
        [cid[u], cid[v], lat] for u, v, lat in graph.edges()
    )
    payload = {
        "v": CANONICAL_VERSION,
        "scheduler": scheduler,
        "machine": machine_signature(machine),
        "blocks": [len(bb) for bb in trace.blocks],
        "nodes": nodes_field,
        "edges": edges_field,
    }
    return CanonicalForm(
        digest=payload_digest(payload), order=tuple(order), payload=payload
    )


def payload_digest(payload: dict) -> str:
    """sha256 hex digest of a canonical payload's compact JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def relabel_trace(trace: Trace, mapping: Mapping[str, str]) -> Trace:
    """A structurally identical trace with nodes renamed through
    ``mapping`` (missing keys keep their name, program order preserved).

    The relabeled trace is order-preservingly isomorphic to the original,
    so its canonical digest — and, through the cache, its served schedule —
    must match; tests and the serve smoke use this to generate
    guaranteed-isomorphic request variants.
    """
    blocks = [
        BasicBlock(name=bb.name, graph=bb.graph.relabeled(mapping))
        for bb in trace.blocks
    ]
    cross = [
        (mapping.get(u, u), mapping.get(v, v), lat)
        for u, v, lat in trace.cross_edges
    ]
    return Trace(blocks, cross_edges=cross)

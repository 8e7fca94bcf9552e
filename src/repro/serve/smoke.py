"""End-to-end smoke test for the scheduling daemon — ``python -m
repro.serve.smoke``.

Boots a real :class:`~repro.serve.daemon.ScheduleServer` (unix socket +
HTTP on a random port) inside the process, then drives it from concurrent
client threads in two phases over a seeded corpus:

- **cold**: every distinct request once — all must miss the cache and
  return bit-identically to a direct
  :func:`repro.serve.worker.compute_request` call;
- **warm**: every request again, plus an order-preserving *relabeling* of
  each (fresh SSA-style names, same DAG) — all must **hit** the
  canonical-digest cache and still match their own direct computation bit
  for bit.

Hard assertions (exit code 1 on any failure): zero error responses, warm
``serve.cache.hit`` > 0 with the exact expected hit/miss split,
bit-identity of every response, and a live Prometheus exposition on
``GET /metrics``.

With ``--report PATH`` the run writes a
:class:`~repro.obs.runreport.RunReport` whose invariant metrics (request /
hit / miss / error counts, bit-identity tallies) are deterministic for a
fixed seed — CI compares it against ``benchmarks/baselines/serve_smoke
.json`` with ``repro compare``, so the report doubles as a latency-SLO
gate: wall-clock keys are thresholded, everything else must match exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..machine.presets import PAPER_CORE, WIDE_VLIW, paper_machine
from ..ir.instruction import FIXED, FLOAT, MEMORY
from ..obs.runreport import RunReport, collect_provenance
from ..workloads.traces import random_trace
from .client import ScheduleClient, http_get, http_schedule
from .daemon import ScheduleServer, ServerHandle
from .canonical import relabel_trace
from .protocol import SCHEDULER_NAMES, ScheduleRequest, machine_to_dict, trace_to_dict
from .service import ScheduleService
from .worker import compute_request

_MACHINES = (PAPER_CORE, paper_machine(2), WIDE_VLIW)


class SmokeFailure(AssertionError):
    """One smoke invariant did not hold."""


def build_corpus(n: int, seed: int) -> list[dict]:
    """``n`` structurally distinct request documents, deterministically
    seeded; schedulers and machines cycle so every request class appears."""
    docs = []
    for i in range(n):
        machine = _MACHINES[i % len(_MACHINES)]
        fu_classes = (
            (FIXED, FLOAT, MEMORY) if machine is WIDE_VLIW else None
        )
        trace = random_trace(
            num_blocks=2 + i % 3,
            block_size=(3, 6),
            cross_probability=0.15,
            latencies=(0, 1, 2),
            seed=seed + i,
            **({"fu_classes": fu_classes} if fu_classes else {}),
        )
        request = ScheduleRequest(
            trace=trace,
            machine=machine,
            scheduler=SCHEDULER_NAMES[i % len(SCHEDULER_NAMES)],
            id=f"cold-{i}",
        )
        docs.append(request.to_dict())
    return docs


def relabeled_doc(doc: dict, tag: str) -> dict:
    """An order-preserving relabeling of ``doc``: every node renamed,
    block names changed, correlation id re-tagged."""
    from .protocol import trace_from_dict

    trace = trace_from_dict(doc["program"])
    mapping = {
        n: f"{tag}_{i}" for i, n in enumerate(trace.graph.nodes)
    }
    renamed = relabel_trace(trace, mapping)
    out = dict(doc)
    program = trace_to_dict(renamed)
    for j, block in enumerate(program["blocks"]):
        block["name"] = f"{tag.upper()}BB{j}"
    out["program"] = program
    out["id"] = tag
    return out


def drive(socket_path: Path, docs: list[dict], clients: int) -> list[dict]:
    """Send ``docs`` through ``clients`` concurrent connections, responses
    in input order (round-robin sharding, pipelined within a client)."""
    shards: list[list[tuple[int, dict]]] = [[] for _ in range(clients)]
    for i, doc in enumerate(docs):
        shards[i % clients].append((i, doc))

    def run_shard(shard: list[tuple[int, dict]]) -> list[tuple[int, dict]]:
        out = []
        with ScheduleClient(socket_path) as client:
            for i, doc in shard:
                out.append((i, client.call(doc)))
        return out

    responses: list[dict | None] = [None] * len(docs)
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for result in pool.map(run_shard, [s for s in shards if s]):
            for i, response in result:
                responses[i] = response
    return responses  # type: ignore[return-value]


def check_phase(
    name: str,
    docs: list[dict],
    responses: list[dict],
    expect_cached: bool,
) -> int:
    """Assert every response is ok, has the expected cache provenance, and
    is bit-identical to a direct (uncached, in-process) computation.
    Returns the number of bit-identical responses (== len(docs))."""
    identical = 0
    for doc, response in zip(docs, responses):
        rid = doc.get("id")
        if not response.get("ok"):
            raise SmokeFailure(
                f"{name}: request {rid!r} failed: {response.get('error')}"
            )
        if response.get("cached") != expect_cached:
            raise SmokeFailure(
                f"{name}: request {rid!r} expected cached={expect_cached}, "
                f"got {response.get('cached')}"
            )
        direct = compute_request(doc)
        for key in ("block_orders", "makespan", "stall_cycles", "schedule_digest"):
            if response[key] != direct[key]:
                raise SmokeFailure(
                    f"{name}: request {rid!r} field {key!r} diverges from "
                    f"direct computation:\n  served: {response[key]!r}\n"
                    f"  direct: {direct[key]!r}"
                )
        identical += 1
    return identical


def check_tracing(
    server: ScheduleServer, seed: int, waterfall_path: str | None
) -> dict:
    """Tracing phase: one forced-slow request with a caller-supplied
    trace id must round-trip the id, land in ``/debug/traces`` with a full
    span tree, populate ``/debug/slow``, and export a replayable waterfall.
    Returns the deterministic tally for the RunReport."""
    trace_id = f"smoke{seed & 0xFFFFFFFF:08x}"
    # A cache miss over a large trace: runs the scheduler, so it lands far
    # above the rolling median of warm hits and must be tail-sampled.
    slow_trace = random_trace(
        num_blocks=4,
        block_size=(10, 14),
        cross_probability=0.2,
        latencies=(0, 1, 2, 3),
        seed=seed + 10_000,
    )
    request = ScheduleRequest(
        trace=slow_trace,
        machine=PAPER_CORE,
        scheduler="anticipatory",
        id="traced-slow",
        trace_id=trace_id,
    )
    with ScheduleClient(server.socket_path) as client:
        response = client.call(request.to_dict())
    if not response.get("ok"):
        raise SmokeFailure(f"traced request failed: {response.get('error')}")
    echoed = (response.get("trace") or {}).get("trace_id")
    if echoed != trace_id:
        raise SmokeFailure(
            f"trace_id did not round-trip: sent {trace_id!r}, got {echoed!r}"
        )
    server_block = response.get("server") or {}
    if "phases" not in server_block or "dispatch_s" not in server_block["phases"]:
        raise SmokeFailure(
            f"response carries no server-side phase timings: {server_block!r}"
        )

    # The same kernel again, over HTTP: a cache hit tagged transport=http.
    doc = dict(request.to_dict(), id="traced-http")
    doc.pop("trace", None)
    status, http_response = http_schedule(server.host, server.port, doc)
    if status != 200 or not http_response.get("ok"):
        raise SmokeFailure(f"HTTP re-request failed: {status}, {http_response}")
    if not http_response.get("cached"):
        raise SmokeFailure("HTTP re-request of the traced kernel missed")

    status, body = http_get(
        server.host, server.port, f"/debug/traces?trace_id={trace_id}"
    )
    if status != 200:
        raise SmokeFailure(f"GET /debug/traces: status {status}")
    retained = json.loads(body)["traces"]
    if not retained:
        raise SmokeFailure(f"/debug/traces retained nothing for {trace_id}")
    spans = retained[-1]["spans"]
    names = {s["name"] for s in spans}
    if "serve.request" not in names or not any(
        n.startswith("serve.worker.") for n in names
    ):
        raise SmokeFailure(
            f"span tree incomplete for {trace_id}: {sorted(names)}"
        )
    wrong = [s for s in spans if s.get("trace_id") != trace_id]
    if wrong:
        raise SmokeFailure(
            f"{len(wrong)} span(s) lost the request trace_id: {wrong[:3]}"
        )

    status, body = http_get(server.host, server.port, "/debug/slow")
    if status != 200 or not json.loads(body)["traces"]:
        raise SmokeFailure("/debug/slow empty after the forced-slow request")

    status, waterfall = http_get(
        server.host,
        server.port,
        f"/debug/traces?trace_id={trace_id}&format=jsonl",
    )
    if status != 200 or not waterfall.strip():
        raise SmokeFailure("waterfall export (format=jsonl) came back empty")
    records = [json.loads(line) for line in waterfall.splitlines() if line]
    wf_spans = sum(1 for r in records if r.get("type") == "span")
    if wf_spans != len(spans):
        raise SmokeFailure(
            f"waterfall exported {wf_spans} spans, ring holds {len(spans)}"
        )
    if waterfall_path:
        Path(waterfall_path).write_bytes(waterfall)
    return {
        "trace_roundtrip": 1,
        "retained_for_id": len(retained),
        "slow_ring_nonempty": 1,
        "waterfall_spans": wf_spans,
    }


def run_smoke(
    requests: int = 12,
    clients: int = 4,
    jobs: int = 1,
    seed: int = 0,
    report_path: str | None = None,
    workdir: str | None = None,
    waterfall_path: str | None = None,
) -> RunReport:
    """Run the full smoke; raises :class:`SmokeFailure` on any violated
    invariant, returns the (optionally written) RunReport otherwise."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        root = Path(tmp)
        service = ScheduleService(
            jobs=jobs,
            cache_size=4 * requests + 8,
            cache_path=root / "cache.jsonl",
            spool_dir=root / "spool",
        )
        server = ScheduleServer(
            service,
            socket_path=root / "serve.sock",
            port=0,  # bind an ephemeral HTTP port too
        )
        cold_docs = build_corpus(requests, seed)
        warm_docs = [
            dict(doc, id=f"warm-{i}") for i, doc in enumerate(cold_docs)
        ] + [relabeled_doc(doc, f"iso{i}") for i, doc in enumerate(cold_docs)]

        with ServerHandle(server):
            t0 = time.perf_counter()
            cold = drive(server.socket_path, cold_docs, clients)
            t_cold = time.perf_counter() - t0
            cold_ok = check_phase("cold", cold_docs, cold, expect_cached=False)

            t1 = time.perf_counter()
            warm = drive(server.socket_path, warm_docs, clients)
            t_warm = time.perf_counter() - t1
            warm_ok = check_phase("warm", warm_docs, warm, expect_cached=True)

            tracing = check_tracing(server, seed, waterfall_path)

            status, metrics_body = http_get(server.host, server.port, "/metrics")
            if status != 200 or b"serve_cache_hit_total" not in metrics_body:
                raise SmokeFailure(
                    f"GET /metrics: status {status}, cache-hit series missing"
                )
            if b"serve_cache_hit_ratio" not in metrics_body:
                raise SmokeFailure("serve_cache_hit_ratio gauge missing")
            status, _ = http_get(server.host, server.port, "/healthz")
            if status != 200:
                raise SmokeFailure(f"GET /healthz: status {status}")
            stats = service.stats()

    cache = stats["cache"]
    # The tracing phase adds one unix-socket miss and one HTTP hit on top
    # of the cold/warm phases.
    if cache["hits"] != len(warm_docs) + 1:
        raise SmokeFailure(
            f"expected exactly {len(warm_docs) + 1} cache hits "
            f"(every warm request + the HTTP re-request), got {cache['hits']}"
        )
    if cache["misses"] != len(cold_docs) + 1:
        raise SmokeFailure(
            f"expected exactly {len(cold_docs) + 1} cache misses "
            f"(every cold request + the traced request), got {cache['misses']}"
        )
    if stats["errors"]:
        raise SmokeFailure(f"{stats['errors']} error response(s)")
    if stats.get("cache_hit_ratio") is None:
        raise SmokeFailure("/stats carries no cache_hit_ratio")
    # A clean smoke run must never trip the overload/degradation machinery:
    # nothing shed, no deadline misses, no degraded fallbacks, every
    # breaker closed.
    admission = stats.get("admission") or {}
    if admission.get("shed_total", 0):
        raise SmokeFailure(
            f"admission shed {admission['shed_total']} request(s) on a "
            f"clean run"
        )
    if stats.get("degraded", 0) or stats.get("deadline_exceeded", 0):
        raise SmokeFailure(
            f"clean run produced {stats.get('degraded', 0)} degraded and "
            f"{stats.get('deadline_exceeded', 0)} deadline-exceeded "
            f"response(s)"
        )
    open_breakers = {
        name: snap["state"]
        for name, snap in (stats.get("breakers") or {}).items()
        if snap.get("state") != "closed"
    }
    if open_breakers:
        raise SmokeFailure(f"breakers not closed: {open_breakers}")
    if stats.get("transports", {}).get("http", 0) < 1:
        raise SmokeFailure(
            f"per-transport counts missed the HTTP request: "
            f"{stats.get('transports')}"
        )
    unique = len({r["digest"] for r in cold})
    if unique != len(cold_docs):
        raise SmokeFailure(
            f"cold corpus collapsed to {unique} digests, expected "
            f"{len(cold_docs)} distinct"
        )

    report = RunReport(
        name="serve_smoke",
        metrics={
            "requests": stats["requests"],
            "errors": stats["errors"],
            "unique_digests": unique,
            "bit_identical": cold_ok + warm_ok,
            "cache": {
                "hits": cache["hits"],
                "misses": cache["misses"],
                "evictions": cache["evictions"],
            },
            "latency": {
                "cold_wall_s": t_cold,
                "warm_wall_s": t_warm,
                "cold_per_request_s": t_cold / len(cold_docs),
                "warm_per_request_s": t_warm / len(warm_docs),
            },
            "tracing": tracing,
            "transports": dict(sorted(stats["transports"].items())),
        },
        phases={"cold": t_cold, "warm": t_warm},
        provenance=collect_provenance(
            seed=seed, requests=requests, clients=clients, jobs=jobs
        ),
    )
    if report_path:
        report.write(report_path)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--requests", type=int, default=12,
                        help="distinct kernels in the corpus (default 12)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client connections (default 4)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="service worker processes (default 1: in-process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the RunReport JSON here")
    parser.add_argument("--waterfall", default=None, metavar="PATH",
                        help="write the traced request's waterfall JSONL "
                             "here (render with 'repro trace PATH')")
    args = parser.parse_args(argv)
    try:
        report = run_smoke(
            requests=args.requests,
            clients=args.clients,
            jobs=args.jobs,
            seed=args.seed,
            report_path=args.report,
            waterfall_path=args.waterfall,
        )
    except SmokeFailure as exc:
        print(f"serve smoke FAILED: {exc}", file=sys.stderr)
        return 1
    metrics = report.metrics
    print(
        "serve smoke OK: "
        f"{metrics['requests']} requests, "
        f"{metrics['cache']['hits']} hits / {metrics['cache']['misses']} misses, "
        f"{metrics['bit_identical']} bit-identical responses "
        f"(cold {report.phases['cold']:.3f}s, warm {report.phases['warm']:.3f}s)"
    )
    if args.report:
        print(f"report written to {args.report}")
    if args.waterfall:
        print(f"request waterfall written to {args.waterfall}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())

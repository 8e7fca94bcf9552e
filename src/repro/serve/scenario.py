"""The daemon scenario driver: the serve smoke and the serve-tier chaos
run are two scenarios of one driver.

Both boot a real :class:`~repro.serve.service.ScheduleService` behind a
:class:`~repro.serve.daemon.ScheduleServer` (unix socket + HTTP on an
ephemeral port) in a temp dir, drive it from concurrent client threads
with seeded, structurally distinct request documents, and judge it with
the same checks: every response ``ok``, with the expected cache
provenance and bit-identical to a direct
:func:`repro.serve.worker.compute_request`; and a clean run — nothing
shed, no degraded or deadline-exceeded response, every breaker closed,
no pool worker left alive once the daemon is down.  The outcome is a
:class:`~repro.obs.runreport.RunReport`; any violated invariant raises
:class:`ScenarioFailure` instead.

:func:`run_smoke` (``python -m repro.serve.smoke``) installs no
:class:`~repro.serve.chaos.ChaosPlan`.  Its phases:

- **cold**: every distinct request once — all must miss the cache;
- **warm**: every request again, plus an order-preserving *relabeling* of
  each (fresh SSA-style names, same DAG) — all must **hit**;
- **tracing**: one forced-slow request with a caller-supplied trace id
  must round-trip the id, land in ``/debug/traces`` with a full span tree,
  populate ``/debug/slow`` and export a replayable waterfall; its HTTP
  re-request must hit.

Then ``/metrics`` and ``/healthz`` must answer, and the cache counts must
be exact: n requests give n + 1 misses, 2n + 1 hits, 3n bit-identical
responses and n distinct digests.  The report's counts are deterministic
for a fixed seed; CI compares it with ``benchmarks/baselines/serve_smoke
.json``, thresholding only the wall-clock keys.

:func:`run_chaos` (``repro serve-chaos``) installs the storm plan
(:func:`~repro.serve.chaos.default_chaos_plan`: worker crashes, hangs and
slow schedulers) and runs the **mixed**, **frame**, **burst** and
**store-corruption** phases, then clears the plan for **recovery**.  It
asserts the serving tier's overload invariant:

    **every accepted request receives exactly one structured response**
    (ok, degraded, or error), shed requests get ``overloaded`` with retry
    guidance, degraded responses carry a verified-legal schedule and are
    never cached, and the daemon serves clean requests after the plan
    ends — no wedge, no leaked workers.

Its report's ``invariants`` block is deterministic booleans (exact-match
gated against ``benchmarks/baselines/serve_chaos.json``); the observed
fault mix — how many crashes, sheds, degradations actually landed — is
timing-dependent and therefore recorded in provenance, which the gate
does not compare.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from ..analysis.verify import verify_scheduler_output
from ..ir.instruction import FIXED, FLOAT, MEMORY
from ..machine.presets import PAPER_CORE, WIDE_VLIW, paper_machine
from ..obs.runreport import RunReport, collect_provenance
from ..workloads.traces import random_trace
from .admission import AdmissionConfig
from .cache import ScheduleCache
from .canonical import relabel_trace
from .chaos import ChaosPlan, default_chaos_plan, injection
from .client import ScheduleClient, http_get, http_schedule
from .daemon import ScheduleServer, ServerHandle
from .protocol import (
    SCHEDULER_NAMES,
    ScheduleRequest,
    machine_from_dict,
    trace_from_dict,
    trace_to_dict,
)
from .service import ScheduleService
from .worker import compute_request

_MACHINES = (PAPER_CORE, paper_machine(2), WIDE_VLIW)

#: The response fields that must equal a direct computation bit for bit.
_IDENTITY_KEYS = (
    "block_orders", "makespan", "stall_cycles", "schedule_digest"
)


class ScenarioFailure(AssertionError):
    """One scenario invariant did not hold."""


class Verdict:
    """A run's judgement: every violated check as a message, and the
    named invariants its report carries (1 = held)."""

    def __init__(self, *invariants: str) -> None:
        self.invariants = dict.fromkeys(invariants, 1)
        self.violations: list[str] = []

    def check(self, ok: object, message: str, invariant: str = "") -> bool:
        """Record one check; a broken one clears ``invariant`` (if any)."""
        if not ok:
            self.violations.append(message)
            if invariant:
                self.invariants[invariant] = 0
        return bool(ok)

    def require(self, ok: object, message: str) -> None:
        """A check later steps depend on: if broken, the run ends here."""
        self.check(ok, message)
        self.raise_any()

    def raise_any(self) -> None:
        """Raise :class:`ScenarioFailure` listing every violation, if any."""
        if self.violations:
            raise ScenarioFailure(
                f"{len(self.violations)} invariant violation(s):\n  - "
                + "\n  - ".join(self.violations)
            )


def request_doc(i: int, seed: int, request_id: str) -> dict:
    """Request document ``i`` of a seeded stream: distinct ``i`` give
    structurally distinct programs (so a cache miss within a run), and
    schedulers and machines cycle so every request class appears."""
    machine = _MACHINES[i % len(_MACHINES)]
    fu_classes = (FIXED, FLOAT, MEMORY) if machine is WIDE_VLIW else None
    trace = random_trace(
        num_blocks=2 + i % 3,
        block_size=(3, 6),
        cross_probability=0.15,
        latencies=(0, 1, 2),
        seed=seed * 100_003 + i,
        **({"fu_classes": fu_classes} if fu_classes else {}),
    )
    return ScheduleRequest(
        trace=trace,
        machine=machine,
        scheduler=SCHEDULER_NAMES[i % len(SCHEDULER_NAMES)],
        id=request_id,
    ).to_dict()


def relabeled_doc(doc: dict, tag: str) -> dict:
    """An order-preserving relabeling of ``doc``: every node renamed,
    block names changed, correlation id re-tagged."""
    trace = trace_from_dict(doc["program"])
    mapping = {n: f"{tag}_{i}" for i, n in enumerate(trace.graph.nodes)}
    program = trace_to_dict(relabel_trace(trace, mapping))
    for j, block in enumerate(program["blocks"]):
        block["name"] = f"{tag.upper()}BB{j}"
    return dict(doc, program=program, id=tag)


@contextmanager
def _booted(
    workdir: str | None, server_opts: dict | None = None, **service_opts
) -> Iterator[tuple[ScheduleService, ScheduleServer]]:
    """A live daemon in a temp dir (cache store, spool and socket inside
    it), HTTP on an ephemeral port; stopped and removed on exit."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        root = Path(tmp)
        service = ScheduleService(
            cache_path=root / "cache.jsonl",
            spool_dir=root / "spool",
            **service_opts,
        )
        server = ScheduleServer(
            service,
            socket_path=root / "serve.sock",
            port=0,
            **(server_opts or {}),
        )
        with ServerHandle(server):
            yield service, server


def _drive(socket_path: Path, docs: list[dict], clients: int) -> list:
    """Send ``docs`` over ``clients`` concurrent connections (round-robin
    shards, each in order on one connection).  Responses come back in
    input order, ``None`` where the connection failed."""
    responses: list[dict | None] = [None] * len(docs)
    shards = [range(k, len(docs), clients) for k in range(clients)]

    def run_shard(shard: range) -> None:
        try:
            with ScheduleClient(socket_path) as client:
                for i in shard:
                    responses[i] = client.call(docs[i])
        except OSError:  # ConnectionError and socket timeouts included
            pass  # the shard's unanswered requests stay None

    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(run_shard, [s for s in shards if s]))
    return responses


def _check_responses(
    verdict: Verdict,
    phase: str,
    docs: list[dict],
    responses: list,
    cached: bool,
    invariant: str = "",
) -> int:
    """The response check: every response ok, not degraded, with the
    expected cache provenance, and bit-identical to a direct (uncached,
    in-process) computation; returns how many are."""
    identical = 0
    for doc, response in zip(docs, responses):
        response = response or {}
        ok = response.get("ok") and not response.get("degraded")
        direct = compute_request(doc) if ok else {}
        identical += verdict.check(
            ok
            and response.get("cached") == cached
            and all(response[k] == direct[k] for k in _IDENTITY_KEYS),
            f"{phase}: request {doc.get('id')!r} is not an ok, "
            f"cached={cached} answer identical to compute_request: "
            f"{response!r}",
            invariant,
        )
    return identical


def _leaked_workers(grace_s: float = 5.0) -> int:
    """Live child processes after a grace period (the pool tears its
    workers down per batch; anything that survives the grace is leaked)."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return 0
        time.sleep(0.05)
    return len(multiprocessing.active_children())


def _check_clean(
    verdict: Verdict,
    stats: dict,
    before: dict | None = None,
    invariant: str = "",
) -> None:
    """The clean-run checks: every breaker closed, no pool worker alive
    (so call it once the daemon is down), and — since the ``before``
    stats snapshot, when given — nothing shed and no degraded or
    deadline-exceeded response (``invariant``, if any)."""

    def unclean(snap: dict) -> tuple[int, int]:
        return (
            snap["admission"]["shed_total"],
            snap["degraded"] + snap["deadline_exceeded"],
        )

    base = unclean(before) if before else (0, 0)
    shed, degraded = (now - then for now, then in zip(unclean(stats), base))
    open_breakers = {
        name: snap["state"]
        for name, snap in stats["breakers"].items()
        if snap["state"] != "closed"
    }
    leaked = _leaked_workers()
    verdict.check(
        not open_breakers,
        f"breakers not closed: {open_breakers}",
        "breakers_closed",
    )
    verdict.check(
        not leaked, f"{leaked} leaked worker process(es)", "no_leaked_workers"
    )
    verdict.check(
        not (shed or degraded),
        f"clean run shed {shed} request(s) and answered {degraded} degraded "
        f"or past its deadline",
        invariant,
    )


def _finish(
    verdict: Verdict,
    name: str,
    metrics: dict,
    phases: dict,
    report_path: str | None,
    **provenance,
) -> RunReport:
    """Raise on any violation; otherwise the (optionally written) report."""
    verdict.raise_any()
    report = RunReport(
        name=name,
        metrics=metrics,
        phases=phases,
        provenance=collect_provenance(**provenance),
    )
    if report_path:
        report.write(report_path)
    return report


# ---------------------------------------------------------------------------
# The smoke: no plan installed.


def _check_tracing(
    verdict: Verdict,
    server: ScheduleServer,
    seed: int,
    waterfall_path: str | None,
) -> dict:
    """The tracing phase; returns its deterministic tally for the report
    and ends the run at the first broken step."""
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
    doc = ScheduleRequest(
        trace=slow_trace,
        machine=PAPER_CORE,
        scheduler="anticipatory",
        id="traced-slow",
        trace_id=trace_id,
    ).to_dict()
    with ScheduleClient(server.socket_path) as client:
        response = client.call(doc)
    _check_responses(verdict, "tracing", [doc], [response], False)
    verdict.raise_any()
    echoed = (response.get("trace") or {}).get("trace_id")
    verdict.require(
        echoed == trace_id,
        f"trace_id did not round-trip: sent {trace_id!r}, got {echoed!r}",
    )
    server_block = response.get("server") or {}
    verdict.require(
        "dispatch_s" in server_block.get("phases", {}),
        f"response carries no server-side phase timings: {server_block!r}",
    )

    # The same kernel again, over HTTP: a cache hit tagged transport=http.
    doc = dict(doc, id="traced-http")
    doc.pop("trace")
    status, http_response = http_schedule(server.host, server.port, doc)
    verdict.check(status == 200, f"HTTP re-request: status {status}")
    _check_responses(verdict, "tracing", [doc], [http_response], True)
    verdict.raise_any()

    status, body = http_get(
        server.host, server.port, f"/debug/traces?trace_id={trace_id}"
    )
    verdict.require(status == 200, f"GET /debug/traces: status {status}")
    retained = json.loads(body)["traces"]
    verdict.require(
        retained, f"/debug/traces retained nothing for {trace_id}"
    )
    spans = retained[-1]["spans"]
    names = {s["name"] for s in spans}
    verdict.require(
        "serve.request" in names
        and any(n.startswith("serve.worker.") for n in names),
        f"span tree incomplete for {trace_id}: {sorted(names)}",
    )
    wrong = [s for s in spans if s.get("trace_id") != trace_id]
    verdict.require(
        not wrong,
        f"{len(wrong)} span(s) lost the request trace_id: {wrong[:3]}",
    )

    status, body = http_get(server.host, server.port, "/debug/slow")
    verdict.require(
        status == 200 and json.loads(body)["traces"],
        "/debug/slow empty after the forced-slow request",
    )

    status, waterfall = http_get(
        server.host,
        server.port,
        f"/debug/traces?trace_id={trace_id}&format=jsonl",
    )
    verdict.require(
        status == 200 and waterfall.strip(),
        "waterfall export (format=jsonl) came back empty",
    )
    records = [json.loads(line) for line in waterfall.splitlines() if line]
    wf_spans = sum(1 for r in records if r.get("type") == "span")
    verdict.require(
        wf_spans == len(spans),
        f"waterfall exported {wf_spans} spans, ring holds {len(spans)}",
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
    """Run the smoke scenario; raises :class:`ScenarioFailure` on any
    violated invariant, returns the (optionally written) RunReport
    otherwise."""
    cold_docs = [request_doc(i, seed, f"cold-{i}") for i in range(requests)]
    warm_docs = [
        dict(doc, id=f"warm-{i}") for i, doc in enumerate(cold_docs)
    ] + [relabeled_doc(doc, f"iso{i}") for i, doc in enumerate(cold_docs)]
    verdict = Verdict()
    with _booted(
        workdir, jobs=jobs, cache_size=4 * requests + 8
    ) as (service, server):
        t0 = time.perf_counter()
        cold = _drive(server.socket_path, cold_docs, clients)
        t_cold = time.perf_counter() - t0
        identical = _check_responses(verdict, "cold", cold_docs, cold, False)

        t1 = time.perf_counter()
        warm = _drive(server.socket_path, warm_docs, clients)
        t_warm = time.perf_counter() - t1
        identical += _check_responses(verdict, "warm", warm_docs, warm, True)

        tracing = _check_tracing(verdict, server, seed, waterfall_path)

        status, metrics_body = http_get(server.host, server.port, "/metrics")
        for series in (b"serve_cache_hit_total", b"serve_cache_hit_ratio"):
            verdict.check(
                status == 200 and series in metrics_body,
                f"GET /metrics: status {status}, {series.decode()} missing",
            )
        status, _ = http_get(server.host, server.port, "/healthz")
        verdict.check(status == 200, f"GET /healthz: status {status}")
        stats = service.stats()

    _check_clean(verdict, stats)
    cache = stats["cache"]
    # The tracing phase adds one unix-socket miss and one HTTP hit on top
    # of the cold/warm phases.
    verdict.check(
        cache["hits"] == len(warm_docs) + 1,
        f"expected exactly {len(warm_docs) + 1} cache hits "
        f"(every warm request + the HTTP re-request), got {cache['hits']}",
    )
    verdict.check(
        cache["misses"] == len(cold_docs) + 1,
        f"expected exactly {len(cold_docs) + 1} cache misses "
        f"(every cold request + the traced request), got {cache['misses']}",
    )
    verdict.check(not stats["errors"], f"{stats['errors']} error response(s)")
    verdict.check(
        stats["cache_hit_ratio"] is not None,
        "/stats carries no cache_hit_ratio",
    )
    verdict.check(
        stats["transports"].get("http", 0) >= 1,
        f"per-transport counts missed the HTTP request: "
        f"{stats['transports']}",
    )
    unique = len({(r or {}).get("digest") for r in cold})
    verdict.check(
        unique == len(cold_docs),
        f"cold corpus collapsed to {unique} digests, expected "
        f"{len(cold_docs)} distinct",
    )

    return _finish(
        verdict,
        "serve_smoke",
        {
            "requests": stats["requests"],
            "errors": stats["errors"],
            "unique_digests": unique,
            "bit_identical": identical,
            "cache": {k: cache[k] for k in ("hits", "misses", "evictions")},
            "latency": {
                "cold_wall_s": t_cold,
                "warm_wall_s": t_warm,
                "cold_per_request_s": t_cold / len(cold_docs),
                "warm_per_request_s": t_warm / len(warm_docs),
            },
            "tracing": tracing,
            "transports": stats["transports"],
        },
        {"cold": t_cold, "warm": t_warm},
        report_path,
        seed=seed,
        requests=requests,
        clients=clients,
        jobs=jobs,
    )


# ---------------------------------------------------------------------------
# The chaos run: the storm plan installed.


def _raw_unix(socket_path, payload: bytes, read_lines: int) -> list[bytes]:
    """Write raw bytes to the unix transport; read up to ``read_lines``
    response lines (stops early on EOF)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(str(socket_path))
        sock.sendall(payload)
        with sock.makefile("rb") as fh:
            lines = [fh.readline() for _ in range(read_lines)]
    return [line for line in lines if line]


def run_chaos(
    requests: int = 36,
    burst: int = 48,
    queue_capacity: int = 8,
    jobs: int = 2,
    seed: int = 0,
    report_path: str | None = None,
    workdir: str | None = None,
    plan: ChaosPlan | None = None,
) -> RunReport:
    """Drive a seeded chaos plan against a live daemon; raises
    :class:`ScenarioFailure` on any violated invariant, returns the
    (optionally written) RunReport otherwise."""
    plan = (plan or default_chaos_plan(seed)).for_jobs(jobs)
    breaker_cooldown_s = 0.3
    verdict = Verdict(
        "one_response_per_accepted",
        "accepted_plus_shed_equals_submitted",
        "shed_matches_overloaded_responses",
        "queue_depth_bounded",
        "degraded_verified_legal",
        "degraded_never_cached",
        "frame_chaos_contained",
        "recovered_clean",
        "breakers_closed",
        "no_leaked_workers",
        "store_survived_corruption",
    )
    observed = {
        "crash_errors": 0,
        "hang_errors": 0,
        "degraded": 0,
        "shed_seen": 0,
        "deadline_exceeded_seen": 0,
        "breaker_open_seen": 0,
        "unexpected_exceptions": 0,
    }
    degraded_responses: list[tuple[dict, dict]] = []

    def tally(doc: dict, response: dict | None) -> None:
        """Classify one storm-phase response into ``observed``."""
        rid = doc["id"]
        if not verdict.check(
            isinstance(response, dict) and "ok" in response,
            f"request {rid!r} got no structured response: {response!r}",
            "one_response_per_accepted",
        ):
            observed["unexpected_exceptions"] += 1
            return
        code = response.get("code")
        action = plan.worker_action(rid)
        if response.get("ok"):
            if response.get("degraded"):
                observed["degraded"] += 1
                degraded_responses.append((doc, response))
        elif code == "overloaded":
            observed["shed_seen"] += 1
            verdict.check(
                response.get("retry_after_s"),
                f"shed response for {rid!r} carries no retry_after_s",
            )
        elif code == "deadline_exceeded":
            observed["deadline_exceeded_seen"] += 1
        elif code == "breaker_open":
            observed["breaker_open_seen"] += 1
        elif action == "exit":
            observed["crash_errors"] += 1
        elif action == "hang":
            observed["hang_errors"] += 1
        else:
            verdict.check(
                code == "scheduling_failed",
                f"request {rid!r} (action {action}) failed unexpectedly: "
                f"{response.get('error')!r} (code {code!r})",
            )

    def clean_id(prefix: str, actions=(None,)) -> str:
        """The first ``{prefix}{k}`` the plan assigns one of ``actions``."""
        return next(
            f"{prefix}{k}"
            for k in range(10_000)
            if plan.worker_action(f"{prefix}{k}") in actions
        )

    #: Well-formed schedule requests clients actually delivered to the
    #: daemon (frame-level chaos — garbage, oversized, half-frames — does
    #: not count: those never reach admission).
    submitted = 0
    t_start = time.perf_counter()
    #: Timing ladder: guard budget < slow_s < pool timeout < hang_s, so a
    #: slow scheduler degrades, a hung worker is settled by the pool, and
    #: nothing waits on the hang itself.
    with _booted(
        workdir,
        server_opts={
            "admission": AdmissionConfig(
                queue_capacity=queue_capacity,
                inflight_limit=max(4 * burst, 64),
                retry_after_s=0.5,
            ),
            "max_line": 256 * 1024,
        },
        jobs=jobs,
        cache_size=4 * (requests + burst) + 16,
        timeout_s=2.0,
        retries=0,
        guard_budget_s=0.15,
        breaker_threshold=3,
        breaker_cooldown_s=breaker_cooldown_s,
    ) as (service, server):
        sock_path = server.socket_path
        with injection(plan):
            # -- mixed: clean and chaotic requests on one connection -----
            mixed = [request_doc(i, seed, f"c{i}") for i in range(requests)]
            for doc, response in zip(mixed, _drive(sock_path, mixed, 1)):
                tally(doc, response)
            submitted += len(mixed)

            # -- frame: client-level chaos ---------------------------------
            # Malformed line between two valid pipelined requests: the
            # garbage gets its own error, neither neighbour is harmed.  The
            # neighbours get chaos-free ids — this phase tests frame
            # handling, not worker adversity.
            good_a = request_doc(requests + 1, seed, clean_id("frame-a"))
            good_b = request_doc(requests + 2, seed, clean_id("frame-b"))
            payload = (
                json.dumps(good_a).encode()
                + b"\n{not json%%\n"
                + json.dumps(good_b).encode()
                + b"\n"
            )
            lines = _raw_unix(sock_path, payload, read_lines=3)
            submitted += 2  # the garbage line never reaches admission
            replies = [json.loads(line) for line in lines]
            verdict.check(
                [bool(r.get("ok")) for r in replies] == [True, False, True],
                f"malformed frame poisoned the pipeline: "
                f"{[line[:80] for line in lines]!r}",
                "frame_chaos_contained",
            )
            # Oversized frame: structured error, connection closed, daemon
            # alive.
            big = b"x" * (server.max_line + 1024) + b"\n"
            lines = _raw_unix(sock_path, big, read_lines=1)
            verdict.check(
                len(lines) == 1 and not json.loads(lines[0]).get("ok"),
                f"oversized frame not answered with a structured error: "
                f"{lines!r}",
            )
            # Disconnect mid-frame: no response owed, daemon alive.
            for _ in range(2):
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as half:
                    half.connect(str(sock_path))
                    half.sendall(b'{"scheduler": "anticip')

            # -- burst: overload against a busy executor -------------------
            # Pin the batch executor with one guaranteed-slow request, then
            # fire `burst` concurrent requests at a queue of capacity C:
            # admission must answer every one (ok or shed) and depth must
            # never exceed C.  A slice of the burst carries a deadline too
            # short to survive queueing behind the blocker.
            pinning = ("slow",) if jobs < 2 else ("hang", "slow")
            blocker = request_doc(
                requests + 3, seed, clean_id("blocker-", pinning)
            )
            burst_docs = [
                request_doc(requests + 10 + i, seed, f"burst-{i}")
                for i in range(burst)
            ]
            for doc in burst_docs[: max(burst // 6, 1)]:
                doc["deadline_ms"] = 1
            with ThreadPoolExecutor(max_workers=1) as pool:
                pinned = pool.submit(_drive, sock_path, [blocker], 1)
                time.sleep(0.05)  # let the blocker occupy the executor
                burst_responses = _drive(sock_path, burst_docs, burst)
                pinned.result()
            for doc, response in zip(burst_docs, burst_responses):
                tally(doc, response)
            submitted += 1 + burst

            # -- store corruption: a torn line on disk ---------------------
            with service.cache.path.open("a") as fh:
                fh.write('{"digest": "deadbeef", "entry"')

        # -- recovery: the plan cleared ----------------------------------
        # Every scheduler class must serve a clean, non-degraded miss
        # bit-identical to a direct computation; open breakers get their
        # half-open probe (the cooldown is short) and must close.
        storm_end = service.stats()
        time.sleep(breaker_cooldown_s + 0.05)
        with ScheduleClient(sock_path) as client:
            for j, scheduler in enumerate(SCHEDULER_NAMES):
                for attempt in range(25):
                    doc = request_doc(
                        10_000 + 100 * j + attempt,
                        seed,
                        f"recover-{scheduler}-{attempt}",
                    )
                    doc["scheduler"] = scheduler
                    submitted += 1
                    response = client.call(doc)
                    if response.get("code") != "breaker_open":
                        break
                    time.sleep(breaker_cooldown_s / 2)
                _check_responses(
                    verdict,
                    "recovery",
                    [doc],
                    [response],
                    False,
                    "recovered_clean",
                )

        # Degraded answers must be verified-legal and never cached.
        for doc, response in degraded_responses:
            try:
                verify_scheduler_output(
                    trace_from_dict(doc["program"]),
                    response["block_orders"],
                    machine_from_dict(doc["machine"]),
                )
            except Exception as exc:
                verdict.check(
                    False,
                    f"degraded schedule for {doc['id']!r} is illegal: {exc}",
                    "degraded_verified_legal",
                )
            verdict.check(
                service.cache.peek(response["digest"]) is None,
                f"degraded result for {doc['id']!r} was cached",
                "degraded_never_cached",
            )
        # The corrupted store must not poison a reload, and compaction
        # must leave a loadable file.
        reloaded = ScheduleCache(capacity=64, path=service.cache.path)
        live = len(reloaded)
        reloaded.compact()
        verdict.check(
            live > 0
            and len(ScheduleCache(capacity=64, path=service.cache.path))
            == live,
            "cache store failed to reload/compact after corruption",
            "store_survived_corruption",
        )
        stats = service.stats()

    _check_clean(verdict, stats, storm_end, "recovered_clean")
    admission = stats["admission"]
    accepted, shed = admission["accepted"], admission["shed_total"]
    verdict.check(
        admission["peak_depth"] <= queue_capacity,
        f"queue depth peaked at {admission['peak_depth']} "
        f"(capacity {queue_capacity})",
        "queue_depth_bounded",
    )
    verdict.check(
        shed == observed["shed_seen"],
        f"admission shed {shed} request(s) but clients saw "
        f"{observed['shed_seen']} overloaded response(s)",
        "shed_matches_overloaded_responses",
    )
    verdict.check(
        submitted > 0 and accepted + shed == submitted,
        f"admission accounted {accepted} accepted + {shed} shed, but "
        f"clients delivered {submitted} request(s)",
        "accepted_plus_shed_equals_submitted",
    )
    wall_s = time.perf_counter() - t_start
    return _finish(
        verdict,
        "serve_chaos",
        {"invariants": verdict.invariants, "chaos_wall_s": wall_s},
        {"chaos": wall_s},
        report_path,
        seed=seed,
        requests=requests,
        burst=burst,
        queue_capacity=queue_capacity,
        jobs=jobs,
        plan=plan.name,
        observed=observed,
        admission={
            "accepted": accepted,
            "shed": shed,
            "peak_depth": admission["peak_depth"],
            "brownouts": admission["brownouts"],
        },
        service={
            k: stats[k]
            for k in ("requests", "errors", "degraded", "deadline_exceeded")
        },
    )

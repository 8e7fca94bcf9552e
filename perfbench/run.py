"""The repository's benchmark: the library pipeline and the daemon.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``pipeline-deep``: ``algorithm_lookahead`` then ``simulate_trace`` in
  this process, on 16x10 idle-free traces (0/1 latencies, W=4, one unit);
- ``serve-cold``: ``repro serve`` at defaults, one client, closed loop,
  every request structurally distinct (every request misses the cache);
- ``serve-hot``: the same daemon; 90% of requests relabel a small cached
  working set, 10% are fresh; closed loop, and in the traced run an open
  loop at a fixed seeded Poisson rate;
- ``serve-isolated``: ``serve-cold`` against ``repro serve --jobs 2``.

Timing.  End-to-end timings come from closed loops and are reported in
ms at a nominal reference speed (see :mod:`refkernel`): reference samples
bracket every timed call or burst.  ``serve-hot``'s open loop runs in the
traced run only, and its latencies are raw, because a reference sample
would disturb the arrival schedule.  ``setup_s`` is the median of several
spawns of a fresh process until it is ready, scaled by the median of the
reference samples taken around the spawns (one spawn is too long for the
bracketing samples to describe it).

Every output is checked by :mod:`check`, which shares no code with the
program: orders, start times, unit capacities, issue width and makespan,
and every daemon response bit for bit against a direct
``compute_request`` made after the timed phase.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
amount of the workload untraced and again with the span wrappers of
:mod:`spans` installed (the library workload also once with the
program's own obs recorder on, for its counters), checks that the traced
outputs are identical to the untraced ones, and prints the per-layer
metrics.  Counts named in :data:`EXACT` repeat exactly for a fixed seed;
the benchmark prints their names before its result line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import client
import inputs
import spans
from refkernel import NOMINAL_REF_MS, Calibrator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for sockets and span files, relative to the checkout so
#: that the unix socket path stays short.
WORK = Path(".bench_build") / "perfbench"

SETUP_SPAWNS = 7
PIPELINE_CORPUS = 96
PIPELINE_BLOCKS = 16
PIPELINE_TRACED = 6
IN_FLIGHT = 8
#: Share of an end-to-end run's time spent in the closed-loop main phase;
#: the rest is bursts.
MAIN_SHARE = 0.75
#: Closed-loop main phases send at least this many requests, so that ten
#: samples lie beyond p95.
MIN_REQUESTS = 200
#: ``makespan_cycles`` of a daemon workload sums the answers to this many
#: requests of its stream, served or not, so it does not depend on speed.
QUALITY_REQUESTS = 600
#: Closed-loop requests of each pass of a traced daemon run (a fixed
#: number, so that the counts it yields are exact).
TRACED_REQUESTS = 120
HOT_RATE = 60.0
HOT_WORKING_SET = 256
HOT_FRESH_EVERY = 10
#: Open-loop validity: a run whose generator runs this late at p95, or
#: whose backlog of unanswered requests reaches this size, is invalid.
MAX_LAG_MS = 10.0
MAX_BACKLOG = 32

END_TO_END = {
    "setup_s": "s",
    "instr_per_s": "1/s",
    "makespan_cycles": "cycles",
    "peak_rss_mb": "MB",
    "req_ms_p50": "ms",
    "req_ms_p95": "ms",
    "throughput_rps": "1/s",
    "ok_share": "ratio",
}

PER_LAYER = {
    "core.lookahead.self_ms": "ms",
    "core.merge.self_ms": "ms",
    "core.rank.self_ms": "ms",
    "core.rank.list_schedule_ms": "ms",
    "core.rank.list_schedule_calls": "count",
    "core.rank.reranked_per_instr": "ratio",
    "core.idle.ms": "ms",
    "core.idle.trials": "count",
    "core.chop.ms": "ms",
    "core.chop.commit_ratio": "ratio",
    "core.lookahead.suffix_nodes_mean": "nodes",
    "core.lookahead.suffix_nodes_max": "nodes",
    "core.merge.relaxations": "count",
    "core.share": "ratio",
    "sim.window.ms": "ms",
    "sim.window.calls_per_request": "ratio",
    "sim.stall_cycles": "cycles",
    "robust.guard.verify_ms": "ms",
    "robust.guard.fallback_ratio": "ratio",
    "robust.pool.overhead_ms": "ms",
    "robust.pool.share_of_request": "ratio",
    "serve.protocol.decode_ms": "ms",
    "serve.protocol.decodes_per_request": "ratio",
    "serve.canonical.ms": "ms",
    "serve.cache.probe_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.service.dispatch_ms": "ms",
    "serve.service.respond_ms": "ms",
    "serve.daemon.queue_ms_p50": "ms",
    "serve.daemon.queue_ms_p95": "ms",
    "serve.daemon.batch_size_mean": "ratio",
    "serve.daemon.open_loop_ms_p50": "ms",
    "serve.daemon.open_loop_ms_p95": "ms",
    "obs.calls_per_instr": "ratio",
    "bench.ref_ms": "ms",
    "bench.raw_req_ms_p50": "ms",
    "bench.raw_instr_per_s": "1/s",
    "bench.tracing_overhead": "ratio",
    "bench.traced_coverage": "ratio",
    "bench.generator_lag_ms_p95": "ms",
}

#: Counts that repeat exactly for a fixed seed (per workload, where the
#: workload runs the layer).  Timing-dependent ratios such as the open
#: loop's batch size are not in this list.
EXACT = (
    "makespan_cycles",
    "sim.stall_cycles",
    "core.rank.list_schedule_calls",
    "core.rank.reranked_per_instr",
    "core.idle.trials",
    "core.chop.commit_ratio",
    "core.lookahead.suffix_nodes_mean",
    "core.lookahead.suffix_nodes_max",
    "core.merge.relaxations",
    "obs.calls_per_instr",
    "sim.window.calls_per_request",
    "serve.protocol.decodes_per_request",
    "robust.guard.fallback_ratio",
    "serve.cache.hit_ratio",
    "serve.daemon.batch_size_mean (closed loops: serve-cold, serve-isolated)",
)


class Run:
    """Tallies of one run: attempts, failures and their first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:1]


def pct(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- pipeline-deep -----------------------------------------------------------

LIBRARY_SETUP = """
import sys
sys.path.insert(0, {src!r})
from repro.core import algorithm_lookahead
from repro.machine.model import MachineModel
from repro.serve.protocol import trace_from_dict
from repro.sim import simulate_trace
trace = trace_from_dict({program!r})
machine = MachineModel(window_size=4, fu_counts={{"any": 1}})
simulate_trace(trace, algorithm_lookahead(trace, machine).block_orders, machine)
"""


def library_setup_s(seed: int) -> float:
    """A fresh interpreter: ``import repro`` plus the first call."""
    code = LIBRARY_SETUP.format(src=str(SRC), program=inputs.deep_trace(seed, -1, 4))
    cal = Calibrator()
    times = []
    for _ in range(SETUP_SPAWNS):
        cal.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    cal.sample()
    return statistics.median(times) * NOMINAL_REF_MS / cal.median_ms()


def run_library_trace(program: dict, machine, cal: Calibrator | None):
    """Decode (untimed), then schedule and simulate one trace (timed)."""
    from repro.core import algorithm_lookahead
    from repro.serve.protocol import trace_from_dict
    from repro.sim import simulate_trace

    trace = trace_from_dict(program)
    ref = cal.sample() if cal is not None else None
    t0 = time.perf_counter_ns()
    result = algorithm_lookahead(trace, machine)
    sim = simulate_trace(trace, result.block_orders, machine)
    raw_ms = (time.perf_counter_ns() - t0) / 1e6
    out = {
        "block_orders": result.block_orders,
        "starts": dict(sim.schedule.starts),
        "units": {n: list(u) for n, u in sim.schedule.units.items()},
        "makespan": sim.makespan,
        "stall_cycles": sim.stall_cycles,
        "schedule_digest": sim.schedule.digest(),
    }
    return out, raw_ms, ref, result


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so that
    the reference kernel is timed on the CPU the measured work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def pipeline_deep(seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    from repro.machine.model import MachineModel

    pin_to_one_cpu()
    machine = MachineModel(window_size=4, fu_counts={"any": 1})
    machine_doc = inputs.paper_machine(4)
    corpus = [inputs.deep_trace(seed, i, PIPELINE_BLOCKS) for i in range(PIPELINE_CORPUS)]
    run = Run()
    run_library_trace(inputs.deep_trace(seed, -1, 4), machine, None)  # warm-up
    if trace:
        return run, pipeline_traced(corpus[:PIPELINE_TRACED], machine, machine_doc, run)

    cal = Calibrator()
    first: list[dict] = []
    timed = []
    end = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < end:
        for k, program in enumerate(corpus):
            out, raw_ms, ref, _ = run_library_trace(program, machine, cal)
            timed.append((raw_ms, ref))
            if passes == 0:
                first.append(out)
                run.record(check.check_result(program, machine_doc, out))
            else:
                run.record(check.check_response({"ok": True, **out}, first[k]))
        passes += 1
    cal.sample()
    raw = [t for t, _ in timed]
    norm = [t * cal.factor(ref) for t, ref in timed]
    # Latency percentiles over each trace's mean across passes, which damps
    # the host's per-call jitter without hiding a slow trace.
    per_trace = [statistics.mean(norm[k::len(corpus)]) for k in range(len(corpus))]
    instrs = passes * sum(inputs.instructions(p) for p in corpus)
    metrics = {
        "setup_s": library_setup_s(seed),
        "instr_per_s": instrs / (sum(norm) / 1e3),
        "makespan_cycles": sum(o["makespan"] for o in first),
        "peak_rss_mb": client.peak_rss_mb(),
        "req_ms_p50": pct(per_trace, 0.5),
        "req_ms_p95": pct(per_trace, 0.95),
        "throughput_rps": len(norm) / (sum(norm) / 1e3),
        "ok_share": (run.attempted - run.failed) / run.attempted,
    }
    print(f"pipeline-deep: {passes} passes of {len(corpus)} traces, raw p50 {pct(raw, 0.5):.1f} ms, "
          f"reference median {cal.median_ms():.2f} ms")
    return run, metrics


def pipeline_traced(corpus, machine, machine_doc, run: Run) -> dict:
    """Untraced, counted (obs recorder on) and traced passes over the same
    traces; outputs must agree."""
    from repro.obs import recording
    from repro.obs.recorder import TraceRecorder

    cal = Calibrator()
    untraced, plain, suffix = [], [], []
    for program in corpus:
        out, raw_ms, ref, result = run_library_trace(program, machine, cal)
        untraced.append(out)
        plain.append((raw_ms, ref))
        run.record(check.check_result(program, machine_doc, out))
        for step, block in zip(result.steps, program["blocks"]):
            suffix.append(len(step.merge.schedule.graph) - len(block["nodes"]))

    with recording(TraceRecorder(sim_events=False, counter_samples=False)) as rec:
        for program in corpus:
            run_library_trace(program, machine, None)
    counters = rec.counters

    store = spans.SpanStore()
    spans.install(store)
    obs_calls = spans.count_calls("repro.obs.recorder", ("span", "count"))
    traced = []
    for program, expect in zip(corpus, untraced):
        out, raw_ms, ref, _ = run_library_trace(program, machine, cal)
        traced.append((raw_ms, ref))
        run.record(check.check_response({"ok": True, **out}, expect))
    cal.sample()
    plain_ms = [t * cal.factor(ref) for t, ref in plain]
    traced_ms = [t * cal.factor(ref) for t, ref in traced]
    scale = NOMINAL_REF_MS / cal.median_ms()
    selfs = {k: v * scale / len(corpus) for k, v in spans.self_times_ms(store.spans).items()}
    traced_total = sum(traced_ms) / len(corpus)
    core = sum(v for k, v in selfs.items() if k.startswith("core."))
    instrs = sum(inputs.instructions(p) for p in corpus)
    metrics = layer_selfs(selfs)
    metrics.update({
        "core.rank.list_schedule_calls": store.counts.get("core.rank.list_schedule", 0),
        "core.rank.reranked_per_instr": counters.get("rank.engine.reranked", 0) / instrs,
        "core.idle.trials": counters.get("idle.trials", 0),
        "core.chop.commit_ratio": counters.get("chop.committed", 0) / instrs,
        "core.lookahead.suffix_nodes_mean": statistics.mean(suffix),
        "core.lookahead.suffix_nodes_max": max(suffix),
        "core.merge.relaxations": counters.get("merge.relaxations", 0),
        "core.share": merge_rank_share(selfs),
        "sim.window.calls_per_request": len(spans.outermost(store.spans, "sim.window")) / len(corpus),
        "sim.stall_cycles": sum(o["stall_cycles"] for o in untraced),
        "obs.calls_per_instr": obs_calls() / instrs,
        "bench.ref_ms": cal.median_ms(),
        "bench.raw_req_ms_p50": pct([t for t, _ in plain], 0.5),
        "bench.raw_instr_per_s": instrs / (sum(t for t, _ in plain) / 1e3),
        "bench.tracing_overhead": sum(traced_ms) / sum(plain_ms) - 1.0,
        "bench.traced_coverage": (sum(selfs.values())) / traced_total,
    })
    print(f"pipeline-deep traced: core self {core:.1f} ms of {traced_total:.1f} ms per trace")
    return metrics


def merge_rank_share(selfs: dict[str, float]) -> float:
    """Share of all traced self time spent in merge and the rank engine."""
    merge_rank = sum(selfs.get(k, 0.0) for k in
                     ("core.merge", "core.rank", "core.rank.list_schedule"))
    return merge_rank / sum(selfs.values())


def layer_selfs(selfs: dict[str, float]) -> dict[str, float]:
    """Per-layer self times (ms per request or trace) by metric name."""
    return {
        "core.lookahead.self_ms": selfs.get("core.lookahead", 0.0),
        "core.merge.self_ms": selfs.get("core.merge", 0.0),
        "core.rank.self_ms": selfs.get("core.rank", 0.0),
        "core.rank.list_schedule_ms": selfs.get("core.rank.list_schedule", 0.0),
        "core.idle.ms": selfs.get("core.idle", 0.0),
        "core.chop.ms": selfs.get("core.chop", 0.0),
        "sim.window.ms": selfs.get("sim.window", 0.0),
        "robust.guard.verify_ms": selfs.get("robust.guard.verify", 0.0),
    }


# -- daemon workloads --------------------------------------------------------


def cold_docs(seed: int, seen: set):
    """Distinct random requests, machines and schedulers cycling: no two
    are isomorphic, so every one misses the cache."""
    i = 0
    while True:
        yield inputs.distinct_doc(seed, i, "cold", seen)
        i += 1


def hot_docs(seed: int, working_set: list[dict], seen: set):
    """Every tenth request fresh (isomorphic to no earlier request), the
    rest order-preserving relabelings of a seeded choice from the cached
    working set."""
    rng = random.Random(f"hot-mix-{seed}")
    i = 0
    while True:
        if i % HOT_FRESH_EVERY == HOT_FRESH_EVERY - 1:
            yield inputs.distinct_doc(seed, i, "fresh", seen)
        else:
            yield inputs.relabeled(working_set[rng.randrange(len(working_set))], f"h{i}")
        i += 1


def stream(name: str, seed: int) -> tuple[list[dict], object]:
    """The workload's untimed warm-up requests and its request stream."""
    seen: set = set()
    if name == "serve-hot":
        working_set = [inputs.distinct_doc(seed, j, "hot", seen) for j in range(HOT_WORKING_SET)]
        return working_set, hot_docs(seed, working_set, seen)
    return [inputs.distinct_doc(seed, 0, "warm", seen)], cold_docs(seed, seen)


def stamp(docs, prefix: str):
    """Give every request its own protocol trace id."""
    for k, doc in enumerate(docs):
        yield {**doc, "trace": {"trace_id": f"{prefix}{k}"}}


def daemon_setup(jobs: int, socket_path: str) -> tuple[client.Daemon, float]:
    """Start the daemon several times; keep the last one running."""
    cal = Calibrator()
    times = []
    for k in range(SETUP_SPAWNS):
        cal.sample()
        daemon = client.Daemon(ROOT, socket_path, jobs)
        times.append(daemon.setup_s)
        cal.sample()
        if k < SETUP_SPAWNS - 1:
            daemon.stop()
    return daemon, statistics.median(times) * NOMINAL_REF_MS / cal.median_ms()


class Direct:
    """Direct ``compute_request`` answers, made outside any timed region,
    each checked by the independent checker; memoized per program."""

    def __init__(self) -> None:
        self.memo: dict[str, dict] = {}

    def get(self, doc: dict) -> dict:
        from repro.serve.worker import compute_request

        key = json.dumps([doc["program"], doc["machine"], doc["scheduler"]], sort_keys=True)
        if key not in self.memo:
            result = compute_request(doc)
            self.memo[key] = {
                "result": result,
                "problems": check.check_result(doc["program"], doc["machine"], result),
            }
        return self.memo[key]


def check_records(records: list[dict], run: Run, phase: str, direct: Direct,
                  all_miss: bool) -> None:
    """Check every response; with ``all_miss``, the workload's requests are
    distinct, so a cache hit is a failure too."""
    failed_before = run.failed
    for r in records:
        r["direct"] = direct.get(r["doc"])
        if r["response"] is None:
            run.record(["missing response"])
            continue
        problems = r["direct"]["problems"] + check.check_response(
            r["response"], r["direct"]["result"])
        if all_miss and r["response"].get("cached"):
            problems.append("cache hit on a request isomorphic to no earlier one")
        run.record(problems)
    print(f"phase {phase}: sent {len(records)}, ok {len(records) - run.failed + failed_before}, "
          f"failed {run.failed - failed_before}")


def quality_makespan(name: str, seed: int, direct: Direct) -> int:
    """Summed makespan of the answers to the first QUALITY_REQUESTS
    requests of the workload's stream (exact for a fixed seed)."""
    docs = itertools.islice(stream(name, seed)[1], QUALITY_REQUESTS)
    return sum(direct.get(doc)["result"]["makespan"] for doc in docs)


def serve_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    jobs = 2 if name == "serve-isolated" else 1
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    socket_path = str(WORK / "d.sock")
    run = Run()
    # Every batch holds one request (one connection, answered in order), so
    # even with --jobs 2 only one worker runs at a time: pinning removes no
    # parallelism.
    pin_to_one_cpu()
    if trace:
        return run, serve_traced(name, seed, seconds, jobs, socket_path, run)

    daemon, setup_s = daemon_setup(jobs, socket_path)
    cal = Calibrator()
    try:
        main_records, (burst_records, raw_s, norm_s), _ = drive(
            name, seed, seconds, daemon, cal)
        stats = daemon.stats()
        rss = client.peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    direct = Direct()
    check_records(main_records, run, "main", direct, name != "serve-hot")
    check_records(burst_records, run, "burst", direct, name != "serve-hot")
    latencies = [r["norm_ms"] for r in main_records if r["response"] is not None]
    answered = main_records + burst_records
    instrs = sum(inputs.instructions(r["doc"]) for r in answered)
    busy_s = sum(latencies) / 1e3 + norm_s
    metrics = {
        "setup_s": setup_s,
        "instr_per_s": instrs / busy_s,
        "makespan_cycles": quality_makespan(name, seed, direct),
        "peak_rss_mb": rss,
        "req_ms_p50": pct(latencies, 0.5),
        "req_ms_p95": pct(latencies, 0.95),
        "throughput_rps": len(answered) / busy_s,
        "ok_share": (run.attempted - run.failed) / run.attempted,
    }
    print(f"{name}: {len(main_records)} main requests, {len(burst_records)} in bursts "
          f"({len(burst_records) / max(raw_s, 1e-9):.1f} req/s raw), daemon stats "
          f"{stats['requests']} requests in {stats['batches']} batches")
    return run, metrics


def drive(name: str, seed: int, seconds: float, daemon: client.Daemon,
          cal: Calibrator, traced_pass: bool = False):
    """Warm the daemon up (untimed), then run the workload's phases.

    An end-to-end run has a closed-loop main phase (at least
    MIN_REQUESTS requests) and a burst phase.  A pass of the traced run
    has one phase: ``serve-hot``'s open loop, or exactly TRACED_REQUESTS
    closed-loop requests.  Returns main records, burst results or None,
    and open-loop validity figures or None."""
    conn = client.Conn(daemon.socket_path)
    warm, docs = stream(name, seed)
    try:
        for doc in warm:
            conn.call(doc)
        if traced_pass and name == "serve-hot":
            due = client.poisson_schedule(seed, HOT_RATE, seconds)
            batch = list(stamp(itertools.islice(docs, len(due)), "o"))
            conns = [client.Conn(daemon.socket_path) for _ in range(2)]
            try:
                result = client.open_loop(conns, batch, due)
            finally:
                for c in conns:
                    c.close()
            return result["records"], None, open_loop_validity(result)
        if traced_pass:
            return client.closed_loop(conn, stamp(docs, "c"), 0.0, cal, TRACED_REQUESTS), None, None
        main = client.closed_loop(conn, stamp(docs, "c"), seconds * MAIN_SHARE, cal,
                                  MIN_REQUESTS)
        burst = client.bursts(conn, stamp(docs, "b"), seconds * (1 - MAIN_SHARE),
                              IN_FLIGHT, cal)
        return main, burst, None
    finally:
        conn.close()


class InvalidRun(RuntimeError):
    """The open loop did not hold its schedule; no numbers are produced."""


def open_loop_validity(result: dict) -> dict:
    records, backlog = result["records"], result["backlog"]
    lags = [r["lag_ms"] for r in records]
    lag_p95 = pct(lags, 0.95)
    print(f"open loop: sent {len(records)}, answered "
          f"{sum(r['response'] is not None for r in records)}, generator lag p95 "
          f"{lag_p95:.2f} ms, max backlog {max(backlog)}")
    if lag_p95 > MAX_LAG_MS:
        raise InvalidRun(f"generator lag p95 {lag_p95:.1f} ms > {MAX_LAG_MS} ms")
    if max(backlog) >= MAX_BACKLOG:
        raise InvalidRun(f"backlog reached {max(backlog)} requests")
    if len(records) < 200:
        raise InvalidRun(f"only {len(records)} open-loop requests (need 200)")
    return {"lag_p95": lag_p95}


def serve_traced(name: str, seed: int, seconds: float, jobs: int,
                 socket_path: str, run: Run) -> dict:
    """The main phase twice, on an untraced and on a traced daemon; the
    per-layer metrics come from the untraced run's server blocks and the
    traced run's spans."""
    results = {}
    for traced in (False, True):
        span_dir = WORK / "spans" if traced else None
        if span_dir is not None:
            span_dir.mkdir(parents=True)
        daemon = client.Daemon(ROOT, socket_path, jobs, span_dir=span_dir)
        cal = Calibrator()
        try:
            main, _, extra = drive(name, seed, seconds, daemon, cal, traced_pass=True)
            stats = daemon.stats()
        finally:
            daemon.stop()
        results[traced] = (main, extra, stats, cal)

    plain, extra, stats, cal = results[False]
    traced_records = results[True][0]
    check_records(plain, run, "untraced", Direct(), name != "serve-hot")
    for a, b in zip(plain, traced_records):
        run.record(check.check_response(b["response"] or {}, a["response"] or {}))

    scale = NOMINAL_REF_MS / cal.median_ms() if cal.samples else 1.0
    ok = [r for r in plain if r["response"] and r["response"].get("ok")]
    misses = [r for r in ok if not r["response"]["cached"]]

    def phase_ms(records, key) -> float:
        vals = [r["response"]["server"]["phases"].get(key, 0.0) * 1e3 * r["factor"]
                for r in records]
        return statistics.median(vals) if vals else 0.0

    overhead = [
        (r["response"]["server"]["phases"]["dispatch_s"]
         - r["response"]["server"]["worker"]["phases"]["schedule_s"]
         - r["response"]["server"]["worker"]["phases"]["simulate_s"]) * 1e3 * r["factor"]
        for r in misses
    ]
    queue = [r["client_ms"] - r["response"]["server"]["duration_s"] * 1e3 for r in ok]
    client_ms = [r["norm_ms"] for r in ok]
    span_list = spans.load(WORK / "spans")
    counts: dict[str, int] = {}
    for s in span_list:
        counts[s["name"]] = counts.get(s["name"], 0) + 1
    computed = max(counts.get("serve.worker", 0), 1)
    raw_selfs = spans.self_times_ms(span_list)
    selfs = {k: v * scale / computed for k, v in raw_selfs.items()}
    traced_ms = [r["client_ms"] for r in traced_records if r["response"]]
    plain_ms = [r["client_ms"] for r in plain if r["response"]]
    batch_ms = sum(s["end"] - s["start"] for s in span_list if s["name"] == "serve.service") / 1e6
    metrics = layer_selfs(selfs)
    metrics.update({
        "core.rank.list_schedule_calls": counts.get("core.rank.list_schedule", 0),
        "core.share": merge_rank_share(raw_selfs),
        "sim.window.calls_per_request": len(spans.outermost(span_list, "sim.window")) / computed,
        "sim.stall_cycles": sum(r["direct"]["result"]["stall_cycles"] for r in plain),
        "robust.guard.fallback_ratio": counts.get("robust.guard.fallback", 0)
        / max(counts.get("robust.guard", 0), 1),
        "robust.pool.overhead_ms": statistics.median(overhead) if overhead else 0.0,
        "robust.pool.share_of_request": (statistics.median(overhead) / pct(client_ms, 0.5)
                                         if overhead else 0.0),
        "serve.protocol.decode_ms": phase_ms(ok, "decode_s"),
        "serve.protocol.decodes_per_request": counts.get("serve.protocol.decode", 0)
        / stats["requests"],
        "serve.canonical.ms": phase_ms(ok, "canonicalize_s"),
        "serve.cache.probe_ms": phase_ms(ok, "cache_probe_s"),
        "serve.cache.hit_ratio": stats["cache_hit_ratio"] or 0.0,
        "serve.service.dispatch_ms": phase_ms(misses, "dispatch_s"),
        "serve.service.respond_ms": phase_ms(ok, "respond_s"),
        "serve.daemon.queue_ms_p50": pct(queue, 0.5),
        "serve.daemon.queue_ms_p95": pct(queue, 0.95),
        "serve.daemon.batch_size_mean": stats["requests"] / stats["batches"],
        "bench.ref_ms": cal.median_ms() if cal.samples else 0.0,
        "bench.raw_req_ms_p50": pct(plain_ms, 0.5),
        "bench.raw_instr_per_s": sum(inputs.instructions(r["doc"]) for r in plain)
        / (sum(plain_ms) / 1e3),
        "bench.tracing_overhead": pct(traced_ms, 0.5) / pct(plain_ms, 0.5) - 1.0,
        # Share of the client-observed time that the daemon's batch
        # handling accounts for; the rest is transport and queueing.
        "bench.traced_coverage": batch_ms / sum(traced_ms),
        "bench.generator_lag_ms_p95": extra["lag_p95"] if extra else 0.0,
        "serve.daemon.open_loop_ms_p50": pct(plain_ms, 0.5) if extra else 0.0,
        "serve.daemon.open_loop_ms_p95": pct(plain_ms, 0.95) if extra else 0.0,
    })
    return metrics


# -- entry point -------------------------------------------------------------

WORKLOADS = ("pipeline-deep", "serve-cold", "serve-hot", "serve-isolated")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "pipeline-deep":
            run, metrics = pipeline_deep(args.seed, args.seconds, bool(args.trace))
        else:
            run, metrics = serve_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in run.problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print("exact counts: " + ", ".join(EXACT))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans recorded from the benchmark's own files around calls into each
layer of the program.

:func:`install` replaces each public function listed in :data:`LAYERS`
with a wrapper wherever the name is looked up: the defining module, every
loaded ``repro`` module that imported it by name, and the class for
methods.  The program's files are not touched.  A wrapper records one
span (name, start, end, parent, trace id) and one call count.  Spans stay
in memory until the root span of a thread closes; then, if the store has
an output directory, they are appended to ``spans-<pid>.jsonl`` there,
so spans recorded in forked pool workers survive the worker.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (module, attribute, span name); ``Class.method`` attributes wrap methods.
LAYERS = (
    ("repro.core.lookahead", "algorithm_lookahead", "core.lookahead"),
    ("repro.core.lookahead", "merge", "core.merge"),
    ("repro.core.lookahead", "delay_idle_slots", "core.idle"),
    ("repro.core.lookahead", "chop", "core.chop"),
    ("repro.core.merge", "list_schedule", "core.rank.list_schedule"),
    ("repro.core.merge", "rank_schedule", "core.rank"),
    ("repro.core.rank", "RankEngine.carried_into", "core.rank"),
    ("repro.core.rank", "RankEngine.set_deadlines", "core.rank"),
    ("repro.sim.window", "simulate_trace", "sim.window"),
    ("repro.sim.window", "simulate_window", "sim.window"),
    ("repro.robust.guard", "GuardedScheduler.schedule", "robust.guard"),
    ("repro.robust.guard", "GuardedScheduler._fallback", "robust.guard.fallback"),
    ("repro.robust.guard", "verify_scheduler_output", "robust.guard.verify"),
    ("repro.robust.pool", "ExecutionPool.run", "robust.pool"),
    ("repro.serve.protocol", "ScheduleRequest.from_dict", "serve.protocol.decode"),
    ("repro.serve.service", "canonical_form", "serve.canonical"),
    ("repro.serve.cache", "ScheduleCache.get", "serve.cache.get"),
    ("repro.serve.cache", "ScheduleCache.put", "serve.cache.put"),
    ("repro.serve.service", "ScheduleService.handle_batch", "serve.service"),
    ("repro.serve.worker", "compute_request", "serve.worker"),
)


class SpanStore:
    """In-memory spans and call counts of one process."""

    def __init__(self, out_dir: str | os.PathLike | None = None) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        """Forget everything (a forked child starts with an empty store)."""
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.trace_of_digest: dict[str, str] = {}
        self._next_id = 0
        self._local = threading.local()
        #: Trace id given to root spans with no trace of their own.
        self.current_trace: str | None = None

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        store = self

        def wrapper(*args, **kwargs):
            stack = store._stack()
            parent = stack[-1] if stack else None
            with store._lock:
                store._next_id += 1
                span = {"id": store._next_id, "pid": store.pid, "name": name,
                        "parent": parent["id"] if parent else None,
                        "trace": _trace_of(store, args, parent)}
                store.counts[name] = store.counts.get(name, 0) + 1
            stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
                with store._lock:
                    store.spans.append(span)
            _note_result(store, name, span, result)
            if not stack and store.out_dir is not None:
                store.flush()
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__module__ = getattr(fn, "__module__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def flush(self) -> None:
        """Append the pending spans to this process's file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")


def _trace_of(store: SpanStore, args: tuple, parent: dict | None) -> str | None:
    """The request trace a span belongs to: the wire document's own trace
    id, else the parent's, else the digest's, else the current one."""
    for arg in args:
        if isinstance(arg, dict) and isinstance(arg.get("trace"), dict):
            return arg["trace"].get("trace_id")
    if parent is not None and parent["trace"] is not None:
        return parent["trace"]
    for arg in args:
        if isinstance(arg, str) and arg in store.trace_of_digest:
            return store.trace_of_digest[arg]
    return store.current_trace


def _note_result(store: SpanStore, name: str, span: dict, result) -> None:
    """Carry a request's trace id from decode to canonicalization and from
    there, by digest, to the cache probe."""
    if name == "serve.protocol.decode":
        store.current_trace = getattr(result, "trace_id", None)
        span["trace"] = store.current_trace
    elif name == "serve.canonical":
        digest = getattr(result, "digest", None)
        if digest is not None and span["trace"] is not None:
            store.trace_of_digest[digest] = span["trace"]


def install(store: SpanStore) -> None:
    """Wrap every function in :data:`LAYERS` wherever it is looked up."""
    for module_name, attr, name in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(store.wrap(raw.__func__, name)))
            else:
                setattr(cls, meth, store.wrap(raw, name))
            continue
        original = getattr(module, attr)
        _replace(original, store.wrap(original, name))


def _replace(original, replacement) -> None:
    """Rebind every name in a loaded ``repro`` module that refers to
    ``original``."""
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro"):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)


def count_calls(module_name: str, attrs: tuple[str, ...]):
    """Count calls to the named functions (no spans); returns a function
    that reads the total."""
    module = importlib.import_module(module_name)
    total = [0]

    def counting(fn):
        def counter(*args, **kwargs):
            total[0] += 1
            return fn(*args, **kwargs)
        return counter

    for attr in attrs:
        original = getattr(module, attr)
        _replace(original, counting(original))
    return lambda: total[0]


def load(out_dir: str | os.PathLike) -> list[dict]:
    """Every span written under ``out_dir``."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def self_times_ms(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children
    cover, in ms."""
    child_ns: dict[tuple, int] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_ns[key] = child_ns.get(key, 0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_ns.get((s["pid"], s["id"]), 0)
        out[s["name"]] = out.get(s["name"], 0.0) + own / 1e6
    return out


def outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` whose parent is not also called ``name``."""
    by_id = {(s["pid"], s["id"]): s for s in spans}
    return [
        s for s in spans
        if s["name"] == name
        and by_id.get((s["pid"], s["parent"]), {}).get("name") != name
    ]

"""Scheduling-as-a-service: a long-lived daemon with a content-addressed
schedule cache (``repro serve``, see ``docs/SERVING.md``).

The pipeline turns one-shot library calls into a service:

- :mod:`repro.serve.canonical` — program-order canonical forms; the
  sha256 **canonical digest** that keys the cache, invariant under node
  renaming that keeps program order, so relabeled kernels hit;
- :mod:`repro.serve.protocol` — the JSON wire format (requests, responses,
  trace/machine codecs, :class:`ProtocolError`);
- :mod:`repro.serve.cache` — :class:`ScheduleCache`, a bounded in-memory
  LRU over an append-only on-disk JSONL store, instrumented with
  ``serve.cache.{hit,miss,evict}``;
- :mod:`repro.serve.worker` — the module-level (picklable) compute
  function dispatched through :class:`repro.robust.ExecutionPool`;
- :mod:`repro.serve.service` — :class:`ScheduleService`, the
  transport-independent brain: decode, canonicalize, dedupe, cache
  lookup, pooled compute, per-request telemetry;
- :mod:`repro.serve.daemon` — :class:`ScheduleServer`, the asyncio
  front-end (unix-socket JSONL and minimal HTTP) with request batching;
- :mod:`repro.serve.client` — blocking clients for both transports;
- :mod:`repro.serve.chaos` — seeded :class:`ChaosPlan` worker faults and
  their active-plan registry;
- :mod:`repro.serve.scenario` — the one daemon scenario driver: boot,
  drive, check; its fault-free run is the smoke
  (``python -m repro.serve.smoke``, :mod:`repro.serve.smoke`) and its
  storm-plan run is ``repro serve-chaos``.
"""

from __future__ import annotations

from .cache import ScheduleCache
from .canonical import CanonicalForm, canonical_form, payload_digest, relabel_trace
from .protocol import (
    PROTOCOL_VERSION,
    SCHEDULER_NAMES,
    ProtocolError,
    ScheduleRequest,
)
from .service import ScheduleService

__all__ = [
    "CanonicalForm",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SCHEDULER_NAMES",
    "ScheduleCache",
    "ScheduleRequest",
    "ScheduleService",
    "canonical_form",
    "payload_digest",
    "relabel_trace",
]

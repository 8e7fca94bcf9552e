"""Serve-tier chaos plans: seeded adversity around a live daemon.

:mod:`repro.robust.faults` injects adversity *inside* the simulator; a
:class:`ChaosPlan` injects it around the **serving** path, where the
failure modes are operational: workers that die mid-compute
(``os._exit``), workers that hang past the pool's stall timeout, and
schedulers that run long enough to blow the guard's budget.

A plan is a frozen, seeded description of that adversity, installed via
the same module-global registry pattern as
:func:`repro.robust.faults.injection` — the daemon's forked pool workers
inherit the installed plan, and every per-request action is drawn from a
CRC-seeded RNG keyed by the request id, so a plan replays bit-identically
and a driver can predict which request suffers what.

:func:`repro.serve.scenario.run_chaos` (``repro serve-chaos``) installs
:func:`default_chaos_plan` and adds the client-side adversity itself
(malformed, oversized and half-sent frames, an overload burst, a torn
cache store); :func:`repro.serve.scenario.run_smoke` is the same driver
with no plan installed.
"""

from __future__ import annotations

import random
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

#: Worker-side actions a plan can assign to one request.
WORKER_ACTIONS = ("exit", "hang", "slow")


@dataclass(frozen=True)
class ChaosPlan:
    """A reproducible description of serve-tier adversity.

    Worker rates are per-request probabilities drawn deterministically
    from ``seed`` and the request id; a default-constructed plan injects
    nothing.  ``hang_s`` must exceed the service's pool stall timeout (so
    a hang is settled by the pool, not by finishing early) and ``slow_s``
    must exceed the worker guard's time budget but stay under the pool
    timeout (so a slow scheduler degrades instead of being declared
    hung).
    """

    name: str = "noop"
    seed: int = 0
    #: Probability one compute calls ``os._exit`` mid-request (needs
    #: ``jobs >= 2``: with in-process compute this would kill the daemon).
    crash_rate: float = 0.0
    #: Probability one compute hangs hard (pool stall timeout settles it;
    #: needs ``jobs >= 2`` for the same reason).
    hang_rate: float = 0.0
    hang_s: float = 30.0
    #: Probability the primary scheduler sleeps ``slow_s`` inside the
    #: guard — degrading to the verified fallback.
    slow_rate: float = 0.0
    slow_s: float = 0.4

    def __post_init__(self) -> None:
        for field_name in ("crash_rate", "hang_rate", "slow_rate"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if self.hang_s <= 0 or self.slow_s <= 0:
            raise ValueError("hang_s and slow_s must be > 0")

    @property
    def is_noop(self) -> bool:
        return (
            self.crash_rate == 0.0
            and self.hang_rate == 0.0
            and self.slow_rate == 0.0
        )

    def rng(self, tag: str, salt: int = 0) -> random.Random:
        """A deterministic RNG for one injection site (CRC-mixed so it is
        independent of ``PYTHONHASHSEED``, same derivation as
        :meth:`repro.robust.faults.FaultPlan.rng`)."""
        mix = zlib.crc32(tag.encode("utf-8"))
        return random.Random((self.seed * 1000003 + salt) ^ mix)

    def worker_action(self, request_id: object) -> str | None:
        """The worker-side action this plan assigns to ``request_id`` —
        one of :data:`WORKER_ACTIONS` or ``None``.  Pure function of
        (plan, id): the driver predicts with the same call the worker
        obeys."""
        if not isinstance(request_id, str) or self.is_noop:
            return None
        draw = self.rng(
            "worker.action", zlib.crc32(request_id.encode("utf-8"))
        ).random()
        if draw < self.crash_rate:
            return "exit"
        draw -= self.crash_rate
        if draw < self.hang_rate:
            return "hang"
        draw -= self.hang_rate
        if draw < self.slow_rate:
            return "slow"
        return None

    def for_jobs(self, jobs: int) -> "ChaosPlan":
        """The plan adjusted for the pool size: with in-process compute
        (``jobs < 2``) the process-killing actions are disabled."""
        if jobs >= 2:
            return self
        return replace(self, crash_rate=0.0, hang_rate=0.0)

    def reseeded(self, seed: int) -> "ChaosPlan":
        return replace(self, seed=seed)


#: The standard chaos mix the CI gate runs (crash + hang + slow together).
def default_chaos_plan(seed: int = 0) -> ChaosPlan:
    return ChaosPlan(
        name="storm",
        seed=seed,
        crash_rate=0.10,
        hang_rate=0.05,
        slow_rate=0.12,
    )


# ---------------------------------------------------------------------------
# Active-plan registry (mirrors repro.robust.faults: module-global slot,
# None by default, installed via context manager; forked pool workers
# inherit whatever is installed at fork time).

_active: ChaosPlan | None = None


def active_plan() -> ChaosPlan | None:
    """The installed plan, or ``None`` (chaos off — the hot path)."""
    return _active


def set_plan(plan: ChaosPlan | None) -> ChaosPlan | None:
    """Install ``plan`` globally (``None``/no-op turns chaos off); returns
    the previous plan."""
    global _active
    previous = _active
    _active = None if plan is None or plan.is_noop else plan
    return previous


@contextmanager
def injection(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Install ``plan`` for the duration of the block."""
    previous = set_plan(plan)
    try:
        yield plan
    finally:
        set_plan(previous)

"""Deterministic, seedable fault injection for the serving tier.

Resilience claims that are not continuously exercised rot: the only way to
*know* that a failed sketch build degrades to the grounded path, or that a
poisoned query cannot take its batch neighbours down, is to make those
failures happen on demand.  This module is the harness: a declarative
:class:`FaultPlan` of :class:`FaultRule` entries is armed on a service
(:meth:`~repro.serve.service.LaplacianService.arm_faults`), and the planner
calls the resulting :class:`FaultInjector`'s seams at the few places real
failures originate:

``build``
    an artifact build of a given ``kind`` (``"preprocessing"``,
    ``"grounded"``, ``"resistance_oracle"``, ``"sketched_resistance"``,
    ``"gram_structure"``, ``"certification"``) raises before
    the builder runs -- the deterministic stand-in for singular ``splu``,
    ``MemoryError`` on a ``k``-column sketch, ARPACK non-convergence.
``execute``
    batch execution raises when the batch contains a matching query
    (by ``query_id`` and/or query ``kind``) -- the stand-in for a kernel
    blowing up mid-batch, which is what batch bisection contains.
``repair``
    a repair walk raises at a chosen ``step`` of the mutation delta -- the
    stand-in for a mid-walk crash, which must fall back to rebuild.
``nan``
    a matching query's *output* is silently overwritten with NaN before the
    planner's numerical-health guard sees it -- proving the guard refuses
    (``NumericalHealthError``) instead of returning garbage.
``worker_kill`` / ``worker_wedge`` / ``worker_drop_ping``
    *process-tier* faults, driven from the cluster parent's health-monitor
    tick rather than the planner: hard-kill a worker process, inject a
    blocking delay into a worker's message loop (a hang without a crash),
    or discard a worker's heartbeat reply.  These seams never raise -- they
    return the seeded decision and the monitor performs the action (see
    ``ClusterService``).

Latency is injected through ``delay_seconds`` on any rule (with
``fail=False`` for a pure slowdown), which is how deadline enforcement is
tested without real slow hardware.

Determinism: given the same :class:`FaultPlan` (rules + seed) and the same
query stream, the injector makes identical decisions -- probabilistic rules
draw from one seeded generator in stream order.  Unarmed services pay one
dictionary lookup per seam (the default injector holds an empty plan).

Faults raise :class:`FaultInjectionError`, or :class:`TransientFaultError`
when the rule is marked ``transient=True`` -- the latter is what
:class:`~repro.serve.resilience.ResiliencePolicy` retries with backoff.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Operations a :class:`FaultRule` can target (see the module docstring).
FAULT_OPS = (
    "build",
    "execute",
    "repair",
    "nan",
    "worker_kill",
    "worker_wedge",
    "worker_drop_ping",
)

#: Worker-scoped ops: driven from the cluster parent's health-monitor tick,
#: never from the planner's seams.  These never raise -- the monitor reads
#: the decision and performs the action (kill the process, send a wedge
#: message, discard a heartbeat) itself.
WORKER_FAULT_OPS = ("worker_kill", "worker_wedge", "worker_drop_ping")


class FaultInjectionError(RuntimeError):
    """A deliberate failure raised by an armed :class:`FaultInjector` rule."""


class TransientFaultError(FaultInjectionError):
    """An injected failure that models a *transient* fault.

    :class:`~repro.serve.resilience.ResiliencePolicy` retries these with
    exponential backoff (``max_retries`` attempts); everything else fails
    fast.  Probabilistic transient rules therefore model flaky
    infrastructure: a retry re-draws the coin and usually succeeds.
    """


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: where it fires, how often, and what it does.

    ``op`` selects the seam (one of :data:`FAULT_OPS`); the optional
    selectors narrow it -- ``kind`` matches the artifact kind for ``build``
    seams and the query kind elsewhere, ``query_id`` pins a specific query
    (``execute``/``nan``), ``step`` pins a repair-walk record index, and
    ``worker`` pins a cluster worker name for the worker-scoped ops
    (:data:`WORKER_FAULT_OPS`).  A selector left ``None`` matches everything
    at that seam.

    For ``worker_wedge`` rules, ``delay_seconds`` is the injected blocking
    delay the wedged worker sleeps for (its message loop stalls that long
    without crashing); worker rules never raise, so ``fail``/``transient``
    are ignored on them.

    Behaviour knobs: ``probability`` gates each firing on a seeded coin,
    ``times`` caps total firings (``None`` = unlimited), ``delay_seconds``
    sleeps before acting (latency injection), ``fail=False`` makes the rule
    delay-only, ``transient`` picks :class:`TransientFaultError` over
    :class:`FaultInjectionError`, and ``message`` overrides the error text.
    """

    op: str
    kind: Optional[str] = None
    query_id: Optional[int] = None
    step: Optional[int] = None
    worker: Optional[str] = None
    probability: float = 1.0
    times: Optional[int] = None
    delay_seconds: float = 0.0
    fail: bool = True
    transient: bool = False
    message: Optional[str] = None

    def __post_init__(self):
        if self.op not in FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r}; use one of {FAULT_OPS}")
        if self.worker is not None and self.op not in WORKER_FAULT_OPS:
            raise ValueError(
                f"the worker selector only applies to worker ops "
                f"{WORKER_FAULT_OPS}, not {self.op!r}"
            )
        if self.op == "worker_wedge" and self.delay_seconds <= 0:
            raise ValueError("worker_wedge rules need delay_seconds > 0")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must lie in [0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 (or None), got {self.times}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultRule` entries plus the firing seed.

    The plan is pure data -- arm it on a service via
    :meth:`~repro.serve.service.LaplacianService.arm_faults`, which wraps it
    in a :class:`FaultInjector` (the stateful part: seeded coin flips and
    per-rule fire counters live there, so one plan can be re-armed for an
    identical replay).
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan` (thread-safe).

    The planner holds exactly one (an empty-plan injector when disarmed) and
    calls the ``on_*`` seams; rules match as documented on
    :class:`FaultRule`.  Fire counts are observable -- ``fired_total`` and
    :meth:`fire_counts` -- which is how tests assert *negative* facts like
    "no sketch build was attempted while the breaker was open".
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._lock = threading.Lock()
        self._fired: List[int] = [0] * len(plan.rules)
        self.fired_total = 0
        self._by_op: Dict[str, List[Tuple[int, FaultRule]]] = {}
        for index, rule in enumerate(plan.rules):
            self._by_op.setdefault(rule.op, []).append((index, rule))

    def fire_counts(self) -> Tuple[int, ...]:
        """Per-rule fire counts, aligned with ``plan.rules``."""
        with self._lock:
            return tuple(self._fired)

    # -- seams (called by the planner) -----------------------------------------

    def on_build(self, kind: str) -> None:
        """Fire matching ``build`` rules for an artifact build of ``kind``."""
        self._fire("build", kind=kind)

    def on_execute(self, batch) -> None:
        """Fire matching ``execute`` rules for a :class:`QueryBatch`.

        Rules are matched per query, so a rule pinned to one ``query_id``
        raises whenever -- and only when -- the batch contains that query:
        after bisection splits the batch, the half without the poisoned
        query executes clean.
        """
        if "execute" not in self._by_op:
            return
        for query in batch.queries:
            self._fire("execute", kind=query.kind, query_id=query.query_id)

    def on_repair(self, step: int) -> None:
        """Fire matching ``repair`` rules at record index ``step`` of a walk."""
        self._fire("repair", step=step)

    def nan_output(self, query) -> bool:
        """Whether a matching ``nan`` rule poisons this query's output.

        Unlike the raising seams this returns a flag: the *planner*
        overwrites the already-computed value with NaN, so the poison takes
        the exact path a sick kernel output would take into the
        numerical-health guard.
        """
        return self._fire("nan", kind=query.kind, query_id=query.query_id)

    # -- worker-scoped seams (called by the cluster's health monitor) ----------

    def worker_kill(self, worker: str) -> bool:
        """Whether a ``worker_kill`` rule fires for this worker's probe tick."""
        return self._fire_worker("worker_kill", worker) is not None

    def worker_wedge(self, worker: str) -> Optional[float]:
        """Seconds of injected blocking delay for this worker, or ``None``.

        The parent sends the wedged worker a ``wedge`` message; the worker
        sleeps inside its message loop for that long, exactly like a hung
        kernel call would stall it, so the health monitor's suspect -> dead
        ladder is exercised without a crash.
        """
        rule = self._fire_worker("worker_wedge", worker)
        return rule.delay_seconds if rule is not None else None

    def drop_ping(self, worker: str) -> bool:
        """Whether this worker's answered heartbeat should be discarded."""
        return self._fire_worker("worker_drop_ping", worker) is not None

    def _fire_worker(self, op: str, worker: str) -> Optional[FaultRule]:
        """Non-raising rule match for the worker seams; returns the fired rule.

        Unlike :meth:`_fire` this never sleeps and never raises -- the
        health monitor owns the action (the injector only makes the seeded
        decision), so a wedge delay must not block the parent's monitor
        thread.  The first matching rule wins.
        """
        for index, rule in self._by_op.get(op, ()):
            if rule.worker is not None and rule.worker != worker:
                continue
            with self._lock:
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                self._fired[index] += 1
                self.fired_total += 1
            return rule
        return None

    # -- internals -------------------------------------------------------------

    def _fire(
        self,
        op: str,
        kind: Optional[str] = None,
        query_id: Optional[int] = None,
        step: Optional[int] = None,
    ) -> bool:
        matched = False
        for index, rule in self._by_op.get(op, ()):
            if rule.kind is not None and rule.kind != kind:
                continue
            if rule.query_id is not None and rule.query_id != query_id:
                continue
            if rule.step is not None and rule.step != step:
                continue
            with self._lock:
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                self._fired[index] += 1
                self.fired_total += 1
            if rule.delay_seconds > 0:
                time.sleep(rule.delay_seconds)
            if not rule.fail:
                continue
            if op == "nan":
                matched = True
                continue
            message = rule.message or self._describe(op, kind, query_id, step)
            raise (TransientFaultError if rule.transient else FaultInjectionError)(message)
        return matched

    @staticmethod
    def _describe(op, kind, query_id, step) -> str:
        parts = [f"injected {op} fault"]
        if kind is not None:
            parts.append(f"kind={kind}")
        if query_id is not None:
            parts.append(f"query={query_id}")
        if step is not None:
            parts.append(f"step={step}")
        return " ".join(parts)


def disarmed_injector() -> FaultInjector:
    """The no-op injector an unarmed planner holds (empty plan, never fires)."""
    return FaultInjector(FaultPlan())


def as_injector(faults) -> FaultInjector:
    """Coerce what an ``arm_*faults`` call accepts into an injector.

    ``None`` disarms (a fresh no-op injector), a :class:`FaultPlan` is wrapped,
    an armed :class:`FaultInjector` is used as-is so callers can keep reading
    its fire counters.
    """
    if faults is None:
        return disarmed_injector()
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    raise TypeError(
        f"arm_faults wants a FaultPlan, FaultInjector or None, "
        f"got {type(faults).__name__}"
    )

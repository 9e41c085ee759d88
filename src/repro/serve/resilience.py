"""Failure containment for the serving tier: policy, breaker, retries, health.

The serving tier's failure semantics (see ``docs/resilience.md``) are built
from four small pieces that live here:

* :class:`ResiliencePolicy` -- the per-service knobs: an optional per-query
  deadline, bounded retries with exponential backoff + jitter for
  *transient* failures, and the circuit-breaker threshold/TTL.
* :class:`CircuitBreaker` -- a TTL'd negative cache over artifact builds,
  keyed by ``(fingerprint, kind, params)``: a build that failed
  ``threshold`` times short-circuits (:class:`ArtifactBreakerOpenError`)
  instead of burning another ``k`` blocked solves per query, until the TTL
  expires and a single half-open probe is allowed through.
* :func:`call_with_retries` -- the one retry loop both the planner (artifact
  builds) and the service (batch execution) use, so backoff behaviour can
  never fork between the two.
* :class:`HealthStats` -- thread-safe counters surfaced through
  ``metrics_snapshot`` (``retries_total``, ``breaker_open_total``,
  ``degraded_total``, ``deadline_misses``).
* :class:`DrainRateTracker` / :func:`estimate_retry_after` -- the
  backpressure-hint machinery: the in-process service's queue (the only
  thing that sheds load; a cluster worker's queue is one) tracks how fast
  it actually drains and attaches ``retry_after_seconds = depth /
  drain_rate`` to every :class:`~repro.serve.service.ServiceOverloadedError`
  it sheds, so a well-behaved client backs off for exactly as long as the
  overload is expected to last instead of guessing.

The typed errors clients can observe are also defined (or re-exported)
here: :class:`DeadlineExceededError`, :class:`ArtifactBreakerOpenError`, and
:class:`NumericalHealthError` (defined in
:mod:`repro.linalg.sparse_backend`, at the bottom of the import graph, so
the linear-algebra kernels can raise it without importing the serve layer).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.linalg.sparse_backend import NumericalHealthError  # noqa: F401 -- re-export
from repro.serve.faults import TransientFaultError


class DeadlineExceededError(TimeoutError):
    """The query's per-service deadline expired before execution started.

    Raised onto the query's ticket by the flush loop when
    :attr:`ResiliencePolicy.deadline_seconds` is set and the query waited in
    the queue (or behind bisection/retries) longer than that; counted in
    ``deadline_misses``.  A query whose *result* arrives late is still
    resolved -- only the miss is counted -- because throwing away computed
    work helps nobody.
    """


class ArtifactBreakerOpenError(RuntimeError):
    """An artifact build was short-circuited by an open circuit breaker.

    The planner usually absorbs this into the degradation ladder (grounded
    fallback for resistance serving); it reaches clients only for artifacts
    that have no cheaper substitute (e.g. solver preprocessing).
    """


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-service failure-containment knobs (immutable, like FlushPolicy).

    ``deadline_seconds`` -- per-query deadline measured from submission;
    ``None`` (default) disables deadline enforcement.  ``max_retries`` --
    additional attempts for *transient* failures (types listed in
    ``transient_types``), with exponential backoff starting at
    ``backoff_base_seconds``, capped at ``backoff_max_seconds``, and
    multiplied by ``1 + U(0, backoff_jitter)`` so retry storms decorrelate.
    ``breaker_threshold`` consecutive build failures of one artifact open
    its breaker for ``breaker_ttl_seconds`` (see :class:`CircuitBreaker`).
    ``seed`` drives the jitter stream deterministically.
    """

    deadline_seconds: Optional[float] = None
    max_retries: int = 2
    backoff_base_seconds: float = 0.01
    backoff_max_seconds: float = 0.5
    backoff_jitter: float = 0.5
    transient_types: Tuple[type, ...] = (TransientFaultError,)
    breaker_threshold: int = 2
    breaker_ttl_seconds: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0 or None, got {self.deadline_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ValueError("backoff seconds must be >= 0")
        if self.backoff_jitter < 0:
            raise ValueError(f"backoff_jitter must be >= 0, got {self.backoff_jitter}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_ttl_seconds < 0:
            raise ValueError(
                f"breaker_ttl_seconds must be >= 0, got {self.breaker_ttl_seconds}"
            )

    def backoff_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Jittered exponential backoff before retry number ``attempt + 1``."""
        base = min(
            self.backoff_max_seconds, self.backoff_base_seconds * (2.0 ** attempt)
        )
        return base * (1.0 + self.backoff_jitter * float(rng.random()))


class HealthStats:
    """Thread-safe resilience counters surfaced by ``metrics_snapshot``.

    ``retries_total`` -- transient failures that were retried;
    ``breaker_open_total`` -- build attempts short-circuited by an open
    breaker; ``degraded_total`` -- queries answered through a fallback rung
    of the degradation ladder (grounded path instead of an oracle, rebuild
    instead of a failed repair); ``deadline_misses`` -- queries that missed
    the policy deadline (failed pre-execution, or resolved late).
    """

    FIELDS = ("retries_total", "breaker_open_total", "degraded_total", "deadline_misses")

    def __init__(self):
        self._lock = threading.Lock()
        self.retries_total = 0
        self.breaker_open_total = 0
        self.degraded_total = 0
        self.deadline_misses = 0

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (one of :attr:`FIELDS`)."""
        if name not in self.FIELDS:
            raise ValueError(f"unknown health counter {name!r}; use one of {self.FIELDS}")
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of every counter, keyed as in :attr:`FIELDS`."""
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}


class CircuitBreaker:
    """TTL'd negative cache over repeated failures, keyed arbitrarily.

    Classic three-state breaker per key: *closed* (all calls pass),
    *open* after ``threshold`` consecutive failures (calls refused until
    ``ttl_seconds`` elapse), then *half-open* (one probe passes; its failure
    re-opens immediately, its success closes).  The planner keys it by
    ``(fingerprint, kind, params)`` -- per artifact identity, so one graph's
    failing sketch build cannot trip another's, and ``eta`` is part of the
    key exactly as the cache key carries it.

    ``clock`` is injectable for TTL tests.  Bounded: at most ``MAX_KEYS``
    tracked keys; beyond that the oldest tracked key is evicted (losing a
    failure count only delays one breaker from opening).
    """

    #: bound on tracked keys (failure counts + open timestamps)
    MAX_KEYS = 4096

    def __init__(
        self,
        threshold: int = 2,
        ttl_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = int(threshold)
        self.ttl_seconds = float(ttl_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures: Dict[Hashable, int] = {}
        self._opened_at: Dict[Hashable, float] = {}

    def allow(self, key: Hashable) -> bool:
        """Whether a call for ``key`` may proceed (handles half-open probes).

        An expired open entry transitions to half-open as a side effect: the
        caller gets ``True`` once, with the failure count re-armed at
        ``threshold - 1`` so a failing probe re-opens immediately.
        """
        with self._lock:
            opened = self._opened_at.get(key)
            if opened is None:
                return True
            if self._clock() - opened >= self.ttl_seconds:
                del self._opened_at[key]
                self._failures[key] = self.threshold - 1
                return True
            return False

    def record_failure(self, key: Hashable) -> bool:
        """Count one failure; returns whether the breaker is now open."""
        with self._lock:
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count >= self.threshold:
                self._opened_at[key] = self._clock()
            self._prune_locked()
            return count >= self.threshold

    def record_success(self, key: Hashable) -> None:
        """Reset ``key`` to closed (clears failures and any open state)."""
        with self._lock:
            self._failures.pop(key, None)
            self._opened_at.pop(key, None)

    def is_open(self, key: Hashable) -> bool:
        """Read-only open check (no half-open transition side effect)."""
        with self._lock:
            opened = self._opened_at.get(key)
            return opened is not None and self._clock() - opened < self.ttl_seconds

    @property
    def open_count(self) -> int:
        """Number of keys currently holding an open timestamp."""
        with self._lock:
            return len(self._opened_at)

    def _prune_locked(self) -> None:
        while len(self._failures) > self.MAX_KEYS:
            victim = next(iter(self._failures))
            self._failures.pop(victim)
            self._opened_at.pop(victim, None)


class DrainRateTracker:
    """Observed completion rate of a queue, over a sliding event window.

    The in-process service records ``observe(count)`` whenever a flush
    completes queries and reads ``rate()`` when it must shed: the current
    queue depth divided by this rate is how long an honest *retry-after*
    hint says the backlog will take to drain.  Thread-safe; ``rate()`` returns ``None`` until the window holds
    observations spanning a positive time interval (a cold or idle queue
    has no defensible estimate -- callers fall back to a default hint).
    """

    def __init__(self, window: int = 128):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self._lock = threading.Lock()
        self._events: "deque[Tuple[float, int]]" = deque(maxlen=window)

    def observe(self, count: int = 1, now: Optional[float] = None) -> None:
        """Record ``count`` completions at time ``now`` (monotonic seconds)."""
        if count <= 0:
            return
        stamp = time.monotonic() if now is None else now
        with self._lock:
            self._events.append((stamp, int(count)))

    def rate(self, now: Optional[float] = None) -> Optional[float]:
        """Completions per second over the window, or ``None`` if unknown.

        Measured from the oldest retained observation to ``now`` (so a
        queue that *stopped* draining reports a decaying rate rather than
        its last burst's instantaneous one).
        """
        stamp = time.monotonic() if now is None else now
        with self._lock:
            if len(self._events) < 2:
                return None
            oldest, first_count = self._events[0]
            total = sum(count for _, count in self._events) - first_count
            span = stamp - oldest
        if span <= 0 or total <= 0:
            return None
        return total / span


def estimate_retry_after(
    depth: int,
    drain_rate: Optional[float],
    default_seconds: float = 0.05,
    min_seconds: float = 0.001,
    max_seconds: float = 5.0,
) -> float:
    """The retry-after hint for a shed request: time to drain ``depth``.

    ``depth / drain_rate``, clamped to ``[min_seconds, max_seconds]`` so a
    momentary rate glitch cannot tell clients to wait an hour; with no
    usable rate (``None`` or non-positive) the conservative
    ``default_seconds`` is returned, whatever the depth.  The service's
    queue is the only thing that sheds, and this is the formula behind the
    contract documented in ``docs/resilience.md``.
    """
    if drain_rate is None or drain_rate <= 0:
        return default_seconds
    return float(min(max_seconds, max(min_seconds, depth / drain_rate)))


def call_with_retries(
    fn: Callable[[], Any],
    policy: ResiliencePolicy,
    rng: np.random.Generator,
    health: Optional[HealthStats] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Run ``fn``, retrying transient failures per ``policy``.

    Only exception types in ``policy.transient_types`` are retried (at most
    ``policy.max_retries`` extra attempts, with jittered exponential
    backoff drawn from ``rng``); everything else -- including
    :class:`NumericalHealthError` and persistent injected faults --
    propagates immediately so containment stays loud.  Each retry counts in
    ``health.retries_total``.  ``sleep`` is injectable for tests.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except policy.transient_types:
            if attempt >= policy.max_retries:
                raise
            if health is not None:
                health.increment("retries_total")
            delay = policy.backoff_seconds(attempt, rng)
            if delay > 0:
                sleep(delay)
            attempt += 1

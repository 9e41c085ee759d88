"""Seeded, replayable traffic traces for the serving-tier tests.

A **trace** is a list of events drawn from one seeded generator:
heavy-tailed graph popularity (a few hot graphs take most of the traffic), a
mix of query kinds and optional interleaved mutations, partitioned across
concurrent clients.  The same ``(graph sizes, TrafficConfig)`` always
generates the identical trace, so one trace can be replayed against a
single-process :class:`~repro.serve.service.LaplacianService` and a
:class:`~repro.serve.cluster.ClusterService` and the answers compared event
for event (:func:`compare_answers`).

Events carry only seeds and vertex indices, never arrays; right-hand sides
are regenerated at replay time (:func:`solve_rhs`).  :func:`run_trace`
accounts for every event as ok, shed
(:class:`~repro.serve.service.ServiceOverloadedError`) or a typed failure.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve import ServiceOverloadedError

#: default query-kind mix: mostly reads, a trickle of mutations
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("solve", 0.30),
    ("resistance", 0.30),
    ("resistance_batch", 0.30),
    ("mutate", 0.10),
)


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of the seeded trace generator.

    ``zipf_alpha`` shapes graph popularity (graph rank ``r`` is drawn with
    probability proportional to ``(r + 1) ** -zipf_alpha``); ``mix`` weighs
    the event kinds (``"solve"``, ``"resistance"``, ``"resistance_batch"``,
    ``"mutate"``).  Mutations are edge additions or reweights, so graphs stay
    connected.  ``eta`` applies to resistance events (``None`` = exact),
    ``eps`` to solve events.
    """

    seed: int = 0
    queries: int = 256
    clients: int = 4
    zipf_alpha: float = 1.2
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    batch_pairs: int = 8
    eta: Optional[float] = None
    eps: float = 1e-6


@dataclass(frozen=True)
class TraceEvent:
    """One replayable event: plain data only (no arrays, no graph refs)."""

    #: position in the trace (global submission order)
    index: int
    #: client thread this event belongs to
    client: int
    #: event kind (a key of the config's ``mix``)
    kind: str
    #: index into the graph-key list the trace is run against
    graph: int
    #: kind-specific payload: seeds and vertex indices
    payload: Tuple[Tuple[str, Any], ...] = ()

    def payload_dict(self) -> Dict[str, Any]:
        return dict(self.payload)


@dataclass(frozen=True)
class TrafficTrace:
    """A generated trace: the config that produced it plus its events."""

    config: TrafficConfig
    n_graphs: int
    events: Tuple[TraceEvent, ...]


@dataclass
class TrafficReport:
    """Outcome of one :func:`run_trace`: ``ok + shed + failed == events_total``."""

    events_total: int = 0
    ok: int = 0
    shed: int = 0
    failed: int = 0
    failures_by_type: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    #: event index -> answer (only when ``record_answers=True``)
    answers: Dict[int, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completed (non-shed) events per second of wall clock."""
        return (self.ok / self.seconds) if self.seconds > 0 else 0.0


def generate_trace(graph_sizes: Sequence[int], config: TrafficConfig) -> TrafficTrace:
    """The deterministic trace of ``config`` over graphs of these vertex counts.

    One seeded rng stream draws every event; clients are assigned round-robin,
    so each client's subsequence is deterministic too.
    """
    if not graph_sizes:
        raise ValueError("need at least one graph")
    rng = np.random.default_rng(config.seed)
    kinds = [kind for kind, _ in config.mix]
    weights = np.asarray([weight for _, weight in config.mix], dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError(f"mix weights must be non-negative and sum > 0: {config.mix}")
    weights = weights / weights.sum()
    # heavy-tailed popularity over a seeded shuffle of the graphs, so the
    # hot head is not always graph 0
    order = rng.permutation(len(graph_sizes))
    ranks = np.empty(len(graph_sizes), dtype=int)
    ranks[order] = np.arange(len(graph_sizes))
    popularity = (ranks + 1.0) ** -float(config.zipf_alpha)
    popularity = popularity / popularity.sum()

    events: List[TraceEvent] = []
    for index in range(config.queries):
        graph = int(rng.choice(len(graph_sizes), p=popularity))
        n = int(graph_sizes[graph])
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        if kind == "solve":
            payload = (("rhs_seed", int(rng.integers(0, 2**31))),)
        elif kind == "resistance":
            u, v = _distinct_pair(rng, n)
            payload = (("u", u), ("v", v))
        elif kind == "resistance_batch":
            pairs = tuple(_distinct_pair(rng, n) for _ in range(config.batch_pairs))
            payload = (("pairs", pairs),)
        elif kind == "mutate":
            u, v = _distinct_pair(rng, n)
            payload = (("u", u), ("v", v), ("weight", float(rng.uniform(0.5, 2.0))))
        else:
            raise ValueError(f"unknown trace event kind {kind!r}")
        events.append(
            TraceEvent(
                index=index,
                client=index % max(1, config.clients),
                kind=kind,
                graph=graph,
                payload=payload,
            )
        )
    return TrafficTrace(config=config, n_graphs=len(graph_sizes), events=tuple(events))


def _distinct_pair(rng, n: int) -> Tuple[int, int]:
    """A uniformly random ordered pair of distinct vertices below ``n``."""
    u = int(rng.integers(0, n))
    v = int(rng.integers(0, n - 1))
    if v >= u:
        v += 1
    return u, v


def solve_rhs(n: int, rhs_seed: int) -> np.ndarray:
    """The deterministic zero-sum right-hand side of a ``solve`` event."""
    b = np.random.default_rng(rhs_seed).standard_normal(n)
    return b - b.mean()


def apply_event(service, keys, sizes, event: TraceEvent, config: TrafficConfig) -> Any:
    """Execute one trace event against ``service``; returns its answer.

    Mutations go through the service's ``mutate`` (the cluster) or, in
    process, straight to the registered graph object, whose version the
    registry tracks.
    """
    key = keys[event.graph]
    payload = event.payload_dict()
    if event.kind == "solve":
        b = solve_rhs(int(sizes[event.graph]), payload["rhs_seed"])
        return service.solve(key, b, eps=config.eps).solution
    if event.kind == "resistance":
        return service.effective_resistance(key, payload["u"], payload["v"], eta=config.eta)
    if event.kind == "resistance_batch":
        return service.effective_resistances(key, list(payload["pairs"]), eta=config.eta)
    if event.kind == "mutate":
        u, v, weight = payload["u"], payload["v"], payload["weight"]
        if hasattr(service, "mutate"):
            return service.mutate(key, "add", u, v, weight)
        return service.registry.get(key).graph.add_edge(u, v, weight)
    raise ValueError(f"unknown trace event kind {event.kind!r}")


def run_trace(
    service,
    keys: Sequence[str],
    sizes: Sequence[int],
    trace: TrafficTrace,
    concurrent: bool = True,
    record_answers: bool = False,
) -> TrafficReport:
    """Replay ``trace`` against ``service`` and account for every event.

    ``concurrent=True`` runs each trace client on its own thread (ordered
    within a client, interleaved across clients); ``concurrent=False``
    replays the trace in submission order, which is deterministic and is
    the mode answer comparisons use.
    """
    if len(keys) != trace.n_graphs:
        raise ValueError(
            f"trace was generated for {trace.n_graphs} graphs, got {len(keys)} keys"
        )
    report = TrafficReport(events_total=len(trace.events))
    lock = threading.Lock()

    def run_events(events: Sequence[TraceEvent]) -> None:
        for event in events:
            try:
                answer = apply_event(service, keys, sizes, event, trace.config)
            except ServiceOverloadedError:
                with lock:
                    report.shed += 1
            except Exception as error:
                name = type(error).__name__
                with lock:
                    report.failed += 1
                    report.failures_by_type[name] = report.failures_by_type.get(name, 0) + 1
            else:
                with lock:
                    report.ok += 1
                    # mutate acks are implementation-specific (version int
                    # vs None), not comparable answers
                    if record_answers and event.kind != "mutate":
                        report.answers[event.index] = answer

    started = time.perf_counter()
    if not concurrent:
        run_events(trace.events)
    else:
        by_client: Dict[int, List[TraceEvent]] = {}
        for event in trace.events:
            by_client.setdefault(event.client, []).append(event)
        threads = [
            threading.Thread(target=run_events, args=(events,), daemon=True)
            for events in by_client.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    report.seconds = time.perf_counter() - started
    return report


def compare_answers(
    left: TrafficReport, right: TrafficReport, atol: float = 1e-8
) -> Tuple[int, float]:
    """``(compared, max_abs_difference)`` over the events both replays answered.

    Raises ``AssertionError`` when an answer pair differs in shape or by more
    than ``atol``.
    """
    compared = 0
    worst = 0.0
    for index, a in left.answers.items():
        b = right.answers.get(index)
        if b is None:
            continue
        a_arr = np.asarray(a, dtype=float)
        b_arr = np.asarray(b, dtype=float)
        if a_arr.shape != b_arr.shape:
            raise AssertionError(
                f"answer shape mismatch at event {index}: {a_arr.shape} vs {b_arr.shape}"
            )
        if a_arr.size:
            worst = max(worst, float(np.max(np.abs(a_arr - b_arr))))
        compared += 1
    if worst > atol:
        raise AssertionError(f"answers diverge: max |diff| = {worst:.3e} > atol={atol:.1e}")
    return compared, worst

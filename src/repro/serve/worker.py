"""Worker process of the cluster: one `LaplacianService` behind a pipe.

Each :class:`~repro.serve.cluster.ClusterService` shard is a separate OS
process running :func:`worker_main`, which hosts an ordinary in-process
:class:`~repro.serve.service.LaplacianService` and speaks a small seq-tagged
message protocol over a :class:`multiprocessing.Pipe`:

* ``("query", seq, query)`` -- enqueue one planner
  :class:`~repro.serve.planner.Query`.  Consecutive query messages drain
  into the service *before* a flush, so queries the parent forwarded
  back-to-back still coalesce into blocked kernel calls exactly as they
  would in-process.
* ``("register", seq, key, graph, specs)`` -- register a (pickled) graph
  under the parent's handle and re-attach any previously published
  shared-memory artifacts (``specs``) -- the respawn path rebuilds nothing.
* ``("mutate", seq, key, op, u, v, weight)`` -- apply one edge mutation to
  the shard's copy of the graph (the planner's repair machinery then
  migrates or rebuilds artifacts as usual).
* ``("unregister", seq, key)`` -- drop a graph this shard no longer owns
  (runtime membership moved it to another worker); its cached artifacts
  age out of the LRU.
* ``("adopt", seq, specs)`` -- re-attach shared-memory artifacts another
  replica published, so a failover read serves warm instead of rebuilding.
* ``("ping", seq)`` -- heartbeat: replies immediately *after* any pending
  flush, so a worker stuck in a long kernel call misses its deadline and
  the parent's health monitor sees it.
* ``("wedge", seq, seconds)`` -- fault injection: block the message loop
  for ``seconds`` (a hang without a crash), which is how the health
  monitor's suspect -> dead ladder is exercised deterministically.
* ``("metrics", seq)`` / ``("shutdown", seq)`` -- snapshot / clean exit.

Replies are ``("reply", seq, ok, payload)`` with ``payload`` a
:class:`RemoteResult` or a pickled exception; the worker additionally emits
unsolicited ``("published", spec)`` notifications whenever it has packed a
freshly built oracle into shared memory (see :mod:`repro.serve.shm`), so
the parent can adopt the segment and hand it to the replacement worker on
respawn.

The worker also arms the planner's **background builder**: sketch builds
run on a daemon thread off the flush path while the grounded ``splu``
fallback keeps serving exact answers (non-degraded -- exact trivially
satisfies any ``eta``), which keeps the worker's tail latency flat through
a sketch build instead of stalling a whole batch behind ``k`` blocked
solves.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.linalg.resistance import SketchedResistanceOracle
from repro.linalg.sparse_backend import ResistanceOracle
from repro.serve.artifacts import DEFAULT_MAX_BYTES, ArtifactCache
from repro.serve.resilience import ResiliencePolicy
from repro.serve.service import FlushPolicy, LaplacianService
from repro.serve.shm import SharedArtifactStore, ShmArtifactSpec

#: the artifact kinds the worker publishes to shared memory -- read-only
#: after build, array-backed, and worth sharing (the dense inverse and the JL
#: embedding dominate a shard's resident bytes) -- each with its
#: reconstruction hook ``from_shared(arrays, meta)``
SHM_REBUILDERS: Dict[str, Callable[..., Any]] = {
    "resistance_oracle": ResistanceOracle.from_shared,
    "sketched_resistance": SketchedResistanceOracle.from_shared,
}


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable construction knobs for one worker's in-process service.

    Mirrors the :class:`~repro.serve.service.LaplacianService` constructor
    (spawned workers cannot share closures with the parent, so everything
    rides in this dataclass).
    """

    name: str = "worker"
    solver_seed: Optional[int] = 0
    t_override: Optional[int] = None
    repair: bool = True
    max_batch: int = 64
    max_pending: Optional[int] = None
    cache_max_bytes: int = DEFAULT_MAX_BYTES
    resilience: Optional[ResiliencePolicy] = None


@dataclass
class RemoteResult:
    """Pipe-sized projection of a :class:`~repro.serve.planner.QueryResult`.

    The parent already holds the :class:`~repro.serve.planner.Query`, so
    only the outcome crosses the pipe: the value, the serving metadata the
    cluster metrics aggregate, and nothing else.
    """

    value: Any
    cache_hit: bool
    degraded: bool
    batch_size: int
    seconds: float


class BackgroundBuilder:
    """Single-threaded deduplicating executor for off-flush-path builds.

    The planner submits ``(key, fn)`` pairs; a daemon thread runs them one
    at a time.  A key already queued or in flight is dropped (the build is
    already on its way), so repeated fallback-served batches cannot pile up
    duplicate sketch builds.  Builds that raise are swallowed -- the planner
    records the failure in its breaker/health machinery inside ``fn``
    itself, and the foreground path keeps serving the grounded fallback.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._queue: "deque[Tuple[Hashable, Callable[[], Any]]]" = deque()
        self._inflight: set = set()
        self._wake = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name="background-builder", daemon=True
        )
        self._thread.start()

    def submit(self, key: Hashable, fn: Callable[[], Any]) -> bool:
        """Schedule ``fn`` under ``key``; returns False if already pending."""
        with self._lock:
            if self._closed or key in self._inflight:
                return False
            self._inflight.add(key)
            self._queue.append((key, fn))
            self._idle.clear()
        self._wake.set()
        return True

    def drain(self) -> None:
        """Block until every scheduled build finished.

        The worker drains before applying a mutation so no build can read a
        graph mid-edit.
        """
        self._idle.wait()

    def close(self) -> None:
        """Stop accepting work and wake the thread so it can exit."""
        with self._lock:
            self._closed = True
        self._wake.set()

    def _loop(self) -> None:
        while True:
            self._wake.wait()
            while True:
                with self._lock:
                    if self._closed:
                        return
                    if not self._queue:
                        self._wake.clear()
                        self._idle.set()
                        break
                    key, fn = self._queue.popleft()
                try:
                    fn()
                except Exception:
                    pass  # recorded by the planner's breaker/health inside fn
                finally:
                    with self._lock:
                        self._inflight.discard(key)


def picklable_error(error: BaseException) -> BaseException:
    """``error`` itself if it survives pickling, else a faithful stand-in.

    Worker exceptions cross a pipe; an unpicklable one (e.g. holding a lock
    or a solver object) is replaced by a ``RuntimeError`` carrying the
    original type name and message so the parent still fails the ticket
    with something diagnosable.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def publish_ready_artifacts(
    service: LaplacianService,
    store: SharedArtifactStore,
    conn,
    published: set,
) -> int:
    """Publish freshly built oracle artifacts to shared memory.

    Walks the service's cache for entries of a :data:`SHM_REBUILDERS` kind not
    yet published, packs each one's arrays into a segment, notifies the
    parent (``("published", spec)``) so it adopts unlink ownership, and
    swaps the cache entry's value for the shm-backed reconstruction --- the
    worker then serves from the shared pages like everyone else.  Returns
    the number of artifacts published.
    """
    count = 0
    for entry in service.cache.entries():
        if entry.kind not in SHM_REBUILDERS:
            continue
        if entry.key in published:
            continue
        share = getattr(entry.value, "share_arrays", None)
        if share is None:
            continue
        arrays, meta = share()
        if any(not array.flags.writeable for array in arrays.values()):
            # already a shared view (adopted on respawn); nothing to do
            published.add(entry.key)
            continue
        params = entry.key[3]
        spec = store.publish(
            entry.kind, entry.graph_key, entry.version, params, arrays, meta
        )
        conn.send(("published", spec))
        attached = store.attach(spec)
        rebuilt = SHM_REBUILDERS[entry.kind](attached.arrays, spec.meta_dict())
        service.cache.swap_value(
            entry.graph_key, entry.version, entry.kind, params, rebuilt
        )
        published.add(entry.key)
        count += 1
    return count


def adopt_shared_artifacts(
    service: LaplacianService,
    store: SharedArtifactStore,
    specs: List[ShmArtifactSpec],
    published: set,
) -> int:
    """Re-attach previously published artifacts into a fresh worker's cache.

    The respawn path: the parent stored every ``("published", spec)`` it
    adopted, and hands the relevant ones to the replacement worker, which
    maps the segments and inserts shm-backed reconstructions under their
    original cache identities -- no rebuild, no copy.  Specs whose segment
    is already gone are skipped.  Returns the number adopted.
    """
    count = 0
    for spec in specs:
        rebuild = SHM_REBUILDERS.get(spec.kind)
        if rebuild is None:
            continue
        try:
            attached = store.attach(spec)
        except FileNotFoundError:
            continue
        value = rebuild(attached.arrays, spec.meta_dict())
        service.cache.get_or_build(
            spec.graph_key, spec.version, spec.kind, spec.params, lambda: value
        )
        published.add(
            ArtifactCache.make_key(spec.graph_key, spec.version, spec.kind, spec.params)
        )
        count += 1
    return count


def worker_main(conn, config: WorkerConfig) -> None:
    """Entry point of one cluster worker process.

    Runs the message loop described in the module docstring until a
    ``shutdown`` message or pipe EOF (parent died), then tears the service
    down.  The worker never unlinks shared-memory segments -- the parent
    owns every published segment (it adopts the spec before the reply that
    follows it), so worker death of any kind leaks nothing the parent does
    not already track.
    """
    service = LaplacianService(
        cache=ArtifactCache(max_bytes=config.cache_max_bytes),
        flush_policy=FlushPolicy(
            max_batch=config.max_batch,
            max_wait_seconds=0.0,
            max_pending=config.max_pending,
        ),
        solver_seed=config.solver_seed,
        t_override=config.t_override,
        auto_flush=False,
        repair=config.repair,
        resilience=config.resilience,
    )
    builder = BackgroundBuilder()
    service.planner.background_builder = builder
    store = SharedArtifactStore()
    published: set = set()
    pending: List[Tuple[int, Any]] = []

    def reply(seq: int, ok: bool, payload: Any) -> None:
        conn.send(("reply", seq, ok, payload))

    def flush_pending() -> None:
        if not pending:
            return
        service.flush()
        for seq, ticket in pending:
            try:
                result = ticket.result(timeout=None)
            except Exception as error:
                reply(seq, False, picklable_error(error))
            else:
                reply(
                    seq,
                    True,
                    RemoteResult(
                        value=result.value,
                        cache_hit=result.cache_hit,
                        degraded=result.degraded,
                        batch_size=result.batch_size,
                        seconds=result.seconds,
                    ),
                )
        pending.clear()
        publish_ready_artifacts(service, store, conn, published)

    def handle_control(message: Tuple) -> bool:
        """Dispatch one non-query message; returns False on shutdown."""
        tag, seq = message[0], message[1]
        try:
            if tag == "register":
                _, _, key, graph, specs = message
                service.register(graph, name=key)
                adopted = 0
                if specs:
                    adopted = adopt_shared_artifacts(
                        service, store, list(specs), published
                    )
                reply(seq, True, adopted)
            elif tag == "unregister":
                _, _, key = message
                builder.drain()
                service.registry.unregister(key)
                reply(seq, True, None)
            elif tag == "adopt":
                _, _, specs = message
                adopted = adopt_shared_artifacts(service, store, list(specs), published)
                reply(seq, True, adopted)
            elif tag == "ping":
                reply(seq, True, None)
            elif tag == "wedge":
                _, _, seconds = message
                time.sleep(float(seconds))
                reply(seq, True, None)
            elif tag == "mutate":
                _, _, key, op, u, v, weight = message
                builder.drain()
                graph = service.registry.get(key).graph
                if op == "add":
                    graph.add_edge(u, v, weight)
                elif op == "remove":
                    graph.remove_edge(u, v)
                else:
                    raise ValueError(f"unknown mutation op {op!r}")
                reply(seq, True, graph.version)
            elif tag == "metrics":
                reply(seq, True, service.metrics_snapshot())
            elif tag == "shutdown":
                reply(seq, True, None)
                return False
            else:
                raise ValueError(f"unknown message tag {tag!r}")
        except Exception as error:
            reply(seq, False, picklable_error(error))
        return True

    running = True
    try:
        while running:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            while True:
                if message[0] == "query":
                    seq, query = message[1], message[2]
                    try:
                        ticket = service.submit(query)
                    except Exception as error:
                        reply(seq, False, picklable_error(error))
                    else:
                        pending.append((seq, ticket))
                else:
                    flush_pending()
                    if not handle_control(message):
                        running = False
                        break
                if conn.poll(0):
                    message = conn.recv()
                else:
                    break
            flush_pending()
    finally:
        builder.close()
        try:
            service.close()
        except Exception:
            pass
        # never unlink: the parent owns every published segment
        store.close(unlink=False)
        conn.close()

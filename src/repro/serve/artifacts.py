"""LRU artifact cache: sparsifiers, factorisations, solver preprocessing.

Everything the serving layer computes that outlives one query lives here:
per-``(graph, params)`` :class:`repro.solvers.laplacian.SolverPreprocessing`
handles (each embedding its spectral sparsifier), grounded ``splu``
factorisations (:class:`GroundedLaplacianSolver`), dense resistance oracles
(:class:`ResistanceOracle`), JL-sketched resistance oracles
(:class:`repro.linalg.resistance.SketchedResistanceOracle`, keyed by their
accuracy bound ``eta`` and accounted via the ``nbytes()`` protocol like the
others) and memoised certification reports.

Keys embed the graph's **version** at build time, so a mutated graph can never
hit an artifact built against its earlier content -- the lookup simply misses
and the stale entry is either swept by :meth:`ArtifactCache.invalidate_graph`
or, when the mutation delta is short enough for low-rank repair, parked in
the pending-delta ledger (:meth:`ArtifactCache.defer_repair`) and migrated
to the new ``(fingerprint, version)`` identity one artifact at a time, each
on its first lookup (:meth:`ArtifactCache.take_stale_entry` ->
``value.apply_delta(...)`` -> :meth:`ArtifactCache.adopt_repaired`).
Eviction is LRU over *estimated bytes* (``max_bytes``) and entry count
(``max_entries``): factorisations of ``n = 10^4`` grids weigh megabytes while
tiny sparsifiers weigh kilobytes, so counting entries alone would let the
cache blow past any memory budget.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

#: Default cache budget: enough for a handful of n ~ 10^4 factorisations.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Deferred-repair ledger bounds: at most this many pending (fingerprint,
#: version) targets, each remembering at most this many stale source
#: generations.  Deltas are short (the planner's repair limit) so the ledger
#: is metadata-sized; the caps only bound pathological mutate-only traffic
#: that never looks anything up.
PENDING_TARGET_LIMIT = 64
PENDING_SOURCE_LIMIT = 4


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Best-effort resident-size estimate used for eviction accounting.

    Exact for numpy arrays and scipy sparse matrices, delegated to the
    object's own ``nbytes()`` when it offers one (solvers and preprocessing
    handles do), recursive one level deep for containers, and
    ``sys.getsizeof`` otherwise.  Estimates only steer eviction order and
    budget accounting; they need to be the right order of magnitude, not
    byte-exact.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if sp.issparse(obj):
        total = 0
        for attr in ("data", "indices", "indptr", "row", "col", "offsets"):
            part = getattr(obj, attr, None)
            if isinstance(part, np.ndarray):
                total += int(part.nbytes)
        return total or int(sys.getsizeof(obj))
    nbytes = getattr(obj, "nbytes", None)
    if callable(nbytes):
        return int(nbytes())
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if _depth < 2 and isinstance(obj, dict):
        return int(sys.getsizeof(obj)) + sum(
            estimate_nbytes(value, _depth + 1) for value in obj.values()
        )
    if _depth < 2 and isinstance(obj, (list, tuple, set, frozenset)):
        return int(sys.getsizeof(obj)) + sum(
            estimate_nbytes(item, _depth + 1) for item in obj
        )
    # WeightedGraph / SparsifierResult and friends: prefer their edge count
    edge_count = getattr(obj, "m", None)
    if isinstance(edge_count, (int, np.integer)):
        # ~100 bytes/edge for the weight dict + adjacency sets (measured)
        return 100 * int(edge_count) + int(sys.getsizeof(obj))
    sparsifier = getattr(obj, "sparsifier", None)
    if sparsifier is not None and _depth < 2:
        return estimate_nbytes(sparsifier, _depth + 1) + int(sys.getsizeof(obj))
    return int(sys.getsizeof(obj))


@dataclass
class CacheEntry:
    """One cached artifact with its accounting metadata."""

    key: Tuple[Hashable, ...]
    value: Any
    nbytes: int
    graph_key: str
    version: int
    kind: str
    build_seconds: float
    hits: int = 0


@dataclass
class CacheStats:
    """Aggregate counters; ``hit_rate`` is the serving-layer health metric."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    repairs: int = 0
    build_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when nothing looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Counters as a plain dict (what ``metrics_snapshot`` embeds)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "repairs": self.repairs,
            "hit_rate": self.hit_rate,
            "build_seconds": self.build_seconds,
        }


class ArtifactCache:
    """Thread-safe LRU cache with byte-size accounting.

    ``get_or_build`` is the single entry point: it either returns the cached
    value (a *hit*, promoting the entry to most-recently-used) or runs the
    builder and inserts the result.  Builders run outside the lock -- a
    multi-second sparsifier build must not block unrelated lookups -- so two
    racing threads may build the same artifact; the second insert finds the
    key present and adopts the first value, which is safe because artifacts
    are deterministic functions of ``(graph content, params)``.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_entries: Optional[int] = None,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_bytes = int(max_bytes)
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[Hashable, ...], CacheEntry]" = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.RLock()
        # pending-delta ledger for lazy repair: maps a *target* identity
        # (new fingerprint, new version) to the stale source generations a
        # first lookup can migrate artifacts from, each with the mutation
        # delta that bridges it to the target.  See defer_repair.
        self._pending: "OrderedDict[Tuple[str, int], Dict[Tuple[str, int], tuple]]" = (
            OrderedDict()
        )
        self.stats = CacheStats()

    @staticmethod
    def make_key(
        graph_key: str, version: int, kind: str, params: Tuple[Hashable, ...] = ()
    ) -> Tuple[Hashable, ...]:
        """Canonical cache key; the embedded version is the staleness guard."""
        return (graph_key, int(version), kind, tuple(params))

    def get_or_build(
        self,
        graph_key: str,
        version: int,
        kind: str,
        params: Tuple[Hashable, ...],
        builder: Callable[[], Any],
    ) -> Tuple[Any, bool]:
        """Return ``(artifact, cache_hit)`` for the given identity."""
        key = self.make_key(graph_key, version, kind, params)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.hits += 1
                self.stats.hits += 1
                return entry.value, True
        start = time.perf_counter()
        value = builder()
        build_seconds = time.perf_counter() - start
        nbytes = estimate_nbytes(value)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                # lost a build race: adopt the first value (deterministic)
                self._entries.move_to_end(key)
                entry.hits += 1
                self.stats.hits += 1
                return entry.value, True
            self._entries[key] = CacheEntry(
                key=key,
                value=value,
                nbytes=nbytes,
                graph_key=graph_key,
                version=int(version),
                kind=kind,
                build_seconds=build_seconds,
            )
            self._total_bytes += nbytes
            self.stats.misses += 1
            self.stats.build_seconds += build_seconds
            self._evict_locked()
        return value, False

    def invalidate_graph(self, graph_key: str, keep_version: Optional[int] = None) -> int:
        """Drop artifacts of ``graph_key`` (all versions, or all but one).

        Called when the registry detects that a registered graph was mutated:
        everything built against earlier versions is unservable and would
        otherwise linger until LRU eviction gets to it.
        """
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if entry.graph_key == graph_key
                and (keep_version is None or entry.version != keep_version)
            ]
            for key in doomed:
                self._remove_locked(key)
            self.stats.invalidations += len(doomed)
            # the graph's generations are no longer repair sources or targets
            for target in list(self._pending):
                sources = self._pending[target]
                if target[0] == graph_key and (
                    keep_version is None or target[1] != keep_version
                ):
                    del self._pending[target]
                    continue
                for source in [s for s in sources if s[0] == graph_key]:
                    del sources[source]
                if not sources:
                    del self._pending[target]
            return len(doomed)

    # -- pending-delta ledger (lazy repair) -------------------------------------

    def defer_repair(
        self,
        from_graph_key: str,
        from_version: int,
        new_graph_key: str,
        new_version: int,
        delta,
        limit: int,
    ) -> bool:
        """Record that the stale generation can be *lazily* repaired later.

        No artifact of ``(from_graph_key, from_version)`` is touched at
        mutation-detection time: the planner stashes the mutation ``delta``
        here, and each stale artifact is migrated individually on its *first
        lookup* under the new identity (or never, if it is never looked up
        again).  Chained mutations
        coalesce: if the stale identity is itself a pending target, its
        source generations are re-targeted at the new identity with the
        concatenated delta -- sources whose combined delta exceeds ``limit``
        are dropped (their artifacts invalidated), because the planner would
        refuse to walk them anyway.  Returns whether any pending source was
        recorded.
        """
        with self._lock:
            sources: Dict[Tuple[str, int], tuple] = {}
            chained = self._pending.pop((from_graph_key, from_version), None)
            if chained:
                for source, old_delta in chained.items():
                    sources[source] = tuple(old_delta) + tuple(delta)
            sources[(from_graph_key, from_version)] = tuple(delta)
            kept: Dict[Tuple[str, int], tuple] = {}
            # cap by closeness: the most recent generations (shortest combined
            # delta) are the ones whose artifacts keep migrating forward, so
            # they must win the source slots over long-stale ancestors
            for source, combined in sorted(
                sources.items(), key=lambda item: len(item[1])
            ):
                if len(combined) <= limit and len(kept) < PENDING_SOURCE_LIMIT:
                    kept[source] = combined
                else:
                    self._invalidate_generation_locked(source)
            if not kept:
                return False
            self._pending[(new_graph_key, new_version)] = kept
            while len(self._pending) > PENDING_TARGET_LIMIT:
                _, evicted = self._pending.popitem(last=False)
                for source in evicted:
                    self._invalidate_generation_locked(source)
            return True

    def pending_repair(self, graph_key: str, version: int):
        """Stale generations repairable into ``(graph_key, version)``, or ``None``.

        Returns ``{(source_graph_key, source_version): delta, ...}`` sorted
        shortest-delta-first (the closest generation).  Sources that no
        longer have any cached artifact are swept from the ledger here --
        the "artifact evicted while its delta was pending" case resolves to
        an ordinary rebuild with no dangling bookkeeping -- and a target
        whose last source is swept reports ``None``.
        """
        with self._lock:
            sources = self._pending.get((graph_key, version))
            if not sources:
                return None
            alive_keys = {entry.graph_key for entry in self._entries.values()}
            live = {
                source: delta
                for source, delta in sources.items()
                if source[0] in alive_keys
            }
            if not live:
                del self._pending[(graph_key, version)]
                return None
            if len(live) != len(sources):
                self._pending[(graph_key, version)] = live
            return dict(sorted(live.items(), key=lambda item: len(item[1])))

    @property
    def pending_repairs(self) -> int:
        """Number of graph generations with a stashed (unpaid) repair delta."""
        with self._lock:
            return len(self._pending)

    def take_stale_entry(
        self,
        graph_key: str,
        version: int,
        kind: str,
        params: Tuple[Hashable, ...] = (),
    ) -> Optional[CacheEntry]:
        """Atomically pop one stale entry for a lazy repair attempt.

        The entry leaves the cache before the caller's repair runs, so two
        services sharing the cache can never hand the same artifact to two
        repair walks (the loser finds nothing and rebuilds).  The caller
        must finish the story: :meth:`adopt_repaired` on success,
        :meth:`note_dropped` on failure.  Only values that implement the
        repair protocol (``apply_delta``) are handed out; anything else
        (certifications, gram structures, flow results memoise exact
        old-content computations) is never repaired and stays where it is.
        """
        with self._lock:
            key = self.make_key(graph_key, version, kind, params)
            entry = self._entries.get(key)
            if entry is None or not hasattr(entry.value, "apply_delta"):
                return None
            self._remove_locked(key)
            return entry

    def adopt_repaired(
        self,
        graph_key: str,
        version: int,
        kind: str,
        params: Tuple[Hashable, ...],
        value: Any,
        repair_seconds: float = 0.0,
    ) -> Any:
        """Insert a lazily repaired artifact under its new identity.

        Counts one repair and the repair's wall time.  If a racing thread
        built or repaired the same identity first, the racing value is
        adopted instead (mirroring ``get_or_build``) and no repair is
        counted.  Returns the value now cached under the identity.
        """
        with self._lock:
            key = self.make_key(graph_key, version, kind, params)
            existing = self._entries.get(key)
            if existing is not None:
                self.stats.build_seconds += repair_seconds
                return existing.value
            self._entries[key] = CacheEntry(
                key=key,
                value=value,
                nbytes=estimate_nbytes(value),
                graph_key=graph_key,
                version=int(version),
                kind=kind,
                build_seconds=repair_seconds,
            )
            self._total_bytes += self._entries[key].nbytes
            self.stats.repairs += 1
            self.stats.build_seconds += repair_seconds
            self._evict_locked()
            return value

    def note_dropped(self, count: int = 1) -> None:
        """Account for stale entries dropped outside the cache's own sweeps.

        Balances the books after :meth:`take_stale_entry` when the repair
        attempt failed and the popped artifact was discarded.
        """
        with self._lock:
            self.stats.invalidations += int(count)

    def _invalidate_generation_locked(self, source: Tuple[str, int]) -> None:
        graph_key, version = source
        doomed = [
            key
            for key, entry in self._entries.items()
            if entry.graph_key == graph_key and entry.version == version
        ]
        for key in doomed:
            self._remove_locked(key)
        self.stats.invalidations += len(doomed)

    def discard(
        self, graph_key: str, version: int, kind: str, params: Tuple[Hashable, ...] = ()
    ) -> bool:
        """Drop one exact entry if present; returns whether it existed.

        Used by the planner to retire a single artifact whose *contract*
        drifted -- e.g. a repaired sketched oracle whose widened
        ``eta_effective`` no longer covers the client's requested bound --
        without sweeping the graph's other artifacts.
        """
        with self._lock:
            key = self.make_key(graph_key, version, kind, params)
            if key not in self._entries:
                return False
            self._remove_locked(key)
            self.stats.invalidations += 1
            return True

    def swap_value(
        self,
        graph_key: str,
        version: int,
        kind: str,
        params: Tuple[Hashable, ...],
        value: Any,
    ) -> bool:
        """Replace one entry's value in place, keeping its stats and LRU slot.

        Used by the cluster worker after publishing an artifact to shared
        memory: the freshly built private object is swapped for its
        shm-backed equivalent (same answers, physical pages shared with
        every other worker and survivable across respawns) without
        perturbing hit counters or eviction order.  Byte accounting is
        re-estimated from the new value.  Returns whether the entry
        existed.
        """
        key = self.make_key(graph_key, version, kind, params)
        nbytes = estimate_nbytes(value)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            self._total_bytes += nbytes - entry.nbytes
            entry.value = value
            entry.nbytes = nbytes
            return True

    def contains(
        self, graph_key: str, version: int, kind: str, params: Tuple[Hashable, ...] = ()
    ) -> bool:
        """Whether an artifact is cached under this exact identity (no stats)."""
        with self._lock:
            return self.make_key(graph_key, version, kind, params) in self._entries

    @property
    def total_bytes(self) -> int:
        """Estimated resident bytes of every cached artifact combined."""
        with self._lock:
            return self._total_bytes

    def entries(self) -> List[CacheEntry]:
        """Snapshot of entries in LRU -> MRU order (metadata, live values)."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry (stats counters are kept; they are cumulative)."""
        with self._lock:
            self._entries.clear()
            self._pending.clear()
            self._total_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals -------------------------------------------------------------

    def _remove_locked(self, key: Tuple[Hashable, ...]) -> None:
        entry = self._entries.pop(key)
        self._total_bytes -= entry.nbytes

    def _evict_locked(self) -> None:
        # never evict the most-recently-inserted entry: a single artifact
        # larger than the whole budget is kept (and evicted by the next insert)
        while len(self._entries) > 1 and (
            self._total_bytes > self.max_bytes
            or (self.max_entries is not None and len(self._entries) > self.max_entries)
        ):
            oldest = next(iter(self._entries))
            self._remove_locked(oldest)
            self.stats.evictions += 1

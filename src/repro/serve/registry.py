"""Graph registry: stable handles over content-fingerprinted graphs.

The serving layer amortises one expensive preprocessing artifact (a spectral
sparsifier and its factorisation) across many cheap queries, which only works
if the service can tell *which* graph a query refers to and whether that graph
still has the content the artifacts were built against.  The registry answers
both questions:

* **Identity** -- :func:`graph_fingerprint` hashes the canonical edge columns
  ``(n, u, v, w)``, so registering the same content twice deduplicates to one
  handle regardless of which ``WeightedGraph`` object carries it.
* **Staleness** -- every :class:`repro.graphs.graph.WeightedGraph` mutator
  bumps a monotonic ``_version`` counter; a :class:`RegisteredGraph` remembers
  the version it last saw, so ``entry.is_current()`` detects in O(1) that a
  registered graph was mutated and cached artifacts must not be served.
  What happens *next* is the planner's choice: the graph's mutation journal
  (:meth:`WeightedGraph.delta_since` against the remembered version) can
  describe the drift as a short list of edge mutations, in which case cached
  artifacts are repaired with low-rank updates and rekeyed to the new
  fingerprint instead of being rebuilt from scratch.

Fingerprints are sha256 over the exact float bytes: collisions are
cryptographically improbable, but the registry still *verifies* on every
fingerprint match that the stored graph compares equal, and raises
:class:`FingerprintCollisionError` otherwise -- a corrupted or deliberately
weakened fingerprint function (tests inject one) degrades to a loud error,
never to silently serving another graph's artifacts.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.graphs.graph import WeightedGraph


class UnknownGraphError(KeyError):
    """No graph is registered under the requested handle.

    A :class:`KeyError` subclass so historical ``except KeyError`` callers
    keep working, but typed so serving clients can tell "you never
    registered this" apart from every other lookup failure.
    """


def graph_fingerprint(graph) -> str:
    """Content fingerprint: sha256 over the canonical edge columns.

    Two graphs receive the same fingerprint iff they have the same vertex
    count and exactly the same edge data (up to float bit patterns),
    independent of insertion order -- ``edge_array`` already sorts
    canonically.  Works for any graph type exposing ``n`` and ``edge_array()``
    (``WeightedGraph`` returns ``(u, v, w)``,
    :class:`~repro.graphs.digraph.FlowNetwork` adds capacity/cost columns and
    source/sink terminals, which are hashed too).
    """
    digest = hashlib.sha256()
    digest.update(str(graph.n).encode("ascii"))
    for column in graph.edge_array():
        digest.update(column.tobytes())
    for terminal in ("source", "sink"):
        value = getattr(graph, terminal, None)
        if value is not None:
            digest.update(f"{terminal}={value}".encode("ascii"))
    return digest.hexdigest()


class FingerprintCollisionError(RuntimeError):
    """Two graphs with different content produced the same fingerprint."""


@dataclass
class RegisteredGraph:
    """One registry entry: a graph, its fingerprint, and the version seen."""

    key: str
    graph: WeightedGraph
    fingerprint: str
    version: int
    name: Optional[str] = None

    def is_current(self) -> bool:
        """Whether the graph object still has the content we registered."""
        return self.graph.version == self.version


class GraphRegistry:
    """Thread-safe registry of graphs keyed by content fingerprint.

    ``register`` returns a stable string handle (the content fingerprint at
    registration time, or a caller-chosen ``name``).  The handle survives
    mutations of the underlying graph: :meth:`revalidate` refreshes the
    entry's fingerprint/version in place, which is what the service calls
    before rebuilding artifacts for a drifted graph.
    """

    def __init__(self):
        self._entries: Dict[str, RegisteredGraph] = {}
        self._by_fingerprint: Dict[str, str] = {}  # fingerprint -> handle
        self._lock = threading.RLock()

    def register(self, graph, name: Optional[str] = None) -> str:
        """Register ``graph``; return its handle.

        Registering content that is already present deduplicates: the
        existing handle is returned (after verifying actual equality, see
        :class:`FingerprintCollisionError`).  A ``name`` makes the handle
        human-readable; attaching a name to content that is already
        registered under a different handle is an error (the name would
        otherwise be silently unusable), as is re-using a name for
        different content.
        """
        fingerprint = graph_fingerprint(graph)
        with self._lock:
            handle = self._by_fingerprint.get(fingerprint)
            if handle is not None and not self._entries[handle].is_current():
                # the index entry is stale (its graph was mutated since we
                # fingerprinted it); refresh it before treating a match as
                # either a duplicate or a collision
                self.revalidate(handle)
                handle = self._by_fingerprint.get(fingerprint)
            if handle is not None:
                entry = self._entries[handle]
                if entry.graph is not graph and entry.graph != graph:
                    raise FingerprintCollisionError(
                        f"fingerprint {fingerprint!r} is shared by two different "
                        f"graphs ({entry.graph!r} vs {graph!r}); refusing to alias"
                    )
                if name is not None and entry.name != name:
                    raise ValueError(
                        f"graph content is already registered under handle "
                        f"{entry.key!r}; cannot re-register as {name!r}"
                    )
                return handle
            if name is not None:
                handle = name
                if handle in self._entries:
                    raise ValueError(f"handle {handle!r} is already registered")
            else:
                # default handle: the fingerprint at registration time.  A
                # previously registered graph may have drifted away from this
                # very fingerprint while keeping it as its (stable) handle,
                # so disambiguate with a suffix instead of refusing.
                handle = fingerprint
                suffix = 1
                while handle in self._entries:
                    handle = f"{fingerprint}-{suffix}"
                    suffix += 1
            self._entries[handle] = RegisteredGraph(
                key=handle,
                graph=graph,
                fingerprint=fingerprint,
                version=graph.version,
                name=name,
            )
            self._by_fingerprint[fingerprint] = handle
            return handle

    def get(self, key: str) -> RegisteredGraph:
        """Entry for ``key`` (a handle returned by :meth:`register`)."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            raise UnknownGraphError(f"no graph registered under {key!r}")
        return entry

    def revalidate(self, key: str) -> bool:
        """Refresh fingerprint/version after a mutation; return drift status.

        Returns ``True`` when the graph had been mutated since the entry was
        last current (the caller must then repair or invalidate
        version-stale artifacts -- a caller that wants to *diff* the two
        states must read ``entry.graph.delta_since(entry.version)`` *before*
        calling this, because revalidation forgets the old version), and
        ``False`` when nothing changed.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise UnknownGraphError(f"no graph registered under {key!r}")
            if entry.is_current():
                return False
            new_fingerprint = graph_fingerprint(entry.graph)
            other = self._by_fingerprint.get(new_fingerprint)
            if other is not None and other != key:
                colliding = self._entries[other]
                if colliding.graph is not entry.graph and colliding.graph != entry.graph:
                    raise FingerprintCollisionError(
                        f"fingerprint {new_fingerprint!r} is shared by two "
                        f"different graphs after mutation of {key!r}"
                    )
            # drop the old index mapping only if it still points at us: after
            # earlier drifts it may have been claimed by (or left with)
            # another entry whose mapping must survive
            if self._by_fingerprint.get(entry.fingerprint) == key:
                del self._by_fingerprint[entry.fingerprint]
            entry.fingerprint = new_fingerprint
            entry.version = entry.graph.version
            self._by_fingerprint.setdefault(new_fingerprint, key)
            return True

    def unregister(self, key: str) -> None:
        """Drop the entry for ``key`` (artifacts are the cache's concern)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                raise UnknownGraphError(f"no graph registered under {key!r}")
            if self._by_fingerprint.get(entry.fingerprint) == key:
                del self._by_fingerprint[entry.fingerprint]

    def keys(self) -> List[str]:
        """Snapshot of the registered handles."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

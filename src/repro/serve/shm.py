"""Shared-memory artifact store for the multi-process serving tier.

The cluster's big serving artifacts -- the dense
:class:`~repro.linalg.sparse_backend.ResistanceOracle` inverse (``n x n``
float64), the :class:`~repro.linalg.resistance.SketchedResistanceOracle`
embedding (``n x k`` float32) -- are read-only after they are built.
Keeping one private copy per worker process would multiply their resident
cost by the worker count and force a multi-megabyte pickle over the control
pipe on every respawn.  This module instead publishes each artifact's numpy
arrays into one POSIX shared-memory segment
(:mod:`multiprocessing.shared_memory`): the publishing worker packs the
arrays once, any process that holds the picklable :class:`ShmArtifactSpec`
attaches zero-copy ``np.ndarray`` views, and a respawned worker re-serves
the artifact without rebuilding it.

Ownership and lifecycle
-----------------------

Each :class:`SharedArtifactStore` closes the attachments it opened.
*Unlinking* (removing the segment name from the kernel) is the cluster
parent's job alone: workers publish segments and immediately report the
spec to the parent, which :meth:`adopts <SharedArtifactStore.adopt>` them;
``ClusterService.close()`` then unlinks every adopted segment exactly once.
A worker that crashes between creating a segment and the parent's adopt
leaks at most the artifacts of one flush round -- the parent closes that
window by adopting specs as soon as the ``published`` notification arrives,
before the query replies that follow it.

CPython interaction: the ``multiprocessing.resource_tracker`` process is
shared between the parent and every spawned worker (the tracker fd is
inherited), and its ledger is a *set* of segment names -- creates and
attaches register idempotently, and the parent's final
``SharedMemory.unlink()`` unregisters exactly once, so the books balance
without manual tracker surgery.  The tracker doubles as crash insurance:
if the whole process tree dies before ``close()``, it unlinks every
registered segment when the last client exits (the infamous bpo-38119
attach-side unlink only bites processes with *separate* trackers, which
spawned workers are not).
"""

from __future__ import annotations

import os
import secrets
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Dict, Hashable, NamedTuple, Optional, Tuple

import numpy as np


class ShmArraySpec(NamedTuple):
    """Location of one packed array inside a shared segment."""

    #: field name the reconstructing artifact looks the array up under
    field: str
    #: array shape, as built
    shape: Tuple[int, ...]
    #: numpy dtype string (``np.dtype(...).str``, endianness included)
    dtype: str
    #: byte offset of the array's first element inside the segment
    offset: int


@dataclass(frozen=True)
class ShmArtifactSpec:
    """Picklable description of one published artifact.

    Everything a worker needs to re-serve the artifact without rebuilding
    it: the segment name, the packed array layout, the cache identity
    (``graph_key``/``version``/``kind``/``params`` exactly as
    :meth:`~repro.serve.artifacts.ArtifactCache.make_key` wants them) and
    the scalar metadata the reconstruction hook
    (``ResistanceOracle.from_shared`` / ``SketchedResistanceOracle
    .from_shared``) restores onto the rebuilt object.
    """

    #: shared-memory segment name (``shm_open`` name, no leading slash)
    segment: str
    #: artifact cache kind (``"resistance_oracle"``, ``"sketched_resistance"``, ...)
    kind: str
    #: content fingerprint of the graph the artifact was built for
    graph_key: str
    #: graph version at build time (the staleness guard)
    version: int
    #: cache params tuple, verbatim
    params: Tuple[Hashable, ...]
    #: packed array layout inside the segment
    arrays: Tuple[ShmArraySpec, ...] = field(default_factory=tuple)
    #: scalar metadata ``(name, value)`` pairs for the reconstruction hook
    meta: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    #: total payload bytes (cache accounting on the attaching side)
    nbytes: int = 0

    def meta_dict(self) -> Dict[str, Any]:
        """The scalar metadata as a plain dict."""
        return dict(self.meta)


class AttachedArtifact:
    """Zero-copy read-only views over one published artifact's arrays."""

    def __init__(self, spec: ShmArtifactSpec, shm: shared_memory.SharedMemory):
        self.spec = spec
        self._shm = shm
        self._closed = False
        views: Dict[str, np.ndarray] = {}
        for array_spec in spec.arrays:
            view = np.ndarray(
                array_spec.shape,
                dtype=np.dtype(array_spec.dtype),
                buffer=shm.buf,
                offset=array_spec.offset,
            )
            view.flags.writeable = False
            views[array_spec.field] = view
        self.arrays = views

    def close(self) -> None:
        """Drop the views and unmap the segment (never unlinks)."""
        if self._closed:
            return
        self._closed = True
        # the views hold buffer references into shm.buf; drop them first so
        # SharedMemory.close() can release the mapping without BufferError
        self.arrays = {}
        self._shm.close()


class SharedArtifactStore:
    """Publish/attach/unlink shared-memory artifacts.

    One store per process.  Workers ``publish`` and ``attach``; the cluster
    parent additionally ``adopt``s worker-published segments, becoming the
    single process responsible for ``unlink_all`` at shutdown.  All methods
    are thread-safe (the parent's receiver threads adopt concurrently).
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: segments this store created or adopted -- the ones unlink_all removes
        self._owned: Dict[str, ShmArtifactSpec] = {}
        #: attachments opened through this store, for close()
        self._attachments: list = []

    def publish(
        self,
        kind: str,
        graph_key: str,
        version: int,
        params: Tuple[Hashable, ...],
        arrays: Dict[str, np.ndarray],
        meta: Optional[Dict[str, Any]] = None,
    ) -> ShmArtifactSpec:
        """Pack ``arrays`` into a fresh segment and return its spec.

        The segment is created by this process (which therefore owns the
        name until someone else adopts it) and the arrays are copied in
        once, 64-byte aligned so the attached views keep numpy's preferred
        alignment.
        """
        layout = []
        offset = 0
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = -(-offset // 64) * 64  # align each array at 64 bytes
            layout.append((name, array, offset))
            offset += array.nbytes
        total = max(1, offset)
        segment_name = f"repro-{os.getpid()}-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(create=True, name=segment_name, size=total)
        array_specs = []
        for name, array, start in layout:
            dest = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf, offset=start)
            dest[...] = array
            array_specs.append(
                ShmArraySpec(
                    field=name,
                    shape=tuple(array.shape),
                    dtype=np.dtype(array.dtype).str,
                    offset=start,
                )
            )
        del dest
        spec = ShmArtifactSpec(
            segment=segment_name,
            kind=kind,
            graph_key=graph_key,
            version=int(version),
            params=tuple(params),
            arrays=tuple(array_specs),
            meta=tuple(sorted((meta or {}).items())),
            nbytes=total,
        )
        shm.close()
        with self._lock:
            self._owned[segment_name] = spec
        return spec

    def attach(self, spec: ShmArtifactSpec) -> AttachedArtifact:
        """Map an existing segment and return read-only views over it.

        The store closes the attachment on :meth:`close`; attaching never
        transfers unlink responsibility (the tracker's set-ledger makes the
        extra registration a no-op).
        """
        shm = shared_memory.SharedMemory(name=spec.segment)
        attached = AttachedArtifact(spec, shm)
        with self._lock:
            self._attachments.append(attached)
        return attached

    def adopt(self, spec: ShmArtifactSpec) -> None:
        """Take unlink ownership of a segment another process created.

        The cluster parent adopts every spec a worker reports so that
        exactly one process -- the parent -- unlinks at shutdown, even if
        the publishing worker has long since crashed.
        """
        with self._lock:
            self._owned[spec.segment] = spec

    def owned_specs(self) -> Tuple[ShmArtifactSpec, ...]:
        """Specs of every segment this store would unlink."""
        with self._lock:
            return tuple(self._owned.values())

    def specs_for(
        self, graph_key: str, version: Optional[int] = None
    ) -> Tuple[ShmArtifactSpec, ...]:
        """Owned specs for one graph fingerprint (optionally one version).

        The cluster parent's replica/respawn path: when a graph is
        (re-)registered on a worker, the specs of every artifact already
        published for its *current* content ride along so the worker
        re-attaches instead of rebuilding.  With replication the same
        artifact may be published once per replica (each worker packs its
        own segment); all of them are owned -- and unlinked -- by the
        parent, and any one of them serves a re-attach.
        """
        with self._lock:
            return tuple(
                spec
                for spec in self._owned.values()
                if spec.graph_key == graph_key
                and (version is None or spec.version == version)
            )

    def unlink(self, segment: str) -> bool:
        """Unlink one owned segment; returns whether it still existed."""
        with self._lock:
            self._owned.pop(segment, None)
        try:
            shm = shared_memory.SharedMemory(name=segment)
        except FileNotFoundError:
            return False
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            return False
        return True

    def unlink_all(self) -> int:
        """Unlink every owned segment; returns how many were removed."""
        with self._lock:
            names = list(self._owned)
        removed = 0
        for name in names:
            if self.unlink(name):
                removed += 1
        return removed

    def close(self, unlink: bool = True) -> None:
        """Close every attachment; owners additionally unlink their segments."""
        with self._lock:
            attachments = list(self._attachments)
            self._attachments = []
        for attached in attachments:
            attached.close()
        if unlink:
            self.unlink_all()


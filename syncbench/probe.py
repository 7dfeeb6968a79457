"""Per-layer attribution for traced rounds.

The probe wraps the public functions of each layer on their classes and
times every call from the benchmark's side; the program's own TRACER
stays off.  Wrappers are installed for one round and removed afterwards,
so untraced rounds run the unmodified code.

The same wrappers can slow one function down by a fixed share of its own
duration (``slow``), which is how the benchmark's self-test checks that a
slower layer shows up in that layer's metric and in the end-to-end metric
of the workload it should move.  Only the self-test slows anything.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.client.chunker import FixedChunker
from repro.client.compression import GzipCompressor
from repro.client.indexer import Indexer
from repro.client.sync_client import StackSyncClient
from repro.client.transfer import ChunkTransferManager
from repro.metadata.memory_backend import MemoryMetadataBackend
from repro.mom.broker_server import MessageBroker
from repro.serialization.pickle_codec import PickleSerializer
from repro.storage.object_store import SwiftLikeStore
from repro.sync.service import SyncService

#: (owner class, attribute, timer name).  Timers are inclusive wall time
#: on the calling thread.
TARGETS: Tuple[Tuple[type, str, str], ...] = (
    (Indexer, "index_change", "client.index"),
    (GzipCompressor, "compress", "client.compress"),
    (GzipCompressor, "decompress", "client.decompress"),
    (ChunkTransferManager, "upload_chunks", "transfer.upload"),
    (ChunkTransferManager, "fetch_chunks", "transfer.fetch"),
    (SwiftLikeStore, "put_object", "storage.put"),
    (SwiftLikeStore, "get_object", "storage.get"),
    (StackSyncClient, "flush", "objectmq.cast"),
    (PickleSerializer, "encode", "serialization.encode"),
    (PickleSerializer, "decode", "serialization.decode"),
    (MessageBroker, "publish", "mom.publish"),
    (MessageBroker, "publish_many", "mom.publish"),
    (SyncService, "commit_request", "sync.commit"),
    (MemoryMetadataBackend, "store_versions_bulk", "metadata.store"),
    (MemoryMetadataBackend, "get_workspace_state", "metadata.get_changes"),
)

#: Timers whose calls lie on an operation's blocking path, one after the
#: other: writer-side index/upload/cast, the server's commit or state
#: read, and the reading device's download.  What sync latency holds
#: beyond them is queue wait, thread hand-offs and interpreter-lock waits.
BLOCKING = (
    "client.index",
    "transfer.upload",
    "objectmq.cast",
    "sync.commit",
    "metadata.get_changes",
    "transfer.fetch",
)


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class LayerProbe:
    """Installs timing (and optional slowdown) wrappers on the layers.

    Args:
        slow: ``"Class.attr" -> share`` of extra busy time added after
            each call of that function, inside its timer.
    """

    def __init__(self, slow: Optional[Dict[str, float]] = None):
        self.slow = dict(slow or {})
        unknown = set(self.slow) - {f"{owner.__name__}.{attr}" for owner, attr, _ in TARGETS}
        if unknown:
            raise ValueError(f"unknown slow target(s): {sorted(unknown)}")
        self._lock = threading.Lock()
        self._saved: List[Tuple[type, str, Callable]] = []
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.compress_in = 0
            self.compress_out = 0
            self.chunks_indexed = 0
            self.chunks_deduplicated = 0
            self.transfers = 0
            self.retries = 0
            self.coalesced = 0
            # request_id -> perf_counter at the writer's flush return /
            # at commit_request entry.
            self.cast_done: Dict[str, float] = {}
            self.commit_entered: Dict[str, float] = {}
            # (item_id, version) -> wall time commit_request returned.
            self.commit_done: Dict[Tuple[str, int], float] = {}

    # -- install / remove -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probe already installed")
        for owner, attr, timer in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            slow = self.slow.get(f"{owner.__name__}.{attr}", 0.0)
            setattr(owner, attr, self._wrap(original, timer, slow))
        # The fingerprinter is a per-chunker attribute (the client verifies
        # downloads with the same function it indexes with).
        original_init = FixedChunker.__dict__["__init__"]
        self._saved.append((FixedChunker, "__init__", original_init))
        probe = self

        @functools.wraps(original_init)
        def init(chunker, *args, **kwargs):
            original_init(chunker, *args, **kwargs)
            chunker.fingerprinter = probe._wrap(chunker.fingerprinter, "client.fingerprint", 0.0)

        FixedChunker.__init__ = init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- the wrapper --------------------------------------------------------------

    def _wrap(self, fn: Callable, timer: str, slow: float) -> Callable:
        before = getattr(self, "_before_" + timer.replace(".", "_"), None)
        after = getattr(self, "_after_" + timer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            if slow:
                _spin((time.perf_counter() - started) * slow)
            elapsed = time.perf_counter() - started
            with self._lock:
                self.seconds[timer] += elapsed
                self.calls[timer] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # Hooks named after their timer: ``_before_*`` may rewrite the call's
    # arguments, ``_after_*`` sees them and the result.

    def _after_client_index(self, args, kwargs, result) -> None:
        with self._lock:
            self.chunks_indexed += len(result.proposal.chunks)
            self.chunks_deduplicated += len(result.deduplicated)

    def _after_client_compress(self, args, kwargs, result) -> None:
        with self._lock:
            self.compress_in += len(args[1])
            self.compress_out += len(result)

    def _count_transfer(self, record) -> None:
        with self._lock:
            if record.coalesced:
                self.coalesced += 1
            else:
                self.transfers += 1
                self.retries += record.attempts - 1

    def _before_transfer(self, args, kwargs):
        downstream = kwargs.get("record")

        def record(rec):
            self._count_transfer(rec)
            if downstream is not None:
                downstream(rec)

        return args, dict(kwargs, record=record)

    _before_transfer_upload = _before_transfer
    _before_transfer_fetch = _before_transfer

    def _after_serialization_encode(self, args, kwargs, result) -> None:
        envelope = args[1]
        if isinstance(envelope, dict) and envelope.get("method") == "commit_request":
            self._pending_casts().append(envelope["kwargs"]["request_id"])

    def _pending_casts(self) -> List[str]:
        pending = getattr(self._local, "casts", None)
        if pending is None:
            pending = self._local.casts = []
        return pending

    def _after_objectmq_cast(self, args, kwargs, result) -> None:
        done = time.perf_counter()
        pending = self._pending_casts()
        with self._lock:
            for request_id in pending:
                self.cast_done[request_id] = done
        pending.clear()

    def _before_sync_commit(self, args, kwargs):
        entered = time.perf_counter()
        with self._lock:
            self.commit_entered[kwargs["request_id"]] = entered
        return args, kwargs

    def _after_sync_commit(self, args, kwargs, result) -> None:
        done = time.time()
        with self._lock:
            for proposal in args[3]:
                self.commit_done[(proposal.item_id, proposal.version)] = done

    # -- results ------------------------------------------------------------------

    def queue_wait_seconds(self) -> float:
        """Sum over commits of flush return -> commit_request entry."""
        with self._lock:
            return sum(
                max(0.0, self.commit_entered[rid] - done)
                for rid, done in self.cast_done.items()
                if rid in self.commit_entered
            )

    def blocking_seconds(self) -> float:
        with self._lock:
            return sum(self.seconds[timer] for timer in BLOCKING)

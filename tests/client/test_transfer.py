"""ChunkTransferManager: worker-side encode, retry, coalescing, ordered
parallel reassembly."""

from __future__ import annotations

import threading
import time
import zlib

import pytest

from repro.client.chunker import FixedChunker
from repro.client.compression import GzipCompressor
from repro.client.transfer import ChunkTransferManager
from repro.errors import ObjectNotFound, StorageError
from repro.storage import SwiftLikeStore


class FlakyStore:
    """Store facade that fails the first N operations with a transient error."""

    def __init__(self, inner, put_failures=0, get_failures=0):
        self.inner = inner
        self._lock = threading.Lock()
        self.put_failures = put_failures
        self.get_failures = get_failures
        self.put_attempts = 0
        self.get_attempts = 0

    def put_object(self, container, name, data):
        with self._lock:
            self.put_attempts += 1
            if self.put_failures > 0:
                self.put_failures -= 1
                raise StorageError("transient put failure")
        self.inner.put_object(container, name, data)

    def get_object(self, container, name):
        with self._lock:
            self.get_attempts += 1
            if self.get_failures > 0:
                self.get_failures -= 1
                raise StorageError("transient get failure")
        return self.inner.get_object(container, name)


class GatedStore:
    """Store facade whose GETs and PUTs block until the gate opens."""

    def __init__(self, inner, gate):
        self.inner = inner
        self.gate = gate
        self.entered = threading.Event()
        self._lock = threading.Lock()
        self.get_count = 0
        self.put_count = 0

    def get_object(self, container, name):
        self.gate.wait(timeout=5)
        with self._lock:
            self.get_count += 1
        return self.inner.get_object(container, name)

    def put_object(self, container, name, data):
        self.entered.set()
        self.gate.wait(timeout=5)
        with self._lock:
            self.put_count += 1
        self.inner.put_object(container, name, data)


class RecordingCodec(GzipCompressor):
    """The default codec, noting the thread of every compress call."""

    def __init__(self, fail_with=None):
        super().__init__()
        self.fail_with = fail_with
        self._lock = threading.Lock()
        self.compress_threads = []

    def compress(self, data):
        with self._lock:
            self.compress_threads.append(threading.current_thread().name)
        if self.fail_with is not None:
            raise self.fail_with
        return super().compress(data)


@pytest.fixture
def store():
    s = SwiftLikeStore(node_count=2, replicas=2)
    s.create_container("c")
    return s


def manager(**kwargs):
    kwargs.setdefault("backoff", 0.0)
    return ChunkTransferManager(**kwargs)


def test_upload_retries_transient_storage_error(store):
    flaky = FlakyStore(store, put_failures=2)
    with manager(pool_size=2, max_attempts=3) as tm:
        records = tm.upload_chunks(flaky, "c", [("fp1", b"payload")])
    assert records[0].attempts == 3
    assert flaky.put_attempts == 3
    assert store.get_object("c", "fp1") == b"payload"
    assert tm.stats.retries == 2


def test_upload_raises_after_exhausting_attempts(store):
    flaky = FlakyStore(store, put_failures=10)
    with manager(pool_size=2, max_attempts=2) as tm:
        with pytest.raises(StorageError):
            tm.upload_chunks(flaky, "c", [("fp1", b"payload")])
        assert flaky.put_attempts == 2
        # The failed key was unregistered: a later attempt works.
        flaky.put_failures = 0
        tm.upload_chunks(flaky, "c", [("fp1", b"payload")])
    assert store.get_object("c", "fp1") == b"payload"


def test_upload_stores_and_caches_the_encoding(store):
    uploaded = {}
    with manager(pool_size=2) as tm:
        [rec] = tm.upload_chunks(
            store,
            "c",
            [("fp1", b"raw " * 64)],
            encode=zlib.compress,
            on_uploaded=uploaded.__setitem__,
        )
    encoded = zlib.compress(b"raw " * 64)
    assert store.get_object("c", "fp1") == encoded
    assert uploaded == {"fp1": encoded}  # the caller caches what was stored
    assert rec.nbytes == len(encoded)


def test_upload_retry_repeats_the_put_not_the_encode(store):
    flaky = FlakyStore(store, put_failures=2)
    encoded = []

    def encode(raw):
        encoded.append(raw)
        return raw.upper()

    with manager(pool_size=2, max_attempts=3) as tm:
        [rec] = tm.upload_chunks(flaky, "c", [("fp1", b"payload")], encode=encode)
    assert rec.attempts == 3
    assert encoded == [b"payload"]
    assert store.get_object("c", "fp1") == b"PAYLOAD"


def test_concurrent_uploads_of_one_chunk_encode_once(store):
    gate = threading.Event()
    gated = GatedStore(store, gate)
    encoded = []

    def encode(raw):
        encoded.append(raw)
        return zlib.compress(raw)

    with manager(pool_size=4) as tm:
        first = threading.Thread(
            target=tm.upload_chunks,
            args=(gated, "c", [("shared", b"S" * 64)]),
            kwargs={"encode": encode},
        )
        first.start()
        assert gated.entered.wait(timeout=5)  # the first PUT is in flight
        threading.Timer(0.05, gate.set).start()
        [rec] = tm.upload_chunks(gated, "c", [("shared", b"S" * 64)], encode=encode)
        first.join(timeout=5)
    assert rec.coalesced
    assert encoded == [b"S" * 64]
    assert gated.put_count == 1
    assert tm.stats.chunks_up == 1
    assert tm.stats.coalesced == 1


def test_download_retries_transient_storage_error(store):
    store.put_object("c", "fp1", b"data")
    flaky = FlakyStore(store, get_failures=1)
    with manager(pool_size=2, max_attempts=3) as tm:
        [payload] = tm.fetch_chunks(flaky, "c", ["fp1"])
    assert payload == b"data"
    assert flaky.get_attempts == 2


def test_object_not_found_is_not_retried(store):
    flaky = FlakyStore(store)
    with manager(pool_size=2, max_attempts=5) as tm:
        with pytest.raises(ObjectNotFound):
            tm.fetch_chunks(flaky, "c", ["missing"])
    assert flaky.get_attempts == 1


def test_ordered_reassembly_under_concurrency(store):
    # Chunks whose storage latency *decreases* with index: without ordered
    # reassembly, later chunks would finish (and land) first.
    fingerprints = [f"fp{i:03d}" for i in range(24)]
    for i, fp in enumerate(fingerprints):
        store.put_object("c", fp, f"piece-{i:03d}".encode())

    class SkewedStore:
        def get_object(self, container, name):
            index = int(name[2:])
            time.sleep((len(fingerprints) - index) * 0.002)
            return store.get_object(container, name)

    with manager(pool_size=8) as tm:
        pieces = tm.fetch_chunks(SkewedStore(), "c", fingerprints)
    assert pieces == [f"piece-{i:03d}".encode() for i in range(24)]


def test_decode_runs_before_caching_and_failure_propagates(store):
    store.put_object("c", "fp1", b"corrupt")
    cached = {}

    def decode(fp, payload):
        raise StorageError("integrity check failed")

    with manager(pool_size=2, max_attempts=1) as tm:
        with pytest.raises(StorageError):
            tm.fetch_chunks(
                store, "c", ["fp1"], decode=decode, on_fetched=cached.__setitem__
            )
    assert cached == {}  # rejected payloads are never cached


def test_in_flight_download_coalescing(store):
    store.put_object("c", "shared", b"S" * 64)
    gate = threading.Event()
    gated = GatedStore(store, gate)
    threading.Timer(0.05, gate.set).start()
    with manager(pool_size=4) as tm:
        # The same fingerprint five times: all coalesce onto one GET.
        pieces = tm.fetch_chunks(gated, "c", ["shared"] * 5)
    assert pieces == [b"S" * 64] * 5
    assert gated.get_count == 1
    assert tm.stats.chunks_down == 1
    assert tm.stats.coalesced == 4


def test_cache_lookup_skips_download(store):
    store.put_object("c", "fp1", b"stored")
    with manager(pool_size=2) as tm:
        [payload] = tm.fetch_chunks(
            store, "c", ["fp1"], lookup={"fp1": b"cached"}.get
        )
    assert payload == b"cached"
    assert store.get_count == 0


def test_client_parallel_transfer_end_to_end(testbed):
    """A multi-chunk file syncs through the pool; counters match the store."""
    writer = testbed.client(
        device_id="w", chunker=FixedChunker(chunk_size=1024), transfer_pool_size=4
    )
    reader = testbed.client(
        device_id="r", chunker=FixedChunker(chunk_size=1024), transfer_pool_size=4
    )
    content = bytes(i % 251 for i in range(8 * 1024))  # 8 distinct chunks
    meta = writer.put_file("big.bin", content)
    assert reader.wait_for_version(meta.item_id, meta.version, timeout=10)
    assert reader.fs.read("big.bin") == content
    assert writer.stats.chunk_uploads == 8
    assert reader.stats.chunk_downloads == 8
    # Client-side accounting equals what the store itself metered.
    assert writer.stats.storage_up == testbed.storage.bytes_in
    assert reader.stats.storage_down == testbed.storage.bytes_out
    scraped = writer.stats.scrape()
    assert scraped["chunk_uploads"] == 8
    assert scraped["upload_seconds"] >= 0.0
    assert scraped["storage_up_bytes"] == testbed.storage.bytes_in


def test_compression_applied_to_uploads(testbed):
    """Compressible content is stored and charged below its raw size."""
    client = testbed.client(device_id="w", chunker=FixedChunker(chunk_size=1024))
    content = b"compressible " * 500
    client.put_file("a.txt", content)
    unique = {c.fingerprint: c.size for c in FixedChunker(chunk_size=1024).chunk(content)}
    raw = sum(unique.values())
    assert testbed.storage.bytes_in == client.stats.storage_up
    assert client.stats.chunk_uploads == len(unique)
    assert client.stats.storage_up < raw


def test_stored_chunks_are_the_codec_output_compressed_on_workers(testbed):
    codec = RecordingCodec()
    client = testbed.client(
        device_id="w", chunker=FixedChunker(chunk_size=1024), compressor=codec
    )
    content = bytes(i % 251 for i in range(8 * 1024))  # 8 distinct chunks
    client.put_file("big.bin", content)
    reference = GzipCompressor()
    chunks = FixedChunker(chunk_size=1024).chunk(content)
    assert len({c.fingerprint for c in chunks}) == 8
    for chunk in chunks:
        stored = testbed.storage.get_object(client.container, chunk.fingerprint)
        assert stored == reference.compress(chunk.data)
    # Every chunk was compressed exactly once, on a pool worker and never
    # on the caller's thread.
    assert len(codec.compress_threads) == 8
    caller = threading.current_thread().name
    assert all(name.startswith("chunk-transfer") for name in codec.compress_threads)
    assert caller not in codec.compress_threads


def test_traffic_counters_do_not_depend_on_pool_size():
    from tests.conftest import SyncTestbed

    content = bytes(i % 251 for i in range(12 * 1024)) + b"tail" * 100
    counters = {}
    for pool_size in (1, 4):
        bed = SyncTestbed()
        try:
            client = bed.client(
                device_id="w",
                chunker=FixedChunker(chunk_size=1024),
                transfer_pool_size=pool_size,
            )
            client.put_file("big.bin", content)
            client.put_file("copy.bin", content)  # fully deduplicated
            scraped = client.stats.scrape()
            counters[pool_size] = (
                bed.storage.bytes_in,
                bed.storage.put_count,
                scraped["storage_up_bytes"],
                scraped["chunk_uploads"],
                scraped["transfers_coalesced"],
            )
        finally:
            bed.close()
    assert counters[1] == counters[4]
    assert counters[1][0] == counters[1][2]


def test_encode_failure_fails_put_file_without_side_effects(testbed):
    # A StorageError from the codec looks transient, yet only the PUT is
    # retried: each chunk is encoded exactly once.
    codec = RecordingCodec(fail_with=StorageError("codec failure"))
    client = testbed.client(
        device_id="w", chunker=FixedChunker(chunk_size=1024), compressor=codec
    )
    content = bytes(i % 251 for i in range(4 * 1024))
    with pytest.raises(StorageError, match="codec failure"):
        client.put_file("big.bin", content)
    assert len(codec.compress_threads) == 4
    assert testbed.storage.list_container(client.container) == []
    assert testbed.storage.put_count == 0
    for chunk in FixedChunker(chunk_size=1024).chunk(content):
        assert client.local_db.cached_chunk(chunk.fingerprint) is None
        assert not client.local_db.knows_fingerprint(chunk.fingerprint)
    assert client.stats.commits_sent == 0
    assert client.local_db.get_by_path("big.bin") is None

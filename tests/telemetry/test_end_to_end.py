"""One multi-chunk commit → one causally-linked span tree across layers."""

from __future__ import annotations

import json
import time

import pytest

from repro.client.chunker import FixedChunker
from repro.telemetry import (
    TRACER,
    disable,
    enable,
    spans_to_chrome_trace,
)


@pytest.fixture
def traced_testbed(testbed):
    enable()
    yield testbed
    disable()


def spans_of_trace(spans, trace_id):
    return [s for s in spans if s.trace_id == trace_id]


def wait_for_span(name, timeout=5.0):
    """Server-side spans close just after the commit ack; poll for them."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(s.name == name for s in TRACER.spans()):
            return TRACER.spans()
        time.sleep(0.01)
    raise AssertionError(f"span {name!r} never recorded")


def test_commit_produces_one_tree_across_layers(traced_testbed):
    client = traced_testbed.client(
        device_id="traced", chunker=FixedChunker(chunk_size=1024)
    )
    TRACER.clear()  # drop the startup handshake, keep just the commit
    meta = client.put_file("big.bin", bytes(i % 251 for i in range(4 * 1024)))
    assert client.wait_for_version(meta.item_id, meta.version, timeout=10)

    spans = wait_for_span("skeleton.dispatch:commit_request")
    root = next(s for s in spans if s.name == "client.put_file")
    assert root.parent_id is None
    tree = spans_of_trace(spans, root.trace_id)

    # The acceptance bar: >= 5 distinct layers in ONE causally-linked
    # trace, including broker-derived queue wait and per-chunk storage IO.
    layers = {s.layer for s in tree}
    assert {"client", "proxy", "queue", "skeleton", "storage"} <= layers
    assert len(layers) >= 5

    # Every non-root span parent-links to another span of the same trace.
    ids = {s.span_id for s in tree}
    for span in tree:
        if span is not root:
            assert span.parent_id in ids

    # Four chunks -> four storage PUT spans, run on pool worker threads
    # yet joined to the client's trace via the captured parent context.
    puts = [s for s in tree if s.name == "storage.put_chunk"]
    assert len(puts) == 4
    assert all(s.thread.startswith("chunk-transfer") for s in puts)
    # Compression runs on the same workers, one encode span per chunk,
    # each a sibling of its chunk's PUT under the caller's context.
    encodes = [s for s in tree if s.name == "client.encode_chunk"]
    assert len(encodes) == 4
    assert all(s.thread.startswith("chunk-transfer") for s in encodes)
    assert all(s.layer == "client" for s in encodes)
    assert {s.parent_id for s in encodes} == {s.parent_id for s in puts}

    # Queue wait is derived from the broker's own enqueue/dequeue stamps.
    waits = [s for s in tree if s.layer == "queue"]
    assert waits and all(s.duration >= 0.0 for s in waits)
    assert any(s.name == "queue.wait:syncservice" for s in waits)


def test_sync_and_metadata_spans_join_the_commit_trace(traced_testbed):
    client = traced_testbed.client(device_id="md")
    TRACER.clear()
    meta = client.put_file("doc.txt", b"hello world")
    assert client.wait_for_version(meta.item_id, meta.version, timeout=10)
    spans = wait_for_span("skeleton.dispatch:commit_request")
    root = next(s for s in spans if s.name == "client.put_file")
    tree = spans_of_trace(spans, root.trace_id)
    names = {s.name for s in tree}
    assert "sync.commit_request" in names
    assert "metadata.txn" in names
    txn = next(s for s in tree if s.name == "metadata.txn")
    assert txn.attrs["proposals"] == 1
    parent = next(s for s in tree if s.span_id == txn.parent_id)
    assert parent.name == "sync.commit_request"


def test_download_path_is_traced(traced_testbed):
    writer = traced_testbed.client(device_id="w")
    reader = traced_testbed.client(device_id="r")
    TRACER.clear()
    meta = writer.put_file("shared.txt", b"payload" * 300)
    assert reader.wait_for_version(meta.item_id, meta.version, timeout=10)
    spans = TRACER.spans()
    fetch = next(s for s in spans if s.name == "client.fetch_content")
    gets = [
        s
        for s in spans
        if s.name == "storage.get_chunk" and s.trace_id == fetch.trace_id
    ]
    assert gets and all(s.parent_id == fetch.span_id for s in gets)


def test_chrome_export_of_live_trace(traced_testbed):
    client = traced_testbed.client(device_id="chrome")
    client.put_file("a.txt", b"x" * 2000)
    doc = spans_to_chrome_trace(TRACER.spans())
    # Self-check the invariants Perfetto/about:tracing rely on.
    assert json.loads(json.dumps(doc)) == doc
    for event in doc["traceEvents"]:
        assert event["ph"] in ("M", "X")
        if event["ph"] == "X":
            assert event["dur"] >= 0.0


def test_disabled_commit_adds_no_trace_keys(testbed):
    """With telemetry off, envelopes and headers carry zero trace bytes."""
    from repro.mom.broker_server import MessageBroker  # noqa: F401
    from repro.telemetry.trace import (
        DEQUEUED_AT_KEY,
        ENQUEUED_AT_KEY,
        TRACE_KEY,
    )

    captured = []
    original = testbed.mom.publish

    def spy(exchange, routing_key, message):
        captured.append(message)
        return original(exchange, routing_key, message)

    testbed.mom.publish = spy
    client = testbed.client(device_id="quiet")
    client.put_file("f.txt", b"content")
    assert captured
    for message in captured:
        assert TRACE_KEY not in message.headers
        assert ENQUEUED_AT_KEY not in message.headers
        assert DEQUEUED_AT_KEY not in message.headers
        assert TRACE_KEY.encode() not in message.body
    assert TRACER.spans() == []

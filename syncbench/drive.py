"""Drives the in-process StackSync stack through one benchmark round.

A round builds a fresh deployment (broker, metadata, storage, one
SyncService, the devices), runs one untimed warm-up segment, then the
timed phase, and checks every output.  Rounds are independent: before
each set-up the benchmark runs ``gc.collect``, so the peak memory of a
run is that of one round, and no collection is forced while timing.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Tuple

from repro.client.sync_client import StackSyncClient
from repro.metadata.memory_backend import MemoryMetadataBackend
from repro.mom.broker_server import MessageBroker
from repro.objectmq.broker import Broker
from repro.storage.object_store import SwiftLikeStore
from repro.sync.interface import SYNC_SERVICE_OID
from repro.sync.models import Workspace
from repro.sync.service import SyncService

import workloads
from workloads import REMOVE, Op

USER = "bench-user"
#: Commits the small-commits writer keeps outstanding (a burst of saves).
WINDOW = 16
#: Longest wait for one operation to reach the other device.
OP_TIMEOUT = 10.0
CONFLICT_MARK = "(conflicted copy"


class Deadline:
    """Run-wide time limit: past it, remaining operations count as failed."""

    def __init__(self, seconds: float):
        self.at = time.monotonic() + seconds

    def remaining(self) -> float:
        return self.at - time.monotonic()

    def timeout(self) -> float:
        return max(0.0, min(OP_TIMEOUT, self.remaining()))


@dataclass
class Counters:
    """Cumulative stack counters, sampled around the timed phase."""

    storage_bytes: int = 0
    control_bytes: int = 0
    messages: int = 0
    redeliveries: int = 0
    conflicts: int = 0

    def minus(self, other: "Counters") -> "Counters":
        return Counters(*(a - b for a, b in zip(astuple(self), astuple(other))))


@dataclass
class Phase:
    """What one timed phase did."""

    ops: int = 0
    ok: int = 0
    user_bytes: int = 0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    #: (item_id, version) -> wall time the reading device applied it.
    applied: Dict[Tuple[str, int], float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


class Stack:
    """One single-user deployment with one SyncService instance."""

    def __init__(self) -> None:
        self.mom = MessageBroker()
        self.metadata = MemoryMetadataBackend()
        self.storage = SwiftLikeStore(node_count=4, replicas=2)
        self.metadata.create_user(USER)
        self.workspace = Workspace(workspace_id="ws-bench", owner=USER)
        self.metadata.create_workspace(self.workspace)
        self.server = Broker(self.mom)
        self.service = SyncService(self.metadata, self.server)
        self.server.bind(SYNC_SERVICE_OID, self.service)
        self.devices: List[StackSyncClient] = []

    def device(self, name: str, start: bool = True) -> StackSyncClient:
        client = StackSyncClient(
            USER, self.workspace, self.mom, self.storage, device_id=name
        )
        self.devices.append(client)
        if start:
            client.start()
        return client

    def counters(self) -> Counters:
        mom = self.mom.stats.snapshot()
        return Counters(
            storage_bytes=self.storage.bytes_in + self.storage.bytes_out,
            control_bytes=mom["bytes_published"],
            messages=mom["publishes"],
            redeliveries=sum(
                self.mom.queue_stats(name)["redelivered"] for name in self.mom.queue_names()
            ),
            conflicts=self.service.conflict_count,
        )

    def close(self) -> None:
        for client in self.devices:
            if client.started:
                client.stop()
        self.server.close()
        self.mom.close()


def check_files(client: StackSyncClient, expected: Dict[str, bytes], who: str) -> List[str]:
    """Byte-compare a device's synced folder against the expected live set."""
    errors = []
    paths = client.fs.list_paths()
    conflicted = [p for p in paths if CONFLICT_MARK in p]
    if conflicted:
        errors.append(f"{who}: {len(conflicted)} conflicted copies")
    if sorted(expected) != paths:
        errors.append(f"{who}: {len(paths)} files, expected {len(expected)}")
    mismatched = sum(
        1 for path, content in expected.items()
        if client.fs.exists(path) and client.fs.read(path) != content
    )
    if mismatched:
        errors.append(f"{who}: {mismatched} files differ from the writer's")
    return errors


# -- workloads ------------------------------------------------------------------


class FileSync:
    """One writer, one reader, one operation outstanding at a time."""

    name = "file-sync"

    def __init__(self, seed: int, round_no: int, segments: int):
        self.segments = [
            workloads.file_sync_segment(seed, f"r{round_no}s{k}") for k in range(segments + 1)
        ]

    def setup(self, stack: Stack, deadline: Deadline) -> List[str]:
        self.writer = stack.device("writer")
        self.reader = stack.device("reader")
        self.expected: Dict[str, bytes] = {}
        warm = Phase()
        self._run(self.segments[0], warm, deadline)
        return warm.errors

    def timed(self, stack: Stack, phase: Phase, deadline: Deadline) -> None:
        cpu = time.process_time()
        started = time.perf_counter()
        for segment in self.segments[1:]:
            self._run(segment, phase, deadline)
        phase.seconds = time.perf_counter() - started
        phase.cpu_seconds = time.process_time() - cpu

    def _run(self, ops: List[Op], phase: Phase, deadline: Deadline) -> None:
        for op in ops:
            phase.ops += 1
            self._settle(self._issue(op), phase, deadline)

    def _issue(self, op: Op) -> tuple:
        """Start *op* on the writer; returns (op, metadata, wall start)."""
        started = time.time()
        if op.kind == REMOVE:
            meta = self.writer.delete_file(op.path)
            self.expected.pop(op.path)
        else:
            meta = self.writer.put_file(op.path, op.content)
            self.expected[op.path] = op.content
        return op, meta, started

    def _settle(self, issued: tuple, phase: Phase, deadline: Deadline) -> None:
        """Wait until the reader applied an issued op, then time and check it."""
        op, meta, started = issued
        reader = self.reader
        applied = reader.wait_for_version(meta.item_id, meta.version, deadline.timeout())
        if applied is None:
            phase.errors.append(f"{op.kind} {op.path} v{meta.version} not applied in time")
            return
        phase.latencies.append(applied - started)
        phase.applied[(meta.item_id, meta.version)] = applied
        if op.kind == REMOVE:
            good = not reader.fs.exists(op.path)
        else:
            good = reader.fs.exists(op.path) and reader.fs.read(op.path) == op.content
        if good:
            phase.ok += 1
            phase.user_bytes += op.nbytes
        else:
            phase.errors.append(f"{op.kind} {op.path} v{meta.version} applied with wrong content")

    def check(self) -> List[str]:
        return check_files(self.reader, self.expected, "reader") + check_files(
            self.writer, self.expected, "writer"
        )


class SmallCommits(FileSync):
    """One writer bursting 1 KB commits with WINDOW outstanding; one reader."""

    name = "small-commits"

    def __init__(self, seed: int, round_no: int, segments: int):
        paths = workloads.small_commit_paths(seed)
        self.segments = [
            workloads.small_commit_segment(seed, f"r{round_no}s{k}", paths)
            for k in range(segments + 1)
        ]

    def _run(self, ops: List[Op], phase: Phase, deadline: Deadline) -> None:
        outstanding: deque = deque()
        for op in ops:
            if len(outstanding) >= WINDOW:
                self._settle(outstanding.popleft(), phase, deadline)
            phase.ops += 1
            outstanding.append(self._issue(op))
        while outstanding:
            self._settle(outstanding.popleft(), phase, deadline)


class DeviceJoin:
    """Fresh devices join a populated workspace, one after another."""

    name = "device-join"

    def __init__(self, seed: int, round_no: int, joins: int):
        self.files = workloads.join_workspace(seed, f"r{round_no}")
        self.joins = joins
        self.round_no = round_no

    def setup(self, stack: Stack, deadline: Deadline) -> List[str]:
        writer = stack.device("writer")
        last = None
        for path, content in self.files.items():
            last = writer.put_file(path, content)
        if writer.wait_for_version(last.item_id, last.version, deadline.timeout()) is None:
            return ["workspace pre-population was not confirmed in time"]
        warm = Phase()
        self._join(stack, "warm-up", warm, deadline)
        return warm.errors

    def timed(self, stack: Stack, phase: Phase, deadline: Deadline) -> None:
        """Only the joins count: the per-join checks and stops do not."""
        for k in range(self.joins):
            self._join(stack, f"join-{self.round_no}-{k}", phase, deadline)

    def _join(self, stack: Stack, name: str, phase: Phase, deadline: Deadline) -> None:
        phase.ops += 1
        if deadline.remaining() <= 0:
            phase.errors.append(f"{name}: run deadline passed")
            return
        cpu = time.process_time()
        started = time.perf_counter()
        joiner = stack.device(name, start=False)
        joiner.start()
        elapsed = time.perf_counter() - started
        phase.cpu_seconds += time.process_time() - cpu
        phase.seconds += elapsed
        phase.latencies.append(elapsed)
        errors = check_files(joiner, self.files, name)
        joiner.stop()
        stack.devices.remove(joiner)
        if errors:
            phase.errors.extend(errors)
        else:
            phase.ok += 1
            phase.user_bytes += sum(len(c) for c in self.files.values())

    def check(self) -> List[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (FileSync, SmallCommits, DeviceJoin)}


@dataclass
class RoundResult:
    setup_seconds: float
    phase: Phase


def run_round(workload, deadline: Deadline, probe=None) -> RoundResult:
    """Set up, warm up, run the timed phase and check one round.

    With a *probe*, its wrappers are in place from set-up until the end
    of the timed phase, and it counts only the timed phase.
    """
    gc.collect()
    if probe is not None:
        probe.install()
    try:
        setup_started = time.perf_counter()
        stack = Stack()
        try:
            errors = workload.setup(stack, deadline)
            setup_seconds = time.perf_counter() - setup_started
            phase = Phase(errors=errors)
            if probe is not None:
                probe.reset()
            before = stack.counters()
            workload.timed(stack, phase, deadline)
            phase.counters = stack.counters().minus(before)
            if probe is not None:
                probe.uninstall()
            phase.errors.extend(workload.check())
            if stack.service.conflict_count:
                phase.errors.append(f"{stack.service.conflict_count} server-side conflicts")
        finally:
            stack.close()
    finally:
        if probe is not None:
            probe.uninstall()
    return RoundResult(setup_seconds=setup_seconds, phase=phase)

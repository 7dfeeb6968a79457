"""End-to-end sync benchmark for the StackSync reproduction.

Usage (from the repository root)::

    python3 syncbench/run.py --workload file-sync --seed 1 --seconds 10 --trace 0

Workloads (each a closed loop driven by one load-generator thread):

* ``file-sync`` - one writer and one reader, one operation outstanding.
  Files follow the paper's size mixture (fixed multiset, mean ~581 KB);
  the mix is 75% ADD / 7.5% UPDATE / 17.5% REMOVE of mostly
  incompressible content.  The client data plane does most of the work.
* ``small-commits`` - the writer commits fresh 1 KB files over 64 paths
  with 16 commits outstanding.  The control plane does most of the work.
* ``device-join`` - fresh devices join a populated workspace one after
  another: the read-only path (getChanges, fetch, decompress, verify).

A run is a fixed number of independent rounds, each with its own
deployment, an untimed warm-up segment and a timed phase; ``--seconds``
sets the number of rounds so the timed phases add up to about that long
on a 2-core host.  The seed changes order, paths and contents only, never
the number of operations or bytes.  Every operation is checked on the
other device and every round ends with a byte comparison of each
device's folder against the writer's live set.  Latency percentiles,
rates and CPU per op are medians over rounds (at ``--seconds 20`` a run
has 416 to 25,600 latency samples); byte ratios are run totals.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced rounds and prints the per-layer metrics of the traced
ones, timed by wrappers around each layer's public functions (wall time
on the calling thread, so it includes waits for the interpreter lock),
plus the traced/plain time ratio.  The last line of standard output is
one JSON object; the line before it gives the median time of a fixed CPU
loop run before each round, so host speed drift can be told apart from a
program change.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (rounds per 10 s, timed units per round): segments for file-sync and
#: small-commits, joins for device-join.  Sized on a 2-core host.
PLAN = {
    "file-sync": (5, 3),
    "small-commits": (20, 10),
    "device-join": (8, 26),
}
#: A run gives up (and fails) rather than exceed this many seconds.
RUN_LIMIT = 150.0
CPU_LOOP_ITERATIONS = 1_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_loop_ms() -> float:
    """A fixed pure-Python loop: the host-speed diagnostic."""
    started = time.perf_counter()
    total = 0
    for i in range(CPU_LOOP_ITERATIONS):
        total += i & 7
    return (time.perf_counter() - started) * 1000.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when nothing was measured (a failed run still prints)."""
    return num / den if den else 0.0


def end_to_end(rounds) -> dict:
    """Medians over rounds: of each round's latency percentiles, rates and
    costs.  Byte ratios are run totals (they do not depend on speed)."""
    from repro.telemetry.stats import percentile

    phases = [r.phase for r in rounds]
    ops = sum(p.ops for p in phases)

    def median(per_phase) -> float:
        return statistics.median(per_phase(p) for p in phases)

    return {
        "sync_p50_ms": metric(median(lambda p: percentile(p.latencies, 0.50)) * 1e3, "ms"),
        "sync_p95_ms": metric(median(lambda p: percentile(p.latencies, 0.95)) * 1e3, "ms"),
        "mb_per_s": metric(median(lambda p: ratio(p.user_bytes, p.seconds)) / 1e6, "MB/s"),
        "ops_per_s": metric(median(lambda p: ratio(p.ok, p.seconds)), "1/s"),
        "cpu_ms_per_op": metric(median(lambda p: ratio(p.cpu_seconds, p.ops)) * 1e3, "ms"),
        "storage_bytes_per_user_byte": metric(
            ratio(
                sum(p.counters.storage_bytes for p in phases),
                sum(p.user_bytes for p in phases),
            ),
            "ratio",
        ),
        "control_bytes_per_op": metric(
            ratio(sum(p.counters.control_bytes for p in phases), ops), "B"
        ),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_rate": metric(ratio(sum(p.ok for p in phases), ops), "ratio"),
        "setup_s": metric(statistics.median(r.setup_seconds for r in rounds), "s"),
    }


def per_layer(probes, traced, plain, host_ms: float) -> dict:
    """Per-layer metrics summed over the traced rounds."""
    phases = [r.phase for r in traced]
    ops = sum(p.ops for p in phases)

    def per_op(value: float, unit: str) -> dict:
        return metric(ratio(value, ops), unit)

    def per_op_ms(timer: str) -> dict:
        return per_op(sum(probe.seconds[timer] for probe in probes) * 1e3, "ms")

    def count(attr: str) -> float:
        return sum(getattr(probe, attr) for probe in probes)

    def counters(attr: str) -> float:
        return sum(getattr(p.counters, attr) for p in phases)

    notify_to_apply = sum(
        max(0.0, applied - probe.commit_done[key])
        for probe, phase in zip(probes, phases)
        for key, applied in phase.applied.items()
        if key in probe.commit_done
    )
    latency = sum(sum(p.latencies) for p in phases)
    blocking = sum(probe.blocking_seconds() for probe in probes)
    overhead = ratio(
        statistics.median(ratio(p.seconds, p.ops) for p in phases),
        statistics.median(ratio(r.phase.seconds, r.phase.ops) for r in plain),
    )
    return {
        "client.index.ms_per_op": per_op_ms("client.index"),
        "client.compress.ms_per_op": per_op_ms("client.compress"),
        "client.compress.out_in_ratio": metric(
            ratio(count("compress_out"), count("compress_in")), "ratio"
        ),
        "client.fingerprint.ms_per_op": per_op_ms("client.fingerprint"),
        "client.dedup.hit_ratio": metric(
            ratio(count("chunks_deduplicated"), count("chunks_indexed")), "ratio"
        ),
        "client.decompress.ms_per_op": per_op_ms("client.decompress"),
        "transfer.upload.wall_ms_per_op": per_op_ms("transfer.upload"),
        "transfer.fetch.wall_ms_per_op": per_op_ms("transfer.fetch"),
        "transfer.chunks_per_op": per_op(count("transfers"), "count"),
        "transfer.retries_per_op": per_op(count("retries"), "count"),
        "transfer.coalesced_per_op": per_op(count("coalesced"), "count"),
        "storage.put.ms_per_op": per_op_ms("storage.put"),
        "storage.get.ms_per_op": per_op_ms("storage.get"),
        "storage.requests_per_op": per_op(
            sum(probe.calls["storage.put"] + probe.calls["storage.get"] for probe in probes),
            "count",
        ),
        "objectmq.cast.ms_per_op": per_op_ms("objectmq.cast"),
        "serialization.encode.ms_per_op": per_op_ms("serialization.encode"),
        "serialization.decode.ms_per_op": per_op_ms("serialization.decode"),
        "mom.publish.ms_per_op": per_op_ms("mom.publish"),
        "mom.messages_per_op": per_op(counters("messages"), "count"),
        "mom.redeliveries_per_op": per_op(counters("redeliveries"), "count"),
        "mom.queue_wait_ms_per_op": per_op(
            sum(probe.queue_wait_seconds() for probe in probes) * 1e3, "ms"
        ),
        "sync.commit.ms_per_op": per_op_ms("sync.commit"),
        "sync.conflicts_per_op": per_op(counters("conflicts"), "count"),
        "sync.notify_to_apply_ms_per_op": per_op(notify_to_apply * 1e3, "ms"),
        "metadata.store.ms_per_op": per_op_ms("metadata.store"),
        "metadata.get_changes.ms_per_op": per_op_ms("metadata.get_changes"),
        "unattributed_ms_per_op": per_op((latency - blocking) * 1e3, "ms"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
        "host.cpu_loop_ms": metric(host_ms, "ms"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Both import the program, so they load only once it is on the path.
    import drive
    from probe import LayerProbe

    rounds_per_10s, units = PLAN[args.workload]
    rounds = max(2, round(rounds_per_10s * args.seconds / 10.0))
    if args.trace:
        rounds += rounds % 2
    deadline = drive.Deadline(RUN_LIMIT)
    workload_cls = drive.WORKLOADS[args.workload]

    plain, traced, probes, host = [], [], [], []
    for round_no in range(rounds):
        host.append(cpu_loop_ms())
        workload = workload_cls(args.seed, round_no, units)
        trace_round = bool(args.trace) and round_no % 2 == 1
        probe = LayerProbe() if trace_round else None
        result = drive.run_round(workload, deadline, probe)
        if trace_round:
            traced.append(result)
            probes.append(probe)
        else:
            plain.append(result)

    host.append(cpu_loop_ms())
    host_ms = statistics.median(host)
    print(json.dumps({"diagnostic": {"host.cpu_loop_ms": host_ms}}), flush=True)

    everything = plain + traced
    attempted = sum(r.phase.ops for r in everything)
    ok = sum(r.phase.ok for r in everything)
    errors = [e for r in everything for e in r.phase.errors]
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(probes, traced, plain, host_ms)
    else:
        metrics = end_to_end(plain)
    print(
        json.dumps(
            {
                "correct": not errors and ok == attempted,
                "attempted": attempted,
                "failed": attempted - ok,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

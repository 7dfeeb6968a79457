"""Self-tests of the sync benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q syncbench

The layer-mapping tests run about 64 short rounds in-process (about a
minute and a half on a 2-core host).
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import ADD, REMOVE, UPDATE  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def _inputs(seed):
    return {
        "file-sync": workloads.file_sync_segment(seed, "s0"),
        "small-commits": workloads.small_commit_segment(
            seed, "s0", workloads.small_commit_paths(seed)
        ),
        "device-join": [
            workloads.Op(ADD, path, content)
            for path, content in workloads.join_workspace(seed, "r0").items()
        ],
    }


def test_two_seeds_give_identical_op_counts_and_bytes():
    first, second = _inputs(1), _inputs(2)
    for name in first:
        assert workloads.volume(first[name]) == workloads.volume(second[name]), name
        assert [op.content for op in first[name]] != [op.content for op in second[name]], name


def test_file_sync_segment_mix_and_order():
    ops = workloads.file_sync_segment(7, "s0")
    counts, _ = workloads.volume(ops)
    assert counts == {ADD: 30, UPDATE: 3, REMOVE: 7}
    seen = set()
    for op in ops:
        if op.kind == ADD:
            assert op.path not in seen
            seen.add(op.path)
        else:
            assert op.path in seen, "follow-up before its ADD"
    sizes = workloads.segment_sizes()
    assert 550 * 1024 < sum(sizes) / len(sizes) < 620 * 1024
    assert sum(size < 4 * 1024 * 1024 for size in sizes) / len(sizes) == pytest.approx(0.9)


def _run(cwd, workload, trace, seconds="4"):
    return subprocess.run(
        [
            sys.executable, "syncbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", seconds, "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "syncbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "small-commits", 0, seconds="1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_runs_report_every_metric_and_check_outputs():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "device-join", trace, seconds="1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[group]}


# -- layer mapping ------------------------------------------------------------------

SLOWDOWN = 0.2
PAIRS = 8


def _alternate(workload_cls, units, target):
    """Rounds with and without *target* slowed, interleaved in one process
    (ABBA order) so host drift cancels; returns per-round samples."""
    import drive
    from probe import LayerProbe

    arms = {False: [], True: []}
    for k in range(PAIRS):
        for slowed in ((False, True) if k % 2 == 0 else (True, False)):
            probe = LayerProbe(slow={target: SLOWDOWN} if slowed else None)
            result = drive.run_round(workload_cls(3, k, units), drive.Deadline(120), probe)
            assert not result.phase.errors, result.phase.errors
            arms[slowed].append((result.phase, probe))
    return arms


def _median(samples, value):
    return statistics.median(value(phase, probe) for phase, probe in samples)


def _mb_per_s(phase, probe):
    return phase.user_bytes / phase.seconds


def _ops_per_s(phase, probe):
    return phase.ok / phase.seconds


def _layer_ms(timer):
    return lambda phase, probe: probe.seconds[timer] * 1000.0 / phase.ops


def _change(arms, value):
    return _median(arms[True], value) / _median(arms[False], value) - 1


def test_slower_compression_shows_on_file_sync_only():
    import drive

    target = "GzipCompressor.compress"
    data = _alternate(drive.FileSync, 1, target)
    assert _change(data, _layer_ms("client.compress")) > SLOWDOWN / 2
    assert _change(data, _mb_per_s) < -0.05
    control = _alternate(drive.SmallCommits, 10, target)
    assert abs(_change(control, _ops_per_s)) < BOUNDS["ops_per_s"]


def test_slower_commit_processing_shows_on_small_commits_only():
    """commit_request is about a seventh of a small commit's CPU, so 20%
    more of it costs ~3% of ops_per_s: less than the round-to-round spread
    (up to ~10% between arms with no slowdown).  The layer metric must
    move; the end-to-end metrics must stay within their bounds."""
    import drive

    target = "SyncService.commit_request"
    control = _alternate(drive.SmallCommits, 10, target)
    assert _change(control, _layer_ms("sync.commit")) > SLOWDOWN / 2
    assert abs(_change(control, _ops_per_s)) < BOUNDS["ops_per_s"]
    data = _alternate(drive.FileSync, 1, target)
    assert abs(_change(data, _mb_per_s)) < BOUNDS["mb_per_s"]

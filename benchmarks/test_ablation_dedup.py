"""Ablation — per-user deduplication and compression codec (§4.1).

Replays a duplicate-heavy workload (device backups sharing many files)
through the client indexer with dedup on/off and with each compression
codec, measuring uploaded bytes.

Expected: dedup removes the duplicate share entirely; gzip and bzip2 cut
the compressible remainder, with bzip2 slightly denser and slower.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.bench import mb, render_table
from repro.client import FixedChunker, Indexer, LocalDatabase
from repro.client.compression import Bzip2Compressor, GzipCompressor, NullCompressor
from repro.workload import generate_content

FILES = 24
DUPLICATE_EVERY = 3  # every 3rd file is a copy of file 0
FILE_SIZE = 256 * 1024


def build_workload():
    files = []
    for i in range(FILES):
        if i % DUPLICATE_EVERY == 0 and i > 0:
            path, content = f"copy-{i}.dat", files[0][1]
        else:
            path = f"file-{i}.dat"
            content = generate_content(path, FILE_SIZE, seed=31, compressible_fraction=0.5)
        files.append((path, content))
    return files


def run_ablation():
    files = build_workload()
    raw_total = sum(len(c) for _p, c in files)
    variants = {
        "no-dedup,null": (False, NullCompressor()),
        "dedup,null": (True, NullCompressor()),
        "dedup,gzip": (True, GzipCompressor()),
        "dedup,bzip2": (True, Bzip2Compressor()),
    }
    results = {}
    for name, (dedup, compressor) in variants.items():
        db = LocalDatabase()
        indexer = Indexer(db, chunker=FixedChunker(chunk_size=64 * 1024))
        uploaded = 0
        started = time.perf_counter()
        for path, content in files:
            result = indexer.index_change("ws", "dev", path, content)
            uploads = result.uploads
            # The indexer hands over raw chunks; the client's transfer
            # workers compress each one before its PUT.
            uploaded += sum(len(compressor.compress(data)) for _fp, data in uploads)
            if dedup:
                db.remember_fingerprints(fp for fp, _ in uploads)
            # With dedup off, the index is never taught the fingerprints.
        results[name] = {
            "uploaded": uploaded,
            "seconds": time.perf_counter() - started,
        }
    return raw_total, results


def test_ablation_dedup_compression(benchmark):
    raw_total, results = run_once(benchmark, run_ablation)

    print(f"\nAblation: dedup + compression (raw workload {mb(raw_total):.1f} MB)")
    print(render_table(
        ["Variant", "Uploaded MB", "Savings", "Seconds"],
        [
            [
                name,
                mb(r["uploaded"]),
                f"{(1 - r['uploaded'] / raw_total) * 100:.1f}%",
                round(r["seconds"], 3),
            ]
            for name, r in results.items()
        ],
    ))

    no_dedup = results["no-dedup,null"]["uploaded"]
    dedup = results["dedup,null"]["uploaded"]
    gzip_total = results["dedup,gzip"]["uploaded"]
    bzip2_total = results["dedup,bzip2"]["uploaded"]

    # Copies of file 0 live at i = 3, 6, ..., 21: FILES/3 - 1 of them.
    duplicates = FILES // DUPLICATE_EVERY - 1
    expected_dedup_saving = duplicates * FILE_SIZE
    # Dedup removes exactly the duplicated files' bytes.
    assert no_dedup - dedup >= expected_dedup_saving * 0.9
    # Compression shrinks the ~50%-compressible remainder.
    assert gzip_total < dedup * 0.85
    # bzip2 is at least as dense as gzip but slower.
    assert bzip2_total <= gzip_total * 1.05
    assert results["dedup,bzip2"]["seconds"] > results["dedup,gzip"]["seconds"]

"""Seed-driven inputs for the sync benchmark.

Every workload is built from fixed *volumes*: op counts, the multiset of
file sizes and the number of edit bytes never depend on the seed.  The
seed only chooses the order of operations, the paths, the file contents
and which file receives which edit pattern.  Two seeds therefore move the
same number of bytes through the same number of operations, so the choice
of seed adds no spread of its own.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workload.content import generate_content
from repro.workload.filesizes import FileSizeSampler

ADD = "ADD"
UPDATE = "UPDATE"
REMOVE = "REMOVE"

#: Files per file-sync segment, and the size of the device-join workspace.
FILES_PER_SEGMENT = 30
#: Fixed seed of the size multiset: the sizes are the FILES_PER_SEGMENT
#: evenly spaced quantiles of a large draw from the paper's mixture
#: (mean ~581 KB, 90% below 4 MB), identical for every benchmark seed.
SIZE_SEED = 583
SIZE_DRAWS = 20_000
#: Ranks (in ascending size order) of the files a segment updates and
#: removes.  Updated files stay below the 4 MB modification limit; the
#: mix per segment is 30 ADD / 3 UPDATE / 7 REMOVE (75% / 7.5% / 17.5%).
UPDATE_RANKS = (4, 13, 22)
REMOVE_RANKS = (1, 6, 10, 15, 19, 24, 28)
#: Homes-dataset patterns (B: prepend, E: append, M: middle insert); one
#: of each kind of edit, so every segment applies 4 edits.
UPDATE_PATTERNS = ("B", "BE", "M")
EDIT_BYTES = 224
#: The overhead benches' mostly incompressible corpus.
COMPRESSIBLE_FRACTION = 0.05

#: small-commits: fresh 1 KB files cycled over a fixed path set.
SMALL_FILE_BYTES = 1024
SMALL_PATHS = 64


@dataclass(frozen=True)
class Op:
    """One file operation; ``content`` is None for a REMOVE."""

    kind: str
    path: str
    content: Optional[bytes] = None

    @property
    def nbytes(self) -> int:
        return len(self.content) if self.content is not None else 0


@functools.lru_cache(maxsize=None)
def segment_sizes() -> Tuple[int, ...]:
    """The fixed size multiset, ascending."""
    draws = sorted(FileSizeSampler(random.Random(SIZE_SEED)).sample_many(SIZE_DRAWS))
    return tuple(
        draws[int((i + 0.5) / FILES_PER_SEGMENT * SIZE_DRAWS)] for i in range(FILES_PER_SEGMENT)
    )


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}/{tag}")


def _paths(rng: random.Random, prefix: str, count: int) -> List[str]:
    names = set()
    while len(names) < count:
        names.add(f"{prefix}/{rng.getrandbits(40):010x}.bin")
    ordered = sorted(names)
    rng.shuffle(ordered)
    return ordered


def _edit(content: bytes, pattern: str, rng: random.Random) -> bytes:
    def piece() -> bytes:
        return rng.randbytes(EDIT_BYTES)

    if "B" in pattern:
        content = piece() + content
    if "E" in pattern:
        content = content + piece()
    if "M" in pattern:
        at = rng.randint(1, len(content) - 1)
        content = content[:at] + piece() + content[at:]
    return content


def file_sync_segment(seed: int, tag: str) -> List[Op]:
    """30 ADDs of the fixed size multiset, then 3 UPDATEs and 7 REMOVEs.

    The seed shuffles the ADDs and places each follow-up op at a random
    point after the ADD of its file.  *tag* names the segment, so every
    segment of a run has its own paths and contents.
    """
    rng = _rng(seed, f"file-sync/{tag}")
    paths = _paths(rng, tag, FILES_PER_SEGMENT)
    contents = [
        generate_content(path, size, seed=seed, compressible_fraction=COMPRESSIBLE_FRACTION)
        for path, size in zip(paths, segment_sizes())
    ]
    ops: List[Op] = [Op(ADD, path, content) for path, content in zip(paths, contents)]
    rng.shuffle(ops)
    patterns = list(UPDATE_PATTERNS)
    rng.shuffle(patterns)
    follow_ups = [
        Op(UPDATE, paths[rank], _edit(contents[rank], pattern, rng))
        for rank, pattern in zip(UPDATE_RANKS, patterns)
    ] + [Op(REMOVE, paths[rank]) for rank in REMOVE_RANKS]
    rng.shuffle(follow_ups)
    for op in follow_ups:
        after = next(i for i, prior in enumerate(ops) if prior.path == op.path)
        ops.insert(rng.randint(after + 1, len(ops)), op)
    return ops


def small_commit_paths(seed: int) -> List[str]:
    """The fixed path set, in the seed's cycling order."""
    paths = [f"burst/doc-{i:02d}.txt" for i in range(SMALL_PATHS)]
    _rng(seed, "small-commits/paths").shuffle(paths)
    return paths


def small_commit_segment(seed: int, tag: str, paths: List[str]) -> List[Op]:
    """One fresh 1 KB write to every path, in the fixed cycling order.

    Cycling in the same order keeps a path's consecutive versions
    SMALL_PATHS commits apart, more than the commit window, so two
    commits of one path are never outstanding together.
    """
    rng = _rng(seed, f"small-commits/{tag}")
    return [Op(UPDATE, path, rng.randbytes(SMALL_FILE_BYTES)) for path in paths]


def join_workspace(seed: int, tag: str) -> Dict[str, bytes]:
    """The device-join workspace: one file of each size in the multiset."""
    rng = _rng(seed, f"device-join/{tag}")
    paths = _paths(rng, tag, FILES_PER_SEGMENT)
    return {
        path: generate_content(
            path, size, seed=seed, compressible_fraction=COMPRESSIBLE_FRACTION
        )
        for path, size in zip(paths, segment_sizes())
    }


def volume(ops: List[Op]) -> Tuple[Dict[str, int], int]:
    """(op count by kind, user bytes) of an op list."""
    counts = {ADD: 0, UPDATE: 0, REMOVE: 0}
    for op in ops:
        counts[op.kind] += 1
    return counts, sum(op.nbytes for op in ops)

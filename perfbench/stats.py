"""The benchmark's own arithmetic: percentiles, golden comparison, digests."""

from __future__ import annotations

import math
from hashlib import sha256

# The tail percentile reported next to a median must have at least this many
# samples strictly beyond it; otherwise the figure is one or two outliers.
MIN_TAIL_SAMPLES = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def nearest_rank(samples, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples beyond it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in binary floats
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 9)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, candidates=TAIL_CANDIDATES):
    """Highest candidate percentile with MIN_TAIL_SAMPLES beyond it.

    Returns ``(p, value)``, or ``None`` when even the lowest candidate has
    too few samples beyond it.
    """
    for p in sorted(candidates, reverse=True):
        value, beyond = nearest_rank(samples, p)
        if beyond >= MIN_TAIL_SAMPLES:
            return p, value
    return None


def partition_digest(blocks) -> str:
    """Order-free digest of a partition: sorted blocks of sorted ids."""
    canon = sorted(tuple(sorted(int(v) for v in b)) for b in blocks if len(b))
    return sha256(repr(canon).encode()).hexdigest()[:16]


def truth_blocks(labels) -> list[list[int]]:
    blocks: dict[int, list[int]] = {}
    for v, c in enumerate(labels):
        blocks.setdefault(int(c), []).append(v)
    return list(blocks.values())


def golden_mismatches(expected: dict, got: dict) -> set[str]:
    """Op names whose recorded outputs differ from the golden record.

    An op missing from either side counts as a mismatch, so a workload that
    gains or loses an op cannot pass against a stale record.
    """
    return {name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name)}

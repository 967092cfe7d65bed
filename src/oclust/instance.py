"""Planted-clustering instances with pairwise noisy side information.

An instance is n elements, a ground-truth partition into k clusters, and an
upper-triangular matrix W of similarity values: intra-cluster entries are
i.i.d. draws from ``f_plus``, inter-cluster entries from ``f_minus``. W is
stored as a flat triangular array of support indices (one byte per pair for
q <= 256), giving O(1) pair lookup.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import lru_cache
from hashlib import sha256
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .divergence import Distribution, Support, from_text, to_text

MAGIC = b"OCLB1"
SIDECAR_MAX_N = 200


# ---------------------------------------------------------------------------
# cluster size specifications


@dataclass(frozen=True)
class Balanced:
    """k clusters with sizes as equal as possible."""

    k: int


@dataclass(frozen=True)
class ExplicitSizes:
    """Arbitrary positive sizes; singletons allowed (the adversarial case)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))


@dataclass(frozen=True)
class Skewed:
    """k clusters with a geometric size profile, max/min size close to ratio."""

    k: int
    ratio: float


ClusterSpec = Union[Balanced, ExplicitSizes, Skewed]


def cluster_sizes(spec: ClusterSpec, n: int) -> tuple[int, ...]:
    """Resolve a spec into concrete sizes summing to n; raises if impossible."""
    if isinstance(spec, ExplicitSizes):
        sizes = spec.sizes
        if any(s <= 0 for s in sizes):
            raise ValueError("empty cluster requested")
        if sum(sizes) != n:
            raise ValueError(f"sizes sum to {sum(sizes)}, expected n={n}")
        return sizes
    if isinstance(spec, Balanced):
        k = spec.k
        if k < 1 or k > n:
            raise ValueError(f"cannot split n={n} into k={k} nonempty clusters")
        base, extra = divmod(n, k)
        return tuple(base + (1 if i < extra else 0) for i in range(k))
    if isinstance(spec, Skewed):
        k, ratio = spec.k, spec.ratio
        if k < 1 or k > n:
            raise ValueError(f"cannot split n={n} into k={k} nonempty clusters")
        if ratio < 1.0:
            raise ValueError("skew ratio must be >= 1")
        weights = np.array([ratio ** (i / max(k - 1, 1)) for i in range(k)])
        raw = weights / weights.sum() * n
        sizes = np.maximum(np.floor(raw).astype(int), 1)
        # hand out the remainder (or claw back overshoot) largest-first
        order = np.argsort(-raw)
        i = 0
        while sizes.sum() < n:
            sizes[order[i % k]] += 1
            i += 1
        while sizes.sum() > n:
            j = order[i % k]
            if sizes[j] > 1:
                sizes[j] -= 1
            i += 1
        return tuple(int(s) for s in sizes)
    raise TypeError(f"unknown cluster spec {spec!r}")


# ---------------------------------------------------------------------------
# triangular indexing and the counter-based pair RNG


def pair_index(u: int, v: int, n: int) -> int:
    """Flat index of the unordered pair {u, v} in row-major upper-tri order."""
    if u == v:
        raise ValueError("no diagonal entries")
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


@lru_cache(maxsize=32)
def _row_starts(n: int) -> np.ndarray:
    u = np.arange(n, dtype=np.int64)
    starts = u * n - u * (u + 1) // 2
    starts.setflags(write=False)
    return starts


def pair_uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    """Uniforms for flat pair indices [lo, hi) of the per-seed Philox stream.

    The value at index i depends only on (seed, i): Philox is counter based
    and advances in blocks of 4 doubles, so any slice can be regenerated
    without producing the prefix. Generation order therefore never affects
    the instance.
    """
    if not 0 <= lo <= hi:
        raise ValueError("bad index range")
    block = lo // 4
    bg = np.random.Philox(key=seed)
    if block:
        bg.advance(block)
    vals = np.random.Generator(bg).random(hi - 4 * block)
    return vals[lo - 4 * block :]


class SideInfo:
    """The matrix W as a flat upper-triangular array of support indices."""

    __slots__ = ("n", "support", "tri", "_dense")

    def __init__(self, n: int, support: Support, tri: np.ndarray):
        expected = n * (n - 1) // 2
        if tri.shape != (expected,):
            raise ValueError(f"side_info has {tri.shape[0]} entries, expected {expected}")
        if tri.size and int(tri.max(initial=0)) >= support.q:
            raise ValueError("side_info contains an out-of-range support index")
        tri = np.ascontiguousarray(tri)
        tri.setflags(write=False)
        self.n = n
        self.support = support
        self.tri = tri
        self._dense = None

    @property
    def q(self) -> int:
        return self.support.q

    def value_index(self, u: int, v: int) -> int:
        return int(self.tri[pair_index(u, v, self.n)])

    def dense(self) -> np.ndarray:
        """Full symmetric n x n index matrix (diagonal unused, zero).

        Built once and cached; solvers use it for vectorized row gathers.
        """
        if self._dense is None:
            n = self.n
            m = np.zeros((n, n), dtype=self.tri.dtype)
            starts = _row_starts(n)
            for u in range(n - 1):
                m[u, u + 1 :] = self.tri[starts[u] : starts[u] + n - u - 1]
            # mirror the upper triangle one tile at a time: a whole-matrix
            # m + m.T reads column-wise across all of memory and costs ~10x
            b = 256
            for i in range(0, n, b):
                for j in range(0, i + 1, b):
                    m[i : i + b, j : j + b] += m[j : j + b, i : i + b].T
            m.setflags(write=False)
            self._dense = m
        return self._dense


def _dtype_for_q(q: int) -> np.dtype:
    return np.dtype(np.uint8) if q <= 256 else np.dtype(np.uint16)


class Instance:
    """Immutable planted instance: truth labels, side information, provenance."""

    __slots__ = ("n", "labels", "f_plus", "f_minus", "seed", "side", "_truth")

    def __init__(
        self,
        labels: np.ndarray,
        side: SideInfo,
        f_plus: Distribution,
        f_minus: Distribution,
        seed: int,
    ):
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        n = labels.shape[0]
        if side.n != n:
            raise ValueError("labels and side_info disagree on n")
        if f_plus.support != f_minus.support:
            raise ValueError("support mismatch")
        if side.support != f_plus.support:
            raise ValueError("side_info support disagrees with distributions")
        k = int(labels.max(initial=-1)) + 1
        # k <= n first, so a corrupt label cannot make bincount allocate
        if n and (
            labels.min() < 0 or k > n or np.bincount(labels, minlength=k).min() == 0
        ):
            raise ValueError("truth labels must use every cluster id 0..k-1")
        labels.setflags(write=False)
        self.n = n
        self.labels = labels
        self.f_plus = f_plus
        self.f_minus = f_minus
        self.seed = int(seed)
        self.side = side
        self._truth = None

    @property
    def k(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    @property
    def q(self) -> int:
        return self.side.q

    @property
    def truth(self) -> tuple[tuple[int, ...], ...]:
        """Ground-truth partition as tuples of element ids, by cluster id."""
        if self._truth is None:
            blocks = [[] for _ in range(self.k)]
            for v, c in enumerate(self.labels):
                blocks[c].append(v)
            self._truth = tuple(tuple(b) for b in blocks)
        return self._truth

    def fingerprint(self) -> str:
        h = sha256()
        h.update(struct.pack("<qq", self.n, self.seed))
        h.update(self.labels.tobytes())
        h.update(self.side.tri.tobytes())
        h.update(to_text(self.f_plus).encode())
        h.update(to_text(self.f_minus).encode())
        return h.hexdigest()[:12]

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.n == other.n
            and self.seed == other.seed
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.side.tri, other.side.tri)
            and self.f_plus == other.f_plus
            and self.f_minus == other.f_minus
        )


# Pairs drawn per step of generate. Its float64 temporaries stay
# under 4 MiB, the size from which numpy asks the kernel for transparent huge
# pages: larger ones, freed back into the heap, keep a resident set that
# depends on where the heap is mapped, so peak memory would vary from one
# process to the next.
_GENERATE_CHUNK = 1 << 16

# Up to this many cdf thresholds, one vectorized compare per threshold beats
# a binary search per uniform; on a 2-vCPU x86 host the two cross near 200.
_COUNT_THRESHOLDS = 128


def _cdf_index(thresholds: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the number of ``thresholds`` at or below each
    uniform. For ``thresholds = cdf[: q - 1]`` of a nondecreasing cdf this is
    the inverse-CDF value index, ``min(searchsorted(cdf, u, "right"), q - 1)``."""
    if thresholds.size > _COUNT_THRESHOLDS:
        out[:] = np.searchsorted(thresholds, u, side="right")
        return
    out[:] = 0
    for t in thresholds:
        out += u >= t


def generate(
    n: int,
    spec: ClusterSpec,
    f_plus: Distribution,
    f_minus: Distribution,
    seed: int,
) -> Instance:
    """Sample an instance: intra pairs from f_plus, inter pairs from f_minus.

    Deterministic for a fixed seed. Each pair's randomness depends only on
    (seed, pair index), so the output is independent of generation order.
    """
    if f_plus.support != f_minus.support:
        raise ValueError("support mismatch")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= seed < 1 << 63:
        raise ValueError("seed must lie in [0, 2**63), the range the fingerprint and load accept")
    sizes = cluster_sizes(spec, n)
    labels = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    # clusters are contiguous blocks, so row i of the triangle is a run of
    # block_end(i) - i - 1 same-cluster pairs followed by n - block_end(i)
    # cross-cluster pairs
    block_end = np.repeat(np.cumsum(sizes), sizes)

    q = f_plus.q
    thr_plus, thr_minus = f_plus.cdf[: q - 1], f_minus.cdf[: q - 1]
    npairs = n * (n - 1) // 2
    tri = np.empty(npairs, dtype=_dtype_for_q(q))
    starts = _row_starts(n)  # starts[n - 1] == npairs
    r0 = 0
    while r0 < n - 1:
        # whole rows r0..r1-1, about _GENERATE_CHUNK pairs and at least one row
        lo = int(starts[r0])
        r1 = int(np.searchsorted(starts, lo + _GENERATE_CHUNK, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n - 1)
        hi = int(starts[r1])
        u = pair_uniforms(seed, lo, hi)
        ends = block_end[r0:r1]
        runs = np.empty(2 * (r1 - r0), dtype=np.int64)
        runs[0::2] = ends - np.arange(r0 + 1, r1 + 1)
        runs[1::2] = n - ends
        same = np.repeat(np.tile((True, False), r1 - r0), runs)
        # every pair by f_minus, then the same-cluster pairs, usually a
        # minority, again by f_plus
        out = tri[lo:hi]
        _cdf_index(thr_minus, u, out)
        intra = np.empty(np.count_nonzero(same), dtype=tri.dtype)
        _cdf_index(thr_plus, u[same], intra)
        out[same] = intra
        r0 = r1
    return Instance(labels, SideInfo(n, f_plus.support, tri), f_plus, f_minus, seed)


# ---------------------------------------------------------------------------
# persistence


class InstanceFormatError(ValueError):
    """Malformed instance file; ``offset`` is the byte where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def save(instance: Instance, path: str | Path, sidecar: bool | None = None) -> Path:
    """Write the binary container; round-trips exactly through :func:`load`.

    A human-readable JSON sidecar (``<path>.json``) is written for small
    instances (n <= 200) unless explicitly disabled.
    """
    path = Path(path)
    header = {
        "version": 1,
        "n": instance.n,
        "k": instance.k,
        "q": instance.q,
        "seed": instance.seed,
        "f_plus": to_text(instance.f_plus),
        "f_minus": to_text(instance.f_minus),
        "w_dtype": instance.side.tri.dtype.str,
    }
    blob = json.dumps(header, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(instance.labels.astype("<i4").tobytes())
        fh.write(instance.side.tri.tobytes())
    if sidecar or (sidecar is None and instance.n <= SIDECAR_MAX_N):
        doc = {
            "n": instance.n,
            "k": instance.k,
            "seed": instance.seed,
            "f_plus": header["f_plus"],
            "f_minus": header["f_minus"],
            "clusters": [list(block) for block in instance.truth],
            "w_indices": instance.side.tri.tolist(),
        }
        Path(str(path) + ".json").write_text(json.dumps(doc, indent=1))
    return path


def load(path: str | Path) -> Instance:
    """Read an instance container; re-validates every invariant on load."""
    data = Path(path).read_bytes()
    if data[:5] != MAGIC:
        raise InstanceFormatError(f"bad magic {data[:5]!r}, expected {MAGIC!r}", 0)
    if len(data) < 9:
        raise InstanceFormatError("truncated header length", len(data))
    (hlen,) = struct.unpack("<I", data[5:9])
    if len(data) < 9 + hlen:
        raise InstanceFormatError("truncated header", len(data))
    try:
        header = json.loads(data[9 : 9 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
        raise InstanceFormatError(f"header is not valid JSON: {exc}", 9) from exc
    if not isinstance(header, dict):
        raise InstanceFormatError("header is not a JSON object", 9)
    if _header_field(header, int, "version") != 1:
        raise InstanceFormatError(f"unsupported version {header['version']!r}", 9)
    n = _header_field(header, int, "n")
    if n < 0:
        raise InstanceFormatError(f"bad header field: n={n} is negative", 9)
    seed = _header_field(header, int, "seed")
    if not 0 <= seed < 1 << 63:
        raise InstanceFormatError(f"bad header field: seed={seed} is outside [0, 2**63)", 9)
    f_plus_text = _header_field(header, str, "f_plus")
    f_minus_text = _header_field(header, str, "f_minus")
    dtype_text = _header_field(header, str, "w_dtype")
    try:
        f_plus = from_text(f_plus_text)
        f_minus = from_text(f_minus_text)
        w_dtype = np.dtype(dtype_text)
    except (ValueError, TypeError) as exc:
        raise InstanceFormatError(f"bad header field: {exc}", 9) from exc
    if _header_field(header, int, "q") != f_plus.q:
        raise InstanceFormatError("header q disagrees with f_plus", 9)
    if w_dtype.kind != "u":
        raise InstanceFormatError(
            f"bad header field: w_dtype {w_dtype.str!r} is not an unsigned integer", 9
        )

    off = 9 + hlen
    labels_bytes = n * 4
    if len(data) < off + labels_bytes:
        raise InstanceFormatError("truncated labels block", len(data))
    labels = np.frombuffer(data, dtype="<i4", count=n, offset=off).astype(np.int32)

    off += labels_bytes
    npairs = n * (n - 1) // 2
    tri_bytes = npairs * w_dtype.itemsize
    if len(data) < off + tri_bytes:
        raise InstanceFormatError("truncated side-information block", len(data))
    if len(data) > off + tri_bytes:
        raise InstanceFormatError("trailing bytes after side information", off + tri_bytes)
    tri = np.frombuffer(data, dtype=w_dtype, count=npairs, offset=off).copy()

    try:
        inst = Instance(labels, SideInfo(n, f_plus.support, tri), f_plus, f_minus, seed)
    except ValueError as exc:
        raise InstanceFormatError(f"invariant violation: {exc}", off) from exc
    if _header_field(header, int, "k") != inst.k:
        raise InstanceFormatError("header k disagrees with labels", 9)
    return inst


def _header_field(header: dict, kind: type, key: str):
    """``header[key]``, which must be of type ``kind`` (an int is not a bool)."""
    value = header.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InstanceFormatError(
            f"bad header field: {key}={value!r:.40} is not {kind.__name__}", 9
        )
    return value

"""Planted-clustering instances with pairwise noisy side information.

An instance is n elements, a ground-truth partition into k clusters, and an
upper-triangular matrix W of similarity values: intra-cluster entries are
i.i.d. draws from ``f_plus``, inter-cluster entries from ``f_minus``. W is
held once, as an n x n array of support indices (one byte per pair for
q <= 256). ``generate``, ``load`` and ``SideInfo(...)`` fill only the front
of that array, with W's flat row-major upper triangle, the form files and
fingerprints use; the first ``SideInfo.dense()`` call moves the rows into
place and mirrors them. ``generate`` hashes each drawing step as it writes
it, and ``load`` hashes the packed triangle on a helper thread, so a solver
that never reads W runs while W is hashed. An array of 4 MiB or more lives
in a memory mapping of its own, which the next W of the same size reuses
once the array is gone (:func:`_w_array`).
"""

from __future__ import annotations

import io
import json
import mmap
import os
import stat
import struct
import threading
import weakref
from contextlib import contextmanager
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
        if not 1.0 <= ratio < np.inf:
            raise ValueError("skew ratio must be finite and >= 1")
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
    """The matrix W of support indices, held as one n x n array (uint8, or
    uint16 for q > 256).

    Until the first :meth:`dense` call the array is packed: its first
    n(n-1)/2 cells hold W's flat row-major upper triangle, and the rest is
    undefined. That call moves the rows to ``w[u, u + 1:]``, fills the lower
    triangle, zeroes the diagonal, and marks the array read-only.
    """

    __slots__ = ("n", "support", "_w", "_reader")

    def __init__(self, n: int, support: Support, tri: np.ndarray):
        """W from ``tri``, its flat row-major upper triangle of support
        indices, stored in the cell type :func:`_dtype_for_q` gives."""
        expected = n * (n - 1) // 2
        if tri.shape != (expected,):
            raise ValueError(f"side_info has {tri.shape[0]} entries, expected {expected}")
        _check_range(tri, support.q)
        w = _w_array(n, _dtype_for_q(support.q))
        w.reshape(-1)[:expected] = tri
        self.n, self.support, self._w, self._reader = n, support, w, None

    @classmethod
    def _wrap(cls, n: int, support: Support, w: np.ndarray) -> SideInfo:
        """Take ``w``, packed with W's triangle, without copying it."""
        side = cls.__new__(cls)
        side.n, side.support, side._w, side._reader = n, support, w, None
        return side

    @property
    def q(self) -> int:
        return self.support.q

    @property
    def dtype(self) -> np.dtype:
        return self._w.dtype

    @contextmanager
    def _pieces(self):
        """W's flat row-major triangle as consecutive views: the packed
        triangle whole, or the rows ``w[u, u + 1:]`` once :meth:`dense` has
        moved them. While W is packed the ``with`` block holds
        ``_MIRROR_LOCK``, so no first :meth:`dense` moves the rows under it;
        code inside the block must not call :meth:`dense`."""
        w, n = self._w, self.n
        with _MIRROR_LOCK:
            if w.flags.writeable:
                yield (w.reshape(-1)[: n * (n - 1) // 2],)
                return
        yield (w[u, u + 1 :] for u in range(n - 1))

    @property
    def tri(self) -> np.ndarray:
        """A fresh copy of W's flat row-major upper triangle."""
        out = np.empty(self.n * (self.n - 1) // 2, dtype=self._w.dtype)
        start = 0
        with self._pieces() as pieces:
            for piece in pieces:
                out[start : start + piece.size] = piece
                start += piece.size
        return out

    def dense(self) -> np.ndarray:
        """Full symmetric n x n index matrix (diagonal zero), read-only.

        The first call waits for a thread still hashing the packed triangle
        (see :func:`load`), then unpacks W in place; solvers use the result
        for vectorized row gathers.
        """
        w = self._w
        if w.flags.writeable:  # still packed
            with _MIRROR_LOCK:  # a second thread must not write after setflags
                if w.flags.writeable:
                    if self._reader is not None:
                        self._reader.join()
                    _unpack(w)
                    w.setflags(write=False)
        return w


def _unpack(w: np.ndarray) -> None:
    """Turn the packed triangle at the front of ``w`` into the full
    symmetric matrix with a zero diagonal, whatever the rest of ``w`` held."""
    n = w.shape[0]
    flat = w.reshape(-1)
    starts = _row_starts(n).tolist()
    # the last row first: a row's place never starts before its packed
    # stretch, so no row still to move is overwritten
    for u in range(n - 2, -1, -1):
        w[u, u + 1 :] = flat[starts[u] : starts[u] + n - u - 1]
    b = _MIRROR_TILE
    for i in range(0, n, b):
        for j in range(0, i, b):
            w[i : i + b, j : j + b] = w[j : j + b, i : i + b].T
        upper = np.triu(w[i : i + b, i : i + b], 1)
        np.add(upper, upper.T, out=w[i : i + b, i : i + b])


# Edge of the square tiles _unpack mirrors one at a time: a whole-matrix
# transpose reads column-wise across all of memory and costs ~10x.
_MIRROR_TILE = 256
_MIRROR_LOCK = threading.Lock()


# From this many bytes up, W gets a mapping of its own: the size from which
# numpy asks for transparent huge pages (see _GENERATE_CHUNK).
_MAP_BYTES = 1 << 22
_SPARE_LOCK = threading.Lock()
_spare = None  # the mapping of the last W released, kept for the next one


def _w_array(n: int, dtype) -> np.ndarray:
    """A writable n x n array for W, its contents undefined.

    Below ``_MAP_BYTES`` this is ``np.empty``. From there up the array lives
    in an anonymous private mapping, off the malloc heap: how much of a freed
    heap block stays resident depends on where glibc placed it, so peak
    memory would change with heap layout from one process to the next. Once
    no array or view uses a mapping, it becomes the one spare. A request of
    the same byte size takes the spare over, with no new page faults; any
    other size drops it first.

    A mapping is never closed explicitly: numpy may still hold its buffer
    for a moment after the last array goes (the finalizer runs first), and
    close() would raise then. Dropping the last reference unmaps it.
    """
    global _spare
    dtype = np.dtype(dtype)
    nbytes = n * n * dtype.itemsize
    if nbytes < _MAP_BYTES:
        return np.empty((n, n), dtype=dtype)
    with _SPARE_LOCK:
        mm, _spare = _spare, None
    if mm is None or len(mm) != nbytes:
        mm = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            mm.madvise(mmap.MADV_HUGEPAGE)
    flat = np.frombuffer(mm, dtype=dtype)
    # every view of the array, reshaped, sliced or transposed, keeps flat
    # alive. A memoryview of mm would not do: frombuffer takes a memoryview
    # of its own, so ours could go while arrays still use the memory.
    weakref.finalize(flat, _keep_spare, mm)
    return flat.reshape(n, n)


def _keep_spare(mm: mmap.mmap) -> None:
    global _spare
    with _SPARE_LOCK:
        _spare = mm


def _check_range(tri: np.ndarray, q: int) -> None:
    if tri.dtype.kind not in "ui":
        raise ValueError(f"side_info has dtype {tri.dtype}, not an integer type")
    if tri.size and (int(tri.max()) >= q or (tri.dtype.kind == "i" and int(tri.min()) < 0)):
        raise ValueError("side_info contains an out-of-range support index")


def _dtype_for_q(q: int) -> np.dtype:
    """W's cell type for q values, little-endian on every host."""
    if q > 1 << 16:
        raise ValueError(f"q={q} exceeds 65536, the most values a uint16 cell of W holds")
    return np.dtype("|u1") if q <= 256 else np.dtype("<u2")


class Instance:
    """Immutable planted instance: truth labels, side information, provenance."""

    __slots__ = ("n", "k", "labels", "f_plus", "f_minus", "seed", "side", "_truth", "_fingerprint")

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
        self.k = k
        self.labels = labels
        self.f_plus = f_plus
        self.f_minus = f_minus
        self.seed = int(seed)
        self.side = side
        self._truth = None
        self._fingerprint = None

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
        """Short sha256 of n, seed, labels, W (its flat row-major triangle)
        and both distributions; hashed once, as every field is immutable:
        by :func:`generate` as it draws W, by the helper thread :func:`load`
        starts (this call waits for it), else on the first call."""
        if self._fingerprint is None and self.side._reader is not None:
            self.side._reader.join()
        if self._fingerprint is None:
            h = _w_hasher(self.n, self.seed, self.labels)
            with self.side._pieces() as pieces:
                for piece in pieces:
                    h.update(piece)
            self._fingerprint = _w_digest(h, self.f_plus, self.f_minus)
        return self._fingerprint

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


def _w_hasher(n: int, seed: int, labels: np.ndarray):
    """sha256 fed the fields the fingerprint hashes before W."""
    h = sha256()
    h.update(struct.pack("<qq", n, seed))
    h.update(labels.tobytes())
    return h


def _w_digest(h, f_plus: Distribution, f_minus: Distribution) -> str:
    """The fingerprint, once ``h`` from :func:`_w_hasher` has been fed W's
    flat row-major triangle."""
    h.update(to_text(f_plus).encode())
    h.update(to_text(f_minus).encode())
    return h.hexdigest()[:12]


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
    dtype = _dtype_for_q(f_plus.q)
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
    w = _w_array(n, dtype)
    flat = w.reshape(-1)  # W stays packed: the flat triangle at the front
    starts = _row_starts(n)  # starts[n - 1] is the number of pairs
    # each step is hashed as it is drawn, while its pairs are in cache
    h = _w_hasher(n, seed, labels)
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
        vals = flat[lo:hi]
        _cdf_index(thr_minus, u, vals)
        intra = np.empty(np.count_nonzero(same), dtype=w.dtype)
        _cdf_index(thr_plus, u[same], intra)
        vals[same] = intra
        h.update(vals)
        r0 = r1
    inst = Instance(labels, SideInfo._wrap(n, f_plus.support, w), f_plus, f_minus, seed)
    inst._fingerprint = _w_digest(h, f_plus, f_minus)
    return inst


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
        "w_dtype": instance.side.dtype.str,
    }
    blob = json.dumps(header, separators=(",", ":")).encode()
    # W goes out whole while packed, else one row at a time: a buffer of
    # 256 KiB, not the default 8 KiB, turns the rows into a few large writes
    with open(path, "wb", buffering=1 << 18) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(instance.labels.astype("<i4").tobytes())
        with instance.side._pieces() as pieces:
            for piece in pieces:
                fh.write(piece)
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
    """Read an instance container; re-validates every invariant on load.

    W is read straight into the array the instance keeps, packed, and a
    helper thread hashes it there for :meth:`Instance.fingerprint`.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe's size is known only once read
            data = fh.read()
            return _read(io.BytesIO(data), len(data))
        return _read(fh, info.st_size)


def _read(fh, size: int) -> Instance:
    """The instance in the open container ``fh`` of ``size`` bytes. Every
    block's length is checked against ``size`` before it is read."""
    head = fh.read(9)
    if head[:5] != MAGIC:
        raise InstanceFormatError(f"bad magic {head[:5]!r}, expected {MAGIC!r}", 0)
    if size < 9:
        raise InstanceFormatError("truncated header length", size)
    (hlen,) = struct.unpack("<I", head[5:9])
    if size < 9 + hlen:
        raise InstanceFormatError("truncated header", size)
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
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
        w_dtype = _dtype_for_q(f_plus.q)
    except (ValueError, TypeError) as exc:
        raise InstanceFormatError(f"bad header field: {exc}", 9) from exc
    if _header_field(header, int, "q") != f_plus.q:
        raise InstanceFormatError("header q disagrees with f_plus", 9)
    if dtype_text != w_dtype.str:
        raise InstanceFormatError(
            f"bad header field: w_dtype {dtype_text!r:.40} is not {w_dtype.str!r},"
            f" the unsigned integer type for q={f_plus.q}",
            9,
        )

    off = 9 + hlen
    labels_bytes = n * 4
    if size < off + labels_bytes:
        raise InstanceFormatError("truncated labels block", size)
    labels = np.frombuffer(fh.read(labels_bytes), dtype="<i4").astype(np.int32)

    off += labels_bytes
    npairs = n * (n - 1) // 2
    tri_bytes = npairs * w_dtype.itemsize
    if size < off + tri_bytes:
        raise InstanceFormatError("truncated side-information block", size)
    if size > off + tri_bytes:
        raise InstanceFormatError("trailing bytes after side information", off + tri_bytes)
    # the triangle lands packed at the front of W's own array
    w = _w_array(n, w_dtype)
    packed = w.reshape(-1)[:npairs]
    got = fh.readinto(packed.view(np.uint8))
    if got != tri_bytes:  # the file shrank while it was read
        raise InstanceFormatError("truncated side-information block", off + got)

    try:
        _check_range(packed, f_plus.q)
        inst = Instance(labels, SideInfo._wrap(n, f_plus.support, w), f_plus, f_minus, seed)
    except ValueError as exc:
        raise InstanceFormatError(f"invariant violation: {exc}", off) from exc
    if _header_field(header, int, "k") != inst.k:
        raise InstanceFormatError("header k disagrees with labels", 9)
    # the packed triangle is W in the fingerprint's order: one contiguous
    # hash, which releases the GIL, on a thread that alone writes the
    # fingerprint; dense() waits for it before the rows move
    h = _w_hasher(n, seed, inst.labels)
    reader = threading.Thread(target=_finish_fingerprint, args=(inst, h, packed))
    reader.start()
    inst.side._reader = reader
    return inst


def _finish_fingerprint(inst: Instance, h, packed: np.ndarray) -> None:
    """Feed ``h`` from :func:`_w_hasher` the packed triangle and store the
    fingerprint on ``inst``."""
    h.update(packed)
    inst._fingerprint = _w_digest(h, inst.f_plus, inst.f_minus)


def _header_field(header: dict, kind: type, key: str):
    """``header[key]``, which must be of type ``kind`` (an int is not a bool)."""
    value = header.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InstanceFormatError(
            f"bad header field: {key}={value!r:.40} is not {kind.__name__}", 9
        )
    return value

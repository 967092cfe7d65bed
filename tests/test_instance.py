import gc
import hashlib
import json
import os
import struct
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from triangle import pair_index, value_index

from oclust import instance as instance_mod
from oclust.divergence import bernoulli, from_text, to_text
from oclust.instance import (
    Balanced,
    ExplicitSizes,
    InstanceFormatError,
    Skewed,
    cluster_sizes,
    generate,
    load,
    pair_uniforms,
    save,
)

WEAK3 = ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2")


def wide_pmfs():
    """Two 300-value pmfs, so W is stored as uint16; both have zero-mass values."""
    from oclust.divergence import Distribution, Support

    rng = np.random.default_rng(8)
    w_plus, w_minus = rng.gamma(1.0, size=300), rng.gamma(1.0, size=300)
    w_plus[10:60] = 0.0
    w_minus[200:] = 0.0
    wide = Support(tuple(range(300)))
    return Distribution(wide, w_plus / w_plus.sum()), Distribution(wide, w_minus / w_minus.sum())


class TestClusterSizes:
    def test_balanced_spreads_remainder(self):
        assert cluster_sizes(Balanced(3), 10) == (4, 3, 3)
        assert cluster_sizes(Balanced(1), 5) == (5,)

    def test_explicit_must_sum(self):
        with pytest.raises(ValueError):
            cluster_sizes(ExplicitSizes((4, 4)), 9)
        with pytest.raises(ValueError):
            cluster_sizes(ExplicitSizes((9, 0)), 9)

    def test_singletons_allowed(self):
        assert cluster_sizes(ExplicitSizes((7, 1, 1, 1)), 10) == (7, 1, 1, 1)

    def test_skewed_sums_and_orders(self):
        sizes = cluster_sizes(Skewed(4, 8.0), 100)
        assert sum(sizes) == 100
        assert all(s >= 1 for s in sizes)
        assert max(sizes) / min(sizes) >= 3.0

    def test_too_many_clusters(self):
        with pytest.raises(ValueError):
            cluster_sizes(Balanced(11), 10)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 0.5])
    def test_skew_ratio_must_be_finite_and_at_least_one(self, ratio):
        with pytest.raises(ValueError, match="skew ratio must be finite and >= 1"):
            cluster_sizes(Skewed(3, ratio), 20)


class TestGenerate:
    def test_degenerate_single_cluster(self):
        inst = generate(4, ExplicitSizes((4,)), bernoulli(1.0), bernoulli(0.0), seed=1)
        # all six pairs are intra and Bern(1) always lands on support value 1
        assert all(value_index(inst.side, u, v) == 1 for u in range(4) for v in range(u + 1, 4))

    def test_degenerate_two_blocks(self):
        inst = generate(4, ExplicitSizes((2, 2)), bernoulli(1.0), bernoulli(0.0), seed=1)
        intra = {(0, 1), (2, 3)}
        for u in range(4):
            for v in range(u + 1, 4):
                want = 1 if (u, v) in intra else 0
                assert value_index(inst.side, u, v) == want

    def test_intra_frequency_law_of_large_numbers(self):
        inst = generate(2000, Balanced(10), bernoulli(0.7), bernoulli(0.3), seed=3)
        labels = inst.labels
        same = np.concatenate(
            [labels[i + 1 :] == labels[i] for i in range(inst.n - 1)]
        )
        intra_vals = inst.side.tri[same]
        freq = float(np.mean(intra_vals == 1))
        assert abs(freq - 0.7) <= 0.01

    def test_deterministic_for_fixed_seed(self):
        a = generate(300, Balanced(5), bernoulli(0.8), bernoulli(0.2), seed=9)
        b = generate(300, Balanced(5), bernoulli(0.8), bernoulli(0.2), seed=9)
        assert np.array_equal(a.side.tri, b.side.tri)
        assert a == b
        c = generate(300, Balanced(5), bernoulli(0.8), bernoulli(0.2), seed=10)
        assert not np.array_equal(a.side.tri, c.side.tri)

    def test_pair_stream_is_order_independent(self):
        # any slice of the per-seed stream can be regenerated on its own
        full = pair_uniforms(31337, 0, 5000)
        for lo, hi in [(0, 10), (3, 17), (999, 1001), (4096, 4200), (4999, 5000)]:
            assert np.array_equal(pair_uniforms(31337, lo, hi), full[lo:hi])

    @staticmethod
    def reference_tri(n, spec, fp, fm, seed, u=None):
        """W from its definition: per-row same-cluster masks and two full
        inverse-CDF passes over the pair stream."""
        sizes = cluster_sizes(spec, n)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        rows = [labels[i + 1 :] == labels[i] for i in range(n - 1)]
        same = np.concatenate(rows + [np.zeros(0, dtype=bool)])
        if u is None:
            u = pair_uniforms(seed, 0, n * (n - 1) // 2)
        idx = np.where(same, np.searchsorted(fp.cdf, u, "right"), np.searchsorted(fm.cdf, u, "right"))
        return np.minimum(idx, fp.q - 1)

    @pytest.mark.parametrize("chunk", [1, 37, 1 << 30])
    def test_output_independent_of_generation_step(self, monkeypatch, chunk):
        # one row per step, steps ending mid-cluster, and one step in all,
        # each against the reference expression
        binary = (from_text("0:0.1,1:0.9"), from_text("0:0.9,1:0.1"))
        cases = [
            (60, ExplicitSizes((30, 9, 1, 20)), ("0:0.2,1:0.3,2:0.5", "0:0.5,1:0.3,2:0.2")),
            (40, Balanced(3), (bernoulli(0.0), bernoulli(0.5))),
            (40, Skewed(4, 3.0), (bernoulli(1.0), bernoulli(1.0))),
            (40, Balanced(4), (bernoulli(1.0), bernoulli(0.0))),
            (50, Balanced(5), ("0:0.5,1:0,2:0.5", "0:0.25,1:0,2:0.75")),  # empty middle value
            (1, Balanced(1), binary),
            (2, Balanced(1), binary),
            (2, Balanced(2), binary),
            (25, ExplicitSizes((1,) * 25), binary),
            (30, Balanced(1), binary),
            (60, ExplicitSizes((20, 1, 9, 30)), wide_pmfs()),
        ]
        want = []
        for n, spec, (fp, fm) in cases:
            fp, fm = (from_text(f) if isinstance(f, str) else f for f in (fp, fm))
            inst = generate(n, spec, fp, fm, seed=5)
            assert inst.side.tri.dtype == (np.uint16 if fp.q > 256 else np.uint8)
            assert np.array_equal(inst.side.tri, self.reference_tri(n, spec, fp, fm, 5))
            want.append((n, spec, fp, fm, inst))
        monkeypatch.setattr(instance_mod, "_GENERATE_CHUNK", chunk)
        # 0: binary search for every pmf; 1 << 30: counting passes for every pmf
        for count_thresholds in (0, 1 << 30):
            monkeypatch.setattr(instance_mod, "_COUNT_THRESHOLDS", count_thresholds)
            for n, spec, fp, fm, inst in want:
                assert generate(n, spec, fp, fm, seed=5) == inst

    def test_uniforms_on_a_threshold_match_searchsorted(self, monkeypatch):
        # a uniform equal to a cdf value takes the higher index, as
        # searchsorted(cdf, u, "right") does; Philox almost never hits one
        fp, fm = from_text("0:0.25,1:0,2:0.75"), from_text("0:0,1:0.5,2:0.5")
        ties = np.concatenate([fp.cdf, fm.cdf, [0.0, 0.1, 0.3, 0.6, 0.9]])
        n = 40
        u = np.resize(np.concatenate([ties, np.nextafter(ties, 0.0)]), n * (n - 1) // 2)
        monkeypatch.setattr(instance_mod, "pair_uniforms", lambda seed, lo, hi: u[lo:hi])
        want = self.reference_tri(n, Balanced(3), fp, fm, 0, u)
        for count_thresholds in (0, 1 << 30):
            monkeypatch.setattr(instance_mod, "_COUNT_THRESHOLDS", count_thresholds)
            assert np.array_equal(generate(n, Balanced(3), fp, fm, seed=0).side.tri, want)

    @pytest.mark.parametrize("seed", [-1, 1 << 63])
    def test_seed_outside_fingerprint_range_rejected(self, seed):
        # the fingerprint packs the seed as a signed 64-bit integer
        with pytest.raises(ValueError, match="seed"):
            generate(10, Balanced(2), bernoulli(0.5), bernoulli(0.5), seed=seed)

    def test_support_mismatch_rejected(self):
        from oclust.divergence import Distribution, Support

        f = bernoulli(0.5)
        g = Distribution(Support((0.0, 2.0)), (0.5, 0.5))
        with pytest.raises(ValueError, match="support mismatch"):
            generate(10, Balanced(2), f, g, seed=0)

    def test_support_beyond_uint16_rejected_before_w_is_allocated(self, monkeypatch):
        from oclust.divergence import Distribution, Support

        q = (1 << 16) + 1
        probs = np.zeros(q)
        probs[-1] = 1.0  # every pair takes value 65536, which uint16 wraps to 0
        f = Distribution(Support(tuple(range(q))), probs)

        def no_allocation(n, dtype):
            raise AssertionError("W allocated")

        monkeypatch.setattr(instance_mod, "_w_array", no_allocation)
        with pytest.raises(ValueError, match="65536"):
            generate(4, Balanced(2), f, f, seed=0)

    def test_chi_square_goodness_of_fit(self):
        # sanity, not a proof: intra entries look like f_plus at alpha=0.001
        fp = bernoulli(0.7)
        inst = generate(500, Balanced(5), fp, bernoulli(0.3), seed=11)
        labels = inst.labels
        same = np.concatenate([labels[i + 1 :] == labels[i] for i in range(inst.n - 1)])
        vals = inst.side.tri[same]
        counts = np.bincount(vals, minlength=2)
        expected = len(vals) * fp.probs_array
        _, p = stats.chisquare(counts, expected)
        assert p >= 0.001

    def test_pair_index_round_trip(self):
        n = 12
        seen = set()
        for u in range(n):
            for v in range(u + 1, n):
                idx = pair_index(u, v, n)
                assert idx == pair_index(v, u, n)
                seen.add(idx)
        assert seen == set(range(n * (n - 1) // 2))

    def test_dense_matches_triangle(self):
        inst = generate(40, Balanced(3), bernoulli(0.6), bernoulli(0.4), seed=5)
        dense = inst.side.dense()
        for u in range(inst.n):
            for v in range(u + 1, inst.n):
                assert dense[u, v] == dense[v, u] == value_index(inst.side, u, v)

    def test_dense_matches_triangle_across_tiles(self):
        # dense() mirrors W tile by tile; n = 600 spans several tiles and a
        # ragged last one
        inst = generate(600, Balanced(3), bernoulli(0.6), bernoulli(0.4), seed=5)
        dense = inst.side.dense()
        assert np.array_equal(dense[np.triu_indices(600, k=1)], inst.side.tri)
        assert np.array_equal(dense, dense.T) and not dense.diagonal().any()


class TestOneArray:
    """W is one n x n array: its upper rows must give the bytes the flat
    triangle gave, and only dense() may fill the rest."""

    PMFS = {
        "binary": lambda: (bernoulli(0.9), bernoulli(0.1)),
        "weak3": lambda: tuple(from_text(t) for t in WEAK3),
        "wide": wide_pmfs,
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 257, 600])
    @pytest.mark.parametrize("pmfs", sorted(PMFS))
    def test_bytes_match_the_flat_reference(self, tmp_path, pmfs, n):
        fp, fm = self.PMFS[pmfs]()
        spec, seed = Balanced(min(3, n)), 11
        dtype = np.dtype(np.uint16 if fp.q > 256 else np.uint8)
        ref = TestGenerate.reference_tri(n, spec, fp, fm, seed).astype(dtype)
        inst = generate(n, spec, fp, fm, seed)
        assert inst.side.tri.dtype == dtype and np.array_equal(inst.side.tri, ref)

        labels = inst.labels.astype("<i4").tobytes()
        texts = (to_text(fp) + to_text(fm)).encode()
        digest = hashlib.sha256(struct.pack("<qq", n, seed) + labels + ref.tobytes() + texts)
        assert inst.fingerprint() == digest.hexdigest()[:12]

        header = {
            "version": 1, "n": n, "k": inst.k, "q": fp.q, "seed": seed,
            "f_plus": to_text(fp), "f_minus": to_text(fm), "w_dtype": dtype.str,
        }
        raw = json.dumps(header, separators=(",", ":")).encode()
        path = save(inst, tmp_path / "inst.oclb")
        assert path.read_bytes() == b"OCLB1" + struct.pack("<I", len(raw)) + raw + labels + ref.tobytes()
        sidecar = tmp_path / "inst.oclb.json"
        if n <= instance_mod.SIDECAR_MAX_N:
            assert json.loads(sidecar.read_text())["w_indices"] == ref.tolist()

        again = load(path)
        dense = again.side.dense()
        assert dense.dtype == dtype and not dense.flags.writeable
        assert np.array_equal(dense, dense.T) and not dense.diagonal().any()
        assert np.array_equal(dense[np.triu_indices(n, k=1)], ref)
        # inst is still unmirrored
        assert inst == again and again == inst
        assert again.fingerprint() == inst.fingerprint()
        assert np.array_equal(inst.side.dense(), dense)

    def test_dense_overwrites_whatever_lies_below_the_diagonal(self):
        # a packed W's cells past its triangle, which take in all of the
        # lower triangle, hold whatever the array held: junk in every byte of
        # them must not reach dense()
        n = 300
        for pmfs in ("weak3", "wide"):  # one byte and two bytes per cell
            support = self.PMFS[pmfs]()[0].support
            tri = np.arange(n * (n - 1) // 2, dtype=np.int64) % support.q
            side = instance_mod.SideInfo(n, support, tri)
            junk = side._w.reshape(-1)[tri.size :].view(np.uint8)
            junk[:] = np.random.default_rng(0).integers(1, 256, junk.size, dtype=np.uint8)
            dense = side.dense()
            assert np.array_equal(dense, dense.T) and not dense.diagonal().any()
            assert np.array_equal(dense[np.triu_indices(n, k=1)], tri)

    def test_first_dense_calls_from_many_threads(self):
        # every thread must get the finished mirror; none may write into the
        # array after another marked it read-only
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(5):
                inst = generate(600, Balanced(3), bernoulli(0.6), bernoulli(0.4), seed=seed)
                got, errors = [], []

                def first_dense():
                    try:
                        got.append(inst.side.dense())
                    except Exception as exc:  # reported by the assert below
                        errors.append(exc)

                threads = [threading.Thread(target=first_dense) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads) and not errors
                assert len(got) == 6 and all(d is got[0] for d in got)
                assert np.array_equal(got[0], got[0].T) and not got[0].diagonal().any()
        finally:
            sys.setswitchinterval(interval)

    def test_first_reads_of_a_loaded_instance_from_many_threads(self, tmp_path):
        # load's helper thread is still hashing while threads race to take
        # the fingerprint, unpack W and read its packed bytes: every one must
        # see the one fingerprint and the file's exact bytes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(4):
                made = generate(600, Balanced(3), *(from_text(t) for t in WEAK3), seed=seed)
                path = save(made, tmp_path / "inst.oclb")
                blob, tri = path.read_bytes(), made.side.tri
                inst = load(path)
                got, errors = [], []

                def read(i):
                    try:
                        kind = i % 4
                        if kind == 0:
                            got.append(("fp", inst.fingerprint()))
                        elif kind == 1:
                            got.append(("dense", inst.side.dense()))
                        elif kind == 2:
                            got.append(("tri", inst.side.tri))
                        else:
                            got.append(("file", save(inst, tmp_path / f"out{i}.oclb").read_bytes()))
                    except Exception as exc:  # reported by the assert below
                        errors.append(exc)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(12)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads) and not errors
                assert len(got) == 12
                for kind, value in got:
                    if kind == "fp":
                        assert value == made.fingerprint()
                    elif kind == "dense":
                        assert value is inst.side.dense()
                        assert np.array_equal(value[np.triu_indices(600, k=1)], tri)
                        assert np.array_equal(value, value.T) and not value.diagonal().any()
                    elif kind == "tri":
                        assert np.array_equal(value, tri)
                    else:
                        assert value == blob
                assert inst.fingerprint() == made.fingerprint()
        finally:
            sys.setswitchinterval(interval)

    def test_dense_and_fingerprint_wait_for_the_hash(self, tmp_path, monkeypatch):
        # load's helper thread is held at a gate: the first dense() must not
        # move the rows, nor fingerprint() hash W again, until it has hashed
        made = generate(300, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=2)
        path = save(made, tmp_path / "inst.oclb")
        gate, finish = threading.Event(), instance_mod._finish_fingerprint
        hashers = []

        def counting_sha256():
            hashers.append(1)
            return hashlib.sha256()

        def gated(*args):
            gate.wait(timeout=60)
            finish(*args)

        monkeypatch.setattr(instance_mod, "_finish_fingerprint", gated)
        monkeypatch.setattr(instance_mod, "sha256", counting_sha256)
        inst = load(path)
        got = {}
        readers = [
            threading.Thread(target=lambda: got.setdefault("dense", inst.side.dense())),
            threading.Thread(target=lambda: got.setdefault("fp", inst.fingerprint())),
        ]
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=0.2)
        assert all(t.is_alive() for t in readers) and not got
        gate.set()
        for t in readers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in readers)
        assert got["fp"] == made.fingerprint() and len(hashers) == 1
        assert np.array_equal(got["dense"][np.triu_indices(300, k=1)], made.side.tri)

    def test_baseline_leaves_a_loaded_w_packed(self, tmp_path):
        # the baseline reads only the oracle: W stays packed, and its
        # fingerprint comes from load's helper thread
        from oclust.solver_lv import run_baseline

        made = generate(300, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=2)
        inst = load(save(made, tmp_path / "inst.oclb"))
        _, report = run_baseline(inst, 1)
        assert report.fingerprint == made.fingerprint() and report.exact
        assert inst.side._w.flags.writeable  # no dense() call unpacked it
        assert np.array_equal(inst.side._w.reshape(-1)[: 300 * 299 // 2], made.side.tri)

    def test_side_info_takes_the_cell_type_of_q(self, tmp_path):
        # W from a triangle of any integer type is stored, saved and loaded
        # in the one cell type for q; a negative or non-integer index is
        # rejected, not wrapped or truncated
        fp, fm = (from_text(t) for t in WEAK3)
        tri = np.arange(45, dtype=np.int64) % 3
        side = instance_mod.SideInfo(10, fp.support, tri)
        assert side.dtype == np.uint8 and np.array_equal(side.tri, tri)
        inst = instance_mod.Instance(np.repeat(np.arange(2), 5), side, fp, fm, seed=1)
        again = load(save(inst, tmp_path / "inst.oclb", sidecar=False))
        assert again == inst and again.fingerprint() == inst.fingerprint()
        for bad in (tri - 1, tri.astype(np.float64)):
            with pytest.raises(ValueError, match="side_info"):
                instance_mod.SideInfo(10, fp.support, bad)

    def test_tri_is_a_fresh_copy(self):
        inst = generate(50, Balanced(2), bernoulli(0.9), bernoulli(0.1), seed=1)
        tri = inst.side.tri
        tri[:] = 1 - tri
        assert not np.array_equal(inst.side.tri, tri)
        assert value_index(inst.side, 0, 1) == 1 - tri[0]


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


class TestMapping:
    """A W of ``_MAP_BYTES`` or more gets a mapping of its own, which the next
    W of the same byte size reuses once no array or view uses it. The tests
    lower the threshold so that small instances take that path."""

    N = 200

    @pytest.fixture(autouse=True)
    def mapped(self, monkeypatch):
        monkeypatch.setattr(instance_mod, "_MAP_BYTES", self.N * self.N)
        monkeypatch.setattr(instance_mod, "_spare", None)

    def make(self, seed, n=N):
        return generate(n, Balanced(4), *(from_text(t) for t in WEAK3), seed=seed)

    @staticmethod
    def spare():
        """The spare mapping, once every dropped array is freed."""
        gc.collect()
        return instance_mod._spare

    def test_threshold_is_four_mib(self, monkeypatch):
        monkeypatch.undo()
        assert instance_mod._MAP_BYTES == 1 << 22
        # np.empty owns its buffer; a mapped array is a view of frombuffer's
        assert instance_mod._w_array(2047, np.uint8).base is None
        assert instance_mod._w_array(1024, np.uint16).base is None
        assert instance_mod._w_array(2048, np.uint8).base is not None

    def test_held_row_keeps_the_mapping(self):
        inst = self.make(1)
        row = inst.side.dense()[7]
        values, where = row.copy(), _address(inst.side.dense())
        del inst
        assert self.spare() is None
        other = self.make(2)
        assert _address(other.side.dense()) != where
        assert np.array_equal(row, values)
        del row
        assert len(self.spare()) == self.N**2

    def test_released_mapping_is_reused(self, tmp_path):
        inst = self.make(1)
        where = _address(inst.side.dense())
        path = save(inst, tmp_path / "inst.oclb")
        del inst
        assert len(self.spare()) == self.N**2
        inst = self.make(2)
        assert _address(inst.side.dense()) == where and self.spare() is None
        del inst
        inst = load(path)
        assert _address(inst.side.dense()) == where and self.spare() is None

    def test_other_size_drops_the_spare(self):
        self.make(1)
        old = weakref.ref(self.spare())
        inst = self.make(3, n=self.N + 1)
        assert self.spare() is None and old() is None
        del inst
        kept = self.spare()
        assert len(kept) == (self.N + 1) ** 2
        # a spare that another released mapping replaces is dropped too
        held = self.make(4, n=self.N + 1)
        self.make(5)
        small = weakref.ref(self.spare())
        assert len(small()) == self.N**2
        del held
        assert small() is None and self.spare() is kept

    def test_threads_never_share_a_live_mapping(self):
        # more threads than cores generate, mirror, check and drop instances;
        # a mapping handed out twice would mix two seeds' W
        want = {seed: self.make(seed).side.dense().copy() for seed in range(3)}
        errors = []

        def work(seed):
            try:
                for _ in range(15):
                    if not np.array_equal(self.make(seed).side.dense(), want[seed]):
                        errors.append(seed)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i % 3,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and not errors
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
    def test_outputs_match_the_heap_path(self, tmp_path, monkeypatch, reuse):
        if reuse:  # the spare holds another instance's W, mirrored
            self.make(9).side.dense()
            assert self.spare() is not None
        mapped = self.make(1)
        assert mapped.side._w.base is not None
        mapped_bytes = save(mapped, tmp_path / "mapped.oclb").read_bytes()
        side = instance_mod.SideInfo(self.N, mapped.side.support, mapped.side.tri)
        assert side._w.base is not None
        monkeypatch.setattr(instance_mod, "_MAP_BYTES", 1 << 62)
        heap = self.make(1)
        assert heap.side._w.base is None
        assert mapped.fingerprint() == heap.fingerprint()
        assert mapped_bytes == save(heap, tmp_path / "heap.oclb").read_bytes()
        assert np.array_equal(mapped.side.dense(), heap.side.dense())
        assert np.array_equal(side.dense(), heap.side.dense())


@pytest.fixture
def traced():
    """Memory traced by tracemalloc, which numpy reports its data buffers to.
    ``traced()`` is the memory in use now and the peak since the last call."""

    def now_and_peak():
        used, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return used, peak

    tracemalloc.start()
    yield now_and_peak
    tracemalloc.stop()


class TestMemory:
    """W's n^2 bytes are held once: no step makes a second whole copy."""

    N = 1500
    # buffers that do not grow with n: the file's write buffer, row offsets,
    # labels
    SLACK = 1 << 19
    # plus one generation step's temporaries: about 2^16 pairs of float64
    # uniforms, for the step ending and the next starting, and their masks
    GENERATE_SLACK = 3 << 19

    def test_load_dense_fingerprint(self, tmp_path, traced):
        inst = generate(self.N, Balanced(5), bernoulli(0.9), bernoulli(0.1), seed=3)
        path = save(inst, tmp_path / "inst.oclb")
        del inst
        start, _ = traced()
        inst = load(path)
        inst.side.dense()
        inst.fingerprint()
        _, peak = traced()
        assert peak - start <= self.N**2 + self.SLACK

    def test_generate_save_fingerprint_dense(self, tmp_path, traced):
        # a first, small call makes the imports numpy defers to first use
        generate(10, Balanced(5), bernoulli(0.9), bernoulli(0.1), seed=3)
        start, _ = traced()
        inst = generate(self.N, Balanced(5), bernoulli(0.9), bernoulli(0.1), seed=3)
        with_w, peak = traced()
        assert peak - start <= self.N**2 + self.GENERATE_SLACK
        save(inst, tmp_path / "inst.oclb")
        inst.fingerprint()
        inst.side.dense()
        _, peak = traced()
        # once W exists, saving, hashing and mirroring it allocate nothing of its size
        assert peak - with_w <= self.SLACK


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inst = generate(100, Balanced(4), bernoulli(0.85), bernoulli(0.15), seed=21)
        path = save(inst, tmp_path / "inst.oclb")
        again = load(path)
        assert again == inst
        assert again.fingerprint() == inst.fingerprint()
        # n <= 200 gets the human-readable sidecar
        assert (tmp_path / "inst.oclb.json").exists()

    def test_fingerprint_is_hashed_once_and_survives_round_trip(self, tmp_path, monkeypatch):
        inst = generate(150, Skewed(3, 4.0), bernoulli(0.8), bernoulli(0.3), seed=9)
        h = hashlib.sha256()
        h.update(struct.pack("<qq", inst.n, inst.seed))
        for field in (inst.labels.tobytes(), inst.side.tri.tobytes()):
            h.update(field)
        for dist in (inst.f_plus, inst.f_minus):
            h.update(to_text(dist).encode())
        expected = h.hexdigest()[:12]
        assert inst.fingerprint() == expected
        path = save(inst, tmp_path / "inst.oclb")
        calls = []

        def counting_sha256():
            calls.append(1)
            return hashlib.sha256()

        monkeypatch.setattr(instance_mod, "sha256", counting_sha256)
        again = load(path)
        assert again.k == inst.k == 3
        assert len(calls) == 1  # load hashes W once, as it reads it
        assert inst.fingerprint() == expected  # cached by generate
        assert again.fingerprint() == expected
        assert again.fingerprint() == expected
        assert len(calls) == 1

    def test_load_from_a_pipe(self, tmp_path):
        # a pipe has no size to check the blocks against before reading them
        inst = generate(60, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=4)
        blob = save(inst, tmp_path / "inst.oclb", sidecar=False).read_bytes()
        for data in (blob, blob[:-5]):
            fifo = tmp_path / "pipe"
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes, args=(data,))
            writer.start()
            try:
                if data == blob:
                    assert load(fifo) == inst
                else:
                    with pytest.raises(InstanceFormatError, match="truncated side-information"):
                        load(fifo)
            finally:
                writer.join(timeout=30)
                fifo.unlink()
            assert not writer.is_alive()

    def test_sidecar_suppressed_for_large_n(self, tmp_path):
        inst = generate(300, Balanced(2), bernoulli(0.9), bernoulli(0.1), seed=2)
        save(inst, tmp_path / "big.oclb")
        assert not (tmp_path / "big.oclb.json").exists()

    def test_truncated_file_is_rejected(self, tmp_path):
        inst = generate(60, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=4)
        path = save(inst, tmp_path / "inst.oclb", sidecar=False)
        blob = path.read_bytes()
        for cut in (3, 7, 30, len(blob) - 5):
            (tmp_path / "cut.oclb").write_bytes(blob[:cut])
            with pytest.raises(InstanceFormatError) as err:
                load(tmp_path / "cut.oclb")
            assert err.value.offset >= 0

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.oclb").write_bytes(b"NOPE!" + b"\x00" * 40)
        with pytest.raises(InstanceFormatError, match="magic"):
            load(tmp_path / "junk.oclb")

    def test_trailing_bytes_rejected(self, tmp_path):
        inst = generate(30, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=4)
        path = save(inst, tmp_path / "inst.oclb", sidecar=False)
        (tmp_path / "fat.oclb").write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(InstanceFormatError, match="trailing"):
            load(tmp_path / "fat.oclb")

    @staticmethod
    def _with_header(tmp_path, **fields):
        """A valid container whose JSON header has some fields replaced."""
        inst = generate(30, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=4)
        blob = save(inst, tmp_path / "inst.oclb", sidecar=False).read_bytes()
        (hlen,) = struct.unpack("<I", blob[5:9])
        header = {**json.loads(blob[9 : 9 + hlen]), **fields}
        raw = json.dumps(header).encode()
        path = tmp_path / "edited.oclb"
        path.write_bytes(blob[:5] + struct.pack("<I", len(raw)) + raw + blob[9 + hlen :])
        return path

    def test_negative_n_is_format_error(self, tmp_path):
        with pytest.raises(InstanceFormatError, match="negative"):
            load(self._with_header(tmp_path, n=-1))

    @pytest.mark.parametrize("dtype", ["|i1", "<f8"])
    def test_non_unsigned_w_dtype_is_format_error(self, tmp_path, dtype):
        with pytest.raises(InstanceFormatError, match="unsigned"):
            load(self._with_header(tmp_path, w_dtype=dtype))

    @pytest.mark.parametrize(
        "pmfs, dtype",
        [("binary", "<u8"), ("binary", "<u2"), ("binary", "u1"), ("wide", ">u2"), ("wide", "|u1")],
    )
    def test_non_canonical_w_dtype_is_rejected_before_w_is_allocated(
        self, tmp_path, monkeypatch, pmfs, dtype
    ):
        # one cell type per q, little-endian: |u1, or <u2 for q > 256
        fp, fm = TestOneArray.PMFS[pmfs]()
        inst = generate(30, Balanced(3), fp, fm, seed=4)
        blob = save(inst, tmp_path / "inst.oclb", sidecar=False).read_bytes()
        (hlen,) = struct.unpack("<I", blob[5:9])
        header = json.loads(blob[9 : 9 + hlen])
        assert header["w_dtype"] == ("<u2" if pmfs == "wide" else "|u1")
        raw = json.dumps({**header, "w_dtype": dtype}).encode()
        path = tmp_path / "edited.oclb"
        path.write_bytes(blob[:5] + struct.pack("<I", len(raw)) + raw + blob[9 + hlen :])

        def no_allocation(n, dtype):
            raise AssertionError("W allocated")

        monkeypatch.setattr(instance_mod, "_w_array", no_allocation)
        with pytest.raises(InstanceFormatError, match="w_dtype") as err:
            load(path)
        assert err.value.offset == 9

    @pytest.mark.parametrize(
        "fields, match",
        [
            pytest.param(fields, match, id=",".join(f"{k}={v!r}" for k, v in fields.items()))
            for fields, match in [
                ({"k": "abc"}, "k='abc' is not int"),
                ({"k": [1]}, r"k=\[1\] is not int"),
                ({"k": None}, "k=None is not int"),
                ({"f_plus": 5}, "f_plus=5 is not str"),
                ({"n": 2.7}, "n=2.7 is not int"),
                ({"seed": 1.5}, "seed=1.5 is not int"),
                ({"n": True}, "n=True is not int"),
                ({"seed": 1 << 63}, r"outside \[0, 2\*\*63\)"),
                ({"seed": -1}, r"outside \[0, 2\*\*63\)"),
                ({"version": 2}, "unsupported version"),
                ({"q": 3}, "q disagrees"),
                ({"k": 4}, "k disagrees"),
                ({"f_minus": "0:1"}, "bad header field"),
            ]
        ],
    )
    def test_malformed_header_field_is_format_error(self, tmp_path, fields, match):
        with pytest.raises(InstanceFormatError, match=match) as err:
            load(self._with_header(tmp_path, **fields))
        assert err.value.offset == 9

    @pytest.mark.parametrize(
        "raw",
        [b'{"n": "\xff"}', b"[1, 2]", b"[" * 100_000],
        ids=["not-utf8", "not-an-object", "deep-nesting"],
    )
    def test_undecodable_header_is_format_error(self, tmp_path, raw):
        # not UTF-8, not a JSON object, nested past the parser's recursion limit
        path = tmp_path / "x.oclb"
        path.write_bytes(b"OCLB1" + struct.pack("<I", len(raw)) + raw)
        with pytest.raises(InstanceFormatError) as err:
            load(path)
        assert err.value.offset == 9

    def test_out_of_range_label_is_rejected_before_counting(self, tmp_path):
        # a label far above n must not size any allocation
        inst = generate(30, Balanced(3), bernoulli(0.9), bernoulli(0.1), seed=4)
        path = save(inst, tmp_path / "inst.oclb", sidecar=False)
        blob = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<I", blob[5:9])
        blob[9 + hlen : 9 + hlen + 4] = struct.pack("<i", (1 << 31) - 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(InstanceFormatError, match="invariant"):
            load(path)

    def test_load_reverifies_invariants(self, tmp_path):
        inst = generate(100, Balanced(4), bernoulli(0.8), bernoulli(0.2), seed=1)
        path = save(inst, tmp_path / "inst.oclb", sidecar=False)
        blob = bytearray(path.read_bytes())
        # corrupt a side-information byte to an out-of-range support index
        blob[-1] = 250
        (tmp_path / "bad.oclb").write_bytes(bytes(blob))
        with pytest.raises(InstanceFormatError, match="invariant"):
            load(tmp_path / "bad.oclb")


@given(
    n=st.integers(2, 40),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**30),
)
def test_generated_instance_invariants(n, k, seed):
    k = min(k, n)
    inst = generate(n, Balanced(k), bernoulli(0.75), bernoulli(0.25), seed)
    assert inst.side.tri.shape == (n * (n - 1) // 2,)
    assert inst.k == k
    sizes = [len(b) for b in inst.truth]
    assert sum(sizes) == n and min(sizes) >= 1
    assert set(inst.labels.tolist()) == set(range(k))


# ---------------------------------------------------------------------------
# fuzzing load: every input either loads a valid instance or raises
# InstanceFormatError, never anything else

_FUZZ_INSTANCE = generate(
    12,
    ExplicitSizes((5, 1, 6)),
    from_text("0:0.2,1:0.3,2:0.5"),
    from_text("0:0.5,1:0.3,2:0.2"),
    seed=3,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save(_FUZZ_INSTANCE, path / "saved.oclb", sidecar=False)
    return path


def _load_or_format_error(fuzz_dir, blob: bytes):
    """Load ``blob``; an accepted instance must round-trip through save."""
    path = fuzz_dir / "fuzzed.oclb"
    path.write_bytes(blob)
    try:
        got = load(path)
    except InstanceFormatError as exc:
        assert exc.offset >= 0
        return None
    again = load(save(got, fuzz_dir / "again.oclb", sidecar=False))
    assert again == got and again.fingerprint() == got.fingerprint()
    return got


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_load_fuzz_truncation(fuzz_dir, data):
    blob = (fuzz_dir / "saved.oclb").read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1))
    assert _load_or_format_error(fuzz_dir, blob[:cut]) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_load_fuzz_byte_flip(fuzz_dir, data):
    blob = bytearray((fuzz_dir / "saved.oclb").read_bytes())
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] = data.draw(st.integers(0, 255))
    got = _load_or_format_error(fuzz_dir, bytes(blob))
    if bytes(blob) == (fuzz_dir / "saved.oclb").read_bytes():
        assert got == _FUZZ_INSTANCE


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(["version", "n", "k", "q", "seed", "f_plus", "f_minus", "w_dtype"]),
    value=_JSON,
)
def test_load_fuzz_header_field(fuzz_dir, key, value):
    blob = (fuzz_dir / "saved.oclb").read_bytes()
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9 : 9 + hlen])
    unchanged = header[key] == value and type(header[key]) is type(value)
    header[key] = value
    raw = json.dumps(header).encode()
    edited = blob[:5] + struct.pack("<I", len(raw)) + raw + blob[9 + hlen :]
    got = _load_or_format_error(fuzz_dir, edited)
    if unchanged:
        assert got == _FUZZ_INSTANCE

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oclust.divergence import bernoulli, from_text
from oclust.instance import (
    Balanced,
    ExplicitSizes,
    InstanceFormatError,
    Skewed,
    cluster_sizes,
    generate,
    load,
    pair_index,
    pair_uniforms,
    save,
)


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


class TestGenerate:
    def test_degenerate_single_cluster(self):
        inst = generate(4, ExplicitSizes((4,)), bernoulli(1.0), bernoulli(0.0), seed=1)
        # all six pairs are intra and Bern(1) always lands on support value 1
        assert all(inst.side.value_index(u, v) == 1 for u in range(4) for v in range(u + 1, 4))

    def test_degenerate_two_blocks(self):
        inst = generate(4, ExplicitSizes((2, 2)), bernoulli(1.0), bernoulli(0.0), seed=1)
        intra = {(0, 1), (2, 3)}
        for u in range(4):
            for v in range(u + 1, 4):
                want = 1 if (u, v) in intra else 0
                assert inst.side.value_index(u, v) == want

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
        from oclust import instance as instance_mod
        from oclust.divergence import Distribution, Support

        # q = 300 stores W as uint16; both pmfs have zero-mass values
        rng = np.random.default_rng(8)
        w_plus, w_minus = rng.gamma(1.0, size=300), rng.gamma(1.0, size=300)
        w_plus[10:60] = 0.0
        w_minus[200:] = 0.0
        wide = Support(tuple(range(300)))
        wide_pmfs = (
            Distribution(wide, w_plus / w_plus.sum()),
            Distribution(wide, w_minus / w_minus.sum()),
        )
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
            (60, ExplicitSizes((20, 1, 9, 30)), wide_pmfs),
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
        from oclust import instance as instance_mod

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
                assert dense[u, v] == dense[v, u] == inst.side.value_index(u, v)

    def test_dense_matches_triangle_across_tiles(self):
        # dense() mirrors W tile by tile; n = 600 spans several tiles and a
        # ragged last one
        inst = generate(600, Balanced(3), bernoulli(0.6), bernoulli(0.4), seed=5)
        dense = inst.side.dense()
        assert np.array_equal(dense[np.triu_indices(600, k=1)], inst.side.tri)
        assert np.array_equal(dense, dense.T) and not dense.diagonal().any()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inst = generate(100, Balanced(4), bernoulli(0.85), bernoulli(0.15), seed=21)
        path = save(inst, tmp_path / "inst.oclb")
        again = load(path)
        assert again == inst
        assert again.fingerprint() == inst.fingerprint()
        # n <= 200 gets the human-readable sidecar
        assert (tmp_path / "inst.oclb.json").exists()

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

"""Partition comparison: partition_equal, misassigned_count and the block
matching under it."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oclust.clustering import max_matching, misassigned_count, partition_equal


def _brute_force(blocks, labels: np.ndarray) -> int:
    """n minus the best overlap over every injection of the blocks into the
    labels, or of the labels into the blocks when there are more blocks."""
    blocks = [b for b in blocks if len(b)]
    k = int(labels.max()) + 1
    overlap = [[sum(int(labels[v]) == c for v in b) for c in range(k)] for b in blocks]
    if len(blocks) <= k:
        pairs = (zip(range(len(blocks)), p) for p in itertools.permutations(range(k), len(blocks)))
    else:
        pairs = (zip(p, range(k)) for p in itertools.permutations(range(len(blocks)), k))
    best = max(sum(overlap[b][c] for b, c in p) for p in pairs)
    return len(labels) - best


def _random_partition(rng, n: int, parts: int) -> list[list[int]]:
    """Random split of 0..n-1 into ``parts`` blocks, some possibly empty."""
    blocks = [[] for _ in range(parts)]
    for v in rng.permutation(n):
        blocks[rng.integers(parts)].append(int(v))
    return blocks


def test_random_small_partitions_match_brute_force(rng):
    for _ in range(400):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, min(n, 5) + 1))
        # every label 0..k-1 used, as Instance requires
        labels = np.unique(rng.integers(0, k, n), return_inverse=True)[1].astype(np.int32)
        blocks = _random_partition(rng, n, int(rng.integers(1, 7)))
        assert misassigned_count(blocks, labels) == _brute_force(blocks, labels)


def _scipy_best(w: np.ndarray) -> int:
    rows, cols = linear_sum_assignment(w, maximize=True)
    return int(w[rows, cols].sum())


def test_random_matrices_match_scipy(rng):
    for _ in range(3000):
        r, c = (int(x) for x in rng.integers(0, 9, 2))
        # a narrow value range makes ties common
        w = rng.integers(0, rng.integers(1, 6), (r, c))
        if r and rng.random() < 0.3:
            w[rng.integers(r)] = 0
        assert max_matching(w) == _scipy_best(w)


@pytest.mark.parametrize("shape", [(30, 50), (50, 30), (40, 40), (3, 200)])
def test_larger_matrices_match_scipy(rng, shape):
    # long augmenting paths: many rows want the same few columns
    for high in (2, 4, 1000):
        w = rng.integers(0, high, shape)
        w[rng.random(shape[0]) < 0.1] = 0
        assert max_matching(w) == _scipy_best(w)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 1), (1, 5), (5, 1)])
def test_degenerate_shapes(shape):
    w = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
    assert max_matching(w) == _scipy_best(w)


TRUTH = np.repeat(np.arange(3), [10, 10, 5]).astype(np.int32)  # blocks 0-9, 10-19, 20-24


def _truth_blocks():
    return [list(range(10)), list(range(10, 20)), list(range(20, 25))]


def test_exact_partition_is_zero():
    blocks = _truth_blocks()
    assert misassigned_count(blocks, TRUTH) == 0
    # block order, member order and container type do not matter
    assert misassigned_count([set(blocks[2]), blocks[0][::-1], tuple(blocks[1])], TRUTH) == 0


def test_split_block():
    blocks = [list(range(6)), list(range(6, 10)), list(range(10, 20)), list(range(20, 25))]
    assert misassigned_count(blocks, TRUTH) == 4


def test_merged_blocks():
    assert misassigned_count([list(range(20)), list(range(20, 25))], TRUTH) == 10


def test_stray_elements():
    blocks = _truth_blocks()
    blocks[0].remove(3)
    blocks[2].append(3)
    blocks[1].remove(12)
    blocks[0].append(12)
    assert misassigned_count(blocks, TRUTH) == 2


def test_unclustered_elements_count_as_misassigned():
    blocks = _truth_blocks()
    blocks[1] = blocks[1][:7]
    assert misassigned_count(blocks, TRUTH) == 3


def test_more_blocks_than_labels():
    # six blocks for three labels: only the best block per label counts
    blocks = [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9], list(range(10, 13)), list(range(13, 20)), [20, 21], [22, 23, 24]]
    assert misassigned_count(blocks, TRUTH) == 4 + 3 + 2


def test_fewer_blocks_than_labels():
    assert misassigned_count([list(range(25))], TRUTH) == 15
    # the one block matches the label it overlaps most, not the first one
    assert misassigned_count([[0, 1] + list(range(10, 20))], TRUTH) == 15


def test_empty_blocks_are_ignored():
    blocks = _truth_blocks()
    assert misassigned_count([[], *blocks, (), set()], TRUTH) == 0
    assert misassigned_count([[], []], TRUTH) == 25
    assert misassigned_count([], TRUTH) == 25


def test_all_singletons():
    n = 1000
    labels = np.arange(n, dtype=np.int32)
    rng = np.random.default_rng(7)
    assert misassigned_count([[int(v)] for v in rng.permutation(n)], labels) == 0
    # pairs against singletons: one element of each pair is left over
    assert misassigned_count([[v, v + 1] for v in range(0, n, 2)], labels) == n // 2


def _partition_equal_sets(blocks, truth_labels) -> bool:
    """Reference: compare the partitions as sets of frozensets."""
    truth_labels = np.asarray(truth_labels)
    n = truth_labels.shape[0]
    if sum(len(b) for b in blocks) != n:
        return False
    got = {frozenset(b) for b in blocks}
    want: dict[int, set[int]] = {}
    for v, c in enumerate(truth_labels):
        want.setdefault(int(c), set()).add(v)
    return got == {frozenset(b) for b in want.values()}


@st.composite
def labelled_blocks(draw):
    """Truth labels with gaps, and blocks that are the truth partition, the
    truth with one fault, or arbitrary lists of ids."""
    n = draw(st.integers(0, 10))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    if not draw(st.booleans()):
        ids = st.integers(-1, n + 1)
        return draw(st.lists(st.lists(ids, max_size=n + 1), max_size=5)), labels
    blocks = [draw(st.permutations(np.flatnonzero(labels == c).tolist())) for c in np.unique(labels)]
    blocks = draw(st.permutations(blocks))
    fault = draw(st.sampled_from(("none", "dup", "drop", "outside", "empty", "move", "merge", "split")))
    if fault == "empty":
        blocks.append([])
    elif blocks and fault == "outside":
        blocks[0].append(draw(st.sampled_from((-1, n, n + 5))))
    elif blocks and fault == "merge" and len(blocks) > 1:
        blocks[0] += blocks.pop()
    elif blocks and fault in ("dup", "drop", "move", "split"):
        b = draw(st.integers(0, len(blocks) - 1))
        v = blocks[b].pop()
        if fault == "dup":
            blocks[b] += [v, v]
        elif fault == "move":
            blocks[draw(st.integers(0, len(blocks) - 1))].append(v)
        elif fault == "split":
            blocks.append([v])
    return blocks, labels


@given(labelled_blocks())
def test_partition_equal_matches_set_reference(case):
    blocks, labels = case
    as_tuples = [tuple(b) for b in blocks]
    assert partition_equal(blocks, labels) == _partition_equal_sets(blocks, labels)
    assert partition_equal(as_tuples, labels) == _partition_equal_sets(as_tuples, labels)


def test_partition_equal_cases():
    blocks = _truth_blocks()
    assert partition_equal(blocks, TRUTH)
    assert partition_equal([set(blocks[2]), blocks[0][::-1], tuple(blocks[1])], TRUTH)
    assert not partition_equal(blocks + [[]], TRUTH)
    assert not partition_equal([blocks[0] + [25]] + blocks[1:], TRUTH)
    assert not partition_equal([blocks[0][:-1] + [blocks[0][0]]] + blocks[1:], TRUTH)
    assert partition_equal([], np.array([], dtype=np.int64))
    assert not partition_equal([[]], np.array([], dtype=np.int64))


def test_misassigned_count_rejects_ids_outside_the_range():
    with pytest.raises(ValueError):
        misassigned_count([[0, 1], [2, 25]], TRUTH)


def test_import_loads_no_scipy():
    # the runtime depends on numpy alone: importing the package and its CLI
    # must not pull in any scipy module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, oclust, oclust.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

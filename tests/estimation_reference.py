"""Scalar references for the estimation kernels, built on ``Distribution``.

The package counts side-information values as integers and scores a whole
pool at once (:func:`~oclust.estimation.value_planes`,
:func:`~oclust.estimation.hellinger2_rows`,
:func:`~oclust.estimation.hellinger2_counts`,
:func:`~oclust.estimation.membership_scores`,
:func:`~oclust.estimation.estimates_from_counts`). These are the paper's
definitions, one vertex and one cluster at a time, for the tests to check
the kernels and the solvers against, plus the column-gather form of
:func:`value_planes` that the package's whole-row sums replaced.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from oclust.divergence import Distribution, Support, hellinger2
from oclust.estimation import Constants, Estimates, estimates_from_counts
from oclust.instance import SideInfo


def inter_dist(v: int, cluster: Iterable[int], side: SideInfo) -> Distribution:
    """Empirical distribution of the side-information values between v and
    the members of a cluster: p_{v,C}(i) = |{u in C: w_uv = a_i}| / |C|."""
    members = np.asarray(list(cluster), dtype=np.int64)
    if members.size == 0:
        raise ValueError("empty cluster")
    if (members == v).any():
        raise ValueError(f"element {v} is a member of the cluster")
    counts = _value_counts(side.dense()[v, members], side.q)
    return Distribution(side.support, counts / members.size)


def intra_dist(cluster: Iterable[int], side: SideInfo) -> Distribution:
    """Empirical pmf over a cluster's internal pairs.

    Each unordered pair contributes twice against the |C|(|C|-1) ordered-pair
    normalization, which is the same as counting unordered pairs once over
    C(|C|, 2).
    """
    members = np.asarray(list(cluster), dtype=np.int64)
    if members.size < 2:
        raise ValueError("intra distribution needs at least 2 members")
    sub = side.dense()[np.ix_(members, members)]
    iu = np.triu_indices(members.size, k=1)
    counts = _value_counts(sub[iu], side.q)
    return Distribution(side.support, counts / (members.size * (members.size - 1) / 2))


def membership(v: int, cluster: Iterable[int], side: SideInfo) -> float:
    """Affinity of v to the cluster: minus the squared Hellinger divergence
    between the empirical inter and intra distributions. In [-1, 0]; higher
    means v looks more like a member."""
    return -hellinger2(inter_dist(v, cluster, side), intra_dist(cluster, side))


def pooled_estimates(
    clusters: Sequence[Sequence[int]],
    side: SideInfo,
    consts: Constants,
    n: int,
) -> Estimates:
    """Pool every within-cluster pair into p_plus and every cross-cluster
    pair into p_minus, over all clustered elements (including clusters
    already fully processed; more pairs only tighten the estimates)."""
    if not clusters:
        raise ValueError("need at least one cluster")
    q = side.q
    dense = side.dense()
    intra = np.zeros(q, dtype=np.int64)
    n_intra = 0
    all_members: list[int] = []
    for cl in clusters:
        members = np.asarray(list(cl), dtype=np.int64)
        all_members.extend(members.tolist())
        if members.size >= 2:
            sub = dense[np.ix_(members, members)]
            iu = np.triu_indices(members.size, k=1)
            intra += _value_counts(sub[iu], q).astype(np.int64)
            n_intra += members.size * (members.size - 1) // 2

    everyone = np.asarray(all_members, dtype=np.int64)
    total = np.zeros(q, dtype=np.int64)
    if everyone.size >= 2:
        sub = dense[np.ix_(everyone, everyone)]
        iu = np.triu_indices(everyone.size, k=1)
        total = _value_counts(sub[iu], q).astype(np.int64)
    inter = total - intra
    n_inter = everyone.size * (everyone.size - 1) // 2 - n_intra
    return estimates_from_counts(intra, inter, n_intra, n_inter, side.support, consts, n)


def p_plus(est: Estimates, support: Support) -> Optional[Distribution]:
    """The empirical within-cluster distribution of ``est`` over ``support``;
    None without pairs."""
    return _pmf(support, est.intra_counts, est.n_intra_pairs)


def p_minus(est: Estimates, support: Support) -> Optional[Distribution]:
    """The empirical cross-cluster distribution of ``est`` over ``support``;
    None without pairs."""
    return _pmf(support, est.inter_counts, est.n_inter_pairs)


def value_planes(dense: np.ndarray, q: int, pool: np.ndarray, members: np.ndarray) -> np.ndarray:
    """:func:`oclust.estimation.value_planes` as the package computed it before
    it summed whole rows: gather the members' rows at the pool's columns and
    count each value with ``count_nonzero``, as int64 planes."""
    out = np.zeros((q, pool.size), dtype=np.int64)
    sub = dense[members][:, pool]
    for a in range(1, q):
        out[a] = np.count_nonzero(sub == a, axis=0)
    np.subtract(members.size, out[1:].sum(axis=0), out=out[0])
    return out


def _pmf(support: Support, counts: tuple[int, ...], pairs: int) -> Optional[Distribution]:
    return Distribution(support, [c / pairs for c in counts]) if pairs > 0 else None


def _value_counts(values: np.ndarray, q: int) -> np.ndarray:
    return np.bincount(values.ravel().astype(np.int64), minlength=q).astype(np.float64)

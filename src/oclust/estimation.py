"""Empirical inter/intra distributions, membership scores, and the iterative
size threshold driving the Monte Carlo solver.

All functions are pure in (W, clusters); scores for different vertices
against a frozen clustering snapshot can be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .divergence import Distribution, Support, hellinger, hellinger2
from .instance import SideInfo


@dataclass(frozen=True)
class Constants:
    """Algorithm constants: c >= 36 * c_prime (so that b > 6), c_prime >= 3.

    ``scale`` multiplies ``c`` wherever it sets a cluster-size threshold
    (phase-1 stop size, the iterative threshold), making desk-scale runs
    possible; it deliberately leaves the decision-band constant ``b``
    untouched. Every report records the effective values.
    """

    c: float = 118.0
    c_prime: float = 3.0
    scale: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.c, self.c_prime, self.scale)):
            raise ValueError("c, c_prime and scale must be finite")
        if self.c_prime < 3.0:
            raise ValueError("c_prime must be >= 3")
        if self.c < 36.0 * self.c_prime:
            raise ValueError("need c >= 36 * c_prime (equivalently b >= 6)")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")

    @property
    def b(self) -> float:
        return math.sqrt(self.c / self.c_prime)

    @property
    def effective_c(self) -> float:
        return self.c * self.scale

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "c_prime": self.c_prime,
            "scale": self.scale,
            "b": self.b,
            "effective_c": self.effective_c,
        }


@dataclass(frozen=True)
class Estimates:
    """Pooled empirical distributions and the size threshold they imply.

    ``m_threshold is None`` means "no finite threshold yet, keep querying":
    either one side has no pairs to estimate from, or the two estimates
    coincide (h == 0). Finite thresholds are capped at n so that degenerate
    estimates degrade to the query-only baseline instead of looping.
    """

    p_plus: Optional[Distribution]
    p_minus: Optional[Distribution]
    h: Optional[float]
    m_threshold: Optional[int]
    n_intra_pairs: int = 0
    n_inter_pairs: int = 0


def threshold_from_h(h: Optional[float], consts: Constants, n: int) -> Optional[int]:
    """ceil(scale * C * log n / h^2), capped at n; None when h is 0/unknown."""
    if h is None or h == 0.0:
        return None
    m = math.ceil(consts.effective_c * math.log(n) / (h * h))
    return max(1, min(n, m))


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


def estimates_from_counts(
    intra: np.ndarray,
    inter: np.ndarray,
    n_intra: int,
    n_inter: int,
    support: Support,
    consts: Constants,
    n: int,
) -> Estimates:
    """Estimates from pooled pair-value counts: ``intra`` over ``n_intra``
    within-cluster pairs, ``inter`` over ``n_inter`` cross-cluster pairs."""
    p_plus = Distribution(support, intra / n_intra) if n_intra > 0 else None
    p_minus = Distribution(support, inter / n_inter) if n_inter > 0 else None
    h = hellinger(p_plus, p_minus) if (p_plus and p_minus) else None
    return Estimates(
        p_plus=p_plus,
        p_minus=p_minus,
        h=h,
        m_threshold=threshold_from_h(h, consts, n),
        n_intra_pairs=n_intra,
        n_inter_pairs=n_inter,
    )


# ---------------------------------------------------------------------------
# vectorized kernels (solvers evaluate many vertices against one snapshot)


# Cells of W read per step of inter_counts: the rows read, their gathers and
# compares stay under the 4 MiB from which numpy asks for transparent huge
# pages (see instance._GENERATE_CHUNK).
_GATHER_CELLS = 1 << 20


def inter_counts(pool: np.ndarray, members: np.ndarray, side: SideInfo) -> np.ndarray:
    """Per-vertex counts of side-information values toward a member set:
    row v of the result is the unnormalized p_{v,C}. Shape (len(pool), q)."""
    dense = side.dense()
    # W is symmetric, so read whole member rows, a step at a time, and gather
    # the pool's columns from them: contiguous rows are far cheaper than a
    # cell-by-cell np.ix_ gather
    out = np.zeros((pool.size, side.q), dtype=np.float64)
    step = max(1, _GATHER_CELLS // dense.shape[1])
    for lo in range(0, members.size, step):
        sub = dense[members[lo : lo + step]][:, pool]
        for i in range(1, side.q):
            out[:, i] += np.count_nonzero(sub == i, axis=0)
    # every cell holds exactly one value
    out[:, 0] = members.size - out[:, 1:].sum(axis=1)
    return out


def hellinger2_rows(counts: np.ndarray, p_ref: np.ndarray) -> np.ndarray:
    """Squared Hellinger divergence of each count row (normalized) from a
    reference pmf."""
    totals = counts.sum(axis=1, keepdims=True)
    d = np.sqrt(counts / totals) - np.sqrt(p_ref)[None, :]
    return 0.5 * np.einsum("ij,ij->i", d, d)


def membership_scores(pool: np.ndarray, members: Sequence[int], side: SideInfo) -> np.ndarray:
    """Vectorized membership of every pool vertex against one cluster;
    matches :func:`membership` elementwise."""
    members = np.asarray(list(members), dtype=np.int64)
    p_c = intra_dist(members, side).probs_array
    return -hellinger2_rows(inter_counts(pool, members, side), p_c)


def _value_counts(values: np.ndarray, q: int) -> np.ndarray:
    return np.bincount(values.ravel().astype(np.int64), minlength=q).astype(np.float64)

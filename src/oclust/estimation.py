"""Pooled estimates of h from integer pair-value counts, the membership
score kernels, and the iterative size threshold driving the Monte Carlo
solver.

Side-information values are counted as integers and scored a whole pool at
a time; nothing here builds a :class:`~oclust.divergence.Distribution`.
All functions are pure in (W, clusters); scores for different vertices
against a frozen clustering snapshot can be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .divergence import Support, hellinger2_probs
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
    """Pooled pair-value counts, the Hellinger divergence h between their
    empirical distributions, and the size threshold h implies.

    ``intra_counts`` counts the values of ``n_intra_pairs`` within-cluster
    pairs, ``inter_counts`` those of ``n_inter_pairs`` cross-cluster pairs,
    one count per value; their ratios are the empirical within- and
    cross-cluster distributions.

    ``m_threshold is None`` means "no finite threshold yet, keep querying":
    either one side has no pairs to estimate from, or the two estimates
    coincide (h == 0). Finite thresholds are capped at n so that degenerate
    estimates degrade to the query-only baseline instead of looping.
    """

    h: Optional[float]
    m_threshold: Optional[int]
    n_intra_pairs: int
    n_inter_pairs: int
    intra_counts: tuple[int, ...]
    inter_counts: tuple[int, ...]


def threshold_from_h(h: Optional[float], consts: Constants, n: int) -> Optional[int]:
    """ceil(scale * C * log n / h^2), capped at n; None when h is 0/unknown."""
    if h is None or h == 0.0:
        return None
    m = math.ceil(consts.effective_c * math.log(n) / (h * h))
    return max(1, min(n, m))


def estimates_from_counts(
    intra: Sequence[int],
    inter: Sequence[int],
    n_intra: int,
    n_inter: int,
    support: Support,
    consts: Constants,
    n: int,
) -> Estimates:
    """Estimates from pooled pair-value counts: ``intra`` over ``n_intra``
    within-cluster pairs, ``inter`` over ``n_inter`` cross-cluster pairs.

    h is the square root of :func:`~oclust.divergence.hellinger2_probs` of
    the count ratios, the two empirical distributions.
    """
    intra = _checked_counts(intra, n_intra, support.q, "intra")
    inter = _checked_counts(inter, n_inter, support.q, "inter")
    h = None
    if n_intra > 0 and n_inter > 0:
        h = math.sqrt(
            hellinger2_probs([c / n_intra for c in intra], [c / n_inter for c in inter])
        )
    return Estimates(
        h=h,
        m_threshold=threshold_from_h(h, consts, n),
        n_intra_pairs=n_intra,
        n_inter_pairs=n_inter,
        intra_counts=intra,
        inter_counts=inter,
    )


def _checked_counts(counts: Sequence[int], pairs: int, q: int, side: str) -> tuple[int, ...]:
    """``counts`` as a tuple of ints: q of them, nonnegative, summing to
    ``pairs``. Exact, so their ratios are a pmf without a tolerance check."""
    out = tuple(np.asarray(counts, dtype=np.int64).tolist())
    if len(out) != q or min(out) < 0 or sum(out) != pairs:
        raise ValueError(f"{side} counts {out} are not {q} nonnegative counts of {pairs} pairs")
    return out


# ---------------------------------------------------------------------------
# vectorized kernels (solvers evaluate many vertices against one snapshot)


# Cells of W read per step of value_totals: the rows and their compares stay
# under the 4 MiB from which numpy asks for huge pages (instance._GENERATE_CHUNK)
_GATHER_CELLS = 1 << 20


def value_totals(dense: np.ndarray, q: int, rows: np.ndarray) -> np.ndarray:
    """Counts of each side-information value 1..q-1 between every vertex and
    the set ``rows``, one int32 plane per value: shape (q-1, n). Value 0's
    count is len(rows) minus their sum; a vertex's own row adds nothing, as
    W's diagonal is 0. Callers take the columns they need."""
    # W is symmetric, so sum whole rows, a step at a time, into totals per vertex
    totals = np.zeros((q - 1, dense.shape[1]), dtype=np.int32)
    step = max(1, _GATHER_CELLS // dense.shape[1])
    for lo in range(0, rows.size, step):
        block = dense[rows[lo : lo + step]]
        for a in range(1, q):
            totals[a - 1] += np.add.reduce((block == a).view(np.uint8), axis=0, dtype=np.int32)
    return totals


def _hellinger2_terms(counts, total, p_ref) -> np.ndarray:
    """The terms (sqrt(counts / total) - sqrt(p_ref))^2 of hellinger2_probs."""
    d = np.sqrt(np.divide(counts, total)) - np.sqrt(p_ref)
    return np.multiply(d, d, out=d)


def _halved_sum(d) -> np.ndarray:
    """Half the sum of the term planes ``d``, added left to right, clamped to 1."""
    s = d[0]
    for a in range(1, len(d)):
        s += d[a]
    s = np.multiply(s, 0.5)
    return np.minimum(s, 1.0, out=s)


def hellinger2_rows(counts: np.ndarray, total, p_ref: np.ndarray) -> np.ndarray:
    """Squared Hellinger divergence of count rows from a reference pmf.

    ``counts`` holds one plane per value, shape (q, ...): ``counts[a]``
    counts value a for every row, and a row's q counts sum to ``total``.
    ``total`` and ``p_ref``, whose first axis runs over the q values,
    broadcast against ``counts``. Each row equals
    :func:`~oclust.divergence.hellinger2_probs` of ``row / total`` and the
    reference: the terms are added left to right, one rounding per
    operation, and the sum is clamped to 1."""
    return _halved_sum(_hellinger2_terms(counts, total, p_ref))


def hellinger2_counts(planes: np.ndarray, total: int, p_ref: np.ndarray) -> np.ndarray:
    """:func:`hellinger2_rows` of integer count rows sharing one ``total`` and
    one (q,) pmf ``p_ref``, bit for bit. ``planes`` counts values 1..q-1,
    shape (q-1, rows); value 0's count is ``total`` minus their sum. A term
    depends only on its value and count, so each value's terms are computed
    once for the counts 0..total and gathered per row."""
    q = len(p_ref)
    table = _hellinger2_terms(np.arange(total + 1), total, p_ref[:, None])
    # value 0's terms run backwards: indexed by the count of the other values
    table[0] = table[0][::-1]
    if q == 2:
        # that count is value 1's, so each row's divergence is in one table
        return _halved_sum(table).take(planes[0])
    others = planes.sum(axis=0, dtype=planes.dtype)
    return _halved_sum([table[0].take(others), *(table[a].take(planes[a - 1]) for a in range(1, q))])


def membership_scores(pool: np.ndarray, members: Sequence[int], side: SideInfo) -> np.ndarray:
    """Membership of every pool vertex in one cluster: minus the squared
    Hellinger divergence between the vertex's value counts toward the
    members, over the cluster size, and the cluster's pair value counts,
    over its s(s-1)/2 pairs. In [-1, 0]; higher means the vertex looks more
    like a member. Needs at least 2 members."""
    members = np.asarray(list(members), dtype=np.int64)
    s = members.size
    if s < 2:
        raise ValueError("membership needs a cluster of at least 2 members")
    totals = value_totals(side.dense(), side.q, members)
    # each pair of members is seen from both ends
    intra = totals.take(members, axis=1).sum(axis=1) // 2
    pairs = s * (s - 1) // 2
    p_c = np.concatenate(([pairs - intra.sum()], intra)) / pairs
    return -hellinger2_counts(totals.take(pool, axis=1), s, p_c)

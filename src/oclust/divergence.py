"""Finite discrete distributions and the divergences the rest of the code runs on.

Conventions: natural logarithms everywhere; KL returns ``math.inf`` when the
first argument puts mass where the second has none; ``0 * log(0/x) == 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class Support:
    """Shared ordered sample space ``a_1 < a_2 < ... < a_q`` (q >= 2)."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise ValueError("support needs at least 2 points")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("support values must be finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("support values must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @property
    def q(self) -> int:
        return len(self.values)


# Probability vectors must sum to one within this tolerance.
PROB_TOL = 1e-12


class Distribution:
    """A pmf over a :class:`Support`. Immutable once constructed."""

    __slots__ = ("support", "probs", "_array", "_cdf")

    def __init__(self, support: Support, probs: Iterable[float]):
        probs = tuple(float(p) for p in probs)
        if len(probs) != support.q:
            raise ValueError(
                f"expected {support.q} probabilities, got {len(probs)}"
            )
        if not all(0.0 <= p <= 1.0 for p in probs):  # also rejects NaN
            raise ValueError("probabilities must be finite and lie in [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        arr = np.asarray(probs, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "_cdf", None)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    @property
    def q(self) -> int:
        return self.support.q

    @property
    def probs_array(self) -> np.ndarray:
        return self._array

    @property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities, used for inverse-CDF sampling."""
        if self._cdf is None:
            cdf = np.cumsum(self._array)
            cdf.setflags(write=False)
            object.__setattr__(self, "_cdf", cdf)
        return self._cdf

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.support == other.support and self.probs == other.probs

    def __hash__(self):
        return hash((self.support, self.probs))

    def __repr__(self):
        return f"Distribution({to_text(self)!r})"


BINARY_SUPPORT = Support((0.0, 1.0))


def bernoulli(p: float) -> Distribution:
    """Bernoulli(p) on the shared {0, 1} support: P(1) = p."""
    return Distribution(BINARY_SUPPORT, (1.0 - p, p))


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def to_text(dist: Distribution) -> str:
    """Render as ``v1:p1,v2:p2,...`` (the CLI/config wire format)."""
    return ",".join(
        f"{_format_number(v)}:{_format_number(p)}"
        for v, p in zip(dist.support.values, dist.probs)
    )


def from_text(text: str) -> Distribution:
    """Parse the ``v1:p1,v2:p2,...`` format, e.g. ``0:0.3,1:0.7`` for Bern(0.7)."""
    values: list[float] = []
    probs: list[float] = []
    for i, part in enumerate(text.split(",")):
        piece = part.strip()
        if ":" not in piece:
            raise ValueError(f"bad distribution entry {i}: {piece!r} (want value:prob)")
        v, _, p = piece.partition(":")
        try:
            values.append(float(v))
            probs.append(float(p))
        except ValueError as exc:
            raise ValueError(f"bad distribution entry {i}: {piece!r}") from exc
    return Distribution(Support(tuple(values)), probs)


def _check_pair(f: Distribution, g: Distribution) -> None:
    if f.support != g.support:
        raise ValueError("support mismatch")


def hellinger2(f: Distribution, g: Distribution) -> float:
    """Squared Hellinger divergence: 0.5 * sum_i (sqrt(f_i) - sqrt(g_i))^2."""
    _check_pair(f, g)
    return hellinger2_probs(f.probs, g.probs)


def hellinger2_probs(f: Iterable[float], g: Iterable[float]) -> float:
    """:func:`hellinger2` of two probability sequences of one length.

    The terms are summed left to right with one rounding per operation. A
    BLAS dot product may fuse a multiply and an add, depending on the CPU it
    dispatches to, and so change the last bit of the result.
    """
    s = 0.0
    for a, b in zip(f, g):
        d = math.sqrt(a) - math.sqrt(b)
        s += d * d
    # rounding can push the value marginally outside [0, 1]
    return min(max(0.5 * s, 0.0), 1.0)


def hellinger(f: Distribution, g: Distribution) -> float:
    """Hellinger divergence, the square root of :func:`hellinger2`.

    Unlike the squared form this satisfies the triangle inequality.
    """
    return math.sqrt(hellinger2(f, g))


def kl(f: Distribution, g: Distribution) -> float:
    """KL divergence D(f||g) in nats; ``inf`` if g misses mass f carries."""
    _check_pair(f, g)
    p = f.probs_array
    q = g.probs_array
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    val = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return max(val, 0.0)


def symmetric_kl(f: Distribution, g: Distribution) -> float:
    """Symmetrized KL divergence D(f||g) + D(g||f)."""
    return kl(f, g) + kl(g, f)

"""Closed-form lower-bound calculators.

Used by the harness to annotate benchmark output and by the property suite.
Everything is evaluated exactly (no asymptotic terms dropped) and clamped to
[0, 1]; where the derivations take an approximation step (e.g. e^{-x} for
(1-x)^m, or the two-log simplification of the Fano denominator), the shortcut
is exposed as ``mode="approx"`` for comparison. Natural logs throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divergence import Distribution, hellinger2, symmetric_kl

MODES = ("exact", "approx")


@dataclass(frozen=True)
class LowerBoundInputs:
    """Inputs for the equal-cluster-size error bound: k clusters of size a
    (n = a*k), a query budget, and the Hellinger divergence between the two
    side-information distributions."""

    n: int
    k: int
    a: int
    q_budget: float
    h: float

    def __post_init__(self):
        if self.a < 1 or self.k < 1:
            raise ValueError("a and k must be positive")
        if self.n != self.a * self.k:
            raise ValueError(f"n must equal a*k (got n={self.n}, a*k={self.a * self.k})")
        if not 0.0 <= self.h <= 1.0:
            raise ValueError("h must lie in [0, 1]")
        if not 0.0 <= self.q_budget < math.inf:
            raise ValueError("query budget must be finite and nonnegative")


def lb_error_prob(inputs: LowerBoundInputs) -> float:
    """Error probability floor for any algorithm under a query budget:
    1 - (2/k)(1 + sqrt(4Q/(ak)))^2 - 4Q/(ak(k-1)) - 2 sqrt(a) H, clamped."""
    a, k, q, h = inputs.a, inputs.k, inputs.q_budget, inputs.h
    if k < 2:
        raise ValueError("k must be at least 2")
    value = (
        1.0
        - (2.0 / k) * (1.0 + math.sqrt(4.0 * q / (a * k))) ** 2
        - 4.0 * q / (a * k * (k - 1))
        - 2.0 * math.sqrt(a) * h
    )
    return _clamp(value)


def lb_query_budget(n: int, k: int, h: float) -> float:
    """Queries needed for correct recovery, up to constants:
    min(nk, k^2 / h^2); useless side information (h = 0) degrades to nk."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if not 0.0 <= h <= 1.0:
        raise ValueError("h must lie in [0, 1]")
    if h == 0.0:
        return float(n * k)
    return float(min(n * k, k * k / (h * h)))


def fano_zero_query_kl(
    n: int, k: int, f_plus: Distribution, f_minus: Distribution, mode: str = "exact"
) -> float:
    """Zero-query error floor from the swapped-pair hypothesis family via
    Fano: 1 - ((2n/k) Delta + log 2) / log((n^2/2)(1 - 1/k)), where Delta is
    the symmetrized KL divergence. ``approx`` collapses the denominator to
    the sparse-regime reading 1 - n Delta / (k log n)."""
    _check_nk(n, k)
    delta = symmetric_kl(f_plus, f_minus)
    if math.isinf(delta):
        return 0.0
    if mode == "exact":
        hypotheses = (n * n / 2.0) * (1.0 - 1.0 / k)
        value = 1.0 - ((2.0 * n / k) * delta + math.log(2.0)) / math.log(hypotheses)
    elif mode == "approx":
        value = 1.0 - n * delta / (k * math.log(n))
    else:
        raise ValueError(f"mode must be one of {MODES}")
    return _clamp(value)


def fano_zero_query_hellinger(
    n: int, k: int, f_plus: Distribution, f_minus: Distribution, mode: str = "exact"
) -> float:
    """Zero-query error floor from the Renyi-1/2 form:
    sqrt(k/n) + sqrt(P_e) >= (1 - H^2)^(2n/k), rearranged and squared.
    ``approx`` replaces the power with exp(-2 n H^2 / k)."""
    _check_nk(n, k)
    h2 = hellinger2(f_plus, f_minus)
    if mode == "exact":
        base = (1.0 - h2) ** (2.0 * n / k)
    elif mode == "approx":
        base = math.exp(-2.0 * n * h2 / k)
    else:
        raise ValueError(f"mode must be one of {MODES}")
    root = base - math.sqrt(k / n)
    return _clamp(max(0.0, root) ** 2)


def _check_nk(n: int, k: int) -> None:
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 and k >= 2")
    if k > n:
        raise ValueError("k cannot exceed n")


def _clamp(value: float) -> float:
    return min(max(value, 0.0), 1.0)

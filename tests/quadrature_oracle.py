"""Dyadic quadrature oracle for the monomial integrability criterion.

An independent float check of ``multiplier.membership_criterion`` at desk
scale (p <= 2), used by test_multiplier.py and test_acceptance.py.
"""

import math
from fractions import Fraction
from typing import Sequence

from posbounds.core import QLike


def integrability_oracle(
    alpha: Sequence[QLike], beta: Sequence[int], grid: int = 2048
) -> bool:
    """Numerically decide convergence of the corner integral

        int_{[0,1]^p} t^((beta+1)/alpha) / (t_1+...+t_p) prod dt_j/t_j

    by dyadic-corner refinement: the integral converges iff the dyadic shell
    sums decay geometrically, at the rate m = min(e_1, ..., e_p, sum e - 1)
    with e_j = (beta_j + 1)/alpha_j.

    The shell sum at depth k is 2^(-k m) times a factor that never falls as k
    grows when m <= 0, and grows less than 4-fold from k = grid/2 to k = grid
    (each cell sum is a prefix sum of a nonincreasing sequence, up to a
    factor 2).  So the measured slope is at most m when m <= 0, at least
    m - 4/grid otherwise, and the cutoff 3/grid decides every m outside
    (0, 7/grid].  A margin in that band raises ValueError: it is computed
    exactly, before any float is formed.
    """
    alpha = [Fraction(a) for a in alpha]
    if any(a <= 0 for a in alpha):
        raise ValueError("alpha must be positive")
    p = len(alpha)
    if p < 1 or p > 2:
        raise ValueError("oracle is desk-scale only (p <= 2)")
    if len(beta) != p:
        raise ValueError("beta must have the same length as alpha")
    if grid < 64:
        raise ValueError("grid resolution must be >= 64")
    exact = [Fraction(b + 1) / a for b, a in zip(beta, alpha)]
    margin = min(*exact, sum(exact) - 1)
    if 0 < margin <= Fraction(7, grid):
        raise ValueError(f"margin {margin} is below the resolution 7/{grid} of the quadrature")
    e = [float(x) for x in exact]
    k1, k2 = grid // 2, grid
    slope = (_shell_log2(e, k1) - _shell_log2(e, k2)) / (k2 - k1)
    return slope > 3.0 / grid


def _shell_log2(e: list[float], k: int) -> float:
    """log2 of the dyadic shell sum at depth k (cells with max index = k)."""
    ln2 = math.log(2.0)
    if len(e) == 1:
        return -k * (e[0] - 1.0)
    terms = []
    for i in range(k + 1):
        # cell (i, k):  2^{-(i e1 + k e2)} / (2^{-i} + 2^{-k})
        terms.append(-(i * e[0] + k * e[1]) + min(i, k) - math.log1p(2.0 ** (-abs(i - k))) / ln2)
        if i < k:
            terms.append(-(k * e[0] + i * e[1]) + min(i, k) - math.log1p(2.0 ** (-abs(i - k))) / ln2)
    m = max(terms)
    return m + math.log(sum(2.0 ** (t - m) for t in terms)) / ln2

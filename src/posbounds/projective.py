"""Exact intersection ring and section counts on products of projective spaces.

This is the ground-truth fixture backing the bound modules: every worked
example lives on some product P^{k_1} x ... x P^{k_r}, where the intersection
ring is Z[H_1,...,H_r]/(H_i^{k_i+1}) and all numbers are computable exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import InputError, Record, check_n


class ProductSpace(Record):
    __slots__ = ("factor_dims",)  # a tuple of positive ints

    def _check(self) -> None:
        if not self.factor_dims or any(k < 1 for k in self.factor_dims):
            raise InputError("factor dimensions must be positive integers")

    @property
    def n(self) -> int:
        return sum(self.factor_dims)

    @property
    def r(self) -> int:
        return len(self.factor_dims)


class DivisorClass(Record):
    __slots__ = ("space", "coeffs")  # a ProductSpace, a tuple of ints

    def _check(self) -> None:
        if len(self.coeffs) != self.space.r:
            raise InputError("coefficient count must match the number of factors")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if other.space != self.space:
            raise InputError("divisor classes live on different spaces")
        return DivisorClass(self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(self.space, tuple(k * c for c in self.coeffs))


def top_intersection(classes: Sequence[DivisorClass]) -> int:
    """Top intersection number of n divisor classes on the same product space.

    Multilinear expansion in the ring Z[H_i]/(H_i^{k_i+1}): the result is the
    coefficient of H_1^{k_1}...H_r^{k_r} in the product.
    """
    if not classes:
        raise InputError("need at least one class")
    space = classes[0].space
    if any(c.space != space for c in classes):
        raise InputError("all classes must live on the same space")
    if len(classes) != space.n:
        raise InputError(f"need exactly n={space.n} classes, got {len(classes)}")
    dims = space.factor_dims
    # poly: exponent tuple -> coefficient, truncated at H_i^{k_i}.
    poly: dict[tuple[int, ...], int] = {tuple(0 for _ in dims): 1}
    for cls in classes:
        nxt: dict[tuple[int, ...], int] = {}
        for expo, coeff in poly.items():
            for i, c in enumerate(cls.coeffs):
                if c == 0 or expo[i] >= dims[i]:
                    continue
                new = list(expo)
                new[i] += 1
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + coeff * c
        poly = nxt
    return poly.get(tuple(dims), 0)


def h0(cls: DivisorClass) -> int:
    """Number of global sections: the count of lattice monomials in the box."""
    if any(c < 0 for c in cls.coeffs):
        return 0
    out = 1
    for c, k in zip(cls.coeffs, cls.space.factor_dims):
        out *= math.comb(c + k, k)
    return out


def canonical_class(space: ProductSpace) -> DivisorClass:
    return DivisorClass(space, tuple(-(k + 1) for k in space.factor_dims))


def strata_minima(space: ProductSpace, cls: DivisorClass) -> dict[int, int]:
    """min of L^p . Y over p-dimensional coordinate strata, for p = 1..n.

    A coordinate stratum is a product of linear subspaces P^{e_i} <= P^{k_i};
    on it L^p integrates to multinomial(p; e) * prod c_i^{e_i}.  These are
    upper bounds only for the true minimum over all subvarieties.
    """
    if cls.space != space:
        raise InputError("class does not live on the given space")
    dims = space.factor_dims
    minima: dict[int, int] = {}
    for p in range(1, space.n + 1):  # p <= n, so every p has a split
        totals = []
        for expo in _splits(dims, p):
            mult = math.factorial(p)
            val = 1
            for e, c in zip(expo, cls.coeffs):
                mult //= math.factorial(e)
                val *= c ** e
            totals.append(mult * val)
        minima[p] = min(totals)
    return minima


def _splits(dims: tuple[int, ...], total: int):
    if len(dims) == 1:
        if total <= dims[0]:
            yield (total,)
        return
    for e in range(0, min(dims[0], total) + 1):
        for rest in _splits(dims[1:], total - e):
            yield (e,) + rest


class IntersectionProfile(Record):
    """Declared intersection data consumed by the bound modules.

    per_dim_min entries are caller declarations (the true minimum over all
    subvarieties is not computable from finite data); the fixture's strata
    minima are upper bounds only.
    """

    __slots__ = ("n", "Ln", "LK", "per_dim_min")  # ints, and {p: declared min}

    def _check(self) -> None:
        check_n(self.n)


def profile_from_fixture(space: ProductSpace, L: DivisorClass) -> IntersectionProfile:
    """Build a profile for L on a product space, minima from coordinate strata."""
    n = space.n
    K = canonical_class(space)
    Ln = top_intersection([L] * n)
    LK = top_intersection([L] * (n - 1) + [K])
    return IntersectionProfile(n, Ln, LK, strata_minima(space, L))

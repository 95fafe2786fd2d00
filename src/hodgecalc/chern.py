"""Symbolic Chern-class algebra: Schur and Segre polynomials.

Symbols live in Q[c_1..c_r] with c_i of weighted degree i; c_0 = 1 and c_j
vanishes outside 0..r.
"""

from __future__ import annotations

from .errors import InvalidPartition
from .polynomials import MultiPoly, poly_mat_det
from .records import Record


class ChernSymbol(Record):
    """Polynomial in the Chern classes of a rank-r bundle."""

    rank: int
    poly: MultiPoly

    def __str__(self):
        return self.poly.to_string("c")


def chern_generator(rank: int, i: int) -> ChernSymbol:
    """The symbol c_i, with the conventions c_0 = 1 and c_i = 0 outside 0..r."""
    if i == 0:
        return ChernSymbol(rank, MultiPoly.const(rank, 1))
    if i < 0 or i > rank:
        return ChernSymbol(rank, MultiPoly.zero(rank))
    return ChernSymbol(rank, MultiPoly.variable(rank, i - 1))


def schur_polynomial(partition, rank: int) -> ChernSymbol:
    """Determinant expansion of the Schur symbol of a partition.

    The (i, j) entry of the underlying matrix is c_{lambda_i + j - i}.
    """
    lam = [int(x) for x in partition]
    if any(a < 0 for a in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise InvalidPartition(f"{partition} is not a partition")
    if lam and lam[0] > rank:
        raise InvalidPartition(f"part {lam[0]} exceeds the rank {rank}")
    n = len(lam)
    if n == 0:
        return ChernSymbol(rank, MultiPoly.const(rank, 1))
    entries = [[chern_generator(rank, lam[i] + j - i).poly for j in range(n)]
               for i in range(n)]
    return ChernSymbol(rank, poly_mat_det(entries))


# The most monomial products `segre_polynomial` may be asked to take through
# the command line (about 3 s on a 2-vCPU Xeon with Python 3.11).
MAX_SEGRE_PRODUCTS = 100_000


def segre_products(degree: int, rank: int) -> int:
    """The monomial products c_i * s_(q-i) that `segre_polynomial` takes, or
    the first running count past MAX_SEGRE_PRODUCTS.  s_m has one monomial
    per partition of m into parts <= rank; each degree q adds at least
    min(q, rank) products, so the count stops after O(MAX_SEGRE_PRODUCTS)
    steps."""
    # count[m][k]: partitions of m into parts <= k, for k = 0..min(m, rank)
    count, total = [], 0
    for q in range(degree + 1):
        row = [1 if q == 0 else 0]
        for k in range(1, min(q, rank) + 1):
            row.append(row[k - 1] + count[q - k][min(k, q - k)])
        count.append(row)
        total += sum(count[q - i][-1] for i in range(1, min(q, rank) + 1))
        if total > MAX_SEGRE_PRODUCTS:
            break
    return total


def segre_polynomial(degree: int, rank: int) -> ChernSymbol:
    """Segre symbols from the tautological-relation recursion
    s_q = c_1 s_{q-1} - c_2 s_{q-2} + ...; s_0 = 1."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    table = [MultiPoly.const(rank, 1)]
    for q in range(1, degree + 1):
        acc = MultiPoly.zero(rank)
        for i in range(1, min(q, rank) + 1):
            term = chern_generator(rank, i).poly * table[q - i]
            acc = acc + (term if i % 2 == 1 else -term)
        table.append(acc)
    return ChernSymbol(rank, table[degree])


def grothendieck_defect(q: int, rank: int) -> ChernSymbol:
    """sum_i (-1)^i c_i s_{q-i}; identically zero for q >= 1."""
    acc = MultiPoly.zero(rank)
    for i in range(0, min(q, rank) + 1):
        term = chern_generator(rank, i).poly * segre_polynomial(q - i, rank).poly
        acc = acc + (term if i % 2 == 0 else -term)
    return ChernSymbol(rank, acc)
